import numpy as np
import pytest

from conftest import traced_peak
from freescale import tensor_ops
from freescale.attention import (
    AttentionWeights,
    FusionConfig,
    PatchGrid,
    fused_attention,
    reconstruct_average,
    scale_fusion,
    self_attention,
    shifted_crop_sampling,
)
from freescale.oracle import reference_lowpass, reference_overlap_average, reference_self_attention
from freescale.tensor_ops import lowpass

RNG = np.random.default_rng(5)


def random_weights(dim):
    return AttentionWeights(
        RNG.standard_normal((dim, dim)),
        RNG.standard_normal((dim, dim)),
        RNG.standard_normal((dim, dim)),
        RNG.standard_normal((dim, dim)),
    )


def scaled_weights(rng, dim, scale):
    return AttentionWeights(*(rng.standard_normal((dim, dim)) * scale for _ in range(4)))


class TestSelfAttention:
    def test_single_token(self):
        w = random_weights(3)
        x = RNG.standard_normal((1, 3, 1, 1)).astype(np.float32)
        out = self_attention(x, w)
        token = x[0, :, 0, 0].astype(np.float64)
        expected = (token @ w.w_v.astype(np.float64)) @ w.w_o.astype(np.float64)
        np.testing.assert_allclose(out[0, :, 0, 0], expected, atol=1e-5)

    def test_permutation_equivariance(self):
        w = random_weights(4)
        x = RNG.standard_normal((1, 4, 2, 3)).astype(np.float32)
        perm = RNG.permutation(6)
        tokens = x.reshape(1, 4, 6)[:, :, perm].reshape(1, 4, 2, 3)
        out_perm = self_attention(tokens, w).reshape(1, 4, 6)
        out = self_attention(x, w).reshape(1, 4, 6)[:, :, perm]
        np.testing.assert_allclose(out_perm, out, atol=1e-5)

    def test_uniform_attention_token_mean(self):
        dim = 2
        zeros = np.zeros((dim, dim), np.float32)
        w = AttentionWeights(zeros, zeros, np.eye(dim), np.eye(dim))
        x = np.array([[[[1.0, 3.0]], [[2.0, 6.0]]]], np.float32)  # 2 tokens
        out = self_attention(x, w)
        np.testing.assert_allclose(out[0, 0], 2.0, atol=1e-6)
        np.testing.assert_allclose(out[0, 1], 4.0, atol=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            self_attention(np.zeros((1, 3, 2, 2)), random_weights(4))

    # every matrix must be [dim, dim], dim being w_q's row count; the error
    # starts with the field that breaks it
    @pytest.mark.parametrize("field", ["w_q", "w_k", "w_v", "w_o"])
    @pytest.mark.parametrize("shape", [(4, 3), (4,), (4, 4, 4)])
    def test_weights_validation(self, field, shape):
        mats = {name: np.eye(4) for name in ("w_q", "w_k", "w_v", "w_o")}
        mats[field] = np.ones(shape)
        with pytest.raises(ValueError, match=f"^{field} "):
            AttentionWeights(**mats)

    @pytest.mark.parametrize("field", ["w_k", "w_v", "w_o"])
    def test_weights_validation_size_of_w_q(self, field):
        mats = {name: np.eye(4) for name in ("w_q", "w_k", "w_v", "w_o")}
        mats[field] = np.eye(3)
        with pytest.raises(ValueError, match=f"^{field} must be 4x4"):
            AttentionWeights(**mats)

    # the level-8 global map (1024 tokens) and its 225-patch fusion stack
    @pytest.mark.parametrize("shape", [(1, 32, 32, 32), (225, 32, 4, 4)])
    @pytest.mark.parametrize("scale", [0.3, 1.0])
    def test_bitwise_equal_to_reference(self, shape, scale):
        rng = np.random.default_rng(23)
        w = scaled_weights(rng, shape[1], scale)
        x = rng.standard_normal(shape).astype(np.float32)
        assert np.array_equal(self_attention(x, w), reference_self_attention(x, w))

    def test_peak_memory_one_score_matrix(self):
        # query-row blocks keep at most a [128, T] slice of the scores: about
        # 0.4 * T^2 * 8 bytes at T = 1024 (2 * T^2 * 8 with the whole [T, T]
        # matrix, 5 * T^2 * 8 with a fresh array per pass)
        rng = np.random.default_rng(29)
        w = scaled_weights(rng, 32, 0.3)
        x = rng.standard_normal((1, 32, 32, 32)).astype(np.float32)
        tokens = 32 * 32
        assert traced_peak(lambda: self_attention(x, w)) <= 0.5 * tokens**2 * 8

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("size", [1, 2, 3])
    def test_query_row_tiles(self, monkeypatch, n, size):
        # a stack of n 5x7 maps, 35 tokens each, in tiles of 1-3 whole maps
        # and then in tiles of 1-3 query rows of one map, the last tile short;
        # one map's float64 q, k, v and scores are 35 * (35 + 3 * 6) * 8
        # bytes, one row's scores 35 * 8
        rng = np.random.default_rng(41)
        w = scaled_weights(rng, 6, 1.0)
        x = rng.standard_normal((n, 6, 5, 7)).astype(np.float32)
        whole = self_attention(x, w)  # one tile
        map_bytes, row_bytes = 35 * (35 + 3 * 6) * 8, 35 * 8
        for unit, tiles in ((map_bytes, (min(size, n), 35)), (row_bytes, (1, size))):
            monkeypatch.setattr(tensor_ops, "TILE_BYTES", (size + 1) * unit - 1)
            maps = tensor_ops.tile_rows(n, map_bytes)
            assert (maps, tensor_ops.tile_rows(35, maps * row_bytes)) == tiles
            assert np.array_equal(self_attention(x, w), whole)

    def test_peak_memory_batch_of_two(self):
        # both guidance rows of the 1024-token level-8 mid map: the tile
        # budget keeps the scores of a batch of two at one tile's bytes
        # (tiles of 128 query rows of one map; a fixed 128 rows over both
        # maps peaked at 6.0 MiB)
        rng = np.random.default_rng(43)
        w = scaled_weights(rng, 32, 0.3)
        x = rng.standard_normal((2, 32, 32, 32)).astype(np.float32)
        assert traced_peak(lambda: self_attention(x, w)) <= 5 * 2**20

    def test_peak_memory_linear_in_tokens(self):
        # a 64x64 mid map, 4096 tokens: the whole [T, T] matrix needs about
        # 2 * T^2 * 8 bytes = 256 MiB
        rng = np.random.default_rng(37)
        w = scaled_weights(rng, 32, 0.3)
        x = rng.standard_normal((1, 32, 64, 64)).astype(np.float32)
        assert traced_peak(lambda: self_attention(x, w)) <= 24 * 2**20


class TestPatchGrid:
    def test_nine_patch_count(self):
        grid = PatchGrid(128, 128, 64, 64, 32, 32)
        assert grid.count == 9 and grid.shape == (3, 3)
        assert len(grid.positions) == 9

    def test_rectangular_shape(self):
        # tops 0, 3, 6 and lefts 0, 2, 4, 6, listed row-major
        grid = PatchGrid(12, 9, 6, 3, 3, 2)
        assert grid.shape == (3, 4) and grid.count == 12
        assert grid.positions == [(t, l) for t in (0, 3, 6) for l in (0, 2, 4, 6)]

    def test_single_patch(self):
        x = RNG.standard_normal((1, 2, 8, 8)).astype(np.float32)
        grid = PatchGrid(8, 8, 8, 8, 8, 8)
        patches = shifted_crop_sampling(x, grid)
        assert patches.shape == (1, 2, 8, 8)
        np.testing.assert_array_equal(patches, x)

    def test_overlap_geometry(self):
        grid = PatchGrid(128, 128, 64, 64, 32, 32)
        (t0, l0), = [p for p in grid.positions if p == (0, 0)]
        (t1, l1), = [p for p in grid.positions if p == (32, 0)]
        overlap_rows = 64 - (t1 - t0)
        assert overlap_rows * 64 == 32 * 64

    def test_divisibility_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            PatchGrid(10, 10, 4, 4, 4, 4)

    # a stride longer than its window leaves the rows and columns between
    # crops uncovered, and the average would divide 0 by 0 there
    @pytest.mark.parametrize("shape", [(10, 10, 2, 2, 4, 4), (10, 8, 2, 4, 4, 2),
                                       (8, 10, 4, 2, 2, 4)], ids=["both", "rows", "cols"])
    def test_stride_beyond_window_rejected(self, shape):
        with pytest.raises(ValueError, match="exceeds window"):
            PatchGrid(*shape)

    @pytest.mark.parametrize("grid", [PatchGrid(6, 10, 2, 4, 2, 3), PatchGrid(8, 8, 4, 4, 4, 4),
                                      PatchGrid(5, 7, 5, 7, 1, 1)],
                             ids=["rectangular", "stride-is-window", "single-crop"])
    def test_crops_equal_slices(self, grid):
        x = RNG.standard_normal((2, 3, grid.height, grid.width)).astype(np.float32)
        h, w = grid.window_h, grid.window_w
        expected = np.stack([m[:, t : t + h, l : l + w] for m in x for t, l in grid.positions])
        got = shifted_crop_sampling(x, grid)
        assert got.flags.c_contiguous and np.array_equal(got, expected)

    def test_shape_mismatch(self):
        grid = PatchGrid(8, 8, 4, 4, 2, 2)
        with pytest.raises(ValueError):
            shifted_crop_sampling(np.zeros((1, 1, 6, 6)), grid)


class TestReconstructAverage:
    # crops of +-2**60 and +-1 make each float64 sum depend on its order:
    # (2**60 + 1) - 2**60 is 0, (2**60 - 2**60) + 1 is 1
    @pytest.mark.parametrize("grid", [
        PatchGrid(8, 8, 4, 4, 2, 2), PatchGrid(16, 16, 4, 4, 2, 2), PatchGrid(32, 32, 4, 4, 2, 2),
        PatchGrid(12, 9, 6, 3, 3, 2), PatchGrid(8, 8, 4, 4, 4, 4), PatchGrid(5, 7, 5, 7, 1, 1),
    ], ids=["side8", "side16", "side32", "rectangular", "stride-is-window", "single-crop"])
    def test_bitwise_equals_position_loop(self, grid):
        rng = np.random.default_rng(67)
        shape = (2 * grid.count, 3, grid.window_h, grid.window_w)
        patches = rng.choice([-(2.0**60), -1.0, 1.0, 2.0**60], shape).astype(np.float32)
        assert np.array_equal(reconstruct_average(patches, grid),
                              reference_overlap_average(patches, grid))

    def test_round_trip_identity(self):
        for hw, win, stride in ((128, 64, 32), (16, 8, 4), (12, 6, 3), (8, 8, 8)):
            grid = PatchGrid(hw, hw, win, win, stride, stride)
            x = RNG.standard_normal((1, 3, hw, hw)).astype(np.float32)
            back = reconstruct_average(shifted_crop_sampling(x, grid), grid)
            np.testing.assert_allclose(back, x, atol=1e-6)

    def test_batch_equals_per_map(self):
        grid = PatchGrid(12, 12, 6, 6, 3, 3)
        x = RNG.standard_normal((2, 3, 12, 12)).astype(np.float32)
        patches = shifted_crop_sampling(x, grid)
        assert patches.shape == (2 * grid.count, 3, 6, 6)
        singles = [shifted_crop_sampling(x[i : i + 1], grid) for i in range(2)]
        assert np.array_equal(patches, np.concatenate(singles))
        patches = RNG.standard_normal(patches.shape).astype(np.float32)
        back = reconstruct_average(patches, grid)
        assert back.shape == x.shape
        per_map = [reconstruct_average(patches[i * grid.count : (i + 1) * grid.count], grid)
                   for i in range(2)]
        assert np.array_equal(back, np.concatenate(per_map))
        np.testing.assert_allclose(
            reconstruct_average(shifted_crop_sampling(x, grid), grid), x, atol=1e-6
        )

    def test_full_overlap_mean(self):
        grid = PatchGrid(4, 4, 4, 4, 1, 1)
        a = np.full((1, 1, 4, 4), 3.0, np.float32)
        b = np.full((1, 1, 4, 4), 5.0, np.float32)
        assert grid.count == 1
        # widen to two fully overlapping patches via a stride-0 equivalent:
        # directly average through the per-pixel counter path
        grid2 = PatchGrid(8, 4, 4, 4, 4, 4)
        out = reconstruct_average(np.concatenate([a, b]), grid2)
        np.testing.assert_allclose(out[0, 0, :4], 3.0)
        np.testing.assert_allclose(out[0, 0, 4:], 5.0)

    def test_brute_force_oracle(self):
        grid = PatchGrid(128, 128, 64, 64, 32, 32)
        patches = RNG.standard_normal((grid.count, 2, 64, 64)).astype(np.float32)
        np.testing.assert_allclose(
            reconstruct_average(patches, grid), reference_overlap_average(patches, grid), atol=1e-6
        )

    def test_wrong_count(self):
        grid = PatchGrid(8, 8, 4, 4, 4, 4)
        with pytest.raises(ValueError, match="patches"):
            reconstruct_average(np.zeros((1, 1, 4, 4)), grid)

    @pytest.mark.parametrize("grid", [
        PatchGrid(16, 16, 8, 8, 4, 4),
        PatchGrid(12, 9, 6, 3, 3, 2),
        PatchGrid(8, 8, 8, 8, 8, 8),
    ], ids=["half-window", "rectangular", "single-crop"])
    def test_cover_counts_crops(self, grid):
        # all-ones crops average to one only where every pixel's sum is
        # divided by the count of crops that cover it
        ones = np.ones((2 * grid.count, 3, grid.window_h, grid.window_w), dtype=np.float32)
        out = reconstruct_average(ones, grid)
        assert out.shape == (2, 3, grid.height, grid.width)
        assert np.array_equal(out, np.ones_like(out))


class TestScaleFusion:
    def test_equal_inputs_identity(self):
        x = RNG.standard_normal((1, 2, 16, 16)).astype(np.float32)
        out = scale_fusion(x, x, "gaussian")
        np.testing.assert_allclose(out, x, atol=1e-6)

    def test_constants(self):
        a = np.full((1, 1, 8, 8), 2.0, np.float32)
        b = np.full((1, 1, 8, 8), -1.0, np.float32)
        out = scale_fusion(a, b, "gaussian")
        np.testing.assert_allclose(out, -1.0, atol=1e-5)

    def test_frequency_projection(self):
        blur = "ideal_lowpass"
        g = RNG.standard_normal((1, 4, 32, 32)).astype(np.float32)
        l = RNG.standard_normal((1, 4, 32, 32)).astype(np.float32)
        fused = scale_fusion(g, l, blur)
        # bands from the reference filter, so a broken production low-pass fails
        low = reference_lowpass
        np.testing.assert_allclose(low(fused, blur), low(l, blur), atol=1e-5)
        np.testing.assert_allclose(fused - low(fused, blur), g - low(g, blur), atol=1e-5)

    def test_joint_linearity(self):
        blur = "gaussian"
        g1, l1, g2, l2 = (
            RNG.standard_normal((1, 2, 12, 12)).astype(np.float32) for _ in range(4)
        )
        lhs = scale_fusion(2.0 * g1 + g2, 2.0 * l1 + l2, blur)
        rhs = 2.0 * scale_fusion(g1, l1, blur) + scale_fusion(g2, l2, blur)
        np.testing.assert_allclose(lhs, rhs, atol=1e-5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            scale_fusion(np.zeros((1, 1, 4, 4)), np.zeros((1, 1, 8, 8)), "gaussian")


# (map shape, window, blur): the level-8 and level-4 mid maps of the cascade
# with their fusion filters, a level-2 map and a 12x12 map in a 5x5 grid
FUSED_CASES = {
    "level8": ((2, 32, 32, 32), 4, "ideal_lowpass"),
    "level4": ((2, 64, 16, 16), 4, "gaussian"),
    "level2": ((2, 64, 8, 8), 4, "gaussian"),
    "12x12": ((1, 16, 12, 12), 4, "gaussian"),
}


class TestFusedAttention:
    def test_single_patch_equals_global(self):
        w = random_weights(4)
        x = RNG.standard_normal((1, 4, 8, 8)).astype(np.float32)
        out = fused_attention(x, w, FusionConfig(8, "gaussian"))
        np.testing.assert_allclose(out, self_attention(x, w), atol=1e-5)

    def test_map_the_window_does_not_tile_rejected(self):
        w = random_weights(4)
        for hw, window in ((4, 8), (9, 4)):
            x = RNG.standard_normal((1, 4, hw, hw)).astype(np.float32)
            with pytest.raises(ValueError, match="window must fit|not divisible"):
                fused_attention(x, w, FusionConfig(window, "gaussian"))

    def test_constant_input_zero_qk(self):
        dim = 3
        zeros = np.zeros((dim, dim), np.float32)
        w = AttentionWeights(zeros, zeros, RNG.standard_normal((dim, dim)), np.eye(dim))
        x = np.full((1, dim, 8, 8), 1.5, np.float32)
        out = fused_attention(x, w, FusionConfig(4, "gaussian"))
        expected = self_attention(x, w)
        np.testing.assert_allclose(out, expected, atol=1e-5)

    def test_composition_oracle(self):
        w = random_weights(8)
        x = RNG.standard_normal((1, 8, 16, 16)).astype(np.float32)
        fusion = FusionConfig(8, "gaussian")
        grid = fusion.grid_for(16, 16)  # 3x3 patches at stride 4
        blur = fusion.blur
        got = fused_attention(x, w, fusion)
        h_global = self_attention(x, w)
        patches = [x[:, :, t : t + 8, l : l + 8] for t, l in grid.positions]
        h_local = reconstruct_average(
            np.concatenate([self_attention(p, w) for p in patches]), grid
        )
        expected = h_global - lowpass(h_global, blur) + lowpass(h_local, blur)
        np.testing.assert_allclose(got, expected, atol=1e-6)

    @pytest.mark.parametrize("maps", [1, 2, 3, None])
    @pytest.mark.parametrize("case", list(FUSED_CASES))
    def test_bitwise_equal_to_composition(self, monkeypatch, case, maps):
        # the composition at the default budget against a run whose patch
        # branch attends 1-3 crop maps a tile, and whose global branch then
        # runs a few query rows a tile (None: the default budget)
        shape, window, blur = FUSED_CASES[case]
        rng = np.random.default_rng(61)
        n, c = shape[:2]
        w = scaled_weights(rng, c, 0.3)
        x = rng.standard_normal(shape).astype(np.float32)
        fusion = FusionConfig(window, blur)
        grid = fusion.grid_for(*shape[2:])
        expected = scale_fusion(
            self_attention(x, w),
            reconstruct_average(self_attention(shifted_crop_sampling(x, grid), w), grid),
            blur,
        )
        if maps is not None:
            unit = window**2 * (window**2 + 3 * c) * 8  # one crop map
            monkeypatch.setattr(tensor_ops, "TILE_BYTES", (maps + 1) * unit - 1)
            assert tensor_ops.tile_rows(n * grid.count, unit) == maps
        assert np.array_equal(fused_attention(x, w, fusion), expected)

    def test_peak_memory_level8(self):
        # both guidance rows of the 1024-token level-8 mid map, 225 crops a map;
        # projecting every crop's tokens and holding all their q, k, v at once
        # peaked at 9.9 MiB; tiles of whole crop maps with their own q, k, v
        # peak at 2.8 MiB, the 0.9 MiB crop stack and its output included
        shape, window, blur = FUSED_CASES["level8"]
        rng = np.random.default_rng(67)
        w = scaled_weights(rng, shape[1], 0.3)
        x = rng.standard_normal(shape).astype(np.float32)
        fusion = FusionConfig(window, blur)
        assert traced_peak(lambda: fused_attention(x, w, fusion)) <= 8 * 2**20


class TestFusionConfig:
    def test_grid_defaults_half_window(self):
        fc = FusionConfig(window=4, blur="gaussian")
        grid = fc.grid_for(8, 8)
        assert (grid.window_h, grid.stride_h) == (4, 2)
        assert grid.count == 9

    def test_grid_degenerates_to_single_patch(self):
        fc = FusionConfig(window=8, blur="gaussian")
        grid = fc.grid_for(8, 8)
        assert grid.count == 1

    def test_window_larger_than_map_rejected(self):
        fc = FusionConfig(window=8, blur="gaussian")
        with pytest.raises(ValueError, match="window must fit"):
            fc.grid_for(4, 8)
