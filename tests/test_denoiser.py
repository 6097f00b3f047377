import hashlib

import numpy as np
import pytest

from freescale import denoiser, tensor_ops
from freescale.attention import FusionConfig
from freescale.denoiser import (
    DilationPolicy,
    UNetConfig,
    _avg_pool2,
    _channel_norm,
    _silu,
    cfg_combine,
    init_weights,
    predict_noise,
    prompt_embedding,
)
from freescale.tensor_ops import BlurSpec
from test_tensor_ops import traced_peak

SMALL = UNetConfig(latent_channels=3, base_width=8, down_blocks=2,
                   time_embedding_dim=16, cond_dim=8)


def small_inputs(size=16, seed=0):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((1, SMALL.latent_channels, size, size)).astype(np.float32)
    cond = rng.standard_normal((1, SMALL.cond_dim)).astype(np.float32)
    return z, cond


class TestInitWeights:
    def test_seed_determinism(self):
        assert init_weights(SMALL, 3).checksum() == init_weights(SMALL, 3).checksum()

    def test_seed_sensitivity(self):
        assert init_weights(SMALL, 3).checksum() != init_weights(SMALL, 4).checksum()

    def test_fan_in_variance(self):
        cfg = UNetConfig(latent_channels=4, base_width=32, down_blocks=2,
                         time_embedding_dim=64, cond_dim=32)
        ws = init_weights(cfg, 0)
        fan_ins = {
            name: shape[1] * 9 if len(shape) == 4 else shape[0]
            for name, arr in ws.params.items()
            for shape in [arr.shape]
            if name.endswith(".w") or ".attn." in name
        }
        checked = 0
        for name, arr in ws.params.items():
            if name not in fan_ins or arr.size < 1024:
                continue
            target = 2.0 / fan_ins[name]
            assert abs(float(arr.var()) - target) < 0.2 * target, name
            checked += 1
        assert checked >= 5


class TestDilationPolicy:
    @pytest.mark.parametrize("stop_fraction", [-0.1, 1.5])
    def test_stop_fraction_range(self, stop_fraction):
        with pytest.raises(ValueError, match=r"stop_fraction must lie in \[0, 1\]"):
            DilationPolicy(2, stop_fraction=stop_fraction)


class TestPredictNoise:
    def test_policy_d1_matches_no_policy(self):
        ws = init_weights(SMALL, 1)
        z, cond = small_inputs()
        base = predict_noise(z, 500, cond, ws)
        with_policy = predict_noise(
            z, 500, cond, ws, DilationPolicy(1, stop_fraction=0.0).group_dilation(0, 10)
        )
        np.testing.assert_array_equal(base, with_policy)

    def test_late_step_cutoff_disables_dilation(self):
        ws = init_weights(SMALL, 1)
        z, cond = small_inputs()
        base = predict_noise(z, 100, cond, ws)
        policy = DilationPolicy(4, stop_fraction=0.3)
        late = predict_noise(z, 100, cond, ws, policy.group_dilation(9, 10))
        np.testing.assert_array_equal(base, late)
        early = predict_noise(z, 100, cond, ws, policy.group_dilation(0, 10))
        assert np.max(np.abs(early - base)) > 1e-6

    def test_dilation_changes_no_parameters(self):
        ws = init_weights(SMALL, 1)
        z, cond = small_inputs()
        before = ws.checksum()
        predict_noise(z, 500, cond, ws, DilationPolicy(2, stop_fraction=0.0).group_dilation(0, 10))
        assert ws.checksum() == before

    def test_deterministic_hash_with_policy_and_fusion(self):
        ws = init_weights(SMALL, 1)
        z, cond = small_inputs()
        fusion = FusionConfig(window=2, blur=BlurSpec("gaussian", sigma=1.0))
        policy = DilationPolicy(2, stop_fraction=0.0)
        digests = set()
        for _ in range(2):
            out = predict_noise(z, 500, cond, ws, policy.group_dilation(0, 10), fusion)
            digests.add(hashlib.sha256(out.tobytes()).hexdigest())
        assert len(digests) == 1

    def test_single_patch_fusion_matches_plain(self):
        ws = init_weights(SMALL, 1)
        z, cond = small_inputs(size=8)
        # attention map is 2x2; a window covering it makes both branches equal
        fusion = FusionConfig(window=2, blur=BlurSpec("gaussian", sigma=1.0))
        fused = predict_noise(z, 500, cond, ws, fusion=fusion)
        plain = predict_noise(z, 500, cond, ws)
        np.testing.assert_allclose(fused, plain, atol=1e-5)

    def test_finite_outputs_random_draws(self):
        ws = init_weights(SMALL, 1)
        rng = np.random.default_rng(2)
        for size in (8, 16):
            for _ in range(50):
                z = (rng.standard_normal((1, 3, size, size)) * 10).astype(np.float32)
                cond = rng.standard_normal((1, 8)).astype(np.float32)
                t = int(rng.integers(1, 1001))
                out = predict_noise(z, t, cond, ws)
                assert np.all(np.isfinite(out))
                assert out.shape == z.shape

    def test_shape_validation(self):
        ws = init_weights(SMALL, 1)
        z, cond = small_inputs()
        with pytest.raises(ValueError, match="divisible"):
            predict_noise(z[:, :, :10, :10], 10, cond, ws)
        for bad in (cond[:, :4], cond[0]):
            with pytest.raises(ValueError, match="cond"):
                predict_noise(z, 10, bad, ws)
        with pytest.raises(ValueError, match="one NCHW latent"):
            predict_noise(np.concatenate([z, z]), 10, np.concatenate([cond, cond]), ws)


class TestBatchRows:
    # the two rows of one batch are the two guidance branches of a DDIM step
    @pytest.mark.parametrize("blur", [None, BlurSpec("gaussian", sigma=1.0),
                                      BlurSpec("ideal_lowpass", cutoff=0.25)])
    @pytest.mark.parametrize("factor", [1, 2])
    def test_each_row_equals_its_single_run(self, factor, blur):
        ws = init_weights(SMALL, 1)
        z, cond = small_inputs()
        conds = np.concatenate([np.zeros_like(cond), cond])
        dilation = DilationPolicy(factor, stop_fraction=0.0).group_dilation(0, 10)
        fusion = None if blur is None else FusionConfig(window=2, blur=blur)  # 9 patches
        batch = predict_noise(z, 500, conds, ws, dilation, fusion)
        for row in range(2):
            single = predict_noise(z, 500, conds[row : row + 1], ws, dilation, fusion)
            assert np.array_equal(batch[row : row + 1], single)
        assert not np.array_equal(batch[0], batch[1])

    def test_prefix_runs_once(self, monkeypatch):
        # the stem and down0.conv_a come before the first embedding add, so
        # they see the one latent row; the other ten convs (conv_a and conv_b
        # of the four later blocks, down0.conv_b, head) see both cond rows
        seen = []
        conv = denoiser.conv2d

        def recording_conv(x, *args):
            seen.append(len(x))
            return conv(x, *args)

        monkeypatch.setattr(denoiser, "conv2d", recording_conv)
        z, cond = small_inputs()
        predict_noise(z, 500, np.concatenate([np.zeros_like(cond), cond]), init_weights(SMALL, 1))
        assert seen == [1, 1] + [2] * 10


class TestElementwise:
    @staticmethod
    def old_channel_norm(h):
        rms = np.sqrt(np.mean(h.astype(np.float64) ** 2, axis=1, keepdims=True) + 1e-5)
        return (h / rms).astype(np.float32)

    @staticmethod
    def old_silu(x):
        return (x * 0.5 * (1.0 + np.tanh(0.5 * x))).astype(np.float32)

    @pytest.mark.parametrize("rows", [1, 2, 3, None])
    def test_channel_norm_bitwise_in_row_tiles(self, monkeypatch, rows):
        rng = np.random.default_rng(43)
        mags = 10.0 ** rng.uniform(-20, 20, (2, 16, 7, 6))
        h = (rng.standard_normal(mags.shape) * mags).astype(np.float32)
        if rows is not None:
            row_bytes = 2 * 16 * 6 * 8
            monkeypatch.setattr(tensor_ops, "TILE_BYTES", rows * row_bytes + row_bytes - 1)
        out = _channel_norm(h)
        assert out.dtype == np.float32
        assert np.array_equal(out, self.old_channel_norm(h))

    def test_silu_bitwise(self):
        rng = np.random.default_rng(47)
        x = (rng.standard_normal((2, 8, 9, 9)) * 10.0 ** rng.uniform(-8, 4, (2, 8, 9, 9)))
        x = x.astype(np.float32)
        x[0, 0, 0, :4] = [-1e30, 1e30, -0.0, np.float32(2.0**-140)]
        out = _silu(x)
        assert out.dtype == np.float32
        assert np.array_equal(out, self.old_silu(x))

    # the whole-map float64 square and quotient peaked at 24.3 MiB here
    def test_channel_norm_peak_memory(self):
        h = np.random.default_rng(53).standard_normal((2, 64, 128, 128)).astype(np.float32)
        assert traced_peak(lambda: _channel_norm(h)) <= h.nbytes + 3 * 2**20

    # the old expression held three float32 maps at once
    def test_silu_peak_memory(self):
        x = np.random.default_rng(59).standard_normal((2, 64, 128, 128)).astype(np.float32)
        assert traced_peak(lambda: _silu(x)) <= 2.25 * x.nbytes


class TestAvgPool2:
    @staticmethod
    def reference(h):
        n, c, hh, ww = h.shape
        return (
            h.reshape(n, c, hh // 2, 2, ww // 2, 2).astype(np.float64).mean(axis=(3, 5))
        ).astype(np.float32)

    # the pooled maps of the pinned configs, and a batch of odd channel count
    @pytest.mark.parametrize("shape", [(1, 16, 64, 64), (1, 32, 32, 32), (1, 8, 4, 4),
                                       (2, 3, 6, 10)])
    def test_bitwise_equal_to_numpy_mean(self, shape):
        rng = np.random.default_rng(41)
        mags = 10.0 ** rng.uniform(-30, 30, shape)
        h = (rng.standard_normal(shape) * mags).astype(np.float32)
        # windows whose sum depends on the order: a sequential sum gives 1,
        # column pairs give 2, top pair + bottom pair gives 0
        big = np.float32(2.0**100)
        h[..., 0:2, 0:2] = [[big, 1.0], [-big, 1.0]]
        h[..., -2:, -2:] = [[1.0, -big], [1.0, big]]
        pooled = _avg_pool2(h)
        assert np.array_equal(pooled, self.reference(h))
        assert pooled[0, 0, 0, 0] == 0.0


class TestCfgCombine:
    def test_scale_one(self):
        u = np.zeros((1, 1, 2, 2), np.float32)
        c = np.ones((1, 1, 2, 2), np.float32)
        np.testing.assert_array_equal(cfg_combine(u, c, 1.0), c)

    def test_equal_branches(self):
        x = np.full((1, 1, 2, 2), 0.3, np.float32)
        np.testing.assert_allclose(cfg_combine(x, x, 7.5), x, atol=1e-6)

    def test_guidance_hand_value(self):
        u = np.zeros((1, 1, 1, 1), np.float32)
        c = np.ones((1, 1, 1, 1), np.float32)
        assert cfg_combine(u, c, 7.5)[0, 0, 0, 0] == pytest.approx(7.5)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cfg_combine(np.zeros((1, 1, 2, 2)), np.zeros((1, 1, 4, 4)), 1.0)


class TestPromptEmbedding:
    def test_deterministic_and_prompt_sensitive(self):
        a = prompt_embedding("castle", 8)
        np.testing.assert_array_equal(a, prompt_embedding("castle", 8))
        assert np.max(np.abs(a - prompt_embedding("harbor", 8))) > 1e-6
