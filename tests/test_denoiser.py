import hashlib
import sys
import weakref

import numpy as np
import pytest

from conftest import traced_peak
from freescale import denoiser
from freescale.attention import AttentionWeights, FusionConfig
from freescale.denoiser import (
    UNetConfig,
    _avg_pool2,
    _channel_norm,
    _silu,
    _up_input,
    cfg_combine,
    init_weights,
    predict_noise,
    prompt_embedding,
    restrained_dilation,
)
from freescale.tensor_ops import Kernel2D, upsample

SMALL = UNetConfig(latent_channels=3, base_width=8, time_embedding_dim=16, cond_dim=8)


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

    def test_checksum_pinned(self):
        # the 23 weight arrays, hashed in draw order
        assert init_weights(UNetConfig(3, 8, 16, 8), 3).checksum() == (
            "1b4490d41890b587b9864a71ad4fc8c53f8fae22aa6372a9376476a63cfee9d9"
        )

    def test_fan_in_variance(self):
        cfg = UNetConfig(latent_channels=4, base_width=32, time_embedding_dim=64, cond_dim=32)
        ws = init_weights(cfg, 0)
        blocks = (*ws.down, ws.mid, *ws.up)
        kernels = [ws.stem, ws.head, *(k for b in blocks for k in (b.conv_a, b.conv_b))]
        dense = [*ws.temb, *(b.emb for b in blocks)]
        attn = [ws.attn.w_q, ws.attn.w_k, ws.attn.w_v, ws.attn.w_o]
        # a conv weight [o, c, 3, 3] has fan-in 9c, a dense weight [in, out] in
        mats = [(k.weights, k.weights.shape[1] * 9) for k in kernels]
        mats += [(w, w.shape[0]) for w in dense + attn]
        checked = 0
        for arr, fan_in in mats:
            if arr.size < 1024:
                continue
            target = 2.0 / fan_in
            assert abs(float(arr.var()) - target) < 0.2 * target, arr.shape
            checked += 1
        assert checked >= 5


class TestDilationPolicy:
    def test_last_30_percent_undilated(self):
        assert [restrained_dilation(3, step, 10) for step in range(10)] == [3] * 7 + [1] * 3
        assert [restrained_dilation(3, step, 50) for step in range(50)].count(3) == 35
        assert restrained_dilation(1, 0, 10) == 1


class TestPredictNoise:
    def test_policy_d1_matches_no_policy(self):
        ws = init_weights(SMALL, 1)
        z, cond = small_inputs()
        base = predict_noise(z, 500, cond, ws)
        with_policy = predict_noise(z, 500, cond, ws, restrained_dilation(1, 0, 10))
        np.testing.assert_array_equal(base, with_policy)

    def test_late_step_cutoff_disables_dilation(self):
        ws = init_weights(SMALL, 1)
        z, cond = small_inputs()
        base = predict_noise(z, 100, cond, ws)
        late = predict_noise(z, 100, cond, ws, restrained_dilation(4, 9, 10))
        np.testing.assert_array_equal(base, late)
        early = predict_noise(z, 100, cond, ws, restrained_dilation(4, 0, 10))
        assert np.max(np.abs(early - base)) > 1e-6

    def test_restrained_dilation_reaches_each_conv(self, monkeypatch):
        # stem, the four down-block convs, the two mid convs, the four
        # up-block convs, head: only the down and mid blocks dilate, and no
        # conv does in the last 30% of the steps
        seen = []
        conv = denoiser.conv2d

        def recording_conv(x, kernel, dilation):
            seen.append(dilation)
            return conv(x, kernel, dilation)

        monkeypatch.setattr(denoiser, "conv2d", recording_conv)
        ws = init_weights(SMALL, 1)
        z, cond = small_inputs()
        predict_noise(z, 500, cond, ws, restrained_dilation(2, 0, 10))
        assert seen == [1] + [2] * 6 + [1] * 5
        seen.clear()
        predict_noise(z, 100, cond, ws, restrained_dilation(2, 9, 10))
        assert seen == [1] * 12

    def test_dilation_changes_no_parameters(self):
        ws = init_weights(SMALL, 1)
        z, cond = small_inputs()
        before = ws.checksum()
        predict_noise(z, 500, cond, ws, restrained_dilation(2, 0, 10))
        assert ws.checksum() == before

    def test_deterministic_hash_with_policy_and_fusion(self):
        ws = init_weights(SMALL, 1)
        z, cond = small_inputs()
        fusion = FusionConfig(window=2, blur="gaussian")
        digests = set()
        for _ in range(2):
            out = predict_noise(z, 500, cond, ws, restrained_dilation(2, 0, 10), fusion)
            digests.add(hashlib.sha256(out.tobytes()).hexdigest())
        assert len(digests) == 1

    def test_single_patch_fusion_matches_plain(self):
        ws = init_weights(SMALL, 1)
        z, cond = small_inputs(size=8)
        # attention map is 2x2; a window covering it makes both branches equal
        fusion = FusionConfig(window=2, blur="gaussian")
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

    def test_forward_builds_no_layers(self, monkeypatch):
        # the layers are built once by init_weights, not wrapped per forward
        ws = init_weights(SMALL, 1)
        built = []
        for cls in (Kernel2D, AttentionWeights):
            init = cls.__post_init__
            monkeypatch.setattr(cls, "__post_init__",
                                lambda self, init=init: built.append(type(self)) or init(self))
        z, cond = small_inputs()
        predict_noise(z, 500, cond, ws, fusion=FusionConfig(window=2, blur="gaussian"))
        assert built == []


class TestConvBlock:
    # the caller's stack held each argument until the call returned before
    # Python 3.11, which moves the arguments into the callee's frame
    @pytest.mark.skipif(sys.version_info < (3, 11), reason="arguments outlive the call")
    def test_input_freed_before_first_silu(self, monkeypatch):
        # an input passed straight in, held by no caller, is freed once
        # conv_a has read it; at level 8 that is up1's 4 MiB input map
        refs, alive = [], []
        silu = denoiser._silu

        def spying_silu(x):
            alive.append(refs[0]() is not None)
            return silu(x)

        def fresh_input():
            h = np.random.default_rng(5).standard_normal((1, 8, 8, 8)).astype(np.float32)
            refs.append(weakref.ref(h))
            return h

        monkeypatch.setattr(denoiser, "_silu", spying_silu)
        ws = init_weights(SMALL, 1)
        e = np.ones((1, SMALL.time_embedding_dim), np.float32)
        out = denoiser._conv_block(fresh_input(), e, ws.down[0], 1)
        assert out.shape == (1, 16, 8, 8)
        assert alive == [False, False]


class TestBatchRows:
    # the two rows of one batch are the two guidance branches of a DDIM step
    @pytest.mark.parametrize("blur", [None, "gaussian", "ideal_lowpass"],
                             ids=["None", "blur1", "blur2"])
    @pytest.mark.parametrize("factor", [1, 2])
    def test_each_row_equals_its_single_run(self, factor, blur):
        ws = init_weights(SMALL, 1)
        z, cond = small_inputs()
        conds = np.concatenate([np.zeros_like(cond), cond])
        dilation = restrained_dilation(factor, 0, 10)
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

    # one channel and an all-zero map are the edges of the channel sum
    @pytest.mark.parametrize("channels, scale", [(16, 1.0), (1, 1.0), (16, 0.0)],
                             ids=["mixed-magnitudes", "one-channel", "zeros"])
    def test_channel_norm_bitwise(self, channels, scale):
        rng = np.random.default_rng(43)
        mags = 10.0 ** rng.uniform(-20, 20, (2, channels, 7, 6))
        h = (rng.standard_normal(mags.shape) * mags * scale).astype(np.float32)
        expected = self.old_channel_norm(h)  # before the norm overwrites h
        out = _channel_norm(h)
        assert out.dtype == np.float32
        assert np.array_equal(out, expected)

    def test_silu_bitwise(self):
        rng = np.random.default_rng(47)
        x = (rng.standard_normal((2, 8, 9, 9)) * 10.0 ** rng.uniform(-8, 4, (2, 8, 9, 9)))
        x = x.astype(np.float32)
        x[0, 0, 0, :4] = [-1e30, 1e30, -0.0, np.float32(2.0**-140)]
        arg = x.copy()  # the SiLU overwrites its input
        out = _silu(arg)
        assert out is arg
        assert np.array_equal(out, self.old_silu(x))

    # the whole-map float64 square and quotient peaked at 24.3 MiB here
    def test_channel_norm_peak_memory(self):
        h = np.random.default_rng(53).standard_normal((2, 64, 128, 128)).astype(np.float32)
        assert traced_peak(lambda: _channel_norm(h)) <= h.nbytes + 3 * 2**20

    # in place, the SiLU allocates one temporary the size of its input;
    # the out-of-place form held two
    def test_silu_peak_memory(self):
        x = np.random.default_rng(59).standard_normal((2, 64, 128, 128)).astype(np.float32)
        assert traced_peak(lambda: _silu(x)) <= 1.25 * x.nbytes


class TestUpInput:
    # odd channel counts, one map and a guidance batch of two
    @pytest.mark.parametrize("n, c, skip_c, hh, ww", [(1, 3, 5, 4, 6), (2, 5, 3, 3, 7),
                                                      (2, 16, 16, 8, 8)])
    def test_equals_upsample_and_concatenate(self, n, c, skip_c, hh, ww):
        rng = np.random.default_rng(61)
        h = rng.standard_normal((n, c, hh, ww)).astype(np.float32)
        skip = rng.standard_normal((n, skip_c, 2 * hh, 2 * ww)).astype(np.float32)
        out = _up_input(h, skip)
        expected = np.concatenate([upsample(h, "nearest"), skip], axis=1)
        assert out.dtype == np.float32
        assert out.shape == expected.shape
        assert np.array_equal(out, expected)

    # one buffer of the result's size: no upsampled copy and no staging
    def test_peak_memory(self):
        rng = np.random.default_rng(67)
        h = rng.standard_normal((2, 16, 64, 64)).astype(np.float32)
        skip = rng.standard_normal((2, 16, 128, 128)).astype(np.float32)
        assert traced_peak(lambda: _up_input(h, skip)) <= 1.01 * 2 * skip.nbytes


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
