import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from conftest import traced_peak
from freescale import pipeline
from freescale.denoiser import cfg_combine, init_weights, predict_noise, prompt_embedding
from freescale.pipeline import (
    CascadeConfig,
    ConfigError,
    cascade_level,
    direct_generate,
    generate_base,
    nearest_resize,
    run,
)
from freescale.scheduler import MIN_ALPHA, ddim_step, forward_noise, make_schedule
from freescale.vae import make_autoencoder, phi_upsample


def setup_run(config):
    sched = make_schedule(config.total_timesteps, config.steps)
    weights = init_weights(config.unet_config(), config.seed)
    vae_spec = make_autoencoder(config.vae_patch, config.seed + 1)
    return sched, weights, vae_spec


class TestConfigValidation:
    def test_descending_levels(self):
        with pytest.raises(ConfigError, match=r"levels must be 1, 2, 4, \.\.\."):
            CascadeConfig(levels=(2, 1))

    def test_levels_must_start_at_one(self):
        with pytest.raises(ConfigError, match=r"levels must be 1, 2, 4, \.\.\."):
            CascadeConfig(levels=(2, 4))

    def test_non_power_ratio(self):
        with pytest.raises(ConfigError, match=r"levels must be 1, 2, 4, \.\.\."):
            CascadeConfig(levels=(1, 3))

    @pytest.mark.parametrize("levels", [(), (1, 4), (1, 2, 8), (1, 1, 2), (0, 1)])
    def test_levels_list_every_doubling(self, levels):
        # every level that runs is listed, so a skipped doubling is an error
        with pytest.raises(ConfigError, match=r"levels must be 1, 2, 4, \.\.\."):
            CascadeConfig(levels=levels)

    def test_frozen(self):
        cfg = CascadeConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.seed = -1
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            dataclasses.replace(cfg, seed=-1)

    def test_injection_step_range(self):
        with pytest.raises(ConfigError, match="injection_step"):
            CascadeConfig(injection_step=2000)

    def test_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown config keys: bogus"):
            CascadeConfig.from_dict({"bogus": 1})

    def test_latent_divisibility(self):
        with pytest.raises(ConfigError, match="divisible"):
            CascadeConfig(base_latent_size=10)
        for size in (0, -4):
            with pytest.raises(ConfigError, match="positive"):
                CascadeConfig(base_latent_size=size, levels=(1,), fusion_enabled=False)

    def test_fusion_grid_must_tile(self):
        # window 5, stride 2: the 10x10 mid map of level 2 does not tile
        untiled = r"base_latent_size 20: .*window 5 .* 10x10 mid map of level 2 .*stride 2"
        with pytest.raises(ConfigError, match=untiled):
            CascadeConfig(base_latent_size=20, levels=(1, 2))
        with pytest.raises(ConfigError, match=untiled):
            CascadeConfig(base_latent_size=20, levels=(1, 2, 4))
        CascadeConfig(base_latent_size=20, levels=(1, 2), fusion_enabled=False)
        CascadeConfig(base_latent_size=20, levels=(1,))
        CascadeConfig(base_latent_size=12, levels=(1, 2, 4, 8))  # window 3, stride 1
        # base 4: the 1x1 mid map is too small for a window, which only the
        # fused levels above 1 use
        small = dict(base_latent_size=4, steps=4, base_width=8, time_embedding_dim=16,
                     cond_dim=8)
        with pytest.raises(ConfigError, match="too small for the attention window"):
            CascadeConfig(levels=(1, 2), **small)
        for levels, fused in (((1,), False), ((1, 2), False), ((1,), True)):
            CascadeConfig(levels=levels, fusion_enabled=fused, **small)
        image = run(CascadeConfig(levels=(1,), fusion_enabled=False, **small))["image"]
        assert image.shape == (1, 3, 8, 8) and np.all(np.isfinite(image))

    def test_round_trip_dict(self):
        cfg = CascadeConfig(levels=(1, 2), seed=9)
        again = CascadeConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.sha256() == cfg.sha256()

    def test_eta_rejected(self):
        # DDIM here is deterministic only; eta is no config field
        with pytest.raises(ConfigError, match="unknown config keys: eta"):
            CascadeConfig.from_dict({"eta": 0.5})

    def test_injection_below_every_timestep(self):
        # steps=10 puts the smallest grid timestep at 100
        with pytest.raises(ConfigError, match="below every DDIM timestep"):
            CascadeConfig(steps=10, injection_step=50)
        CascadeConfig(steps=10, injection_step=100)
        CascadeConfig(levels=(1,), steps=10, injection_step=50)

    @pytest.mark.parametrize(
        "key, value",
        [("steps", "10"), ("seed", 1.5), ("dilation_enabled", "false"), ("levels", 4),
         ("guidance_scale", True), ("prompt", 3), ("guidance_scale", float("nan")),
         ("alpha_hi", float("inf"))],
    )
    def test_field_types(self, key, value):
        with pytest.raises(ConfigError, match=f"{key} must be of type"):
            CascadeConfig.from_dict({key: value})
        # a config built in Python gets the same check
        with pytest.raises(ConfigError, match=f"{key} must be of type"):
            CascadeConfig(**{key: value})

    @pytest.mark.parametrize("levels", [[1, 2.7], [1, 2.0], [True, 2], [1, "2"]])
    def test_non_integer_levels(self, levels):
        with pytest.raises(ConfigError, match="levels must be integers"):
            CascadeConfig.from_dict({"levels": levels})

    @pytest.mark.parametrize(
        "raw",
        [{"alpha_default": 0.0005}, {"alpha_lo": 0.0005}, {"alpha_hi": -1},
         {"alpha_default": 0}],
    )
    def test_alpha_floor(self, raw):
        with pytest.raises(ConfigError, match=f"alpha values must be >= {MIN_ALPHA}"):
            CascadeConfig.from_dict(raw)

    def test_alpha_floor_is_inclusive(self):
        floor = {"alpha_default": MIN_ALPHA, "alpha_lo": MIN_ALPHA, "alpha_hi": MIN_ALPHA}
        assert CascadeConfig.from_dict(floor).alpha_default == MIN_ALPHA

    @pytest.mark.parametrize(
        "value", [{"x": 1}, {"2.5": 1}, {"2": "3"}, {"2": True}, {"2": float("nan")}]
    )
    def test_alpha_per_level_entries(self, value):
        # alpha_per_level is no config field: every level blends with
        # alpha_default (or the mask's alpha_lo..alpha_hi)
        with pytest.raises(ConfigError, match="unknown config keys: alpha_per_level"):
            CascadeConfig.from_dict({"alpha_per_level": value})

    def test_int_accepted_for_float(self):
        assert CascadeConfig.from_dict({"guidance_scale": 7}).guidance_scale == 7

    @pytest.mark.parametrize(
        "key, value",
        [("seed", -1), ("vae_patch", 0), ("time_embedding_dim", 15), ("time_embedding_dim", 0),
         ("cond_dim", -2), ("steps", 0), ("steps", 1001), ("prompt", "\ud800")],
    )
    def test_degenerate_values(self, key, value):
        with pytest.raises(ConfigError):
            CascadeConfig(**{key: value})


class TestNearestResize:
    def test_downsample_picks_centers(self):
        m = np.arange(16, dtype=np.float32).reshape(4, 4)
        out = nearest_resize(m, 2, 2)
        np.testing.assert_array_equal(out, [[5.0, 7.0], [13.0, 15.0]])

    def test_upsample_replicates(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]], np.float32)
        out = nearest_resize(m, 4, 4)
        np.testing.assert_array_equal(
            out, [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]]
        )

    def test_no_interpolation(self):
        m = np.array([[0.0, 1.0]], np.float32)
        out = nearest_resize(m, 1, 5)
        assert set(np.unique(out)) <= {0.0, 1.0}


class TestGenerateBase:
    def test_determinism_shape_and_spread(self, tiny_config):
        sched, weights, _ = setup_run(tiny_config)
        a = generate_base(tiny_config, weights, sched)
        b = generate_base(tiny_config, weights, sched)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (1, 12, 8, 8)
        assert np.all(np.isfinite(a))
        assert float(a.std()) > 1e-4


class TestCascadeLevel:
    def test_doubles_spatial_dims(self, tiny_config):
        sched, weights, vae_spec = setup_run(tiny_config)
        z0 = generate_base(tiny_config, weights, sched)
        z1 = cascade_level(z0, 2, tiny_config, weights, vae_spec, sched)
        assert z1.shape == (1, 12, 16, 16)
        assert np.all(np.isfinite(z1))

    def test_timestep_restriction_to_k(self):
        sched = make_schedule(1000, 50)
        assert len(sched.injection_timesteps(700)) == 35

    def test_huge_alpha_ignores_anchor(self, tiny_config):
        # alpha -> +inf drives c -> 0 for every t < T: trajectory equals the
        # blend-disabled run after injection
        sched, weights, vae_spec = setup_run(tiny_config)
        z0 = generate_base(tiny_config, weights, sched)
        huge = dataclasses.replace(tiny_config, alpha_default=1e6)
        off = dataclasses.replace(tiny_config, blend_enabled=False)
        z_huge = cascade_level(z0, 2, huge, weights, vae_spec, sched)
        z_off = cascade_level(z0, 2, off, weights, vae_spec, sched)
        np.testing.assert_allclose(z_huge, z_off, atol=1e-4)

    def test_degrades_to_plain_ddim(self, tiny_config):
        # with dilation, fusion, and blending all off, the level is exactly
        # DDIM from the injected latent; verified against a reference loop.
        # With 30 steps K = 700 lies off the DDIM grid (670, 637, ...): the
        # latent is noised at the first grid timestep, where sampling starts.
        for steps in (tiny_config.steps, 30):
            bare = dataclasses.replace(
                tiny_config, steps=steps,
                dilation_enabled=False, fusion_enabled=False, blend_enabled=False,
            )
            sched, weights, vae_spec = setup_run(bare)
            z0 = generate_base(bare, weights, sched)
            got = cascade_level(z0, 2, bare, weights, vae_spec, sched)

            phi = phi_upsample(z0, bare.upsample_space, vae_spec)
            rng = np.random.default_rng([bare.seed, 2])
            noise = rng.standard_normal(phi.shape).astype(np.float32)
            ts = sched.injection_timesteps(bare.injection_step)
            z = forward_noise(phi, ts[0], noise, sched)
            cond = prompt_embedding(bare.prompt, bare.cond_dim)
            uncond = np.zeros(bare.cond_dim, np.float32)
            for i, t in enumerate(ts):
                t_prev = ts[i + 1] if i + 1 < len(ts) else 0
                eps = cfg_combine(
                    predict_noise(z, t, uncond[None], weights),
                    predict_noise(z, t, cond[None], weights),
                    bare.guidance_scale,
                )
                z = ddim_step(z, eps, t, t_prev, sched)
            np.testing.assert_allclose(got, z, atol=1e-5)


class TestMemory:
    def test_peak_follows_the_latent(self, tiny_config):
        # each level's peak is bounded by its latent, not by its mid map's
        # tokens^2: at level 16 the tiled forward peaks near 17 MiB, an
        # untiled one near 42 MiB, against a bound of 25 MiB
        cfg = dataclasses.replace(tiny_config, levels=(1, 2, 4, 8, 16), steps=4)
        sched, weights, vae_spec = setup_run(cfg)
        tracemalloc.start()
        try:
            z0 = generate_base(cfg, weights, sched)
            peaks = {1: tracemalloc.get_traced_memory()[1]}
            latents = {1: z0.nbytes}
            for level in cfg.levels[1:]:
                tracemalloc.reset_peak()
                z0 = cascade_level(z0, level, cfg, weights, vae_spec, sched)
                peaks[level] = tracemalloc.get_traced_memory()[1]
                latents[level] = z0.nbytes
        finally:
            tracemalloc.stop()
        for level, peak in peaks.items():
            assert peak <= 32 * latents[level] + 2**20, (level, peak)

    def test_level8_frees_what_it_has_read(self):
        # the cascade-x8 benchmark config at 4 steps: level 8 peaks at 12.8x
        # its latent's bytes; holding each up block's inputs, the last
        # step's eps and noised anchor and the injected latent, it read 17.5x
        cfg = CascadeConfig(prompt="acceptance scene", levels=(1, 2, 4, 8), steps=4,
                            base_latent_size=16, vae_patch=2, base_width=8,
                            time_embedding_dim=32, cond_dim=16, upsample_space="latent",
                            blur_mode="ideal_lowpass", seed=1)
        mask = np.random.default_rng(71).random((64, 64)).astype(np.float32)
        sched, weights, vae_spec = setup_run(cfg)
        z0 = generate_base(cfg, weights, sched)
        for level in (2, 4):
            z0 = cascade_level(z0, level, cfg, weights, vae_spec, sched, mask)
        peak = traced_peak(lambda: cascade_level(z0, 8, cfg, weights, vae_spec, sched, mask))
        latent_bytes = 4 * z0.nbytes  # level 8 has four times level 4's pixels
        assert peak <= 15 * latent_bytes, peak / latent_bytes


class TestRun:
    def test_single_level_is_pure_base(self, tiny_config):
        cfg = dataclasses.replace(tiny_config, levels=(1,))
        result = run(cfg)
        assert result["latent"].shape == (1, 12, 8, 8)
        sched, weights, _ = setup_run(cfg)
        np.testing.assert_array_equal(
            result["latent"], generate_base(cfg, weights, sched)
        )

    def test_two_levels_shape_and_manifest(self, tiny_config):
        result = run(tiny_config)
        assert result["image"].shape == (1, 3, 32, 32)
        manifest = result["manifest"]
        assert [rec["level"] for rec in manifest["levels"]] == [1, 2]
        for rec in manifest["levels"]:
            assert rec["wall_ms"] > 0
            assert np.isfinite(rec["latent_mean"]) and np.isfinite(rec["latent_std"])
        assert manifest["config_sha256"] == tiny_config.sha256()
        assert manifest["numpy_version"] == np.__version__
        assert manifest["numpy_simd"] == [t for t in __cpu_dispatch__ if __cpu_features__[t]]

    @pytest.mark.skipif(not __cpu_features__.get("X86_V4"), reason="needs AVX512 dispatch")
    def test_manifest_names_the_simd_dispatch(self, tiny_config):
        # the same run with AVX512 dispatch switched off names only AVX2's target
        script = ("from freescale.pipeline import CascadeConfig, run; "
                  "cfg = CascadeConfig(levels=(1,), steps=2, base_latent_size=8, vae_patch=2, "
                  "base_width=8, time_embedding_dim=16, cond_dim=8); "
                  "print(' '.join(run(cfg)['manifest']['numpy_simd']))")
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4,AVX512_ICL,AVX512_SPR")
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "X86_V4" in run(tiny_config)["manifest"]["numpy_simd"]
        narrow = proc.stdout.split()
        assert "X86_V3" in narrow
        assert not {"X86_V4", "AVX512_ICL", "AVX512_SPR"} & set(narrow)

    def test_determinism(self, tiny_config):
        a = run(tiny_config)
        b = run(tiny_config)
        np.testing.assert_array_equal(a["image"], b["image"])

    def test_mask_changes_output(self, tiny_config):
        mask = np.zeros((16, 16), np.float32)
        mask[:8] = 1.0
        with_mask = run(tiny_config, mask=mask)
        without = run(tiny_config)
        assert np.max(np.abs(with_mask["image"] - without["image"])) > 1e-6

    @pytest.mark.parametrize("mask", [
        np.full((16, 16), 50.0, np.float32),
        np.full((16, 16), np.nan, np.float32),
        np.zeros((1, 16, 16), np.float32),
        np.zeros((0, 4), np.float32),
    ], ids=["above_one", "nan", "three_d", "empty"])
    def test_invalid_mask_rejected_before_any_level(self, monkeypatch, tiny_config, mask):
        def no_level(*args):
            raise AssertionError("a level ran")

        monkeypatch.setattr(pipeline, "generate_base", no_level)
        with pytest.raises(ConfigError, match=r"mask must be a non-empty 2-D map"):
            run(tiny_config, mask=mask)

    def test_no_nan_over_seeds(self, tiny_config):
        for seed in range(5):
            cfg = dataclasses.replace(tiny_config, seed=seed)
            result = run(cfg)
            assert np.all(np.isfinite(result["latent"]))
            assert np.all(np.isfinite(result["image"]))


class TestDirectGenerate:
    def test_shape_and_determinism(self, tiny_config):
        a = direct_generate(tiny_config, 2)
        b = direct_generate(tiny_config, 2)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (1, 12, 16, 16)


def high_frequency_share(z):
    """Share of a [1,C,H,W] latent's spectral energy with max(|fy|, |fx|)
    above 0.25 cycles/sample, each channel's mean removed, summed over
    channels."""
    z = z[0].astype(np.float64)
    z -= z.mean(axis=(1, 2), keepdims=True)
    power = np.abs(np.fft.fft2(z)) ** 2
    fy = np.abs(np.fft.fftfreq(z.shape[1]))
    fx = np.abs(np.fft.fftfreq(z.shape[2]))
    high = np.maximum(fy[:, None], fx[None, :]) > 0.25
    return power[:, high].sum() / power.sum()


class TestHighFrequencyEnergy:
    # The paper's claim: generating straight at a high resolution piles up
    # high-frequency content, which the cascade and its mechanisms hold
    # back. Pinned as an order, not as values (seed 1 reads 0.545 > 0.095 >
    # 0.079). At levels (1, 2) the order does not hold for every seed.
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_direct_above_plain_cascade_above_full_cascade(self, tiny_config, seed):
        cfg = dataclasses.replace(tiny_config, levels=(1, 2, 4), seed=seed)
        plain = dataclasses.replace(cfg, dilation_enabled=False, fusion_enabled=False,
                                    blend_enabled=False)
        direct = high_frequency_share(direct_generate(cfg, 4))
        cascade_off = high_frequency_share(run(plain)["latent"])
        cascade = high_frequency_share(run(cfg)["latent"])
        assert direct > cascade_off > cascade
