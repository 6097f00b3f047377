"""Acceptance gate: every criterion runs at its stated tolerance and prints
one pass/fail line (written past pytest's capture so the lines always show).
"""

import dataclasses
import functools
import json
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest

from freescale.attention import PatchGrid, reconstruct_average, scale_fusion, shifted_crop_sampling
from freescale.denoiser import cfg_combine, init_weights, predict_noise, prompt_embedding
from freescale.pipeline import CascadeConfig, cascade_level, direct_generate, generate_base, run
from freescale.scheduler import ddim_step, decay_factor, forward_noise, make_schedule
from freescale.oracle import reference_lowpass
from freescale.tensor_ops import Kernel2D, conv2d, upsample
from freescale.vae import make_autoencoder, phi_upsample


def criterion(number, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] criterion {number:2d}: FAIL  {description}",
                      file=sys.__stdout__, flush=True)
                raise
            print(f"[acceptance] criterion {number:2d}: PASS  {description}",
                  file=sys.__stdout__, flush=True)
        return wrapper
    return deco


def toy_config(seed=11):
    """The acceptance-scale configuration: 16^2 base latent, levels [1,2,4],
    50 DDIM steps."""
    return CascadeConfig(
        prompt="acceptance scene",
        levels=(1, 2, 4),
        steps=50,
        base_latent_size=16,
        vae_patch=2,
        base_width=16,
        time_embedding_dim=32,
        cond_dim=16,
        seed=seed,
    )


def toy_config_dict(seed=11):
    d = toy_config(seed).to_dict()
    d["levels"] = list(d["levels"])
    return d


@criterion(1, "frequency-fusion projection (ideal lowpass, 100 pairs, <1e-5)")
def test_criterion_01_fusion_projection():
    start = time.perf_counter()
    blur = "ideal_lowpass"
    rng = np.random.default_rng(101)
    max_dev = 0.0
    for _ in range(100):
        g = rng.standard_normal((1, 4, 32, 32)).astype(np.float32)
        l = rng.standard_normal((1, 4, 32, 32)).astype(np.float32)
        fused = scale_fusion(g, l, blur)
        low_dev = np.max(np.abs(reference_lowpass(fused, blur) - reference_lowpass(l, blur)))
        high_dev = np.max(
            np.abs((fused - reference_lowpass(fused, blur)) - (g - reference_lowpass(g, blur)))
        )
        max_dev = max(max_dev, float(low_dev), float(high_dev))
    assert max_dev < 1e-5, max_dev
    assert time.perf_counter() - start < 10.0


@criterion(2, "dilation/upsampling commutation (100 inputs, <1e-5)")
def test_criterion_02_dilation_commutation():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    max_dev = 0.0
    for _ in range(100):
        h = rng.standard_normal((1, 2, 12, 12)).astype(np.float32)
        k = Kernel2D(rng.standard_normal((2, 2, 3, 3)))
        fine = conv2d(upsample(h, "nearest"), k, 2)
        coarse = conv2d(h, k, 1)
        dev = np.max(np.abs(fine[:, :, 2:22:2, 2:22:2] - coarse[:, :, 1:11, 1:11]))
        max_dev = max(max_dev, float(dev))
    assert max_dev < 1e-5, max_dev
    assert time.perf_counter() - start < 10.0


@criterion(3, "DDIM invertibility (100 latents x 10 timesteps, <1e-4)")
def test_criterion_03_ddim_invertibility():
    start = time.perf_counter()
    sched = make_schedule(1000, 50)
    rng = np.random.default_rng(103)
    timesteps = (20, 100, 200, 300, 450, 600, 700, 800, 900, 1000)
    max_dev = 0.0
    for t in timesteps:
        for _ in range(10):
            z0 = rng.standard_normal((1, 4, 16, 16)).astype(np.float32)
            eps = rng.standard_normal(z0.shape).astype(np.float32)
            z_t = forward_noise(z0, t, eps, sched)
            back = ddim_step(z_t, eps, t, 0, sched)
            max_dev = max(max_dev, float(np.max(np.abs(back - z0))))
    assert max_dev < 1e-4, max_dev
    assert time.perf_counter() - start < 5.0


@criterion(4, "cosine-decay boundaries, monotonicity, c(T/2, a=2)=0.25")
def test_criterion_04_decay_boundaries():
    total = 1000
    assert float(decay_factor(0, total, 2.0)) == 0.0
    assert float(decay_factor(total, total, 2.0)) == 1.0
    assert abs(float(decay_factor(total // 2, total, 2.0)) - 0.25) < 1e-6
    ts = np.linspace(0, total, 1000)
    for alpha in (0.5, 1.0, 2.0, 3.0):
        cs = decay_factor(ts, total, alpha)
        assert np.all(np.diff(cs) >= 0.0)


@criterion(5, "patch round-trip identity over 10 grids incl. the N=9 grid")
def test_criterion_05_patch_round_trip():
    rng = np.random.default_rng(105)
    grids = [PatchGrid(128, 128, 64, 64, 32, 32)]
    assert grids[0].count == 9
    candidates = [
        (16, 16, 8, 8, 4, 4), (16, 16, 8, 8, 8, 8), (32, 32, 16, 16, 8, 8),
        (24, 24, 12, 12, 6, 6), (12, 20, 6, 10, 3, 5), (8, 8, 8, 8, 8, 8),
        (64, 64, 16, 16, 16, 16), (20, 20, 10, 10, 5, 5), (48, 48, 24, 24, 12, 12),
    ]
    grids += [PatchGrid(*c) for c in candidates]
    assert len(grids) == 10
    for grid in grids:
        x = rng.standard_normal((1, 3, grid.height, grid.width)).astype(np.float32)
        back = reconstruct_average(shifted_crop_sampling(x, grid), grid)
        assert float(np.max(np.abs(back - x))) <= 1e-6


@criterion(6, "cascade injection statistics at K=700 over 10,000 draws")
def test_criterion_06_injection_statistics():
    start = time.perf_counter()
    sched = make_schedule(1000, 50)
    ab = sched.alpha_bar(700)
    rng = np.random.default_rng(106)
    phi = np.full((1, 1, 2, 2), 1.0, np.float32)
    samples = np.empty((10_000, 4), np.float64)
    for i in range(10_000):
        noise = rng.standard_normal(phi.shape).astype(np.float32)
        samples[i] = forward_noise(phi, 700, noise, sched).ravel()
    flat = samples.ravel()
    n = flat.size
    se_mean = np.sqrt(1.0 - ab) / np.sqrt(n)
    assert abs(flat.mean() - np.sqrt(ab) * 1.0) < 3 * se_mean
    se_var = (1.0 - ab) * np.sqrt(2.0 / (n - 1))
    assert abs(flat.var(ddof=1) - (1.0 - ab)) < 3 * se_var
    assert time.perf_counter() - start < 30.0


def _run_cli_generate(tmp_path, tag):
    out = tmp_path / f"{tag}.ppm"
    cfg_path = tmp_path / "accept.json"
    if not cfg_path.exists():
        cfg_path.write_text(json.dumps(toy_config_dict()))
    proc = subprocess.run(
        [sys.executable, "-m", "freescale.cli", "generate",
         "--config", str(cfg_path), "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return out.read_bytes()


@criterion(7, "end-to-end determinism and sanity (toy cascade, <120 s)")
def test_criterion_07_end_to_end(tmp_path):
    start = time.perf_counter()
    first = _run_cli_generate(tmp_path, "run1")
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, elapsed
    second = _run_cli_generate(tmp_path, "run2")
    third = _run_cli_generate(tmp_path, "run3")
    assert first == second == third
    header_end = first.index(b"255\n") + 4
    raster = np.frombuffer(first[header_end:], np.uint8)
    assert raster.std() > 0.0  # non-constant
    result = run(toy_config())
    assert np.all(np.isfinite(result["image"]))
    assert float(result["image"].std()) > 1e-4


@criterion(8, "cascade/direct overhead ratio <= 1.6 (median of 5)")
def test_criterion_08_overhead_ratio():
    config = toy_config()
    direct_times, cascade_times = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        direct_generate(config, config.levels[-1])
        direct_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        run(config)
        cascade_times.append(time.perf_counter() - t0)
    ratio = statistics.median(cascade_times) / statistics.median(direct_times)
    print(f"[acceptance] overhead ratio = {ratio:.3f}", file=sys.__stdout__, flush=True)
    assert ratio <= 1.6, ratio


@criterion(9, "mechanisms disabled degrade to plain DDIM from the injected latent")
def test_criterion_09_degradation():
    config = dataclasses.replace(
        toy_config(), levels=(1, 2),
        dilation_enabled=False, fusion_enabled=False, blend_enabled=False,
    )
    sched = make_schedule(config.total_timesteps, config.steps)
    weights = init_weights(config.unet_config(), config.seed)
    vae_spec = make_autoencoder(config.vae_patch, config.seed + 1)
    z0 = generate_base(config, weights, sched)
    got = cascade_level(z0, 2, config, weights, vae_spec, sched)

    phi = phi_upsample(z0, config.upsample_space, vae_spec)
    rng = np.random.default_rng([config.seed, 2])
    noise = rng.standard_normal(phi.shape).astype(np.float32)
    ts = sched.injection_timesteps(config.injection_step)
    z = forward_noise(phi, ts[0], noise, sched)
    cond = prompt_embedding(config.prompt, config.cond_dim)
    uncond = np.zeros(config.cond_dim, np.float32)
    for i, t in enumerate(ts):
        t_prev = ts[i + 1] if i + 1 < len(ts) else 0
        eps = cfg_combine(
            predict_noise(z, t, uncond[None], weights),
            predict_noise(z, t, cond[None], weights),
            config.guidance_scale,
        )
        z = ddim_step(z, eps, t, t_prev, sched)
    assert float(np.max(np.abs(got - z))) < 1e-5


@criterion(10, "oracle detects fusion sign flip and up-block dilation")
def test_criterion_10_mutation_sensitivity():
    def run_oracle(*extra):
        return subprocess.run(
            [sys.executable, "-m", "freescale.cli", "oracle", "--check", "all", *extra],
            capture_output=True, text=True, timeout=120,
        ).returncode

    assert run_oracle() == 0
    assert run_oracle("--mutate", "fusion-sign") != 0
    assert run_oracle("--mutate", "dilate-up") != 0
