"""Brute-force and DFT verification suites, runnable from the CLI.

Every check compares the production implementation against an independent
reference (triple-loop convolution, per-pixel overlap counting, frequency
projections, hand-evaluated constants). Checks accept injectable callables
so the CLI can demonstrate mutation sensitivity without touching production
code paths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np

from .attention import PatchGrid, reconstruct_average, scale_fusion, shifted_crop_sampling
from .denoiser import DilationPolicy, UNetConfig, init_weights, predict_noise
from .scheduler import decay_factor, ddim_step, forward_noise, make_schedule
from .tensor_ops import BlurSpec, Kernel2D, conv2d, lowpass, upsample


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_dev: float


def reference_conv2d(x: np.ndarray, kernel: Kernel2D, dilation: int) -> np.ndarray:
    """Triple-loop direct summation with zero padding; the slow oracle."""
    n, c, h, w = x.shape
    kh, kw = kernel.weights.shape[2:]
    ch, cw = kh // 2, kw // 2
    out = np.zeros((n, kernel.out_channels, h, w), dtype=np.float64)
    for b in range(n):
        for o in range(kernel.out_channels):
            for y in range(h):
                for xx in range(w):
                    acc = float(kernel.bias[o])
                    for ci in range(c):
                        for i in range(kh):
                            for j in range(kw):
                                sy = y + dilation * (i - ch)
                                sx = xx + dilation * (j - cw)
                                if 0 <= sy < h and 0 <= sx < w:
                                    acc += float(x[b, ci, sy, sx]) * float(
                                        kernel.weights[o, ci, i, j]
                                    )
                    out[b, o, y, xx] = acc
    return out.astype(np.float32)


def check_conv(mutate_dilate_up: bool = False, trials: int = 5) -> CheckResult:
    """Convolution oracle: brute-force agreement, dilation/upsampling
    commutation, and the restrained-dilation policy (up blocks undilated).
    """
    rng = np.random.default_rng(7)
    max_dev = 0.0
    # batches of two non-square maps; on the 3x4 map at dilation 5 every
    # off-centre tap reads only padding
    cases = itertools.product(((1, 1), (3, 3), (5, 3)), (1, 2, 3, 5), ((7, 11), (3, 4)))
    for (kh, kw), d, (h, w) in cases:
        x = rng.standard_normal((2, 2, h, w)).astype(np.float32)
        k = Kernel2D(rng.standard_normal((3, 2, kh, kw)), rng.standard_normal(3))
        dev = float(np.max(np.abs(conv2d(x, k, d) - reference_conv2d(x, k, d))))
        max_dev = max(max_dev, dev)
    # commutation: dilated conv on nearest-upsampled input matches standard
    # conv on the original at interior sampled positions
    for _ in range(trials):
        h = rng.standard_normal((1, 2, 12, 12)).astype(np.float32)
        k = Kernel2D(rng.standard_normal((2, 2, 3, 3)), np.zeros(2))
        fine = conv2d(upsample(h, 2, "nearest"), k, 2)
        coarse = conv2d(h, k, 1)
        interior = slice(1, 11)
        dev = float(
            np.max(np.abs(fine[:, :, 2:22:2, 2:22:2] - coarse[:, :, interior, interior]))
        )
        max_dev = max(max_dev, dev)
    # policy restraint: a policy run must equal an explicit per-group
    # reference with up blocks at dilation 1
    cfg = UNetConfig(latent_channels=3, base_width=8, time_embedding_dim=16, cond_dim=8)
    weights = init_weights(cfg, 11)
    z = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
    cond = rng.standard_normal((1, 8)).astype(np.float32)
    dilation = DilationPolicy(dilation_factor=2, stop_fraction=0.0).group_dilation(0, 10)
    if mutate_dilate_up:
        dilation = dict(dilation, up=2)
    got = predict_noise(z, 500, cond, weights, dilation)
    ref = predict_noise(z, 500, cond, weights, {"down": 2, "mid": 2, "up": 1})
    max_dev = max(max_dev, float(np.max(np.abs(got - ref))))
    return CheckResult("conv", max_dev < 1e-5, max_dev)


def check_ddim(trials: int = 20) -> CheckResult:
    """Forward-noise then step-to-zero must recover the clean latent."""
    sched = make_schedule(1000, 50)
    rng = np.random.default_rng(13)
    max_dev = 0.0
    for t in (20, 100, 250, 400, 700, 900, 1000):
        for _ in range(trials):
            z0 = rng.standard_normal((1, 4, 16, 16)).astype(np.float32)
            eps = rng.standard_normal(z0.shape).astype(np.float32)
            z_t = forward_noise(z0, t, eps, sched)
            back = ddim_step(z_t, eps, t, 0, sched)
            max_dev = max(max_dev, float(np.max(np.abs(back - z0))))
    return CheckResult("ddim", max_dev < 1e-4, max_dev)


def check_fusion(fusion_fn=scale_fusion, trials: int = 20) -> CheckResult:
    """DFT projection oracle: the fused map's low band must match the local
    branch and its high band the global branch, coefficient-wise.
    """
    blur = BlurSpec(mode="ideal_lowpass", cutoff=0.25)
    rng = np.random.default_rng(29)
    max_dev = 0.0
    for _ in range(trials):
        g = rng.standard_normal((1, 4, 32, 32)).astype(np.float32)
        l = rng.standard_normal((1, 4, 32, 32)).astype(np.float32)
        fused = fusion_fn(g, l, blur)
        low_dev = np.max(np.abs(lowpass(fused, blur) - lowpass(l, blur)))
        high_dev = np.max(
            np.abs((fused - lowpass(fused, blur)) - (g - lowpass(g, blur)))
        )
        max_dev = max(max_dev, float(low_dev), float(high_dev))
    return CheckResult("fusion", max_dev < 1e-5, max_dev)


def _reference_overlap_average(patches, grid: PatchGrid) -> np.ndarray:
    total = np.zeros((1, patches.shape[1], grid.height, grid.width), dtype=np.float64)
    count = np.zeros((grid.height, grid.width), dtype=np.float64)
    for patch, (top, left) in zip(patches, grid.positions):
        for dy in range(grid.window_h):
            for dx in range(grid.window_w):
                total[0, :, top + dy, left + dx] += patch[:, dy, dx]
                count[top + dy, left + dx] += 1.0
    return (total / count).astype(np.float32)


def check_patch() -> CheckResult:
    """Round-trip identity plus a brute-force per-pixel averaging oracle."""
    rng = np.random.default_rng(37)
    max_dev = 0.0
    grid = PatchGrid(128, 128, 64, 64, 32, 32)
    x = rng.standard_normal((1, 2, 128, 128)).astype(np.float32)
    back = reconstruct_average(shifted_crop_sampling(x, grid), grid)
    max_dev = max(max_dev, float(np.max(np.abs(back - x))))
    small = PatchGrid(16, 16, 8, 8, 4, 4)
    patches = rng.standard_normal((small.count, 3, 8, 8)).astype(np.float32)
    got = reconstruct_average(patches, small)
    ref = _reference_overlap_average(patches, small)
    max_dev = max(max_dev, float(np.max(np.abs(got - ref))))
    return CheckResult("patch", max_dev < 1e-6, max_dev)


def check_blend() -> CheckResult:
    """Cosine-decay constants: boundaries, hand value at T/2, monotonicity."""
    total = 1000
    max_dev = max(
        abs(float(decay_factor(0, total, 2.0))),
        abs(float(decay_factor(total, total, 2.0)) - 1.0),
        abs(float(decay_factor(total // 2, total, 2.0)) - 0.25),
    )
    monotone = True
    ts = np.arange(0, total + 1)
    for alpha in (0.5, 1.0, 2.0, 3.0):
        cs = decay_factor(ts, total, alpha)
        monotone = monotone and bool(np.all(np.diff(cs) >= 0.0))
    return CheckResult("blend", monotone and max_dev < 1e-6, max_dev)


def _mutated_fusion(g, l, blur):
    # sign of the global low-pass term flipped: g + G(g) + G(l)
    return (
        g.astype(np.float64)
        + lowpass(g, blur).astype(np.float64)
        + lowpass(l, blur).astype(np.float64)
    ).astype(np.float32)


CHECKS = {"conv": check_conv, "ddim": check_ddim, "fusion": check_fusion,
          "patch": check_patch, "blend": check_blend}
# name -> (the check it must break, that check run on a known-bad variant)
MUTATIONS = {
    "fusion-sign": ("fusion", partial(check_fusion, fusion_fn=_mutated_fusion)),
    "dilate-up": ("conv", partial(check_conv, mutate_dilate_up=True)),
}


def run_checks(names, mutate: str | None = None) -> list[CheckResult]:
    """Run the named checks; mutate swaps a known-bad variant into the check
    it breaks, named or not, to demonstrate the oracle catches it."""
    checks = {name: CHECKS[name] for name in names}
    if mutate is not None:
        broken, mutated = MUTATIONS[mutate]
        checks[broken] = mutated
    return [check() for check in checks.values()]
