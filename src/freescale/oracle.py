"""Brute-force and DFT verification suites, runnable from the CLI.

Every check compares the production implementation against an independent
reference (triple-loop convolution, whole-matrix attention, per-pixel
overlap counting, frequency projections, hand-evaluated constants). Checks
accept injectable callables so the CLI can demonstrate mutation sensitivity
without touching production code paths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .attention import (AttentionWeights, PatchGrid, reconstruct_average, scale_fusion,
                        self_attention, shifted_crop_sampling)
from .denoiser import UNetConfig, cfg_combine, init_weights, predict_noise
from .scheduler import decay_factor, ddim_step, forward_noise, make_schedule
from .tensor_ops import (BLUR_MODES, IDEAL_CUTOFF, Kernel2D, as_f32, conv2d, gaussian_taps, linear,
                         lowpass, upsample)


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
                    acc = 0.0
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


def _blur_axis(x: np.ndarray, taps: np.ndarray, axis: int) -> np.ndarray:
    r = (len(taps) - 1) // 2
    n = x.shape[axis]
    pad = [(0, 0)] * x.ndim
    pad[axis] = (r, r)
    pad_mode = "reflect" if r <= n - 1 else "symmetric"
    xp = np.pad(x, pad, mode=pad_mode)
    out = np.zeros_like(x)
    for k, g in enumerate(taps):
        sl = [slice(None)] * x.ndim
        sl[axis] = slice(k, k + n)
        out += g * xp[tuple(sl)]
    return out


def _ideal_lowpass(x: np.ndarray) -> np.ndarray:
    h, w = x.shape[-2:]
    fy = np.abs(np.fft.fftfreq(h))
    fx = np.abs(np.fft.fftfreq(w))
    keep = np.maximum(fy[:, None], fx[None, :]) <= IDEAL_CUTOFF
    spec = np.fft.fft2(x, axes=(-2, -1))
    return np.real(np.fft.ifft2(spec * keep, axes=(-2, -1)))


def reference_lowpass(x: np.ndarray, mode: str) -> np.ndarray:
    """The fusion low-pass computed directly: the Gaussian tap by tap over
    a padded copy of each axis, the ideal cut-off by masking the 2-D DFT."""
    x64 = as_f32(x).astype(np.float64)
    if mode == "gaussian":
        taps = gaussian_taps()
        y = _blur_axis(_blur_axis(x64, taps, axis=2), taps, axis=3)
    else:
        y = _ideal_lowpass(x64)
    return y.astype(np.float32)


def reference_softmax_rows(m: np.ndarray) -> np.ndarray:
    """The pass sequence softmax_rows must round like: float64 copy, max
    subtraction, exp, division by the row sum, one cast to float32."""
    z = m.astype(np.float64)
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return (e / e.sum(axis=1, keepdims=True)).astype(np.float32)


def reference_self_attention(x: np.ndarray, w: AttentionWeights) -> np.ndarray:
    """Self-attention over whole [T, T] score matrices, with the rounding
    points self_attention must keep: float32 q, k, v; float64 scores divided
    by sqrt(dim), cast to float32; row softmax, cast to float64, @ v; the
    output projection of the rows rounded to float32."""
    n, c, hh, ww = x.shape
    tokens = x.reshape(n, c, hh * ww).transpose(0, 2, 1)
    q, k, v = (linear(tokens, m) for m in (w.w_q, w.w_k, w.w_v))
    scores = q.astype(np.float64) @ k.astype(np.float64).transpose(0, 2, 1)
    scores = scores / np.sqrt(float(w.dim))
    attn = reference_softmax_rows(scores.astype(np.float32).reshape(n * hh * ww, hh * ww))
    out = attn.reshape(n, hh * ww, hh * ww).astype(np.float64) @ v.astype(np.float64)
    out = linear(out.astype(np.float32), w.w_o)
    return out.transpose(0, 2, 1).reshape(n, c, hh, ww)


def zero_inserted(kernel: Kernel2D, dilation: int) -> Kernel2D:
    """The kernel a dilated convolution is by definition: dilation - 1 zero
    rows and columns between adjacent taps, run at dilation 1."""
    o, c, kh, kw = kernel.weights.shape
    w = np.zeros((o, c, dilation * (kh - 1) + 1, dilation * (kw - 1) + 1), np.float32)
    w[:, :, ::dilation, ::dilation] = kernel.weights
    return Kernel2D(w)


def _zero_inserted_block(block, dilation: int):
    return replace(block, conv_a=zero_inserted(block.conv_a, dilation),
                   conv_b=zero_inserted(block.conv_b, dilation))


def check_conv(conv_fn=conv2d, forward_fn=predict_noise) -> CheckResult:
    """Convolution oracle: brute-force agreement, the order of the taps,
    dilation/upsampling commutation, and restrained dilation against its
    definition. forward_fn at factor 2 must equal the undilated forward on
    weights whose down and mid kernels are zero-inserted, so the up blocks
    stay undilated.
    """
    rng = np.random.default_rng(7)
    max_dev = 0.0
    # batches of two non-square maps; on the 3x4 map at dilation 5 every
    # off-centre tap reads only padding
    cases = itertools.product(((1, 1), (3, 3), (5, 3)), (1, 2, 3, 5), ((7, 11), (3, 4)))
    for (kh, kw), d, (h, w) in cases:
        x = rng.standard_normal((2, 2, h, w)).astype(np.float32)
        k = Kernel2D(rng.standard_normal((3, 2, kh, kw)))
        dev = float(np.max(np.abs(conv_fn(x, k, d) - reference_conv2d(x, k, d))))
        max_dev = max(max_dev, dev)
    # tap order: on one input channel of +-2**60 and +-1 with +-1 kernels
    # each tap's product is exact, so only the order across taps moves the
    # float64 sum: (2**60 + 1) - 2**60 is 0, but (2**60 - 2**60) + 1 is 1.
    # Every sum is an integer, so any deviation is at least 1
    for (kh, kw), d in (((3, 3), 1), ((3, 3), 2), ((3, 3), 3), ((5, 3), 1)):
        x = rng.choice([-(2.0**60), -1.0, 1.0, 2.0**60], (2, 1, 7, 11)).astype(np.float32)
        k = Kernel2D(rng.choice([-1.0, 1.0], (3, 1, kh, kw)))
        dev = float(np.max(np.abs(conv_fn(x, k, d) - reference_conv2d(x, k, d))))
        max_dev = max(max_dev, dev)
    # commutation: dilated conv on nearest-upsampled input matches standard
    # conv on the original at interior sampled positions
    for _ in range(5):
        h = rng.standard_normal((1, 2, 12, 12)).astype(np.float32)
        k = Kernel2D(rng.standard_normal((2, 2, 3, 3)))
        fine = conv_fn(upsample(h, "nearest"), k, 2)
        coarse = conv_fn(h, k, 1)
        interior = slice(1, 11)
        dev = float(
            np.max(np.abs(fine[:, :, 2:22:2, 2:22:2] - coarse[:, :, interior, interior]))
        )
        max_dev = max(max_dev, dev)
    # restraint: the down and mid blocks dilate, the up blocks do not
    cfg = UNetConfig(latent_channels=3, base_width=8, time_embedding_dim=16, cond_dim=8)
    weights = init_weights(cfg, 11)
    z = rng.standard_normal((1, 3, 16, 16)).astype(np.float32)
    cond = rng.standard_normal((1, 8)).astype(np.float32)
    dilated = replace(weights, down=tuple(_zero_inserted_block(b, 2) for b in weights.down),
                      mid=_zero_inserted_block(weights.mid, 2))
    got = forward_fn(z, 500, cond, weights, 2)
    ref = predict_noise(z, 500, cond, dilated, dilation=1)
    max_dev = max(max_dev, float(np.max(np.abs(got - ref))))
    return CheckResult("conv", max_dev < 1e-5, max_dev)


def check_ddim(guidance_fn=cfg_combine) -> CheckResult:
    """Forward-noise then step-to-zero must recover the clean latent, and
    guidance must agree bitwise with its documented order, (c - u) * s + u
    in float64 rounded once. At s = 1 on u = +-2**60 and c = +-1 that is
    (c - u) + u = 0 everywhere, where s * c + (1 - s) * u gives c.
    """
    sched = make_schedule(1000, 50)
    rng = np.random.default_rng(13)
    max_dev = 0.0
    for t in (20, 100, 250, 400, 700, 900, 1000):
        for _ in range(20):
            z0 = rng.standard_normal((1, 4, 16, 16)).astype(np.float32)
            eps = rng.standard_normal(z0.shape).astype(np.float32)
            z_t = forward_noise(z0, t, eps, sched)
            back = ddim_step(z_t, eps, t, 0, sched)
            max_dev = max(max_dev, float(np.max(np.abs(back - z0))))
    u = rng.choice([-(2.0**60), 2.0**60], (1, 4, 16, 16)).astype(np.float32)
    c = rng.choice([-1.0, 1.0], u.shape).astype(np.float32)
    u64, scale = u.astype(np.float64), 1.0
    ref = ((c.astype(np.float64) - u64) * scale + u64).astype(np.float32)
    exact_dev = float(np.max(np.abs(guidance_fn(u, c, scale) - ref)))
    return CheckResult("ddim", max_dev < 1e-4 and exact_dev == 0.0, max(max_dev, exact_dev))


def check_fusion(fusion_fn=scale_fusion) -> CheckResult:
    """DFT projection oracle: the fused map's low band must match the local
    branch and its high band the global branch, coefficient-wise. The bands
    come from reference_lowpass, not from the low-pass under test. In both
    filter modes the fusion must also agree bitwise with its documented
    grouping, (g - lowpass(g)) + lowpass(l) in float64 rounded once, on
    global maps of 2**60, which each filter returns unchanged, and local
    maps of +-1: g + (lowpass(l) - lowpass(g)) loses the local band to the
    rounding at 2**60.
    """
    blur = "ideal_lowpass"
    band = partial(reference_lowpass, mode=blur)
    rng = np.random.default_rng(29)
    max_dev = 0.0
    for _ in range(20):
        g = rng.standard_normal((1, 4, 32, 32)).astype(np.float32)
        l = rng.standard_normal((1, 4, 32, 32)).astype(np.float32)
        fused = fusion_fn(g, l, blur)
        low_dev = np.max(np.abs(band(fused) - band(l)))
        high_dev = np.max(np.abs((fused - band(fused)) - (g - band(g))))
        max_dev = max(max_dev, float(low_dev), float(high_dev))
    exact_dev = 0.0
    for mode, side in itertools.product(BLUR_MODES, (8, 16, 32)):
        g = np.full((1, 4, side, side), 2.0**60, np.float32)
        l = rng.choice([-1.0, 1.0], g.shape).astype(np.float32)
        g_low, l_low = (reference_lowpass(m, mode).astype(np.float64) for m in (g, l))
        ref = ((g.astype(np.float64) - g_low) + l_low).astype(np.float32)
        exact_dev = max(exact_dev, float(np.max(np.abs(fusion_fn(g, l, mode) - ref))))
    return CheckResult("fusion", max_dev < 1e-5 and exact_dev == 0.0, max(max_dev, exact_dev))


def check_attention(attention_fn=self_attention) -> CheckResult:
    """Self-attention against whole score matrices, on both guidance rows of
    the level-8 global map and on their 450 4x4 fusion crops, and the fusion
    low-pass against reference_lowpass in both modes at map sides 4 to 32.
    Tiles move no rounding point, so each agrees bitwise.
    """
    rng = np.random.default_rng(43)
    w = AttentionWeights(*(rng.standard_normal((32, 32)) * 0.3 for _ in range(4)))
    max_dev = 0.0
    for shape in ((2, 32, 32, 32), (450, 32, 4, 4)):
        x = rng.standard_normal(shape).astype(np.float32)
        dev = np.max(np.abs(attention_fn(x, w) - reference_self_attention(x, w)))
        max_dev = max(max_dev, float(dev))
    for mode, side in itertools.product(BLUR_MODES, (4, 8, 16, 32)):
        x = rng.standard_normal((2, 8, side, side)).astype(np.float32)
        dev = np.max(np.abs(lowpass(x, mode) - reference_lowpass(x, mode)))
        max_dev = max(max_dev, float(dev))
    return CheckResult("attention", max_dev == 0.0, max_dev)


def reference_overlap_average(patches: np.ndarray, grid: PatchGrid) -> np.ndarray:
    """Average an [N*P,C,h,w] crop stack (map-major) back onto [N,C,H,W]
    maps by a loop over the grid's positions in row-major order: each crop
    is added into float64 sums, each pixel counts the crops that covered it,
    and each sum is divided by its count once."""
    n = len(patches) // grid.count
    total = np.zeros((n, patches.shape[1], grid.height, grid.width), dtype=np.float64)
    count = np.zeros((grid.height, grid.width), dtype=np.float64)
    stacks = as_f32(patches).reshape(n, grid.count, *patches.shape[1:])
    for p, (top, left) in enumerate(grid.positions):
        total[:, :, top : top + grid.window_h, left : left + grid.window_w] += stacks[:, p]
        count[top : top + grid.window_h, left : left + grid.window_w] += 1.0
    return (total / count).astype(np.float32)


def check_patch(average_fn=reconstruct_average) -> CheckResult:
    """The crop round trip, and the overlap-add against
    reference_overlap_average on two maps' crops of +-2**60 and +-1, whose
    float64 sums depend on their order: (2**60 + 1) - 2**60 is 0, but
    (2**60 - 2**60) + 1 is 1. Both agree bitwise."""
    rng = np.random.default_rng(37)
    grid = PatchGrid(128, 128, 64, 64, 32, 32)
    x = rng.standard_normal((1, 2, 128, 128)).astype(np.float32)
    max_dev = float(np.max(np.abs(average_fn(shifted_crop_sampling(x, grid), grid) - x)))
    for grid in (PatchGrid(16, 16, 8, 8, 4, 4), PatchGrid(12, 9, 6, 3, 3, 2)):
        shape = (2 * grid.count, 3, grid.window_h, grid.window_w)
        patches = rng.choice([-(2.0**60), -1.0, 1.0, 2.0**60], shape).astype(np.float32)
        dev = np.max(np.abs(average_fn(patches, grid) - reference_overlap_average(patches, grid)))
        max_dev = max(max_dev, float(dev))
    return CheckResult("patch", max_dev == 0.0, max_dev)


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


def _regrouped_fusion(g, l, blur):
    # the low bands subtracted first: g + (G(l) - G(g))
    lows = lowpass(l, blur).astype(np.float64) - lowpass(g, blur).astype(np.float64)
    return (g.astype(np.float64) + lows).astype(np.float32)


def _weighted_guidance(eps_uncond, eps_cond, scale):
    # guidance as a weighted sum: s * c + (1 - s) * u
    return (scale * eps_cond.astype(np.float64)
            + (1.0 - scale) * eps_uncond.astype(np.float64)).astype(np.float32)


def _unscaled_attention(x, w):
    # the 1/sqrt(C) score scale dropped: q scaled by sqrt(C) cancels it
    return self_attention(x, AttentionWeights(w.w_q * np.sqrt(w.dim), w.w_k, w.w_v, w.w_o))


def _reversed_tap_conv(x, kernel, dilation):
    # the taps summed in reverse order: conv2d on the map and kernel turned
    # by 180 degrees is the same convolution, turned
    turned = Kernel2D(kernel.weights[:, :, ::-1, ::-1])
    return conv2d(as_f32(x)[:, :, ::-1, ::-1], turned, dilation)[:, :, ::-1, ::-1]


def _up_dilating_forward(z, t, cond, weights, dilation):
    # the up blocks dilated too, by zero-inserting their kernels
    up = tuple(_zero_inserted_block(b, dilation) for b in weights.up)
    return predict_noise(z, t, cond, replace(weights, up=up), dilation)


def _upward_overlap_average(patches, grid):
    # the in-window offsets walked upward, which adds each pixel's crops in
    # reverse row-major order; so does reconstruct_average on the maps and
    # crops turned by 180 degrees, since the turned grid is the same grid
    n = len(patches) // grid.count
    turned = patches.reshape(n, grid.count, *patches.shape[1:])[:, ::-1, :, ::-1, ::-1]
    return reconstruct_average(turned.reshape(patches.shape), grid)[:, :, ::-1, ::-1]


CHECKS = {"conv": check_conv, "ddim": check_ddim, "fusion": check_fusion,
          "attention": check_attention, "patch": check_patch, "blend": check_blend}
# name -> (the check it must break, that check run on a known-bad variant)
MUTATIONS = {
    "fusion-sign": ("fusion", partial(check_fusion, fusion_fn=_mutated_fusion)),
    "dilate-up": ("conv", partial(check_conv, forward_fn=_up_dilating_forward)),
    "attention-scale": ("attention", partial(check_attention, attention_fn=_unscaled_attention)),
    "overlap-order": ("patch", partial(check_patch, average_fn=_upward_overlap_average)),
    "conv-tap-order": ("conv", partial(check_conv, conv_fn=_reversed_tap_conv)),
    "cfg-order": ("ddim", partial(check_ddim, guidance_fn=_weighted_guidance)),
    "fusion-grouping": ("fusion", partial(check_fusion, fusion_fn=_regrouped_fusion)),
}


def run_checks(names, mutate: str | None = None) -> list[CheckResult]:
    """Run the named checks; mutate swaps a known-bad variant into the check
    it breaks, named or not, to demonstrate the oracle catches it."""
    checks = {name: CHECKS[name] for name in names}
    if mutate is not None:
        broken, mutated = MUTATIONS[mutate]
        checks[broken] = mutated
    return [check() for check in checks.values()]
