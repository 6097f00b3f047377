"""Deterministic numeric core: dilated 2-D convolution, resampling,
low-pass filters, row softmax, and linear maps.

All public operations take and return float32 arrays (NCHW for images and
latents). Accumulations run in float64 and are rounded once at the end so
results are order-stable and reproducible.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# The one tile budget: conv2d (output rows) and self_attention (whole maps,
# then query rows) run in tiles whose float64 working set stays within
# TILE_BYTES; 512 KiB keeps each GEMM at full speed.
TILE_BYTES = 1 << 19

# The fusion low-pass filters, named by mode. Their widths are constants of
# the method: a Gaussian of sigma 1 pixel, or an ideal DFT cut-off at a
# quarter of the sampling rate.
BLUR_MODES = ("gaussian", "ideal_lowpass")
GAUSSIAN_SIGMA = 1.0
IDEAL_CUTOFF = 0.25


def as_f32(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float32)


def tile_rows(height: int, row_bytes: int) -> int:
    """Rows per tile of a map whose rows each need row_bytes of working
    set, so that a tile stays within TILE_BYTES; at least one row."""
    return max(1, min(height, TILE_BYTES // max(row_bytes, 1)))


@dataclass(frozen=True)
class Kernel2D:
    """Convolution kernel [out_channels, in_channels, k_h, k_w]."""

    weights: np.ndarray

    def __post_init__(self):
        w = as_f32(self.weights)
        if w.ndim != 4:
            raise ValueError(f"kernel weights must be 4-D, got shape {w.shape}")
        if w.shape[2] % 2 == 0 or w.shape[3] % 2 == 0:
            raise ValueError(f"kernel spatial size must be odd, got {w.shape[2:]}")
        object.__setattr__(self, "weights", w)

    @property
    def out_channels(self) -> int:
        return self.weights.shape[0]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[1]


def conv2d(x: np.ndarray, kernel: Kernel2D, dilation: int = 1) -> np.ndarray:
    """Stride-1 "same" convolution with zero padding and dilation factor d.

    Taps are placed at offsets d*(q - center); dilation 1 is the standard
    convolution. Out-of-bounds reads are zero.
    """
    x = as_f32(x)
    if x.ndim != 4:
        raise ValueError(f"input must be NCHW, got shape {x.shape}")
    if not isinstance(dilation, (int, np.integer)) or dilation < 1:
        raise ValueError(f"dilation must be a positive integer, got {dilation}")
    n, c, h, w = x.shape
    if c != kernel.in_channels:
        raise ValueError(
            f"channel mismatch: input has {c}, kernel expects {kernel.in_channels}"
        )
    o = kernel.out_channels
    kh, kw = kernel.weights.shape[2:]
    d = int(dilation)
    ph, pw = d * (kh - 1) // 2, d * (kw - 1) // 2
    s = w + pw
    # Output rows go in blocks of `rows`. A block's input is its own rows
    # plus ph halo rows either side, each row followed by one shared gap of
    # pw zeros, so the row stride is s; the flat buffer leads with pw zeros
    # and ends with pw spare ones. A tap's column offset lies in [-pw, pw],
    # so a read left of a row lands in the previous row's gap (or the
    # leading zeros), and tap (i, j) is one GEMM on the rb*s contiguous
    # columns at offset i*d*s + j*d. Staging writes only the w data columns
    # of each row, so the gaps stay zero; the pw gap columns of each output
    # row are cropped. The first tap's GEMM writes the accumulator; each
    # later tap's is added.
    rows = tile_rows(h, (c + 2 * o) * s * 8 * n)
    flat = np.zeros((n, c, (rows + 2 * ph) * s + 2 * pw), dtype=np.float64)
    xb = flat[:, :, pw : pw + (rows + 2 * ph) * s].reshape(n, c, rows + 2 * ph, s)
    taps = np.ascontiguousarray(kernel.weights.transpose(2, 3, 0, 1), dtype=np.float64)
    starts = [i * d * s + j * d for i in range(kh) for j in range(kw)]
    taps = taps.reshape(kh * kw, o, c)
    acc = np.empty((n, o, rows * s), dtype=np.float64)
    prod = np.empty_like(acc)  # one product buffer, reused by every later tap
    out = np.empty((n, o, h, w), dtype=np.float32)
    for r0 in range(0, h, rows):
        rb = min(rows, h - r0)
        lo, hi = max(r0 - ph, 0), min(r0 + rb + ph, h)  # input rows in reach
        # where they land in xb; top only falls from tile to tile, so the
        # rows above it have held zeros since the buffer was made
        top, bottom = lo - r0 + ph, hi - r0 + ph
        xb[:, :, top:bottom, :w] = x[:, :, lo:hi]
        xb[:, :, bottom:, :w] = 0.0
        blk, tmp = acc[:, :, : rb * s], prod[:, :, : rb * s]
        np.matmul(taps[0], flat[:, :, : rb * s], out=blk)
        for tap, start in zip(taps[1:], starts[1:]):
            np.matmul(tap, flat[:, :, start : start + rb * s], out=tmp)
            blk += tmp
        out[:, :, r0 : r0 + rb] = blk.reshape(n, o, rb, s)[:, :, :, :w]
    return out


def _resample_axis_bilinear(x: np.ndarray, axis: int) -> np.ndarray:
    n = x.shape[axis]
    src = (np.arange(2 * n, dtype=np.float64) + 0.5) / 2 - 0.5
    lo = np.floor(src).astype(np.int64)
    frac = src - lo
    i0 = np.clip(lo, 0, n - 1)
    i1 = np.clip(lo + 1, 0, n - 1)
    shape = [1] * x.ndim
    shape[axis] = -1
    frac = frac.reshape(shape)
    return (1.0 - frac) * np.take(x, i0, axis=axis) + frac * np.take(x, i1, axis=axis)


def upsample(x: np.ndarray, mode: str = "nearest") -> np.ndarray:
    """Spatial upsampling by 2 (NCHW).

    nearest replicates each pixel 2 x 2; bilinear uses the
    align-corners-false convention (sample centers at (i+0.5)/2 - 0.5).
    """
    x = as_f32(x)
    if x.ndim != 4:
        raise ValueError(f"input must be NCHW, got shape {x.shape}")
    if mode == "nearest":
        return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)
    if mode == "bilinear":
        y = _resample_axis_bilinear(x.astype(np.float64), axis=2)
        y = _resample_axis_bilinear(y, axis=3)
        return y.astype(np.float32)
    raise ValueError(f"unknown upsample mode {mode!r}")


def gaussian_taps() -> np.ndarray:
    """Normalized 1-D Gaussian kernel of GAUSSIAN_SIGMA, truncated at radius
    ceil(3 sigma)."""
    r = math.ceil(3.0 * GAUSSIAN_SIGMA)
    t = np.exp(-0.5 * (np.arange(-r, r + 1, dtype=np.float64) / GAUSSIAN_SIGMA) ** 2)
    return t / t.sum()


@functools.cache
def _lowpass_matrix(mode: str, n: int) -> np.ndarray:
    """The filter of one axis of n samples as a read-only float64 [n, n]
    matrix: row i holds the weights output sample i takes from the input.

    gaussian: the taps at the source indices of the reflect-padded axis
    (symmetric when the axis is too short to reflect the radius).
    ideal_lowpass: the real inverse DFT of the mask |f| <= IDEAL_CUTOFF,
    a circulant whose entry (i, j) depends on (i - j) mod n only.
    """
    d = np.arange(n)
    if mode == "gaussian":
        taps = gaussian_taps()
        r = (len(taps) - 1) // 2
        src = np.pad(d, r, mode="reflect" if r <= n - 1 else "symmetric")
        a = np.zeros((n, n))
        for k, g in enumerate(taps):
            a[d, src[k : k + n]] += g
    else:
        freq = np.minimum(d, n - d)  # |frequency| of DFT bin d, in cycles per n samples
        m = np.outer(d[freq <= IDEAL_CUTOFF * n], d) % n
        m = np.minimum(m, n - m)
        # cos(2 pi m / n) as sin(pi/2 - 2 pi m / n): exact 0 and +-1 at
        # quarter turns, so a side of 4 keeps its dyadic weights
        c = np.sin(np.pi * (n - 4 * m) / (2 * n)).sum(axis=0) / n
        a = c[(d[:, None] - d[None, :]) % n]
    a.flags.writeable = False
    return a


def lowpass(x: np.ndarray, mode: str) -> np.ndarray:
    """Per-channel low-pass filter; mode is one of BLUR_MODES.

    gaussian: separable blur with reflect padding (constants are fixed
    points, mass preserved for constants). ideal_lowpass: zero every DFT
    coefficient with max(|f_x|, |f_y|) above IDEAL_CUTOFF; an idempotent
    linear projection. Both are separable, so each map is A_H @ x @ A_W^T
    with one cached matrix per axis.
    """
    x = as_f32(x)
    if x.ndim != 4:
        raise ValueError(f"input must be NCHW, got shape {x.shape}")
    if mode not in BLUR_MODES:
        raise ValueError(f"unknown blur mode {mode!r}")
    h, w = x.shape[2:]
    # in one expression the float64 copy and the first product are freed
    # as soon as they are used: two float64 maps live at a time
    y = (_lowpass_matrix(mode, h) @ x.astype(np.float64)) @ _lowpass_matrix(mode, w).T
    return y.astype(np.float32)


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction for stability."""
    m = as_f32(m)
    if m.ndim != 2:
        raise ValueError(f"input must be 2-D, got shape {m.shape}")
    z = m.astype(np.float64)  # the one float64 buffer, updated in place
    z -= z.max(axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=1, keepdims=True)
    return z.astype(np.float32)


def linear(x: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """Linear map over the last axis: x @ weight."""
    x = as_f32(x)
    weight = as_f32(weight)
    if x.shape[-1] != weight.shape[0]:
        raise ValueError(
            f"dimension mismatch: input dim {x.shape[-1]} vs weight rows {weight.shape[0]}"
        )
    y = x.astype(np.float64) @ weight.astype(np.float64)
    return y.astype(np.float32)
