"""Self-attention over spatial feature maps, shifted crop sampling with
overlap-averaged reconstruction, and frequency-split scale fusion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor_ops import as_f32, linear, lowpass, softmax_rows, tile_rows


@dataclass(frozen=True)
class AttentionWeights:
    """Single-head attention projections; all matrices are [dim, dim]."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray

    def __post_init__(self):
        mats = {}
        dim = None
        for name in ("w_q", "w_k", "w_v", "w_o"):
            m = as_f32(getattr(self, name))
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"{name} must be square, got shape {m.shape}")
            if dim is None:
                dim = m.shape[0]
            elif m.shape[0] != dim:
                raise ValueError("attention matrices must share one dimension")
            mats[name] = m
        for name, m in mats.items():
            object.__setattr__(self, name, m)

    @property
    def dim(self) -> int:
        return self.w_q.shape[0]


@dataclass(frozen=True)
class PatchGrid:
    """Strided grid of (window_h x window_w) crops over an H x W map.

    Requires exact tiling: (H - h) divisible by the vertical stride and
    (W - w) by the horizontal stride, and no stride longer than its window,
    so every pixel is covered.
    """

    height: int
    width: int
    window_h: int
    window_w: int
    stride_h: int
    stride_w: int

    def __post_init__(self):
        if not (0 < self.window_h <= self.height and 0 < self.window_w <= self.width):
            raise ValueError("window must fit inside the feature map")
        if self.stride_h < 1 or self.stride_w < 1:
            raise ValueError("strides must be positive")
        if self.stride_h > self.window_h or self.stride_w > self.window_w:
            raise ValueError(
                f"stride {self.stride_h}x{self.stride_w} exceeds window "
                f"{self.window_h}x{self.window_w}: the gaps between crops are uncovered"
            )
        if (self.height - self.window_h) % self.stride_h != 0:
            raise ValueError(
                f"(H - h) = {self.height - self.window_h} not divisible by stride {self.stride_h}"
            )
        if (self.width - self.window_w) % self.stride_w != 0:
            raise ValueError(
                f"(W - w) = {self.width - self.window_w} not divisible by stride {self.stride_w}"
            )

    @property
    def shape(self) -> tuple[int, int]:
        """(rows, cols) of crops; tops step by stride_h, lefts by stride_w."""
        return ((self.height - self.window_h) // self.stride_h + 1,
                (self.width - self.window_w) // self.stride_w + 1)

    @property
    def count(self) -> int:
        return int(np.prod(self.shape))

    @property
    def positions(self) -> list[tuple[int, int]]:
        """(top, left) corners in row-major order."""
        return [(r * self.stride_h, c * self.stride_w) for r, c in np.ndindex(self.shape)]


def self_attention(h_in: np.ndarray, weights: AttentionWeights) -> np.ndarray:
    """Single-head self-attention over the H*W spatial tokens of each map in
    an [N,C,H,W] batch (the N maps attend independently), followed by the
    output projection. Position-free by construction.
    """
    h_in = as_f32(h_in)
    if h_in.ndim != 4:
        raise ValueError(f"expected [N,C,H,W], got shape {h_in.shape}")
    n, c, hh, ww = h_in.shape
    if c != weights.dim:
        raise ValueError(f"channel count {c} != attention dim {weights.dim}")
    t = hh * ww
    tokens = h_in.reshape(n, c, t).transpose(0, 2, 1)  # [N, tokens, C]
    scale = np.sqrt(float(c))
    # Tiles hold whole maps, each with its float64 q, k, v and scores, then
    # query rows of a map too big for one tile: the scores are [maps, rows, T],
    # never [N, T, T], and a crop stack is a few large GEMMs. No GEMM's inner
    # dimension changes, so every rounding point is where one pass puts it.
    # `scores` is rebound at each rounding, so one copy of it lives at a time.
    maps = tile_rows(n, t * (t + 3 * c) * 8)
    rows = tile_rows(t, maps * t * 8)
    out = np.empty((n, c, t), dtype=np.float32)
    for m0 in range(0, n, maps):
        m1 = min(m0 + maps, n)
        q, k, v = (linear(tokens[m0:m1], m).astype(np.float64)
                   for m in (weights.w_q, weights.w_k, weights.w_v))
        k_t = k.transpose(0, 2, 1)
        attn = np.empty_like(q)
        for r0 in range(0, t, rows):
            r1 = min(r0 + rows, t)
            scores = q[:, r0:r1] @ k_t
            scores /= scale
            scores = scores.astype(np.float32)
            scores = softmax_rows(scores.reshape((m1 - m0) * (r1 - r0), t))
            np.matmul(scores.reshape(m1 - m0, r1 - r0, t).astype(np.float64), v,
                      out=attn[:, r0:r1])
        del q, k, v, k_t  # free them before the output projection allocates
        out[m0:m1] = linear(attn.astype(np.float32), weights.w_o).transpose(0, 2, 1)
    return out.reshape(h_in.shape)


def shifted_crop_sampling(h_in: np.ndarray, grid: PatchGrid) -> np.ndarray:
    """Stack the grid's crops of each map of an [N,C,H,W] batch into one
    [N*P,C,h,w] array, map-major, each map's crops in row-major order."""
    h_in = as_f32(h_in)
    if h_in.ndim != 4 or h_in.shape[2:] != (grid.height, grid.width):
        raise ValueError(
            f"feature shape {h_in.shape} does not match grid {grid.height}x{grid.width}"
        )
    wh, wl = grid.window_h, grid.window_w
    # one strided view [N, C, rows, cols, h, w] of the crops, copied map-major
    crops = sliding_window_view(h_in, (wh, wl), axis=(2, 3))
    crops = crops[:, :, :: grid.stride_h, :: grid.stride_w].transpose(0, 2, 3, 1, 4, 5)
    return np.ascontiguousarray(crops).reshape(-1, h_in.shape[1], wh, wl)


def reconstruct_average(patches: np.ndarray, grid: PatchGrid) -> np.ndarray:
    """Reassemble an [N*P,C,h,w] crop stack (map-major, as
    shifted_crop_sampling lays it out) onto [N,C,H,W] maps, dividing each
    pixel's float64 sum by the number of crops that cover it."""
    patches = as_f32(patches)
    if (patches.ndim != 4 or patches.shape[2:] != (grid.window_h, grid.window_w)
            or len(patches) % grid.count):
        raise ValueError(
            f"expected a multiple of {grid.count} patches of {grid.window_h}x{grid.window_w}, "
            f"got shape {patches.shape}"
        )
    n, c = len(patches) // grid.count, patches.shape[1]
    rows, cols = grid.shape
    sh, sw = grid.stride_h, grid.stride_w
    acc = np.zeros((n, c, grid.height, grid.width), dtype=np.float64)
    # [N, C, h, w, rows, cols]: pixel (dy, dx) of every crop, laid out as the grid
    stacks = patches.reshape(n, rows, cols, c, grid.window_h, grid.window_w)
    stacks = stacks.transpose(0, 3, 4, 5, 1, 2)
    # One strided add per in-window offset. Walking the offsets downward
    # meets a pixel's crops by rising top, then rising left: the row-major
    # order of the positions, so every float64 sum is added in that order.
    for dy in range(grid.window_h - 1, -1, -1):
        for dx in range(grid.window_w - 1, -1, -1):
            acc[:, :, dy : dy + rows * sh : sh, dx : dx + cols * sw : sw] += stacks[:, :, dy, dx]
    # a pixel's crop count is its row's count times its column's
    row_count, col_count = np.zeros(grid.height), np.zeros(grid.width)
    for dy in range(grid.window_h):
        row_count[dy : dy + rows * sh : sh] += 1.0
    for dx in range(grid.window_w):
        col_count[dx : dx + cols * sw : sw] += 1.0
    acc /= np.outer(row_count, col_count)
    return acc.astype(np.float32)


def scale_fusion(h_global: np.ndarray, h_local: np.ndarray, mode: str) -> np.ndarray:
    """High-frequency band of the global branch plus low-frequency band of
    the local branch: (g - lowpass(g)) + lowpass(l), with the low-pass
    filter named by mode.
    """
    h_global = as_f32(h_global)
    h_local = as_f32(h_local)
    if h_global.shape != h_local.shape:
        raise ValueError("global/local shapes must agree")
    out = (
        h_global.astype(np.float64)
        - lowpass(h_global, mode).astype(np.float64)
        + lowpass(h_local, mode).astype(np.float64)
    )
    return out.astype(np.float32)


def fused_attention(h_in: np.ndarray, weights: AttentionWeights,
                    fusion: FusionConfig) -> np.ndarray:
    """Scale-fused self-attention: global attention over the whole map,
    patch-local attention over the crops of fusion's grid for the map,
    reassembled by reconstruct_average, fused per band by fusion's filter.
    """
    _, _, height, width = np.shape(h_in)
    grid = fusion.grid_for(height, width)
    return scale_fusion(
        self_attention(h_in, weights),
        reconstruct_average(self_attention(shifted_crop_sampling(h_in, grid), weights), grid),
        fusion.blur,
    )


@dataclass(frozen=True)
class FusionConfig:
    """Per-level fusion settings: patch window size on the attention map at
    the training resolution, and the mode of the low-pass filter used for
    fusion (one of tensor_ops.BLUR_MODES).
    The stride is half the window (at least 1); a map the window does not
    fit or tile is a ValueError.
    """

    window: int
    blur: str

    def grid_for(self, height: int, width: int) -> PatchGrid:
        s = max(self.window // 2, 1)
        return PatchGrid(height, width, self.window, self.window, s, s)
