"""Self-attention over spatial feature maps, shifted crop sampling with
overlap-averaged reconstruction, and frequency-split scale fusion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    (W - w) by the horizontal stride, so every pixel is covered.
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
        if (self.height - self.window_h) % self.stride_h != 0:
            raise ValueError(
                f"(H - h) = {self.height - self.window_h} not divisible by stride {self.stride_h}"
            )
        if (self.width - self.window_w) % self.stride_w != 0:
            raise ValueError(
                f"(W - w) = {self.width - self.window_w} not divisible by stride {self.stride_w}"
            )

    @property
    def count(self) -> int:
        return len(self.positions)

    @property
    def positions(self) -> list[tuple[int, int]]:
        """(top, left) corners in row-major order."""
        tops = range(0, self.height - self.window_h + 1, self.stride_h)
        lefts = range(0, self.width - self.window_w + 1, self.stride_w)
        return [(t, l) for t in tops for l in lefts]


def _project(h_in: np.ndarray, weights: AttentionWeights):
    """Validate an [N,C,H,W] batch and return the q, k and v of its H*W
    tokens, [N, tokens, C] each: `linear` rounds them to float32 and they
    are held as float64."""
    h_in = as_f32(h_in)
    if h_in.ndim != 4:
        raise ValueError(f"expected [N,C,H,W], got shape {h_in.shape}")
    n, c, hh, ww = h_in.shape
    if c != weights.dim:
        raise ValueError(f"channel count {c} != attention dim {weights.dim}")
    tokens = h_in.reshape(n, c, hh * ww).transpose(0, 2, 1)  # [N, tokens, C]
    return tuple(linear(tokens, m).astype(np.float64)
                 for m in (weights.w_q, weights.w_k, weights.w_v))


def _attend(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """softmax(q k^T / sqrt(C)) v for each of the M token sets in [M, T, C]
    float64 projections; returns the float64 [M, T, C] result."""
    n, t, c = q.shape
    k_t = k.transpose(0, 2, 1)
    scale = np.sqrt(float(c))
    # Tiles hold whole maps, then query rows of a map too big for one tile, so
    # the scores are [maps, rows, T], never [M, T, T], and each small patch map
    # is one scores GEMM. Softmax rows are independent and neither GEMM's inner
    # dimension changes, so every rounding point is where it would be in one
    # pass. Each buffer is dropped once its rounded copy exists.
    maps = tile_rows(n, t * t * 8)
    rows = tile_rows(t, maps * t * 8)
    out = np.empty((n, t, c), dtype=np.float64)
    for m0 in range(0, n, maps):
        m1 = min(m0 + maps, n)
        for r0 in range(0, t, rows):
            r1 = min(r0 + rows, t)
            scores = q[m0:m1, r0:r1] @ k_t[m0:m1]
            scores /= scale
            scores = scores.astype(np.float32)
            scores = softmax_rows(scores.reshape((m1 - m0) * (r1 - r0), t))
            np.matmul(scores.reshape(m1 - m0, r1 - r0, t).astype(np.float64), v[m0:m1],
                      out=out[m0:m1, r0:r1])
    return out


def _output(out: np.ndarray, weights: AttentionWeights, shape) -> np.ndarray:
    """Output projection of float64 [N, tokens, C] attention rows, rounded to
    float32 first, laid out as the [N,C,H,W] maps of `shape`."""
    out = linear(out.astype(np.float32), weights.w_o)
    return out.transpose(0, 2, 1).reshape(shape)


def self_attention(h_in: np.ndarray, weights: AttentionWeights) -> np.ndarray:
    """Single-head self-attention over the H*W spatial tokens of each map in
    an [N,C,H,W] batch (the N maps attend independently), followed by the
    output projection. Position-free by construction.
    """
    q, k, v = _project(h_in, weights)
    out = _attend(q, k, v)
    del q, k, v  # free them before the output projection allocates
    return _output(out, weights, np.shape(h_in))


def shifted_crop_sampling(h_in: np.ndarray, grid: PatchGrid) -> np.ndarray:
    """Stack the grid's crops of each map of an [N,C,H,W] batch into one
    [N*P,C,h,w] array, map-major, each map's crops in row-major order."""
    h_in = as_f32(h_in)
    if h_in.ndim != 4 or h_in.shape[2:] != (grid.height, grid.width):
        raise ValueError(
            f"feature shape {h_in.shape} does not match grid {grid.height}x{grid.width}"
        )
    return np.stack(
        [m[:, top : top + grid.window_h, left : left + grid.window_w]
         for m in h_in for top, left in grid.positions]
    )


def reconstruct_average(patches: np.ndarray, grid: PatchGrid) -> np.ndarray:
    """Reassemble an [N*P,C,h,w] crop stack (map-major, as
    shifted_crop_sampling lays it out) onto [N,C,H,W] maps, averaging
    overlapped pixels."""
    patches = as_f32(patches)
    if (patches.ndim != 4 or patches.shape[2:] != (grid.window_h, grid.window_w)
            or len(patches) % grid.count):
        raise ValueError(
            f"expected a multiple of {grid.count} patches of {grid.window_h}x{grid.window_w}, "
            f"got shape {patches.shape}"
        )
    n = len(patches) // grid.count
    acc = np.zeros((n, patches.shape[1], grid.height, grid.width), dtype=np.float64)
    cover = np.zeros((grid.height, grid.width), dtype=np.float64)
    stacks = patches.reshape(n, grid.count, *patches.shape[1:])
    for p, (top, left) in enumerate(grid.positions):
        acc[:, :, top : top + grid.window_h, left : left + grid.window_w] += stacks[:, p]
        cover[top : top + grid.window_h, left : left + grid.window_w] += 1.0
    acc /= cover
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

    Equal to scale_fusion(self_attention(h), reconstruct_average(
    self_attention(shifted_crop_sampling(h, grid)), grid), fusion.blur), but
    each token is projected once: a crop's q, k and v are its rows of the map's.
    """
    h_in = as_f32(h_in)
    q, k, v = _project(h_in, weights)
    n, c, hh, ww = h_in.shape
    grid = fusion.grid_for(hh, ww)
    h_global = _output(_attend(q, k, v), weights, h_in.shape)

    # each crop's token indices into the map, row-major as the crop flattens
    wh, wl = grid.window_h, grid.window_w
    corners = np.array(grid.positions)
    crops = ((corners[:, :1, None] + np.arange(wh)[:, None]) * ww
             + corners[:, 1:, None] + np.arange(wl)).reshape(grid.count, wh * wl)
    # The patch branch runs a band of grid positions at a time, so only the
    # band's gathered q, k, v rows and scores exist at once. Each band writes
    # its projected crops into one map-major stack, laid out as
    # shifted_crop_sampling lays out the crops.
    band = tile_rows(grid.count, n * wh * wl * (3 * c + wh * wl) * 8)
    local = np.empty((n, grid.count, c, wh, wl), dtype=np.float32)
    for p0 in range(0, grid.count, band):
        idx = crops[p0 : p0 + band]
        crop_qkv = [x[:, idx].reshape(n * len(idx), wh * wl, c) for x in (q, k, v)]
        out = _attend(*crop_qkv)
        del crop_qkv
        local[:, p0 : p0 + len(idx)] = _output(out, weights, (n, len(idx), c, wh, wl))
    del q, k, v
    h_local = reconstruct_average(local.reshape(n * grid.count, c, wh, wl), grid)
    del local
    return scale_fusion(h_global, h_local, fusion.blur)


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
