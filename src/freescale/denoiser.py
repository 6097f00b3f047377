"""Seeded toy UNet noise predictor with hooks for restrained dilated
convolution and scale-fused attention, plus classifier-free guidance.

The architecture is a small symmetric encoder/decoder: a conv stem, two
stride-2 down blocks, a mid block with one self-attention layer, mirrored
up blocks with skip connections, and a conv head. Weights come from a
seeded generator so identical seeds give bit-identical parameters.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields

import numpy as np

from .attention import AttentionWeights, FusionConfig, fused_attention, self_attention
from .tensor_ops import Kernel2D, as_f32, conv2d, linear, tile_rows


# The UNet's depth: two stride-2 down blocks and their mirrored up blocks.
DOWN_BLOCKS = 2

# Restrained dilation is off for this final fraction of the sampling steps.
DILATION_STOP_FRACTION = 0.3


@dataclass(frozen=True)
class UNetConfig:
    latent_channels: int
    base_width: int
    time_embedding_dim: int
    cond_dim: int

    def __post_init__(self):
        sizes = (self.latent_channels, self.base_width, self.time_embedding_dim, self.cond_dim)
        if min(sizes) < 1:
            raise ValueError("every UNet size must be >= 1")
        if self.time_embedding_dim % 2 != 0:
            raise ValueError("time_embedding_dim must be even")

    @property
    def widths(self) -> list[int]:
        return [self.base_width * 2**i for i in range(DOWN_BLOCKS + 1)]


def group_dilation(factor: int, step: int, total: int) -> dict:
    """Restrained dilation's per-group map for DDIM step `step` (0-based) of
    `total`: factor in the down and mid blocks, never in the up blocks
    (dilating them smears textures), and 1 for the final
    DILATION_STOP_FRACTION of the steps."""
    d = factor if step < (1.0 - DILATION_STOP_FRACTION) * total else 1
    return {"down": d, "mid": d, "up": 1}


@dataclass(frozen=True)
class Block:
    """One UNet block: conv_a, conv_b and the time-embedding projection
    emb, a [emb_dim, out] matrix."""

    conv_a: Kernel2D
    conv_b: Kernel2D
    emb: np.ndarray


@dataclass(frozen=True)
class WeightSet:
    """The frozen UNet's layers, built once by init_weights. temb holds the
    two matrices of the embedding MLP; down and up list their
    blocks in the order the forward runs them."""

    config: UNetConfig
    temb: tuple
    stem: Kernel2D
    down: tuple
    mid: Block
    attn: AttentionWeights
    up: tuple
    head: Kernel2D

    def checksum(self) -> str:
        """sha256 of every parameter's float32 bytes, in draw order."""
        h = hashlib.sha256()
        layers = (self.temb, self.stem, self.down, self.mid, self.attn, self.up, self.head)
        for arr in _arrays(layers):
            h.update(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        return h.hexdigest()


def _arrays(node):
    """Yield the arrays under node (an array, a tuple or a layer dataclass)
    in field order."""
    if isinstance(node, np.ndarray):
        yield node
    elif isinstance(node, tuple):
        for item in node:
            yield from _arrays(item)
    else:
        for f in fields(node):
            yield from _arrays(getattr(node, f.name))


def init_weights(config: UNetConfig, seed: int) -> WeightSet:
    """Kaiming-style fan-in initialization (std = sqrt(2/fan_in)) from a
    seeded generator; the layers hold weights only. The draws run in a fixed
    order (temb, stem, down blocks, mid, q/k/v/o, up blocks, head), so
    identical seeds give bit-identical parameters."""
    rng = np.random.default_rng(seed)
    w = config.widths
    emb = config.time_embedding_dim

    def draw(shape, fan_in):
        return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(np.float32)

    def dense(in_d, out_d):
        return draw((in_d, out_d), in_d)

    def conv(out_c, in_c):
        return Kernel2D(draw((out_c, in_c, 3, 3), in_c * 9))

    def block(out_c, in_c):  # arguments run left to right: conv_a, conv_b, emb
        return Block(conv(out_c, in_c), conv(out_c, out_c), dense(emb, out_c))

    temb = (dense(emb + config.cond_dim, emb), dense(emb, emb))
    stem = conv(w[0], config.latent_channels)
    down = tuple(block(w[i + 1], w[i]) for i in range(DOWN_BLOCKS))
    mid = block(w[-1], w[-1])
    attn = AttentionWeights(*[draw((w[-1], w[-1]), w[-1]) for _ in range(4)])
    up = tuple(block(w[i], 2 * w[i + 1]) for i in reversed(range(DOWN_BLOCKS)))
    head = conv(config.latent_channels, w[0])
    return WeightSet(config, temb, stem, down, mid, attn, up, head)


def _silu(x: np.ndarray) -> np.ndarray:
    """SiLU in place: overwrites the float32 map x, which is returned, so
    callers pass a fresh conv2d or linear output. Sigmoid via tanh avoids
    overflow for large negative inputs; the same float32 products as
    x * 0.5 * (1 + tanh(0.5 * x)), with one temporary."""
    x *= 0.5
    t = np.tanh(x)
    t += 1.0
    x *= t
    return x


def _channel_norm(h: np.ndarray) -> np.ndarray:
    """Per-position RMS normalization over channels, in place on the float32
    map h, which is returned; keeps activations O(1) so the sampler stays
    stable at any resolution.

    Runs in blocks of rows, so the two float64 buffers (the block and its
    squares) are one block at a time and not the whole map; each position's
    channel sum is unchanged. The float64 quotient is rounded once, on the
    write back.
    """
    n, c, hh, ww = h.shape
    rows = tile_rows(hh, 2 * n * c * ww * 8)
    for r0 in range(0, hh, rows):
        blk = h[:, :, r0 : r0 + rows]
        x = blk.astype(np.float64)
        rms = np.sqrt(np.mean(np.square(x), axis=1, keepdims=True) + 1e-5)
        x /= rms
        blk[...] = x
    return h


def _time_embedding(t: int, dim: int) -> np.ndarray:
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half, dtype=np.float64) / half)
    angles = t * freqs
    return np.concatenate([np.sin(angles), np.cos(angles)]).astype(np.float32)


def prompt_embedding(prompt: str, cond_dim: int) -> np.ndarray:
    """Fixed pseudo-embedding keyed by a hash of the prompt string."""
    digest = hashlib.sha256(prompt.encode("utf-8")).digest()
    seed = int.from_bytes(digest[:8], "little")
    rng = np.random.default_rng(seed)
    return rng.standard_normal(cond_dim).astype(np.float32)


def _avg_pool2(h: np.ndarray) -> np.ndarray:
    """2x2 mean in float64, summed as (top pair) + (bottom pair): the order
    numpy's mean over the window axes takes on the maps the UNet pools."""
    pooled = h[:, :, 0::2, 0::2].astype(np.float64) + h[:, :, 0::2, 1::2]
    pooled += h[:, :, 1::2, 0::2].astype(np.float64) + h[:, :, 1::2, 1::2]
    pooled /= 4.0
    return pooled.astype(np.float32)


def _up_input(h: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """concatenate([upsample(h, "nearest"), skip], axis=1), written once into
    one buffer: h fills both rows of each 2x2 cell at its left column, then
    at its right one, and the skip is copied behind. (Copying the left
    column to the right one would make numpy buffer the source, because
    the two interleave in one array.)"""
    n, c, hh, ww = h.shape
    channels = c + skip.shape[1]
    out = np.empty((n, channels, 2 * hh, 2 * ww), np.float32)
    cells = out.reshape(n, channels, hh, 2, ww, 2)[:, :c]  # a view: out is contiguous
    rows = h[:, :, :, None, :]
    cells[..., 0] = rows
    cells[..., 1] = rows
    out[:, c:] = skip
    return out


def _conv_block(h, e, block: Block, dilation: int) -> np.ndarray:
    """One UNet block: channel norm, conv_a, SiLU, embedding shift, conv_b, SiLU.
    The norm overwrites the input map h, so callers pass a map they do not
    keep; one passed straight in, held by no caller, is freed once conv_a
    has read it. The embedding rows e are only read."""
    h = _silu(conv2d(_channel_norm(h), block.conv_a, dilation))
    h = h + linear(e, block.emb)[:, :, None, None]
    return _silu(conv2d(h, block.conv_b, dilation))


def predict_noise(
    z_t: np.ndarray,
    t: int,
    cond: np.ndarray,
    weights: WeightSet,
    dilation: dict | None = None,
    fusion: FusionConfig | None = None,
) -> np.ndarray:
    """Forward pass of the toy UNet over one latent [1,C,H,W] and N cond rows
    [N, cond_dim]: map n of the [N,C,H,W] output equals its N = 1 run. The
    layers before the first embedding add run once, on the one latent row.

    dilation maps each block group ("down", "mid", "up") to the dilation of
    its convolutions (group_dilation gives the restrained map); a missing
    map or group means dilation 1. When a fusion config is
    present the mid self-attention layer is replaced by fused_attention.
    """
    cfg = weights.config
    z_t = as_f32(z_t)
    cond = as_f32(cond)
    if z_t.ndim != 4 or len(z_t) != 1:
        raise ValueError(f"expected one NCHW latent [1,C,H,W], got shape {z_t.shape}")
    if z_t.shape[1] != cfg.latent_channels:
        raise ValueError(
            f"latent has {z_t.shape[1]} channels, config expects {cfg.latent_channels}"
        )
    div = 2**DOWN_BLOCKS
    if z_t.shape[2] % div or z_t.shape[3] % div:
        raise ValueError(f"spatial dims must be divisible by {div}, got {z_t.shape[2:]}")
    if cond.ndim != 2 or len(cond) < 1 or cond.shape[1] != cfg.cond_dim:
        raise ValueError(f"cond must have shape [N, {cfg.cond_dim}], N >= 1, got {cond.shape}")

    dilation = dilation or {}

    emb = _time_embedding(t, cfg.time_embedding_dim)
    e = np.concatenate([np.tile(emb, (len(cond), 1)), cond], axis=1)
    fc1, fc2 = weights.temb
    e = linear(_silu(linear(e, fc1)), fc2)

    h = conv2d(z_t, weights.stem, 1)
    skips = []
    for block in weights.down:
        h = _conv_block(h, e, block, dilation.get("down", 1))
        skips.append(h)
        h = _avg_pool2(h)

    h = _conv_block(h, e, weights.mid, dilation.get("mid", 1))
    if fusion is not None:
        h += fused_attention(h, weights.attn, fusion)
    else:
        h += self_attention(h, weights.attn)

    for block in weights.up:
        h = _conv_block(_up_input(h, skips.pop()), e, block, dilation.get("up", 1))

    return conv2d(_channel_norm(h), weights.head, 1)


def cfg_combine(eps_uncond: np.ndarray, eps_cond: np.ndarray, scale: float) -> np.ndarray:
    """Classifier-free guidance: uncond + scale * (cond - uncond)."""
    eps_uncond = as_f32(eps_uncond)
    eps_cond = as_f32(eps_cond)
    if eps_uncond.shape != eps_cond.shape:
        raise ValueError("guidance branches must share one shape")
    uncond = eps_uncond.astype(np.float64)
    out = eps_cond.astype(np.float64)
    out -= uncond
    out *= scale
    out += uncond
    return out.astype(np.float32)
