"""Seeded toy UNet noise predictor with hooks for restrained dilated
convolution and scale-fused attention, plus classifier-free guidance.

The architecture is a small symmetric encoder/decoder: a conv stem, two
stride-2 down blocks, a mid block with one self-attention layer, mirrored
up blocks with skip connections, and a conv head. Weights come from a
seeded generator so identical seeds give bit-identical parameters.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .attention import AttentionWeights, FusionConfig, fused_attention, self_attention
from .tensor_ops import Kernel2D, as_f32, conv2d, linear, tile_rows, upsample


@dataclass(frozen=True)
class UNetConfig:
    latent_channels: int
    base_width: int
    time_embedding_dim: int
    cond_dim: int
    down_blocks: int = 2

    def __post_init__(self):
        sizes = (self.latent_channels, self.base_width, self.down_blocks,
                 self.time_embedding_dim, self.cond_dim)
        if min(sizes) < 1:
            raise ValueError("every UNet size must be >= 1")
        if self.time_embedding_dim % 2 != 0:
            raise ValueError("time_embedding_dim must be even")

    @property
    def widths(self) -> list[int]:
        return [self.base_width * 2**i for i in range(self.down_blocks + 1)]


@dataclass(frozen=True)
class DilationPolicy:
    """Restrained dilation: factor d in the down and mid blocks, never in
    the up blocks (dilating them smears textures), and disabled for the
    final stop_fraction of the sampling steps.
    """

    dilation_factor: int
    stop_fraction: float = 0.3

    def __post_init__(self):
        if self.dilation_factor < 1:
            raise ValueError("dilation_factor must be >= 1")
        if not (0.0 <= self.stop_fraction <= 1.0):
            raise ValueError("stop_fraction must lie in [0, 1]")

    def group_dilation(self, step: int, total: int) -> dict:
        """Per-group dilation map for DDIM step `step` (0-based) of `total`."""
        d = self.dilation_factor if step < (1.0 - self.stop_fraction) * total else 1
        return {"down": d, "mid": d, "up": 1}


class WeightSet:
    """Immutable named parameter collection for one UNetConfig."""

    def __init__(self, config: UNetConfig, params: "OrderedDict[str, np.ndarray]"):
        self.config = config
        self.params = OrderedDict((k, as_f32(v)) for k, v in params.items())

    def __getitem__(self, name: str) -> np.ndarray:
        return self.params[name]

    def kernel(self, name: str) -> Kernel2D:
        return Kernel2D(self.params[f"{name}.w"], self.params[f"{name}.b"])

    def checksum(self) -> str:
        h = hashlib.sha256()
        for name, arr in self.params.items():
            h.update(name.encode("utf-8"))
            h.update(np.ascontiguousarray(arr, dtype="<f4").tobytes())
        return h.hexdigest()


def _layer_specs(config: UNetConfig):
    """Yield (name, shape, fan_in) for every parameter tensor, in a fixed
    order so seeded initialization is reproducible."""
    w = config.widths
    emb = config.time_embedding_dim
    specs = []

    def conv(name, out_c, in_c):
        specs.append((f"{name}.w", (out_c, in_c, 3, 3), in_c * 9))
        specs.append((f"{name}.b", (out_c,), None))

    def dense(name, in_d, out_d):
        specs.append((f"{name}.w", (in_d, out_d), in_d))
        specs.append((f"{name}.b", (out_d,), None))

    dense("temb.fc1", emb + config.cond_dim, emb)
    dense("temb.fc2", emb, emb)
    conv("stem", w[0], config.latent_channels)
    for i in range(config.down_blocks):
        conv(f"down{i}.conv_a", w[i + 1], w[i])
        conv(f"down{i}.conv_b", w[i + 1], w[i + 1])
        dense(f"down{i}.emb", emb, w[i + 1])
    conv("mid.conv_a", w[-1], w[-1])
    conv("mid.conv_b", w[-1], w[-1])
    dense("mid.emb", emb, w[-1])
    for name in ("w_q", "w_k", "w_v", "w_o"):
        specs.append((f"mid.attn.{name}", (w[-1], w[-1]), w[-1]))
    for i in reversed(range(config.down_blocks)):
        conv(f"up{i}.conv_a", w[i], 2 * w[i + 1])
        conv(f"up{i}.conv_b", w[i], w[i])
        dense(f"up{i}.emb", emb, w[i])
    conv("head", config.latent_channels, w[0])
    return specs


def init_weights(config: UNetConfig, seed: int) -> WeightSet:
    """Kaiming-style fan-in initialization (std = sqrt(2/fan_in)) from a
    seeded generator; biases start at zero."""
    rng = np.random.default_rng(seed)
    params: OrderedDict[str, np.ndarray] = OrderedDict()
    for name, shape, fan_in in _layer_specs(config):
        if fan_in is None:
            params[name] = np.zeros(shape, dtype=np.float32)
        else:
            std = np.sqrt(2.0 / fan_in)
            params[name] = (rng.standard_normal(shape) * std).astype(np.float32)
    return WeightSet(config, params)


def _silu(x: np.ndarray) -> np.ndarray:
    # sigmoid via tanh avoids overflow for large negative inputs; the same
    # float32 products as x * 0.5 * (1 + tanh(0.5 * x)), in two buffers
    half = x * 0.5
    t = np.tanh(half)
    t += 1.0
    half *= t
    return half


def _channel_norm(h: np.ndarray) -> np.ndarray:
    """Per-position RMS normalization over channels; keeps activations O(1)
    so the sampler stays stable at any resolution.

    Runs in blocks of rows, so the float64 squares are one block at a time
    and not the whole map; each position's channel sum is unchanged.
    """
    n, c, hh, ww = h.shape
    rows = tile_rows(hh, n * c * ww * 8)
    out = np.empty(h.shape, dtype=np.float32)
    for r0 in range(0, hh, rows):
        src = h[:, :, r0 : r0 + rows]
        sq = src.astype(np.float64)
        sq *= sq
        rms = np.sqrt(np.mean(sq, axis=1, keepdims=True) + 1e-5)
        np.divide(src, rms, out=out[:, :, r0 : r0 + rows], casting="same_kind")
    return out


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


def _conv_block(h, e, weights: WeightSet, name: str, dilation: int) -> np.ndarray:
    """One UNet block: channel norm, conv_a, SiLU, embedding bias, conv_b, SiLU."""
    h = _silu(conv2d(_channel_norm(h), weights.kernel(f"{name}.conv_a"), dilation))
    h = h + linear(e, weights[f"{name}.emb.w"], weights[f"{name}.emb.b"])[:, :, None, None]
    return _silu(conv2d(h, weights.kernel(f"{name}.conv_b"), dilation))


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
    its convolutions (DilationPolicy.group_dilation gives the restrained
    map); a missing map or group means dilation 1. When a fusion config is
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
    div = 2**cfg.down_blocks
    if z_t.shape[2] % div or z_t.shape[3] % div:
        raise ValueError(f"spatial dims must be divisible by {div}, got {z_t.shape[2:]}")
    if cond.ndim != 2 or len(cond) < 1 or cond.shape[1] != cfg.cond_dim:
        raise ValueError(f"cond must have shape [N, {cfg.cond_dim}], N >= 1, got {cond.shape}")

    dilation = dilation or {}

    emb = _time_embedding(t, cfg.time_embedding_dim)
    e = np.concatenate([np.tile(emb, (len(cond), 1)), cond], axis=1)
    e = _silu(linear(e, weights["temb.fc1.w"], weights["temb.fc1.b"]))
    e = linear(e, weights["temb.fc2.w"], weights["temb.fc2.b"])

    h = conv2d(z_t, weights.kernel("stem"), 1)
    skips = []
    for i in range(cfg.down_blocks):
        h = _conv_block(h, e, weights, f"down{i}", dilation.get("down", 1))
        skips.append(h)
        h = _avg_pool2(h)

    h = _conv_block(h, e, weights, "mid", dilation.get("mid", 1))
    attn_w = AttentionWeights(
        weights["mid.attn.w_q"],
        weights["mid.attn.w_k"],
        weights["mid.attn.w_v"],
        weights["mid.attn.w_o"],
    )
    if fusion is not None:
        grid = fusion.grid_for(h.shape[2], h.shape[3])
        h += fused_attention(h, attn_w, grid, fusion.blur)
    else:
        h += self_attention(h, attn_w)

    for i in reversed(range(cfg.down_blocks)):
        h = np.concatenate([upsample(h, 2, "nearest"), skips.pop()], axis=1)
        h = _conv_block(h, e, weights, f"up{i}", dilation.get("up", 1))

    return conv2d(_channel_norm(h), weights.kernel("head"), 1)


def cfg_combine(eps_uncond: np.ndarray, eps_cond: np.ndarray, scale: float) -> np.ndarray:
    """Classifier-free guidance: uncond + scale * (cond - uncond)."""
    eps_uncond = as_f32(eps_uncond)
    eps_cond = as_f32(eps_cond)
    if eps_uncond.shape != eps_cond.shape:
        raise ValueError("guidance branches must share one shape")
    out = eps_uncond.astype(np.float64) + scale * (
        eps_cond.astype(np.float64) - eps_uncond.astype(np.float64)
    )
    return out.astype(np.float32)
