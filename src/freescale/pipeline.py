"""Full inference orchestration: base-resolution generation followed by
per-level self-cascade upscaling with restrained dilation, scale-fused
attention, and region-aware detail control.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import reprlib
import time
from collections.abc import Callable
from dataclasses import dataclass
from math import isfinite
from typing import ClassVar

import numpy as np
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from . import __version__
from .attention import FusionConfig
from .denoiser import (
    DOWN_BLOCKS,
    UNetConfig,
    WeightSet,
    cfg_combine,
    init_weights,
    predict_noise,
    prompt_embedding,
    restrained_dilation,
)
from .scheduler import (
    MIN_ALPHA,
    TOTAL_TIMESTEPS,
    NoiseSchedule,
    ddim_step,
    detail_blend,
    forward_noise,
    make_schedule,
)
from .tensor_ops import BLUR_MODES
from .vae import (UPSAMPLE_SPACES, AutoencoderSpec, decode, latent_channels, make_autoencoder,
                  phi_upsample)


class ConfigError(ValueError):
    """Invalid configuration (CLI exit code 2)."""


class NumericError(RuntimeError):
    """Non-finite values encountered during generation (CLI exit code 3)."""


# config field annotation -> the JSON values it accepts
_JSON_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool,
               "tuple": (list, tuple)}


def _is_json(value, kind: str) -> bool:
    """Whether a JSON value fits a field annotated ``kind``. bool is an int
    subclass, so a JSON true is no number here; Python's json module reads
    NaN and Infinity, which are no valid numbers either."""
    if isinstance(value, bool):
        return kind == "bool"
    return isinstance(value, _JSON_TYPES[kind]) and (kind != "float" or isfinite(value))


@dataclass(frozen=True)
class CascadeConfig:
    """One cascade run. A config checks itself when it is built, so one that
    exists is valid. ``levels`` lists every level that runs: 1, 2, 4, ..."""

    prompt: str = ""
    levels: tuple = (1, 2, 4)
    # a model constant, no key; it stays while perfbench/setup_probe.py reads it
    total_timesteps: ClassVar[int] = TOTAL_TIMESTEPS
    steps: int = 50
    injection_step: int = 700
    guidance_scale: float = 7.5
    upsample_space: str = "rgb"
    alpha_default: float = 2.0
    blur_mode: str = "gaussian"
    base_latent_size: int = 16
    vae_patch: int = 2
    base_width: int = 32
    time_embedding_dim: int = 64
    cond_dim: int = 32
    dilation_enabled: bool = True
    fusion_enabled: bool = True
    blend_enabled: bool = True
    alpha_lo: float = 0.5
    alpha_hi: float = 3.0
    seed: int = 0

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if not _is_json(value, f.type):
                raise ConfigError(f"{f.name} must be of type {f.type}, "
                                  f"got {type(value).__name__} {reprlib.repr(value)}")
        levels = tuple(self.levels)
        object.__setattr__(self, "levels", levels)
        if not all(_is_json(r, "int") for r in levels):
            raise ConfigError(f"levels must be integers, got {reprlib.repr(list(levels))}")
        if not levels or levels[0] != 1 or any(b != 2 * a for a, b in zip(levels, levels[1:])):
            raise ConfigError(f"levels must be 1, 2, 4, ... (each the double of the last), "
                              f"got {reprlib.repr(list(levels))}")
        if self.upsample_space not in UPSAMPLE_SPACES:
            raise ConfigError(f"upsample_space must be one of {UPSAMPLE_SPACES}")
        if self.blur_mode not in BLUR_MODES:
            raise ConfigError(f"blur_mode must be one of {BLUR_MODES}")
        if not all(a >= MIN_ALPHA for a in (self.alpha_default, self.alpha_lo, self.alpha_hi)):
            raise ConfigError(f"alpha values must be >= {MIN_ALPHA}")
        try:
            self.prompt.encode("utf-8")  # prompt_embedding hashes these bytes
        except UnicodeEncodeError as e:
            raise ConfigError(f"prompt does not encode as UTF-8: {e.reason}") from e
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        try:
            self.unet_config()
            sched = make_schedule(TOTAL_TIMESTEPS, self.steps)
            level_timesteps = sched.injection_timesteps(self.injection_step)
        except ValueError as e:
            raise ConfigError(str(e)) from e
        div = 2**DOWN_BLOCKS
        if self.base_latent_size < 1 or self.base_latent_size % div:
            raise ConfigError(f"base_latent_size must be positive and divisible by {div}")
        fusion = self.fusion()
        for level in levels[1:] if self.fusion_enabled else ():
            if fusion.window < 2:
                raise ConfigError("base_latent_size too small for the attention window")
            side = fusion.window * level
            try:
                fusion.grid_for(side, side)
            except ValueError as e:
                raise ConfigError(
                    f"base_latent_size {self.base_latent_size}: the attention window "
                    f"{fusion.window} does not tile the {side}x{side} mid map of level {level} ({e})"
                ) from e
        if len(levels) > 1 and not level_timesteps:
            raise ConfigError(f"injection_step lies below every DDIM timestep "
                              f"(min {sched.ddim_timesteps[-1]})")

    def fusion(self) -> FusionConfig:
        """Scale fusion on the mid-block attention map: the window is that
        map's side at the base level, so level r's map is r windows across."""
        return FusionConfig(window=self.base_latent_size // 2**DOWN_BLOCKS, blur=self.blur_mode)

    def unet_config(self) -> UNetConfig:
        return UNetConfig(
            latent_channels=latent_channels(self.vae_patch),
            base_width=self.base_width,
            time_embedding_dim=self.time_embedding_dim,
            cond_dim=self.cond_dim,
        )

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["levels"] = list(self.levels)
        return d

    def sha256(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()

    @classmethod
    def from_dict(cls, raw: dict) -> "CascadeConfig":
        unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(cls)})
        if unknown:  # cut short, so a huge key or key list cannot flood stderr
            shown = ", ".join(k if len(k) <= 40 else k[:37] + "..." for k in unknown[:5])
            more = f" and {len(unknown) - 5} more" if len(unknown) > 5 else ""
            raise ConfigError(f"unknown config keys: {shown}{more}")
        return cls(**raw)


def nearest_resize(map2d: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Nearest-neighbor resize of a 2-D map (no value interpolation, so
    region boundaries stay crisp)."""
    map2d = np.asarray(map2d, dtype=np.float32)
    in_h, in_w = map2d.shape
    rows = np.minimum(((np.arange(out_h) + 0.5) * in_h / out_h).astype(int), in_h - 1)
    cols = np.minimum(((np.arange(out_w) + 0.5) * in_w / out_w).astype(int), in_w - 1)
    return map2d[np.ix_(rows, cols)]


@contextlib.contextmanager
def _allocating(what: str):
    """A config whose arrays this host cannot allocate is a config error
    naming their sizes: numpy raises MemoryError for a request the system
    refuses and ValueError for one past its largest array."""
    try:
        yield
    except (MemoryError, ValueError) as e:
        raise ConfigError(f"cannot allocate {what}: {e}") from e


def _weights(config: CascadeConfig) -> WeightSet:
    unet = config.unet_config()
    with _allocating(f"the UNet weights of {unet}"):
        return init_weights(unet, config.seed)


def _check_finite(z: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(z)):
        raise NumericError(f"non-finite values in {where}")


def _alpha_map(config: CascadeConfig, height: int, width: int,
               mask: np.ndarray | None) -> np.ndarray:
    if mask is not None:
        alpha_img = config.alpha_lo + mask * (config.alpha_hi - config.alpha_lo)
        return nearest_resize(alpha_img, height, width)[None, None]
    return np.asarray(config.alpha_default)


def _denoise_loop(
    z: np.ndarray,
    timesteps,
    sched: NoiseSchedule,
    weights: WeightSet,
    config: CascadeConfig,
    dilation: int = 1,
    fusion: FusionConfig | None = None,
    blend: Callable[[np.ndarray, int], np.ndarray] | None = None,
) -> np.ndarray:
    # both guidance branches run as one batch of two cond rows over the one
    # latent: row 0 unconditional, row 1 conditional
    conds = np.stack([np.zeros(config.cond_dim, dtype=np.float32),
                      prompt_embedding(config.prompt, config.cond_dim)])
    total = len(timesteps)
    for i, t in enumerate(timesteps):
        t = int(t)
        t_prev = int(timesteps[i + 1]) if i + 1 < total else 0
        eps = predict_noise(z, t, conds, weights, restrained_dilation(dilation, i, total), fusion)
        eps = cfg_combine(eps[:1], eps[1:], config.guidance_scale)
        z = ddim_step(z, eps, t, t_prev, sched)
        del eps  # the next forward does not hold this step's eps
        if blend is not None and t_prev > 0:
            z = blend(z, t_prev)
        _check_finite(z, f"latent at timestep {t_prev}")
    return z


def _pure_noise(config: CascadeConfig, level: int, stream: int) -> np.ndarray:
    """The seeded unit-noise latent of one level; stream keys the draw."""
    rng = np.random.default_rng([config.seed, stream])
    n = config.base_latent_size * level
    shape = (1, latent_channels(config.vae_patch), n, n)
    with _allocating(f"the first latent, shape {shape}"):
        return rng.standard_normal(shape).astype(np.float32)


def _plain_ddim(config: CascadeConfig, weights: WeightSet, sched: NoiseSchedule,
                level: int, stream: int) -> np.ndarray:
    """Seeded DDIM from pure noise at one level (no dilation, no fusion, no
    blending); stream keys the noise draw. The noise goes straight into the
    loop, which frees it after the first step."""
    return _denoise_loop(_pure_noise(config, level, stream), sched.ddim_timesteps, sched,
                         weights, config)


def generate_base(config: CascadeConfig, weights: WeightSet, sched: NoiseSchedule) -> np.ndarray:
    """Plain DDIM generation at the training resolution."""
    return _plain_ddim(config, weights, sched, 1, 0)


def cascade_level(
    z0_prev: np.ndarray,
    level: int,
    config: CascadeConfig,
    weights: WeightSet,
    vae_spec: AutoencoderSpec,
    sched: NoiseSchedule,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Produce ``level`` from the clean latent of level / 2: upsample it,
    re-noise it at the first DDIM timestep at or below the injection step,
    then denoise the rest of the DDIM subsequence with restrained dilation,
    fused attention, and detail blending.
    """
    phi = phi_upsample(z0_prev, config.upsample_space, vae_spec)
    rng = np.random.default_rng([config.seed, level])
    # one noise draw per level: it drives the injection and stays the anchor
    # noise for every blend step, so the anchor trajectory is consistent
    anchor_noise = rng.standard_normal(phi.shape).astype(np.float32)
    timesteps = sched.injection_timesteps(config.injection_step)

    blend = None
    if config.blend_enabled:
        alpha = _alpha_map(config, *phi.shape[2:], mask)

        def blend(z, t_prev):  # the noised anchor lives only inside the blend
            anchor = forward_noise(phi, t_prev, anchor_noise, sched)
            return detail_blend(anchor, z, t_prev, alpha, sched)

    # the latent carries the noise level the sampler's first step assumes; it
    # goes straight into the loop, so no frame here keeps it past step one
    return _denoise_loop(
        forward_noise(phi, timesteps[0], anchor_noise, sched),
        timesteps, sched, weights, config,
        dilation=level if config.dilation_enabled else 1,
        fusion=config.fusion() if config.fusion_enabled else None,
        blend=blend,
    )


def latent_to_image(z0: np.ndarray, vae_spec: AutoencoderSpec) -> np.ndarray:
    """Decode a clean latent and map it to displayable [0,1] RGB.

    The decoded reals are standardized before the affine display map so the
    emitted image uses the full range without saturating.
    """
    rgb = decode(z0, vae_spec).astype(np.float64)
    rgb = (rgb - rgb.mean()) / (rgb.std() + 1e-8)
    return np.clip(0.5 + rgb / 6.0, 0.0, 1.0).astype(np.float32)


def run(config: CascadeConfig, mask: np.ndarray | None = None) -> dict:
    """Execute the full cascade; returns {"image", "latent", "manifest"}.
    mask, if given, is a 2-D map of detail weights in [0, 1] (0 gives
    alpha_lo, 1 alpha_hi), resized to each level."""
    if mask is not None:
        m = np.asarray(mask)
        # NaN fails both comparisons, so only finite values pass
        if m.ndim != 2 or m.size == 0 or not np.all((m >= 0.0) & (m <= 1.0)):
            raise ConfigError(f"mask must be a non-empty 2-D map with every value in [0, 1], "
                              f"got shape {m.shape}")
    sched = make_schedule(TOTAL_TIMESTEPS, config.steps)
    weights = _weights(config)
    dim = latent_channels(config.vae_patch)
    with _allocating(f"the autoencoder basis, {dim}x{dim} for vae_patch {config.vae_patch}"):
        vae_spec = make_autoencoder(config.vae_patch, config.seed + 1)

    level_stats = []
    t0 = time.perf_counter()
    z0 = generate_base(config, weights, sched)
    level_stats.append(_level_record(1, z0, t0))

    for level in config.levels[1:]:
        t0 = time.perf_counter()
        z0 = cascade_level(z0, level, config, weights, vae_spec, sched, mask)
        level_stats.append(_level_record(level, z0, t0))

    image = latent_to_image(z0, vae_spec)
    _check_finite(image, "decoded image")
    manifest = {
        "config_sha256": config.sha256(),
        "seed": config.seed,
        "levels": level_stats,
        "tool_version": __version__,
        # the pinned bytes hold per numpy build and SIMD dispatch level (README)
        "numpy_version": np.__version__,
        "numpy_simd": [t for t in __cpu_dispatch__ if __cpu_features__.get(t)],
    }
    return {"image": image, "latent": z0, "manifest": manifest}


def _level_record(level: int, z0: np.ndarray, t_start: float) -> dict:
    return {
        "level": level,
        "wall_ms": round(1000.0 * (time.perf_counter() - t_start), 3),
        "latent_mean": float(np.mean(z0)),
        "latent_std": float(np.std(z0)),
    }


def direct_generate(config: CascadeConfig, level: int) -> np.ndarray:
    """Plain DDIM inference directly at the given resolution level (the
    benchmarking baseline; no cascade machinery)."""
    sched = make_schedule(TOTAL_TIMESTEPS, config.steps)
    weights = _weights(config)
    return _plain_ddim(config, weights, sched, level, 1000 + level)
