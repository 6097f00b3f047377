"""Diffusion time machinery: noise schedule, forward noising (also the
cascade's noise injection), deterministic DDIM reverse steps, and
cosine-decay detail blending.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_ops import as_f32

# Length of the diffusion the frozen model was trained on; the fixed
# schedule below spans it.
TOTAL_TIMESTEPS = 1000


@dataclass(frozen=True)
class NoiseSchedule:
    """alpha_bars[t] is the cumulative alpha at timestep t = 0..T, where
    alpha_bars[0] = 1; ddim_timesteps is the descending DDIM subsequence."""

    alpha_bars: np.ndarray
    ddim_timesteps: np.ndarray

    @property
    def total_steps(self) -> int:
        return len(self.alpha_bars) - 1

    def alpha_bar(self, t: int) -> float:
        if t < 0 or t > self.total_steps:
            raise ValueError(f"timestep {t} outside [0, {self.total_steps}]")
        return float(self.alpha_bars[t])

    def injection_timesteps(self, injection_step: int) -> list[int]:
        """The DDIM timesteps at or below injection_step: a cascade level
        noises its latent at the first and samples down from there."""
        if not 1 <= injection_step <= self.total_steps:
            raise ValueError(f"injection_step must lie in [1, {self.total_steps}]")
        return [int(t) for t in self.ddim_timesteps if t <= injection_step]


def make_schedule(total_steps: int, steps: int) -> NoiseSchedule:
    """The running product of a scaled-linear beta schedule (sqrt(beta)
    linearly spaced from sqrt(0.00085) to sqrt(0.012), then squared), with an
    evenly spaced descending DDIM timestep subsequence starting at T.
    """
    if not 1 <= steps <= total_steps:
        raise ValueError(f"steps must lie in [1, {total_steps}], got {steps}")
    betas = np.linspace(np.sqrt(0.00085), np.sqrt(0.012), total_steps, dtype=np.float64) ** 2
    stride = total_steps // steps
    timesteps = total_steps - stride * np.arange(steps, dtype=np.int64)
    alpha_bars = np.concatenate(([1.0], np.cumprod(1.0 - betas)))
    return NoiseSchedule(alpha_bars=alpha_bars, ddim_timesteps=timesteps)


def forward_noise(z0: np.ndarray, t: int, noise: np.ndarray, sched: NoiseSchedule) -> np.ndarray:
    """Closed-form forward noising: sqrt(ab_t) * z0 + sqrt(1 - ab_t) * noise.
    The cascade's noise injection is this on the upsampled latent."""
    z0 = as_f32(z0)
    noise = as_f32(noise)
    if noise.shape != z0.shape:
        raise ValueError(f"noise shape {noise.shape} != z0 shape {z0.shape}")
    if t < 1 or t > sched.total_steps:
        raise ValueError(f"timestep {t} outside [1, {sched.total_steps}]")
    ab = sched.alpha_bar(t)
    out = np.sqrt(ab) * z0.astype(np.float64) + np.sqrt(1.0 - ab) * noise.astype(np.float64)
    return out.astype(np.float32)


def ddim_step(
    z_t: np.ndarray, eps: np.ndarray, t: int, t_prev: int, sched: NoiseSchedule
) -> np.ndarray:
    """One deterministic DDIM step from timestep t down to t_prev.

    Reconstructs the clean-latent estimate from the predicted noise, then
    re-noises it at t_prev with the same predicted noise.
    """
    z_t = as_f32(z_t)
    eps = as_f32(eps)
    if eps.shape != z_t.shape:
        raise ValueError("eps shape must match z_t shape")
    if t_prev > t:
        raise ValueError(f"t_prev ({t_prev}) must not exceed t ({t})")
    if t_prev == t:
        return z_t.copy()
    ab_t = sched.alpha_bar(t)
    ab_prev = sched.alpha_bar(t_prev)
    z = z_t.astype(np.float64)
    e64 = eps.astype(np.float64)
    scratch = e64 * np.sqrt(1.0 - ab_t)
    z -= scratch
    z /= np.sqrt(ab_t)  # z0_hat
    z *= np.sqrt(ab_prev)
    np.multiply(e64, np.sqrt(1.0 - ab_prev), out=scratch)
    z += scratch
    return z.astype(np.float32)


# smallest detail exponent accepted (by detail_blend and config validation)
MIN_ALPHA = 1e-3


def decay_factor(t: int, total_steps: int, alpha) -> np.ndarray:
    """Scaled cosine decay c = ((1 + cos((T-t)/T * pi)) / 2) ** alpha.

    c(0) = 0 and c(T) = 1 for every alpha > 0; larger alpha weakens the
    anchoring for intermediate t.
    """
    base = (1.0 + np.cos((total_steps - t) / total_steps * np.pi)) / 2.0
    return np.power(base, np.asarray(alpha, dtype=np.float64))


def detail_blend(
    anchor: np.ndarray,
    current: np.ndarray,
    t: int,
    alpha,
    sched: NoiseSchedule,
) -> np.ndarray:
    """Blend the trajectory latent toward the noised upsampled anchor:
    c * anchor + (1 - c) * current, with c from decay_factor. alpha is a
    scalar or a map of detail exponents that broadcasts to the latent;
    every entry must be >= MIN_ALPHA.
    """
    anchor = as_f32(anchor)
    current = as_f32(current)
    if anchor.shape != current.shape:
        raise ValueError("anchor and current shapes must agree")
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.size == 0 or not np.all(alpha >= MIN_ALPHA):
        raise ValueError(f"alpha entries must be >= {MIN_ALPHA}")
    c = decay_factor(t, sched.total_steps, alpha)
    c = np.broadcast_to(c, anchor.shape)
    out = c * anchor.astype(np.float64) + (1.0 - c) * current.astype(np.float64)
    return out.astype(np.float32)
