"""Exactly invertible toy autoencoder: non-overlapping patchify followed by
a seeded orthonormal basis change. Stands in for a pretrained VAE so the
RGB-space upsampling path encode(upsample(decode(z))) is testable to
round-trip precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_ops import as_f32, upsample


@dataclass(frozen=True)
class AutoencoderSpec:
    patch: int
    basis: np.ndarray  # [3*p*p, 3*p*p], orthonormal columns

    def __post_init__(self):
        dim = 3 * self.patch * self.patch
        b = np.asarray(self.basis, dtype=np.float64)
        if b.shape != (dim, dim):
            raise ValueError(f"basis must be {dim}x{dim}, got {b.shape}")
        object.__setattr__(self, "basis", b)

    @property
    def latent_channels(self) -> int:
        return 3 * self.patch * self.patch


def make_autoencoder(patch: int, seed: int) -> AutoencoderSpec:
    """Seeded orthonormal basis via QR with a deterministic sign fix."""
    if patch < 1:
        raise ValueError("patch must be >= 1")
    dim = 3 * patch * patch
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))[None, :]
    return AutoencoderSpec(patch=patch, basis=q)


def encode(rgb: np.ndarray, spec: AutoencoderSpec) -> np.ndarray:
    """[1,3,H,W] -> [1, 3p^2, H/p, W/p]: patchify and project onto the basis."""
    rgb = as_f32(rgb)
    if rgb.ndim != 4 or rgb.shape[0] != 1 or rgb.shape[1] != 3:
        raise ValueError(f"expected [1,3,H,W], got shape {rgb.shape}")
    p = spec.patch
    _, _, h, w = rgb.shape
    if h % p or w % p:
        raise ValueError(f"spatial dims {h}x{w} not divisible by patch {p}")
    hp, wp = h // p, w // p
    # (1,3,hp,p,wp,p) -> (hp, wp, 3, p, p) -> (hp*wp, 3p^2)
    vecs = (
        rgb.reshape(3, hp, p, wp, p)
        .transpose(1, 3, 0, 2, 4)
        .reshape(hp * wp, 3 * p * p)
        .astype(np.float64)
    )
    coeffs = vecs @ spec.basis
    return coeffs.reshape(hp, wp, 3 * p * p).transpose(2, 0, 1)[None].astype(np.float32)


def decode(z: np.ndarray, spec: AutoencoderSpec) -> np.ndarray:
    """Inverse of encode: basis transpose multiply, then un-patchify."""
    z = as_f32(z)
    if z.ndim != 4 or z.shape[0] != 1:
        raise ValueError(f"expected [1,C,h,w] latent, got shape {z.shape}")
    if z.shape[1] != spec.latent_channels:
        raise ValueError(
            f"latent has {z.shape[1]} channels, spec expects {spec.latent_channels}"
        )
    p = spec.patch
    _, c, hp, wp = z.shape
    coeffs = z[0].reshape(c, hp * wp).T.astype(np.float64)
    vecs = coeffs @ spec.basis.T
    rgb = (
        vecs.reshape(hp, wp, 3, p, p)
        .transpose(2, 0, 3, 1, 4)
        .reshape(1, 3, hp * p, wp * p)
    )
    return rgb.astype(np.float32)


def phi_upsample(
    z: np.ndarray,
    factor: int,
    space: str = "rgb",
    mode: str = "nearest",
    spec: AutoencoderSpec | None = None,
) -> np.ndarray:
    """Upsample a clean latent either directly (latent space) or by decoding
    to RGB, bilinear-upsampling there, and re-encoding. The RGB path's mild
    blur is intentional: it suppresses excess high-frequency content.
    """
    if space == "latent":
        return upsample(z, factor, mode)
    if space == "rgb":
        if spec is None:
            raise ValueError("rgb-space upsampling requires an AutoencoderSpec")
        return encode(upsample(decode(z, spec), factor, "bilinear"), spec)
    raise ValueError(f"unknown upsampling space {space!r}")
