"""Exactly invertible toy autoencoder: non-overlapping patchify followed by
a seeded orthonormal basis change. Stands in for a pretrained VAE so the
RGB-space upsampling path encode(upsample(decode(z))) is testable to
round-trip precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor_ops import as_f32, upsample


# where phi_upsample doubles a latent: through RGB, or in the latent itself
UPSAMPLE_SPACES = ("rgb", "latent")


def latent_channels(patch: int) -> int:
    """Channels of a latent pixel: the 3 * patch**2 RGB values of its patch."""
    if patch < 1:
        raise ValueError(f"autoencoder patch must be >= 1, got {patch}")
    return 3 * patch * patch


@dataclass(frozen=True)
class AutoencoderSpec:
    patch: int
    basis: np.ndarray  # [C, C] for C latent channels, orthonormal columns

    def __post_init__(self):
        dim = latent_channels(self.patch)
        b = np.asarray(self.basis, dtype=np.float64)
        if b.shape != (dim, dim):
            raise ValueError(f"basis must be {dim}x{dim}, got {b.shape}")
        object.__setattr__(self, "basis", b)


def make_autoencoder(patch: int, seed: int) -> AutoencoderSpec:
    """Seeded orthonormal basis via QR with a deterministic sign fix."""
    dim = latent_channels(patch)
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
        .reshape(hp * wp, -1)
        .astype(np.float64)
    )
    coeffs = vecs @ spec.basis
    return coeffs.reshape(hp, wp, -1).transpose(2, 0, 1)[None].astype(np.float32)


def decode(z: np.ndarray, spec: AutoencoderSpec) -> np.ndarray:
    """Inverse of encode: basis transpose multiply, then un-patchify."""
    z = as_f32(z)
    if z.ndim != 4 or z.shape[0] != 1:
        raise ValueError(f"expected [1,C,h,w] latent, got shape {z.shape}")
    if z.shape[1] != len(spec.basis):
        raise ValueError(f"latent has {z.shape[1]} channels, spec expects {len(spec.basis)}")
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


def phi_upsample(z: np.ndarray, space: str, spec: AutoencoderSpec) -> np.ndarray:
    """Double a clean latent's size, either directly (latent space, nearest
    replication) or by decoding to RGB, bilinear-upsampling there, and
    re-encoding. The RGB path's mild blur is intentional: it suppresses
    excess high-frequency content.
    """
    if space == "latent":
        return upsample(z, "nearest")
    if space == "rgb":
        return encode(upsample(decode(z, spec), "bilinear"), spec)
    raise ValueError(f"unknown upsampling space {space!r}")
