"""The benchmark's workloads and the seeded generator of their inputs.

Each workload is one config JSON (plus, for one workload, a grayscale PGM
mask) written from the workload seed. The program under test receives only
those files; the seed becomes the config ``seed`` and drives the mask.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1
MASK_SIZE = 64
MASK_CELLS = 8

# The acceptance config of the test suite: 16^2 base latent, levels
# [1, 2, 4], 50 DDIM steps, width 16. Every mechanism is on by default.
_ACCEPTANCE = {
    "prompt": "acceptance scene",
    "levels": [1, 2, 4],
    "steps": 50,
    "base_latent_size": 16,
    "vae_patch": 2,
    "base_width": 16,
    "time_embedding_dim": 32,
    "cond_dim": 16,
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "cascade": one `freescale generate` call; "direct": one direct_generate call
    config: dict
    masked: bool = False

    @property
    def latent_size(self) -> int:
        return self.config["base_latent_size"] * self.config["levels"][-1]

    @property
    def image_size(self) -> int:
        return self.latent_size * self.config["vae_patch"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cascade-x4",
            why=(
                "The acceptance config with every mechanism on, RGB upsampling through "
                "the VAE, Gaussian blur and scalar alpha; it mixes every layer "
                "(conv2d ~59%, fused attention ~25% of an image)."
            ),
            kind="cascade",
            config=dict(_ACCEPTANCE),
        ),
        Workload(
            name="direct-x4",
            why=(
                "The paper's baseline arm: plain DDIM straight at level 4 with no "
                "dilation, fusion, blend or VAE; it bypasses fusion (attention ~3.5%, "
                "conv2d ~75%), so an attention or fusion change should not move it."
            ),
            kind="direct",
            config=dict(_ACCEPTANCE),
        ),
        Workload(
            name="cascade-x8",
            why=(
                "Levels [1,2,4,8] to a 256^2 image: a 1024-token mid map with a "
                "225-patch fusion grid (attention ~41%), FFT low-pass, latent "
                "upsampling and a per-pixel alpha mask; it doubles peak memory."
            ),
            kind="cascade",
            config=dict(
                _ACCEPTANCE,
                levels=[1, 2, 4, 8],
                steps=20,
                base_width=8,
                upsample_space="latent",
                blur_mode="ideal_lowpass",
            ),
            masked=True,
        ),
    )
}


def config_for(workload: Workload, seed: int) -> dict:
    return dict(workload.config, seed=seed % 2**32)


def mask_for(seed: int) -> np.ndarray:
    """A [MASK_SIZE, MASK_SIZE] uint8 map of MASK_CELLS^2 flat regions, so
    the detail exponent alpha varies in blocks across the image."""
    rng = np.random.default_rng([seed % 2**32, 0x6D61736B])
    cells = rng.integers(0, 256, size=(MASK_CELLS, MASK_CELLS), dtype=np.uint8)
    rep = MASK_SIZE // MASK_CELLS
    return np.repeat(np.repeat(cells, rep, axis=0), rep, axis=1)


def pgm_bytes(gray: np.ndarray) -> bytes:
    h, w = gray.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + np.ascontiguousarray(gray, np.uint8).tobytes()


def write_inputs(workload: Workload, seed: int, directory: Path) -> dict:
    """Write the workload's config JSON (and mask PGM) into ``directory``;
    returns {"config": path, "mask": path or None}."""
    directory.mkdir(parents=True, exist_ok=True)
    config_path = directory / "config.json"
    config_path.write_text(json.dumps(config_for(workload, seed), indent=2, sort_keys=True) + "\n")
    mask_path = None
    if workload.masked:
        mask_path = directory / "mask.pgm"
        mask_path.write_bytes(pgm_bytes(mask_for(seed)))
    return {"config": config_path, "mask": mask_path}
