"""Golden bytes: the sha256 of the emitted PPM and of the final latent for
small pinned configs. Any kernel rewrite must leave these unchanged; a change
that alters them on purpose re-pins them and says why.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from freescale import fileio
from freescale.attention import AttentionWeights, self_attention
from freescale.pipeline import run
from test_acceptance import toy_config

# name -> (config overrides, masked, ppm sha256, latent sha256)
GOLDEN = {
    "tiny": (
        {},
        False,
        "2c4b37919c6ff80ef95cdd7be551b11ccfc7d5b34f9ae94486f000f8c7dbbc2e",
        "5891b4368b920fab925076a9ce748b851f153b79f48683a76759efe5923fb7c7",
    ),
    "latent_upsample": (
        {"upsample_space": "latent"},
        False,
        "54026eda42dd9d816979d71b68044e2bba3329e3d1230a157da9f6f198a122d1",
        "166f29669e141c5b0020ac04ab7f3b18a8a9a6178add761bfda990b034263e4e",
    ),
    "ideal_lowpass": (
        {"blur_mode": "ideal_lowpass"},
        False,
        "20811d265b75bc778a86f429247036c6e2bc423d39832fb030aee92cbd943238",
        "c0b95fa133b9bd08c451989aa5ee70ec805e4a2b5a5e80fdb1ae7510b8f40a9c",
    ),
    "masked": (
        {},
        True,
        "4cc4fdc7ecabcd0a33fe3a55542db6f37619c966ebb205695e3efa6ad247ffa4",
        "4bf8166ce8dcfada8e975f77f6f01822c17712747e6252b6702319caddef28ae",
    ),
    # the level-8 path: latent upsampling, FFT low-pass and a per-pixel alpha
    "four_levels": (
        {"levels": (1, 2, 4, 8), "upsample_space": "latent", "blur_mode": "ideal_lowpass"},
        True,
        "dd3cd4296cff65679c3368e2d470e9d9c82746947729682a45498e4dc76566f2",
        "9ea1d7e96c0d20b90df6b69693745db65cca1b3e0a86bb52fc9d113bb1050f58",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_bytes(name, tiny_config, tmp_path):
    overrides, masked, ppm_sha, latent_sha = GOLDEN[name]
    config = dataclasses.replace(tiny_config, **overrides)
    mask = np.linspace(0.0, 1.0, 16 * 16, dtype=np.float32).reshape(16, 16) if masked else None
    result = run(config, mask=mask)
    payload = fileio.write_ppm(tmp_path / "out.ppm", result["image"])
    assert hashlib.sha256(payload).hexdigest() == ppm_sha
    assert hashlib.sha256(result["latent"].tobytes()).hexdigest() == latent_sha


def test_golden_bytes_acceptance_config(tmp_path):
    # toy_config: 16^2 base latent, levels [1, 2, 4], 50 steps, every mechanism on
    result = run(toy_config())
    payload = fileio.write_ppm(tmp_path / "out.ppm", result["image"])
    assert hashlib.sha256(payload).hexdigest() == (
        "d216faaf6eb778570af2cf13d284c06b79d3fa3580da407ce421abdbb5447f7d"
    )
    assert hashlib.sha256(result["latent"].tobytes()).hexdigest() == (
        "4aaa52d18ff51e2656e90e15597317f7a924869cadc2e71c4c4ce4460be1cd1f"
    )


def test_stacked_self_attention_equals_single_calls():
    rng = np.random.default_rng(17)
    w = AttentionWeights(*(rng.standard_normal((6, 6)) for _ in range(4)))
    patches = rng.standard_normal((7, 6, 4, 5)).astype(np.float32)
    batched = self_attention(patches, w)
    single = np.concatenate([self_attention(p[None], w) for p in patches])
    assert batched.shape == patches.shape
    assert np.array_equal(batched, single)
