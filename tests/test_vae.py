import numpy as np
import pytest

from freescale.tensor_ops import upsample
from freescale.vae import (UPSAMPLE_SPACES, decode, encode, latent_channels, make_autoencoder,
                          phi_upsample)

RNG = np.random.default_rng(17)


class TestBasis:
    def test_orthonormal(self):
        spec = make_autoencoder(patch=4, seed=0)
        gram = spec.basis.T @ spec.basis
        assert np.max(np.abs(gram - np.eye(gram.shape[0]))) < 1e-5

    def test_seed_determinism(self):
        a = make_autoencoder(patch=2, seed=5)
        b = make_autoencoder(patch=2, seed=5)
        np.testing.assert_array_equal(a.basis, b.basis)
        c = make_autoencoder(patch=2, seed=6)
        assert np.max(np.abs(a.basis - c.basis)) > 1e-6

    def test_latent_channels(self):
        # one channel per RGB value of a patch
        assert [latent_channels(p) for p in (1, 2, 4)] == [3, 12, 48]
        assert make_autoencoder(patch=2, seed=0).basis.shape == (12, 12)
        with pytest.raises(ValueError, match="patch must be >= 1"):
            make_autoencoder(patch=0, seed=0)


class TestRoundTrip:
    def test_zero_image(self):
        spec = make_autoencoder(patch=2, seed=0)
        z = encode(np.zeros((1, 3, 8, 8), np.float32), spec)
        np.testing.assert_array_equal(z, 0.0)
        np.testing.assert_array_equal(decode(z, spec), 0.0)

    def test_encode_decode_identity(self):
        for patch in (2, 4):
            spec = make_autoencoder(patch=patch, seed=1)
            x = RNG.standard_normal((1, 3, 4 * patch, 4 * patch)).astype(np.float32)
            np.testing.assert_allclose(decode(encode(x, spec), spec), x, atol=1e-5)

    def test_decode_encode_identity(self):
        spec = make_autoencoder(patch=2, seed=1)
        z = RNG.standard_normal((1, 12, 4, 4)).astype(np.float32)
        np.testing.assert_allclose(encode(decode(z, spec), spec), z, atol=1e-5)

    def test_constant_image_matrix_oracle(self):
        spec = make_autoencoder(patch=2, seed=3)
        c = 1.7
        x = np.full((1, 3, 4, 4), c, np.float32)
        z = encode(x, spec)
        expected = (c * np.ones(12)) @ spec.basis
        for py in range(2):
            for px in range(2):
                np.testing.assert_allclose(z[0, :, py, px], expected, atol=1e-5)

    def test_decode_linearity(self):
        spec = make_autoencoder(patch=2, seed=1)
        z1 = RNG.standard_normal((1, 12, 3, 3)).astype(np.float32)
        z2 = RNG.standard_normal((1, 12, 3, 3)).astype(np.float32)
        lhs = decode(2.0 * z1 + z2, spec)
        rhs = 2.0 * decode(z1, spec) + decode(z2, spec)
        np.testing.assert_allclose(lhs, rhs, atol=1e-5)

    def test_validation(self):
        spec = make_autoencoder(patch=4, seed=0)
        with pytest.raises(ValueError, match="divisible"):
            encode(np.zeros((1, 3, 10, 10), np.float32), spec)
        with pytest.raises(ValueError, match="channels"):
            decode(np.zeros((1, 5, 2, 2), np.float32), spec)


class TestPhiUpsample:
    def test_latent_nearest_replication(self):
        spec = make_autoencoder(patch=2, seed=2)
        z = np.arange(1, 5, dtype=np.float32).reshape(1, 1, 2, 2).repeat(12, axis=1)
        out = phi_upsample(z, "latent", spec)
        expected = np.array([[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]])
        np.testing.assert_array_equal(out[0, 0], expected)

    def test_rgb_composition_oracle(self):
        spec = make_autoencoder(patch=2, seed=2)
        z = RNG.standard_normal((1, 12, 4, 4)).astype(np.float32)
        got = phi_upsample(z, "rgb", spec)
        expected = encode(upsample(decode(z, spec), "bilinear"), spec)
        np.testing.assert_allclose(got, expected, atol=1e-5)

    def test_rgb_and_latent_paths_differ(self):
        spec = make_autoencoder(patch=2, seed=2)
        z = RNG.standard_normal((1, 12, 4, 4)).astype(np.float32)
        rgb = phi_upsample(z, "rgb", spec)
        lat = phi_upsample(z, "latent", spec)
        assert np.max(np.abs(rgb - lat)) > 1e-3

    def test_unknown_space(self):
        spec = make_autoencoder(patch=2, seed=2)
        with pytest.raises(ValueError):
            phi_upsample(np.zeros((1, 12, 2, 2)), "pixelspace", spec)
        # the spaces a config may name are the ones phi_upsample runs
        for space in UPSAMPLE_SPACES:
            assert phi_upsample(np.zeros((1, 12, 2, 2)), space, spec).shape == (1, 12, 4, 4)
