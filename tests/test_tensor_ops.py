import numpy as np
import pytest

from conftest import traced_peak
from freescale import tensor_ops
from freescale.oracle import reference_conv2d, reference_lowpass, reference_softmax_rows
from freescale.tensor_ops import (
    BLUR_MODES,
    Kernel2D,
    conv2d,
    gaussian_taps,
    linear,
    lowpass,
    softmax_rows,
    upsample,
)

RNG = np.random.default_rng(123)


def identity_kernel(channels):
    w = np.zeros((channels, channels, 3, 3), np.float32)
    for c in range(channels):
        w[c, c, 1, 1] = 1.0
    return Kernel2D(w)


class TestConv2d:
    def test_identity_kernel(self):
        x = RNG.standard_normal((1, 2, 6, 6)).astype(np.float32)
        np.testing.assert_allclose(conv2d(x, identity_kernel(2), 1), x, atol=1e-6)

    def test_dilated_impulse(self):
        x = np.zeros((1, 1, 8, 8), np.float32)
        x[0, 0, 4, 4] = 1.0
        k = Kernel2D(np.ones((1, 1, 3, 3)))
        out = conv2d(x, k, 2)
        expected = np.zeros((8, 8), np.float32)
        for dy in (-2, 0, 2):
            for dx in (-2, 0, 2):
                expected[4 + dy, 4 + dx] = 1.0
        np.testing.assert_array_equal(out[0, 0], expected)

    def test_ones_border_counts(self):
        x = np.ones((1, 1, 5, 5), np.float32)
        k = Kernel2D(np.ones((1, 1, 3, 3)))
        out = conv2d(x, k, 1)[0, 0]
        assert out[2, 2] == 9.0
        assert out[0, 0] == 4.0

    def test_brute_force_agreement(self):
        # a batch of two non-square maps; on the 3x4 map at dilation 5 every
        # off-centre tap reads only padding
        for hw in ((7, 11), (3, 4)):
            for ksize in ((1, 1), (3, 3), (5, 3)):
                for d in (1, 2, 3, 5):
                    x = RNG.standard_normal((2, 2, *hw)).astype(np.float32)
                    k = Kernel2D(RNG.standard_normal((3, 2, *ksize)))
                    out = conv2d(x, k, d)
                    np.testing.assert_allclose(out, reference_conv2d(x, k, d), atol=1e-5)
                    if d >= max(hw):
                        centre = Kernel2D(
                            k.weights[:, :, ksize[0] // 2, ksize[1] // 2, None, None]
                        )
                        np.testing.assert_allclose(out, conv2d(x, centre), atol=1e-5)

    @pytest.mark.parametrize("rows", [1, 2, 3])
    def test_row_blocks(self, monkeypatch, rows):
        # blocks of 1-3 output rows, most of them narrower than the halo; in
        # the last three shapes off-centre taps read only the zero gap that
        # consecutive rows share: a map one column wide, dilations at or
        # past the width, and 1x5 and 5x1 kernels
        shapes = [(hw, ((1, 1), (3, 3), (5, 3)), (1, 2, 3, 5)) for hw in ((7, 11), (3, 4))]
        shapes += [
            ((6, 1), ((3, 3), (1, 5), (5, 1), (5, 3)), (1, 2, 3)),
            ((5, 3), ((3, 3), (1, 5), (5, 1)), (3, 4)),
            ((4, 6), ((1, 5), (5, 1)), (1, 2, 6)),
        ]
        cases = []
        for hw, ksizes, dilations in shapes:
            for ksize in ksizes:
                for d in dilations:
                    x = RNG.standard_normal((2, 2, *hw)).astype(np.float32)
                    k = Kernel2D(RNG.standard_normal((3, 2, *ksize)))
                    cases.append((x, k, d, conv2d(x, k, d)))  # one block per call
        for x, k, d, whole in cases:
            s = x.shape[3] + d * (k.weights.shape[3] - 1) // 2  # the row stride
            row_bytes = (k.in_channels + 2 * k.out_channels) * s * 8 * x.shape[0]
            monkeypatch.setattr(tensor_ops, "TILE_BYTES", rows * row_bytes + row_bytes - 1)
            assert tensor_ops.tile_rows(x.shape[2], row_bytes) == min(rows, x.shape[2])
            out = conv2d(x, k, d)
            assert np.array_equal(out, whole)
            np.testing.assert_allclose(out, reference_conv2d(x, k, d), atol=1e-5)

    # padding, accumulating and multiplying the whole map at once in float64
    # peaks at 6.7 and 6.8 MiB on these two shapes
    @pytest.mark.parametrize("c, o, d", [(32, 8, 1), (8, 16, 8)])
    def test_peak_memory_row_blocks(self, c, o, d):
        rng = np.random.default_rng(31)
        x = rng.standard_normal((1, c, 128, 128)).astype(np.float32)
        k = Kernel2D(rng.standard_normal((o, c, 3, 3)))
        out_bytes = o * 128 * 128 * 4
        assert traced_peak(lambda: conv2d(x, k, d)) <= out_bytes + 2 * 2**20

    def test_dilation_upsample_commutation(self):
        # dilated conv on a nearest-upsampled map matches standard conv on
        # the original at interior sampled positions
        for _ in range(5):
            h = RNG.standard_normal((1, 2, 12, 12)).astype(np.float32)
            k = Kernel2D(RNG.standard_normal((2, 2, 3, 3)))
            fine = conv2d(upsample(h, "nearest"), k, 2)
            coarse = conv2d(h, k, 1)
            np.testing.assert_allclose(
                fine[:, :, 2:22:2, 2:22:2], coarse[:, :, 1:11, 1:11], atol=1e-5
            )

    def test_channel_mismatch(self):
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d(np.zeros((1, 3, 4, 4)), identity_kernel(2), 1)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            Kernel2D(np.zeros((1, 1, 2, 2)))

    def test_bad_dilation(self):
        with pytest.raises(ValueError, match="dilation"):
            conv2d(np.zeros((1, 1, 4, 4)), identity_kernel(1), 0)


class TestUpsample:
    def test_nearest_replication(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]], np.float32)[None, None]
        expected = np.array(
            [[1, 1, 2, 2], [1, 1, 2, 2], [3, 3, 4, 4], [3, 3, 4, 4]], np.float32
        )
        np.testing.assert_array_equal(upsample(x, "nearest")[0, 0], expected)

    def test_bilinear_constant(self):
        x = np.full((1, 1, 3, 3), 2.5, np.float32)
        np.testing.assert_allclose(upsample(x, "bilinear"), 2.5, atol=1e-6)

    def test_bilinear_sample_centers(self):
        # align-corners-false: interior samples interpolate at quarter points
        x = np.array([[0.0, 1.0]], np.float32)[None, None]
        out = upsample(x, "bilinear")[0, 0, 0]
        np.testing.assert_allclose(out, [0.0, 0.25, 0.75, 1.0], atol=1e-6)


class TestLowpass:
    def test_constant_fixed_point(self):
        x = np.full((1, 2, 8, 8), 3.25, np.float32)
        for mode in ("gaussian", "ideal_lowpass"):
            np.testing.assert_allclose(lowpass(x, mode), x, atol=1e-5)

    def test_gaussian_impulse_response(self):
        taps = gaussian_taps()
        r = (len(taps) - 1) // 2
        assert r == 3  # sigma 1, truncated at 3 sigma
        x = np.zeros((1, 1, 17, 17), np.float32)
        x[0, 0, 8, 8] = 1.0
        out = lowpass(x, "gaussian")[0, 0]
        np.testing.assert_allclose(out[8, 8 - r : 8 + r + 1], taps[r] * taps, atol=1e-6)
        np.testing.assert_allclose(out[8 - r : 8 + r + 1, 8], taps[r] * taps, atol=1e-6)

    def test_gaussian_taps_normalized(self):
        assert abs(gaussian_taps().sum() - 1.0) < 1e-12

    def test_ideal_idempotent(self):
        x = RNG.standard_normal((1, 3, 16, 16)).astype(np.float32)
        once = lowpass(x, "ideal_lowpass")
        np.testing.assert_allclose(lowpass(once, "ideal_lowpass"), once, atol=1e-5)

    def test_linearity_both_modes(self):
        x = RNG.standard_normal((1, 2, 12, 12)).astype(np.float32)
        y = RNG.standard_normal((1, 2, 12, 12)).astype(np.float32)
        for mode in ("gaussian", "ideal_lowpass"):
            lhs = lowpass(2.0 * x + y, mode)
            rhs = 2.0 * lowpass(x, mode) + lowpass(y, mode)
            np.testing.assert_allclose(lhs, rhs, atol=1e-5)

    def test_gaussian_mean_preserved_for_constants(self):
        x = np.full((1, 1, 10, 10), -1.75, np.float32)
        out = lowpass(x, "gaussian")
        assert abs(float(out.mean()) - float(x.mean())) < 1e-5

    # sides 1-3 are shorter than the Gaussian's radius plus one, so its
    # padding falls back from reflect to symmetric; side 4, the smallest
    # fused map, gives the ideal filter weights of exactly +-1/4 and 3/4
    @pytest.mark.parametrize(
        "hw", [(1, 1), (2, 2), (3, 3), (4, 4), (7, 11), (32, 32), (128, 128)]
    )
    @pytest.mark.parametrize("mode", BLUR_MODES)
    def test_bitwise_equal_to_reference(self, mode, hw):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 2, *hw)).astype(np.float32)
        got, ref = lowpass(x, mode), reference_lowpass(x, mode)
        if mode == "ideal_lowpass" and hw == (3, 3):
            # the ideal filter of side 3 keeps only the mean, and the mean of
            # float32 values can lie on a float32 rounding midpoint: the
            # reference sums exactly and divides once, the matrix adds
            # rounded thirds, so the two may round to neighbours
            np.testing.assert_array_max_ulp(got, ref, maxulp=1)
        else:
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("mode", BLUR_MODES)
    def test_peak_memory(self, mode):
        # transforming or padding whole maps traced 10.6x (gaussian) and 18.5x
        # (ideal_lowpass) the map's bytes on this shape
        x = RNG.standard_normal((2, 32, 32, 32)).astype(np.float32)
        assert traced_peak(lambda: lowpass(x, mode)) <= 5 * x.nbytes

    def test_validation(self):
        with pytest.raises(ValueError):
            lowpass(np.zeros((4, 4)), "gaussian")
        with pytest.raises(ValueError, match="unknown blur mode"):
            lowpass(np.zeros((1, 1, 4, 4)), "box")


class TestSoftmaxRows:
    def test_uniform(self):
        out = softmax_rows(np.full((2, 5), 3.0, np.float32))
        np.testing.assert_allclose(out, 0.2, atol=1e-6)

    def test_hand_value(self):
        out = softmax_rows(np.array([[0.0, np.log(3.0)]], np.float32))
        np.testing.assert_allclose(out, [[0.25, 0.75]], atol=1e-6)

    def test_shift_invariance(self):
        m = RNG.standard_normal((4, 7)).astype(np.float32)
        np.testing.assert_allclose(softmax_rows(m), softmax_rows(m + 5.0), atol=1e-6)

    def test_rows_sum_to_one_large_magnitude(self):
        m = (RNG.standard_normal((8, 16)) * 1e4).astype(np.float32)
        sums = softmax_rows(m).sum(axis=1)
        np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    @pytest.mark.parametrize("scale", [0.1, 3.0, 40.0])
    def test_bitwise_equal_to_reference(self, scale):
        rng = np.random.default_rng(11)
        m = (rng.standard_normal((64, 257)) * scale).astype(np.float32)
        if scale == 40.0:
            assert np.ptp(m, axis=1).min() > 50.0  # the smallest weights flush to zero
        assert np.array_equal(softmax_rows(m), reference_softmax_rows(m))


class TestLinear:
    def test_identity(self):
        x = RNG.standard_normal((3, 4)).astype(np.float32)
        np.testing.assert_allclose(linear(x, np.eye(4)), x, atol=1e-6)

    def test_example(self):
        out = linear(np.array([[1.0, 2.0]]), np.array([[1.0, 3.0], [2.0, 4.0]]))
        np.testing.assert_allclose(out, [[5.0, 11.0]], atol=1e-6)

    def test_linearity(self):
        x = RNG.standard_normal((2, 3)).astype(np.float32)
        y = RNG.standard_normal((2, 3)).astype(np.float32)
        w = RNG.standard_normal((3, 5)).astype(np.float32)
        np.testing.assert_allclose(
            linear(2.0 * x + y, w), 2.0 * linear(x, w) + linear(y, w), atol=1e-5
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            linear(np.zeros((2, 3)), np.zeros((4, 4)))
