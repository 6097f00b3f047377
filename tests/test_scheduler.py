import numpy as np
import pytest

from freescale.scheduler import (
    NoiseSchedule,
    ddim_step,
    decay_factor,
    detail_blend,
    forward_noise,
    make_schedule,
)

RNG = np.random.default_rng(42)


def schedule_with_alpha_bar(ab):
    """Single-step schedule whose alpha_bar(1) equals the given value."""
    return NoiseSchedule(alpha_bars=np.array([1.0, ab]), ddim_timesteps=np.array([1]))


class TestMakeSchedule:
    def test_ddim_subsequence(self):
        sched = make_schedule(1000, 50)
        ts = sched.ddim_timesteps
        assert len(ts) == 50
        assert ts[0] == 1000
        assert np.all(np.diff(ts) < 0)
        assert ts[-1] >= 1

    def test_single_step(self):
        # a one-step schedule holds only the first beta
        sched = make_schedule(1, 1)
        assert sched.alpha_bar(1) == pytest.approx(1.0 - 0.00085)

    def test_running_product_oracle(self):
        # the documented betas: sqrt(beta) linearly spaced from sqrt(0.00085)
        # to sqrt(0.012), then squared
        sched = make_schedule(1000, 50)
        lo, hi = np.sqrt(0.00085), np.sqrt(0.012)
        prod = 1.0
        for i in range(1000):
            prod *= 1.0 - (lo + (hi - lo) * i / 999) ** 2
        assert abs(sched.alpha_bar(1000) - prod) < 1e-6

    def test_alpha_bar_monotone(self):
        for steps in (10, 37, 50):
            sched = make_schedule(500, steps)
            assert np.all(np.diff(sched.alpha_bars) < 0)
            assert sched.alpha_bars[0] == 1.0
            assert sched.alpha_bars[-1] < sched.alpha_bars[1] < 1.0

    def test_parameter_validation(self):
        for steps in (0, 20):
            with pytest.raises(ValueError, match=r"steps must lie in \[1, 10\]"):
                make_schedule(10, steps)


class TestForwardNoise:
    def test_near_zero_noise_limit(self):
        sched = schedule_with_alpha_bar(1.0 - 1e-6)
        z0 = RNG.standard_normal((1, 2, 4, 4)).astype(np.float32)
        out = forward_noise(z0, 1, np.zeros_like(z0), sched)
        np.testing.assert_allclose(out, z0, atol=1e-5)

    def test_hand_value(self):
        sched = schedule_with_alpha_bar(0.64)
        out = forward_noise(np.array([[[[1.0]]]]), 1, np.array([[[[0.5]]]]), sched)
        assert out[0, 0, 0, 0] == pytest.approx(0.8 * 1.0 + 0.6 * 0.5, abs=1e-6)

    def test_monte_carlo_statistics(self):
        sched = make_schedule(1000, 50)
        t = 700
        ab = sched.alpha_bar(t)
        rng = np.random.default_rng(777)
        n = 10_000
        draws = rng.standard_normal((n, 1, 1, 1, 1)).astype(np.float32)
        z0 = np.full((1, 1, 1, 1), 0.7, np.float32)
        samples = np.array([forward_noise(z0, t, d, sched)[0, 0, 0, 0] for d in draws])
        se_mean = np.sqrt(1.0 - ab) / np.sqrt(n)
        assert abs(samples.mean() - np.sqrt(ab) * 0.7) < 3 * se_mean
        se_var = (1.0 - ab) * np.sqrt(2.0 / (n - 1))
        assert abs(samples.var(ddof=1) - (1.0 - ab)) < 3 * se_var

    def test_timestep_range(self):
        sched = make_schedule(100, 10)
        z = np.zeros((1, 1, 2, 2), np.float32)
        with pytest.raises(ValueError):
            forward_noise(z, 0, z, sched)
        with pytest.raises(ValueError):
            forward_noise(z, 101, z, sched)


class TestDdimStep:
    def test_noop_step(self):
        sched = make_schedule(100, 10)
        z = RNG.standard_normal((1, 1, 4, 4)).astype(np.float32)
        np.testing.assert_array_equal(ddim_step(z, np.zeros_like(z), 50, 50, sched), z)

    def test_inverts_forward_noise(self):
        sched = make_schedule(1000, 50)
        for t in (20, 200, 500, 800, 1000):
            z0 = RNG.standard_normal((1, 4, 16, 16)).astype(np.float32)
            eps = RNG.standard_normal(z0.shape).astype(np.float32)
            z_t = forward_noise(z0, t, eps, sched)
            np.testing.assert_allclose(ddim_step(z_t, eps, t, 0, sched), z0, atol=1e-4)

    def test_zero_eps_rescaling(self):
        sched = make_schedule(1000, 50)
        z = RNG.standard_normal((1, 2, 4, 4)).astype(np.float32)
        out = ddim_step(z, np.zeros_like(z), 600, 400, sched)
        scale = np.sqrt(sched.alpha_bar(400) / sched.alpha_bar(600))
        np.testing.assert_allclose(out, scale * z, atol=1e-5)

    def test_ordering_enforced(self):
        sched = make_schedule(100, 10)
        z = np.zeros((1, 1, 2, 2), np.float32)
        with pytest.raises(ValueError):
            ddim_step(z, z, 10, 20, sched)


class TestCascadeInject:
    def test_zero_noise(self):
        sched = make_schedule(1000, 50)
        phi = RNG.standard_normal((1, 4, 8, 8)).astype(np.float32)
        out = forward_noise(phi, 700, np.zeros_like(phi), sched)
        np.testing.assert_allclose(
            out, np.float32(np.sqrt(sched.alpha_bar(700))) * phi, atol=1e-6
        )

    def test_k_range(self):
        sched = make_schedule(1000, 50)
        phi = np.zeros((1, 1, 2, 2), np.float32)
        with pytest.raises(ValueError):
            forward_noise(phi, 1001, phi, sched)

    def test_injection_timesteps(self):
        # 50 steps put the grid at 1000, 980, ..., 20; 30 steps at 1000, 967,
        # ..., 43, so K = 700 lies off that grid and the level starts at 670
        assert make_schedule(1000, 50).injection_timesteps(700) == list(range(700, 0, -20))
        assert make_schedule(1000, 30).injection_timesteps(700) == list(range(670, 42, -33))
        assert make_schedule(1000, 10).injection_timesteps(50) == []
        for k in (0, 1001):
            with pytest.raises(ValueError, match=r"injection_step must lie in \[1, 1000\]"):
                make_schedule(1000, 50).injection_timesteps(k)


class TestDetailBlend:
    def setup_method(self):
        self.sched = make_schedule(1000, 50)
        self.anchor = RNG.standard_normal((1, 2, 4, 4)).astype(np.float32)
        self.current = RNG.standard_normal((1, 2, 4, 4)).astype(np.float32)

    def test_boundaries(self):
        alpha = np.array(2.0)
        at_t = detail_blend(self.anchor, self.current, 1000, alpha, self.sched)
        np.testing.assert_allclose(at_t, self.anchor, atol=1e-6)
        at_zero = detail_blend(self.anchor, self.current, 0, alpha, self.sched)
        np.testing.assert_allclose(at_zero, self.current, atol=1e-6)

    def test_halfway_hand_value(self):
        out = detail_blend(self.anchor, self.current, 500, np.array(2.0), self.sched)
        expected = 0.25 * self.anchor + 0.75 * self.current
        np.testing.assert_allclose(out, expected, atol=1e-5)

    def test_spatial_alpha_map(self):
        alpha = np.full((1, 1, 4, 4), 2.0)
        alpha[0, 0, :2] = 0.5
        out = detail_blend(self.anchor, self.current, 500, alpha, self.sched)
        c_hi = decay_factor(500, 1000, 0.5)
        c_lo = decay_factor(500, 1000, 2.0)
        expected_top = c_hi * self.anchor[0, :, :2] + (1 - c_hi) * self.current[0, :, :2]
        expected_bot = c_lo * self.anchor[0, :, 2:] + (1 - c_lo) * self.current[0, :, 2:]
        np.testing.assert_allclose(out[0, :, :2], expected_top, atol=1e-5)
        np.testing.assert_allclose(out[0, :, 2:], expected_bot, atol=1e-5)

    def test_alpha_validation(self):
        one_negative = np.full((1, 1, 4, 4), 1.0)
        one_negative[0, 0, 3, 1] = -2.0
        for alpha in (np.array(0.0), one_negative, np.array(np.nan), np.zeros((1, 1, 0, 4))):
            with pytest.raises(ValueError, match="alpha entries"):
                detail_blend(self.anchor, self.current, 500, alpha, self.sched)


class TestDecayFactor:
    def test_monotone_in_t(self):
        ts = np.arange(0, 1001)
        for alpha in (0.5, 1.0, 2.0, 3.0):
            cs = decay_factor(ts, 1000, alpha)
            assert cs[0] == 0.0
            assert cs[-1] == 1.0
            assert np.all(np.diff(cs) >= 0.0)

    def test_decreasing_in_alpha(self):
        # larger exponent weakens the anchor for intermediate timesteps
        for t in (100, 500, 900):
            cs = [float(decay_factor(t, 1000, a)) for a in (0.5, 1.0, 2.0, 3.0)]
            assert all(a > b for a, b in zip(cs, cs[1:]))
