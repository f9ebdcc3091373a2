import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

from mathieu_cert.periodic_signal import (
    PeriodicSignal,
    QuadratureGrid,
    cumulative_simpson,
    integrate,
    signal_from_dict,
    signal_to_dict,
    sup_norm,
    zero_mean_antiderivative,
)

from conftest import TWO_PI, signal_strategy

SIN = PeriodicSignal(TWO_PI, ((1, 0.0, 1.0),))
GRID = QuadratureGrid(TWO_PI, 2048)


class TestEval:
    def test_sine_peak(self):
        assert SIN.eval(math.pi / 2) == pytest.approx(1.0, abs=1e-15)

    def test_sine_zero(self):
        assert SIN.eval(0.0) == 0.0

    def test_two_harmonics(self):
        s = PeriodicSignal(TWO_PI, ((1, 0.0, 1.0), (2, 0.5, 0.0)))
        # sin(pi) + 0.5*cos(2*pi) = 0.5
        assert s.eval(math.pi) == pytest.approx(0.5, abs=1e-15)

    def test_vectorized(self):
        t = np.linspace(0, TWO_PI, 7)
        np.testing.assert_allclose(SIN.eval(t), np.sin(t), atol=1e-15)


class TestValidation:
    def test_negative_period(self):
        with pytest.raises(ValueError):
            PeriodicSignal(-1.0, ())

    def test_constant_term_rejected(self):
        with pytest.raises(ValueError):
            PeriodicSignal(TWO_PI, ((0, 1.0, 0.0),))

    def test_duplicate_harmonics(self):
        with pytest.raises(ValueError):
            PeriodicSignal(TWO_PI, ((1, 1.0, 0.0), (1, 0.0, 1.0)))

    def test_grid_odd(self):
        with pytest.raises(ValueError):
            QuadratureGrid(TWO_PI, 129)

    def test_grid_too_small(self):
        with pytest.raises(ValueError):
            QuadratureGrid(TWO_PI, 8)


class TestIntegrate:
    def test_zero_mean_sine(self):
        assert abs(integrate(SIN, 0.0, TWO_PI, GRID)) < 1e-12

    def test_sine_squared(self):
        val = integrate(lambda t: np.sin(t) ** 2, 0.0, TWO_PI, GRID)
        assert val == pytest.approx(math.pi, abs=1e-10)

    def test_t_sine(self):
        # by parts: [-t cos t + sin t] over one period
        val = integrate(lambda t: t * np.sin(t), 0.0, TWO_PI, GRID)
        assert val == pytest.approx(-TWO_PI, abs=1e-9)

    def test_empty_interval(self):
        assert integrate(SIN, 1.0, 1.0, GRID) == 0.0

    def test_reversed_bounds_rejected(self):
        with pytest.raises(ValueError):
            integrate(SIN, 1.0, 0.0, GRID)


class TestCumulativeSimpson:
    @pytest.mark.parametrize("n_points", [3, 4, 5, 4097, 4098])
    def test_matches_scipy(self, n_points):
        # even and odd panel counts, on matrix-valued samples as the
        # Lyapunov solves use it
        from scipy.integrate import cumulative_simpson as scipy_cumulative_simpson

        y = np.random.default_rng(n_points).normal(size=(n_points, 2, 2))
        mine = cumulative_simpson(y, 0.37)
        ref = scipy_cumulative_simpson(y, dx=0.37, axis=0, initial=0.0)
        assert mine.shape == ref.shape
        np.testing.assert_allclose(mine, ref, rtol=1e-15, atol=1e-15 * np.max(np.abs(ref)))

    def test_exact_for_quadratics(self):
        x = np.linspace(0.0, 2.0, 8)  # 7 panels: the odd-count tail rule too
        np.testing.assert_allclose(
            cumulative_simpson(3.0 * x ** 2 - x + 1.0, x[1] - x[0]),
            x ** 3 - 0.5 * x ** 2 + x,
            atol=1e-14,
        )

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            cumulative_simpson(np.ones(2), 0.1)


class TestAntiderivative:
    def test_sine(self):
        B = zero_mean_antiderivative(SIN)
        t = np.linspace(0, TWO_PI, 17)
        np.testing.assert_allclose(B.eval(t), -np.cos(t), atol=1e-14)

    def test_zero_signal(self):
        B = zero_mean_antiderivative(PeriodicSignal(TWO_PI, ()))
        assert B.eval(1.234) == 0.0

    def test_cosine(self):
        B = zero_mean_antiderivative(PeriodicSignal(TWO_PI, ((1, 1.0, 0.0),)))
        t = np.linspace(0, TWO_PI, 17)
        np.testing.assert_allclose(B.eval(t), np.sin(t), atol=1e-14)


class TestSupNorm:
    def test_sine(self):
        assert sup_norm(SIN, GRID) == pytest.approx(1.0, abs=1e-6)

    def test_zero(self):
        assert sup_norm(PeriodicSignal(TWO_PI, ()), GRID) == 0.0

    def test_amplitude(self):
        s = PeriodicSignal(TWO_PI, ((1, -4.0, 3.0),))
        assert sup_norm(s, GRID) == pytest.approx(5.0, abs=1e-6)


class TestProperties:
    @given(signal_strategy())
    @settings(max_examples=50, deadline=None)
    def test_zero_mean(self, s):
        assert abs(integrate(s, 0.0, s.period, GRID)) < 1e-10

    @given(signal_strategy())
    @settings(max_examples=50, deadline=None)
    def test_antiderivative_periodic_and_zero_mean(self, s):
        B = zero_mean_antiderivative(s)
        t = np.linspace(0.0, s.period, 9)
        np.testing.assert_allclose(B.eval(t + s.period), B.eval(t), atol=1e-10)
        assert abs(integrate(B, 0.0, s.period, GRID) / s.period) < 1e-10

    @given(signal_strategy())
    @settings(max_examples=50, deadline=None)
    def test_antiderivative_derivative(self, s):
        B = zero_mean_antiderivative(s)
        h = 1e-5
        for t in (0.1, 1.7, 4.4):
            dB = (B.eval(t + h) - B.eval(t - h)) / (2 * h)
            assert dB == pytest.approx(s.eval(t), abs=1e-6)

    @pytest.mark.parametrize("j,k", [(1, 1), (1, 2), (2, 3), (3, 3)])
    def test_orthogonality(self, j, k):
        # int sin(jt) sin(kt) = pi * delta_jk over one period, quadrature exact
        sj = PeriodicSignal(TWO_PI, ((j, 0.0, 1.0),))
        sk = PeriodicSignal(TWO_PI, ((k, 0.0, 1.0),))
        val = integrate(lambda t: sj.eval(t) * sk.eval(t), 0.0, TWO_PI, GRID)
        expect = math.pi if j == k else 0.0
        assert val == pytest.approx(expect, abs=1e-10)
        mixed = integrate(
            lambda t: sj.eval(t) * np.cos(k * t), 0.0, TWO_PI, GRID
        )
        assert abs(mixed) < 1e-10

    @given(signal_strategy())
    @settings(max_examples=50, deadline=None)
    def test_json_roundtrip(self, s):
        s2 = signal_from_dict(json.loads(json.dumps(signal_to_dict(s))))
        assert s2 == s

    def test_malformed_dict(self):
        with pytest.raises(ValueError):
            signal_from_dict({"period": 1.0})
