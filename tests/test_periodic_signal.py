import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

from mathieu_cert.periodic_signal import (
    PeriodicSignal,
    QuadratureGrid,
    _extrema,
    cumulative_simpson,
    integrate,
    signal_from_dict,
    signal_to_dict,
    sup_norm,
    zero_mean_antiderivative,
)
from mathieu_cert.robustness import Perturbation

from conftest import TWO_PI, signal_strategy
from oracles import polished_extrema

EPS = 2.0 ** -52

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

    @pytest.mark.parametrize("k", [1.5, "1", math.inf, math.nan, None])
    def test_non_integer_index_rejected(self, k):
        with pytest.raises(ValueError, match="harmonic indices must be integers"):
            PeriodicSignal(TWO_PI, ((k, 1.0, 0.0),))

    def test_integer_valued_index_accepted(self):
        s = PeriodicSignal(TWO_PI, ((2.0, 1.0, 0.0), (np.int64(3), 0.0, 1.0)))
        assert s.harmonics == ((2, 1.0, 0.0), (3, 0.0, 1.0))
        assert all(type(k) is int for k, _, _ in s.harmonics)

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
        assert sup_norm(SIN) == pytest.approx(1.0, rel=4 * EPS)

    def test_zero(self):
        assert sup_norm(PeriodicSignal(TWO_PI, ())) == 0.0

    def test_amplitude(self):
        s = PeriodicSignal(TWO_PI, ((1, -4.0, 3.0),))
        assert sup_norm(s) == pytest.approx(5.0, rel=4 * EPS)

    def test_sum_and_offset(self):
        # the series of a sum add up index by index, down to an exact cancel
        assert sup_norm(SIN, SIN.scaled(-1.0), offset=-0.5) == 0.5
        assert sup_norm(SIN, None, SIN, offset=1.0) == pytest.approx(3.0, rel=4 * EPS)
        assert sup_norm(offset=-2.0) == 2.0

    def test_periods_must_match(self):
        with pytest.raises(ValueError):
            sup_norm(SIN, PeriodicSignal(1.0, ((1, 0.0, 1.0),)))


def _random_series(rng, k_max, n_terms):
    ks = rng.choice(np.arange(1, k_max + 1), size=n_terms, replace=False)
    return [(int(k), float(rng.normal()), float(rng.normal())) for k in ks]


class TestExtrema:
    """``_extrema`` against independent oracles: every extremum of a series is
    a root of its derivative, and no value of the series exceeds it."""

    def test_agrees_with_polished_oracle(self):
        # the worst of these 40 series is 1.5 eps of the sup
        rng = np.random.default_rng(5)
        for _ in range(40):
            harm = _random_series(rng, 8, int(rng.integers(1, 9)))
            offset = float(rng.normal())
            got = _extrema(harm, offset)
            ref = polished_extrema(harm, offset)
            scale = max(map(abs, ref))
            assert abs(got[0] - ref[0]) <= 4 * EPS * scale, (harm, offset, got, ref)
            assert abs(got[1] - ref[1]) <= 4 * EPS * scale, (harm, offset, got, ref)

    @pytest.mark.parametrize(
        "top", [(7, 1e-27, 0.0), (7, 0.0, 1e-100), (16, 1e-300, 0.0), (64, 1e-17, 0.0)]
    )
    def test_negligible_top_harmonic(self, top):
        # a perturbation's 1e-27 harmonic on top of the forcing made it the
        # leading coefficient of z^K s', and np.roots lost the unit-circle
        # roots: the max fell 5.6e-11 (at 1e-100, 70%) below the polished one
        harm = [(2, -0.894474, 0.717044), (5, -0.845679, -0.98865), (6, -0.530295, 0.822668), top]
        got, ref = _extrema(harm, 0.1), polished_extrema(harm, 0.1)
        assert got == pytest.approx(ref, rel=4 * EPS, abs=0.0)

    @pytest.mark.parametrize("k_max", [16, 32, 64])
    def test_brackets_the_dense_max(self, k_max):
        # the max of 2^16 samples is at most the true max, which lies within
        # half a spacing of a sample: at most the dense max plus the Lipschitz
        # pad (pi / n) sum k |c_k|; both ends allow the rounding of a sum
        rng = np.random.default_rng(k_max)
        harm = _random_series(rng, k_max, k_max // 2)
        offset = float(rng.normal())
        n = 1 << 16
        x = np.arange(n) * (TWO_PI / n)
        v = offset + sum(c * np.cos(k * x) + s * np.sin(k * x) for k, c, s in harm)
        rounding = 8 * EPS * (abs(offset) + sum(abs(c) + abs(s) for _, c, s in harm))
        pad = math.pi / n * sum(k * math.hypot(c, s) for k, c, s in harm)
        lo, hi = _extrema(harm, offset)
        assert v.max() - rounding <= hi <= v.max() + pad + rounding
        assert v.min() - pad - rounding <= lo <= v.min() + rounding

    @pytest.mark.parametrize("e", [-1063, -1000, -600, 0, 600, 996])
    def test_power_of_two_scale_is_exact(self, e):
        # 2^-1063 is 1.1e-320 and 2^996 is 6.7e299; these few-bit
        # coefficients stay exact there, and so must the extrema
        harm = [(1, 0.75, -0.5), (3, 0.25, 0.125), (4, -0.375, 0.0)]
        scaled = [(k, math.ldexp(c, e), math.ldexp(s, e)) for k, c, s in harm]
        lo, hi = _extrema(harm, 0.0625)
        assert _extrema(scaled, math.ldexp(0.0625, e)) == (math.ldexp(lo, e), math.ldexp(hi, e))

    @pytest.mark.parametrize("amp", [1e-320, 1e-300, 1e-150, 1e150, 1e300])
    def test_decimal_scale(self, amp):
        # below 1e-308 the scaled coefficients round to multiples of 2^-1074
        harm = [(2, 0.3, -0.8), (5, 0.6, 0.1)]
        ref = _extrema(harm, 0.2)
        got = _extrema([(k, amp * c, amp * s) for k, c, s in harm], amp * 0.2)
        tol = 4 * EPS * amp * max(map(abs, ref)) + 6 * 2.0 ** -1074
        assert all(math.isfinite(g) for g in got)
        assert abs(got[0] - amp * ref[0]) <= tol and abs(got[1] - amp * ref[1]) <= tol

    def test_all_zero_coefficients(self):
        assert _extrema([(1, 0.0, 0.0), (4, 0.0, 0.0)], 0.25) == (0.25, 0.25)
        assert _extrema([], -1.0) == (-1.0, -1.0)
        pert = Perturbation(0.0, 0.0, PeriodicSignal(TWO_PI, ((1, 0.0, 0.0),)))
        assert pert.sup_d_phi_hat == 0.0

    def test_gcd_reduces_the_degree(self, monkeypatch):
        degrees = []
        roots = np.roots
        monkeypatch.setattr(np, "roots", lambda p: degrees.append(len(p) - 1) or roots(p))
        assert _extrema([(1024, 0.0, 3.0)]) == pytest.approx((-3.0, 3.0), rel=4 * EPS)
        assert _extrema([(512, 1.0, 0.0), (1024, 0.0, 1.0)])[1] == pytest.approx(
            polished_extrema([(1, 1.0, 0.0), (2, 0.0, 1.0)])[1], rel=4 * EPS
        )
        assert degrees == [2, 4]


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
