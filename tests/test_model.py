import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathieu_cert.model import (
    LinearizedSystem,
    MathieuModel,
    Nonlinearity,
    PendulumParams,
    linearize,
    model_from_dict,
    model_to_dict,
    pendulum_reduce,
    quadratic_remainder_bound,
    shift_to_zero,
)
from mathieu_cert.periodic_signal import PeriodicSignal
from mathieu_cert.simulate import integrate, nonlinear_system

from conftest import TWO_PI

SIN = PeriodicSignal(TWO_PI, ((1, 0.0, 1.0),))


def poly(*coeffs):
    return Nonlinearity("polynomial", tuple(coeffs))


class TestPendulumReduce:
    def test_reference_numbers(self):
        p = PendulumParams(1.0, 9.8, 1.0, 0.1, 100.0)
        m, mu = pendulum_reduce(p)
        assert mu == pytest.approx(0.1, abs=0)
        assert m.beta == pytest.approx(0.098, rel=1e-15)
        assert m.alpha == pytest.approx(0.1, rel=1e-15)
        assert m.gamma == math.pi
        assert m.f.kind == "pendulum_sine"
        # phi(t) = -sin t
        assert m.phi.eval(math.pi / 2) == pytest.approx(-1.0, abs=1e-15)
        assert m.period == TWO_PI

    def test_stability_threshold_frequency(self):
        # a^2 omega^2 = 2 g l lands exactly on beta = 1/2
        omega = math.sqrt(2.0 * 9.8 * 1.0) / 0.1
        p = PendulumParams(1.0, 9.8, 1.0, 0.1, omega)
        m, _ = pendulum_reduce(p)
        assert m.beta == pytest.approx(0.5, rel=1e-14)

    def test_amplitude_not_small_rejected(self):
        with pytest.raises(ValueError):
            pendulum_reduce(PendulumParams(1.0, 9.8, 1.0, 1.0, 100.0))

    def test_frictionless_builds_but_cannot_linearize(self):
        m, _ = pendulum_reduce(PendulumParams(1.0, 9.8, 0.0, 0.1, 100.0))
        assert m.alpha == 0.0
        with pytest.raises(ValueError):
            linearize(m)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            PendulumParams(0.0, 9.8, 1.0, 0.1, 100.0)
        with pytest.raises(ValueError):
            PendulumParams(1.0, 9.8, -1.0, 0.1, 100.0)


class TestModelValidation:
    def test_non_stationary_gamma(self):
        with pytest.raises(ValueError):
            MathieuModel(0.1, 0.25, SIN, Nonlinearity("pendulum_sine"), gamma=1.0)

    def test_wrong_slope_sign(self):
        # sin has positive slope at 0
        with pytest.raises(ValueError):
            MathieuModel(0.1, 0.25, SIN, Nonlinearity("pendulum_sine"), gamma=0.0)

    def test_negative_alpha(self):
        with pytest.raises(ValueError):
            MathieuModel(-0.1, 0.25, SIN, poly(-1.0), gamma=0.0)

    def test_negative_beta(self):
        with pytest.raises(ValueError):
            MathieuModel(0.1, -0.25, SIN, poly(-1.0), gamma=0.0)

    @pytest.mark.parametrize("field", ["alpha", "beta", "gamma"])
    def test_non_finite_rejected(self, field):
        args = dict(alpha=0.1, beta=0.25, phi=SIN, f=poly(-1.0), gamma=0.0)
        args[field] = math.nan
        with pytest.raises(ValueError, match="finite"):
            MathieuModel(**args)


class TestLinearize:
    def test_pendulum(self, pendulum_model):
        lin = linearize(pendulum_model)
        assert lin.beta_hat == -pendulum_model.beta
        t = np.linspace(0, TWO_PI, 9)
        np.testing.assert_allclose(lin.phi_hat.eval(t), np.sin(t), atol=1e-15)
        assert lin.period == TWO_PI

    def test_linear_polynomial(self):
        m = MathieuModel(1.0, 2.0, SIN, poly(-1.0), gamma=0.0)
        lin = linearize(m)
        assert lin.beta_hat == -2.0
        assert lin.phi_hat.eval(math.pi / 2) == pytest.approx(-1.0, abs=1e-15)

    def test_cubic(self):
        m = MathieuModel(1.0, 1.0, SIN, poly(-1.0, 0.0, 1.0), gamma=0.0)
        assert linearize(m).beta_hat == -1.0

    def test_composition_with_reduction_is_exact(self):
        # the reduced pendulum linearizes to beta_hat = -beta and
        # phi_hat = sin t with no rounding at all
        m, _ = pendulum_reduce(PendulumParams(1.0, 9.8, 1.0, 0.1, 100.0))
        lin = linearize(m)
        assert lin.beta_hat == -m.beta
        assert lin.period == TWO_PI
        assert lin.phi_hat.harmonics == ((1, -0.0, 1.0),)

    def test_beta_hat_sign_guard(self):
        with pytest.raises(ValueError):
            LinearizedSystem(alpha=0.1, beta_hat=0.5, phi_hat=SIN, period=TWO_PI)


class TestShiftToZero:
    def test_pendulum(self, pendulum_model):
        g = shift_to_zero(pendulum_model)
        assert g.kind == "pendulum_sine"
        assert g.scale == -1.0 and g.shift == 0.0
        assert g.value(0.0) == 0.0
        assert g.derivative(0.0) == -1.0
        z = np.linspace(-1.0, 1.0, 11)
        np.testing.assert_allclose(g.value(z), -np.sin(z), atol=1e-15)
        # exactness survives far below the float residual of sin(pi)
        assert g.value(1e-32) == -1e-32

    def test_identity_shift(self):
        m = MathieuModel(1.0, 1.0, SIN, poly(-1.0, 1.0), gamma=0.0)
        assert shift_to_zero(m) == m.f

    def test_binomial_expansion(self):
        # f(y) = y - y^3 has a stationary point at y = 1 with f'(1) = -2;
        # f(1+z) = -2z - 3z^2 - z^3
        m = MathieuModel(1.0, 1.0, SIN, poly(1.0, 0.0, -1.0), gamma=1.0)
        g = shift_to_zero(m)
        assert g.coeffs == pytest.approx((-2.0, -3.0, -1.0), abs=1e-12)
        assert g.value(0.0) == 0.0

    def test_dynamics_preserved(self, pendulum_model):
        # simulate around gamma and around 0 after shifting; trajectories
        # must agree to integration tolerance after un-shifting
        mu, y0, y1, t_end = 0.05, 0.3, 0.1, 5 * TWO_PI
        m = pendulum_model
        sys_orig = nonlinear_system(m.alpha, m.beta, m.phi, m.f, mu)
        sys_shift = nonlinear_system(m.alpha, m.beta, m.phi, shift_to_zero(m), mu)
        tr_orig = integrate(sys_orig, m.gamma + y0, y1, t_end, 2048, record_stride=64)
        tr_shift = integrate(sys_shift, y0, y1, t_end, 2048, record_stride=64)
        diff = np.abs(tr_orig.states - tr_shift.states - np.array([m.gamma, 0.0]))
        assert diff.max() < 1e-9


class TestQuadraticRemainderBound:
    def test_pendulum_local(self, pendulum_model):
        g = shift_to_zero(pendulum_model)
        assert quadratic_remainder_bound(g, 0.5) == pytest.approx(0.5 / 6.0, rel=1e-15)

    def test_pendulum_needs_rho(self, pendulum_model):
        with pytest.raises(ValueError):
            quadratic_remainder_bound(shift_to_zero(pendulum_model))

    def test_quadratic_global(self):
        assert quadratic_remainder_bound(poly(-1.0, 1.0)) == 1.0

    def test_linear_is_exact(self):
        assert quadratic_remainder_bound(poly(-1.0)) == 0.0
        assert quadratic_remainder_bound(poly(-1.0), 3.0) == 0.0

    def test_cubic_needs_rho(self):
        with pytest.raises(ValueError):
            quadratic_remainder_bound(poly(-1.0, 0.0, 1.0))

    def test_cubic_local(self):
        p = quadratic_remainder_bound(poly(-2.0, -3.0, -1.0), 0.5)
        assert p == pytest.approx(3.0 + 0.5, rel=1e-15)

    def test_wrong_slope_rejected(self):
        with pytest.raises(ValueError):
            quadratic_remainder_bound(poly(1.0))

    @pytest.mark.parametrize(
        "g,rho",
        [
            (Nonlinearity("pendulum_sine", scale=-1.0), 0.5),
            (Nonlinearity("pendulum_sine", scale=-1.0), 1.5),
            (poly(-1.0, 1.0), 2.0),
            (poly(-2.0, -3.0, -1.0), 0.8),
        ],
    )
    def test_bound_holds_densely(self, g, rho):
        p = quadratic_remainder_bound(g, rho)
        xi = np.linspace(-rho, rho, 10_001)
        remainder = np.abs(g.value(xi) - g.derivative(0.0) * xi)
        assert np.all(remainder <= p * xi * xi + 1e-12)

    def test_sine_bound_nearly_tight_at_edge(self):
        g = Nonlinearity("pendulum_sine", scale=-1.0)
        rho = 0.5
        p = quadratic_remainder_bound(g, rho)
        edge = abs(g.value(rho) - g.derivative(0.0) * rho)
        assert edge >= 0.9 * p * rho * rho


class TestJson:
    def test_roundtrip_pendulum(self, pendulum_model):
        m2 = model_from_dict(json.loads(json.dumps(model_to_dict(pendulum_model))))
        assert m2 == pendulum_model

    def test_roundtrip_polynomial(self):
        m = MathieuModel(1.0, 1.0, SIN, poly(1.0, 0.0, -1.0), gamma=1.0)
        assert model_from_dict(model_to_dict(m)) == m

    def test_roundtrip_scaled_sine(self, pendulum_model):
        g = shift_to_zero(pendulum_model)
        m = MathieuModel(0.1, 0.25, SIN.scaled(-1.0), g, gamma=0.0)
        assert model_from_dict(model_to_dict(m)) == m

    def test_malformed(self):
        with pytest.raises(ValueError):
            model_from_dict({"alpha": 1.0})


class TestNonlinearityProperties:
    @given(
        st.lists(
            st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=4,
        ),
        st.floats(-1.0, 1.0, allow_nan=False),
    )
    @settings(max_examples=100, deadline=None)
    def test_polynomial_derivative_consistent(self, coeffs, y):
        if all(c == 0.0 for c in coeffs):
            coeffs = [1.0]
        f = poly(*coeffs)
        h = 1e-6
        fd = (f.value(y + h) - f.value(y - h)) / (2 * h)
        assert fd == pytest.approx(f.derivative(y), abs=1e-5)
