import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathieu_cert.averaging import (
    bogolyubov_condition,
    build_transform,
    build_u1,
    build_u2_u3,
    mean_phi_a,
    u1_is_hurwitz,
)
from mathieu_cert.model import LinearizedSystem
from mathieu_cert.periodic_signal import PeriodicSignal, QuadratureGrid, eval_together, integrate

from conftest import TWO_PI, signal_strategy
from oracles import polished_extrema, s_matrix

SIN = PeriodicSignal(TWO_PI, ((1, 0.0, 1.0),))
GRID = QuadratureGrid(TWO_PI, 2048)


def make_lin(phi_hat=SIN, beta_hat=-0.25, alpha=0.1):
    return LinearizedSystem(alpha=alpha, beta_hat=beta_hat, phi_hat=phi_hat, period=TWO_PI)


class TestBuildTransform:
    def test_pendulum_pair(self):
        tr = build_transform(make_lin(), GRID)
        t = np.linspace(0.0, TWO_PI, 33)
        np.testing.assert_allclose(tr.b.eval(t), np.cos(t), atol=1e-14)
        np.testing.assert_allclose(tr.a.eval(t), np.sin(t), atol=1e-14)

    def test_zero_forcing(self):
        tr = build_transform(make_lin(phi_hat=PeriodicSignal(TWO_PI, ())), GRID)
        assert tr.a.eval(1.3) == 0.0 and tr.b.eval(1.3) == 0.0

    def test_double_harmonic(self):
        # phi_hat = cos 2t: b = -sin(2t)/2 and a = cos(2t)/4, both zero-mean
        tr = build_transform(make_lin(phi_hat=PeriodicSignal(TWO_PI, ((2, 1.0, 0.0),))), GRID)
        t = np.linspace(0.0, TWO_PI, 33)
        np.testing.assert_allclose(tr.b.eval(t), -np.sin(2 * t) / 2, atol=1e-14)
        np.testing.assert_allclose(tr.a.eval(t), np.cos(2 * t) / 4, atol=1e-14)

    @given(signal_strategy())
    @settings(max_examples=40, deadline=None)
    def test_pair_zero_mean_and_consistent(self, phi_hat):
        lin = make_lin(phi_hat=phi_hat)
        tr = build_transform(lin, GRID)
        assert abs(integrate(tr.a, 0.0, TWO_PI, GRID)) < 1e-10
        assert abs(integrate(tr.b, 0.0, TWO_PI, GRID)) < 1e-10
        # b' = -phi_hat and a' = b, by central differences
        h = 1e-5
        for t in (0.4, 2.9):
            db = (tr.b.eval(t + h) - tr.b.eval(t - h)) / (2 * h)
            da = (tr.a.eval(t + h) - tr.a.eval(t - h)) / (2 * h)
            assert db == pytest.approx(-phi_hat.eval(t), abs=1e-6)
            assert da == pytest.approx(tr.b.eval(t), abs=1e-6)


class TestHalfStepSamples:
    PHI = PeriodicSignal(TWO_PI, ((1, 0.3, -0.8), (3, 0.2, 0.5), (7, -0.1, 0.05)))

    @pytest.mark.parametrize("n", [64, 1000, 4096])
    def test_equal_eval_bit_for_bit(self, n):
        tr = build_transform(make_lin(self.PHI), GRID)
        samples = tr.half_step_samples(n)
        half = np.arange(2 * n + 1) * (TWO_PI / (2 * n))
        nodes = np.arange(n + 1) * (TWO_PI / n)
        for got, s in zip(samples, (tr.b, tr.phi_hat), strict=True):
            np.testing.assert_array_equal(got, s.eval(half))
            np.testing.assert_array_equal(got[::2], s.eval(nodes))
        # sampled once per transform and step count, and read-only
        assert all(x is y for x, y in zip(tr.half_step_samples(n), samples))
        for x in samples:
            with pytest.raises(ValueError):
                x[0] = 1.0

    def test_eval_together_needs_shared_harmonics(self):
        other = PeriodicSignal(TWO_PI, ((2, 1.0, 0.0),))
        with pytest.raises(ValueError):
            eval_together((self.PHI, other), np.zeros(3))

    def test_degeneracy_check_reads_a_min(self):
        # the transform degenerates from mu = -1/min(a) on, min(a) polished
        # from the critical points of a; the check meets that threshold to
        # 2 eps, where the min over 2n samples of the --grid fell 1e-7 short
        lin = make_lin(self.PHI)
        tr = build_transform(lin, GRID)
        mu_star = -1.0 / polished_extrema(tr.a.harmonics)[0]
        build_u2_u3(lin, tr, mu_star * (1.0 - 2.0 ** -51))
        with pytest.raises(ValueError, match="transform degenerates"):
            build_u2_u3(lin, tr, mu_star * (1.0 + 2.0 ** -51))


class TestU1:
    def test_pendulum(self):
        lin = make_lin(beta_hat=-0.25, alpha=0.1)
        tr = build_transform(lin, GRID)
        assert mean_phi_a(lin, tr) == pytest.approx(0.5, abs=1e-12)
        u1 = build_u1(lin, tr)
        np.testing.assert_allclose(u1, [[0.0, 1.0], [-0.25, -0.1]], atol=1e-12)

    def test_no_vibration_not_hurwitz(self):
        lin = make_lin(phi_hat=PeriodicSignal(TWO_PI, ()), beta_hat=-1.0, alpha=1.0)
        tr = build_transform(lin, GRID)
        u1 = build_u1(lin, tr)
        np.testing.assert_allclose(u1, [[0.0, 1.0], [1.0, -1.0]], atol=1e-15)
        assert not u1_is_hurwitz(u1)

    def test_near_threshold(self):
        lin = make_lin(beta_hat=-0.49, alpha=0.2)
        tr = build_transform(lin, GRID)
        np.testing.assert_allclose(
            build_u1(lin, tr), [[0.0, 1.0], [-0.01, -0.2]], atol=1e-12
        )


class TestHurwitz:
    def test_stable(self):
        assert u1_is_hurwitz(np.array([[0.0, 1.0], [-0.25, -0.1]]))

    def test_negative_det(self):
        assert not u1_is_hurwitz(np.array([[0.0, 1.0], [1.0, -1.0]]))

    def test_marginal_det_zero(self):
        assert not u1_is_hurwitz(np.array([[0.0, 1.0], [0.0, -1.0]]))


class TestBogolyubov:
    def test_pendulum_values(self):
        res = bogolyubov_condition(make_lin(beta_hat=-0.25), GRID)
        assert res.lhs == pytest.approx(1.5, abs=1e-9)
        assert res.rhs == pytest.approx(1.25, abs=1e-9)
        assert res.holds

    def test_threshold_flip(self):
        below = bogolyubov_condition(make_lin(beta_hat=-0.499999), GRID)
        above = bogolyubov_condition(make_lin(beta_hat=-0.500001), GRID)
        assert below.holds and not above.holds

    def test_zero_forcing(self):
        res = bogolyubov_condition(
            make_lin(phi_hat=PeriodicSignal(TWO_PI, ()), beta_hat=-1.0), GRID
        )
        assert res.lhs == 0.0
        assert res.rhs == pytest.approx(1.0, abs=1e-12)
        assert not res.holds

    def test_amplified_forcing(self):
        res = bogolyubov_condition(
            make_lin(phi_hat=PeriodicSignal(TWO_PI, ((1, 0.0, 2.0),)), beta_hat=-1.0),
            GRID,
        )
        assert res.lhs == pytest.approx(6.0, abs=1e-8)
        assert res.rhs == pytest.approx(5.0, abs=1e-8)
        assert res.holds

    @given(
        signal_strategy(max_k=1024),
        st.floats(-3.0, -0.01, allow_nan=False),
        st.floats(0.01, 3.0, allow_nan=False),
        st.integers(8, 2048).map(lambda half: 2 * half),
    )
    @settings(max_examples=40, deadline=None)
    def test_equivalent_to_averaged_determinant(self, phi_hat, beta_hat, alpha, n_points):
        # the condition is det U1 > 0 in disguise, at every harmonic and on
        # every grid: the test and the Hurwitz check on U1 agree exactly
        grid = QuadratureGrid(TWO_PI, n_points)
        lin = make_lin(phi_hat=phi_hat, beta_hat=beta_hat, alpha=alpha)
        res = bogolyubov_condition(lin, grid)
        tr = build_transform(lin, grid)
        u1 = build_u1(lin, tr)
        det = np.linalg.det(u1)
        assert (res.lhs - res.rhs) == pytest.approx(det, abs=1e-8)
        assert res.holds == u1_is_hurwitz(u1)

    @given(signal_strategy(max_k=5), st.floats(-3.0, -0.25, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_closed_forms_match_simpson(self, phi_hat, beta_hat):
        # Simpson on 4096 panels as an independent oracle: exact to roundoff
        # for the periodic integrands at k <= 5, O(h^4) for tau * phi_hat
        grid = QuadratureGrid(TWO_PI, 4096)
        lin = make_lin(phi_hat=phi_hat, beta_hat=beta_hat)
        tr = build_transform(lin, grid)
        res = bogolyubov_condition(lin, grid)
        B = tr.b.scaled(-1.0)
        b0 = B.eval(0.0)
        lhs = integrate(lambda t: (B.eval(t) - b0) ** 2, 0.0, TWO_PI, grid) / TWO_PI
        m1 = integrate(lambda t: t * phi_hat.eval(t), 0.0, TWO_PI, grid) / TWO_PI
        m = integrate(lambda t: phi_hat.eval(t) * tr.a.eval(t), 0.0, TWO_PI, grid) / TWO_PI
        # the absolute floor only covers squares of amplitudes that underflow
        close = dict(rel=1e-9, abs=1e-300)
        assert mean_phi_a(lin, tr) == pytest.approx(m, **close)
        assert res.lhs == pytest.approx(lhs, **close)
        assert res.rhs == pytest.approx(m1 * m1 - beta_hat, **close)


class TestTransformedSystem:
    def test_u2_small_mu_limit(self):
        lin = make_lin(alpha=0.1)
        tr = build_transform(lin, GRID)
        ts = build_u2_u3(lin, tr, 1e-9)
        for t in (0.0, 0.7, 2.5, 5.1):
            u2 = ts.u2_at(t)
            expect = np.array(
                [
                    [0.0, 0.0],
                    [
                        -0.1 * math.cos(t) - math.sin(t) ** 2 + 0.5,
                        -math.cos(t),
                    ],
                ]
            )
            np.testing.assert_allclose(u2, expect, atol=1e-8)

    def test_u3_vanishes_where_a_does(self):
        lin = make_lin()
        tr = build_transform(lin, GRID)
        ts = build_u2_u3(lin, tr, 0.01)
        np.testing.assert_allclose(ts.u3_at(0.0), np.zeros((2, 2)), atol=1e-14)

    def test_u3_zero_first_column(self):
        lin = make_lin()
        ts = build_u2_u3(lin, build_transform(lin, GRID), 0.01)
        u3 = ts.u3_at(GRID.nodes)
        assert np.all(u3[:, :, 0] == 0.0)

    def test_zero_forcing_u2_u3_vanish(self):
        lin = make_lin(phi_hat=PeriodicSignal(TWO_PI, ()), beta_hat=-1.0)
        ts = build_u2_u3(lin, build_transform(lin, GRID), 0.1)
        nodes = GRID.nodes
        assert np.max(np.abs(ts.u2_at(nodes))) == 0.0
        assert np.max(np.abs(ts.u3_at(nodes))) == 0.0

    @pytest.mark.parametrize("frac", [0.1, 0.5, 1.0])
    def test_u2_has_zero_average(self, frac):
        lin = make_lin()
        tr = build_transform(lin, GRID)
        mu_bar = 1.0 / (1.0 * TWO_PI ** 2)
        ts = build_u2_u3(lin, tr, frac * mu_bar)
        u2 = ts.u2_at(GRID.nodes)
        h = GRID.step
        w = np.ones(GRID.n_points + 1)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        total = np.tensordot(w, u2, axes=(0, 0)) * h / 3.0
        assert np.max(np.abs(total)) < 1e-8

    def test_degenerate_transform_rejected(self):
        lin = make_lin()
        tr = build_transform(lin, GRID)
        with pytest.raises(ValueError):
            build_u2_u3(lin, tr, 2.0)  # 1 + mu*a crosses zero


class TestTransformConsistency:
    def test_v_and_u_flows_agree(self):
        # propagate the original system and the transformed one from matched
        # initial data over 5 periods; mapping u through S(t) must reproduce v
        from mathieu_cert.floquet_lyapunov import deviation_matrizant
        from mathieu_cert.model import system_matrix_entries

        lin = make_lin()
        tr = build_transform(lin, GRID)
        mu = 0.01
        ts = build_u2_u3(lin, tr, mu)

        v0 = np.array([1.0, 0.3 * mu])
        u0 = np.linalg.solve(s_matrix(tr, mu, 0.0), v0)
        t_end, n_steps = 5 * TWO_PI, 5 * 4096
        times, Zv = deviation_matrizant(system_matrix_entries(lin, mu), t_end, n_steps)
        _, Zu = deviation_matrizant(
            lambda t: mu * (ts.u1 + ts.u2_at(t) + mu ** 2 * ts.u3_at(t)), t_end, n_steps
        )
        rec = slice(None, None, 128)
        v = v0 + Zv[rec] @ v0
        u = u0 + Zu[rec] @ u0
        mapped = np.einsum("nij,nj->ni", s_matrix(tr, mu, times[rec]), u)
        assert np.max(np.abs(mapped - v)) < 1e-6
