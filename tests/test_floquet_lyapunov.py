import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_continuous_lyapunov, solve_discrete_lyapunov
from scipy.optimize import brentq
from scipy.special import mathieu_a, mathieu_b

from mathieu_cert import floquet_lyapunov
from mathieu_cert.floquet_lyapunov import (
    PeriodicLyapunovSolution,
    UnstableSystemError,
    _floquet_gap,
    _solve_discrete_lyapunov_deviation,
    _z_generator,
    bvp_residual,
    deviation_matrizant,
    matrizant,
    solve_constant_lyapunov,
    solve_periodic_lyapunov_scaled,
    spectral_norm_2x2,
    spectral_radius_from_deviation,
    spectral_radius_linear_system,
    sym_eig_bounds,
)
from mathieu_cert.averaging import bogolyubov_condition, build_transform, build_u1, build_u2_u3
from mathieu_cert.model import LinearizedSystem, matrices_2x2, system_matrix, system_matrix_entries
from mathieu_cert.periodic_signal import (
    PeriodicSignal,
    QuadratureGrid,
    cumulative_simpson,
    half_step_grid,
)
from mathieu_cert.robustness import Perturbation, decay_envelope
from mathieu_cert.simulate import integrate_batch, verify_envelope

from conftest import TWO_PI
from oracles import hill_exponents, linear_system, solve_periodic_lyapunov, stein_solution_mp, truncated_lyapunov_sum

SIN = PeriodicSignal(TWO_PI, ((1, 0.0, 1.0),))
# zero or within six decades of the scale, so that no product underflows;
# up to 4, so that Z reaches multipliers beyond -1
JURY_ENTRY = st.one_of(st.just(0.0), st.floats(1e-6, 4.0), st.floats(-4.0, -1e-6))


def companion(k, alpha):
    return np.array([[0.0, 1.0], [-k, -alpha]])


def h1_closed_form(k, alpha):
    return np.array(
        [
            [(alpha ** 2 + k + k ** 2) / (2 * alpha * k), 1.0 / (2 * k)],
            [1.0 / (2 * k), (1.0 + k) / (2 * alpha * k)],
        ]
    )


def liouville_log_det(z):
    """log det(I + z) = log1p(tr z + det z), from z at its own scale."""
    return math.log1p(z[0, 0] + z[1, 1] + z[0, 0] * z[1, 1] - z[0, 1] * z[1, 0])


def radius(m):
    """rho(M) from M - I and log det M; the log is read only for a complex
    pair, where det M > 0."""
    det = np.linalg.det(m)
    log_det = math.log(det) if det > 0.0 else -math.inf
    return spectral_radius_from_deviation(np.asarray(m) - np.eye(2), log_det)


def sequential_rk4_deviation(W, T, n):
    """Step-by-step classical RK4 for Z' = W(t)(I + Z), Z(0) = 0: the loop
    that the step-matrix scan replaced, kept as its reference.  W is read
    at each step's own times t_i, t_i + h/2 and t_i + h."""
    h = T / n
    t = np.arange(n) * h
    w0, wm, w1 = (np.broadcast_to(W(x), (n, 2, 2)) for x in (t, t + 0.5 * h, t + h))
    eye = np.eye(2)
    z = np.zeros((2, 2))
    out = [z]
    for i in range(n):
        k1 = w0[i] @ (eye + z)
        k2 = wm[i] @ (eye + z + 0.5 * h * k1)
        k3 = wm[i] @ (eye + z + 0.5 * h * k2)
        k4 = w1[i] @ (eye + z + h * k3)
        z = z + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        out.append(z)
    return np.array(out)


def tail_integral_reference(Z, C, step):
    """Node values of the tail-integral solution of H' + HW + W^T H = -C in
    the matrix form that the entry arithmetic replaced, kept as its
    reference: einsum Y^T C Y for a (2, 2) or per-node (n + 1, 2, 2) weight,
    an explicit inverse, L^T M L, then symmetrize."""
    Y = Z + np.eye(2)
    G = cumulative_simpson(np.einsum("...ji,...jk,...kl->...il", Y, C, Y), step)
    X = _solve_discrete_lyapunov_deviation(Z[-1], G[-1])
    L = np.linalg.inv(Y)
    H = np.einsum("nji,njk,nkl->nil", L, X[None] - G, L)
    return 0.5 * (H + np.transpose(H, (0, 2, 1)))


def assert_nodes_match(got, ref, rtol):
    """Per-node agreement relative to each reference node's largest entry."""
    scale = np.max(np.abs(ref), axis=(1, 2))
    assert np.all(np.max(np.abs(got - ref), axis=(1, 2)) <= rtol * scale)


def perturbation_matrix(mu, pert, t):
    """dA(t) = A_pert - A of the direct system, shape (m, 2, 2); zero without ``pert``."""
    if pert is None:
        return np.zeros(np.shape(t) + (2, 2))
    d21 = -(pert.d_beta_hat * mu * mu + mu * pert.d_phi_hat_eval(t))
    return matrices_2x2(0.0, 0.0, d21, -pert.d_alpha * mu * np.ones_like(t))


def direct_generator(lin, mu, pert=None):
    """A + dA of v' = (A + dA) v as a callable of times of shape (m,)."""
    return lambda t: system_matrix(lin, mu, lin.phi_hat.eval(t)) + perturbation_matrix(mu, pert, t)


def z_generator_matrix_form(lin, tr, mu, pert=None):
    """T^{-1}(A T - T') + T^{-1} dA T for v = T z, as a callable of times of
    shape (m,): the matrix form that ``_z_generator`` writes out, kept as its
    oracle, with T = [[1, 0], [mu b, mu]] and T' = [[0, 0], [-mu phi_hat, 0]]."""
    def W(t):
        A = system_matrix(lin, mu, lin.phi_hat.eval(t))
        T = matrices_2x2(1.0, 0.0, mu * tr.b.eval(t), mu * np.ones_like(t))
        dT = matrices_2x2(0.0, 0.0, -mu * lin.phi_hat.eval(t), np.zeros_like(t))
        T_inv = np.linalg.inv(T)
        return T_inv @ (A @ T - dT) + T_inv @ perturbation_matrix(mu, pert, t) @ T

    return W


class TestMatrizant:
    def test_zero_matrix(self):
        _, Y = matrizant(lambda t: np.zeros(np.shape(t) + (2, 2)), 1.0, 64)
        np.testing.assert_array_equal(Y[-1], np.eye(2))

    def test_full_rotation(self):
        _, Y = matrizant(lambda t: np.array([[0.0, 1.0], [-1.0, 0.0]]), TWO_PI, 4096)
        np.testing.assert_allclose(Y[-1], np.eye(2), atol=1e-8)

    def test_decoupled_exponentials(self):
        _, Y = matrizant(lambda t: np.diag([-1.0, -2.0]), 1.0, 4096)
        np.testing.assert_allclose(
            Y[-1], np.diag([math.exp(-1.0), math.exp(-2.0)]), atol=1e-10
        )

    def test_accepts_array_callable(self):
        _, Y = matrizant(lambda t: np.array([[-1.0, 0.0], [0.0, -2.0]]), 1.0, 512)
        assert Y[-1, 0, 0] == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_time_dependent_callable(self):
        # Y' = diag(-2t, -1) Y has Y(t) = diag(exp(-t^2), exp(-t))
        def A(t):
            t = np.asarray(t, dtype=float)
            out = np.zeros(t.shape + (2, 2))
            out[..., 0, 0] = -2.0 * t
            out[..., 1, 1] = -1.0
            return out

        times, Y = matrizant(A, 1.0, 512)
        np.testing.assert_allclose(Y[:, 0, 0], np.exp(-times ** 2), atol=1e-10)
        np.testing.assert_allclose(Y[:, 1, 1], np.exp(-times), atol=1e-10)
        assert np.all(Y[:, 0, 1] == 0.0) and np.all(Y[:, 1, 0] == 0.0)

    @pytest.mark.parametrize(
        "z_coords,mu", [(True, 1e-3), (False, 1e-3), (False, 1.0), (True, 1.0)]
    )
    def test_scan_matches_sequential_steps(self, pendulum_model, lin, transform, z_coords, mu):
        # roundoff only: the scan reassociates the same step products.  1000
        # steps leave the last scan pass partial.  In the coordinates
        # z = (y, y'/mu - b y), which the radius propagates at every mu, its
        # own half-step samples must match as well.
        pert = Perturbation.for_model(
            pendulum_model, d_alpha=0.02, d_beta=-0.05,
            d_phi=PeriodicSignal(TWO_PI, ((2, 0.1, -0.05),)),
        )
        for n in (64, 1000, 4096):
            for p in (None, pert):
                if z_coords:
                    Wp = z_generator_matrix_form(lin, transform, mu, p)
                else:
                    Wp = direct_generator(lin, mu, p)
                ref = sequential_rk4_deviation(Wp, TWO_PI, n)
                atol = 1e-13 * np.max(np.abs(ref))
                _, z = deviation_matrizant(Wp, TWO_PI, n)
                np.testing.assert_allclose(z, ref, rtol=0.0, atol=atol)
                if z_coords:
                    _, z = deviation_matrizant(_z_generator(lin, transform, mu, n, p), TWO_PI, n)
                    np.testing.assert_allclose(z, ref, rtol=0.0, atol=atol)

    @pytest.mark.parametrize("scale", [1e-8, 1.0])
    @pytest.mark.parametrize("n", [64, 65, 100, 1000, 4095, 4096, 4097])
    def test_final_only_is_the_scans_last_entry(self, n, scale):
        # the reduction pairs blocks from the right end, which is the tree of
        # the scan's last entry for every n; pairing from the left differs
        # from the scan except at powers of two
        W = scale * np.random.default_rng(n).standard_normal((2 * n + 1, 2, 2))
        times, Z = deviation_matrizant(W, TWO_PI, n, final_only=True)
        _, Z_scan = deviation_matrizant(W, TWO_PI, n)
        assert times.tolist() == [0.0, TWO_PI]
        assert Z.shape == (2, 2, 2) and not np.any(Z[0])
        assert Z[-1].tobytes() == Z_scan[-1].tobytes()

    def test_min_steps(self):
        with pytest.raises(ValueError):
            matrizant(lambda t: np.zeros((2, 2)), 1.0, 32)

    def test_liouville(self):
        # det Y(t) = exp(int trace A); trace is -alpha*mu here
        lin = LinearizedSystem(alpha=0.3, beta_hat=-0.25, phi_hat=SIN, period=TWO_PI)
        mu = 0.05
        times, Y = matrizant(system_matrix_entries(lin, mu), TWO_PI, 4096)
        dets = np.linalg.det(Y)
        np.testing.assert_allclose(dets, np.exp(-0.3 * mu * times), atol=1e-8)

    @pytest.mark.parametrize("mu", [1e-12, 1e-9, 1e-6, 1e-3, 0.05, 0.3, 1.0])
    def test_liouville_log_det_of_deviation(self, mu):
        # the radius takes det Y(T) = exp(-alpha*mu*T) from Liouville; the
        # scan's own determinant, read at the scale of Z, must agree for the
        # direct system and, since S is periodic, for the averaged mu*U
        lin = LinearizedSystem(alpha=0.3, beta_hat=-0.25, phi_hat=SIN, period=TWO_PI)
        systems = [system_matrix_entries(lin, mu)]
        try:
            ts = build_u2_u3(lin, build_transform(lin, QuadratureGrid(TWO_PI, 2048)), mu)
            systems.append(lambda t: mu * (ts.u1 + ts.u2_at(t) + mu ** 2 * ts.u3_at(t)))
        except ValueError:  # the averaging transform degenerates at mu = 1
            assert mu > 0.3
        for W in systems:
            _, z = deviation_matrizant(W, TWO_PI, 4096)
            assert liouville_log_det(z[-1]) == pytest.approx(-0.3 * mu * TWO_PI, rel=1e-12)


class TestSpectralRadius:
    def test_identity(self):
        _, z = deviation_matrizant(lambda t: np.zeros((2, 2)), 1.0, 64)
        assert spectral_radius_from_deviation(z[-1], 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert radius(np.diag([math.exp(-1.0), math.exp(-2.0)])) == pytest.approx(
            math.exp(-1.0), rel=1e-12
        )

    def test_complex_pair(self):
        assert radius(np.array([[0.0, 1.0], [-0.25, 0.0]])) == 0.5

    def test_defective(self):
        assert radius(np.array([[1.0, 1.0], [0.0, 1.0]])) == pytest.approx(1.0, rel=1e-9)

    def test_nilpotent(self):
        assert radius(np.array([[0.0, 1.0], [0.0, 0.0]])) == 0.0

    @pytest.mark.parametrize("decay", [1e-6, 1e-9, 1e-12])
    def test_near_unit_circle(self, decay):
        # slow rotation with tiny decay: the eigenvalues of M cannot separate
        # this pair, but the discriminant of M - I shows it complex and
        # log det M gives its modulus
        th = 1e-7
        r = 1.0 - decay
        m = r * np.array(
            [[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]]
        )
        assert radius(m) == pytest.approx(r, abs=1e-13)

    def test_skewed_similarity(self):
        th, decay = 3e-8, 1e-9
        r = 1.0 - decay
        rot = r * np.array(
            [[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]]
        )
        p = np.diag([1.0, 1e-5])
        m = p @ rot @ np.linalg.inv(p)
        assert radius(m) == pytest.approx(r, abs=1e-11)

    def test_matches_eigvals_when_separated(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            m = rng.normal(size=(2, 2))
            expect = float(np.max(np.abs(np.linalg.eigvals(m))))
            assert radius(m) == pytest.approx(expect, rel=1e-9, abs=1e-12)

    def test_deviation_radius_matches(self):
        rng = np.random.default_rng(3)
        for scale in (1e-3, 1e-8, 1e-12):
            z = scale * rng.normal(size=(2, 2))
            expect = float(np.max(np.abs(np.linalg.eigvals(np.eye(2) + z))))
            got = spectral_radius_from_deviation(z, liouville_log_det(z))
            # eigvals of I+z loses precision below ~1e-8; ours should agree
            # at the resolution eigvals still has
            assert got == pytest.approx(expect, abs=1e-8)

    @given(st.lists(JURY_ENTRY, min_size=4, max_size=4), st.floats(-12.0, 0.0))
    @settings(max_examples=300, deadline=None)
    def test_gap_sign_is_jury_test(self, entries, log_scale):
        # I + Z is Schur stable iff |det M| < 1 and |tr M| < 1 + det M; in
        # terms of Z alone that is det Z > 0, tr Z + det Z < 0 and
        # 4 + 2 tr Z + det Z > 0, with no Liouville input.  A condition
        # within roundoff of its own terms has no sign to compare against.
        z = 10.0 ** log_scale * np.array(entries).reshape(2, 2)
        z11, z12, z21, z22 = z.flat
        tr, det = z11 + z22, z11 * z22 - z12 * z21
        prods = abs(z11 * z22) + abs(z12 * z21)
        jury = [
            (det, prods),
            (-(tr + det), abs(z11) + abs(z22) + prods),
            (4.0 + 2.0 * tr + det, 4.0 + 2.0 * (abs(z11) + abs(z22)) + prods),
        ]
        assume(all(abs(q) > 1e-15 * terms for q, terms in jury))
        log_det = math.log1p(tr + det) if tr + det > -1.0 else -math.inf
        assert (_floquet_gap(z, log_det) > 0.0) == all(q > 0.0 for q, _ in jury)

    @pytest.mark.parametrize("exponent", [-600, -1000])
    def test_gap_of_a_tiny_deviation(self, exponent):
        # Z is of order mu, and at mu = 1e-163 the products of its entries
        # underflow: the complex pair below read as real and the real pair's
        # gap as 0.  The gap of 2^e Z is 2^e times the gap of Z for a real
        # pair, and the Liouville value for a complex one.
        real = np.array([[-0.2, 0.05], [0.025, -0.3]])
        got = _floquet_gap(np.ldexp(real, exponent), 0.0)
        assert got == math.ldexp(_floquet_gap(real, 0.0), exponent) > 0.0
        log_det = math.ldexp(-0.2, exponent)
        complex_pair = np.ldexp(np.array([[-0.1, 1.0], [-1.0, -0.1]]), exponent)
        assert _floquet_gap(complex_pair, log_det) == -math.expm1(0.5 * log_det) > 0.0

    @pytest.mark.filterwarnings("error")
    def test_overflowing_propagation_is_refused(self):
        # b ~ 1e20 puts entries of order 1e32 into A_z at mu = 1e-8; the scan
        # overflowed to a NaN radius, with numpy warnings on stderr
        phi = PeriodicSignal(TWO_PI, ((1, 0.0, -1e20),))
        lin = LinearizedSystem(alpha=0.1, beta_hat=-0.25, phi_hat=phi, period=TWO_PI)
        tr = build_transform(lin, QuadratureGrid(TWO_PI, 2048))
        message = "overflows at mu=1e-08 with 1024 steps per period"
        with pytest.raises(ArithmeticError, match=message):
            spectral_radius_linear_system(lin, tr, 1e-8, 1024)
        with pytest.raises(ArithmeticError, match=message):
            solve_periodic_lyapunov_scaled(lin, tr, 1e-8, 1024)


class TestZGenerator:
    @pytest.mark.parametrize("perturbed", [False, True])
    @pytest.mark.parametrize("mu", [None, 0.01, 3.0])
    def test_matches_matrix_form(self, pendulum_model, lin, transform, chain, mu, perturbed):
        # the written-out A_z against T^{-1}(A T - T') + T^{-1} dA T at the
        # half-step samples.  The matrix form cancels the terms mu*phi_hat of
        # A T and T' before T^{-1} divides by mu, so its own roundoff is a few
        # eps*|phi_hat| at every mu; that is 2e-9 of the entries at mu0/2
        mu = chain.mu0 / 2.0 if mu is None else mu
        pert = None
        if perturbed:
            pert = Perturbation.for_model(
                pendulum_model, d_alpha=0.02, d_beta=-0.05,
                d_phi=PeriodicSignal(TWO_PI, ((2, 0.1, -0.05),)), d_phi_offset=0.03,
            )
        n = 512
        t = half_step_grid(TWO_PI, n)
        got = _z_generator(lin, transform, mu, n, pert)
        ref = z_generator_matrix_form(lin, transform, mu, pert)(t)
        scale = np.max(np.abs(ref), axis=(1, 2))
        roundoff = 4.0 * np.finfo(float).eps * np.abs(lin.phi_hat.eval(t))
        assert np.all(np.max(np.abs(got - ref), axis=(1, 2)) <= 1e-13 * scale + roundoff)
        da = 0.0 if pert is None else pert.d_alpha
        trace = got[:, 0, 0] + got[:, 1, 1]
        np.testing.assert_allclose(trace, -(lin.alpha + da) * mu, rtol=1e-13)
        if pert is None:
            # 2n equispaced samples of a trigonometric polynomial of degree
            # below 2n average to its mean
            mean = np.mean(got[:-1], axis=0)
            np.testing.assert_allclose(mean, mu * build_u1(lin, transform), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("mu", [0.0, -1e-3, math.nan, math.inf])
    def test_refuses_mu_outside_the_open_half_line(self, lin, transform, mu):
        with pytest.raises(ValueError, match="mu must be positive and finite"):
            spectral_radius_linear_system(lin, transform, mu, 512)
        with pytest.raises(ValueError, match="mu must be positive and finite"):
            solve_periodic_lyapunov_scaled(lin, transform, mu, 512)

    def test_scaled_solve_past_averaging_degeneracy(self):
        # 1 + mu*a(t) vanishes at mu = 1/max(-a) = 0.5 here, which the z
        # coordinates do not notice; a stable Mathieu band lies beyond it
        lin = LinearizedSystem(
            alpha=1.0, beta_hat=-1.2, phi_hat=PeriodicSignal(TWO_PI, ((1, 0.0, 2.0),)),
            period=TWO_PI,
        )
        tr = build_transform(lin, QuadratureGrid(TWO_PI, 2048))
        mu = 0.55
        with pytest.raises(ValueError):
            build_u2_u3(lin, tr, mu)
        scaled = solve_periodic_lyapunov_scaled(lin, tr, mu, 4096)
        direct = solve_periodic_lyapunov(system_matrix_entries(lin, mu), TWO_PI, 4096, mu=mu)
        assert scaled.spectral_radius == pytest.approx(direct.spectral_radius, rel=1e-12)
        assert scaled.h_min == pytest.approx(direct.h_min, rel=1e-6)
        assert scaled.h_max == pytest.approx(direct.h_max, rel=1e-6)
        rel = np.linalg.norm(direct.H[0] - scaled.H[0]) / np.linalg.norm(scaled.H[0])
        assert rel < 1e-6


class TestSymEigBounds:
    @pytest.mark.parametrize(
        "h11,h12,h22", [(-1.0, 0.0, 1e-12), (-1.0, 3e-7, 3e-13), (1e-12, 0.0, -1.0)]
    )
    def test_indefinite_matches_eigvalsh(self, h11, h12, h22):
        # the eigenvalue of larger modulus is negative here; recovering the
        # negative one from the determinant lost 3e-5 of it
        ref = np.linalg.eigvalsh(np.array([[h11, h12], [h12, h22]]))
        np.testing.assert_allclose(sym_eig_bounds(h11, h12, h22), ref, rtol=1e-12)

    def test_caller_determinant_is_used(self):
        assert sym_eig_bounds(-1.0, 0.0, 1e-12, det=-2e-12) == (-1.0, 2e-12)
        assert sym_eig_bounds(1.0, 0.0, 1e-12, det=2e-12) == (2e-12, 1.0)

    def test_positive_definite_nodes_unchanged(self, sol_small_mu):
        # positive trace keeps lambda_max = (tr + root)/2 and
        # lambda_min = det/lambda_max, so certificate values are bit for bit
        sol = sol_small_mu
        h11, h12, h22 = sol.H[:, 0, 0], sol.H[:, 0, 1], sol.H[:, 1, 1]
        hu = sol.H_z
        det = (hu[:, 0, 0] * hu[:, 1, 1] - hu[:, 0, 1] ** 2) / sol.mu ** 2
        lmax = 0.5 * ((h11 + h22) + np.hypot(h11 - h22, 2.0 * h12))
        lmin, got_max = sym_eig_bounds(h11, h12, h22, det=det)
        assert np.array_equal(got_max, lmax) and np.array_equal(lmin, det / lmax)
        assert np.array_equal(sol.hmin_nodes, det / lmax)
        assert np.array_equal(sol.hnorm_nodes, lmax)


class TestConstantLyapunov:
    def test_reference_case(self):
        h = solve_constant_lyapunov(companion(1.0, 2.0))
        np.testing.assert_allclose(h, [[1.5, 0.5], [0.5, 0.5]], atol=1e-14)

    def test_pendulum_case(self):
        h = solve_constant_lyapunov(companion(0.25, 0.1))
        np.testing.assert_allclose(h, [[6.45, 2.0], [2.0, 25.0]], atol=1e-12)

    def test_minus_identity(self):
        np.testing.assert_allclose(
            solve_constant_lyapunov(-np.eye(2)), 0.5 * np.eye(2), atol=1e-15
        )

    @pytest.mark.parametrize("k,alpha", [(0.25, 0.1), (0.4, 0.05), (0.1, 2.0)])
    def test_companion_closed_form(self, k, alpha):
        h = solve_constant_lyapunov(companion(k, alpha))
        np.testing.assert_allclose(h, h1_closed_form(k, alpha), rtol=1e-12)

    def test_residual_small(self):
        u1 = companion(0.25, 0.1)
        h = solve_constant_lyapunov(u1)
        res = h @ u1 + u1.T @ h + np.eye(2)
        assert spectral_norm_2x2(res) < 1e-12

    def test_against_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = rng.normal(size=(2, 2))
            tr, det = m[0, 0] + m[1, 1], np.linalg.det(m)
            if not (tr < -1e-3 and det > 1e-3):
                continue
            mine = solve_constant_lyapunov(m)
            ref = solve_continuous_lyapunov(m.T, -np.eye(2))
            np.testing.assert_allclose(mine, ref, rtol=1e-8, atol=1e-10)

    def test_non_hurwitz_rejected(self):
        with pytest.raises(ValueError):
            solve_constant_lyapunov(np.array([[0.0, 1.0], [1.0, -1.0]]))


class TestDiscreteLyapunov:
    def test_nilpotent_monodromy(self):
        q = np.array([[2.0, 0.3], [0.3, 1.0]])
        np.testing.assert_allclose(
            _solve_discrete_lyapunov_deviation(-np.eye(2), q), q, atol=1e-15
        )

    def test_half_identity(self):
        x = _solve_discrete_lyapunov_deviation(-0.5 * np.eye(2), np.eye(2))
        np.testing.assert_allclose(x, (4.0 / 3.0) * np.eye(2), atol=1e-14)

    def test_against_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            m = 0.9 * rng.normal(size=(2, 2)) / 2
            q0 = rng.normal(size=(2, 2))
            q = q0 @ q0.T + 0.1 * np.eye(2)
            mine = _solve_discrete_lyapunov_deviation(m - np.eye(2), q)
            ref = solve_discrete_lyapunov(m.T, q)
            np.testing.assert_allclose(mine, ref, rtol=1e-9, atol=1e-10)

    def test_truncated_sum_matches_direct(self):
        m = np.array([[0.3, 0.5], [-0.2, 0.4]])
        q = np.array([[1.0, 0.2], [0.2, 2.0]])
        direct = sum(
            np.linalg.matrix_power(m.T, k) @ q @ np.linalg.matrix_power(m, k)
            for k in range(8)
        )
        np.testing.assert_allclose(truncated_lyapunov_sum(m, q, 3), direct, rtol=1e-13)

    # normal draws (Python random, seed 7) rounded to two decimals; at these
    # mu their scaled solves pose Stein steps that refinement in double
    # instead of longdouble solves up to 3.3e-15 off
    STEIN_FORCINGS = [
        ((1, 0.95, -0.32), (2, 1.77, 0.55), (3, 1.1, 0.74)),
        ((1, 1.2, 0.47), (2, 1.34, -0.46), (3, -0.31, -0.18), (4, -0.27, -0.16)),
        ((1, -1.16, -0.55),),
    ]

    def test_against_a_50_digit_solve(self, lin, transform, chain, monkeypatch):
        # on the (Z, Q) pairs that scaled solves pose, the extended-precision
        # refinement lands within 9.5e-17 of the largest entry of the 50-digit
        # solution (measured); refining in double reached 3.3e-15 on them and
        # passed the bound on three random pairs, and no refinement 5.0e-15
        pairs = []

        def record(Z, Q):
            pairs.append((np.array(Z), np.array(Q)))
            return _solve_discrete_lyapunov_deviation(Z, Q)

        monkeypatch.setattr(floquet_lyapunov, "_solve_discrete_lyapunov_deviation", record)
        for mu in (chain.mu0 / 2.0, chain.mu0):
            solve_periodic_lyapunov_scaled(lin, transform, mu, 4096)
        for harmonics in self.STEIN_FORCINGS:
            rlin = LinearizedSystem(0.1, -0.25, PeriodicSignal(TWO_PI, harmonics), TWO_PI)
            rtr = build_transform(rlin, QuadratureGrid(TWO_PI, 2048))
            for mu in (0.05, 0.3):
                solve_periodic_lyapunov_scaled(rlin, rtr, mu, 4096)
        assert len(pairs) == 8
        for Z, Q in pairs:
            x = _solve_discrete_lyapunov_deviation(Z, Q)
            ref = stein_solution_mp(Z, Q)
            scale = max(abs(r) for r in ref)
            err = max(abs(float(a) - r) for a, r in zip((x[0, 0], x[0, 1], x[1, 1]), ref))
            assert err <= 2.5e-16 * scale, (err / scale, Z, Q)


class TestPeriodicLyapunov:
    def test_constant_contraction(self):
        sol = solve_periodic_lyapunov(lambda t: -np.eye(2), 1.0, 1024)
        assert np.max(np.abs(sol.H - 0.5 * np.eye(2))) < 1e-8
        assert sol.h_min == pytest.approx(0.5, abs=1e-8)
        assert sol.h_max == pytest.approx(0.5, abs=1e-8)
        assert bvp_residual(sol, lambda t: -np.eye(2)) < 1e-6
        assert np.max(np.abs(sol.H[0] - sol.H[-1])) < 1e-8

    def test_unstable_rejected(self):
        with pytest.raises(UnstableSystemError):
            solve_periodic_lyapunov(lambda t: np.array([[0.0, 1.0], [1.0, -0.1]]), TWO_PI, 512)

    def test_marginal_rejected(self):
        # RK4 damps this rotation by about 1e-11 per period, but the pair is
        # complex and Liouville gives det M = 1 (tr A = 0), so the gap is 0
        with pytest.raises(UnstableSystemError):
            solve_periodic_lyapunov(lambda t: np.array([[0.0, 1.0], [-1.0, 0.0]]), TWO_PI, 512)

    def test_pendulum_moderate_mu(self, lin, transform):
        mu = 0.01
        ent = system_matrix_entries(lin, mu)
        sol = solve_periodic_lyapunov(ent, TWO_PI, 4096, mu=mu)
        assert sol.spectral_radius < 1.0
        assert bvp_residual(sol, ent) < 1e-6
        scaled_gap = np.max(np.abs(sol.H[0] - sol.H[-1])) / (1.0 + sol.h_max)
        assert scaled_gap < 1e-8
        assert sol.h_min > 0.0

    def test_tail_sum_oracle(self, lin):
        # truncated tail-integral representation vs the algebraic solve
        mu = 0.01
        ent = system_matrix_entries(lin, mu)
        sol = solve_periodic_lyapunov(ent, TWO_PI, 4096, mu=mu)
        times, Y = matrizant(ent, TWO_PI, 4096)
        from scipy.integrate import cumulative_simpson

        integrand = np.einsum("nji,njk->nik", Y, Y)
        q = cumulative_simpson(integrand, dx=times[1], axis=0, initial=0.0)[-1]
        doublings = 13  # rho^(2*2^13) well under 1e-10 at this mu
        assert sol.spectral_radius ** (2 * 2 ** doublings) < 1e-10
        oracle = truncated_lyapunov_sum(Y[-1], q, doublings)
        rel = np.linalg.norm(sol.H[0] - oracle) / np.linalg.norm(oracle)
        assert rel < 1e-6

    @pytest.mark.parametrize("mu", [None, 1e-4, 1e-2, 0.05])
    def test_scaled_nodes_match_matrix_form(self, lin, transform, chain, mu):
        # H_z against the matrix-form tail solve on the same propagator and
        # the same weight C_z = T^T T, node by node
        mu = chain.mu0 / 2.0 if mu is None else mu
        sol = solve_periodic_lyapunov_scaled(lin, transform, mu, 4096)
        _, Z = deviation_matrizant(_z_generator(lin, transform, mu, 4096), TWO_PI, 4096)
        b, _ = transform.half_step_samples(4096)
        mb = mu * b[::2]
        Cz = np.empty((4097, 2, 2))
        Cz[:, 0, 0] = 1.0 + mb ** 2
        Cz[:, 0, 1] = Cz[:, 1, 0] = mu * mb
        Cz[:, 1, 1] = mu * mu
        assert_nodes_match(sol.H_z, tail_integral_reference(Z, Cz, sol.step), 1e-13)
        for H in (sol.H, sol.H_z):
            assert np.array_equal(H[:, 0, 1], H[:, 1, 0])

    @pytest.mark.parametrize("mu", [0.01, 0.3])
    def test_direct_nodes_match_matrix_form(self, lin, mu):
        ent = system_matrix_entries(lin, mu)
        sol = solve_periodic_lyapunov(ent, TWO_PI, 4096, mu=mu)
        _, Z = deviation_matrizant(ent, TWO_PI, 4096)
        assert_nodes_match(sol.H, tail_integral_reference(Z, np.eye(2), sol.step), 1e-13)
        assert np.array_equal(sol.H[:, 0, 1], sol.H[:, 1, 0])

    def test_residual_matches_matrix_form(self):
        # a smooth symmetric field that does not solve the problem, so the
        # residual is O(1) rather than at the roundoff floor
        n = 1024
        t = np.arange(n + 1) * (TWO_PI / n)
        h11, h12, h22 = 2.0 + np.sin(t), 0.3 * np.cos(2.0 * t), 1.5 + 0.5 * np.cos(t)
        H = np.moveaxis(np.array([[h11, h12], [h12, h22]]), -1, 0)
        A = np.moveaxis(np.array([
            [0.1 * np.sin(t), 1.0 + 0.2 * np.cos(3.0 * t)],
            [-(1.0 + 0.5 * np.cos(t)), -0.2 + 0.1 * np.sin(2.0 * t)],
        ]), -1, 0)
        hmin, hnorm = sym_eig_bounds(h11, h12, h22)
        sol = PeriodicLyapunovSolution(
            times=t, H=H, mu=math.nan, h_min=float(np.min(hmin)), h_max=float(np.max(hnorm)),
            hmin_nodes=hmin, hnorm_nodes=hnorm, spectral_radius=math.nan,
            H_z=H, b=np.zeros(n + 1), z_scale=1.0,
        )
        dH = (H[2:] - H[:-2]) / (2.0 * sol.step)
        mid_H, mid_A = H[1:-1], A[1:-1]
        R = dH + mid_H @ mid_A + np.transpose(mid_A, (0, 2, 1)) @ mid_H + np.eye(2)
        ref = float(np.max(np.linalg.norm(R, 2, axis=(1, 2)) / (1.0 + hnorm[1:-1])))
        assert ref > 0.1
        assert bvp_residual(sol, A) == pytest.approx(ref, rel=1e-12)

    def test_direct_solve_carries_the_identity_factor(self, lin):
        # the direct solve is the shared core with T = I: H_z is H itself
        sol = solve_periodic_lyapunov(system_matrix_entries(lin, 0.01), TWO_PI, 4096, mu=0.01)
        assert np.array_equal(sol.H, sol.H_z)
        assert np.array_equal(sol.b, np.zeros_like(sol.times))
        assert sol.z_scale == 1.0

    def test_scaled_refuses_an_overflowing_h(self, lin, transform):
        # h_max ~ 2/mu^3 is past double precision; infinite entries give a
        # NaN that a "min <= 0" positivity guard would let through
        with pytest.raises(ArithmeticError, match="overflows double precision at mu=1e-140"):
            solve_periodic_lyapunov_scaled(lin, transform, 1e-140, 4096)

    def test_scaled_refuses_an_overflowing_h_where_z_products_underflow(self, lin, transform):
        # below mu ~ 1e-162 the products of Z's entries underflow; this was
        # refused as "spectral radius 1 is not inside the unit disk"
        with pytest.raises(ArithmeticError, match="overflows double precision at mu=1e-170"):
            solve_periodic_lyapunov_scaled(lin, transform, 1e-170, 4096)

    def test_scaled_route_matches_direct(self, lin, transform, sol_moderate_mu):
        mu = 0.01
        direct = solve_periodic_lyapunov(system_matrix_entries(lin, mu), TWO_PI, 4096, mu=mu)
        scaled = sol_moderate_mu
        assert direct.h_min == pytest.approx(scaled.h_min, rel=1e-6)
        assert direct.h_max == pytest.approx(scaled.h_max, rel=1e-6)
        rel = np.linalg.norm(direct.H[0] - scaled.H[0]) / np.linalg.norm(scaled.H[0])
        assert rel < 1e-6

    def test_scaled_small_mu_wellposed(self, lin, transform, sol_small_mu, chain):
        sol = sol_small_mu
        assert 0.0 < sol.spectral_radius < 1.0
        assert sol.h_min > 0.0 and sol.h_max > sol.h_min
        assert np.all(sol.hmin_nodes > 0.0)
        ent = system_matrix_entries(lin, sol.mu)
        assert bvp_residual(sol, ent) < 1e-6
        scaled_gap = np.max(np.abs(sol.H[0] - sol.H[-1])) / (1.0 + sol.h_max)
        assert scaled_gap < 1e-8

    def test_factored_value_consistent(self, sol_small_mu):
        sol = sol_small_mu
        # along a direction where the direct quadratic form is accurate,
        # the factored evaluation must agree
        v = np.array([1.0, 0.0])
        direct = float(v @ sol.H[0] @ v)
        assert sol.value_at_node(0, v) == pytest.approx(direct, rel=1e-9)
        # and it must stay positive down at the attraction scales
        tiny = np.array([1e-30, -3e-31])
        assert sol.value_at_node(0, tiny) > 0.0

    def test_values_over_a_trajectory_match_row_by_row(self, lin, sol_moderate_mu):
        # one array evaluation over recorded (times, states) equals the
        # per-row form: Python's % and round for the node, then the factored
        # quadratic form, bit for bit
        sol = sol_moderate_mu
        traj = integrate_batch(
            linear_system(lin, sol.mu), np.array([[0.3, -0.2]]), 2.6 * TWO_PI, 4096, 7
        )[0]
        rows = []
        for t, (v0, v1) in zip(traj.times, traj.states):
            i = int(round((float(t) % sol.period) / sol.step)) % sol.n_steps
            w2 = -sol.b[i] * v0 + v1 / sol.z_scale
            hu = sol.H_z[i]
            rows.append(hu[0, 0] * v0 * v0 + 2.0 * hu[0, 1] * v0 * w2 + hu[1, 1] * w2 * w2)
        got = sol.value(traj.times, traj.states)
        assert got.tobytes() == np.array(rows).tobytes()
        assert sol.value(float(traj.times[5]), traj.states[5]) == rows[5]

    def test_lyapunov_derivative_identity(self, lin, sol_moderate_mu):
        # the defining property: d/dt <H(t)v(t), v(t)> = -||v(t)||^2 along
        # solutions; trajectory samples land exactly on the H grid, so the
        # only errors are central differencing and integrator roundoff
        sol = sol_moderate_mu
        system = linear_system(lin, sol.mu)
        stride = 16
        traj = integrate_batch(
            system, np.array([[1.0, 0.002]]), 4 * TWO_PI, sol.n_steps, stride
        )[0]
        psi = np.array(
            [sol.value(float(t), traj.states[i]) for i, t in enumerate(traj.times)]
        )
        dt = traj.times[1] - traj.times[0]
        dpsi = (psi[2:] - psi[:-2]) / (2.0 * dt)
        speed_sq = np.sum(traj.states[1:-1] ** 2, axis=1)
        rel = np.abs(dpsi + speed_sq) / speed_sq
        assert float(np.max(rel)) < 1e-2

    # 1 - rho from the hand-unrolled RK4 loops that the step-matrix scan
    # replaced, at 4096 steps; the scan must reproduce them to 7 digits
    @pytest.mark.parametrize(
        "mu,gap",
        [(None, 2.3275894323e-08), (1e-3, 3.1410992250e-04), (0.05, 1.5585236648e-02)],
    )
    def test_spectral_gap_pinned(self, lin, transform, chain, mu, gap):
        mu = chain.mu0 / 2.0 if mu is None else mu
        rho = spectral_radius_linear_system(lin, transform, mu, 4096)
        assert 1.0 - rho == pytest.approx(gap, rel=5e-8)

    def test_direct_fallback_radius_pinned(self, lin, transform):
        # mu = 1 degenerates the averaging transform but not the z
        # coordinates; the real multiplier pair is read from Z
        with pytest.raises(ValueError):
            build_u2_u3(lin, transform, 1.0)
        rho = spectral_radius_linear_system(lin, transform, 1.0, 4096)
        assert rho == pytest.approx(7.717047691898568, rel=1e-12)

    @pytest.mark.parametrize("mu", [1e-3, 1.0])
    def test_radius_unchanged_by_perturbed_call(self, pendulum_model, lin, grid, mu):
        # the transform's cached samples must come out of the perturbed call
        # unchanged (mu = 1 lies past the averaging transform's degeneracy)
        tr = build_transform(lin, grid)
        pert = Perturbation.for_model(
            pendulum_model, d_alpha=0.02, d_beta=-0.05,
            d_phi=PeriodicSignal(TWO_PI, ((2, 0.1, -0.05),)), d_phi_offset=0.03,
        )
        before = spectral_radius_linear_system(lin, tr, mu, 512)
        perturbed = spectral_radius_linear_system(lin, tr, mu, 512, pert)
        after = spectral_radius_linear_system(lin, tr, mu, 512)
        assert perturbed != before
        assert after == before
        fresh = build_transform(lin, grid)
        assert spectral_radius_linear_system(lin, fresh, mu, 512) == before

    @pytest.mark.parametrize("perturbed", [False, True])
    @pytest.mark.parametrize("mu", [0.05, 0.5, 1.5, 3.0])
    def test_radius_matches_simulated_monodromy(
        self, pendulum_model, lin, transform, mu, perturbed
    ):
        # the simulator's separate RK4 loop gives the monodromy column by
        # column; mu = 1.5 and 3 lie past the averaging transform's
        # degeneracy, which the z coordinates of the radius do not have
        pert = None
        if perturbed:
            pert = Perturbation.for_model(
                pendulum_model, d_alpha=0.02, d_beta=-0.05,
                d_phi=PeriodicSignal(TWO_PI, ((2, 0.1, -0.05),)), d_phi_offset=0.03,
            )
        try:
            build_u2_u3(lin, transform, mu)
        except ValueError:
            assert mu > 1.0
        else:
            assert mu < 1.0
        trajs = integrate_batch(linear_system(lin, mu, pert), np.eye(2), TWO_PI, 4096,
                                record_stride=4096)
        monodromy = np.column_stack([traj.states[-1] for traj in trajs])
        oracle = np.max(np.abs(np.linalg.eigvals(monodromy)))
        rho = spectral_radius_linear_system(lin, transform, mu, 4096, pert)
        assert abs(rho - oracle) <= 1e-10 * oracle

    def test_deviation_is_identity_free(self):
        # Z of a tiny constant W keeps full relative precision: I + Z would
        # round it away, the deviation scan does not
        eps = 1e-20
        _, z = deviation_matrizant(lambda t: eps * np.eye(2), 1.0, 64)
        assert z[-1, 0, 0] == pytest.approx(math.expm1(eps), rel=1e-13)
        assert z[-1, 0, 0] > 0.0


class TestLinearEnvelope:
    """decay_envelope(..., "linear") with the zero perturbation: Krein's bound."""

    def test_constant_case_exact(self):
        sol = solve_periodic_lyapunov(lambda t: -np.eye(2), 1.0, 1024, mu=1.0)
        t = np.array([0.0, 0.3, 1.0, 2.7, 9.9])
        np.testing.assert_allclose(
            decay_envelope(sol, None, 1.0, t, "linear"), np.exp(-2.0 * t), atol=1e-8
        )

    @pytest.mark.parametrize("which", ["sol_small_mu", "sol_moderate_mu"])
    def test_is_kreins_formula(self, which, request):
        # (||H(0)||/h_min(t)) |v0|^2 exp(-int_0^t ds/||H||), bit for bit
        sol = request.getfixturevalue(which)
        t = np.linspace(0.0, 7.5 * TWO_PI, 41)
        h0, y0sq = sol.hnorm_nodes[0], 0.7
        want = (h0 / sol.hmin_at(t)) * y0sq * np.exp(-sol.step_integral(1.0 / sol.hnorm_steps, t))
        assert decay_envelope(sol, None, y0sq, t, "linear").tobytes() == want.tobytes()

    def test_dominates_initial_value(self, sol_moderate_mu):
        assert decay_envelope(sol_moderate_mu, None, 1.0, 0.0, "linear") >= 1.0

    def test_zero_start(self, sol_moderate_mu):
        assert decay_envelope(sol_moderate_mu, None, 0.0, 5.0, "linear") == 0.0

    def test_negative_time_rejected(self, sol_moderate_mu):
        with pytest.raises(ValueError):
            decay_envelope(sol_moderate_mu, None, 1.0, -1.0, "linear")

    def test_trajectories_stay_below(self, lin, sol_moderate_mu):
        # moderate mu shows real decay; 20 random starts over 20 periods
        rng = np.random.default_rng(42)
        inits = rng.uniform(-1.0, 1.0, size=(20, 2))
        system = linear_system(lin, 0.01)
        trajs = integrate_batch(system, inits, 20 * TWO_PI, 1024, record_stride=16)
        for traj in trajs:
            y0sq = float(traj.states[0] @ traj.states[0])
            report = verify_envelope(
                traj, lambda t: decay_envelope(sol_moderate_mu, None, y0sq, t, "linear")
            )
            assert report.passed, report


class TestClassicalMathieu:
    """The radius against Mathieu characteristic values (scipy.special).

    For phi_hat = c sin(t + theta), y = exp(-alpha mu t/2) w and t = 2x + const
    turn the linearization into w'' + (a - 2q cos 2x) w = 0 with
    a = 4 beta_hat mu^2 - alpha^2 mu^2 and |q| = 2 mu |c| (NIST DLMF 28.2).
    Between a_0(|q|) and b_1(|q|) the undamped multipliers lie on the unit
    circle, so the radius is exp(-alpha mu pi); real multipliers set in where
    a = b_1(|q|).  The onset matched the b_1 root to 1.6e-15 relative when
    measured.  Dropping alpha b from A_z moves the onset; dropping b^2 fails
    both tests.  Below a_0(|q|) the undamped multipliers are real again, one
    of them outside the unit circle, so the radius exceeds exp(-alpha mu pi);
    that onset matched the a_0 root to 4.5e-16 relative when measured.  Both
    mutants move the a_0 onset; the inequality below a_0 alone survives both.
    """

    C, THETA = 1.0, 0.3

    def _system(self, alpha, beta_hat):
        c, theta = self.C, self.THETA  # c sin(t + theta) = c sin(theta) cos t + c cos(theta) sin t
        phi = PeriodicSignal(TWO_PI, ((1, c * math.sin(theta), c * math.cos(theta)),))
        lin = LinearizedSystem(alpha=alpha, beta_hat=beta_hat, phi_hat=phi, period=TWO_PI)
        return lin, build_transform(lin, QuadratureGrid(TWO_PI, 2048))

    def _b1_root(self, alpha, beta_hat):
        def a_minus_b1(mu):
            return (4.0 * beta_hat - alpha ** 2) * mu * mu - mathieu_b(1, 2.0 * mu * abs(self.C))

        return brentq(a_minus_b1, 1e-3, 2.0, xtol=1e-300, rtol=8.9e-16)

    @staticmethod
    def _excess(lin, tr, mu):
        rho = spectral_radius_linear_system(lin, tr, mu, 8192)
        return rho / math.exp(-lin.alpha * mu * math.pi) - 1.0

    @pytest.mark.parametrize("alpha, beta_hat", [(0.1, -0.25), (0.1, -0.1), (0.01, -0.25)])
    def test_onset_of_real_multipliers_is_the_b1_root(self, alpha, beta_hat):
        lin, tr = self._system(alpha, beta_hat)
        ref = self._b1_root(alpha, beta_hat)
        lo, hi = 0.9 * ref, 1.1 * ref
        assert self._excess(lin, tr, lo) <= 1e-12 < self._excess(lin, tr, hi)
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            if self._excess(lin, tr, mid) > 1e-12:
                hi = mid
            else:
                lo = mid
        assert abs(hi - ref) <= 2.5e-15 * ref, (hi, ref)

    @pytest.mark.parametrize("alpha, beta_hat", [(0.1, -0.25), (0.1, -0.1), (0.01, -0.25)])
    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9, 0.99])
    def test_radius_inside_the_region_is_the_damping(self, alpha, beta_hat, frac):
        lin, tr = self._system(alpha, beta_hat)
        mu = frac * self._b1_root(alpha, beta_hat)
        q = 2.0 * mu * abs(self.C)
        assert mathieu_a(0, q) < (4.0 * beta_hat - alpha ** 2) * mu * mu < mathieu_b(1, q)
        assert abs(self._excess(lin, tr, mu)) <= 2.0 ** -52

    @pytest.mark.parametrize(
        "alpha, beta_hat, mu",
        [(0.1, -0.6, 1e-3), (0.1, -0.6, 0.01), (0.01, -0.55, 0.01), (0.1, -0.51, 1e-4), (0.1, -1.0, 0.1)],
    )
    def test_radius_below_a0_exceeds_the_damping(self, alpha, beta_hat, mu):
        # |beta_hat| > c^2/2 = 1/2: the averaged test fails and a lies below a_0 at small mu;
        # the smallest excess measured here was 7.0e-5, at mu = 1e-4
        lin, tr = self._system(alpha, beta_hat)
        assert not bogolyubov_condition(lin, QuadratureGrid(TWO_PI, 2048)).holds
        assert (4.0 * beta_hat - alpha ** 2) * mu * mu < mathieu_a(0, 2.0 * mu * abs(self.C))
        assert self._excess(lin, tr, mu) > 1e-5

    @pytest.mark.parametrize("alpha, mu", [(0.1, 0.01), (0.1, 0.1), (0.01, 0.3)])
    def test_onset_below_is_the_a0_root(self, alpha, mu):
        # at fixed mu the radius leaves exp(-alpha mu pi) where beta_hat takes a below a_0
        ref = (mathieu_a(0, 2.0 * mu * abs(self.C)) / (mu * mu) + alpha ** 2) / 4.0
        onset = _bisect(lambda bh: self._excess(*self._system(alpha, bh), mu) > 1e-12, 0.99 * ref, 1.01 * ref)
        assert abs(onset - ref) <= 2.5e-15 * abs(ref), (onset, ref)


def _bisect(past, lo, hi):
    """The smallest float in (lo, hi] at which the monotone predicate ``past`` holds."""
    assert not past(lo) and past(hi), (lo, hi)
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if past(mid):
            hi = mid
        else:
            lo = mid
    return hi


class TestHillOracle:
    """The radius for several harmonics against Hill's method (tests/oracles.py).

    Random forcings of 2-4 harmonics (numpy default_rng(1) normal draws,
    rounded to two decimals), alpha = 0.1 and beta_hat = -0.25.  Below the
    onset the two exponents of the strip are a pair with real part
    -alpha mu/2, which only repeats Liouville's formula; past it they split
    into a real pair, which tests the propagation.  Dropping alpha b or b^2
    from A_z fails both tests.
    """

    FORCINGS = [  # (harmonics, onset to three digits)
        (((1, 0.35, 0.82), (2, 0.33, -1.3)), 0.661),
        (((1, 0.91, 0.45), (2, -0.54, 0.58), (3, 0.36, 0.29)), 0.496),
        (((1, 0.03, 0.55), (2, -0.74, -0.16), (3, -0.48, 0.6), (4, 0.04, -0.29)), 1.195),
    ]

    @staticmethod
    def _system(harmonics):
        lin = LinearizedSystem(0.1, -0.25, PeriodicSignal(TWO_PI, harmonics), TWO_PI)
        return lin, build_transform(lin, QuadratureGrid(TWO_PI, 2048))

    @pytest.mark.parametrize("harmonics, onset", FORCINGS)
    def test_onset_matches_the_hill_split(self, harmonics, onset):
        # the code's onset is where its radius passes exp(-alpha mu pi) by
        # 1e-12, Hill's where the real parts of the strip's exponents split by
        # more than 1e-7: a split of 1e-9 is below the eigenvalue noise of the
        # coalescing pair, and fired up to 2.6e-10 early on the four-harmonic
        # forcing (Im s = 0) as n grew.  Measured at n = 16 to 5.5e-14
        # relative from these brackets, and to 3.0e-13 from brackets of +-1e-3.
        lin, tr = self._system(harmonics)
        code = _bisect(lambda mu: TestClassicalMathieu._excess(lin, tr, mu) > 1e-12,
                       0.99 * onset, 1.01 * onset)

        def split(mu):
            re = hill_exponents(lin, mu, 16).real
            return re.max() - re.min() > 1e-7

        hill = _bisect(split, 0.99 * onset, 1.01 * onset)
        assert abs(code - hill) <= 5e-13 * hill, (code, hill)

    @pytest.mark.parametrize("frac", [1.05, 1.3])
    @pytest.mark.parametrize("harmonics, onset", FORCINGS)
    def test_radius_past_the_onset_matches_hill(self, harmonics, onset, frac):
        # measured to 7.1e-13 relative at 16384 steps (3.1e-12 at 4096); that
        # is the eigenvalue noise of Hill at n = 80, which stayed within
        # 7e-14 of a 65536-step radius at n = 24
        lin, tr = self._system(harmonics)
        mu = frac * onset
        hill = math.exp(lin.period * np.max(hill_exponents(lin, mu, 80).real))
        rho = spectral_radius_linear_system(lin, tr, mu, 16384)
        assert hill > 1.0
        assert abs(rho - hill) <= 1e-12 * hill, (rho, hill)
