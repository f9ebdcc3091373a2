import math
from dataclasses import replace

import numpy as np
import pytest

from mathieu_cert.floquet_lyapunov import (
    PeriodicLyapunovSolution,
    solve_periodic_lyapunov,
    spectral_radius_linear_system,
)
from mathieu_cert.periodic_signal import PeriodicSignal, QuadratureGrid
from mathieu_cert.robustness import (
    Perturbation,
    attraction_certificate,
    decay_envelope,
    delta_a_norm,
    envelope_rate_integrals,
    epsilon_fn,
    linear_budget,
    nonlinear_budget,
    perturbation_from_dict,
    perturbation_to_dict,
    q_of_mu,
    q_tilde,
    sample_attraction_boundary,
)
from mathieu_cert.simulate import integrate_batch, nonlinear_system, verify_envelope
from mathieu_cert.model import shift_to_zero, system_matrix_entries

from conftest import TWO_PI
from oracles import boundary_samples_per_row, polished_extrema

GRID = QuadratureGrid(TWO_PI, 2048)
EPS = 2.0 ** -52


def constant_sol(h: float, T: float = TWO_PI, mu: float = 0.01, n: int = 64):
    """Synthetic solution with H(t) = h*I, for exercising closed formulas."""
    times = np.arange(n + 1) * (T / n)
    H = np.tile(h * np.eye(2), (n + 1, 1, 1))
    arr = np.full(n + 1, h)
    return PeriodicLyapunovSolution(
        times=times,
        H=H,
        mu=mu,
        h_min=h,
        h_max=h,
        hmin_nodes=arr,
        hnorm_nodes=arr,
        spectral_radius=0.5,
        H_z=H,
        b=np.zeros(n + 1),
        z_scale=1.0,
    )


def offset_pert(offset: float, mu: float = 0.01, **kw) -> Perturbation:
    # scaling -1 makes |d_phi_hat| = |offset|
    return Perturbation(d_alpha=kw.get("d_alpha", 0.0), d_beta=kw.get("d_beta", 0.0),
                        d_phi=None, d_phi_offset=offset, scaling=-1.0)


class TestDeltaANorm:
    def test_all_zero(self):
        assert delta_a_norm(Perturbation.zero(), 0.01, 1.0) == 0.0

    def test_constant_forcing_only(self):
        pert = offset_pert(3.5)
        assert delta_a_norm(pert, 0.01, 0.7) == pytest.approx(0.01 * 3.5, rel=1e-15)

    def test_three_four_five(self):
        mu = 0.02
        pert = Perturbation(
            d_alpha=3.0 / mu, d_beta=-4.0 / mu ** 2, d_phi=None, d_phi_offset=0.0,
            scaling=-1.0,
        )
        # d_beta_hat*mu = 4/mu, so the norm is mu*sqrt((4/mu)^2+(3/mu)^2) = 5
        assert delta_a_norm(pert, mu, 0.0) == pytest.approx(5.0, rel=1e-14)

    def test_vectorized(self):
        pert = offset_pert(1.0)
        t = np.linspace(0.0, TWO_PI, 5)
        np.testing.assert_allclose(delta_a_norm(pert, 0.5, t), 0.5, atol=1e-15)


class TestBudgets:
    def test_linear_level(self):
        b = linear_budget(constant_sol(2.0, mu=0.01))
        assert b.budget_phi_sup == pytest.approx(1.0 / 8.0, rel=1e-15)
        assert b.budget_phi_sup / b.mu == pytest.approx(12.5, rel=1e-15)
        assert b.level == "linear"

    def test_nonlinear_level_is_half(self):
        sol = constant_sol(2.0, mu=0.01)
        b5, b6 = linear_budget(sol), nonlinear_budget(sol)
        assert b6.budget_phi_sup == pytest.approx(0.5 * b5.budget_phi_sup, rel=1e-15)
        assert b6.budget_coeff == pytest.approx(0.5 * b5.budget_coeff, rel=1e-15)
        assert b6.budget_phi_sup / b6.mu == pytest.approx(6.25, rel=1e-15)

    def test_zero_always_admissible(self):
        b = nonlinear_budget(constant_sol(2.0))
        assert b.is_admissible(Perturbation.zero())

    def test_boundary_is_rejected(self):
        sol = constant_sol(2.0, mu=0.01)
        b = linear_budget(sol)
        exact = b.budget_phi_sup / sol.mu  # mu*sup == budget exactly
        assert not b.is_admissible(offset_pert(exact))
        assert b.is_admissible(offset_pert(0.999 * exact))

    def test_coeff_constraint(self):
        sol = constant_sol(2.0, mu=0.01)
        b = linear_budget(sol)
        # mu*(|d_beta_hat|*mu + |d_alpha|) at the boundary
        da = b.budget_coeff / sol.mu
        pert = Perturbation(d_alpha=da, d_beta=0.0, scaling=-1.0)
        assert not b.is_admissible(pert)


class TestEpsilon:
    def test_unperturbed(self):
        assert epsilon_fn(constant_sol(3.0), Perturbation.zero(), 0.01, 1.0) == 1.0

    def test_half(self):
        sol = constant_sol(2.0, mu=0.01)
        pert = offset_pert(12.5)  # ||dA|| = 0.125, 2*2*0.125 = 1/2
        assert epsilon_fn(sol, pert, sol.mu, 0.3) == pytest.approx(0.5, rel=1e-13)

    def test_point_eight(self):
        sol = constant_sol(1.0, mu=0.01)
        pert = offset_pert(10.0)  # ||dA|| = 0.1
        assert epsilon_fn(sol, pert, sol.mu, 2.0) == pytest.approx(0.8, rel=1e-13)


class TestQ:
    def test_linear_case(self, pendulum_model):
        assert q_of_mu(pendulum_model, None, 0.0, 0.01, GRID) == 0.0

    def test_pendulum_value(self, pendulum_model):
        p = 0.5 / 6.0
        q = q_of_mu(pendulum_model, None, p, 0.01, GRID)
        expect = (0.25 * 1e-4 + 1.0 * 0.01) * p
        assert q == pytest.approx(expect, rel=1e-7)

    def test_linear_in_p(self, pendulum_model):
        q1 = q_of_mu(pendulum_model, None, 0.1, 0.01, GRID)
        q2 = q_of_mu(pendulum_model, None, 0.2, 0.01, GRID)
        assert q2 == pytest.approx(2.0 * q1, rel=1e-14)

    def test_perturbation_enters(self, pendulum_model):
        pert = Perturbation.for_model(pendulum_model, d_beta=0.5, d_phi_offset=1.0)
        q = q_of_mu(pendulum_model, pert, 1.0, 0.01, GRID)
        expect = (0.75 * 1e-4 + 2.0 * 0.01) * 1.0
        assert q == pytest.approx(expect, rel=1e-7)

    def test_q_tilde(self):
        assert q_tilde(0.5, 3.0) == 3.0

    def test_sups_reach_a_dense_max(self, pendulum_model):
        # the sampled sup_norm fell up to 7e-12 relative below this
        # 2^22-sample max; the sups now reach it and the polished critical
        # values of the series to 4 eps
        model = replace(
            pendulum_model, phi=PeriodicSignal(TWO_PI, ((3, 0.4, -0.9), (7, 0.8, 0.3)))
        )
        pert = Perturbation.for_model(
            model, d_phi=PeriodicSignal(TWO_PI, ((5, 0.3, 0.7),)), d_phi_offset=0.1
        )
        dense = np.array_split(np.arange(2 ** 22) * (TWO_PI / 2 ** 22), 16)

        def check(sup, f, harmonics, offset=0.0, scale=1.0):
            assert sup >= max(float(np.max(np.abs(f(t)))) for t in dense) * (1.0 - 4 * EPS)
            ref = scale * max(map(abs, polished_extrema(harmonics, offset)))
            assert sup == pytest.approx(ref, rel=4 * EPS)

        sup_phi = q_of_mu(model, None, 1.0, 1.0, GRID) - model.beta
        check(sup_phi, model.phi.eval, model.phi.harmonics)
        sup_phi = q_of_mu(model, pert, 1.0, 1.0, GRID) - abs(model.beta + pert.d_beta)
        check(sup_phi, lambda t: model.phi.eval(t) + pert.d_phi_eval(t),
              model.phi.harmonics + pert.d_phi.harmonics, 0.1)
        check(pert.sup_d_phi_hat, pert.d_phi_hat_eval, pert.d_phi.harmonics, 0.1,
              abs(pert.scaling))


class TestAttraction:
    def test_constant_h(self):
        sol = constant_sol(2.0)
        cert = attraction_certificate(sol, q_mu=0.25, p=1.0)
        # h^3/(64 h^4 q^2) = 1/(64 h q^2)
        assert cert.lyapunov_radius_sq == pytest.approx(
            1.0 / (64.0 * 2.0 * 0.25 ** 2), rel=1e-14
        )
        assert cert.euclid_radius is None

    def test_formula_transcription(self, sol_small_mu):
        q = 6.2e-9
        cert = attraction_certificate(sol_small_mu, q, p=0.1, rho=0.5)
        hmin, hmax = sol_small_mu.h_min, sol_small_mu.h_max
        expect = hmin * hmin * hmin / (64.0 * hmax ** 4 * q * q)
        assert cert.lyapunov_radius_sq == pytest.approx(expect, rel=1e-12)
        assert cert.euclid_radius == pytest.approx(0.5 * hmin / (4.0 * hmax), rel=1e-12)

    def test_linear_limit_unbounded(self):
        cert = attraction_certificate(constant_sol(2.0), q_mu=0.0, p=0.0)
        assert math.isinf(cert.lyapunov_radius_sq)
        assert cert.contains(constant_sol(2.0), 1e6, -1e6)

    def test_membership(self):
        sol = constant_sol(1.0)
        cert = attraction_certificate(sol, q_mu=0.125, p=1.0, rho=1.0)
        # radius_sq = 1/(64*1*(1/8)^2) = 1; euclid radius = 1/4
        assert cert.lyapunov_radius_sq == pytest.approx(1.0, rel=1e-14)
        assert cert.contains(sol, 0.1, 0.1)
        assert not cert.contains(sol, 0.9, 0.9)  # lyapunov value 1.62 > 1
        assert not cert.contains(sol, 0.3, 0.0)  # euclid 0.3 > 0.25


class TestDecayEnvelope:
    def test_linear_constant_h(self):
        sol = constant_sol(2.0)
        t = np.array([0.0, 1.0, 4.0, 11.0])
        env = decay_envelope(sol, Perturbation.zero(), 1.0, t, "linear")
        np.testing.assert_allclose(env, np.exp(-t / 2.0), rtol=1e-12)

    def test_nonlinear_initial_dominates(self):
        sol = constant_sol(2.0)
        v0 = np.array([0.3, -0.4])
        psi0 = sol.value_at_node(0, v0)  # = 2*|v0|^2
        env0 = decay_envelope(sol, Perturbation.zero(), psi0, 0.0, "nonlinear")
        assert env0 == pytest.approx(4.0 * psi0 / 2.0, rel=1e-14)
        assert env0 >= float(v0 @ v0)

    def test_nonlinear_half_margin_rate(self):
        sol = constant_sol(2.0, mu=0.01)
        pert = offset_pert(12.5)  # eps = 1/2 exactly
        t = np.array([0.0, 2.0, 8.0])
        env = decay_envelope(sol, pert, 1.0, t, "nonlinear")
        np.testing.assert_allclose(env, 2.0 * np.exp(-t / 8.0), rtol=1e-12)

    def test_rate_ordering(self, sol_small_mu):
        rates = envelope_rate_integrals(sol_small_mu, Perturbation.zero(), sol_small_mu.mu)
        assert rates["conservative"] <= rates["printed"] + 1e-30
        assert rates["linear"] == pytest.approx(2.0 * rates["printed"], rel=1e-12)

    @pytest.mark.parametrize(
        "pert",
        [
            Perturbation.zero(),
            Perturbation(0.0, 0.0, PeriodicSignal(TWO_PI, ()), 0.0, -2.5),
            Perturbation(-0.0, -0.0, None, -0.0, -0.3),
        ],
    )
    def test_zero_perturbation_matches_delta_a_norm_formula(self, pert, sol_small_mu):
        # a zero perturbation skips delta_a_norm; the results must still be
        # those of the formula evaluated with it, bit for bit
        assert pert.is_zero
        t = np.linspace(0.0, 7.5 * TWO_PI, 41)
        for sol in (sol_small_mu, constant_sol(2.0, mu=0.01)):
            hn = sol.hnorm_steps
            d = np.asarray(delta_a_norm(pert, sol.mu, sol.times))
            d = np.maximum(d[:-1], d[1:])
            eps = 1.0 - 2.0 * hn * d
            expected = {
                "linear": sol.hnorm_nodes[0] / sol.h_min * 0.7
                * np.exp(-sol.step_integral(1.0 / hn - 2.0 * d, t)),
                "nonlinear": 4.0 / sol.h_min * 0.7
                * np.exp(-sol.step_integral(eps / (2.0 * hn), t)),
            }
            for variant, want in expected.items():
                got = decay_envelope(sol, pert, 0.7, t, variant)
                assert got.tobytes() == want.tobytes(), variant
            h = sol.step
            assert envelope_rate_integrals(sol, pert, sol.mu) == {
                "linear": float(np.sum(h * (1.0 / hn - 2.0 * d))),
                "conservative": float(np.sum(h * eps / (2.0 * hn))),
                "printed": float(np.sum(h / (2.0 * hn))),
            }
        with pytest.raises(ValueError, match="mu must be positive"):
            envelope_rate_integrals(sol_small_mu, pert, 0.0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            decay_envelope(constant_sol(1.0), Perturbation.zero(), 1.0, 0.0, "quadratic")

    def test_budget_violation_rejected(self):
        sol = constant_sol(2.0, mu=0.01)
        pert = offset_pert(100.0)  # eps < 0
        with pytest.raises(ValueError):
            decay_envelope(sol, pert, 1.0, 1.0, "nonlinear")


class TestOnCertifiedPendulum:
    def test_epsilon_floor_under_nonlinear_budget(self, pendulum_model, sol_small_mu):
        sol = sol_small_mu
        b = nonlinear_budget(sol)
        sup = 0.99 * b.budget_phi_sup / sol.mu
        pert = Perturbation.for_model(pendulum_model, d_phi_offset=-sup)
        assert b.is_admissible(pert)
        eps = epsilon_fn(sol, pert, sol.mu, sol.times)
        assert float(np.min(eps)) >= 0.5 - 1e-9

    def test_perturbed_monodromy_stays_stable(self, pendulum_model, lin, transform, sol_small_mu):
        sol = sol_small_mu
        b = linear_budget(sol)
        rng = np.random.default_rng(21)
        for frac in (0.5, 0.99):
            for _ in range(3):
                pert = random_budget_perturbation(pendulum_model, b, frac, rng)
                assert b.is_admissible(pert)
                rho = spectral_radius_linear_system(lin, transform, sol.mu, 2048, pert)
                assert rho < 1.0

    def test_nonlinear_envelope_short_run(self, pendulum_model, sol_small_mu):
        sol = sol_small_mu
        g = shift_to_zero(pendulum_model)
        p = 0.5 / 6.0
        q = q_of_mu(pendulum_model, None, p, sol.mu, GRID)
        cert = attraction_certificate(sol, q, p, rho=0.5)
        inits = sample_attraction_boundary(sol, cert, 5, rng=np.random.default_rng(1))
        system = nonlinear_system(
            pendulum_model.alpha, pendulum_model.beta, pendulum_model.phi, g, sol.mu
        )
        trajs = integrate_batch(system, inits, 5 * TWO_PI, 1024, record_stride=8)
        for traj in trajs:
            psi0 = sol.value_at_node(0, traj.states[0])
            report = verify_envelope(
                traj,
                lambda t: decay_envelope(sol, Perturbation.zero(), psi0, t, "nonlinear"),
            )
            assert report.passed, report
            # the verdict allows a 1e-9 relative excess; the certificate
            # itself promises a ratio of at most 1
            assert report.max_ratio <= 1.0, report

    def test_perturbed_nonlinear_envelope(self, pendulum_model, sol_small_mu):
        # a perturbation at half the nonlinear budget: trajectories of the
        # perturbed nonlinear flow must respect the eps-aware envelope
        sol = sol_small_mu
        b = nonlinear_budget(sol)
        pert = random_budget_perturbation(
            pendulum_model, b, 0.5, np.random.default_rng(8)
        )
        assert b.is_admissible(pert)
        g = shift_to_zero(pendulum_model)
        p = 0.5 / 6.0
        q = q_of_mu(pendulum_model, pert, p, sol.mu, GRID)
        cert = attraction_certificate(sol, q, p, rho=0.5)
        inits = sample_attraction_boundary(sol, cert, 4, rng=np.random.default_rng(9))
        system = nonlinear_system(
            pendulum_model.alpha, pendulum_model.beta, pendulum_model.phi,
            g, sol.mu, pert,
        )
        assert system.tag == "perturbed_nonlinear"
        trajs = integrate_batch(system, inits, 10 * TWO_PI, 1024, record_stride=16)
        eps_floor = float(np.min(epsilon_fn(sol, pert, sol.mu, sol.times)))
        assert eps_floor >= 0.5 - 1e-9
        for traj in trajs:
            psi0 = sol.value_at_node(0, traj.states[0])
            report = verify_envelope(
                traj, lambda t: decay_envelope(sol, pert, psi0, t, "nonlinear")
            )
            assert report.passed, report
            # the verdict allows a 1e-9 relative excess; the certificate
            # itself promises a ratio of at most 1
            assert report.max_ratio <= 1.0, report

    def test_shrunken_envelope_fails(self, pendulum_model, sol_small_mu):
        # an eighth of the certified envelope is violated by a certified
        # trajectory; the verdict must see that although every squared
        # state (~1e-61) is far below any absolute tolerance
        sol = sol_small_mu
        g = shift_to_zero(pendulum_model)
        p = 0.5 / 6.0
        q = q_of_mu(pendulum_model, None, p, sol.mu, GRID)
        cert = attraction_certificate(sol, q, p, rho=0.5)
        inits = sample_attraction_boundary(sol, cert, 1, rng=np.random.default_rng(1))
        assert cert.contains(sol, inits[0, 0], inits[0, 1])
        system = nonlinear_system(
            pendulum_model.alpha, pendulum_model.beta, pendulum_model.phi, g, sol.mu
        )
        traj = integrate_batch(system, inits, 2 * TWO_PI, 1024, record_stride=8)[0]
        psi0 = sol.value_at_node(0, traj.states[0])
        env = lambda t: decay_envelope(sol, Perturbation.zero(), psi0, t, "nonlinear")  # noqa: E731
        assert verify_envelope(traj, env).passed
        report = verify_envelope(traj, lambda t: env(t) / 8.0)
        assert report.max_ratio > 1.0
        assert not report.passed, report

    def test_boundary_sampling(self, sol_small_mu):
        sol = sol_small_mu
        cert = attraction_certificate(sol, q_mu=1e-8, p=0.1, rho=0.5)
        pts = sample_attraction_boundary(sol, cert, 8, rng=np.random.default_rng(2))
        for v in pts:
            val = sol.value_at_node(0, v)
            assert val == pytest.approx(cert.lyapunov_radius_sq, rel=1e-9)
            assert math.hypot(*v) <= cert.euclid_radius
        inside = sample_attraction_boundary(
            sol, cert, 4, scale=0.5, rng=np.random.default_rng(3)
        )
        for v in inside:
            assert sol.value_at_node(0, v) == pytest.approx(
                0.25 * cert.lyapunov_radius_sq, rel=1e-9
            )


    @pytest.mark.parametrize("case", ["scaled", "direct", "capped"])
    def test_boundary_sampling_matches_per_row_form(self, lin, sol_small_mu, case):
        # the vectorized sampler against the row-by-row form it replaced, on
        # the same directions; the two differ only where the C library's pow
        # and Python's hypot round differently from numpy's square and hypot
        # (about 1 row in 3,000, by at most 2 ulp of the row's norm)
        sol, q, rho = sol_small_mu, 1e-8, 0.5
        if case == "direct":
            sol = solve_periodic_lyapunov(system_matrix_entries(lin, 0.01), TWO_PI, 4096, mu=0.01)
            q, rho = 1e-3, None
        elif case == "capped":
            q = 1e-30  # the Lyapunov level lies far outside the Euclid cap
        cert = attraction_certificate(sol, q, p=0.1, rho=rho)
        got = sample_attraction_boundary(sol, cert, 256, rng=np.random.default_rng(4))
        ref = boundary_samples_per_row(sol, cert, 256, rng=np.random.default_rng(4))
        norm = np.hypot(ref[:, 0], ref[:, 1])
        eps = np.finfo(float).eps
        assert np.all(np.abs(got - ref) <= 4.0 * eps * norm[:, None])
        assert np.count_nonzero(np.any(got != ref, axis=1)) <= 16
        if case == "capped":
            uncapped = attraction_certificate(sol, q, p=0.1)
            far = sample_attraction_boundary(sol, uncapped, 256, rng=np.random.default_rng(4))
            assert np.all(np.hypot(far[:, 0], far[:, 1]) > cert.euclid_radius)
            np.testing.assert_allclose(np.hypot(got[:, 0], got[:, 1]), cert.euclid_radius,
                                       rtol=2e-12)
            assert all(cert.contains(sol, *v) for v in got)


class TestPerturbationIO:
    def test_roundtrip(self, pendulum_model):
        pert = Perturbation.for_model(
            pendulum_model,
            d_alpha=0.1,
            d_beta=-0.2,
            d_phi=PeriodicSignal(TWO_PI, ((2, 0.3, 0.0),)),
            d_phi_offset=0.05,
        )
        back = perturbation_from_dict(perturbation_to_dict(pert), pendulum_model)
        assert back == pert

    def test_period_mismatch(self, pendulum_model):
        d = {"d_alpha": 0.0, "d_beta": 0.0,
             "d_phi": {"period": 1.0, "offset": 0.0,
                       "harmonics": [{"k": 1, "cos": 1.0, "sin": 0.0}]}}
        with pytest.raises(ValueError):
            perturbation_from_dict(d, pendulum_model)

    def test_positive_scaling_rejected(self):
        with pytest.raises(ValueError):
            Perturbation(0.0, 0.0, scaling=1.0)

    @pytest.mark.parametrize("field", ["d_alpha", "d_beta", "d_phi_offset", "scaling"])
    def test_non_finite_rejected(self, field):
        args = dict(d_alpha=0.0, d_beta=0.0, d_phi_offset=0.0, scaling=-1.0)
        args[field] = math.inf
        with pytest.raises(ValueError, match="finite"):
            Perturbation(**args)


def random_budget_perturbation(model, budget, fraction, rng):
    """Perturbation whose two budget quantities sit at ``fraction`` of the cap."""
    mu = budget.mu
    sup_target = fraction * budget.budget_phi_sup / mu
    w = rng.uniform(0.2, 0.8)
    offset_hat = w * sup_target * rng.choice([-1.0, 1.0])
    amp_hat = (1.0 - w) * sup_target
    k = int(rng.integers(1, 4))
    phase = rng.uniform(0.0, TWO_PI)
    scaling = model.f.derivative(model.gamma)
    sig = PeriodicSignal(
        model.period,
        ((k, amp_hat * math.cos(phase) / scaling, amp_hat * math.sin(phase) / scaling),),
    )
    coeff_target = fraction * budget.budget_coeff / mu
    r = rng.uniform(0.0, 1.0)
    d_beta_hat = r * coeff_target / mu * rng.choice([-1.0, 1.0])
    d_alpha = (1.0 - r) * coeff_target * rng.choice([-1.0, 1.0])
    return Perturbation(
        d_alpha=d_alpha,
        d_beta=d_beta_hat / scaling,
        d_phi=sig,
        d_phi_offset=offset_hat / scaling,
        scaling=scaling,
    )
