"""Acceptance gate: one test per certificate-level claim, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criterion 6 checks the nonlinear certificate through the inequality it
rests on, the Lyapunov dissipation psi(t) <= psi(0) - 1/2 int_0^t |v|^2 ds,
and not through a fixed contraction of ||v||: at the certified mu0/2 the
certified contraction over 50 periods is 1 in double precision (see the
criterion's docstring).
"""

import math
import time

import numpy as np

from mathieu_cert.averaging import (
    bogolyubov_condition,
    build_transform,
    build_u1,
    build_u2_u3,
)
from mathieu_cert.bounds import compute_bound_chain
from mathieu_cert.floquet_lyapunov import (
    bvp_residual,
    deviation_matrizant,
    matrizant,
    solve_constant_lyapunov,
    solve_periodic_lyapunov_scaled,
    spectral_radius_from_deviation,
    spectral_radius_linear_system,
)
from mathieu_cert.model import (
    LinearizedSystem,
    shift_to_zero,
    system_matrix_entries,
)
from mathieu_cert.periodic_signal import PeriodicSignal, QuadratureGrid
from mathieu_cert.robustness import (
    Perturbation,
    attraction_certificate,
    decay_envelope,
    linear_budget,
    nonlinear_budget,
    q_of_mu,
    sample_attraction_boundary,
)
from mathieu_cert.simulate import (
    integrate_batch,
    nonlinear_system,
    verify_envelope,
)

from conftest import TWO_PI
from oracles import correction_matrices, linear_system, solve_periodic_lyapunov, truncated_lyapunov_sum
from test_robustness import random_budget_perturbation

SIN = PeriodicSignal(TWO_PI, ((1, 0.0, 1.0),))


def _report(n: int, ok: bool, desc: str, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {n}: {status} - {desc} [{detail}; {elapsed:.2f}s]")


def make_lin(beta: float, alpha: float) -> LinearizedSystem:
    return LinearizedSystem(alpha=alpha, beta_hat=-beta, phi_hat=SIN, period=TWO_PI)


def test_criterion_1_averaged_condition_threshold(grid):
    t0 = time.perf_counter()
    oks = []
    for beta in (0.1, 0.25, 0.4):
        res = bogolyubov_condition(make_lin(beta, 0.1), grid)
        oks.append(abs(res.lhs - 1.5) <= 1e-9)
        oks.append(abs(res.rhs - (1.0 + beta)) <= 1e-9)
        oks.append(res.holds)
    below = bogolyubov_condition(make_lin(0.499999, 0.1), grid)
    above = bogolyubov_condition(make_lin(0.500001, 0.1), grid)
    oks.append(below.holds and not above.holds)
    elapsed = time.perf_counter() - t0
    ok = all(oks) and elapsed < 1.0
    _report(1, ok, "averaged stability condition reproduces the classical threshold",
            f"lhs=1.5, rhs=1+beta, flip at beta=0.5; runtime<1s", elapsed)
    assert all(oks)
    assert elapsed < 1.0


def test_criterion_2_certified_range_is_stable(grid):
    t0 = time.perf_counter()
    worst = -math.inf
    jury_ok = True
    count = 0
    for beta in (0.1, 0.25, 0.4):
        for alpha in (0.05, 0.1, 0.5):
            lin = make_lin(beta, alpha)
            tr = build_transform(lin, grid)
            u1 = build_u1(lin, tr)
            h1 = solve_constant_lyapunov(u1)
            chain = compute_bound_chain(lin, tr, u1, h1)
            for mu in np.geomspace(chain.mu0 / 100.0, chain.mu0, 10):
                _, z = deviation_matrizant(system_matrix_entries(lin, float(mu)), TWO_PI, 4096)
                z = z[-1]
                rho = spectral_radius_from_deviation(z, -lin.alpha * mu * TWO_PI)
                worst = max(worst, rho)
                # Jury test for I + Z, which uses no Liouville value
                tr, det = z[0, 0] + z[1, 1], z[0, 0] * z[1, 1] - z[0, 1] * z[1, 0]
                jury_ok &= det > 0.0 and tr + det < 0.0 and 4.0 + 2.0 * tr + det > 0.0
                count += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1.0 and jury_ok and elapsed < 10.0
    _report(2, ok, "monodromy spectrum inside the unit disk on (0, mu0] for 9 models",
            f"{count} parameter points, max radius {worst:.12f}; runtime<10s", elapsed)
    assert worst < 1.0
    assert jury_ok
    assert elapsed < 10.0


def test_criterion_3_periodic_lyapunov_correctness(lin, transform, chain):
    t0 = time.perf_counter()
    oks = {}

    # closed-form contraction: H must be I/2 up to integrator accuracy
    ent_const = lambda t: -np.eye(2)  # noqa: E731
    sol_c = solve_periodic_lyapunov(ent_const, 1.0, 1024)
    oks["constant_H"] = float(np.max(np.abs(sol_c.H - 0.5 * np.eye(2)))) <= 1e-8
    oks["constant_residual"] = bvp_residual(sol_c, ent_const) <= 1e-6
    oks["constant_periodic"] = float(np.max(np.abs(sol_c.H[0] - sol_c.H[-1]))) <= 1e-8

    # pendulum at a moderate parameter: direct solve plus tail-sum oracle
    mu = 0.01
    ent = system_matrix_entries(lin, mu)
    sol = solve_periodic_lyapunov(ent, TWO_PI, 4096, mu=mu)
    oks["residual"] = bvp_residual(sol, ent) <= 1e-6
    oks["periodic"] = (
        float(np.max(np.abs(sol.H[0] - sol.H[-1]))) / (1.0 + sol.h_max) <= 1e-8
    )
    oks["positive"] = bool(np.all(sol.hmin_nodes > 0.0))
    times, Y = matrizant(ent, TWO_PI, 4096)
    from scipy.integrate import cumulative_simpson

    q = cumulative_simpson(
        np.einsum("nji,njk->nik", Y, Y), dx=times[1], axis=0, initial=0.0
    )[-1]
    doublings = 13
    oks["tail_negligible"] = sol.spectral_radius ** (2 * 2 ** doublings) < 1e-10
    oracle = truncated_lyapunov_sum(Y[-1], q, doublings)
    rel = float(np.linalg.norm(sol.H[0] - oracle) / np.linalg.norm(oracle))
    oks["oracle"] = rel <= 1e-6

    # the averaged-coordinate route must agree where both are computable
    sol_scaled = solve_periodic_lyapunov_scaled(lin, transform, mu, 4096)
    oks["routes_agree"] = (
        abs(sol.h_min - sol_scaled.h_min) / sol_scaled.h_min <= 1e-6
        and abs(sol.h_max - sol_scaled.h_max) / sol_scaled.h_max <= 1e-6
    )

    # and stays well posed at the certified operating point
    mu_small = chain.mu0 / 2.0
    sol_s = solve_periodic_lyapunov_scaled(lin, transform, mu_small, 4096)
    oks["small_mu_residual"] = bvp_residual(sol_s, system_matrix_entries(lin, mu_small)) <= 1e-6
    oks["small_mu_periodic"] = (
        float(np.max(np.abs(sol_s.H[0] - sol_s.H[-1]))) / (1.0 + sol_s.h_max) <= 1e-8
    )
    oks["small_mu_positive"] = bool(np.all(sol_s.hmin_nodes > 0.0))

    elapsed = time.perf_counter() - t0
    ok = all(oks.values()) and elapsed < 5.0
    _report(3, ok, "periodic Lyapunov solution: residual, periodicity, positivity, tail-sum oracle",
            f"oracle rel err {rel:.2e}; checks {sorted(k for k, v in oks.items() if not v) or 'all pass'}; runtime<5s",
            elapsed)
    assert all(oks.values()), oks
    assert elapsed < 5.0


def test_criterion_4_decay_envelope_dominates_linear_flow(lin, transform, chain, sol_small_mu):
    t0 = time.perf_counter()
    # analytic contraction: envelope equals the exact square decay
    sol_c = solve_periodic_lyapunov(lambda t: -np.eye(2), 1.0, 1024, mu=1.0)
    tq = np.linspace(0.0, 12.0, 481)
    y0sq = 1.3
    env = decay_envelope(sol_c, None, y0sq, tq, "linear")
    env_err = float(np.max(np.abs(env - y0sq * np.exp(-2.0 * tq))))
    ok_exact = env_err <= 1e-8

    # pendulum at the certified operating point: 100 random starts
    rng = np.random.default_rng(4)
    inits = rng.uniform(-1.0, 1.0, size=(100, 2))
    system = linear_system(lin, sol_small_mu.mu)
    trajs = integrate_batch(system, inits, 20 * TWO_PI, 1024, record_stride=16)
    ok_dom = True
    worst_ratio = 0.0
    for traj in trajs:
        y0 = float(traj.states[0] @ traj.states[0])
        report = verify_envelope(traj, lambda t: decay_envelope(sol_small_mu, None, y0, t, "linear"))
        ok_dom = ok_dom and report.passed
        worst_ratio = max(worst_ratio, report.max_ratio)
    elapsed = time.perf_counter() - t0
    ok = ok_exact and ok_dom and elapsed < 10.0
    _report(4, ok, "exponential envelope dominates the linear flow",
            f"analytic-case err {env_err:.2e}, 100 starts over 20 periods, worst ratio {worst_ratio:.3f}; runtime<10s",
            elapsed)
    assert ok_exact
    assert ok_dom
    assert elapsed < 10.0


def test_criterion_5_linear_robustness_budgets(pendulum_model, lin, transform, sol_small_mu):
    t0 = time.perf_counter()
    sol = sol_small_mu
    budget = linear_budget(sol)
    rng = np.random.default_rng(17)
    perts = [
        random_budget_perturbation(pendulum_model, budget, frac, rng)
        for frac in (0.5, 0.99)
        for _ in range(10)
    ]
    oks_admissible = [budget.is_admissible(p) for p in perts]
    radii = [
        spectral_radius_linear_system(lin, transform, sol.mu, 2048, p) for p in perts
    ]
    ok_stable = all(r < 1.0 for r in radii)

    # decay envelope of the perturbed linear flow dominates 50 trajectories
    ok_env = True
    worst_ratio = 0.0
    n_traj = 0
    for i, pert in enumerate(perts):
        n_ic = 3 if i < 10 else 2
        inits = rng.uniform(-1.0, 1.0, size=(n_ic, 2))
        system = linear_system(lin, sol.mu, pert)
        trajs = integrate_batch(system, inits, 5 * TWO_PI, 1024, record_stride=8)
        for traj in trajs:
            v0sq = float(traj.states[0] @ traj.states[0])
            report = verify_envelope(
                traj, lambda t: decay_envelope(sol, pert, v0sq, t, "linear")
            )
            ok_env = ok_env and report.passed
            worst_ratio = max(worst_ratio, report.max_ratio)
            n_traj += 1
    elapsed = time.perf_counter() - t0
    ok = all(oks_admissible) and ok_stable and ok_env and n_traj == 50 and elapsed < 20.0
    _report(5, ok, "perturbations inside the linear budgets keep stability and the envelope",
            f"20 perturbations at 0.5x/0.99x, max radius {max(radii):.12f}, "
            f"{n_traj} trajectories, worst ratio {worst_ratio:.3f}; runtime<20s", elapsed)
    assert all(oks_admissible)
    assert ok_stable, max(radii)
    assert ok_env
    assert elapsed < 20.0


def test_criterion_6_attraction_set_and_nonlinear_decay(pendulum_model, lin, transform, chain, sol_small_mu, grid):
    """Data inside the attraction set decays and stays under the envelope.

    With psi(t) = <H(t) v, v> and H' + HA + A^T H = -I, the linearization
    gives d(psi)/dt = -|v|^2 exactly.  Inside the attraction set the
    quadratic remainder takes at most half of that, so along the nonlinear
    flow d(psi)/dt <= -(eps/2) |v|^2 with eps = 1 at zero perturbation, and

        psi(t) <= psi(0) - 1/2 int_0^t |v|^2 ds.

    Dividing through by psi <= ||H|| |v|^2 gives the rate eps/(2||H||) of
    the "nonlinear" :func:`decay_envelope`.  That rate integrates to about
    3e-21 over 50 periods at mu0/2, so the envelope factor and any fixed
    contraction of ||v|| cannot show decay there; the dissipation inequality
    can, and it fails when H is solved at a different mu or the simulated
    damping is too small.  The envelope clause asserts the ratio
    ||v||^2 / envelope <= 1 itself, without the 1e-9 relative allowance of
    :func:`verify_envelope`'s verdict.
    """
    t0 = time.perf_counter()
    sol = sol_small_mu
    rho = 0.5
    g = shift_to_zero(pendulum_model)
    from mathieu_cert.model import quadratic_remainder_bound

    p = quadratic_remainder_bound(g, rho)
    q = q_of_mu(pendulum_model, None, p, sol.mu, grid)
    cert = attraction_certificate(sol, q, p, rho=rho)

    rng = np.random.default_rng(29)
    inits = np.vstack(
        [
            sample_attraction_boundary(sol, cert, 25, scale=1.0, rng=rng),
            sample_attraction_boundary(sol, cert, 13, scale=0.6, rng=rng),
            sample_attraction_boundary(sol, cert, 12, scale=0.25, rng=rng),
        ]
    )
    assert all(all(cert.membership(sol, v[0], v[1])) for v in inits)

    system = nonlinear_system(
        pendulum_model.alpha, pendulum_model.beta, pendulum_model.phi, g, sol.mu
    )
    horizon = 50 * TWO_PI
    trajs = integrate_batch(system, inits, horizon, 2048, record_stride=64)

    from scipy.integrate import trapezoid

    ok_envelope = True
    ok_decay = True
    worst_ratio = 0.0
    worst_margin = math.inf  # (psi(0) - 1/2 int |v|^2 - psi(50T)) / psi(0)
    for traj in trajs:
        # psi is read at nodes of H, so the samples must fall on them
        assert np.allclose(traj.times / sol.step, np.round(traj.times / sol.step))
        psi = np.array([sol.value(t, v) for t, v in zip(traj.times, traj.states)])
        dissipated = 0.5 * trapezoid(np.sum(traj.states ** 2, axis=1), traj.times)
        margin = (psi[0] - dissipated - psi[-1]) / psi[0]
        ok_decay = ok_decay and margin >= -1e-12
        worst_margin = min(worst_margin, margin)

        report = verify_envelope(
            traj, lambda t: decay_envelope(sol, Perturbation.zero(), psi[0], t, "nonlinear")
        )
        ok_envelope = ok_envelope and report.max_ratio <= 1.0
        worst_ratio = max(worst_ratio, report.max_ratio)

    elapsed = time.perf_counter() - t0
    ok = ok_envelope and ok_decay and elapsed < 30.0
    _report(6, ok, "attraction set: Lyapunov dissipation and envelope dominance over 50 periods",
            f"50 starts on/in the region boundary, worst dissipation margin "
            f"{worst_margin:.2e} psi0 (need >=-1e-12), envelope worst ratio "
            f"{worst_ratio:.3f} (need <=1); runtime<30s", elapsed)
    assert ok_decay, worst_margin
    assert ok_envelope, worst_ratio
    assert elapsed < 30.0


def test_criterion_7_correction_matrix_floors(lin, grid, transform, h1, chain):
    t0 = time.perf_counter()
    oks = []
    details = []
    for mu in (chain.mu1, chain.mu0):
        ts = build_u2_u3(lin, transform, mu)
        _, _, c, _, script_c = correction_matrices(ts, h1, grid)
        c_min = float(np.min(np.linalg.eigvalsh(c)))
        script_min = float(np.min(np.linalg.eigvalsh(script_c)))
        oks.append(c_min >= 0.75 - 1e-9)
        oks.append(script_min >= 0.5 - 1e-9)
        details.append(f"mu={mu:.3e}: min eig C {c_min:.6f}, adjusted {script_min:.6f}")
    elapsed = time.perf_counter() - t0
    ok = all(oks) and elapsed < 5.0
    _report(7, ok, "correction matrices stay above their 3/4 and 1/2 floors",
            "; ".join(details) + "; runtime<5s", elapsed)
    assert all(oks)
    assert elapsed < 5.0


def test_criterion_8_discretization_robustness(lin):
    t0 = time.perf_counter()

    def pipeline(grid_n, steps):
        grid = QuadratureGrid(TWO_PI, grid_n)
        tr = build_transform(lin, grid)
        u1 = build_u1(lin, tr)
        h1 = solve_constant_lyapunov(u1)
        chain = compute_bound_chain(lin, tr, u1, h1)
        return grid, tr, chain

    _, tr1, chain1 = pipeline(2048, 4096)
    _, tr2, chain2 = pipeline(4096, 8192)
    mu_eval = chain1.mu0 / 2.0
    sol1 = solve_periodic_lyapunov_scaled(lin, tr1, mu_eval, 4096)
    sol2 = solve_periodic_lyapunov_scaled(lin, tr2, mu_eval, 8192)

    def rel(a, b):
        return abs(a - b) / abs(b)

    drifts = {
        "mu0": rel(chain1.mu0, chain2.mu0),
        "h_min": rel(sol1.h_min, sol2.h_min),
        "h_max": rel(sol1.h_max, sol2.h_max),
        "budget_linear": rel(
            linear_budget(sol1).budget_phi_sup, linear_budget(sol2).budget_phi_sup
        ),
        "budget_nonlinear": rel(
            nonlinear_budget(sol1).budget_phi_sup, nonlinear_budget(sol2).budget_phi_sup
        ),
    }
    elapsed = time.perf_counter() - t0
    worst = max(drifts.values())
    ok = worst < 1e-6 and elapsed < 30.0
    _report(8, ok, "grid and step doubling moves certificate values by <1e-6 relative",
            f"worst drift {worst:.2e} ({max(drifts, key=drifts.get)}); runtime<30s", elapsed)
    assert worst < 1e-6, drifts
    assert elapsed < 30.0
