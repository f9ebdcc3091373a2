#!/usr/bin/env python3
"""Sample the certified attraction region and watch the nonlinear flow.

Initial states are drawn on the boundary of the certified region, the
perturbed-free nonlinear pendulum is integrated over many forcing periods,
and every trajectory is checked against the certified decay envelope.  The
envelope construction carries an exact factor-4 headroom, so the worst
observed ratio ||v||^2 / envelope should approach 0.25 from below.
"""

import argparse
import math

import numpy as np

from mathieu_cert import (
    MathieuModel,
    Nonlinearity,
    PeriodicSignal,
    Perturbation,
    QuadratureGrid,
    attraction_certificate,
    build_transform,
    build_u1,
    compute_bound_chain,
    decay_envelope,
    integrate_batch,
    linearize,
    nonlinear_system,
    q_of_mu,
    quadratic_remainder_bound,
    sample_attraction_boundary,
    shift_to_zero,
    solve_constant_lyapunov,
    solve_periodic_lyapunov_scaled,
    verify_envelope,
)

TWO_PI = 2.0 * math.pi


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--alpha", type=float, default=0.1)
    ap.add_argument("--beta", type=float, default=0.25)
    ap.add_argument("--rho", type=float, default=0.5)
    ap.add_argument("--n", type=int, default=16, help="number of boundary samples")
    ap.add_argument("--periods", type=int, default=50)
    args = ap.parse_args()

    model = MathieuModel(
        alpha=args.alpha,
        beta=args.beta,
        phi=PeriodicSignal(TWO_PI, ((1, 0.0, -1.0),)),
        f=Nonlinearity("pendulum_sine"),
        gamma=math.pi,
    )
    lin = linearize(model)
    grid = QuadratureGrid(TWO_PI, 2048)
    tr = build_transform(lin, grid)
    u1 = build_u1(lin, tr)
    chain = compute_bound_chain(lin, tr, u1, solve_constant_lyapunov(u1))
    mu = chain.mu0 / 2.0
    print(f"certified range (0, {chain.mu0:.6g}]; operating at mu = {mu:.6g}")

    sol = solve_periodic_lyapunov_scaled(lin, tr, mu, 4096)
    g = shift_to_zero(model)
    p = quadratic_remainder_bound(g, args.rho)
    q = q_of_mu(model, None, p, mu, grid)
    cert = attraction_certificate(sol, q, p, rho=args.rho)
    print(f"attraction region: <H(0)v,v> <= {cert.lyapunov_radius_sq:.6g}, "
          f"||v|| <= {cert.euclid_radius:.6g}")

    inits = sample_attraction_boundary(sol, cert, args.n, rng=np.random.default_rng(0))
    system = nonlinear_system(model.alpha, model.beta, model.phi, g, mu)
    trajs = integrate_batch(system, inits, args.periods * TWO_PI, 2048, record_stride=64)

    # the members share their times, and only the prefactor depends on psi0
    unit = decay_envelope(sol, Perturbation.zero(), 1.0, trajs[0].times, "nonlinear")
    worst_ratio = 0.0
    worst_decay = 0.0
    all_pass = True
    for traj in trajs:
        psi0 = sol.value_at_node(0, traj.states[0])
        report = verify_envelope(traj, lambda t: psi0 * unit)
        all_pass = all_pass and report.passed
        worst_ratio = max(worst_ratio, report.max_ratio)
        worst_decay = max(
            worst_decay,
            float(np.linalg.norm(traj.states[-1]) / np.linalg.norm(traj.states[0])),
        )
    print(f"{args.n} trajectories over {args.periods} periods:")
    print(f"  envelope dominance: {'all pass' if all_pass else 'VIOLATION'}")
    print(f"  worst ||v||^2/envelope ratio: {worst_ratio:.6f} (headroom bound 0.25)")
    print(f"  worst ||v(T_end)||/||v(0)||: {worst_decay:.8f}")
    rate = args.alpha * mu / 2.0
    print(f"  note: the certified contraction rate alpha*mu/2 = {rate:.3e} per unit "
          f"time makes visible decay need ~{1.0 / (rate * TWO_PI):.3g} periods")


if __name__ == "__main__":
    main()
