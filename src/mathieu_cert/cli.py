"""Command-line front end: certify, margins, simulate, sweep.

Exit code protocol (scriptable batch studies rely on it):

    0   certified asymptotically stable at the requested mu
    1   malformed input or failed validation
    2   mu lies outside the certified range (0, mu0]; spectral radius is
        still reported
    3   the averaged stability condition fails (no certificate for any mu)

JSON output carries a top-level ``"schema": 1``.  CSV uses '.' decimals,
',' separators, one header row and '#'-prefixed comment lines.  Identical
inputs and flags produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .averaging import (
    AveragingTransform,
    BogolyubovResult,
    bogolyubov_condition,
    build_transform,
    build_u1,
    build_u2_u3,
)
from .bounds import BoundChain, compute_bound_chain
from .floquet_lyapunov import (
    PeriodicLyapunovSolution,
    UnstableSystemError,
    bvp_residual,
    matrizant,
    solve_constant_lyapunov,
    solve_periodic_lyapunov_scaled,
    spectral_radius_linear_system,
)
from .model import (
    LinearizedSystem,
    MathieuModel,
    PendulumParams,
    linearize,
    model_from_dict,
    model_to_dict,
    pendulum_reduce,
    quadratic_remainder_bound,
    shift_to_zero,
    system_matrix,
    system_matrix_entries,
)
from .periodic_signal import QuadratureGrid
from .robustness import (
    AttractionCertificate,
    Perturbation,
    attraction_certificate,
    decay_envelope,
    envelope_rate_integrals,
    linear_budget,
    nonlinear_budget,
    perturbation_from_dict,
    q_of_mu,
    q_tilde,
)
from .simulate import integrate, nonlinear_system

__all__ = ["main", "build_certificate", "Certificate"]

DEFAULT_RHO_PENDULUM = math.pi / 2.0


@dataclass(frozen=True)
class Certificate:
    """Assembled certificate payload plus the exit status it implies.

    ``sol`` is the periodic Lyapunov solution behind the payload, present
    only when the exit code is 0; ``attraction`` is the attraction set of
    the payload, present only when the perturbation is within the budgets.
    """

    payload: dict
    exit_code: int
    sol: PeriodicLyapunovSolution | None = None
    attraction: AttractionCertificate | None = None


def _budget_dict(b) -> dict:
    return {
        "level": b.level,
        "budget_phi_sup": b.budget_phi_sup,
        "budget_coeff": b.budget_coeff,
        "max_sup_d_phi_hat": b.budget_phi_sup / b.mu,
        "h_max": b.h_max,
    }


def _averaged_range(
    lin: LinearizedSystem, grid: QuadratureGrid
) -> tuple[AveragingTransform, BogolyubovResult, BoundChain | None]:
    """The mu-independent stages in order: transform, averaged test and,
    when the test holds, u1, h1 and the bound chain down to mu0."""
    tr = build_transform(lin, grid)
    bog = bogolyubov_condition(lin, grid)
    if not bog.holds:
        return tr, bog, None
    u1 = build_u1(lin, tr)
    return tr, bog, compute_bound_chain(lin, tr, u1, solve_constant_lyapunov(u1))


def build_certificate(
    model: MathieuModel,
    mu: float,
    pert: Perturbation | None = None,
    rho: float | None = None,
    grid_n: int = 2048,
    steps: int = 4096,
) -> Certificate:
    """Run the full certification pipeline for one model at one mu.

    Each stage runs once: on exit 0 the spectral radius is the one the
    Lyapunov solve propagated, and the solution is returned with the payload.
    """
    if not (math.isfinite(mu) and mu > 0.0):
        raise ValueError("mu must be positive and finite")
    lin = linearize(model)
    grid = QuadratureGrid(lin.period, grid_n)
    tr, bog, chain = _averaged_range(lin, grid)
    payload: dict = {
        "schema": 1,
        "tool_version": __version__,
        "model": model_to_dict(model),
        "mu": mu,
        "grid": {"quadrature_n": grid_n, "steps_per_period": steps},
        "bogolyubov": {"holds": bog.holds, "lhs": bog.lhs, "rhs": bog.rhs},
    }
    if chain is not None:
        payload["bound_chain"] = chain.as_dict()
    if chain is None or mu > chain.mu0:
        payload["spectral_radius_at_mu"] = spectral_radius_linear_system(lin, tr, mu, steps)
        return Certificate(payload=payload, exit_code=3 if chain is None else 2)

    sol = solve_periodic_lyapunov_scaled(lin, tr, mu, steps)
    _, phi_hat = tr.half_step_samples(steps)
    payload["spectral_radius_at_mu"] = sol.spectral_radius
    payload["lyapunov"] = {
        "h_min": sol.h_min,
        "h_max": sol.h_max,
        "bvp_residual_scaled": bvp_residual(sol, system_matrix(lin, mu, phi_hat[::2])),
    }
    b_lin = linear_budget(sol)
    b_nonlin = nonlinear_budget(sol)
    payload["budgets"] = {
        "linear": _budget_dict(b_lin),
        "nonlinear": _budget_dict(b_nonlin),
    }
    budgets_hold = pert is None or b_nonlin.is_admissible(pert)
    if pert is not None:
        mu_sup_d_phi_hat, mu_coeff_combo = b_nonlin.terms(pert)
        payload["budgets"]["perturbation"] = {
            "admissible_linear": b_lin.is_admissible(pert),
            "admissible_nonlinear": budgets_hold,
            "mu_sup_d_phi_hat": mu_sup_d_phi_hat,
            "mu_coeff_combo": mu_coeff_combo,
        }

    g = shift_to_zero(model)
    rho_eff = rho
    if rho_eff is None and g.kind == "pendulum_sine":
        rho_eff = DEFAULT_RHO_PENDULUM
    p = quadratic_remainder_bound(g, rho_eff)
    q = q_of_mu(model, pert, p, mu, grid)
    payload["nonlinearity"] = {
        "p": p,
        "rho": rho_eff,
        "q_mu": q,
        "q_tilde": q_tilde(q, sol.h_max),
    }
    if not budgets_hold:
        payload["attraction"] = payload["envelope"] = None
        return Certificate(payload=payload, exit_code=0, sol=sol)
    cert = attraction_certificate(sol, q, p, rho_eff)
    payload["attraction"] = cert.as_dict()
    payload["envelope"] = {
        "prefactor_over_v0_lyapunov": 4.0 / sol.h_min,
        "rate_per_period": envelope_rate_integrals(sol, pert, mu),
    }
    return Certificate(payload=payload, exit_code=0, sol=sol, attraction=cert)


# ---------------------------------------------------------------------------
# input loading


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read JSON file {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected a JSON object at top level")
    return data


_PENDULUM_KEYS = {"length_l", "gravity_g", "friction_lambda", "amplitude_a", "frequency_omega"}


def load_model(path: str) -> tuple[MathieuModel, float | None]:
    """Load a model file; pendulum physical-parameter files also fix mu = a/l."""
    data = _load_json(path)
    if _PENDULUM_KEYS.issubset(data.keys()):
        try:
            params = PendulumParams(**{k: float(data[k]) for k in sorted(_PENDULUM_KEYS)})
        except TypeError as exc:  # the key check above rules out KeyError
            raise ValueError(f"malformed pendulum parameters: {exc}") from exc
        return pendulum_reduce(params)
    return model_from_dict(data), None


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return {math.inf: "inf", -math.inf: "-inf"}.get(obj, "nan")
    return obj


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump_json(payload: dict, out: str | None) -> None:
    _emit(json.dumps(_jsonable(payload), sort_keys=True, indent=2) + "\n", out)


def _flatten(d: dict, prefix: str = "") -> list[tuple[str, object]]:
    rows: list[tuple[str, object]] = []
    for k in sorted(d.keys(), key=str):
        v = d[k]
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            rows.extend(_flatten(v, key + "."))
        else:
            rows.append((key, v))
    return rows


def _dump_flat_csv(payload: dict, out: str | None) -> None:
    rows = (f"{k},{json.dumps(v)}" for k, v in _flatten(_jsonable(payload)))
    _emit("\n".join(["key,value", *rows]) + "\n", out)


# ---------------------------------------------------------------------------
# grid specs for sweeps


def parse_grid_spec(spec: str) -> np.ndarray:
    """Grid specs: 'a,b,c' literal, 'lin:start:stop:n' or 'log:start:stop:n'."""
    spec = spec.strip()
    if not spec:
        return np.array([])
    if spec.startswith(("lin:", "log:")):
        kind, rest = spec.split(":", 1)
        parts = rest.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad grid spec {spec!r}: expected {kind}:start:stop:n")
        start, stop, n = float(parts[0]), float(parts[1]), int(parts[2])
        if n < 1:
            raise ValueError("grid spec needs n >= 1")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError(f"bad grid spec {spec!r}: endpoints must be finite")
        if kind == "lin":
            return np.linspace(start, stop, n)
        if start <= 0.0 or stop <= 0.0:
            raise ValueError("log grid endpoints must be positive")
        return np.geomspace(start, stop, n)
    values = np.array([float(x) for x in spec.split(",") if x.strip() != ""])
    if not np.all(np.isfinite(values)):
        raise ValueError(f"bad grid spec {spec!r}: values must be finite")
    return values


# ---------------------------------------------------------------------------
# subcommands


def _certificate_from_flags(args) -> tuple[MathieuModel, float, Perturbation | None, Certificate]:
    """Model, mu and perturbation (``--pert`` and ``--rho`` where the subcommand
    takes them) from the flags, and the certificate they give."""
    model, derived_mu = load_model(args.model)
    mu = args.mu if args.mu is not None else derived_mu
    if mu is None:
        raise ValueError("--mu is required for model files (pendulum files derive it)")
    pert = None
    if getattr(args, "pert", None):
        pert = perturbation_from_dict(_load_json(args.pert), model)
    cert = build_certificate(
        model, mu, pert=pert, rho=getattr(args, "rho", None), grid_n=args.grid, steps=args.steps
    )
    return model, mu, pert, cert


def _dump_payload(payload: dict, args) -> None:
    """``payload`` as ``--format`` asks: JSON, or flat CSV."""
    (_dump_flat_csv if args.format == "csv" else _dump_json)(payload, args.out)


def _cmd_certify(args) -> int:
    model, mu, _, cert = _certificate_from_flags(args)
    if args.dump_transform:
        _dump_transform(model, mu, args.grid, args.dump_transform)
    if args.dump_lyapunov and cert.exit_code == 0:
        _dump_lyapunov(cert.sol, args.dump_lyapunov)
    if args.dump_matrizant:
        _dump_matrizant(model, mu, args.steps, args.dump_matrizant)
    _dump_payload(cert.payload, args)
    return cert.exit_code


def _cmd_margins(args) -> int:
    _, mu, _, cert = _certificate_from_flags(args)
    # outside the certified range the budgets do not exist: the certificate stands in
    payload = cert.payload if cert.exit_code else {
        "schema": 1,
        "tool_version": __version__,
        "mu": mu,
        "h_max": cert.payload["lyapunov"]["h_max"],
        "budgets": cert.payload["budgets"],
    }
    _dump_payload(payload, args)
    return cert.exit_code


def _fmt(x: float) -> str:
    return repr(float(x))


def _table(header: str, *columns) -> str:
    """CSV rows of ``columns`` under ``header``, each float written as its repr."""
    rows = np.column_stack(columns).tolist()
    return "\n".join([header, *(",".join(map(repr, row)) for row in rows)]) + "\n"


def _cmd_simulate(args) -> int:
    model, mu, pert, cert = _certificate_from_flags(args)
    if cert.exit_code != 0:
        _dump_json(cert.payload, args.out)
        return cert.exit_code

    sol = cert.sol
    g = shift_to_zero(model)
    system = nonlinear_system(model.alpha, model.beta, model.phi, g, mu, pert)
    traj = integrate(system, args.y0, args.y1, args.t_end, args.steps, args.stride)

    psi0 = sol.value_at_node(0, np.array([args.y0, args.y1]))
    in_lyap, in_euclid = cert.attraction.membership(sol, args.y0, args.y1) if cert.attraction else (False, False)
    env_ok = in_lyap and in_euclid
    if env_ok:
        env = decay_envelope(sol, pert, psi0, traj.times, "nonlinear")
    else:
        env = np.full_like(traj.times, math.nan)

    lines = [
        f"# mathieu-cert simulate schema=1 tool_version={__version__}",
        f"# mu={_fmt(mu)} y0={_fmt(args.y0)} y1={_fmt(args.y1)} t_end={_fmt(traj.times[-1])}",
        f"# system={traj.system_tag} steps_per_period={args.steps} stride={args.stride}",
        f"# initial_lyapunov_value={_fmt(psi0)}",
        f"# inside_lyapunov_region={str(in_lyap).lower()} inside_euclid_region={str(in_euclid).lower()}",
        f"# envelope_certified={str(env_ok).lower()} diverged={str(traj.diverged).lower()}",
    ]
    y, yp = traj.states.T
    table = _table(
        "t,y,y_prime,lyapunov_value,envelope,margin",
        traj.times, y, yp, sol.value(traj.times, traj.states), env, env - (y * y + yp * yp),
    )
    _emit("\n".join(lines) + "\n" + table, args.out)
    return 0


def _sweep_grid(flag: str, spec: str) -> np.ndarray:
    """The values of a sweep grid ``flag``, refused by the flag's name unless positive."""
    try:
        values = parse_grid_spec(spec)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None
    if np.any(values <= 0.0):
        raise ValueError(f"{flag}: sweep grids must be positive")
    return values


def _cmd_sweep(args) -> int:
    model, _ = load_model(args.model)
    mu_grid = _sweep_grid("--mu-grid", args.mu_grid)
    beta_grid = _sweep_grid("--beta-grid", args.beta_grid)
    lines = [
        f"# mathieu-cert sweep schema=1 tool_version={__version__}",
        "beta,mu,spectral_radius,certified_by_mu0",
    ]
    for beta in sorted(float(b) for b in beta_grid):
        lin = linearize(replace(model, beta=beta))
        tr, _, chain = _averaged_range(lin, QuadratureGrid(lin.period, args.grid))
        for mu in sorted(float(m) for m in mu_grid):
            rho = spectral_radius_linear_system(lin, tr, mu, args.steps)
            certified = chain is not None and mu <= chain.mu0
            lines.append(f"{_fmt(beta)},{_fmt(mu)},{_fmt(rho)},{str(certified).lower()}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# debug dumps


def _dump_transform(model: MathieuModel, mu: float, grid_n: int, path: str) -> None:
    lin = linearize(model)
    grid = QuadratureGrid(lin.period, grid_n)
    tr = build_transform(lin, grid)
    ts = build_u2_u3(lin, tr, mu)
    nodes = grid.nodes
    payload = {
        "schema": 1,
        "mu": mu,
        "u1": ts.u1.tolist(),
        "mean_phi_a": ts.mean_phi_a,
        "t": nodes.tolist(),
        "u2": ts.u2_at(nodes).tolist(),
        "u3": ts.u3_at(nodes).tolist(),
    }
    _dump_json(payload, path)


def _dump_lyapunov(sol: PeriodicLyapunovSolution, path: str) -> None:
    H = sol.H
    _emit(_table("t,h11,h12,h22,h_min_t,h_norm_t", sol.times, H[:, 0, 0], H[:, 0, 1],
                 H[:, 1, 1], sol.hmin_nodes, sol.hnorm_nodes), path)


def _dump_matrizant(model: MathieuModel, mu: float, steps: int, path: str) -> None:
    lin = linearize(model)
    times, Y = matrizant(system_matrix_entries(lin, mu), lin.period, steps)
    _emit(_table("t,y11,y12,y21,y22", times, Y[:, 0, 0], Y[:, 0, 1], Y[:, 1, 0], Y[:, 1, 1]),
          path)


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes "-1e-3" or "-inf" for an option, so "--y0 -1e-3" lacked its
        # value; no option of this parser looks like a number
        self._negative_number_matcher = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.I)

    # argparse exits with 2 on usage errors, which collides with the
    # "outside certified range" status; remap to the input-error code
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(
    p: argparse.ArgumentParser, need_mu: bool = True, formats: tuple = ("json", "csv")
) -> None:
    p.add_argument("--model", required=True, help="model or pendulum-parameter JSON file")
    if need_mu:
        p.add_argument("--mu", type=float, default=None, help="small parameter value")
    p.add_argument("--grid", type=int, default=2048, help="--dump-transform panels per period")
    p.add_argument("--steps", type=int, default=4096, help="integrator steps per period")
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=formats, default=formats[0])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mathieu-cert", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"mathieu-cert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="full stability certificate at one mu")
    _add_common(p)
    p.add_argument("--pert", default=None, help="perturbation JSON file")
    p.add_argument("--rho", type=float, default=None, help="quadratic remainder radius")
    p.add_argument("--dump-transform", default=None, help="write U1/U2/U3 grids as JSON")
    p.add_argument("--dump-lyapunov", default=None, help="write H(t) grid as CSV")
    p.add_argument("--dump-matrizant", default=None, help="write Y(t) grid as CSV")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("margins", help="perturbation budgets at one mu")
    _add_common(p)
    p.set_defaults(func=_cmd_margins)

    p = sub.add_parser("simulate", help="nonlinear trajectory with envelope columns")
    # the trajectory table is CSV only; exits 2 and 3 write the certificate JSON
    _add_common(p, formats=("csv",))
    p.add_argument("--pert", default=None, help="perturbation JSON file")
    p.add_argument("--rho", type=float, default=None, help="quadratic remainder radius")
    p.add_argument("--y0", type=float, required=True, help="initial deviation")
    p.add_argument("--y1", type=float, required=True, help="initial velocity")
    p.add_argument("--t-end", type=float, required=True, dest="t_end")
    p.add_argument("--stride", type=int, default=16, help="record every Nth step")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="spectral-radius chart over (beta, mu)")
    _add_common(p, need_mu=False, formats=("csv",))
    p.add_argument("--mu-grid", required=True, dest="mu_grid", help="e.g. log:1e-4:1e-1:20")
    p.add_argument("--beta-grid", required=True, dest="beta_grid", help="e.g. lin:0.1:0.6:11")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # usage error (1) or --version/--help (0)
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, UnstableSystemError, ArithmeticError) as exc:
        print(f"mathieu-cert: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
