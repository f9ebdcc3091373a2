"""Seeded workload generator.

``generate(workload, seed, work)`` writes the model and perturbation JSON
files under ``work`` and returns the request list.  The same seed gives
byte-identical files and requests.  Random draws use ``random.Random``, whose
streams do not depend on the numpy version.

Each request is a dict with an ``id``, an ``expect`` dict for the output
checks and the work it represents, and either ``argv`` (a
``mathieu_cert.cli.main`` argument list) or ``batch`` (the library path of
``scripts/attraction_demo.py``).

What sets a request's cost - its shape: exit class, output format, number of
forcing harmonics, nonlinearity kind, horizon, chart size - follows a fixed
schedule that repeats every few requests.  The seed draws everything else:
harmonic indices and coefficients, alpha, beta, mu, perturbations and
initial states.  Every seed therefore runs the same mix in the same order,
so medians and tails compare across seeds.  Request 0, which ``setup_s``
includes, takes the first schedule entry with two harmonics and the
pendulum nonlinearity.

To place ``mu`` relative to the certified range the generator calls
``bogolyubov_condition`` and ``compute_bound_chain`` once per model.  None of
the request's own work runs here: no propagation, no Lyapunov solve and no
simulation.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import numpy as np

from mathieu_cert import (
    QuadratureGrid,
    bogolyubov_condition,
    build_transform,
    build_u1,
    compute_bound_chain,
    linearize,
    model_from_dict,
    solve_constant_lyapunov,
)

TWO_PI = 2.0 * math.pi
STEPS = 4096  # the CLI default steps per period
BATCH_STEPS = 2048  # steps per period used by scripts/attraction_demo.py
BATCH_N = 64  # boundary samples per attraction_batch request

# Smallest one-period decay 1 - rho an exit-0 request may have: ten times
# the 1e-9 below which the Lyapunov solver refuses the system as unstable.
# At small mu, 1 - rho is about mu * T * |max Re eig(U1)|.
MIN_DECAY = 1e-8

# Requests per workload: several times what one run reaches today, so no
# request repeats inside a run (repeats would reward caching across CLI
# invocations, which a real CLI user never gets).
POOL_SIZE = {
    "certify_mix": 240,
    "sweep_chart": 60,
    "simulate_cli": 60,
    "attraction_batch": 80,
}

WORKLOADS = tuple(POOL_SIZE)


def _fmt(x: float) -> float:
    """Round to 6 significant digits, so the files read well and round-trip exactly."""
    return float(f"{x:.6g}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return _fmt(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _harmonics(rng: random.Random, n: int) -> list[dict]:
    ks = sorted(rng.sample(range(1, 9), n))
    return [
        {"k": k, "cos": _fmt(rng.uniform(-1.0, 1.0)), "sin": _fmt(rng.uniform(-1.0, 1.0))}
        for k in ks
    ]


def _shape(rid: int) -> tuple[int, bool]:
    """(harmonic count, polynomial nonlinearity) of request ``rid``."""
    if rid == 0:
        return 2, False
    return 1 + rid % 4, (rid // 4) % 2 == 1


def _model_dict(rng: random.Random, rid: int, alpha: float, beta: float) -> dict:
    # both nonlinearity kinds have f'(gamma) = -1
    n_harm, poly = _shape(rid)
    if poly:
        f, gamma = {"kind": "polynomial", "coeffs": [-1.0, _fmt(rng.uniform(0.2, 1.0))]}, 0.0
    else:
        f, gamma = {"kind": "pendulum_sine"}, math.pi
    return {
        "alpha": alpha,
        "beta": beta,
        "phi": {"period": TWO_PI, "harmonics": _harmonics(rng, n_harm)},
        "f": f,
        "gamma": gamma,
    }


def _analyse(d: dict) -> tuple[bool, float, float, float, float]:
    """(averaged condition holds, relative margin, mu0, lowest exit-0 mu, 1/max(-a))."""
    model = model_from_dict(d)
    lin = linearize(model)
    grid = QuadratureGrid(lin.period, 2048)
    tr = build_transform(lin, grid)
    bog = bogolyubov_condition(lin, grid)
    margin = (bog.lhs - bog.rhs) / max(abs(bog.lhs), abs(bog.rhs))
    mu0 = floor = math.nan
    if bog.holds:
        u1 = build_u1(lin, tr)
        mu0 = compute_bound_chain(lin, tr, u1, solve_constant_lyapunov(u1)).mu0
        rate = -max(np.linalg.eigvals(u1).real)
        floor = MIN_DECAY / (lin.period * rate)
    neg_a = max(float(-min(tr.a.eval(grid.nodes))), 1e-300)
    return bog.holds, margin, mu0, floor, 1.0 / neg_a


def certifiable_model(rng: random.Random, rid: int) -> tuple[dict, float, float]:
    """A model whose certified range (0, mu0] has room above the mu floor.

    Returns (model dict, mu0, lowest mu to use for an exit-0 request).
    """
    for _ in range(2000):
        alpha = _log_uniform(rng, 0.1, 2.0)
        beta = _log_uniform(rng, 0.005, 0.5)
        d = _model_dict(rng, rid, alpha, beta)
        holds, margin, mu0, floor, _ = _analyse(d)
        if not holds or margin < 0.05:
            continue
        lo = max(floor, mu0 / 30.0)
        if lo < 0.35 * mu0:
            return d, mu0, lo
    raise RuntimeError("no certifiable model found")


def failing_model(rng: random.Random, rid: int) -> dict:
    """A model whose averaged condition fails by a clear margin (exit 3)."""
    for _ in range(2000):
        d = _model_dict(rng, rid, _log_uniform(rng, 0.05, 2.0), _log_uniform(rng, 1.0, 5.0))
        holds, margin, _, _, _ = _analyse(d)
        if not holds and margin < -0.05:
            return d
    raise RuntimeError("no failing model found")


class _Writer:
    """Writes numbered JSON input files and returns their relative paths."""

    def __init__(self, root: Path, rel: str):
        self.root = root
        self.rel = rel
        self.count = 0
        (root / rel).mkdir(parents=True, exist_ok=True)

    def write(self, prefix: str, obj: dict) -> str:
        rel = f"{self.rel}/{prefix}{self.count:04d}.json"
        self.count += 1
        text = json.dumps(obj, sort_keys=True, indent=1) + "\n"
        (self.root / rel).write_text(text, encoding="utf-8")
        return rel


def _perturbation(rng: random.Random, inside: bool) -> dict:
    # Certified budgets at mu <= mu0 sit between 1e-27 and 1e-21, so 1e-26
    # amplitudes times mu are always inside and 1e-6 always outside.
    scale = 1e-26 if inside else 1e-6
    return {
        "d_alpha": _fmt(scale * rng.uniform(0.1, 1.0)),
        "d_beta": 0.0,
        "d_phi": {
            "period": TWO_PI,
            "offset": _fmt(scale * rng.uniform(-1.0, 1.0)),
            "harmonics": [{"k": rng.randint(1, 8), "cos": _fmt(scale * rng.uniform(-1.0, 1.0)), "sin": 0.0}],
        },
    }


# ---------------------------------------------------------------------------
# certify_mix: `certify` (JSON and CSV) and `margins` over all three exit
# classes.  Loads the whole certificate pipeline: per exit-0 request two
# propagations, the scaled Lyapunov solve, bvp_residual, budgets and radii;
# per exit-2/3 request one propagation.  Bypasses trajectory integration.
# This is where a vectorized propagator and a compute-once pipeline show.

# (command, exit class, format, perturbation), repeating every 12 requests;
# exit 0 on 8 of 12, so the median request sits inside the exit-0 class
CERTIFY_SCHEDULE = (
    ("certify", 0, "json", None),
    ("certify", 2, "json", None),
    ("certify", 0, "csv", None),
    ("margins", 0, "json", None),
    ("certify", 3, "json", None),
    ("certify", 0, "json", "inside"),
    ("certify", 0, "json", None),
    ("margins", 2, "json", None),
    ("certify", 0, "csv", "outside"),
    ("margins", 0, "csv", None),
    ("certify", 3, "csv", None),
    ("certify", 0, "json", None),
)


def _certify_request(rng, w, out_rel, rid, spec) -> dict:
    cmd, code, fmt, pert = spec
    if code == 3:
        model = failing_model(rng, rid)
        mu = _log_uniform(rng, 1e-9, 1e-1)
    else:
        model, mu0, lo = certifiable_model(rng, rid)
        mu = _log_uniform(rng, lo, 0.7 * mu0) if code == 0 else _log_uniform(rng, 2.0 * mu0, 1e-1)
    argv = [cmd, "--model", w.write("model", model), "--mu", repr(mu)]
    if pert is not None:
        argv += ["--pert", w.write("pert", _perturbation(rng, pert == "inside"))]
    out = f"{out_rel}/r{rid:04d}.{fmt}"
    argv += ["--format", fmt, "--out", out]
    expect = {"command": cmd, "exit": code, "format": fmt, "pert": pert, "mu": mu, "work": 1}
    return {"id": rid, "argv": argv, "out": out, "expect": expect}


# ---------------------------------------------------------------------------
# sweep_chart: `sweep` charts of 1-2 betas x 5-7 log-spaced mus.  Computes only
# spectral radii (plus one bound chain per certifiable beta): no Lyapunov
# solve, no residual, no simulation.  Half of the charts end past
# 1/max(-a(t)), where the averaging transform degenerates, so this is the
# only workload that reaches the direct `matrizant` fallback of
# spectral_radius_linear_system.  Batching over mu shows here; compute-once
# changes should not move it.

SWEEP_DECADES = 7.0  # lowest mu = highest mu * 1e-7, down into certified range


# (betas, chart ends past the degeneracy point, mus); 1 beta on 3 of 4
SWEEP_SCHEDULE = ((1, False, 6), (1, True, 5), (2, False, 6), (1, True, 7))


def _sweep_request(rng, w, out_rel, rid, spec) -> dict:
    n_beta, past, n_mu = spec
    # keep 1/max(-a) in [0.3, 3]: charts then end at mu <= 7.5, where the
    # direct RK4 fallback at 4096 steps per period stays well resolved
    while True:
        model = _model_dict(rng, rid, _log_uniform(rng, 0.1, 2.0), 0.1)
        c = _analyse(model)[4]
        if 0.3 <= c <= 3.0:
            break
    hi = _fmt((2.5 if past else 0.5) * c)
    lo = _fmt(hi * 10.0 ** -SWEEP_DECADES)
    betas = sorted({_log_uniform(rng, 0.005, 1.5) for _ in range(n_beta)})
    out = f"{out_rel}/r{rid:04d}.csv"
    argv = [
        "sweep", "--model", w.write("model", model),
        "--mu-grid", f"log:{lo!r}:{hi!r}:{n_mu}",
        "--beta-grid", ",".join(repr(b) for b in betas),
        "--out", out,
    ]
    rows = len(betas) * n_mu
    return {"id": rid, "argv": argv, "out": out,
            "expect": {"command": "sweep", "exit": 0, "rows": rows, "work": rows}}


# ---------------------------------------------------------------------------
# simulate_cli: `simulate` of one nonlinear trajectory over 1-3 forcing
# periods at 4096 steps per period, stride 16, CSV to --out.  Dominated by
# width-1 RK4, where per-step Python and numpy overhead sets the cost, and by
# the per-row CSV formatting in cli.  One certificate plus the Lyapunov
# solve that simulate repeats is the minority share.  Initial states lie
# inside the certified region (envelope columns filled) or far outside
# (envelope columns NaN).


def _steps(periods: float, per_period: int, multiple: int) -> int:
    return multiple * round(periods * per_period / multiple)


# (RK4 steps, inside): horizons spread evenly over 1-3 periods, in an order
# that interleaves short and long ones
SIMULATE_SCHEDULE = tuple(
    (_steps(1.1 + 0.2 * j, STEPS, 16), j % 2 == 0) for j in (0, 5, 2, 7, 4, 9, 1, 6, 3, 8)
)


def _simulate_request(rng, w, out_rel, rid, spec) -> dict:
    steps, inside = spec
    model, mu0, lo = certifiable_model(rng, rid)
    mu = _log_uniform(rng, lo, 0.7 * mu0)
    # certified regions have <H(0)v,v> radii of 1e-60..1e-45 and Euclidean
    # caps near 1e-16, so |v| = 1e-62 is inside and |v| >= 1e-3 outside
    mag = 10.0 ** rng.uniform(-64.0, -62.0) if inside else 10.0 ** rng.uniform(-3.0, -1.0)
    th = rng.uniform(0.0, TWO_PI)
    y0, y1 = _fmt(mag * math.cos(th)), _fmt(mag * math.sin(th))
    out = f"{out_rel}/r{rid:04d}.csv"
    argv = [
        "simulate", "--model", w.write("model", model), "--mu", repr(mu),
        # "--y0=-1e-63": argparse reads a separate "-1e-63" as an option
        f"--y0={y0!r}", f"--y1={y1!r}", "--t-end", repr(steps * TWO_PI / STEPS),
        "--stride", "16", "--out", out,
    ]
    return {"id": rid, "argv": argv, "out": out,
            "expect": {"command": "simulate", "exit": 0, "inside": inside, "work": steps}}


# ---------------------------------------------------------------------------
# attraction_batch: the library path of scripts/attraction_demo.py -
# certificate and Lyapunov solution, sample_attraction_boundary (n = 64),
# integrate_batch over 1-2 periods, then decay_envelope and verify_envelope
# for every member.  The same RK4 layer as simulate_cli at width 64, where
# numpy array work dominates instead of per-step overhead; the only
# workload that covers sample_attraction_boundary and verify_envelope.


# RK4 steps per member: horizons spread over 1-2 periods, interleaved
ATTRACTION_SCHEDULE = tuple(_steps(1.125 + 0.25 * j, BATCH_STEPS, 64) for j in (0, 2, 1, 3))


def _attraction_request(rng, w, out_rel, rid, steps) -> dict:
    model, mu0, lo = certifiable_model(rng, rid)
    batch = {
        "model": w.write("model", model),
        "mu": _log_uniform(rng, lo, 0.7 * mu0),
        "t_end": steps * TWO_PI / BATCH_STEPS,
        "n": BATCH_N,
        "steps": BATCH_STEPS,
        "sample_seed": rng.randrange(2 ** 31),
    }
    return {"id": rid, "batch": batch,
            "expect": {"command": "attraction", "exit": 0, "work": BATCH_N * steps}}


# workload -> (request builder, schedule of request shapes)
_BUILDERS = {
    "certify_mix": (_certify_request, CERTIFY_SCHEDULE),
    "sweep_chart": (_sweep_request, SWEEP_SCHEDULE),
    "simulate_cli": (_simulate_request, SIMULATE_SCHEDULE),
    "attraction_batch": (_attraction_request, ATTRACTION_SCHEDULE),
}


def generate(workload: str, seed: int, work: Path, n: int | None = None) -> list[dict]:
    """Write the inputs of ``workload`` under ``work`` and return its requests.

    Paths inside the requests are relative to ``work``, the working
    directory the requests run in.  ``n`` overrides the pool size.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    w = _Writer(work, "inputs")
    (work / "outputs").mkdir(parents=True, exist_ok=True)
    make, schedule = _BUILDERS[workload]
    reqs = [make(rng, w, "outputs", rid, schedule[max(rid - 1, 0) % len(schedule)])
            for rid in range(n or POOL_SIZE[workload])]
    (work / "requests.json").write_text(
        json.dumps(reqs, sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    return reqs
