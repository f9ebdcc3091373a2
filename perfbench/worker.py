"""One benchmark process: a single closed-loop client in a fresh interpreter.

    python3 worker.py --requests requests.json --mode timed --seconds 10 --result out.json

The first import after the standard library is ``mathieu_cert.cli``; the
process then runs request 0 and prints ``ready``, which ends the ``setup_s``
interval that ``run.py`` measures from spawn.  After that:

* ``setup``: stop.
* ``timed``: run requests 1, 2, ... one after the other (each starts only
  after the previous returned) until ``--seconds`` have passed.
* ``trace``: run requests 1..``--count`` untraced, then the same requests
  again with every layer wrapped (see tracing.py), and write the spans to
  ``--spans``.

The result file lists, per request, its wall time, work and check outcome.
Requests run with the working directory set to the folder of
``requests.json``; their paths are relative to it.
"""

import argparse
import contextlib
import io
import itertools
import json
import os
import resource
import sys
import time
import traceback

import mathieu_cert as mc
import mathieu_cert.cli as cli  # setup_s covers this import
import numpy as np

import checks

BATCH_RHO = 0.5  # the --rho default of scripts/attraction_demo.py


def attraction_batch(b: dict) -> dict:
    """The library path of scripts/attraction_demo.py for one model."""
    with open(b["model"], encoding="utf-8") as fh:
        model = mc.model_from_dict(json.load(fh))
    lin = mc.linearize(model)
    grid = mc.QuadratureGrid(lin.period, 2048)
    tr = mc.build_transform(lin, grid)
    u1 = mc.build_u1(lin, tr)
    chain = mc.compute_bound_chain(lin, tr, u1, mc.solve_constant_lyapunov(u1))
    mu = b["mu"]
    sol = mc.solve_periodic_lyapunov_scaled(lin, tr, mu, 4096)
    g = mc.shift_to_zero(model)
    p = mc.quadratic_remainder_bound(g, BATCH_RHO)
    q = mc.q_of_mu(model, None, p, mu, grid)
    cert = mc.attraction_certificate(sol, q, p, rho=BATCH_RHO)
    inits = mc.sample_attraction_boundary(
        sol, cert, b["n"], rng=np.random.default_rng(b["sample_seed"])
    )
    system = mc.nonlinear_system(model.alpha, model.beta, model.phi, g, mu)
    trajs = mc.integrate_batch(system, inits, b["t_end"], b["steps"], record_stride=64)
    failed, worst = 0, 0.0
    zero = mc.Perturbation.zero()
    for traj in trajs:
        psi0 = sol.value_at_node(0, traj.states[0])
        report = mc.verify_envelope(
            traj, lambda t, psi0=psi0: mc.decay_envelope(sol, zero, psi0, t, "nonlinear")
        )
        failed += not report.passed
        worst = max(worst, report.max_ratio)
    return {"mu": mu, "mu0": chain.mu0, "h_min": sol.h_min, "h_max": sol.h_max,
            "failed_envelopes": failed, "max_ratio": worst}


def execute(req: dict):
    """Run one request; return (exit code, library result, stderr text)."""
    if "argv" in req:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(req["argv"])
        return code, None, err.getvalue()
    return 0, attraction_batch(req["batch"]), ""


def run_one(req: dict, tracer=None) -> dict:
    """Run and check one request; only the call itself is timed."""
    if "out" in req:
        with contextlib.suppress(FileNotFoundError):
            os.remove(req["out"])
    call = (lambda: execute(req)) if tracer is None else (
        lambda: tracer.run_request(req["id"], lambda: execute(req)))
    t0 = time.perf_counter()
    try:
        code, result, err = call()
    except Exception:  # a traceback is a failed request, not a crashed run
        dt = time.perf_counter() - t0
        return {"id": req["id"], "s": dt, "work": req["expect"]["work"],
                "fail": "exception: " + traceback.format_exc(limit=-3), "key": {}}
    dt = time.perf_counter() - t0
    reason, key = checks.check(req, code, result)
    if reason is not None and err:
        reason += f" (stderr: {err.strip()[-300:]})"
    return {"id": req["id"], "s": dt, "work": req["expect"]["work"], "fail": reason, "key": key}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--requests", required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--count", type=int, default=0, help="requests per trace pass")
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()
    result_path = os.path.abspath(args.result)
    spans_path = args.spans and os.path.abspath(args.spans)

    with open(args.requests, encoding="utf-8") as fh:
        reqs = json.load(fh)
    os.chdir(os.path.dirname(os.path.abspath(args.requests)))
    first = run_one(reqs[0])
    print("ready", flush=True)

    out = {"first": first, "requests": []}
    if args.mode == "timed":
        # the pool outlasts a run at today's speed; a much faster program
        # wraps around to request 1 and repeats inputs
        start = time.perf_counter()
        for req in itertools.cycle(reqs[1:]):
            if time.perf_counter() - start >= args.seconds:
                break
            out["requests"].append(run_one(req))
    elif args.mode == "trace":
        import tracing

        batch = reqs[1:1 + args.count]
        out["untraced"] = [run_one(r) for r in batch]
        tracer = tracing.Tracer()
        tracer.install()
        out["requests"] = [run_one(r, tracer) for r in batch]
        with open(spans_path, "w", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s) + "\n")
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
