#!/usr/bin/env python3
"""Benchmark of mathieu-cert: seeded workloads, checked outputs, metrics.

    python3 perfbench/run.py --workload certify_mix --seed 0 --seconds 20 --trace 0

Run from the repository root (the folder holding ``src/``).  Inputs are
generated from ``--seed`` into ``.perfbench_work/<workload>/``, the program
runs from ``src/`` in fresh interpreters, and the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The lines
before it print every metric by name and unit.

``--trace 0`` measures the end-to-end metrics: ``SETUP_SPAWNS`` fresh
interpreters each import ``mathieu_cert.cli`` and run request 0 (the
``setup_s`` samples); the last one then runs a closed loop of requests for
``--seconds``.  ``--trace 1`` is the separate traced run that gives the
per-layer metrics.  README.md documents every metric.

``--write-reference`` records the key output values of a ``--seed 0`` run in
reference.json; later ``--seed 0`` runs fail when a value drifts by more
than 1e-6 relative.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 0
SETUP_SPAWNS = 3
IMPORTTIME_SPAWNS = 3
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
SPAWN_TIMEOUT_S = 60.0

# requests per trace pass: whole blocks of the workload mix (workloads.py)
TRACE_REQUESTS = {"certify_mix": 36, "sweep_chart": 8, "simulate_cli": 10, "attraction_batch": 8}

# the unit of work_per_s on each workload, printed under its own name
WORK_NAME = {
    "certify_mix": "certificates_per_s",
    "sweep_chart": "radii_per_s",
    "simulate_cli": "rk4_steps_per_s",
    "attraction_batch": "member_steps_per_s",
}

# per-layer metrics: (module.function, kind); see README.md for what each
# should move
LAYER_METRICS = (
    ("floquet_lyapunov.deviation_matrizant", "calls"),
    ("floquet_lyapunov.deviation_matrizant", "self_s"),
    ("floquet_lyapunov.matrizant", "calls"),
    ("floquet_lyapunov.matrizant", "self_s"),
    ("floquet_lyapunov.solve_periodic_lyapunov_scaled", "calls"),
    ("floquet_lyapunov.solve_periodic_lyapunov_scaled", "self_s"),
    ("floquet_lyapunov.spectral_radius_linear_system", "calls"),
    ("floquet_lyapunov.bvp_residual", "self_s"),
    ("averaging.build_u2_u3", "calls"),
    ("averaging.build_u2_u3", "self_s"),
    ("averaging.build_u1", "calls"),
    ("averaging.bogolyubov_condition", "self_s"),
    ("averaging.build_transform", "self_s"),
    ("periodic_signal.integrate", "calls"),
    ("periodic_signal.integrate", "self_s"),
    ("periodic_signal.sup_norm", "self_s"),
    ("bounds.compute_bound_chain", "calls"),
    ("bounds.compute_bound_chain", "self_s"),
    ("model.linearize", "calls"),
    ("robustness.q_of_mu", "self_s"),
    ("robustness.envelope_rate_integrals", "self_s"),
    ("robustness.decay_envelope", "calls"),
    ("robustness.decay_envelope", "self_s"),
    ("robustness.sample_attraction_boundary", "self_s"),
    ("simulate.integrate", "calls"),
    ("simulate.integrate", "self_s"),
    ("simulate.integrate_batch", "self_s"),
    ("simulate.verify_envelope", "self_s"),
    ("cli.main", "calls"),
    ("cli.main", "self_s"),
)
PROPAGATORS = ("floquet_lyapunov.deviation_matrizant", "floquet_lyapunov.matrizant")
IMPORT_GROUPS = ("numpy", "scipy", "mathieu_cert")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(root: Path, work: Path, mode: str, extra=(), importtime=False):
    """Start a worker; return (process, seconds from spawn to its ``ready``)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        str(WORKER), "--requests", str(work / "requests.json"), "--mode", mode,
        "--result", str(work / f"result-{mode}.json"), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=_env(root), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE if importtime else None, text=True)
    ready, _, _ = select.select([proc.stdout], [], [], SPAWN_TIMEOUT_S)
    line = proc.stdout.readline() if ready else ""
    dt = time.perf_counter() - t0
    if line.strip() != "ready":
        _finish(proc, 10.0)
        raise BenchError(f"worker ({mode}) did not get through import and request 0")
    return proc, dt


def _finish(proc, timeout: float) -> str:
    """Wait for a worker, killing it after ``timeout``; return its stderr."""
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return err or ""


def _read_result(work: Path, mode: str) -> dict:
    with open(work / f"result-{mode}.json", encoding="utf-8") as fh:
        return json.load(fh)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ts = sorted(times)
    n = len(ts)
    if n <= TAIL_BEYOND:
        return ts[-1], 100.0
    return ts[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _reference_drift(workload: str, records: list[dict]) -> tuple[int, str | None]:
    """Compare key values with reference.json; (values compared, first drift)."""
    if not REFERENCE.exists():
        return 0, None
    ref = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload, {})
    compared = 0
    for rec in records:
        want = ref.get(str(rec["id"]))
        if want is None or rec["fail"]:
            continue
        msg = checks.drift(want, rec["key"])
        if msg is not None:
            return compared, f"request {rec['id']}: {msg}"
        compared += 1
    return compared, None


def _write_reference(workload: str, records: list[dict]) -> None:
    ref = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    ref[workload] = {str(r["id"]): r["key"] for r in records if not r["fail"]}
    REFERENCE.write_text(json.dumps(ref, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def timed_run(root: Path, work: Path, workload: str, seconds: float):
    """End-to-end metrics; returns (metrics, checked records, notes)."""
    setups = []
    setup_records = []
    for i in range(SETUP_SPAWNS):
        last = i == SETUP_SPAWNS - 1
        mode = "timed" if last else "setup"
        extra = ["--seconds", repr(seconds)] if last else []
        proc, dt = _spawn(root, work, mode, extra)
        setups.append(dt)
        _finish(proc, seconds + 120.0 if last else 60.0)
        if not last:
            setup_records.append(_read_result(work, "setup")["first"])
    res = _read_result(work, "timed")
    loop = res["requests"]
    if not loop:
        raise BenchError("no request finished inside the measured interval")
    times = [r["s"] for r in loop]
    t_val, t_pct = tail(times)
    records = setup_records + [res["first"]] + loop
    failed = sum(1 for r in records if r["fail"])
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "request_p50_s": _metric(statistics.median(times), "s"),
        "request_tail_s": _metric(t_val, "s"),
        "ok_ratio": _metric((len(records) - failed) / len(records), "ratio"),
        "peak_rss_mb": _metric(res["peak_rss_mb"], "MB"),
        "work_per_s": _metric(sum(r["work"] for r in loop) / sum(times), "1/s"),
    }
    notes = [
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}",
        f"requests timed: {len(loop)} ({len({r['id'] for r in loop})} distinct)",
        f"request_tail_s is p{t_pct:.1f} of {len(loop)} requests",
        f"failed_ratio = {failed / len(records):.6g} ({failed} of {len(records)})",
        f"{WORK_NAME[workload]} = {metrics['work_per_s']['value']:.6g}",
    ]
    return metrics, records, notes


def _import_split(stderr: str) -> dict:
    """Cumulative import seconds per package group from ``-X importtime``.

    Lines print children before parents, deeper ones indented two spaces per
    level.  A group's time sums the cumulative time of its outermost lines;
    numpy modules first imported by scipy count for scipy, so numpy_s and
    scipy_s are disjoint, and mathieu_cert_s holds both.
    """
    rows = []
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", line)
        if m:
            rows.append((len(m.group(3)) // 2, m.group(4), int(m.group(2)) * 1e-6))
    out = dict.fromkeys(IMPORT_GROUPS, 0.0)
    ancestors: list = []  # (depth, name) of the enclosing lines, walking backwards
    for depth, name, cum in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        group = name.split(".")[0]
        outer = {a[1].split(".")[0] for a in ancestors}
        if group in out and not outer & {group, *IMPORT_GROUPS[:2]}:
            out[group] += cum
        ancestors.append((depth, name))
    return out


def layer_metrics(spans: list, untraced: list[dict], traced: list[dict], imports: dict) -> dict:
    """Per-layer metrics from one traced pass (see README.md)."""
    own = tracing.self_times(spans)
    calls: dict = {}
    self_s: dict = {}
    work: dict = {}
    for s, t in zip(spans, own):
        calls[s[0]] = calls.get(s[0], 0) + 1
        self_s[s[0]] = self_s.get(s[0], 0.0) + t
        work[s[0]] = work.get(s[0], 0) + s[5]
    n = len(traced)

    def rate(names):
        busy = sum(self_s.get(x, 0.0) for x in names)
        return sum(work.get(x, 0) for x in names) / busy if busy > 0.0 else 0.0

    m = {}
    for name, kind in LAYER_METRICS:
        if kind == "calls":
            m[f"{name}.calls"] = _metric(calls.get(name, 0), "count")
        else:
            m[f"{name}.self_s"] = _metric(self_s.get(name, 0.0), "s")
    m["floquet_lyapunov.rk4_steps_per_s"] = _metric(rate(PROPAGATORS), "1/s")
    passes = sum(calls.get(x, 0) for x in PROPAGATORS)
    m["floquet_lyapunov.passes_per_request"] = _metric(passes / n, "count")
    m["simulate.rk4_steps"] = _metric(work.get("simulate.integrate", 0), "count")
    m["simulate.rk4_steps_per_s"] = _metric(rate(["simulate.integrate"]), "1/s")
    m["simulate.member_steps_per_s"] = _metric(rate(["simulate.integrate_batch"]), "1/s")
    for group in IMPORT_GROUPS:
        m[f"setup.import.{group}_s"] = _metric(imports[group], "s")
    m["trace.requests"] = _metric(n, "count")
    overhead = (sum(r["s"] for r in traced) - sum(r["s"] for r in untraced)) / n
    m["trace.overhead_s"] = _metric(overhead, "s")
    return m


def trace_run(root: Path, work: Path, workload: str, count: int | None = None):
    """Per-layer metrics; returns (metrics, checked records, notes, spans)."""
    splits = []
    for _ in range(IMPORTTIME_SPAWNS):
        proc, _ = _spawn(root, work, "setup", importtime=True)
        splits.append(_import_split(_finish(proc, 60.0)))
    imports = {g: statistics.median(s[g] for s in splits) for g in IMPORT_GROUPS}
    count = count or TRACE_REQUESTS[workload]
    spans_path = work / "spans.jsonl"
    proc, _ = _spawn(root, work, "trace", ["--count", str(count), "--spans", str(spans_path)])
    _finish(proc, 170.0)
    res = _read_result(work, "trace")
    with open(spans_path, encoding="utf-8") as fh:
        spans = [json.loads(line) for line in fh]
    metrics = layer_metrics(spans, res["untraced"], res["requests"], imports)
    records = [res["first"]] + res["untraced"] + res["requests"]
    notes = [f"traced pass: {count} requests, {len(spans)} spans"]
    return metrics, records, notes, spans


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="record the key values of this --seed 0 run in reference.json")
    args = ap.parse_args(argv)
    if args.write_reference and args.seed != DEFAULT_SEED:
        ap.error(f"--write-reference records --seed {DEFAULT_SEED} only")

    root = Path.cwd()
    work = root / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    reqs = workloads.generate(args.workload, args.seed, work)

    if args.trace:
        metrics, records, notes, _ = trace_run(root, work, args.workload)
    else:
        metrics, records, notes = timed_run(root, work, args.workload, args.seconds)
    failed = sum(1 for r in records if r["fail"])
    for r in records:
        if r["fail"]:
            notes.append(f"FAILED request {r['id']}: {r['fail']}")
    correct = failed == 0
    if args.seed == DEFAULT_SEED:
        if args.write_reference:
            _write_reference(args.workload, records)
            notes.append(f"reference.json: recorded {args.workload}")
        else:
            compared, drift = _reference_drift(args.workload, records)
            notes.append(f"reference drift check: {compared} requests compared")
            if drift is not None:
                notes.append(f"DRIFT {drift}")
                correct = False
    print(f"workload {args.workload}, seed {args.seed}, pool {len(reqs)} requests")
    for line in notes:
        print(line)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    root = Path.cwd()
    if not (root / "src" / "mathieu_cert" / "__init__.py").is_file():
        print("run.py: run from the repository root; src/mathieu_cert not found",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(root / "src"))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        sys.exit(1)
