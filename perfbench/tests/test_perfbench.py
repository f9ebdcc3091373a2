"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Run from the repository root; the traced-run test spawns workers and takes
about half a minute.
"""

import json
from pathlib import Path

import pytest

import checks
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]


def _tree(path: Path) -> dict:
    return {p.relative_to(path).as_posix(): p.read_bytes()
            for p in sorted(path.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    a = workloads.generate(workload, 7, tmp_path / "a", n=13)
    b = workloads.generate(workload, 7, tmp_path / "b", n=13)
    workloads.generate(workload, 8, tmp_path / "c", n=13)
    assert a == b
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")


def test_request_shapes_do_not_depend_on_the_seed(tmp_path):
    shapes = []
    for seed in (1, 2):
        reqs = workloads.generate("certify_mix", seed, tmp_path / str(seed), n=25)
        shapes.append([(r["expect"]["command"], r["expect"]["exit"], r["expect"]["format"])
                       for r in reqs])
    assert shapes[0] == shapes[1]


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


def test_checks_reject_wrong_certificates(tmp_path):
    req = {"out": str(tmp_path / "o.json"),
           "expect": {"command": "certify", "exit": 0, "format": "json", "pert": None,
                      "mu": 1e-8, "work": 1}}
    good = {"mu": 1e-8, "spectral_radius_at_mu": 0.999, "bound_chain": {"mu0": 2e-8},
            "lyapunov": {"h_min": 1.0, "h_max": 5.0}}
    _write(tmp_path / "o.json", json.dumps(good))
    assert checks.check(req, 0) == (None, {"exit": 0, "spectral_radius_at_mu": 0.999,
                                           "mu0": 2e-8, "h_min": 1.0, "h_max": 5.0})
    assert checks.check(req, 1)[0] == "exit 1, expected 0"
    for bad in ({"spectral_radius_at_mu": 1.0}, {"bound_chain": {"mu0": 5e-9}},
                {"lyapunov": {"h_min": 6.0, "h_max": 5.0}}, {"lyapunov": {"h_min": "nan", "h_max": 5.0}}):
        _write(tmp_path / "o.json", json.dumps({**good, **bad}))
        assert checks.check(req, 0)[0] is not None, bad


def test_checks_reject_nan_in_certified_trajectory(tmp_path):
    req = {"out": str(tmp_path / "t.csv"),
           "expect": {"command": "simulate", "exit": 0, "inside": True, "work": 16}}
    head = ("# inside_lyapunov_region=true inside_euclid_region=true\n"
            "# envelope_certified=true diverged=false\n"
            "t,y,y_prime,lyapunov_value,envelope,margin\n")
    _write(tmp_path / "t.csv", head + "0.0,1e-9,0.0,1.0,1.0,1.0\n0.1,1e-9,0.0,1.0,1.0,1.0\n")
    assert checks.check(req, 0)[0] is None
    _write(tmp_path / "t.csv", head + "0.0,1e-9,0.0,1.0,1.0,1.0\n0.1,1e-9,0.0,1.0,nan,nan\n")
    assert checks.check(req, 0)[0] == "non-finite envelope"


def test_drift_is_relative():
    assert checks.drift({"a": 1.0, "b": [2.0, 3.0]}, {"a": 1.0 + 1e-7, "b": [2.0, 3.0]}) is None
    assert checks.drift({"a": 1.0}, {"a": 1.0 + 1e-5}) is not None


def test_import_split_counts_outermost_lines():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |       numpy.random",
        "import time:       400 |        450 |     scipy.special",
        "import time:       100 |        550 |   scipy",
        "import time:        10 |        860 | mathieu_cert",
    ])
    assert run._import_split(text) == pytest.approx(
        {"numpy": 300e-6, "scipy": 550e-6, "mathieu_cert": 860e-6})


def test_missing_layer_name_fails_loudly(monkeypatch):
    monkeypatch.setitem(tracing.LAYERS, "bounds", ("compute_bound_chain", "no_such_function"))
    with pytest.raises(LookupError, match="no_such_function"):
        tracing.Tracer().install()


def test_traced_runs_repeat_counts_and_nest_self_times(tmp_path):
    n = len(workloads.CERTIFY_SCHEDULE)
    runs = []
    for name in ("a", "b"):
        work = tmp_path / name
        workloads.generate("certify_mix", 3, work, n=n + 1)
        metrics, records, _, spans = run.trace_run(ROOT, work, "certify_mix", count=n)
        assert not [r["fail"] for r in records if r["fail"]]
        runs.append((metrics, spans))
    counts = [{k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}
              for metrics, _ in runs]
    assert counts[0] == counts[1]

    metrics, spans = runs[0]
    # two propagations per exit-0 request, one per exit-2/3 request
    reqs = json.loads((tmp_path / "a" / "requests.json").read_text())
    want = {r["id"]: 2 if r["expect"]["exit"] == 0 else 1 for r in reqs[1:]}
    got = {}
    for s in spans:
        if s[0] == tracing.REQUEST:
            got.setdefault(s[4], 0)
        elif s[0] in run.PROPAGATORS:
            got[s[4]] += 1
    assert got == want

    own = tracing.self_times(spans)
    for i, s in enumerate(spans):
        if s[0] != tracing.REQUEST:
            continue
        inside = [own[j] for j, t in enumerate(spans) if t[4] == s[4]]
        assert all(-1e-9 <= t <= s[2] - s[1] + 1e-9 for t in inside)
        assert sum(inside) == pytest.approx(s[2] - s[1], rel=1e-9, abs=1e-9)
