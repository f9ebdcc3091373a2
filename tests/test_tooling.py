"""The experiment scripts run end to end, and the layers the benchmark traces exist."""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import mathieu_cert

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(mathieu_cert.__file__).resolve().parents[1]

# parameters perfbench/tracing.py reads to count RK4 steps
WORK_PARAMETERS = {
    "floquet_lyapunov.deviation_matrizant": ("n_steps",),
    "floquet_lyapunov.matrizant": ("n_steps",),
    "simulate.integrate": ("system", "t_end", "steps_per_period"),
    "simulate.integrate_batch": ("system", "inits", "t_end", "steps_per_period"),
}


def _run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_certify_pendulum_script():
    run = _run_script("certify_pendulum.py")
    assert run.returncode == 0, run.stderr
    assert "certified range: mu in (0, " in run.stdout


def test_attraction_demo_script():
    run = _run_script("attraction_demo.py", "--n", "2", "--periods", "1")
    assert run.returncode == 0, run.stderr
    assert "  envelope dominance: all pass" in run.stdout.splitlines()


def _tracing_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_layers_are_defined():
    # the benchmark wraps these by name; a rename in src must fail here too
    tracing = _tracing_module()
    for mod, names in tracing.LAYERS.items():
        home = importlib.import_module(f"mathieu_cert.{mod}")
        for name in names:
            fn = getattr(home, name, None)
            assert inspect.isfunction(fn), f"{mod}.{name}"
            assert fn.__module__ == home.__name__, f"{mod}.{name}"
    for key, params in WORK_PARAMETERS.items():
        assert key in tracing.WORK, key
        mod, name = key.split(".")
        fn = getattr(importlib.import_module(f"mathieu_cert.{mod}"), name)
        assert set(params) <= set(inspect.signature(fn).parameters), key
