"""The experiment scripts run end to end, and what the benchmark calls exists."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
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


def test_star_imports_resolve():
    # every name a submodule lists in __all__ must exist, so that a deletion
    # cannot leave a stale export behind
    for info in pkgutil.iter_modules(mathieu_cert.__path__):
        exec(f"from mathieu_cert.{info.name} import *", {})


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


def _package_bindings(tree):
    """Local names that ``import`` statements bind to mathieu_cert objects."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "mathieu_cert":
                    module = importlib.import_module(alias.name)
                    names[alias.asname or "mathieu_cert"] = module if alias.asname else mathieu_cert
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "mathieu_cert":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
                names[alias.asname or alias.name] = getattr(module, alias.name)
    return names


def _resolve(node, names):
    """The mathieu_cert object a dotted call target names, or None."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _resolve(node.value, names)
        if base is None:
            return None
        assert hasattr(base, node.attr), f"{ast.unparse(node)} does not exist"
        return getattr(base, node.attr)
    return None


def test_benchmark_calls_bind_to_signatures():
    # the benchmark's files are frozen between its own changes, so a
    # signature change in src that would break one of its calls must fail here
    bound = set()
    for name in ("workloads.py", "worker.py"):
        tree = ast.parse((ROOT / "perfbench" / name).read_text(encoding="utf-8"))
        names = _package_bindings(tree)
        for call in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
            fn = _resolve(call.func, names)
            if fn is None or inspect.ismodule(fn):
                continue
            assert not any(isinstance(a, ast.Starred) for a in call.args), ast.unparse(call)
            assert all(kw.arg is not None for kw in call.keywords), ast.unparse(call)
            where = f"perfbench/{name}:{call.lineno}: {ast.unparse(call)}"
            try:
                inspect.signature(fn).bind(
                    *[None] * len(call.args), **{kw.arg: None for kw in call.keywords}
                )
            except TypeError as exc:
                raise AssertionError(f"{where}: {exc}") from exc
            bound.add(ast.unparse(call.func))
    assert {"bogolyubov_condition", "cli.main", "mc.integrate_batch"} <= bound, bound


def test_traced_step_count_matches_integration():
    # tracing.py counts RK4 steps from system.period; a stride-1 run records
    # the initial state and then one state per step
    tracing = _tracing_module()
    phi = mathieu_cert.PeriodicSignal(3.0, ((1, 0.0, -1.0),))
    f = mathieu_cert.Nonlinearity("pendulum_sine", scale=-1.0)
    system = mathieu_cert.nonlinear_system(0.1, 0.25, phi, f, 0.05)
    for t_end in (0.01, 3.0, 5.1):
        traj = mathieu_cert.simulate.integrate(system, 0.1, 0.0, t_end, 256)
        assert tracing._steps(system, t_end, 256) == len(traj.times) - 1, t_end


def test_no_private_attribute_reads_across_objects():
    # a module reads only its own objects' privates: x._name is allowed for
    # x = self or cls, and dunders are public protocol
    found = []
    for path in sorted((SRC / "mathieu_cert").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_")
                and not node.attr.startswith("__")
                and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))
            ):
                found.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert not found, found


# module-level names kept in src without a caller there, with the reason
UNREACHED_ALLOWED = {
    # wrapped by name in perfbench/tracing.py LAYERS; goes with ROADMAP item 15
    "periodic_signal.integrate",
}


def _unreached(package_dir: Path, scripts_dir: Path) -> set[str]:
    """Module-level functions and classes of ``package_dir`` that nothing runs.

    A name counts as reached when its own module uses it outside its own
    definition, another module of the package imports it (the root's exports
    included), or a script imports it from its module or from the root.
    """
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package_dir.glob("*.py"))}
    reached, defined = set(), set()
    for tree in trees.values():  # relative imports, the root's exports among them
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                reached |= {f"{node.module}.{alias.name}" for alias in node.names}
    for path in sorted(scripts_dir.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("mathieu_cert."):
                module = node.module.removeprefix("mathieu_cert.")
                reached |= {f"{module}.{alias.name}" for alias in node.names}
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(f"{module}.{node.name}")
                outside = (n for top in tree.body if top is not node for n in ast.walk(top))
                if any(isinstance(n, ast.Name) and n.id == node.name for n in outside):
                    reached.add(f"{module}.{node.name}")
    return defined - reached


def test_every_src_definition_is_reached():
    # test-only reference code lives in tests/oracles.py, not in the package
    unreached = _unreached(SRC / "mathieu_cert", ROOT / "scripts")
    assert unreached == UNREACHED_ALLOWED, sorted(unreached ^ UNREACHED_ALLOWED)


SRC_LINES_CEILING = 2287
EXPORTED_NAMES_CEILING = 31


def test_package_size_ratchet():
    """Non-blank ``src`` lines and public names of ``mathieu_cert`` stay at or
    below their committed ceilings.

    Lower a ceiling when a change shrinks the package.  Raising one needs a
    reason stated in CHANGES.md.
    """
    lines = sum(
        1
        for path in (SRC / "mathieu_cert").glob("*.py")
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )
    # a fresh interpreter, since importing a submodule such as cli binds it
    # on the package
    names = subprocess.run(
        [sys.executable, "-c",
         "import mathieu_cert; print(*(n for n in dir(mathieu_cert) if n[0] != '_'))"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    ).stdout.split()
    assert lines <= SRC_LINES_CEILING, lines
    assert len(names) <= EXPORTED_NAMES_CEILING, names
