"""The experiment scripts run end to end, what the benchmark calls exists, and
``src`` holds no definition nothing runs, no parameter its function ignores
and no default that only the tests override."""

import ast
import importlib
import importlib.util
import inspect
import itertools
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
    # wrapped by name in perfbench/tracing.py LAYERS; goes with ROADMAP item 10
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


def _src_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted((SRC / "mathieu_cert").glob("*.py"))}


def _functions(node, prefix):
    """(dotted name, node) of every function, method and lambda under ``node``."""
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            name = f"{prefix}.{getattr(child, 'name', '<lambda>')}"
            if not isinstance(child, ast.ClassDef):
                yield name, child
        yield from _functions(child, name)


def _parameters(fn) -> list[str]:
    a = fn.args
    return [p.arg for p in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg) if p]


# parameters of src functions that their body never reads, with the reason
UNREAD_ALLOWED = {
    "averaging.build_transform.grid": "perfbench/workloads.py and worker.py pass it",
    "averaging.bogolyubov_condition.grid": "perfbench/workloads.py passes it",
    "bounds.compute_bound_chain.tr": "perfbench/workloads.py and worker.py pass it",
    "robustness.q_of_mu.grid": "perfbench/worker.py passes it",
}


def test_every_src_parameter_is_read():
    # a parameter its function ignores is an option no value of which matters
    unread = set()
    for module, tree in _src_trees().items():
        for name, fn in _functions(tree, module):
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            loads = {n.id for stmt in body for n in ast.walk(stmt)
                     if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread |= {f"{name}.{p}" for p in _parameters(fn) if p not in loads}
    assert unread == set(UNREAD_ALLOWED), sorted(unread ^ set(UNREAD_ALLOWED))


# parameters with a default that no call under src/, scripts/ or perfbench/
# passes, with the reason
UNSET_ALLOWED = {
    "floquet_lyapunov.spectral_radius_linear_system.pert":
        "the perturbed radius is the reference the acceptance tests check the budgets against",
}


def _relative_bindings(tree):
    """Local names that ``from .x import y`` statements of a src module bind."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            module = importlib.import_module("mathieu_cert" + (f".{node.module}" if node.module else ""))
            names.update({alias.asname or alias.name: getattr(module, alias.name) for alias in node.names})
    return names


def _as_called(cls, attr, through_instance):
    """[(function, signature)] of the method ``cls.attr`` as a call through an
    instance (or through ``cls`` itself) sees it; [] if it is no method."""
    raw = inspect.getattr_static(cls, attr, None)
    if isinstance(raw, (classmethod, staticmethod)):
        return [(raw.__func__, inspect.signature(getattr(cls, attr)))]
    if not inspect.isfunction(raw):
        return []
    sig = inspect.signature(raw)
    if through_instance:
        sig = sig.replace(parameters=list(sig.parameters.values())[1:])
    return [(raw, sig)]


def _callees(call, names, cls, methods):
    """(function, signature) pairs of the package that a call may reach.

    Names resolve through the module's own definitions and imports, and
    attributes of resolved modules and classes through ``getattr``.
    ``self.m`` and ``cls.m`` resolve in the enclosing class ``cls``; any
    other ``x.m`` on an object of unknown type resolves by name to every
    package method ``m``.
    """
    func = call.func
    if isinstance(func, ast.Attribute):
        if cls is not None and isinstance(func.value, ast.Name) and func.value.id in ("self", "cls"):
            return _as_called(cls, func.attr, True)
        owner = _resolve(func.value, names)
        if owner is None:
            return [c for other in methods.get(func.attr, ()) for c in _as_called(other, func.attr, True)]
        if inspect.isclass(owner):
            return _as_called(owner, func.attr, False)
    target = _resolve(func, names)
    return [(target, inspect.signature(target))] if inspect.isfunction(target) else []


def _passed(call, sig) -> set[str]:
    """Parameters a call passes by position or by keyword; none if it cannot bind."""
    positional = list(itertools.takewhile(lambda a: not isinstance(a, ast.Starred), call.args))
    try:
        bound = sig.bind_partial(*[None] * len(positional),
                                 **{kw.arg: None for kw in call.keywords if kw.arg is not None})
    except TypeError:
        return set()
    return set(bound.arguments)


def _calls(tree, classes):
    """(call, enclosing package class or None) for every call in ``tree``."""
    def walk(node, cls):
        for child in ast.iter_child_nodes(node):
            inner = classes.get(child.name, cls) if isinstance(child, ast.ClassDef) else cls
            if isinstance(child, ast.Call):
                yield child, inner
            yield from walk(child, inner)
    return walk(tree, None)


def _defaulted(fn) -> list[str]:
    """Parameters of a def that have a default."""
    a = fn.args
    positional = a.posonlyargs + a.args
    return [p.arg for p in positional[len(positional) - len(a.defaults):]] + [
        p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def test_every_src_default_is_passed_somewhere():
    # an option that only tests set should be a constant; module-level
    # functions and methods are checked, nested functions are local
    defaults, methods, sources = set(), {}, []
    for module, tree in _src_trees().items():
        home = importlib.import_module(f"mathieu_cert.{module}")
        own = {n.name: getattr(home, n.name) for n in tree.body
               if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        classes = {k: v for k, v in own.items() if inspect.isclass(v)}
        for top in tree.body:
            if isinstance(top, ast.FunctionDef):
                defaults |= {f"{module}.{top.name}.{p}" for p in _defaulted(top)}
            elif isinstance(top, ast.ClassDef):
                for fn in (n for n in top.body if isinstance(n, ast.FunctionDef)):
                    methods.setdefault(fn.name, []).append(classes[top.name])
                    defaults |= {f"{module}.{top.name}.{fn.name}.{p}" for p in _defaulted(fn)}
        sources.append((tree, {**_relative_bindings(tree), **own}, classes))
    for path in sorted(ROOT.glob("scripts/*.py")) + sorted(ROOT.glob("perfbench/*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        sources.append((tree, _package_bindings(tree), {}))
    passed = set()
    for tree, names, classes in sources:
        for call, cls in _calls(tree, classes):
            for fn, sig in _callees(call, names, cls, methods):
                if fn.__module__.startswith("mathieu_cert."):
                    key = f"{fn.__module__.removeprefix('mathieu_cert.')}.{fn.__qualname__}"
                    passed |= {f"{key}.{p}" for p in _passed(call, sig)}
    unset = defaults - passed
    assert unset == set(UNSET_ALLOWED), sorted(unset ^ set(UNSET_ALLOWED))


SRC_LINES_CEILING = 2266  # 2,261 after the removals; the unknown-key refusals add 5
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
