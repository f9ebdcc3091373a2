"""Fuzz of model and perturbation files through ``certify`` and ``sweep``, and
of the grid flags of ``sweep`` and the state, horizon and stride flags of
``simulate``.

Each drawn file may carry faults the reader must refuse by name: a field its
``f`` kind ignores, an unknown key in any object of the file, a ``gamma``
off its stationary point or with f'(gamma) >= 0, and a ``d_phi`` of another
period.  Amplitudes lie in [1e-3, 1e3]; overflow has its own tests.  A faulty
flag value must be refused by the flag's name.  Grids hold at most 8 values
and horizons at most 3 periods: a grid's size is allocated before any check.
"""

import contextlib
import io
import json
import math
import warnings

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from mathieu_cert.cli import load_model, main

from conftest import TWO_PI
from test_cli import PEND

MAGNITUDE = st.floats(1e-3, 1e3) | st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99), st.integers(-3, 2))
AMPLITUDE = st.builds(lambda a, s: s * a, MAGNITUDE, st.sampled_from([-1.0, 1.0]))
# gamma - (its stationary point): exact, below, at and above the 1e-12 tolerance
OFFSET = st.one_of(st.just(0.0), st.just(0.0), st.sampled_from([1e-15, 1e-13, 1e-12, 1e-11, 1e-9]),
                   st.floats(0.0, 1e-9))
RARE = st.sampled_from([False] * 9 + [True])  # about one fault of a kind in ten draws
UNKNOWN_KEYS = ["Sin", "cosine", "K", "phase", "scal", "Kind"]
STATIONARY = "is not a stationary point"


@st.composite
def _harmonics(draw, faults):
    entries = []
    for k in draw(st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True)):
        entry = {"k": k, "cos": draw(AMPLITUDE), "sin": draw(AMPLITUDE)}
        if draw(RARE):
            key = draw(st.sampled_from(UNKNOWN_KEYS))
            entry[key] = entry.pop("sin") if key == "Sin" else 1.0
            faults.add(f"unknown key {key!r}")
        entries.append(entry)
    return entries


def _unknown_keys(draw, objects, faults):
    """Add, rarely, an unknown key to each of ``objects``."""
    for obj in objects:
        if draw(RARE):
            key = draw(st.sampled_from(UNKNOWN_KEYS))
            obj[key] = 1.0
            faults.add(f"unknown key {key!r}")


@st.composite
def model_files(draw):
    """(model dict, faults that must refuse it, names a refusal may give)."""
    faults, possible = set(), set()
    kind = draw(st.sampled_from(["pendulum_sine", "polynomial"]))
    shift = draw(st.sampled_from([0.0]) | st.floats(-10.0, 10.0))
    f = {"kind": kind, "shift": shift} if shift or draw(st.booleans()) else {"kind": kind}
    if kind == "pendulum_sine":
        scale = draw(AMPLITUDE) if draw(st.booleans()) else 1.0
        if scale != 1.0:
            f["scale"] = scale
        if draw(RARE):
            f["coeffs"] = [draw(AMPLITUDE)]
            faults.add("f.coeffs")
        # k pi with cos(k pi) of the sign of -scale, but for a rare wrong slope
        k = 2 * draw(st.integers(-1, 1)) + (scale > 0.0) ^ draw(RARE)
        stationary, slope, size = k * math.pi - shift, scale * (-1.0) ** k, 1.0  # |sin(shift + gamma)|
    else:
        f["coeffs"] = draw(st.lists(AMPLITUDE, min_size=1, max_size=3))
        f["coeffs"][0] = -abs(f["coeffs"][0]) * (-1.0 if draw(RARE) else 1.0)
        if draw(RARE):
            f["scale"] = draw(AMPLITUDE)
            if f["scale"] != 1.0:
                faults.add("f.scale")
        stationary, slope, size = -shift, f["coeffs"][0], abs(f["coeffs"][0])  # |f(gamma)|
    _unknown_keys(draw, (f,), faults)
    offset = draw(OFFSET)
    # shift + gamma rounds by up to an ulp of |shift| + 3 pi
    residual_lo, residual_hi = size * max(offset - 1e-14, 0.0), size * (offset + 1e-14)
    if residual_lo >= 2e-12:
        faults.add(STATIONARY)
    elif residual_hi >= 0.5e-12:
        possible.add(STATIONARY)
    if slope >= 0.0:
        faults.add("f'(gamma) < 0")
    model = {
        "alpha": draw(MAGNITUDE),
        "beta": draw(MAGNITUDE),
        "phi": {"period": TWO_PI, "harmonics": draw(_harmonics(faults))},
        "f": f,
        "gamma": stationary + offset,
    }
    _unknown_keys(draw, (model, model["phi"]), faults)
    return model, faults, faults | possible


@st.composite
def perturbation_files(draw):
    """(perturbation dict, faults that must refuse it)."""
    faults = set()
    period = draw(st.sampled_from([TWO_PI, TWO_PI, 3.0, 2.0 * TWO_PI]))
    if period != TWO_PI:
        faults.add("d_phi period must match the system period")
    d_phi = {"period": period, "offset": 1e-30, "harmonics": draw(_harmonics(faults))}
    for h in d_phi["harmonics"]:  # a small perturbation keeps the budgets in reach
        h.update({key: 1e-30 * v for key, v in h.items() if key in ("cos", "sin")})
    pert = {"d_alpha": 1e-30, "d_beta": 0.0, "d_phi": d_phi}
    _unknown_keys(draw, (pert, d_phi), faults)
    return pert, faults


def _run(argv):
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), code
    return code, err.getvalue()


def _non_finite(node, path=""):
    """Paths of the non-finite numbers of a payload, the unbounded region of q = 0 left out."""
    if isinstance(node, dict):
        return [p for k, v in node.items() for p in _non_finite(v, f"{path}.{k}")]
    if isinstance(node, str) and node in ("inf", "-inf", "nan"):
        return [path]
    return [path] if isinstance(node, float) and not math.isfinite(node) else []


@given(model_files(), st.none() | perturbation_files(), st.sampled_from(["1e-40", "1e-20", "1e-12", "1e-6"]),
       st.sampled_from([None, "0.5"]))
@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_files_are_refused_by_name_or_certified_finitely(tmp_path, model, pert, mu, rho):
    model, faults, names = model
    path, out = tmp_path / "model.json", tmp_path / "out.json"
    path.write_text(json.dumps(model))
    certify = ["certify", "--model", str(path), "--mu", mu, "--steps", "256", "--out", str(out)]
    certify += ["--rho", rho] if rho else []
    if pert is not None:
        pert, pert_faults = pert
        (tmp_path / "pert.json").write_text(json.dumps(pert))
        certify += ["--pert", str(tmp_path / "pert.json")]
    sweep = ["sweep", "--model", str(path), "--mu-grid", mu, "--beta-grid", repr(model["beta"]),
             "--steps", "256", "--out", str(tmp_path / "out.csv")]
    sweep_code, sweep_err = _run(sweep)
    code, err = _run(certify)
    event(f"certify exit {code}" + (f": {err.split(':')[2].strip()[:40]}" if code == 1 else ""))
    try:
        load_model(str(path))
    except ValueError as exc:
        # a refusal at load is the same for both commands, and names a fault of the file
        assert code == sweep_code == 1 and err == sweep_err == f"mathieu-cert: error: {exc}\n"
        assert any(name in err for name in names), (err, names)
        return
    assert not faults, (faults, code, err)
    assert sweep_code == 0, sweep_err
    if pert is not None and pert_faults:
        assert code == 1 and any(name in err for name in pert_faults), (err, pert_faults)
        return
    if code == 1:  # a cubic or quartic has a quadratic remainder bound only on |y| <= rho
        assert rho is None and len(model["f"]["coeffs"]) > 2, err
        assert err == ("mathieu-cert: error: no finite global quadratic bound for degree > 2; "
                       "pass a radius rho\n")
    if code == 0:
        payload = json.loads(out.read_text())
        unbounded = payload["nonlinearity"]["q_mu"] == 0.0
        allowed = [".attraction.lyapunov_radius_sq"] if unbounded else []
        assert [p for p in _non_finite(payload) if p not in allowed] == []


# grid values by kind: "large" may overflow the propagation, which is refused
# by name; "nonpos" is refused where a grid value must be positive
GRID_VALUES = {"ok": ["1e-12", "7e-8", "1e-3", "0.25", "0.6", "2", "10"], "large": ["1e3", "1e150", "1e300"],
               "nonpos": ["0", "-1e-3", "-0.0"], "bad": ["nan", "inf", "-inf", "abc", "1e-3x", ""]}
NUMBER = st.sampled_from(["ok"] * 7 + ["large", "nonpos", "bad"]).flatmap(
    lambda kind: st.tuples(st.sampled_from(GRID_VALUES[kind]), st.just(kind)))
COUNT = st.sampled_from(["1", "3", "8"] * 4 + ["0", "-2", "2.5", "x"])


def _flag_value(good, faulty):
    """(text, fault), a faulty value in about one draw of five."""
    return st.sampled_from([False] * 4 + [True]).flatmap(
        lambda fault: st.tuples(faulty if fault else good, st.just(fault)))


@st.composite
def grid_specs(draw):
    """(spec, fault) for --mu-grid or --beta-grid."""
    kind = draw(st.sampled_from(["literal", "lin", "log"] * 3 + ["parts"]))
    if kind == "parts":
        return draw(st.sampled_from(["lin:1:2", "log:1e-3:1:2:3", "lin:"])), True
    if kind == "literal":
        parts = draw(st.lists(NUMBER, max_size=4))
        return ",".join(t for t, _ in parts), any(k in ("nonpos", "bad") for t, k in parts if t)
    (a, ka), (b, kb), n = draw(NUMBER), draw(NUMBER), draw(COUNT)
    # a one-point linspace holds its start only
    stop_fault = kb == "bad" or (kb == "nonpos" and (kind == "log" or n != "1"))
    return f"{kind}:{a}:{b}:{n}", ka in ("nonpos", "bad") or stop_fault or n not in ("1", "3", "8")


@given(grid_specs(), grid_specs())
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_sweep_grids_are_refused_by_flag_or_charted(tmp_path, mu_grid, beta_grid):
    (tmp_path / "model.json").write_text(json.dumps(PEND))
    flags = {"--mu-grid": mu_grid, "--beta-grid": beta_grid}
    out = tmp_path / "out.csv"
    argv = ["sweep", "--model", str(tmp_path / "model.json"), "--steps", "256", "--out", str(out)]
    code, err = _run(argv + [f"{flag}={spec}" for flag, (spec, _) in flags.items()])
    event(f"sweep exit {code}")
    faults = [flag for flag, (_, fault) in flags.items() if fault]
    if faults:
        assert code == 1 and any(flag in err for flag in faults), (err, faults)
    elif code == 1:  # a huge mu or beta
        assert "overflows" in err, err
    else:
        assert code == 0 and "nan" not in out.read_text(), err


STATE = _flag_value(st.sampled_from(["0", "1e-3", "-0.5", "1e12", "-1e12", "5e-324"]),
                    st.sampled_from(["1.0000001e12", "-1e200", "1e308", "nan", "-inf"]))
T_END = _flag_value(st.floats(1e-6, 3.0 * TWO_PI).map(repr), st.sampled_from(["0", "-1", "nan", "inf", "1e300"]))
STRIDE = _flag_value(st.sampled_from(["1", "7", "16", "100000"]), st.sampled_from(["0", "-3", "2.5"]))


@given(STATE, STATE, T_END, STRIDE, st.lists(st.booleans(), min_size=3, max_size=3))
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_simulate_flags_are_refused_by_name_or_run_finitely(tmp_path, y0, y1, t_end, stride, apart):
    (tmp_path / "model.json").write_text(json.dumps(PEND))
    flags = {"--y0": y0, "--y1": y1, "--t-end": t_end, "--stride": stride}
    out = tmp_path / "out.csv"
    argv = ["simulate", "--model", str(tmp_path / "model.json"), "--mu", "7e-8", "--steps", "256",
            "--out", str(out)]
    # a float flag's value is drawn as "--flag value" as well as "--flag=value"
    for (flag, (value, _)), sep in zip(flags.items(), [*apart, False]):
        argv += [flag, value] if sep else [f"{flag}={value}"]
    code, err = _run(argv)
    event(f"simulate exit {code}")
    # the simulator's refusals name its parameters, argparse's the flags
    names = {"--y0": "initial state", "--y1": "initial state", "--t-end": "t_end", "--stride": "stride"}
    faults = [flag for flag, (_, fault) in flags.items() if fault]
    if faults:
        assert code == 1 and any(flag in err or names[flag] in err for flag in faults), (err, faults)
        return
    assert code == 0, err
    text = out.read_text()
    header = dict(kv.split("=") for line in text.splitlines() if line.startswith("# ")
                  for kv in line[2:].split() if "=" in kv)
    assert math.isfinite(float(header["initial_lyapunov_value"])), header
    rows = [line.split(",") for line in text.splitlines()[7:]]
    columns = 6 if header["envelope_certified"] == "true" else 4  # else envelope and margin are NaN
    assert all(math.isfinite(float(x)) for row in rows for x in row[:columns])
