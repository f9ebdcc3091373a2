"""Output checks for one request, and the key values kept for drift checks.

All generated inputs are valid, so exit 1, any exception and any check below
failing count as a failed request.  ``check`` returns ``(reason, key)``:
``reason`` is ``None`` when the output passes, and ``key`` holds the values
compared against the recorded reference for the default seed.
"""

from __future__ import annotations

import csv
import json
import math

NON_FINITE = {"nan", "inf", "-inf"}  # how cli._jsonable writes non-finite floats
SWEEP_HEADER = ["beta", "mu", "spectral_radius", "certified_by_mu0"]
SIMULATE_HEADER = ["t", "y", "y_prime", "lyapunov_value", "envelope", "margin"]
ENVELOPE_RTOL = 1e-9  # the pass tolerance of simulate.verify_envelope


class CheckError(Exception):
    """An output that a correct program cannot produce for these inputs."""


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def _all_finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    if isinstance(obj, str):
        return obj not in NON_FINITE
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def _read_payload(path: str, fmt: str) -> dict:
    """A certify/margins payload as a flat {dotted key: value} dict."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "json":
        flat: dict = {}

        def walk(d, prefix):
            for k, v in d.items():
                if isinstance(v, dict):
                    walk(v, f"{prefix}{k}.")
                else:
                    flat[f"{prefix}{k}"] = v

        walk(json.loads(text), "")
        return flat
    lines = text.splitlines()
    _require(lines[0] == "key,value", f"bad CSV header {lines[0]!r}")
    flat = {}
    for line in lines[1:]:
        k, v = line.split(",", 1)
        flat[k] = json.loads(v)
    return flat


def _payload_format(req: dict, code: int) -> str:
    # margins writes the certificate payload as JSON whenever it exits non-zero
    if req["expect"]["command"] == "margins" and code != 0:
        return "json"
    return req["expect"]["format"]


def _check_certify(req: dict, code: int) -> dict:
    exp = req["expect"]
    p = _read_payload(req["out"], _payload_format(req, code))
    _require(_all_finite(p), "non-finite number in payload")
    _require(p["mu"] == exp["mu"], "payload mu differs from the request")
    key: dict = {"exit": code}
    if exp["command"] == "margins" and code == 0:
        _require(0.0 < p["h_max"], "h_max <= 0")
        _require(p["budgets.nonlinear.budget_phi_sup"] > 0.0, "empty nonlinear budget")
        key["h_max"] = p["h_max"]
        return key
    rho = p["spectral_radius_at_mu"]
    _require(rho > 0.0, "spectral radius <= 0")
    key["spectral_radius_at_mu"] = rho
    if code == 3:
        _require(p["bogolyubov.holds"] is False, "exit 3 but the averaged condition holds")
        return key
    mu0 = p["bound_chain.mu0"]
    key["mu0"] = mu0
    if code == 2:
        _require(p["mu"] > mu0, "exit 2 with mu <= mu0")
        return key
    _require(rho < 1.0, "certified but spectral radius >= 1")
    _require(p["mu"] <= mu0, "certified with mu > mu0")
    h_min, h_max = p["lyapunov.h_min"], p["lyapunov.h_max"]
    _require(0.0 < h_min <= h_max, "need 0 < h_min <= h_max")
    key.update(h_min=h_min, h_max=h_max)
    if exp["pert"] is not None:
        inside = exp["pert"] == "inside"
        _require(
            p["budgets.perturbation.admissible_nonlinear"] is inside,
            f"perturbation meant to be {exp['pert']} the budgets",
        )
        has_region = "attraction.lyapunov_radius_sq" in p
        _require(has_region is inside, "attraction region present iff budgets hold")
    return key


def _check_sweep(req: dict) -> dict:
    with open(req["out"], encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    _require(rows[0] == SWEEP_HEADER, f"bad sweep header {rows[0]}")
    rows = rows[1:]
    _require(len(rows) == req["expect"]["rows"], f"{len(rows)} sweep rows")
    radii = []
    for beta, mu, rho, cert in rows:
        beta, mu, rho = float(beta), float(mu), float(rho)
        _require(cert in ("true", "false"), f"bad certified flag {cert!r}")
        _require(math.isfinite(rho) and rho > 0.0, f"bad radius {rho} at mu={mu}")
        if cert == "true":
            _require(rho < 1.0, f"certified row with radius {rho} at mu={mu}")
        radii.append(rho)
    return {"radii": radii}


def _check_simulate(req: dict) -> dict:
    with open(req["out"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    flags = {}
    for line in lines:
        if line.startswith("#"):
            for tok in line[1:].split():
                if "=" in tok:
                    k, v = tok.split("=", 1)
                    flags[k] = v
    body = [line for line in lines if not line.startswith("#")]
    _require(body[0].split(",") == SIMULATE_HEADER, f"bad simulate header {body[0]!r}")
    certified = flags.get("envelope_certified") == "true"
    inside = req["expect"]["inside"]
    _require(flags.get("inside_lyapunov_region") == str(inside).lower(),
             "initial state on the wrong side of the certified region")
    _require(certified is inside, "envelope certification differs from the region test")
    _require(flags.get("diverged") == "false", "trajectory diverged")
    rows = [[float(x) for x in line.split(",")] for line in body[1:]]
    steps = req["expect"]["work"]
    _require(len(rows) == steps // 16 + 1, f"{len(rows)} trajectory rows for {steps} steps")
    for row in rows:
        _require(all(math.isfinite(x) for x in row[:4]), "non-finite state column")
        if certified:
            _require(all(math.isfinite(x) for x in row[4:]), "non-finite envelope")
    if certified:
        slack = ENVELOPE_RTOL * (1.0 + rows[0][4])
        _require(min(r[5] for r in rows) >= -slack, "trajectory leaves its decay envelope")
    t, y, yp, psi = rows[-1][:4]
    return {"t_end": t, "y": y, "y_prime": yp, "lyapunov_value": psi}


def _check_attraction(result: dict) -> dict:
    _require(result["mu"] <= result["mu0"], "batch mu above mu0")
    _require(0.0 < result["h_min"] <= result["h_max"], "need 0 < h_min <= h_max")
    _require(result["failed_envelopes"] == 0,
             f"{result['failed_envelopes']} verify_envelope reports did not pass")
    _require(0.0 < result["max_ratio"] <= 1.0, f"max envelope ratio {result['max_ratio']}")
    return {k: result[k] for k in ("mu0", "h_min", "h_max", "max_ratio")}


def check(req: dict, code, result: dict | None = None):
    """Check one finished request.  ``code`` is the CLI exit code, or 0 for a
    library request whose ``result`` dict the worker assembled."""
    exp = req["expect"]
    if code != exp["exit"]:
        return f"exit {code}, expected {exp['exit']}", {}
    try:
        if exp["command"] in ("certify", "margins"):
            return None, _check_certify(req, code)
        if exp["command"] == "sweep":
            return None, _check_sweep(req)
        if exp["command"] == "simulate":
            return None, _check_simulate(req)
        return None, _check_attraction(result)
    except CheckError as exc:
        return str(exc), {}
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return f"unreadable output: {exc!r}", {}


def drift(reference: dict, key: dict, rtol: float = 1e-6) -> str | None:
    """First key value that moved by more than ``rtol`` relative, if any."""
    for name, ref in reference.items():
        got = key.get(name)
        refs = ref if isinstance(ref, list) else [ref]
        gots = got if isinstance(got, list) else [got]
        if got is None or len(refs) != len(gots):
            return f"{name}: {got!r} vs recorded {ref!r}"
        for a, b in zip(gots, refs):
            if abs(a - b) > rtol * max(abs(a), abs(b)):
                return f"{name}: {got!r} vs recorded {ref!r}"
    return None
