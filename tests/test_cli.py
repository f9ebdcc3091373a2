import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from mathieu_cert import cli, floquet_lyapunov
from mathieu_cert.cli import build_certificate, main, parse_grid_spec

from conftest import TWO_PI

PEND = {
    "alpha": 0.1,
    "beta": 0.25,
    "phi": {"period": TWO_PI, "harmonics": [{"k": 1, "cos": 0.0, "sin": -1.0}]},
    "f": {"kind": "pendulum_sine"},
    "gamma": math.pi,
}
PHYS = {"length_l": 1.0, "gravity_g": 9.8, "friction_lambda": 1.0,
        "amplitude_a": 0.1, "frequency_omega": 100.0}


@pytest.fixture()
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(PEND))
    return str(path)


def write_model(tmp_path, name="m.json", **overrides):
    d = dict(PEND)
    d.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(d))
    return str(path)


def assert_csv_only(argv, capsys):
    """``--format csv`` is the default and ``--format json`` a usage error."""
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main([*argv, "--format", "csv"]) == 0
    assert capsys.readouterr().out == default
    assert main([*argv, "--format", "json"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid choice: 'json'" in captured.err


class TestCertify:
    def test_certified(self, model_file, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code = main(["certify", "--model", model_file, "--mu", "7e-8",
                     "--rho", "0.5", "--out", str(out)])
        assert code == 0
        cert = json.loads(out.read_text())
        assert cert["schema"] == 1
        assert cert["bogolyubov"]["holds"] is True
        assert cert["spectral_radius_at_mu"] < 1.0
        assert cert["attraction"]["lyapunov_radius_sq"] > 0.0
        assert cert["budgets"]["nonlinear"]["budget_phi_sup"] > 0.0
        assert 0.0 < cert["bound_chain"]["mu0"] <= cert["bound_chain"]["mu_bar"]

    def test_outside_certified_range(self, model_file, capsys):
        code = main(["certify", "--model", model_file, "--mu", "0.01"])
        assert code == 2
        cert = json.loads(capsys.readouterr().out)
        assert "spectral_radius_at_mu" in cert
        assert "lyapunov" not in cert

    def test_condition_fails(self, tmp_path, capsys):
        path = write_model(tmp_path, beta=0.6)
        code = main(["certify", "--model", path, "--mu", "1e-7"])
        assert code == 3
        cert = json.loads(capsys.readouterr().out)
        assert cert["bogolyubov"]["holds"] is False
        assert "bound_chain" not in cert

    def test_malformed_model(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"alpha": 0.1}')
        assert main(["certify", "--model", str(path), "--mu", "1e-7"]) == 1

    def test_unreadable_file(self):
        assert main(["certify", "--model", "/nonexistent.json", "--mu", "1e-7"]) == 1

    def test_usage_error_is_exit_1(self, capsys):
        assert main(["certify", "--mu", "1e-7"]) == 1

    def test_deterministic_output(self, model_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["certify", "--model", model_file, "--mu", "7e-8", "--out", str(a)])
        main(["certify", "--model", model_file, "--mu", "7e-8", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_pendulum_parameter_file(self, tmp_path, capsys):
        path = tmp_path / "phys.json"
        path.write_text(json.dumps(PHYS))
        # derived mu = a/l = 0.1 lies outside the certified range
        code = main(["certify", "--model", str(path)])
        assert code == 2
        cert = json.loads(capsys.readouterr().out)
        assert cert["mu"] == 0.1
        assert cert["model"]["beta"] == pytest.approx(0.098)

    def test_perturbation_echo(self, model_file, tmp_path, capsys):
        pert = tmp_path / "pert.json"
        pert.write_text(json.dumps({
            "d_alpha": 1e-26, "d_beta": 0.0,
            "d_phi": {"period": TWO_PI, "offset": 1e-26,
                      "harmonics": [{"k": 2, "cos": 1e-26, "sin": 0.0}]},
        }))
        code = main(["certify", "--model", model_file, "--mu", "7e-8",
                     "--pert", str(pert)])
        assert code == 0
        cert = json.loads(capsys.readouterr().out)
        flags = cert["budgets"]["perturbation"]
        assert flags["admissible_linear"] and flags["admissible_nonlinear"]

    def test_inadmissible_perturbation_drops_attraction(self, model_file, tmp_path, capsys):
        pert = tmp_path / "pert.json"
        pert.write_text(json.dumps({"d_alpha": 1.0, "d_beta": 0.0}))
        code = main(["certify", "--model", model_file, "--mu", "7e-8",
                     "--pert", str(pert)])
        assert code == 0
        cert = json.loads(capsys.readouterr().out)
        assert cert["budgets"]["perturbation"]["admissible_nonlinear"] is False
        assert cert["attraction"] is None

    def test_flat_csv_format(self, model_file, capsys):
        code = main(["certify", "--model", model_file, "--mu", "7e-8",
                     "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("bound_chain.mu0,") for line in lines)

    def test_dump_files(self, model_file, tmp_path):
        tdump = tmp_path / "transform.json"
        hdump = tmp_path / "h.csv"
        ydump = tmp_path / "y.csv"
        code = main([
            "certify", "--model", model_file, "--mu", "7e-8", "--steps", "1024",
            "--out", str(tmp_path / "cert.json"),
            "--dump-transform", str(tdump),
            "--dump-lyapunov", str(hdump),
            "--dump-matrizant", str(ydump),
        ])
        assert code == 0
        dump = json.loads(tdump.read_text())
        assert np.asarray(dump["u2"]).shape == (2049, 2, 2)
        assert hdump.read_text().splitlines()[0] == "t,h11,h12,h22,h_min_t,h_norm_t"
        assert ydump.read_text().splitlines()[0] == "t,y11,y12,y21,y22"


class TestMargins:
    def test_budgets_reported(self, model_file, capsys):
        code = main(["margins", "--model", model_file, "--mu", "7e-8"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        lin = payload["budgets"]["linear"]
        nonlin = payload["budgets"]["nonlinear"]
        assert lin["budget_phi_sup"] == pytest.approx(2.0 * nonlin["budget_phi_sup"])
        assert payload["h_max"] > 0.0

    def test_outside_range(self, model_file, capsys):
        assert main(["margins", "--model", model_file, "--mu", "0.01"]) == 2

    def test_zero_damping_rejected(self, tmp_path):
        path = write_model(tmp_path, alpha=0.0)
        assert main(["margins", "--model", path, "--mu", "7e-8"]) == 1


class TestSimulate:
    def test_zero_initial_data(self, model_file, capsys):
        code = main(["simulate", "--model", model_file, "--mu", "7e-8",
                     "--y0", "0", "--y1", "0", "--t-end", "6.5",
                     "--steps", "1024", "--stride", "256"])
        assert code == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if not l.startswith("#")]
        assert rows[0] == "t,y,y_prime,lyapunov_value,envelope,margin"
        for row in rows[1:]:
            _, y, yp, psi, *_ = row.split(",")
            assert float(y) == 0.0 and float(yp) == 0.0 and float(psi) == 0.0

    def test_membership_header_and_margins(self, model_file, capsys):
        code = main(["simulate", "--model", model_file, "--mu", "7e-8",
                     "--rho", "0.5", "--y0", "1e-32", "--y1", "0",
                     "--t-end", "12.6", "--steps", "1024", "--stride", "128"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# inside_lyapunov_region=true inside_euclid_region=true" in out
        assert "# envelope_certified=true" in out
        rows = [l for l in out.splitlines() if not l.startswith("#")][1:]
        margins = [float(r.split(",")[5]) for r in rows]
        assert min(margins) >= 0.0

    def test_outside_attraction_region_header(self, model_file, capsys):
        code = main(["simulate", "--model", model_file, "--mu", "7e-8",
                     "--rho", "0.5", "--y0", "0.5", "--y1", "0",
                     "--t-end", "6.5", "--steps", "1024", "--stride", "256"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# inside_lyapunov_region=false" in out

    def test_outside_mu_range(self, model_file, capsys):
        assert main(["simulate", "--model", model_file, "--mu", "0.02",
                     "--y0", "0.1", "--y1", "0", "--t-end", "6.5"]) == 2

    def test_format_is_csv_only(self, model_file, capsys):
        assert_csv_only(["simulate", "--model", model_file, "--mu", "7e-8", "--y0", "0",
                         "--y1", "0", "--t-end", "6.5", "--steps", "1024", "--stride", "256"],
                        capsys)


class TestSweep:
    def test_chart_rows_and_consistency(self, model_file, capsys):
        code = main(["sweep", "--model", model_file,
                     "--mu-grid", "log:1e-8:1e-7:3",
                     "--beta-grid", "0.25,0.6", "--steps", "1024"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[1] == "beta,mu,spectral_radius,certified_by_mu0"
        rows = [l.split(",") for l in lines[2:]]
        assert len(rows) == 6
        for beta, mu, rho, certified in rows:
            if certified == "true":
                assert float(rho) < 1.0  # certificate never contradicts spectra
        stable = [r for r in rows if r[0] == "0.25"]
        unstable = [r for r in rows if r[0] == "0.6"]
        assert all(r[3] == "true" for r in stable)
        assert all(r[3] == "false" for r in unstable)
        assert all(float(r[2]) > 1.0 for r in unstable)

    def test_empty_grid(self, model_file, capsys):
        code = main(["sweep", "--model", model_file, "--mu-grid", "",
                     "--beta-grid", "0.25"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "beta,mu,spectral_radius,certified_by_mu0"

    def test_rows_sorted(self, model_file, capsys):
        main(["sweep", "--model", model_file, "--mu-grid", "2e-8,1e-8",
              "--beta-grid", "0.3,0.2", "--steps", "1024"])
        lines = capsys.readouterr().out.strip().splitlines()[2:]
        keys = [(float(l.split(",")[0]), float(l.split(",")[1])) for l in lines]
        assert keys == sorted(keys)

    def test_format_is_csv_only(self, model_file, capsys):
        assert_csv_only(["sweep", "--model", model_file, "--mu-grid", "1e-8",
                         "--beta-grid", "0.25", "--steps", "1024"], capsys)


class TestGridSpec:
    def test_literal(self):
        np.testing.assert_allclose(parse_grid_spec("0.1,0.2"), [0.1, 0.2])

    def test_linspace(self):
        np.testing.assert_allclose(parse_grid_spec("lin:0:1:3"), [0.0, 0.5, 1.0])

    def test_geomspace(self):
        np.testing.assert_allclose(parse_grid_spec("log:1e-2:1:3"), [1e-2, 1e-1, 1.0])

    def test_empty(self):
        assert parse_grid_spec("").size == 0

    def test_malformed(self):
        for spec in ("log:1:2", "log:-1:2:3", "0.1,nan", "lin:0:inf:3", "log:1e-3:inf:2"):
            with pytest.raises(ValueError):
                parse_grid_spec(spec)


class TestBuildCertificate:
    def test_requires_positive_mu(self, pendulum_model):
        with pytest.raises(ValueError):
            build_certificate(pendulum_model, -1.0)

    def test_solution_only_on_exit_0(self, pendulum_model):
        cert = build_certificate(pendulum_model, 7e-8, steps=1024)
        assert cert.exit_code == 0
        assert cert.sol.spectral_radius == cert.payload["spectral_radius_at_mu"]
        assert cert.sol.h_max == cert.payload["lyapunov"]["h_max"]
        assert build_certificate(pendulum_model, 0.01, steps=1024).sol is None

    def test_polynomial_needs_rho_when_cubic(self, pendulum_model):
        from dataclasses import replace
        from mathieu_cert.model import Nonlinearity

        model = replace(
            pendulum_model, f=Nonlinearity("polynomial", (-1.0, 0.0, 1.0)), gamma=0.0
        )
        with pytest.raises(ValueError):
            build_certificate(model, 7e-8)
        cert = build_certificate(model, 7e-8, rho=0.3)
        assert cert.exit_code == 0


def test_cli_import_leaves_scipy_out():
    # numpy is the only runtime dependency; scipy is a test-only oracle
    import mathieu_cert

    src = os.path.dirname(os.path.dirname(mathieu_cert.__file__))
    code = (
        "import sys, mathieu_cert.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    run = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


@pytest.mark.parametrize("steps", ["0", "63"])
@pytest.mark.parametrize(
    "command",
    [["certify", "--mu", "7e-8"], ["margins", "--mu", "7e-8"],
     ["sweep", "--mu-grid", "1e-3", "--beta-grid", "0.25"],
     ["simulate", "--mu", "7e-8", "--y0", "0", "--y1", "0", "--t-end", "6.5"]],
    ids=["certify", "margins", "sweep", "simulate"],
)
def test_too_few_steps_is_exit_1(command, steps, model_file, capsys):
    # 0 used to fail with "float division by zero" before the step check ran
    assert main([command[0], "--model", model_file, *command[1:], "--steps", steps]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "mathieu-cert: error: n_steps must be at least 64\n"


def _non_finite_argv(case, model_file, tmp_path):
    if case == "mu_inf":
        return ["certify", "--model", model_file, "--mu", "inf"]
    if case == "harmonic_nan":
        phi = {"period": TWO_PI, "harmonics": [{"k": 1, "cos": math.nan, "sin": -1.0}]}
        return ["certify", "--model", write_model(tmp_path, phi=phi), "--mu", "7e-8"]
    if case == "pert_nan":
        pert = tmp_path / "pert.json"
        pert.write_text(json.dumps({"d_alpha": math.nan, "d_beta": 0.0}))
        return ["certify", "--model", model_file, "--mu", "7e-8", "--pert", str(pert)]
    if case in ("rho_nan", "rho_inf"):
        return ["certify", "--model", model_file, "--mu", "7e-8", "--rho", case[4:]]
    if case == "y0_nan":
        return ["simulate", "--model", model_file, "--mu", "7e-8", "--y0", "nan",
                "--y1", "0", "--t-end", "6.5"]
    if case == "t_end_inf":
        return ["simulate", "--model", model_file, "--mu", "7e-8", "--y0", "0",
                "--y1", "0", "--t-end", "inf", "--steps", "1024"]
    return ["sweep", "--model", model_file, "--mu-grid", "1e-3,inf", "--beta-grid", "0.25"]


@pytest.mark.parametrize(
    "case",
    ["mu_inf", "harmonic_nan", "pert_nan", "rho_nan", "rho_inf", "y0_nan", "t_end_inf", "sweep_inf"],
)
def test_non_finite_input_is_exit_1(case, model_file, tmp_path, capsys):
    # each of these used to give a certificate or a chart row built on nan
    assert main(_non_finite_argv(case, model_file, tmp_path)) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("mathieu-cert: error:") and "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "model, pert",
    [
        ({**PHYS, "length_l": None}, None),
        (PEND, {"d_alpha": None}),
        (PEND, {"d_phi": [1, 2]}),
    ],
    ids=["pendulum_null", "pert_null", "pert_d_phi_list"],
)
def test_malformed_file_is_exit_1(model, pert, tmp_path, capsys):
    # each of these used to end in a TypeError or AttributeError traceback
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    argv = ["certify", "--model", str(path), "--mu", "7e-8"]
    if pert is not None:
        pert_path = tmp_path / "pert.json"
        pert_path.write_text(json.dumps(pert))
        argv += ["--pert", str(pert_path)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("mathieu-cert: error: malformed")


@pytest.mark.parametrize(
    "k, beta, grid", [(1, 0.4999, "16"), (512, 0.3, "2048"), (1024, 0.3, "2048")]
)
def test_averaged_test_is_grid_free(k, beta, grid, tmp_path, capsys):
    # with quadrature these gave exit 3 (a 2.7e-4 Simpson error in rhs on 16
    # panels; lhs aliased to 4/3 at k = 512) and exit 1 (mean_phi_a aliased
    # to ~0 at k = 1024); the closed forms give lhs = 1.5 exactly
    phi = {"period": TWO_PI, "harmonics": [{"k": k, "cos": 0.0, "sin": -float(k)}]}
    path = write_model(tmp_path, beta=beta, phi=phi)
    assert main(["certify", "--model", path, "--mu", "1e-9", "--grid", grid]) == 2
    cert = json.loads(capsys.readouterr().out)
    assert cert["bogolyubov"] == {"holds": True, "lhs": 1.5, "rhs": pytest.approx(1.0 + beta)}
    assert 0.0 < cert["bound_chain"]["mu0"] < 1e-9


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "case, beta, mu, code, solves",
    [
        ("certify", 0.25, "7e-8", 0, 1),
        ("certify", 0.25, "0.01", 2, 0),
        ("certify", 0.6, "1e-7", 3, 0),
        ("dump-lyapunov", 0.25, "7e-8", 0, 1),
        ("simulate", 0.25, "7e-8", 0, 1),
    ],
)
def test_one_propagation_per_command(case, beta, mu, code, solves, tmp_path, monkeypatch, capsys):
    # every command propagates the linearization once; simulate and the
    # Lyapunov dump reuse the solution build_certificate returns
    path = write_model(tmp_path, beta=beta)
    argv = ["--model", path, "--mu", mu, "--steps", "1024"]
    if case == "simulate":
        argv = ["simulate", *argv, "--y0", "1e-32", "--y1", "0", "--t-end", "6.5",
                "--stride", "256"]
    elif case == "dump-lyapunov":
        argv = ["certify", *argv, "--dump-lyapunov", str(tmp_path / "h.csv")]
    else:
        argv = ["certify", *argv]
    propagations = _count_calls(monkeypatch, floquet_lyapunov, "deviation_matrizant")
    solve_calls = _count_calls(monkeypatch, cli, "solve_periodic_lyapunov_scaled")
    assert main(argv) == code
    capsys.readouterr()
    assert len(propagations) == 1
    assert len(solve_calls) == solves


@pytest.mark.parametrize("beta, mu", [(0.25, "3e-9"), (0.25, "1e-12"), (0.4999, "5e-11")])
def test_whole_certified_range_exits_0(beta, mu, tmp_path, capsys):
    # these sat below a fixed 1 - rho >= 1e-9 floor and exited 1, although
    # 1 - rho = -expm1(-alpha mu T/2) > 0 and mu <= mu0
    path = write_model(tmp_path, beta=beta)
    assert main(["certify", "--model", path, "--mu", mu]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert float(mu) <= cert["bound_chain"]["mu0"]
    assert cert["spectral_radius_at_mu"] < 1.0
    assert cert["lyapunov"]["h_min"] * float(mu) == pytest.approx(5.0, rel=1e-6)
    assert cert["lyapunov"]["bvp_residual_scaled"] <= 1e-12


def _payload_numbers(node):
    """Every leaf of a JSON payload that is a number or a non-finite marker."""
    if isinstance(node, dict):
        for v in node.values():
            yield from _payload_numbers(v)
    elif isinstance(node, list):
        for v in node:
            yield from _payload_numbers(v)
    elif isinstance(node, str) and node in ("inf", "-inf", "nan"):
        yield float(node)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield node


@pytest.mark.parametrize("k", [14, 30, 60, 100, 140])
def test_tiny_mu_is_finite_or_refused_by_name(k, model_file, tmp_path, capsys):
    # h_max grows like 2/mu^3: its fourth power overflows from mu = 1e-26
    # (an OverflowError with a bare errno message), and below 1e-77 H itself
    # does not fit in a double, whose infinities read as NaN downstream
    out = tmp_path / "cert.json"
    code = main(["certify", "--model", model_file, "--mu", f"1e-{k}", "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 1), err
    if code == 0:
        payload = json.loads(out.read_text())
        assert payload["attraction"]["lyapunov_radius_sq"] >= 0.0
        assert all(math.isfinite(x) for x in _payload_numbers(payload)), payload
    else:
        assert f"mu=1e-{k}" in err, err
        assert "(34," not in err and "Numerical result" not in err, err
        assert "Warning" not in err, err
