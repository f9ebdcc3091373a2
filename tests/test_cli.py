import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from mathieu_cert import cli, floquet_lyapunov
from mathieu_cert.cli import build_certificate, main, parse_grid_spec
from mathieu_cert.averaging import build_transform
from mathieu_cert.floquet_lyapunov import (
    _z_generator,
    deviation_matrizant,
    matrizant,
    spectral_radius_from_deviation,
)
from mathieu_cert.model import linearize, model_from_dict, shift_to_zero, system_matrix_entries
from mathieu_cert.periodic_signal import QuadratureGrid
from mathieu_cert.robustness import Perturbation, decay_envelope
from mathieu_cert.simulate import integrate, nonlinear_system

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


def csv_fields(text):
    """The rows of a CSV text without its '#' comment lines, split into fields."""
    return [line.split(",") for line in text.splitlines() if not line.startswith("#")]


def assert_fields_equal(rows, expected):
    # every written field reads back as exactly the library value
    got = np.array([[float(x) for x in row] for row in rows])
    assert np.array_equal(got, expected, equal_nan=True)


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
        hrows = csv_fields(hdump.read_text())
        assert hrows[0] == ["t", "h11", "h12", "h22", "h_min_t", "h_norm_t"]
        sol = build_certificate(model_from_dict(PEND), 7e-8, steps=1024).sol
        H = sol.H
        expected = np.column_stack([sol.times, H[:, 0, 0], H[:, 0, 1], H[:, 1, 1],
                                    sol.hmin_nodes, sol.hnorm_nodes])
        assert_fields_equal(hrows[1:], expected)
        yrows = csv_fields(ydump.read_text())
        assert yrows[0] == ["t", "y11", "y12", "y21", "y22"]
        lin = linearize(model_from_dict(PEND))
        times, Y = matrizant(system_matrix_entries(lin, 7e-8), lin.period, 1024)
        expected = np.column_stack([times, Y[:, 0, 0], Y[:, 0, 1], Y[:, 1, 0], Y[:, 1, 1]])
        assert_fields_equal(yrows[1:], expected)


class TestMargins:
    def test_budgets_reported(self, model_file, capsys):
        code = main(["margins", "--model", model_file, "--mu", "7e-8"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        lin = payload["budgets"]["linear"]
        nonlin = payload["budgets"]["nonlinear"]
        assert lin["budget_phi_sup"] == pytest.approx(2.0 * nonlin["budget_phi_sup"])
        assert payload["h_max"] > 0.0

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_outside_range(self, fmt, model_file, capsys):
        # the certificate stands in for the budgets, in the format asked for
        assert main(["margins", "--model", model_file, "--mu", "0.01", "--format", fmt]) == 2
        margins = capsys.readouterr().out
        assert main(["certify", "--model", model_file, "--mu", "0.01", "--format", fmt]) == 2
        assert margins == capsys.readouterr().out

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

    @pytest.mark.parametrize("y0, envelope", [("1e-32", True), ("0.5", False)])
    def test_fields_equal_library_values(self, y0, envelope, model_file, capsys):
        argv = ["--mu", "7e-8", "--rho", "0.5", "--y0", y0, "--y1=-2e-40",
                "--t-end", "9.5", "--steps", "1024", "--stride", "64"]
        assert main(["simulate", "--model", model_file, *argv]) == 0
        text = capsys.readouterr().out
        model, mu = model_from_dict(PEND), 7e-8
        sol = build_certificate(model, mu, rho=0.5, steps=1024).sol
        system = nonlinear_system(model.alpha, model.beta, model.phi, shift_to_zero(model), mu)
        traj = integrate(system, float(y0), -2e-40, 9.5, 1024, 64)
        psi0 = sol.value_at_node(0, np.array([float(y0), -2e-40]))
        assert f"# mu={mu!r} y0={float(y0)!r} y1={-2e-40!r} t_end={float(traj.times[-1])!r}" in text
        assert f"# initial_lyapunov_value={psi0!r}" in text
        assert f"# envelope_certified={str(envelope).lower()} " in text
        rows = csv_fields(text)
        assert rows[0] == ["t", "y", "y_prime", "lyapunov_value", "envelope", "margin"]
        y, yp = traj.states.T
        if envelope:
            env = decay_envelope(sol, Perturbation.zero(), psi0, traj.times, "nonlinear")
        else:
            env = np.full_like(traj.times, math.nan)
        expected = np.column_stack([traj.times, y, yp, sol.value(traj.times, traj.states),
                                    env, env - (y * y + yp * yp)])
        assert_fields_equal(rows[1:], expected)

    @pytest.mark.parametrize("value", ["-1e-3", "-2.5E+1", "-.5", "-3"])
    def test_negative_number_as_a_separate_argument(self, value, model_file, capsys):
        # argparse took "-1e-3" for an option: "--y0 -1e-3" exited 1 with
        # "expected one argument" where "--y0=-1e-3" ran
        argv = ["simulate", "--model", model_file, "--mu", "7e-8", "--y1", "0",
                "--t-end", "6.5", "--steps", "1024", "--stride", "256"]
        assert main([*argv, f"--y0={value}"]) == 0
        joined = capsys.readouterr()
        assert main([*argv, "--y0", value]) == 0
        assert capsys.readouterr() == joined
        assert f"y0={float(value)!r}" in joined.out

    @pytest.mark.parametrize("value", ["-inf", "-Infinity", "-NaN", "-INF"])
    def test_negative_non_finite_as_a_separate_argument(self, value, model_file, capsys):
        # "--y0 -inf" exited 1 with argparse's "expected one argument", which
        # names no value, where "--y0=-inf" reached the simulator's refusal
        argv = ["simulate", "--model", model_file, "--mu", "7e-8", "--y1", "0",
                "--t-end", "6.5", "--steps", "1024", "--stride", "256"]
        assert main([*argv, f"--y0={value}"]) == 1
        joined = capsys.readouterr()
        assert main([*argv, "--y0", value]) == 1
        assert capsys.readouterr() == joined
        assert "initial states must be finite" in joined.err

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
    if case == "y0_huge":  # a start past the divergence cutoff printed NaN
        return ["simulate", "--model", model_file, "--mu", "7e-8", "--y0", "1e200",
                "--y1", "0", "--t-end", "1"]
    if case == "t_end_inf":
        return ["simulate", "--model", model_file, "--mu", "7e-8", "--y0", "0",
                "--y1", "0", "--t-end", "inf", "--steps", "1024"]
    return ["sweep", "--model", model_file, "--mu-grid", "1e-3,inf", "--beta-grid", "0.25"]


@pytest.mark.parametrize(
    "case",
    ["mu_inf", "harmonic_nan", "pert_nan", "rho_nan", "rho_inf", "y0_nan", "y0_huge", "t_end_inf",
     "sweep_inf"],
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


@pytest.mark.parametrize("k", [14, 30, 60, 100, 140, 163, 170, 300])
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
        assert f"H(t, mu) overflows double precision at mu=1e-{k}" in err, err
        assert "(34," not in err and "Numerical result" not in err, err
        assert "Warning" not in err, err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command",
    [["certify", "--mu", "1e-8"], ["sweep", "--mu-grid", "1e-8", "--beta-grid", "0.25"]],
    ids=["certify", "sweep"],
)
def test_overflowing_propagation_is_exit_1(command, tmp_path, capsys):
    # this gave exit 2 with a "nan" radius and a "nan" chart row at exit 0,
    # each after four numpy RuntimeWarnings on stderr
    phi = {"period": TWO_PI, "harmonics": [{"k": 1, "cos": 0.0, "sin": -1e20}]}
    argv = [command[0], "--model", write_model(tmp_path, phi=phi), *command[1:]]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("mathieu-cert: error: the propagation overflows at mu=1e-08, beta_hat=-0.25 "
                   "with 4096 steps per period\n")


@pytest.mark.filterwarnings("error")
def test_overflowing_propagation_names_the_beta_at_fault(model_file, capsys):
    # mu = 1e-3 propagates at beta = 0.25; the message named only mu
    argv = ["sweep", "--model", model_file, "--mu-grid", "1e-3", "--steps", "256", "--beta-grid"]
    assert main([*argv, "0.25"]) == 0
    capsys.readouterr()
    assert main([*argv, "1e150"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("mathieu-cert: error: the propagation overflows at mu=0.001, beta_hat=-1e+150 "
                   "with 256 steps per period\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("amplitude", [1e100, 1e150])
@pytest.mark.parametrize("mu", ["1e-8", "1e-40"])
@pytest.mark.parametrize("command", ["certify", "sweep"])
def test_overflowing_norm_in_the_chain_is_exit_1(command, mu, amplitude, tmp_path, capsys):
    # U1 is finite, but the squares in its norm overflowed with a numpy
    # RuntimeWarning on stderr before the propagation was refused
    phi = {"period": TWO_PI, "harmonics": [{"k": 1, "cos": 0.0, "sin": amplitude}]}
    argv = [command, "--model", write_model(tmp_path, phi=phi)]
    argv += ["--mu", mu] if command == "certify" else ["--mu-grid", mu, "--beta-grid", "0.25"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"mathieu-cert: error: the propagation overflows at mu={float(mu)}, "
                   "beta_hat=-0.25 with 4096 steps per period\n")


def test_radius_only_commands_match_the_full_scan(model_file, tmp_path, capsys):
    # sweep and an exit-2 certify reduce the steps to Z(T) alone; their radii
    # are, bit for bit, those of the full scan's last entry
    lin = linearize(model_from_dict(PEND))
    tr = build_transform(lin, QuadratureGrid(lin.period, 2048))

    def scan_radius(mu, steps):
        _, Z = deviation_matrizant(_z_generator(lin, tr, mu, steps), lin.period, steps)
        return spectral_radius_from_deviation(Z[-1], -lin.alpha * mu * lin.period)

    assert main(["sweep", "--model", model_file, "--mu-grid", "log:1e-8:1e-1:8",
                 "--beta-grid", "0.25", "--steps", "1000"]) == 0
    rows = csv_fields(capsys.readouterr().out)[1:]
    assert len(rows) == 8
    assert [float(r[2]) for r in rows] == [scan_radius(float(r[1]), 1000) for r in rows]
    assert main(["certify", "--model", model_file, "--mu", "0.01", "--steps", "4097"]) == 2
    assert json.loads(capsys.readouterr().out)["spectral_radius_at_mu"] == scan_radius(0.01, 4097)


@pytest.mark.parametrize("k", [1.5, "1"])
@pytest.mark.parametrize("where", ["model", "pert"])
def test_non_integer_harmonic_index_is_exit_1(where, k, model_file, tmp_path, capsys):
    # k = 1.5 was read as harmonic 1, and certify exited 0 for another forcing
    harmonics = [{"k": k, "cos": 0.0, "sin": -1.0}]
    if where == "model":
        argv = ["certify", "--model", write_model(tmp_path, phi={"period": TWO_PI,
                                                                 "harmonics": harmonics})]
    else:
        pert = tmp_path / "pert.json"
        pert.write_text(json.dumps({"d_phi": {"period": TWO_PI, "harmonics": harmonics}}))
        argv = ["certify", "--model", model_file, "--pert", str(pert)]
    assert main([*argv, "--mu", "7e-8"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "mathieu-cert: error: harmonic indices must be integers\n"


def _refusal(argv, capsys):
    """stderr of a command that must exit 1 with nothing on stdout."""
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("mathieu-cert: error: ") and "Traceback" not in err
    return err


def test_sine_stationarity_is_one_rule_for_every_command(tmp_path, capsys):
    # certify ran the pipeline and then refused in shift_to_zero, while sweep
    # charted the same file with certified_by_mu0 = true
    phi = {"period": TWO_PI, "harmonics": [{"k": 1, "cos": 0.0, "sin": -100.0}]}
    path = write_model(tmp_path, phi=phi, gamma=3.1415926536897931,
                       f={"kind": "pendulum_sine", "scale": 0.001})
    certify = _refusal(["certify", "--model", path, "--mu", "1e-12"], capsys)
    sweep = _refusal(["sweep", "--model", path, "--mu-grid", "1e-12", "--beta-grid", "0.25"], capsys)
    assert certify == sweep == ("mathieu-cert: error: gamma=3.141592653689793 is not a stationary "
                                "point: |sin(shift + gamma)|=1.000e-10\n")
    # the float pi is stationary for a sine of any scale
    path = write_model(tmp_path, f={"kind": "pendulum_sine", "scale": 1e4})
    assert main(["certify", "--model", path, "--mu", "1e-12"]) in (0, 2, 3)
    assert main(["sweep", "--model", path, "--mu-grid", "1e-12", "--beta-grid", "0.25"]) == 0


@pytest.mark.parametrize(
    "f, message",
    [({"kind": "polynomial", "coeffs": [-1.0, 0.0, 0.16], "scale": 5.0}, "f.scale applies to"),
     ({"kind": "pendulum_sine", "coeffs": [1.0]}, "f.coeffs apply to"),
     ({"kind": "polynomial", "coeffs": [-1.0], "Scale": 1.0}, "unknown key 'Scale' in f")],
)
def test_field_of_f_that_its_kind_ignores_is_exit_1(f, message, tmp_path, capsys):
    # the polynomial with scale 5 exited 0 with every number of the file without it
    path = write_model(tmp_path, f=f, gamma=0.0)
    argv = ["certify", "--model", path, "--mu", "5e-8", "--rho", "0.5"]
    assert message in _refusal(argv, capsys)


@pytest.mark.parametrize("where", ["model", "pert"])
def test_unknown_harmonic_key_is_exit_1(where, model_file, tmp_path, capsys):
    # {"k": 1, "Sin": -1.0} read as a zero harmonic: exit 3 on the model, a
    # silent zero perturbation on the pert file
    harmonics = [{"k": 1, "Sin": -1.0}]
    if where == "model":
        argv = ["certify", "--model", write_model(tmp_path, phi={"period": TWO_PI,
                                                                 "harmonics": harmonics})]
    else:
        pert = tmp_path / "pert.json"
        pert.write_text(json.dumps({"d_phi": {"period": TWO_PI, "harmonics": harmonics}}))
        argv = ["certify", "--model", model_file, "--pert", str(pert)]
    err = _refusal([*argv, "--mu", "7e-8"], capsys)
    assert err == ("mathieu-cert: error: unknown key 'Sin' in a harmonic entry "
                   "(expected k, cos, sin)\n")


@pytest.mark.parametrize("command", ["certify", "simulate"])
def test_foreign_period_perturbation_is_exit_1(command, model_file, tmp_path, capsys):
    pert = tmp_path / "pert.json"
    pert.write_text(json.dumps({"d_phi": {"period": 3.0, "harmonics": [{"k": 1, "cos": 1e-30}]}}))
    argv = [command, "--model", model_file, "--pert", str(pert), "--mu", "7e-8"]
    if command == "simulate":
        argv += ["--y0", "0", "--y1", "0", "--t-end", "1"]
    err = _refusal(argv, capsys)
    assert err == "mathieu-cert: error: d_phi period must match the system period\n"


def test_grid_moves_no_certificate_value(tmp_path, capsys):
    # phi_max, q(mu), sup|d_phi_hat| and min(a) come from the critical points
    # of their series, so --grid reaches only its own echo (and the
    # --dump-transform nodes); the sampled sups moved with it
    phi = {"period": TWO_PI, "harmonics": [{"k": 1, "cos": 0.3, "sin": -0.8},
                                           {"k": 2, "cos": 0.5, "sin": 0.2}]}
    pert = tmp_path / "pert.json"
    pert.write_text(json.dumps({"d_beta": 1e-22, "d_phi": {
        "harmonics": [{"k": 3, "cos": 1e-23, "sin": 2e-23}], "offset": 1e-23}}))
    argv = ["certify", "--model", write_model(tmp_path, phi=phi), "--mu", "1e-9",
            "--pert", str(pert)]
    payloads = []
    for grid in (16, 2048):
        assert main([*argv, "--grid", str(grid)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["grid"].pop("quadrature_n") == grid
        payloads.append(payload)
    assert payloads[0] == payloads[1]
    assert payloads[0]["budgets"]["perturbation"]["admissible_nonlinear"] is True


def test_zero_coefficient_perturbation(model_file, tmp_path, capsys):
    pert = tmp_path / "pert.json"
    pert.write_text(json.dumps({"d_phi": {"harmonics": [{"k": 1}]}}))
    assert main(["certify", "--model", model_file, "--mu", "7e-8", "--pert", str(pert)]) == 0
    assert json.loads(capsys.readouterr().out)["budgets"]["perturbation"]["mu_sup_d_phi_hat"] == 0.0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command",
    [["certify", "--mu", "1e-8"], ["sweep", "--mu-grid", "1e-8", "--beta-grid", "0.25"]],
    ids=["certify", "sweep"],
)
def test_overflowing_averaged_constants_are_exit_1(command, tmp_path, capsys):
    # this exited 1 with the bare "(34, 'Numerical result out of range')" of
    # phi_max ** 2, after a RuntimeWarning from the Lyapunov solve of an inf U1
    phi = {"period": TWO_PI, "harmonics": [{"k": 1, "cos": 0.0, "sin": -1e200}]}
    argv = [command[0], "--model", write_model(tmp_path, phi=phi), *command[1:]]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "mathieu-cert: error: averaged constants overflow: mean(phi_hat a) = inf in U1\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command",
    [["certify", "--mu", "1e-8"], ["sweep", "--mu-grid", "1e-8", "--beta-grid", "0.25"]],
    ids=["certify", "sweep"],
)
@pytest.mark.parametrize(
    "period, harmonics, message",
    [
        # a finite U1 whose phi_max ** 2 overflowed to the bare errno 34,
        # after a RuntimeWarning from the norm of U1
        (TWO_PI * 1e-7, [{"k": 1, "cos": 0.0, "sin": 1e160}],
         "bound chain overflows: phi_max^2 at phi_max = 1e+160"),
        # mean(B^2) is finite but fsum's partial sum of squares overflowed,
        # as the bare "intermediate overflow in fsum"
        (TWO_PI, [{"k": 1, "cos": 0.0, "sin": 1.2e154}, {"k": 2, "cos": 1.2e154, "sin": 0.0}],
         "averaged constants overflow: mean(phi_hat a) in the averaged test"),
    ],
    ids=["phi_max", "mean_square"],
)
def test_overflowing_chain_is_refused_by_name(period, harmonics, message, command, tmp_path,
                                              capsys):
    phi = {"period": period, "harmonics": harmonics}
    argv = [command[0], "--model", write_model(tmp_path, phi=phi), *command[1:]]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"mathieu-cert: error: {message}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mu", ["1e-320", "5e-324"])
def test_subnormal_mu_is_refused_by_name(mu, model_file, capsys):
    # these exited 1 with numpy's "Singular matrix" and with "monodromy
    # spectral radius 1 is not inside the unit disk", as the solve rounded mu away
    assert main(["certify", "--model", model_file, "--mu", mu]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"mathieu-cert: error: H(t, mu) overflows double precision at mu={float(mu)}\n"
