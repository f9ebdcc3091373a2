"""Relations between whole ``certify`` runs that need no reference values.

A time shift of the forcing, phi(t) -> phi(t + tau), moves every solution of
the equation by tau.  The constants of the chain, the monodromy radius and
the extremes of H(t, mu) over a period do not depend on where the period
starts (Chen et al., "Metamorphic testing: a review of challenges and
opportunities", ACM Computing Surveys 51(1), 2018).  The step count is a
multiple of 12, so the shifted runs sample the same times, and the relations
hold up to roundoff rather than up to the RK4 error.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from mathieu_cert.cli import main

from conftest import TWO_PI

STEPS = 1536
SHIFTS = (1 / 4, 1 / 3, 1 / 2)  # tau / T
AMPLITUDE = st.builds(lambda a, s: s * a, st.floats(0.1, 2.0), st.sampled_from([-1.0, 1.0]))


def shifted(harmonics, frac):
    """The harmonics of phi(t + frac T): each (c, s) rotated by k 2 pi frac."""
    out = []
    for h in harmonics:
        theta = 2.0 * math.pi * h["k"] * frac
        cos, sin = math.cos(theta), math.sin(theta)
        out.append({"k": h["k"], "cos": h["cos"] * cos + h["sin"] * sin,
                    "sin": h["sin"] * cos - h["cos"] * sin})
    return out


def certify(tmp_path, harmonics, beta, mu, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"alpha": 0.1, "beta": beta,
                                "phi": {"period": TWO_PI, "harmonics": harmonics},
                                "f": {"kind": "pendulum_sine"}, "gamma": math.pi}))
    code = main(["certify", "--model", str(path), "--mu", repr(mu), "--steps", str(STEPS)])
    return code, json.loads(capsys.readouterr().out)


def assert_shift_invariant(a, b):
    """The parts of two certify payloads that a time shift must not move."""
    assert a.keys() == b.keys() and a["bound_chain"].keys() == b["bound_chain"].keys()
    assert a["bogolyubov"]["holds"] == b["bogolyubov"]["holds"]
    for key, value in a["bound_chain"].items():
        assert b["bound_chain"][key] == pytest.approx(value, rel=1e-13, abs=0.0), key
    # the radius, and 1 - rho where it is close to 1
    rho_a, rho_b = a["spectral_radius_at_mu"], b["spectral_radius_at_mu"]
    assert abs(rho_b - rho_a) <= 1e-13 * min(rho_a, abs(1.0 - rho_a)), (rho_a, rho_b)
    if "lyapunov" in a:
        for key in ("h_min", "h_max"):
            assert b["lyapunov"][key] == pytest.approx(a["lyapunov"][key], rel=1e-13, abs=0.0), key
        for level in ("linear", "nonlinear"):
            budget = b["budgets"][level]["budget_coeff"]
            assert budget == pytest.approx(a["budgets"][level]["budget_coeff"], rel=1e-13, abs=0.0)


def real_multipliers(payload):
    """Whether the monodromy pair is real: a complex pair has modulus exp(-alpha mu T / 2)."""
    alpha, mu = payload["model"]["alpha"], payload["mu"]
    return abs(payload["spectral_radius_at_mu"] - math.exp(-0.5 * alpha * mu * TWO_PI)) > 1e-9


@st.composite
def forcings(draw):
    ks = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=True))
    return [{"k": k, "cos": draw(AMPLITUDE), "sin": draw(AMPLITUDE)} for k in ks]


@given(forcings(), st.sampled_from([0.05, 0.6, 1.5]))
@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_time_shift_moves_no_certificate_value(tmp_path, capsys, harmonics, mu):
    # beta at half the averaged restoring term, so that the averaged test holds
    beta = 0.25 * math.fsum((h["cos"] ** 2 + h["sin"] ** 2) / h["k"] ** 2 for h in harmonics)
    code, far = certify(tmp_path, harmonics, beta, mu, capsys)
    assert code == 2
    event(f"real multipliers: {real_multipliers(far)}")
    mu0 = far["bound_chain"]["mu0"]
    code, near = certify(tmp_path, harmonics, beta, mu0 / 2.0, capsys)
    assert code == 0
    for frac in SHIFTS:
        moved = shifted(harmonics, frac)
        for payload, at in ((far, mu), (near, mu0 / 2.0)):
            code, other = certify(tmp_path, moved, beta, at, capsys)
            assert code == (0 if at < mu0 else 2)
            assert_shift_invariant(payload, other)


@pytest.mark.parametrize("mu", [7e-8, 0.3, 0.674, 2.0])
@pytest.mark.parametrize("harmonics", [
    [{"k": 1, "cos": 0.0, "sin": -1.0}],
    [{"k": 1, "cos": 0.3, "sin": -1.0}, {"k": 2, "cos": 0.4, "sin": 0.2}],
], ids=["pendulum", "two-harmonics"])
def test_time_shift_with_real_multipliers(tmp_path, capsys, harmonics, mu):
    # past the first onset of the pendulum (mu ~ 0.61) the multipliers are
    # real, and the radius comes from the propagation, not from Liouville alone
    code, payload = certify(tmp_path, harmonics, 0.25, mu, capsys)
    assert code == (0 if mu < 1e-7 else 2)
    assert real_multipliers(payload) == (mu > 0.6)
    for frac in SHIFTS:
        assert_shift_invariant(payload, certify(tmp_path, shifted(harmonics, frac), 0.25, mu, capsys)[1])
