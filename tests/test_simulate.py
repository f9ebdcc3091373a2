import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mathieu_cert.floquet_lyapunov import matrizant
from mathieu_cert.model import Nonlinearity, shift_to_zero, system_matrix_entries
from mathieu_cert.periodic_signal import PeriodicSignal
from mathieu_cert.robustness import Perturbation, decay_envelope
from mathieu_cert.simulate import (
    Trajectory,
    integrate,
    integrate_batch,
    nonlinear_system,
    verify_envelope,
)

from conftest import TWO_PI
from oracles import batch_rk4_separate_arrays, linear_system, nonlinearity_value_from_zeros, solve_periodic_lyapunov
from test_robustness import constant_sol


def autonomous(*coeffs):
    # y'' + f(y) = 0 for the polynomial f with these coefficients
    return nonlinear_system(
        0.0, 1.0, PeriodicSignal(TWO_PI, ()), Nonlinearity("polynomial", coeffs), 1.0
    )


def oscillator():
    # y'' = -y, the integrator self-test system
    return autonomous(1.0)


class TestRk4:
    def test_harmonic_oscillator_period(self):
        traj = integrate(oscillator(), 1.0, 0.0, TWO_PI, 4096, record_stride=4096)
        assert abs(traj.states[-1, 0] - 1.0) < 1e-8
        assert abs(traj.states[-1, 1]) < 1e-8

    def test_exact_on_linear_drift(self, lin):
        # mu = 0 collapses the system to y'' = 0, polynomial of degree one
        sys0 = linear_system(lin, 0.0)
        traj = integrate(sys0, 0.5, 2.0, 3 * TWO_PI, 512, record_stride=64)
        np.testing.assert_allclose(
            traj.states[:, 0], 0.5 + 2.0 * traj.times, rtol=1e-12
        )
        np.testing.assert_allclose(traj.states[:, 1], 2.0, rtol=1e-14)

    def test_fourth_order_convergence(self):
        def final_error(steps):
            traj = integrate(oscillator(), 1.0, 0.0, TWO_PI, steps, record_stride=steps)
            return float(np.hypot(traj.states[-1, 0] - 1.0, traj.states[-1, 1]))

        ratio = final_error(512) / final_error(1024)
        assert 12.0 <= ratio <= 20.0

    def test_validation(self):
        with pytest.raises(ValueError):
            integrate(oscillator(), 1.0, 0.0, 1.0, 128)
        with pytest.raises(ValueError):
            integrate(oscillator(), 1.0, 0.0, -1.0, 512)
        with pytest.raises(ValueError, match="finite"):
            integrate(oscillator(), np.nan, 0.0, 1.0, 512)
        with pytest.raises(ValueError, match="t_end must be finite"):
            integrate(oscillator(), 1.0, 0.0, np.inf, 512)
        with pytest.raises(ValueError, match="finite"):
            integrate_batch(oscillator(), [[0.0, 1.0], [0.0, np.inf]], 1.0, 512)
        # a start past the divergence cutoff refuses the whole batch
        with pytest.raises(ValueError, match=r"cutoff 1e\+12, got \[\[0\.0, 1\.0\], \[1e\+200, 0\.0\]\]$"):
            integrate_batch(oscillator(), [[0.0, 1.0], [1e200, 0.0]], 1.0, 512)
        with pytest.raises(ValueError, match="t_end must be finite and span fewer than 2"):
            integrate(oscillator(), 1.0, 0.0, 1e300, 512)


class TestAgainstMatrizant:
    def test_monodromy_columns(self, lin):
        mu = 0.05
        _, Y = matrizant(system_matrix_entries(lin, mu), TWO_PI, 4096)
        system = linear_system(lin, mu)
        e1 = integrate(system, 1.0, 0.0, TWO_PI, 4096, record_stride=4096)
        e2 = integrate(system, 0.0, 1.0, TWO_PI, 4096, record_stride=4096)
        np.testing.assert_allclose(e1.states[-1], Y[-1, :, 0], atol=1e-8)
        np.testing.assert_allclose(e2.states[-1], Y[-1, :, 1], atol=1e-8)

    def test_perturbed_columns_mid_period(self, lin):
        # 2.5 periods: the coefficient table wraps twice and the run ends
        # half way through it; A(t) is built by hand from the model formula
        mu, scaling = 0.05, -1.0  # scaling = f'(pi) of the pendulum
        d_phi = PeriodicSignal(TWO_PI, ((2, 0.1, 0.05),))
        pert = Perturbation(0.02, -0.01, d_phi, 0.03, scaling)

        def A(t):
            t = np.asarray(t, dtype=float)
            d_phi_t = 0.03 + 0.1 * np.cos(2.0 * t) + 0.05 * np.sin(2.0 * t)
            c = (lin.beta_hat - 0.01 * scaling) * mu**2 + mu * (
                lin.phi_hat.eval(t) + scaling * d_phi_t
            )
            out = np.zeros(t.shape + (2, 2))
            out[..., 0, 1] = 1.0
            out[..., 1, 0] = -c
            out[..., 1, 1] = -(lin.alpha + 0.02) * mu
            return out

        t_end = 2.5 * TWO_PI
        Y = matrizant(A, t_end, 10240)[1][-1]
        system = linear_system(lin, mu, pert)
        for col, (y0, y1) in enumerate(np.eye(2)):
            traj = integrate(system, y0, y1, t_end, 4096, record_stride=4096)
            assert traj.times[-1] == pytest.approx(t_end, rel=1e-14)
            np.testing.assert_allclose(traj.states[-1], Y[:, col], atol=1e-8)


class TestEnergyDrift:
    def test_undamped_quadratic_invariant(self):
        # alpha = 0, no forcing, f = -y: y'' = beta*mu^2*y conserves
        # E = y'^2 - beta*mu^2*y^2
        beta, mu = 0.25, 0.01
        phi0 = PeriodicSignal(TWO_PI, ())
        f = Nonlinearity("polynomial", (-1.0,))
        system = nonlinear_system(0.0, beta, phi0, f, mu)
        traj = integrate(system, 1.0, 0.3, 10 * TWO_PI, 4096, record_stride=256)
        c2 = beta * mu * mu
        E = traj.states[:, 1] ** 2 - c2 * traj.states[:, 0] ** 2
        assert np.max(np.abs(E - E[0])) < 1e-6


class TestDivergence:
    def test_truncation_and_flag(self):
        system = autonomous(-50.0)  # y'' = 50 y
        traj = integrate(system, 1.0, 0.0, 10 * TWO_PI, 512, record_stride=8)
        assert traj.diverged
        assert np.all(np.isfinite(traj.states))
        assert traj.times[-1] < 10 * TWO_PI  # truncated before the horizon

    def test_batch_freezes_divergent_member(self):
        system = autonomous(-50.0)  # y'' = 50 y
        trajs = integrate_batch(
            system, np.array([[1.0, 0.0], [0.0, 0.0]]), 8 * TWO_PI, 512, record_stride=8
        )
        assert trajs[0].diverged and not trajs[1].diverged
        assert np.all(np.isfinite(trajs[0].states))
        np.testing.assert_array_equal(trajs[1].states, 0.0)

    def test_non_finite_step_holds_initial_state(self):
        # f(1e11) = 1e300 * 1e33 overflows: the first step is inf or NaN
        system = autonomous(0.0, 0.0, 1e300)
        traj = integrate(system, 1e11, 0.0, TWO_PI, 512, record_stride=8)
        assert traj.diverged
        assert np.all(np.isfinite(traj.states))
        assert np.all(traj.states == [1e11, 0.0])

    def test_overflowing_sine_stage_holds_initial_state(self, pendulum_model):
        # c = beta mu^2 overflows to inf, so a stage of the first step sends
        # sin an infinite argument; the run must fail the bound test, not raise
        m = pendulum_model
        system = nonlinear_system(m.alpha, m.beta, m.phi, shift_to_zero(m), 1e200)
        traj = integrate(system, 0.1, 0.0, TWO_PI, 512, record_stride=8)
        assert traj.diverged
        assert np.all(np.isfinite(traj.states))
        assert np.all(traj.states == [0.1, 0.0])


class TestBatchConsistency:
    @pytest.mark.parametrize(
        "tag", ["linear", "perturbed_linear", "nonlinear", "perturbed_nonlinear"]
    )
    def test_matches_single_runs(self, tag, lin, pendulum_model):
        # a single run steps on floats, a batch on arrays, with the same
        # arithmetic: batch members are bit-identical to single runs
        m = pendulum_model
        pert = Perturbation.for_model(
            m, 0.02, -0.01, PeriodicSignal(TWO_PI, ((2, 0.1, 0.05),)), 0.03
        )
        if "nonlinear" not in tag:
            system = linear_system(lin, 0.05, pert if tag.startswith("perturbed") else None)
        elif tag == "nonlinear":
            cubic = Nonlinearity("polynomial", (-1.0, 0.1, 0.2))
            system = nonlinear_system(m.alpha, m.beta, m.phi, cubic, 0.05)
        else:
            system = nonlinear_system(m.alpha, m.beta, m.phi, shift_to_zero(m), 0.05, pert)
        assert system.tag == tag
        inits = np.array([[1.0, 0.0], [0.2, -0.7], [0.0, 1.0]])
        batch = integrate_batch(system, inits, 3 * TWO_PI, 512, record_stride=32)
        for init, traj in zip(inits, batch):
            single = integrate(system, init[0], init[1], 3 * TWO_PI, 512, record_stride=32)
            np.testing.assert_array_equal(single.states, traj.states)
            np.testing.assert_array_equal(single.times, traj.times)

    def test_diverging_member_matches_single_run(self):
        # y'' = -y + y^3 blows up in finite time from y = 2 and oscillates from 0.5
        system = autonomous(1.0, 0.0, -1.0)
        inits = np.array([[0.5, 0.0], [2.0, 0.0]])
        bounded, blown = integrate_batch(system, inits, 4 * TWO_PI, 512, record_stride=8)
        assert blown.diverged and not bounded.diverged
        single = integrate(system, 2.0, 0.0, 4 * TWO_PI, 512, record_stride=8)
        assert single.diverged
        kept = len(single.times)
        assert kept < len(blown.times)
        np.testing.assert_array_equal(single.times, blown.times[:kept])
        np.testing.assert_array_equal(single.states, blown.states[:kept])
        # untruncated, the float path holds the same state over the same grid
        (held,) = integrate_batch(system, inits[1:], 4 * TWO_PI, 512, record_stride=8)
        assert held.diverged
        np.testing.assert_array_equal(held.times, blown.times)
        np.testing.assert_array_equal(held.states, blown.states)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def assert_batch_matches_separate_arrays(system, inits, t_end, steps, stride):
    """integrate_batch equals the separate-array loop bit for bit; returns the flags."""
    trajs = integrate_batch(system, inits, t_end, steps, record_stride=stride)
    times, states, frozen = batch_rk4_separate_arrays(system, inits, t_end, steps, stride)
    for i, traj in enumerate(trajs):
        assert_same_bits(traj.times, times)
        assert_same_bits(traj.states, states[:, i])
    assert_same_bits([traj.diverged for traj in trajs], frozen)
    return frozen


def forced(f):
    phi = PeriodicSignal(TWO_PI, ((1, -0.4, 0.3), (3, 0.2, 0.0)))
    return nonlinear_system(0.1, 0.25, phi, f, 1.0)


class TestBatchAgainstSeparateArrays:
    """The stacked stage buffer steps every member with the per-element
    operations of the loop on separate y and y' arrays, which the tests keep
    as an oracle, and follows its hold rule bit for bit."""

    @pytest.mark.parametrize("width", [2, 3, 64])
    @pytest.mark.parametrize(
        "tag", ["linear", "perturbed_linear", "nonlinear", "perturbed_nonlinear"]
    )
    def test_system_tags(self, tag, width, lin, pendulum_model):
        m = pendulum_model
        pert = None
        if tag.startswith("perturbed"):
            d_phi = PeriodicSignal(TWO_PI, ((2, 0.1, 0.05),))
            pert = Perturbation.for_model(m, 0.02, -0.01, d_phi, 0.03)
        if "nonlinear" in tag:
            system = nonlinear_system(m.alpha, m.beta, m.phi, shift_to_zero(m), 0.05, pert)
        else:
            system = linear_system(lin, 0.05, pert)
        assert system.tag == tag
        inits = np.random.default_rng(width).uniform(-1.0, 1.0, (width, 2))
        # 666 steps: a stride of 7 does not divide them
        assert_batch_matches_separate_arrays(system, inits, 1.3 * TWO_PI, 512, 7)

    @pytest.mark.parametrize("width", [2, 64])
    @pytest.mark.parametrize(
        "f",
        [
            Nonlinearity("polynomial", (-1.0, 0.1, -0.0)),
            Nonlinearity("polynomial", (-0.0,)),
            Nonlinearity("polynomial", (2.0, -0.5, 0.25), 0.7),
            Nonlinearity("pendulum_sine", (), 0.0, 2.5),
            Nonlinearity("pendulum_sine", (), 3.0, -0.75),
        ],
    )
    def test_nonlinearities(self, f, width):
        inits = np.random.default_rng(width).uniform(-2.0, 2.0, (width, 2))
        inits[:2] = [[0.0, -0.0], [-0.0, 0.0]]  # signed zeros keep their sign
        assert_batch_matches_separate_arrays(forced(f), inits, 0.8 * TWO_PI, 256, 5)

    @pytest.mark.parametrize(
        "f",
        [
            Nonlinearity("polynomial", (-1.0, 0.1, -0.0)),
            Nonlinearity("polynomial", (-0.0,)),
            Nonlinearity("polynomial", (0.5, -0.0, -0.0), -0.2),
            Nonlinearity("pendulum_sine", (), 3.0, -0.75),
        ],
    )
    def test_value_on_arrays_matches_zeros_start(self, f):
        ys = np.array([0.0, -0.0, 1e-300, -2.5, 0.2, 1e200, -np.inf, np.nan])
        with np.errstate(over="ignore", invalid="ignore"):
            assert_same_bits(f.value(ys), nonlinearity_value_from_zeros(f, ys))

    def test_only_velocity_turns_nan(self):
        # c = 0 and g(y) = 1e300 y^2: g is finite at the stages y and y + h v/2
        # but overflows at y + h v, so k4 = -0 v - 0 inf is NaN and only y' of
        # the first step is NaN; the bound test must not drop that NaN
        f = Nonlinearity("polynomial", (0.0, 1e300))
        system = nonlinear_system(0.0, 0.0, PeriodicSignal(TWO_PI, ()), f, 1.0)
        h = TWO_PI / 256
        inits = np.array([[12000.0, 2000.0 / h], [1.0, 0.0], [0.0, 3.0]])
        frozen = assert_batch_matches_separate_arrays(system, inits, 0.1 * TWO_PI, 256, 1)
        np.testing.assert_array_equal(frozen, [True, False, False])

    def test_member_failing_once_stays_held(self):
        # c = -50 cos(64 t) pushes the first member past 1e12 in the first
        # step and pulls it back in the second: a held member must stay held
        f = Nonlinearity("polynomial", (1.0,))
        phi = PeriodicSignal(TWO_PI, ((64, -50.0, 0.0),))
        system = nonlinear_system(0.0, 0.0, phi, f, 1.0)
        inits = np.array([[0.999e12, 0.0], [0.5, 0.0]])
        frozen = assert_batch_matches_separate_arrays(system, inits, 0.1 * TWO_PI, 256, 1)
        np.testing.assert_array_equal(frozen, [True, False])

    @pytest.mark.parametrize(
        "system, inits, t_end, steps, stride",
        [
            # as above from 0.98e12: max(|y|, |y'|) passes 1e12 at step 2 only,
            # inside the first record block of 4 steps, and is below it at step 4
            (nonlinear_system(0.0, 0.0, PeriodicSignal(TWO_PI, ((64, -50.0, 0.0),)),
                              Nonlinearity("polynomial", (1.0,)), 1.0),
             [[0.98e12, 0.0], [0.5, 0.0]], 0.1 * TWO_PI, 256, 4),
            # as in test_only_velocity_turns_nan, y' of the first member turns
            # NaN at step 3, inside the first record block of 5 steps
            (nonlinear_system(0.0, 0.0, PeriodicSignal(TWO_PI, ()),
                              Nonlinearity("polynomial", (0.0, 1e300)), 1.0),
             [[12000.0, 500.0 / (TWO_PI / 256)], [1.0, 0.0], [0.0, 3.0]], 0.1 * TWO_PI, 256, 5),
            # y'' = 50 y from y = 1 passes 1e12 at step 304, in the last record
            # block (steps 289 to 310), which is partial: 24 does not divide 310
            (autonomous(-50.0), [[1.0, 0.0], [0.0, 0.0]], 310 * TWO_PI / 512, 512, 24),
        ],
        ids=["back_below_at_block_end", "nan_mid_block", "partial_last_block"],
    )
    def test_failure_inside_a_record_block(self, system, inits, t_end, steps, stride):
        # the batch tests its bound once per record block and replays a failed
        # block step by step: flags and held states stay those of the per-step rule
        frozen = assert_batch_matches_separate_arrays(system, np.array(inits), t_end, steps, stride)
        np.testing.assert_array_equal(frozen, [True] + [False] * (len(inits) - 1))

    @pytest.mark.parametrize(
        "system, inits",
        [
            # y'' = 50 y: every member diverges, at different steps
            (autonomous(-50.0), [[1.0, 0.0], [0.0, 1e-3], [-1e4, 2.0]]),
            # f(1e11) = 1e300 * 1e33 overflows: the first member fails the first step
            (autonomous(0.0, 0.0, 1e300), [[1e11, 0.0], [0.3, 0.0], [0.0, -0.2]]),
            # y'' = -y + y^3 blows up in finite time from y = 2 only
            (autonomous(1.0, 0.0, -1.0), [[0.5, 0.0], [2.0, 0.0]]),
        ],
    )
    def test_diverging_members(self, system, inits):
        frozen = assert_batch_matches_separate_arrays(
            system, np.array(inits), 4 * TWO_PI, 512, 24
        )
        assert frozen.any()

    def test_overflowing_sine_coefficient(self, pendulum_model):
        # c = beta mu^2 overflows to inf at mu = 1e200, for every member
        m = pendulum_model
        system = nonlinear_system(m.alpha, m.beta, m.phi, shift_to_zero(m), 1e200)
        inits = np.array([[0.1, 0.0], [0.0, 0.0], [-0.2, 0.3]])
        frozen = assert_batch_matches_separate_arrays(system, inits, TWO_PI, 512, 8)
        np.testing.assert_array_equal(frozen, [True, True, True])

    def test_empty_batch(self):
        assert integrate_batch(oscillator(), np.zeros((0, 2)), 1.0, 512) == []

    @settings(max_examples=40, deadline=None)
    @given(
        width=st.integers(2, 70),
        sine=st.booleans(),
        coeffs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
        shift=st.floats(-4.0, 4.0),
        alpha=st.floats(0.0, 1.0),
        mu=st.floats(0.01, 3.0),
        scale=st.sampled_from([1.0, 1e3, 1e6]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_batches(self, width, sine, coeffs, shift, alpha, mu, scale, seed):
        if sine:
            f = Nonlinearity("pendulum_sine", (), shift, coeffs[0] or 1.0)
        else:
            f = Nonlinearity("polynomial", tuple(coeffs), shift)
        phi = PeriodicSignal(TWO_PI, ((1, coeffs[-1], 0.5), (2, 0.0, -0.3)))
        system = nonlinear_system(alpha, 0.25, phi, f, mu)
        inits = np.random.default_rng(seed).uniform(-scale, scale, (width, 2))
        assert_batch_matches_separate_arrays(system, inits, 0.6 * TWO_PI, 256, 9)


class TestNonlinearityOnFloats:
    @pytest.mark.parametrize(
        "f",
        [
            Nonlinearity("pendulum_sine", (), 3.0, -1.0),
            Nonlinearity("pendulum_sine", (), 0.0, 2.5),
            Nonlinearity("polynomial", (-1.0, 0.1, 0.2)),
            Nonlinearity("polynomial", (2.0,), 0.7),
        ],
    )
    def test_float_matches_array_bit_for_bit(self, f):
        rng = np.random.default_rng(7)
        ys = np.concatenate(
            [rng.uniform(-4.0, 4.0, 200), 10.0 ** rng.uniform(-300.0, 200.0, 100),
             [0.0, -0.0, 1e300, -1e300, np.inf, -np.inf, np.nan]]
        )
        with np.errstate(over="ignore", invalid="ignore"):
            expected = f.value(ys)
        got = [f.value(y) for y in ys.tolist()]
        assert all(type(v) is float for v in got)
        np.testing.assert_array_equal(np.array(got), expected)


class TestLyapunovValue:
    def test_zero_state(self, lin):
        sol = constant_sol(0.5)
        system = linear_system(lin, 0.01)
        traj = integrate(system, 0.0, 0.0, TWO_PI, 512, record_stride=64)
        assert sol.value(traj.times[3], traj.states[3]) == 0.0

    def test_constant_half_identity(self):
        sol = constant_sol(0.5)
        traj_states = np.array([[2.0, 0.0]])
        from mathieu_cert.simulate import Trajectory

        traj = Trajectory(
            times=np.array([0.0]), states=traj_states, mu=0.01, system_tag="linear"
        )
        assert sol.value(traj.times[0], traj.states[0]) == pytest.approx(2.0, rel=1e-15)

    def test_decreases_along_stable_flow(self, lin, sol_moderate_mu):
        system = linear_system(lin, 0.01)
        traj = integrate(system, 1.0, 0.0, 40 * TWO_PI, 1024, record_stride=1024)
        first = sol_moderate_mu.value(traj.times[0], traj.states[0])
        last = sol_moderate_mu.value(traj.times[-1], traj.states[-1])
        assert last < first


class TestVerifyEnvelope:
    def test_zero_trajectory_passes(self, lin):
        traj = integrate(linear_system(lin, 0.01), 0.0, 0.0, TWO_PI, 512, record_stride=64)
        report = verify_envelope(traj, lambda t: np.ones_like(t))
        assert report.passed and report.max_margin <= -1.0 + 1e-12

    def test_exact_constant_case(self):
        # the exact flow exp(-t) v0 of A = -I decays exactly like its envelope
        sol = solve_periodic_lyapunov(lambda t: -np.eye(2), 1.0, 1024, mu=1.0)
        times = np.linspace(0.0, 5.0, 161)
        states = np.exp(-times)[:, None] * np.array([0.6, -0.8])
        traj = Trajectory(times=times, states=states, mu=0.0, system_tag="linear")
        report = verify_envelope(traj, lambda t: decay_envelope(sol, None, 1.0, t, "linear"))
        assert report.passed
        assert report.max_ratio == pytest.approx(1.0, abs=1e-6)

    def test_violation_detected(self, lin):
        system = linear_system(lin, 0.01)
        traj = integrate(system, 1.0, 0.0, TWO_PI, 512, record_stride=64)
        report = verify_envelope(traj, lambda t: np.full_like(t, 1e-6))
        assert not report.passed


class TestPerturbedSystem:
    def test_zero_perturbation_matches_nominal(self, lin):
        pert = Perturbation.zero()
        s1 = linear_system(lin, 0.03)
        s2 = linear_system(lin, 0.03, pert)
        t1 = integrate(s1, 1.0, 0.5, TWO_PI, 512, record_stride=32)
        t2 = integrate(s2, 1.0, 0.5, TWO_PI, 512, record_stride=32)
        np.testing.assert_array_equal(t1.states, t2.states)
        # the tag says whether the perturbation is non-zero, as for nonlinear systems
        assert t2.system_tag == "linear"
        assert linear_system(lin, 0.03, Perturbation(0.01, 0.0)).tag == "perturbed_linear"

    def test_nonlinear_tags(self, pendulum_model):
        m = pendulum_model
        s_plain = nonlinear_system(m.alpha, m.beta, m.phi, m.f, 0.01)
        s_pert = nonlinear_system(
            m.alpha, m.beta, m.phi, m.f, 0.01, Perturbation.for_model(m, d_alpha=0.01)
        )
        assert s_plain.tag == "nonlinear"
        assert s_pert.tag == "perturbed_nonlinear"

    def test_period_mismatch_rejected(self, lin, pendulum_model):
        # the coefficient table covers one system period, so d_phi must share it
        m = pendulum_model
        pert = Perturbation.for_model(m, d_phi=PeriodicSignal(2.0 * TWO_PI, ((1, 0.1, 0.0),)))
        with pytest.raises(ValueError, match="period"):
            linear_system(lin, 0.03, pert)
        with pytest.raises(ValueError, match="period"):
            nonlinear_system(m.alpha, m.beta, m.phi, m.f, 0.03, pert)
