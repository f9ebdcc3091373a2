"""Fixed-step trajectory integration used to validate every certificate.

Every simulated system has the Mathieu form y'' + a y' + c(t) f(y) = 0 with
constant damping a, T-periodic c and an elementwise f, f(y) = y if linear.  One
classical RK4 loop integrates them all, with a fixed step tied to the period:
certificates compare trajectories against analytic envelopes at fixed times,
and a fixed step makes runs reproducible bit for bit.  c is sampled once on
one period's half-step grid and f resolved once into a kernel.  One member
steps on Python floats.  A batch steps a stacked (y, y') buffer in place:
every ufunc writes through ``out`` into stage buffers allocated once per run,
and f's array kernel works in place; for a sine of scale -1 it skips the
multiply and the stage adds where it would subtract, exact under
round-to-nearest.  Both do the same operations per element and follow the
same hold rule, so a single run equals its batch member bit for bit.  The
batch tests the divergence cutoff once per record block on a running maximum
of |y|, |y'|; a failed block is replayed from its start with a test after
every step, which stays on for the rest of the run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import Nonlinearity
from .periodic_signal import PeriodicSignal, half_step_grid
from .robustness import Perturbation

__all__ = [
    "OdeSystem",
    "Trajectory",
    "EnvelopeReport",
    "nonlinear_system",
    "integrate",
    "integrate_batch",
    "verify_envelope",
]

DIVERGENCE_CUTOFF = 1e12


@dataclass(frozen=True)
class OdeSystem:
    """y'' + damping y' + coef(t) f(y) = 0, with ``period``-periodic ``coef``.

    ``coef`` maps an array of times elementwise.  The integrator evaluates
    ``f`` through its kernels (:meth:`Nonlinearity.kernel`).
    """

    damping: float
    coef: Callable
    f: Nonlinearity
    period: float
    mu: float
    tag: str

    @property
    def g(self) -> Callable:
        """f(y) elementwise on arrays and Python floats, as reference loops call it."""
        return self.f.value


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # (m, 2)
    mu: float
    system_tag: str
    diverged: bool = False


def nonlinear_system(
    alpha: float,
    beta: float,
    phi: PeriodicSignal,
    f: Nonlinearity,
    mu: float,
    pert: Perturbation | None = None,
) -> OdeSystem:
    """y'' + (alpha+da) mu y' + ((beta+db) mu^2 + mu (phi+dphi)(t)) f(y) = 0."""
    pert = Perturbation.resolve(pert, phi.period)
    bm2 = (beta + pert.d_beta) * mu * mu
    return OdeSystem(
        damping=(alpha + pert.d_alpha) * mu,
        coef=lambda t: bm2 + mu * (phi.eval(t) + pert.d_phi_eval(t)),
        f=f,
        period=phi.period,
        mu=mu,
        tag="nonlinear" if pert.is_zero else "perturbed_nonlinear",
    )


def _run(system: OdeSystem, init: np.ndarray, t_end: float, steps_per_period: int, stride: int):
    if steps_per_period < 256:
        raise ValueError("steps_per_period must be at least 256")
    if not t_end > 0.0:
        raise ValueError("t_end must be positive")
    h = system.period / steps_per_period
    if not t_end / h < 2.0 ** 63:  # the step count must be an index
        raise ValueError(f"t_end must be finite and span fewer than 2**63 steps, got {t_end}")
    if stride < 1:
        raise ValueError("record stride must be >= 1")
    n_total = max(1, int(round(t_end / h)))
    s = np.array(init, dtype=float)
    if not np.all(np.abs(s) <= DIVERGENCE_CUTOFF):  # NaN fails too
        raise ValueError(f"initial states must be finite and within the divergence cutoff "
                         f"{DIVERGENCE_CUTOFF:g}, got {s.tolist()}")
    # c(t) at the start, midpoint and end of each step of one period; step i
    # starts at (i-1) h, which c sees as the step (i-1) % steps_per_period
    c = system.coef(half_step_grid(system.period, steps_per_period)).tolist()
    c = c if len(s) == 1 else list(map(np.array, c))  # 0-d: cheaper ufunc operands
    table = list(zip(c[0:-1:2], c[1::2], c[2::2]))
    a, g = system.damping, system.f.kernel()
    hh, h6 = 0.5 * h, h / 6.0

    def step(y, v, c0, cm, c1):
        k1 = -a * v - c0 * g(y)
        y2, v2 = y + hh * v, v + hh * k1
        k2 = -a * v2 - cm * g(y2)
        y3, v3 = y + hh * v2, v + hh * k2
        k3 = -a * v3 - cm * g(y3)
        y4, v4 = y + h * v3, v + h * k3
        k4 = -a * v4 - c1 * g(y4)
        return y + h6 * (v + 2.0 * (v2 + v3) + v4), v + h6 * (k1 + 2.0 * (k2 + k3) + k4)

    rec_idx = list(range(0, n_total + 1, stride))
    if rec_idx[-1] != n_total:
        rec_idx.append(n_total)
    with np.errstate(over="ignore", invalid="ignore"):
        if len(s) == 1:
            # one member steps on Python floats: on 1-element arrays numpy's
            # per-call overhead costs more than the arithmetic itself
            y, v = s[0].tolist()
            rec, diverged = [(y, v)], False
            for i in range(1, n_total + 1):
                yn, vn = step(y, v, *table[(i - 1) % steps_per_period])
                # NaN and inf fail the comparison too, as in the batch loop
                if not (abs(yn) <= DIVERGENCE_CUTOFF and abs(vn) <= DIVERGENCE_CUTOFF):
                    diverged = True
                    break
                y, v = yn, vn
                if i % stride == 0 or i == n_total:
                    rec.append((y, v))
            # a failed run holds its last bounded state to the end
            rec += [(y, v)] * (len(rec_idx) - len(rec))
            states, frozen = np.array(rec)[:, None, :], np.array([diverged])
        else:
            n = len(s)
            gk, sign = system.f.kernel((n,))
            combine = np.add if sign < 0.0 else np.subtract  # x - c (-f) = x + c f exactly
            # stage j holds rows y_j, v_j, k_j: its state S_j = (y_j, v_j) and
            # derivative K_j = (v_j, k_j) are views; S_1 = S is the run's state
            buf = np.empty((4, 3, n))
            (y1, v1, k1), (y2, v2, k2), (y3, v3, k3), (y4, v4, k4) = buf
            (S, S2, S3, S4), (K1, K2, K3, K4) = buf[:, :2], buf[:, 1:]
            T, Sn, A, M = np.zeros((4, 2, n))  # M: running max of |S| since the last test
            G = np.empty(n)
            na, half, full, sixth, two = map(np.array, (-a, hh, h, h6, 2.0))
            S[...] = s.T
            frozen = np.zeros(n, dtype=bool)

            def advance(c0, cm, c1, out):
                # the per-element operations of step() above, in its order;
                # writes the new state into out
                combine(np.multiply(na, v1, k1), np.multiply(c0, gk(y1, G), G), k1)
                np.add(S, np.multiply(half, K1, T), S2)
                combine(np.multiply(na, v2, k2), np.multiply(cm, gk(y2, G), G), k2)
                np.add(S, np.multiply(half, K2, T), S3)
                combine(np.multiply(na, v3, k3), np.multiply(cm, gk(y3, G), G), k3)
                np.add(S, np.multiply(full, K3, T), S4)
                combine(np.multiply(na, v4, k4), np.multiply(c1, gk(y4, G), G), k4)
                np.multiply(two, np.add(K2, K3, T), T)
                np.add(S, np.multiply(sixth, np.add(np.add(K1, T, T), K4, T), T), out)

            rec, latched = [S.copy()], False
            for start, end in zip(rec_idx, rec_idx[1:]):
                if not latched:
                    for i in range(start, end):
                        advance(*table[i % steps_per_period], S)
                        np.maximum(M, np.abs(S, A), out=M)
                    # one test per record block; NaN fails it too
                    if M.max(initial=0.0) <= DIVERGENCE_CUTOFF:
                        rec.append(S.copy())
                        continue
                    # replay the block from its start under the per-step rule
                    S[...], latched = rec[-1], True
                for i in range(start, end):
                    advance(*table[i % steps_per_period], Sn)
                    # from the first failure on, a failed member holds its last bounded state
                    frozen |= ~(np.maximum(np.abs(Sn[0]), np.abs(Sn[1])) <= DIVERGENCE_CUTOFF)
                    np.copyto(S, Sn, where=~frozen)
                rec.append(S.copy())
            states = np.array(rec).transpose(0, 2, 1)  # (m, n_members, 2)
    return np.array(rec_idx, dtype=float) * h, states, frozen


def integrate(
    system: OdeSystem,
    y0: float,
    y1: float,
    t_end: float,
    steps_per_period: int = 4096,
    record_stride: int = 1,
) -> Trajectory:
    """Integrate one initial condition; divergent runs are truncated and flagged."""
    times, states, frozen = _run(
        system, np.array([[y0, y1]]), t_end, steps_per_period, record_stride
    )
    states = states[:, 0, :]
    diverged = bool(frozen[0])
    if diverged:
        # drop the held-constant tail: keep records up to the last moving one
        moving = np.nonzero(np.any(np.diff(states, axis=0) != 0.0, axis=1))[0]
        last = (moving[-1] + 1) if len(moving) else 0
        times, states = times[: last + 1], states[: last + 1]
    return Trajectory(
        times=times, states=states, mu=system.mu, system_tag=system.tag, diverged=diverged
    )


def integrate_batch(
    system: OdeSystem,
    inits: np.ndarray,
    t_end: float,
    steps_per_period: int = 4096,
    record_stride: int = 1,
) -> list[Trajectory]:
    """Integrate a batch of initial conditions (n, 2) in one vectorized run.

    Members that diverge are held at their last bounded state and flagged;
    the shared time grid is kept so envelopes can be checked columnwise.
    """
    times, states, frozen = _run(system, inits, t_end, steps_per_period, record_stride)
    return [
        Trajectory(times, states[:, i], system.mu, system.tag, diverged=bool(frozen[i]))
        for i in range(len(frozen))
    ]


@dataclass(frozen=True)
class EnvelopeReport:
    passed: bool
    max_margin: float  # max over samples of ||v||^2 - envelope
    max_ratio: float
    n_samples: int


def verify_envelope(traj: Trajectory, envelope_fn) -> EnvelopeReport:
    """Check ||v(t)||^2 <= envelope(t) at every recorded sample.

    The verdict is scale-free: it passes when the largest ratio
    ||v||^2 / envelope stays within 1 + 1e-9, so it means the same for
    states of size 1 and for the ~1e-31 states of small-mu attraction sets.
    """
    env = np.asarray(envelope_fn(traj.times), dtype=float)
    sq = np.sum(traj.states ** 2, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(env > 0.0, sq / env, np.where(sq > 0.0, np.inf, 0.0))
    max_ratio = float(np.max(ratios))
    return EnvelopeReport(
        passed=max_ratio <= 1.0 + 1e-9,
        max_margin=float(np.max(sq - env)),
        max_ratio=max_ratio,
        n_samples=len(traj.times),
    )
