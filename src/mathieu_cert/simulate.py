"""Fixed-step trajectory integration used to validate every certificate.

Every simulated system has the Mathieu form y'' + a y' + c(t) f(y) = 0 with
constant damping a, T-periodic c and an elementwise f, f(y) = y if linear.  One
classical RK4 scheme integrates them all, with a fixed step tied to the period:
certificates compare trajectories against analytic envelopes at fixed times,
and a fixed step makes runs reproducible bit for bit.  f is resolved once into
a kernel k = sign f, where sign is -1 only for a sine of scale -1 (k skips the
multiply), and c is sampled once on one period's half-step grid times sign, so
every stage forms x - c k(y), exact under round-to-nearest.  Each record block
draws its (c0, cm, c1) from one cycle of that table.  One member steps on
Python floats in one inlined loop, left by exception when a step passes the
divergence cutoff or a sine meets +-inf (whose NaN stage would fail it).  A
batch steps a stacked (y, y') buffer in place, every ufunc writing through
``out`` into stage buffers allocated once per run, and tests the cutoff once
per record block on a running maximum of |y|, |y'|; a failed block is replayed
from its start with a test after every step, which stays on for the rest of
the run.  Both do the same operations per element and follow the same hold
rule, so a single run equals its batch member bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import cycle, islice
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
    a, (g, sign) = system.damping, system.f.kernel(None if len(s) == 1 else (len(s),))
    # c(t) at the start, midpoint and end of each step of one period, times g's
    # sign; step i starts at (i-1) h, which c sees as step (i-1) % steps_per_period
    c = (sign * system.coef(half_step_grid(system.period, steps_per_period))).tolist()
    c = c if len(s) == 1 else list(map(np.array, c))  # 0-d: cheaper ufunc operands
    steps = cycle(zip(c[0:-1:2], c[1::2], c[2::2]))
    hh, h6 = 0.5 * h, h / 6.0
    rec_idx = [*range(0, n_total, stride), n_total]
    with np.errstate(over="ignore", invalid="ignore"):
        if len(s) == 1:
            # one member steps on Python floats: on 1-element arrays numpy's
            # per-call overhead costs more than the arithmetic itself
            y, v = s[0].tolist()
            rec, diverged, na, cut = [(y, v)], False, -a, DIVERGENCE_CUTOFF
            try:
                for start, end in zip(rec_idx, rec_idx[1:]):
                    for c0, cm, c1 in islice(steps, end - start):
                        k1 = na * v - c0 * g(y)
                        y2, v2 = y + hh * v, v + hh * k1
                        k2 = na * v2 - cm * g(y2)
                        y3, v3 = y + hh * v2, v + hh * k2
                        k3 = na * v3 - cm * g(y3)
                        y4, v4 = y + h * v3, v + h * k3
                        k4 = na * v4 - c1 * g(y4)
                        yn, vn = y + h6 * (v + 2.0 * (v2 + v3) + v4), v + h6 * (k1 + 2.0 * (k2 + k3) + k4)
                        # NaN and inf fail the comparison too, as in the batch loop
                        if not (-cut <= yn <= cut and -cut <= vn <= cut):
                            raise ValueError
                        y, v = yn, vn
                    rec.append((y, v))
            except ValueError:  # past the cutoff, or sin(+-inf), whose NaN stage would fail it
                diverged = True
            # a failed run holds its last bounded state to the end
            rec += [(y, v)] * (len(rec_idx) - len(rec))
            states, frozen = np.array(rec)[:, None, :], np.array([diverged])
        else:
            n = len(s)
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
                # the per-element operations of the float loop, in its order, into out
                np.subtract(np.multiply(na, v1, k1), np.multiply(c0, g(y1, G), G), k1)
                np.add(S, np.multiply(half, K1, T), S2)
                np.subtract(np.multiply(na, v2, k2), np.multiply(cm, g(y2, G), G), k2)
                np.add(S, np.multiply(half, K2, T), S3)
                np.subtract(np.multiply(na, v3, k3), np.multiply(cm, g(y3, G), G), k3)
                np.add(S, np.multiply(full, K3, T), S4)
                np.subtract(np.multiply(na, v4, k4), np.multiply(c1, g(y4, G), G), k4)
                np.multiply(two, np.add(K2, K3, T), T)
                np.add(S, np.multiply(sixth, np.add(np.add(K1, T, T), K4, T), T), out)

            rec, latched = [S.copy()], False
            for start, end in zip(rec_idx, rec_idx[1:]):
                block = list(islice(steps, end - start))
                if not latched:
                    for cs in block:
                        advance(*cs, S)
                        np.maximum(M, np.abs(S, A), out=M)
                    # one test per record block; NaN fails it too
                    if M.max(initial=0.0) <= DIVERGENCE_CUTOFF:
                        rec.append(S.copy())
                        continue
                    # replay the block from its start under the per-step rule
                    S[...], latched = rec[-1], True
                for cs in block:
                    advance(*cs, Sn)
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
