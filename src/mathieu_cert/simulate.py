"""Fixed-step trajectory integration used to validate every certificate.

Classical RK4 with a fixed step tied to the forcing period: certificates
compare trajectories against analytic envelopes at fixed times, and a fixed
step makes runs reproducible bit for bit.  Batches of initial conditions
integrate as one vectorized state array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .floquet_lyapunov import PeriodicLyapunovSolution
from .model import LinearizedSystem, Nonlinearity
from .periodic_signal import PeriodicSignal
from .robustness import Perturbation

__all__ = [
    "OdeSystem",
    "Trajectory",
    "EnvelopeReport",
    "linear_system",
    "perturbed_linear_system",
    "nonlinear_system",
    "integrate",
    "integrate_batch",
    "lyapunov_value",
    "verify_envelope",
]

DIVERGENCE_CUTOFF = 1e12


@dataclass(frozen=True)
class OdeSystem:
    """Right-hand side with its period and bookkeeping tags.

    ``rhs(t, s)`` maps a state array with last axis (y, y') to its
    derivative, vectorized over leading axes.
    """

    rhs: Callable
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


def _linear_rhs(phi_fn, bm2: float, mu: float, am: float):
    def rhs(t, s):
        coef = bm2 + mu * phi_fn(t)
        d = np.empty_like(s)
        d[..., 0] = s[..., 1]
        d[..., 1] = -coef * s[..., 0] - am * s[..., 1]
        return d

    return rhs


def linear_system(lin: LinearizedSystem, mu: float) -> OdeSystem:
    rhs = _linear_rhs(lin.phi_hat.eval_fn(), lin.beta_hat * mu * mu, mu, lin.alpha * mu)
    return OdeSystem(rhs=rhs, period=lin.period, mu=mu, tag="linear")


def perturbed_linear_system(lin: LinearizedSystem, pert: Perturbation, mu: float) -> OdeSystem:
    base = lin.phi_hat.eval_fn()
    dphi = pert.d_phi.eval_fn() if pert.d_phi is not None else None
    off = pert.d_phi_offset
    sc = pert.scaling

    def phi_fn(t: float) -> float:
        extra = off + (dphi(t) if dphi is not None else 0.0)
        return base(t) + sc * extra

    rhs = _linear_rhs(
        phi_fn,
        (lin.beta_hat + pert.d_beta_hat) * mu * mu,
        mu,
        (lin.alpha + pert.d_alpha) * mu,
    )
    return OdeSystem(rhs=rhs, period=lin.period, mu=mu, tag="perturbed_linear")


def nonlinear_system(
    alpha: float,
    beta: float,
    phi: PeriodicSignal,
    f: Nonlinearity,
    mu: float,
    pert: Perturbation | None = None,
) -> OdeSystem:
    """y'' + (alpha+da) mu y' + ((beta+db) mu^2 + mu (phi+dphi)(t)) f(y) = 0."""
    da = pert.d_alpha if pert is not None else 0.0
    db = pert.d_beta if pert is not None else 0.0
    am = (alpha + da) * mu
    bm2 = (beta + db) * mu * mu
    phi_fn = phi.eval_fn()
    dphi = pert.d_phi.eval_fn() if pert is not None and pert.d_phi is not None else None
    off = pert.d_phi_offset if pert is not None else 0.0

    def rhs(t, s):
        ph = phi_fn(t) + off + (dphi(t) if dphi is not None else 0.0)
        coef = bm2 + mu * ph
        d = np.empty_like(s)
        d[..., 0] = s[..., 1]
        d[..., 1] = -am * s[..., 1] - coef * f.value(s[..., 0])
        return d

    tag = "nonlinear" if pert is None or pert.is_zero else "perturbed_nonlinear"
    return OdeSystem(rhs=rhs, period=phi.period, mu=mu, tag=tag)


def _rk4_step(rhs, t, s, h):
    k1 = rhs(t, s)
    k2 = rhs(t + 0.5 * h, s + (0.5 * h) * k1)
    k3 = rhs(t + 0.5 * h, s + (0.5 * h) * k2)
    k4 = rhs(t + h, s + h * k3)
    return s + (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _run(system: OdeSystem, init: np.ndarray, t_end: float, steps_per_period: int, stride: int):
    if steps_per_period < 256:
        raise ValueError("steps_per_period must be at least 256")
    if not t_end > 0.0:
        raise ValueError("t_end must be positive")
    if stride < 1:
        raise ValueError("record stride must be >= 1")
    h = system.period / steps_per_period
    n_total = max(1, int(round(t_end / h)))
    s = np.array(init, dtype=float)
    if not np.isfinite(s).all():
        raise ValueError("initial states must be finite")
    n_members = s.shape[0]
    rec_idx = [0]
    rec = [s.copy()]
    frozen = np.zeros(n_members, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n_total + 1):
            nxt = _rk4_step(system.rhs, (i - 1) * h, s, h)
            bad = ~np.isfinite(nxt).all(axis=-1) | (
                np.abs(nxt).max(axis=-1) > DIVERGENCE_CUTOFF
            )
            newly = bad & ~frozen
            if newly.any():
                nxt[newly] = s[newly]  # hold the last bounded state
                frozen |= newly
            if frozen.any():
                nxt[frozen] = s[frozen]
            s = nxt
            if i % stride == 0 or i == n_total:
                rec_idx.append(i)
                rec.append(s.copy())
    times = np.array(rec_idx, dtype=float) * h
    states = np.stack(rec, axis=0)  # (m, n_members, 2)
    return times, states, frozen


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
        moving = np.nonzero(
            np.any(np.diff(states, axis=0) != 0.0, axis=1)
        )[0]
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
    inits = np.asarray(inits, dtype=float)
    times, states, frozen = _run(system, inits, t_end, steps_per_period, record_stride)
    return [
        Trajectory(
            times=times,
            states=states[:, i, :],
            mu=system.mu,
            system_tag=system.tag,
            diverged=bool(frozen[i]),
        )
        for i in range(inits.shape[0])
    ]


def lyapunov_value(sol: PeriodicLyapunovSolution, traj: Trajectory, t_index: int) -> float:
    """<H(t mod T) v(t), v(t)> at a recorded sample, H extended periodically."""
    if not 0 <= t_index < len(traj.times):
        raise IndexError("t_index outside the recorded trajectory")
    return sol.value(float(traj.times[t_index]), traj.states[t_index])


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
