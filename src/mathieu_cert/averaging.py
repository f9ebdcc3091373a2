"""Averaging change of variables for the linearized system.

The linearization v' = A(t, mu) v is transformed with

    v1 = (1 + mu*a(t)) u1,      v2 = mu*b(t) u1 + mu*u2,

where b is the negated zero-mean antiderivative of phi_hat and a is the
zero-mean antiderivative of b.  The transformed system reads

    u' = mu * (U1 + U2(t, mu) + mu^2 U3(t, mu)) u,

with a constant averaged part U1, a zero-average oscillatory part U2 and a
small remainder U3.  Both a and b are exact trigonometric series here, so no
integrator error enters the certificate constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .model import LinearizedSystem, matrices_2x2
from .periodic_signal import (
    PeriodicSignal,
    QuadratureGrid,
    _extrema,
    eval_together,
    half_step_grid,
    zero_mean_antiderivative,
)

__all__ = [
    "AveragingTransform",
    "TransformedSystem",
    "BogolyubovResult",
    "build_transform",
    "mean_phi_a",
    "build_u1",
    "u1_is_hurwitz",
    "bogolyubov_condition",
    "build_u2_u3",
]


@dataclass(frozen=True)
class AveragingTransform:
    """Periodic zero-mean pair (a, b) with a' = b and b' = -phi_hat.

    The propagators read b and phi_hat on the half-step grid of their step
    count (:meth:`half_step_samples`), sampled once per transform and freed
    with it; a enters only the averaging change of variables v = S u.
    """

    a: PeriodicSignal
    b: PeriodicSignal
    phi_hat: PeriodicSignal
    _samples: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def half_step_samples(self, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
        """(b, phi_hat) on ``half_step_grid(T, n_steps)``, read-only.

        Equal bit for bit to ``eval`` on that grid; the even entries are the
        values at the step nodes ``arange(n_steps + 1) * (T / n_steps)``.
        """
        if n_steps not in self._samples:
            t = half_step_grid(self.phi_hat.period, n_steps)
            samples = tuple(eval_together((self.b, self.phi_hat), t))
            for x in samples:
                x.flags.writeable = False
            self._samples[n_steps] = samples
        return self._samples[n_steps]


def build_transform(lin: LinearizedSystem, grid: QuadratureGrid) -> AveragingTransform:
    """Construct a(t), b(t) by exact antidifferentiation of the forcing.

    Mean subtraction replaces the integration-offset choice: the zero-mean
    antiderivative coincides with integrating from the (existence-only)
    offsets that make the averages vanish.
    """
    if grid.period != lin.period:
        raise ValueError("grid period must match the system period")
    b = zero_mean_antiderivative(lin.phi_hat).scaled(-1.0)
    a = zero_mean_antiderivative(b)
    return AveragingTransform(a=a, b=b, phi_hat=lin.phi_hat)


def mean_phi_a(lin: LinearizedSystem, tr: AveragingTransform) -> float:
    """(1/T) int_0^T phi_hat a = mean(b^2), by parts since phi_hat = -b' and a' = b."""
    return tr.b.mean_square


def build_u1(lin: LinearizedSystem, tr: AveragingTransform) -> np.ndarray:
    m = mean_phi_a(lin, tr)
    if not np.isfinite(lin.beta_hat + m):
        raise ArithmeticError(f"averaged constants overflow: mean(phi_hat a) = {m} in U1")
    return np.array([[0.0, 1.0], [-lin.beta_hat - m, -lin.alpha]])


def u1_is_hurwitz(u1: np.ndarray) -> bool:
    """Exact 2x2 criterion: spectrum in the open left half-plane iff trace < 0 < det."""
    u1 = np.asarray(u1, dtype=float)
    tr = u1[0, 0] + u1[1, 1]
    det = u1[0, 0] * u1[1, 1] - u1[0, 1] * u1[1, 0]
    return tr < 0.0 and det > 0.0


class BogolyubovResult(NamedTuple):
    holds: bool
    lhs: float
    rhs: float


def bogolyubov_condition(lin: LinearizedSystem, grid: QuadratureGrid) -> BogolyubovResult:
    """Averaged stability test for the linearized equation.

    holds iff

        (1/T) int_0^T ( int_0^tau phi_hat )^2 dtau
            >  ( (1/T) int_0^T tau phi_hat(tau) dtau )^2  -  beta_hat,

    which guarantees asymptotic stability for all sufficiently small mu > 0.
    For the vibrated pendulum this reduces to the classical condition
    a^2 omega^2 > 2 g l on the pivot oscillation.

    Closed forms, with B the zero-mean antiderivative of phi_hat and b0 = B(0):
    lhs = mean(B^2) + b0^2, and by parts (1/T) int_0^T tau phi_hat = b0, so
    rhs = b0^2 - beta_hat.  holds is beta_hat + mean(B^2) > 0, which is
    det U1 > 0 exactly as ``u1_is_hurwitz`` computes it.  ``grid`` is unused
    and kept for existing callers.
    """
    B = zero_mean_antiderivative(lin.phi_hat)
    b0 = B.eval(0.0)
    try:
        m = B.mean_square
    except OverflowError:  # fsum refuses a partial sum past the double range
        raise ArithmeticError("averaged constants overflow: mean(phi_hat a) in the averaged test") from None
    return BogolyubovResult(bool(lin.beta_hat + m > 0.0), m + b0 * b0, b0 * b0 - lin.beta_hat)


@dataclass(frozen=True)
class TransformedSystem:
    """Evaluable pieces of u' = mu*(U1 + U2(t,mu) + mu^2 U3(t,mu)) u."""

    u1: np.ndarray
    mean_phi_a: float
    mu: float
    lin: LinearizedSystem
    tr: AveragingTransform

    def _at(self, t):
        t = np.asarray(t, dtype=float)
        return self.tr.a.eval(t), self.tr.b.eval(t), self.lin.phi_hat.eval(t)

    def _entries(self, a, b, phi):
        """Nonzero entries (U2_12, U2_21, U2_22, U3_12, U3_22) from samples of a, b, phi_hat."""
        mu = self.mu
        denom = 1.0 + mu * a
        e21 = -self.lin.alpha * b - mu * self.lin.beta_hat * a - phi * a + self.mean_phi_a
        return -mu * a, e21, (mu * a - 1.0) * b, a * a / denom, -a * a * b / denom

    def u2_at(self, t) -> np.ndarray:
        """U2(t, mu); shape (2, 2) for scalar t, (n, 2, 2) for array t."""
        u12, u21, u22, _, _ = self._entries(*self._at(t))
        return matrices_2x2(0.0, u12, u21, u22)

    def u3_at(self, t) -> np.ndarray:
        """U3(t, mu); first column is identically zero."""
        *_, v12, v22 = self._entries(*self._at(t))
        return matrices_2x2(0.0, v12, 0.0, v22)


def build_u2_u3(lin: LinearizedSystem, tr: AveragingTransform, mu: float) -> TransformedSystem:
    """Assemble the transformed system at parameter mu.

    Fails when 1 + mu*a(t) is not positive for some t, because the change
    of variables degenerates there (this cannot happen for
    mu <= 1/(phi_max*T^2)).  min(a) comes from the critical points of a.
    """
    if not mu > 0.0:
        raise ValueError("mu must be positive")
    if 1.0 + mu * _extrema(tr.a.harmonics)[0] <= 0.0:  # = min(1 + mu*a): rounding is monotone
        raise ValueError(f"transform degenerates: 1 + mu*a(t) <= 0 at mu={mu}")
    return TransformedSystem(
        u1=build_u1(lin, tr),
        mean_phi_a=mean_phi_a(lin, tr),
        mu=mu,
        lin=lin,
        tr=tr,
    )
