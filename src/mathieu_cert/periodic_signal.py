"""T-periodic zero-mean trigonometric signals and the quadrature they ride on.

Every parametric forcing handled by this package is a finite trigonometric
series with no constant term, so the zero-mean property over one period is a
type invariant rather than a runtime check.  Antiderivatives of such series
are again series of the same form, which keeps the averaging construction
exact (no ODE solves, no root finding for integration offsets).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PeriodicSignal",
    "QuadratureGrid",
    "integrate",
    "zero_mean_antiderivative",
    "sup_norm",
    "signal_to_dict",
    "signal_from_dict",
]


@dataclass(frozen=True)
class PeriodicSignal:
    """Finite trigonometric series  sum_k c_k cos(2*pi*k*t/T) + s_k sin(2*pi*k*t/T).

    Parameters
    ----------
    period : float
        Period T > 0.
    harmonics : tuple of (k, cos_coeff, sin_coeff)
        Harmonic indices k >= 1, pairwise distinct.  No constant term is
        representable, so the mean over one period is exactly zero.
    """

    period: float
    harmonics: tuple[tuple[int, float, float], ...] = ()

    def __post_init__(self):
        if not (math.isfinite(self.period) and self.period > 0.0):
            raise ValueError(f"period must be positive and finite, got {self.period}")
        normalized = tuple(
            (int(k), float(c), float(s)) for (k, c, s) in self.harmonics
        )
        object.__setattr__(self, "harmonics", normalized)
        ks = [k for k, _, _ in normalized]
        if any(k < 1 for k in ks):
            raise ValueError("harmonic indices must be >= 1 (no constant term)")
        if len(set(ks)) != len(ks):
            raise ValueError("harmonic indices must be pairwise distinct")
        if not all(math.isfinite(c) and math.isfinite(s) for _, c, s in normalized):
            raise ValueError("harmonic coefficients must be finite")

    @property
    def base_frequency(self) -> float:
        return 2.0 * math.pi / self.period

    def eval(self, t):
        """Evaluate at scalar or ndarray t."""
        (out,) = eval_together((self,), t)
        return out if out.ndim else float(out)

    __call__ = eval

    @property
    def mean_square(self) -> float:
        """(1/T) * integral over one period of the square: (1/2) sum (c_k^2 + s_k^2)."""
        return 0.5 * math.fsum(c * c + s * s for _, c, s in self.harmonics)

    def scaled(self, factor: float) -> "PeriodicSignal":
        return PeriodicSignal(
            self.period,
            tuple((k, factor * c, factor * s) for k, c, s in self.harmonics),
        )


def eval_together(signals, t) -> list[np.ndarray]:
    """Each of ``signals`` at t, as arrays equal bit for bit to ``eval``.

    The signals share their period and harmonic indices (as a series and its
    antiderivatives do), so each cos(k w0 t) and sin(k w0 t) is computed once.
    """
    t = np.asarray(t, dtype=float)
    first = signals[0]
    ks = [k for k, _, _ in first.harmonics]
    if any(s.period != first.period or [k for k, _, _ in s.harmonics] != ks for s in signals):
        raise ValueError("signals must share their period and harmonic indices")
    outs = [np.zeros_like(t) for _ in signals]
    w0 = first.base_frequency
    for j, k in enumerate(ks):
        wt = (k * w0) * t
        cos, sin = np.cos(wt), np.sin(wt)
        for i, s in enumerate(signals):
            _, c, sn = s.harmonics[j]
            outs[i] = outs[i] + c * cos + sn * sin
    return outs


@dataclass(frozen=True)
class QuadratureGrid:
    """Uniform partition of [0, T] into n_points panels (n_points even, >= 16)."""

    period: float
    n_points: int = 2048

    def __post_init__(self):
        if not (self.period > 0.0):
            raise ValueError("grid period must be positive")
        if self.n_points < 16 or self.n_points % 2 != 0:
            raise ValueError("n_points must be an even integer >= 16")

    @property
    def step(self) -> float:
        return self.period / self.n_points

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.period, self.n_points + 1)

    @property
    def samples(self) -> np.ndarray:
        """Nodes and panel centres of [0, T), interleaved: the points of every sampled sup."""
        return np.arange(2 * self.n_points) * (0.5 * self.step)


def half_step_grid(period: float, n_steps: int) -> np.ndarray:
    """Times ``arange(2 n + 1) * (T / (2 n))`` of the RK4 steps of size T/n and their midpoints.

    Entry ``2 j`` is the same float as ``j * (T / n)``, the j-th step node.
    Fewer than 64 steps are refused, as the RK4 propagators refuse them.
    """
    if n_steps < 64:
        raise ValueError("n_steps must be at least 64")
    return np.arange(2 * n_steps + 1) * (period / (2 * n_steps))


def _simpson_weights(n: int) -> np.ndarray:
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def integrate(f, a: float, b: float, grid: QuadratureGrid) -> float:
    """Composite Simpson approximation of the integral of f over [a, b].

    ``f`` may be a PeriodicSignal or any callable accepting an ndarray of
    abscissae.  Over a whole period of n panels the rule is exact to roundoff
    only for periodic trigonometric integrands with harmonics below n/2 (about
    n/4 for squares of series); higher ones alias without warning, and a
    non-periodic integrand such as t*phi(t) keeps the usual O(h^4) error.
    """
    if a > b:
        raise ValueError(f"integration bounds must satisfy a <= b, got {a} > {b}")
    if a == b:
        return 0.0
    n = grid.n_points
    x = np.linspace(a, b, n + 1)
    y = np.asarray(f.eval(x) if isinstance(f, PeriodicSignal) else f(x), dtype=float)
    h = (b - a) / n
    return float(h / 3.0 * np.dot(_simpson_weights(n), y))


def cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Running Simpson integral of samples ``y`` along axis 0, starting at 0.

    The equal-interval rule of scipy.integrate.cumulative_simpson: each
    interval is integrated over the parabola through its two end nodes and
    one neighbour, the next node for even intervals and the previous node
    for odd intervals and for the last one.  Any panel count >= 2 works.
    """
    y = np.asarray(y, dtype=float)
    if len(y) < 3:
        raise ValueError("cumulative_simpson needs at least 3 samples")
    f0, f1, f2 = y[:-2], y[1:-1], y[2:]
    ahead = (h / 3.0) * (1.25 * f0 + 2.0 * f1 - 0.25 * f2)  # [x_i, x_i+1]
    behind = (h / 3.0) * (1.25 * f2 + 2.0 * f1 - 0.25 * f0)  # [x_i+1, x_i+2]
    pieces = np.empty((len(y) - 1,) + y.shape[1:])
    pieces[:-1:2] = ahead[::2]
    pieces[1::2] = behind[::2]
    pieces[-1] = behind[-1]
    out = np.zeros_like(y)
    np.cumsum(pieces, axis=0, out=out[1:])
    return out


def zero_mean_antiderivative(s: PeriodicSignal) -> PeriodicSignal:
    """The unique zero-mean antiderivative of a zero-mean trigonometric series.

    Equals  int_0^t s  minus its own period average; for a series the result
    is closed form: cos terms integrate to sin terms and vice versa, and the
    constant of integration drops out with the mean.
    """
    w0 = s.base_frequency
    harm = tuple(
        (k, -sn / (k * w0), c / (k * w0)) for k, c, sn in s.harmonics
    )
    return PeriodicSignal(s.period, harm)


def sup_norm(s, grid: QuadratureGrid) -> float:
    """Max of |s| over ``grid.samples`` (nodes and panel centres), with one parabolic
    refinement around the best sample.

    A grid approximation of the true supremum (no interval arithmetic); the
    refinement removes the half-spacing sampling bias at smooth maxima, and
    the acceptance suite bounds the residual discretization effect by a
    grid-doubling comparison.
    """
    pts = grid.samples
    n = len(pts)
    step = 0.5 * grid.step
    ev = s.eval if isinstance(s, PeriodicSignal) else s
    vals = np.abs(np.asarray(ev(pts), dtype=float))
    i = int(np.argmax(vals))
    f0 = vals[i]
    fm = vals[(i - 1) % n]
    fp = vals[(i + 1) % n]
    denom = fp - 2.0 * f0 + fm
    if denom >= 0.0:
        return float(f0)
    dt = 0.5 * step * (fm - fp) / denom
    dt = min(max(dt, -step), step)
    refined = abs(float(np.asarray(ev(pts[i] + dt), dtype=float)))
    return float(max(f0, refined))


def signal_to_dict(s: PeriodicSignal) -> dict:
    return {
        "period": s.period,
        "harmonics": [{"k": k, "cos": c, "sin": sn} for k, c, sn in s.harmonics],
    }


def signal_from_dict(d: dict) -> PeriodicSignal:
    try:
        harm = tuple((h["k"], h.get("cos", 0.0), h.get("sin", 0.0)) for h in d["harmonics"])
        return PeriodicSignal(float(d["period"]), harm)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed signal description: {exc}") from exc
