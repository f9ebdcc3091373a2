"""T-periodic zero-mean trigonometric signals and the quadrature they ride on.

Every parametric forcing handled by this package is a finite trigonometric
series with no constant term, so the zero-mean property over one period is a
type invariant rather than a runtime check.  Antiderivatives of such series
are again series of the same form, which keeps the averaging construction
exact (no ODE solves, no root finding for integration offsets).
"""

from __future__ import annotations

import math
import numbers
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
        Integer harmonic indices k >= 1, pairwise distinct.  No constant term is
        representable, so the mean over one period is exactly zero.
    """

    period: float
    harmonics: tuple[tuple[int, float, float], ...] = ()

    def __post_init__(self):
        if not (math.isfinite(self.period) and self.period > 0.0):
            raise ValueError(f"period must be positive and finite, got {self.period}")
        if not all(isinstance(k, numbers.Real) and float(k).is_integer() for k, _, _ in self.harmonics):
            raise ValueError("harmonic indices must be integers")
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


def half_step_grid(period: float, n_steps: int) -> np.ndarray:
    """Times ``arange(2 n + 1) * (T / (2 n))`` of the RK4 steps of size T/n and their midpoints.

    Entry ``2 j`` is the same float as ``j * (T / n)``, the j-th step node.
    Fewer than 64 steps are refused, as the RK4 propagators refuse them.
    """
    if n_steps < 64:
        raise ValueError("n_steps must be at least 64")
    return np.arange(2 * n_steps + 1) * (period / (2 * n_steps))


def integrate(f, a: float, b: float, grid: QuadratureGrid) -> float:
    """Composite Simpson approximation of the integral of f over [a, b].

    ``f`` may be a PeriodicSignal or any callable accepting an ndarray of
    abscissae.  Over a whole period of n panels the rule is exact to roundoff
    only for periodic trigonometric integrands with harmonics below n/2 (about
    n/4 for squares of series); higher ones alias without warning, and a
    non-periodic integrand such as t*phi(t) keeps the usual O(h^4) error.
    On the grid's even panel count :func:`cumulative_simpson` is that rule.
    """
    if a > b:
        raise ValueError(f"integration bounds must satisfy a <= b, got {a} > {b}")
    if a == b:
        return 0.0
    n = grid.n_points
    x = np.linspace(a, b, n + 1)
    y = f.eval(x) if isinstance(f, PeriodicSignal) else f(x)
    return float(cumulative_simpson(y, (b - a) / n)[-1])


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


def _extrema(harmonics, offset: float = 0.0) -> tuple[float, float]:
    """(min, max) over x of offset + sum c cos(k x) + s sin(k x); a repeated k adds up.

    The sum is taken at the angle of every root z = exp(i g x) of z^K s'(x) in
    the indices over their gcd g (Boyd, J. Eng. Math. 56 (2006) 203-219).  A
    power-of-two scaling keeps np.roots finite below 1e-308, and terms below its
    rounding, eps of the largest k |c_k|, stay out of the polynomial.
    """
    merged = {}
    for k, c, s in harmonics:
        merged[k] = np.add(merged.get(k, 0.0), (c, s))
    ks = np.array(list(merged) or [1])
    c, s = np.array(list(merged.values()) or [(0.0, 0.0)]).T
    e = math.frexp(max(np.max(np.abs([c, s])), abs(offset)))[1]
    c, s = np.ldexp([c, s], -e)
    w = ks * np.hypot(c, s)
    keep = w >= 2.0 ** -52 * np.max(w)
    g = math.gcd(*ks[keep].tolist())
    k = ks[keep] // g
    poly = np.zeros(2 * k.max() + 1, dtype=complex)  # z^(2K - i) at i
    poly[k.max() - k] = 0.5 * k * (s[keep] + 1j * c[keep])
    poly[k.max() + k] = 0.5 * k * (s[keep] - 1j * c[keep])
    kx = np.outer(np.append(np.angle(np.roots(poly)), 0.0) / g, ks)  # and x = 0, where all k cancel
    vals = math.ldexp(offset, -e) + np.cos(kx) @ c + np.sin(kx) @ s
    with np.errstate(over="ignore"):  # a sum beyond double precision is +-inf
        return tuple(np.ldexp([np.min(vals), np.max(vals)], e).tolist())


def sup_norm(*signals: PeriodicSignal | None, offset: float = 0.0) -> float:
    """sup over t of |offset + sum of ``signals``| (None left out), exact up to rounding;
    it costs an eigenvalue problem of size 2K, K the largest index over their gcd."""
    signals = [s for s in signals if s is not None]
    if len({s.period for s in signals}) > 1:
        raise ValueError("signals must share their period")
    return max(map(abs, _extrema([h for s in signals for h in s.harmonics], offset)))


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
