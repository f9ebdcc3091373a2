"""Model class, pendulum reduction, stationary points and linearization.

The equations treated here have the form

    y'' + alpha*mu*y' + (beta*mu**2 + mu*phi(t)) f(y) = 0,

with alpha, beta > 0 constant, phi a T-periodic zero-mean forcing and mu > 0
a small parameter.  A stationary point gamma has f(gamma) = 0 with
f'(gamma) < 0, which makes the linearized restoring coefficient negative
(inverted-pendulum character).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .periodic_signal import PeriodicSignal, refuse_unknown_keys, signal_from_dict, signal_to_dict

__all__ = [
    "Nonlinearity",
    "MathieuModel",
    "PendulumParams",
    "LinearizedSystem",
    "pendulum_reduce",
    "linearize",
    "shift_to_zero",
    "quadratic_remainder_bound",
    "system_matrix_entries",
    "model_to_dict",
    "model_from_dict",
]

_KINDS = ("pendulum_sine", "polynomial")


@dataclass(frozen=True)
class Nonlinearity:
    """Smooth nonlinearity from a closed family, evaluable with its derivative.

    kind "pendulum_sine" is f(y) = scale * sin(shift + y); kind
    "polynomial" is f(y) = sum_j coeffs[j-1] * (shift + y)**j with no
    constant term.  The closed family is what lets quadratic remainder
    constants be computed with stated provenance instead of sampled.  A
    field its kind does not use is refused, not ignored.
    """

    kind: str
    coeffs: tuple[float, ...] = ()
    shift: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        object.__setattr__(self, "shift", float(self.shift))
        object.__setattr__(self, "scale", float(self.scale))
        if self.kind == "polynomial" and not self.coeffs:
            raise ValueError("polynomial nonlinearity needs at least one coefficient")
        if self.kind == "polynomial" and self.scale != 1.0:
            raise ValueError("f.scale applies to a pendulum_sine only; scale a polynomial by its coeffs")
        if self.kind == "pendulum_sine" and self.coeffs:
            raise ValueError("f.coeffs apply to a polynomial only")
        if not all(map(math.isfinite, (self.shift, self.scale, *self.coeffs))):
            raise ValueError("f.shift, f.scale and f.coeffs must be finite")
        if self.scale == 0.0:
            raise ValueError("scale must be nonzero")

    def kernel(self, shape=None):
        """f resolved once for a loop that evaluates it many times: a pair ``(k, sign)``,
        ``k`` giving ``sign * f(y)``.  With no ``shape``, ``k`` maps a Python float to a
        float; a sine's raises ``math.sin``'s ValueError where ``shift + y`` is +-inf (np.sin
        gives NaN).  With an array shape, ``k(y, out)`` writes into ``out`` of that shape and
        returns it, with 0-d array constants (cheaper numpy operands than floats) and no other
        allocation.  ``sign`` is -1.0 only for a sine of scale -1, whose kernels skip the
        multiply: ``(-c) * s = -(c * s)`` and ``x - (-z) = x + z`` are exact, so a caller
        forms ``x - c f(y)`` as ``x - (sign c) k(y)``.  Both shapes do the same float
        operations in the same order, so their results agree bit for bit.
        """
        shift, scale = self.shift, self.scale
        *rest, last = self.coeffs or (0.0,)
        # Horner from x * (0.0 + c_last) equals Horner from zeros bit for bit, -0.0 included
        rest, last = rest[::-1], 0.0 + last
        unit = self.kind == "pendulum_sine" and abs(scale) == 1.0  # sign * f(y) = sin(shift + y)
        sign = scale if unit else 1.0
        if shape is None:
            if self.kind == "pendulum_sine":
                sin = math.sin
                return ((lambda y: sin(shift + y)) if unit else (lambda y: scale * sin(shift + y))), sign

            def k(y):
                x = shift + y
                out = x * last
                for c in rest:
                    out = x * (out + c)
                return out
            return k, sign
        shift, scale, last, *rest = map(np.array, (shift, scale, last, *rest))
        if self.kind == "pendulum_sine":
            if unit:
                return (lambda y, out: np.sin(np.add(shift, y, out), out)), sign
            return (lambda y, out: np.multiply(scale, np.sin(np.add(shift, y, out), out), out)), sign
        x = np.empty(shape)

        def k(y, out):
            np.multiply(np.add(shift, y, x), last, out)
            for c in rest:
                np.multiply(x, np.add(out, c, out), out)
            return out
        return k, sign

    def value(self, y):
        """f(y) elementwise from :meth:`kernel`; a Python float gives a float equal
        bit for bit to the array result."""
        if isinstance(y, float):
            k, sign = self.kernel()  # a sine's k raises where np.sin gives NaN
            return math.nan if self.kind == "pendulum_sine" and math.isinf(self.shift + y) else sign * k(y)
        y = np.asarray(y, dtype=float)
        k, sign = self.kernel(y.shape)
        out = k(y, np.empty(y.shape))
        if sign != 1.0:
            np.multiply(sign, out, out)  # scale * sin(x), the multiply the kernel skipped
        return out if out.ndim else float(out)

    def check_stationary(self, y: float, name: str) -> None:
        """Refuse ``y`` (``name`` in messages) unless f'(y) < 0 and y is stationary to 1e-12: |f(y)| for
        a polynomial, and for a sine the scale-free |sin(shift + y)| that shift_to_zero relies on."""
        x = self.shift + y  # +-inf only where a finite shift and y overflow together
        residual = self.value(y) if self.kind == "polynomial" else math.sin(x) if math.isfinite(x) else x
        if not abs(residual) < 1e-12:
            what = f"sin(shift + {name})" if self.kind == "pendulum_sine" else f"f({name})"
            raise ValueError(f"{name}={y} is not a stationary point: |{what}|={abs(residual):.3e}")
        if not self.derivative(y) < 0.0:
            raise ValueError(f"stationary point must have f'({name}) < 0")

    def derivative(self, y):
        y = np.asarray(y, dtype=float)
        x = self.shift + y
        if self.kind == "pendulum_sine":
            out = self.scale * np.cos(x)
        else:
            out = np.zeros_like(x)
            for j in range(len(self.coeffs), 0, -1):
                out = out * x + j * self.coeffs[j - 1]
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class MathieuModel:
    """The quadruple (alpha, beta, phi, f) plus a chosen stationary point gamma.

    alpha = 0 (frictionless) is representable so physical reductions flow
    through, but every stability operation requires positive damping and
    :func:`linearize` rejects it.
    """

    alpha: float
    beta: float
    phi: PeriodicSignal
    f: Nonlinearity
    gamma: float

    def __post_init__(self):
        for name in ("alpha", "beta", "gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.alpha < 0.0:
            raise ValueError("damping coefficient alpha must be >= 0")
        if not self.beta > 0.0:
            raise ValueError("coefficient beta must be > 0")
        self.f.check_stationary(self.gamma, "gamma")

    @property
    def period(self) -> float:
        return self.phi.period


@dataclass(frozen=True)
class PendulumParams:
    """Physical parameters of a pendulum whose pivot oscillates vertically."""

    length_l: float
    gravity_g: float
    friction_lambda: float
    amplitude_a: float
    frequency_omega: float

    def __post_init__(self):
        for name in ("length_l", "gravity_g", "amplitude_a", "frequency_omega"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.friction_lambda < 0.0:
            raise ValueError("friction_lambda must be >= 0")


@dataclass(frozen=True)
class LinearizedSystem:
    """Coefficients of the linearization y'' + alpha*mu*y' + (beta_hat*mu^2 + mu*phi_hat(t)) y = 0."""

    alpha: float
    beta_hat: float
    phi_hat: PeriodicSignal
    period: float

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError("stability analysis requires positive damping (alpha > 0)")
        if not self.beta_hat < 0.0:
            raise ValueError(
                "beta_hat must be negative (beta > 0 and f'(gamma) < 0)"
            )
        if self.period != self.phi_hat.period:
            raise ValueError("period must match phi_hat.period")


def pendulum_reduce(p: PendulumParams) -> tuple[MathieuModel, float]:
    """Rewrite the pendulum equation in fast time t = omega*tau.

    Returns the dimensionless model with
        mu = a/l,  beta = g*l/(a*omega)**2,  alpha = lambda*l/(a*omega),
        phi(t) = -sin t,  f = sin,  gamma = pi  (upper equilibrium),
    together with mu.
    """
    if p.amplitude_a >= p.length_l:
        raise ValueError(
            "pivot amplitude must be smaller than the pendulum length "
            "(mu = a/l is a small parameter)"
        )
    mu = p.amplitude_a / p.length_l
    beta = p.gravity_g * p.length_l / (p.amplitude_a * p.frequency_omega) ** 2
    alpha = p.friction_lambda * p.length_l / (p.amplitude_a * p.frequency_omega)
    phi = PeriodicSignal(2.0 * math.pi, ((1, 0.0, -1.0),))
    model = MathieuModel(
        alpha=alpha,
        beta=beta,
        phi=phi,
        f=Nonlinearity("pendulum_sine"),
        gamma=math.pi,
    )
    return model, mu


def linearize(m: MathieuModel) -> LinearizedSystem:
    """Linearize around y = gamma: beta_hat = beta*f'(gamma), phi_hat = phi*f'(gamma)."""
    fp = m.f.derivative(m.gamma)
    return LinearizedSystem(
        alpha=m.alpha,
        beta_hat=m.beta * fp,
        phi_hat=m.phi.scaled(fp),
        period=m.period,
    )


def shift_to_zero(m: MathieuModel) -> Nonlinearity:
    """Move the stationary point to the origin: g(z) = f(gamma + z).

    For the pendulum at gamma = pi this is g(z) = -sin z.  The model's
    stationarity check puts shift + gamma of a sine within 1e-12 of a
    multiple of pi, and the returned function uses that multiple exactly:
    evaluating sin(pi + z) literally in floats would leave a constant bias
    of about 1.2e-16 that dominates the dynamics at the small amplitudes
    attraction certificates operate on.  Polynomials are expanded
    binomially; the residual constant term is below the stationarity
    tolerance and is dropped for the same reason.
    """
    if m.f.kind == "pendulum_sine":
        k = round((m.f.shift + m.gamma) / math.pi)
        sign = -1.0 if k % 2 else 1.0
        return Nonlinearity("pendulum_sine", scale=sign * m.f.scale)
    s = m.f.shift + m.gamma
    d = len(m.f.coeffs)
    new = [0.0] * (d + 1)
    for j in range(1, d + 1):
        cj = m.f.coeffs[j - 1]
        if cj == 0.0:
            continue
        for mdeg in range(0, j + 1):
            new[mdeg] += cj * math.comb(j, mdeg) * s ** (j - mdeg)
    # new[0] = f(gamma), zero up to the model's stationarity tolerance
    coeffs = new[1:]
    while coeffs and coeffs[-1] == 0.0:
        coeffs.pop()
    return Nonlinearity("polynomial", tuple(coeffs) or (0.0,))


def quadratic_remainder_bound(g: Nonlinearity, rho: float | None = None) -> float:
    """Smallest computed p with |g(xi) - g'(0) xi| <= p xi^2.

    With ``rho`` given, the bound is local on |xi| <= rho; otherwise it must
    hold on all of R, which exists only for nonlinearities whose remainder
    is exactly quadratic.  For the (shifted) pendulum sine the Taylor bound
    |xi - sin xi| <= |xi|^3 / 6 yields p = rho/6, and no finite global p
    exists.
    """
    g.check_stationary(0.0, "xi")
    if rho is not None and not (math.isfinite(rho) and rho >= 0.0):
        raise ValueError("rho must be finite and >= 0")

    if g.kind == "pendulum_sine":
        if rho is None:
            raise ValueError(
                "|xi - sin xi| / xi^2 is unbounded on R; a radius rho is required"
            )
        return abs(g.scale) * rho / 6.0

    tail = g.coeffs[1:]
    if all(c == 0.0 for c in tail):
        return 0.0
    if rho is None:
        if all(c == 0.0 for c in tail[1:]):
            return abs(g.coeffs[1])
        raise ValueError(
            "no finite global quadratic bound for degree > 2; pass a radius rho"
        )
    return float(sum(abs(c) * rho ** (j - 2) for j, c in enumerate(tail, start=2)))


def matrices_2x2(m11, m12, m21, m22) -> np.ndarray:
    """2x2 matrices of shape (..., 2, 2) from four broadcastable entries.

    Each entry is stored contiguously (the result is a transposed view of a
    (2, 2, ...) array), the layout the propagator scan reads.
    """
    shape = np.broadcast_shapes(*map(np.shape, (m11, m12, m21, m22)))
    out = np.empty((2, 2) + shape)
    out[0, 0], out[0, 1], out[1, 0], out[1, 1] = m11, m12, m21, m22
    return np.moveaxis(out, (0, 1), (-2, -1))


def system_matrix(lin: LinearizedSystem, mu: float, phi_hat_values) -> np.ndarray:
    """A(t, mu) of v' = A v from values of phi_hat(t), shape (..., 2, 2)."""
    return matrices_2x2(
        0.0, 1.0, -(lin.beta_hat * mu * mu + mu * phi_hat_values), -(lin.alpha * mu)
    )


def system_matrix_entries(lin: LinearizedSystem, mu: float):
    """First-order form of the linearization, v' = A(t, mu) v, as a callable.

    ``A(t)`` has shape (2, 2) for a scalar t and (m, 2, 2) for t of shape
    (m,): the callable input of
    :func:`~mathieu_cert.floquet_lyapunov.deviation_matrizant`, which
    evaluates phi_hat at every call.  The pipeline passes
    :func:`system_matrix` of the transform's phi_hat samples instead.
    """
    return lambda t: system_matrix(lin, mu, lin.phi_hat.eval(t))


def model_to_dict(m: MathieuModel) -> dict:
    fdict: dict = {"kind": m.f.kind}
    if m.f.kind == "polynomial":
        fdict["coeffs"] = list(m.f.coeffs)
    if m.f.shift != 0.0:
        fdict["shift"] = m.f.shift
    if m.f.scale != 1.0:
        fdict["scale"] = m.f.scale
    return {
        "alpha": m.alpha,
        "beta": m.beta,
        "phi": signal_to_dict(m.phi),
        "f": fdict,
        "gamma": m.gamma,
    }


def model_from_dict(d: dict) -> MathieuModel:
    try:
        refuse_unknown_keys(d, ("alpha", "beta", "phi", "f", "gamma"), "the model")
        refuse_unknown_keys(d["phi"], ("period", "harmonics"), "phi")
        fdict = d["f"]
        refuse_unknown_keys(fdict, ("kind", "coeffs", "shift", "scale"), "f")
        f = Nonlinearity(**fdict)
        return MathieuModel(
            alpha=float(d["alpha"]),
            beta=float(d["beta"]),
            phi=signal_from_dict(d["phi"]),
            f=f,
            gamma=float(d["gamma"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model description: {exc}") from exc
