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
from functools import cached_property

import numpy as np

from .periodic_signal import PeriodicSignal, signal_from_dict, signal_to_dict

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
    constants be computed with stated provenance instead of sampled.
    """

    kind: str
    coeffs: tuple[float, ...] = ()
    shift: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if self.kind == "polynomial" and not self.coeffs:
            raise ValueError("polynomial nonlinearity needs at least one coefficient")
        if self.scale == 0.0:
            raise ValueError("scale must be nonzero")

    @cached_property
    def _array_constants(self):
        # Horner from x * (0.0 + c_last) equals Horner from zeros bit for bit, -0.0 included
        *rest, last = self.coeffs or (0.0,)
        return (*map(np.array, (self.shift, self.scale, 0.0 + last)), [np.array(c) for c in reversed(rest)])

    def value(self, y):
        """f(y) elementwise, on arrays with 0-d array constants (cheaper numpy operands
        than floats); a Python float gives a float equal bit for bit to the array result.
        """
        if isinstance(y, float):
            x = self.shift + y
            if self.kind == "pendulum_sine":
                try:
                    return self.scale * math.sin(x)
                except ValueError:  # x = +-inf, where np.sin gives NaN
                    return math.nan
            out = 0.0
            for c in reversed(self.coeffs):
                out = x * (out + c)
            return out
        y = np.asarray(y, dtype=float)
        shift, scale, last, rest = self._array_constants
        x = shift + y
        if self.kind == "pendulum_sine":
            out = scale * np.sin(x)
        else:
            out = x * last
            for c in rest:
                out = x * (out + c)
        return out if out.ndim else float(out)

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

    __call__ = value


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
        if abs(self.f.value(self.gamma)) >= 1e-12:
            raise ValueError(
                f"gamma={self.gamma} is not a stationary point: |f(gamma)|="
                f"{abs(self.f.value(self.gamma)):.3e}"
            )
        if not self.f.derivative(self.gamma) < 0.0:
            raise ValueError("stationary point must have f'(gamma) < 0")

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
            raise ValueError("linearized analysis requires alpha > 0")
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
    if not m.alpha > 0.0:
        raise ValueError("stability analysis requires positive damping (alpha > 0)")
    fp = m.f.derivative(m.gamma)
    if not fp < 0.0:
        raise ValueError("linearization requires f'(gamma) < 0")
    return LinearizedSystem(
        alpha=m.alpha,
        beta_hat=m.beta * fp,
        phi_hat=m.phi.scaled(fp),
        period=m.period,
    )


def shift_to_zero(m: MathieuModel) -> Nonlinearity:
    """Move the stationary point to the origin: g(z) = f(gamma + z).

    For the pendulum at gamma = pi this is g(z) = -sin z.  Stationarity of
    a sine requires shift + gamma to be a multiple of pi up to the model's
    1e-12 tolerance, and the returned function uses that multiple exactly:
    evaluating sin(pi + z) literally in floats would leave a constant bias
    of about 1.2e-16 that dominates the dynamics at the small amplitudes
    attraction certificates operate on.  Polynomials are expanded
    binomially; the residual constant term is below the stationarity
    tolerance and is dropped for the same reason.
    """
    if m.f.kind == "pendulum_sine":
        total = m.f.shift + m.gamma
        k = round(total / math.pi)
        if abs(math.sin(total)) >= 1e-12:
            raise ValueError("sine stationary point must sit at a multiple of pi")
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
    if abs(g.value(0.0)) >= 1e-12:
        raise ValueError("quadratic remainder bound requires g(0) = 0")
    if not g.derivative(0.0) < 0.0:
        raise ValueError("quadratic remainder bound requires g'(0) < 0")
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
        fdict = d["f"]
        f = Nonlinearity(
            fdict["kind"],
            tuple(fdict.get("coeffs", ())),
            float(fdict.get("shift", 0.0)),
            float(fdict.get("scale", 1.0)),
        )
        return MathieuModel(
            alpha=float(d["alpha"]),
            beta=float(d["beta"]),
            phi=signal_from_dict(d["phi"]),
            f=f,
            gamma=float(d["gamma"]),
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed model description: {exc}") from exc
