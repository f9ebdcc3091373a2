"""Perturbation budgets, attraction sets and decay envelopes.

Coefficient perturbations (d_alpha, d_beta, d_phi(t)) are specified at the
model level and converted once to the linearized scale through f'(gamma);
this avoids double-scaling mistakes when moving between the linear and the
nonlinear statements.  Budgets bound the combined quantities

    mu * sup_t |d_phi_hat(t)|      and      mu * (|d_beta_hat| mu + |d_alpha|)

by 1/(4 h_max)   (linear robustness level)  or
by 1/(8 h_max)   (nonlinear level, which additionally forces the margin
                  function eps(t,mu) = 1 - 2 ||H|| ||dA|| to stay >= 1/2).

Admissibility is strict: a perturbation exactly on the budget boundary is
rejected.  Perturbations are restricted to bounded T-periodic functions
(constant offset plus trigonometric series) so suprema are computable on
one period.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .floquet_lyapunov import PeriodicLyapunovSolution
from .model import MathieuModel
from .periodic_signal import PeriodicSignal, QuadratureGrid, signal_from_dict, sup_norm

__all__ = [
    "Perturbation",
    "RobustnessBudget",
    "AttractionCertificate",
    "delta_a_norm",
    "linear_budget",
    "nonlinear_budget",
    "q_of_mu",
    "q_tilde",
    "attraction_certificate",
    "decay_envelope",
    "envelope_rate_integrals",
    "sample_attraction_boundary",
    "perturbation_from_dict",
]


@dataclass(frozen=True)
class Perturbation:
    """Model-level coefficient perturbation (d_alpha, d_beta, d_phi).

    ``d_phi`` is a bounded continuous T-periodic function given as a
    constant offset plus a trigonometric series (it need not have zero
    mean).  ``scaling`` is f'(gamma) of the unperturbed model and converts
    to the linearized quantities: d_beta_hat = d_beta * scaling,
    d_phi_hat = d_phi * scaling.
    """

    d_alpha: float
    d_beta: float
    d_phi: PeriodicSignal | None = None
    d_phi_offset: float = 0.0
    scaling: float = -1.0

    def __post_init__(self):
        for name in ("d_alpha", "d_beta", "d_phi_offset", "scaling"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"perturbation {name} must be finite")
        if self.scaling >= 0.0:
            raise ValueError("scaling must be f'(gamma) < 0")

    @classmethod
    def zero(cls, scaling: float = -1.0) -> "Perturbation":
        return cls(0.0, 0.0, None, 0.0, scaling)

    @classmethod
    def resolve(cls, pert: "Perturbation | None", period: float) -> "Perturbation":
        """``pert``, or the zero perturbation for None, on the system ``period``."""
        return (cls.zero() if pert is None else pert).on_period(period)

    def on_period(self, period: float) -> "Perturbation":
        """This perturbation, refused unless its d_phi has ``period``: d_phi is sampled on the system's."""
        if self.d_phi is not None and self.d_phi.period != period:
            raise ValueError("d_phi period must match the system period")
        return self

    @classmethod
    def for_model(
        cls,
        model: MathieuModel,
        d_alpha: float = 0.0,
        d_beta: float = 0.0,
        d_phi: PeriodicSignal | None = None,
        d_phi_offset: float = 0.0,
    ) -> "Perturbation":
        return cls(d_alpha, d_beta, d_phi, d_phi_offset, model.f.derivative(model.gamma))

    @property
    def d_beta_hat(self) -> float:
        return self.d_beta * self.scaling

    def d_phi_eval(self, t):
        t = np.asarray(t, dtype=float)
        out = np.full_like(t, self.d_phi_offset)
        if self.d_phi is not None:
            out = out + self.d_phi.eval(t)
        return out if out.ndim else float(out)

    def d_phi_hat_eval(self, t):
        return self.scaling * self.d_phi_eval(t)

    @cached_property
    def sup_d_phi_hat(self) -> float:
        return abs(self.scaling) * sup_norm(self.d_phi, offset=self.d_phi_offset)

    @property
    def is_zero(self) -> bool:
        return (
            self.d_alpha == 0.0
            and self.d_beta == 0.0
            and self.d_phi_offset == 0.0
            and (self.d_phi is None or not self.d_phi.harmonics)
        )


def delta_a_norm(pert: Perturbation, mu: float, t):
    """Spectral norm of the system-matrix perturbation, in closed form.

    The perturbation acts only on the second row, so
    ||dA(t,mu)|| = mu * sqrt((d_beta_hat*mu + d_phi_hat(t))^2 + d_alpha^2).
    """
    if not mu > 0.0:
        raise ValueError("mu must be positive")
    t = np.asarray(t, dtype=float)
    g = pert.d_beta_hat * mu + pert.d_phi_hat_eval(t)
    out = mu * np.hypot(g, pert.d_alpha)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class RobustnessBudget:
    """Admissible perturbation magnitudes at a given mu.

    ``budget_phi_sup`` bounds mu*sup|d_phi_hat| and ``budget_coeff`` bounds
    mu*(|d_beta_hat|*mu + |d_alpha|); the nonlinear level halves both.
    """

    mu: float
    budget_phi_sup: float
    budget_coeff: float
    level: str  # "linear" (1/4) or "nonlinear" (1/8)
    h_max: float

    def terms(self, pert: Perturbation) -> tuple[float, float]:
        """The two bounded quantities: mu*sup|d_phi_hat| and mu*(|d_beta_hat|*mu + |d_alpha|)."""
        return self.mu * pert.sup_d_phi_hat, self.mu * (abs(pert.d_beta_hat) * self.mu + abs(pert.d_alpha))

    def is_admissible(self, pert: Perturbation) -> bool:
        lhs_phi, lhs_coeff = self.terms(pert)
        return lhs_phi < self.budget_phi_sup and lhs_coeff < self.budget_coeff


def _budget(sol: PeriodicLyapunovSolution, k: float, level: str) -> RobustnessBudget:
    bound = 1.0 / (k * sol.h_max)
    return RobustnessBudget(mu=sol.mu, budget_phi_sup=bound, budget_coeff=bound, level=level, h_max=sol.h_max)


def linear_budget(sol: PeriodicLyapunovSolution) -> RobustnessBudget:
    """Budgets under which the perturbed linear system stays asymptotically stable."""
    return _budget(sol, 4.0, "linear")


def nonlinear_budget(sol: PeriodicLyapunovSolution) -> RobustnessBudget:
    """Halved budgets that additionally keep eps(t,mu) >= 1/2."""
    return _budget(sol, 8.0, "nonlinear")


def q_of_mu(
    model: MathieuModel,
    pert: Perturbation | None,
    p: float,
    mu: float,
    grid: QuadratureGrid,
) -> float:
    """Nonlinearity strength  q(mu) = sup_t (|beta+d_beta| mu^2 + |phi+d_phi| mu) p.

    The supremum is exact; ``grid`` is unused and kept for existing callers.
    """
    if p < 0.0:
        raise ValueError("p must be >= 0")
    pert = Perturbation.resolve(pert, model.period)
    sup_phi = sup_norm(model.phi, pert.d_phi, offset=pert.d_phi_offset)
    return (abs(model.beta + pert.d_beta) * mu * mu + sup_phi * mu) * p


def q_tilde(q_mu: float, h_max: float) -> float:
    """Effective nonlinear coefficient 2 q(mu) h_max(mu)."""
    return 2.0 * q_mu * h_max


@dataclass(frozen=True)
class AttractionCertificate:
    """Initial-data region from which decay to the origin is certified.

    Membership requires <H(0,mu) v, v> <= lyapunov_radius_sq and, when a
    local quadratic-remainder radius rho was used, additionally
    ||v|| <= euclid_radius = rho h_min / (4 h_max).
    """

    mu: float
    p: float
    rho: float | None
    q_mu: float
    lyapunov_radius_sq: float
    euclid_radius: float | None
    h_min: float
    h_max: float

    def membership(self, sol: PeriodicLyapunovSolution, y0: float, y1: float) -> tuple[bool, bool]:
        """(inside the Lyapunov level set, inside the Euclidean cap) of v = (y0, y1);
        a NaN value, <H(0)v, v> of a huge v included, counts as outside."""
        in_lyapunov = bool(sol.value_at_node(0, np.array([y0, y1])) <= self.lyapunov_radius_sq)
        return in_lyapunov, self.euclid_radius is None or math.hypot(y0, y1) <= self.euclid_radius

    def as_dict(self) -> dict:
        return asdict(self)


def attraction_certificate(
    sol: PeriodicLyapunovSolution,
    q_mu: float,
    p: float,
    rho: float | None = None,
) -> AttractionCertificate:
    """Attraction-set radii from the Lyapunov extremes and q(mu).

    lyapunov_radius_sq = (h_min/h_max)^3 / (64 h_max q(mu)^2), which at tiny mu
    underflows to a conservative 0 where h_max^4 would overflow; a vanishing q
    (linear nonlinearity) yields an unbounded region, reported as +inf.
    """
    if q_mu < 0.0:
        raise ValueError("q_mu must be >= 0")
    if q_mu == 0.0:
        radius_sq = math.inf
    else:
        radius_sq = (sol.h_min / sol.h_max) ** 3 / (64.0 * sol.h_max * q_mu ** 2)
    euclid = None if rho is None else rho * sol.h_min / (4.0 * sol.h_max)
    return AttractionCertificate(
        mu=sol.mu,
        p=p,
        rho=rho,
        q_mu=q_mu,
        lyapunov_radius_sq=radius_sq,
        euclid_radius=euclid,
        h_min=sol.h_min,
        h_max=sol.h_max,
    )


# ---------------------------------------------------------------------------
# decay envelopes


def _margin_steps(sol: PeriodicLyapunovSolution, pert: Perturbation | None, mu: float):
    """Per-step (||H||, ||dA||, eps = 1 - 2 ||H|| ||dA||), each norm the larger at the step's ends."""
    hn, d = sol.hnorm_steps, 0.0
    pert = Perturbation.resolve(pert, sol.period)
    if not (pert.is_zero and mu > 0.0):  # else delta_a_norm is exactly 0; other mu reach its refusal
        d = np.asarray(delta_a_norm(pert, mu, sol.times))
        d = np.maximum(d[:-1], d[1:])
    return hn, d, 1.0 - 2.0 * hn * d


def envelope_rate_integrals(
    sol: PeriodicLyapunovSolution, pert: Perturbation | None, mu: float
) -> dict:
    """One-period values of the envelope decay-rate integrals.

    ``linear``        : int_0^T (1/||H|| - 2||dA||) ds
    ``conservative``  : int_0^T eps/(2||H||) ds   (certified nonlinear rate)
    ``printed``       : int_0^T 1/(2||H||) ds     (informational; assumes the
                         full margin eps = 1)
    """
    hn, d, eps = _margin_steps(sol, pert, mu)
    h = sol.step
    return {
        "linear": float(np.sum(h * (1.0 / hn - 2.0 * d))),
        "conservative": float(np.sum(h * eps / (2.0 * hn))),
        "printed": float(np.sum(h / (2.0 * hn))),
    }


def decay_envelope(
    sol: PeriodicLyapunovSolution,
    pert: Perturbation | None,
    v0_value: float,
    t,
    variant: str,
):
    """Certified upper envelope for ||v(t)||^2 along perturbed dynamics.

    variant "linear" (perturbed linear system; ``v0_value`` is ||v(0)||^2):

        (||H(0)||/h_min(t)) ||v(0)||^2 exp(-int_0^t (1/||H|| - 2||dA||) ds)

    as ||v(t)||^2 <= psi(t)/h_min(t): Krein's bound when dA = 0 (Daleckii & Krein, AMS 1974).

    variant "nonlinear" (perturbed nonlinear system started inside the
    attraction set; ``v0_value`` is <H(0,mu) v(0), v(0)>):

        (4/h_min) v0_value exp(-int_0^t eps(s,mu)/(2||H(s,mu)||) ds)

    The nonlinear rate is the conservative one that the margin chain
    actually yields; the variant with the full margin (rate 1/(2||H||)) is
    reported separately by :func:`envelope_rate_integrals`.  The nonlinear
    rate comes from the dissipation inequality

        d(psi)/dt <= -(eps/2) |v|^2,      psi(t) = <H(t,mu) v(t), v(t)>,

    divided through by psi <= ||H|| |v|^2.  At small mu the inequality,
    integrated to psi(t) <= psi(0) - int_0^t (eps/2) |v|^2 ds, is the
    checkable form: at mu0/2 of the pendulum the rate integrates to about
    3e-21 over 50 periods, so this envelope's factor is 1.0 in double
    precision while the integrated inequality still fails on a wrong H or
    on too little damping.
    """
    if v0_value < 0.0:
        raise ValueError("v0_value must be >= 0")
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("envelope defined for t >= 0")
    hn, d, eps = _margin_steps(sol, pert, sol.mu)
    if variant == "linear":
        integrand = 1.0 / hn - 2.0 * d
        pref = sol.hnorm_nodes[0] / sol.hmin_at(t) * v0_value
    elif variant == "nonlinear":
        if np.any(eps <= 0.0):
            raise ValueError("eps(t,mu) <= 0: perturbation outside the nonlinear budgets")
        integrand = eps / (2.0 * hn)
        pref = 4.0 / sol.h_min * v0_value
    else:
        raise ValueError(f"unknown envelope variant {variant!r}")
    out = pref * np.exp(-sol.step_integral(integrand, t))
    return out if out.ndim else float(out)


def sample_attraction_boundary(
    sol: PeriodicLyapunovSolution,
    cert: AttractionCertificate,
    n: int,
    scale: float = 1.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """n initial vectors with <H(0) v, v> = scale^2 * lyapunov_radius_sq.

    Directions w are drawn uniformly in the solution's well-conditioned
    coordinates (z = (y, y'/mu - b y) on the certificate path), scaled
    onto the requested level set, mapped to v = T(0) w and, if a Euclidean
    cap is present, shrunk to respect it.  scale < 1 samples strictly
    inside the region.
    """
    if not 0.0 < scale <= 1.0:
        raise ValueError("scale must be in (0, 1]")
    if not math.isfinite(cert.lyapunov_radius_sq):
        raise ValueError("unbounded attraction region cannot be sampled on its boundary")
    rng = rng or np.random.default_rng(0)
    thetas = rng.uniform(0.0, 2.0 * math.pi, size=n)
    w0, w1 = np.cos(thetas), np.sin(thetas)
    # nudged inside by 1e-12 so the coordinate roundtrip in the membership
    # predicate cannot push a boundary sample out by rounding
    target = scale * scale * cert.lyapunov_radius_sq * (1.0 - 1e-12)
    hz = sol.H_z[0]
    r = np.sqrt(target / (hz[0, 0] * w0 ** 2 + 2.0 * hz[0, 1] * w0 * w1 + hz[1, 1] * w1 ** 2))
    w0, w1 = w0 * r, w1 * r
    v = np.stack([w0, sol.z_scale * (sol.b[0] * w0 + w1)], axis=1)
    if cert.euclid_radius is not None:
        cap = cert.euclid_radius * (1.0 - 1e-12)  # nudged inside as the level is
        v = v * (cap / np.maximum(np.hypot(v[:, 0], v[:, 1]), cap))[:, None]
    return v


def perturbation_from_dict(d: dict, model: MathieuModel) -> Perturbation:
    try:
        dphi = d.get("d_phi")
        sig = None
        offset = 0.0
        if dphi is not None:
            offset = float(dphi.get("offset", 0.0))
            if dphi.get("harmonics"):
                period = dphi.get("period") or model.period
                sig = signal_from_dict({"period": period, "harmonics": dphi["harmonics"]})
        return Perturbation.for_model(
            model,
            d_alpha=float(d.get("d_alpha", 0.0)),
            d_beta=float(d.get("d_beta", 0.0)),
            d_phi=sig,
            d_phi_offset=offset,
        ).on_period(model.period)
    except (TypeError, AttributeError) as exc:  # a null field, or a non-object d_phi
        raise ValueError(f"malformed perturbation description: {exc}") from exc
