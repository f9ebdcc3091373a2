"""Explicit constant chain certifying an admissible range (0, mu0].

All quantities are direct formula evaluations built from the averaging
transform: the forcing supremum phi_max, the coefficient magnitude
a = max(alpha, |beta_hat|), the transform-validity bound
mu_bar = 1/(phi_max T^2), matrix-norm bounds for U2, U3 and
H2(t,mu) = H1 int_0^t U2 + (int_0^t U2)^T H1, and the thresholds

    mu1 = min(mu_bar, 1/(8 L1)),     mu0 = min(mu1, 1/(2 sqrt(L2))).

For mu in (0, mu1] the correction matrix satisfies C(t,mu) > (3/4) I, and
for mu in (0, mu0] the remainder-adjusted matrix stays >= I/2, which is
what certifies asymptotic stability on the whole range.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .averaging import AveragingTransform, TransformedSystem
from .floquet_lyapunov import spectral_norm_2x2, sym_eig_bounds
from .model import LinearizedSystem
from .periodic_signal import cumulative_simpson, sup_norm

__all__ = [
    "BoundChain",
    "compute_bound_chain",
    "h2_nodes",
    "c_matrix_nodes",
    "eq19_sup",
    "script_c_positivity",
]


@dataclass(frozen=True)
class BoundChain:
    """Certified constants; mu0 is the guaranteed stability range endpoint.

    ``a_const`` uses |beta_hat|: the printed form max(alpha, beta_hat) would
    always collapse to alpha because beta_hat < 0, while the norm bounds it
    feeds consume a coefficient magnitude.  Both readings are reported; the
    magnitude reading is the conservative one and is the one used.
    """

    phi_max: float
    a_const: float
    a_const_signed: float
    mu_bar: float
    norm_u1: float
    norm_h1: float
    L1: float
    mu1: float
    L2: float
    mu0: float
    mu_bar_capped: bool = False

    def as_dict(self) -> dict:
        return asdict(self)


def compute_bound_chain(
    lin: LinearizedSystem,
    tr: AveragingTransform,
    u1: np.ndarray,
    h1: np.ndarray,
    mu_cap: float = 1.0,
) -> BoundChain:
    """Evaluate the full constant chain down to mu0.

    With identically zero forcing the formula for mu_bar degenerates to
    +inf; it is then capped at ``mu_cap`` (the scaling analysis behind the
    chain presumes a genuine oscillatory forcing).
    """
    T = lin.period
    phi_max = sup_norm(lin.phi_hat)
    if phi_max * phi_max == math.inf:  # L2 takes phi_max ** 2
        raise ArithmeticError(f"bound chain overflows: phi_max^2 at phi_max = {phi_max}")
    a_const = max(lin.alpha, abs(lin.beta_hat))
    a_signed = max(lin.alpha, lin.beta_hat)
    capped = phi_max == 0.0
    mu_bar = mu_cap if capped else 1.0 / (phi_max * T * T)

    with np.errstate(over="ignore"):  # inf norms give L1 = inf and mu0 = 0, the conservative answer
        norm_u1, norm_h1 = spectral_norm_2x2(u1), spectral_norm_2x2(h1)
    u2_bound = (1.0 + a_const + T) * (0.5 + phi_max * T)
    L1 = 2.0 * norm_h1 * T * u2_bound * (norm_u1 + u2_bound)
    mu1 = min(mu_bar, 1.0 / (8.0 * L1))
    L2 = (
        norm_h1
        * T ** 4
        * phi_max ** 2
        * (1.0 + phi_max * T)
        * (1.0 + 2.0 * mu1 * T * u2_bound)
    )
    mu0 = mu1 if L2 == 0.0 else min(mu1, 1.0 / (2.0 * math.sqrt(L2)))
    return BoundChain(
        phi_max=phi_max,
        a_const=a_const,
        a_const_signed=a_signed,
        mu_bar=mu_bar,
        norm_u1=norm_u1,
        norm_h1=norm_h1,
        L1=L1,
        mu1=mu1,
        L2=L2,
        mu0=mu0,
        mu_bar_capped=capped,
    )


def h2_nodes(ts: TransformedSystem, h1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H2(t,mu) = H1 int_0^t U2 + (int_0^t U2)^T H1 at the grid nodes."""
    nodes = ts.tr.grid.nodes
    iu2 = cumulative_simpson(ts.u2_at(nodes), ts.tr.grid.step)
    h2 = h1 @ iu2 + np.transpose(iu2, (0, 2, 1)) @ h1
    return nodes, h2


def _c_nodes(ts: TransformedSystem, h1: np.ndarray):
    nodes, h2 = h2_nodes(ts, h1)
    u12 = ts.u1 + ts.u2_at(nodes)
    corr = h2 @ u12 + np.transpose(u12, (0, 2, 1)) @ h2
    c = np.eye(2) + ts.mu * corr
    return nodes, c, h2, corr


def c_matrix_nodes(ts: TransformedSystem, h1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Correction matrix C(t,mu) = I + mu*(H2 (U1+U2) + (U1+U2)^T H2) at the nodes."""
    nodes, c, _, _ = _c_nodes(ts, h1)
    return nodes, c


def eq19_sup(ts: TransformedSystem, h1: np.ndarray) -> float:
    """sup over grid of  mu * ||H2 (U1+U2) + (U1+U2)^T H2||.

    Below 1/4 for all mu <= mu1; this is the quantity the L1 bound caps.
    """
    _, _, _, corr = _c_nodes(ts, h1)
    return float(ts.mu * np.max(spectral_norm_2x2(corr)))


def script_c_positivity(ts: TransformedSystem, h1: np.ndarray) -> tuple[bool, float]:
    """Check the remainder-adjusted correction matrix against the I/2 floor.

    From the transformed system at mu and H1, builds
    scriptH(t,mu) = H1/mu - H2(t,mu) and

        scriptC = C(t,mu) - mu^3 (scriptH U3 + U3^T scriptH),

    returning (ok, min eigenvalue over the grid) with
    ok = (min_eig >= 1/2 - 1e-9).  Guaranteed ok for mu <= mu0.
    """
    mu = ts.mu
    nodes, c, h2, _ = _c_nodes(ts, h1)
    script_h = h1[None, :, :] / mu - h2
    u3 = ts.u3_at(nodes)
    adj = script_h @ u3 + np.transpose(u3, (0, 2, 1)) @ script_h
    script_c = c - mu ** 3 * adj
    lmin, _ = sym_eig_bounds(
        script_c[:, 0, 0], 0.5 * (script_c[:, 0, 1] + script_c[:, 1, 0]), script_c[:, 1, 1]
    )
    min_eig = float(np.min(lmin))
    return (min_eig >= 0.5 - 1e-9), min_eig
