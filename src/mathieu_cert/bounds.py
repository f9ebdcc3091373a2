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

from .averaging import AveragingTransform
from .floquet_lyapunov import spectral_norm_2x2
from .model import LinearizedSystem
from .periodic_signal import sup_norm

__all__ = ["BoundChain", "compute_bound_chain"]


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
) -> BoundChain:
    """Evaluate the full constant chain down to mu0.

    With identically zero forcing the formula for mu_bar degenerates to
    +inf, capped at 1: the chain presumes an oscillatory forcing.  ``tr``
    is unused; ``perfbench`` passes it (ROADMAP items 1 and 10).
    """
    T = lin.period
    phi_max = sup_norm(lin.phi_hat)
    if phi_max * phi_max == math.inf:  # L2 takes phi_max ** 2
        raise ArithmeticError(f"bound chain overflows: phi_max^2 at phi_max = {phi_max}")
    a_const = max(lin.alpha, abs(lin.beta_hat))
    a_signed = max(lin.alpha, lin.beta_hat)
    capped = phi_max == 0.0
    mu_bar = 1.0 if capped else 1.0 / (phi_max * T * T)

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
