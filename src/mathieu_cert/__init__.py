"""Stability certificates for Mathieu-type equations.

Given  y'' + alpha*mu*y' + (beta*mu**2 + mu*phi(t)) f(y) = 0  with periodic
zero-mean forcing phi and a stationary point gamma (f(gamma) = 0,
f'(gamma) < 0), this package computes an explicit admissible range
(0, mu0] for the small parameter, perturbation budgets for the
coefficients, attraction-set radii for the nonlinear dynamics and
exponential decay envelopes, and validates each certificate by direct
numerical simulation.  The vibrationally stabilized inverted pendulum is
the canonical instance.
"""

from .averaging import (
    bogolyubov_condition,
    build_transform,
    build_u1,
)
from .bounds import compute_bound_chain
from .floquet_lyapunov import (
    solve_constant_lyapunov,
    solve_periodic_lyapunov_scaled,
)
from .model import (
    MathieuModel,
    Nonlinearity,
    PendulumParams,
    linearize,
    model_from_dict,
    pendulum_reduce,
    quadratic_remainder_bound,
    shift_to_zero,
)
from .periodic_signal import (
    PeriodicSignal,
    QuadratureGrid,
)
from .robustness import (
    Perturbation,
    attraction_certificate,
    decay_envelope,
    q_of_mu,
    sample_attraction_boundary,
)
from .simulate import (
    integrate_batch,
    nonlinear_system,
    verify_envelope,
)

__version__ = "0.1.0"
