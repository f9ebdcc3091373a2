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
    AveragingTransform,
    BogolyubovResult,
    TransformedSystem,
    bogolyubov_condition,
    build_transform,
    build_u1,
    build_u2_u3,
    mean_phi_a,
    u1_is_hurwitz,
)
from .bounds import (
    BoundChain,
    c_matrix_nodes,
    compute_bound_chain,
    eq19_sup,
    script_c_positivity,
)
from .floquet_lyapunov import (
    PeriodicLyapunovSolution,
    UnstableSystemError,
    bvp_residual,
    krein_envelope,
    matrizant,
    solve_constant_lyapunov,
    solve_periodic_lyapunov,
    solve_periodic_lyapunov_scaled,
    spectral_radius_linear_system,
)
from .model import (
    LinearizedSystem,
    MathieuModel,
    Nonlinearity,
    PendulumParams,
    linearize,
    model_from_dict,
    model_to_dict,
    pendulum_reduce,
    quadratic_remainder_bound,
    shift_to_zero,
    system_matrix_entries,
)
from .periodic_signal import (
    PeriodicSignal,
    QuadratureGrid,
    signal_from_dict,
    signal_to_dict,
    sup_norm,
    zero_mean_antiderivative,
)
from .robustness import (
    AttractionCertificate,
    Perturbation,
    RobustnessBudget,
    attraction_certificate,
    decay_envelope,
    delta_a_norm,
    envelope_rate_integrals,
    epsilon_fn,
    linear_budget,
    nonlinear_budget,
    q_of_mu,
    q_tilde,
    sample_attraction_boundary,
)
from .simulate import (
    EnvelopeReport,
    OdeSystem,
    Trajectory,
    integrate_batch,
    linear_system,
    nonlinear_system,
    verify_envelope,
)
from .simulate import integrate as integrate_trajectory

__version__ = "0.1.0"
