"""Matrizants, monodromy spectra and periodic Lyapunov solutions.

For the linear T-periodic system v' = A(t) v, asymptotic stability is
equivalent to the monodromy matrix Y(T) having spectrum inside the unit
disk, and also to solvability of the periodic Lyapunov boundary value
problem

    H' + H A(t) + A(t)^T H = -I,    H(0) = H(T) > 0.

The positive periodic solution is the tail integral

    H(t) = (Y(t)^T)^{-1} ( int_t^inf Y(s)^T Y(s) ds ) Y(t)^{-1},

which at t = 0 collapses to the 2x2 discrete Lyapunov equation
X = M^T X M + Q with M = Y(T) and Q = int_0^T Y^T Y ds.  Everything here is
dimension 2, so eigenvalues and inverses are closed forms, and the small
Lyapunov solves are 3x3 linear systems in the entries of the symmetric
solution.  The discrete one is refined with its residual in extended
precision (np.longdouble): over 175 solves from scaled runs it stayed within
1.0e-16 of the largest entry of a 50-digit solve of the same float data,
where refining in double reached 2.1e-15 and no refinement 8.2e-15.

Two numerical hazards near the certified parameter range are handled
explicitly:

* the multipliers sit within about alpha*mu*T/2 of the unit circle, below
  what Y(T) resolves; tr A is the constant -(alpha + d_alpha)*mu, so
  Liouville's formula gives det Y(T), and with it the modulus of a complex
  pair, in closed form, and Z = Y(T) - I only has to tell a complex pair
  from a real one, which it does at its own scale;
* the Lyapunov solution in original coordinates has condition of order
  1/mu^2, so the radius and the certificate path propagate the coordinates
  z = (y, y'/mu - b y), nondegenerate at every mu > 0, where the solution
  is well conditioned, and map back through the closed-form change of
  variables, keeping h_min and h_max at full relative accuracy; every
  solution keeps that factorization, with T = I in the original coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .averaging import AveragingTransform, u1_is_hurwitz
from .model import LinearizedSystem, matrices_2x2
from .periodic_signal import cumulative_simpson, half_step_grid

__all__ = [
    "PeriodicLyapunovSolution",
    "UnstableSystemError",
    "matrizant",
    "spectral_radius_from_deviation",
    "deviation_matrizant",
    "solve_constant_lyapunov",
    "solve_periodic_lyapunov_scaled",
    "spectral_radius_linear_system",
    "bvp_residual",
    "spectral_norm_2x2",
    "sym_eig_bounds",
]


class UnstableSystemError(RuntimeError):
    """Raised when a positive periodic Lyapunov solution does not exist."""


# ---------------------------------------------------------------------------
# small dense helpers


def spectral_norm_2x2(m):
    """Operator 2-norm via the closed-form largest Gram eigenvalue.

    Vectorized over leading axes: a (2, 2) input gives a float, a
    (n, 2, 2) input an array of n norms.
    """
    m = np.asarray(m, dtype=float)
    g11 = m[..., 0, 0] ** 2 + m[..., 1, 0] ** 2
    g22 = m[..., 0, 1] ** 2 + m[..., 1, 1] ** 2
    g12 = m[..., 0, 0] * m[..., 0, 1] + m[..., 1, 0] * m[..., 1, 1]
    lam = 0.5 * (g11 + g22 + np.hypot(g11 - g22, 2.0 * g12))
    out = np.sqrt(np.maximum(lam, 0.0))
    return out if out.ndim else float(out)


def sym_eig_bounds(h11, h12, h22, det=None):
    """(lambda_min, lambda_max) of a symmetric 2x2, vectorized.

    The eigenvalue of larger modulus is (tr +- root)/2 with the sign of the
    trace, so that it does not cancel, from the discriminant
    root^2 = (h11-h22)^2 + 4 h12^2; the other one is recovered from the
    determinant, which the caller may supply from a better-conditioned
    source than the entry products.
    """
    h11 = np.asarray(h11, dtype=float)
    h12 = np.asarray(h12, dtype=float)
    h22 = np.asarray(h22, dtype=float)
    if det is None:
        det = h11 * h22 - h12 * h12
    tr = h11 + h22
    root = np.hypot(h11 - h22, 2.0 * h12)
    pos = tr >= 0.0
    big = 0.5 * (tr + np.where(pos, root, -root))
    other = np.where(big != 0.0, det / np.where(big != 0.0, big, 1.0), 0.0)
    return np.where(pos, other, big), np.where(pos, big, other)


def _congruence(L, M):
    """Entries (11, 12, 22) of the symmetric L^T M L, vectorized.

    ``L`` holds the entries (l11, l12, l21, l22) of a 2x2 matrix and ``M``
    the entries (m11, m12, m22) of a symmetric one: scalars or arrays that
    broadcast together.
    """
    l11, l12, l21, l22 = L
    m11, m12, m22 = M
    c1, c2 = m11 * l11 + m12 * l21, m12 * l11 + m22 * l21  # first column of M L
    d1, d2 = m11 * l12 + m12 * l22, m12 * l12 + m22 * l22  # second column
    return l11 * c1 + l21 * c2, l11 * d1 + l21 * d2, l12 * d1 + l22 * d2


# ---------------------------------------------------------------------------
# matrizants


def _products(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X Y for entry-major stacks: entry (i, j) of every matrix is the array X[i, j]."""
    return X[:, :1] * Y[:1] + X[:, 1:] * Y[1:]


def deviation_matrizant(W, T: float, n_steps: int = 4096, *, final_only: bool = False):
    """Deviation Z = Y - I of the classical RK4 matrizant of v' = W(t) v.

    ``W`` is sampled once on the half-step grid ``half_step_grid(T,
    n_steps)``: either a callable mapping times of shape (m,) to matrices of
    shape (m, 2, 2) (a scalar time to a (2, 2) matrix; a constant (2, 2)
    result is broadcast), or those samples themselves, shape
    (2 n_steps + 1, 2, 2).  For a linear system one RK4 step of size
    h = T/n_steps is the fixed matrix I + D_i, so every D_i is formed at
    once, and Z is their inclusive prefix product computed by a
    Hillis-Steele scan (Blelloch, "Prefix Sums and Their Applications",
    CMU-CS-90-190) with the combine (L, E) -> L + E + L E, later steps on
    the left, in ceil(log2 n_steps) passes.  Steps and scan run on the four
    entries as contiguous arrays, with the 2x2 products written out, and each
    pass sums into one scratch array so that the heap is not trimmed per pass.

    With ``final_only`` only Z(T), all a spectral radius needs, is formed,
    in n_steps - 1 combines instead of about n_steps log2 n_steps: adjacent
    blocks pair from the right end, an odd leftmost one passing through as
    the scan leaves the entries below its shift.  That is the tree of the
    scan's last entry, so Z(T) is bit for bit the same; the prefix runs
    only where H(t) needs every node.

    The scan never forms I + Z, so absolute roundoff stays at the scale of
    Z rather than of the identity; that is what makes one-period stability
    margins of order mu resolvable when W is small (averaged systems at
    small mu).  Returns ``(times, Z)`` with Z of shape (n_steps + 1, 2, 2),
    or ``([0, T], [0, Z(T)])`` with ``final_only``.
    """
    if n_steps < 64:
        raise ValueError("n_steps must be at least 64")
    h = T / n_steps
    shape = (2 * n_steps + 1, 2, 2)
    if callable(W):
        W = np.broadcast_to(np.asarray(W(half_step_grid(T, n_steps)), dtype=float), shape)
    elif np.shape(W) != shape:
        raise ValueError(f"generator samples must have shape {shape}")
    A = np.moveaxis(W, 0, -1)  # entry-major: A[i, j] holds entry (i, j) at every time
    a0, am, a1 = A[..., 0:-1:2], A[..., 1::2], A[..., 2::2]
    k2 = am + (0.5 * h) * _products(am, a0)
    k3 = am + (0.5 * h) * _products(am, k2)
    k4 = a1 + h * _products(a1, k3)
    D = np.ascontiguousarray((h / 6.0) * (a0 + 2.0 * (k2 + k3) + k4))
    if final_only:
        while D.shape[-1] > 1:  # pair from the right; an odd leftmost block passes through
            odd = D.shape[-1] % 2
            L, E = D[..., odd + 1::2], D[..., odd::2]
            D = np.concatenate((D[..., :odd], L + E + _products(L, E)), axis=-1)
        return np.array([0.0, T]), np.stack((np.zeros((2, 2)), D[..., 0]))
    P = np.empty_like(D)
    shift = 1
    while shift < n_steps:
        L, E, p = D[..., shift:], D[..., :-shift], P[..., shift:]
        np.add(L, E, out=p)
        p += _products(L, E)
        D[..., shift:] = p
        shift *= 2
    Z = np.zeros((n_steps + 1, 2, 2))
    Z[1:] = np.moveaxis(D, -1, 0)
    return np.arange(n_steps + 1) * h, Z


def matrizant(A, T: float, n_steps: int = 4096):
    """Fundamental matrix of Y' = A(t) Y, Y(0) = I, on the RK4 grid of step T/n_steps.

    ``A`` follows the vectorized contract of :func:`deviation_matrizant`,
    whose scan this is.  Returns ``(times, Y)`` with Y = I + Z.
    """
    times, Z = deviation_matrizant(A, T, n_steps)
    return times, Z + np.eye(2)


# ---------------------------------------------------------------------------
# spectra


def _floquet_gap(Z: np.ndarray, log_det: float) -> float:
    """1 - rho(I + Z), where ``log_det`` = log det(I + Z) is known exactly.

    I + Z and Z share the discriminant (tr Z)^2 - 4 det Z, formed here
    without cancellation at the scale of Z; its sign separates the cases.  A
    complex pair has modulus exp(log_det / 2), which Liouville's formula
    gives exactly however close to the unit circle the pair lies.  A real
    pair has multipliers 1 + l for the eigenvalues l of Z, the small one
    taken as det Z / l_big so that it does not cancel.  When the largest
    entry of Z is below 2^-511, where products of entries are subnormal, the
    eigenvalues come from 2^e Z, largest entry near 1, scaled back exactly.
    """
    z = [float(x) for x in Z.flat]
    big = max(map(abs, z))
    e = -math.frexp(big)[1] if big < 2.0 ** -511 else 0
    z11, z12, z21, z22 = (math.ldexp(x, e) for x in z)
    disc = (z11 - z22) ** 2 + 4.0 * z12 * z21
    if disc < 0.0:
        return -math.expm1(0.5 * log_det)
    tr = z11 + z22
    l_big = 0.5 * (tr + math.copysign(math.sqrt(disc), tr))
    l_small = (z11 * z22 - z12 * z21) / l_big if l_big != 0.0 else 0.0
    return min(-l if l >= -1.0 else 2.0 + l for l in (math.ldexp(l_big, -e), math.ldexp(l_small, -e)))


def spectral_radius_from_deviation(Z: np.ndarray, log_det: float) -> float:
    """Spectral radius of M = I + Z, computed from Z and log det M.

    ``log_det`` is the Liouville value int_0^T tr A(t) dt of the system
    whose monodromy matrix is M.  Within ~1e-16 of the unit circle the
    radius rounds to 1.0; the solvers test the unrounded 1 - rho instead.
    """
    return 1.0 - _floquet_gap(Z, log_det)


# ---------------------------------------------------------------------------
# Lyapunov solves

_E_BASIS = (
    np.array([[1.0, 0.0], [0.0, 0.0]]),
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[0.0, 0.0], [0.0, 1.0]]),
)


def _vec_sym(m) -> np.ndarray:
    return np.array([m[0, 0], 0.5 * (m[0, 1] + m[1, 0]), m[1, 1]])


def _mat_sym(x) -> np.ndarray:
    return np.array([[x[0], x[1]], [x[1], x[2]]])


def solve_constant_lyapunov(u1: np.ndarray) -> np.ndarray:
    """Unique symmetric positive-definite H with H U1 + U1^T H = -I.

    Solved exactly as a 3x3 linear system in (h11, h12, h22); fails on
    non-Hurwitz input, where no positive solution exists.
    """
    u1 = np.asarray(u1, dtype=float)
    if not u1_is_hurwitz(u1):
        raise ValueError("constant Lyapunov equation needs a Hurwitz matrix")
    cols = [_vec_sym(e @ u1 + u1.T @ e) for e in _E_BASIS]
    a = np.column_stack(cols)
    x = np.linalg.solve(a, np.array([-1.0, 0.0, -1.0]))
    return _mat_sym(x)


def _solve_discrete_lyapunov_deviation(Z: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """X = M^T X M + Q with M = I + Z, posed at the scale of Z.

    Rearranged as Z^T X + X Z + Z^T X Z = -Q the identity cancels
    analytically, which drops the condition number of the 3x3 system from
    norm(M)^2/(1-rho^2) to roughly norm(Z)/(1-rho^2).  Two rounds of
    iterative refinement accumulate the residual in extended precision.
    """
    Z = np.asarray(Z, dtype=float)
    Q = np.asarray(Q, dtype=float)
    cols = [_vec_sym(Z.T @ e + e @ Z + Z.T @ e @ Z) for e in _E_BASIS]
    a = np.column_stack(cols)
    x = np.linalg.solve(a, _vec_sym(-Q))
    zl = Z.astype(np.longdouble)
    ql = Q.astype(np.longdouble)
    for _ in range(2):
        xl = _mat_sym(x).astype(np.longdouble)
        r = _vec_sym(-ql - (zl.T @ xl + xl @ zl + zl.T @ xl @ zl))
        if not np.all(np.isfinite(r)):
            break
        x = x + np.linalg.solve(a, r.astype(float))
    return _mat_sym(x)


# ---------------------------------------------------------------------------
# periodic Lyapunov solutions


@dataclass(frozen=True)
class PeriodicLyapunovSolution:
    """Grid-sampled positive periodic solution of H' + HA + A^T H = -I.

    ``H`` holds the node values in the original (y, y') coordinates and
    ``H_z`` their factor H = T^{-T} H_z T^{-1}, T = [[1, 0], [s b, s]] with
    s = ``z_scale``: s = mu in z = (y, y'/mu - b y), T = I in the original
    coordinates.  Quadratic forms are evaluated through ``H_z``, because the
    direct entries lose the small eigenvalue to cancellation at small mu.
    """

    times: np.ndarray
    H: np.ndarray
    mu: float
    h_min: float
    h_max: float
    hmin_nodes: np.ndarray
    hnorm_nodes: np.ndarray
    spectral_radius: float
    H_z: np.ndarray
    b: np.ndarray
    z_scale: float

    @property
    def period(self) -> float:
        return float(self.times[-1])

    @property
    def step(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    # conservative piecewise-constant extensions: per step, norm from the
    # larger adjacent node and min eigenvalue from the smaller one
    @property
    def hnorm_steps(self) -> np.ndarray:
        return np.maximum(self.hnorm_nodes[:-1], self.hnorm_nodes[1:])

    def hmin_at(self, t):
        _, j, _ = self._locate(t)
        return np.minimum(self.hmin_nodes[j], self.hmin_nodes[j + 1])

    def _locate(self, t):
        t = np.asarray(t, dtype=float)
        T = self.period
        k = np.floor(t / T)
        s = t - k * T
        j = np.clip(np.floor(s / self.step).astype(int), 0, self.n_steps - 1)
        frac = s - j * self.step
        return k, j, frac

    def step_integral(self, step_vals, t):
        """int_0^t of a per-step piecewise-constant integrand, extended T-periodically."""
        k, j, frac = self._locate(t)
        cum = np.concatenate([[0.0], np.cumsum(self.step * step_vals)])
        return k * cum[-1] + cum[j] + frac * step_vals[j]

    def node_index(self, t):
        """Index of the node nearest t mod T; vectorized over t.

        np.mod and np.rint round as Python's % and round do.
        """
        return np.rint(np.mod(t, self.period) / self.step).astype(int) % self.n_steps

    def value(self, t, v):
        """Quadratic form <H(t mod T) v, v>, evaluated stably.

        Vectorized: times of shape (m,) with states v of shape (m, 2) give m
        values, as a recorded trajectory's ``times`` and ``states`` do.
        """
        return self.value_at_node(self.node_index(t), v)

    def value_at_node(self, i, v):
        """<H_i v, v> = <H_z,i w, w> with w = T_i^{-1} v at node index i;
        vectorized over i and the rows of v."""
        v = np.asarray(v, dtype=float)
        v0, v1 = v[..., 0], v[..., 1]
        w2 = -self.b[i] * v0 + v1 / self.z_scale
        hz = self.H_z[i]
        out = hz[..., 0, 0] * v0 * v0 + 2.0 * hz[..., 0, 1] * v0 * w2 + hz[..., 1, 1] * w2 * w2
        return out if np.ndim(out) else float(out)


def _tail_integral_solve(Z: np.ndarray, C, step: float):
    """Entries (h11, h12, h22) at the nodes of the periodic solution of
    H' + HW + W^T H = -C.

    ``Z`` is the propagator deviation of v' = W v on the grid and ``C`` the
    entries (c11, c12, c22) of the symmetric weight, scalars or one per
    node.  With G(t) = int_0^t Y^T C Y and X = M^T X M + G(T) for
    M = Y(T), the tail integral is H = Y^{-T} (X - G) Y^{-1}.  Both
    congruences are written out on the entries of Y = I + Z and of its
    closed-form inverse, so H is symmetric by construction.
    """
    y11, y12, y21, y22 = Z[:, 0, 0] + 1.0, Z[:, 0, 1], Z[:, 1, 0], Z[:, 1, 1] + 1.0
    G = cumulative_simpson(np.stack(_congruence((y11, y12, y21, y22), C), axis=-1), step)
    X = _solve_discrete_lyapunov_deviation(Z[-1], _mat_sym(G[-1]))
    det = y11 * y22 - y12 * y21
    if np.min(np.abs(det)) <= 1e-14:
        raise ArithmeticError("matrizant determinant fell below the 1e-14 guard")
    inv = (y22 / det, -y12 / det, -y21 / det, y11 / det)
    return _congruence(inv, (X[0, 0] - G[:, 0], X[0, 1] - G[:, 1], X[1, 1] - G[:, 2]))


def _periodic_solution(times, Z, log_det, C, b, z_scale, mu) -> PeriodicLyapunovSolution:
    """Solution of H' + HA + A^T H = -I from the deviation Z of z = T^{-1} v.

    T = [[1, 0], [s b, s]] at the nodes, s = ``z_scale``; ``log_det`` is the
    Liouville value of Z and ``C`` the entries of C_z = T^T T.  H_z is mapped
    back to H = T^{-T} H_z T^{-1} entry by entry (the identity, bit for bit,
    at T = I), and det H = det H_z/s^2 keeps h_min accurate when
    h_max/h_min ~ 1/mu^2.
    """
    gap = _floquet_gap(Z[-1], log_det)
    if not gap > 0.0:
        raise UnstableSystemError(
            f"monodromy spectral radius {1.0 - gap:.12g} is not inside the unit disk "
            f"at mu={mu}"
        )
    s = z_scale
    with np.errstate(all="ignore"):  # an overflow is refused just below
        hz11, hz12, hz22 = _tail_integral_solve(Z, C, times[1] - times[0])
        h11 = hz11 - 2.0 * b * hz12 + b ** 2 * hz22
        h12 = (hz12 - b * hz22) / s
        h22 = hz22 / s ** 2
        det_h = (hz11 * hz22 - hz12 ** 2) / s ** 2
        hmin_nodes, hnorm_nodes = sym_eig_bounds(h11, h12, h22, det=det_h)
    if not (np.all(np.isfinite(det_h)) and np.all(np.isfinite(hnorm_nodes))):
        raise ArithmeticError(f"H(t, mu) overflows double precision at mu={mu}")
    if not (np.min(det_h) > 0.0 and np.min(hmin_nodes) > 0.0):  # a NaN fails too
        raise UnstableSystemError("periodic Lyapunov solution lost positivity")
    return PeriodicLyapunovSolution(
        times=times,
        H=matrices_2x2(h11, h12, h12, h22),
        mu=mu,
        h_min=float(np.min(hmin_nodes)),
        h_max=float(np.max(hnorm_nodes)),
        hmin_nodes=hmin_nodes,
        hnorm_nodes=hnorm_nodes,
        spectral_radius=1.0 - gap,
        H_z=matrices_2x2(hz11, hz12, hz12, hz22),
        b=b,
        z_scale=z_scale,
    )


def _z_generator(lin: LinearizedSystem, tr: AveragingTransform, mu: float, n_steps: int, pert=None):
    """Half-step samples of A_z = T^{-1}(A T - T'), z = T(t)^{-1} v, T = [[1, 0], [mu b, mu]].

    phi_hat cancels because b' = -phi_hat, which leaves
    A_z = mu [[b, 1], [-b^2 - beta_hat - alpha b, -b - alpha]], with trace
    -alpha*mu and mean mu*U1.  ``pert`` adds T^{-1} dA T, whose second row
    is [-(d_beta_hat mu + d_phi_hat) - d_alpha mu b, -d_alpha mu].
    """
    if not (math.isfinite(mu) and mu > 0.0):
        raise ValueError("mu must be positive and finite")
    b, _ = tr.half_step_samples(n_steps)
    mb = mu * b
    w = matrices_2x2(mb, mu, -mb * (b + lin.alpha) - mu * lin.beta_hat, -mb - mu * lin.alpha)
    if pert is not None:
        pert.on_period(lin.period)
        g = pert.d_beta_hat * mu + pert.d_phi_hat_eval(half_step_grid(lin.period, n_steps))
        w[..., 1, 0] -= g + pert.d_alpha * mb
        w[..., 1, 1] -= pert.d_alpha * mu
    return w


def _z_deviation(lin: LinearizedSystem, tr: AveragingTransform, mu: float, n_steps: int, pert=None, **kw):
    """``deviation_matrizant`` of :func:`_z_generator`, refused by ArithmeticError where it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused just below
        times, Z = deviation_matrizant(_z_generator(lin, tr, mu, n_steps, pert), lin.period, n_steps, **kw)
    if not np.all(np.isfinite(Z[-1])):
        raise ArithmeticError(f"the propagation overflows at mu={mu} with {n_steps} steps per period")
    return times, Z


def solve_periodic_lyapunov_scaled(
    lin: LinearizedSystem,
    tr: AveragingTransform,
    mu: float,
    n_steps: int = 4096,
) -> PeriodicLyapunovSolution:
    """Positive T-periodic solution of H' + HA + A^T H = -I for
    v' = A(t,mu) v, computed in the coordinates z = (y, y'/mu - b y).

    With v = T(t) z, T = [[1, 0], [mu b, mu]], the v-problem with
    right-hand side -I becomes a z-problem with right-hand side -C_z,
    C_z = T^T T; its solution H_z is well conditioned for all certified mu.
    T is periodic and nondegenerate for every mu > 0, and the Liouville
    value int_0^T tr A_z is -alpha*mu*T.  Where H overflows double
    precision (below mu = 1e-77 for the pendulum) ArithmeticError is raised,
    and UnstableSystemError where no positive periodic solution exists.
    """
    times, Z = _z_deviation(lin, tr, mu, n_steps)
    sup_a21 = mu * (mu * -lin.beta_hat + math.fsum(math.hypot(c, s) for _, c, s in lin.phi_hat.harmonics))
    if sup_a21 < 2.0 ** -1026:  # h_max >= 1/(2 sup|A_21|) by mean(H' + HA + A^T H)_11 = -1
        raise ArithmeticError(f"H(t, mu) overflows double precision at mu={mu}")
    b = tr.half_step_samples(n_steps)[0][::2]  # the step nodes, bit for bit
    Cz = (1.0 + (mu * b) ** 2, mu * mu * b, mu * mu)
    return _periodic_solution(times, Z, -lin.alpha * mu * lin.period, Cz, b, mu, mu)


def spectral_radius_linear_system(
    lin: LinearizedSystem,
    tr: AveragingTransform,
    mu: float,
    n_steps: int = 4096,
    pert=None,
) -> float:
    """Monodromy spectral radius of v' = A(t,mu) v at one parameter value.

    With ``pert`` (a :class:`~mathieu_cert.robustness.Perturbation`) the
    system is the perturbed one, v' = (A + dA) v.  Both are propagated in
    the periodic coordinates z = (y, y'/mu - b y), where their trace
    -(alpha + d_alpha)*mu gives the Liouville value of the radius.
    """
    _, Z = _z_deviation(lin, tr, mu, n_steps, pert, final_only=True)
    da = 0.0 if pert is None else pert.d_alpha
    return spectral_radius_from_deviation(Z[-1], -(lin.alpha + da) * mu * lin.period)


# ---------------------------------------------------------------------------
# residual diagnostics


def bvp_residual(sol: PeriodicLyapunovSolution, A) -> float:
    """Scaled sup-norm residual of H' + HA + A^T H + I at interior nodes.

    ``A`` is a callable of the vectorized contract of
    :func:`deviation_matrizant`, sampled once at the nodes, or those node
    values themselves, shape (n_steps + 1, 2, 2).  H' is formed by central
    differences; each node residual is divided by 1 + ||H|| so the figure
    stays meaningful when the solution itself is large (small-mu regime).

    With S = HA the residual is H' + S + S^T + I, formed on the entries of
    H and A and so symmetric by construction.  Its norm is the Gram form of
    :func:`spectral_norm_2x2`: the residual is indefinite, where recovering
    the smaller eigenvalue from the determinant, as :func:`sym_eig_bounds`
    does, can cancel.
    """
    if callable(A):
        A = np.broadcast_to(np.asarray(A(sol.times), dtype=float), sol.H.shape)
    a11, a12, a21, a22 = A[1:-1, 0, 0], A[1:-1, 0, 1], A[1:-1, 1, 0], A[1:-1, 1, 1]
    h11, h12, h22 = sol.H[:, 0, 0], sol.H[:, 0, 1], sol.H[:, 1, 1]
    d11, d12, d22 = ((h[2:] - h[:-2]) / (2.0 * sol.step) for h in (h11, h12, h22))
    h11, h12, h22 = h11[1:-1], h12[1:-1], h22[1:-1]
    r11 = d11 + 2.0 * (h11 * a11 + h12 * a21) + 1.0
    r12 = d12 + (h11 * a12 + h12 * a22) + (h12 * a11 + h22 * a21)
    r22 = d22 + 2.0 * (h12 * a12 + h22 * a22) + 1.0
    scale = 1.0 + sol.hnorm_nodes[1:-1]
    return float(np.max(spectral_norm_2x2(matrices_2x2(r11, r12, r12, r22)) / scale))
