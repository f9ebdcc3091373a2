"""Independent reference implementations that only the tests use."""

import math
from functools import partial

import mpmath
import numpy as np

from mathieu_cert.averaging import AveragingTransform, TransformedSystem
from mathieu_cert.floquet_lyapunov import PeriodicLyapunovSolution, _periodic_solution, deviation_matrizant
from mathieu_cert.model import LinearizedSystem, Nonlinearity, matrices_2x2
from mathieu_cert.periodic_signal import QuadratureGrid, cumulative_simpson, signal_to_dict
from mathieu_cert.robustness import Perturbation
from mathieu_cert.simulate import OdeSystem


def truncated_lyapunov_sum(M: np.ndarray, Q: np.ndarray, doublings: int) -> np.ndarray:
    """Partial sum  sum_{k=0}^{2^doublings - 1} (M^T)^k Q M^k  by doubling.

    This is the tail-integral representation of the periodic Lyapunov
    solution truncated after 2^doublings periods, evaluated exactly through
    the periodicity identity Y(t + kT) = Y(t) Y(T)^k.  Serves as the
    independent oracle for the discrete Lyapunov solve.
    """
    s = np.array(Q, dtype=float)
    mk = np.array(M, dtype=float)
    for _ in range(doublings):
        s = s + mk.T @ s @ mk
        mk = mk @ mk
    return s


def solve_periodic_lyapunov(A, T: float, n_steps: int = 4096, mu: float = float("nan")) -> PeriodicLyapunovSolution:
    """Positive T-periodic solution of H' + HA + A^T H = -I on the grid.

    The monodromy spectrum must lie strictly inside the unit disk;
    otherwise no positive periodic solution exists and
    ``UnstableSystemError`` is raised.  Direct-coordinate solve (T = I),
    adequate while the solution's condition number is moderate, and the
    independent reference for the change of variables of
    ``solve_periodic_lyapunov_scaled``.  The Liouville value int_0^T tr A is
    integrated over the nodes.
    """
    times, Z = deviation_matrizant(A, T, n_steps)
    trace_A = np.trace(np.broadcast_to(A(times), times.shape + (2, 2)), axis1=1, axis2=2)
    log_det = cumulative_simpson(trace_A, T / n_steps)[-1]
    return _periodic_solution(times, Z, log_det, (1.0, 0.0, 1.0), np.zeros_like(times), 1.0, mu)


def correction_matrices(ts: TransformedSystem, h1: np.ndarray, grid: QuadratureGrid):
    """Criterion 7's matrices at the nodes of ``grid``: (nodes, H2, C, corr, scriptC).

    H2(t,mu) = H1 int_0^t U2 + (int_0^t U2)^T H1, the running integral by
    cumulative Simpson; corr = H2 (U1+U2) + (U1+U2)^T H2, whose sup times mu
    the L1 bound caps at 1/4 for mu <= mu1; C = I + mu corr >= 3/4 I there;
    and scriptC = C - mu^3 (scriptH U3 + U3^T scriptH) with
    scriptH = H1/mu - H2, >= I/2 for mu <= mu0.
    """
    mu, nodes = ts.mu, grid.nodes
    u2 = ts.u2_at(nodes)
    iu2 = cumulative_simpson(u2, grid.step)
    h2 = h1 @ iu2 + np.transpose(iu2, (0, 2, 1)) @ h1
    u12 = ts.u1 + u2
    corr = h2 @ u12 + np.transpose(u12, (0, 2, 1)) @ h2
    c = np.eye(2) + mu * corr
    script_h = h1[None, :, :] / mu - h2
    u3 = ts.u3_at(nodes)
    script_c = c - mu ** 3 * (script_h @ u3 + np.transpose(u3, (0, 2, 1)) @ script_h)
    return nodes, h2, c, corr, script_c


# f(y) = -0.0 + y is y bit for bit, signed zeros included, and so is y * 1.0
IDENTITY = Nonlinearity("polynomial", (1.0,), -0.0)


def linear_system(lin: LinearizedSystem, mu: float, pert: Perturbation | None = None) -> OdeSystem:
    """y'' + (alpha+da) mu y' + ((beta_hat+db_hat) mu^2 + mu (phi_hat+dphi_hat)(t)) y = 0."""
    pert = Perturbation.resolve(pert, lin.period)
    bm2 = (lin.beta_hat + pert.d_beta_hat) * mu * mu
    return OdeSystem(
        damping=(lin.alpha + pert.d_alpha) * mu,
        coef=lambda t: bm2 + mu * (lin.phi_hat.eval(t) + pert.d_phi_hat_eval(t)),
        f=IDENTITY,
        period=lin.period,
        mu=mu,
        tag="linear" if pert.is_zero else "perturbed_linear",
    )


def perturbation_to_dict(pert: Perturbation) -> dict:
    """The inverse of ``perturbation_from_dict``."""
    d: dict = {"d_alpha": pert.d_alpha, "d_beta": pert.d_beta}
    if pert.d_phi is not None or pert.d_phi_offset != 0.0:
        dphi = signal_to_dict(pert.d_phi) if pert.d_phi is not None else {"period": None, "harmonics": []}
        dphi["offset"] = pert.d_phi_offset
        d["d_phi"] = dphi
    return d


def s_matrix(tr: AveragingTransform, mu: float, t) -> np.ndarray:
    """Change-of-variables matrix S(t) with v = S(t) u.

    S = [[1 + mu*a, 0], [mu*b, mu]]; shape (2, 2) or (n, 2, 2).
    """
    t = np.asarray(t, dtype=float)
    return matrices_2x2(1.0 + mu * tr.a.eval(t), 0.0, mu * tr.b.eval(t), mu)


def boundary_samples_per_row(sol, cert, n, scale=1.0, rng=None):
    """``sample_attraction_boundary`` one sample at a time, on numpy scalars.

    The row-by-row form the vectorized sampler replaced, with its Euclid cap
    nudged inside by 1e-12 as the sampler's is: it draws the same directions,
    and its squares and norms go through the C library's pow and Python's
    hypot instead of numpy's array square and hypot.
    """
    rng = rng or np.random.default_rng(0)
    thetas = rng.uniform(0.0, 2.0 * math.pi, size=n)
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    out = np.empty((n, 2))
    target = scale * scale * cert.lyapunov_radius_sq * (1.0 - 1e-12)
    hz = sol.H_z[0]
    for i, w in enumerate(dirs):
        quad = hz[0, 0] * w[0] ** 2 + 2.0 * hz[0, 1] * w[0] * w[1] + hz[1, 1] * w[1] ** 2
        w = w * math.sqrt(target / quad)
        v = np.array([w[0], sol.z_scale * (sol.b[0] * w[0] + w[1])])
        if cert.euclid_radius is not None:
            cap = cert.euclid_radius * (1.0 - 1e-12)
            r = math.hypot(v[0], v[1])
            if r > cap:
                v = v * (cap / r)
        out[i] = v
    return out


def nonlinearity_value_from_zeros(f: Nonlinearity, y: np.ndarray) -> np.ndarray:
    """``Nonlinearity.value`` on arrays with Python-float operands, its Horner
    loop started from ``zeros_like``: the form the 0-d-constant one replaced."""
    x = f.shift + y
    if f.kind == "pendulum_sine":
        return f.scale * np.sin(x)
    out = np.zeros_like(x)
    for c in reversed(f.coeffs):
        out = x * (out + c)
    return out


def batch_rk4_separate_arrays(system, inits, t_end, steps_per_period, stride):
    """The batch RK4 loop with y and y' as separate arrays and Python floats
    as scalar operands, the form the stacked stage buffer replaced.

    Returns ``(times, states (m, n, 2), frozen)`` as ``simulate._run`` does:
    the same coefficient table, record grid and hold rule (a member whose
    max(|y|, |y'|) is not <= 1e12 holds its last bounded state).  Validation
    is left to the integrator.
    """
    h = system.period / steps_per_period
    n_total = max(1, int(round(t_end / h)))
    c = system.coef(np.arange(2 * steps_per_period + 1) * (0.5 * h)).tolist()
    table = list(zip(c[0:-1:2], c[1::2], c[2::2]))
    a, g = system.damping, system.g
    if isinstance(getattr(g, "__self__", None), Nonlinearity):
        g = partial(nonlinearity_value_from_zeros, g.__self__)
    hh, h6 = 0.5 * h, h / 6.0

    def step(y, v, c0, cm, c1):
        k1 = -a * v - c0 * g(y)
        y2, v2 = y + hh * v, v + hh * k1
        k2 = -a * v2 - cm * g(y2)
        y3, v3 = y + hh * v2, v + hh * k2
        k3 = -a * v3 - cm * g(y3)
        y4, v4 = y + h * v3, v + h * k3
        k4 = -a * v4 - c1 * g(y4)
        return y + h6 * (v + 2.0 * (v2 + v3) + v4), v + h6 * (k1 + 2.0 * (k2 + k3) + k4)

    rec_idx = list(range(0, n_total + 1, stride))
    if rec_idx[-1] != n_total:
        rec_idx.append(n_total)
    s = np.array(inits, dtype=float)
    y, v = s[:, 0], s[:, 1]
    frozen = np.zeros(len(s), dtype=bool)
    rec = [(y, v)]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, n_total + 1):
            yn, vn = step(y, v, *table[(i - 1) % steps_per_period])
            frozen |= ~(np.maximum(np.abs(yn), np.abs(vn)) <= 1e12)
            y, v = np.where(frozen, y, yn), np.where(frozen, v, vn)
            if i % stride == 0 or i == n_total:
                rec.append((y, v))
    return np.array(rec_idx, dtype=float) * h, np.array(rec).transpose(0, 2, 1), frozen


def polished_extrema(harmonics, offset=0.0, n=1 << 14):
    """(min, max) over x of offset + sum c cos(k x) + s sin(k x), from dense
    samples whose every local extremum is polished as a root of the
    derivative in 40-digit mpmath, on the same float coefficients."""
    x = np.arange(n) * (2.0 * math.pi / n)
    v = offset + sum(c * np.cos(k * x) + s * np.sin(k * x) for k, c, s in harmonics)
    turns = np.flatnonzero((v - np.roll(v, 1)) * (np.roll(v, -1) - v) <= 0.0)
    with mpmath.workdps(40):
        def f(t):
            return offset + sum(c * mpmath.cos(k * t) + s * mpmath.sin(k * t)
                                for k, c, s in harmonics)

        def df(t):
            return sum(k * (s * mpmath.cos(k * t) - c * mpmath.sin(k * t)) for k, c, s in harmonics)

        vals = [f(mpmath.findroot(df, mpmath.mpf(x[i]))) for i in turns]
        return float(min(vals)), float(max(vals))


def stein_solution_mp(Z: np.ndarray, Q: np.ndarray, dps: int = 50) -> list:
    """Entries (x11, x12, x22) of the symmetric X with
    Z^T X + X Z + Z^T X Z = -Q, the discrete Lyapunov equation
    X = M^T X M + Q at M = I + Z, solved as a 3x3 linear system in
    ``dps``-digit mpmath from the same float Z and Q."""
    with mpmath.workdps(dps):
        z, q = mpmath.matrix(Z.tolist()), mpmath.matrix(Q.tolist())
        cols = []
        for e in ([[1, 0], [0, 0]], [[0, 1], [1, 0]], [[0, 0], [0, 1]]):
            e = mpmath.matrix(e)
            m = z.T * e + e * z + z.T * e * z
            cols.append((m[0, 0], m[0, 1], m[1, 1]))
        a = mpmath.matrix([[col[i] for col in cols] for i in range(3)])
        x = mpmath.lu_solve(a, mpmath.matrix([-q[0, 0], -q[0, 1], -q[1, 1]]))
        return [x[0], x[1], x[2]]


def hill_exponents(lin, mu: float, n: int) -> np.ndarray:
    """Floquet exponents of y'' + alpha mu y' + (beta_hat mu^2 + mu phi_hat) y = 0
    in the strip |Im s| <= w/2, by Hill's method.

    With A(t) = sum_k A_k exp(i k w t) the exponents are the eigenvalues of
    L_jm = A_(j-m) - i j w delta_jm for |j|, |m| <= n, truncated, with the
    inaccurate ones at the edge of the block spectrum far outside the strip
    (G. W. Hill, Acta Math. 8 (1886) 1-36; Deconinck & Kutz, J. Comput.
    Phys. 219 (2006) 296-321).  A is taken in the original coordinates
    v = (y, y'), so that nothing of the code's A_z enters.
    """
    w = 2.0 * math.pi / lin.period
    blocks = {0: np.array([[0.0, 1.0], [-lin.beta_hat * mu * mu, -lin.alpha * mu]], dtype=complex)}
    for k, c, s in lin.phi_hat.harmonics:  # c cos + s sin = (c - i s)/2 e^{ikwt} + (c + i s)/2 e^{-ikwt}
        blocks[k] = np.array([[0.0, 0.0], [-mu * (c - 1j * s) / 2.0, 0.0]])
        blocks[-k] = np.array([[0.0, 0.0], [-mu * (c + 1j * s) / 2.0, 0.0]])
    size = 2 * n + 1
    L = np.zeros((2 * size, 2 * size), dtype=complex)
    for i in range(size):
        for j in range(size):
            if i - j in blocks:
                L[2 * i:2 * i + 2, 2 * j:2 * j + 2] = blocks[i - j]
        L[2 * i:2 * i + 2, 2 * i:2 * i + 2] -= 1j * (i - n) * w * np.eye(2)
    s = np.linalg.eigvals(L)
    return s[np.abs(s.imag) <= 0.5 * w * (1.0 + 1e-9)]
