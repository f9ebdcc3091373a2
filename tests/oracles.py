"""Independent reference implementations that only the tests use."""

import math
from functools import partial

import numpy as np

from mathieu_cert.averaging import AveragingTransform
from mathieu_cert.model import Nonlinearity, matrices_2x2


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
