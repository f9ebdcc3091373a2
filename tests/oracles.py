"""Independent reference implementations that only the tests use."""

import math

import numpy as np

from mathieu_cert.averaging import AveragingTransform
from mathieu_cert.model import matrices_2x2


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
