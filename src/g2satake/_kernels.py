"""Numeric hot kernels: theta lattice sums and Aberth root iteration.

One vectorized numpy implementation of each; ``perfbench/`` times them.
"""

from __future__ import annotations

import numpy as np

# read by the benchmark's environment report; there is no compiled path
USE_NUMBA = False

PI = np.pi


def theta_sum(a1, a2, b1, b2, t1, z, t2, radius):
    """Theta series with characteristic (a, b) over the box |u|_inf <= radius."""
    t1, z, t2 = complex(t1), complex(z), complex(t2)
    u = np.arange(-radius, radius + 1, dtype=np.float64)
    v1 = u[:, None] + a1
    v2 = u[None, :] + a2
    q = v1 * v1 * t1 + 2.0 * v1 * v2 * z + v2 * v2 * t2 + 2.0 * (v1 * b1 + v2 * b2)
    return complex(np.exp(1j * PI * q).sum())


def theta_shell(a1, a2, b1, b2, t1, z, t2, radius):
    """Summed magnitude of the first omitted shell, |u|_inf = radius + 1."""
    t1, z, t2 = complex(t1), complex(z), complex(t2)
    r = radius + 1
    u = np.arange(-r, r + 1, dtype=np.float64)
    mm, nn = np.meshgrid(u, u, indexing="ij")
    mask = np.maximum(np.abs(mm), np.abs(nn)) == r
    v1 = mm[mask] + a1
    v2 = nn[mask] + a2
    q = v1 * v1 * t1 + 2.0 * v1 * v2 * z + v2 * v2 * t2
    return float(np.exp(-PI * q.imag).sum())


def aberth(coeffs, stop, max_iter):
    """Aberth-Ehrlich iteration on a monic polynomial, highest degree first.

    Returns the roots and the number of sweeps run.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    n = coeffs.shape[0] - 1
    deriv = coeffs[:-1] * np.arange(n, 0, -1)
    bound = 1.0 + np.abs(coeffs[1:]).max()
    ang = 2.0 * PI * np.arange(n) / n + 0.7
    x = bound * np.exp(1j * ang)
    iters = 0
    for _ in range(max_iter):
        iters += 1
        pv = np.polyval(coeffs, x)
        dv = np.polyval(deriv, x)
        dv = np.where(dv == 0, 1e-300, dv)
        w = pv / dv
        diff = x[:, None] - x[None, :]
        np.fill_diagonal(diff, 1.0)
        recip = 1.0 / diff
        np.fill_diagonal(recip, 0.0)
        acc = recip.sum(axis=1)
        corr = w / (1.0 - w * acc)
        x = x - corr
        if (np.abs(corr) / (1.0 + np.abs(x))).max() < stop:
            break
    return x, iters
