"""Numeric hot kernels: theta lattice sums and Aberth root iteration.

All three are plain Python (``cmath``/``math``); ``perfbench/`` times
each of them.
"""

from __future__ import annotations

import cmath
import math

# read by the benchmark's environment report; there is no compiled path
USE_NUMBA = False


def theta_sum(a1, a2, t1, z, t2, radius):
    """Parity-class sums of exp(pi i v^T tau v) over v = u + a, |u|_inf <= radius.

    Returns ``[S00, S01, S10, S11]``: entry ``2 * p1 + p2`` sums the
    lattice points u with u = (p1, p2) mod 2.  A characteristic with top
    a = (m1/2, m2/2) and bottom (n1/2, n2/2) is then
    exp(pi i (m1 n1 + m2 n2) / 2) * sum_p (-1)^(p.n) S[p].
    """
    ipi = 1j * math.pi
    t1, z2, t2 = ipi * complex(t1), 2.0 * ipi * complex(z), ipi * complex(t2)
    exp = cmath.exp
    us = range(-radius, radius + 1)
    v2s = [u + a2 for u in us]
    first = radius % 2            # parity of u2 = -radius, the row's first entry
    sums = [0j, 0j, 0j, 0j]
    for u1 in us:
        v1 = u1 + a1
        c0, c1 = v1 * v1 * t1, v1 * z2
        row = [exp(c0 + v2 * (c1 + v2 * t2)) for v2 in v2s]
        p = 2 * (u1 % 2)
        sums[p + first] += sum(row[0::2])
        sums[p + 1 - first] += sum(row[1::2])
    return sums


def theta_shell(mu, radius):
    """Proven bound on the theta terms outside the box |u|_inf <= radius.

    For v = u + a with a in {0, 1/2}^2, |exp(pi i v^T tau v)| =
    exp(-pi v^T (Im tau) v) <= exp(-pi mu |v|^2), where mu is the smallest
    eigenvalue of Im tau.  The shell |u|_inf = r has 8r points, each with
    |v| >= r - 1/2, so the tail is at most T = sum_{r > radius} f(r) with
    f(r) = 8 r exp(-pi mu (r - 1/2)^2).  f is unimodal on r >= 1, hence
    T <= integral of f over [radius + 1, inf) + max of f there, which has
    the closed form evaluated here in O(1) for every mu > 0 (Deconinck,
    Heil, Bobenko, van Hoeij and Schmies, Computing Riemann theta
    functions, Math. Comp. 2004).
    """
    n = radius + 1
    c = n - 0.5
    integral = (4.0 * math.exp(-math.pi * mu * c * c) / (math.pi * mu)
                + 2.0 * math.erfc(c * math.sqrt(math.pi * mu)) / math.sqrt(mu))
    peak = 0.25 + math.sqrt(0.0625 + 0.5 / (math.pi * mu))   # f'(peak) = 0
    r = max(n, peak)
    return integral + 8.0 * r * math.exp(-math.pi * mu * (r - 0.5) ** 2)


def aberth(coeffs, stop, max_iter):
    """Aberth-Ehrlich iteration on a monic polynomial, highest degree first.

    All roots move at once (Jacobi order) from n points on the circle of
    radius 1 + max |c_k|, which encloses every root; each sweep applies
    the correction w / (1 - w sum_j 1/(x_i - x_j)) with the Newton step
    w = p(x_i)/p'(x_i) (Aberth 1973; Bini, Numer. Algorithms 1996).  The
    iteration stops once every correction is below ``stop`` relative to
    1 + |x_i|.  Returns the roots and the number of sweeps run.
    """
    coeffs = [complex(c) for c in coeffs]
    n = len(coeffs) - 1
    deriv = [c * (n - k) for k, c in enumerate(coeffs[:-1])]
    bound = 1.0 + max(abs(c) for c in coeffs[1:])
    x = [bound * cmath.exp(1j * (2.0 * math.pi * k / n + 0.7)) for k in range(n)]
    sweeps = 0
    while sweeps < max_iter:
        sweeps += 1
        corr = []
        for i, xi in enumerate(x):
            pv = dv = 0j
            for c in coeffs:
                pv = pv * xi + c
            for c in deriv:
                dv = dv * xi + c
            w = pv / (dv or 1e-300)
            acc = sum(1.0 / (xi - xj) for j, xj in enumerate(x) if j != i)
            corr.append(w / (1.0 - w * acc))
        x = [xi - ci for xi, ci in zip(x, corr)]
        if max(abs(ci) / (1.0 + abs(xi)) for ci, xi in zip(corr, x)) < stop:
            break
    return x, sweeps
