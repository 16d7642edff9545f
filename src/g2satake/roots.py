"""Numeric extraction of all complex roots of a polynomial.

Aberth-Ehrlich simultaneous iteration on a coefficient-balanced copy of
the input; the backward-error residual contract is verified for every
returned root and non-convergence is reported, never silent.  Roots of
exact-coefficient polynomials can additionally be polished by Newton
steps in exact Gaussian-rational arithmetic, which removes the
double-precision conditioning floor for simple roots.  numpy is
imported by ``complex_roots`` when it first runs, not with the module.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, RootFindingError
from .qpoly import GaussianRational, Poly

DEFAULT_TOL = 1e-10
MAX_ITER = 500


def _newton_exact(cs, z, steps, digits):
    ds = [k * c for k, c in enumerate(cs)][1:]
    r = GaussianRational(Fraction(z.real), Fraction(z.imag)).limit(digits)
    for _ in range(steps):
        pv = GaussianRational(0)
        for c in reversed(cs):
            pv = pv * r + c
        dv = GaussianRational(0)
        for c in reversed(ds):
            dv = dv * r + c
        if dv == 0:
            break
        r = (r - pv / dv).limit(digits)
    return r


def polish_root_exact(coeffs, z, steps=3, digits=60):
    """Newton-polish one approximate root in exact rational arithmetic.

    ``coeffs`` must be exact (int/Fraction), lowest degree first.  The
    iterate is a Gaussian rational, rounded to ``digits`` denominator
    digits after each step, so accuracy is limited only by that rounding
    for simple roots.
    """
    cs = [Fraction(c) for c in coeffs]
    return complex(_newton_exact(cs, complex(z), steps, digits))


def gaussian_roots(p, tol=DEFAULT_TOL, max_iter=MAX_ITER, steps=3, digits=60):
    """All roots as exact GaussianRational values (simple-root accuracy
    limited only by the ``digits`` rounding, far below double precision).

    Coefficients must be exact; downstream exact pipelines (Rosenhain
    reconstruction) can then run entirely over Q(i).
    """
    coeffs = list(p.coeffs) if isinstance(p, Poly) else list(p)
    cs = [Fraction(c) for c in coeffs]
    approx = complex_roots(coeffs, tol=tol, max_iter=max_iter)
    return [_newton_exact(cs, z, steps, digits) for z in approx]


def complex_roots(p, tol=DEFAULT_TOL, max_iter=MAX_ITER, polish=False):
    """All deg(p) roots of p, with multiplicity, as a list of complex.

    ``p`` may be a Poly or a lowest-degree-first coefficient sequence;
    coefficients are coerced to complex.  Raises RootFindingError (with
    roots and residuals attached) if the residual bound is not met
    within ``max_iter`` Aberth sweeps.  ``polish=True`` runs the exact
    Newton polish afterwards (coefficients must then be int/Fraction).
    numpy and the kernels load here, on first use, so that the exact
    pipelines never import them.
    """
    import numpy as np

    from . import _kernels

    coeffs = list(p.coeffs) if isinstance(p, Poly) else list(p)
    c = np.array([complex(v) for v in coeffs], dtype=np.complex128)
    if c.size == 0 or c.size == 1:
        raise DomainError("complex_roots needs degree >= 1")
    if abs(c[-1]) <= tol:
        raise DomainError("leading coefficient magnitude below tolerance")
    # exact zero low-order coefficients carry exact roots at the origin
    zeros_at_origin = 0
    while zeros_at_origin < c.size - 1 and c[zeros_at_origin] == 0:
        zeros_at_origin += 1
    if zeros_at_origin:
        rest = complex_roots(coeffs[zeros_at_origin:], tol=tol,
                             max_iter=max_iter, polish=polish) \
            if c.size - zeros_at_origin > 1 else []
        return [0j] * zeros_at_origin + rest
    n = c.size - 1

    # balance: x = sigma * y so the monic form has O(1) coefficients
    monic = c / c[-1]
    sigma = 1.0
    for i in range(n):
        mag = abs(monic[i])
        if mag > 0:
            sigma = max(sigma, mag ** (1.0 / (n - i)))
    scaled = monic * sigma ** (np.arange(n + 1) - n)
    high_first = scaled[::-1].copy()

    y, _ = _kernels.aberth(high_first, 1e-14, max_iter)
    roots = y * sigma
    if polish:
        roots = np.array([polish_root_exact(coeffs, complex(r)) for r in roots])

    # backward-error residual: |p(r)| relative to sum_i |c_i| |r|^i
    residuals = np.abs(np.polyval(c[::-1], roots))
    mags = np.abs(roots)[:, None] ** np.arange(n + 1)[None, :]
    scales = np.maximum(mags @ np.abs(c), 1e-300)
    rel = residuals / scales
    if rel.max() > tol:
        raise RootFindingError(
            f"root residuals up to {rel.max():.3e} of the coefficient "
            f"scale exceed tol {tol:.1e}",
            roots=[complex(r) for r in roots],
            residuals=[float(r) for r in residuals],
        )
    return [complex(r) for r in roots]
