"""Numeric extraction of all complex roots of a polynomial.

Aberth-Ehrlich simultaneous iteration (``_kernels.aberth``, plain
Python) on a coefficient-balanced copy of the input; the backward-error
residual contract is verified for every returned root and
non-convergence is reported, never silent.  ``gaussian_roots`` then
refines the roots of each squarefree factor of an exact-coefficient
polynomial by Newton steps in exact Gaussian-rational arithmetic, which
removes the double-precision conditioning floor, also at repeated roots.
"""

from __future__ import annotations

from fractions import Fraction

from . import _kernels
from .errors import DomainError, RootFindingError
from .qpoly import GaussianRational, Poly, squarefree_decomposition

DEFAULT_TOL = 1e-10
MAX_ITER = 500
NEWTON_STEPS = 3
NEWTON_DIGITS = 60     # denominator digits kept after each Newton step
EPS = 2.0 ** -52       # double precision: the spacing of doubles near 1


def _horner(cs, z):
    """sum_k cs[k] z^k for a lowest-degree-first sequence."""
    acc = 0 * z
    for c in reversed(cs):
        acc = acc * z + c
    return acc


def _newton_exact(cs, z):
    # cs is real and z a simple root, so an imaginary part within the double
    # resolution of z is rounding noise; dropping it keeps a real root real
    if abs(z.imag) <= EPS * abs(z):
        z = complex(z.real)
    ds = [k * c for k, c in enumerate(cs)][1:]
    r = GaussianRational(Fraction(z.real), Fraction(z.imag)).limit(NEWTON_DIGITS)
    for _ in range(NEWTON_STEPS):
        dv = _horner(ds, r)
        if dv == 0:
            break
        r = (r - _horner(cs, r) / dv).limit(NEWTON_DIGITS)
    return r


def gaussian_roots(p):
    """All deg(p) roots, with multiplicity, as exact GaussianRational values.

    Coefficients must be exact (hence real).  Each squarefree factor of p
    (Yun) is solved on its own, so every root is polished as a simple
    root: Newton converges quadratically, to an accuracy limited only by
    the NEWTON_DIGITS rounding, and a repeated root is listed once per
    multiplicity.  A real root keeps imaginary part exactly 0, so
    downstream exact pipelines (Rosenhain reconstruction) run over Q for
    real roots and over Q(i) otherwise.
    """
    coeffs = p.coeffs if isinstance(p, Poly) else p
    poly = Poly([Fraction(c) for c in coeffs])
    if poly.degree() < 1:
        raise DomainError("gaussian_roots needs degree >= 1")
    out = []
    for g, multiplicity in squarefree_decomposition(poly):
        cs = list(g.coeffs)
        for z in complex_roots(cs):
            out += [_newton_exact(cs, z)] * multiplicity
    return out


def complex_roots(p):
    """All deg(p) roots of p, with multiplicity, as a list of complex.

    ``p`` may be a Poly or a lowest-degree-first coefficient sequence;
    coefficients are coerced to complex.  Raises RootFindingError (with
    roots and residuals attached) if the relative residual bound
    DEFAULT_TOL is not met within MAX_ITER Aberth sweeps.
    """
    coeffs = list(p.coeffs) if isinstance(p, Poly) else list(p)
    c = [complex(v) for v in coeffs]
    if len(c) <= 1:
        raise DomainError("complex_roots needs degree >= 1")
    if abs(c[-1]) <= DEFAULT_TOL:
        raise DomainError("leading coefficient magnitude below tolerance")
    # exact zero low-order coefficients carry exact roots at the origin
    zeros_at_origin = 0
    while zeros_at_origin < len(c) - 1 and c[zeros_at_origin] == 0:
        zeros_at_origin += 1
    if zeros_at_origin:
        rest = complex_roots(coeffs[zeros_at_origin:]) \
            if len(c) - zeros_at_origin > 1 else []
        return [0j] * zeros_at_origin + rest
    n = len(c) - 1

    # balance: x = sigma * y so the monic form has O(1) coefficients
    monic = [v / c[-1] for v in c]
    sigma = 1.0
    for i in range(n):
        mag = abs(monic[i])
        if mag > 0:
            sigma = max(sigma, mag ** (1.0 / (n - i)))
    high_first = [monic[i] * sigma ** (i - n) for i in range(n, -1, -1)]

    y, _ = _kernels.aberth(high_first, 1e-14, MAX_ITER)
    roots = [v * sigma for v in y]

    # backward-error residual: |p(r)| relative to sum_i |c_i| |r|^i
    mags = [abs(v) for v in c]
    residuals = [abs(_horner(c, r)) for r in roots]
    rel = [res / max(_horner(mags, abs(r)), 1e-300)
           for res, r in zip(residuals, roots)]
    if not all(v <= DEFAULT_TOL for v in rel):   # a NaN residual fails too
        raise RootFindingError(
            f"root residuals up to {max(rel):.3e} of the coefficient "
            f"scale exceed tol {DEFAULT_TOL:.1e}",
            roots=roots, residuals=residuals)
    return roots
