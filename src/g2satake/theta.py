"""Genus-two theta constants with half-integer characteristics.

A characteristic is stored as four integers (m1, m2, n1, n2) in {0, 1},
meaning the column vectors a = (m1/2, m2/2) (top) and b = (n1/2, n2/2)
(bottom).  The ten even characteristics are kept in the fixed order
theta_1 .. theta_10 that every downstream index computation relies on:

    theta_1 = [00;00]   theta_2 = [00;hh]   theta_3  = [00;h0]
    theta_4 = [00;0h]   theta_5 = [h0;00]   theta_6  = [h0;0h]
    theta_7 = [0h;00]   theta_8 = [hh;00]   theta_9  = [0h;h0]
    theta_10 = [hh;hh]            (h = 1/2)

Series are truncated to the lattice box |u|_inf <= radius, and every
constant reports the same proven bound on the omitted tail (see
``_kernels.theta_shell``).  By default the radius is the smallest one in
1..AUTO_RADIUS_MAX whose bound is at most TAIL_TARGET, read off the
smallest eigenvalue of Im tau.  No reduction of tau into a fundamental
domain is attempted, so a tau whose Im part is close to singular reaches
the cap and reports ``precise`` false.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from fractions import Fraction

from . import _kernels
from .errors import DegeneratePointError, DomainError

AUTO_RADIUS_MAX = 12   # the automatic radius never exceeds this
TAIL_TARGET = 1e-16    # tail bound the automatic radius aims for
MAX_RADIUS = 100       # largest radius the CLI accepts: the sum costs O(R^2)
TAIL_WARN = 1e-12

EVEN_CHARACTERISTICS = (
    (0, 0, 0, 0),
    (0, 0, 1, 1),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (1, 0, 0, 0),
    (1, 0, 0, 1),
    (0, 1, 0, 0),
    (1, 1, 0, 0),
    (0, 1, 1, 0),
    (1, 1, 1, 1),
)

ODD_CHARACTERISTICS = (
    (0, 1, 0, 1),
    (0, 1, 1, 1),
    (1, 0, 1, 0),
    (1, 1, 1, 0),
    (1, 0, 1, 1),
    (1, 1, 0, 1),
)


def parity(char):
    """+1 for even characteristics, -1 for odd."""
    m1, m2, n1, n2 = char
    return -1 if (m1 * n1 + m2 * n2) % 2 else 1


class PeriodMatrix(namedtuple("PeriodMatrix", "tau1 z tau2")):
    """Point tau = [[tau1, z], [z, tau2]] of the Siegel upper half-space
    (complex entries)."""

    __slots__ = ()

    def __new__(cls, tau1, z, tau2):
        self = super().__new__(cls, tau1, z, tau2)
        mu = self.min_eigenvalue
        if not (mu > 0 and tau2.imag > 0):
            raise DomainError(
                "imaginary part of the period matrix is not positive definite")
        if mu < sys.float_info.min:   # the tail bound overflows
            raise DomainError("the smallest eigenvalue of the imaginary part "
                              "of the period matrix is below the double range")
        return self

    @classmethod
    def _make(cls, iterable):   # so that _replace checks its result too
        return cls(*iterable)

    @property
    def min_eigenvalue(self):
        """Smallest eigenvalue mu of Im tau, det / largest eigenvalue (0 if
        that is 0: no cancellation), on Im tau over the power of two 2^e just
        above its largest entry: no product overflows, the scaling is exact."""
        ys = (self.tau1.imag, self.z.imag, self.tau2.imag)
        e = math.frexp(max(map(abs, ys)))[1]
        y1, y12, y2 = (math.ldexp(y, -e) for y in ys)
        largest = (y1 + y2) / 2 + math.hypot((y1 - y2) / 2, y12)
        return math.ldexp((y1 * y2 - y12 * y12) / largest, e) if largest else 0.0


class ThetaValue(namedtuple("ThetaValue", "value tail")):
    __slots__ = ()

    @property
    def precise(self):
        return self.tail <= TAIL_WARN * max(abs(self.value), 1e-300)


class ThetaConstants(namedtuple("ThetaConstants", "values tails radius",
                                defaults=((), AUTO_RADIUS_MAX))):
    """The ten even theta constants at z = 0, table order, 1-based access."""

    __slots__ = ()

    def theta(self, i):
        return self.values[i - 1]

    def fourth_powers(self):
        return tuple(v**4 for v in self.values)

    @property
    def max_tail(self):
        return max(self.tails) if self.tails else 0.0

    @property
    def precise(self):
        """The largest tail is below TAIL_WARN times the largest constant."""
        return self.max_tail <= TAIL_WARN * max(abs(v) for v in self.values)


def _radius_and_tail(tau, radius):
    """The box radius (chosen from Im tau when ``radius`` is None) and the
    proven bound on the tail it leaves out."""
    mu = tau.min_eigenvalue
    if radius is None:
        for radius in range(1, AUTO_RADIUS_MAX + 1):
            tail = _kernels.theta_shell(mu, radius)
            if tail <= TAIL_TARGET:
                break
        return radius, tail
    if radius < 1:
        raise DomainError("radius must be >= 1")
    return radius, _kernels.theta_shell(mu, radius)


_TOPS = ((0, 0), (1, 0), (0, 1), (1, 1))


def _parity_sums(top, tau, radius):
    m1, m2 = top
    return _kernels.theta_sum(m1 / 2, m2 / 2, tau.tau1, tau.z, tau.tau2, radius)


def _combine(char, sums):
    """Theta constant from the parity-class sums of its top characteristic."""
    m1, m2, n1, n2 = char
    total = 0j
    for p1 in (0, 1):
        for p2 in (0, 1):
            s = sums[2 * p1 + p2]
            total += -s if (p1 * n1 + p2 * n2) % 2 else s
    return (1, 1j, -1, -1j)[(m1 * n1 + m2 * n2) % 4] * total


def theta_constant(char, tau, radius=None):
    """Truncated theta constant for one half-integer characteristic."""
    if not all(v in (0, 1) for v in char):
        raise DomainError("characteristic entries must be half-integers 0 or 1/2")
    radius, tail = _radius_and_tail(tau, radius)
    sums = _parity_sums(char[:2], tau, radius)
    return ThetaValue(value=_combine(char, sums), tail=tail)


def even_theta_constants(tau, radius=None):
    """The ten even constants from one lattice pass per top characteristic."""
    radius, tail = _radius_and_tail(tau, radius)
    sums = {top: _parity_sums(top, tau, radius) for top in _TOPS}
    values = tuple(_combine(ch, sums[ch[:2]]) for ch in EVEN_CHARACTERISTICS)
    return ThetaConstants(values=values, tails=(tail,) * len(values),
                          radius=radius)


# ---------------------------------------------------------------------------
# Frobenius identities and the basis reduction
# ---------------------------------------------------------------------------

# squared-theta identities: name, (i, j) of the product, [(sign, k, l), ...]
_SQUARE_IDENTITIES = (
    ("t5^2 t6^2 = t1^2 t4^2 - t2^2 t3^2", (5, 6), ((1, 1, 4), (-1, 2, 3))),
    ("t7^2 t9^2 = t1^2 t3^2 - t2^2 t4^2", (7, 9), ((1, 1, 3), (-1, 2, 4))),
    ("t8^2 t10^2 = t1^2 t2^2 - t3^2 t4^2", (8, 10), ((1, 1, 2), (-1, 3, 4))),
    ("t5^2 t9^2 = t3^2 t8^2 - t4^2 t10^2", (5, 9), ((1, 3, 8), (-1, 4, 10))),
    ("t5^2 t7^2 = t1^2 t8^2 - t2^2 t10^2", (5, 7), ((1, 1, 8), (-1, 2, 10))),
)

# fourth-power sum identities: name, (i, j), [(coeff, k), ...]
_FOURTH_IDENTITIES = (
    ("t5^4 + t6^4 = t1^4 - t2^4 - t3^4 + t4^4", (5, 6),
     ((1, 1), (-1, 2), (-1, 3), (1, 4))),
    ("t7^4 + t9^4 = t1^4 - t2^4 + t3^4 - t4^4", (7, 9),
     ((1, 1), (-1, 2), (1, 3), (-1, 4))),
    ("t8^4 + t10^4 = t1^4 + t2^4 - t3^4 - t4^4", (8, 10),
     ((1, 1), (1, 2), (-1, 3), (-1, 4))),
)

# reduction of theta_6^4 .. theta_10^4 to the basis theta_1^4 .. theta_5^4
REDUCTION_COEFFS = {
    6: (1, -1, -1, 1, -1),
    7: (0, 0, 1, -1, 1),
    8: (0, 1, 0, -1, 1),
    9: (1, -1, 0, 0, -1),
    10: (1, 0, -1, 0, -1),
}


class FrobeniusReport:
    """Residuals by identity name; iterating yields (name, residual) pairs."""

    __slots__ = ("residuals",)

    def __init__(self, residuals):
        self.residuals = residuals

    @property
    def max_residual(self):
        return max(self.residuals.values())

    def __iter__(self):
        return iter(self.residuals.items())


def check_frobenius(tc):
    """Residuals of the eight Frobenius identities and five basis reductions."""
    t2 = [None] + [tc.theta(i) ** 2 for i in range(1, 11)]
    t4 = [None] + [tc.theta(i) ** 4 for i in range(1, 11)]
    res = {}
    for name, (i, j), terms in _SQUARE_IDENTITIES:
        rhs = sum(s * t2[k] * t2[l] for s, k, l in terms)
        res[name] = abs(t2[i] * t2[j] - rhs)
    for name, (i, j), terms in _FOURTH_IDENTITIES:
        rhs = sum(s * t4[k] for s, k in terms)
        res[name] = abs(t4[i] + t4[j] - rhs)
    for i, coeffs in REDUCTION_COEFFS.items():
        rhs = sum(c * t4[k + 1] for k, c in enumerate(coeffs))
        res[f"t{i}^4 reduction"] = abs(t4[i] - rhs)
    return FrobeniusReport(residuals=res)


def reduce_fourth_powers(t4_basis):
    """Extend (t1^4..t5^4) to all ten fourth powers via the basis reduction."""
    out = list(t4_basis[:5])
    for i in range(6, 11):
        out.append(sum(c * t4_basis[k] for k, c in enumerate(REDUCTION_COEFFS[i])))
    return tuple(out)


# ---------------------------------------------------------------------------
# Satake coordinate functions
# ---------------------------------------------------------------------------

# x_i as integer combinations of (t1^4, ..., t5^4)
SATAKE_MATRIX = (
    (-1, 2, 2, -1, 3),
    (-1, 2, -1, -1, 0),
    (-1, -1, -1, 2, 0),
    (2, -1, -1, -1, 0),
    (-1, -1, 2, -1, 0),
    (2, -1, -1, 2, -3),
)

# theta_i^4 = sign/3 * (x_a + x_b + x_c), table order
THETA4_FROM_X = (
    (-1, (2, 3, 5)),
    (-1, (3, 4, 5)),
    (-1, (2, 3, 4)),
    (-1, (2, 4, 5)),
    (1, (1, 3, 4)),
    (-1, (1, 2, 5)),
    (1, (1, 4, 5)),
    (1, (1, 2, 4)),
    (-1, (1, 2, 3)),
    (-1, (1, 3, 5)),
)


class SatakeCoordinates(namedtuple("SatakeCoordinates", "x")):
    """The six level-two coordinates x_1..x_6 (they sum to zero)."""

    __slots__ = ()

    @property
    def sum_residual(self):
        return abs(sum(self.x))

    def quartic_residual(self):
        """|s2^2 - 4 s4| relative to |s2|^2 (Igusa-quartic membership)."""
        s2 = sum(v**2 for v in self.x)
        s4 = sum(v**4 for v in self.x)
        scale = max(abs(s2) ** 2, abs(s4), 1e-300)
        return abs(s2**2 - 4 * s4) / scale


def satake_from_theta(tc):
    """The six linear combinations of fourth powers, in the fixed order."""
    t4 = tc.fourth_powers()
    x = tuple(sum(c * t4[k] for k, c in enumerate(row)) for row in SATAKE_MATRIX)
    return SatakeCoordinates(x=x)


def theta4_from_satake(coords):
    """Invert satake_from_theta: all ten fourth powers from x_1..x_6.

    Works for exact (Fraction) and numeric coordinates alike; input may
    be a SatakeCoordinates or a plain length-6 sequence.
    """
    x = coords.x if isinstance(coords, SatakeCoordinates) else tuple(coords)
    if len(x) != 6:
        raise DomainError("expected six Satake coordinates")
    out = []
    for sign, idx in THETA4_FROM_X:
        s = x[idx[0] - 1] + x[idx[1] - 1] + x[idx[2] - 1]
        out.append(sign * s / Fraction(3))   # int sums stay exact
    return tuple(out)


# ---------------------------------------------------------------------------
# Rosenhain parameters
# ---------------------------------------------------------------------------


def _guard_denominator(value, scale, what):
    """An exact (int/Fraction) denominator vanishes only when it is 0; a
    numeric one when it is below 1e-10 of ``scale``."""
    if isinstance(value, (int, Fraction)):
        vanishes = value == 0
    else:
        vanishes = abs(value) <= 1e-10 * scale
    if vanishes:
        raise DegeneratePointError(
            f"{what} vanishes: tau lies on a boundary divisor (chi10 = 0 locus)")


def rosenhain_from_theta(tc):
    """Picard's lemma: lambda_i as ratios of squared theta constants."""
    t2 = [None] + [tc.theta(i) ** 2 for i in range(1, 11)]
    scale = max(abs(v) for v in t2[1:]) ** 2
    d1 = t2[2] * t2[4]
    d2 = t2[4] * t2[10]
    d3 = t2[2] * t2[10]
    for d, what in ((d1, "t2^2 t4^2"), (d2, "t4^2 t10^2"), (d3, "t2^2 t10^2")):
        _guard_denominator(d, scale, what)
    lam1 = t2[1] * t2[3] / d1
    lam2 = t2[3] * t2[8] / d2
    lam3 = t2[1] * t2[8] / d3
    return lam1, lam2, lam3


def rosenhain_from_theta4(t4):
    """Rosenhain parameters from fourth powers alone (no square-root branch).

    ``t4`` is the full ten-tuple of fourth powers in table order.
    """
    t = [None] + list(t4)
    if len(t) != 11:
        raise DomainError("expected ten fourth powers")
    scale = max(abs(v) for v in t[1:]) ** 2 or 1.0
    d1 = 2 * t[2] * t[4]
    d2 = 2 * t[4] * t[10]
    d3 = 2 * t[2] * t[10]
    for d, what in ((d1, "t2^4 t4^4"), (d2, "t4^4 t10^4"), (d3, "t2^4 t10^4")):
        _guard_denominator(d, scale, what)
    half = Fraction(1, 2)
    lam1 = half + (t[1] * t[3] - t[7] * t[9]) / d1
    lam2 = half + (t[3] * t[8] - t[5] * t[9]) / d2
    lam3 = half + (t[1] * t[8] - t[5] * t[7]) / d3
    return lam1, lam2, lam3


# Thomae's formula (Mumford, Tata Lectures on Theta II, IIIa section 8)
THOMAE_SUBSETS = ((0, 2, 4), (0, 1, 3), (0, 2, 3), (0, 1, 4), (1, 3, 4),
                  (2, 3, 4), (1, 2, 4), (0, 3, 4), (1, 2, 3), (0, 1, 2))
# each subset (i, j, m) followed by its complement (k, l)
_THOMAE_SPLITS = tuple((*T, *(n for n in range(5) if n not in T))
                       for T in THOMAE_SUBSETS)


def thomae_products(a):
    """(P_T1, ..., P_T10), T_i = THOMAE_SUBSETS[i - 1], at the five finite
    branch points a = (a_0, ..., a_4): P_T = prod_{i<j in T} (a_i - a_j) *
    (a_k - a_l) with {k, l} the complement of T.  Each P_T is homogeneous
    of degree 4 in a, so integer branch points give integer P_T."""
    return tuple([(a[i] - a[j]) * (a[i] - a[m]) * (a[j] - a[m]) * (a[k] - a[l])
                  for i, j, m, k, l in _THOMAE_SPLITS])


def thomae_fourth_powers(lams):
    """``thomae_products`` at a = (0, 1, l1, l2, l3).  The theta fourth
    powers of the curve Y^2 = X(X-1)(X-l1)(X-l2)(X-l3) are c P_T for one
    constant c."""
    return thomae_products((0, 1, *lams))
