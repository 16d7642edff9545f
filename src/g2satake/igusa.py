"""Igusa-Clebsch invariants and the Siegel modular form dictionary.

Invariants of a Rosenhain-form curve are sums of products of the
differences of its branch points 0, 1, l1, l2, l3 and infinity (Igusa
1960; Mestre 1991), the same differences whose products Thomae's formula
turns into theta constants.  Invariants of a general degree-5/6 input
come from classical transvectants of the binary sextic form, in the exact
linear combinations

    I2  = -120 A
    I4  = -720 A^2 + 6750 B
    I6  = 8640 A^3 - 108000 A B + 202500 C
    I10 = disc(f)            (lc^2 * disc for degree-5 input)

with A = (f,f)_6, i = (f,f)_4, B = (i,i)_4, C = (i,(i,i)_2)_4.
The two routes agree exactly on every Rosenhain input, and I10 equals
the monic-convention discriminant throughout.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial, gcd, lcm, perm, prod

from .errors import DomainError, ProductLocusError
from .qpoly import (ExactTuple, Poly, discriminant, exact_quotient,
                    integral_representative, reduce_representative,
                    weighted_values)
from .theta import THOMAE_SUBSETS, thomae_products

# weights of (I2, I4, I6, I10) and of (psi4, psi6, chi10, chi12)
IGUSA_WEIGHTS = (2, 4, 6, 10)
SIEGEL_WEIGHTS = (4, 6, 10, 12)

# ---------------------------------------------------------------------------
# invariant containers
# ---------------------------------------------------------------------------


class IgusaInvariants(ExactTuple, namedtuple("IgusaInvariants", "I2 I4 I6 I10")):
    """Weighted tuple (I2, I4, I6, I10) of weights (2, 4, 6, 10)."""

    __slots__ = ()
    WEIGHTS = IGUSA_WEIGHTS

    @property
    def degenerate(self):
        return self.I10 == 0

    def scale(self, r):
        """The weighted action I_k -> r^k I_k (same projective point)."""
        return IgusaInvariants(*(r**w * v for v, w in
                                 zip(self.astuple(), self.WEIGHTS)))

    def same_projective_point(self, other):
        """Equality in weighted projective space over C with weights
        (2, 4, 6, 10): some lam has lam^w b = a for every pair (a, b) of
        weight w.  Then the zero patterns agree, and with g the gcd of the
        weights of the nonzero pairs and sum c_k w_k = g (Bezout), every
        such lam has lam^g = mu = prod (a_k / b_k)^c_k; so the test is
        mu^(w_k / g) = a_k / b_k for every nonzero pair."""
        pairs = [(a, b, w) for a, b, w in zip(self.astuple(), other.astuple(),
                                              self.WEIGHTS) if a != 0 or b != 0]
        if any(a == 0 or b == 0 for a, b, _ in pairs):
            return False
        g, cs = 0, []
        for _, _, w in pairs:
            # extended Euclid: x g + y w = gcd(g, w)
            a, b, x, x1, y, y1 = g, w, 1, 0, 0, 1
            while b:
                k = a // b
                a, b, x, x1, y, y1 = b, a - k * b, x1, x - k * x1, y1, y - k * y1
            g, cs = a, [x * c for c in cs] + [y]
        mu = prod((a / b) ** c for (a, b, _), c in zip(pairs, cs))
        return all(mu ** (w // g) == a / b for a, b, w in pairs)


class AbsoluteInvariants(ExactTuple, namedtuple("AbsoluteInvariants", "j1 j2 j3")):
    __slots__ = ()


class SiegelForms(ExactTuple,
                  namedtuple("SiegelForms", "psi4 psi6 chi10 chi12")):
    """Values of the even generators (psi4, psi6, chi10, chi12)."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# integral weighted points
# ---------------------------------------------------------------------------


class _IntegralPoint:
    """Mixin of the integral weighted points, listed before their
    ``namedtuple`` base: a unit (the first field) and the integers of the
    point's weighted class over it, each value of weight w being its
    integer over unit^w.  Weighted-homogeneous formulas are evaluated on
    the integers, so identities between them are compared over Z, and only
    printed values are ever reduced.  ``WEIGHTS`` names the weights."""

    __slots__ = ()

    @classmethod
    def of(cls, values):
        """The point of exact values, on ``integral_representative``."""
        r, ints = integral_representative(values.astuple(), cls.WEIGHTS)
        return cls(r, *ints)

    def astuple(self):
        """The integers, without the unit."""
        return tuple(self[1:])

    def scaled(self, k):
        """The same point over the unit k times as large."""
        return self._make([k * self[0], *(v * k**w for v, w in
                                          zip(self.astuple(), self.WEIGHTS))])

    def reduced(self):
        """The reduced values, as the printed record ``VALUES``."""
        return self.VALUES(*weighted_values(self.astuple(), self.WEIGHTS, self[0]))


class IgusaPoint(_IntegralPoint, namedtuple("IgusaPoint", "u I2 I4 I6 I10")):
    """The Igusa invariants on integers: I_k = I_k' / u^k, u > 0."""

    __slots__ = ()
    WEIGHTS = IGUSA_WEIGHTS
    VALUES = IgusaInvariants

    @classmethod
    def from_rosenhain(cls, thomae):
        """The point of Rosenhain parameters li = Li / r, with no Fraction
        in between, from their ``rosenhain_thomae`` triple (r, [L1, L2, L3],
        P): the forms of degrees 4, 8, 12 and 20 at the integer branch
        points 0, r, L1, L2, L3 (``_branch_point_forms`` on the Thomae
        products P) are I2, I4, I6 and I10 over u = r^2.  u is then reduced
        (``reduce_representative``) over the lambda denominators r // gcd(r,
        Li) and the gcds of r with the differences a - b of the branch
        points and with the numerators (a - b) / gcd(a - b, r) of the lambda
        differences, which split the primes of r by how close the branch
        points lie; u usually comes out near r."""
        r, ints, products = thomae
        branch = (0, r, *ints)
        parts = [r // gcd(r, v) for v in ints]
        for i, a in enumerate(branch):
            for b in branch[i + 1:]:
                g = gcd(r, a - b)
                parts += [g, gcd(r, (a - b) // g)]
        u, vals = reduce_representative(
            r * r, _branch_point_forms(branch, products), IGUSA_WEIGHTS, parts)
        return cls(u, *vals)

    def absolute(self):
        """(j1, j2, j3), of weight 0, read off the integers."""
        return absolute_invariants(IgusaInvariants(*self.astuple()))

    def siegel(self):
        """The Siegel point over v = 12 u, on which the Siegel forms and the
        parameters of the fibrations (``FibrationParams.from_igusa``) are
        integers, divided exactly out of the Igusa integers over v."""
        v = self.scaled(12)
        return SiegelPoint(v.u, *_siegel_values(*v.astuple()))


class SiegelPoint(_IntegralPoint,
                  namedtuple("SiegelPoint", "v psi4 psi6 chi10 chi12")):
    """The Siegel form values on integers: s_k = s_k' / v^k, v > 0.

    The integers are the form values in the weighted coordinate of unit
    v, which the form-level functions that only add and multiply accept as
    they are (``satake_sextic_from_siegel``, ``humbert_predicates``, ...).
    """

    __slots__ = ()
    WEIGHTS = SIEGEL_WEIGHTS
    VALUES = SiegelForms

    def q(self):
        """Q at the integers, of weight 60 (``q_form``)."""
        return _q_poly(*self.astuple())


# ---------------------------------------------------------------------------
# Rosenhain route
# ---------------------------------------------------------------------------


def rosenhain_poly(l1, l2, l3):
    """The monic quintic X(X-1)(X-l1)(X-l2)(X-l3)."""
    return Poly.from_roots([0, 1, l1, l2, l3])


# the ten pairs (i, j), i < j, of the five finite branch points: the order
# of their differences
_PAIRS = tuple(combinations(range(5), 2))
# the 15 pairings of the six branch points, each by its two pairs of finite
# points (as indices into _PAIRS); the third pair holds infinity
_PAIRINGS = tuple((m, n) for m, n in combinations(range(10), 2)
                  if not set(_PAIRS[m]) & set(_PAIRS[n]))


def _splits():
    """For each Thomae subset T, with {i, j} its complement among the finite
    points: the pairs (ix, jy), x != y in T, as indices into _PAIRS."""
    at = {frozenset(p): n for n, p in enumerate(_PAIRS)}
    out = []
    for T in THOMAE_SUBSETS:
        i, j = (n for n in range(5) if n not in T)
        out.append(tuple((at[frozenset((i, x))], at[frozenset((j, y))])
                         for x, y in permutations(T, 2)))
    return tuple(out)


_SPLITS = _splits()


def _branch_point_forms(a, products):
    """(I2', I4', I6', I10') of the sextic with the five finite branch points
    a = (a_0, ..., a_4) and infinity: forms of degrees 4, 8, 12 and 20 in a.

    With D_ij = (a_i - a_j)^2 (and D = 1 on a pair through infinity) and the
    Thomae products P_T = ``products`` (``theta.thomae_products`` of a), the
    triangle products of the split of the six points into T and its
    complement with infinity, these are the Igusa-Clebsch root-difference
    sums (Igusa 1960; Mestre 1991):

        I2'  = sum over the 15 pairings of D D
        I4'  = sum_T P_T^2
        I6'  = sum_T P_T^2 sum_{x != y in T} D_ix D_jy,  {i, j} the complement
        I10' = prod_{i<j} (a_i - a_j)^2

    At a = (0, 1, l1, l2, l3) they are the invariants of
    Y^2 = X(X-1)(X-l1)(X-l2)(X-l3); scaling a by r scales each by r^(2w).
    """
    d = [a[i] - a[j] for i, j in _PAIRS]
    D = [v * v for v in d]
    p2 = [p * p for p in products]
    I6 = 0
    for pp, split in zip(p2, _SPLITS):
        I6 += pp * sum([D[m] * D[n] for m, n in split])
    return sum([D[m] * D[n] for m, n in _PAIRINGS]), sum(p2), I6, prod(d) ** 2


def rosenhain_integers(lams):
    """(r, [L1, L2, L3]) with li = Li / r, r the least common denominator:
    the integer branch points 0, r, L1, L2, L3 (and infinity) are r times
    0, 1, l1, l2, l3."""
    lams = [Fraction(v) for v in lams]
    r = lcm(*(v.denominator for v in lams))
    return r, [v.numerator * (r // v.denominator) for v in lams]


def rosenhain_thomae(lams):
    """(r, [L1, L2, L3], P): ``rosenhain_integers`` and the Thomae products
    P of the integer branch points 0, r, L1, L2, L3
    (``theta.thomae_products``), which ``IgusaPoint.from_rosenhain`` and
    ``satake.satake_roots_from_rosenhain`` take."""
    r, ints = rosenhain_integers(lams)
    return r, ints, thomae_products((0, r, *ints))


def igusa_from_rosenhain(l1, l2, l3):
    """Invariants of Y^2 = X(X-1)(X-l1)(X-l2)(X-l3), exact in the lambdas.

    ``_branch_point_forms`` at the branch points 0, 1, l1, l2, l3, in the
    arithmetic of the lambdas: int, Fraction, ``GaussianRational`` or
    complex; ``IgusaPoint.from_rosenhain`` is the integral route of rational
    lambdas.  Repeated or 0/1 lambdas are not rejected: they surface as
    I10 = 0 and the ``degenerate`` flag.
    """
    a = (0, 1, l1, l2, l3)
    return IgusaInvariants(*_branch_point_forms(a, thomae_products(a)))


# ---------------------------------------------------------------------------
# general sextic route via transvectants
# ---------------------------------------------------------------------------


def _mixed(c, n, kx, ky):
    """d^(kx+ky) / dx^kx dy^ky of the form sum c_i x^i y^(n-i)."""
    return [perm(i, kx) * perm(n - i, ky) * c[i] for i in range(kx, n - ky + 1)]


def _form_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return out


def _transvectant(fc, m, gc, n, k):
    """The k-th transvectant of binary forms of degrees m and n (coefficients
    low first) without its factor (m-k)! (n-k)! / (m! n!): integer on
    integer forms."""
    acc = None
    for j in range(k + 1):
        term = _form_mul(_mixed(fc, m, k - j, j), _mixed(gc, n, j, k - j))
        sign = (-1) ** j * comb(k, j)
        term = [sign * t for t in term]
        acc = term if acc is None else [x + y for x, y in zip(acc, term)]
    return acc


# 6!^2, the factor that the transvectants of the sextic with itself drop
_D = factorial(6) ** 2


def even_invariants(cs):
    """(I2, I4, I6) of the binary sextic with integer coefficients cs (low
    first), integers.

    With the transvectants taken without their factors, A = A'/D, i = 4 i'/D,
    B = B'/(36 D^2), H = H'/(9 D^2) and C = (i', H')_4/(1296 D^3), D = 6!^2;
    the factors are multiplied in once per invariant, and each quotient is
    exact (``exact_quotient``)."""
    c6 = list(cs) + [0] * (7 - len(cs))
    A = _transvectant(c6, 6, c6, 6, 6)[0]
    i4 = _transvectant(c6, 6, c6, 6, 4)
    B = _transvectant(i4, 4, i4, 4, 4)[0]
    H = _transvectant(i4, 4, i4, 4, 2)
    C = _transvectant(i4, 4, H, 4, 4)[0]
    return (exact_quotient(-A, 4320, "I2"),
            exact_quotient(375 * B - 1440 * A * A, 2 * _D**2, "I4"),
            exact_quotient(625 * C - 12000 * A * B + 34560 * A**3, 4 * _D**3,
                           "I6"))


def igusa_from_sextic(f):
    """Invariants of Y^2 = f(X) for deg f in {5, 6}.

    Exact over int/Fraction coefficients, evaluated on the integer form
    F(x) = r^6 f(x / r) / lc(f), whose degree-k invariant is
    r^(3k) / lc(f)^k times that of f.
    """
    if not isinstance(f, Poly):
        f = Poly(f)
    deg = f.degree()
    if deg not in (5, 6):
        raise DomainError(f"expected a degree-5 or degree-6 polynomial, got {deg}")
    if not all(isinstance(c, (int, Fraction)) for c in f.coeffs):
        raise DomainError("igusa_from_sextic needs exact (int/Fraction) coefficients")
    lc = Fraction(f.lead())
    r, ints = integral_representative([c / lc for c in f.coeffs[:-1]],
                                      range(6, 6 - deg, -1))
    I2, I4, I6 = (lc**k * v / r ** (3 * k) for k, v in
                  zip((2, 4, 6), even_invariants(ints + [r ** (6 - deg)])))
    I10 = discriminant(f)
    if deg == 5:
        I10 = f.lead() ** 2 * I10
    return IgusaInvariants(I2, I4, I6, I10)


# ---------------------------------------------------------------------------
# absolute invariants and the Siegel dictionary
# ---------------------------------------------------------------------------


def absolute_invariants(inv):
    """(j1, j2, j3) = (I2^5/I10, I4 I2^3/I10, I6 I2^2/I10)."""
    if inv.I10 == 0:
        raise DomainError("I10 = 0: the sextic is singular, no curve")
    I2, I4, I6, I10 = inv.astuple()
    return AbsoluteInvariants(I2**5 / I10, I4 * I2**3 / I10, I6 * I2**2 / I10)


def igusa_from_absolute(j):
    """A representative with I2 = 1; requires j1 != 0."""
    if j.j1 == 0:
        raise DomainError("j1 = 0 has no representative with I2 = 1")
    j1, j2, j3 = j.astuple()
    return IgusaInvariants(1, j2 / j1, j3 / j1, 1 / j1)


def _siegel_values(I2, I4, I6, I10):
    """(psi4, psi6, chi10, chi12) of the invariants, by ``exact_quotient``."""
    return (exact_quotient(I4, 4, "psi4"),
            exact_quotient(I2 * I4 - 3 * I6, 8, "psi6"),
            exact_quotient(-I10, 2**14, "chi10"),
            exact_quotient(I2 * I10, 3 * 2**17, "chi12"))


def siegel_from_igusa(inv):
    """Invert the dictionary: even Siegel form values from invariants."""
    return SiegelForms(*_siegel_values(*inv.astuple()))


def igusa_from_siegel(s):
    """The dictionary itself; needs chi10 != 0."""
    if s.chi10 == 0:
        raise ProductLocusError(
            "chi10 = 0: abelian surface is a product of elliptic curves")
    psi4, psi6, chi10, chi12 = s.astuple()
    I2 = -24 * chi12 / chi10
    I4 = 4 * psi4
    I6 = -Fraction(8, 3) * psi6 - 32 * psi4 * chi12 / chi10
    I10 = -(2**14) * chi10
    return IgusaInvariants(I2, I4, I6, I10)


def _q_poly(p4, p6, c10, c12):
    """Q as a polynomial, nested: Horner in chi10, whose coefficients share
    the powers of psi4, psi6 and chi12 and u = psi4^3 - psi6^2."""
    p4_2 = p4 * p4
    p4_3 = p4_2 * p4
    p6_2 = p6 * p6
    u = p4_3 - p6_2
    uu = u * u
    c12_3 = c12 * c12 * c12
    q0 = c12_3 * (27 * uu + c12 * (2**24 * 3**15 * c12
                                   - 2**13 * 3**9 * (p4_3 + p6_2)))
    q1 = -(2**14) * 3**8 * p4_2 * p6 * c12_3
    q2 = p4 * c12 * (c12 * (2**11 * 3**6 * (37 * p4_3 + 35 * p6_2)
                            - 2**23 * 3**12 * 5**2 * c12) - 9 * uu)
    q3 = p6 * (c12 * (2**11 * 3**5 * 5 * (19 * p4_3 + 5 * p6_2)
                      - 2**23 * 3**9 * 5**3 * c12) - 2 * uu)
    q4 = p4_2 * (2**20 * 3**8 * 5**3 * 11 * c12 - 2**12 * 3**4 * (p4_3 - 25 * p6_2))
    q5 = 2**21 * 3**7 * 5**4 * p4 * p6
    q6 = 2**32 * 3**9 * 5**5
    return q0 + c10 * (q1 + c10 * (q2 + c10 * (q3 + c10 * (q4 + c10 * (q5 + c10 * q6)))))


def q_form(s):
    """The degree-60 polynomial Q in the even generators.

    Q is 2^12 3^9 chi35^2 / chi10 with the chi10 factor cancelled
    symbolically, hence well-defined on the chi10 = 0 boundary.  Exact
    form values are evaluated on an integer representative of their
    weighted class, in the nested form of ``_q_poly`` (Horner in chi10,
    with u = psi4^3 - psi6^2), and divided by r^60 once.
    """
    point = SiegelPoint.of(s)
    return Fraction(point.q(), point.v**60)


def chi35_squared(chi10, q):
    """chi35^2 = chi10 * Q / (2^12 3^9), exact, from chi10 and Q =
    ``q_form``."""
    return chi10 * q / Fraction(2**12 * 3**9)


def humbert_predicates(s, q):
    """Membership flags for the Humbert surfaces H_1 and H_4 of the form
    values ``s`` and their Q = ``q`` (``q_form``).

    H_1 (product of elliptic curves) is chi10 = 0; H_4 (Bolza extra
    involution) is Q = 0.
    """
    return {"on_H1": s.chi10 == 0, "on_H4": q == 0}
