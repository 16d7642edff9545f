"""Igusa-Clebsch invariants and the Siegel modular form dictionary.

Invariants of a Rosenhain-form curve come from the explicit quintic
polynomials in the three lambda parameters.  Invariants of a general
degree-5/6 input come from classical transvectants of the binary sextic
form; the linear combinations below were solved once against the
Rosenhain polynomials and are exact:

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
from math import comb, factorial, gcd, lcm

from .errors import DomainError, ProductLocusError
from .qpoly import (ExactTuple, Poly, discriminant, integral_representative,
                    reduce_representative)

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
        """Equality in weighted projective space with weights (2,4,6,10):
        the same zero pattern, and a^w0 b0^w = b^w0 a0^w for every nonzero
        pair (a, b) of weight w, with (a0, b0) the first of weight w0."""
        pairs = [(a, b, w) for a, b, w in zip(self.astuple(), other.astuple(),
                                              self.WEIGHTS) if a != 0 or b != 0]
        if any(a == 0 or b == 0 for a, b, _ in pairs):
            return False
        a0, b0, w0 = pairs[0] if pairs else (1, 1, 1)
        return all(a**w0 * b0**w == b**w0 * a0**w for a, b, w in pairs)


class AbsoluteInvariants(ExactTuple, namedtuple("AbsoluteInvariants", "j1 j2 j3")):
    __slots__ = ()


class SiegelForms(ExactTuple,
                  namedtuple("SiegelForms", "psi4 psi6 chi10 chi12")):
    """Values of the even generators (psi4, psi6, chi10, chi12)."""

    __slots__ = ()


DerivedForms = namedtuple("DerivedForms", "chi35_squared q")


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
        rep = integral_representative(values.astuple(), cls.WEIGHTS)
        if rep is None:
            raise DomainError(f"{type(values).__name__} needs int/Fraction values")
        return cls(rep[0], *rep[1])

    def astuple(self):
        """The integers, without the unit."""
        return tuple(self[1:])

    def scaled(self, k):
        """The same point over the unit k times as large."""
        return self._make([k * self[0], *(v * k**w for v, w in
                                          zip(self.astuple(), self.WEIGHTS))])


class IgusaPoint(_IntegralPoint, namedtuple("IgusaPoint", "u I2 I4 I6 I10")):
    """The Igusa invariants on integers: I_k = I_k' / u^k, u > 0."""

    __slots__ = ()
    WEIGHTS = IGUSA_WEIGHTS

    @classmethod
    def from_rosenhain(cls, lams):
        """The point of the Rosenhain parameters ``lams``, with no Fraction
        in between: the forms of degrees 4, 8, 12 and 18 at the integer
        point (r, L1, L2, L3) of ``rosenhain_integers`` are I2, I4, I6 and
        I10 / r^2 over u = r^2.  u is then reduced (``reduce_representative``)
        over the lambda denominators and the gcds of r with the differences
        a - b of the integer branch points 0, r, L1, L2, L3 and with the
        numerators (a - b) / gcd(a - b, r) of the lambda differences, which
        split the primes of r by how close the branch points lie; u usually
        comes out near r."""
        r, ints = rosenhain_integers(lams)
        I2, I4, I6, I10 = _rosenhain_forms(r, *ints)
        parts = [Fraction(v).denominator for v in lams]
        branch = (0, r, *ints)
        for i, a in enumerate(branch):
            for b in branch[i + 1:]:
                g = gcd(r, a - b)
                parts += [g, gcd(r, (a - b) // g)]
        u, vals = reduce_representative(r * r, (I2, I4, I6, I10 * r * r),
                                        IGUSA_WEIGHTS, parts)
        return cls(u, *vals)

    def siegel(self):
        """The Siegel point over v = 12 u, on which the dictionary
        ``siegel_from_igusa`` and the parameters of the fibrations
        (``FibrationParams.from_igusa``) are integers."""
        v = self.scaled(12)
        s = siegel_from_igusa(IgusaInvariants(*v.astuple()))
        return SiegelPoint(v.u, *(x.numerator for x in s))


class SiegelPoint(_IntegralPoint,
                  namedtuple("SiegelPoint", "v psi4 psi6 chi10 chi12")):
    """The Siegel form values on integers: s_k = s_k' / v^k, v > 0.

    The integers are the form values in the weighted coordinate of unit
    v, which the form-level functions that only add and multiply accept as
    they are (``satake_sextic_from_siegel``, ``humbert_predicates``, ...).
    """

    __slots__ = ()
    WEIGHTS = SIEGEL_WEIGHTS

    def integral_forms(self):
        """The integers as SiegelForms, for the form-level functions that
        divide (``alternate_model_ftheory``)."""
        return SiegelForms(*self.astuple())

    def q(self):
        """Q at the integers, of weight 60 (``q_form``)."""
        return _q_poly(*self.astuple())


# ---------------------------------------------------------------------------
# Rosenhain route
# ---------------------------------------------------------------------------


def rosenhain_poly(l1, l2, l3):
    """The monic quintic X(X-1)(X-l1)(X-l2)(X-l3)."""
    return Poly.from_roots([0, 1, l1, l2, l3])


def _rosenhain_forms(z, l1, l2, l3):
    """(I2, I4, I6, I10) of Y^2 = X(X-1)(X-l1)(X-l2)(X-l3), homogenized by
    z: forms of degrees 4, 8, 12 and 18 in (z, l1, l2, l3) that are the
    invariants at z = 1."""
    e1 = l1 + l2 + l3
    e2 = l1 * l2 + l1 * l3 + l2 * l3
    e3 = l1 * l2 * l3
    I2 = 40 * e3 * z - 16 * (z + e1) * (e3 + e2 * z) + 6 * (e2 + e1 * z) ** 2
    I4 = (-12 * e1**3 * e3 * z**2 + 4 * e1**2 * e2**2 * z**2
          - 4 * e1**2 * e2 * e3 * z + 4 * e1**2 * e3**2
          + 12 * e1**2 * e3 * z**3 - 4 * e1 * e2**2 * z**3
          + 44 * e1 * e2 * e3 * z**2 - 12 * e2**3 * z**2 + 12 * e2**2 * e3 * z
          - 12 * e2 * e3**2 - 12 * e1 * e3 * z**4 + 4 * e2**2 * z**4
          - 72 * e3**2 * z**2)
    I6 = (-24 * e1**3 * e3 * z**6 + 10 * e1**2 * e3**2 * z**4
          + 32 * e2**2 * e3 * z**5 + 150 * e2 * e3**2 * z**4
          + 8 * e1**2 * e2**2 * e3**2 + 118 * e1**3 * e2 * e3 * z**4
          - 194 * e1**2 * e2 * e3**2 * z**2 + 118 * e1 * e2**3 * e3 * z**2
          - 66 * e1 * e2**2 * e3**2 * z + 76 * e1 * e2 * e3**3
          - 194 * e1 * e2**2 * e3 * z**4 + 412 * e1 * e2 * e3**2 * z**3
          + 20 * e1**4 * e2 * e3 * z**3 - 36 * e1**3 * e2**2 * e3 * z**2
          + 20 * e1**3 * e2 * e3**2 * z - 8 * e1**2 * e2**3 * e3 * z
          + 8 * e1**2 * e2**2 * z**6 - 252 * e3**3 * z**3 - 36 * e3**4
          - 24 * e2**5 * z**2 + 48 * e2**4 * z**4 - 24 * e2**3 * z**6
          + 8 * e1**4 * e2**2 * z**4 - 8 * e1**3 * e2**3 * z**3
          + 8 * e1**2 * e2**4 * z**2 - 8 * e1**3 * e2**2 * z**5
          - 36 * e1**2 * e2**3 * z**4 + 20 * e1 * e2**4 * z**3
          + 20 * e1 * e2**3 * z**5 - 36 * e3**2 * z**6 - 24 * e1**5 * e3 * z**4
          + 48 * e1**4 * e3**2 * z**2 - 24 * e1**3 * e3**3
          + 24 * e1**4 * e3 * z**5 - 136 * e1**3 * e3**2 * z**3
          + 32 * e1**2 * e3**3 * z + 24 * e2**4 * e3 * z - 24 * e2**3 * e3**2
          + 150 * e1 * e3**3 * z**2 - 136 * e2**3 * e3 * z**3
          + 10 * e2**2 * e3**2 * z**2 - 42 * e2 * e3**3 * z
          - 42 * e1 * e3**2 * z**5 + 76 * e1 * e2 * e3 * z**6
          - 66 * e1**2 * e2 * e3 * z**5)
    I10 = (e3**2 * (l3 - z) ** 2 * (l2 - z) ** 2 * (l2 - l3) ** 2
           * (l1 - z) ** 2 * (l1 - l3) ** 2 * (l1 - l2) ** 2)
    return I2, I4, I6, I10


def rosenhain_integers(lams):
    """(r, [L1, L2, L3]) with li = Li / r, r the least common denominator:
    the integer branch points 0, r, L1, L2, L3 (and infinity) are r times
    0, 1, l1, l2, l3."""
    lams = [Fraction(v) for v in lams]
    r = lcm(*(v.denominator for v in lams))
    return r, [v.numerator * (r // v.denominator) for v in lams]


def igusa_from_rosenhain(l1, l2, l3):
    """Invariants of Y^2 = X(X-1)(X-l1)(X-l2)(X-l3), exact in the lambdas.

    Rational lambdas are evaluated once on the integer point (r, L1, L2,
    L3) of ``rosenhain_integers``, and each form is divided by r to its
    degree.  Repeated or 0/1 lambdas are not rejected: they surface as
    I10 = 0 and the ``degenerate`` flag.
    """
    lams = (l1, l2, l3)
    if not all(isinstance(v, (int, Fraction)) for v in lams):
        return IgusaInvariants(*_rosenhain_forms(1, *lams))
    r, ints = rosenhain_integers(lams)
    return IgusaInvariants(*(Fraction(v, r**w) for v, w in
                             zip(_rosenhain_forms(r, *ints), (4, 8, 12, 18))))


# ---------------------------------------------------------------------------
# general sextic route via transvectants
# ---------------------------------------------------------------------------


def _dx(c, n):
    return [i * c[i] for i in range(1, n + 1)]


def _dy(c, n):
    return [(n - i) * c[i] for i in range(n)]


def _mixed(c, n, kx, ky):
    for _ in range(kx):
        c = _dx(c, n)
        n -= 1
    for _ in range(ky):
        c = _dy(c, n)
        n -= 1
    return c


def _form_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = out[i + j] + ca * cb
    return out


def _transvectant(fc, m, gc, n, k):
    pref = Fraction(factorial(m - k) * factorial(n - k), factorial(m) * factorial(n))
    acc = None
    for j in range(k + 1):
        term = _form_mul(_mixed(list(fc), m, k - j, j),
                         _mixed(list(gc), n, j, k - j))
        sign = (-1) ** j * comb(k, j)
        term = [sign * t for t in term]
        acc = term if acc is None else [x + y for x, y in zip(acc, term)]
    return [pref * t for t in acc]


def _even_invariants(cs):
    """(I2, I4, I6) of the binary sextic with coefficients cs (low first)."""
    c6 = list(cs) + [0] * (7 - len(cs))
    A = _transvectant(c6, 6, c6, 6, 6)[0]
    i4 = _transvectant(c6, 6, c6, 6, 4)
    B = _transvectant(i4, 4, i4, 4, 4)[0]
    H = _transvectant(i4, 4, i4, 4, 2)
    C = _transvectant(i4, 4, H, 4, 4)[0]
    I2 = -120 * A
    I4 = -720 * A**2 + 6750 * B
    I6 = 8640 * A**3 - 108000 * A * B + 202500 * C
    return I2, I4, I6


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
                  zip((2, 4, 6), _even_invariants(ints + [r ** (6 - deg)])))
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


def siegel_from_igusa(inv):
    """Invert the dictionary: even Siegel form values from invariants."""
    I2, I4, I6, I10 = inv.astuple()
    psi4 = I4 / Fraction(4)
    psi6 = (I2 * I4 - 3 * I6) / Fraction(8)
    chi10 = -I10 / Fraction(2**14)
    chi12 = I2 * I10 / Fraction(3 * 2**17)
    return SiegelForms(psi4, psi6, chi10, chi12)


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


def derived_forms(s):
    """Q and chi35^2 = chi10 * Q / (2^12 3^9), with Q evaluated once."""
    q = q_form(s)
    return DerivedForms(chi35_squared=s.chi10 * q / Fraction(2**12 * 3**9), q=q)


def chi35_squared(s):
    """chi35^2 = chi10 * Q / (2^12 3^9), exact."""
    return derived_forms(s).chi35_squared


def humbert_predicates(s, q=None):
    """Membership flags for the Humbert surfaces H_1 and H_4.

    H_1 (product of elliptic curves) is chi10 = 0; H_4 (Bolza extra
    involution) is Q = 0.  ``q`` is Q if already known.
    """
    if q is None:
        q = q_form(s)
    return {"on_H1": s.chi10 == 0, "on_H4": q == 0}
