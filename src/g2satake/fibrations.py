"""Weierstrass models over Q(t) and Kodaira classification of their fibers.

Models are y^2 = x^3 + A(t) x^2 + B(t) x + C(t) with exact rational
coefficient polynomials.  Classification converts to the short form
Y^2 = 4X^3 - g2 X - g3, reads vanishing orders of (g2, g3, Delta) at
every discriminant root (grouped into exact squarefree clusters whose
conjugate roots share one fiber type) and at t = infinity via
homogenization to degrees (4N, 6N, 12N), and matches the order pattern
against the Kodaira table.  Orders outside the table raise
NonMinimalModelError instead of silently reducing the model.

Coefficients must be rational (int or Fraction); the classification runs
on primitive integer multiples of g2, g3 and Delta, each decomposed once,
and rational fiber locations are split off every cluster exactly (p-adic
lifting, no floating point).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, NonMinimalModelError
from .igusa import _exact, siegel_from_igusa
from .qpoly import (EpsSeries, Poly, discriminant, graded_integral_scale,
                    integer_gcd, integer_quotient, integer_squarefree,
                    laurent_limit, primitive_part, split_rational_roots)

INFINITY = "infinity"

_EULER = {"II": 2, "III": 3, "IV": 4, "IV*": 8, "III*": 9, "II*": 10}


def kodaira_type(a, b, d):
    """Fiber type from the vanishing orders (v(g2), v(g3), v(Delta)).

    ``None`` passed for a or b means the polynomial vanishes identically
    (infinite order).
    """
    big = 10**6
    a = big if a is None else a
    b = big if b is None else b
    if d == 0:
        return "I0"
    if a == 0:
        return f"I{d}"
    if b == 1 and d == 2:
        return "II"
    if a == 1 and b >= 2 and d == 3:
        return "III"
    if a >= 2 and b == 2 and d == 4:
        return "IV"
    if d == 6 and ((a == 2 and b >= 3) or (a >= 3 and b == 3)):
        return "I0*"
    if a == 2 and b == 3 and d >= 7:
        return f"I{d - 6}*"
    if a >= 3 and b == 4 and d == 8:
        return "IV*"
    if a == 3 and b >= 5 and d == 9:
        return "III*"
    if a >= 4 and b == 5 and d == 10:
        return "II*"
    raise NonMinimalModelError(
        f"orders (v(g2), v(g3), v(D)) = ({a}, {b}, {d}) match no Kodaira row; "
        "the model is not minimal at this point")


def euler_number(fiber_type):
    if fiber_type in _EULER:
        return _EULER[fiber_type]
    if fiber_type.endswith("*"):
        return int(fiber_type[1:-1]) + 6
    return int(fiber_type[1:])


@dataclass(frozen=True)
class KodairaFiber:
    fiber_type: str
    location: object      # Fraction, "infinity", or cluster Poly
    orders: tuple         # (v(g2), v(g3), v(Delta))
    count: int = 1        # geometric points sharing this cluster

    @property
    def euler(self):
        return euler_number(self.fiber_type) * self.count


@dataclass(frozen=True)
class FiberCensus:
    fibers: tuple

    @property
    def euler_sum(self):
        return sum(f.euler for f in self.fibers)

    def type_multiset(self):
        out = {}
        for f in self.fibers:
            out[f.fiber_type] = out.get(f.fiber_type, 0) + f.count
        return out

    def has_type(self, fiber_type):
        return any(f.fiber_type == fiber_type for f in self.fibers)


@dataclass(frozen=True)
class WeierstrassModel:
    """y^2 = x^3 + A(t) x^2 + B(t) x + C(t) over the t-line."""

    A: Poly
    B: Poly
    C: Poly

    def short_form(self):
        """(g2, g3) of the equivalent Y^2 = 4X^3 - g2 X - g3.

        Completing the cube sends x to X - A/3; scaling Y = 2y fixes the
        4X^3 convention, so g2 = -4(B - A^2/3), g3 = -4(2A^3/27 - AB/3 + C).
        The fiberwise j-invariant is untouched.
        """
        A, B, C = self.A, self.B, self.C
        third = Fraction(1, 3)
        p = B - A * A * third
        q = A * A * A * Fraction(2, 27) - A * B * third + C
        return -4 * p, -4 * q

    def discriminant_poly(self):
        g2, g3 = self.short_form()
        return g2 * g2 * g2 - 27 * g3 * g3


def _integral_short_form(model):
    """Primitive integer polynomials G2, G3, D in T, and rho with t = rho T.

    x -> x / s and t -> rho T make A, B, C integral (``graded_integral_scale``
    keeps the integers small); then g2 = -(4/3) (3B - A^2) / s^2 and
    g3 = -(4/27) (2A^3 - 9AB + 27C) / s^3, so G2, G3 and D = 4 G2^3 + G3^2
    are constant multiples of g2, g3 and Delta in T: same vanishing orders
    and degrees, roots divided by rho.  Identically vanishing polynomials
    come back as the zero Poly.
    """
    parts = (model.A.coeffs, model.B.coeffs, model.C.coeffs)
    s, rho = graded_integral_scale(
        (k, i, c) for k, cs in enumerate(parts, 1) for i, c in enumerate(cs))
    A, B, C = (Poly([(c * s**k * rho**i).numerator for i, c in enumerate(cs)])
               for k, cs in enumerate(parts, 1))
    g2 = 3 * B - A * A
    g3 = 2 * A * A * A - 9 * A * B + 27 * C
    delta = 4 * g2 * g2 * g2 + g3 * g3
    return tuple(primitive_part(p) if p else p for p in (g2, g3, delta)), rho


def _order_profile(cluster, parts):
    """Split a squarefree cluster by vanishing order, given the squarefree
    decomposition ``parts`` of a polynomial (None: it vanishes identically,
    infinite order).

    Returns [(subcluster, order)] covering the cluster.
    """
    if parts is None:
        return [(cluster, None)]
    remaining = cluster
    out = []
    for factor, mult in parts:
        common = integer_gcd(remaining, factor)
        if common.degree() > 0:
            out.append((common, mult))
            remaining = integer_quotient(remaining, common)
    if remaining.degree() > 0:
        out.append((remaining, 0))
    return out


def classify_fibers(model):
    """Kodaira census of a model whose coefficients are int or Fraction.

    The surface degree is the smallest N with deg g2 <= 4N, deg g3 <= 6N
    and deg Delta <= 12N (N = 2 for K3); the fiber at t = infinity is read
    off the degree deficits of g2, g3 and Delta after homogenization.
    """
    if not all(isinstance(c, (int, Fraction))
               for p in (model.A, model.B, model.C) for c in p.coeffs):
        raise DomainError("Kodaira classification needs int or Fraction coefficients")
    (g2, g3, delta), rho = _integral_short_form(model)
    if delta.is_zero():
        raise DomainError("discriminant vanishes identically; not an elliptic surface")
    parts2 = integer_squarefree(g2) if g2 else None
    parts3 = integer_squarefree(g3) if g3 else None
    fibers = []
    for cluster, d in integer_squarefree(delta):
        for sub2, a in _order_profile(cluster, parts2):
            for sub3, b in _order_profile(sub2, parts3):
                ftype = kodaira_type(a, b, d)
                rational, rest = split_rational_roots(sub3)
                for r in rational:
                    fibers.append(KodairaFiber(
                        fiber_type=ftype, location=r * rho, orders=(a, b, d)))
                n = rest.degree()
                if n > 0:
                    # the monic cluster in t = rho T
                    located = Poly([c * rho ** (n - i) for i, c in enumerate(rest.coeffs)])
                    fibers.append(KodairaFiber(
                        fiber_type=ftype, location=located.monic(),
                        orders=(a, b, d), count=n))
    # the zero polynomial has degree -1, which never raises the maximum
    surface = max(1, -(-g2.degree() // 4), -(-g3.degree() // 6),
                  -(-delta.degree() // 12))
    a_inf = (4 * surface - g2.degree()) if g2 else None
    b_inf = (6 * surface - g3.degree()) if g3 else None
    d_inf = 12 * surface - delta.degree()
    if d_inf > 0:
        fibers.append(KodairaFiber(
            fiber_type=kodaira_type(a_inf, b_inf, d_inf),
            location=INFINITY, orders=(a_inf, b_inf, d_inf)))
    return FiberCensus(fibers=tuple(fibers))


# ---------------------------------------------------------------------------
# the four explicit fibrations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FibrationParams:
    """(a, b, c, d, e) = (-I4/12, (I2 I4 - 3 I6)/108, -1, I2/24, I10/4)."""

    a: object
    b: object
    c: object
    d: object
    e: object

    @classmethod
    def from_igusa(cls, inv):
        I2, I4, I6, I10 = (_exact(v) for v in inv.astuple())
        return cls(a=-I4 / 12, b=(I2 * I4 - 3 * I6) / 108, c=Fraction(-1),
                   d=I2 / 24, e=I10 / 4)

    def cubic(self):
        """t^3 + a t + b"""
        return Poly([self.b, self.a, 0, 1])

    def linear(self):
        """c t + d"""
        return Poly([self.d, self.c])


def kumfib2_model(inv):
    """The Kummer fibration with census 6 I2 + I5* + I1.

    y^2 = x^3 - 2 (t^3 + a t + b) x^2 + ((t^3+at+b)^2 - 4 e (c t + d)) x,
    which is the same display as the I4/I2/I6/I10 form of the model.
    """
    p = FibrationParams.from_igusa(inv)
    cube = p.cubic()
    B = cube * cube - 4 * p.e * p.linear()
    return WeierstrassModel(A=-2 * cube, B=B, C=Poly())


def alternate_model(p):
    """y^2 = x^3 + (t^3 + a t + b) x^2 + e (c t + d) x."""
    return WeierstrassModel(A=p.cubic(), B=p.e * p.linear(), C=Poly())


def alternate_model_ftheory(s):
    """y^2 = x^3 + (t^3 - psi4/48 t - psi6/864) x^2 - (4 chi10 t - chi12) x.

    Stays well-defined on chi10 = 0, where the I2 and I10* fibers merge
    into I12*.
    """
    p4, p6, c10, c12 = (_exact(v) for v in s.astuple())
    A = Poly([-p6 / 864, -p4 / 48, 0, 1])
    B = Poly([c12, -4 * c10])
    return WeierstrassModel(A=A, B=B, C=Poly())


def standard_model(p):
    """y^2 = x^3 + t^3 (a t + c) x + t^5 (e t^2 + b t + d)."""
    B = Poly([p.c, p.a]).shift(3)
    C = Poly([p.d, p.b, p.e]).shift(5)
    return WeierstrassModel(A=Poly(), B=B, C=C)


def radicand(p):
    """(t^3 + a t + b)^2 - 4 e (c t + d): the I1 position sextic."""
    cube = p.cubic()
    return cube * cube - 4 * p.e * p.linear()


# ---------------------------------------------------------------------------
# fibration 1 on the Kummer surface: double cover of a quartic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuarticModel:
    """Y^2 = q(X, t) with q of degree <= 4 in X; coefficients in Q[t]."""

    coeffs: tuple   # X^0 .. X^4, each a Poly in t

    def quartic_invariants(self):
        """Classical I and J of the X-quartic (coefficients in Q[t])."""
        a0, a1, a2, a3, a4 = self.coeffs
        i = 12 * a4 * a0 - 3 * a3 * a1 + a2 * a2
        j = (72 * a4 * a2 * a0 - 27 * a4 * a1 * a1 - 27 * a3 * a3 * a0
             + 9 * a3 * a2 * a1 - 2 * a2 * a2 * a2)
        return i, j

    def jacobian_model(self):
        """Weierstrass form y^2 = x^3 - 27 I x - 27 J of the Jacobian."""
        i, j = self.quartic_invariants()
        return WeierstrassModel(A=Poly(), B=-27 * i, C=-27 * j)


def kummer_quartic_model(l1, l2, l3):
    """The genus-one fibration Y^2 = t (1 - X + t) prod (li^2 - li X + t).

    Classifying its Jacobian gives 6 I2 + 2 I0* for generic lambdas.
    """
    l1, l2, l3 = _exact(l1), _exact(l2), _exact(l3)
    t = Poly([0, 1])
    one = Poly([1])
    factors = [(one + t, -one)] + [
        (l * l * one + t, -l * one) for l in (l1, l2, l3)
    ]
    # product of (const(t) + coef * X) as X-coefficient list of Polys in t
    xcoeffs = [t]  # overall factor t
    for const, lin in factors:
        new = [Poly() for _ in range(len(xcoeffs) + 1)]
        for k, c in enumerate(xcoeffs):
            new[k] = new[k] + c * const
            new[k + 1] = new[k + 1] + c * lin
        xcoeffs = new
    return QuarticModel(coeffs=tuple(xcoeffs))


def recovered_sextic(l1, l2, l3):
    """The eps -> 0 limit that recovers Y^2 = F(X) from the quartic model.

    Substitutes Y = eta/eps^5, X = 1/eps^2, t = xi/eps^2 into the quartic
    relation, scales by eps^10 and takes the limit of the non-eta part;
    the result must be F(xi) = xi (xi-1)(xi-l1)(xi-l2)(xi-l3).  Any
    surviving negative eps power raises IdentityViolationError.
    """
    l1, l2, l3 = _exact(l1), _exact(l2), _exact(l3)
    xi = Poly([0, 1])
    one = Poly([1])
    T = EpsSeries({-2: xi})                    # t = xi / eps^2
    X = EpsSeries({-2: one})                   # X = 1 / eps^2
    prod = T * (EpsSeries({0: one}) - X + T)   # t (1 - X + t)
    for lam in (l1, l2, l3):
        prod = prod * (EpsSeries({0: lam * lam * one}) - lam * X + T)
    scaled = EpsSeries({10: one}) * prod
    return laurent_limit(scaled, order=0)


# ---------------------------------------------------------------------------
# isogenies and the Nikulin involution
# ---------------------------------------------------------------------------


def _eval_linear(p, t):
    return _exact(p.c) * _exact(t) + _exact(p.d)


def isogeny(pt, t, p):
    """Fiberwise two-isogeny from the alternate model to the Kummer model.

    (x, y) -> (y^2/x^2, y (e (c t + d) - x^2) / x^2); the two-torsion
    point (0, 0) and the section at infinity both map to infinity.
    """
    if pt == INFINITY:
        return INFINITY
    x, y = pt
    if x == 0:
        return INFINITY
    x, y = _exact(x), _exact(y)
    w = _exact(p.e) * _eval_linear(p, t)
    return (y * y / (x * x), y * (w - x * x) / (x * x))


def dual_isogeny(pt, t, p):
    """(X, Y) -> (Y^2/(4X^2), Y ((t^3+at+b)^2 - 4e(ct+d) - X^2)/(8X^2)).

    The 1/8 on the second coordinate is forced by the on-curve condition
    together with dual o isogeny = multiplication by two.
    """
    if pt == INFINITY:
        return INFINITY
    X, Y = pt
    if X == 0:
        return INFINITY
    X, Y = _exact(X), _exact(Y)
    rad = radicand(p)(_exact(t))
    return (Y * Y / (4 * X * X), Y * (rad - X * X) / (8 * X * X))


def nikulin_involution(pt, t, p):
    """Translation by the two-torsion section on the alternate fibration.

    (x, y) -> (e (c t + d)/x, -y e (c t + d)/x^2); fixed points satisfy
    x^2 = e (c t + d) and y = 0.
    """
    if pt == INFINITY:
        return INFINITY
    x, y = pt
    if x == 0:
        return INFINITY
    x, y = _exact(x), _exact(y)
    w = _exact(p.e) * _eval_linear(p, t)
    return (w / x, -y * w / (x * x))


def alternate_rhs(p, t, x):
    """x^3 + (t^3+at+b) x^2 + e(ct+d) x at numeric (t, x)."""
    t, x = _exact(t), _exact(x)
    return x**3 + p.cubic()(t) * x**2 + _exact(p.e) * _eval_linear(p, t) * x


def kummer_rhs(p, t, X):
    """X^3 - 2(t^3+at+b) X^2 + ((t^3+at+b)^2 - 4e(ct+d)) X at numeric (t, X)."""
    t, X = _exact(t), _exact(X)
    cube = p.cubic()(t)
    return X**3 - 2 * cube * X**2 + (cube**2 - 4 * _exact(p.e) * _eval_linear(p, t)) * X


# ---------------------------------------------------------------------------
# degeneration predicates
# ---------------------------------------------------------------------------


def qvanish_bracket(p):
    """The explicit quintic-discriminant bracket whose vanishing merges
    two I1 fibers of the alternate fibration into an I2."""
    a, b, c, d, e = (_exact(v) for v in (p.a, p.b, p.c, p.d, p.e))
    return (
        16 * a**7 * c**2 * d - 16 * a**6 * b * c**3 + 16 * a**5 * c**4 * e
        + 16 * a**6 * d**3 + 216 * a**4 * b**2 * c**2 * d
        + 888 * a**4 * c**2 * d**2 * e - 216 * a**3 * b**3 * c**3
        - 3420 * a**3 * b * c**3 * d * e + 2700 * a**2 * b**2 * c**4 * e
        + 4125 * a**2 * c**4 * d * e**2 - 5625 * a * b * c**5 * e**2
        + 3125 * c**6 * e**3 + 216 * a**3 * b**2 * d**3
        + 864 * a**3 * d**4 * e - 2592 * a**2 * b * c * d**3 * e
        + 729 * a * b**4 * c**2 * d - 5670 * a * b**2 * c**2 * d**2 * e
        + 16200 * a * c**2 * d**3 * e**2 - 729 * b**5 * c**3
        + 6075 * b**3 * c**3 * d * e - 13500 * b * c**3 * d**2 * e**2
        + 729 * b**4 * d**3 - 5832 * b**2 * d**4 * e + 11664 * d**5 * e**2
    )


def type_iii_bracket(p):
    """a c^2 d - b c^3 + d^3: vanishing merges an I1 with the I2 into III."""
    a, b, c, d, e = (_exact(v) for v in (p.a, p.b, p.c, p.d, p.e))
    return a * c**2 * d - b * c**3 + d**3


def degeneration_predicates(p):
    return {
        "su2_enhancement": qvanish_bracket(p) == 0,
        "type_III": type_iii_bracket(p) == 0,
        "so32_enhancement": p.e == 0,
    }


def qvanish_identity(p):
    """disc_t((t^3+at+b)^2 - 4e(ct+d)) = 2^12 e^3 * bracket, exactly.

    The 2^12 was determined once on random rational parameters and is
    frozen; the check reruns the identity on the given parameters.
    """
    lhs = discriminant(radicand(p))
    rhs = 2**12 * _exact(p.e) ** 3 * qvanish_bracket(p)
    return lhs == rhs, lhs, rhs


def type_iii_siegel_identity(inv):
    """e^3 (a c^2 d - b c^3 + d^3) = -(2^36/27)(2 psi6 chi10^3 + 9 psi4 chi10^2 chi12 - 27 chi12^3).

    Ties the parameter-space type-III condition to its Siegel-form
    expression through the dictionary; the constant -(2^36)/27 is frozen.
    """
    p = FibrationParams.from_igusa(inv)
    s = siegel_from_igusa(inv)
    lhs = _exact(p.e) ** 3 * type_iii_bracket(p)
    rhs = -Fraction(2**36, 27) * (2 * s.psi6 * s.chi10**3
                                  + 9 * s.psi4 * s.chi10**2 * s.chi12
                                  - 27 * s.chi12**3)
    return lhs == rhs, lhs, rhs
