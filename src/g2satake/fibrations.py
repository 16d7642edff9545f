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
on primitive integer multiples of g2, g3 and Delta.  A model with integer
coefficients is classified as it is; the CLI builds every model so, on the
integral weighted point of its curve, in a coordinate T with t = rho T
(t has weight 2 in the alternate models and ``kumfib2_model``, -4 in
``standard_model``), and ``classify_fibers`` reads the census back into t.
Rational models are first made integral by ``_integral_model``.  A factor of Delta
that is linear in t is a fiber location as it stands, with no squarefree
decomposition and no root search.  The other factors are multiplied
together with their common exponent taken out and decomposed once; the
rational roots of every cluster are found exactly (p-adic lifting, no
floating point) and join the linear ones, and what is left is split by
the vanishing orders of g2 and g3 through gcds.  A model with C = 0
(x = 0 is a two-torsion section: the alternate models and
``kumfib2_model``) has Delta a constant times B^2 (A^2 - 4B), so Delta
is decomposed from B and A^2 - 4B and is never expanded.  The paper's
theorem that the F-theory model shows the Satake sextic f gives one of
these pieces: A^2 - 4B is a constant times f(12 t) for
``alternate_model_ftheory`` and f(-3 t) for ``alternate_model``, and so
is B for ``kumfib2_model``.  The models take f as a ``satake.SatakeSextic``:
its closed-form roots x_i, where they are known, as the linear factors
t - x_i/12 or t + x_i/3, else f itself, and the classifier checks their
product against the piece exactly before it uses them.
The Jacobian of the Kummer quartic carries its Delta as the factors
c t^6 prod (t - li)^2 prod (t - li lj)^2, the 2x2 determinants of the
quartic's linear X-factors; the expanded Delta is only checked to be a
constant multiple of their product.

The weighted forms behind the degeneration predicates are evaluated in
nested form on integers: the quintic-discriminant bracket is Horner in e,
and its e^0 part is the product (4a^3 + 27b^2)^2 (a c^2 d - b c^3 + d^3).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .errors import DomainError, IdentityViolationError, NonMinimalModelError
from .qpoly import (Poly, discriminant, exact_quotient, exact_ratio,
                    integer_gcd, integer_quotient, integer_squarefree,
                    primitive_part, promote_int, root_multiplicities,
                    split_rational_roots)

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


class KodairaFiber(namedtuple("KodairaFiber", "fiber_type location orders count",
                              defaults=(1,))):
    """A fiber type at ``location`` (a Fraction, "infinity" or a cluster
    Poly) with ``orders`` (v(g2), v(g3), v(Delta)); ``count`` geometric
    points share the cluster."""

    __slots__ = ()

    @property
    def euler(self):
        return euler_number(self.fiber_type) * self.count


class FiberCensus(namedtuple("FiberCensus", "fibers")):
    __slots__ = ()

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


class WeierstrassModel(namedtuple("WeierstrassModel", "A B C disc_factors",
                                  defaults=((),))):
    """y^2 = x^3 + A(t) x^2 + B(t) x + C(t) over the t-line (A, B, C Polys).

    ``disc_factors`` is ((F, k), ...) with Polys F in t and the
    discriminant a constant times prod F^k, or () when not known;
    ``classify_fibers`` checks known factors against the expanded
    discriminant and decomposes them.
    """

    __slots__ = ()

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

    def rhs(self, t, x):
        """x^3 + A(t) x^2 + B(t) x + C(t): the value of y^2 at (t, x)."""
        return x**3 + self.A(t) * x**2 + self.B(t) * x + self.C(t)


def _integral_model(model):
    """Integer polynomials A, B, C in t: x -> x / s, with s the least common
    denominator of all the coefficients, scales A, B and C by s, s^2 and
    s^3, and keeps t and the fiber types.  An integral model (int
    coefficients, or Fractions of denominator 1) has s = 1."""
    parts = (model.A.coeffs, model.B.coeffs, model.C.coeffs)
    s = lcm(*(c.denominator for cs in parts for c in cs))
    return tuple(Poly([c.numerator * (s**k // c.denominator) for c in cs])
                 for k, cs in enumerate(parts, 1))


def _integral_factor(f):
    """A known factor of the discriminant as a primitive integer polynomial
    (0 stays 0); an int f is used as it stands."""
    if not f or all(isinstance(c, int) for c in f.coeffs):
        return f
    return primitive_part(f)


def _proportional(p, q):
    """Whether p is a constant multiple of q, both nonzero, or both zero."""
    if p and q:
        return p * q.lead() == q * p.lead()
    return not p and not q


def _product(factors):
    out = Poly([1])
    for f, k in factors:
        out = out * f**k
    return out


def _integral_short_form(A, B, C, known=()):
    """Primitive G2, G3 and the factors of D for integer A, B, C.

    g2 = -(4/3) (3B - A^2) and g3 = -(4/27) (2A^3 - 9AB + 27C), so G2, G3
    and D = 4 G2^3 + G3^2 are constant multiples of g2, g3 and Delta:
    same vanishing orders and degrees.  D comes back as factors [(F, k)],
    D a constant times prod F^k.  When C = 0, x = 0 is a two-torsion
    section and D = -27 B^2 (A^2 - 4B) is never expanded: the factors are
    [(B, 2), (A^2 - 4B, 1)], and the ``known`` factors (integer Polys) of
    exponent 2 replace B, those of exponent 1 replace A^2 - 4B, once their
    product is shown to be a constant multiple of it.  When C != 0 they
    replace [(D, 1)] once D is expanded and shown to be a constant multiple
    of their product.  A mismatch raises IdentityViolationError.
    Identically vanishing polynomials come back as the zero Poly.
    """
    AA = A * A
    g2 = 3 * B - AA
    g3 = A * (2 * AA - 9 * B) + 27 * C
    if C:
        factors = [(4 * g2 * g2 * g2 + g3 * g3, 1)]
        if known:
            if not _proportional(factors[0][0], _product(known)):
                raise IdentityViolationError(
                    "the known discriminant factors are not proportional to "
                    "the expanded discriminant")
            factors = known
    else:
        pieces = {2: B, 1: AA - 4 * B}
        for k in sorted({k for _, k in known}):
            if k not in pieces or not _proportional(
                    pieces.pop(k), _product([(f, 1) for f, j in known if j == k])):
                raise IdentityViolationError(
                    f"the known discriminant factors of exponent {k} do not "
                    "multiply to " + ("B" if k == 2 else "A^2 - 4B"))
        factors = [(f, k) for k, f in pieces.items()] + list(known)
    g2, g3 = (primitive_part(p) if p else p for p in (g2, g3))
    return g2, g3, factors


def _orders(h, g):
    """The squarefree h split by the vanishing order of g at its roots:
    [(piece, order)] with the pieces covering h (order None when g = 0).

    gcd(h, g) holds the roots where g vanishes; the rest of h has order 0.
    g is divided by the gcd, which lowers each of those orders by one, and
    the gcd is split the same way.
    """
    if not g:
        return [(h, None)]
    out, k = [], 0
    while True:
        common = integer_gcd(h, g)
        if common.degree() < h.degree():
            out.append((integer_quotient(h, common), k))
        if common.degree() < 1:
            return out
        h, g, k = common, integer_quotient(g, common), k + 1


def _linear_roots(factors):
    """Split the factors [(F, k)] into the roots of those of degree 1, with
    multiplicities (equal roots add theirs), and the factors of higher
    degree; constant factors are dropped."""
    roots, others = {}, []
    for f, k in factors:
        if f.degree() == 1:
            r = Fraction(-f.coeffs[0], f.coeffs[1])
            roots[r] = roots.get(r, 0) + k
        elif f.degree() > 1:
            others.append((f, k))
    return roots, others


def classify_fibers(model, rho=1):
    """Kodaira census of a model whose coefficients are int or Fraction.

    The model's coordinate T is t / rho for the rational ``rho``: the
    census is found in T and its locations are read back into t here, once
    (a model built on an integral weighted point lives in such a T).

    The surface degree is the smallest N with deg g2 <= 4N, deg g3 <= 6N
    and deg Delta <= 12N (N = 2 for K3); the fiber at t = infinity is read
    off the degree deficits of g2, g3 and Delta after homogenization.
    Discriminant factors of degree 1 give their roots as they stand; the
    others are multiplied together, their common exponent taken out, and
    decomposed once.  The rational roots of each cluster join the linear
    ones (equal roots add their multiplicities), so every rational fiber
    reads its orders of g2 and g3 by exact division; the irrational rest
    is split by those orders through gcds (``_orders``).
    """
    if not all(isinstance(c, (int, Fraction))
               for p in (model.A, model.B, model.C) for c in p.coeffs):
        raise DomainError("Kodaira classification needs int or Fraction coefficients")
    known = [(_integral_factor(f), k) for f, k in model.disc_factors]
    g2, g3, factors = _integral_short_form(*_integral_model(model), known)
    if not all(f for f, _ in factors):
        raise DomainError("discriminant vanishes identically; not an elliptic surface")
    roots, others = _linear_roots(factors)
    clusters = []
    if others:
        k = gcd(*(j for _, j in others))
        product = _product([(f, j // k) for f, j in others])
        for cluster, i in integer_squarefree(primitive_part(product)):
            rational, rest = split_rational_roots(cluster)
            for r in rational:
                roots[r] = roots.get(r, 0) + i * k
            if rest.degree() > 0:
                clusters.append((rest, i * k))
    fibers = []
    points = sorted(roots.items())
    g2_orders, g3_orders = (
        root_multiplicities(g, [r for r, _ in points]) if g else [None] * len(points)
        for g in (g2, g3))
    for (r, d), a, b in zip(points, g2_orders, g3_orders):
        fibers.append(KodairaFiber(
            fiber_type=kodaira_type(a, b, d), location=r * rho, orders=(a, b, d)))
    for cluster, d in clusters:
        for part, a in _orders(cluster, g2):
            for piece, b in _orders(part, g3):
                n = piece.degree()
                # the monic cluster in t = rho T
                located = Poly([c * rho ** (n - i) for i, c in enumerate(piece.coeffs)])
                fibers.append(KodairaFiber(
                    fiber_type=kodaira_type(a, b, d), location=located.monic(),
                    orders=(a, b, d), count=n))
    d_deg = sum(k * f.degree() for f, k in factors)
    # the zero polynomial has degree -1, which never raises the maximum
    surface = max(1, -(-g2.degree() // 4), -(-g3.degree() // 6), -(-d_deg // 12))
    a_inf = (4 * surface - g2.degree()) if g2 else None
    b_inf = (6 * surface - g3.degree()) if g3 else None
    d_inf = 12 * surface - d_deg
    if d_inf > 0:
        fibers.append(KodairaFiber(
            fiber_type=kodaira_type(a_inf, b_inf, d_inf),
            location=INFINITY, orders=(a_inf, b_inf, d_inf)))
    return FiberCensus(fibers=tuple(fibers))


# ---------------------------------------------------------------------------
# the four explicit fibrations
# ---------------------------------------------------------------------------


class FibrationParams(namedtuple("FibrationParams", "a b c d e")):
    """(a, b, c, d, e) = (-I4/12, (I2 I4 - 3 I6)/108, -1, I2/24, I10/4)."""

    __slots__ = ()

    @classmethod
    def from_igusa(cls, inv):
        """Ints of the ints of an Igusa point over v = 12 u, else Fractions."""
        I2, I4, I6, I10 = inv.astuple()
        return cls(exact_quotient(-I4, 12, "a"),
                   exact_quotient(I2 * I4 - 3 * I6, 108, "b"), -1,
                   exact_quotient(I2, 24, "d"), exact_quotient(I10, 4, "e"))

    def cubic(self):
        """t^3 + a t + b"""
        return Poly([self.b, self.a, 0, 1])

    def linear(self):
        """c t + d"""
        return Poly([self.d, self.c])


def _at(f, scale):
    """f(scale t)."""
    return Poly([c * scale**i for i, c in enumerate(f.coeffs)])


def _satake_factors(satake, scale, k):
    """The known factors of exponent k that the Satake sextic gives, with
    roots at t = X_i / scale for the roots X_i of ``satake`` (a
    ``satake.SatakeSextic`` in X, or None): ((scale t - X_i, k), ...) for
    its closed-form roots, else ((F(scale t), k),); () for None."""
    if satake is None:
        return ()
    if satake.roots is None:
        return ((_at(satake.F, scale), k),)
    return tuple((Poly([-x, scale]), k) for x in satake.roots)


def kumfib2_model(inv, satake=None):
    """The Kummer fibration with census 6 I2 + I5* + I1.

    y^2 = x^3 - 2 (t^3 + a t + b) x^2 + ((t^3+at+b)^2 - 4 e (c t + d)) x,
    which is the same display as the I4/I2/I6/I10 form of the model.  B is
    the radicand, f(-3 t) / 729 for the Satake sextic f: ``satake``, if
    given, is its ``SatakeSextic`` (``_satake_factors``), the known factor
    of B.
    """
    p = FibrationParams.from_igusa(inv)
    return WeierstrassModel(A=-2 * p.cubic(), B=radicand(p), C=Poly(),
                            disc_factors=_satake_factors(satake, -3, 2))


def alternate_model(p, satake=None):
    """y^2 = x^3 + (t^3 + a t + b) x^2 + e (c t + d) x.

    A^2 - 4B is the radicand, f(-3 t) / 729 for the Satake sextic f:
    ``satake``, if given, is its ``SatakeSextic``, the known factor of
    A^2 - 4B.
    """
    return WeierstrassModel(A=p.cubic(), B=p.e * p.linear(), C=Poly(),
                            disc_factors=_satake_factors(satake, -3, 1))


def alternate_model_ftheory(s, satake=None):
    """y^2 = x^3 + (t^3 - psi4/48 t - psi6/864) x^2 - (4 chi10 t - chi12) x.

    Stays well-defined on chi10 = 0, where the I2 and I10* fibers merge
    into I12*.  ``s`` holds the form values, or the ints of a Siegel point;
    over v = 12 u, 48 divides psi4 and 864 divides psi6, and A stays
    integral (``exact_ratio``).  A^2 - 4B is f(12 t) / 1728^2 for the
    Satake sextic f: ``satake``, if given, is its ``SatakeSextic``, the
    known factor of A^2 - 4B.
    """
    p4, p6, c10, c12 = s.astuple()
    A = Poly([exact_ratio(-p6, 864), exact_ratio(-p4, 48), 0, 1])
    B = Poly([c12, -4 * c10])
    return WeierstrassModel(A=A, B=B, C=Poly(),
                            disc_factors=_satake_factors(satake, 12, 1))


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


def _quartic_ij(a0, a1, a2, a3, a4):
    i = 12 * a4 * a0 - 3 * a3 * a1 + a2 * a2
    j = (72 * a4 * a2 * a0 - 27 * a4 * a1 * a1 - 27 * a3 * a3 * a0
         + 9 * a3 * a2 * a1 - 2 * a2 * a2 * a2)
    return i, j


class QuarticModel(namedtuple("QuarticModel", "coeffs disc_factors",
                              defaults=((),))):
    """Y^2 = q(X, t) with q of degree <= 4 in X; ``coeffs`` holds the
    coefficients of X^0 .. X^4, each a Poly in t.  ``disc_factors`` is
    ((F, k), ...) with the X-discriminant of q a constant times prod F^k,
    or () when not known."""

    __slots__ = ()

    def quartic_invariants(self):
        """Classical I and J of the X-quartic, in the ring of its
        coefficients: int coefficients give int I and J, Fractions give
        Fractions (``classify_fibers`` clears the denominators of the
        Jacobian).  Exact only: other coefficients raise DomainError."""
        if not all(isinstance(c, (int, Fraction))
                   for a in self.coeffs for c in a.coeffs):
            raise DomainError("quartic invariants need int/Fraction coefficients")
        return _quartic_ij(*self.coeffs)

    def jacobian_model(self):
        """Weierstrass form y^2 = x^3 - 27 I x - 27 J of the Jacobian, whose
        discriminant is a constant times the X-discriminant of q."""
        i, j = self.quartic_invariants()
        return WeierstrassModel(A=Poly(), B=-27 * i, C=-27 * j,
                                disc_factors=self.disc_factors)

    def sextic_limit(self):
        """The eps -> 0 limit that recovers Y^2 = F(X) from the quartic.

        Y = eta/eps^5, X = 1/eps^2, t = xi/eps^2 and scaling by eps^10 send
        t^i X^k to eps^(10 - 2(i + k)) xi^i, so the limit is the part of
        q(X, t) of total degree 5, at X = 1.  A term of higher degree would
        leave a negative eps power and raises IdentityViolationError.
        """
        out = [0] * 6
        for k, a in enumerate(self.coeffs):
            for i, c in enumerate(a.coeffs):
                if c != 0 and i + k > 5:
                    raise IdentityViolationError(
                        f"t^{i} X^{k} leaves eps^{10 - 2 * (i + k)} in the limit")
                if i + k == 5:
                    out[i] = c
        return Poly(out)


def kummer_quartic_model(l1, l2, l3, z=1):
    """The genus-one fibration Y^2 = t (1 - X + t) prod (li^2 - li X + t).

    Classifying its Jacobian gives 6 I2 + 2 I0* for generic lambdas, and
    its ``sextic_limit()`` is the defining sextic x (x-1)(x-l1)(x-l2)(x-l3).

    Given ``z``, the lambdas are the integers Li of the branch points
    (z, L1, L2, L3) of li = Li / z (``igusa.rosenhain_integers``), and the
    model is Y^2 = T prod (a^2 - a X + z T) / gcd(a, z) over a = z, L1,
    L2, L3: the same fibration in X = z x and T = z t, up to constant
    factors, with integer coefficients that each factor's content keeps
    small.
    """
    t = Poly([0, 1])

    def factor(a):   # a^2 - a X + z t as (a^2 + z t, -a), over its content
        g = gcd(a, z) if z != 1 else 1
        if g == 1:
            return Poly([a * a, z]), Poly([-a])
        return Poly([a * a // g, z // g]), Poly([-a // g])

    factors = [factor(a) for a in (z, l1, l2, l3)]
    # product of (const(t) + coef * X) as X-coefficient list of Polys in t
    xcoeffs = [t]  # overall factor t
    for const, lin in factors:
        new = [Poly() for _ in range(len(xcoeffs) + 1)]
        for k, c in enumerate(xcoeffs):
            new[k] = new[k] + c * const
            new[k + 1] = new[k + 1] + c * lin
        xcoeffs = new
    # q = t prod (a + b X), so its X-discriminant is t^6 times the squared
    # 2x2 determinants a b' - a' b of the linear factors
    disc = ((t, 6),) + tuple((a * b2 - a2 * b, 2)
                             for (a, b), (a2, b2) in combinations(factors, 2))
    return QuarticModel(coeffs=tuple(xcoeffs), disc_factors=disc)


# ---------------------------------------------------------------------------
# isogenies and the Nikulin involution
# ---------------------------------------------------------------------------


def isogeny(pt, t, p):
    """Fiberwise two-isogeny from the alternate model to the Kummer model.

    (x, y) -> (y^2/x^2, y (e (c t + d) - x^2) / x^2); the two-torsion
    point (0, 0) and the section at infinity both map to infinity.
    """
    if pt == INFINITY:
        return INFINITY
    x, y = map(promote_int, pt)
    if x == 0:
        return INFINITY
    w = p.e * (p.c * t + p.d)
    return (y * y / (x * x), y * (w - x * x) / (x * x))


def dual_isogeny(pt, t, p):
    """(X, Y) -> (Y^2/(4X^2), Y ((t^3+at+b)^2 - 4e(ct+d) - X^2)/(8X^2)).

    The 1/8 on the second coordinate is forced by the on-curve condition
    together with dual o isogeny = multiplication by two.
    """
    if pt == INFINITY:
        return INFINITY
    X, Y = map(promote_int, pt)
    if X == 0:
        return INFINITY
    rad = radicand(p)(t)
    return (Y * Y / (4 * X * X), Y * (rad - X * X) / (8 * X * X))


def nikulin_involution(pt, t, p):
    """Translation by the two-torsion section on the alternate fibration.

    (x, y) -> (e (c t + d)/x, -y e (c t + d)/x^2); fixed points satisfy
    x^2 = e (c t + d) and y = 0.
    """
    if pt == INFINITY:
        return INFINITY
    x, y = map(promote_int, pt)
    if x == 0:
        return INFINITY
    w = p.e * (p.c * t + p.d)
    return (w / x, -y * w / (x * x))


# ---------------------------------------------------------------------------
# degeneration predicates
# ---------------------------------------------------------------------------


def _qvanish_form(a, b, c, d, e):
    """The bracket, nested: Horner in e, whose e^0 part is
    (4 a^3 + 27 b^2)^2 (a c^2 d - b c^3 + d^3)."""
    a2 = a * a
    a3 = a2 * a
    b2 = b * b
    c2 = c * c
    c3 = c2 * c
    c4 = c2 * c2
    d2 = d * d
    e0 = (4 * a3 + 27 * b2) ** 2 * (a * c2 * d - b * c3 + d2 * d)
    e1 = (4 * a2 * c4 * (4 * a3 + 675 * b2)
          + d * (b * c3 * (6075 * b2 - 3420 * a3)
                 + d * (a * c2 * (888 * a3 - 5670 * b2)
                        + d * (d * (864 * a3 - 5832 * b2) - 2592 * a2 * b * c))))
    e2 = (a * c4 * (4125 * a * d - 5625 * b * c)
          + d2 * (16200 * a * c2 * d - 13500 * b * c3 + 11664 * d2 * d))
    return e0 + e * (e1 + e * (e2 + e * 3125 * c3 * c3))


def qvanish_bracket(p):
    """The explicit quintic-discriminant bracket whose vanishing merges
    two I1 fibers of the alternate fibration into an I2.

    The bracket is weighted homogeneous of weight 30 in (a, b, d, e) of
    weights (4, 6, 2, 10), and c has weight 0.  It is evaluated in the
    nested form of ``_qvanish_form`` (Horner in e), on the parameters as
    they are: the ints of an integral point, or Fractions.  Exact only:
    other parameters raise DomainError.
    """
    if not all(isinstance(v, (int, Fraction)) for v in p):
        raise DomainError("the bracket needs exact (int/Fraction) parameters")
    return _qvanish_form(*p)


def type_iii_bracket(p):
    """a c^2 d - b c^3 + d^3: vanishing merges an I1 with the I2 into III."""
    return p.a * p.c**2 * p.d - p.b * p.c**3 + p.d**3


def degeneration_predicates(p, satake=None):
    """The su(2), type-III and so(32) flags of the parameters ``p``.

    The bracket is evaluated once, and disc_t((t^3+at+b)^2 - 4e(ct+d)) =
    2^12 e^3 * bracket is checked exactly (the 2^12 was determined once on
    random rational parameters and is frozen); a mismatch raises
    IdentityViolationError.  Given the ``SatakeSextic`` F of the same
    point, 729 radicand(t) = F(-3 t) is checked exactly, and the left side
    is read off disc(F) = 3^30 disc_t(radicand) rather than taken again.
    """
    bracket = qvanish_bracket(p)
    rad = radicand(p)
    if satake is None:
        lhs, rhs = discriminant(rad), 2**12 * p.e**3 * bracket
    elif 729 * rad != _at(satake.F, -3):
        raise IdentityViolationError("729 radicand(t) = F(-3 t) fails on this input")
    else:
        lhs, rhs = satake.discriminant(), 3**30 * 2**12 * p.e**3 * bracket
    if lhs != rhs:
        raise IdentityViolationError(
            "disc_t(radicand) = 2^12 e^3 * bracket fails on this input")
    return {
        "su2_enhancement": bracket == 0,
        "type_III": type_iii_bracket(p) == 0,
        "so32_enhancement": p.e == 0,
    }


def type_iii_siegel_identity(p, s):
    """27 e^3 (a c^2 d - b c^3 + d^3) = -2^36 (2 psi6 chi10^3 + 9 psi4 chi10^2 chi12 - 27 chi12^3).

    Ties the type-III condition to its Siegel-form expression, for the
    parameters ``p`` and form values ``s`` of one curve, or the integers of
    one point (both sides have weight 36); the constant is frozen.  Returns
    both sides; a mismatch raises IdentityViolationError.
    """
    lhs = 27 * p.e**3 * type_iii_bracket(p)
    rhs = -(2**36) * (2 * s.psi6 * s.chi10**3 + 9 * s.psi4 * s.chi10**2 * s.chi12
                      - 27 * s.chi12**3)
    if lhs != rhs:
        raise IdentityViolationError(
            "the type-III Siegel-form identity fails on this input")
    return lhs, rhs
