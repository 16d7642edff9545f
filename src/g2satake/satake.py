"""Power sums, the Satake sextic, and the degree-16 moduli map.

The six level-two coordinates x_1..x_6 satisfy s_1 = 0 and s_2^2 = 4 s_4;
their monic sextic f(x) = prod (x - x_i) is computed both through the
complete Bell polynomials and through the closed square-plus-linear form,
and the two constructions are required to agree coefficient by
coefficient.  The moduli map takes the absolute invariants of a curve to
those of the curve y^2 = f(x); the explicit rational components are
evaluated next to a direct invariant computation and must match exactly.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import permutations
from math import comb, gcd, isqrt

from .errors import (DegeneratePointError, DomainError, IdentityViolationError,
                     InversionSingularError)
from .igusa import (SIEGEL_WEIGHTS, AbsoluteInvariants, IgusaInvariants,
                    IgusaPoint, SiegelPoint, even_invariants, igusa_from_absolute,
                    q_form)
from .qpoly import (ExactTuple, Poly, discriminant, integral_representative,
                    root_differences, weighted_values)
from .theta import (SATAKE_MATRIX, rosenhain_from_theta4, theta4_from_satake,
                    thomae_fourth_powers)


# ---------------------------------------------------------------------------
# power sums
# ---------------------------------------------------------------------------


class PowerSums(ExactTuple, namedtuple("PowerSums", "s2 s3 s5 s6")):
    """s_1..s_6 of the six Satake coordinates; s1 = 0 and s4 = s2^2/4.
    Only s2, s3, s5 and s6 are stored; ``astuple`` gives all six."""

    __slots__ = ()

    @property
    def s1(self):
        return Fraction(0)

    @property
    def s4(self):
        return self.s2 * self.s2 / 4

    def astuple(self):
        return (self.s1, self.s2, self.s3, self.s4, self.s5, self.s6)


def _power_sums_igusa(I2, I4, I6, I10):
    s2 = 3 * I4
    s3 = Fraction(3, 2) * I2 * I4 - Fraction(9, 2) * I6
    s5 = Fraction(15, 8) * I2 * I4**2 - Fraction(45, 8) * I4 * I6 + 1215 * I10
    s6 = (Fraction(27, 16) * I4**3 + Fraction(3, 8) * I2**2 * I4**2
          - Fraction(9, 4) * I2 * I4 * I6 + Fraction(27, 8) * I6**2
          + Fraction(729, 4) * I2 * I10)
    return s2, s3, s5, s6


def _power_sums_siegel(p4, p6, c10, c12):
    s2 = 12 * p4
    s3 = 12 * p6
    s5 = 60 * p4 * p6 - 1215 * 2**14 * c10
    s6 = 108 * p4**3 + 24 * p6**2 + 2**15 * 3**7 * c12
    return s2, s3, s5, s6


def _power_sums(point, body):
    """``body`` (weighted homogeneous, values of the Siegel weights) on the
    integers of the integral ``point``, reduced once (``weighted_values``)."""
    return PowerSums(*weighted_values(body(*point.astuple()), SIEGEL_WEIGHTS,
                                      point[0]))


def power_sums_from_igusa(inv):
    """(s2, s3, s5, s6); s_j has weight 2j, as (psi4, psi6, chi10, chi12)."""
    return _power_sums(IgusaPoint.of(inv), _power_sums_igusa)


def power_sums_from_siegel(s):
    """The same power sums as polynomials in the form values, so they stay
    defined on chi10 = 0, where the Igusa invariants are not."""
    return _power_sums(SiegelPoint.of(s), _power_sums_siegel)


def igusa_from_power_sums(ps):
    """Invert power_sums_from_igusa; needs 5 s2 s3 - 12 s5 != 0."""
    s2, s3, s5, s6 = ps.s2, ps.s3, ps.s5, ps.s6
    den = 5 * s2 * s3 - 12 * s5
    if den == 0:
        raise InversionSingularError("5 s2 s3 - 12 s5 = 0: inversion undefined")
    I2 = Fraction(5, 3) * (3 * s2**3 + 8 * s3**2 - 48 * s6) / den
    I4 = s2 / 3
    I6 = Fraction(1, 27) * (15 * s2**4 + 10 * s2 * s3**2 - 240 * s2 * s6
                            + 72 * s3 * s5) / den
    I10 = -s2 * s3 / 2916 + s5 / 1215
    return IgusaInvariants(I2, I4, I6, I10)


# ---------------------------------------------------------------------------
# complete Bell polynomials and the sextic
# ---------------------------------------------------------------------------


def complete_bell(i, z):
    """Complete Bell polynomial B_i evaluated on z = (z_1, ..., z_i, ...)."""
    if not 1 <= i <= len(z):
        raise DomainError(f"Bell order {i} outside 1..{len(z)}")
    b = [1]
    for n in range(1, i + 1):
        b.append(sum(comb(n - 1, k) * b[n - 1 - k] * z[k] for k in range(n)))
    return b[i]


def _sextic_1440(S1, S2, S3, S4, S5, S6):
    """1440 times the monic sextic of the integer power sums S1..S6 (S_j of
    weight 2j), as the closed form, once it has been checked coefficient by
    coefficient against the Bell-polynomial form."""
    z = [S1, -S2, 2 * S3, -6 * S4, 24 * S5, -120 * S6]
    bell = [1440]   # x^6 downwards
    fact = 1
    for i in range(1, 7):
        fact *= i
        bell.append((-1) ** i * 1440 // fact * complete_bell(i, z))

    cube = Poly([-2 * S3, -3 * S2, 0, 12])   # 12 (x^3 - s2/4 x - s3/6)
    closed = 10 * cube * cube + Poly([15 * S2**3 + 40 * S3**2 - 240 * S6,
                                      120 * S2 * S3 - 288 * S5])

    if closed.coeffs != tuple(reversed(bell)):
        raise IdentityViolationError(
            "Bell-polynomial and closed-form sextics disagree; "
            "power sums violate s1 = 0 or s2^2 = 4 s4")
    return closed


def satake_sextic(ps, s4=None):
    """The monic sextic with the Satake coordinates as roots.

    Both the Bell-polynomial expansion and the closed form are computed;
    any coefficient mismatch is a broken s1/s4 constraint and raises
    IdentityViolationError.  ``s4`` overrides ``ps.s4`` (which is s2^2/4
    by construction), so that power sums given by a caller are checked.

    Exact only: the power sums must be int or Fraction, else DomainError.
    s_j has weight 2j, so both forms are evaluated on the integer
    representative (S1, ..., S6) of the power sums, times 1440 (which
    clears the 1/i! of the Bell form and the 1/4, 1/6 of the closed one),
    and the coefficient of x^k is divided by 1440 r^(12-2k) once.
    """
    s4 = ps.s4 if s4 is None else s4
    r, S = integral_representative((ps.s1, ps.s2, ps.s3, s4, ps.s5, ps.s6),
                                   (2, 4, 6, 8, 10, 12))
    return Poly([Fraction(c, 1440 * r ** (12 - 2 * k))
                 for k, c in enumerate(_sextic_1440(*S).coeffs)])


def satake_sextic_on_point(s, sextic):
    """The power sums and the Satake sextic of the integral Siegel point
    ``s`` (an ``igusa.SiegelPoint`` of unit v), on integers.

    Returns (S, F): the power sums S = (S2, S3, S5, S6) with s_j = S_j /
    v^(2j), and the sextic in the weighted coordinate X = v^2 x, F(X) =
    v^12 f(X / v^2), a monic integer Poly whose roots are v^2 x_i.  The
    three constructions are compared over Z: the power-sum sextic in its
    Bell and closed forms, and ``sextic.F``, that of the Siegel forms
    (``satake_sextic_from_siegel``); a mismatch raises
    IdentityViolationError.  S2 = 12 psi4', so S2^2 / 4 is an integer.
    """
    S2, S3, S5, S6 = S = _power_sums_siegel(*s.astuple())
    if _sextic_1440(0, S2, S3, S2 * S2 // 4, S5, S6) != 1440 * sextic.F:
        raise IdentityViolationError(
            "power-sum and Siegel-form constructions of the sextic disagree")
    return S, sextic.F


def satake_sextic_from_siegel(s):
    """(x^3 - 3 psi4 x - 2 psi6)^2 + 2^14 3^5 (chi10 x - 3 chi12).

    Defined for all form values, including chi10 = 0.
    """
    p4, p6, c10, c12 = s.astuple()
    cube = Poly([-2 * p6, -3 * p4, 0, 1])
    return cube * cube + Poly([-3 * 2**14 * 3**5 * c12, 2**14 * 3**5 * c10])


def satake_roots_from_rosenhain(thomae):
    """The six Satake roots of the curve with Rosenhain parameters li =
    Li / L, in closed form from their ``igusa.rosenhain_thomae`` triple (L,
    [L1, L2, L3], P): (d, X) with x_i = X_i / d.

    By Thomae's formula the theta fourth powers of the curve are the P_T of
    its branch points 0, 1, l1, l2, l3 (``theta.thomae_fourth_powers``), and
    x = SATAKE_MATRIX (P_T1, ..., P_T5) are the roots of its Satake sextic.
    L is the lcm of the denominators, so the branch points L (0, 1, l1, l2,
    l3) are integers, and so are their P = (P_T), L^4 times those of the
    curve: x = SATAKE_MATRIX P / L^4, returned with the common content of
    L^4 and the six numerators divided out.
    """
    L, _, p = thomae
    xs = [sum(c * t for c, t in zip(row, p)) for row in SATAKE_MATRIX]
    g = gcd(L**4, *xs)
    return L**4 // g, [x // g for x in xs]


class SatakeSextic:
    """The Satake sextic of an integral Siegel point of unit v, in the
    weighted coordinate X = v^2 x: ``F`` is F(X) = v^12 f(X / v^2), the
    monic integer Poly of ``satake_sextic_from_siegel`` at the point, built
    on first use from the ``siegel`` point unless given, and ``roots`` are
    its roots v^2 x_i as integers where they are known in closed form
    (``satake_roots_from_rosenhain``), else None: F and disc(F) once."""

    def __init__(self, F=None, roots=None, siegel=None):
        if F is not None:
            self.F = F
        self.roots, self.siegel = roots, siegel

    @cached_property
    def F(self):
        return satake_sextic_from_siegel(self.siegel)

    @cached_property
    def _disc(self):
        """(r, k) with disc(F) = r^k: the product of the root differences,
        once F = prod (X - X_i) is checked exactly, and k = 2; else the
        subresultant discriminant and k = 1."""
        if self.roots is None:
            return discriminant(self.F), 1
        return root_differences(self.F, self.roots), 2

    def discriminant(self, v=1):
        """disc(F) / v^60 reduced: disc(f) at the point of unit v, and
        disc(F) itself at v = 1.  From the roots, the product of their
        differences is reduced against v^30 and then squared, so that the
        gcd runs at half the size."""
        r, k = self._disc
        return Fraction(r, v ** (60 // k)) ** k


def satake_discriminant_identity(s, sextic):
    """disc(f) = 2^52 3^21 Q exactly, for the integral Siegel point ``s``
    of unit v (chi10 = 0 included) and its ``SatakeSextic``; returns
    (disc(f), Q) at the point itself.

    Both sides have weight 60, so the identity is checked over Z, as
    disc(F) = 2^52 3^21 Q(s) on the integers of the point, before disc(f)
    = disc(F) / v^60 is reduced once; a mismatch raises
    IdentityViolationError.
    """
    if sextic.discriminant() != 2**52 * 3**21 * s.q():
        raise IdentityViolationError("disc(f) = 2^52 3^21 Q fails on this input")
    disc = sextic.discriminant(s.v)
    return disc, disc / (2**52 * 3**21)


# ---------------------------------------------------------------------------
# reconstruction from the roots
# ---------------------------------------------------------------------------


# a fourth-power denominator below this share of the largest fourth power
# squared counts as vanishing for the labelling under test
DENOM_FLOOR = 1e-6


def reconstruct_from_satake_roots(roots):
    """Rosenhain parameters from the six (numeric) Satake roots.

    A root labelling fixes one of 720 branches; all branches describe the
    same curve, so callers compare absolute invariants, never lambda
    triples.  The identity labelling is tried first and then permutations
    in lexicographic order until the fourth-power denominators clear
    DENOM_FLOOR.  Returns (lambdas, labelling).

    Roots may be complex or exact GaussianRational values; the lambdas
    come back in the same arithmetic (exact input, exact output).
    """
    xs = list(roots)
    if len(xs) != 6:
        raise DomainError("expected six roots")
    scale = max(abs(v) for v in xs)
    if scale == 0:
        raise DegeneratePointError("all Satake roots vanish")
    for perm in permutations(range(6)):
        t4 = theta4_from_satake([xs[i] for i in perm])
        s2 = max(abs(v) for v in t4) or 1.0
        dens = (t4[1] * t4[3], t4[3] * t4[9], t4[1] * t4[9])
        if min(abs(d) for d in dens) <= DENOM_FLOOR * s2**2:
            continue
        return tuple(rosenhain_from_theta4(t4)), perm
    raise DegeneratePointError(
        "no root ordering yields nonvanishing denominators")


def theta_power_sum_consistency(tc, lam):
    """Fit the theta fourth powers to Thomae's formula for their curve.

    With lam = rosenhain_from_theta(tc), theta_i^4 = c P_i(lam)
    (``theta.thomae_fourth_powers``), and the Satake coordinates are linear
    in the fourth powers, so s_j(theta) = c^j s_j(curve).  c is fitted
    over all ten P_i at once, never divided by one.  Returns (c,
    max_i |theta_i^4 - c P_i| / max_i |theta_i^4|).
    """
    t4 = tc.fourth_powers()
    p = thomae_fourth_powers(lam)
    c = (sum(t * q.conjugate() for t, q in zip(t4, p))
         / sum(abs(q) ** 2 for q in p))
    return c, max(abs(t - c * q) for t, q in zip(t4, p)) / max(map(abs, t4))


# ---------------------------------------------------------------------------
# the moduli map
# ---------------------------------------------------------------------------


# The appendix polynomials m, k, w (g3 factor) and q of the moduli map,
# homogenized by h: each is h^deg * p(j1/h, j2/h, j3/h) with deg 3, 6, 9
# and 12, so integer coordinates (j1, j2, j3, h) give integer values and
# h = 1 gives the polynomial itself.


def _phi_m(j1, j2, j3, h=1):
    return -j2**2 * j1 + 6 * j2 * j3 * j1 - 9 * j3**2 * j1 + j2**3 + 540 * j1**2 * h


def _phi_k(j1, j2, j3, h=1):
    return (j2**4 * j1**2 - 12 * j1**2 * j2**3 * j3 + 54 * j1**2 * j2**2 * j3**2
            - 108 * j1**2 * j2 * j3**3 + 81 * j1**2 * j3**4 - 2 * j1 * j2**5
            + 12 * j1 * j2**4 * j3 - 18 * j1 * j2**3 * j3**2 + j2**6
            - 756 * j2**2 * j1**3 * h + 4536 * j1**3 * j2 * j3 * h
            - 6804 * j1**3 * j3**2 * h + 5130 * j1**2 * j2**3 * h
            - 17496 * j1**2 * j2**2 * j3 * h + 131220 * j1**4 * h**2
            - 2332800 * j2 * j1**3 * h**2)


def _phi_w(j1, j2, j3, h=1):
    return (-j1**3 * j2**6 + 18 * j1**3 * j2**5 * j3 - 135 * j1**3 * j2**4 * j3**2
            + 540 * j1**3 * j2**3 * j3**3 - 1215 * j1**3 * j2**2 * j3**4
            + 1458 * j1**3 * j2 * j3**5 - 729 * j1**3 * j3**6 + 3 * j1**2 * j2**7
            - 36 * j1**2 * j2**6 * j3 + 162 * j1**2 * j2**5 * j3**2
            - 324 * j1**2 * j2**4 * j3**3 + 243 * j1**2 * j2**3 * j3**4
            - 3 * j1 * j2**8 + 18 * j1 * j2**7 * j3 - 27 * j1 * j2**6 * j3**2
            + j2**9 + 1350 * j1**4 * j2**4 * h - 16200 * j1**4 * j2**3 * j3 * h
            + 72900 * j1**4 * j2**2 * j3**2 * h - 145800 * j1**4 * j2 * j3**3 * h
            + 109350 * j1**4 * j3**4 * h - 6345 * j1**3 * j2**5 * h
            + 52650 * j1**3 * j2**4 * j3 * h - 144585 * j1**3 * j2**3 * j3**2 * h
            + 131220 * j1**3 * j2**2 * j3**3 * h + 4995 * j1**2 * j2**6 * h
            - 14580 * j1**2 * j2**5 * j3 * h - 599724 * j1**5 * j2**2 * h**2
            + 3598344 * j1**5 * j2 * j3 * h**2 - 5397516 * j1**5 * j3**2 * h**2
            + 4175226 * j1**4 * j2**3 * h**2 - 15390648 * j1**4 * j2**2 * j3 * h**2
            + 4898880 * j1**4 * j2 * j3**2 * h**2 - 1961496 * j1**3 * j2**4 * h**2
            + 87392520 * j1**6 * h**3 - 881798400 * j1**5 * j2 * h**3
            - 1259712000 * j1**5 * j3 * h**3)


def _phi_q(j1, j2, j3, h=1):
    return j1**5 * (
        j2**4 * j1**3 - 12 * j1**3 * j2**3 * j3 + 54 * j1**3 * j2**2 * j3**2
        - 108 * j1**3 * j2 * j3**3 + 81 * j1**3 * j3**4 + 78 * j2**5 * j1**2
        - 1332 * j1**2 * j2**4 * j3 + 8910 * j1**2 * j2**3 * j3**2
        - 29376 * j1**2 * j2**2 * j3**3 + 47952 * j1**2 * j2 * j3**4
        - 31104 * j1**2 * j3**5 - 159 * j1 * j2**6 + 1728 * j1 * j2**5 * j3
        - 6048 * j1 * j2**4 * j3**2 + 6912 * j1 * j2**3 * j3**3 + 80 * j2**7
        - 384 * j2**6 * j3 - 972 * j1**4 * j2**2 * h + 5832 * j1**4 * j2 * j3 * h
        - 8748 * j1**4 * j3**2 * h - 77436 * j1**3 * j2**3 * h
        + 870912 * j1**3 * j2**2 * j3 * h - 3090960 * j1**3 * j2 * j3**2 * h
        + 3499200 * j1**3 * j3**3 * h + 592272 * j2**4 * j1**2 * h
        - 4743360 * j1**2 * j2**3 * j3 * h + 9331200 * j1**2 * j2**2 * j3**2 * h
        - 41472 * j1 * j2**5 * h + 236196 * j1**5 * h**2
        + 19245600 * j2 * j1**4 * h**2 - 104976000 * j1**4 * j3 * h**2
        - 507384000 * j2**2 * j1**3 * h**2 + 2099520000 * j1**3 * j2 * j3 * h**2
        + 125971200000 * j1**4 * h**3)


def is_rational_square(v):
    """Whether a Fraction (or int) is the square of a rational."""
    v = Fraction(v)
    if v < 0:
        return False
    n, d = v.numerator, v.denominator
    return isqrt(n) ** 2 == n and isqrt(d) ** 2 == d


# j_image is an AbsoluteInvariants; N_squared = Q(tau') / (2^210 3^132 Q(tau)^3)
PhiResult = namedtuple("PhiResult", "j_image K L M N_squared psi4_image "
                       "psi6_image chi10_image chi12_image Q_source Q_image")


def _phi_components(mv, kv, wv, den):
    """j' = (64 m^5, 4 m^3 k, m^2 w) / (729 q), the explicit rational
    components, from the homogenized values and den = 729 h^3 q."""
    return AbsoluteInvariants(Fraction(64 * mv**5, den),
                              Fraction(4 * mv**3 * kv, den),
                              Fraction(mv**2 * wv, den))


def phi_map(j, point=None, sextic=None):
    """The moduli map on absolute invariants, with its built-in oracle.

    Evaluates the explicit rational components and, side by side, the
    direct route (the invariants of the Satake sextic); any disagreement
    raises IdentityViolationError.  Requires j1 != 0 and the denominator
    polynomial q != 0.

    The components are evaluated on homogeneous integer coordinates
    (J1, J2, J3, h) of j and divided by their powers of h once.  The direct
    route runs on the integral point of j: ``point``, the ``IgusaPoint`` of
    the curve (I_k = I_k' / u^k), and ``sextic``, the ``SatakeSextic`` of
    its Siegel point s of unit v = 12 u, or else both built from j at
    I2 = 1 (``igusa_from_absolute``).  The image invariants are those of F
    in X = v^2 x: I2, I4 and I6 by transvectants over Z
    (``even_invariants``) and I10 = disc(F).  The printed values keep the
    normalization I2 = 1 of the source, which moves the Satake roots x_i
    to x_i / I2 = X_i / e, with e = 144 I2' the source I2 over v: a source
    value of weight w is s_w' / e^(w/2), and an image value of weight k is
    I_k(F) / e^(3k).  The six identities, then j' against the direct
    route, are compared over Z by cross-multiplication; only the printed
    values are reduced.
    """
    if j.j1 == 0:
        raise DomainError("j1 = 0: moduli map undefined (I2 = 0 locus)")
    h, (J1, J2, J3) = integral_representative(j.astuple(), (1, 1, 1))
    qv = _phi_q(J1, J2, J3, h)      # h^12 q(j)
    if qv == 0:
        raise DegeneratePointError(
            "denominator q = 0: point lies on the chi35 vanishing divisor")
    mv = _phi_m(J1, J2, J3, h)      # h^3 m(j)
    kv = _phi_k(J1, J2, J3, h)      # h^6 k(j)
    wv = _phi_w(J1, J2, J3, h)      # h^9 w(j)
    j_image = _phi_components(mv, kv, wv, 729 * h**3 * qv)

    # direct route: the image's invariants and its Siegel point over
    # 12 |e|^3 (the weights are even), and the source's Q and M, of
    # weights 60 and 12, over v
    if point is None:
        point = IgusaPoint.of(igusa_from_absolute(j))
        sextic = SatakeSextic(siegel=point.siegel())
    s, e = sextic.siegel, 144 * point.I2
    I2, I4, I6 = even_invariants(sextic.F.coeffs)
    I10 = sextic.discriminant().numerator
    img = IgusaPoint(abs(e) ** 3, I2, I4, I6, I10).siegel()
    Q = s.q()
    p4, p6, _, c12 = s.astuple()
    M = p4**3 - p6**2 + 2**13 * 3**4 * 5 * c12

    # the proof-side scalings, on the integers of both points
    if img.chi10 != -(2**38) * 3**21 * 12**10 * Q:
        raise IdentityViolationError("chi10(tau') scaling fails")
    if img.chi12 != 2**40 * 3**23 * 12**12 * Q * M:
        raise IdentityViolationError("chi12(tau') = 2^40 3^23 Q M fails")
    # appendix polynomials versus the proof-side weight-0 reductions at
    # I2 = 1, multiplied through by the powers of h and of e: K = psi4' /
    # (2^4 3^6) and L = -psi6' / (2^6 3^9), psi_w' = img_w / (12 e^3)^w
    if mv * e**6 != 2**6 * J1**3 * M:
        raise IdentityViolationError("m-polynomial disagrees with 2^6 j1^3 M / I2^6")
    if kv * 3**10 * e**12 != J1**6 * img.psi4:
        raise IdentityViolationError("k-polynomial disagrees with 2^12 j1^6 K / I2^12")
    if (3 * wv - 4 * kv * mv) * 3**15 * e**18 != -J1**9 * img.psi6:
        raise IdentityViolationError("g3 factor disagrees with (l + 4 k m)/3")
    if qv * h**3 * e**30 != 2**63 * J1**15 * Q:
        raise IdentityViolationError("q-polynomial disagrees with 2^63 j1^15 Q / I2^30")
    # and j' = (I2^5, I4 I2^3, I6 I2^2) / I10 at the image
    if any(p.numerator * I10 != p.denominator * v for p, v in
           zip(j_image.astuple(), (I2**5, I4 * I2**3, I6 * I2**2))):
        raise IdentityViolationError(
            "moduli-map components disagree with the direct invariant route")

    image = img.reduced()
    Q_src = Fraction(Q, e**30)
    Q_img = q_form(image)
    return PhiResult(
        j_image=j_image,
        K=image.psi4 / (2**4 * 3**6), L=-image.psi6 / (2**6 * 3**9),
        M=Fraction(M, e**6),
        N_squared=Q_img / (2**210 * 3**132 * Q_src**3),
        psi4_image=image.psi4, psi6_image=image.psi6,
        chi10_image=image.chi10, chi12_image=image.chi12,
        Q_source=Q_src, Q_image=Q_img,
    )
