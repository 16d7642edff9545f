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

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import comb, isqrt, lcm

from .errors import (DegeneratePointError, DomainError, IdentityViolationError,
                     InversionSingularError)
from .igusa import (IGUSA_WEIGHTS, SIEGEL_WEIGHTS, AbsoluteInvariants,
                    IgusaInvariants, absolute_invariants,
                    igusa_from_absolute, igusa_from_rosenhain, igusa_from_sextic,
                    q_form, siegel_from_igusa, _exact)
from .qpoly import Poly, discriminant, integral_representative
from .theta import (rosenhain_from_theta, rosenhain_from_theta4,
                    satake_from_theta, theta4_from_satake)


# ---------------------------------------------------------------------------
# power sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PowerSums:
    """s_1..s_6 of the six Satake coordinates; s1 = 0 and s4 = s2^2/4."""

    s2: object
    s3: object
    s5: object
    s6: object

    @property
    def s1(self):
        return 0

    @property
    def s4(self):
        s2 = _exact(self.s2)
        return s2 * s2 / 4

    def astuple(self):
        return (self.s1, self.s2, self.s3, self.s4, self.s5, self.s6)


def _on_representative(body, values, weights, out_weights):
    """``body`` (weighted homogeneous) at a weighted point: evaluated on
    its integer representative and divided by r^w once per output, or
    directly on non-exact (complex, GaussianRational) values."""
    rep = integral_representative(values, weights)
    if rep is None:
        return body(*(_exact(v) for v in values))
    r, ints = rep
    return tuple(Fraction(v) / r**w for v, w in zip(body(*ints), out_weights))


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


def power_sums_from_igusa(inv):
    return PowerSums(*_on_representative(
        _power_sums_igusa, inv.astuple(), IGUSA_WEIGHTS, SIEGEL_WEIGHTS))


def power_sums_from_siegel(s):
    """The same power sums as polynomials in the form values, so they stay
    defined on chi10 = 0, where the Igusa invariants are not."""
    return PowerSums(*_on_representative(
        _power_sums_siegel, s.astuple(), SIEGEL_WEIGHTS, SIEGEL_WEIGHTS))


def igusa_from_power_sums(ps):
    """Invert power_sums_from_igusa; needs 5 s2 s3 - 12 s5 != 0."""
    s2, s3, s5, s6 = (_exact(v) for v in (ps.s2, ps.s3, ps.s5, ps.s6))
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
    b = [Fraction(1)]
    for n in range(1, i + 1):
        b.append(sum(comb(n - 1, k) * b[n - 1 - k] * _exact(z[k])
                     for k in range(n)))
    return b[i]


def satake_sextic(ps, s4=None):
    """The monic sextic with the Satake coordinates as roots.

    Both the Bell-polynomial expansion and the closed form are computed;
    any coefficient mismatch is a broken s1/s4 constraint and raises
    IdentityViolationError.  ``s4`` overrides ``ps.s4`` (which is s2^2/4
    by construction), so that power sums given by a caller are checked.
    """
    s2, s3, s5, s6 = (_exact(v) for v in (ps.s2, ps.s3, ps.s5, ps.s6))
    s1, s4 = _exact(ps.s1), _exact(ps.s4 if s4 is None else s4)

    z = [s1, -s2, 2 * s3, -6 * s4, 24 * s5, -120 * s6]
    bell_coeffs = [Fraction(1)]  # x^6 downwards
    fact = 1
    for i in range(1, 7):
        fact *= i
        bell_coeffs.append(Fraction((-1) ** i, fact) * complete_bell(i, z))
    bell_poly = Poly(list(reversed(bell_coeffs)))

    cube = Poly([-s3 / 6, -s2 / 4, 0, 1])
    closed = cube * cube + Poly([s2**3 / 96 + s3**2 / 36 - s6 / 6,
                                 s2 * s3 / 12 - s5 / 5])

    if bell_poly != closed:
        raise IdentityViolationError(
            "Bell-polynomial and closed-form sextics disagree; "
            "power sums violate s1 = 0 or s2^2 = 4 s4")
    return closed


def satake_sextic_from_siegel(s):
    """(x^3 - 3 psi4 x - 2 psi6)^2 + 2^14 3^5 (chi10 x - 3 chi12).

    Defined for all form values, including chi10 = 0.
    """
    p4, p6, c10, c12 = (_exact(v) for v in s.astuple())
    cube = Poly([-2 * p6, -3 * p4, 0, 1])
    return cube * cube + Poly([-3 * 2**14 * 3**5 * c12, 2**14 * 3**5 * c10])


def satake_discriminant_identity(inv):
    """Check disc(f) = 2^52 3^21 Q exactly; returns both sides."""
    f = satake_sextic(power_sums_from_igusa(inv))
    lhs = discriminant(f)
    rhs = 2**52 * 3**21 * q_form(siegel_from_igusa(inv))
    if lhs != rhs:
        raise IdentityViolationError(
            f"discriminant identity fails: disc(f) = {lhs}, "
            f"2^52 3^21 Q = {rhs}")
    return lhs, rhs


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


def theta_power_sum_consistency(tc):
    """Match theta-side and curve-side power sums up to one weight rescaling.

    The Satake coordinates built from theta constants and the power sums
    of the Rosenhain curve they determine describe the same surface in
    two normalizations of the sextic model, related by s_j -> r^(2j) s_j
    for a single r^2.  That factor is solved from the s3/s2 ratios and
    the remaining ratios are checked against its powers.

    Returns (r_squared, max relative residual over j in {2, 3, 5, 6}).
    """
    coords = satake_from_theta(tc)
    lams = rosenhain_from_theta(tc)
    curve = power_sums_from_igusa(igusa_from_rosenhain(*lams))
    ratios = {}
    for j, ref in ((2, curve.s2), (3, curve.s3), (5, curve.s5), (6, curve.s6)):
        if ref == 0:
            raise DegeneratePointError(f"curve power sum s{j} vanishes")
        ratios[j] = coords.power_sum(j) / complex(ref)
    r2 = ratios[3] / ratios[2]
    worst = max(abs(ratios[j] - r2**j) / abs(r2**j) for j in ratios)
    return r2, worst


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


@dataclass(frozen=True)
class PhiResult:
    j_image: AbsoluteInvariants
    K: object
    L: object
    M: object
    N_squared: object           # Q(tau') / (2^210 3^132 Q(tau)^3)
    psi4_image: object
    psi6_image: object
    chi10_image: object
    chi12_image: object
    Q_source: object
    Q_image: object


def phi_map(j):
    """The moduli map on absolute invariants, with its built-in oracle.

    Evaluates the explicit rational components and, side by side, the
    direct route (build the sextic, take its invariants); any
    disagreement raises IdentityViolationError.  Requires j1 != 0 and
    the denominator polynomial q != 0.

    The components are evaluated on homogeneous integer coordinates
    (J1, J2, J3, h) of j and divided by their powers of h once; the
    direct route runs on integer representatives inside the power sums,
    the sextic invariants and Q.
    """
    j1, j2, j3 = (Fraction(v) for v in j.astuple())
    if j1 == 0:
        raise DomainError("j1 = 0: moduli map undefined (I2 = 0 locus)")
    h = lcm(j1.denominator, j2.denominator, j3.denominator)
    J1, J2, J3 = (v.numerator * (h // v.denominator) for v in (j1, j2, j3))
    qv = _phi_q(J1, J2, J3, h)      # h^12 q(j)
    if qv == 0:
        raise DegeneratePointError(
            "denominator q = 0: point lies on the chi35 vanishing divisor")
    mv = _phi_m(J1, J2, J3, h)      # h^3 m(j)
    kv = _phi_k(J1, J2, J3, h)      # h^6 k(j)
    wv = _phi_w(J1, J2, J3, h)      # h^9 w(j)
    den = 729 * h**3 * qv
    j1p = Fraction(64 * mv**5, den)
    j2p = Fraction(4 * mv**3 * kv, den)
    j3p = Fraction(mv**2 * wv, den)

    # direct route
    inv = igusa_from_absolute(j)
    f = satake_sextic(power_sums_from_igusa(inv))
    inv_f = igusa_from_sextic(f)
    j_direct = absolute_invariants(inv_f)
    if (j1p, j2p, j3p) != j_direct.astuple():
        raise IdentityViolationError(
            "moduli-map components disagree with the direct invariant route: "
            f"{(j1p, j2p, j3p)} vs {j_direct.astuple()}")

    # image form values and the proof-side scalings
    src = siegel_from_igusa(inv)
    img = siegel_from_igusa(inv_f)
    Q_src = q_form(src)
    Q_img = q_form(img)
    K = img.psi4 / Fraction(2**4 * 3**6)
    L = -img.psi6 / Fraction(2**6 * 3**9)
    M = src.psi4**3 - src.psi6**2 + 2**13 * 3**4 * 5 * src.chi12
    if img.chi10 != -(2**38) * 3**21 * Q_src:
        raise IdentityViolationError("chi10(tau') scaling fails")
    if img.chi12 != 2**40 * 3**23 * Q_src * M:
        raise IdentityViolationError("chi12(tau') = 2^40 3^23 Q M fails")
    # appendix polynomials versus the proof-side weight-0 reductions at
    # I2 = 1, multiplied through by the powers of h
    if mv != 2**6 * J1**3 * M:
        raise IdentityViolationError("m-polynomial disagrees with 2^6 j1^3 M / I2^6")
    if kv != 2**12 * J1**6 * K:
        raise IdentityViolationError("k-polynomial disagrees with 2^12 j1^6 K / I2^12")
    if 3 * wv != 2**18 * J1**9 * L + 4 * kv * mv:
        raise IdentityViolationError("g3 factor disagrees with (l + 4 k m)/3")
    if qv * h**3 != 2**63 * J1**15 * Q_src:
        raise IdentityViolationError("q-polynomial disagrees with 2^63 j1^15 Q / I2^30")

    n_sq = Q_img / (2**210 * 3**132 * Q_src**3)
    return PhiResult(
        j_image=AbsoluteInvariants(j1p, j2p, j3p),
        K=K, L=L, M=M, N_squared=n_sq,
        psi4_image=img.psi4, psi6_image=img.psi6,
        chi10_image=img.chi10, chi12_image=img.chi12,
        Q_source=Q_src, Q_image=Q_img,
    )
