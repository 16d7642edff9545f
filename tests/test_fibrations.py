import cmath
import math
from fractions import Fraction as F

import pytest

from g2satake.errors import DomainError, IdentityViolationError, NonMinimalModelError
from g2satake.fibrations import (INFINITY, FibrationParams, KodairaFiber,
                                 QuarticModel, WeierstrassModel, alternate_model,
                                 alternate_model_ftheory, classify_fibers,
                                 degeneration_predicates, dual_isogeny,
                                 euler_number, isogeny, kodaira_type,
                                 kumfib2_model, kummer_quartic_model,
                                 nikulin_involution, qvanish_bracket, radicand,
                                 standard_model, type_iii_siegel_identity,
                                 _integral_factor, _integral_model,
                                 _integral_short_form)
from g2satake.igusa import (IgusaInvariants, IgusaPoint, SiegelForms,
                            igusa_from_rosenhain, igusa_from_sextic,
                            rosenhain_poly, rosenhain_thomae, siegel_from_igusa)
from g2satake.qpoly import Poly, integer_gcd, integer_squarefree, primitive_part
from g2satake.satake import SatakeSextic, power_sums_from_igusa, satake_sextic
from conftest import (Q0_LAMBDAS, lambdas_of_height, random_lambdas,
                      satake_in_x, satake_on_point, seeded_integer_points)
from oracle_invariants import qvanish_expanded

EVEN_SEXTIC = Poly.from_roots([F(1), F(-1), F(2), F(-2), F(3), F(-3)])


def params_for(*lams):
    return FibrationParams.from_igusa(igusa_from_rosenhain(*lams))


def test_kodaira_table_rows():
    assert kodaira_type(0, 0, 3) == "I3"
    assert kodaira_type(1, 1, 2) == "II"
    assert kodaira_type(1, 2, 3) == "III"
    assert kodaira_type(2, 2, 4) == "IV"
    assert kodaira_type(2, 3, 6) == "I0*"
    assert kodaira_type(2, 4, 6) == "I0*"
    assert kodaira_type(2, 3, 11) == "I5*"
    assert kodaira_type(3, 4, 8) == "IV*"
    assert kodaira_type(3, 5, 9) == "III*"
    assert kodaira_type(4, 5, 10) == "II*"
    with pytest.raises(NonMinimalModelError):
        kodaira_type(4, 6, 12)
    assert euler_number("I0*") == 6
    assert euler_number("I10*") == 16
    assert euler_number("II*") == 10


def test_short_form_trivial_and_constant_family():
    m = WeierstrassModel(A=Poly(), B=Poly(), C=Poly())
    g2, g3 = m.short_form()
    assert g2.is_zero() and g3.is_zero()
    smooth = WeierstrassModel(A=Poly(), B=Poly([1]), C=Poly())
    g2, g3 = smooth.short_form()
    assert not (g2**3 - 27 * g3**2).is_zero()
    with pytest.raises(DomainError):
        classify_fibers(smooth)   # discriminant is a nonzero constant: no fibration over t


def test_rational_elliptic_surface_example():
    m = WeierstrassModel(A=Poly(), B=Poly([0, 1]), C=Poly([0, 1]))
    census = classify_fibers(m)
    types = {(f.fiber_type, str(f.location)) for f in census.fibers}
    assert types == {("II", "0"), ("I1", "-27/4"), ("III*", "infinity")}
    assert census.euler_sum == 12
    # denominators spread over the coefficients with no weighting in t: the
    # census is that of the integral rescaling x -> x / s, s their product
    A = Poly([0, F(2, 5), F(-1, 2)])
    B = Poly([0, 0, F(-3, 7), 0, F(1, 3)])
    C = Poly([0, 0, 0, F(5, 11), F(1, 13), F(-2, 9)])
    s = math.prod(c.denominator for p in (A, B, C) for c in p.coeffs)
    census = classify_fibers(WeierstrassModel(A=A, B=B, C=C))
    integral = classify_fibers(WeierstrassModel(A=A * s, B=B * s**2, C=C * s**3))
    assert [(f.fiber_type, f.orders, f.count) for f in census.fibers] == \
        [(f.fiber_type, f.orders, f.count) for f in integral.fibers] == \
        [("I0*", (2, 3, 6), 1), ("I1", (0, 0, 1), 6)]
    assert census == integral


def test_classification_rejects_inexact_coefficients():
    # the census is a statement over Q; there is no numeric classifier
    for c in (1.0 + 0j, 1.0):
        m = WeierstrassModel(A=Poly(), B=Poly([0, c]), C=Poly([0, c]))
        with pytest.raises(DomainError):
            classify_fibers(m)


@pytest.mark.parametrize("lams", [(2.0, 3.0, 5.0), (2 + 1j, 3, 5)], ids=str)
def test_inexact_kummer_quartic_is_rejected(lams):
    # the quartic invariants, like the census, are exact only
    with pytest.raises(DomainError):
        kummer_quartic_model(*lams).quartic_invariants()
    with pytest.raises(DomainError):
        classify_fibers(kummer_quartic_model(*lams).jacobian_model())


def test_kumfib2_census(rng):
    for _ in range(3):
        inv = igusa_from_rosenhain(*random_lambdas(rng, 12))
        census = classify_fibers(kumfib2_model(inv))
        assert census.type_multiset() == {"I2": 6, "I5*": 1, "I1": 1}
        assert census.euler_sum == 24


def test_alternate_census(rng):
    for _ in range(3):
        inv = igusa_from_rosenhain(*random_lambdas(rng, 12))
        census = classify_fibers(alternate_model(FibrationParams.from_igusa(inv)))
        assert census.type_multiset() == {"I1": 6, "I10*": 1, "I2": 1}
        assert census.euler_sum == 24


def test_alternate_ftheory_census(rng):
    inv = igusa_from_rosenhain(*random_lambdas(rng, 12))
    census = classify_fibers(alternate_model_ftheory(siegel_from_igusa(inv)))
    assert census.type_multiset() == {"I1": 6, "I10*": 1, "I2": 1}


def test_standard_census(rng):
    for _ in range(3):
        inv = igusa_from_rosenhain(*random_lambdas(rng, 12))
        census = classify_fibers(standard_model(FibrationParams.from_igusa(inv)))
        assert census.type_multiset() == {"I1": 5, "II*": 1, "III*": 1}
        assert census.euler_sum == 24


def test_standard_degenerates_with_e_zero():
    # t^7 divides Delta at 0; the K3 census collapses to a rational
    # elliptic surface and the II* fiber at infinity disappears
    p = params_for(2, 3, 5)
    bad = FibrationParams(a=p.a, b=p.b, c=p.c, d=p.d, e=F(0))
    census = classify_fibers(standard_model(bad))
    assert census.euler_sum == 12
    assert not census.has_type("II*")


def test_kummer_quartic_census(rng):
    lams = random_lambdas(rng, 8)
    model = kummer_quartic_model(*lams).jacobian_model()
    census = classify_fibers(model)
    assert census.type_multiset() == {"I2": 6, "I0*": 2}
    assert census.euler_sum == 6 * 2 + 2 * 6


def test_kummer_quartic_i2_locations():
    # collisions of the four X-roots happen at t = l_i and t = l_i l_j
    lams = (F(2), F(3), F(5))
    census = classify_fibers(kummer_quartic_model(*lams).jacobian_model())
    locs = {str(f.location) for f in census.fibers if f.fiber_type == "I2"}
    assert locs == {"2", "3", "5", "6", "10", "15"}


def test_kummer_quartic_i2_locations_at_30_digits(rng):
    # the same six I2 fibers, found exactly however tall the lambdas are
    lo, hi = 10**29, 10**30 - 1
    lams = [F(rng.choice((-1, 1)) * rng.randint(lo, hi), rng.randint(lo, hi))
            for _ in range(3)]
    census = classify_fibers(kummer_quartic_model(*lams).jacobian_model())
    i2 = [f for f in census.fibers if f.fiber_type == "I2"]
    l1, l2, l3 = lams
    assert {f.location for f in i2} == {l1, l2, l3, l1 * l2, l1 * l3, l2 * l3}
    assert all(f.count == 1 for f in i2)
    assert census.type_multiset() == {"I2": 6, "I0*": 2}


def test_alternate_i2_is_an_exact_location_at_every_height(rng):
    # the I2 fiber sits at t = -d/c = I2/24; it is reported as a rational
    # location, not as a degree-1 cluster, at every input height
    for digits in (2, 10, 30):
        lo, hi = 10 ** (digits - 1), 10**digits - 1
        lams = [F(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(3)]
        inv = igusa_from_rosenhain(*lams)
        census = classify_fibers(alternate_model(FibrationParams.from_igusa(inv)))
        (i2,) = [f for f in census.fibers if f.fiber_type == "I2"]
        assert i2.location == F(inv.I2) / 24


def test_kumfib2_b_coefficient_is_satake_sextic(rng):
    for _ in range(3):
        inv = igusa_from_rosenhain(*random_lambdas(rng, 12))
        f = satake_sextic(power_sums_from_igusa(inv))
        sub = f(Poly([0, F(-3)]))   # f(-3t)
        assert 729 * kumfib2_model(inv).B == sub
        assert 729 * radicand(FibrationParams.from_igusa(inv)) == sub


def test_kumfib2_unit_invariants_b_coefficient():
    inv_b = kumfib2_model(igusa_from_rosenhain(2, 3, 5).__class__(0, 0, 0, 1)).B
    assert inv_b == Poly([0, 1, 0, 0, 0, 0, 1])  # t^6 + t


def test_alternate_discriminant_factorization(rng):
    p = params_for(*random_lambdas(rng, 10))
    g2, g3 = alternate_model(p).short_form()
    delta = g2**3 - 27 * g3**2
    lin = p.linear()
    expected = 16 * p.e**2 * lin * lin * radicand(p)
    # both Delta conventions differ by the fixed factor 16^2 = 256... compare ratios
    assert delta * expected.lead() == expected * delta.lead() or \
        delta == expected * F(delta.lead(), expected.lead())


def test_sextic_recovery_limit(rng):
    for _ in range(4):
        lams = random_lambdas(rng, 10)
        assert kummer_quartic_model(*lams).sextic_limit() == rosenhain_poly(*lams)


def test_sextic_limit_rejects_a_surviving_negative_eps_power():
    # t^6 X^0 scales to eps^(10 - 12): the limit does not exist
    t6 = Poly([0, 0, 0, 0, 0, 0, 1])
    model = QuarticModel(coeffs=(t6, Poly(), Poly(), Poly(), Poly()))
    with pytest.raises(IdentityViolationError):
        model.sextic_limit()


def test_isogeny_images_exact(rng):
    inv = igusa_from_rosenhain(2, 3, 5)
    p = FibrationParams.from_igusa(inv)
    alt, kum = alternate_model(p), kumfib2_model(inv)
    checked = 0
    while checked < 4:
        t0 = F(rng.randint(-9, 9), rng.randint(1, 4))
        x0 = F(rng.randint(1, 9), rng.randint(1, 4))
        v = alt.rhs(t0, x0)          # y^2 on the fiber
        if v == 0:
            continue
        w = p.e * (p.c * t0 + p.d) - x0 * x0
        X = v / (x0 * x0)
        Y2 = v * w * w / x0**4
        assert Y2 == kum.rhs(t0, X)
        # dual image back on the alternate curve, with duplication x
        radv = radicand(p)(t0)
        x2 = Y2 / (4 * X * X)
        y2_back = Y2 * (radv - X * X) ** 2 / (64 * X**4)
        assert y2_back == alt.rhs(t0, x2)
        Bv = p.e * (p.c * t0 + p.d)
        assert x2 == (x0 * x0 - Bv) ** 2 / (4 * v)
        checked += 1


def test_isogeny_point_interface():
    inv = igusa_from_rosenhain(2, 3, 5)
    p = FibrationParams.from_igusa(inv)
    assert isogeny((0, 0), F(1), p) == INFINITY
    assert isogeny(INFINITY, F(1), p) == INFINITY
    assert dual_isogeny((0, 17), F(1), p) == INFINITY
    t0, x0 = F(1, 2), F(5, 3)
    y0 = cmath.sqrt(complex(alternate_model(p).rhs(t0, x0)))
    X, Y = isogeny((x0, y0), t0, p)
    X_exact = F(X.real).limit_denominator(10**12)
    assert abs(Y**2 - complex(kumfib2_model(inv).rhs(t0, X_exact))) \
        <= 1e-9 * (1 + abs(Y) ** 2)


def test_nikulin_involution_properties(rng):
    p = params_for(2, 3, 5)
    alt = alternate_model(p)
    t0, x0 = F(1, 2), F(5, 3)
    v = alt.rhs(t0, x0)
    w = p.e * (p.c * t0 + p.d)
    # image on curve, exactly
    assert v * w * w / x0**4 == alt.rhs(t0, w / x0)
    # applying twice is the identity
    y0 = cmath.sqrt(complex(v))
    q1 = nikulin_involution((x0, y0), t0, p)
    q2 = nikulin_involution(q1, t0, p)
    assert abs(q2[0] - complex(x0)) < 1e-9 * (1 + abs(complex(x0)))
    assert abs(q2[1] - y0) < 1e-9 * (1 + abs(y0))
    # x = 0 goes to the section at infinity
    assert nikulin_involution((0, 0), t0, p) == INFINITY
    # a point with x^2 = w and y != 0 flips the sign of y
    fx = cmath.sqrt(complex(w))
    fy = cmath.sqrt(complex(alt.rhs(t0, F(fx.real).limit_denominator(10**9))))
    img = nikulin_involution((fx, fy), t0, p)
    assert abs(img[0] - fx) < 1e-6 * (1 + abs(fx))
    assert abs(img[1] + fy) < 1e-6 * (1 + abs(fy))


def test_nikulin_fixed_points_are_nodes(rng):
    # on the fixed locus x^2 = w := e(ct+d) the curve value is
    # y^2 = w (2x + A); it vanishes together with x^2 = w exactly when
    # A^2 = 4w, i.e. over a root of the I1-position sextic.  Build
    # parameters with a rational such root and check the fixed point is
    # the node there, exactly.
    base = params_for(2, 3, 5)
    t0 = F(3, 2)
    lin0 = base.c * t0 + base.d
    e = base.cubic()(t0) ** 2 / (4 * lin0)
    p = FibrationParams(a=base.a, b=base.b, c=base.c, d=base.d, e=e)
    alt = alternate_model(p)
    assert radicand(p)(t0) == 0
    w = p.e * lin0
    x_fix = -base.cubic()(t0) / 2
    assert x_fix**2 == w                      # on the fixed locus
    assert alt.rhs(t0, x_fix) == 0            # and it is the node (y = 0)
    assert nikulin_involution((x_fix, F(0)), t0, p) == (x_fix, F(0))
    # off the I1 locus the fixed-x point has y != 0 and is not fixed
    t1 = F(5, 2)
    w1 = p.e * (p.c * t1 + p.d)
    y2 = w1 * (2 * x_fix + p.cubic()(t1)) + (x_fix**2 - w1) * (
        x_fix + p.cubic()(t1))   # = rhs(t1, x_fix), expanded around x^2 = w1
    assert y2 == alt.rhs(t1, x_fix)


def test_degeneration_predicates_even_sextic():
    inv = igusa_from_sextic(EVEN_SEXTIC)
    p = FibrationParams.from_igusa(inv)
    flags = degeneration_predicates(p)
    assert flags["su2_enhancement"] is True
    census = classify_fibers(alternate_model(p))
    assert census.type_multiset() == {"I1": 4, "I2": 2, "I10*": 1}
    assert census.euler_sum == 24


def test_degeneration_predicates_generic():
    p = params_for(2, 3, 5)
    assert degeneration_predicates(p) == {
        "su2_enhancement": False, "type_III": False, "so32_enhancement": False}


def test_chi10_zero_gives_i12star():
    s = SiegelForms(F(3), F(5), F(0), F(7))
    census = classify_fibers(alternate_model_ftheory(s))
    assert census.has_type("I12*")
    assert census.euler_sum == 24
    p = FibrationParams(a=F(1), b=F(2), c=F(-1), d=F(3), e=F(0))
    assert degeneration_predicates(p)["so32_enhancement"] is True


def test_qvanish_bracket_matches_radicand_discriminant(rng):
    for _ in range(4):
        vals = [F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(5)]
        if vals[4] == 0:
            continue
        degeneration_predicates(FibrationParams(*vals))   # raises on a mismatch


@pytest.mark.parametrize("digits", [2, 10, 30])
def test_integer_bracket_matches_its_fraction_value(rng, digits):
    from g2satake.fibrations import _qvanish_form

    p = params_for(*lambdas_of_height(rng, digits))
    for q in (p, p._replace(e=0), p._replace(c=F(2, 3)), p._replace(c=5),
              p._replace(b=0, d=F(1, 7**digits))):
        assert qvanish_bracket(q) == _qvanish_form(*map(F, q))


def test_bracket_rejects_inexact_parameters():
    p = params_for(2, 3, 5)
    for field in ("a", "c"):   # a weighted field, and c of weight 0
        with pytest.raises(DomainError):
            qvanish_bracket(p._replace(**{field: 0.5 + 1j}))


def test_type_iii_siegel_identity(rng):
    for _ in range(4):
        inv = igusa_from_rosenhain(*random_lambdas(rng, 10))
        lhs, rhs = type_iii_siegel_identity(FibrationParams.from_igusa(inv),
                                            siegel_from_igusa(inv))
        assert lhs == rhs


def test_failed_degeneration_identities_raise(monkeypatch):
    import g2satake.fibrations as fib

    p = params_for(2, 3, 5)
    other = siegel_from_igusa(igusa_from_rosenhain(2, 3, 7))
    with pytest.raises(IdentityViolationError, match="type-III"):
        type_iii_siegel_identity(p, other)
    form = fib._qvanish_form
    monkeypatch.setattr(fib, "_qvanish_form", lambda *v: form(*v) + 1)
    for sextic in (None, satake_in_x((2, 3, 5))):
        with pytest.raises(IdentityViolationError, match="bracket"):
            degeneration_predicates(p, sextic)


def test_standard_to_alternate_birational_transform(rng):
    # (t,x,y)_std = (x/e, t x^2/e^2, -x^2 y/e^3)_alt turns the standard
    # equation into x^4/e^6 times the alternate one.
    for _ in range(4):
        p = params_for(*random_lambdas(rng, 8))
        t = F(rng.randint(1, 9), rng.randint(1, 3))
        x = F(rng.randint(1, 9), rng.randint(1, 3))
        u = alternate_model(p).rhs(t, x)      # = y^2 on the alternate fiber
        ts, xs = x / p.e, t * x * x / p.e**2
        us = x**4 * u / p.e**6                # = y_std^2 under the transform
        assert us == standard_model(p).rhs(ts, xs)


def test_inose_quartic_substitutions(rng):
    # the projective quartic behind both fibrations, checked as an identity:
    # plugging the alternate (resp. standard) substitution plus the curve
    # value of y^2 into the quartic gives exactly zero.
    def inose(X, Y2, Z, W, al, be, ga, de):
        return (Y2 * Z * W - 4 * X**3 * Z + 3 * al * X * Z * W**2
                + be * Z * W**3 + ga * X * Z**2 * W
                - F(1, 2) * (de * Z**2 * W**2 + W**4))

    for _ in range(3):
        lams = random_lambdas(rng, 8)
        inv = igusa_from_rosenhain(*lams)
        s = siegel_from_igusa(inv)
        p = FibrationParams.from_igusa(inv)
        al, be = s.psi4, s.psi6
        ga, de = 2**12 * 3**5 * s.chi10, 2**12 * 3**6 * s.chi12
        t = F(rng.randint(1, 7), rng.randint(1, 3))
        x = F(rng.randint(1, 7), rng.randint(1, 3))
        u = alternate_model(p).rhs(t, x)
        X = t * x**3 / F(2**29 * 3**5)
        Y2 = -6 * x**4 * u / F(2**58 * 3**10)    # (sqrt6 i x^2 y / 2^29 3^5)^2
        W = -(x**3) / F(2**28 * 3**6)
        Z = x**2 / F(2**28 * 3**9)
        assert inose(X, Y2, Z, W, al, be, ga, de) == 0
        u_std = standard_model(p).rhs(t, x)
        Xs = -(2**7) * s.chi10**3 * t * x / F(3**5)
        Y2s = -6 * 2**14 * s.chi10**6 * u_std / F(3**10)
        Ws = 2**8 * s.chi10**3 * t**3 / F(3**6)
        Zs = s.chi10**2 * t**2 / F(2**4 * 3**9)
        assert inose(Xs, Y2s, Zs, Ws, al, be, ga, de) == 0


# ---------------------------------------------------------------------------
# the discriminant of y^2 = x (x^2 + A x + B), from B and A^2 - 4B
# ---------------------------------------------------------------------------


def _generic_squarefree(A, B, C):
    """The reference route: expand D = 4 G2^3 + G3^2 and decompose it."""
    g2 = 3 * B - A * A
    g3 = 2 * A * A * A - 9 * A * B + 27 * C
    delta = 4 * g2 * g2 * g2 + g3 * g3
    return integer_squarefree(primitive_part(delta)), delta.degree()


def assert_census_covers(model, parts):
    """Each squarefree part (g, d) of the expanded discriminant of
    ``_integral_model`` is covered by the finite fibers with v(Delta) = d:
    they lie on g, and their counts add up to deg g."""
    census = classify_fibers(model)
    counts = {}
    for f in census.fibers:
        if f.location == INFINITY:
            continue
        d = f.orders[2]
        (g,) = [g for g, e in parts if e == d]
        if isinstance(f.location, F):
            assert g(f.location) == 0
        else:
            piece = primitive_part(f.location)
            assert integer_gcd(g, piece).degree() == piece.degree() == f.count
        counts[d] = counts.get(d, 0) + f.count
    assert counts == {d: g.degree() for g, d in parts}
    return census


def assert_factored_matches_generic(model):
    A, B, C = _integral_model(model)
    assert C.is_zero()
    _, _, factors = _integral_short_form(A, B, C)
    assert factors == [(B, 2), (A * A - 4 * B, 1)]
    parts, degree = _generic_squarefree(A, B, C)
    assert_census_covers(model, parts)
    assert sum(k * f.degree() for f, k in factors) == degree


def two_torsion_models(inv):
    return (alternate_model(FibrationParams.from_igusa(inv)), kumfib2_model(inv),
            alternate_model_ftheory(siegel_from_igusa(inv)))


def test_nested_bracket_matches_the_expanded_form(rng):
    from g2satake.fibrations import _qvanish_form

    points = seeded_integer_points(rng, 5)
    # c is -1 in every FibrationParams
    points += [[a, b, -1, d, e] for a, b, _, d, e in points]
    for pt in points:
        assert _qvanish_form(*pt) == qvanish_expanded(*pt)


KUMMER1_SPECIAL = [
    (2, 3, 6),            # l1 l2 = l3: I4 at 6
    (-1, 2, -2),          # l1 l2 = l3 and l1 l3 = l2: I4 at 2 and -2
    (2, F(1, 2), 5),      # l1 l2 = 1: I2 at 1
    (4, F(1, 2), 2),      # l1 l2 = l3 and l2 l3 = 1
]


def assert_kummer1_factors_match_generic(lams):
    model = kummer_quartic_model(*lams).jacobian_model()
    A, B, C = _integral_model(model)
    known = [(_integral_factor(f), k) for f, k in model.disc_factors]
    assert all(f.degree() == 1 for f, _ in known)
    _, _, factors = _integral_short_form(A, B, C, known)
    assert factors == known
    parts, degree = _generic_squarefree(A, B, C)
    assert_census_covers(model, parts)
    assert sum(k * f.degree() for f, k in known) == degree
    # equal linear factors (l_i l_j = l_k, l_i l_j = 1) add multiplicities
    assert_known_factors_match_general_route(model)


@pytest.mark.parametrize("digits", [2, 10, 30, 60])
def test_kummer1_linear_factors_match_the_expanded_discriminant(rng, digits):
    for _ in range(3 if digits < 60 else 1):
        assert_kummer1_factors_match_generic(lambdas_of_height(rng, digits))


@pytest.mark.parametrize("lams", KUMMER1_SPECIAL, ids=str)
def test_kummer1_linear_factors_on_coinciding_fibers(lams):
    assert_kummer1_factors_match_generic(lams)


def test_kummer1_wrong_discriminant_factors_are_an_identity_violation():
    model = kummer_quartic_model(2, 3, 5).jacobian_model()
    t = Poly([0, 1])
    for wrong in (model.disc_factors[:-1],                      # one I2 missing
                  ((t, 5),) + model.disc_factors[1:],           # t^5, not t^6
                  model.disc_factors[:-1] + ((t - 31, 2),)):    # a moved fiber
        with pytest.raises(IdentityViolationError):
            classify_fibers(model._replace(disc_factors=wrong))


@pytest.mark.parametrize("digits", [2, 10, 30, 60])
def test_factored_discriminant_matches_generic_route(rng, digits):
    for _ in range(3 if digits < 60 else 1):
        inv = igusa_from_rosenhain(*lambdas_of_height(rng, digits))
        for model in two_torsion_models(inv):
            assert_factored_matches_generic(model)


def test_factored_discriminant_on_special_loci(rng):
    def small():
        return F(rng.choice((-1, 1)) * rng.randint(1, 99), rng.randint(1, 99))

    # Q = 0: x -> c/x permutes the branch points 0, oo, 1, c, b, c/b
    q0 = [(2, 3, F(2, 3)), (F(-7, 9), F(-3, 4), F(28, 27))]
    for inv in ([igusa_from_rosenhain(*lams) for lams in q0]
                + [IgusaInvariants(0, small(), small(), small()) for _ in range(3)]):
        for model in two_torsion_models(inv):
            assert_factored_matches_generic(model)
    for _ in range(3):   # chi10 = 0, where B is the constant chi12
        model = alternate_model_ftheory(SiegelForms(small(), small(), 0, small()))
        assert model.B.degree() == 0
        assert_factored_matches_generic(model)


def test_two_torsion_discriminant_identity(rng):
    for _ in range(20):
        A, B, C = (Poly([rng.randint(-10**9, 10**9) for _ in range(rng.randint(0, 6))])
                   for _ in range(3))
        g2 = 3 * B - A * A
        g3 = 2 * A * A * A - 9 * A * B
        assert 4 * g2**3 + g3**2 == -27 * B * B * (A * A - 4 * B)
        if C:
            # with C != 0 the discriminant is a single factor, expanded
            _, _, factors = _integral_short_form(A, B, C)
            g3 = g3 + 27 * C
            assert factors == [(4 * g2**3 + g3**2, 1)]


T = Poly([0, 1])


@pytest.mark.parametrize("A, B, fiber", [
    # B and A^2 - 4B share the root of A and B: d = 2 + 1, an additive fiber
    ((T - 1) * (T + 2), (T - 1) * (T - 3), ("III", F(1), (1, 2, 3))),
    (T * (T + 3), T * (T - 2), ("III", F(0), (1, 2, 3))),
    # the same with B linear: its root adds to the multiplicity of the
    # root that A^2 - 4B has there
    (T * (T + 3), T, ("III", F(0), (1, 2, 3))),
    ((T * T + 1) * (T + 2), 5 * (T * T + 1), ("III", Poly([1, 0, 1]), (1, 2, 3))),
    # a repeated factor of B: d = 2 * 2
    (T + 5, (T - 1) ** 2 * (T + 1), ("I4", F(1), (0, 0, 4))),
    # B constant
    (T**3 + 2 * T + 7, Poly([F(3, 4)]), ("I1", None, (0, 0, 1))),
])
def test_factored_discriminant_merges_planted_factors(A, B, fiber):
    model = WeierstrassModel(A=A, B=B, C=Poly())
    assert_factored_matches_generic(model)
    census = classify_fibers(model)
    ftype, location, orders = fiber
    assert any(f.fiber_type == ftype and f.orders == orders
               and (location is None or f.location == location)
               for f in census.fibers), census
    assert census.euler_sum % 12 == 0


def test_factored_discriminant_merges_equal_multiplicities():
    # A = 2P, B = P^2 - (t - 3)^2: B = 8 (t - 1) and A^2 - 4B = 4 (t - 3)^2,
    # so a piece of each has d = 2, and the two make one squarefree part
    # (t - 1)(t - 3) of the expanded discriminant
    model = WeierstrassModel(A=2 * (T + 1), B=8 * (T - 1), C=Poly())
    assert_factored_matches_generic(model)
    A, B, C = _integral_model(model)
    assert _generic_squarefree(A, B, C)[0] == [(Poly([3, -4, 1]), 2)]
    census = classify_fibers(model)
    assert {(f.fiber_type, f.location) for f in census.fibers} == {
        ("I2", F(1)), ("I2", F(3)), ("I2*", INFINITY)}


def test_planted_cluster_split_by_the_order_of_g2():
    # Delta = 2^6 3^6 (T^2 - 2)^2 (T^2 - 3)^2 is one squarefree cluster of
    # d = 2, and g2 = -9 (T^2 - 2), g3 = 27 (T^2 - 2)(T^2 - 1) vanish on
    # its factor T^2 - 2 only
    model = WeierstrassModel(A=Poly(), B=-3 * (T * T - 2),
                             C=(T * T - 2) * (T * T - 1))
    A, B, C = _integral_model(model)
    parts, _ = _generic_squarefree(A, B, C)
    assert parts == [(Poly([6, 0, -5, 0, 1]), 2)]
    census = assert_census_covers(model, parts)
    assert set(census.fibers) == {
        KodairaFiber("II", Poly([-2, 0, 1]), (1, 1, 2), 2),
        KodairaFiber("I2", Poly([-3, 0, 1]), (0, 0, 2), 2),
        KodairaFiber("IV", INFINITY, (2, 2, 4)),
    }
    assert len(census.fibers) == 3
    assert census.euler_sum == 12


def test_kummer23_without_roots_decomposes_only_the_radicand(rng, monkeypatch):
    import g2satake.fibrations as fib

    # B is the radicand, of degree 6, and enters Delta as B^2: the one
    # squarefree decomposition sees B, never B^2, g2 or g3, and the
    # multiplicities are doubled
    seen = []

    def spy(p):
        seen.append(p.degree())
        return integer_squarefree(p)

    monkeypatch.setattr(fib, "integer_squarefree", spy)
    for inv in (IgusaInvariants(550, 8272, 1399200, 2073600),
                igusa_from_rosenhain(*lambdas_of_height(rng, 30))):
        seen.clear()
        census = classify_fibers(kumfib2_model(inv))
        assert seen == [6]
        assert census.type_multiset() == {"I2": 6, "I1": 1, "I5*": 1}


@pytest.mark.parametrize("A, B", [
    (T + 1, Poly()),                      # B = 0
    (2 * T * T - 6, (T * T - 3) ** 2),    # A^2 - 4B = 0
    (Poly([4]), Poly([4])),               # both constant, A^2 - 4B = 0
])
def test_factored_discriminant_vanishing_identically(A, B):
    with pytest.raises(DomainError, match="discriminant vanishes identically"):
        classify_fibers(WeierstrassModel(A=A, B=B, C=Poly()))


# ---------------------------------------------------------------------------
# known linear factors: the Satake roots and the Kummer determinants
# ---------------------------------------------------------------------------


def models_with_known_factors(lams, sextic=None):
    """The four models whose discriminant factors are known linear ones on
    Rosenhain input: three from the Satake roots, kummer1 from the 2x2
    determinants of its quartic."""
    inv = igusa_from_rosenhain(*lams)
    sextic = sextic or satake_in_x(lams)
    p = FibrationParams.from_igusa(inv)
    return {"alternate": alternate_model(p, sextic),
            "kummer23": kumfib2_model(inv, sextic),
            "alternate-ftheory": alternate_model_ftheory(siegel_from_igusa(inv), sextic),
            "kummer1": kummer_quartic_model(*lams).jacobian_model()}


def assert_known_factors_match_general_route(model):
    assert model.disc_factors and all(f.degree() == 1 for f, _ in model.disc_factors)
    census = classify_fibers(model)
    general = classify_fibers(model._replace(disc_factors=()))
    assert sorted(map(repr, census.fibers)) == sorted(map(repr, general.fibers))
    assert census.euler_sum == 24
    return census


@pytest.mark.parametrize("digits", [2, 10, 30, 60])
def test_known_linear_factors_match_the_general_route(rng, digits):
    for _ in range(3 if digits < 60 else 1):
        for model in models_with_known_factors(lambdas_of_height(rng, digits)).values():
            assert_known_factors_match_general_route(model)


@pytest.mark.parametrize("lams", Q0_LAMBDAS, ids=str)
def test_known_linear_factors_merge_equal_satake_roots(lams):
    # two Satake roots coincide: their I1 fibers merge into one I2, and
    # the I2 fibers of kummer23 into one I4
    merged = {"alternate": "I2", "alternate-ftheory": "I2", "kummer23": "I4"}
    for name, model in models_with_known_factors(lams).items():
        census = assert_known_factors_match_general_route(model)
        if name in merged:
            assert any(f.fiber_type == merged[name] and f.location != INFINITY
                       and f.orders[2] == int(merged[name][1:])
                       for f in census.fibers), (name, census)


def test_known_linear_factors_skip_squarefree_and_lifting(rng, monkeypatch):
    import g2satake.fibrations as fib

    def refuse(*_):
        raise AssertionError("not reached for known linear factors")

    models = models_with_known_factors(lambdas_of_height(rng, 30))
    monkeypatch.setattr(fib, "integer_squarefree", refuse)
    monkeypatch.setattr(fib, "split_rational_roots", refuse)
    for model in models.values():
        assert classify_fibers(model).euler_sum == 24


def test_one_wrong_satake_root_is_an_identity_violation():
    lams = (F(2), F(3), F(5))
    sextic = satake_in_x(lams)
    wrong = SatakeSextic(sextic.F, [sextic.roots[0] + 1] + sextic.roots[1:])
    models = models_with_known_factors(lams, wrong)
    del models["kummer1"]
    for model in models.values():
        with pytest.raises(IdentityViolationError):
            classify_fibers(model)
    with pytest.raises(IdentityViolationError, match="product of x - r"):
        degeneration_predicates(params_for(*lams), wrong)
    # and a wrong sextic, with or without its roots, fails F(-3 t)
    for off in (SatakeSextic(sextic.F + 1), SatakeSextic(sextic.F + 1, sextic.roots)):
        with pytest.raises(IdentityViolationError, match="F\\(-3 t\\)"):
            degeneration_predicates(params_for(*lams), off)


def test_known_factors_name_their_piece_by_exponent():
    # exponent 3 names no piece of B^2 (A^2 - 4B)
    lams = (F(2), F(3), F(5))
    model = models_with_known_factors(lams)["alternate"]
    moved = tuple((f, 3) for f, _ in model.disc_factors)
    with pytest.raises(IdentityViolationError):
        classify_fibers(model._replace(disc_factors=moved))


def test_predicates_from_satake_roots_match_the_subresultant(rng):
    for lams in [lambdas_of_height(rng, d) for d in (2, 10, 30)] + Q0_LAMBDAS:
        p = params_for(*lams)
        sextic = satake_in_x(lams)
        # each route raises on a mismatch with the same right side, in t
        # and on the integral point, in T = v^2 t
        flags = degeneration_predicates(p)
        assert degeneration_predicates(p, sextic) == flags
        assert degeneration_predicates(p, SatakeSextic(sextic.F)) == flags
        _, on_point = satake_on_point(lams)
        integral = FibrationParams.from_igusa(
            IgusaInvariants(*IgusaPoint.from_rosenhain(
                rosenhain_thomae(lams)).scaled(12).astuple()))
        assert degeneration_predicates(integral, on_point) == flags
