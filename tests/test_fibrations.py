import cmath
from fractions import Fraction as F

import pytest

from g2satake.errors import DomainError, NonMinimalModelError
from g2satake.fibrations import (INFINITY, FibrationParams, WeierstrassModel,
                                 alternate_model, alternate_model_ftheory,
                                 alternate_rhs, classify_fibers, degeneration_predicates,
                                 dual_isogeny, euler_number, isogeny, kodaira_type,
                                 kumfib2_model, kummer_quartic_model, kummer_rhs,
                                 nikulin_involution, qvanish_bracket, qvanish_identity,
                                 radicand, recovered_sextic, standard_model,
                                 type_iii_siegel_identity)
from g2satake.igusa import (SiegelForms, igusa_from_rosenhain, igusa_from_sextic,
                            rosenhain_poly, siegel_from_igusa)
from g2satake.qpoly import Poly
from g2satake.satake import power_sums_from_igusa, satake_sextic
from conftest import random_lambdas

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
    assert not smooth.discriminant_poly().is_zero()
    with pytest.raises(DomainError):
        classify_fibers(smooth)   # discriminant is a nonzero constant: no fibration over t


def test_rational_elliptic_surface_example():
    m = WeierstrassModel(A=Poly(), B=Poly([0, 1]), C=Poly([0, 1]))
    census = classify_fibers(m)
    types = {(f.fiber_type, str(f.location)) for f in census.fibers}
    assert types == {("II", "0"), ("I1", "-27/4"), ("III*", "infinity")}
    assert census.euler_sum == 12


def test_classification_rejects_inexact_coefficients():
    # the census is a statement over Q; there is no numeric classifier
    for c in (1.0 + 0j, 1.0):
        m = WeierstrassModel(A=Poly(), B=Poly([0, c]), C=Poly([0, c]))
        with pytest.raises(DomainError):
            classify_fibers(m)


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
        sub = f.compose_linear(F(-3), F(0))   # f(-3t)
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
        assert recovered_sextic(*lams) == rosenhain_poly(*lams)


def test_isogeny_images_exact(rng):
    p = params_for(2, 3, 5)
    checked = 0
    while checked < 4:
        t0 = F(rng.randint(-9, 9), rng.randint(1, 4))
        x0 = F(rng.randint(1, 9), rng.randint(1, 4))
        v = alternate_rhs(p, t0, x0)          # y^2 on the fiber
        if v == 0:
            continue
        w = p.e * (p.c * t0 + p.d) - x0 * x0
        X = v / (x0 * x0)
        Y2 = v * w * w / x0**4
        assert Y2 == kummer_rhs(p, t0, X)
        # dual image back on the alternate curve, with duplication x
        radv = radicand(p)(t0)
        x2 = Y2 / (4 * X * X)
        y2_back = Y2 * (radv - X * X) ** 2 / (64 * X**4)
        assert y2_back == alternate_rhs(p, t0, x2)
        Bv = p.e * (p.c * t0 + p.d)
        assert x2 == (x0 * x0 - Bv) ** 2 / (4 * v)
        checked += 1


def test_isogeny_point_interface():
    p = params_for(2, 3, 5)
    assert isogeny((0, 0), F(1), p) == INFINITY
    assert isogeny(INFINITY, F(1), p) == INFINITY
    assert dual_isogeny((0, 17), F(1), p) == INFINITY
    t0, x0 = F(1, 2), F(5, 3)
    y0 = cmath.sqrt(complex(alternate_rhs(p, t0, x0)))
    X, Y = isogeny((x0, y0), t0, p)
    assert abs(Y**2 - complex(kummer_rhs(p, t0, F(X.real).limit_denominator(10**12)))) \
        <= 1e-9 * (1 + abs(Y) ** 2)


def test_nikulin_involution_properties(rng):
    p = params_for(2, 3, 5)
    t0, x0 = F(1, 2), F(5, 3)
    v = alternate_rhs(p, t0, x0)
    w = p.e * (p.c * t0 + p.d)
    # image on curve, exactly
    assert v * w * w / x0**4 == alternate_rhs(p, t0, w / x0)
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
    fy = cmath.sqrt(complex(alternate_rhs(p, t0, F(fx.real).limit_denominator(10**9))))
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
    assert radicand(p)(t0) == 0
    w = p.e * lin0
    x_fix = -base.cubic()(t0) / 2
    assert x_fix**2 == w                      # on the fixed locus
    assert alternate_rhs(p, t0, x_fix) == 0   # and it is the node (y = 0)
    assert nikulin_involution((x_fix, F(0)), t0, p) == (x_fix, F(0))
    # off the I1 locus the fixed-x point has y != 0 and is not fixed
    t1 = F(5, 2)
    w1 = p.e * (p.c * t1 + p.d)
    y2 = w1 * (2 * x_fix + p.cubic()(t1)) + (x_fix**2 - w1) * (
        x_fix + p.cubic()(t1))   # = rhs(t1, x_fix), expanded around x^2 = w1
    assert y2 == alternate_rhs(p, t1, x_fix)


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
        p = FibrationParams(*vals)
        ok, lhs, rhs = qvanish_identity(p)
        assert ok, (lhs, rhs)


def test_type_iii_siegel_identity(rng):
    for _ in range(4):
        inv = igusa_from_rosenhain(*random_lambdas(rng, 10))
        ok, lhs, rhs = type_iii_siegel_identity(inv)
        assert ok, (lhs, rhs)


def test_standard_to_alternate_birational_transform(rng):
    # (t,x,y)_std = (x/e, t x^2/e^2, -x^2 y/e^3)_alt turns the standard
    # equation into x^4/e^6 times the alternate one.
    for _ in range(4):
        p = params_for(*random_lambdas(rng, 8))
        t = F(rng.randint(1, 9), rng.randint(1, 3))
        x = F(rng.randint(1, 9), rng.randint(1, 3))
        u = alternate_rhs(p, t, x)            # = y^2 on the alternate fiber
        ts, xs = x / p.e, t * x * x / p.e**2
        us = x**4 * u / p.e**6                # = y_std^2 under the transform
        std_residual = us - (xs**3 + ts**3 * (p.a * ts + p.c) * xs
                             + ts**5 * (p.e * ts**2 + p.b * ts + p.d))
        assert std_residual == 0


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
        u = alternate_rhs(p, t, x)
        X = t * x**3 / F(2**29 * 3**5)
        Y2 = -6 * x**4 * u / F(2**58 * 3**10)    # (sqrt6 i x^2 y / 2^29 3^5)^2
        W = -(x**3) / F(2**28 * 3**6)
        Z = x**2 / F(2**28 * 3**9)
        assert inose(X, Y2, Z, W, al, be, ga, de) == 0
        u_std = x**3 + t**3 * (p.a * t + p.c) * x \
            + t**5 * (p.e * t**2 + p.b * t + p.d)
        Xs = -(2**7) * s.chi10**3 * t * x / F(3**5)
        Y2s = -6 * 2**14 * s.chi10**6 * u_std / F(3**10)
        Ws = 2**8 * s.chi10**3 * t**3 / F(3**6)
        Zs = s.chi10**2 * t**2 / F(2**4 * 3**9)
        assert inose(Xs, Y2s, Zs, Ws, al, be, ga, de) == 0
