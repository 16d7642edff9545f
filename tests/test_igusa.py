from fractions import Fraction as F

import pytest

from g2satake.errors import DomainError, ProductLocusError
from g2satake.igusa import (IgusaInvariants, SiegelForms, absolute_invariants,
                            chi35_squared, even_invariants,
                            humbert_predicates,
                            igusa_from_absolute, igusa_from_rosenhain,
                            igusa_from_sextic, igusa_from_siegel, q_form,
                            rosenhain_poly, siegel_from_igusa)
from g2satake.qpoly import Poly, discriminant
from conftest import lambdas_of_height, random_lambdas, seeded_integer_points
from oracle_invariants import (invariants_from_root_pairs, q_expanded,
                               rosenhain_root_pairs)

EVEN_SEXTIC = Poly.from_roots([F(1), F(-1), F(2), F(-2), F(3), F(-3)])


def test_rosenhain_2_3_5():
    inv = igusa_from_rosenhain(2, 3, 5)
    assert inv.I2 == 550
    assert inv.I10 == 2073600
    assert inv.I10 == discriminant(rosenhain_poly(2, 3, 5))


def test_rosenhain_matches_root_pair_oracle(rng):
    for _ in range(5):
        lams = random_lambdas(rng, 25)
        inv = igusa_from_rosenhain(*lams)
        oracle = invariants_from_root_pairs(*rosenhain_root_pairs(*lams))
        assert tuple(map(F, inv.astuple())) == oracle


def test_sextic_route_matches_oracle_on_general_sextics(rng):
    for _ in range(5):
        roots = []
        while len(roots) < 6:
            v = F(rng.randint(-12, 12), rng.randint(1, 5))
            if v not in roots:
                roots.append(v)
        lead = F(rng.randint(1, 5))
        p = Poly.from_roots(roots, lead=lead)
        inv = igusa_from_sextic(p)
        pairs = [(r, F(1)) for r in roots]
        assert tuple(map(F, inv.astuple())) == invariants_from_root_pairs(pairs, lead)


def test_transvectants_over_z_give_the_integer_invariants(rng):
    # the invariants of an integer sextic are integers, and the factors the
    # transvectants drop are multiplied in exactly
    for _ in range(5):
        roots = rng.sample(range(-40, 41), 6)
        lead = rng.choice((-3, -1, 1, 2, 7))
        p = Poly.from_roots(roots, lead=lead)
        values = even_invariants([int(c) for c in p.coeffs])
        assert all(type(v) is int for v in values)
        oracle = invariants_from_root_pairs([(F(r), F(1)) for r in roots], lead)
        assert values == oracle[:3]


def test_sextic_equals_rosenhain_route(rng):
    for _ in range(8):
        lams = random_lambdas(rng, 30)
        a = igusa_from_rosenhain(*lams)
        b = igusa_from_sextic(rosenhain_poly(*lams))
        assert a.astuple() == b.astuple()


def test_sextic_degree_guard():
    with pytest.raises(DomainError):
        igusa_from_sextic(Poly([1, 2, 3]))


def test_repeated_lambda_degenerates():
    inv = igusa_from_rosenhain(2, 3, 3)
    assert inv.I10 == 0
    assert inv.degenerate
    with pytest.raises(DomainError):
        absolute_invariants(inv)


def test_weighted_class_under_scaling(rng):
    p = rosenhain_poly(F(2), F(3), F(5))
    u = F(7, 3)
    a = igusa_from_sextic(p)
    b = igusa_from_sextic(p * u**6)
    assert a.same_projective_point(b)
    assert not a.astuple() == b.astuple()
    # another class, and another zero pattern
    assert not a.same_projective_point(a._replace(I6=a.I6 + 1))
    assert not a.same_projective_point(a._replace(I4=0))
    assert IgusaInvariants(0, 0, 0, 0).same_projective_point(IgusaInvariants(0, 0, 0, 0))
    # signs that no lam^w reaches, though each w0-th power against the first
    # coordinate agrees; and one that lam = i reaches
    one = IgusaInvariants(1, 1, 1, 1)
    assert not one.same_projective_point(IgusaInvariants(1, -1, 1, 1))
    assert not one.same_projective_point(IgusaInvariants(1, 1, -1, 1))
    assert not IgusaInvariants(0, 1, 0, 1).same_projective_point(
        IgusaInvariants(0, -1, 0, 1))
    assert one.same_projective_point(IgusaInvariants(-1, 1, -1, -1))


def test_weighted_class_under_moebius_transposition(rng):
    # X -> 1 - X permutes the six branch points (an S6 transposition)
    for _ in range(4):
        lams = random_lambdas(rng, 15)
        a = igusa_from_rosenhain(*lams)
        b = igusa_from_rosenhain(*(1 - l for l in lams))
        assert a.same_projective_point(b)


def test_absolute_invariants_values():
    inv = igusa_from_rosenhain(2, 3, 5)
    ab = absolute_invariants(inv)
    assert ab.j1 == F(550**5, 2073600)
    trivial = absolute_invariants(IgusaInvariants(1, 0, 0, 1))
    assert trivial.astuple() == (1, 0, 0)


def test_absolute_invariants_weight_zero(rng):
    inv = igusa_from_rosenhain(*random_lambdas(rng, 10))
    r = F(5, 7)
    assert absolute_invariants(inv).astuple() == \
        absolute_invariants(inv.scale(r)).astuple()


def test_siegel_dictionary_values():
    inv = igusa_from_rosenhain(2, 3, 5)
    s = siegel_from_igusa(inv)
    assert s.chi10 == F(-2073600, 2**14)
    assert s.psi4 == F(8272, 4)
    single = siegel_from_igusa(IgusaInvariants(0, 4, 0, 0))
    assert single.astuple() == (1, 0, 0, 0)


def test_siegel_dictionary_round_trips(rng):
    for _ in range(6):
        inv = IgusaInvariants(*[F(rng.randint(-9, 9), rng.randint(1, 4))
                                for _ in range(4)])
        if inv.I10 == 0:
            continue
        assert igusa_from_siegel(siegel_from_igusa(inv)).astuple() == \
            tuple(map(F, inv.astuple()))


def test_siegel_product_locus_error():
    with pytest.raises(ProductLocusError):
        igusa_from_siegel(SiegelForms(1, 0, 0, 0))


def test_siegel_pure_chi10_slot():
    c = F(3, 7)
    inv = igusa_from_siegel(SiegelForms(0, 0, -c / 2**14, 0))
    assert inv.astuple() == (0, 0, 0, c)


def test_chi35_squared_pure_chi10():
    s = SiegelForms(F(0), F(0), F(3), F(0))
    assert q_form(s) == 2**32 * 3**9 * 5**5 * F(3) ** 6
    assert chi35_squared(s.chi10, q_form(s)) == 2**20 * 5**5 * F(3) ** 7


def test_chi35_squared_chi10_prefactor():
    s = SiegelForms(F(1), F(2), F(0), F(3))
    assert chi35_squared(s.chi10, q_form(s)) == 0


def test_q_times_chi10_is_chi35sq(rng):
    for _ in range(6):
        s = SiegelForms(*[F(rng.randint(-9, 9), rng.randint(1, 4))
                          for _ in range(4)])
        q = q_form(s)
        assert q * s.chi10 == 2**12 * 3**9 * chi35_squared(s.chi10, q)


def test_even_sextic_on_bolza_locus():
    s = siegel_from_igusa(igusa_from_sextic(EVEN_SEXTIC))
    assert q_form(s) == 0
    assert humbert_predicates(s, q_form(s)) == {"on_H1": False, "on_H4": True}


def test_extra_involution_lambdas():
    inv = igusa_from_rosenhain(F(-1), F(2), F(-2))
    assert inv.I10 != 0
    assert q_form(siegel_from_igusa(inv)) == 0


def test_humbert_flags():
    product = SiegelForms(1, 1, 0, 1)
    assert humbert_predicates(product, q_form(product))["on_H1"]
    generic = siegel_from_igusa(igusa_from_rosenhain(2, 3, 5))
    assert humbert_predicates(generic, q_form(generic)) == {
        "on_H1": False, "on_H4": False}


def test_igusa_from_absolute_representative():
    inv = igusa_from_rosenhain(2, 3, 5)
    j = absolute_invariants(inv)
    rep = igusa_from_absolute(j)
    assert absolute_invariants(rep).astuple() == j.astuple()


@pytest.mark.parametrize("digits", [2, 10, 30, 60])
def test_integer_q_form_matches_fraction_formula(rng, digits):
    for _ in range(3):
        s = siegel_from_igusa(igusa_from_rosenhain(*lambdas_of_height(rng, digits)))
        assert q_form(s) == q_expanded(*map(F, s.astuple()))
    # an arbitrary rational point; inexact form values are rejected
    s = SiegelForms(F(7, 12), F(-5, 18), F(11, 1000), F(3, 8))
    assert q_form(s) == q_expanded(*s.astuple())
    with pytest.raises(DomainError):
        q_form(SiegelForms(0.5 + 1j, -0.25j, 0.125, 2.0))


def test_nested_q_poly_matches_the_expanded_form(rng):
    from g2satake.igusa import _q_poly

    for pt in seeded_integer_points(rng, 4):
        assert _q_poly(*pt) == q_expanded(*pt)


def test_integral_representative_is_small_for_rosenhain_input(rng):
    from g2satake.qpoly import integral_representative

    lams = lambdas_of_height(rng, 30)
    s = siegel_from_igusa(igusa_from_rosenhain(*lams))
    r, ints = integral_representative(s.astuple(), (4, 6, 10, 12))
    assert all(v * r**w == n for v, w, n in zip(s.astuple(), (4, 6, 10, 12), ints))
    # no larger than the scale 12 d1 d2 d3 read off the lambdas
    assert r <= 12 * lams[0].denominator * lams[1].denominator * lams[2].denominator


def test_sextic_invariants_reject_inexact_coefficients():
    with pytest.raises(DomainError):
        igusa_from_sextic(Poly([1, 0, 0, 0, 0, 0, 1j]))
    with pytest.raises(DomainError):
        igusa_from_sextic(Poly([0.5, 0, 0, 0, 0, 1]))


def test_predicate_helpers_accept_a_known_q():
    s = siegel_from_igusa(igusa_from_rosenhain(2, 3, 5))
    assert humbert_predicates(s, q_form(s)) == {"on_H1": False, "on_H4": False}


@pytest.mark.parametrize("digits", [2, 10, 30, 60])
def test_rosenhain_invariants_match_the_root_pair_oracle_at_height(rng, digits):
    a, b, c = lambdas_of_height(rng, digits)
    # generic, then I10 = 0: a repeated lambda, a lambda 0 and a lambda 1
    for lams in ((a, b, c), (a, a, b), (0, b, c), (a, 1, c), (a, b, 7)):
        inv = igusa_from_rosenhain(*lams)
        oracle = invariants_from_root_pairs(*rosenhain_root_pairs(*lams))
        assert tuple(map(F, inv.astuple())) == oracle
        assert inv.degenerate == (len({0, 1, *lams}) < 5)


def test_rosenhain_invariants_agree_on_the_integer_and_the_generic_path(rng):
    from g2satake.qpoly import GaussianRational

    for digits in (2, 30):
        lams = lambdas_of_height(rng, digits)
        exact = igusa_from_rosenhain(*lams)
        # GaussianRational lambdas take the formulas at z = 1, exactly
        assert igusa_from_rosenhain(*map(GaussianRational, lams)) == exact
    complex_inv = igusa_from_rosenhain(2 + 0j, 3 + 0j, 5 + 0j)
    assert complex_inv.astuple() == igusa_from_rosenhain(2, 3, 5).astuple()
