import math
import random
from fractions import Fraction as F

import pytest

from g2satake.errors import (DegeneratePointError, DomainError,
                             IdentityViolationError, InversionSingularError)
from g2satake.igusa import (IgusaInvariants, SiegelForms, SiegelPoint,
                            absolute_invariants, igusa_from_rosenhain,
                            igusa_from_sextic, q_form, rosenhain_thomae,
                            siegel_from_igusa)
from g2satake.qpoly import Poly, discriminant
from g2satake.roots import gaussian_roots
from g2satake.satake import (PowerSums, SatakeSextic, complete_bell,
                             igusa_from_power_sums, is_rational_square, phi_map,
                             power_sums_from_igusa, reconstruct_from_satake_roots,
                             satake_discriminant_identity,
                             satake_roots_from_rosenhain, satake_sextic,
                             satake_sextic_from_siegel, satake_sextic_on_point,
                             theta_power_sum_consistency)
from g2satake.theta import (SATAKE_MATRIX, PeriodMatrix, even_theta_constants,
                            rosenhain_from_theta, rosenhain_from_theta4,
                            satake_from_theta, theta4_from_satake,
                            thomae_fourth_powers)
from conftest import (Q0_LAMBDAS, lambdas_of_height, random_lambdas,
                      satake_on_point)

EVEN_SEXTIC = Poly.from_roots([F(1), F(-1), F(2), F(-2), F(3), F(-3)])


def test_power_sums_pure_i10():
    ps = power_sums_from_igusa(IgusaInvariants(0, 0, 0, 1))
    assert ps.astuple() == (0, 0, 0, 0, 1215, 0)


def test_power_sums_pure_i4():
    ps = power_sums_from_igusa(IgusaInvariants(0, 1, 0, 0))
    assert ps.astuple() == (0, 3, 0, F(9, 4), 0, F(27, 16))


def test_power_sum_inversion_round_trip(rng):
    count = 0
    while count < 6:
        inv = IgusaInvariants(*[F(rng.randint(-15, 15), rng.randint(1, 6))
                                for _ in range(4)])
        try:
            back = igusa_from_power_sums(power_sums_from_igusa(inv))
        except InversionSingularError:
            continue
        assert back.astuple() == tuple(map(F, inv.astuple()))
        count += 1


def test_power_sum_inversion_singular():
    # 5 s2 s3 = 12 s5
    with pytest.raises(InversionSingularError):
        igusa_from_power_sums(PowerSums(s2=F(6), s3=F(2), s5=F(5), s6=F(0)))


def test_complete_bell_low_orders():
    assert complete_bell(1, [0]) == 0
    assert complete_bell(2, [0, -7]) == -7            # B2 = z1^2 + z2
    assert complete_bell(3, [0, -7, 10]) == 10        # B3 = z1^3 + 3 z1 z2 + z3
    assert complete_bell(3, [1, 2, 3]) == 1 + 3 * 2 + 3
    with pytest.raises(DomainError):
        complete_bell(0, [1])


def test_sextic_sparse_power_sums():
    f = satake_sextic(PowerSums(s2=0, s3=0, s5=F(10), s6=F(12)))
    assert f == Poly([-2, -2, 0, 0, 0, 0, 1])


def test_sextic_x4_coefficient_is_minus_half_s2():
    f = satake_sextic(PowerSums(s2=F(8), s3=F(3), s5=F(1), s6=F(2)))
    assert f.coeff(4) == -4
    assert f.coeff(5) == 0


def test_sextic_siegel_form_pure_chi12():
    f = satake_sextic_from_siegel(SiegelForms(F(0), F(0), F(0), F(5)))
    assert f == Poly([-(2**14) * 3**6 * 5, 0, 0, 0, 0, 0, 1])


def test_sextic_two_routes_agree(rng):
    for _ in range(5):
        inv = igusa_from_rosenhain(*random_lambdas(rng, 20))
        f1 = satake_sextic(power_sums_from_igusa(inv))
        f2 = satake_sextic_from_siegel(siegel_from_igusa(inv))
        assert f1 == f2


def test_bell_and_closed_form_agree_on_raw_power_sums(rng):
    # the dual construction inside satake_sextic raises on any mismatch,
    # so a clean pass over arbitrary admissible power sums is the property
    for _ in range(10):
        ps = PowerSums(*[F(rng.randint(-40, 40), rng.randint(1, 9))
                         for _ in range(4)])
        f = satake_sextic(ps)
        assert f.degree() == 6 and f.lead() == 1 and f.coeff(5) == 0


def test_corrupted_s4_trips_dual_construction():
    class BadPowerSums(PowerSums):
        @property
        def s4(self):
            return F(99)

    with pytest.raises(IdentityViolationError):
        satake_sextic(BadPowerSums(s2=F(1), s3=F(0), s5=F(0), s6=F(0)))
    with pytest.raises(IdentityViolationError):
        satake_sextic(PowerSums(s2=F(1), s3=F(0), s5=F(0), s6=F(0)), s4=F(99))


@pytest.mark.parametrize("s1", [1, F(1, 7), F(-3, 10**30)])
def test_corrupted_s1_trips_dual_construction(s1):
    class BadPowerSums(PowerSums):
        @property
        def s1(self):
            return s1

    ps = BadPowerSums(s2=F(4, 3), s3=F(5), s5=F(-2, 9), s6=F(7))
    assert _fraction_sextic(ps, ps.s4) is None
    with pytest.raises(IdentityViolationError):
        satake_sextic(ps)


def _fraction_sextic(ps, s4):
    """The sextic over Q, as the integer route must reproduce it: the Bell
    expansion next to the closed form, both in Fractions; None when the
    two disagree."""
    s2, s3, s5, s6 = map(F, (ps.s2, ps.s3, ps.s5, ps.s6))
    z = [F(ps.s1), -s2, 2 * s3, -6 * F(s4), 24 * s5, -120 * s6]
    bell = [F(1)]
    fact = 1
    for i in range(1, 7):
        fact *= i
        bell.append(F((-1) ** i, fact) * complete_bell(i, z))
    cube = Poly([-s3 / 6, -s2 / 4, 0, 1])
    closed = cube * cube + Poly([s2**3 / 96 + s3**2 / 36 - s6 / 6,
                                 s2 * s3 / 12 - s5 / 5])
    return closed if Poly(list(reversed(bell))) == closed else None


@pytest.mark.parametrize("digits", [1, 2, 10, 30, 60])
def test_integer_sextic_matches_the_fraction_route(rng, digits):
    def value():
        lo, hi = 10 ** (digits - 1), 10**digits - 1
        return F(rng.choice((-1, 1)) * rng.randint(lo, hi), rng.randint(lo, hi))

    for _ in range(4):
        ps = PowerSums(value(), value(), value(), value())
        f = satake_sextic(ps)
        assert f == _fraction_sextic(ps, ps.s4)
        assert satake_sextic(ps, ps.s2**2 / 4) == f
        for s4 in (value(), ps.s4 + F(1, 10**digits), 0):
            assert _fraction_sextic(ps, s4) is None
            with pytest.raises(IdentityViolationError):
                satake_sextic(ps, s4)
    ps = PowerSums(0, 0, 0, 0)
    assert satake_sextic(ps) == _fraction_sextic(ps, 0) == Poly([0] * 6 + [1])
    with pytest.raises(DomainError):
        satake_sextic(PowerSums(1j, 0, 0, 0))


def _discriminant_identity(forms):
    """The identity on the integral point of the form values, with its
    sextic checked against the power sums' Bell and closed forms."""
    s = SiegelPoint.of(forms)
    sextic = SatakeSextic(siegel=s)
    satake_sextic_on_point(s, sextic)
    return satake_discriminant_identity(s, sextic)


def test_discriminant_identity_random(rng):
    for _ in range(6):
        lams = random_lambdas(rng, 30)
        forms = siegel_from_igusa(igusa_from_rosenhain(*lams))
        disc, q = _discriminant_identity(forms)
        assert disc == 2**52 * 3**21 * q != 0
        assert q == q_form(forms)
        # the closed-form roots, on the point over v = 12 u, give the same
        # discriminant, and so does the subresultant there
        s, sextic = satake_on_point(lams)
        assert satake_discriminant_identity(s, sextic) == (disc, q)
        assert satake_discriminant_identity(s, SatakeSextic(sextic.F)) == (disc, q)


def test_discriminant_identity_unit_i10():
    disc, q = _discriminant_identity(siegel_from_igusa(IgusaInvariants(0, 0, 0, 1)))
    assert q == q_form(SiegelForms(F(0), F(0), F(-1, 2**14), F(0)))
    assert disc == 2**52 * 3**21 * q


def test_discriminant_identity_even_sextic_vanishes():
    forms = siegel_from_igusa(igusa_from_sextic(EVEN_SEXTIC))
    assert _discriminant_identity(forms) == (0, 0)


def test_discriminant_identity_on_chi10_zero():
    forms = SiegelForms(F(38, 69), F(-21, 82), F(0), F(-39, 56))
    disc, q = _discriminant_identity(forms)
    assert disc == 2**52 * 3**21 * q != 0
    assert q == q_form(forms)


def test_discriminant_identity_mismatch_raises():
    s = SiegelPoint.of(siegel_from_igusa(igusa_from_rosenhain(2, 3, 5)))
    other = satake_sextic_from_siegel(s) + 1
    with pytest.raises(IdentityViolationError, match="2\\^52 3\\^21 Q"):
        satake_discriminant_identity(s, SatakeSextic(other))


def test_phi_dual_path_and_structure(rng):
    for _ in range(5):
        inv = igusa_from_rosenhain(*random_lambdas(rng, 20))
        j = absolute_invariants(inv)
        res = phi_map(j)
        assert is_rational_square(res.N_squared)
        # image chi10 records the discriminant identity
        assert res.chi10_image == -(2**38) * 3**21 * res.Q_source


def test_phi_rejects_bolza_locus():
    inv = igusa_from_sextic(EVEN_SEXTIC)
    with pytest.raises(DegeneratePointError):
        phi_map(absolute_invariants(inv))


def test_phi_rejects_j1_zero():
    from g2satake.igusa import AbsoluteInvariants

    with pytest.raises(DomainError):
        phi_map(AbsoluteInvariants(0, 1, 1))


def test_reconstruction_round_trip(rng):
    for _ in range(4):
        lams = random_lambdas(rng, 8)
        inv = igusa_from_rosenhain(*lams)
        f = satake_sextic(power_sums_from_igusa(inv))
        roots = [complex(r) for r in gaussian_roots(f)]
        rec, ordering = reconstruct_from_satake_roots(roots)
        j_rec = absolute_invariants(igusa_from_rosenhain(*rec))
        j_src = absolute_invariants(inv)
        for a, b in zip(j_rec.astuple(), j_src.astuple()):
            assert abs(complex(a) - complex(b)) <= 1e-8 * (1 + abs(complex(b)))


def test_reconstruction_orderings_give_same_invariants(rng):
    lams = (F(2), F(3), F(5))
    inv = igusa_from_rosenhain(*lams)
    f = satake_sextic(power_sums_from_igusa(inv))
    roots = [complex(r) for r in gaussian_roots(f)]
    j_src = absolute_invariants(inv)
    seen = 0
    import itertools

    for perm in itertools.islice(itertools.permutations(range(6)), 0, 24, 5):
        # the search takes the identity labelling of the permuted roots
        # whenever its denominators clear, i.e. it reconstructs from perm
        rec, ordering = reconstruct_from_satake_roots([roots[i] for i in perm])
        if ordering != tuple(range(6)):
            continue
        j_rec = absolute_invariants(igusa_from_rosenhain(*rec))
        for a, b in zip(j_rec.astuple(), j_src.astuple()):
            assert abs(complex(a) - complex(b)) <= 1e-7 * (1 + abs(complex(b)))
        seen += 1
    assert seen >= 3


def test_reconstruction_all_zero_roots():
    with pytest.raises(DegeneratePointError):
        reconstruct_from_satake_roots([0] * 6)


def test_theta_coordinates_match_power_sum_route():
    tau = PeriodMatrix(0.44 + 1.86j, -0.26 + 0.81j, -0.1 + 1.93j)
    tc = even_theta_constants(tau, 12)
    r2, worst = theta_power_sum_consistency(tc, rosenhain_from_theta(tc))
    assert worst < 1e-12
    # x built from theta matches satake_from_theta (same formulas): sanity
    co = satake_from_theta(tc)
    assert abs(sum(co.x)) < 1e-12


def test_thomae_rescaling_is_stable_under_one_ulp():
    # the golden tau; each real and imaginary part of the ten constants
    # moves by one ulp in a seeded direction
    tau = PeriodMatrix(0.44 + 1.86j, -0.26 + 0.81j, -0.1 + 1.93j)
    tc = even_theta_constants(tau)
    c0, _ = theta_power_sum_consistency(tc, rosenhain_from_theta(tc))
    rng = random.Random(16)

    def ulp(v):
        return math.nextafter(v, rng.choice((-math.inf, math.inf)))

    for _ in range(20):
        values = tuple(complex(ulp(v.real), ulp(v.imag)) for v in tc.values)
        moved = tc._replace(values=values)
        c, _ = theta_power_sum_consistency(moved, rosenhain_from_theta(moved))
        assert abs(c - c0) <= 1e-12 * abs(c0)


def _check_thomae_route(lams):
    """Thomae's table gives the Satake roots x = SATAKE_MATRIX (P_T1, ...,
    P_T5) of the curve and, back through theta4_from_satake, all ten P_T.
    The integer closed form (d, X) gives the same roots, disc(f) read off
    them is 2^52 3^21 Q, and lambda -> x -> theta^4 -> lambda is exact."""
    p = thomae_fourth_powers(lams)
    x = [sum(c * v for c, v in zip(row, p)) for row in SATAKE_MATRIX]
    inv = igusa_from_rosenhain(*lams)
    f = satake_sextic(power_sums_from_igusa(inv))
    assert Poly.from_roots(x) == f
    assert theta4_from_satake(x) == p
    d, xs = satake_roots_from_rosenhain(rosenhain_thomae(lams))
    assert d > 0 and [F(v, d) for v in xs] == x
    disc = SatakeSextic(f, x).discriminant()
    assert disc == discriminant(f) == 2**52 * 3**21 * q_form(siegel_from_igusa(inv))
    assert rosenhain_from_theta4(theta4_from_satake(x)) == tuple(map(F, lams))


@pytest.mark.parametrize("digits", [2, 10, 30, 60])
def test_thomae_table_gives_the_satake_sextic_exactly(rng, digits):
    for _ in range(6):
        _check_thomae_route(lambdas_of_height(rng, digits))


Q0_DOUBLE_ROOT = (F(-7, 9), F(-3, 4), F(28, 27))
Q0_OTHERS = [lams for lams in Q0_LAMBDAS if lams != Q0_DOUBLE_ROOT]


# the rosenhain_from_theta4 guard must not take the exact denominator of
# the clustered branch points, of size 1e-30, for zero
@pytest.mark.parametrize("lams", [Q0_DOUBLE_ROOT, (F(1, 10**30), F(2), F(3)),
                                  *Q0_OTHERS],
                         ids=["q0-double-root", "clustered-branch-points",
                              *(f"q0-{i}" for i in range(len(Q0_OTHERS)))])
def test_thomae_table_on_special_inputs(lams):
    _check_thomae_route(lams)


def test_the_root_check_rejects_a_wrong_root():
    _, sextic = satake_on_point((F(2), F(3), F(5)))
    xs = sextic.roots
    assert SatakeSextic(sextic.F, xs).discriminant() == discriminant(sextic.F)
    for wrong in ([xs[0] + 1] + xs[1:], xs[:-1], xs + [0]):
        with pytest.raises(IdentityViolationError, match="product of x - r"):
            SatakeSextic(sextic.F, wrong).discriminant()


@pytest.mark.parametrize("digits", [2, 10, 30, 60])
def test_homogenized_phi_polynomials(rng, digits):
    from math import lcm

    from g2satake.satake import _phi_k, _phi_m, _phi_q, _phi_w

    lo, hi = 10 ** (digits - 1), 10**digits - 1
    lams = [F(rng.choice((-1, 1)) * rng.randint(lo, hi), rng.randint(lo, hi))
            for _ in range(3)]
    j = [F(v) for v in absolute_invariants(igusa_from_rosenhain(*lams)).astuple()]
    h = lcm(*(v.denominator for v in j))
    J = [v.numerator * (h // v.denominator) for v in j]
    for fn, deg in ((_phi_m, 3), (_phi_k, 6), (_phi_w, 9), (_phi_q, 12)):
        assert fn(*J, h) == h**deg * fn(*j)


def test_power_sums_from_siegel_match_igusa_route(rng):
    from g2satake.satake import power_sums_from_siegel

    for _ in range(5):
        inv = IgusaInvariants(*[F(rng.randint(-30, 30), rng.randint(1, 9))
                                for _ in range(4)])
        assert (power_sums_from_siegel(siegel_from_igusa(inv)).astuple()
                == power_sums_from_igusa(inv).astuple())
    # defined on chi10 = 0, where the Igusa invariants are not
    s = SiegelForms(F(38, 69), F(-21, 82), F(0), F(-39, 56))
    assert satake_sextic(power_sums_from_siegel(s)) == satake_sextic_from_siegel(s)
