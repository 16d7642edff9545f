from fractions import Fraction as F

import pytest

from g2satake.errors import DomainError, IdentityViolationError
from g2satake.qpoly import (EpsSeries, Poly, discriminant, laurent_limit,
                            poly_gcd, resultant, squarefree_decomposition)


def test_poly_basics():
    p = Poly([1, 2, 3])
    q = Poly([0, 1])
    assert p.degree() == 2
    assert (p + q).coeffs == (1, 3, 3)
    assert (p * q).coeffs == (0, 1, 2, 3)
    assert p(2) == 1 + 4 + 12
    assert p.derivative().coeffs == (2, 6)
    assert Poly([0, 0]).is_zero()
    assert Poly([5]) == 5
    assert (Poly([1, 1]) ** 3).coeffs == (1, 3, 3, 1)


def test_resultant_linear_pair():
    assert resultant(Poly([-1, 1]), Poly([1, 1])) == 2


def test_resultant_sylvester_example():
    assert resultant(Poly([-1, 0, 1]), Poly([0, 1])) == -1


def test_resultant_common_root():
    p = Poly([F(1, 2), 3, 1])
    assert resultant(p, p) == 0


def test_resultant_swap_sign(rng):
    for _ in range(10):
        p = Poly([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)])
        q = Poly([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)])
        if p.is_zero() or q.is_zero():
            continue
        m, n = p.degree(), q.degree()
        assert resultant(p, q) == (-1) ** (m * n) * resultant(q, p)


def test_resultant_rejects_zero():
    with pytest.raises(DomainError):
        resultant(Poly(), Poly([1, 1]))


def test_discriminant_quadratic():
    assert discriminant(Poly([-1, 0, 1])) == 4
    assert discriminant(Poly([1, -2, 1])) == 0


def test_discriminant_rosenhain_quintic():
    p = Poly.from_roots([0, 1, 2, 3, 5])
    assert discriminant(p) == 2073600


def test_discriminant_degree_guard():
    with pytest.raises(DomainError):
        discriminant(Poly([1, 2]))


def test_discriminant_extension_property(rng):
    # disc(p * (x - c)) = disc(p) * p(c)^2 for monic p
    for _ in range(8):
        roots = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
        p = Poly.from_roots(roots)
        c = F(rng.randint(-9, 9), rng.randint(1, 3))
        assert discriminant(p * Poly([-c, 1])) == discriminant(p) * p(c) ** 2


def test_gcd_and_squarefree():
    g = poly_gcd(Poly.from_roots([F(1), F(2), F(3)]) * Poly([F(7)]),
                 Poly.from_roots([F(2), F(3), F(9)]))
    assert g == Poly.from_roots([F(2), F(3)])
    parts = squarefree_decomposition(Poly.from_roots([1, 1, 2, 2, 2, 5]))
    assert [(f.degree(), m) for f, m in parts] == [(1, 1), (1, 2), (1, 3)]


def test_laurent_limit_examples():
    assert laurent_limit(EpsSeries({2: F(3), 3: F(4)})) == 0
    assert laurent_limit(EpsSeries({0: F(7), 1: F(2)})) == 7


def test_laurent_limit_negative_power_raises():
    with pytest.raises(IdentityViolationError):
        laurent_limit(EpsSeries({-2: F(1), 0: F(3)}))


def test_eps_series_ring_ops():
    a = EpsSeries({-1: F(2), 0: F(1)})
    b = EpsSeries({1: F(3)})
    assert (a * b).terms == {0: F(6), 1: F(3)}
    assert (a + (-a)).terms == {}


def _big_rational(rng, digits=30):
    lo, hi = 10 ** (digits - 1), 10**digits - 1
    return F(rng.choice((-1, 1)) * rng.randint(lo, hi), rng.randint(lo, hi))


def test_gcd_and_squarefree_with_repeated_factors_at_30_digits(rng):
    for _ in range(5):
        a, b, c = (Poly([_big_rational(rng) for _ in range(k)]) for k in (3, 4, 2))
        p = a * b**2 * c**3
        q = b * c**2 * Poly([_big_rational(rng), 1])
        assert poly_gcd(p, q) == (b * c**2).monic()
        assert poly_gcd(q, p) == (b * c**2).monic()
        assert squarefree_decomposition(p) == [(a.monic(), 1), (b.monic(), 2),
                                               (c.monic(), 3)]


def test_integer_gcd_stays_over_z():
    from g2satake.qpoly import integer_gcd, primitive_part

    p = primitive_part(Poly.from_roots([F(1, 3), F(2, 5), F(-7)]))
    q = primitive_part(Poly.from_roots([F(2, 5), F(-7), F(9, 2)]))
    g = integer_gcd(p, q)
    assert g == Poly([-14, 33, 5])          # (5t - 2)(t + 7)
    assert all(type(c) is int for c in g.coeffs)


def test_split_rational_roots_exact(rng):
    from g2satake.qpoly import primitive_part, split_rational_roots

    for digits in (2, 10, 30, 60):
        roots = sorted({_big_rational(rng, digits) for _ in range(3)} | {F(0)})
        irreducible = Poly([3, 0, 1, 0, 0, 1])     # t^5 + t^2 + 3
        p = primitive_part(Poly.from_roots(roots) * irreducible)
        found, rest = split_rational_roots(p)
        assert found == roots
        assert rest == primitive_part(irreducible)
    assert split_rational_roots(Poly([-3, 2])) == ([F(3, 2)], Poly([1]))
    assert split_rational_roots(Poly([2, 0, 1])) == ([], Poly([2, 0, 1]))


def test_discriminant_of_rational_sextic_matches_root_product(rng):
    roots = [_big_rational(rng, 10) for _ in range(6)]
    lead = F(7, 3)
    expected = lead**10
    for i in range(6):
        for j in range(i + 1, 6):
            expected *= (roots[i] - roots[j]) ** 2
    assert discriminant(Poly.from_roots(roots, lead=lead)) == expected


def test_graded_integral_scale_recovers_the_weighting():
    from g2satake.qpoly import graded_integral_scale

    # t^3 + a t + b with a, b of weights 4 and 6 in the scale d (t weight 2)
    d = 7**3 * 11
    terms = [(1, 3, 1), (1, 1, F(5, d**4)), (1, 0, F(-3, d**6))]
    s, rho = graded_integral_scale(terms)
    assert (s, rho) == (d**6, F(1, d**2))
    assert [c * s**k * rho**i for k, i, c in terms] == [1, 5, -3]
