import math
import subprocess
import sys
from fractions import Fraction as F

import pytest

from g2satake import qpoly
from g2satake.errors import DomainError
from g2satake.fibrations import (FibrationParams, alternate_model_ftheory,
                                 dual_isogeny, isogeny, nikulin_involution)
from g2satake.igusa import (AbsoluteInvariants, IgusaInvariants, SiegelForms,
                            absolute_invariants, igusa_from_absolute,
                            igusa_from_siegel, siegel_from_igusa)
from g2satake.qpoly import (Poly, discriminant, integer_gcd, integer_squarefree,
                            poly_gcd, primitive_part, resultant,
                            squarefree_decomposition)
from g2satake.satake import PowerSums, igusa_from_power_sums, satake_sextic
from oracle_invariants import sylvester_discriminant, sylvester_resultant


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


def test_power_forms_no_product_above_its_degree(monkeypatch):
    # square-and-multiply stops squaring after the last bit of k: p**1 is
    # no square, and p**k forms no product of degree above k deg p
    p = Poly([3, -1, 2])
    expected = [math.prod([p] * k, start=Poly([1])) for k in range(9)]
    mul = Poly.__mul__
    degrees = []

    def spy(a, b):
        out = mul(a, b)
        degrees.append(out.degree())
        return out

    monkeypatch.setattr(Poly, "__mul__", spy)
    for k in range(9):
        degrees.clear()
        assert p**k == expected[k]
        assert max(degrees, default=0) <= k * p.degree(), (k, degrees)


def test_gaussian_power_forms_no_product_above_its_norm(monkeypatch):
    # the same for GaussianRational: (1 + i)**k has norm 2^k, and no
    # product on the way to it has a larger one
    z = qpoly.GaussianRational(1, 1)
    mul = qpoly.GaussianRational.__mul__
    norms = []

    def spy(a, b):
        out = mul(a, b)
        norms.append(out.re**2 + out.im**2)
        return out

    monkeypatch.setattr(qpoly.GaussianRational, "__mul__", spy)
    for k in range(9):
        norms.clear()
        w = z**k
        assert w.re**2 + w.im**2 == 2**k
        assert max(norms, default=1) <= 2**k, (k, norms)


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


@pytest.mark.parametrize("call", [
    lambda: discriminant(Poly([1, 0, 2.5])),
    lambda: discriminant(Poly([1, 0, 1j])),
    lambda: resultant(Poly([1, 0.5]), Poly([1, 1])),
    lambda: resultant(Poly([1, 1j]), Poly([1, 1])),
], ids=["discriminant-float", "discriminant-complex", "resultant-float",
        "resultant-complex"])
def test_resultant_and_discriminant_reject_inexact_coefficients(call):
    # a float must not be read as the rational it rounds to
    with pytest.raises(DomainError, match="exact"):
        call()


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
    p = primitive_part(Poly.from_roots([F(1, 3), F(2, 5), F(-7)]))
    q = primitive_part(Poly.from_roots([F(2, 5), F(-7), F(9, 2)]))
    g = integer_gcd(p, q)
    assert g == Poly([-14, 33, 5])          # (5t - 2)(t + 7)
    assert all(type(c) is int for c in g.coeffs)


# ---------------------------------------------------------------------------
# the multi-modular gcd against the primitive PRS it replaced
# ---------------------------------------------------------------------------


def _prem(a, b):
    """A nonzero multiple of the remainder of a by b, computed over Z."""
    r = list(a)
    n = len(b) - 1
    lb = b[-1]
    while len(r) > n:
        lr = r[-1]
        k = len(r) - 1 - n
        r = [c * lb for c in r]
        for i, c in enumerate(b):
            r[k + i] -= lr * c
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return r


def _primitive(cs):
    c = math.gcd(*cs)
    return [a // (c if cs[-1] > 0 else -c) for a in cs]


def prs_gcd_reference(a, b):
    """Reference: primitive gcd of primitive integer polynomials by the
    primitive pseudo-remainder sequence."""
    a, b = a.coeffs, b.coeffs
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return Poly(a)
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return Poly(b)
        a, b = b, _primitive(r)
    return Poly([1])


def _int_poly(rng, degree, digits):
    lo, hi = 10 ** (digits - 1), 10**digits - 1
    return Poly([rng.choice((-1, 1)) * rng.randint(lo, hi)
                 for _ in range(degree + 1)])


def _planted_pairs(rng, digits):
    """Primitive pairs with a planted common factor of degree 0-4 raised to
    1-3 in each, sometimes times a power of t."""
    t = Poly([0, 1])
    for _ in range(12):
        common = _int_poly(rng, rng.randint(0, 4), digits)
        a, b = (_int_poly(rng, rng.randint(1, 4), digits) for _ in range(2))
        a *= common ** rng.randint(1, 3) * t ** rng.randint(0, 2)
        b *= common ** rng.randint(1, 3) * t ** rng.randint(0, 2)
        yield primitive_part(a), primitive_part(b)


def _assert_gcd_matches_reference(a, b):
    g = integer_gcd(a, b)
    assert g == prs_gcd_reference(a, b) == integer_gcd(b, a)
    assert all(type(c) is int for c in g.coeffs)


@pytest.mark.parametrize("digits", (2, 10, 30, 60))
def test_integer_gcd_matches_the_prs_reference(digits, rng):
    for a, b in _planted_pairs(rng, digits):
        _assert_gcd_matches_reference(a, b)
        # b | a, and the cofactor pair, which is coprime only by chance
        _assert_gcd_matches_reference(primitive_part(a * b), b)
        g = integer_gcd(a, b)
        _assert_gcd_matches_reference(qpoly.integer_quotient(a, g),
                                      qpoly.integer_quotient(b, g))


@pytest.mark.parametrize("digits", (2, 10, 30, 60))
def test_integer_squarefree_matches_the_prs_reference(digits, rng, monkeypatch):
    cases = []
    for a, b in _planted_pairs(rng, digits):
        p = primitive_part(a * b * b * Poly([-3, 7]) ** 3)
        cases.append((p, integer_squarefree(p)))
    monkeypatch.setattr(qpoly, "integer_gcd", prs_gcd_reference)
    for p, parts in cases:
        assert parts == integer_squarefree(p)
        assert p == primitive_part(math.prod((g**i for g, i in parts), start=Poly([1])))


def test_integer_gcd_edge_cases():
    p0 = qpoly._prime_below(1 << 30)      # the first modulus
    x = Poly([0, 1])
    cases = [
        # coprime, but the images mod p0 agree (the power of t in the
        # first pair is split off before any image is taken)
        (x, x + p0, Poly([1])),
        (x + 1, x + 1 + p0, Poly([1])),
        # unlucky at p0 with a degree between the true one and deg b
        ((x + 2) * (x + 1) * (x + 3), (x + 2) * (x + 1 + p0) * (x + 5), x + 2),
        # leading coefficients divisible by p0
        ((p0 * x + 1) * (x + 3), (p0 * x + 1) * (2 * x - 5), p0 * x + 1),
        # b | a, constant b, coprime, zero
        ((3 * x - 2) ** 2 * (x + 7), 3 * x - 2, 3 * x - 2),
        (x**2 + 1, Poly([1]), Poly([1])),
        (x**2 + 1, x**2 - 2, Poly([1])),
        (x**3 * (x + 1), x**2 * (x + 1) ** 2, x**2 * (x + 1)),
        (x**2 + 1, Poly(), x**2 + 1),
    ]
    for a, b, g in cases:
        assert integer_gcd(a, b) == prs_gcd_reference(a, b) == g
        assert integer_gcd(b, a) == g


def test_modulus_primality_test():
    sieve = bytearray([1]) * 10**5
    sieve[:2] = b"\0\0"
    for n in range(2, 317):
        if sieve[n]:
            sieve[n * n::n] = bytes(len(range(n * n, 10**5, n)))
    assert [n for n in range(10**5) if qpoly._is_prime(n)] == [
        n for n in range(10**5) if sieve[n]]
    # strong pseudoprimes to the bases 2..7 and 2..23
    assert not qpoly._is_prime(3215031751)
    assert not qpoly._is_prime(3825123056546413051)
    assert qpoly._is_prime(2**61 - 1)


def _perfect_root_reference(b):
    """``_perfect_root`` without its residue filter: every k-th root."""
    found = True
    while found:
        found = False
        for k in (2, 3, 5, 7):
            c = qpoly._iroot(b, k)
            if c > 1 and c**k == b:
                b, found = c, True
                break
    return b


def test_perfect_root_matches_the_unfiltered_search(rng):
    small = [2, 3, 6, 10, 12, 30, 210, 997] + [rng.randrange(2, 10**6) for _ in range(12)]
    large = [2**61 - 1] + [rng.randrange(2, 10**30) for _ in range(8)]
    cases = [(c, k) for c in small for k in (1, 2, 3, 4, 5, 6, 7, 9, 10, 14, 15, 21, 35)]
    cases += [(c, k) for c in large for k in (1, 2, 3, 5, 7)]
    for c, k in cases:
        for b in (c**k - 1, c**k, c**k + 1):
            if b > 1:
                assert qpoly._perfect_root(b) == _perfect_root_reference(b), (c, k, b)


def test_importing_the_cli_computes_no_moduli():
    script = ("import g2satake.cli\n"
              "from g2satake.qpoly import _prime_below, _small_primes\n"
              "assert _prime_below.cache_info().currsize == 0\n"
              "assert _small_primes.cache_info().currsize == 0\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_split_rational_roots_exact(rng):
    from g2satake.qpoly import split_rational_roots

    for digits in (2, 10, 30, 60):
        roots = sorted({_big_rational(rng, digits) for _ in range(3)} | {F(0)})
        irreducible = Poly([3, 0, 1, 0, 0, 1])     # t^5 + t^2 + 3
        p = primitive_part(Poly.from_roots(roots) * irreducible)
        found, rest = split_rational_roots(p)
        assert found == roots
        assert rest == primitive_part(irreducible)
    assert split_rational_roots(Poly([-3, 2])) == ([F(3, 2)], Poly([1]))
    assert split_rational_roots(Poly([2, 0, 1])) == ([], Poly([2, 0, 1]))
    # (t - 1)(t^2 - D), D the product of the odd primes below 1000, is
    # squarefree, but t^2 - D has a double root modulo each of those
    # primes: the root 1 is lifted at a larger prime
    D = math.prod(qpoly._small_primes()[1:])
    assert split_rational_roots(Poly([-1, 1]) * Poly([-D, 0, 1])) == (
        [1], Poly([-D, 0, 1]))
    # a square factor has a multiple root modulo every prime
    with pytest.raises(DomainError, match="not squarefree"):
        split_rational_roots(Poly([-1, 1]) ** 2 * Poly([-D, 0, 1]))


def test_lifting_primes_are_the_primes_below_1000():
    sieve = [n for n in range(2, 1000) if all(n % k for k in range(2, n))]
    assert qpoly._small_primes() == tuple(sieve)


def _rational(rng, num_digits, den_digits):
    """u/v with |u| of num_digits and v of den_digits decimal digits."""
    while True:
        u = rng.randint(10 ** (num_digits - 1), 10**num_digits - 1)
        u *= rng.choice((-1, 1))
        v = rng.randint(10 ** (den_digits - 1), 10**den_digits - 1)
        if math.gcd(u, v) == 1:
            return F(u, v)


def _check_root_bound(p, roots):
    """B = _root_bound bounds every root, and lies within a factor 8 of
    Fujiwara's bound 2 max r_i^(1/(n-i)), r_i = |a_i / a_n| (exactly:
    (B/2)^(n-i) >= r_i for every i, and (B/16)^(n-i) <= r_i for some i)."""
    cs = p.coeffs
    n, bound = len(cs) - 1, qpoly._root_bound(cs)
    assert all(abs(r) <= bound for r in roots)
    ratios = [(F(abs(c), abs(cs[-1])), n - i) for i, c in enumerate(cs[:-1])]
    assert all(F(bound, 2) ** k >= r for r, k in ratios)
    assert bound == 2 or any(F(bound, 16) ** k <= r for r, k in ratios)


@pytest.mark.parametrize("num_digits,den_digits",
                         ((60, 1), (1, 60), (30, 30), (2, 2)),
                         ids=("u>>v", "v>>u", "balanced-30", "balanced-2"))
def test_split_rational_roots_finds_planted_roots(num_digits, den_digits, rng):
    from g2satake.qpoly import split_rational_roots

    irreducible = Poly([-2, 0, 0, 1])                  # t^3 - 2
    for _ in range(3):
        roots = sorted({_rational(rng, num_digits, den_digits) for _ in range(4)})
        for extra in ([], [F(0)]):
            planted = sorted(roots + extra)
            p = primitive_part(Poly.from_roots(planted))
            _check_root_bound(p, planted)
            assert split_rational_roots(p) == (planted, Poly([1]))
            p = primitive_part(Poly.from_roots(planted) * irreducible)
            _check_root_bound(p, planted)
            assert split_rational_roots(p) == (planted, irreducible)


def test_split_rational_roots_without_rational_roots(rng):
    from g2satake.qpoly import split_rational_roots

    # no rational root, but roots modulo many small primes
    for p in (Poly([-2, 0, 0, 1]), Poly([1, -1, 0, 0, 0, 1]),
              Poly([-1, 1, 0, 0, 0, 1]) * Poly([5, 0, 1]),
              Poly([3, 0, 1, 0, 0, 1]) * Poly([-7, 0, 0, 0, 1])):
        assert split_rational_roots(p) == ([], p)
    # a quartic with 30-digit coefficients and no rational root, times a
    # linear factor: the quartic's residues are ruled out at the root bound
    q = primitive_part(Poly([_big_rational(rng, 30) for _ in range(4)] + [1])
                       * Poly([_big_rational(rng, 30), 1]))
    found, rest = split_rational_roots(q)
    assert len(found) == 1 and rest.degree() == 4


def test_split_rational_roots_with_a_60_digit_leading_coefficient(rng):
    from g2satake.qpoly import split_rational_roots

    lead = 10**59 + 151
    roots = sorted({_big_rational(rng, 20) for _ in range(3)} | {F(0), F(-1, lead)})
    cofactor = Poly([1, 1, 0, lead])                   # lead t^3 + t + 1
    p = primitive_part(Poly.from_roots(roots) * cofactor)
    assert p.lead() % lead == 0
    assert split_rational_roots(p) == (roots, cofactor)


def _int_coeffs(rng, degree, digits, lead_sign=None):
    cs = [rng.randint(-10**digits, 10**digits) for _ in range(degree)]
    lead = rng.randint(10 ** (digits - 1), 10**digits - 1)
    return cs + [lead * (lead_sign or rng.choice((-1, 1)))]


@pytest.mark.parametrize("digits", (2, 10, 30, 60))
def test_resultant_matches_the_sylvester_determinant(digits, rng):
    cases = []
    for m, n in ((1, 1), (1, 4), (2, 3), (3, 3), (5, 2), (6, 5), (4, 6)):
        p, q = _int_coeffs(rng, m, digits), _int_coeffs(rng, n, digits, -1)
        cases.append((p, q))
        # a common root: p (t - r) and q (t - r)
        root = Poly([-_big_rational(rng, digits), 1])
        cases.append(((Poly(p) * root).coeffs, (Poly(q) * root).coeffs))
        # rational coefficients, not monic
        cases.append(([F(c, rng.randint(1, 10**digits)) for c in p], q))
    for p, q in cases:
        want = sylvester_resultant(p, q)
        assert resultant(Poly(p), Poly(q)) == want
        sign = (-1) ** ((len(p) - 1) * (len(q) - 1))
        assert resultant(Poly(q), Poly(p)) == sign * want
    assert any(sylvester_resultant(p, q) == 0 for p, q in cases)


@pytest.mark.parametrize("digits", (2, 10, 30, 60))
def test_discriminant_matches_the_sylvester_determinant(digits, rng):
    for d in (2, 3, 5, 6):
        for lead_sign in (1, -1):
            p = _int_coeffs(rng, d, digits, lead_sign)
            assert discriminant(Poly(p)) == sylvester_discriminant(p)
            frac = [F(c, rng.randint(1, 10**digits)) for c in p]
            assert discriminant(Poly(frac)) == sylvester_discriminant(frac)
        # a double root: the discriminant vanishes
        cofactor = Poly(_int_coeffs(rng, d - 2, digits)) if d > 2 else Poly([3])
        p = cofactor * Poly([-_big_rational(rng, digits), 1]) ** 2
        assert discriminant(p) == 0 == sylvester_discriminant(p.coeffs)


def test_discriminant_of_rational_sextic_matches_root_product(rng):
    roots = [_big_rational(rng, 10) for _ in range(6)]
    lead = F(7, 3)
    expected = lead**10
    for i in range(6):
        for j in range(i + 1, 6):
            expected *= (roots[i] - roots[j]) ** 2
    assert discriminant(Poly.from_roots(roots, lead=lead)) == expected


def test_root_multiplicity_counts_planted_roots(rng):
    from g2satake.qpoly import root_multiplicities

    for _ in range(30):
        roots = {F(rng.randint(-10**12, 10**12), rng.randint(1, 10**12)): rng.randint(1, 3)
                 for _ in range(3)}
        roots[F(0)] = rng.randint(0, 2)
        p = Poly([rng.randint(1, 9), 0, 1])                  # t^2 + c: no rational root
        for r, m in roots.items():
            p = p * Poly([-r.numerator, r.denominator]) ** m
        assert root_multiplicities(p, list(roots)) == list(roots.values())
        assert root_multiplicities(p, [r + 1 for r in roots]) == [0] * len(roots)


# ---------------------------------------------------------------------------
# int inputs stay exact: the value containers store ints as Fractions, and
# the point maps promote the coordinates a caller passes in
# ---------------------------------------------------------------------------


def _igusa(num):
    return IgusaInvariants(*map(num, (3, 5, 7, 11)))


def _siegel(num):
    return SiegelForms(*map(num, (1, 2, 3, 5)))


def _power_sums(num):
    return PowerSums(*map(num, (1, 2, 3, 5)))


def _params(num):
    return FibrationParams.from_igusa(_igusa(num))


INT_EXACT_CASES = {
    "absolute_invariants": lambda n: absolute_invariants(_igusa(n)),
    "igusa_from_absolute":
        lambda n: igusa_from_absolute(AbsoluteInvariants(*map(n, (2, 3, 5)))),
    "siegel_from_igusa": lambda n: siegel_from_igusa(_igusa(n)),
    "igusa_from_siegel": lambda n: igusa_from_siegel(_siegel(n)),
    "igusa_from_power_sums": lambda n: igusa_from_power_sums(_power_sums(n)),
    "satake_sextic": lambda n: satake_sextic(_power_sums(n)),
    "FibrationParams.from_igusa": _params,
    "alternate_model_ftheory": lambda n: alternate_model_ftheory(_siegel(n)),
    "isogeny": lambda n: isogeny((n(2), n(3)), n(5), _params(n)),
    "dual_isogeny": lambda n: dual_isogeny((n(2), n(3)), n(5), _params(n)),
    "nikulin_involution":
        lambda n: nikulin_involution((n(2), n(3)), n(5), _params(n)),
}


def _scalars(v):
    """Every number in a result: record fields and other sequences, Poly
    coefficients."""
    if isinstance(v, (tuple, list)):
        for x in v:
            yield from _scalars(x)
    elif isinstance(v, Poly):
        for c in v.coeffs:
            yield from _scalars(c)
    else:
        yield v


@pytest.mark.parametrize("name", sorted(INT_EXACT_CASES))
def test_int_inputs_stay_exact(name):
    from_ints = INT_EXACT_CASES[name](int)
    from_fractions = INT_EXACT_CASES[name](F)
    scalars = list(_scalars(from_ints))
    assert scalars and all(isinstance(v, (int, F)) for v in scalars)
    assert from_ints == from_fractions


def test_containers_promote_ints_and_pass_complex_through():
    inv = IgusaInvariants(1, F(1, 2), 2.5, 1j)
    assert [type(v) for v in inv.astuple()] == [F, F, float, complex]
