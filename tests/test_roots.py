import cmath
from fractions import Fraction as F

import numpy as np
import pytest

from g2satake import _kernels
from g2satake.errors import DomainError
from g2satake.qpoly import Poly
from g2satake.roots import complex_roots, gaussian_roots


def test_quadratic_units():
    roots = sorted(complex_roots(Poly([1, 0, 1])), key=lambda z: z.imag)
    assert abs(roots[0] + 1j) < 1e-12 and abs(roots[1] - 1j) < 1e-12


def test_sixth_roots_of_unity():
    roots = complex_roots(Poly([-1, 0, 0, 0, 0, 0, 1]))
    assert len(roots) == 6
    assert abs(sum(roots)) < 1e-10
    for r in roots:
        assert abs(abs(r) - 1) < 1e-12


def test_rational_cubic():
    roots = sorted(complex_roots(Poly([2, -1, -2, 1])), key=lambda z: z.real)
    for got, want in zip(roots, (-1, 1, 2)):
        assert abs(got - want) < 1e-12


def test_double_root_residual():
    roots = complex_roots(Poly([1, -2, 1]))
    for r in roots:
        assert abs(r - 1) < 1e-6


def test_vieta_property(rng):
    for _ in range(10):
        want = [complex(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(6)]
        p = Poly.from_roots(want)
        got = complex_roots(p)
        # elementary symmetric functions reproduce the coefficients
        rebuilt = Poly.from_roots(got)
        scale = max(abs(c) for c in p.coeffs)
        for a, b in zip(rebuilt.coeffs, p.coeffs):
            assert abs(a - b) <= 1e-8 * scale


def test_degree_guards():
    with pytest.raises(DomainError):
        complex_roots(Poly([3]))
    with pytest.raises(DomainError):
        complex_roots([1.0, 1e-14])


def test_exact_polish_hits_machine_precision():
    p = Poly.from_roots([F(1, 3), F(7, 2), F(-5, 4), F(11, 6), F(2), F(-3)])
    roots = [complex(r) for r in gaussian_roots(p)]
    want = sorted([1 / 3, 3.5, -1.25, 11 / 6, 2.0, -3.0])
    got = sorted(r.real for r in roots)
    for a, b in zip(got, want):
        assert abs(a - b) < 1e-14


def test_gaussian_roots_polish_irrational_root():
    got = sorted((complex(r) for r in gaussian_roots(Poly([-2, 0, 1]))),
                 key=lambda z: z.real)
    for val, want in zip(got, (-1, 1)):
        assert abs(val - want * cmath.sqrt(2)) < 1e-15


def test_gaussian_roots_are_exact_for_rational_roots():
    p = Poly.from_roots([F(1, 3), F(-7, 2), F(5)])
    got = gaussian_roots(p)
    values = sorted((g.re, g.im) for g in got)
    assert values == [(F(-7, 2), 0), (F(1, 3), 0), (F(5), 0)]


def test_aberth_finds_known_roots():
    rng = np.random.default_rng(3)
    roots = rng.normal(size=5) + 1j * rng.normal(size=5)
    got, _ = _kernels.aberth(np.poly(roots), 1e-14, 500)
    assert np.abs(np.sort_complex(got) - np.sort_complex(roots)).max() < 1e-9


def _match(got, want):
    """Largest distance, relative to max(1, |w|), after pairing each wanted
    root with the nearest unused one of ``got``."""
    rest, worst = list(got), 0.0
    for w in sorted(want, key=abs, reverse=True):
        k = min(range(len(rest)), key=lambda i: abs(rest[i] - w))
        worst = max(worst, abs(rest.pop(k) - w) / max(1.0, abs(w)))
    return worst


@pytest.mark.parametrize("degree", range(1, 9))
@pytest.mark.parametrize("field", ("real", "complex"))
def test_complex_roots_match_numpy_roots(degree, field, rng):
    for zeros in range(min(2, degree) + 1):     # roots at the origin
        for _ in range(5):
            cs = [0j] * zeros + [
                complex(rng.gauss(0, 1), rng.gauss(0, 1) if field == "complex" else 0)
                for _ in range(degree - zeros + 1)]
            got = complex_roots(cs)
            assert len(got) == degree and got.count(0j) >= zeros
            assert _match(got, np.roots(cs[::-1]).tolist()) < 1e-10


def test_real_roots_are_real_after_the_polish():
    simple = Poly([1, -3, 0, 1])                      # three irrational real roots
    double = Poly.from_roots([F(1, 3), F(1, 3), F(5), F(-2)]) * Poly([-2, 0, 1])
    irrational_double = Poly([-2, 0, 1]) * Poly([-2, 0, 1]) * Poly([-3, 1])
    for p, n in ((simple, 3), (double, 6), (irrational_double, 5)):
        got = gaussian_roots(p)
        assert len(got) == n
        assert all(g.im == 0 for g in got)
    assert sum(g == F(1, 3) for g in gaussian_roots(double)) == 2
    got = sorted(float(g.re) for g in gaussian_roots(irrational_double))
    for a, b in zip(got, (-2 ** 0.5, -2 ** 0.5, 2 ** 0.5, 2 ** 0.5, 3)):
        assert abs(a - b) < 1e-15


def test_complex_pairs_keep_their_imaginary_parts():
    units = sorted(gaussian_roots(Poly([1, 0, 1])), key=lambda g: g.im)
    assert [(g.re, g.im) for g in units] == [(0, -1), (0, 1)]
    # 1 +- 1e-6 i: close to the real axis, but resolvable in double precision
    near = sorted(gaussian_roots(Poly([1 + F(1, 10**12), -2, 1])),
                  key=lambda g: g.im)
    for g, sign in zip(near, (-1, 1)):
        assert abs(complex(g) - complex(1, sign * 1e-6)) < 1e-20
