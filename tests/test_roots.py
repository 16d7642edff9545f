import cmath
from fractions import Fraction as F

import numpy as np
import pytest

from g2satake import _kernels
from g2satake.errors import DomainError
from g2satake.qpoly import Poly
from g2satake.roots import complex_roots, gaussian_roots, polish_root_exact


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
        complex_roots([1.0, 1e-14], tol=1e-10)


def test_exact_polish_hits_machine_precision():
    p = Poly.from_roots([F(1, 3), F(7, 2), F(-5, 4), F(11, 6), F(2), F(-3)])
    roots = complex_roots(p, polish=True)
    want = sorted([1 / 3, 3.5, -1.25, 11 / 6, 2.0, -3.0])
    got = sorted(r.real for r in roots)
    for a, b in zip(got, want):
        assert abs(a - b) < 1e-14


def test_polish_single_root_helper():
    val = polish_root_exact([F(-2), F(0), F(1)], 1.41421, steps=4)
    assert abs(val - cmath.sqrt(2)) < 1e-15


def test_gaussian_roots_are_exact_for_rational_roots():
    p = Poly.from_roots([F(1, 3), F(-7, 2), F(5)])
    got = gaussian_roots(p, digits=40)
    values = sorted((g.re, g.im) for g in got)
    assert values == [(F(-7, 2), 0), (F(1, 3), 0), (F(5), 0)]


def test_aberth_finds_known_roots():
    rng = np.random.default_rng(3)
    roots = rng.normal(size=5) + 1j * rng.normal(size=5)
    got, _ = _kernels.aberth(np.poly(roots), 1e-14, 500)
    assert np.abs(np.sort_complex(got) - np.sort_complex(roots)).max() < 1e-9
