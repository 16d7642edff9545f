import cmath
import math
import time
from fractions import Fraction as F

import numpy as np
import pytest

from g2satake._kernels import theta_shell
from g2satake.errors import DegeneratePointError, DomainError
from g2satake.theta import (AUTO_RADIUS_MAX, EVEN_CHARACTERISTICS,
                            ODD_CHARACTERISTICS, SATAKE_MATRIX, TAIL_TARGET,
                            PeriodMatrix, ThetaConstants,
                            check_frobenius, even_theta_constants, parity,
                            reduce_fourth_powers, rosenhain_from_theta,
                            rosenhain_from_theta4, satake_from_theta,
                            theta4_from_satake, theta_constant)

GENERIC_TAU = PeriodMatrix(1 + 2j, 1j / 3, 1.5j)
TOPS = ((0, 0), (1, 0), (0, 1), (1, 1))


def box_terms(char, tau, radius):
    """Reference: the terms of the numpy box sum that the kernel replaced
    (one pass per characteristic, bottom characteristic in the exponent),
    and |u|_inf of each."""
    m1, m2, n1, n2 = char
    u = np.arange(-radius, radius + 1, dtype=np.float64)
    v1 = u[:, None] + m1 / 2
    v2 = u[None, :] + m2 / 2
    q = (v1 * v1 * tau.tau1 + 2.0 * v1 * v2 * tau.z + v2 * v2 * tau.tau2
         + v1 * n1 + v2 * n2)
    return np.exp(1j * np.pi * q), np.maximum(abs(u)[:, None], abs(u)[None, :])


def box_sum_reference(char, tau, radius):
    return complex(box_terms(char, tau, radius)[0].sum())


def random_period_matrix(rng, mu):
    """A tau whose Im part has smallest eigenvalue mu."""
    lmax = mu * rng.uniform(1.0, 2.5)
    ang = rng.uniform(0.0, math.pi)
    c, s = math.cos(ang), math.sin(ang)
    x1, x12, x2 = (rng.uniform(-0.5, 0.5) for _ in range(3))
    return PeriodMatrix(complex(x1, mu * c * c + lmax * s * s),
                        complex(x12, (lmax - mu) * c * s),
                        complex(x2, mu * s * s + lmax * c * c))


def theta1d(a, b, tau, radius=60):
    """One-dimensional series oracle for genus-1 theta constants."""
    return sum(cmath.exp(1j * math.pi * ((n + a) ** 2 * tau + 2 * (n + a) * b))
               for n in range(-radius, radius + 1))


def test_characteristic_parities():
    assert [parity(c) for c in EVEN_CHARACTERISTICS] == [1] * 10
    assert [parity(c) for c in ODD_CHARACTERISTICS] == [-1] * 6


def test_period_matrix_validation():
    with pytest.raises(DomainError):
        PeriodMatrix(1j, 2j, 1j)   # Im not positive definite
    with pytest.raises(DomainError):
        PeriodMatrix(1e300j, 0j, 1e-310j)   # mu is subnormal


def test_min_eigenvalue_of_im_tau():
    assert PeriodMatrix(0.3 + 2j, 0.1 + 1j, 2j).min_eigenvalue == pytest.approx(1)
    tiny = PeriodMatrix(1e-9j, 0.5 + 0j, -0.2 + 1j).min_eigenvalue
    assert tiny == pytest.approx(1e-9, rel=1e-12)


def test_radius_below_one_is_a_domain_error():
    with pytest.raises(DomainError):
        even_theta_constants(GENERIC_TAU, 0)


def test_kernel_matches_numpy_box_sum_at_radius_12(rng):
    rel = 1e-13   # of the largest constant: the summation order differs
    taus = [GENERIC_TAU, PeriodMatrix(0.1 + 0.7j, 0.05 + 0.1j, -0.2 + 0.8j)]
    taus += [random_period_matrix(rng, rng.uniform(0.1, 2.5)) for _ in range(4)]
    for tau in taus:
        want = [box_sum_reference(ch, tau, 12) for ch in EVEN_CHARACTERISTICS]
        got = even_theta_constants(tau, 12).values
        scale = max(map(abs, want))
        for g, w in zip(got, want):
            assert abs(g - w) <= rel * scale
        for ch in ODD_CHARACTERISTICS:
            w = box_sum_reference(ch, tau, 12)
            assert abs(theta_constant(ch, tau, 12).value - w) <= rel * scale


def test_automatic_radius_is_within_its_tail_bound(rng):
    for _ in range(50):
        tau = random_period_matrix(rng, rng.uniform(0.1, 2.5))
        tc = even_theta_constants(tau)
        assert tc.radius < AUTO_RADIUS_MAX and tc.max_tail <= TAIL_TARGET
        assert tc.tails == (tc.max_tail,) * 10
        for ch, got in zip(EVEN_CHARACTERISTICS, tc.values):
            terms, _ = box_terms(ch, tau, 30)
            # rounding of both double sums grows with the terms' total size
            # (up to about 7 here), so the slack is 1e-15 per unit of it
            slack = 1e-15 * abs(terms).sum()
            assert abs(got - complex(terms.sum())) <= tc.max_tail + slack


def test_tail_bound_covers_the_omitted_terms(rng):
    # Im tau = mu * identity is where the bound is tightest (within 2x)
    taus = [PeriodMatrix(mu * 1j, 0j, mu * 1j) for mu in (0.02, 0.1, 0.4, 1.0)]
    taus += [random_period_matrix(rng, mu) for mu in (0.02, 0.1, 0.4, 1.0, 2.5)]
    for tau in taus:
        for top in TOPS:
            terms, box = box_terms(top + (0, 0), tau, 30)
            size = abs(terms)
            for radius in range(1, AUTO_RADIUS_MAX + 1):
                omitted = size[box > radius].sum()
                assert omitted <= theta_shell(tau.min_eigenvalue, radius)


def test_near_singular_im_tau_is_fast_and_not_precise():
    tau = PeriodMatrix(0.1 + 1e-9j, 0.2 + 0j, -0.3 + 1j)
    start = time.perf_counter()
    tc = even_theta_constants(tau)
    assert time.perf_counter() - start < 0.05
    assert tc.radius == AUTO_RADIUS_MAX
    assert not tc.precise


def test_theta1_at_diag_ii_gamma_value():
    tv = theta_constant((0, 0, 0, 0), PeriodMatrix(1j, 0j, 1j), 12)
    ref = math.sqrt(math.pi) / math.gamma(0.75) ** 2
    assert abs(tv.value - ref) < 1e-9
    assert tv.precise


def test_theta_char_00hh_at_diag_ii():
    tv = theta_constant((0, 0, 1, 1), PeriodMatrix(1j, 0j, 1j), 12)
    assert abs(tv.value - 0.8346268) < 1e-6
    assert abs(tv.value - theta1d(0, 0.5, 1j) ** 2) < 1e-10


def test_product_decomposition_diag_i_2i():
    tau = PeriodMatrix(1j, 0j, 2j)
    tc = even_theta_constants(tau, 12)
    for i, (m1, m2, n1, n2) in enumerate(EVEN_CHARACTERISTICS):
        ref = theta1d(m1 / 2, n1 / 2, 1j) * theta1d(m2 / 2, n2 / 2, 2j)
        assert abs(tc.values[i] - ref) < 1e-10


def test_odd_characteristics_vanish():
    for ch in ODD_CHARACTERISTICS:
        tv = theta_constant(ch, GENERIC_TAU, 12)
        assert abs(tv.value) < 1e-12


def test_all_even_finite_and_theta1_nonzero():
    tc = even_theta_constants(PeriodMatrix(1.02j, 0.01 + 0.01j, 0.98j), 12)
    assert all(abs(v) < 10 for v in tc.values)
    assert abs(tc.theta(1)) > 0.5


def test_frobenius_residuals_generic():
    tc = even_theta_constants(GENERIC_TAU, 12)
    residuals = check_frobenius(tc)
    assert max(residuals.values()) < 1e-10
    assert len(residuals) == 13   # 6 + 2 identities, 5 reductions


def test_frobenius_reduction_exact_by_construction():
    tc = even_theta_constants(GENERIC_TAU, 12)
    t4 = reduce_fourth_powers(tc.fourth_powers()[:5])
    rebuilt = ThetaConstants(values=tuple(v ** 0.25 for v in t4))
    for name, r in check_frobenius(rebuilt).items():
        if "reduction" in name:
            assert r < 1e-14


def test_frobenius_sensitivity():
    tc = even_theta_constants(GENERIC_TAU, 12)
    vals = list(tc.values)
    vals[0] += 1e-3
    residuals = check_frobenius(ThetaConstants(values=tuple(vals)))
    assert max(residuals.values()) > 1e-4


def test_satake_linear_forms_hand_case():
    tc = ThetaConstants(values=(1, 1, 1, 1, 0, 0, 0, 0, 0, 0))
    assert satake_from_theta(tc).x == (2, -1, -1, -1, -1, 2)


def test_satake_sum_and_quartic_relation():
    co = satake_from_theta(even_theta_constants(GENERIC_TAU, 12))
    assert co.sum_residual < 1e-12
    assert co.quartic_residual() < 1e-9


def test_theta4_from_satake_inverts():
    tc = even_theta_constants(GENERIC_TAU, 12)
    co = satake_from_theta(tc)
    t4 = theta4_from_satake(co.x)
    for i in range(10):
        assert abs(t4[i] - tc.fourth_powers()[i]) < 1e-12


def test_theta4_from_satake_exact_cases():
    assert theta4_from_satake([0] * 6) == (0,) * 10
    t4 = theta4_from_satake(tuple(F(v) for v in (2, -1, -1, -1, -1, 2)))
    assert t4[0] == 1 and t4[4] == 0


def test_satake_roundtrip_exact_linear_algebra(rng):
    # random exact fourth powers through x and back
    for _ in range(5):
        base = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(5)]
        t4 = reduce_fourth_powers(base)
        x = [sum(c * base[k] for k, c in enumerate(row)) for row in SATAKE_MATRIX]
        assert theta4_from_satake(x) == tuple(t4)


def test_rosenhain_two_paths_agree():
    tc = even_theta_constants(GENERIC_TAU, 14)
    la = rosenhain_from_theta(tc)
    lb = rosenhain_from_theta4(tc.fourth_powers())
    for u, v in zip(la, lb):
        assert abs(u - v) < 1e-9
    assert len({round(c.real, 6) for c in la}) == 3   # distinct
    for lam in la:
        assert abs(lam) > 1e-3 and abs(lam - 1) > 1e-3


def test_rosenhain_degenerate_product_point():
    tc = even_theta_constants(PeriodMatrix(1j, 0j, 1j), 12)
    with pytest.raises(DegeneratePointError):
        rosenhain_from_theta(tc)


def test_rosenhain_from_theta4_symmetric_input():
    lams = rosenhain_from_theta4(tuple([1.0 + 0j] * 10))
    assert abs(lams[0] - 0.5) < 1e-15


def test_rosenhain_from_theta4_frobenius_consistent_case():
    # impose t7^4 t9^4 = t1^4 t3^4 - (t2^4 t4^4 forced square consistency)
    t4 = [F(5), F(2), F(3), F(1), F(2), F(1), F(7), F(4), F(1), F(2)]
    t4[6] = (t4[0] * t4[2] - t4[1] * t4[3])   # t7^4 t9^4 with t9^4 = 1
    lams = rosenhain_from_theta4(tuple(t4))
    assert lams[0] == F(1, 2) + F(1, 2) * (t4[0] * t4[2] - t4[6] * t4[8]) / (t4[1] * t4[3])
