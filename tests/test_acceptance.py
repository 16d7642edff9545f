"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Every tolerance is pinned here; exact means Fraction equality
with zero tolerance.
"""

import random
import time
from fractions import Fraction as F
from math import isqrt

from g2satake.fibrations import (FibrationParams, alternate_model,
                                 alternate_model_ftheory, classify_fibers,
                                 kumfib2_model, kummer_quartic_model,
                                 qvanish_bracket, radicand, standard_model,
                                 type_iii_siegel_identity)
from g2satake.igusa import (SiegelForms, SiegelPoint, absolute_invariants,
                            igusa_from_rosenhain, igusa_from_sextic,
                            igusa_from_siegel, q_form, rosenhain_poly,
                            siegel_from_igusa)
from g2satake.qpoly import Poly
from g2satake.roots import gaussian_roots
from g2satake.satake import (SatakeSextic, phi_map, power_sums_from_igusa,
                             reconstruct_from_satake_roots,
                             satake_discriminant_identity, satake_sextic,
                             satake_sextic_from_siegel, satake_sextic_on_point,
                             theta_power_sum_consistency)
from g2satake.theta import (PeriodMatrix, check_frobenius, even_theta_constants,
                            rosenhain_from_theta, satake_from_theta)

EVEN_SEXTIC = Poly.from_roots([F(1), F(-1), F(2), F(-2), F(3), F(-3)])

# five generic period matrices, all imaginary entries inside [0.8, 2.0]
TAUS = (
    (0.44 + 1.86j, -0.26 + 0.81j, -0.10 + 1.93j),
    (-0.53 + 1.78j, -0.14 + 0.89j, -0.10 + 1.97j),
    (-0.60 + 1.40j, 0.00 + 0.83j, 0.13 + 1.88j),
    (-0.21 + 1.43j, 0.17 + 0.81j, 0.59 + 1.95j),
    (0.58 + 1.90j, -0.28 + 0.83j, 0.05 + 1.49j),
)


def _triples(seed, count, height):
    """Random generic triples: distinct, off 0/1, and off the special loci
    (I2 = 0, Q = 0) where the generic propositions rightly degenerate."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        lams = []
        while len(lams) < 3:
            v = F(rng.randint(-height, height), rng.randint(1, height))
            if v not in lams and v not in (0, 1):
                lams.append(v)
        inv = igusa_from_rosenhain(*lams)
        if inv.I10 == 0 or inv.I2 == 0:
            continue
        if q_form(siegel_from_igusa(inv)) == 0:
            continue
        out.append(tuple(lams))
    return out


def _report(num, label, t0, budget):
    dt = time.perf_counter() - t0
    print(f"[acceptance] criterion {num} ({label}): PASS in {dt:.2f}s "
          f"(budget {budget}s)")
    assert dt < budget


def _siegel_points(seed, count, height):
    """Random Siegel form values, every fourth with chi10 = 0."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        vals = [F(rng.randint(-height, height), rng.randint(1, height))
                for _ in range(4)]
        if i % 4 == 3:
            vals[2] = F(0)
        out.append(SiegelForms(*vals))
    return out


TRIPLES_20 = _triples(1001, 20, 50)
TRIPLES_10 = _triples(1002, 10, 20)
SIEGEL_40 = _siegel_points(1004, 40, 50)


def test_criterion_1_discriminant_identity():
    t0 = time.perf_counter()
    for lams in TRIPLES_20:
        s = SiegelPoint.of(siegel_from_igusa(igusa_from_rosenhain(*lams)))
        # the Siegel-form sextic, checked against the Bell and closed forms
        sextic = SatakeSextic(siegel=s)
        satake_sextic_on_point(s, sextic)
        disc, q = satake_discriminant_identity(s, sextic)
        assert disc == 2**52 * 3**21 * q   # exact, zero tolerance
    _report(1, "disc(Satake sextic) = 2^52 3^21 Q, 20 triples", t0, 10)


def _iroot(n, k):
    """Integer floor k-th root by Newton iteration."""
    if n == 0:
        return 0
    x = 1 << (-(-n.bit_length() // k))
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _is_fifth_power(v):
    v = F(v)
    def root5(n):
        if n < 0:
            return -root5(-n)
        r = _iroot(n, 5)
        return r if r**5 == n else None
    rn, rd = root5(v.numerator), root5(v.denominator)
    return rn is not None and rd is not None and F(rn, rd) ** 5 == v


def test_criterion_2_phi_dual_path():
    from g2satake.satake import _phi_q

    t0 = time.perf_counter()
    for lams in TRIPLES_20:
        inv = igusa_from_rosenhain(*lams)
        j = absolute_invariants(inv)
        res = phi_map(j)      # raises IdentityViolationError on any mismatch
        qv = _phi_q(j.j1, j.j2, j.j3)
        # fifth-power structure of the first component numerator, exact
        assert _is_fifth_power(res.j_image.j1 * qv * F(729, 64))
        # denominator relation Q I2^-30 = 2^-63 j1^-15 q on the original
        # curve's own Q and I2, exact
        Q_orig = q_form(siegel_from_igusa(inv))
        assert (Q_orig * F(inv.I2) ** -30
                == F(2) ** -63 * F(j.j1) ** -15 * qv)
    _report(2, "moduli-map components = direct oracle, 20 triples", t0, 30)


def test_criterion_3_perfect_square():
    t0 = time.perf_counter()
    for lams in TRIPLES_20:
        res = phi_map(absolute_invariants(igusa_from_rosenhain(*lams)))
        v = F(res.N_squared)
        assert v >= 0
        assert isqrt(v.numerator) ** 2 == v.numerator
        assert isqrt(v.denominator) ** 2 == v.denominator
    _report(3, "Q(tau')/(2^210 3^132 Q^3) is a rational square", t0, 10)


def test_criterion_4_fiber_census():
    t0 = time.perf_counter()
    for lams in TRIPLES_10:
        inv = igusa_from_rosenhain(*lams)
        p = FibrationParams.from_igusa(inv)
        c1 = classify_fibers(kumfib2_model(inv))
        assert c1.type_multiset() == {"I2": 6, "I5*": 1, "I1": 1}
        c2 = classify_fibers(alternate_model(p))
        assert c2.type_multiset() == {"I1": 6, "I10*": 1, "I2": 1}
        c3 = classify_fibers(standard_model(p))
        assert c3.type_multiset() == {"I1": 5, "II*": 1, "III*": 1}
        c4 = classify_fibers(kummer_quartic_model(*lams).jacobian_model())
        assert c4.type_multiset() == {"I2": 6, "I0*": 2}
        for c in (c1, c2, c3, c4):
            assert c.euler_sum == 24
    _report(4, "fiber censuses of the four fibrations, 10 triples", t0, 30)


def test_criterion_5_degenerations():
    t0 = time.perf_counter()
    inv = igusa_from_sextic(EVEN_SEXTIC)
    assert q_form(siegel_from_igusa(inv)) == 0
    p = FibrationParams.from_igusa(inv)
    assert qvanish_bracket(p) == 0
    census = classify_fibers(alternate_model(p))
    assert census.type_multiset() == {"I1": 4, "I2": 2, "I10*": 1}
    chiless = SiegelForms(F(3), F(5), F(0), F(7))
    assert classify_fibers(alternate_model_ftheory(chiless)).has_type("I12*")
    for lams in TRIPLES_10[:5]:
        inv = igusa_from_rosenhain(*lams)
        lhs, rhs = type_iii_siegel_identity(FibrationParams.from_igusa(inv),
                                            siegel_from_igusa(inv))
        assert lhs == rhs
    _report(5, "degeneration corollaries and type-III dictionary", t0, 10)


def test_criterion_6_satake_positions():
    t0 = time.perf_counter()
    for lams in TRIPLES_10:
        inv = igusa_from_rosenhain(*lams)
        f = satake_sextic(power_sums_from_igusa(inv))
        sub = f(Poly([0, F(-3)]))
        assert 729 * kumfib2_model(inv).B == sub
        assert 729 * radicand(FibrationParams.from_igusa(inv)) == sub
        # the paper's headline claim: the F-theory model manifests the
        # Satake sextic, its I1 fibers sitting at t = x_i/12
        ftheory = alternate_model_ftheory(siegel_from_igusa(inv))
        assert f(Poly([0, 12])) == 1728**2 * (ftheory.A**2 - 4 * ftheory.B)
    # the same on Siegel input, chi10 = 0 included, where the radicand
    # (a function of the Igusa invariants) exists only off chi10 = 0
    for s in SIEGEL_40:
        f = satake_sextic_from_siegel(s)
        ftheory = alternate_model_ftheory(s)
        assert f(Poly([0, 12])) == 1728**2 * (ftheory.A**2 - 4 * ftheory.B)
        if s.chi10 != 0:
            p = FibrationParams.from_igusa(igusa_from_siegel(s))
            assert f(Poly([0, F(-3)])) == 729 * radicand(p)
    _report(6, "I2/I1 positions are the Satake sextic at t=-x/3 and x/12, "
            "10 Rosenhain and 40 Siegel points", t0, 5)


def test_criterion_7_numeric_theta_loop():
    t0 = time.perf_counter()
    for t1, z, t2 in TAUS:
        tau = PeriodMatrix(t1, z, t2)
        tc = even_theta_constants(tau, 12)
        assert max(check_frobenius(tc).values()) <= 1e-10
        coords = satake_from_theta(tc)
        assert coords.sum_residual <= 1e-12
        assert coords.quartic_residual() <= 1e-9
        _, worst = theta_power_sum_consistency(tc, rosenhain_from_theta(tc))
        assert worst <= 1e-7
    _report(7, "theta loop at radius 12 over 5 generic tau", t0, 20)


def test_criterion_8_reconstruction_round_trip():
    t0 = time.perf_counter()
    for lams in _triples(1003, 10, 8):
        inv = igusa_from_rosenhain(*lams)
        f = satake_sextic(power_sums_from_igusa(inv))
        roots = gaussian_roots(f)
        rec, _ = reconstruct_from_satake_roots(roots)
        j_rec = absolute_invariants(igusa_from_rosenhain(*rec))
        j_src = absolute_invariants(inv)
        for a, b in zip(j_rec.astuple(), j_src.astuple()):
            assert abs(complex(a) - complex(b)) <= 1e-8 * (1 + abs(complex(b)))
    _report(8, "Satake roots -> Rosenhain -> same absolute invariants", t0, 20)


def test_criterion_9_sextic_recovery():
    t0 = time.perf_counter()
    for lams in TRIPLES_10:
        assert kummer_quartic_model(*lams).sextic_limit() == rosenhain_poly(*lams)
    _report(9, "eps^10-scaled limit recovers the defining sextic", t0, 5)


def test_criterion_10_documented_exclusions():
    # excluded by design, documented rather than computed: the degree-16
    # property of the moduli map, Mordell-Weil groups of the fibrations,
    # and the string-theory interpretation
    import pathlib

    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text().lower()
    for needle in ("degree 16", "mordell-weil"):
        assert needle in text, f"README must document exclusion: {needle}"
    print("[acceptance] criterion 10 (documented exclusions): PASS")
