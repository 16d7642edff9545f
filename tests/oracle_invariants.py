"""Independent root-based oracle for the Igusa-Clebsch invariants.

Evaluates the classical symmetric sums over projective root pairs
directly: 15 pair-partitions for the degree-2 invariant, 10 triple
splits for degree 4, 60 split+matching terms for degree 6, and the full
product of squared differences for the discriminant.  Slow but written
straight from the definitions, with no shared code with the package.
"""

import itertools
from fractions import Fraction


def _pair_partitions(idx):
    seen = set()
    for p in itertools.permutations(idx):
        key = tuple(sorted(tuple(sorted((p[2 * i], p[2 * i + 1])))
                           for i in range(3)))
        if key not in seen:
            seen.add(key)
            yield key


def _triple_splits(idx):
    seen = set()
    for comb in itertools.combinations(idx, 3):
        rest = tuple(sorted(set(idx) - set(comb)))
        key = tuple(sorted([comb, rest]))
        if key not in seen:
            seen.add(key)
            yield comb, rest


def invariants_from_root_pairs(pairs, lead):
    """(I2, I4, I6, I10) from six projective roots (alpha_i : beta_i)."""
    idx = tuple(range(6))

    def d(i, j):
        (a1, b1), (a2, b2) = pairs[i], pairs[j]
        return a1 * b2 - a2 * b1

    def tri(t):
        i, j, k = t
        return d(i, j) ** 2 * d(j, k) ** 2 * d(k, i) ** 2

    I2 = lead**2 * sum(
        d(i, j) ** 2 * d(k, l) ** 2 * d(m, n) ** 2
        for (i, j), (k, l), (m, n) in _pair_partitions(idx))
    I4 = lead**4 * sum(tri(t1) * tri(t2) for t1, t2 in _triple_splits(idx))
    I6 = lead**6 * sum(
        tri(t1) * tri(t2)
        * d(t1[0], p[0]) ** 2 * d(t1[1], p[1]) ** 2 * d(t1[2], p[2]) ** 2
        for t1, t2 in _triple_splits(idx)
        for p in itertools.permutations(t2))
    I10 = lead**10
    for i, j in itertools.combinations(idx, 2):
        I10 *= d(i, j) ** 2
    return I2, I4, I6, I10


def rosenhain_root_pairs(l1, l2, l3):
    """Projective roots of X(X-1)(X-l1)(X-l2)(X-l3) as a binary sextic."""
    finite = [Fraction(0), Fraction(1), Fraction(l1), Fraction(l2), Fraction(l3)]
    pairs = [(v, Fraction(1)) for v in finite] + [(Fraction(1), Fraction(0))]
    return pairs, Fraction(-1)


def sylvester_resultant(p, q):
    """res(p, q) of coefficient lists (lowest degree first, nonzero leading
    coefficients, degrees >= 1) as the determinant of the Sylvester matrix,
    by Gaussian elimination over Q."""
    m, n = len(p) - 1, len(q) - 1
    size = m + n
    hp = [Fraction(c) for c in reversed(p)]
    hq = [Fraction(c) for c in reversed(q)]
    zero = [Fraction(0)]
    rows = ([zero * i + hp + zero * (n - 1 - i) for i in range(n)]
            + [zero * i + hq + zero * (m - 1 - i) for i in range(m)])
    det = Fraction(1)
    for k in range(size):
        pivot = next((i for i in range(k, size) if rows[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, size):
            f = rows[i][k] / rows[k][k]
            if f:
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[k])]
    return det


def sylvester_discriminant(p):
    """(-1)^(d(d-1)/2) res(p, p') / lc(p) for a coefficient list of degree
    d >= 2, with the resultant from the Sylvester matrix."""
    d = len(p) - 1
    dp = [k * Fraction(c) for k, c in enumerate(p)][1:]
    sign = -1 if d * (d - 1) // 2 % 2 else 1
    return sign * sylvester_resultant(p, dp) / Fraction(p[-1])


def q_expanded(p4, p6, c10, c12):
    """Q term by term: the 24 monomials of the weight-60 form in
    (psi4, psi6, chi10, chi12), with no shared subexpression."""
    return (
        2**24 * 3**15 * c12**5
        - 2**13 * 3**9 * p4**3 * c12**4
        - 2**13 * 3**9 * p6**2 * c12**4
        + 3**3 * p4**6 * c12**3
        - 2 * 3**3 * p4**3 * p6**2 * c12**3
        - 2**14 * 3**8 * p4**2 * p6 * c10 * c12**3
        - 2**23 * 3**12 * 5**2 * p4 * c10**2 * c12**3
        + 3**3 * p6**4 * c12**3
        + 2**11 * 3**6 * 37 * p4**4 * c10**2 * c12**2
        + 2**11 * 3**6 * 5 * 7 * p4 * p6**2 * c10**2 * c12**2
        - 2**23 * 3**9 * 5**3 * p6 * c10**3 * c12**2
        - 3**2 * p4**7 * c10**2 * c12
        + 2 * 3**2 * p4**4 * p6**2 * c10**2 * c12
        + 2**11 * 3**5 * 5 * 19 * p4**3 * p6 * c10**3 * c12
        + 2**20 * 3**8 * 5**3 * 11 * p4**2 * c10**4 * c12
        - 3**2 * p4 * p6**4 * c10**2 * c12
        + 2**11 * 3**5 * 5**2 * p6**3 * c10**3 * c12
        - 2 * p4**6 * p6 * c10**3
        - 2**12 * 3**4 * p4**5 * c10**4
        + 2**2 * p4**3 * p6**3 * c10**3
        + 2**12 * 3**4 * 5**2 * p4**2 * p6**2 * c10**4
        + 2**21 * 3**7 * 5**4 * p4 * p6 * c10**5
        - 2 * p6**5 * c10**3
        + 2**32 * 3**9 * 5**5 * c10**6
    )


def qvanish_expanded(a, b, c, d, e):
    """The quintic-discriminant bracket term by term: its 24 monomials in
    (a, b, c, d, e), with no shared subexpression."""
    return (
        16 * a**7 * c**2 * d - 16 * a**6 * b * c**3 + 16 * a**5 * c**4 * e
        + 16 * a**6 * d**3 + 216 * a**4 * b**2 * c**2 * d
        + 888 * a**4 * c**2 * d**2 * e - 216 * a**3 * b**3 * c**3
        - 3420 * a**3 * b * c**3 * d * e + 2700 * a**2 * b**2 * c**4 * e
        + 4125 * a**2 * c**4 * d * e**2 - 5625 * a * b * c**5 * e**2
        + 3125 * c**6 * e**3 + 216 * a**3 * b**2 * d**3
        + 864 * a**3 * d**4 * e - 2592 * a**2 * b * c * d**3 * e
        + 729 * a * b**4 * c**2 * d - 5670 * a * b**2 * c**2 * d**2 * e
        + 16200 * a * c**2 * d**3 * e**2 - 729 * b**5 * c**3
        + 6075 * b**3 * c**3 * d * e - 13500 * b * c**3 * d**2 * e**2
        + 729 * b**4 * d**3 - 5832 * b**2 * d**4 * e + 11664 * d**5 * e**2
    )
