"""Exact scalar and univariate polynomial algebra.

Scalars are plain Python numbers: ``fractions.Fraction`` (or ``int``) for
exact work, ``complex`` for numeric work.  ``Poly`` is a dense univariate
polynomial over any such coefficient ring, stored lowest degree first.
Coefficients may themselves be ``Poly`` instances, which is how the few
bivariate computations in this package (models over Q[t], the epsilon
limit) are carried out.

The exact algorithms run on integers: a weighted point with rational
coordinates is carried as an integer representative
(``integral_representative``), and gcds, squarefree decompositions and
rational roots work on primitive integer polynomials.

Everything here is immutable and pure; no operation ever rounds a
Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _int_gcd, isqrt, lcm as _int_lcm

from .errors import DomainError, IdentityViolationError


def _is_zero(c):
    """Zero test that works for numbers and nested Poly coefficients."""
    if isinstance(c, Poly):
        return not c.coeffs
    return c == 0


class GaussianRational:
    """Exact complex number with Fraction real and imaginary parts.

    Drop-in replacement for ``complex`` in the reconstruction pipeline:
    it supports the field operations, integer powers, abs() (as float),
    and mixes with int/Fraction operands, so the generic formulas in the
    theta and invariant modules run on it unchanged.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def _coerce(cls, v):
        if isinstance(v, GaussianRational):
            return v
        if isinstance(v, (int, Fraction)):
            return cls(v)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational((self.re * o.re + self.im * o.im) / n,
                                (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise DomainError("GaussianRational powers must be integers >= 0")
        out = GaussianRational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __abs__(self):
        return abs(complex(self))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def limit(self, digits=50):
        bound = 10**digits
        return GaussianRational(self.re.limit_denominator(bound),
                                self.im.limit_denominator(bound))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


class Poly:
    """Dense univariate polynomial, coefficient list lowest degree first.

    The zero polynomial has an empty coefficient list; otherwise the
    leading (last) coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and _is_zero(cs[-1]):
            cs.pop()
        self.coeffs = tuple(cs)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_roots(cls, roots, lead=1):
        p = cls([lead])
        for r in roots:
            p = p * cls([-r, 1])
        return p

    # -- basic structure ----------------------------------------------

    def degree(self):
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def lead(self):
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coeff(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        # allow comparison against a scalar constant
        if not self.coeffs:
            return _is_zero(other)
        return len(self.coeffs) == 1 and self.coeffs[0] == other

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly([other])
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else Poly([-other]))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if _is_zero(other):
                return Poly()
            return Poly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if _is_zero(ca):
                continue
            for j, cb in enumerate(b):
                out[i + j] = out[i + j] + ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise DomainError("negative polynomial power")
        result = Poly([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __call__(self, value):
        """Horner evaluation; value may be a scalar or a Poly."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def derivative(self):
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def shift(self, k):
        """Multiply by x**k."""
        if not self.coeffs:
            return self
        return Poly([0] * k + list(self.coeffs))

    def compose_linear(self, alpha, beta):
        """p(alpha*x + beta), computed by Horner over Poly arithmetic."""
        return self(Poly([beta, alpha]))

    def monic(self):
        if not self.coeffs:
            return self
        lc = self.coeffs[-1]
        return Poly([Fraction(c, 1) / lc if isinstance(c, int) else c / lc
                     for c in self.coeffs])


# ---------------------------------------------------------------------------
# exact resultants and discriminants
# ---------------------------------------------------------------------------


def _clear_denominators(p):
    """Return (integer-coefficient Poly, positive denominator d) with p = P/d."""
    fracs = [Fraction(c) for c in p.coeffs]
    d = _int_lcm(*(f.denominator for f in fracs))
    return Poly([f.numerator * (d // f.denominator) for f in fracs]), d


def _bareiss_det(m):
    """Fraction-free determinant of a square integer matrix."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def resultant(p, q):
    """Resultant of two nonzero polynomials over Q, exact.

    Computed as the Sylvester determinant of the denominator-cleared
    integer polynomials, then rescaled.
    """
    if not isinstance(p, Poly) or not isinstance(q, Poly):
        raise DomainError("resultant expects Poly arguments")
    if p.is_zero() or q.is_zero():
        raise DomainError("resultant of the zero polynomial is undefined")
    m, n = p.degree(), q.degree()
    if m == 0:
        return Fraction(p.coeffs[0]) ** n
    if n == 0:
        return Fraction(q.coeffs[0]) ** m
    P, dp = _clear_denominators(p)
    Q, dq = _clear_denominators(q)
    size = m + n
    rows = []
    pc = list(reversed(P.coeffs))  # highest first
    qc = list(reversed(Q.coeffs))
    for i in range(n):
        rows.append([0] * i + pc + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + qc + [0] * (size - n - 1 - i))
    det = _bareiss_det(rows)
    return Fraction(det, dp**n * dq**m)


def discriminant(p):
    """Discriminant with the monic convention.

    For monic p this equals prod_{i<j} (r_i - r_j)^2 exactly; in general
    it is (-1)^(d(d-1)/2) * res(p, p') / lc(p).  The resultant is taken
    of the integer monic polynomial P(x) = r^d p(x / r) / lc(p), whose
    coefficients are the smallest the root scaling x -> r x allows, and
    disc(p) = lc(p)^(2d-2) disc(P) / r^(d(d-1)).
    """
    d = p.degree()
    if d < 2:
        raise DomainError("discriminant needs degree >= 2")
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    lc = Fraction(p.lead())
    rep = integral_representative([c / lc for c in p.coeffs[:-1]],
                                  range(d, 0, -1))
    if rep is None:
        raise DomainError("discriminant needs exact (int/Fraction) coefficients")
    r, ints = rep
    P = Poly(ints + [1])
    return sign * resultant(P, P.derivative()) * lc ** (2 * d - 2) / r ** (d * (d - 1))


# ---------------------------------------------------------------------------
# integer representatives of weighted points
# ---------------------------------------------------------------------------


def _iroot(n, k):
    """floor(n ** (1/k)) for n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_root(b):
    """The smallest c with b = c^k for k a product of small primes."""
    found = True
    while found:
        found = False
        for k in (2, 3, 5, 7):
            c = _iroot(b, k)
            if c > 1 and c**k == b:
                b, found = c, True
                break
    return b


def _coprime_base(nums):
    """Pairwise coprime integers > 1 such that every n in ``nums`` is a
    product of powers of them: factor refinement by gcds, no factoring,
    with each element replaced by its root when it is a perfect power."""
    base = []
    todo = [n for n in nums if n > 1]
    while todo:
        a = todo.pop()
        for i, b in enumerate(base):
            g = _int_gcd(a, b)
            if g > 1:
                base.pop(i)
                todo += [x for x in (b // g, g, a // g) if x > 1]
                break
        else:
            base.append(a)
    return [_perfect_root(b) for b in base]


def _valuation(n, b):
    e = 0
    while n % b == 0:
        n //= b
        e += 1
    return e


def integral_representative(values, weights):
    """Integer representative of a point of weighted projective space.

    Returns ``(r, ints)`` with ``values[i] == ints[i] / r**weights[i]`` for
    a positive integer r, or None when some value is not int/Fraction.
    r is assembled from a coprime base of the denominators, each element
    raised only as far as the weights require, so the integers stay about
    as small as the point allows.  Weighted-homogeneous formulas
    evaluated on ``ints`` and divided once by the matching power of r
    give the exact values at the original point.
    """
    if not all(isinstance(v, (int, Fraction)) for v in values):
        return None
    fracs = [Fraction(v) for v in values]
    dens = [f.denominator for f in fracs]
    r = 1
    for b in _coprime_base(dens):
        r *= b ** max(-(-_valuation(d, b) // w) for d, w in zip(dens, weights))
    return r, [f.numerator * (r**w // f.denominator)
               for f, w in zip(fracs, weights)]


def graded_integral_scale(terms):
    """Rationals (s, rho) with s^k rho^i c an integer for every (k, i, c).

    ``terms`` lists coefficients c of t^i in the k-th member of a family
    of polynomials rescaled by c -> s^k rho^i c (for a Weierstrass model
    x -> x / s and t -> rho t).  For each element b of a coprime base of
    the denominators, the exponents of b in s and rho minimize the summed
    b-valuation of the rescaled terms, so a family that is weighted
    homogeneous in t comes out as its integer representative.
    """
    terms = [(k, i, Fraction(c)) for k, i, c in terms if c != 0]
    s = rho = Fraction(1)
    for b in _coprime_base([c.denominator for _, _, c in terms]):
        vals = [(k, i, _valuation(c.numerator, b) - _valuation(c.denominator, b))
                for k, i, c in terms]
        span = max(abs(e) for _, _, e in vals)
        best = None
        for tau in range(-span, span + 1):
            sigma = max(-((e + i * tau) // k) for k, i, e in vals)
            cost = sum(e + k * sigma + i * tau for k, i, e in vals)
            if best is None or cost < best[0]:
                best = (cost, sigma, tau)
        s *= Fraction(b) ** best[1]
        rho *= Fraction(b) ** best[2]
    return s, rho


# ---------------------------------------------------------------------------
# gcd, squarefree structure and rational roots over Z
# ---------------------------------------------------------------------------
#
# Polynomials over Q are handled through primitive integer polynomials
# (Poly with int coefficients, content 1, positive leading coefficient):
# every pseudo-remainder, quotient and gcd below stays in Z[t], and
# Fractions appear only when a monic result is handed back.


def _primitive_coeffs(cs):
    c = _int_gcd(*cs)
    if cs[-1] < 0:
        c = -c
    return [a // c for a in cs]


def primitive_part(p):
    """The primitive integer polynomial proportional to a nonzero p over Q."""
    P, _ = _clear_denominators(p)
    return Poly(_primitive_coeffs(list(P.coeffs)))


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


def integer_gcd(a, b):
    """Primitive gcd of two primitive integer polynomials (primitive PRS)."""
    a, b = a.coeffs, b.coeffs
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return Poly(a)
    while len(b) > 1:
        r = _prem(a, b)
        if not r:
            return Poly(b)
        a, b = b, _primitive_coeffs(r)
    return Poly([1])


def integer_quotient(a, b):
    """a / b in Z[t], for a primitive b that divides a over Q."""
    r = list(a.coeffs)
    bs = b.coeffs
    n = len(bs) - 1
    lb = bs[-1]
    q = [0] * (len(r) - n)
    for k in range(len(r) - 1 - n, -1, -1):
        c = r[k + n] // lb
        q[k] = c
        if c:
            for i, bc in enumerate(bs):
                r[k + i] -= c * bc
    return Poly(q)


def integer_squarefree(p):
    """Yun's algorithm over Z: [(g_i, i)] with p = c * prod g_i^i.

    ``p`` is a primitive integer polynomial; each g_i is primitive and
    squarefree, and trivial factors are omitted.
    """
    if p.degree() < 1:
        return []
    dp = p.derivative()
    a = integer_gcd(p, primitive_part(dp))
    b = integer_quotient(p, a)
    d = integer_quotient(dp, a) - b.derivative()
    out = []
    i = 1
    while b.degree() > 0:
        g = integer_gcd(b, primitive_part(d)) if d else b
        if g.degree() > 0:
            out.append((g, i))
        b = integer_quotient(b, g)
        d = integer_quotient(d, g) - b.derivative()
        i += 1
    return out


def poly_gcd(p, q):
    """Monic gcd over Q, through the integer primitive PRS."""
    if p.is_zero():
        return q.monic() if not q.is_zero() else Poly()
    if q.is_zero():
        return p.monic()
    return integer_gcd(primitive_part(p), primitive_part(q)).monic()


def squarefree_decomposition(p):
    """Yun's algorithm: return [(g_1, 1), (g_2, 2), ...] with p = lc * prod g_i^i.

    Each g_i is monic and squarefree; factors of multiplicity i that are
    trivial (g_i = 1) are omitted.
    """
    if p.degree() < 1:
        return []
    return [(g.monic(), i) for g, i in integer_squarefree(primitive_part(p))]


def _horner_mod(cs, x, m):
    acc = 0
    for c in reversed(cs):
        acc = (acc * x + c) % m
    return acc


_PRIMES = [n for n in range(2, 1000) if all(n % k for k in range(2, isqrt(n) + 1))]


def _lifting_prime(cs, ds):
    """A prime not dividing the leading coefficient at which every root of
    cs (derivative ds) is simple, with those roots; the fewest roots among
    the first three such primes, so that few candidates have to be lifted."""
    best = None
    tries = 3
    for p in _PRIMES:
        if cs[-1] % p == 0:
            continue
        cp = [c % p for c in cs]
        dp = [c % p for c in ds]
        roots = [x for x in range(p) if _horner_mod(cp, x, p) == 0]
        if any(_horner_mod(dp, x, p) == 0 for x in roots):
            continue
        if best is None or len(roots) < len(best[1]):
            best = (p, roots)
        tries -= 1
        if not roots or not tries:
            return best
    if best is None:
        raise DomainError("no prime below 1000 separates the roots; "
                          "the polynomial is not squarefree")
    return best


def _hensel_lift(cs, ds, x, p, bound):
    """Newton lift of a simple root x mod p to a modulus above ``bound``;
    the inverse of the derivative is lifted by Newton's method too."""
    m = p
    w = pow(_horner_mod(ds, x, p), -1, p)
    while m <= bound:
        m *= m
        x = (x - _horner_mod(cs, x, m) * w) % m
        w = w * (2 - _horner_mod(ds, x, m) * w) % m
    return x, m


def _rational_reconstruction(x, m, nbound, dbound):
    """u/v = x mod m with |u| <= nbound and 0 < v <= dbound, if any."""
    r0, r1, t0, t1 = m, x, 0, 1
    while r1 > nbound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > dbound:
        return None
    if t1 < 0:
        r1, t1 = -r1, -t1
    return (r1, t1) if _int_gcd(r1, t1) == 1 else None


def split_rational_roots(p):
    """Exact rational roots of a squarefree primitive integer polynomial.

    Returns (roots, rest): the rational roots as Fractions in ascending
    order and the primitive cofactor without them.  The roots of p modulo
    a small prime are lifted p-adically until the modulus exceeds
    2 |a0| |an| (Loos 1983); each lift is turned into the only candidate
    u/v with u | a0 and v | an by rational reconstruction, and a
    candidate counts only if p(u/v) = 0 holds exactly.
    """
    cs = list(p.coeffs)
    roots = []
    if len(cs) > 1 and cs[0] == 0:
        roots.append((0, 1))
        cs = cs[1:]
    if len(cs) == 2:
        g = _int_gcd(cs[0], cs[1])
        roots.append((-cs[0] // g, cs[1] // g))
    elif len(cs) > 2:
        ds = [k * c for k, c in enumerate(cs)][1:]
        nbound, dbound = abs(cs[0]), abs(cs[-1])
        prime, start = _lifting_prime(cs, ds)
        for x in start:
            x, m = _hensel_lift(cs, ds, x, prime, 2 * nbound * dbound)
            cand = _rational_reconstruction(x, m, nbound, dbound)
            if cand is None:
                continue
            u, v = cand
            acc, vpow = 0, 1
            for c in reversed(cs):
                acc = acc * u + c * vpow
                vpow *= v
            if acc == 0:
                roots.append(cand)
    rest = p
    for u, v in roots:
        rest = integer_quotient(rest, Poly([-u, v]))
    return sorted(Fraction(u, v) for u, v in roots), rest


# ---------------------------------------------------------------------------
# formal epsilon expansions
# ---------------------------------------------------------------------------


class EpsSeries:
    """Finite Laurent expansion in a formal parameter eps.

    Terms live in a dict {power: coefficient}; coefficients may be
    scalars or Poly values.  Supports the ring operations needed to
    carry out explicit scaling limits.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        out = {}
        for k, v in (terms or {}).items():
            if not _is_zero(v):
                out[k] = v
        self.terms = out

    @classmethod
    def monomial(cls, coeff, power=0):
        return cls({power: coeff})

    def __add__(self, other):
        if not isinstance(other, EpsSeries):
            other = EpsSeries.monomial(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return EpsSeries(out)

    __radd__ = __add__

    def __neg__(self):
        return EpsSeries({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, EpsSeries):
            other = EpsSeries.monomial(other)
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, EpsSeries):
            other = EpsSeries.monomial(other)
        out = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + v1 * v2
        return EpsSeries(out)

    __rmul__ = __mul__

    def coeff(self, power):
        return self.terms.get(power, 0)


def laurent_limit(expr, order=0):
    """Coefficient of eps**order, requiring all lower powers to vanish.

    Raises IdentityViolationError if any power below ``order`` survives:
    the scaling used to build ``expr`` was then wrong.
    """
    if not isinstance(expr, EpsSeries):
        raise DomainError("laurent_limit expects an EpsSeries")
    bad = {k: v for k, v in expr.terms.items() if k < order}
    if bad:
        raise IdentityViolationError(
            f"eps powers below {order} survive the limit: {sorted(bad)}")
    return expr.coeff(order)
