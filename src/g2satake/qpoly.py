"""Exact scalar and univariate polynomial algebra.

Scalars are plain Python numbers: ``fractions.Fraction`` (or ``int``) for
exact work, ``complex`` for numeric work.  ``Poly`` is a dense univariate
polynomial over any such coefficient ring, stored lowest degree first.

Ints become Fractions in one place: ``ExactTuple``, the mixin of the
printed value records, stores int fields as Fractions (``promote_int`` does
the same for a scalar); complex and GaussianRational values pass through.
The integers of a weighted point stay ints (``exact_quotient``).

The exact algorithms run on integers: a weighted point with rational
coordinates is carried as an integer representative
(``integral_representative``, made smaller by ``reduce_representative``;
``igusa.IgusaPoint`` builds one per curve), resultants follow the
subresultant PRS over Z, and gcds, squarefree decompositions and rational
roots work on primitive integer polynomials.  gcds are multi-modular:
images modulo primes just below 2^30 are combined by the Chinese
remainder theorem, and a candidate is accepted only once exact division
shows that it divides both inputs.  Rational roots are lifted p-adically and accepted
once exact substitution shows that they are roots.

Everything here is immutable and pure; no operation ever rounds a
Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import count
from math import gcd as _int_gcd, isqrt, lcm as _int_lcm

from .errors import DomainError, IdentityViolationError


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
            k >>= 1
            if k:
                base = base * base
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
        while cs and cs[-1] == 0:
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
            return other == 0
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
            if other == 0:
                return Poly()
            return Poly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
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
            n >>= 1
            if n:
                base = base * base
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

    def monic(self):
        if not self.coeffs:
            return self
        lc = self.coeffs[-1]
        return Poly([promote_int(c) / lc for c in self.coeffs])


# ---------------------------------------------------------------------------
# exact resultants and discriminants
# ---------------------------------------------------------------------------


def _exact(values):
    return all(isinstance(v, (int, Fraction)) for v in values)


def _clear_denominators(p):
    """Return (integer-coefficient Poly, positive denominator d) with p = P/d."""
    if all(isinstance(c, int) for c in p.coeffs):
        return p, 1
    fracs = [Fraction(c) for c in p.coeffs]
    d = _int_lcm(*(f.denominator for f in fracs))
    return Poly([f.numerator * (d // f.denominator) for f in fracs]), d


def _pseudo_remainder(a, b):
    """The remainder of lc(b)^(deg a - deg b + 1) a on division by b, for
    integer coefficient lists with len(a) >= len(b) >= 2."""
    r = list(a)
    n = len(b) - 1
    lb = b[-1]
    e = len(a) - n
    while len(r) > n:
        c = r.pop()
        k = len(r) - n
        r = [lb * x for x in r]
        for i in range(n):
            r[k + i] -= c * b[i]
        e -= 1
        while r and not r[-1]:
            r.pop()
    return [lb**e * x for x in r] if e else r


def _subresultant(a, b):
    """Resultant of integer coefficient lists of degrees m >= n >= 1, by
    the subresultant PRS (Collins 1967, Brown 1971; Cohen, Algorithm
    3.3.7).  Each pseudo-remainder is divided exactly by g h^delta, so the
    remainders are the subresultants up to sign and stay about as large as
    the resultant itself."""
    ca, cb = _int_gcd(*a), _int_gcd(*b)
    t = ca ** (len(b) - 1) * cb ** (len(a) - 1)
    a = [c // ca for c in a]
    b = [c // cb for c in b]
    s = g = h = 1
    while True:
        delta = len(a) - len(b)
        if len(a) % 2 == 0 and len(b) % 2 == 0:   # both degrees odd
            s = -s
        r = _pseudo_remainder(a, b)
        if not r:
            return 0
        a = b
        den = g * h**delta
        b = [c // den for c in r]
        g = a[-1]
        h = g**delta // h ** (delta - 1) if delta else h
        if len(b) == 1:
            n = len(a) - 1
            return s * t * b[0] ** n // h ** (n - 1)


def resultant(p, q):
    """Resultant of two nonzero polynomials over Q, exact.

    The denominator-cleared integer polynomials go through the
    subresultant PRS over Z; the result is rescaled by the cleared
    denominators.  No Fraction arithmetic and no determinant is involved.
    """
    if not isinstance(p, Poly) or not isinstance(q, Poly):
        raise DomainError("resultant expects Poly arguments")
    if not _exact(p.coeffs + q.coeffs):
        raise DomainError("resultant needs exact (int/Fraction) coefficients")
    if p.is_zero() or q.is_zero():
        raise DomainError("resultant of the zero polynomial is undefined")
    m, n = p.degree(), q.degree()
    if m == 0:
        return Fraction(p.coeffs[0]) ** n
    if n == 0:
        return Fraction(q.coeffs[0]) ** m
    P, dp = _clear_denominators(p)
    Q, dq = _clear_denominators(q)
    if m >= n:
        res = _subresultant(list(P.coeffs), list(Q.coeffs))
    else:   # res(q, p) = (-1)^(m n) res(p, q)
        res = (-1) ** (m * n) * _subresultant(list(Q.coeffs), list(P.coeffs))
    return Fraction(res, dp**n * dq**m)


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
    if not _exact(p.coeffs):
        raise DomainError("discriminant needs exact (int/Fraction) coefficients")
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    lc = Fraction(p.lead())
    r, ints = integral_representative([c / lc for c in p.coeffs[:-1]],
                                      range(d, 0, -1))
    P = Poly(ints + [1])
    return sign * resultant(P, P.derivative()) * lc ** (2 * d - 2) / r ** (d * (d - 1))


def root_differences(p, roots):
    """prod_{i<j} (r_i - r_j) over the exact ``roots`` r_i of a monic p,
    so that disc(p) is its square.  p = prod (x - r_i) is checked first,
    exactly; a mismatch raises IdentityViolationError.
    """
    prod = [1]
    for x in roots:   # times t - x
        prod = [a - b * x for a, b in zip([0] + prod, prod + [0])]
    if tuple(prod) != p.coeffs:
        raise IdentityViolationError(
            "the polynomial is not the product of x - r over its given roots")
    diff = 1
    for i, x in enumerate(roots):
        for y in roots[i + 1:]:
            diff *= x - y
    return diff


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
    with each element replaced by its root when it is a perfect power.
    A base element that divides a new number is divided out of it with
    all its powers at once, so a high power costs one step, not one per
    exponent."""
    base = []
    todo = sorted({n for n in nums if n > 1})
    while todo:
        a = todo.pop()
        for i, b in enumerate(base):
            g = _int_gcd(a, b)
            if g == b:
                a = _divide_out(a, b)[1]
                if a == 1:
                    break
                g = _int_gcd(a, b)
            if g > 1:
                base.pop(i)
                todo += [x for x in (b // g, g, a // g) if x > 1]
                break
        else:
            base.append(a)
    return [_perfect_root(b) for b in base]


def _divide_out(n, b):
    """(e, n / b^e) for the exponent e of b in n != 0."""
    e = 0
    q, rem = divmod(n, b)
    while not rem:
        n, e = q, e + 1
        q, rem = divmod(n, b)
    return e, n


def integral_representative(values, weights):
    """Integer representative of a point of weighted projective space.

    Returns ``(r, ints)`` with ``values[i] == ints[i] / r**weights[i]`` for
    a positive integer r; a value that is not int/Fraction is a DomainError.
    r is assembled from a coprime base of the denominators, each element
    raised only as far as the weights require, so the integers stay about
    as small as the point allows.  Weighted-homogeneous formulas
    evaluated on ``ints`` and divided once by the matching power of r
    give the exact values at the original point.
    """
    if not _exact(values):
        raise DomainError("a weighted point needs exact (int/Fraction) values")
    fracs = [Fraction(v) for v in values]
    dens = [f.denominator for f in fracs]
    r = 1
    for b in _coprime_base(dens):
        r *= b ** max(-(-_divide_out(d, b)[0] // w) for d, w in zip(dens, weights))
    return r, [f.numerator * (r**w // f.denominator)
               for f, w in zip(fracs, weights)]


def reduce_representative(r, ints, weights, parts):
    """(r / g, [n / g^w]) for the largest g found that divides r with g^w
    dividing every n of weight w: the same weighted point on a smaller
    representative.

    ``r`` is taken apart over the coprime base of ``parts``, numbers whose
    prime divisors are those of r (its factors, and gcds of r with the
    quantities the point is built from).  For each base element b the
    exponents j from that of b in r down are tried until b^(w j) divides
    every n, by exact division, whose quotients are kept.
    """
    ints = list(ints)
    for b in _coprime_base(parts):
        for j in range(_divide_out(r, b)[0], 0, -1):
            quotients = _quotients(ints, weights, b**j)
            if quotients is not None:
                r, ints = r // b**j, quotients
                break
    return r, ints


def weighted_values(values, weights, unit):
    """The values v / unit^w, reduced, of a weighted point of unit ``unit``
    whose numerators ``values`` have the weights ``weights``."""
    return [Fraction(v, unit**w) for v, w in zip(values, weights)]


def _quotients(ints, weights, g):
    """[n / g^w], or None as soon as some g^w does not divide its n."""
    out = []
    for n, w in zip(ints, weights):
        q, rem = divmod(n, g**w)
        if rem:
            return None
        out.append(q)
    return out


def promote_int(v):
    """Fraction(v) for an int v, so that division stays exact; else v."""
    return Fraction(v) if isinstance(v, int) else v


def exact_ratio(n, k):
    """n / k exactly: n // k for an int n that k divides, else a Fraction."""
    return n // k if isinstance(n, int) and not n % k else promote_int(n) / k


def exact_quotient(n, k, what):
    """n / k with no float from exact n: n / k for a Fraction n; for an int
    n, the integer of a point whose value ``what`` is n / k, n // k if k | n."""
    if isinstance(n, int) and n % k:
        raise IdentityViolationError(f"{what} is not an integer on this point")
    return n // k if isinstance(n, int) else n / k


class ExactTuple:
    """Mixin of the printed value records, listed before their ``namedtuple``
    base: int fields, by position or keyword (``_replace`` builds through
    ``_make``), are stored as Fractions, which print as "p/q", not numbers."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        return super().__new__(cls, *map(promote_int, args),
                               **{k: promote_int(v) for k, v in kwargs.items()})

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def astuple(self):
        return tuple(self)


# ---------------------------------------------------------------------------
# gcd, squarefree structure and rational roots over Z
# ---------------------------------------------------------------------------
#
# Polynomials over Q are handled through primitive integer polynomials
# (Poly with int coefficients, content 1, positive leading coefficient):
# every quotient and gcd below stays in Z[t], and Fractions appear only
# when a monic result is handed back.  gcds are multi-modular (Brown 1971)
# with the moduli just below 2^30, so that residues are one-digit Python
# ints and their products two digits; correctness rests on the trial
# division that accepts a candidate, not on a coefficient bound.


def _primitive_coeffs(cs):
    # the smallest nonzero coefficient first: math.gcd stops working once
    # it reaches 1, and the content is usually found on small numbers
    c = _int_gcd(min(filter(None, cs), key=abs), *cs)
    if cs[-1] < 0:
        c = -c
    return [a // c for a in cs]


def primitive_part(p):
    """The primitive integer polynomial proportional to a nonzero p over Q."""
    P, _ = _clear_denominators(p)
    return Poly(_primitive_coeffs(list(P.coeffs)))


_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Miller-Rabin with the first twelve primes as witnesses, which is
    deterministic for n < 3.18e23 (Sorenson and Webster 2017)."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@cache
def _prime_below(n):
    """The largest prime below n: the gcd moduli, found on first use."""
    n -= 1
    while not _is_prime(n):
        n -= 1
    return n


def _gcd_mod(a, b, p):
    """Monic gcd in F_p[t] of reduced coefficient lists with nonzero
    leading coefficients and len(a) >= len(b) >= 2; both lists are
    consumed."""
    while len(b) > 1:
        inv = pow(b[-1], -1, p)
        n = len(b) - 1
        r = a
        while len(r) > n:
            c = r.pop() * inv % p
            if c:
                k = len(r) - n
                for i in range(n):
                    r[k + i] = (r[k + i] - c * b[i]) % p
        while r and not r[-1]:
            r.pop()
        a, b = b, r
    if b:
        return [1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _quotient(a, b):
    """The coefficients of a / b when b divides a in Z[t], else None."""
    r = list(a)
    n = len(b) - 1
    lb = b[-1]
    q = [0] * (len(r) - n)
    for k in range(len(r) - 1 - n, -1, -1):
        c, rem = divmod(r[k + n], lb)
        if rem:
            return None
        q[k] = c
        if c:
            for i in range(n):
                r[k + i] -= c * b[i]
    return None if any(r[:n]) else q


def _modular_gcd(a, b):
    """Primitive gcd of primitive integer coefficient lists.

    Each prime that divides neither leading coefficient gives the monic
    gcd of the images, whose degree is at least that of the true gcd.
    Degree 0 proves the inputs coprime, and the degree of the shorter
    input b leaves b as the only candidate.  Otherwise the image, scaled
    by gcd(lc a, lc b), is combined by CRT with the earlier images of its
    degree (a smaller degree starts over, a larger one is skipped), and
    once the symmetric lift stops changing its primitive part is tried by
    division.
    """
    if len(a) < len(b):
        a, b = b, a
    if len(b) == 1:
        return [1]
    la, lb = a[-1], b[-1]
    gamma = m = 0
    p = 1 << 30
    while True:
        p = _prime_below(p)
        if not la % p or not lb % p:
            continue
        h = _gcd_mod([c % p for c in a], [c % p for c in b], p)
        if len(h) == 1:
            return [1]
        if m and len(h) > len(res):
            continue
        if len(h) == len(b) and _quotient(a, b) is not None:
            return b
        gamma = gamma or _int_gcd(la, lb)
        s = gamma % p
        h = [c * s % p for c in h]
        if not m or len(h) < len(res):
            m, res, prev = p, h, None
        else:
            w = pow(m, -1, p)
            res = [r + m * ((x - r) * w % p) for r, x in zip(res, h)]
            m *= p
            prev = lift
        half = m >> 1
        lift = [c - m if c > half else c for c in res]
        if lift == prev:
            g = _primitive_coeffs(lift)
            if _quotient(a, g) is not None and _quotient(b, g) is not None:
                return g


def _order_at_zero(cs):
    k = 0
    while not cs[k]:
        k += 1
    return k


def integer_gcd(a, b):
    """Primitive gcd of two primitive integer polynomials: the common power
    of t times the multi-modular gcd of what is left once each input's
    power of t is divided out."""
    a, b = list(a.coeffs), list(b.coeffs)
    if not a or not b:
        return Poly(a or b)
    ka, kb = _order_at_zero(a), _order_at_zero(b)
    return Poly([0] * min(ka, kb) + _modular_gcd(a[ka:], b[kb:]))


def integer_quotient(a, b):
    """a / b in Z[t], for a primitive b that divides a over Q."""
    return Poly(_quotient(a.coeffs, b.coeffs))


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


_SIEVE_PRIME = 2**61 - 1


def root_multiplicities(p, roots):
    """The multiplicity of each rational r in ``roots`` as a root of a
    nonzero integer polynomial p: how often v t - u (r = u / v) divides it,
    by exact division in Z[t].  Each division is tried only once sum c_i
    u^i v^(n-i), which vanishes at a root, vanishes modulo a prime too; p
    is reduced modulo that prime once for all the roots."""
    m = _SIEVE_PRIME
    residues = [c % m for c in p.coeffs]
    out = []
    for r in roots:
        um, vm = r.numerator % m, r.denominator % m
        cs, res, lin = p.coeffs, residues, [-r.numerator, r.denominator]
        k = 0
        while True:
            acc, upow = 0, 1
            for c in res:
                acc = (acc * vm + c * upow) % m
                upow = upow * um % m
            if acc:
                break
            cs = _quotient(cs, lin)
            if cs is None:
                break
            res = [c % m for c in cs]
            k += 1
        out.append(k)
    return out


def poly_gcd(p, q):
    """Monic gcd over Q, through the multi-modular gcd over Z."""
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


@cache
def _small_primes():
    """The primes below 1000, the moduli of the p-adic lifting: built on
    first use, since only the fiber classification lifts roots."""
    return tuple(n for n in range(2, 1000)
                 if all(n % k for k in range(2, isqrt(n) + 1)))


def _derivative(cs):
    return [k * c for k, c in enumerate(cs)][1:]


def _simple_roots_mod(cs, p):
    """The roots of cs modulo p, or None as soon as one of them is a
    root of the derivative too."""
    cp = [c % p for c in cs]
    dp = [c % p for c in _derivative(cs)]
    roots = []
    for x in range(p):
        if _horner_mod(cp, x, p) == 0:
            if _horner_mod(dp, x, p) == 0:
                return None
            roots.append(x)
    return roots


def _lifting_prime(cs):
    """A prime not dividing the leading coefficient at which every root of
    cs is simple, with those roots.  Each root is a candidate to lift, so
    the prime with the fewest roots is kept: a prime without roots ends
    the search (cs has no rational root), and otherwise the first three
    such primes are compared; fewer roots than the degree prove an
    irrational root, lifted up to the root bound for nothing, so then up to
    ten.  Failing all, the first larger prime not dividing disc(cs) serves."""
    best = None
    tries = 0
    for p in _small_primes():
        if cs[-1] % p == 0:
            continue
        roots = _simple_roots_mod(cs, p)
        if roots is None:
            continue
        if best is None or len(roots) < len(best[1]):
            best = (p, roots)
        tries += 1
        if (not roots or tries == 10
                or tries >= 3 and len(best[1]) == len(cs) - 1):
            return best
    if best is None:
        if integer_gcd(Poly(cs), primitive_part(Poly(_derivative(cs)))).degree() > 0:
            raise DomainError("the polynomial is not squarefree")
        for p in filter(_is_prime, count(1001, 2)):
            if cs[-1] % p and (roots := _simple_roots_mod(cs, p)) is not None:
                return p, roots
    return best


def _root_bound(cs):
    """A power of two B >= 2 max |a_i / a_n|^(1 / (n - i)), Fujiwara's
    bound on the absolute values of the roots of cs, read off bit lengths:
    |a_i / a_n| < 2^(bits(a_i) - bits(a_n) + 1)."""
    n = len(cs) - 1
    lead = abs(cs[-1]).bit_length() - 1
    e = 0
    for i, c in enumerate(cs[:-1]):
        e = max(e, -((lead - abs(c).bit_length()) // (n - i)))
    return 2 << e


def _is_root(cs, u, v):
    """Whether u/v is a root of cs, whose constant term is nonzero: u | a0
    first, then exact substitution."""
    if not u or cs[0] % u:
        return False
    acc, vpow = 0, 1
    for c in reversed(cs):
        acc = acc * u + c * vpow
        vpow *= v
    return acc == 0


def _lift_rational_root(cs, x, p):
    """The rational root (u, v), v > 0, of cs that is congruent to the
    simple root x mod p, or None.  x is lifted by Newton's method (the
    inverse of the derivative too), squaring the modulus m each step.  A
    rational root u/v has v | a_n, so a_n u/v is an integer congruent to
    a_n x mod m, of absolute value at most |a_n| B with B = _root_bound(cs).
    Each step tries the symmetric residue y of a_n x mod m as a_n u/v:
    u/v = y/a_n in lowest terms.  Once m > 2 |a_n| B, y is a_n u/v itself,
    so a failed try there proves that no rational root lies over x."""
    an = cs[-1]
    ds = _derivative(cs)
    bound = 2 * abs(an) * _root_bound(cs)
    m = p
    w = pow(_horner_mod(ds, x, p), -1, p)
    while True:
        y = an * x % m
        if y > m >> 1:
            y -= m
        g = _int_gcd(y, an) if an > 0 else -_int_gcd(y, an)
        u, v = y // g, an // g
        if _is_root(cs, u, v):
            return u, v
        if m > bound:
            return None
        m *= m
        x = (x - _horner_mod(cs, x, m) * w) % m
        w = w * (2 - _horner_mod(ds, x, m) * w) % m


def _low_degree_roots(cs):
    """The rational roots (u, v), v > 0, of an integer polynomial of
    degree 1 or 2, in closed form."""
    if len(cs) == 2:
        pairs = [(-cs[0], cs[1])]
    else:
        disc = cs[1] * cs[1] - 4 * cs[0] * cs[2]
        s = isqrt(disc) if disc >= 0 else -1
        if s * s != disc:
            return []
        pairs = [(-cs[1] - s, 2 * cs[2]), (-cs[1] + s, 2 * cs[2])]
    out = []
    for u, v in pairs:
        g = _int_gcd(u, v) if v > 0 else -_int_gcd(u, v)
        out.append((u // g, v // g))
    return out


def split_rational_roots(p):
    """Exact rational roots of a squarefree primitive integer polynomial.

    Returns (roots, rest): the rational roots as Fractions in ascending
    order and the primitive cofactor without them.  Each root of p modulo
    a small prime is lifted p-adically; every lifting step reads one
    candidate u/v off a_n x (`_lift_rational_root`), and it counts only if
    p(u/v) = 0 holds exactly.  Past 2 |a_n| B, B a power of two above
    Fujiwara's root bound, a failed candidate proves that no rational root
    lies over that residue.  Each root found is divided out, and a
    cofactor of degree 1 or 2 is solved in closed form instead of lifted.
    """
    cs = list(p.coeffs)
    roots = []
    if len(cs) > 1 and cs[0] == 0:
        roots.append((0, 1))
        cs = cs[1:]
    if len(cs) > 3:
        prime, start = _lifting_prime(cs)
        for x in start:
            if len(cs) <= 3:
                break
            cand = _lift_rational_root(cs, x, prime)
            if cand is not None:
                roots.append(cand)
                cs = _quotient(cs, [-cand[0], cand[1]])
    if 1 < len(cs) <= 3:
        for u, v in _low_degree_roots(cs):
            roots.append((u, v))
            cs = _quotient(cs, [-u, v])
    return sorted(Fraction(u, v) for u, v in roots), Poly(cs)
