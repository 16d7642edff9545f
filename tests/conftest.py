import random
from fractions import Fraction

import pytest

from g2satake.cli import CurvePoint
from g2satake.igusa import igusa_from_rosenhain, rosenhain_thomae
from g2satake.satake import (SatakeSextic, power_sums_from_igusa,
                             satake_roots_from_rosenhain, satake_sextic)

# Q = 0 inputs (c, b, c/b), where x -> c/x permutes the branch points, and
# the Humbert-surface input -1, 2, -2: the Satake sextic has a double root
Q0_LAMBDAS = [(Fraction(2), Fraction(3), Fraction(2, 3)),
              (Fraction(-7, 9), Fraction(-3, 4), Fraction(28, 27)),
              (Fraction(5), Fraction(-2), Fraction(-5, 2)),
              (Fraction(3, 4), Fraction(5), Fraction(3, 20)),
              (Fraction(-1), Fraction(2), Fraction(-2))]


@pytest.fixture
def rng():
    return random.Random(20240817)


def random_lambdas(rng, height=20, denom=None):
    """Three distinct rationals, none 0 or 1, numerators bounded by height."""
    denom = denom or max(2, height // 4)
    out = []
    while len(out) < 3:
        v = Fraction(rng.randint(-height, height), rng.randint(1, denom))
        if v not in out and v not in (0, 1):
            out.append(v)
    return tuple(out)


def lambdas_of_height(rng, digits):
    """Three rationals with numerators and denominators of ``digits`` digits."""
    lo, hi = 10 ** (digits - 1), 10**digits - 1
    return [Fraction(rng.choice((-1, 1)) * rng.randint(lo, hi), rng.randint(lo, hi))
            for _ in range(3)]


def seeded_integer_points(rng, arity):
    """Integer points of 1 to 60 digits in every coordinate, then every
    sixth of them with each coordinate set to 0 in turn, then 0."""
    points = [[rng.choice((-1, 1)) * rng.randint(10 ** (d - 1), 10**d - 1)
               for _ in range(arity)] for d in range(1, 61)]
    zeros = [[0 if i == k else v for i, v in enumerate(pt)]
             for pt in points[::6] for k in range(arity)]
    return points + zeros + [[0] * arity]


def satake_in_x(lams):
    """The ``SatakeSextic`` of a Rosenhain curve in x itself: its Satake
    sextic f from the power sums, and the closed-form roots x_i = X_i / d
    as Fractions."""
    d, xs = satake_roots_from_rosenhain(rosenhain_thomae(lams))
    f = satake_sextic(power_sums_from_igusa(igusa_from_rosenhain(*lams)))
    return SatakeSextic(f, [Fraction(x, d) for x in xs])


def satake_on_point(lams):
    """The integral Siegel point s of a Rosenhain curve, over v = 12 u, and
    its ``SatakeSextic`` in X = v^2 x with the closed-form roots v^2 x_i,
    as a CLI job builds them."""
    point = CurvePoint("rosenhain", lams)
    return point.siegel, point.satake
