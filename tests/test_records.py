"""The value records: immutable namedtuples.  The printed ones store their
exact int fields as Fractions; the fibration parameters keep ints."""

from fractions import Fraction as F

import pytest

from g2satake.errors import DomainError
from g2satake.fibrations import (FiberCensus, FibrationParams, KodairaFiber,
                                 QuarticModel, WeierstrassModel)
from g2satake.igusa import (AbsoluteInvariants, DerivedForms, IgusaInvariants,
                            SiegelForms)
from g2satake.qpoly import Poly
from g2satake.satake import PhiResult, PowerSums
from g2satake.theta import (AUTO_RADIUS_MAX, PeriodMatrix, SatakeCoordinates,
                            ThetaConstants, ThetaValue, check_frobenius,
                            even_theta_constants)

RECORDS = [
    IgusaInvariants(1, 2, 3, 4),
    AbsoluteInvariants(1, 2, 3),
    SiegelForms(1, 2, 3, 4),
    DerivedForms(1, 2),
    PowerSums(1, 2, 3, 4),
    PhiResult(AbsoluteInvariants(1, 2, 3), *range(10)),
    KodairaFiber("I1", F(1, 2), (0, 0, 1)),
    FiberCensus(()),
    WeierstrassModel(Poly([1]), Poly(), Poly()),
    FibrationParams(1, 2, 3, 4, 5),
    QuarticModel((Poly(),) * 5),
    PeriodMatrix(1j, 0j, 1j),
    ThetaValue(1j, 0.0),
    ThetaConstants((1j,) * 10),
    SatakeCoordinates((0,) * 6),
]

# the printed records, whose int fields become Fractions, with a field count
EXACT = [(IgusaInvariants, 4), (AbsoluteInvariants, 3), (SiegelForms, 4),
         (PowerSums, 4)]


def _name(record):
    return type(record).__name__


@pytest.mark.parametrize("record", RECORDS, ids=_name)
def test_fields_cannot_be_assigned(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 0)
    with pytest.raises(AttributeError):   # no instance dict either
        record.extra = 0


@pytest.mark.parametrize("cls,n", EXACT, ids=[cls.__name__ for cls, _ in EXACT])
def test_int_fields_are_fractions_by_position_and_keyword(cls, n):
    ints = range(1, n + 1)
    by_position = cls(*ints)
    by_keyword = cls(**dict(zip(cls._fields, ints)))
    replaced = by_position._replace(**{cls._fields[0]: 7})
    for record in (by_position, by_keyword, replaced):
        # astuple also holds the values a record derives (PowerSums' s1, s4)
        assert all(type(v) is F for v in record.astuple())
    assert by_position == by_keyword == tuple(ints)
    assert replaced[0] == 7


def test_fibration_params_keep_ints_by_position_and_keyword():
    by_position = FibrationParams(1, 2, 3, 4, 5)
    by_keyword = FibrationParams(a=1, b=2, c=3, d=4, e=5)
    for record in (by_position, by_keyword, by_position._replace(a=7)):
        assert all(type(v) is int for v in record)
    assert by_position == by_keyword == (1, 2, 3, 4, 5)


def test_from_igusa_builds_fractions_from_keywords():
    # Fraction invariants divide as Fractions; c = -1 is passed as an int
    p = FibrationParams.from_igusa(IgusaInvariants(24, 12, 0, 4))
    assert p == (-1, F(8, 3), -1, 1, 1)
    assert [type(v) for v in p] == [F, F, int, F, F]


def test_defaults():
    fiber = KodairaFiber("I1", F(0), (0, 0, 1))
    assert fiber.count == 1 and fiber.euler == 1
    tc = ThetaConstants((1j,) * 10)
    assert tc.tails == () and tc.radius == AUTO_RADIUS_MAX
    assert tc.max_tail == 0.0


def test_period_matrix_rejects_non_positive_definite_imaginary_part():
    with pytest.raises(DomainError, match="not positive definite"):
        PeriodMatrix(1j, 2j, 1j)
    with pytest.raises(DomainError, match="not positive definite"):
        PeriodMatrix(tau1=1j, z=2j, tau2=1j)
    with pytest.raises(DomainError, match="not positive definite"):
        PeriodMatrix(1j, 0j, 1j)._replace(z=2j)


def test_power_sums_astuple_has_all_six():
    ps = PowerSums(s2=2, s3=3, s5=5, s6=6)
    assert ps.astuple() == (0, 2, 3, 1, 5, 6)
    assert len(ps) == 4


def test_frobenius_report_iterates_name_residual_pairs():
    rep = check_frobenius(even_theta_constants(PeriodMatrix(1j, 0j, 1j), 6))
    pairs = [(name, r) for name, r in rep]
    assert len(pairs) == 13
    assert dict(pairs) == rep.residuals
    assert rep.max_residual == max(r for _, r in pairs) < 1e-12
