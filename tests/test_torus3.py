from fractions import Fraction

import pytest

from minfol.errors import DomainError
from minfol.sl2z import IntMatrix2, QuadraticIrrational
from minfol.torus3 import (MonodromyClass, MonodromySummary,
                           summary_from_matrix, geometry_classify,
                           GeometryResult, BundleData, BundleSource,
                           euler_report, period_group_rank,
                           FLAT_GROWTH_NOTE, BORDERLINE_NOTE,
                           MINIMALITY_REMARK)

CAT = IntMatrix2(2, 1, 1, 1)
LAMBDA = QuadraticIrrational(3, 1, 5, 2)


# ------------------------------------------------------------- summaries


def test_summary_from_matrix_covers_all_classes():
    m = summary_from_matrix(IntMatrix2(0, -1, 1, 0))
    assert m.kind == MonodromyClass.PERIODIC and m.genus == 1
    m = summary_from_matrix(IntMatrix2(1, 3, 0, 1))
    assert m.kind == MonodromyClass.REDUCIBLE
    m = summary_from_matrix(CAT, torelli_k=0)
    assert m.kind == MonodromyClass.ANOSOV
    assert m.stretch == LAMBDA
    assert m.b1 == 1


def test_summary_validation():
    with pytest.raises(DomainError):
        MonodromySummary(0, MonodromyClass.PERIODIC)
    with pytest.raises(DomainError):
        MonodromySummary(2, MonodromyClass.ANOSOV, stretch=LAMBDA)
    with pytest.raises(DomainError):
        MonodromySummary(1, MonodromyClass.PSEUDO_ANOSOV, stretch=LAMBDA)
    with pytest.raises(DomainError):
        MonodromySummary(1, MonodromyClass.ANOSOV)        # stretch missing
    with pytest.raises(DomainError):
        MonodromySummary(1, MonodromyClass.ANOSOV, stretch=Fraction(1, 2))
    with pytest.raises(DomainError):
        MonodromySummary(2, MonodromyClass.PERIODIC, stretch=LAMBDA)
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(DomainError,
                           match="stretch factor must be finite"):
            MonodromySummary(2, MonodromyClass.PSEUDO_ANOSOV, stretch=bad)
    with pytest.raises(DomainError):
        MonodromySummary(2, MonodromyClass.PERIODIC, torelli_k=5)


def test_b1_needs_torelli_k():
    m = MonodromySummary(2, MonodromyClass.PERIODIC)
    with pytest.raises(DomainError):
        m.b1
    m = MonodromySummary(2, MonodromyClass.PERIODIC, torelli_k=4)
    assert m.b1 == 5


# ------------------------------------------------------------- geometries


def test_geometry_table():
    cases = [
        ((1, MonodromyClass.PERIODIC, None), "R^3"),
        ((1, MonodromyClass.REDUCIBLE, None), "incompressible torus"),
        ((1, MonodromyClass.ANOSOV, LAMBDA), "Sol"),
        ((2, MonodromyClass.PERIODIC, None), "H^2 x R"),
        ((2, MonodromyClass.REDUCIBLE, None), "incompressible torus"),
        ((2, MonodromyClass.PSEUDO_ANOSOV, LAMBDA), "H^3"),
        ((5, MonodromyClass.PSEUDO_ANOSOV, LAMBDA), "H^3"),
    ]
    for (g, kind, stretch), label in cases:
        m = MonodromySummary(g, kind, stretch=stretch)
        assert geometry_classify(m).label == label


def test_flat_geometry_carries_growth_note():
    m = MonodromySummary(1, MonodromyClass.PERIODIC)
    res = geometry_classify(m)
    assert res == GeometryResult("R^3", FLAT_GROWTH_NOTE)
    assert "note" in res.to_json()
    # hyperbolic gluings carry no such caveat
    assert geometry_classify(summary_from_matrix(CAT)).note == ""


# ------------------------------------------------------------ euler class


def test_euler_report_spread():
    for e in range(-4, 5):
        rep = euler_report(BundleData(2, e))
        assert rep.geometry == ("H^2 x R" if e == 0 else "SL(2,R)~")
        assert rep.milnor_wood_ok == (abs(e) <= 2)
        assert rep.transverse_to_fibration_possible == rep.milnor_wood_ok
        assert rep.abs_euler == abs(e)


def test_euler_borderline_note():
    rep = euler_report(BundleData(2, 2))
    assert rep.note == BORDERLINE_NOTE
    rep = euler_report(BundleData(2, -2))
    assert rep.note == BORDERLINE_NOTE
    assert euler_report(BundleData(2, 1)).note == ""
    assert euler_report(BundleData(2, 0)).note == ""
    assert euler_report(BundleData(2, 3)).note == ""
    rep = euler_report(BundleData(3, 4))
    assert rep.note == BORDERLINE_NOTE and rep.milnor_wood_ok


def test_bundle_data_validation():
    with pytest.raises(DomainError):
        BundleData(1, 0)
    with pytest.raises(DomainError):
        BundleData(0, 2)
    b = BundleData(2, 1, source=BundleSource.SURGERY)
    assert b.milnor_wood_ok


# ----------------------------------------------------------- period rank


def test_period_rank_examples():
    pr = period_group_rank([[1, 0], [0, 1]])
    assert pr.rank == 2 and pr.leaf_cover_rank == 1
    assert pr.remark == MINIMALITY_REMARK
    pr = period_group_rank([[2, 0], [3, 0]])
    assert pr.rank == 1 and pr.leaf_cover_rank == 0
    assert pr.remark == ""
    pr = period_group_rank([[1, 0, 0], [0, Fraction(1, 2), 0],
                            [1, 1, Fraction(22, 7)]])
    assert pr.rank == 3


def test_period_rank_is_exact_over_q():
    # rows that look independent in floats but are rationally dependent
    pr = period_group_rank([[Fraction(1, 3), Fraction(1, 7)],
                            [Fraction(2, 3), Fraction(2, 7)]])
    assert pr.rank == 1


def test_period_rank_invariance():
    base = [[1, 2], [3, 4], [4, 6]]
    r = period_group_rank(base).rank
    # scaling and permuting the list of periods changes nothing
    assert period_group_rank([[2, 4], [3, 4], [4, 6]]).rank == r
    assert period_group_rank([[4, 6], [1, 2], [3, 4]]).rank == r
    assert period_group_rank(base + [[0, 0]]).rank == r


def test_period_rank_validation():
    with pytest.raises(DomainError):
        period_group_rank([])
    with pytest.raises(DomainError):
        period_group_rank([[1, 0], [1]])
    with pytest.raises(DomainError):
        period_group_rank([[0, 0], [0, 0]])
