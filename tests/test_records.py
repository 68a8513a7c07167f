"""Semantics of the record types: read-only fields, field-order sorting,
copies that rerun the constructor checks, and LatticeQuad's value identity."""

import copy
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import equilat
from equilat import cyclic, geometry, kites, pell, search, trapezoids
from equilat.errors import Checked, InvalidQuadError
from equilat.geometry import LatticeQuad, Point, quad

SQUARE = quad((0, 0), (4, 0), (4, 4), (0, 4))
T345 = trapezoids.HeronianTriangle.from_sides(3, 4, 5)


# (record, a factory for one instance, a field to assign)
RECORDS = [
    ("Point", lambda: Point(1, 2), "x"),
    ("LatticeQuad", lambda: SQUARE, "v"),
    ("QuadClassification", lambda: geometry.classify(SQUARE), "convex"),
    ("Diagonal", lambda: geometry.interior_diagonals(SQUARE).interior[0], "length"),
    ("DiagonalReport", lambda: geometry.interior_diagonals(SQUARE), "interior"),
    ("LeqClass", lambda: next(iter(search.get_catalog(42).values())), "embeddings_seen"),
    ("AuditReport", lambda: search.audit_theorems(42), "kites_found"),
    ("PellSolution", lambda: pell.PellSolution(2, 0), "n"),
    ("PellSpec", lambda: pell.SPECS["K1"], "seeds"),
    ("FamilyId", lambda: kites.FAMILIES["K1"], "q_sq"),
    ("KiteMember", lambda: kites.generate("K1", 1)[0], "A"),
    ("AuditOutcome", lambda: kites.audit_member(kites.generate("K1", 1)[0]), "passed"),
    ("WxyzTriple", lambda: cyclic.WxyzTriple(1, 5, 5), "y"),
    ("CyclicSolution", lambda: cyclic.solutions()[0], "orderings"),
    ("HeronianTriangle", lambda: T345, "area"),
    ("TrapezoidSolution", lambda: trapezoids.trapezoid_from(T345, 3), "h"),
]


@pytest.mark.parametrize("name, make, field", RECORDS, ids=[r[0] for r in RECORDS])
def test_fields_are_read_only(name, make, field):
    record = make()
    assert type(record).__name__ == name
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.not_a_field = None
    assert getattr(record, field) is before


@pytest.mark.parametrize(
    "unsorted, expected",
    [
        ([Point(1, 0), Point(0, 5), Point(0, -2)], [Point(0, -2), Point(0, 5), Point(1, 0)]),
        (
            [pell.PellSolution(3, 1), pell.PellSolution(2, 7), pell.PellSolution(2, 0)],
            [pell.PellSolution(2, 0), pell.PellSolution(2, 7), pell.PellSolution(3, 1)],
        ),
        (
            [cyclic.WxyzTriple(2, 3, 4), cyclic.WxyzTriple(1, 5, 9), cyclic.WxyzTriple(1, 5, 5)],
            [cyclic.WxyzTriple(1, 5, 5), cyclic.WxyzTriple(1, 5, 9), cyclic.WxyzTriple(2, 3, 4)],
        ),
    ],
    ids=["Point", "PellSolution", "WxyzTriple"],
)
def test_sorts_by_field_order(unsorted, expected):
    assert sorted(unsorted) == expected


REPLACE_CHECKS = [
    (pell.SPECS["K1"], {"rec": 2}),
    (cyclic.WxyzTriple(1, 5, 5), {"w": 0}),
    (cyclic.CyclicSolution((4, 4, 4, 4), (4, 4, 4, 4), ()), {"sides": (1, 1, 1, 1)}),
    (T345, {"area": 7}),
    (trapezoids.trapezoid_from(T345, 3), {"h": Fraction(2)}),
]


@pytest.mark.parametrize(
    "record, changes", REPLACE_CHECKS, ids=[type(r).__name__ for r, _ in REPLACE_CHECKS]
)
def test_replace_reruns_the_checks(record, changes):
    with pytest.raises(ValueError):
        record._replace(**changes)


def test_every_exported_record_is_checked_here():
    # a new record type must join RECORDS, and a new Checked one REPLACE_CHECKS
    modules = [
        importlib.import_module(f"equilat.{m.name}") for m in pkgutil.iter_modules(equilat.__path__)
    ]
    exported = [getattr(m, name) for m in modules for name in getattr(m, "__all__", ())]
    types = [cls for cls in exported if isinstance(cls, type)]
    records = {cls.__name__ for cls in types if issubclass(cls, tuple)}
    assert records == {name for name, _, _ in RECORDS}
    checked = {cls.__name__ for cls in types if issubclass(cls, Checked)}
    assert checked == {type(r).__name__ for r, _ in REPLACE_CHECKS} | {"LatticeQuad"}


class TestLatticeQuadReplace:
    def test_bow_tie_is_rejected(self):
        with pytest.raises(InvalidQuadError):
            SQUARE._replace(v=(Point(0, 0), Point(4, 4), Point(4, 0), Point(0, 4)))

    def test_clockwise_vertices_are_reoriented(self):
        clockwise = (Point(0, 0), Point(0, 4), Point(4, 4), Point(4, 0))
        assert SQUARE._replace(v=clockwise).v == SQUARE.v


class TestLatticeQuadIdentity:
    def test_equality_and_hash_go_by_vertices(self):
        same = LatticeQuad(SQUARE.v)
        assert same == SQUARE and same is not SQUARE
        assert hash(same) == hash(SQUARE) == hash((SQUARE.v,))
        assert SQUARE != SQUARE.v
        assert SQUARE != quad((0, 0), (4, 0), (4, 4), (0, 5))

    def test_repr(self):
        assert repr(quad((0, 0), (1, 0), (1, 1), (0, 1))) == (
            "LatticeQuad(v=(Point(x=0, y=0), Point(x=1, y=0), "
            "Point(x=1, y=1), Point(x=0, y=1)))"
        )

    def test_copies_are_equal(self):
        assert copy.deepcopy(SQUARE) == SQUARE
        assert pickle.loads(pickle.dumps(SQUARE)) == SQUARE
