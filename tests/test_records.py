"""Semantics of the record types: read-only fields, field-order sorting,
copies that rerun the constructor checks, and LatticeQuad, the checked tuple
of its vertices."""

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
    ],
    ids=["Point", "PellSolution"],
)
def test_sorts_by_field_order(unsorted, expected):
    assert sorted(unsorted) == expected


TRAPEZOID = trapezoids.trapezoid_from(T345, 3)  # quad_sides (6, 4, 3, 5), h = 4

# (id, record, changes that break a check)
REPLACE_CHECKS = [
    ("PellSpec", pell.SPECS["K1"], {"rec": 2}),
    ("CyclicSolution", cyclic.CyclicSolution((4, 4, 4, 4), (4, 4, 4, 4), ()), {"sides": (1, 1, 1, 1)}),
    ("HeronianTriangle", T345, {"area": 7}),
    ("TrapezoidSolution", TRAPEZOID, {"h": Fraction(2)}),
    # printed sides that disagree with the built trapezoid; (1, 1, 1, 1) is
    # even equable at h = 4, so only the check against c and f rejects it
    ("TrapezoidSolution-quad_sides", TRAPEZOID, {"quad_sides": (6, 4, 3, 6)}),
    ("TrapezoidSolution-equable-quad_sides", TRAPEZOID, {"quad_sides": (1, 1, 1, 1)}),
]


@pytest.mark.parametrize(
    "record, changes", [r[1:] for r in REPLACE_CHECKS], ids=[r[0] for r in REPLACE_CHECKS]
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
    named = {cls.__name__ for cls in types if issubclass(cls, tuple) and hasattr(cls, "_fields")}
    assert named == {name for name, _, _ in RECORDS}
    # a tuple record with no named fields is tested on its own below
    bare = {cls.__name__ for cls in types if issubclass(cls, tuple) and not hasattr(cls, "_fields")}
    assert bare == {"LatticeQuad"}
    checked = {cls.__name__ for cls in types if issubclass(cls, Checked)}
    assert checked == {type(r).__name__ for _, r, _ in REPLACE_CHECKS}


BOW_TIE = (Point(0, 0), Point(4, 4), Point(4, 0), Point(0, 4))


def _unpickle_constructor(q):
    """What pickle and copy call to rebuild q, from its reduce tuple."""
    rebuild, (cls, *_) = q.__reduce_ex__(2)[:2]
    return lambda vertices: rebuild(cls, vertices)


class TestLatticeQuadChecks:
    @pytest.mark.parametrize(
        "construct", [type(SQUARE), _unpickle_constructor(SQUARE)], ids=["type", "unpickle"]
    )
    def test_bow_tie_is_rejected(self, construct):
        assert construct(tuple(SQUARE)) == SQUARE
        with pytest.raises(InvalidQuadError):
            construct(BOW_TIE)

    def test_clockwise_vertices_are_reoriented(self):
        clockwise = (Point(0, 0), Point(0, 4), Point(4, 4), Point(4, 0))
        assert LatticeQuad(clockwise) == SQUARE
        assert _unpickle_constructor(SQUARE)(clockwise) == SQUARE


class TestLatticeQuadIdentity:
    def test_equality_and_hash_go_by_vertices(self):
        vertices = (Point(0, 0), Point(4, 0), Point(4, 4), Point(0, 4))
        same = LatticeQuad(vertices)
        assert same == SQUARE == vertices and same is not SQUARE
        assert hash(same) == hash(SQUARE) == hash(vertices)
        assert SQUARE != quad((0, 0), (4, 0), (4, 4), (0, 5))

    def test_items_are_read_only(self):
        with pytest.raises(TypeError):
            SQUARE[0] = Point(1, 1)
        with pytest.raises(AttributeError):
            SQUARE.not_a_field = None

    def test_repr(self):
        assert repr(quad((0, 0), (1, 0), (1, 1), (0, 1))) == (
            "LatticeQuad((Point(x=0, y=0), Point(x=1, y=0), "
            "Point(x=1, y=1), Point(x=0, y=1)))"
        )

    def test_copies_are_equal(self):
        for copied in (copy.copy(SQUARE), copy.deepcopy(SQUARE), pickle.loads(pickle.dumps(SQUARE))):
            assert copied == SQUARE and type(copied) is LatticeQuad
