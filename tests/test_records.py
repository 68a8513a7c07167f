"""Semantics of the record types: read-only fields, field-order sorting, and
LatticeQuad, the checked tuple of its vertices, whose copies rerun its
constructor checks."""

import copy
import importlib
import pickle
import pkgutil

import pytest

import equilat
from equilat import geometry, kites, pell, search
from equilat.errors import InvalidQuadError
from equilat.geometry import LatticeQuad

SQUARE = LatticeQuad(((0, 0), (4, 0), (4, 4), (0, 4)))


# (record, a factory for one instance, a field to assign)
RECORDS = [
    ("QuadClassification", lambda: geometry.classify(SQUARE), "convex"),
    ("Diagonal", lambda: geometry.interior_diagonals(SQUARE).interior[0], "sq"),
    ("DiagonalReport", lambda: geometry.interior_diagonals(SQUARE), "interior"),
    ("LeqClass", lambda: next(iter(search.get_catalog(42).values())), "embeddings_seen"),
    ("AuditReport", lambda: search.audit_theorems(42), "kites_found"),
    ("PellSolution", lambda: pell.PellSolution(2, 0), "n"),
    ("PellSpec", lambda: pell.SPECS["K1"], "seeds"),
    ("FamilyId", lambda: kites.FAMILIES["K1"], "k"),
    ("KiteMember", lambda: kites.generate("K1", 1)[0], "A"),
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
        (
            [pell.PellSolution(3, 1), pell.PellSolution(2, 7), pell.PellSolution(2, 0)],
            [pell.PellSolution(2, 0), pell.PellSolution(2, 7), pell.PellSolution(3, 1)],
        ),
    ],
    ids=["PellSolution"],
)
def test_sorts_by_field_order(unsorted, expected):
    assert sorted(unsorted) == expected


def test_every_exported_record_is_checked_here():
    # a new record type must join RECORDS
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
    # Input is checked by the public functions where it arrives, so no
    # exported NamedTuple defines a __new__ of its own, which _replace,
    # pickling and copying would rerun.  NamedTuple refuses one in the class
    # body, so it would sit on a subclass of the generated class.
    own_new = {
        cls.__name__ for cls in types if hasattr(cls, "_fields")
        and next(c for c in cls.__mro__ if "__new__" in vars(c)).__bases__ != (tuple,)
    }
    assert own_new == set()


BOW_TIE = ((0, 0), (4, 4), (4, 0), (0, 4))


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
        clockwise = ((0, 0), (0, 4), (4, 4), (4, 0))
        assert LatticeQuad(clockwise) == SQUARE
        assert _unpickle_constructor(SQUARE)(clockwise) == SQUARE


class TestLatticeQuadIdentity:
    def test_equality_and_hash_go_by_vertices(self):
        vertices = ((0, 0), (4, 0), (4, 4), (0, 4))
        same = LatticeQuad(vertices)
        assert same == SQUARE == vertices and same is not SQUARE
        assert hash(same) == hash(SQUARE) == hash(vertices)
        assert SQUARE != LatticeQuad(((0, 0), (4, 0), (4, 4), (0, 5)))

    def test_items_are_read_only(self):
        with pytest.raises(TypeError):
            SQUARE[0] = (1, 1)
        with pytest.raises(AttributeError):
            SQUARE.not_a_field = None

    def test_repr(self):
        assert repr(LatticeQuad([[0, 0], [1, 0], [1, 1], [0, 1]])) == (
            "LatticeQuad(((0, 0), (1, 0), (1, 1), (0, 1)))"
        )

    def test_copies_are_equal(self):
        for copied in (copy.copy(SQUARE), copy.deepcopy(SQUARE), pickle.loads(pickle.dumps(SQUARE))):
            assert copied == SQUARE and type(copied) is LatticeQuad
