from math import gcd, isqrt

import pytest

from equilat import kites, trapezoids
from equilat.figures import NAMED_QUADS
from equilat.geometry import (
    POINT_SYMMETRIES,
    canonical_signature,
    is_equable,
    is_simple,
    signature,
    twice_area,
)
from equilat.search import (
    P_MAX_MAX,
    P_MAX_MIN,
    AuditCheck,
    _anchored_chains,
    _bases,
    _equable_quads,
    _half_chains,
    audit_theorems,
    enumerate_leqs,
    get_catalog,
    integer_norm_vectors,
)
from helpers import AUDIT_ROWS, catalog_placements, corrupt_audit_row, longest_side_sq


def _full_square_scan(max_len: int) -> list[tuple[int, int, int]]:
    """Reference oracle for `integer_norm_vectors`: the scan of the whole
    square |dx|, |dy| <= max_len that the reflected eighth replaced."""
    out = []
    for dx in range(-max_len, max_len + 1):
        for dy in range(-max_len, max_len + 1):
            if dx == 0 and dy == 0:
                continue
            n = dx * dx + dy * dy
            r = isqrt(n)
            if r * r == n and r <= max_len:
                out.append((dx, dy, r))
    out.sort(key=lambda e: (e[2], e[0], e[1]))
    return out


class TestIntegerNormVectors:
    def test_units(self):
        vecs = integer_norm_vectors(1)
        assert {(dx, dy) for dx, dy, _ in vecs} == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_length_five_set(self):
        five = {(dx, dy) for dx, dy, length in integer_norm_vectors(5) if length == 5}
        expected = {(5, 0), (-5, 0), (0, 5), (0, -5)}
        expected |= {(sx * a, sy * b) for a, b in ((3, 4), (4, 3)) for sx in (1, -1) for sy in (1, -1)}
        assert five == expected

    def test_count_at_five(self):
        assert len(integer_norm_vectors(5)) == 28

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="max_len must be positive"):
            integer_norm_vectors(0)

    @pytest.mark.parametrize("max_len", [5.0, "5"], ids=["float", "str"])
    def test_rejects_a_length_that_is_not_an_int(self, max_len):
        with pytest.raises(ValueError, match="^max_len must be an integer$"):
            integer_norm_vectors(max_len)

    def test_sorted(self):
        vecs = integer_norm_vectors(10)
        keys = [(length, dx, dy) for dx, dy, length in vecs]
        assert keys == sorted(keys)

    @pytest.mark.parametrize("max_len", [*range(1, 61), 499])
    def test_matches_full_square_scan(self, max_len):
        assert integer_norm_vectors(max_len) == _full_square_scan(max_len)


def _unrestricted_class_set(p_max: int) -> set[tuple]:
    """Independent oracle: enumerate edge chains with no symmetry reduction at
    all (any first edge, any relative lengths, both orientations)."""
    vecs = integer_norm_vectors(p_max - 3)
    sigs = set()
    for x1, y1, l1 in vecs:
        rem1 = p_max - l1
        if rem1 < 3:
            continue
        for x2, y2, l2 in vecs:
            if l2 > rem1 - 2:
                continue
            sx, sy = x1 + x2, y1 + y2
            if (sx, sy) == (0, 0):
                continue
            rem2 = rem1 - l2
            if sx * sx + sy * sy > rem2 * rem2:
                continue
            for x3, y3, l3 in vecs:
                if l3 > rem2 - 1:
                    continue
                tx, ty = sx + x3, sy + y3
                if (tx, ty) in ((0, 0), (x1, y1)):
                    continue
                n4 = tx * tx + ty * ty
                l4 = isqrt(n4)
                if l4 * l4 != n4 or l4 > rem2 - l3:
                    continue
                a = x1 * sy - sx * y1
                c = sx * ty - tx * sy
                if abs(a + c) != 2 * (l1 + l2 + l3 + l4):
                    continue  # equable in either orientation
                b = x1 * ty - tx * y1
                d = a - b + c
                if 0 in (a, b, c, d):
                    continue
                if (a * b < 0 and c * d < 0) or (a * d < 0 and b * c < 0):
                    continue
                sigs.add(
                    canonical_signature(
                        (l1 * l1, l2 * l2, l3 * l3, l4 * l4),
                        (sx * sx + sy * sy, (tx - x1) ** 2 + (ty - y1) ** 2),
                    )
                )
    return sigs


def _anchored_walk(p_max: int) -> dict[tuple, list[tuple[int, ...]]]:
    """Reference oracle: the anchored chain walk the join replaced.  Walks
    chains of four integer-norm edges whose first edge is a longest edge in
    the half-quadrant dx > 0, dy >= 0 and returns, per signature, the sorted
    flat vertex tuples of every counterclockwise simple equable chain."""
    vecs = integer_norm_vectors(p_max - 3)
    found: dict[tuple, list] = {}
    for x1, y1, l1 in vecs:
        if x1 <= 0 or y1 < 0 or p_max - l1 < 3:
            continue
        rem1 = p_max - l1
        for x2, y2, l2 in vecs:
            if l2 > min(l1, rem1 - 2):
                break
            sx, sy = x1 + x2, y1 + y2
            rem2 = rem1 - l2
            if (sx, sy) == (0, 0) or sx * sx + sy * sy > rem2 * rem2:
                continue
            for x3, y3, l3 in vecs:
                if l3 > min(l1, rem2 - 1):
                    break
                tx, ty = sx + x3, sy + y3
                n4 = tx * tx + ty * ty
                l4 = isqrt(n4)
                if n4 == 0 or l4 * l4 != n4 or l4 > min(l1, rem2 - l3) or (tx, ty) == (x1, y1):
                    continue
                a = x1 * sy - sx * y1
                c = sx * ty - tx * sy
                if a + c != 2 * (l1 + l2 + l3 + l4):
                    continue
                b = x1 * ty - tx * y1
                d = a - b + c
                if 0 in (a, b, c, d):
                    continue
                if (a * b < 0 and c * d < 0) or (a * d < 0 and b * c < 0):
                    continue
                sig = canonical_signature(
                    (l1 * l1, l2 * l2, l3 * l3, l4 * l4),
                    (sx * sx + sy * sy, (tx - x1) ** 2 + (ty - y1) ** 2),
                )
                found.setdefault(sig, []).append((0, 0, x1, y1, sx, sy, tx, ty))
    return {sig: sorted(flats) for sig, flats in found.items()}


def _pairwise_join(p_max: int) -> list:
    """Reference oracle: the diagonal join over every pair of integer-norm
    edges, without the area bound on its half-chains.  For each diagonal column dx it pairs every
    v1 with every v2 = d - v1 in the column dx - x1, keeps those with
    0 <= dy <= dx, a positive cross product and room for the other half, and
    joins bucket k with bucket -k under the perimeter bound on the four
    lengths.  Returns the sorted vertices of the hits."""
    half = (p_max - 1) // 2
    columns: dict[int, list[tuple[int, int]]] = {}
    for x, y, length in _full_square_scan(half):
        columns.setdefault(x, []).append((y, length))
    hits = []
    for dx in range(1, half + 1):
        buckets: dict[tuple[int, int], list[tuple[int, int, int, int]]] = {}
        for x1 in range(dx - half, half + 1):
            for y1, l1 in columns.get(x1, ()):
                for y2, l2 in columns.get(dx - x1, ()):
                    dy = y1 + y2
                    if dy < 0 or dy > dx:
                        continue
                    cross = x1 * dy - y1 * dx
                    rest = p_max - l1 - l2
                    if cross > 0 and rest * rest > dx * dx + dy * dy:
                        key = (dy, cross - 2 * (l1 + l2))
                        buckets.setdefault(key, []).append((x1, y1, l1, l2))
        for (dy, k), uppers in buckets.items():
            for ux, uy, m1, m2 in buckets.get((dy, -k), ()):
                qx, qy = dx - ux, dy - uy
                for x1, y1, l1, l2 in uppers:
                    if l1 + l2 + m1 + m2 > p_max:
                        continue
                    if x1 * qy == y1 * qx or (dx - x1) * uy == (dy - y1) * ux:
                        continue
                    hits.append(((0, 0), (x1, y1), (dx, dy), (qx, qy)))
    return sorted(hits)


def _turned(hit):
    """The hit with its halves swapped: the same quad turned 180 degrees
    about d/2 and started at its old P2."""
    _, (x1, y1), (dx, dy), (qx, qy) = hit
    return (0, 0), (dx - qx, dy - qy), (dx, dy), (dx - x1, dy - y1)


@pytest.mark.parametrize(
    "p_max",
    [
        16, 17, 20, 25, 42, 60, 100, 150, 200, 401,
        pytest.param(600, marks=pytest.mark.slow),
        pytest.param(1000, marks=pytest.mark.slow),
    ],
)
def test_join_matches_pairwise_join(p_max):
    # The join yields one of each hit and its turn; the oracle yields both.
    hits = list(_equable_quads(p_max))
    seen = set(hits)
    assert len(seen) == len(hits)
    assert not [h for h in hits if _turned(h) != h and _turned(h) in seen]
    assert sorted(seen | set(map(_turned, hits))) == _pairwise_join(p_max)


def _half_chain_scan(p_max: int) -> list[tuple[int, ...]]:
    """Reference oracle for `_half_chains`: every pair (v1, v2) of
    integer-norm edges, axis edges included, with cross(v1, v2) in
    [1, 2 p_max - 1], d = v1 + v2 in 0 <= dy <= dx <= half and room for the
    other half, as sorted (dx, dy, key, x1, y1)."""
    half = (p_max - 1) // 2
    columns: dict[int, list[tuple[int, int]]] = {}
    for x, y, length in _full_square_scan(half):
        columns.setdefault(x, []).append((y, length))
    out = []
    for x1, col1 in columns.items():
        for x2, col2 in columns.items():
            dx = x1 + x2
            if not 1 <= dx <= half:
                continue
            for y1, l1 in col1:
                for y2, l2 in col2:
                    dy = y1 + y2
                    cross = x1 * y2 - y1 * x2
                    rest = p_max - l1 - l2
                    if (
                        0 <= dy <= dx
                        and 1 <= cross <= 2 * p_max - 1
                        and rest * rest > dx * dx + dy * dy
                    ):
                        out.append((dx, dy, cross - 2 * (l1 + l2), x1, y1))
    return sorted(out)


@pytest.mark.parametrize(
    "p_max", [*range(16, 61), 100, 150, 200, 401, pytest.param(1000, marks=pytest.mark.slow)]
)
def test_half_chains_match_scan(p_max):
    # Every half-chain, axis edges included, in the column of its diagonal,
    # with its key: once in fat iff k >= 0 and once in thin iff k <= 0.
    half = (p_max - 1) // 2
    K, V = 4 * p_max, 2 * half + 1
    fat, thin = _half_chains(p_max)
    assert set(fat) == set(thin) == set(range(1, half + 1))
    listed = {1: [], -1: []}
    for sign, side in ((1, fat), (-1, thin)):
        for dx, column in side.items():
            for key, v in zip(*[iter(column)] * 2):
                dy, k = divmod(key, K)
                x1, y1 = divmod(v + half, V)
                listed[sign].append((dx, dy, sign * k, x1, y1 - half))
    scan = _half_chain_scan(p_max)
    assert sorted(listed[1]) == [h for h in scan if h[2] >= 0]
    assert sorted(listed[-1]) == [h for h in scan if h[2] <= 0]


@pytest.mark.parametrize(
    "p_max, n_fat, n_thin",
    [(200, 4555, 1371), pytest.param(1000, 59229, 11121, marks=pytest.mark.slow)],
)
def test_half_chain_counts(p_max, n_fat, n_thin):
    fat, thin = _half_chains(p_max)
    assert sum(map(len, fat.values())) == 2 * n_fat
    assert sum(map(len, thin.values())) == 2 * n_thin


def test_bases_are_the_primitive_edges():
    # Longest first, then larger x: the order the half-chain loops rely on.
    # integer_norm_vectors(half) is the table at 500 cut at length half.
    primitive = [(x, y, r) for x, y, r in reversed(integer_norm_vectors(500))
                 if x > y >= 0 and gcd(x, y) == 1]
    for half in range(1, 501):
        assert _bases(half) == [b for b in primitive if b[2] <= half]


@pytest.mark.parametrize(
    "p_max, hits", [(200, 131), pytest.param(1000, 468, marks=pytest.mark.slow)]
)
def test_join_hit_counts(p_max, hits):
    # The trace reports this count as search.canonical_signature.calls.
    assert sum(1 for _ in _equable_quads(p_max)) == hits


def test_smallest_class_is_the_square():
    assert list(_equable_quads(15)) == [] == _pairwise_join(15)
    assert set(enumerate_leqs(16)) == {signature(NAMED_QUADS["square-4"])}


def _all_images_anchored_chains(
    pts: tuple[tuple[int, int], ...], sq: int
) -> list[tuple[int, ...]]:
    """Reference oracle: the anchoring that builds all eight images of the
    quad under the lattice symmetries, re-orients each counterclockwise and
    starts it at each vertex whose outgoing edge is a longest edge in the
    half-quadrant dx > 0, dy >= 0."""
    out = []
    for a, b, c, e in POINT_SYMMETRIES:
        img = [(a * x + b * y, c * x + e * y) for x, y in pts]
        if a * e - b * c < 0:
            img.reverse()  # a reflection leaves the vertices clockwise
        for i in range(4):
            ox, oy = img[i]
            ex, ey = img[(i + 1) % 4][0] - ox, img[(i + 1) % 4][1] - oy
            if ex > 0 and ey >= 0 and ex * ex + ey * ey == sq:
                out.append(tuple(
                    v for x, y in img[i:] + img[:i] for v in (x - ox, y - oy)
                ))
    return out


@pytest.mark.parametrize(
    "p_max", [16, 17, 42, 100, 200, pytest.param(1000, marks=pytest.mark.slow)]
)
def test_anchoring_matches_all_images(p_max):
    for pts in _equable_quads(p_max):
        sq = longest_side_sq(pts)
        assert _anchored_chains(pts, sq) == _all_images_anchored_chains(pts, sq)


def _flat(q) -> tuple[int, ...]:
    return tuple(c for p in q for c in p)


@pytest.mark.parametrize(
    "p_max", [20, 42, 100, pytest.param(200, marks=pytest.mark.slow)]
)
def test_join_matches_anchored_walk(p_max):
    walk = _anchored_walk(p_max)
    cat = enumerate_leqs(p_max)
    assert set(cat) == set(walk)
    assert list(cat) == sorted(cat)  # callers rely on signature order
    placements = catalog_placements(p_max)
    assert {sig: [_flat(e) for e in quads] for sig, quads in placements.items()} == walk
    for sig, flats in walk.items():
        cls = cat[sig]
        assert _flat(cls.representative) == flats[0]
        assert cls.embeddings_seen == len(flats)


class TestEnumerateLeqs:
    def test_p16_contains_square(self):
        cat = get_catalog(16)
        assert signature(NAMED_QUADS["square-4"]) in cat

    def test_p20_contains_named_classes(self):
        cat = get_catalog(20)
        for name in ("rhombus-5", "rectangle-3-6", "isosceles-trapezoid-8-5-2-5"):
            assert signature(NAMED_QUADS[name]) in cat, name

    def test_symmetry_reduction_is_complete(self):
        # full enumeration with no canonical-first-edge reduction finds the
        # same congruence classes
        assert set(get_catalog(20)) == _unrestricted_class_set(20)

    def test_rerun_with_smaller_bound_is_prefix(self):
        big = get_catalog(42)
        for p in (16, 20, 30):
            small = get_catalog(p)
            expected = {s for s, c in big.items() if c.perimeter <= p}
            assert set(small) == expected

    def test_representatives_are_valid(self):
        for sig, cls in get_catalog(42).items():
            rep = cls.representative
            assert is_simple(rep)
            assert is_equable(rep)
            assert twice_area(rep) > 0
            assert signature(rep) == sig
            sides = [isqrt(s) for s in sig[:4]]
            assert all(1 <= s <= 42 - 3 for s in sides)
            assert cls.perimeter <= 42

    def test_parallelogram_diagonals_all_irrational(self):
        for cls in get_catalog(42).values():
            if cls.classification.is_parallelogram:
                assert all(not d.rational for d in cls.diagonals.interior)

    def test_embeddings_are_the_counted_placements(self):
        cat = get_catalog(42)
        placements = catalog_placements(42)
        assert placements.keys() == cat.keys()
        for sig, cls in cat.items():
            assert len(placements[sig]) == cls.embeddings_seen
            assert all(signature(e) == sig for e in placements[sig])

    def test_config_validation(self):
        for p_max in (0, 8, 11, 1001, 5000, 200.0, "200"):
            with pytest.raises(ValueError, match="p_max"):
                enumerate_leqs(p_max)
        with pytest.raises(ValueError, match="p_max"):
            audit_theorems(42.0)


def _failed(rows: tuple[AuditCheck, ...]) -> list[str]:
    return [row.name for row in rows if not row.holds]


@pytest.fixture()
def report() -> dict[str, AuditCheck]:
    return {row.name: row for row in audit_theorems(42)}


class TestAudit:

    def test_rows(self, report):
        assert tuple(report) == AUDIT_ROWS
        assert all(type(row.found) is type(row.expected) is frozenset for row in report.values())

    def test_kites_found_equal_expected(self, report):
        assert report["kites"].holds
        expected_names = ("rhombus-5", "square-4", "dart-10-5", "kite-3-15")
        assert report["kites"].found == {
            signature(NAMED_QUADS[n]) for n in expected_names
        }

    def test_trapezoids_are_the_five(self, report):
        names = (
            "right-trapezoid-6-4-3-5",
            "right-trapezoid-10-3-6-5",
            "isosceles-trapezoid-8-5-2-5",
            "isosceles-trapezoid-14-5-6-5",
            "trapezoid-20-4-15-3",
        )
        assert report["trapezoids"].found == {signature(NAMED_QUADS[n]) for n in names}

    def test_cyclic_are_the_four(self, report):
        names = (
            "square-4",
            "rectangle-3-6",
            "isosceles-trapezoid-8-5-2-5",
            "isosceles-trapezoid-14-5-6-5",
        )
        assert report["cyclic"].found == {signature(NAMED_QUADS[n]) for n in names}

    def test_single_diagonal_exception(self, report):
        assert report["diagonal_exceptions"].found == {
            (signature(NAMED_QUADS["right-trapezoid-6-4-3-5"]), 5),
        }

    def test_every_closed_form_kite_is_audited(self, report, monkeypatch):
        assert report["kite_audits"] == ("kite_audits", frozenset(), frozenset())
        # the four members up to 42, K1 n = 2 and 3, K3 n = 1 and K4 n = 1,
        # each listed with the check it fails
        monkeypatch.setattr(kites, "audit_member", lambda km: "equable")
        row = audit_theorems(42)[AUDIT_ROWS.index("kite_audits")]
        assert row.found == {("K1", 2, "equable"), ("K1", 3, "equable"),
                             ("K3", 1, "equable"), ("K4", 1, "equable")}
        assert not row.holds

    def test_no_check_fails_at_any_small_bound(self):
        failed = {p: _failed(audit_theorems(p)) for p in range(P_MAX_MIN, 61)}
        assert failed == {p: [] for p in range(P_MAX_MIN, 61)}

    def test_rational_diagonal_expected_from_its_perimeter(self):
        exception = {(signature(NAMED_QUADS["right-trapezoid-6-4-3-5"]), 5)}
        assert audit_theorems(17)[-1].expected == set()
        assert audit_theorems(18)[-1].expected == exception

    def test_unrealized_trapezoid_fails_its_check(self, monkeypatch):
        # a solution the realizer cannot place stays in the expected set, as
        # None, so the check fails instead of losing it
        real = trapezoids.lattice_embedding
        monkeypatch.setattr(
            trapezoids, "lattice_embedding", lambda t, f: None if f == 5 else real(t, f)
        )
        rows = audit_theorems(42)
        expected = rows[AUDIT_ROWS.index("trapezoids")].expected
        assert None in expected and len(expected) == 5
        assert _failed(rows) == ["trapezoids"]

    @pytest.mark.parametrize("name", AUDIT_ROWS)
    def test_each_corrupted_expectation_fails_its_check(self, name):
        rows = audit_theorems(42)
        assert _failed(rows) == [] and _failed(corrupt_audit_row(rows, name)) == [name]


@pytest.mark.slow
def test_audit_at_the_cap():
    report = {row.name: row for row in audit_theorems(P_MAX_MAX)}
    assert len(get_catalog(P_MAX_MAX)) == 405
    assert all(row.holds for row in report.values())
    assert len(report["kites"].found) == 11
    assert len(report["trapezoids"].found) == 5
    assert len(report["cyclic"].found) == 4
    assert report["diagonal_exceptions"].found == {((9, 16, 36, 25, 25, 52), 5)}


def test_p60_catalog_has_concave_example():
    cat = get_catalog(60)
    assert signature(NAMED_QUADS["concave-60"]) in cat
