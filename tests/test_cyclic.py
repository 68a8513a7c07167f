from itertools import permutations, product

import pytest

from equilat.cyclic import (
    _diagonals_sq,
    brahmagupta_check,
    cyclic_orderings,
    enumerate_candidates,
    realizable_orderings,
    sides,
    solutions,
    solve_z,
)
from equilat.errors import InconsistencyError
from equilat.figures import NAMED_QUADS
from equilat.geometry import canonical_signature, exact_sqrt, signature
from equilat.search import get_catalog
from helpers import cyclic_diagonals_by_fractions, cyclic_orderings_by_permutations, whole


def _dihedral_class(order):
    images = []
    for base in (tuple(order), tuple(order)[::-1]):
        for r in range(4):
            images.append(base[r:] + base[:r])
    return min(images)


class TestEnumerateCandidates:
    def test_count_is_63(self):
        assert len(enumerate_candidates()) == 63

    def test_contains_solution_prefixes(self):
        cands = set(enumerate_candidates())
        assert (1, 9, 10) in cands
        assert (2, 5, 5) in cands

    def test_excludes_small_products(self):
        assert all(w * x >= 5 for w, x, _ in enumerate_candidates())

    def test_lexicographic_order(self):
        cands = enumerate_candidates()
        assert cands == sorted(cands)

    def test_matches_direct_filter(self):
        # oracle: filter the full box with the raw inequalities
        brute = []
        for w in range(1, 17):
            for x in range(w, 17):
                for y in range(x, 85):
                    s = w + x + 2 * y
                    if 5 <= w * x <= 16 and w * x * y * y <= s * s:
                        brute.append((w, x, y))
        assert enumerate_candidates() == brute


class TestSolveZ:
    def test_2_5_5(self):
        assert solve_z(2, 5, 5) == 8

    def test_4_4_4(self):
        assert solve_z(4, 4, 4) == 4

    def test_1_9_11_absent(self):
        assert solve_z(1, 9, 11) is None

    def test_positive_root_never_adds_solutions(self):
        # oracle: admissible z from the positive branch must already be found
        negative_branch = set()
        positive_branch = set()
        for w, x, y in enumerate_candidates():
            wxy = w * x * y
            s = w + x + y
            disc = wxy * wxy - 4 * wxy * s
            root = exact_sqrt(disc) if disc >= 0 else None
            if root is None:
                continue
            for sign in (-1, 1):
                num = wxy - 2 * s + sign * root
                if num % 2 == 0 and y <= num // 2 < s:
                    (negative_branch if sign < 0 else positive_branch).add(
                        (w, x, y, num // 2)
                    )
        assert positive_branch <= negative_branch


class TestSides:
    def test_2_5_5_8(self):
        assert sides((2, 5, 5, 8)) == (8, 5, 5, 2)

    def test_1_9_10_10(self):
        assert sides((1, 9, 10, 10)) == (14, 6, 5, 5)

    def test_symmetric(self):
        assert sides((4, 4, 4, 4)) == (4, 4, 4, 4)

    def test_parity_violation(self):
        with pytest.raises(InconsistencyError):
            sides((1, 2, 2, 2))


class TestBrahmagupta:
    @pytest.mark.parametrize("abcd", [(6, 6, 3, 3), (14, 6, 5, 5), (8, 5, 5, 2), (4, 4, 4, 4)])
    def test_solutions_pass(self, abcd):
        assert brahmagupta_check(*abcd)

    def test_5555_fails(self):
        assert not brahmagupta_check(5, 5, 5, 5)


class TestOrderings:
    def test_at_most_three_classes(self):
        assert len(cyclic_orderings((14, 6, 5, 5))) == 2
        assert len(cyclic_orderings((6, 6, 3, 3))) == 2
        assert len(cyclic_orderings((4, 4, 4, 4))) == 1
        assert len(cyclic_orderings((1, 2, 3, 4))) == 3

    def test_matches_the_permutation_oracle(self):
        for sides_ in product(range(1, 9), repeat=4):
            assert cyclic_orderings(sides_) == cyclic_orderings_by_permutations(sides_), sides_

    def test_trapezoid_order_realizable(self):
        result = dict(realizable_orderings((8, 5, 5, 2)))
        assert signature(result[(8, 5, 2, 5)]) == signature(
            NAMED_QUADS["isosceles-trapezoid-8-5-2-5"]
        )
        assert result[(8, 5, 5, 2)] is None

    def test_kite_order_not_realizable(self):
        result = realizable_orderings((6, 6, 3, 3))
        kite_class = _dihedral_class((6, 3, 3, 6))
        entries = [e for o, e in result if _dihedral_class(o) == kite_class]
        assert entries == [None]

    def test_rectangle_order_realizable(self):
        result = dict(realizable_orderings((6, 6, 3, 3)))
        assert signature(result[(6, 3, 6, 3)]) == signature(NAMED_QUADS["rectangle-3-6"])

    def test_square_realizable(self):
        result = dict(realizable_orderings((4, 4, 4, 4)))
        assert signature(result[(4, 4, 4, 4)]) == signature(NAMED_QUADS["square-4"])

    def test_rejects_non_solution_multiset(self):
        with pytest.raises(ValueError):
            realizable_orderings((5, 5, 5, 5))

    # each passes the Brahmagupta condition: (-4, -4, -4, -4) would place the
    # 4-square, (0, 0, 0, 0) would divide by zero in the diagonals, and
    # (0, 6, 8, 10) is the degenerate equable triangle
    @pytest.mark.parametrize(
        "sides_", [(-4, -4, -4, -4), (0, 0, 0, 0), (0, 6, 8, 10)],
        ids=["negative", "zeros", "degenerate-triangle"],
    )
    def test_rejects_sides_that_are_not_positive(self, sides_):
        with pytest.raises(ValueError, match="is not an equable cyclic side multiset"):
            realizable_orderings(sides_)

    # (6, 3, 6, 3), the rectangle's multiset, but for one side's type or presence
    @pytest.mark.parametrize(
        "sides_", [(6.0, 3, 6, 3), (6, 3, 6, "3"), (6, 3, 6)], ids=["float", "str", "three"]
    )
    def test_rejects_sides_that_are_not_four_ints(self, sides_):
        with pytest.raises(ValueError, match="is not an equable cyclic side multiset"):
            realizable_orderings(sides_)

    def test_diagonals_match_the_fraction_formula(self):
        # the squared diagonals are decided by an integer divmod; the Fraction
        # formula is the oracle, on every order of each solution's sides
        orders = {order for wxyz in solutions() for order in permutations(sides(wxyz))}
        for order in orders:
            diags = _diagonals_sq(order)
            assert diags == whole(cyclic_diagonals_by_fractions(order)), order
            assert diags is None or all(type(x) is int for x in diags)
        assert len(orders) == 31
        assert sum(_diagonals_sq(order) is not None for order in orders) == 11

    def test_realizer_matches_catalog_lookup(self):
        # the search catalog, which the realizer replaced, is the oracle
        checked = 0
        for wxyz in solutions():
            catalog = get_catalog(max(42, sum(sides(wxyz))))
            for order, emb in realizable_orderings(sides(wxyz)):
                diags = _diagonals_sq(order)
                if diags is None:
                    assert emb is None
                    continue
                sig = canonical_signature(tuple(x * x for x in order), diags)
                assert (emb is not None) == (sig in catalog), order
                assert emb is None or signature(emb) == sig
                checked += 1
        assert checked == 4  # only the four realizable orders have integer diagonals


def _embeddings(wxyz):
    return [emb for _, emb in realizable_orderings(sides(wxyz)) if emb is not None]


class TestSolutions:
    def test_end_to_end(self):
        sols = solutions()
        assert sols == [
            (1, 9, 10, 10), (2, 5, 5, 8), (3, 3, 6, 6), (4, 4, 4, 4),
        ]
        assert [sides(s) for s in sols] == [
            (14, 6, 5, 5), (8, 5, 5, 2), (6, 6, 3, 3), (4, 4, 4, 4),
        ]

    def test_d_positive(self):
        for w, x, y, z in solutions():
            assert w + x + y - z > 0

    def test_signatures_match_the_four_named_leqs(self):
        found = {
            signature(e) for s in solutions() for e in _embeddings(s)
        }
        names = (
            "square-4",
            "rectangle-3-6",
            "isosceles-trapezoid-8-5-2-5",
            "isosceles-trapezoid-14-5-6-5",
        )
        assert found == {signature(NAMED_QUADS[n]) for n in names}

    def test_each_solution_has_exactly_one_embedding(self):
        for s in solutions():
            assert len(_embeddings(s)) == 1

    def test_matches_brute_force_scan(self):
        # independent of enumerate_candidates' bound and of solve_z: every
        # 0 < w <= x <= y <= z <= 80 with z < w+x+y.  The box holds every
        # quadruple the candidate bound y <= 25 admits, as z < w+x+y <= 3y
        found = [
            (w, x, y, z)
            for w in range(1, 81)
            for x in range(w, 81)
            for y in range(x, 81)
            for z in range(y, min(80, w + x + y - 1) + 1)
            if w * x * y * z == (w + x + y + z) ** 2
        ]
        assert found == solutions()
