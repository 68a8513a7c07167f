import sys

import pytest

from equilat.errors import InconsistencyError
from equilat.pell import (
    PellSolution,
    PellSpec,
    SPECS,
    iter_solutions,
    seed_search,
    solutions,
)

# sequence prefixes printed in the family discussion
OEIS_PREFIXES = {
    "K1": [2, 3, 7, 18, 47, 123],        # A005248
    "K2": [1, 9, 161, 2889, 51841],      # A023039
    "K3": [1, 3, 17, 99, 577],           # A001541
    "K4": [1, 5, 29, 169, 985],          # A001653
}


def test_builtin_specs_count_and_names():
    specs = list(SPECS.values())
    assert len(specs) == 8
    assert [s.name for s in specs] == [
        "K1", "K2", "K3", "K4",
        "x^2+1=2y^2", "x^2-1=2y^2", "x^2+2=3y^2", "x^2-1=3y^2",
    ]


@pytest.mark.parametrize("name,prefix", OEIS_PREFIXES.items())
def test_oeis_prefixes(name, prefix):
    spec = SPECS[name]
    assert [s.n for s in solutions(spec, len(prefix))] == prefix


def test_k1_first_solutions():
    assert solutions(SPECS["K1"], 4) == [
        PellSolution(2, 0), PellSolution(3, 1), PellSolution(7, 3), PellSolution(18, 8),
    ]


def test_k3_first_solutions():
    assert solutions(SPECS["K3"], 3) == [
        PellSolution(1, 0), PellSolution(3, 2), PellSolution(17, 12),
    ]


def test_row4_restriction_solutions():
    assert solutions(SPECS["x^2-1=3y^2"], 3) == [
        PellSolution(1, 0), PellSolution(2, 1), PellSolution(7, 4),
    ]


class TestSeedSearch:
    def test_k1_scan(self):
        assert seed_search(1, 5, 4, 20) == [
            PellSolution(2, 0), PellSolution(3, 1), PellSolution(7, 3), PellSolution(18, 8),
        ]

    def test_k4_scan(self):
        assert seed_search(2, 1, 1, 30) == [
            PellSolution(1, 1), PellSolution(5, 7), PellSolution(29, 41),
        ]

    def test_insoluble_equation(self):
        assert seed_search(1, 5, 3, 50) == []

    def test_rejects_zero_bound(self):
        with pytest.raises(ValueError, match="bound must be positive"):
            seed_search(1, 5, 4, 0)

    def test_rejects_a_bound_that_is_not_an_int(self):
        with pytest.raises(ValueError, match="^bound must be an integer$"):
            seed_search(1, 5, 4, 30.0)

    @pytest.mark.parametrize(
        "coefficients, message",
        [
            ((0, 5, 4), "alpha and beta must be positive"),
            ((1, 0, 4), "alpha and beta must be positive"),
            ((1, -5, 4), "alpha and beta must be positive"),
            ((1, 5, 0), "gamma must be nonzero"),
            ((1.0, 5, 4), "alpha, beta and gamma must be integers"),
            ((1, "5", 4), "alpha, beta and gamma must be integers"),
        ],
        ids=["zero-alpha", "zero-beta", "negative-beta", "zero-gamma", "float-alpha", "str-beta"],
    )
    def test_rejects_coefficients_as_a_spec_does(self, coefficients, message):
        with pytest.raises(ValueError) as exc:
            seed_search(*coefficients, 10)
        assert str(exc.value) == message


@pytest.mark.parametrize("spec", SPECS.values(), ids=lambda s: s.name)
def test_stream_matches_scan_oracle(spec):
    bound = 10_000
    from_stream = []
    for sol in iter_solutions(spec):
        if sol.n > bound:
            break
        from_stream.append(sol)
    assert from_stream == seed_search(spec.alpha, spec.beta, spec.gamma, bound)


@pytest.mark.parametrize("spec", SPECS.values(), ids=lambda s: s.name)
def test_stream_monotone_and_valid(spec):
    sols = solutions(spec, 12)
    assert all(a.n < b.n for a, b in zip(sols, sols[1:]))
    assert all(spec.satisfies(s.n, s.i) for s in sols)


def test_k1_parity_fact():
    for s in solutions(SPECS["K1"], 15):
        assert s.n % 2 == s.i % 2


def test_k4_odd_i_fact():
    for s in solutions(SPECS["K4"], 15):
        assert s.i % 2 == 1


def test_seed_validation():
    with pytest.raises(ValueError):
        solutions(PellSpec("bad", 1, 5, 4, (PellSolution(2, 1),), 3), 1)


def test_one_seed_is_rejected_when_built():
    # the recurrence needs two seeds, so a spec with one could never stream,
    # and building its stream says so before the first solution
    with pytest.raises(ValueError, match="need at least two seeds"):
        next(iter_solutions(PellSpec("one-seed", 1, 5, 4, (PellSolution(2, 0),), 3)))


NOT_INTS = "alpha, beta, gamma, rec and the seeds must be integers"


@pytest.mark.parametrize(
    "args, message",
    [
        (("bad", 0, 5, 4, (), 3), "alpha and beta must be positive"),
        (("bad", 1, 0, 4, (), 3), "alpha and beta must be positive"),
        (("bad", 1, 5, 0, (), 3), "gamma must be nonzero"),
        (("bad", 1, 5, 4, (), 2), "recurrence multiplier must be at least 3"),
        (("bad", 1, 5, 4, (PellSolution(-2, 0),), 3),
         "seed PellSolution(n=-2, i=0) is not nonnegative"),
        (("bad", 1, 5, 4, (PellSolution(2, 1),), 3),
         "seed PellSolution(n=2, i=1) does not satisfy bad"),
        (("bad", 1, 5, 4, [[2, 1]], 3), "seed PellSolution(n=2, i=1) does not satisfy bad"),
        (("bad", 1, 5, 4, [(2, 0, 0)], 3), "seeds [(2, 0, 0)] are not (n, i) pairs"),
        (("bad", 1, 5, 4, (2, 0), 3), "seeds (2, 0) are not (n, i) pairs"),
        # the seed 1.0 satisfies x^2 - 2y^2 = 1, so only its type is wrong
        (("x", 1, 2, 1, [(1.0, 0), (3, 2)], 6), NOT_INTS),
        (("x", 1, 2, 1, [("1", 0), (3, 2)], 6), NOT_INTS),
        (("x", 1.5, 2, 1, [(1, 0), (3, 2)], 6), NOT_INTS),
    ],
    ids=["alpha", "beta", "gamma", "rec", "negative-seed", "wrong-seed", "wrong-list-seed",
         "triple-seed", "unpaired-seeds", "float-seed", "str-seed", "float-alpha"],
)
def test_spec_check_messages(args, message):
    # a spec is a plain record, checked where it is used: each stream checks
    # it once, before its first solution
    spec = PellSpec(*args)
    with pytest.raises(ValueError) as exc:
        solutions(spec, 1)
    assert str(exc.value) == message


def test_plain_seed_pairs_stream_as_solutions():
    spec = PellSpec("x", 1, 2, 1, [[1, 0], [3, 2]], 6)
    sols = solutions(spec, 4)
    assert all(type(s) is PellSolution for s in sols)
    assert sols == solutions(SPECS["K3"], 4)


def test_recurrence_inconsistency_detected():
    # both seeds satisfy n^2 - 5 i^2 = 4, but they are not consecutive
    # solutions, so the recurrence leaves the solution set
    bad = PellSpec("K1-skip", 1, 5, 4, (PellSolution(2, 0), PellSolution(7, 3)), 3)
    with pytest.raises(InconsistencyError):
        solutions(bad, 3)


def test_count_must_be_positive():
    with pytest.raises(ValueError):
        solutions(SPECS["K1"], 0)


def test_count_above_sys_maxsize_is_rejected():
    # islice, which takes the count, stops at sys.maxsize
    with pytest.raises(ValueError, match=rf"^count must lie in \[1, {sys.maxsize}\]$"):
        solutions(SPECS["K1"], sys.maxsize + 1)


@pytest.mark.parametrize("count", [3.0, "3"], ids=["float", "str"])
def test_count_must_be_an_integer(count):
    with pytest.raises(ValueError, match="^count must be an integer$"):
        solutions(SPECS["K1"], count)


def test_unknown_name_is_a_key_error():
    with pytest.raises(KeyError) as exc:
        SPECS["K5"]
    assert exc.value.args == ("K5",)
