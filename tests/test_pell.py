import pytest

from equilat.pell import (
    PellInconsistencyError,
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
        PellSpec("bad", 1, 5, 4, (PellSolution(2, 1),), 3)


def test_one_seed_is_rejected_when_built():
    # the recurrence needs two seeds, so a spec with one could never stream
    with pytest.raises(ValueError, match="need at least two seeds"):
        PellSpec("one-seed", 1, 5, 4, (PellSolution(2, 0),), 3)


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
    ],
    ids=["alpha", "beta", "gamma", "rec", "negative-seed", "wrong-seed"],
)
def test_spec_check_messages(args, message):
    with pytest.raises(ValueError) as exc:
        PellSpec(*args)
    assert str(exc.value) == message


def test_recurrence_inconsistency_detected():
    # both seeds satisfy n^2 - 5 i^2 = 4, but they are not consecutive
    # solutions, so the recurrence leaves the solution set
    bad = PellSpec("K1-skip", 1, 5, 4, (PellSolution(2, 0), PellSolution(7, 3)), 3)
    with pytest.raises(PellInconsistencyError):
        solutions(bad, 3)


def test_count_must_be_positive():
    with pytest.raises(ValueError):
        solutions(SPECS["K1"], 0)


def test_unknown_name_is_a_key_error():
    with pytest.raises(KeyError) as exc:
        SPECS["K5"]
    assert exc.value.args == ("K5",)
