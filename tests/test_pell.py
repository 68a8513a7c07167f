import sys
from math import isqrt

import pytest

from equilat.errors import InconsistencyError
from equilat.geometry import exact_sqrt
from equilat.pell import (
    PellSolution,
    PellSpec,
    SPECS,
    iter_solutions,
    solutions,
)
from helpers import seed_search

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


# The certificate of the pell module docstring.  A spec's equation is read as
# X^2 - D*Y^2 = N with X = alpha*n, Y = i, D = alpha*beta and N = alpha*gamma,
# and a power of the unit eta = (rec + f*sqrt(D))/2 as the int pair (P, Q) of
# (P + Q*sqrt(D))/2.


def _steps(rec: int, v0: tuple, v1: tuple, count: int) -> list[tuple]:
    """v0, v1 and the recurrence v_{j+1} = rec*v_j - v_{j-1}, count in all;
    from (v1, v0) it runs backwards."""
    out = [v0, v1]
    while len(out) < count:
        out.append(tuple(rec * b - a for a, b in zip(out[-2], out[-1])))
    return out[:count]


def _least_unit(d: int) -> tuple[int, int]:
    """The least solution (x1, y1) of x^2 - d*y^2 = 1 with y1 > 0."""
    y = 1
    while exact_sqrt(1 + d * y * y) is None:
        y += 1
    return exact_sqrt(1 + d * y * y), y


def nagell_bound(spec: PellSpec) -> tuple[int, int]:
    """(y1^2 * |N|, 2(x1 +- 1)), + when N > 0: a fundamental solution has
    Y^2 * 2(x1 +- 1) <= y1^2 * |N|."""
    d, big_n = spec.alpha * spec.beta, spec.alpha * spec.gamma
    x1, y1 = _least_unit(d)
    return y1 * y1 * abs(big_n), 2 * (x1 + 1 if big_n > 0 else x1 - 1)


def nagell_candidates(spec: PellSpec) -> list[tuple[int, int]]:
    """Every (X, Y) with Y >= 0 under Nagell's bound and X^2 - D*Y^2 = N, a
    superset of the fundamental solutions of its classes."""
    d, big_n = spec.alpha * spec.beta, spec.alpha * spec.gamma
    top, twice = nagell_bound(spec)
    out = []
    y = 0
    while y * y * twice <= top:
        x = exact_sqrt(big_n + d * y * y)
        if x is not None:
            out += sorted({(-x, y), (x, y)})
        y += 1
    return out


def unit_exponent(spec: PellSpec) -> int | None:
    """The e <= 12 with eta^e = x1 + y1*sqrt(D), or None."""
    d = spec.alpha * spec.beta
    f = isqrt((spec.rec**2 - 4) // d)
    x1, y1 = _least_unit(d)
    powers = _steps(spec.rec, (2, 0), (spec.rec, f), 13)
    return next((e for e, pq in enumerate(powers) if e and pq == (2 * x1, 2 * y1)), None)


def stream_certificate(spec: PellSpec) -> str | None:
    """The first step of the docstring's argument that fails for the spec's
    stream, or None when the stream is every nonnegative solution."""
    d, rec = spec.alpha * spec.beta, spec.rec
    if exact_sqrt(d) is not None:
        return "D is a square"
    f_sq, rem = divmod(rec * rec - 4, d)
    f = exact_sqrt(f_sq)
    if rem or f is None:
        return "rec^2 - 4 is not f^2 * D"
    v0, v1 = ((spec.alpha * n, i) for n, i in spec.seeds)
    if (2 * v1[0], 2 * v1[1]) != (rec * v0[0] + f * d * v0[1], rec * v0[1] + f * v0[0]):
        return "the second seed is not the first times eta"
    e = unit_exponent(spec)
    if e is None:
        return "eps is not a power of eta"
    # xi_0 * eta^j for -e <= j <= e, and their negatives
    line = set(_steps(rec, v0, v1, e + 1)) | set(_steps(rec, v1, v0, e + 2))
    line |= {(-x, -y) for x, y in line}
    if not set(nagell_candidates(spec)) <= line:
        return "a fundamental solution is off the stream"
    if min(_steps(rec, v1, v0, 3)[2]) >= 0:
        return "the step before the first seed is nonnegative"
    return None


class TestStreamsAreComplete:
    @pytest.mark.parametrize("spec", SPECS.values(), ids=lambda s: s.name)
    def test_certificate_holds(self, spec):
        assert stream_certificate(spec) is None

    def test_nagell_bound_is_below_2_and_largest_for_k1(self):
        bounds = {name: nagell_bound(spec) for name, spec in SPECS.items()}
        # Y = 2 is over every bound, and K1's bound^2 = 64/20 is the largest
        assert all(4 * twice > top for top, twice in bounds.values())
        top1, twice1 = bounds["K1"]
        assert (top1, twice1) == (64, 20)
        assert all(top * twice1 <= top1 * twice for top, twice in bounds.values())

    def test_fundamental_solutions_are_the_first_seeds(self):
        # up to the sign of X; K1 adds its second seed and that seed's conjugate
        assert nagell_candidates(SPECS["K1"]) == [(-2, 0), (2, 0), (-3, 1), (3, 1)]
        for name, spec in SPECS.items():
            if name != "K1":
                n, i = spec.seeds[0]
                assert set(nagell_candidates(spec)) == {(-spec.alpha * n, i), (spec.alpha * n, i)}

    def test_k1_steps_by_a_cube_root_of_the_unit(self):
        # phi^2 = (3 + sqrt5)/2, and Nagell's unit 9 + 4*sqrt5 is phi^6
        assert {name: unit_exponent(spec) for name, spec in SPECS.items()} == {
            name: 3 if name == "K1" else 1 for name in SPECS
        }

    @pytest.mark.parametrize("seeds, rec, failed", [
        # stepping by phi^4 misses the class of (3, 1), and phi^6 is no power of it
        (((2, 0), (7, 3)), 7, "eps is not a power of eta"),
        # starting a step late misses (2, 0)
        (((3, 1), (7, 3)), 3, "the step before the first seed is nonnegative"),
    ], ids=["skips-a-class", "starts-late"])
    def test_a_stream_that_misses_a_solution_fails(self, seeds, rec, failed):
        spec = PellSpec("K1-mutant", 1, 5, 4, seeds, rec)
        assert stream_certificate(spec) == failed
        assert set(seed_search(1, 5, 4, 50)) - set(solutions(spec, 4))


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
