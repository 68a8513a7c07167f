"""Solution streams for the Pell and Pell-like equations alpha*n^2 - beta*i^2 = gamma.

Each built-in equation carries the first two nonnegative solutions as seeds;
the full stream, ordered by increasing n, continues them with the second-order
recurrence (n_j, i_j) = rec * (n_{j-1}, i_{j-1}) - (n_{j-2}, i_{j-2}).  Every
emitted pair is re-checked against the equation, and completeness of the
stream is asserted separately against the brute-force scan in `seed_search`
(never proved here).  The kite families run the same recurrence, with a
constant term, on their vertex coordinates.  A spec is a plain record, which
`iter_solutions` checks as each stream starts.
"""

from __future__ import annotations

import sys
from itertools import islice
from math import isqrt
from typing import Iterator, NamedTuple

from equilat.errors import InconsistencyError

__all__ = [
    "PellSolution",
    "PellSpec",
    "SPECS",
    "recurrence",
    "iter_solutions",
    "solutions",
    "seed_search",
]


class PellSolution(NamedTuple):
    n: int
    i: int


class PellSpec(NamedTuple):
    """One equation alpha*n^2 - beta*i^2 = gamma with (n, i) seeds and recurrence."""

    name: str
    alpha: int
    beta: int
    gamma: int
    seeds: tuple[PellSolution, ...]
    rec: int

    def satisfies(self, n: int, i: int) -> bool:
        return self.alpha * n * n - self.beta * i * i == self.gamma


# The four kite-family equations and the four triangle-family restrictions, by
# name, in the order `equilat pell` prints them.  Besides that command, only
# the tests' oracle of the trapezoid family rows reads the restrictions.
SPECS: dict[str, PellSpec] = {spec.name: spec for spec in (
    PellSpec("K1", 1, 5, 4, (PellSolution(2, 0), PellSolution(3, 1)), 3),
    PellSpec("K2", 1, 5, 1, (PellSolution(1, 0), PellSolution(9, 4)), 18),
    PellSpec("K3", 1, 2, 1, (PellSolution(1, 0), PellSolution(3, 2)), 6),
    PellSpec("K4", 2, 1, 1, (PellSolution(1, 1), PellSolution(5, 7)), 6),
    PellSpec("x^2+1=2y^2", 1, 2, -1, (PellSolution(1, 1), PellSolution(7, 5)), 6),
    PellSpec("x^2-1=2y^2", 1, 2, 1, (PellSolution(1, 0), PellSolution(3, 2)), 6),
    PellSpec("x^2+2=3y^2", 1, 3, -2, (PellSolution(1, 1), PellSolution(5, 3)), 4),
    PellSpec("x^2-1=3y^2", 1, 3, 1, (PellSolution(1, 0), PellSolution(2, 1)), 4),
)}


def _check_equation(alpha: int, beta: int, gamma: int) -> None:
    """ValueError unless alpha, beta and gamma are ints with alpha and beta
    positive and gamma nonzero, as the streams and the scan need."""
    if not all(isinstance(v, int) for v in (alpha, beta, gamma)):
        raise ValueError("alpha, beta and gamma must be integers")
    if alpha < 1 or beta < 1:
        raise ValueError("alpha and beta must be positive")
    if gamma == 0:
        raise ValueError("gamma must be nonzero")


def _checked_seeds(spec: PellSpec) -> tuple[PellSolution, ...]:
    """The spec's seeds as PellSolutions; ValueError for a spec that cannot stream."""
    try:
        seeds = tuple(PellSolution(*s) for s in spec.seeds)
    except TypeError:
        raise ValueError(f"seeds {spec.seeds!r} are not (n, i) pairs") from None
    fields = (spec.alpha, spec.beta, spec.gamma, spec.rec, *(v for s in seeds for v in s))
    if not all(isinstance(v, int) for v in fields):
        raise ValueError("alpha, beta, gamma, rec and the seeds must be integers")
    _check_equation(spec.alpha, spec.beta, spec.gamma)
    if spec.rec < 3:
        raise ValueError("recurrence multiplier must be at least 3")
    for s in seeds:
        if s.n < 0 or s.i < 0:
            raise ValueError(f"seed {s} is not nonnegative")
        if not spec.satisfies(s.n, s.i):
            raise ValueError(f"seed {s} does not satisfy {spec.name}")
    if len(seeds) < 2:
        raise ValueError(f"{spec.name}: need at least two seeds to run the recurrence")
    return seeds


def recurrence(
    t: int, v0: tuple[int, ...], v1: tuple[int, ...], w: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    """v0, v1, then v_{j+1} = t*v_j - v_{j-1} + w entry by entry, indefinitely."""
    yield v0
    while True:
        yield v1
        v0, v1 = v1, tuple(t * b - a + c for a, b, c in zip(v0, v1, w))


def iter_solutions(spec: PellSpec) -> Iterator[PellSolution]:
    """Lazy stream of solutions in increasing n.

    The seeds are the first entries of the stream; the recurrence extends it
    indefinitely.  A spec that cannot stream is a ValueError when the stream
    starts, and InconsistencyError means an extended pair fails the equation
    (a wrong spec, not bad input).
    """
    seeds = _checked_seeds(spec)
    yield from seeds
    last = seeds[-1]
    steps = islice(recurrence(spec.rec, *seeds[-2:], (0, 0)), 2, None)
    for nxt in map(PellSolution._make, steps):
        if not spec.satisfies(nxt.n, nxt.i):
            raise InconsistencyError(
                f"{spec.name}: recurrence produced {nxt}, which fails the equation"
            )
        if nxt.n <= last.n:
            raise InconsistencyError(f"{spec.name}: stream is not increasing at {nxt}")
        yield nxt
        last = nxt


def solutions(spec: PellSpec, count: int) -> list[PellSolution]:
    """First `count` solutions of the spec, ordered by increasing n."""
    if not isinstance(count, int):
        raise ValueError("count must be an integer")
    if not 1 <= count <= sys.maxsize:  # islice takes at most sys.maxsize
        raise ValueError(f"count must lie in [1, {sys.maxsize}]")
    return list(islice(iter_solutions(spec), count))


def seed_search(alpha: int, beta: int, gamma: int, bound: int) -> list[PellSolution]:
    """All nonnegative solutions with n <= bound, by exhaustive scan.

    Independent of the recurrence machinery; used as the completeness oracle.
    The coefficients are checked as a spec's are.
    """
    _check_equation(alpha, beta, gamma)
    if not isinstance(bound, int):
        raise ValueError("bound must be an integer")
    if bound < 1:
        raise ValueError("bound must be positive")
    found = []
    for n in range(bound + 1):
        num = alpha * n * n - gamma
        if num < 0 or num % beta:
            continue
        i_sq = num // beta
        i = isqrt(i_sq)
        if i * i == i_sq:
            found.append(PellSolution(n, i))
    return found
