"""Solution streams for the Pell and Pell-like equations alpha*n^2 - beta*i^2 = gamma.

Each built-in equation carries the first two nonnegative solutions as seeds;
the full stream, ordered by increasing n, continues them with the second-order
recurrence (n_j, i_j) = rec * (n_{j-1}, i_{j-1}) - (n_{j-2}, i_{j-2}).  Every
emitted pair is re-checked against the equation, and completeness of the
stream is asserted separately against the brute-force scan in `seed_search`
(never proved here).
"""

from __future__ import annotations

from itertools import islice
from math import isqrt
from typing import Iterator, NamedTuple

from equilat.errors import Checked, InconsistencyError

__all__ = [
    "PellSolution",
    "PellSpec",
    "PellInconsistencyError",
    "SPECS",
    "iter_solutions",
    "solutions",
    "seed_search",
]


class PellInconsistencyError(InconsistencyError):
    """The recurrence produced a pair that fails its own equation."""


class PellSolution(NamedTuple):
    n: int
    i: int


class _PellSpec(NamedTuple):
    name: str
    alpha: int
    beta: int
    gamma: int
    seeds: tuple[PellSolution, ...]
    rec: int


class PellSpec(Checked, _PellSpec):
    """One equation alpha*n^2 - beta*i^2 = gamma with seeds and recurrence."""

    __slots__ = ()

    def _check(self) -> None:
        if self.alpha < 1 or self.beta < 1:
            raise ValueError("alpha and beta must be positive")
        if self.gamma == 0:
            raise ValueError("gamma must be nonzero")
        if self.rec < 3:
            raise ValueError("recurrence multiplier must be at least 3")
        for s in self.seeds:
            if s.n < 0 or s.i < 0:
                raise ValueError(f"seed {s} is not nonnegative")
            if not self.satisfies(s.n, s.i):
                raise ValueError(f"seed {s} does not satisfy {self.name}")
        if len(self.seeds) < 2:
            raise ValueError(f"{self.name}: need at least two seeds to run the recurrence")

    def satisfies(self, n: int, i: int) -> bool:
        return self.alpha * n * n - self.beta * i * i == self.gamma


# The four kite-family equations and the four triangle-family restrictions, by
# name, in the order `equilat pell` prints them.
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


def iter_solutions(spec: PellSpec) -> Iterator[PellSolution]:
    """Lazy stream of solutions in increasing n.

    The seeds are the first entries of the stream; the recurrence extends it
    indefinitely.  Raises PellInconsistencyError if an extended pair fails the
    equation (a wrong spec, not bad input).
    """
    yield from spec.seeds
    prev, last = spec.seeds[-2], spec.seeds[-1]
    while True:
        nxt = PellSolution(spec.rec * last.n - prev.n, spec.rec * last.i - prev.i)
        if not spec.satisfies(nxt.n, nxt.i):
            raise PellInconsistencyError(
                f"{spec.name}: recurrence produced {nxt}, which fails the equation"
            )
        if nxt.n <= last.n:
            raise PellInconsistencyError(f"{spec.name}: stream is not increasing at {nxt}")
        yield nxt
        prev, last = last, nxt


def solutions(spec: PellSpec, count: int) -> list[PellSolution]:
    """First `count` solutions of the spec, ordered by increasing n."""
    if count < 1:
        raise ValueError("count must be positive")
    return list(islice(iter_solutions(spec), count))


def seed_search(alpha: int, beta: int, gamma: int, bound: int) -> list[PellSolution]:
    """All nonnegative solutions with n <= bound, by exhaustive scan.

    Independent of the recurrence machinery; used as the completeness oracle.
    """
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
