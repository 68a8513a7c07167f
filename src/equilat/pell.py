"""Solution streams for the Pell and Pell-like equations alpha*n^2 - beta*i^2 = gamma.

Each built-in equation carries the first two nonnegative solutions as seeds;
the full stream, ordered by increasing n, continues them with the second-order
recurrence (n_j, i_j) = rec * (n_{j-1}, i_{j-1}) - (n_{j-2}, i_{j-2}).  Every
emitted pair is re-checked against the equation.  The kite families run the
same recurrence, with a constant term, on their vertex coordinates.  A spec is
a plain record, which `iter_solutions` checks as each stream starts.

Each stream of `SPECS` is every nonnegative solution.  Write the equation as
X^2 - D*Y^2 = N with X = alpha*n, Y = i, D = alpha*beta (not a square) and
N = alpha*gamma, and a solution as xi = X + Y*sqrt(D).  With
rec^2 - 4 = f^2*D, the unit eta = (rec + f*sqrt(D))/2 has eta^2 = rec*eta - 1,
and the second seed is the first times eta, so the stream is xi_0*eta^j for
j >= 0, xi_0 the first seed.  Let eps = x1 + y1*sqrt(D) be the least solution
of x^2 - D*y^2 = 1 with y1 > 0.  Nagell's bound (T. Nagell, Introduction to
Number Theory, 1951): every solution is +-xi*eps^k for an integer k and a
fundamental solution xi of its class, which has

    0 <= Y <= y1*sqrt|N| / sqrt(2(x1 + 1))   when N > 0,
    0 <  Y <= y1*sqrt|N| / sqrt(2(x1 - 1))   when N < 0.

For every spec the bound is below 2 (the largest is 1.79, for K1), so the
fundamental solutions are among the (+-X, Y) with Y = 0 or 1.  Each of them
is +-xi_0*eta^j for some integer j: for K1 they are the seeds (2, 0) and
(3, 1), and (-3, 1) = -xi_0*eta^-1; for every other spec the first seed,
up to sign.  eps is eta, except for K1, whose stream steps by
eta = phi^2 = (3 + sqrt5)/2 while eps = 9 + 4*sqrt5 = eta^3.  So every
solution is +-xi_0*eta^j.  A solution has X, Y >= 0 exactly when xi > 0 and
xi >= sqrt|N| (then |xi'| = |N|/xi <= xi).  xi_0*eta^-1, the step before
the first seed, is positive with a negative entry, so it is below sqrt|N|,
and the stream holds every nonnegative solution, in increasing n.  The tests carry this certificate.
"""

import sys
from collections import namedtuple
from collections.abc import Iterator
from itertools import islice

from equilat.errors import InconsistencyError

__all__ = [
    "PellSolution",
    "PellSpec",
    "SPECS",
    "recurrence",
    "iter_solutions",
    "solutions",
]


class PellSolution(namedtuple("PellSolution", ("n", "i"))):
    """One solution (n, i), in ints."""

    __slots__ = ()


class PellSpec(namedtuple("PellSpec", ("name", "alpha", "beta", "gamma", "seeds", "rec"))):
    """One equation alpha*n^2 - beta*i^2 = gamma, by name, with its two
    PellSolution seeds and the int multiplier `rec` of its recurrence."""

    __slots__ = ()

    def satisfies(self, n: int, i: int) -> bool:
        return self.alpha * n * n - self.beta * i * i == self.gamma


# The four kite-family equations and the four triangle-family restrictions, by
# name, in the order `equilat pell` prints them.  Besides that command, only
# the tests read the restrictions: the oracle of the trapezoid family rows and
# the certificate of the module docstring.
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


def _checked_seeds(spec: PellSpec) -> tuple[PellSolution, ...]:
    """The spec's seeds as PellSolutions; ValueError for a spec that cannot stream."""
    try:
        seeds = tuple(PellSolution(*s) for s in spec.seeds)
    except TypeError:
        raise ValueError(f"seeds {spec.seeds!r} are not (n, i) pairs") from None
    fields = (spec.alpha, spec.beta, spec.gamma, spec.rec, *(v for s in seeds for v in s))
    if not all(isinstance(v, int) for v in fields):
        raise ValueError("alpha, beta, gamma, rec and the seeds must be integers")
    if spec.alpha < 1 or spec.beta < 1:
        raise ValueError("alpha and beta must be positive")
    if spec.gamma == 0:
        raise ValueError("gamma must be nonzero")
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
