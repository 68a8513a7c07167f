"""Output checks for the equilat commands the benchmark runs.

Each check takes a command's stdout and raises CheckFailed when the output is
wrong.  Checks read only fields whose values do not depend on the search
algorithm: congruence signatures, closed-form results and counts, never the
representative vertices or the `embeddings_seen` tallies of the chain walk.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from math import isqrt
from pathlib import Path

# Congruence signatures of every class found by the search of the equilat
# release the benchmark was defined against, keyed by perimeter bound.
EXPECTED_SIGNATURES = {
    int(p_max): {tuple(sig) for sig in sigs}
    for p_max, sigs in json.loads(
        (Path(__file__).resolve().parent / "expected_signatures.json").read_text()
    ).items()
}
RATIONAL_DIAGONAL_EXCEPTION = [{"signature": [9, 16, 36, 25, 25, 52], "length": 5}]
TRAPEZOID_SIDES = {(6, 4, 3, 5), (10, 3, 6, 5), (8, 5, 2, 5), (14, 5, 6, 5), (20, 4, 15, 3)}
PELL_PREFIXES = {
    "K1": [2, 3, 7, 18, 47, 123],
    "K2": [1, 9, 161, 2889, 51841],
    "K3": [1, 3, 17, 99, 577],
    "K4": [1, 5, 29, 169, 985],
}
KITE_FAMILIES = ("K1", "K2", "K3", "K4")


class CheckFailed(Exception):
    """A command's output is wrong."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _json(stdout: bytes):
    try:
        return json.loads(stdout)
    except ValueError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from exc


def _equable_sides(vertices: list[list[int]]) -> list[int]:
    """Integer side lengths of a lattice quadrilateral whose area equals its
    perimeter; raises CheckFailed otherwise."""
    _expect(len(vertices) == 4, f"{vertices} is not a quadrilateral")
    sides = []
    twice_area = 0
    for (x0, y0), (x1, y1) in zip(vertices, vertices[1:] + vertices[:1]):
        n = (x1 - x0) ** 2 + (y1 - y0) ** 2
        r = isqrt(n)
        _expect(r * r == n and r > 0, f"{vertices} has a side of non-integer length")
        sides.append(r)
        twice_area += x0 * y1 - x1 * y0
    _expect(abs(twice_area) == 2 * sum(sides), f"{vertices} is not equable")
    return sides


def _same_cycle(sides: list[int], order: list[int]) -> bool:
    """Whether the sides run through the cyclic order, from any start, in
    either direction."""
    turns = [order[i:] + order[:i] for i in range(len(order))]
    return sides in turns or sides[::-1] in turns


def search_catalog(p_max: int):
    expected = EXPECTED_SIGNATURES[p_max]

    def check(stdout: bytes) -> None:
        payload = _json(stdout)
        _expect(payload.get("p_max") == p_max, f"p_max is {payload.get('p_max')}, not {p_max}")
        found = set()
        for cls in payload["classes"]:
            sig = tuple(cls["signature"])
            _expect(sig not in found, f"class {sig} is listed twice")
            found.add(sig)
            perimeter = sum(isqrt(s) for s in sig[:4])
            _expect(cls["perimeter"] == perimeter <= p_max, f"class {sig} has a wrong perimeter")
        _expect(
            found == expected,
            f"{len(found)} classes; missing {sorted(expected - found)[:3]}, "
            f"unexpected {sorted(found - expected)[:3]}",
        )

    return check


def audit_report(p_max: int, kites: int):
    catalog = EXPECTED_SIGNATURES[p_max]

    def check(stdout: bytes) -> None:
        report = _json(stdout)
        _expect(report.get("p_max") == p_max, f"p_max is {report.get('p_max')}, not {p_max}")
        _expect(report["kites_match"] is True, "kites_match is not true")
        counts = tuple(len(report[k]) for k in ("kites_found", "trapezoids_found", "cyclic_found"))
        _expect(counts == (kites, 5, 4), f"kite/trapezoid/cyclic classes {counts}, not {(kites, 5, 4)}")
        for key in ("kites_found", "kites_expected", "trapezoids_found", "cyclic_found"):
            _expect({tuple(s) for s in report[key]} <= catalog, f"{key} names a class outside the catalog")
        _expect(
            report["diagonal_exceptions"] == RATIONAL_DIAGONAL_EXCEPTION,
            f"diagonal exceptions {report['diagonal_exceptions']}",
        )

    return check


def pell_streams(count: int):
    def check(stdout: bytes) -> None:
        rows = {r["name"]: r for r in _json(stdout)}
        for name, prefix in PELL_PREFIXES.items():
            got = [n for n, _ in rows[name]["solutions"]]
            _expect(len(got) == count, f"{name} has {len(got)} solutions, not {count}")
            _expect(got[: len(prefix)] == prefix, f"{name} starts {got[:len(prefix)]}")
        for r in rows.values():
            for n, i in r["solutions"]:
                _expect(r["alpha"] * n * n - r["beta"] * i * i == r["gamma"], f"{r['name']}: ({n},{i})")

    return check


def kite_members(count: int):
    def check(stdout: bytes) -> None:
        rows = _json(stdout)
        families = [r["family"] for r in rows]
        _expect(
            sorted(families) == sorted(KITE_FAMILIES * count),
            f"{len(rows)} kite rows, not {count} per family",
        )
        for r in rows:
            a, b, _, _ = _equable_sides([[0, 0], r["A"], r["B"], r["C"]])
            _expect((a, b) == (r["a"], r["b"]), f"kite {r['family']} n={r['n']} sides")

    return check


def trapezoid_list(stdout: bytes) -> None:
    rows = _json(stdout)
    sides = [tuple(r["sides"]) for r in rows]
    _expect(len(sides) == 5 and set(sides) == TRAPEZOID_SIDES, f"trapezoid sides {sides}")
    for r in rows:
        _expect(r["embedding"] is not None, f"trapezoid {r['sides']} has no lattice embedding")
        _expect(_same_cycle(_equable_sides(r["embedding"]), r["sides"]), f"embedding of {r['sides']}")


def cyclic_classes(stdout: bytes) -> None:
    payload = _json(stdout)
    solutions = payload["solutions"]
    _expect(
        (payload["candidates"], len(solutions)) == (63, 4),
        f"{payload['candidates']} candidates, {len(solutions)} solutions",
    )
    for s in solutions:
        realized = [o for o in s["orderings"] if o["realizable"]]
        _expect(len(realized) >= 1, f"cyclic class {s['a'], s['b'], s['c'], s['d']} is not realized")
        for o in realized:
            _expect(_same_cycle(_equable_sides(o["embedding"]), o["order"]), f"embedding of {o['order']}")


def svg_document(stdout: bytes) -> None:
    try:
        root = ET.fromstring(stdout)
    except ET.ParseError as exc:
        raise CheckFailed(f"SVG does not parse: {exc}") from exc
    _expect(root.tag == "{http://www.w3.org/2000/svg}svg", f"root element is {root.tag}")
