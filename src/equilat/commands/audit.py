"""`equilat audit`: the catalog cross-checked against the classification results."""

from __future__ import annotations

from types import SimpleNamespace

from equilat import search
from equilat.commands import check_workers


def build(args: SimpleNamespace) -> dict:
    check_workers(args)
    report = search.audit_theorems(args.p_max)
    kites_match = report.kites_found == report.kites_expected
    payload = {
        "p_max": report.p_max,
        **{
            key: sorted(map(list, getattr(report, key)))
            for key in ("kites_found", "kites_expected", "trapezoids_found", "cyclic_found")
        },
        "kites_match": kites_match,
        "diagonal_exceptions": [
            {"signature": list(sig), "length": length}
            for sig, length in report.diagonal_exceptions
        ],
    }
    return {
        "json": lambda: payload,
        "text": lambda: [
            f"audit at p_max={report.p_max}:",
            f"  kite classes found:      {len(report.kites_found)}"
            f" (closed-form match: {kites_match})",
            f"  trapezoid classes found: {len(report.trapezoids_found)}",
            f"  cyclic classes found:    {len(report.cyclic_found)}",
            f"  rational interior diagonals: {len(report.diagonal_exceptions)}",
        ] + [
            f"    {sig} has an interior diagonal of length {length}"
            for sig, length in report.diagonal_exceptions
        ],
        "failed": report.failed,
    }
