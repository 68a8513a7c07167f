"""`equilat audit`: the catalog cross-checked against the classification results.

Everything comes from the rows of `search.audit_theorems`: per row, the JSON
keys {name}_found and {name}_expected, each a sorted list, and {name}_match,
one text line, and its name in "failed" when it does not hold."""

from types import SimpleNamespace

from equilat import search
from equilat.commands import check_workers


def build(args: SimpleNamespace) -> dict:
    check_workers(args)
    rows = search.audit_theorems(args.p_max)
    payload = {"p_max": args.p_max}
    for row in rows:
        for part in ("found", "expected"):
            # None, an unrealized trapezoid, sorts first
            entries = getattr(row, part)
            payload[f"{row.name}_{part}"] = sorted(entries, key=lambda e: (e is not None, e))
        payload[f"{row.name}_match"] = row.holds
    # the form of diagonal_exceptions_found that the benchmark's checker reads
    payload["diagonal_exceptions"] = [{"signature": sig, "length": length}
                                      for sig, length in payload["diagonal_exceptions_found"]]
    return {
        "json": lambda: payload,
        "text": lambda: [f"audit at p_max={args.p_max}:"] + [
            f"  {row.name}: {len(row.found)} found, {len(row.expected)} expected,"
            f" {'match' if row.holds else 'MISMATCH'}"
            for row in rows
        ],
        "failed": [row.name for row in rows if not row.holds],
    }
