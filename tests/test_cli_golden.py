"""Every command's stdout, byte for byte, against recorded SHA-256 digests.

A change meant to keep the output identical (a faster search, a leaner
import) must leave every digest in tests/data/cli_stdout_sha256.json as it
is.  A change meant to alter the output regenerates the file with

    PYTHONPATH=src python tests/test_cli_golden.py

and the diff of that file shows which commands changed.
"""

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from equilat import cli, render

DIGESTS = Path(__file__).parent / "data" / "cli_stdout_sha256.json"


# Every format each command accepts, as its parser offers them; render's
# runs are its figures, pinned separately below.
FORMATS = {name: spec[1] for name, spec in cli._COMMANDS.items() if name != "render"}


def _commands() -> list[tuple[str, ...]]:
    """Each subcommand at its defaults and at the benchmark's arguments, in
    every format it accepts, one family of kites, indented JSON, and every
    figure."""
    runs = {
        "pell": [(), ("--count", "40")],
        "kites": [(), ("--count", "12"), ("--count", "200"), ("--family", "K2", "--count", "3")],
        "trapezoids": [()],
        "cyclic": [()],
        "search": [("--p-max", "42"), ("--p-max", "200")],
        "audit": [("--p-max", "42"), ("--p-max", "200")],
    }
    out = [
        (name, *args, "--format", fmt)
        for name, formats in FORMATS.items()
        for args in runs[name]
        for fmt in formats
    ]
    out += [(name, *runs[name][0], "--format", "json", "--pretty") for name in runs]
    out += [("render", "--figure", name) for name in render.figure_names()]
    return out


SLOW = [
    ("audit", "--p-max", "1000", "--format", "json"),
    ("search", "--p-max", "1000", "--format", "json"),
]


def _digest(argv: tuple[str, ...]) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(list(argv))
    assert code == 0
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


def _recorded() -> dict[str, str]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def test_every_command_is_recorded():
    assert set(_recorded()) == {" ".join(argv) for argv in _commands() + SLOW}


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_stdout_matches_digest(argv):
    assert _digest(argv) == _recorded()[" ".join(argv)]


@pytest.mark.slow
@pytest.mark.parametrize("argv", SLOW, ids=" ".join)
def test_stdout_matches_digest_at_the_cap(argv):
    assert _digest(argv) == _recorded()[" ".join(argv)]


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    table = {" ".join(argv): _digest(argv) for argv in _commands() + SLOW}
    DIGESTS.write_text(json.dumps(table, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(table)} digests to {DIGESTS}", file=sys.stderr)
