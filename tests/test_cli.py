import contextlib
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from math import isqrt
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import equilat
from equilat import cli, kites, render, search, trapezoids
from equilat.cli import run, to_json
from equilat.figures import NAMED_QUADS
from equilat.geometry import dist_sq, signature
from helpers import all_real_parser

SRC = str(Path(equilat.__file__).resolve().parents[1])
TRACE_SHIM = Path(__file__).resolve().parents[1] / "perfbench" / "trace_shim.py"


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _python(*args):
    """Run `python args...` in a fresh interpreter that imports equilat from SRC."""
    return subprocess.run(
        [sys.executable, *args], env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True, text=True,
    )


# The argv of the benchmark's three workloads, copied from
# perfbench/run.py::workloads (two pool workers for search_fanout).
BENCHMARK_ARGV = [
    ("search", "--p-max", "200", "--format", "json"),
    ("audit", "--p-max", "200", "--workers", "2", "--format", "json"),
    ("pell", "--count", "40", "--format", "json"),
    ("kites", "--count", "12", "--format", "json"),
    ("trapezoids", "--format", "json"),
    ("cyclic", "--format", "json"),
    ("search", "--format", "json"),
    ("audit", "--format", "json"),
    ("render", "--figure", "k1-nested"),
]


def _loaded_after_cli_import(names) -> set[str]:
    """Which of these modules a fresh interpreter has loaded after
    `import equilat.cli`."""
    probe = "import sys, equilat.cli; print(*set(sys.argv[1:]) & set(sys.modules))"
    done = _python("-c", probe, *names)
    done.check_returncode()
    return set(done.stdout.split())


# Imports every command module and executes every equilat module cli registers
# (vars() is an attribute read), so that the top-level imports of all of them
# are on sys.modules, as at startup of whichever command uses them.
_ALL_EXECUTED_PROBE = """\
import importlib, sys, equilat.cli
for command in equilat.cli._COMMANDS:
    importlib.import_module("equilat.commands." + command)
for name in [name for name in sys.modules if name.startswith("equilat.")]:
    vars(sys.modules[name])
print(*set(sys.argv[1:]) & set(sys.modules))
"""


def _loaded_by_any_command(names) -> set[str]:
    """Which of these modules a fresh interpreter has loaded once every equilat
    module has executed."""
    done = _python("-c", _ALL_EXECUTED_PROBE, *names)
    done.check_returncode()
    return set(done.stdout.split())


# A module cli registers but has not yet executed is a LazyLoader placeholder,
# whose type is a subclass of ModuleType.
_EXECUTED_PROBE = """\
import contextlib, io, sys, types
import equilat.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = equilat.cli.run(sys.argv[1:])
print(code, *(name for name, mod in sys.modules.items()
              if name.startswith("equilat.") and type(mod) is types.ModuleType))
"""


# Every module on sys.modules after a command has run.
_LOADED_PROBE = """\
import contextlib, io, sys
import equilat.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = equilat.cli.run(sys.argv[1:])
print(code, *sys.modules)
"""


class TestStartup:
    def test_import_does_not_load_urllib(self):
        # urllib.request alone costs about a third of the package's import time
        assert _loaded_by_any_command(["urllib.request"]) == set()

    def test_import_does_not_load_html(self):
        # render escapes its text itself; html pulls in html.entities, about
        # 2.5 ms of every command's import on a 2-vCPU Xeon (-X importtime)
        assert _loaded_by_any_command(["html", "html.entities"]) == set()

    def test_import_does_not_load_dataclasses(self):
        # building the records with dataclasses, which loads inspect, cost
        # about 30 ms of every command's startup on a 2-vCPU Xeon
        assert _loaded_by_any_command(["dataclasses", "inspect"]) == set()

    def test_import_does_not_load_csv(self):
        # only --format csv writes CSV, so cli imports csv inside _csv_text
        assert _loaded_by_any_command(["csv", "_csv"]) == set()

    def test_import_does_not_load_fractions(self):
        # every module decides integrality in integers and imports fractions
        # only inside the functions that return or show a rational
        assert _loaded_by_any_command(["fractions", "decimal", "numbers"]) == set()

    def test_import_does_not_load_json(self):
        # to_json writes compact JSON with the C encoder _json and imports json
        # only for --pretty; json costs about 1.5 ms of startup on a 2-vCPU Xeon
        assert _loaded_by_any_command(["json"]) == set()

    def test_import_does_not_load_argparse(self):
        # only _build_parser imports argparse, and argparse loads gettext, which
        # loads locale on argparse's first message lookup
        assert _loaded_by_any_command(["argparse", "gettext", "locale"]) == set()

    @pytest.mark.parametrize("argv", BENCHMARK_ARGV, ids=" ".join)
    def test_plain_command_does_not_load_argparse(self, argv):
        # cli._parse_plain reads a plain command line itself; importing argparse
        # and building its parser cost 3.7-5.5 ms of every command (2-vCPU Xeon)
        done = _python("-c", _LOADED_PROBE, *argv)
        code, *loaded = done.stdout.split()
        assert (code, done.stderr) == ("0", "")
        assert {"argparse", "gettext", "locale"}.isdisjoint(loaded)

    @pytest.mark.parametrize(
        "argv",
        [
            ("search", "--p-max", "16"), ("kites", "--count", "2"), ("pell", "--count", "2"),
            ("audit",), ("audit", "--p-max", "200"), ("cyclic",),
            *(("render", "--figure", name) for name in render.figure_names()
              if name != "parallelogram-failure"),
            *(("trapezoids", "--format", fmt) for fmt in ("text", "json", "csv")),
        ],
        ids=["search", "kites", "pell", "audit", "audit-200", "cyclic",
             *("render-" + name for name in render.figure_names()
               if name != "parallelogram-failure"),
             "trapezoids-text", "trapezoids-json", "trapezoids-csv"],
    )
    def test_command_does_not_load_fractions(self, argv):
        # fractions and decimal cost about 3.8 ms (-X importtime).  trapezoids
        # prints h from its integer terms, so only the swapped corner that the
        # parallelogram-failure figure marks is a rational.
        done = _python("-c", _LOADED_PROBE, *argv)
        code, *loaded = done.stdout.split()
        assert (code, done.stderr) == ("0", "")
        assert {"fractions", "decimal"}.isdisjoint(loaded)

    @pytest.mark.parametrize(
        "argv",
        [
            (name, "--format", fmt, *extra)
            for name, (_, formats, _) in cli._COMMANDS.items()
            for fmt in formats if fmt != "json"
            for extra in [{"search": ("--p-max", "16"), "render": ("--figure", "k1-nested")}
                          .get(name, ())]
        ],
        ids=lambda argv: "-".join(argv[:3:2]),
    )
    def test_command_without_json_output_does_not_load_json(self, argv):
        done = _python("-c", _LOADED_PROBE, *argv)
        code, *loaded = done.stdout.split()
        assert (code, done.stderr) == ("0", "")
        assert "json" not in loaded

    @pytest.mark.parametrize("argv", [a for a in BENCHMARK_ARGV if "json" in a], ids=" ".join)
    def test_json_command_does_not_load_json(self, argv):
        # import json, with the re that typing loads for every command, took a
        # median 1.5 ms in fresh CPython 3.11 interpreters on a 2-vCPU Xeon,
        # and _json 0.22 ms
        done = _python("-c", _LOADED_PROBE, *argv)
        code, *loaded = done.stdout.split()
        assert (code, done.stderr) == ("0", "")
        assert {"json", "json.decoder", "json.encoder", "json.scanner"}.isdisjoint(loaded)

    def test_pretty_command_loads_json(self):
        done = _python("-c", _LOADED_PROBE, "pell", "--count", "2", "--format", "json", "--pretty")
        code, *loaded = done.stdout.split()
        assert (code, done.stderr) == ("0", "")
        assert "json" in loaded

    def test_import_loads_every_traced_module(self):
        # perfbench/trace_shim.py finds the modules it wraps in sys.modules
        traced = [f"equilat.{m}" for m in (
            "cli", "search", "geometry", "trapezoids", "cyclic", "kites", "pell", "render"
        )]
        assert _loaded_after_cli_import(traced) == set(traced)

    def test_closed_form_modules_do_not_load_figures(self):
        # the trapezoid, cyclic and rational-diagonal results decide through
        # geometry.realize; the named drawings are only for display
        probe = (
            "import sys, equilat.trapezoids, equilat.cyclic, equilat.search; "
            "equilat.search.audit_theorems(18); print('equilat.figures' in sys.modules)"
        )
        done = _python("-c", probe)
        assert (done.stdout, done.stderr) == ("False\n", "")

    def test_trapezoids_import_does_not_load_pell(self):
        # the Pell restrictions of the trapezoid family rows are read only by
        # the tests' oracle of those rows
        probe = "import sys, equilat.trapezoids; print('equilat.pell' in sys.modules)"
        done = _python("-c", probe)
        assert (done.stdout, done.stderr) == ("False\n", "")

    def test_search_import_executes_no_closed_form_module(self):
        # audit_theorems imports cyclic, kites and trapezoids itself
        probe = "import sys, equilat.search; print(*(m for m in sys.modules if 'equilat' in m))"
        done = _python("-c", probe)
        done.check_returncode()
        assert set(done.stdout.split()) == {
            "equilat", "equilat.errors", "equilat.geometry", "equilat.search",
        }

    @pytest.mark.parametrize(
        "argv, modules",
        [
            (("pell",), {"pell"}),
            (("kites",), {"kites", "pell", "geometry"}),
            (("search",), {"search", "geometry"}),
            (("trapezoids",), {"trapezoids", "figures", "geometry"}),
            (("cyclic",), {"cyclic", "figures", "geometry"}),
            (("render", "--figure", "k1-nested"), {"render", "figures", "geometry"}),
            (("audit",), {"search", "geometry", "kites", "pell", "trapezoids", "cyclic"}),
        ],
        ids=["pell", "kites", "search", "trapezoids", "cyclic", "render", "audit"],
    )
    def test_command_executes_only_the_modules_it_uses(self, argv, modules):
        # and only its own command module, so it compiles no other builder
        done = _python("-c", _EXECUTED_PROBE, *argv)
        code, *executed = done.stdout.split()
        assert (code, done.stderr) == ("0", "")
        assert set(executed) == {f"equilat.{m}" for m in {
            "cli", "errors", "commands", f"commands.{argv[0]}", *modules}}

    def test_import_loads_no_command_module(self):
        # perfbench/trace_shim.py maps the equilat modules in sys.modules by
        # their last dotted name, so equilat.commands.search there could
        # shadow equilat.search
        probe = "import sys, equilat.cli; print(*(m for m in sys.modules if 'commands' in m))"
        done = _python("-c", probe)
        assert (done.stdout, done.stderr) == ("\n", "")

    @pytest.mark.parametrize(
        "argv, code",
        [(("--help",), "0"), (("search", "--help"), "0"), (("render", "--help"), "0"),
         (("frobnicate",), "2"), (("search", "--p-max", "x"), "2"),
         (("search", "--format", "text", "--pretty"), "2")],
        ids=["help", "search-help", "render-help", "unknown-command", "bad-value", "pretty"],
    )
    def test_help_and_usage_errors_load_no_command_module(self, argv, code):
        done = _python("-c", _LOADED_PROBE, *argv)
        returned, *loaded = done.stdout.split()
        assert returned == code
        assert [m for m in loaded if m.startswith("equilat.commands")] == []


class TestTraceShim:
    """The benchmark's trace shim wraps functions in modules that cli loads
    lazily; its spans must still see the work."""

    @pytest.mark.parametrize(
        "argv, span",
        [
            (("pell", "--count", "3"), "pell.solutions"),
            (("search", "--p-max", "42", "--format", "json"), "search.enumerate_leqs"),
        ],
        ids=["pell", "search"],
    )
    def test_spans_under_lazy_modules(self, tmp_path, argv, span):
        trace_out = tmp_path / "trace.json"
        done = _python(str(TRACE_SHIM), str(trace_out), *argv)
        assert done.returncode == 0, done.stderr
        trace = json.loads(trace_out.read_text())
        assert {k: n for k, n in trace["counts"].items() if k.endswith(".errors") and n} == {}
        assert span in {name for name, *_ in trace["spans"]}


class TestHelpAndChoices:
    @pytest.mark.parametrize(
        "command, flags, fragment",
        [
            ("pell", ["--format", "--out", "--pretty", "--count"], ""),
            ("kites", ["--format", "--out", "--pretty", "--count", "--family"], ""),
            # the bound is on the source triangle, while search and audit bound the quad
            ("trapezoids", ["--format", "--out", "--pretty", "--p-max"],
             "source triangle perimeter bound, not the trapezoid's"),
            ("cyclic", ["--format", "--out", "--pretty"], ""),
            ("search", ["--format", "--out", "--pretty", "--p-max", "--workers"], ""),
            ("audit", ["--format", "--out", "--pretty", "--p-max", "--workers"], ""),
            ("render", ["--format", "--out", "--figure"], ""),
        ],
        ids=["pell", "kites", "trapezoids", "cyclic", "search", "audit", "render"],
    )
    def test_help_names_every_flag(self, command, flags, fragment):
        done = _python("-m", "equilat.cli", command, "--help")
        assert done.returncode == 0 and done.stderr == ""
        assert done.stdout.startswith(f"usage: equilat {command} ")
        assert fragment in " ".join(done.stdout.split())
        named = {word.strip("[],") for word in done.stdout.split() if word.startswith(("--", "[--"))}
        assert named == {"--help", *flags}

    @pytest.mark.parametrize(
        "argv, choices",
        [
            (("kites", "--family", "K9"), list(kites.FAMILIES)),
            (("render", "--figure", "nope"), render.figure_names()),
        ],
        ids=["family", "figure"],
    )
    def test_bad_choice_names_the_valid_ones(self, argv, choices):
        done = _python("-m", "equilat.cli", *argv)
        assert done.returncode == 2 and done.stdout == ""
        assert f"argument {argv[1]}: invalid choice: '{argv[2]}'" in done.stderr
        assert all(f"'{choice}'" in done.stderr for choice in choices)

    @pytest.mark.parametrize(
        "argv",
        [
            ("--help",), (), ("frobnicate",), ("--pretty", "search"),
            ("sea",),  # argparse matches no prefix of a command name
            *((command, "--help") for command in
              ("pell", "kites", "trapezoids", "cyclic", "search", "audit", "render")),
            ("kites", "--family", "K9"), ("render", "--figure", "nope"),
            # valid command lines that only argparse reads
            ("search", "--p-m", "60"), ("search", "--p-max=60", "--format", "csv"),
            ("kites", "--count", "-1"),
        ],
        ids=lambda argv: " ".join(argv) or "no-arguments",
    )
    def test_parser_matches_all_real_parsers(self, capsys, monkeypatch, argv):
        # help, usage and invalid-choice output read only the name and help
        # line of a subparser that does not parse the command line
        monkeypatch.setattr(cli, "_build_parser", all_real_parser)
        expected = _run(capsys, *argv)
        monkeypatch.undo()
        assert _run(capsys, *argv) == expected


# The command lines of CI's "Installed console script" step
# (.github/workflows/tests.yml) that cli._parse_plain reads itself ...
CONSOLE_SCRIPT_PLAIN_ARGV = [
    ("audit",), ("pell", "--count", "3"), ("pell", "--count", "3500", "--format", "csv"),
    ("render", "--figure", "k1-nested"), ("render", "--figure", "right-trapezoids"),
    ("render", "--figure", "parallelogram-failure"),
    ("trapezoids",), ("trapezoids", "--format", "json"), ("trapezoids", "--format", "csv"),
    ("trapezoids", "--p-max", "1000000000000", "--format", "csv"),
    ("search",), ("search", "--format", "json"),
    ("kites", "--count", "3"), ("kites", "--family", "K2", "--count", "3"),
    ("kites", "--format", "json"), ("kites", "--format", "csv"),
    ("cyclic",), ("cyclic", "--format", "json"),
]
# ... and those it leaves to argparse.
CONSOLE_SCRIPT_ARGPARSE_ARGV = [("--help",), ("frobnicate",), ("search", "--p-m=60")]

# Words for command lines that are plain, nearly plain, or not plain at all:
# every command's flags, abbreviations, --flag=value, "--" and help ...
_FLAGS = ["--format", "--out", "--pretty", "--count", "--family", "--p-max", "--workers",
          "--figure", "--p", "--form", "--p-m", "--format=json", "--p-max=60", "--", "-h",
          "--help"]
# ... and values: ones int() reads ("\u0663" is the Arabic-Indic digit 3),
# ones that start with "-", which argparse may read as a flag, and ones that
# no flag's choices hold.
_VALUES = ["-1", "-", "", " 7", "+5", "1_0", "\u0663", "-5e3", "3", "60", "0",
           "text", "json", "csv", "svg", "xml", "K1", "K9", "k1-nested", "nope", "out.txt"]
_ANY_WORD = st.sampled_from(_FLAGS + _VALUES + list(cli._COMMANDS))


def _command_lines(command: str):
    """argv that start with `command`, then mostly its own flags, each with a
    value, but also any flag or stray word anywhere."""
    own = st.sampled_from(list(cli._flags(command)))
    return st.lists(st.one_of(
        st.tuples(own, st.sampled_from(_VALUES)),
        st.tuples(own, _ANY_WORD),
        st.tuples(_ANY_WORD),
    ), max_size=4).map(lambda items: [command, *(word for item in items for word in item)])


def _argparse_vars(build_parser, argv) -> dict | None:
    """vars() of the namespace build_parser's parser gives argv, as cli.run
    builds it, or None when that parser exits."""
    parser = build_parser(next((arg for arg in argv if arg in cli._COMMANDS), None))
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(parser.parse_args(argv, namespace=SimpleNamespace()))
    except SystemExit:
        return None


class TestPlainParse:
    """cli._parse_plain reads plain command lines without argparse, and must
    read each exactly as argparse does; the rest it leaves to argparse."""

    @settings(max_examples=400, deadline=None)
    @given(st.sampled_from(list(cli._COMMANDS)).flatmap(_command_lines))
    @example(["search", "--p-max", "60", "--pretty", "--format", "json", "--p-max", "50"])
    @example(["search", "--out", "--"])  # argparse reads no value starting with "-" ...
    @example(["search", "--out", "-5e3"])
    @example(["kites", "--family", "K9"])  # ... nor one outside the flag's choices
    @example(["search", "--format", "svg"])
    def test_matches_argparse(self, argv):
        plain = cli._parse_plain(argv)
        if plain is not None:
            for build_parser in (all_real_parser, cli._build_parser):
                assert vars(plain) == _argparse_vars(build_parser, argv), build_parser

    @pytest.mark.parametrize(
        "argv", list(dict.fromkeys(BENCHMARK_ARGV + CONSOLE_SCRIPT_PLAIN_ARGV)), ids=" ".join)
    def test_traffic_is_plain(self, argv):
        plain = cli._parse_plain(list(argv))
        assert plain is not None
        assert vars(plain) == _argparse_vars(all_real_parser, list(argv))

    @pytest.mark.parametrize("argv", CONSOLE_SCRIPT_ARGPARSE_ARGV, ids=" ".join)
    def test_help_usage_errors_and_abbreviations_are_not_plain(self, argv):
        assert cli._parse_plain(list(argv)) is None


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert run(["frobnicate"]) == 2
        assert run(["kites", "--family", "K9"]) == 2

    def test_domain_error_is_1(self, capsys):
        code, _, err = _run(capsys, "search", "--p-max", "7")
        assert code == 1 and "p_max" in err

    def test_success_is_0(self, capsys):
        assert _run(capsys, "pell", "--count", "3")[0] == 0

    @pytest.mark.parametrize(
        "argv, field",
        [
            (("search", "--p-max", "0"), "p_max"),
            (("audit", "--p-max", "0"), "p_max"),
            (("pell", "--count", "0"), "count"),
            (("kites", "--count", "0"), "count"),
        ],
        ids=["search", "audit", "pell", "kites"],
    )
    def test_explicit_zero_is_validated(self, capsys, argv, field):
        code, out, err = _run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"equilat {argv[0]}: ") and field in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["pell", "kites"])
    def test_count_above_sys_maxsize_is_validated(self, capsys, command):
        # islice takes at most sys.maxsize, and its own message named islice
        code, out, err = _run(capsys, command, "--count", "99999999999999999999")
        assert (code, out) == (1, "")
        assert err == f"equilat {command}: count must lie in [1, {sys.maxsize}]\n"

    def test_interrupt_is_130(self, capsys, monkeypatch):
        def interrupted(p_max):
            raise KeyboardInterrupt

        monkeypatch.setattr(search, "enumerate_leqs", interrupted)
        code, out, err = _run(capsys, "search", "--p-max", "1000")
        assert code == 130 and out == ""
        assert err == "equilat search: interrupted\n"

    def test_failed_stdout_flush_is_1(self, capsys, monkeypatch):
        # a closed pipe or a full disk: _emit flushes inside run's try
        class BrokenPipe(io.StringIO):
            def flush(self):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", BrokenPipe())
        code, _, err = _run(capsys, "pell", "--count", "2")
        assert code == 1
        assert err == "equilat pell: [Errno 32] Broken pipe\n"

    def test_pretty_needs_json(self, capsys):
        code, out, err = _run(capsys, "search", "--p-max", "16", "--format", "text", "--pretty")
        assert code == 2 and out == ""
        assert err == "equilat search: --pretty needs --format json\n"

    def test_render_has_no_pretty(self, capsys):
        code, out, err = _run(capsys, "render", "--figure", "kite-3-15", "--pretty")
        assert code == 2 and out == ""
        assert "unrecognized arguments: --pretty" in err

    @pytest.mark.parametrize("command", ["search", "audit"])
    def test_workers_must_be_positive(self, capsys, command):
        code, out, err = _run(capsys, command, "--p-max", "16", "--workers", "0")
        assert code == 1 and out == ""
        assert err == f"equilat {command}: workers must be positive\n"


class TestPell:
    def test_json_prefixes(self, capsys):
        code, out, _ = _run(capsys, "pell", "--count", "6", "--format", "json")
        assert code == 0
        rows = {r["name"]: r for r in json.loads(out)}
        assert [s[0] for s in rows["K1"]["solutions"]] == [2, 3, 7, 18, 47, 123]
        assert [s[0] for s in rows["K2"]["solutions"][:5]] == [1, 9, 161, 2889, 51841]

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str limit")
    def test_past_the_int_str_limit(self, capsys):
        # 640 is the lowest limit CPython takes; K2 passes 640 digits at index 512.
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = _run(capsys, "pell", "--count", "600", "--format", "json")
            assert sys.get_int_max_str_digits() == 640  # restored after the command
        finally:
            sys.set_int_max_str_digits(saved)
        assert (code, err) == (0, "")
        rows = {r["name"]: r for r in json.loads(out)}
        assert max(len(str(n)) for n, _ in rows["K2"]["solutions"]) > 640


class TestKites:
    def test_k1_b_column(self, capsys):
        code, out, _ = _run(capsys, "kites", "--family", "K1", "--count", "4", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [tuple(r["B"]) for r in rows] == [(4, 2), (6, 3), (14, 7), (36, 18)]
        assert all(r["q_sq"] == 80 for r in rows)

    def test_all_families_text(self, capsys):
        code, out, _ = _run(capsys, "kites", "--count", "2")
        assert code == 0
        assert out.count("K1 ") == 2 and out.count("K4 ") == 2


class TestTrapezoids:
    def test_csv_columns(self, capsys):
        code, out, _ = _run(capsys, "trapezoids", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "a,b,c,d,f,h_num,h_den,source_triangle,figure_tag"
        assert len(lines) == 6  # header + five solutions
        assert "20,4,15,3,5,12,5,3-4-5,trapezoid-20-4-15-3" in lines

    def test_csv_at_a_million(self, capsys):
        code, out, _ = _run(capsys, "trapezoids", "--p-max", "1000000", "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 6  # header + five solutions

    def test_csv_at_a_trillion(self, capsys):
        # the scan stops at the triangle bound, so any p_max costs the same
        code, out, _ = _run(capsys, "trapezoids", "--p-max", "1000000000000", "--format", "csv")
        assert code == 0
        assert len(out.strip().splitlines()) == 6  # header + five solutions

    def test_json_shows_each_realized_class_as_its_drawing(self, capsys):
        # the tag, the embedding and the published leg order all come from
        # the drawing of the class that the realizer places
        code, out, _ = _run(capsys, "trapezoids", "--format", "json")
        assert code == 0
        rows = json.loads(out)
        assert [r["figure"] for r in rows] == [
            "right-trapezoid-6-4-3-5", "right-trapezoid-10-3-6-5", "trapezoid-20-4-15-3",
            "isosceles-trapezoid-8-5-2-5", "isosceles-trapezoid-14-5-6-5",
        ]
        for r in rows:
            drawing = NAMED_QUADS[r["figure"]]
            t, f = r["triangle"], r["f"]
            assert signature(trapezoids.lattice_embedding(t, f)) == signature(drawing)
            assert r["embedding"] == [list(p) for p in drawing]
            edges = zip(drawing, drawing[1:] + drawing[:1])
            assert r["sides"] == [isqrt(dist_sq(p, q)) for p, q in edges]
            c = trapezoids.strip_width(t, f)
            assert r["sides"][0::2] == [c + f, c] and r["c"] == c

    def test_unrealized_solution_is_an_error(self, capsys, monkeypatch):
        real = trapezoids.lattice_embedding
        monkeypatch.setattr(
            trapezoids, "lattice_embedding", lambda t, f: None if f == 5 else real(t, f)
        )
        code, out, err = _run(capsys, "trapezoids")
        assert (code, out, err) == (1, "", "equilat trapezoids: no named drawing of None\n")
        code, _, err = _run(capsys, "audit", "--p-max", "42")
        assert (code, err) == (1, "equilat audit: failed cross-checks: trapezoids\n")


class TestCyclic:
    def test_text_summary(self, capsys):
        code, out, _ = _run(capsys, "cyclic", "--format", "text")
        assert code == 0
        assert out.splitlines()[0] == "63 candidates, 4 solutions"

    def test_json_shape(self, capsys):
        code, out, _ = _run(capsys, "cyclic", "--format", "json")
        payload = json.loads(out)
        assert payload["candidates"] == 63
        quads = [(r["w"], r["x"], r["y"], r["z"]) for r in payload["solutions"]]
        assert quads == [(1, 9, 10, 10), (2, 5, 5, 8), (3, 3, 6, 6), (4, 4, 4, 4)]

    def test_json_shows_each_realized_order_as_its_drawing(self, capsys):
        code, out, _ = _run(capsys, "cyclic", "--format", "json")
        assert code == 0
        shown = [
            o["embedding"]
            for r in json.loads(out)["solutions"]
            for o in r["orderings"]
            if o["realizable"]
        ]
        names = ("isosceles-trapezoid-14-5-6-5", "isosceles-trapezoid-8-5-2-5",
                 "rectangle-3-6", "square-4")
        assert shown == [[list(p) for p in NAMED_QUADS[n]] for n in names]


def _dumps(payload) -> str:
    """What to_json(payload, False) must equal, byte for byte."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


@contextlib.contextmanager
def _json_accelerator(hidden: bool):
    """With hidden, `import _json` raises ImportError, as on an interpreter
    without the C accelerator."""
    with pytest.MonkeyPatch.context() as mp:
        if hidden:
            mp.setitem(sys.modules, "_json", None)
        yield


def _raised(encode, payload):
    with pytest.raises((TypeError, ValueError)) as info:
        encode(payload)
    return type(info.value), str(info.value), getattr(info.value, "__notes__", None)


_JSON_TEXT = st.text(st.one_of(
    st.characters(), st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\u2028",
                                      "\xe9", "\U0001f600"])))
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**400, 10**400) | st.floats()
    | _JSON_TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_TEXT, inner, max_size=4),
    max_leaves=20,
)


_HIDDEN = pytest.mark.parametrize("hidden", [False, True], ids=["c-encoder", "no-_json"])
# Each command's JSON at its defaults and at the benchmark's arguments
_JSON_ARGV = list(dict.fromkeys([
    *((name, "--format", "json") for name, (_, formats, _) in cli._COMMANDS.items()
      if "json" in formats),
    *(argv for argv in BENCHMARK_ARGV if "json" in argv),
]))


class TestToJson:
    """to_json's compact output, from the C encoder _json or, without _json,
    from json.dumps, against json.dumps."""

    @pytest.mark.parametrize("argv, hidden", [
        *((argv, hidden) for argv in _JSON_ARGV for hidden in (False, True)),
        # integers past 4300 digits, 72 MB of JSON; without _json, to_json is json.dumps
        (("pell", "--count", "3500", "--format", "json"), False),
    ], ids=lambda v: " ".join(v) if isinstance(v, tuple) else ["c-encoder", "no-_json"][v])
    def test_command_payload(self, monkeypatch, argv, hidden):
        # both serializations run inside run's window without the int-to-str limit
        seen = []
        monkeypatch.setitem(cli._SERIALIZERS, "json", lambda payload, pretty: seen.append(
            (to_json(payload, pretty), _dumps(payload))) or "")
        with _json_accelerator(hidden):
            assert run(list(argv)) == 0
        [(ours, reference)] = seen
        assert ours == reference

    @_HIDDEN
    @settings(max_examples=200, deadline=None)
    @given(_JSON_VALUES)
    @example([float("nan"), -float("inf"), {"\U0001f600": "\x00\"\\"}, -10**400])
    def test_values(self, hidden, payload):
        with _json_accelerator(hidden):
            assert to_json(payload, False) == _dumps(payload)

    @_HIDDEN
    @pytest.mark.parametrize("payload", [
        object(), {"a": [1, {2, 3}]}, [b"bytes"], {"k": {"n": 1.5j}}, {(1, 2): 0},
    ], ids=["object", "set", "bytes", "complex", "tuple-key"])
    def test_unserializable_value(self, hidden, payload):
        with _json_accelerator(hidden):
            assert _raised(lambda p: to_json(p, False), payload) == _raised(_dumps, payload)

    @_HIDDEN
    def test_circular_payload(self, hidden):
        looped_list, looped_dict = [1], {"a": 1}
        looped_list.append(looped_list)
        looped_dict["b"] = [looped_dict]
        with _json_accelerator(hidden):
            for payload in (looped_list, looped_dict):
                assert _raised(lambda p: to_json(p, False), payload) == _raised(_dumps, payload)
                assert _raised(_dumps, payload)[:2] == (ValueError, "Circular reference detected")


class TestSearchAndAudit:
    def test_search_json_roundtrip(self, capsys):
        code, out, _ = _run(capsys, "search", "--p-max", "20", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert to_json(payload, pretty=False) == out  # byte-identical re-serialization
        assert payload["p_max"] == 20
        assert all(
            isinstance(v, int) for cls in payload["classes"] for v in cls["signature"]
        )

    def test_audit_single_exception(self, capsys):
        code, out, _ = _run(capsys, "audit", "--p-max", "42", "--format", "json")
        payload = json.loads(out)
        assert payload["kites_match"] is True
        assert len(payload["diagonal_exceptions"]) == 1
        assert payload["diagonal_exceptions"][0]["length"] == 5

    @pytest.mark.parametrize("command", ["search", "audit"])
    def test_workers_flag_does_not_change_output(self, capsys, command):
        argv = (command, "--p-max", "42", "--format", "json")
        code1, out1, _ = _run(capsys, *argv, "--workers", "1")
        code2, out2, _ = _run(capsys, *argv, "--workers", "2")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_audit_mismatch_exits_1(self, capsys, monkeypatch):
        _, expected_out, _ = _run(capsys, "audit", "--p-max", "42", "--format", "json")
        real = search.audit_theorems

        def missing_kite(p_max):
            report = real(p_max)
            return report._replace(
                kites_expected=report.kites_expected | {(1, 1, 1, 1, 2, 2)}
            )

        monkeypatch.setattr(search, "audit_theorems", missing_kite)
        code, out, err = _run(capsys, "audit", "--p-max", "42", "--format", "json")
        assert code == 1
        expected = json.loads(expected_out)
        expected["kites_expected"] = sorted(expected["kites_expected"] + [[1, 1, 1, 1, 2, 2]])
        expected["kites_match"] = False
        assert json.loads(out) == expected
        assert err == "equilat audit: failed cross-checks: kites\n"

    @pytest.mark.parametrize(
        "check, corrupt",
        [
            ("kite_audits", lambda r: {"kite_audits": r.kite_audits + ("equable",)}),
            ("trapezoids", lambda r: {"trapezoids_expected": r.trapezoids_expected - {
                min(r.trapezoids_expected)
            }}),
            ("cyclic", lambda r: {"cyclic_expected": r.cyclic_expected | {(1, 1, 1, 1, 2, 2)}}),
            ("diagonal_exceptions", lambda r: {"diagonal_exceptions_expected": ()}),
        ],
        ids=["kite_audits", "trapezoids", "cyclic", "diagonal_exceptions"],
    )
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_failed_cross_check_exits_1(self, capsys, monkeypatch, check, corrupt, fmt):
        # these expectations are not part of the output, so stdout stays as it is
        argv = ("audit", "--p-max", "42", "--format", fmt)
        _, expected_out, _ = _run(capsys, *argv)
        real = search.audit_theorems

        def corrupted(p_max):
            report = real(p_max)
            return report._replace(**corrupt(report))

        monkeypatch.setattr(search, "audit_theorems", corrupted)
        code, out, err = _run(capsys, *argv)
        assert code == 1 and out == expected_out
        assert err == f"equilat audit: failed cross-checks: {check}\n"

    def test_p_max_defaults_to_42(self, capsys):
        code, out, _ = _run(capsys, "search", "--format", "json")
        assert code == 0 and json.loads(out)["p_max"] == 42


class TestRender:
    @pytest.mark.parametrize(
        "figure",
        [
            "rhombus-pair",
            "kite-3-15",
            "trapezoid-20-4-15-3",
            "right-trapezoids",
            "isosceles-trapezoids",
            "k1-nested",
            "parallelogram-failure",
        ],
    )
    def test_valid_svg(self, capsys, figure):
        code, out, _ = _run(capsys, "render", "--figure", figure)
        assert code == 0
        root = ET.fromstring(out)
        assert root.tag.endswith("svg")
        assert f"--figure {figure}" in out  # command embedded for reproducibility

    def test_marks_failure_point(self, capsys):
        _, out, _ = _run(capsys, "render", "--figure", "parallelogram-failure")
        assert "-9/5, 12/5" in out

    def test_svg_only(self, capsys):
        assert run(["render", "--figure", "kite-3-15", "--format", "json"]) == 2


class TestOutFile:
    def test_out_redirects_data_only(self, capsys, tmp_path):
        target = tmp_path / "kites.json"
        code, out, _ = _run(
            capsys, "kites", "--family", "K3", "--count", "2", "--format", "json",
            "--out", str(target),
        )
        assert code == 0 and out == ""
        rows = json.loads(target.read_text())
        assert [tuple(r["B"]) for r in rows] == [(4, 4), (12, 12)]

    def test_unwritable_out_is_1(self, capsys, tmp_path):
        target = tmp_path / "missing" / "catalog.json"
        code, out, err = _run(
            capsys, "search", "--p-max", "16", "--format", "json", "--out", str(target),
        )
        assert code == 1 and out == ""
        assert err.startswith("equilat search: ") and len(err.splitlines()) == 1
        assert not target.exists()


# perfbench/run.py's LAUNCH: the benchmark runs each command as `python -c`
# with this code, and the console script calls the same cli.main.
LAUNCH = "from equilat.cli import main\nmain()"
DIGESTS = Path(__file__).parent / "data" / "cli_stdout_sha256.json"


def _equilat(*args, launch=LAUNCH, **kwargs):
    """Run `python -c launch args...` (or `python args...` with launch None)
    in a fresh interpreter, capturing its output as bytes unless kwargs say
    where it goes.  PYTHONUNBUFFERED is dropped, so whatever is still
    buffered when run returns is main's to flush."""
    env = {**os.environ, "PYTHONPATH": SRC}
    env.pop("PYTHONUNBUFFERED", None)
    argv = [sys.executable, *args] if launch is None else [sys.executable, "-c", launch, *args]
    return subprocess.run(argv, env=env, **(kwargs or {"capture_output": True}))


def _recorded_digest(argv) -> str:
    """The digest tests/data/cli_stdout_sha256.json records for argv's stdout:
    --workers does not change the output, and search and audit default to
    --p-max 42."""
    argv = list(argv)
    if "--workers" in argv:
        at = argv.index("--workers")
        del argv[at:at + 2]
    if argv[0] in ("search", "audit") and "--p-max" not in argv:
        argv[1:1] = ["--p-max", "42"]
    return json.loads(DIGESTS.read_text(encoding="utf-8"))[" ".join(argv)]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _closed_pipe():
    """The write end of a pipe whose read end is closed."""
    read, write = os.pipe()
    os.close(read)
    return write


class TestMain:
    """cli.main as a process: it flushes stdout and stderr and ends in
    os._exit(code), with no interpreter teardown."""

    @pytest.mark.parametrize("argv", BENCHMARK_ARGV, ids=" ".join)
    def test_benchmark_command(self, argv):
        done = _equilat(*argv)
        assert (done.returncode, done.stderr) == (0, b"")
        assert _sha256(done.stdout) == _recorded_digest(argv)

    def test_out_file(self, tmp_path):
        target = tmp_path / "catalog.json"
        done = _equilat("search", "--p-max", "200", "--format", "json", "--out", str(target))
        assert (done.returncode, done.stdout, done.stderr) == (0, b"", b"")
        recorded = _recorded_digest(("search", "--p-max", "200", "--format", "json"))
        assert _sha256(target.read_bytes()) == recorded

    @pytest.mark.parametrize("argv, code, lines", [
        (("frobnicate",), 2, 2),  # argparse's usage line and its error
        (("search", "--p-max", "1001"), 1, 1),
        (("search", "--pretty", "--format", "csv"), 2, 1),
    ], ids=["usage", "domain", "pretty"])
    def test_error_exit_codes(self, argv, code, lines):
        done = _equilat(*argv)
        assert (done.returncode, done.stdout) == (code, b"")
        assert len(done.stderr.splitlines()) == lines and b"Traceback" not in done.stderr

    def test_without_c_json_accelerator(self):
        # json.encoder falls back to its pure-Python encoder, and so does to_json
        launch = "import sys\nsys.modules['_json'] = None\n" + LAUNCH
        argv = ("search", "--p-max", "200", "--format", "json")
        done = _equilat(*argv, launch=launch)
        assert (done.returncode, done.stderr) == (0, b"")
        assert _sha256(done.stdout) == _recorded_digest(argv)

    def test_run_as_module(self):
        argv = ("pell", "--count", "40", "--format", "json")
        done = _equilat("-m", "equilat.cli", *argv, launch=None)
        assert (done.returncode, done.stderr) == (0, b"")
        assert _sha256(done.stdout) == _recorded_digest(argv)

    def test_no_atexit_handler_runs_after_main(self):
        register = "import atexit\natexit.register(print, 'atexit ran')\n"
        done = _equilat("pell", "--count", "2", launch=register + LAUNCH)
        assert done.returncode == 0 and b"atexit ran" not in done.stdout
        # the probe itself works: after run and a normal exit the handler runs
        done = _equilat("pell", "--count", "2",
                        launch=register + "import sys\nfrom equilat.cli import run\nsys.exit(run())")
        assert done.returncode == 0 and done.stdout.endswith(b"atexit ran\n")

    @pytest.mark.parametrize("argv, code", [
        (("pell", "--count", "2"), 0), (("--help",), 0), (("frobnicate",), 2),
        (("search", "--p-max", "7"), 1),
    ], ids=["success", "help", "usage", "domain"])
    def test_run_returns_and_never_exits(self, capsys, monkeypatch, argv, code):
        def exit_(status):
            raise AssertionError(f"run ended the process with {status}")

        monkeypatch.setattr(os, "_exit", exit_)
        try:
            assert run(list(argv)) == code
        except SystemExit as exc:
            pytest.fail(f"run raised SystemExit({exc.code})")

    def test_help_to_a_closed_pipe_is_1(self):
        # argparse's help waits in the buffer until main flushes it
        pipe = _closed_pipe()
        try:
            done = _equilat("--help", stdout=pipe, stderr=subprocess.PIPE)
        finally:
            os.close(pipe)
        assert (done.returncode, done.stderr) == (1, b"equilat: [Errno 32] Broken pipe\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_help_to_a_closed_pipe_with_stderr_full_is_1(self):
        # the line main cannot print does not turn into a traceback or exit 120
        pipe = _closed_pipe()
        try:
            with open("/dev/full", "wb") as full:
                done = _equilat("--help", stdout=pipe, stderr=full)
        finally:
            os.close(pipe)
        assert done.returncode == 1

    def test_data_to_a_closed_pipe_is_one_error(self):
        # run reports the failed write; main's flush fails again, silently
        pipe = _closed_pipe()
        try:
            done = _equilat("pell", "--count", "2", stdout=pipe, stderr=subprocess.PIPE)
        finally:
            os.close(pipe)
        assert (done.returncode, done.stderr) == (1, b"equilat pell: [Errno 32] Broken pipe\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_disk_is_1(self):
        with open("/dev/full", "wb") as full:
            done = _equilat("pell", "--count", "2", "--format", "json", stdout=full,
                            stderr=subprocess.PIPE)
        assert done.returncode == 1
        assert done.stderr == b"equilat pell: [Errno 28] No space left on device\n"

    def test_interrupt_in_main_flush_is_130(self):
        interrupted = (
            "import sys\n"
            "class Interrupted:\n"
            "    def write(self, text):\n"
            "        return len(text)\n"
            "    def flush(self):\n"
            "        raise KeyboardInterrupt\n"
            "sys.stdout = Interrupted()\n"
        )
        done = _equilat("--help", launch=interrupted + LAUNCH)
        assert (done.returncode, done.stderr) == (130, b"equilat: interrupted\n")
