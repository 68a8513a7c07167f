import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import equilat
from equilat import kites, render, search
from equilat.cli import run, to_json

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


def _loaded_after_cli_import(names) -> set[str]:
    """Which of these modules a fresh interpreter has loaded after
    `import equilat.cli`."""
    probe = "import sys, equilat.cli; print(*set(sys.argv[1:]) & set(sys.modules))"
    done = _python("-c", probe, *names)
    done.check_returncode()
    return set(done.stdout.split())


# Executes every equilat module cli registers (vars() is an attribute read), so
# that the top-level imports of all of them are on sys.modules, as at startup
# of whichever command uses them.
_ALL_EXECUTED_PROBE = """\
import sys, equilat.cli
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

    def test_import_loads_every_traced_module(self):
        # perfbench/trace_shim.py finds the modules it wraps in sys.modules
        traced = [f"equilat.{m}" for m in (
            "cli", "search", "geometry", "trapezoids", "cyclic", "kites", "pell", "render"
        )]
        assert _loaded_after_cli_import(traced) == set(traced)

    @pytest.mark.parametrize(
        "argv, modules",
        [
            (("pell",), {"pell"}),
            (("kites",), {"kites", "pell", "geometry"}),
            (("search",), {"search", "geometry"}),
            (("trapezoids",), {"trapezoids", "figures", "geometry"}),
            (("cyclic",), {"cyclic", "figures", "geometry"}),
            (("render", "--figure", "k1-nested"), {"render", "figures", "geometry"}),
            (("audit",), {"search", "geometry", "figures", "kites", "pell", "trapezoids",
                          "cyclic"}),
        ],
        ids=["pell", "kites", "search", "trapezoids", "cyclic", "render", "audit"],
    )
    def test_command_executes_only_the_modules_it_uses(self, argv, modules):
        done = _python("-c", _EXECUTED_PROBE, *argv)
        code, *executed = done.stdout.split()
        assert (code, done.stderr) == ("0", "")
        assert set(executed) == {f"equilat.{m}" for m in {"cli", "errors", *modules}}


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
        ],
        ids=["search", "audit", "pell"],
    )
    def test_explicit_zero_is_validated(self, capsys, argv, field):
        code, out, err = _run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"equilat {argv[0]}: ") and field in err
        assert len(err.splitlines()) == 1

    def test_interrupt_is_130(self, capsys, monkeypatch):
        def interrupted(p_max):
            raise KeyboardInterrupt

        monkeypatch.setattr(search, "enumerate_leqs", interrupted)
        code, out, err = _run(capsys, "search", "--p-max", "1000")
        assert code == 130 and out == ""
        assert err == "equilat search: interrupted\n"

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
            ("kite_audits", lambda r: {
                "kite_audits": r.kite_audits + (kites.AuditOutcome(False, "equable"),)
            }),
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
