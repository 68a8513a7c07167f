"""Tests of the benchmark harness itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import random
import sys
import unittest
from math import isqrt
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402


def program(stdout: str, exit_code: int = 0) -> str:
    """Python source that prints stdout and exits with exit_code."""
    return f"import sys\nsys.stdout.write({stdout!r})\nsys.exit({exit_code})"


def catalog_json(p_max: int, drop: int = 0) -> str:
    sigs = sorted(checks.EXPECTED_SIGNATURES[p_max])[drop:]
    classes = [{"signature": list(s), "perimeter": sum(isqrt(v) for v in s[:4])} for s in sigs]
    return json.dumps({"p_max": p_max, "classes": classes})


def run_python(source: str, check, timeout: float = 30.0) -> run.Outcome:
    return run.run_command([sys.executable, "-c", source], check, run.child_env(), timeout=timeout)


def setUpModule() -> None:
    run.OUT.mkdir(exist_ok=True)


class FailureCounting(unittest.TestCase):
    def test_correct_output_passes(self):
        outcome = run_python(program(catalog_json(42)), checks.search_catalog(42))
        self.assertIsNone(outcome.error)

    def test_tampered_output_fails(self):
        outcome = run_python(program(catalog_json(42, drop=1)), checks.search_catalog(42))
        self.assertIn("output check failed", outcome.error)

    def test_output_that_is_not_json_fails(self):
        outcome = run_python(program("Traceback (most recent call last):\n"), checks.cyclic_classes)
        self.assertIn("output check failed", outcome.error)

    def test_nonzero_exit_fails_even_with_correct_output(self):
        outcome = run_python(program(catalog_json(42), exit_code=3), checks.search_catalog(42))
        self.assertIn("exit code 3", outcome.error)

    def test_timeout_kills_and_fails(self):
        outcome = run_python("import time\ntime.sleep(60)", lambda _: None, timeout=0.5)
        self.assertIn("timed out", outcome.error)
        self.assertLess(outcome.wall_s, 10)

    def test_failed_commands_are_counted(self):
        commands = (
            run.Command((program(catalog_json(42)),), checks.search_catalog(42)),
            run.Command((program(catalog_json(42, drop=1)),), checks.search_catalog(42)),
            run.Command((program(catalog_json(42), exit_code=1),), checks.search_catalog(42)),
        )
        result = run.measure(
            "fake", commands, seed=0, seconds=0, traced=False,
            argv_for=lambda c, _: [sys.executable, "-c", *c.args],
        )
        # one pass of three commands, plus the import check and timed imports
        self.assertEqual(result.attempted, 3 + 1 + run.SETUP_SAMPLES)
        self.assertEqual(result.failed, 2)
        self.assertAlmostEqual(result.metrics["ok_frac"][0], 1 - 2 / result.attempted)


class Concurrency(unittest.TestCase):
    def test_one_command_in_flight(self):
        stamp = "import time\na = time.monotonic()\ntime.sleep(0.05)\nprint(a, time.monotonic())"
        stamps = []
        commands = tuple(
            run.Command((stamp,), lambda out: stamps.append(tuple(map(float, out.split()))))
            for _ in range(6)
        )
        p = run.run_pass(
            commands, random.Random(0), run.child_env(),
            argv_for=lambda c, _: [sys.executable, "-c", *c.args],
        )
        self.assertEqual([o.error for o in p.outcomes], [None] * 6)
        stamps.sort()
        for (_, end), (start, _) in zip(stamps, stamps[1:]):
            self.assertLessEqual(end, start)

    def test_workers_never_exceed_nproc(self):
        for cpus in (1, 2, run.nproc()):
            for commands in run.workloads(cpus).values():
                for c in commands:
                    self.assertLessEqual(c.workers, cpus)
                    if "--workers" in c.args:
                        self.assertEqual(int(c.args[c.args.index("--workers") + 1]), c.workers)


class Spans(unittest.TestCase):
    def test_self_time_and_nested_calls(self):
        spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["a", 5.0, 7.0, 0]]
        got = run.summarize_spans(spans)
        self.assertEqual(got["a.s"], 10.0)  # the nested call is inside the outer one
        self.assertEqual(got["a.self_s"], 5.0 + 2.0)
        self.assertEqual(got["a.calls"], 2)
        self.assertEqual(got["b.self_s"], 3.0)


if __name__ == "__main__":
    unittest.main()
