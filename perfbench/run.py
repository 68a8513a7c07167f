"""Benchmark of the equilat command-line tool.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of an equilat checkout.  A workload is a fixed list of
equilat commands.  One pass runs each command once, as a fresh subprocess,
in an order drawn from the seed.  Passes repeat in a closed loop (one client,
one command in flight) until --seconds have passed.  With --trace 0 the run
reports end-to-end metrics; with --trace 1 it alternates untraced passes with
passes whose commands run under trace_shim.py, and reports per-layer metrics
and the tracing overhead.  The last line of stdout is one JSON object; the
exit code is 1 when any command failed and 2 when there is no equilat source
to run.  See README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SHIM = HERE / "trace_shim.py"
LAUNCH = "from equilat.cli import main\nmain()"
COMMAND_TIMEOUT_S = 120.0
SETUP_SAMPLES = 10
# The calibration command: a fresh interpreter importing a fixed set of
# standard-library modules.  It runs no equilat code, so its time follows only
# the speed of the machine, which on a shared host drifts by a third over
# minutes.  It runs about twice per second of measured time.
CALIBRATION = "import argparse, csv, dataclasses, enum, fractions, json, typing, xml.etree.ElementTree"
CALIBRATION_REF_S = 0.07
CALIBRATION_EVERY_S = 0.5
FANOUT_WORKERS = 2
MODULES = ("cli", "search", "geometry", "trapezoids", "cyclic", "kites", "pell", "render")

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}
LAYER_UNITS = {
    "search.enumerate_leqs.self_s": "s",
    "search.integer_norm_vectors.s": "s",
    "search.vectors": "count",
    "search.canonical_signature.calls": "count",
    "search.classes": "count",
    "search.dedup_ratio": "frac",
    "search.get_catalog.s": "s",
    "search.get_catalog.calls": "count",
    "search.audit_theorems.s": "s",
    "geometry.classify.s": "s",
    "geometry.interior_diagonals.s": "s",
    "trapezoids.enumerate_perimeter_dominant.s": "s",
    "trapezoids.lattice_embedding.s": "s",
    "trapezoids.triangles": "count",
    "cyclic.solutions.s": "s",
    "cyclic.realizable_orderings.s": "s",
    "kites.generate.s": "s",
    "pell.solutions.s": "s",
    "render.render_figure.s": "s",
    "cli.run.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "cli.import_s": "s",
    **{f"{module}.errors": "count" for module in MODULES},
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.unobserved_workers": "count",
}


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]
    check: Callable[[bytes], None]
    workers: int = 1


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def workloads(cpus: int) -> dict[str, tuple[Command, ...]]:
    """The commands of each workload; why each was chosen is in README.md."""
    fanout = min(FANOUT_WORKERS, cpus)
    return {
        "search_cap": (
            Command(("search", "--p-max", "200", "--format", "json"), checks.search_catalog(200)),
        ),
        "search_fanout": (
            Command(
                ("audit", "--p-max", "200", "--workers", str(fanout), "--format", "json"),
                checks.audit_report(200, kites=9),
                workers=fanout,
            ),
        ),
        "classify_suite": (
            Command(("pell", "--count", "40", "--format", "json"), checks.pell_streams(40)),
            Command(("kites", "--count", "12", "--format", "json"), checks.kite_members(12)),
            Command(("trapezoids", "--format", "json"), checks.trapezoid_list),
            Command(("cyclic", "--format", "json"), checks.cyclic_classes),
            Command(("search", "--format", "json"), checks.search_catalog(42)),
            Command(("audit", "--format", "json"), checks.audit_report(42, kites=4)),
            Command(("render", "--figure", "k1-nested"), checks.svg_document),
        ),
    }


# ---------------------------------------------------------------- running commands


@dataclass
class Outcome:
    args: tuple[str, ...]
    wall_s: float
    cpu_s: float  # user + sys of the command and every child it reaped
    maxrss_kb: int
    stdout_bytes: int
    error: str | None  # None when the command exited 0 and its output passed the check
    trace: dict | None = None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("EQUILAT_PMAX_DEFAULT", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_command(
    argv: list[str],
    check: Callable[[bytes], None],
    env: dict[str, str],
    timeout: float = COMMAND_TIMEOUT_S,
    trace_path: Path | None = None,
) -> Outcome:
    """Run argv to completion in its own process group and check its stdout.

    Resource usage comes from wait4, so it covers the pool workers the command
    reaped.  On timeout the whole group is killed.  Anything left in the group
    when the command exits is killed before the command is reaped, while its
    unreaped leader still holds the group id."""
    timed_out = threading.Event()

    def expire(pgid: int) -> None:
        timed_out.set()
        _kill_group(pgid)

    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT, start_new_session=True)
        timer = threading.Timer(timeout, expire, (proc.pid,))
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            timer.join()
            _kill_group(proc.pid)
            _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read()
        err.seek(0)
        stderr = err.read().decode(errors="replace").strip()

    trace = None
    if trace_path is not None and trace_path.exists():
        try:
            trace = json.loads(trace_path.read_text())
        except ValueError:
            pass  # cut short: counted as no trace below
        trace_path.unlink()
    error = None
    if timed_out.is_set():
        error = f"timed out after {timeout:g} s"
    elif proc.returncode != 0:
        error = f"exit code {proc.returncode}: {stderr[-300:]}"
    elif trace_path is not None and trace is None:
        error = "no trace written"
    else:
        try:
            check(stdout)
        except Exception as exc:  # any failure to read the output is a wrong output
            error = f"output check failed: {type(exc).__name__}: {exc}"
    return Outcome(
        args=tuple(argv),
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
        stdout_bytes=len(stdout),
        error=error,
        trace=trace,
    )


def equilat_argv(command: Command, trace_path: Path | None) -> list[str]:
    if trace_path is None:
        return [sys.executable, "-c", LAUNCH, *command.args]
    return [sys.executable, str(SHIM), str(trace_path), *command.args]


class Calibration:
    """Wall times of the calibration command, taken between measured commands."""

    def __init__(self, env: dict[str, str]) -> None:
        self.env = env
        self.samples: list[float] = []

    def run(self, count: int = 1) -> None:
        for _ in range(count):
            o = run_command([sys.executable, "-c", CALIBRATION], lambda _: None, self.env)
            if o.error:
                raise RuntimeError(f"calibration command failed: {o.error}")
            self.samples.append(o.wall_s)

    def scale(self) -> float:
        """Factor that turns seconds measured here into reference seconds."""
        return CALIBRATION_REF_S / statistics.fmean(self.samples)


@dataclass
class Pass:
    traced: bool
    outcomes: list[Outcome]

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)


def run_pass(
    commands: tuple[Command, ...],
    rng: random.Random,
    env: dict[str, str],
    traced: bool = False,
    calibration: Calibration | None = None,
    argv_for: Callable[[Command, Path | None], list[str]] = equilat_argv,
) -> Pass:
    """Run every command once, one at a time, in an order drawn from rng."""
    order = list(commands)
    rng.shuffle(order)
    outcomes = []
    for i, command in enumerate(order):
        trace_path = OUT / f"trace-{os.getpid()}-{i}.json" if traced else None
        outcome = run_command(argv_for(command, trace_path), command.check, env, trace_path=trace_path)
        outcome.args = command.args
        outcomes.append(outcome)
        if calibration is not None:
            calibration.run(max(1, math.ceil(outcome.wall_s / CALIBRATION_EVERY_S)))
    return Pass(traced, outcomes)


def check_import(env: dict[str, str]) -> Outcome:
    """One untimed import of equilat.cli that checks the package comes from
    this checkout; it also leaves the bytecode cache filled."""

    def from_checkout(stdout: bytes) -> None:
        path = Path(stdout.decode().strip()).resolve()
        if SRC not in path.parents:
            raise checks.CheckFailed(f"equilat.cli was imported from {path}, not {SRC}")

    where = "import equilat.cli\nprint(equilat.cli.__file__)"
    return run_command([sys.executable, "-c", where], from_checkout, env)


def measure_setup(env: dict[str, str], calibration: Calibration) -> list[Outcome]:
    """Time fresh interpreters importing equilat.cli, each after one
    calibration run."""
    timed = []
    for _ in range(SETUP_SAMPLES):
        calibration.run()
        timed.append(run_command([sys.executable, "-c", "import equilat.cli"], lambda _: None, env))
    return timed


# ---------------------------------------------------------------- metrics


def summarize_spans(spans: list[list]) -> dict[str, float]:
    """Per span name: `.s` (time inside the outermost spans of that name),
    `.self_s` (time not covered by child spans) and `.calls`."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, float] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        duration = end - start
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + duration - child_time[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + duration
    return out


def layer_metrics(p: Pass, workers: dict[tuple[str, ...], int]) -> dict[str, float]:
    """Per-layer totals over one traced pass."""
    totals = dict.fromkeys(LAYER_UNITS, 0.0)
    imports = []
    for o in p.outcomes:
        totals["cli.stdout_bytes"] += o.stdout_bytes
        if workers[o.args] > 1:
            totals["trace.unobserved_workers"] += workers[o.args]
        if o.trace is None:
            totals["cli.errors"] += 1
            continue
        imports.append(o.trace["import_s"])
        totals["trace.spans"] += len(o.trace["spans"])
        for name, value in [*summarize_spans(o.trace["spans"]).items(), *o.trace["counts"].items()]:
            if name in totals:
                totals[name] += value
    hits = totals["search.canonical_signature.calls"]
    totals["search.dedup_ratio"] = totals["search.classes"] / hits if hits else 0.0
    totals["cli.import_s"] = statistics.median(imports) if imports else 0.0
    return totals


def e2e_samples(passes: list[Pass], setup: list[Outcome], outcomes: list[Outcome]) -> dict[str, list[float]]:
    """Raw samples of each end-to-end metric; `outcomes` is every command run."""
    return {
        "wall_s": [p.wall_s for p in passes],
        "cpu_s": [sum(o.cpu_s for o in p.outcomes) for p in passes],
        "setup_s": [o.wall_s for o in setup],
        "peak_rss_mb": [max(o.maxrss_kb for o in p.outcomes) / 1024 for p in passes],
        "ok_frac": [float(o.error is None) for o in outcomes],
    }


def e2e_metrics(samples: dict[str, list[float]], pass_scale: float, setup_scale: float) -> dict[str, float]:
    """Times are means scaled to reference seconds: a mean over the run,
    divided by the calibration mean over the same span, cancels the machine's
    slow spells, which medians of the two would weigh differently."""
    return {
        "wall_s": statistics.fmean(samples["wall_s"]) * pass_scale,
        "cpu_s": statistics.fmean(samples["cpu_s"]) * pass_scale,
        "setup_s": statistics.fmean(samples["setup_s"]) * setup_scale,
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        "ok_frac": statistics.fmean(samples["ok_frac"]),
    }


# ---------------------------------------------------------------- environment


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(load_start: tuple[float, ...]) -> dict:
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }


# ---------------------------------------------------------------- main


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str, list[float]]]  # name -> (value, unit, samples)
    errors: list[str]
    notes: list[str]


def measure(
    name: str,
    commands: tuple[Command, ...],
    seed: int,
    seconds: float,
    traced: bool,
    argv_for: Callable[[Command, Path | None], list[str]] = equilat_argv,
) -> Result:
    env = child_env()
    rng = random.Random(seed)
    setup = [check_import(env)]
    setup_calibration = pass_calibration = None
    if not traced:
        setup_calibration = Calibration(env)
        setup += measure_setup(env, setup_calibration)
        pass_calibration = Calibration(env)
        pass_calibration.run()
    passes: list[Pass] = []
    start = time.perf_counter()
    # Traced runs alternate untraced and traced passes, untraced first.
    while len(passes) < 1 + traced or time.perf_counter() - start < seconds:
        is_traced = traced and len(passes) % 2 == 1
        passes.append(run_pass(commands, rng, env, is_traced, pass_calibration, argv_for))

    outcomes = setup + [o for p in passes for o in p.outcomes]
    errors = [f"{' '.join(o.args[-6:])}: {o.error}" for o in outcomes if o.error]
    metrics: dict[str, tuple[float, str, list[float]]] = {}
    notes = []
    if traced:
        workers = {c.args: c.workers for c in commands}
        traced_passes = [p for p in passes if p.traced]
        per_pass = [layer_metrics(p, workers) for p in traced_passes]
        for metric, unit in LAYER_UNITS.items():
            values = [m[metric] for m in per_pass]
            metrics[metric] = (statistics.median(values), unit, values)
        overhead = statistics.median(p.wall_s for p in traced_passes) - statistics.median(
            p.wall_s for p in passes if not p.traced
        )
        metrics["trace.overhead_s"] = (overhead, "s", [overhead])
        notes.append(
            f"tracing overhead {overhead:.6g} s per pass: median of {len(traced_passes)} traced "
            f"minus median of {len(passes) - len(traced_passes)} untraced passes"
        )
        unobserved = metrics["trace.unobserved_workers"][0]
        if unobserved:
            notes.append(f"{unobserved:g} pool workers per pass went unobserved: their spans are never collected")
        notes.append(f"spans written to {_write_spans(name, seed, traced_passes)}")
    else:
        samples = e2e_samples(passes, setup[1:], outcomes)
        values = e2e_metrics(samples, pass_calibration.scale(), setup_calibration.scale())
        for metric, value in values.items():
            metrics[metric] = (value, E2E_UNITS[metric], samples[metric])
        for where, cal in (("passes", pass_calibration), ("imports", setup_calibration)):
            notes.append(
                f"calibration between {where}: mean {statistics.fmean(cal.samples):.6g} s, "
                f"n={len(cal.samples)}, scale {cal.scale():.6g} to reference {CALIBRATION_REF_S} s"
            )
    return Result(len(outcomes), len(errors), metrics, errors, notes)


def _write_spans(name: str, seed: int, traced_passes: list[Pass]) -> Path:
    commands, spans = [], []
    for p in traced_passes:
        for o in p.outcomes:
            command_id = len(commands)
            commands.append(list(o.args))
            for span_name, start, end, parent in (o.trace or {}).get("spans", []):
                spans.append([command_id, span_name, start, end, parent])
    path = OUT / f"spans-{name}-seed{seed}.json"
    path.write_text(json.dumps({"commands": commands, "spans": spans}))
    return path


def report(name: str, result: Result) -> None:
    for error in result.errors:
        print(f"{name}: FAILED {error}")
    for note in result.notes:
        print(f"{name}  {note}")
    for metric, (value, unit, samples) in result.metrics.items():
        print(f"{name}  {metric:<44} {value:>14.6g} {unit:<6} n={len(samples):<3} "
              f"raw median {statistics.median(samples):.6g} range {min(samples):.6g}..{max(samples):.6g}")
    if "ok_frac" in result.metrics:
        print(f"{name}  {'failed_frac':<44} {result.failed / result.attempted:>14.6g} frac   "
              f"n={result.attempted}")


def main(argv: list[str] | None = None) -> int:
    cpus = nproc()
    specs = workloads(cpus)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*specs, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "equilat" / "cli.py").is_file():
        print(f"perfbench: no equilat source at {SRC / 'equilat'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    load_start = os.getloadavg()
    names = list(specs) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = measure(name, specs[name], args.seed, args.seconds, bool(args.trace))
        report(name, results[name])
    print("env " + json.dumps(environment(load_start), sort_keys=True))

    attempted = sum(r.attempted for r in results.values())
    failed = sum(r.failed for r in results.values())
    prefix = len(names) > 1
    metrics = {
        (f"{name}.{metric}" if prefix else metric): {"value": value, "unit": unit}
        for name, r in results.items()
        for metric, (value, unit, _) in r.metrics.items()
    }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
