"""The eprb-lab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is run from ``src/``
without installing it.  Workloads are listed in ``workloads.py``.

Every pass runs the workload's command list as child processes, one at a
time (a closed loop with one client), for ``--seconds`` seconds.  The first
pass's outputs are checked against closed forms (``checks.py``); every later
pass, traced or not, must write the same bytes.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: median wall time of ``eprb-lab --version`` (start Python,
  import the package, build the parser), one child before each pass;
* ``wall_s``: median wall time of one pass;
* ``peak_rss_mb``: median over passes of the largest ``ru_maxrss`` among the
  pass's children, from ``os.wait4`` per child.

``--trace 1`` alternates untraced passes with traced ones, where each
command runs under ``traced_cli.py``, and reports the per-layer metrics of
``tracer.PER_LAYER`` (medians over traced passes), with ``trace.overhead_s``
the traced minus the untraced median pass time.

The last line of standard output is the result; the line before it records
the environment, the commands and the sizes.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE = ROOT / "src"
WORK = ROOT / ".bench_work"

#: End-to-end metrics: name -> unit.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
CHILD_TIMEOUT_S = 120.0
SELF_TIME_TOLERANCE_S = 1e-6


class BenchError(RuntimeError):
    """The program could not be run at all; no result is printed."""


@dataclass
class Child:
    wall_s: float
    rss_mb: float
    cpu_s: float
    code: int


def run_child(argv: list[str], cwd: Path, stderr_path: Path) -> Child:
    """Run one child to completion; rusage comes from ``os.wait4`` on its pid."""
    # bytecode caching on, whatever the caller's environment, as in an installed package
    env = {name: value for name, value in os.environ.items() if name != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SOURCE)
    with open(stderr_path, "wb") as stderr:
        start = time.perf_counter()
        process = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                   stdout=subprocess.DEVNULL, stderr=stderr)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, process.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            process.kill()
            process.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, process.returncode)


def program(*args: str) -> list[str]:
    return [sys.executable, "-m", "eprb_lab.cli", *args]


@dataclass
class Pass:
    wall_s: float
    peak_rss_mb: float
    cpu_s: float
    codes: list[int]
    spans: list[list] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)


def run_pass(commands: list[workloads.Command], workdir: Path, traced: bool) -> Pass:
    children = []
    spans: list[list] = []
    counters: dict[str, int] = {}
    start = time.perf_counter()
    for i, command in enumerate(commands):
        if traced:
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), f"spans{i}.json", "--", *command.argv]
        else:
            argv = program(*command.argv)
        children.append(run_child(argv, workdir, workdir / f"stderr{i}.txt"))
    wall = time.perf_counter() - start
    if traced:
        for i, child in enumerate(children):
            spans_path = workdir / f"spans{i}.json"
            if child.code != 0 or not spans_path.is_file():
                continue
            data = json.loads(spans_path.read_text(encoding="utf-8"))
            for span in data["spans"]:  # one command per child: renumber
                span[3] = span[3] + len(spans) if span[3] >= 0 else -1
                span[4] = i
            spans.extend(data["spans"])
            for name, value in data["counters"].items():
                counters[name] = counters.get(name, 0) + value
            spans_path.unlink()
    return Pass(wall, max(c.rss_mb for c in children), sum(c.cpu_s for c in children),
                [c.code for c in children], spans, counters)


def digest(workdir: Path, names: list[str]) -> dict[str, str]:
    return {
        name: hashlib.sha256((workdir / name).read_bytes()).hexdigest() if (workdir / name).is_file() else ""
        for name in names
    }


def environment(workload: str, seed: int, commands: list[workloads.Command]) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = result.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SOURCE / "eprb_lab").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "workload": workload,
        "why": workloads.WHY[workload],
        "seed": seed,
        "commands": [["eprb-lab", *c.argv] for c in commands],
        "sizes": {
            "sweep_steps": workloads.SWEEP_STEPS,
            "log_runs": workloads.LOG_RUNS,
            "mc_samples": workloads.MC_SAMPLES,
            "mc_runs": workloads.MC_RUNS,
        },
    }


class Bench:
    """One benchmark run: passes over one workload's commands, with checks."""

    def __init__(self, commands: list[workloads.Command], workdir: Path):
        self.commands = commands
        self.workdir = workdir
        self.outputs = [name for command in self.commands for name in command.outputs]
        self.reference: dict[str, str] | None = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.values: dict[str, float] = {}
        self.self_time_gap_s = 0.0

    def run(self, traced: bool) -> Pass:
        for name in self.outputs:
            (self.workdir / name).unlink(missing_ok=True)
        result = run_pass(self.commands, self.workdir, traced)
        self.attempted += len(self.commands)
        hashes = digest(self.workdir, self.outputs)
        first = self.reference is None
        if first:
            self.reference = hashes
        # a traced command's module self times must add up to its span
        gaps = {command: 0.0 for command in range(len(self.commands))}
        spans = tracer.command_spans(result.spans)
        for command, modules in tracer.module_self_times(result.spans).items():
            gaps[command] = abs(sum(modules.values()) - spans[command])
        self.self_time_gap_s = max(self.self_time_gap_s, *gaps.values())
        for i, (command, code) in enumerate(zip(self.commands, result.codes)):
            if code != 0:
                stderr = (self.workdir / f"stderr{i}.txt").read_text(encoding="utf-8", errors="replace")
                problems = [f"{command.kind}: exit code {code}: {stderr.strip()[-500:]}"]
            elif first:
                problems, values = checks.check(command, self.workdir)
                self.values.update(values)
            else:
                changed = [name for name in command.outputs if hashes[name] != self.reference[name]]
                problems = [f"{command.kind}: output differs from the first pass: {changed}"] if changed else []
            if gaps[i] > SELF_TIME_TOLERANCE_S:
                problems.append(f"{command.kind}: module self times miss the command span by {gaps[i]} s")
            if problems:
                self.failed += 1
                self.errors.extend(problems)
        return result


def setup_time(workdir: Path) -> float:
    """Wall time of one ``eprb-lab --version`` child."""
    child = run_child(program("--version"), workdir, workdir / "setup_stderr.txt")
    if child.code != 0:
        message = (workdir / "setup_stderr.txt").read_text(encoding="utf-8", errors="replace")
        raise BenchError(f"eprb-lab --version exited {child.code}: {message.strip()[-500:]}")
    return child.wall_s


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SOURCE / "eprb_lab" / "cli.py").is_file():
        raise BenchError(f"no eprb_lab sources under {SOURCE}; run from the root of a checkout")
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload}-{os.getpid()}"
    workdir.mkdir()
    try:
        setup_time(workdir)  # fails early if the program cannot start; fills the bytecode cache
        bench = Bench(workloads.build(workload, seed), workdir)
        setup: list[float] = []
        plain: list[Pass] = []
        traced: list[Pass] = []
        deadline = time.perf_counter() + seconds
        while True:
            # set-up samples are spread over the run, like the passes, so that
            # both see the same machine conditions
            if not trace:
                setup.append(setup_time(workdir))
            plain.append(bench.run(traced=False))
            if trace:
                traced.append(bench.run(traced=True))
            if time.perf_counter() >= deadline:
                break
        bytes_out = sum((workdir / name).stat().st_size for name in bench.outputs if (workdir / name).is_file())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = environment(workload, seed, bench.commands)
    record["passes"] = {"untraced": len(plain), "traced": len(traced), "setup_samples": len(setup)}
    record["errors"] = bench.errors[:20]
    median, median_low = statistics.median, statistics.median_low
    if trace:
        per_pass = [tracer.layer_metrics(p.spans, p.counters) for p in traced]
        # counts repeat exactly across passes; median_low keeps them whole numbers
        metrics = {
            name: (median_low if isinstance(per_pass[0][name], int) else median)([m[name] for m in per_pass])
            for name in per_pass[0]
        }
        record["self_time_max_gap_s"] = bench.self_time_gap_s
        metrics["cli.bytes_out"] = bytes_out
        metrics["run.cpu_s"] = median(p.cpu_s for p in plain)
        metrics["trace.overhead_s"] = median(p.wall_s for p in traced) - median(p.wall_s for p in plain)
        metrics["sigma_minus_err"] = bench.values.get("sigma_minus_err", 0.0)
        metrics["error_rate"] = bench.failed / bench.attempted
        units = {name: spec[0] for name, spec in tracer.PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": median(setup),
            "wall_s": median(p.wall_s for p in plain),
            "peak_rss_mb": median(p.peak_rss_mb for p in plain),
        }
        units = END_TO_END
    record["pass_wall_s"] = [p.wall_s for p in plain]
    return {
        "record": record,
        "result": {
            "correct": bench.failed == 0,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so that a running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for error in outcome["record"]["errors"]:
        print(f"bench: {error}", file=sys.stderr)
    print(json.dumps(outcome["record"]))
    print(json.dumps(outcome["result"]))
    return 0 if outcome["result"]["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
