"""Self-tests of the benchmark (not part of the package's test suite).

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

import checks
import run
import tracer
import workloads


def _run_traced(argv: tuple[str, ...], workdir: Path) -> tuple[list, dict]:
    spans_path = workdir / "spans.json"
    child = run.run_child(
        [sys.executable, str(run.BENCH_DIR / "traced_cli.py"), str(spans_path), "--", *argv],
        workdir,
        workdir / "stderr.txt",
    )
    assert child.code == 0, (workdir / "stderr.txt").read_text()
    data = json.loads(spans_path.read_text())
    return data["spans"], data["counters"]


def _assert_self_times_add_up(spans: list) -> None:
    commands = tracer.command_spans(spans)
    for command, modules in tracer.module_self_times(spans).items():
        assert sum(modules.values()) == pytest.approx(commands[command], abs=1e-9)


def test_sweep_row_and_moc_counts(tmp_path):
    # steps must be at least 2, so this is two grid(64) rows
    spans, counters = _run_traced(workloads.sweep("s", 0.3, 0.9, 2, grid=64).argv, tmp_path)
    metrics = tracer.layer_metrics(spans, counters)
    per_row = {"core.sweep_calls": 2, "core.points": 2 * 64 * 64, "core.blocks": 2,
               "core.mask_rows": 4 + 29, "models.outcome_calls": 16}
    assert {name: metrics[name] for name in per_row} == {k: 2 * v for k, v in per_row.items()}
    _assert_self_times_add_up(spans)

    spans, counters = _run_traced(workloads.mc_command("moc", "m", 1000, 7, theta=0.8).argv, tmp_path)
    metrics = tracer.layer_metrics(spans, counters)
    assert (metrics["core.sweep_calls"], metrics["core.points"], metrics["models.outcome_calls"],
            metrics["ordering.moc_measure_calls"]) == (10, 10_000, 40, 8)
    _assert_self_times_add_up(spans)


def test_traced_output_is_byte_identical(tmp_path):
    command = workloads.comm("c", 0.8, 3000, 5, log=True)
    traced, plain = tmp_path / "traced", tmp_path / "plain"
    traced.mkdir()
    plain.mkdir()
    spans, _ = _run_traced(command.argv, traced)
    assert run.run_child(run.program(*command.argv), plain, plain / "stderr.txt").code == 0
    for name in command.outputs:
        assert (traced / name).read_bytes() == (plain / name).read_bytes(), name
    stream = [s for s in spans if s[0] == "protocols.stream"]
    assert len(stream) == 3000 + 1  # the last __next__ raises StopIteration


def test_self_time_arithmetic():
    # name, start, end, parent, command; times are exact binary fractions
    spans = [
        ["cli.command", 0.0, 10.0, -1, 0],
        ["transition.full_report", 1.0, 6.0, 0, 0],
        ["core.sweep", 1.5, 5.5, 1, 0],
        ["core.masks", 2.0, 4.0, 2, 0],
        ["models.outcome", 2.5, 3.0, 3, 0],
        ["models.density", 4.5, 5.0, 2, 0],
        ["protocols.stream", 7.0, 8.0, 0, 0],
        ["cli.command", 20.0, 21.0, -1, 1],
    ]
    assert tracer.self_times(spans) == [4.0, 1.0, 1.5, 1.5, 0.5, 0.5, 1.0, 1.0]
    assert tracer.span_modules(spans)[3] == "transition"
    modules = tracer.module_self_times(spans)
    assert modules[0] == {"cli": 4.0, "core": 1.5, "models": 1.0, "transition": 2.5,
                          "inequalities": 0.0, "ordering": 0.0, "protocols": 1.0}
    assert sum(modules[0].values()) == tracer.command_spans(spans)[0] == 10.0
    metrics = tracer.layer_metrics(spans, {"core.points": 7})
    assert (metrics["core.self_s"], metrics["transition.classify_s"], metrics["transition.report_s"],
            metrics["cli.self_s"], metrics["cli.commands"], metrics["core.points"]) == (1.5, 1.5, 5.0, 5.0, 2, 7)


def test_self_time_clips_overlapping_children():
    spans = [
        ["cli.command", 0.0, 4.0, -1, 0],
        ["protocols.stream", 1.0, 2.0, 0, 0],
        ["protocols.stream", 1.5, 2.5, 0, 0],
        ["protocols.stream", 3.5, 5.0, 0, 0],
    ]
    assert tracer.self_times(spans)[0] == 4.0 - 1.5 - 0.5


def _bench_once(commands, workdir, monkeypatch, corrupt=None):
    """One checked pass; ``corrupt(workdir)`` edits the outputs before the check."""
    if corrupt is not None:
        real_run_pass = run.run_pass

        def run_pass_then_corrupt(*args, **kwargs):
            result = real_run_pass(*args, **kwargs)
            corrupt(workdir)
            return result

        monkeypatch.setattr(run, "run_pass", run_pass_then_corrupt)
    bench = run.Bench(commands, workdir)
    bench.run(traced=False)
    return bench


def _edit_csv_cell(path: Path, row: int, column: str, change) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row + 1].split(",")
    index = header.index(column)
    cells[index] = change(cells[index])
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_checker_passes_clean_and_flags_perturbed_sigma_minus(tmp_path, monkeypatch):
    commands = [workloads.sweep("s", 0.2, 2.9, 3, grid=64)]
    clean = _bench_once(commands, tmp_path, monkeypatch)
    assert (clean.failed, clean.errors) == (0, [])
    assert 0.0 < clean.values["sigma_minus_err"] < 1.0 / 64

    bad = _bench_once(commands, tmp_path, monkeypatch, lambda d: _edit_csv_cell(
        d / "s.csv", 1, "sigma_minus", lambda v: repr(float(v) + 0.05)))
    assert bad.failed / bad.attempted > 0.0
    assert any("sigma_minus" in error for error in bad.errors)


def test_checker_flags_wrong_bits_in_log(tmp_path, monkeypatch):
    commands = [workloads.comm("c", 0.8, 2000, 3, log=True)]
    assert _bench_once(commands, tmp_path, monkeypatch).failed == 0
    bad = _bench_once(commands, tmp_path, monkeypatch, lambda d: _edit_csv_cell(
        d / "c_log.csv", 5, "bits", lambda v: str(1 - int(v))))
    assert bad.failed == 1 and "log row 6" in bad.errors[0]


def test_checker_accepts_small_mc_mix(tmp_path, monkeypatch):
    theta, q, seed = 0.7, 0.8, 11
    commands = [
        workloads.mc_command("stats", "stats", 50_000, seed, theta=theta, q=q),
        workloads.mc_command("transition", "transition", 50_000, seed, theta=theta, q=q),
        workloads.mc_command("signal", "signal", 50_000, seed, q=q, a1=0.3, a2=2.0, b=1.0),
        workloads.mc_command("moc", "moc", 50_000, seed, theta=theta),
        workloads.comm("comm", theta, 50_000, seed, log=False),
    ]
    bench = _bench_once(commands, tmp_path, monkeypatch)
    assert (bench.failed, bench.errors) == (0, [])


def test_checker_flags_wrong_moc_bound(tmp_path, monkeypatch):
    commands = [workloads.mc_command("moc", "moc", 20_000, 3, theta=0.8)]
    bad = _bench_once(commands, tmp_path, monkeypatch, lambda d: _edit_csv_cell(
        d / "moc.csv", 0, "quantum_required", lambda v: repr(float(v) + 1e-6)))
    assert bad.failed == 1


def test_region_bits_table():
    assert len(checks.REGION_SETS) == 16
    assert len(set(checks.REGION_SETS.values())) == 16
    assert checks.REGION_BITS["none"] == 0 and checks.REGION_BITS["F"] == 2
    assert checks.REGION_BITS["T6"] == 1  # bob@b' alone: Alice's setting travels


def test_benchmark_json_matches_tables():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _, _) in tracer.PER_LAYER.items()
    }


@pytest.mark.parametrize("workload", sorted(workloads.WHY))
def test_workloads_are_seeded(workload):
    assert workloads.build(workload, 3) == workloads.build(workload, 3)
    assert workloads.build(workload, 3) != workloads.build(workload, 4)
