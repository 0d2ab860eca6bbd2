"""Output checker: every command's files against closed forms.

On the ``theta`` chain (a = 3T, a' = T, b = 2T, b' = 0) of the singlet model
the product in context i is -1 exactly when v < (1 + cos theta_i)/2, and the
only occupied transition set is bob@b' (v between the thresholds of T and
3T), so sigma_minus = |cos T - cos 3T|/2.  Both depend on v alone, so a bias
on u leaves them unchanged.  Tolerances are the README's: a grid estimate
within 1/N, a Monte Carlo estimate within four standard errors, a float
identity within 1e-12 (looser only where the CSV's 12 significant digits
round).  The standard errors are computed here from the closed forms, not
read from the program's output.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from workloads import Command

DEFAULT_GRID = 1024
_DIGITS = 1e-10  # slack for values printed with 12 significant digits

# Region label -> membership pattern over the canonical sets
# (bob@b, alice@a', bob@b', alice@a); T1..T4 leave out set j = 0..3, T5..T8
# hold only set 3..0, E1..E6 hold the index pairs in lexicographic order.
_PAIRS = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
REGION_SETS: dict[str, frozenset[int]] = {
    "none": frozenset(),
    "F": frozenset(range(4)),
    **{f"T{1 + j}": frozenset(range(4)) - {j} for j in range(4)},
    **{f"T{8 - j}": frozenset({j}) for j in range(4)},
    **{f"E{rank}": frozenset(pair) for rank, pair in enumerate(_PAIRS, start=1)},
}
# Alice's setting travels iff lambda is in a B-side set (0 or 2), Bob's iff in
# an A-side set (1 or 3).
REGION_BITS = {label: int(bool(s & {0, 2})) + int(bool(s & {1, 3})) for label, s in REGION_SETS.items()}


def chain_thetas(theta: float) -> tuple[float, float, float, float]:
    """Context separations a-b, a'-b, a'-b', a-b' of the chain quadruple."""
    return (theta, -theta, theta, 3.0 * theta)


def p_minus(theta: float) -> float:
    return 0.5 * (1.0 + math.cos(theta))


def sigma_minus(theta: float) -> float:
    return abs(math.cos(theta) - math.cos(3.0 * theta)) / 2.0


def quantum_unified(theta: float) -> float:
    """max(0, x-1) + max(0, y-1) of the analytic singlet statistics."""
    m = [p_minus(t) for t in chain_thetas(theta)]
    p = [1.0 - v for v in m]
    x = abs(p[0] - m[1]) + abs(p[2] - p[3])
    y = abs(p[0] - p[1]) + abs(p[2] - m[3])
    return max(0.0, x - 1.0) + max(0.0, y - 1.0)


def weight_square_mean(q: float | None) -> float:
    """E[w^2] of the density weight: 1 uniform, 2(q^2 + (1-q)^2) under the u bias."""
    return 1.0 if q is None else 2.0 * (q * q + (1.0 - q) * (1.0 - q))


def mc_error(p: float, n: int, q: float | None = None) -> float:
    """Standard error of a density-weighted mean of an indicator of measure p
    that is independent of u (the weight depends on u alone)."""
    return math.sqrt(max(weight_square_mean(q) * p - p * p, 0.0) / n)


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


class _Report:
    def __init__(self) -> None:
        self.errors: list[str] = []

    def near(self, label: str, value: float, expected: float, tolerance: float) -> None:
        if not abs(value - expected) <= tolerance:
            self.errors.append(f"{label}: {value!r} differs from {expected!r} by more than {tolerance:.3g}")

    def true(self, label: str, condition: bool) -> None:
        if not condition:
            self.errors.append(label)


def check(command: Command, workdir: Path) -> tuple[list[str], dict[str, float]]:
    """Check one command's outputs; returns (errors, measured values)."""
    report = _Report()
    values: dict[str, float] = {}
    missing = [name for name in command.outputs if not (workdir / name).is_file()]
    if missing:
        return [f"{command.kind}: missing outputs {missing}"], values
    try:
        manifest = json.loads((workdir / command.outputs[-1]).read_text(encoding="utf-8"))
        report.true("manifest command line differs", manifest["command_line"] == list(command.argv))
        _CHECKS[command.kind](command.params, workdir / command.outputs[0], report, values)
    except (KeyError, ValueError, IndexError, StopIteration) as exc:
        report.errors.append(f"unreadable output ({type(exc).__name__}: {exc})")
    return [f"{command.kind}: {error}" for error in report.errors], values


def _check_sweep(params: dict, path: Path, report: _Report, values: dict) -> None:
    grid = params["grid"] or DEFAULT_GRID
    rows = _rows(path)
    steps = params["steps"]
    report.true(f"{len(rows)} rows, expected {steps}", len(rows) == steps)
    worst = 0.0
    for i, row in enumerate(rows):
        theta = params["theta_min"] + i * (params["theta_max"] - params["theta_min"]) / (steps - 1)
        report.near(f"row {i} theta", float(row["theta"]), theta, _DIGITS)
        sigma = float(row["sigma_minus"])
        worst = max(worst, abs(sigma - sigma_minus(theta)))
        report.near(f"row {i} sigma_minus", sigma, sigma_minus(theta), 1.0 / grid)
        report.near(f"row {i} avg_bits", float(row["avg_bits"]), sigma_minus(theta), 1.0 / grid)
        report.true(f"row {i} avg_bits below sigma_minus", float(row["avg_bits"]) >= sigma - _DIGITS)
        hardy = max(0.0, (3.0 * math.cos(theta) - math.cos(3.0 * theta)) / 2.0 - 1.0)
        report.near(f"row {i} hardy_bound", float(row["hardy_bound"]), hardy, 4.0 / grid)
    values["sigma_minus_err"] = worst
    svg = path.with_suffix(".svg").read_text(encoding="utf-8")
    report.true("svg is not a five-series plot",
                svg.startswith("<svg") and svg.rstrip().endswith("</svg>") and svg.count("<polyline") == 5)


def _check_comm(params: dict, path: Path, report: _Report, values: dict) -> None:
    (row,) = _rows(path)
    runs, theta = params["runs"], params["theta"]
    report.true("n_runs or seed differs", int(row["n_runs"]) == runs and int(row["seed"]) == params["seed"])
    average, stderr = float(row["average_bits"]), float(row["bits_std_error"])
    report.true("average_bits below sigma_minus_bound - 4 stderr",
                average >= float(row["sigma_minus_bound"]) - 4.0 * stderr)
    # bits is 1 exactly on bob@b' and 0 elsewhere, a Bernoulli of mean sigma_minus
    expected = sigma_minus(theta)
    report.near("average_bits", average, expected, 4.0 * math.sqrt(expected * (1 - expected) / runs))
    counts = [int(row[f"count_{i}"]) for i in range(1, 5)]
    report.true("context counts do not add up to n_runs", sum(counts) == runs and min(counts) > 0)
    for i, (count, t) in enumerate(zip(counts, chain_thetas(theta)), start=1):
        p = p_minus(t)
        report.near(f"p_minus_{i}", float(row[f"p_minus_{i}"]), p, 4.0 * math.sqrt(p * (1 - p) / count))
    if params["log"] is not None:
        _check_log(path.parent / params["log"], runs, average, report)


def _check_log(path: Path, runs: int, average: float, report: _Report) -> None:
    rows = 0
    bits_total = 0
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        column = {name: i for i, name in enumerate(header)}
        run_i, region_i, bits_i = column["run"], column["region"], column["bits"]
        for row in reader:
            if int(row[run_i]) != rows or REGION_BITS.get(row[region_i]) != int(row[bits_i]):
                report.errors.append(f"log row {rows + 1}: run index or bits do not match region: {row}")
                return
            bits_total += int(row[bits_i])
            rows += 1
    report.true(f"log has {rows + 1} lines, expected {runs + 1}", rows == runs)
    report.near("log mean bits", bits_total / max(rows, 1), average, _DIGITS)


def _check_stats(params: dict, path: Path, report: _Report, values: dict) -> None:
    rows = _rows(path)
    report.true("stats needs four context rows", len(rows) == 4)
    for i, (row, t) in enumerate(zip(rows, chain_thetas(params["theta"])), start=1):
        p = p_minus(t)
        report.near(f"p_minus_{i}", float(row["p_minus"]), p, 4.0 * mc_error(1.0 - p, params["mc"], params["q"]))


def _check_transition(params: dict, path: Path, report: _Report, values: dict) -> None:
    table = {row["name"]: float(row["value"]) for row in _rows(path)}
    expected = sigma_minus(params["theta"])
    report.near("sigma_minus", table["sigma_minus"], expected, 4.0 * mc_error(expected, params["mc"], params["q"]))
    report.near("sum_t_minus_sigma", table["sum_t_minus_sigma"], 0.0, 1e-9)
    for name in ("bob@b", "alice@a'", "bob@b'", "alice@a"):
        report.near(f"{name} partitions", table[f"{name}:+-"] + table[f"{name}:-+"], table[name], 2 * _DIGITS)
    for name in ("bob@b", "alice@a'", "alice@a"):
        report.near(f"{name} (empty on the chain)", table[name], 0.0, 1e-9)


def _check_signal(params: dict, path: Path, report: _Report, values: dict) -> None:
    (row,) = _rows(path)
    q = params["q"]
    width = abs(math.cos(params["a1"] - params["b"]) - math.cos(params["a2"] - params["b"])) / 2.0
    expected = abs(1.0 - 2.0 * q) * width
    # w * (indicator difference) is +-w on the strip between the thresholds
    stderr = math.sqrt(max(weight_square_mean(q) * width - expected * expected, 0.0) / params["mc"])
    report.near("marginal_shift", float(row["marginal_shift"]), expected, 4.0 * stderr + _DIGITS)
    report.near("balance_gap", float(row["balance_gap"]), expected, 4.0 * stderr + _DIGITS)


def _check_moc(params: dict, path: Path, report: _Report, values: dict) -> None:
    (row,) = _rows(path)
    theta = params["theta"]
    report.true("induced_sigma_minus is not 0", float(row["induced_sigma_minus"]) == 0.0)
    report.near("induced_bell_lhs", float(row["induced_bell_lhs"]), 2.0, 1e-12)
    report.near("quantum_required", float(row["quantum_required"]), quantum_unified(theta), 1e-12)
    best = max(p_minus(t) for t in chain_thetas(theta))
    report.near("moc_measure", float(row["moc_measure"]), best, 4.0 * mc_error(best, params["mc"]))


_CHECKS = {
    "sweep": _check_sweep,
    "comm": _check_comm,
    "stats": _check_stats,
    "transition": _check_transition,
    "signal": _check_signal,
    "moc": _check_moc,
}
