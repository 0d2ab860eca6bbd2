"""Batch front-end over the built-in models.

Subcommands: stats, transition, sweep, comm, signal, moc, replay.  Each
subcommand declares only the flags it reads, and the parser holds every
flag's type and default.  An optional key-value config file supplies the
subcommand's defaults, so flags still win.  CSV goes to stdout unless --out
is given; whenever a run writes files it also writes a manifest
(<first output>.manifest.json) recording the command line, resolved model,
quadruple, scheme and seed, so the run can be replayed byte for byte.
Each subcommand asks ``_resolve_model`` for the kind of model it needs (any,
hidden-variable or order-resolved), and ``_resolve_scheme`` gives None for
an analytic model, which the manifest records as scheme "analytic" with no
seed.  ``_emit`` is the only writer: the CSV first, then --log or --svg,
then the manifest, a new or regular file renamed into place once all are
written.

Exit codes: 0 success, 2 usage error (unknown model or one of the wrong
kind, malformed angles, --grid with --mc, outputs that name the same file,
a manifest that is not valid JSON), 3 numerical-invariant failure.
"""

from __future__ import annotations

import argparse
import csv
import errno
import html
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, Iterable, Sequence, TextIO

import numpy as np

from . import __version__
from .core import (
    CONTEXT_LABELS,
    AngleQuadruple,
    GridScheme,
    MonteCarloScheme,
    NumericalInvariantError,
    Scheme,
    default_grid_resolution,
    make_angle,
)
from .inequalities import (
    BETA_SIGNS,
    JointStats,
    bound_for_signs,
    hardy_bounds,
    quantum_stats,
    stats_from_model,
)
from .models import ModelChoice, biased_distribution, resolve_model
from .ordering import moc_demo
from .protocols import N_KEYS, CommBlock, average_bits_identity, marginal_shift, simulate_game
from .protocols import detailed_balance  # noqa: F401  (bench/tracer.py rebinds it here)
from .transition import LABELS_BY_MASK, full_report

TOOL_NAME = "eprb-lab"

_DEFAULT_THETA = math.pi / 4
_DEFAULT_SEED = 42
_DEFAULT_STEPS = 181
_DEFAULT_RUNS = 1_000_000


# ---------------------------------------------------------------------------
# Option resolution: flag, then config entry, then the parser's default.


def _read_config(path: str, known: set[str]) -> dict[str, str]:
    """Parse a key-value file: one `name = value` per line, `#` comments.

    Every key must be one of ``known``, the subcommand's flag names.
    """
    table: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'name = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip().lstrip("-").replace("_", "-")
        if key not in known:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        table[key] = value.strip()
    return table


def _subparsers(parser: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _merge_config(
    parser: argparse.ArgumentParser, args: argparse.Namespace, argv: Sequence[str]
) -> argparse.Namespace:
    """Make the config file's entries the subcommand's defaults and parse
    ``argv`` again, so flags win; refuse --grid with --mc from either source."""
    grid, mc = getattr(args, "grid", None), getattr(args, "mc", None)
    if args.config:
        subparser = _subparsers(parser)[args.subcommand]
        # a config file cannot name another config file
        actions = {
            action.dest.replace("_", "-"): action
            for action in subparser._actions
            if action.option_strings and action.dest not in ("help", "config")
        }
        config = _read_config(args.config, set(actions))
        if grid is not None or mc is not None:
            # a flag-level grid/mc choice shadows both config entries, so a
            # config file holding `grid = ...` can still be overridden by --mc alone
            config.pop("grid", None)
            config.pop("mc", None)
        defaults: dict[str, object] = {}
        for key, text in config.items():
            action = actions[key]
            try:
                defaults[action.dest] = text if action.type is None else action.type(text)
            except ValueError:
                raise ValueError(f"config entry {key} = {text!r} is malformed") from None
        subparser.set_defaults(**defaults)
        args = parser.parse_args(argv)
    if getattr(args, "grid", None) is not None and getattr(args, "mc", None) is not None:
        raise ValueError("--grid and --mc are mutually exclusive")
    return args


#: Why a model that lacks a ``ModelChoice`` field cannot run a command needing it.
_MISSING = {
    "hv": "provides analytic statistics only; this command needs a hidden-variable model",
    "sequential": "does not resolve measurement order; this command needs an order-resolved model",
}


def _resolve_model(args: argparse.Namespace, needs: str | None = None) -> ModelChoice:
    """The --model choice, once it has the ``ModelChoice`` field ``needs``
    ("hv" or "sequential"; None accepts any model)."""
    choice = resolve_model(args.model)
    if needs is not None and getattr(choice, needs) is None:
        raise ValueError(f"model {choice.name!r} {_MISSING[needs]}")
    return choice


def _resolve_scheme(args: argparse.Namespace, choice: ModelChoice) -> Scheme | None:
    """The integration scheme of the flags; None for an analytic model, which
    still refuses the flags any other model refuses."""
    if args.mc is not None:
        scheme: Scheme = MonteCarloScheme(n=args.mc, seed=args.seed)
    elif args.grid is not None:
        scheme = GridScheme(resolution=args.grid)
    elif choice.hv is None:
        return None
    else:
        scheme = GridScheme(resolution=default_grid_resolution(choice.hv.space.dimension))
    return None if choice.hv is None else scheme


def _resolve_quadruple(args: argparse.Namespace) -> AngleQuadruple:
    if args.angles is not None:
        parts = args.angles.split(",")
        if len(parts) != 4:
            raise ValueError("--angles needs four comma-separated radians: a,a',b,b'")
        try:
            values = [float(part) for part in parts]
        except ValueError:
            raise ValueError(f"malformed angles {args.angles!r}") from None
        return AngleQuadruple(
            a=make_angle(values[0]),
            a_prime=make_angle(values[1]),
            b=make_angle(values[2]),
            b_prime=make_angle(values[3]),
        )
    return AngleQuadruple.chain(args.theta)


# ---------------------------------------------------------------------------
# Serialization.


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _quadruple_json(quadruple: AngleQuadruple | None) -> dict[str, float] | None:
    if quadruple is None:
        return None
    return {
        name.replace("'", "_prime"): angle.radians
        for name, angle in quadruple.named_angles().items()
    }


def _emit(
    args: argparse.Namespace,
    argv: Sequence[str],
    header: Sequence[str],
    rows: Iterable[Sequence[object]],
    *,
    quadruple: AngleQuadruple | None,
    scheme: Scheme | str | None,
    parameters: dict[str, object],
    side_outputs: Sequence[tuple[str | None, Callable[[TextIO], object]]] = (),
) -> int:
    """Write the run's CSV, side outputs and manifest; the CLI's only writer.

    The manifest's scheme and seed come from ``scheme``: its label and seed,
    "analytic" and null for None (an analytic model), or for a str, that
    label and --seed (the game's own label).

    ``side_outputs`` are ``(path, write)`` pairs, path None where the flag
    was not given.  Outputs that name the same file or a directory are
    refused first.  The CSV (to --out or stdout), side outputs and manifest
    are written in that order, new and regular files under temporary names
    renamed into place once all are written; any other path (a FIFO, a
    device, /dev/stdout) is opened as it is.
    """

    def write_csv(handle: TextIO) -> None:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(value) for value in row] for row in rows)

    given = [(args.out, write_csv), *side_outputs]
    files = [(path, write) for path, write in given if path is not None]
    outputs = [path for path, _ in files]
    targets: dict[Path, str] = {}
    if outputs:
        manifest_path = outputs[0] + ".manifest.json"
        for path in [*outputs, manifest_path]:
            resolved = Path(path).resolve()
            if resolved in targets:
                raise ValueError(f"outputs {targets[resolved]!r} and {path!r} name the same file")
            if resolved.is_dir():
                raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            targets[resolved] = path
        if scheme is None:
            label, seed = "analytic", None
        elif isinstance(scheme, str):
            label, seed = scheme, args.seed
        else:
            label, seed = scheme.label, scheme.seed
        manifest = {
            "tool": TOOL_NAME,
            "tool_version": __version__,
            "subcommand": args.subcommand,
            "command_line": list(argv),
            "model": args.model,
            "quadruple": _quadruple_json(quadruple),
            "scheme": label,
            "seed": seed,
            "parameters": parameters,
            "outputs": outputs,
        }
        text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
        files.append((manifest_path, lambda handle: handle.write(text)))
    if args.out is None:
        write_csv(sys.stdout)
    staged = {
        target: target.with_name(f"{target.name}.{os.getpid()}.tmp")
        for target, path in targets.items()
        if os.path.isfile(path) or not os.path.exists(path)
    }
    try:
        for (path, write), target in zip(files, targets):
            try:
                with open(staged.get(target, path), "w", newline="", encoding="utf-8") as handle:
                    write(handle)
            except OSError as exc:  # name the output as given, not its temporary
                raise OSError(exc.errno, exc.strerror, path) from None
        for target, temporary in staged.items():
            os.replace(temporary, target)
    finally:
        for temporary in staged.values():
            temporary.unlink(missing_ok=True)
    return 0


_SVG_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _svg_line_plot(title: str, series: Sequence[tuple[str, list[tuple[float, float]]]]) -> str:
    """A self-contained line plot: axes, ticks, legend, one polyline per series."""
    width, height = 720.0, 480.0
    left, right, top, bottom = 64.0, 16.0, 28.0, 44.0
    points = [(x, y) for _, pts in series for x, y in pts]
    x_min = min(x for x, _ in points)
    x_max = max(x for x, _ in points)
    y_min = min(y for _, y in points)
    y_max = max(y for _, y in points)
    if x_max == x_min:
        x_max = x_min + 1.0
    if y_max == y_min:
        y_max = y_min + 1.0
    margin = 0.05 * (y_max - y_min)
    y_min -= margin
    y_max += margin

    def px(x: float) -> float:
        return left + (x - x_min) / (x_max - x_min) * (width - left - right)

    def py(y: float) -> float:
        return height - bottom - (y - y_min) / (y_max - y_min) * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{html.escape(title, quote=False)}</text>',
        f'<line x1="{left:.1f}" y1="{py(y_min):.1f}" x2="{left:.1f}" y2="{py(y_max):.1f}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{left:.1f}" y1="{py(y_min):.1f}" x2="{width - right:.1f}" '
        f'y2="{py(y_min):.1f}" stroke="black" stroke-width="1"/>',
    ]
    for i in range(6):
        x_val = x_min + i * (x_max - x_min) / 5
        y_val = y_min + i * (y_max - y_min) / 5
        parts.append(
            f'<line x1="{px(x_val):.1f}" y1="{py(y_min):.1f}" x2="{px(x_val):.1f}" '
            f'y2="{py(y_min) + 4:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px(x_val):.1f}" y="{py(y_min) + 18:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{format(x_val, ".3g")}</text>'
        )
        parts.append(
            f'<line x1="{left - 4:.1f}" y1="{py(y_val):.1f}" x2="{left:.1f}" '
            f'y2="{py(y_val):.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 8:.1f}" y="{py(y_val) + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{format(y_val, ".3g")}</text>'
        )
    for k, (label, pts) in enumerate(series):
        color = _SVG_PALETTE[k % len(_SVG_PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        legend_y = top + 14 + 16 * k
        parts.append(
            f'<line x1="{width - right - 150:.1f}" y1="{legend_y:.1f}" '
            f'x2="{width - right - 126:.1f}" y2="{legend_y:.1f}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - right - 120:.1f}" y="{legend_y + 4:.1f}" '
            f'font-family="sans-serif" font-size="11">{html.escape(label, quote=False)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# Subcommands.


def _cmd_stats(args: argparse.Namespace, argv: Sequence[str]) -> int:
    choice = _resolve_model(args)
    quadruple = _resolve_quadruple(args)
    scheme = _resolve_scheme(args, choice)
    if scheme is None:
        stats = quantum_stats(quadruple)
    else:
        stats = stats_from_model(choice.hv, choice.distribution, quadruple, scheme)
    per_context = zip(quadruple.contexts(), quadruple.context_thetas(), stats.p_plus, stats.p_minus)
    rows = [
        [label, alice.radians, bob.radians, theta, p_plus, p_minus]
        for label, ((alice, bob), theta, p_plus, p_minus) in zip(CONTEXT_LABELS, per_context)
    ]
    header = ["context", "alice", "bob", "theta", "p_plus", "p_minus"]
    return _emit(args, argv, header, rows, quadruple=quadruple, scheme=scheme, parameters={})


def _cmd_transition(args: argparse.Namespace, argv: Sequence[str]) -> int:
    choice = _resolve_model(args, "hv")
    quadruple = _resolve_quadruple(args)
    scheme = _resolve_scheme(args, choice)
    report = full_report(choice.hv, choice.distribution, quadruple, scheme)
    rows = [
        [name, value, std_error, scheme.label, scheme.seed]
        for name, value, std_error in report.csv_rows()
    ]
    header = ["name", "value", "std_error", "scheme", "seed"]
    return _emit(args, argv, header, rows, quadruple=quadruple, scheme=scheme, parameters={})


def _sweep_row(choice: ModelChoice, theta: float, scheme: Scheme | None) -> list[object]:
    quadruple = AngleQuadruple.chain(theta)
    sigma_minus: float | None = None
    avg_bits: float | None = None
    if scheme is None:
        stats = quantum_stats(quadruple)
    else:
        report = full_report(choice.hv, choice.distribution, quadruple, scheme)
        stats = JointStats(report.p_plus)
        sigma_minus = report.sigma_minus.value
        avg_bits, _ = average_bits_identity(report)
    bounds = hardy_bounds(stats)
    hardy_bound = max(0.0, bound_for_signs(stats, BETA_SIGNS[0]))
    return [theta, hardy_bound, bounds.unified, bounds.bell_lhs, sigma_minus, avg_bits]


def _cmd_sweep(args: argparse.Namespace, argv: Sequence[str]) -> int:
    choice = _resolve_model(args)
    theta_min, theta_max, steps = args.theta_min, args.theta_max, args.steps
    if steps < 2:
        raise ValueError(f"--steps must be at least 2, got {steps}")
    scheme = _resolve_scheme(args, choice)
    thetas = [theta_min + i * (theta_max - theta_min) / (steps - 1) for i in range(steps)]
    rows = [_sweep_row(choice, theta, scheme) for theta in thetas]
    header = ["theta", "hardy_bound", "unified", "bell_lhs", "sigma_minus", "avg_bits"]

    def write_svg(handle: TextIO) -> None:
        series = []
        for column, name in enumerate(header[1:], start=1):
            pts = [(row[0], row[column]) for row in rows if row[column] is not None]
            if pts:
                series.append((name, pts))
        handle.write(_svg_line_plot(f"{choice.name}: chain sweep", series))

    return _emit(
        args,
        argv,
        header,
        rows,
        quadruple=None,
        scheme=scheme,
        parameters={"theta_min": theta_min, "theta_max": theta_max, "steps": steps},
        side_outputs=[(args.svg, write_svg)],
    )


# Rows per formatting call of the run log: large enough to amortize the
# call, small enough that the per-row Python objects stay a few hundred kB.
_LOG_CHUNK_ROWS = 1024


def _write_log(handle: TextIO, dimension: int, blocks: Iterable[CommBlock]) -> None:
    """Write the run log: its header, then one row per run, block by block.

    A row is the run number, the ``dimension`` lambda columns and a tail
    ``alice,bob,region,bits,A,B\n`` looked up by the run's key, in one
    ``%``-template.  That gives the bytes ``_emit``'s CSV writer would:
    integers in decimal, floats as ``%.12g``, and no field that needs quoting.
    """
    header = (
        ["run"]
        + [f"lambda_{axis}" for axis in range(dimension)]
        + ["alice_setting", "bob_setting", "region", "bits", "outcome_a", "outcome_b"]
    )
    handle.write(",".join(header) + "\n")
    row = "%d," + "%.12g," * dimension + "%s"
    every = CommBlock(start=0, lam=np.empty((N_KEYS, 0)), key=np.arange(N_KEYS))
    fields = ("alice_choice", "bob_choice", "mask_code", "bits", "outcome_a", "outcome_b")
    tails = np.empty(N_KEYS, dtype=object)
    tails[:] = [
        "%s,%s,%s,%d,%d,%d\n" % (("a", "a'")[a], ("b", "b'")[b], LABELS_BY_MASK[mask], *rest)
        for a, b, mask, *rest in zip(*(getattr(every, name).tolist() for name in fields))
    ]
    for block in blocks:
        for lo in range(0, len(block.key), _LOG_CHUNK_ROWS):
            hi = min(lo + _LOG_CHUNK_ROWS, len(block.key))
            columns = [range(block.start + lo, block.start + hi)]
            columns += [block.lam[lo:hi, axis].tolist() for axis in range(dimension)]
            columns.append(tails[block.key[lo:hi]].tolist())
            handle.write((row * (hi - lo)) % tuple(itertools.chain.from_iterable(zip(*columns))))
        del block  # free it before the stream plays the next one


def _cmd_comm(args: argparse.Namespace, argv: Sequence[str]) -> int:
    choice = _resolve_model(args, "hv")
    quadruple = _resolve_quadruple(args)
    runs, seed = args.runs, args.seed
    summary, run_stream = simulate_game(choice.hv, choice.distribution, quadruple, runs, seed)
    dimension = choice.hv.space.dimension

    fields = ("n_runs", "seed", "average_bits", "bits_std_error", "sigma_minus_bound")
    columns: list[tuple[str, object]] = [(field, getattr(summary, field)) for field in fields]
    per_context = zip(summary.stats.p_plus, summary.stats.p_minus, summary.context_counts)
    for i, values in enumerate(per_context, start=1):
        columns += zip((f"p_plus_{i}", f"p_minus_{i}", f"count_{i}"), values)
    header, row = zip(*columns)
    return _emit(
        args,
        argv,
        header,
        [row],
        quadruple=quadruple,
        scheme=f"game(runs={runs},seed={seed})",
        parameters={"runs": runs},
        side_outputs=[(args.log, lambda handle: _write_log(handle, dimension, run_stream))],
    )


def _cmd_signal(args: argparse.Namespace, argv: Sequence[str]) -> int:
    choice = _resolve_model(args, "hv")
    b_setting = make_angle(args.b_setting)
    a1 = make_angle(args.a1)
    a2 = make_angle(args.a2)
    dist = choice.distribution if args.q is None else biased_distribution(choice.hv, args.q)
    scheme = _resolve_scheme(args, choice)
    # B's outcome at b as Alice switches a1 <-> a2: the bob@b transition set
    # of the quadruple (a1, a2, b, b).
    quadruple = AngleQuadruple(a=a1, a_prime=a2, b=b_setting, b_prime=b_setting)
    shift, gap = marginal_shift(choice.hv, dist, b_setting, a1, a2, scheme)
    header, row = zip(
        ("model", choice.name),
        ("distribution", dist.label),
        ("b_setting", b_setting.radians),
        ("a1", a1.radians),
        ("a2", a2.radians),
        ("marginal_shift", shift),
        ("balance_gap", gap),
        ("scheme", scheme.label),
    )
    return _emit(
        args,
        argv,
        header,
        [row],
        quadruple=quadruple,
        scheme=scheme,
        parameters={"q": args.q, "distribution": dist.label},
    )


def _cmd_moc(args: argparse.Namespace, argv: Sequence[str]) -> int:
    choice = _resolve_model(args, "sequential")
    quadruple = _resolve_quadruple(args)
    scheme = _resolve_scheme(args, choice)
    report = moc_demo(choice.sequential, quadruple, scheme)
    named = quadruple.named_angles()
    header, row = zip(
        ("model", choice.name),
        ("a", named["a"].radians),
        ("a_prime", named["a'"].radians),
        ("b", named["b"].radians),
        ("b_prime", named["b'"].radians),
        ("pair", report.pair),
        ("wing", report.wing),
        ("own", report.own.radians),
        ("other", report.other.radians),
        ("moc_measure", report.moc_measure.value),
        ("moc_std_error", report.moc_measure.std_error),
        ("induced_sigma_minus", report.induced_sigma_minus.value),
        ("induced_bell_lhs", report.induced_bell_lhs),
        ("quantum_required", report.quantum_required),
        ("scheme", scheme.label),
    )
    return _emit(args, argv, header, [row], quadruple=quadruple, scheme=scheme, parameters={})


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        manifest = json.loads(Path(args.manifest).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{args.manifest}: the manifest is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise ValueError(f"{args.manifest}: the manifest is not a JSON object")
    command_line = manifest.get("command_line")
    if not isinstance(command_line, list) or not all(isinstance(s, str) for s in command_line):
        raise ValueError(f"{args.manifest}: no usable command_line entry")
    if command_line[:1] == ["replay"]:
        # a run writes the manifest of the command it ran, never of a replay
        raise ValueError(f"{args.manifest}: command_line is itself a replay")
    return main(command_line)


# ---------------------------------------------------------------------------
# Parser and entry point.


def _add_common_flags(
    parser: argparse.ArgumentParser, default_model: str, *, angles: bool, scheme: bool
) -> None:
    """The flags every subcommand reads, plus the quadruple's (``angles``)
    and the integration scheme's (``scheme``) where it reads them."""
    parser.add_argument(
        "--model", default=default_model, help=f"model name (default {default_model})"
    )
    if angles:
        parser.add_argument("--angles", help="a,a',b,b' in radians; overrides --theta")
        parser.add_argument(
            "--theta",
            type=float,
            default=_DEFAULT_THETA,
            help="chain angle: a-b = b-a' = a'-b' = theta (default pi/4)",
        )
    if scheme:
        parser.add_argument("--grid", type=int, metavar="N", help="midpoint grid, N cells per axis")
        parser.add_argument("--mc", type=int, metavar="N", help="Monte Carlo with N samples")
    parser.add_argument(
        "--seed", type=int, default=_DEFAULT_SEED, metavar="S", help="PRNG seed (default 42)"
    )
    parser.add_argument(
        "--out", metavar="PATH", help="write CSV to PATH plus PATH.manifest.json (default stdout)"
    )
    parser.add_argument(
        "--config", metavar="PATH", help="key-value file mirroring these flags; flags win"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Deterministic hidden-variable laboratory for the two-wing "
        "spin experiment: statistics, transition sets, Bell/Hardy bounds, the "
        "communication game, signal locality and measurement-ordering checks.",
    )
    parser.add_argument(
        "--version", action="version", version=f"{TOOL_NAME} {__version__}"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_stats = sub.add_parser("stats", help="per-context product statistics")
    _add_common_flags(p_stats, "singlet", angles=True, scheme=True)

    p_transition = sub.add_parser(
        "transition", help="transition-set, partition and region measures"
    )
    _add_common_flags(p_transition, "singlet", angles=True, scheme=True)

    p_sweep = sub.add_parser("sweep", help="bound curves over a theta range")
    _add_common_flags(p_sweep, "quantum", angles=False, scheme=True)
    p_sweep.add_argument("--theta-min", type=float, default=0.0, help="sweep start (default 0)")
    p_sweep.add_argument("--theta-max", type=float, default=math.pi, help="sweep end (default pi)")
    p_sweep.add_argument(
        "--steps", type=int, default=_DEFAULT_STEPS, help=f"sample count (default {_DEFAULT_STEPS})"
    )
    p_sweep.add_argument("--svg", metavar="PATH", help="also write a line plot to PATH")

    p_comm = sub.add_parser("comm", help="play the classical-communication game")
    _add_common_flags(p_comm, "singlet", angles=True, scheme=False)
    p_comm.add_argument(
        "--runs", type=int, default=_DEFAULT_RUNS, help=f"number of runs (default {_DEFAULT_RUNS})"
    )
    p_comm.add_argument("--log", metavar="PATH", help="also write a per-run CSV log to PATH")

    p_signal = sub.add_parser(
        "signal", help="marginal shift and detailed-balance gap at one wing"
    )
    _add_common_flags(p_signal, "singlet", angles=False, scheme=True)
    p_signal.add_argument(
        "--q", type=float, help="bias weight; replaces the equilibrium distribution"
    )
    p_signal.add_argument(
        "--b-setting", type=float, default=0.0, help="B's fixed setting (default 0)"
    )
    p_signal.add_argument("--a1", type=float, default=0.0, help="Alice's first setting (default 0)")
    p_signal.add_argument(
        "--a2", type=float, default=math.pi / 2, help="Alice's second setting (default pi/2)"
    )

    p_moc = sub.add_parser("moc", help="measurement-ordering contextuality demonstration")
    _add_common_flags(p_moc, "sequential-singlet", angles=True, scheme=True)

    p_replay = sub.add_parser("replay", help="re-run the command recorded in a manifest")
    p_replay.add_argument("manifest", help="path to a .manifest.json file")

    return parser


_DISPATCH: dict[str, Callable[[argparse.Namespace, Sequence[str]], int]] = {
    "stats": _cmd_stats,
    "transition": _cmd_transition,
    "sweep": _cmd_sweep,
    "comm": _cmd_comm,
    "signal": _cmd_signal,
    "moc": _cmd_moc,
}


def main(argv: Sequence[str] | None = None) -> int:
    args_list = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(args_list)
    except SystemExit as exc:  # argparse exits with 0 (--help, --version) or 2
        return exc.code
    try:
        if args.subcommand == "replay":
            return _cmd_replay(args)
        args = _merge_config(parser, args, args_list)
        return _DISPATCH[args.subcommand](args, args_list)
    except NumericalInvariantError as exc:
        print(f"{TOOL_NAME}: numerical invariant violated: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"{TOOL_NAME}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
