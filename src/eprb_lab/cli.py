"""Batch front-end over the built-in models.

Subcommands: stats, transition, sweep, comm, signal, moc, replay.  One
table, ``_SUBCOMMANDS``, gives each its handler, help line and the flags it
reads, with every flag's type and default; the parser, the config file's
keys and types, and dispatch are all built from it.  An optional key-value
config file supplies the subcommand's defaults, so flags still win.  CSV
goes to stdout unless --out is given; whenever a run writes a new or
regular file it also writes a manifest beside the first one (<that
output>.manifest.json) recording the command line, resolved model,
quadruple, scheme and seed, so the run can be replayed byte for byte.
Each subcommand asks ``_resolve_model`` for the kind of model it needs (any,
hidden-variable or order-resolved), and ``_resolve_scheme`` gives None for
an analytic model, which the manifest records as scheme "analytic" with no
seed.  ``_emit`` is the only writer: the CSV first, then --log or --svg,
then the manifest, a new or regular file renamed into place once all are
written.  Numpy and the kernel load only once the arguments parse:
``_load_kernel`` binds numpy as np and every name in the package's
``__all__`` here, each through the package's lazy export, so --version,
--help and usage errors exit before either is imported.

Exit codes: 0 success, 2 usage error (unknown model or one of the wrong
kind, malformed angles, --grid with --mc, a seed outside [0, 2**64), outputs
that name the same file, a manifest that is not valid JSON), 3
numerical-invariant failure.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import importlib.util
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Callable, Iterable, Sequence, TextIO

# The package does no linear algebra (the matrix products in
# protocols.simulate_game are integer ones, which numpy runs without BLAS),
# yet OpenBLAS starts its worker threads when numpy loads, and on a busy
# small host their spin adds tens of milliseconds to each command.  So a
# command starts OpenBLAS with one thread, unless the user has chosen a
# count.  This must run before the first import of numpy, which is why the
# package's exports are lazy.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# numpy.random imports secrets -> hmac -> _hashlib, which maps OpenSSL's
# libcrypto (3.4 MB of peak RSS), yet a command hashes nothing and keys every
# Philox stream itself.  Marking _hashlib absent makes hashlib and hmac use
# CPython's built-in md5/sha1/sha2/sha3/blake2; a _hashlib already loaded
# stays, and library users who never import cli are untouched.  A build may
# leave the built-in hashes out (--with-builtin-hashlib-hashes), and hashlib
# then logs an error per missing hash, so such a build keeps OpenSSL.
if any(map(importlib.util.find_spec, ("_sha2", "_sha256"))):  # 3.12+, then 3.10-3.11
    sys.modules.setdefault("_hashlib", None)

from . import __version__

@functools.cache
def _load_kernel() -> None:
    """Import numpy and the kernel and bind here, once, numpy as np and every
    name the package exports, each through its lazy export.  A name bound
    before (a replacement of the original) is kept."""
    import numpy

    package = sys.modules[__package__]
    globals().setdefault("np", numpy)
    for name in package.__all__:
        globals().setdefault(name, getattr(package, name))


def __getattr__(name: str) -> object:
    if name != "np" and name not in sys.modules[__package__].__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load_kernel()
    return globals()[name]


TOOL_NAME = "eprb-lab"

_DEFAULT_THETA = math.pi / 4
_DEFAULT_SEED = 42
_DEFAULT_STEPS = 181
_DEFAULT_RUNS = 1_000_000


# ---------------------------------------------------------------------------
# Option resolution: flag, then config entry, then the parser's default.


def _read_config(path: str, known: set[str]) -> dict[str, str]:
    """Parse a key-value file: one `name = value` per line, and `#` comments,
    each from a `#` that starts the line or follows whitespace.

    Every key must be one of ``known``, the subcommand's flag names.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: the config file is not valid UTF-8: {exc}") from None
    table: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        cut = next((i for i, char in enumerate(raw)
                    if char == "#" and (i == 0 or raw[i - 1].isspace())), len(raw))
        line = raw[:cut].strip()
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


def _merge_config(args: argparse.Namespace, argv: Sequence[str]) -> argparse.Namespace:
    """Make the config file's entries the subcommand's defaults and parse
    ``argv`` again, so flags win; refuse two scheme flags, a bad --seed or
    an empty output path, from either source."""
    scheme = [name[2:] for name, _ in _SCHEME]  # each scheme flag's key and dest
    if getattr(args, "config", None):
        _, _, flags = _SUBCOMMANDS[args.subcommand]
        # a config file cannot name another config file
        types = {
            name[2:]: keywords.get("type", str)
            for name, keywords in flags
            if name.startswith("--") and name != "--config"
        }
        config = _read_config(args.config, set(types))
        if any(getattr(args, key, None) is not None for key in scheme):
            # a flag-level scheme choice shadows every scheme entry, so a config
            # file holding `grid = ...` can still be overridden by --mc alone
            for key in scheme:
                config.pop(key, None)
        defaults: dict[str, object] = {}
        for key, text in config.items():
            try:
                defaults[key.replace("-", "_")] = types[key](text)
            except ValueError:
                raise ValueError(f"config entry {key} = {text!r} is malformed") from None
        args = build_parser({args.subcommand: defaults}).parse_args(argv)
    if sum(getattr(args, key, None) is not None for key in scheme) > 1:
        raise ValueError(" and ".join(f"--{key}" for key in scheme) + " are mutually exclusive")
    for flag in ("config", "out", "log", "svg"):
        # an empty path names no file, or the working directory
        if getattr(args, flag, None) == "":
            raise ValueError(f"--{flag} needs a file path")
    # with --mc the scheme checks the count, then the seed; replay has no seed
    if "seed" in args and getattr(args, "mc", None) is None:
        check_seed(args.seed)
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
    flagged: Scheme | None = None
    if args.mc is not None:
        flagged = MonteCarloScheme(n=args.mc, seed=args.seed)
    elif args.grid is not None:
        flagged = GridScheme(resolution=args.grid)
    if choice.hv is None:
        return None
    return flagged or GridScheme(resolution=default_grid_resolution(choice.hv.space.dimension))


def _resolve_quadruple(args: argparse.Namespace) -> AngleQuadruple:
    if args.angles is not None:
        parts = args.angles.split(",")
        if len(parts) != 4:
            raise ValueError("--angles needs four comma-separated radians: a,a',b,b'")
        try:
            values = [float(part) for part in parts]
        except ValueError:
            raise ValueError(f"malformed angles {args.angles!r}") from None
        return AngleQuadruple(*map(Angle, values))  # a, a', b, b' in field order
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

    The manifest's command line is ``argv``: as given, or for a run that read
    --config, the subcommand and each flag's effective value as
    ``--name=value``, so that replaying it reads no config file.
    The manifest's scheme and seed come from ``scheme``: its label and its
    seed (null for a grid, which has none), "analytic" and null for None (an
    analytic model), or for a str, that label and --seed (the game's own label).

    ``side_outputs`` are ``(path, write)`` pairs, path None where the flag
    was not given.  Outputs that name the same file or a directory are
    refused first.  The CSV (to --out or stdout), side outputs and manifest
    are written in that order, new and regular files under temporary names
    renamed into place once all are written; any other path (a FIFO, a
    device, /dev/stdout) is opened as it is.  With the CSV on stdout, every
    temporary is created before the copy.  The manifest goes beside the first
    new or regular file; a run whose every output is a stream writes none.
    """

    def write_csv(handle: TextIO) -> None:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(value) for value in row] for row in rows)

    def is_file(path: str) -> bool:  # new or regular: staged, then renamed into place
        return os.path.isfile(path) or not os.path.exists(path)

    given = [(args.out, write_csv), *side_outputs]
    files = [(path, write) for path, write in given if path is not None]
    outputs = [path for path, _ in files]
    beside = next((path for path in outputs if is_file(path)), None)
    if beside is not None:
        if scheme is None:
            label, seed = "analytic", None
        elif isinstance(scheme, str):
            label, seed = scheme, args.seed
        else:
            label, seed = scheme.label, getattr(scheme, "seed", None)
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
        files.append((beside + ".manifest.json", lambda handle: handle.write(text)))
    targets: dict[Path, str] = {}
    for path, _ in files:
        resolved = Path(path).resolve()
        if resolved in targets:
            raise ValueError(f"outputs {targets[resolved]!r} and {path!r} name the same file")
        if resolved.is_dir():
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        targets[resolved] = path
    staged = {
        target: target.with_name(f"{target.name}.{os.getpid()}.tmp")
        for target, path in targets.items()
        if is_file(path)
    }
    try:
        if args.out is None:
            # stdout gets the CSV once it is whole and every staged file exists, so a
            # command failing while it makes its rows, or an output that cannot be
            # created, writes nothing there; a spool file keeps memory flat as rows grow
            for target, temporary in staged.items():
                try:
                    temporary.touch()
                except OSError as exc:  # name the output as given, not its temporary
                    raise OSError(exc.errno, exc.strerror, targets[target]) from None
            with tempfile.TemporaryFile("w+", newline="", encoding="utf-8") as spool:
                write_csv(spool)
                spool.seek(0)
                shutil.copyfileobj(spool, sys.stdout)
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


def _svg_text(text: str) -> str:
    """``text`` as SVG character data: ``html.escape(text, quote=False)``,
    without importing ``html`` for three replacements."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


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
        f'font-family="sans-serif" font-size="13">{_svg_text(title)}</text>',
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
            f'font-family="sans-serif" font-size="11">{_svg_text(label)}</text>'
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
        [name, value, std_error, scheme.label, getattr(scheme, "seed", None)]
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
    return [theta, max(0.0, bounds.beta[0]), bounds.unified, bounds.bell_lhs, sigma_minus, avg_bits]


def _cmd_sweep(args: argparse.Namespace, argv: Sequence[str]) -> int:
    choice = _resolve_model(args)
    theta_min, theta_max, steps = args.theta_min, args.theta_max, args.steps
    if steps < 2:
        raise ValueError(f"--steps must be at least 2, got {steps}")
    if not math.isfinite(theta_max - theta_min):  # else the thetas below would hold inf or nan
        raise ValueError(
            f"theta range must have a finite width, got {theta_min!r} to {theta_max!r}"
        )
    scheme = _resolve_scheme(args, choice)

    def theta_at(i: int) -> float:
        return theta_min + i * (theta_max - theta_min) / (steps - 1)

    for i in (0, steps - 1):  # a theta whose 3*theta overflows fails before any row
        AngleQuadruple.chain(theta_at(i))
    rows: Iterable[list[object]] = (_sweep_row(choice, theta_at(i), scheme) for i in range(steps))
    if args.svg is not None:  # the plot reads every row; the CSV alone streams them
        rows = list(rows)
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


# Rows per piece of the run log.  A few copies of a piece are alive while it
# is written (the word array, its bytes, those bytes without NULs, the text
# and the text layer's encoding).  A piece of a 2-D model's 68-byte padded
# rows is 68 KiB, and of a 4-D model's 108 KiB, so each copy is under
# glibc's default 128 KiB mmap threshold.
_LOG_PIECE_ROWS = 1024

# The ``,%.12g`` text of one lambda, at most 20 bytes, fills a slot of five
# 4-byte words; the bytes it leaves are NUL.  A proven slot is the comma and
# "0", the point and lead zeros, then three words of digits.
_SLOT_WORDS = 5
_COMMA_ZERO = int.from_bytes(b",\0\0" b"0", sys.byteorder)
# The decade k of a lambda v in [1e-4, 1) is the number of these thresholds
# at or below v.  Each is the least double above its power of ten, so
# k = 3 - lead exactly, where v lies in [10**-(lead + 1), 10**-lead).
_DECADES = (1e-3, 1e-2, 1e-1)
# By decade: the scale 10**(12 + lead), exact in a double, and the point and
# lead zeros, NUL-padded to one word.
_SCALE_BY_DECADE = (1e15, 1e14, 1e13, 1e12)
_POINT_BY_DECADE = b".000" b".00\0" b".0\0\0" b".\0\0\0"


@functools.cache
def _digit_words() -> tuple[np.ndarray, np.ndarray]:
    """The four ASCII digits of each of 0..9999 as one word, and the same
    with its trailing zeros NUL (0 is all NUL); built on the first log."""
    group = np.arange(10_000, dtype=np.int16)
    places = np.array([1000, 100, 10, 1], dtype=np.int16)
    full = (group[:, None] // places % 10 + ord("0")).astype(np.uint8)
    trimmed = full.copy()
    for place in range(4):
        trimmed[group % 10 ** (4 - place) == 0, place] = 0
    return full.view(np.uint32).ravel(), trimmed.view(np.uint32).ravel()


@functools.cache
def _tail_words() -> np.ndarray:
    """The row tail ``,alice,bob,region,bits,A,B\n`` of each key, NUL-padded
    to whole words, one row per key; built on the first log."""
    every = CommBlock(start=0, lam=np.empty((N_KEYS, 0)), key=np.arange(N_KEYS))
    fields = ("alice_choice", "bob_choice", "mask_code", "bits", "outcome_a", "outcome_b")
    tails = [
        ",%s,%s,%s,%d,%d,%d\n" % (SETTINGS["A"][a], SETTINGS["B"][b], LABELS_BY_MASK[mask], *rest)
        for a, b, mask, *rest in zip(*(getattr(every, name).tolist() for name in fields))
    ]
    width = -(-max(map(len, tails)) // 4) * 4
    return np.frombuffer(
        b"".join(tail.encode("ascii").ljust(width, b"\0") for tail in tails), np.uint32
    ).reshape(N_KEYS, -1)


def _run_words(start: int, n: int) -> np.ndarray:
    """Run numbers ``start .. start + n - 1`` as rows of right-aligned
    decimal digits, four to a word, with their leading zeros NUL."""
    full, _ = _digit_words()
    width = -(-len(str(start + n - 1)) // 4)
    words = np.empty((n, width), dtype=np.uint32)
    runs = np.arange(start, start + n, dtype=np.int64)
    for column in range(width - 1, 0, -1):
        high = runs // 10_000
        words[:, column] = full[runs - 10_000 * high]
        runs = high
    words[:, 0] = full[runs]
    text = words.view(np.uint8)
    for place in range(4 * width - 1):
        # the runs below 10**(digits after this place) come first, and have a
        # leading zero here
        below = 10 ** (4 * width - 1 - place) - start
        if below <= 0:
            break
        text[:below, place] = 0
    return words


def _lambda_slots(values: np.ndarray) -> np.ndarray:
    """``"," + "%.12g" % v`` of each value, one NUL-padded slot per row.

    For v in [1e-4, 1) the text is "0.", ``lead`` zeros and the 12
    significant digits less their trailing zeros.  ``s = v * 10**(12 +
    lead)`` is one correctly rounded product by an exact power of ten, and
    ``s < 2**40``, so it is within 2**-14 of the exact product: ``rint(s)``
    holds those digits unless s lies within 1e-3 of a half-integer.  Every
    value this does not prove is written by Python's ``%``: values outside
    [1e-4, 1) (0.0, subnormals, NaN), near-ties, and digits whose last four
    are zeros.  Those are rare, would need two words trimmed, and include
    the digits that round up to 10**12.
    """
    full, trimmed = _digit_words()
    inside = (values >= 1e-4) & (values < 1.0)
    v = np.where(inside, values, 0.5)  # keeps the arithmetic below finite
    decade = (v >= _DECADES[0]).astype(np.intp)
    decade += v >= _DECADES[1]
    decade += v >= _DECADES[2]
    scaled = v * np.take(_SCALE_BY_DECADE, decade)
    rounded = np.rint(scaled)
    proven = inside & (np.abs(scaled - rounded) < 0.499)
    low = rounded.astype(np.int64)  # the digits, as three words of four
    middle = low // 10_000
    low -= 10_000 * middle
    top = middle // 10_000
    middle -= 10_000 * top
    proven &= low != 0
    slots = np.empty((len(values), _SLOT_WORDS), dtype=np.uint32)
    slots[:, 0] = _COMMA_ZERO
    slots[:, 1] = np.frombuffer(_POINT_BY_DECADE, np.uint32)[decade]
    slots[:, 2] = full.take(top, mode="clip")  # top is 10**4 only for 10**12
    slots[:, 3] = full[middle]
    slots[:, 4] = trimmed[low]
    unproven = np.flatnonzero(~proven)
    texts = (",%.12g" % value for value in values[unproven].tolist())
    padded = b"".join(text.encode("ascii").ljust(4 * _SLOT_WORDS, b"\0") for text in texts)
    slots[unproven] = np.frombuffer(padded, np.uint32).reshape(-1, _SLOT_WORDS)
    return slots


def _log_rows(start: int, lam: np.ndarray, key: np.ndarray) -> np.ndarray:
    """Rows ``start ..`` of the run log as NUL-padded words: the run numbers,
    one slot per lambda axis and the tails of the keys."""
    columns = [_run_words(start, len(key))]
    columns += [_lambda_slots(lam[:, axis]) for axis in range(lam.shape[1])]
    columns.append(_tail_words().take(key, axis=0))
    return np.concatenate(columns, axis=1)


def _write_log(handle: TextIO, dimension: int, blocks: Iterable[CommBlock]) -> None:
    """Write the run log: its header, then one row per run, block by block.

    A row is the run number, the ``dimension`` lambda columns and a tail
    ``alice,bob,region,bits,A,B\n`` looked up by the run's key.  Each piece
    of ``_LOG_PIECE_ROWS`` rows is built column by column in word arrays:
    the run numbers, one slot per lambda axis and the tails gathered by key,
    each NUL-padded.  The rows are joined, the NULs dropped and the piece
    written as one string.  That gives the bytes ``_emit``'s CSV writer
    would: integers in decimal, floats as ``%.12g``, no field that needs
    quoting.
    """
    header = (
        ["run"]
        + [f"lambda_{axis}" for axis in range(dimension)]
        + ["alice_setting", "bob_setting", "region", "bits", "outcome_a", "outcome_b"]
    )
    handle.write(",".join(header) + "\n")
    for block in blocks:
        for lo in range(0, len(block.key), _LOG_PIECE_ROWS):
            hi = min(lo + _LOG_PIECE_ROWS, len(block.key))
            # one expression: each copy of the piece is freed once the next is made
            handle.write(
                _log_rows(block.start + lo, block.lam[lo:hi], block.key[lo:hi])
                .tobytes()
                .translate(None, b"\0")
                .decode("ascii")
            )
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
    b_setting = Angle(args.b_setting)
    a1 = Angle(args.a1)
    a2 = Angle(args.a2)
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
    header, row = zip(
        ("model", choice.name),
        *_quadruple_json(quadruple).items(),
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


def _cmd_replay(args: argparse.Namespace, argv: Sequence[str]) -> int:
    if args.manifest == "":
        raise ValueError("replay needs a manifest path")
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
#
# Flags as (name, ``add_argument`` keywords), in --help order, and the groups
# of them that several subcommands share.  ``_SUBCOMMANDS`` gives each
# subcommand its handler, help line and flags; the parser, the config file's
# keys and types, and dispatch all read that one table.


def _model(default: str) -> tuple[str, dict[str, object]]:
    return ("--model", dict(default=default, help=f"model name (default {default})"))


_QUADRUPLE = (
    ("--angles", dict(help="a,a',b,b' in radians; overrides --theta")),
    ("--theta", dict(type=float, default=_DEFAULT_THETA,
                     help="chain angle: a-b = b-a' = a'-b' = theta (default pi/4)")),
)
# at most one of these; any one as a flag shadows a config file's entries for all
_SCHEME = (
    ("--grid", dict(type=int, metavar="N", help="midpoint grid, N cells per axis")),
    ("--mc", dict(type=int, metavar="N", help="Monte Carlo with N samples")),
)
_RUN = (
    ("--seed", dict(type=int, default=_DEFAULT_SEED, metavar="S",
                    help=f"PRNG seed (default {_DEFAULT_SEED})")),
    ("--out", dict(metavar="PATH", help="write CSV to PATH (default stdout); the first new or "
                   "regular output FILE gets FILE.manifest.json beside it")),
    ("--config", dict(metavar="PATH", help="key-value file mirroring these flags; flags win")),
)

_SUBCOMMANDS = {
    "stats": (_cmd_stats, "per-context product statistics",
              (_model("singlet"), *_QUADRUPLE, *_SCHEME, *_RUN)),
    "transition": (_cmd_transition, "transition-set, partition and region measures",
                   (_model("singlet"), *_QUADRUPLE, *_SCHEME, *_RUN)),
    "sweep": (_cmd_sweep, "bound curves over a theta range", (
        _model("quantum"), *_SCHEME, *_RUN,
        ("--theta-min", dict(type=float, default=0.0, help="sweep start (default 0)")),
        ("--theta-max", dict(type=float, default=math.pi, help="sweep end (default pi)")),
        ("--steps", dict(type=int, default=_DEFAULT_STEPS,
                         help=f"sample count (default {_DEFAULT_STEPS})")),
        ("--svg", dict(metavar="PATH", help="also write a line plot to PATH")),
    )),
    "comm": (_cmd_comm, "play the classical-communication game", (
        _model("singlet"), *_QUADRUPLE, *_RUN,
        ("--runs", dict(type=int, default=_DEFAULT_RUNS,
                        help=f"number of runs (default {_DEFAULT_RUNS})")),
        ("--log", dict(metavar="PATH", help="also write a per-run CSV log to PATH")),
    )),
    "signal": (_cmd_signal, "marginal shift and detailed-balance gap at one wing", (
        _model("singlet"), *_SCHEME, *_RUN,
        ("--q", dict(type=float, help="bias weight; replaces the equilibrium distribution")),
        ("--b-setting", dict(type=float, default=0.0, help="B's fixed setting (default 0)")),
        ("--a1", dict(type=float, default=0.0, help="Alice's first setting (default 0)")),
        ("--a2", dict(type=float, default=math.pi / 2,
                      help="Alice's second setting (default pi/2)")),
    )),
    "moc": (_cmd_moc, "measurement-ordering contextuality demonstration",
            (_model("sequential-singlet"), *_QUADRUPLE, *_SCHEME, *_RUN)),
    "replay": (_cmd_replay, "re-run the command recorded in a manifest",
               (("manifest", dict(help="path to a .manifest.json file")),)),
}


def build_parser(defaults: dict[str, dict[str, object]] | None = None) -> argparse.ArgumentParser:
    """One subparser per ``_SUBCOMMANDS`` entry; ``defaults`` maps a
    subcommand to defaults (by dest) that replace its flags' own."""
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
    for name, (_, summary, flags) in _SUBCOMMANDS.items():
        subparser = sub.add_parser(name, help=summary)
        for flag, keywords in flags:
            subparser.add_argument(flag, **keywords)
        subparser.set_defaults(**(defaults or {}).get(name, {}))
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args_list = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(args_list)
    except SystemExit as exc:  # argparse exits with 0 (--help, --version) or 2
        return exc.code
    _load_kernel()
    handler, _, flags = _SUBCOMMANDS[args.subcommand]
    try:
        args = _merge_config(args, args_list)
        if getattr(args, "config", None):
            # record each flag's effective value, not the file, so a replay reads
            # no config; a float's str is its repr
            values = [(flag, getattr(args, flag[2:].replace("-", "_"))) for flag, _ in flags]
            args_list = [args.subcommand, *(f"{flag}={value}" for flag, value in values
                                            if value is not None and flag != "--config")]
        return handler(args, args_list)
    except NumericalInvariantError as exc:
        print(f"{TOOL_NAME}: numerical invariant violated: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader of an output pipe went away: stop quietly, as a killed
        # writer would, and send whatever stdout still buffers to the void
        # so that interpreter shutdown does not fail on the closed pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except (ValueError, OSError) as exc:
        print(f"{TOOL_NAME}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
