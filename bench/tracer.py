"""Outside-in tracing of the eprb_lab package.

The tracer never edits the package.  :func:`install` rebinds the public calls
at each module boundary (in every module that imported them by name) to
wrappers that record spans into a :class:`SpanRecorder`, and
:func:`layer_metrics` turns the recorded spans into the per-layer metrics
listed in :data:`PER_LAYER`.

A span is ``(name, start, end, parent, command)``; names are
``<module>.<call>``.  A span's self time is its duration minus the part of
it that its child spans cover.  Every span belongs to the module named by its
prefix, except ``core.masks`` (the classification callback a sweep calls on
each block), which belongs to the nearest enclosing span of another module:
the caller that wrote the callback.  Because every span of a command nests
inside the command span, the modules' self times add up to the command span.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Iterator, Sequence

MODULES = ("cli", "core", "models", "transition", "inequalities", "ordering", "protocols")

#: Per-layer metrics: name -> (unit, better, the end-to-end metric it should
#: move, the workloads where it should move it).  ``BENCHMARK.json`` lists
#: the same names; ``test_bench.py`` keeps the two in step.
PER_LAYER: dict[str, tuple[str, str, str, str]] = {
    "core.sweep_calls": ("count", "lower", "wall_s", "sweep-grid, mc-mix"),
    "core.points": ("count", "lower", "wall_s", "sweep-grid, mc-mix"),
    "core.blocks": ("count", "lower", "wall_s", "sweep-grid, mc-mix"),
    "core.mask_rows": ("count", "lower", "wall_s", "sweep-grid, mc-mix"),
    "core.self_s": ("s", "lower", "wall_s", "sweep-grid, mc-mix"),
    "models.outcome_calls": ("count", "lower", "wall_s", "sweep-grid, mc-mix"),
    "models.outcome_points": ("count", "lower", "wall_s", "sweep-grid, mc-mix"),
    "models.outcome_s": ("s", "lower", "wall_s", "sweep-grid, mc-mix"),
    "models.density_s": ("s", "lower", "wall_s", "sweep-grid, mc-mix"),
    "transition.report_s": ("s", "lower", "wall_s", "sweep-grid"),
    "transition.classify_s": ("s", "lower", "wall_s", "sweep-grid"),
    "inequalities.stats_s": ("s", "lower", "wall_s", "sweep-grid"),
    "inequalities.classify_s": ("s", "lower", "wall_s", "sweep-grid"),
    "ordering.moc_s": ("s", "lower", "wall_s", "mc-mix"),
    "ordering.moc_measure_calls": ("count", "lower", "wall_s", "mc-mix"),
    "protocols.game_s": ("s", "lower", "wall_s, peak_rss_mb", "mc-mix"),
    "protocols.game_runs": ("count", "higher", "wall_s, peak_rss_mb", "mc-mix"),
    "protocols.stream_s": ("s", "lower", "wall_s", "comm-log"),
    "protocols.signal_s": ("s", "lower", "wall_s", "mc-mix"),
    "cli.commands": ("count", "higher", "wall_s", "comm-log"),
    "cli.self_s": ("s", "lower", "wall_s", "comm-log"),
    "cli.bytes_out": ("bytes", "lower", "wall_s", "comm-log"),
    "run.cpu_s": ("s", "lower", "none (informational)", "all"),
    "trace.overhead_s": ("s", "lower", "none (informational)", "all"),
    "sigma_minus_err": ("1", "lower", "none (accuracy guard)", "sweep-grid"),
    "error_rate": ("ratio", "lower", "none (correctness)", "all"),
}


class SpanRecorder:
    """Spans and counters of one traced process, kept in memory.

    Spans live in flat arrays rather than one list per span: a run-stream
    command opens a span per record, and that many small lists would make
    the garbage collector, and so the traced command, noticeably slower.
    """

    def __init__(self) -> None:
        self.counters: Counter[str] = Counter()
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._command = array("q")
        self._open: list[int] = []
        self._command_id = -1

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self._names)
            self._names.append(name)
        index = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._open[-1] if self._open else -1)
        self._command.append(self._command_id)
        self._end.append(math.nan)
        self._open.append(index)
        self._start.append(time.perf_counter())  # bookkeeping stays outside the span
        return index

    def close(self, index: int) -> None:
        self._end[index] = time.perf_counter()
        if self._open.pop() != index:
            raise RuntimeError(f"span {self._names[self._name[index]]} closed out of order")

    @property
    def spans(self) -> list[list]:
        """``[name, start, end, parent, command]`` per span, in opening order."""
        return [
            [self._names[n], start, end, parent, command]
            for n, start, end, parent, command in zip(
                self._name, self._start, self._end, self._parent, self._command
            )
        ]

    def run_command(self, main: Callable[[list[str]], int], argv: Sequence[str]) -> int:
        """Run ``main(argv)`` inside a ``cli.command`` span of a new command id."""
        self._command_id += 1
        index = self.open("cli.command")
        try:
            return main(list(argv))
        finally:
            self.close(index)

    def traced(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        """``fn`` wrapped in a span; ``count(bound_arguments)`` runs first."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                count(signature.bind(*args, **kwargs).arguments)
            index = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    def to_json(self) -> dict:
        return {"spans": self.spans, "counters": dict(self.counters)}


class _TimedIterator:
    """Spans every ``__next__`` of the game's lazy run stream."""

    def __init__(self, recorder: SpanRecorder, iterator: Iterator):
        self._recorder = recorder
        self._iterator = iterator

    def __iter__(self) -> "_TimedIterator":
        return self

    def __next__(self):
        index = self._recorder.open("protocols.stream")
        try:
            return next(self._iterator)
        finally:
            self._recorder.close(index)


def _rebind(modules: Sequence[object], attr: str, wrapper: Callable) -> None:
    """Point ``attr`` at ``wrapper`` in every module; all must share one original,
    so that a renamed or re-imported function fails here instead of going untraced."""
    original = getattr(modules[0], attr)
    for module in modules:
        if getattr(module, attr) is not original:
            raise RuntimeError(f"{module.__name__}.{attr} is not the traced original")
        setattr(module, attr, wrapper)


def install(recorder: SpanRecorder) -> None:
    """Wrap the package's module-boundary calls; affects this process only."""
    from eprb_lab import cli, core, inequalities, ordering, protocols, transition

    rec = recorder

    def points(coords) -> int:
        return math.prod(coords.shape[:-1])

    # models: every outcome and density callable the CLI's model resolver hands out.
    def outcome(fn: Callable) -> Callable:
        def count(arguments: dict) -> None:  # coords is the last parameter
            rec.counters["models.outcome_points"] += points(list(arguments.values())[-1])

        return rec.traced("models.outcome", fn, count)

    def distribution(dist):
        return dataclasses.replace(dist, density=rec.traced("models.density", dist.density))

    def timed_choice(choice):
        timed: dict[int, object] = {}

        def dist(original):
            if original is None:
                return None
            if id(original) not in timed:
                timed[id(original)] = distribution(original)
            return timed[id(original)]

        hv, sequential = choice.hv, choice.sequential
        if hv is not None:
            hv = dataclasses.replace(
                hv,
                outcome_a=outcome(hv.outcome_a),
                outcome_b=outcome(hv.outcome_b),
                equilibrium=dist(hv.equilibrium),
            )
        if sequential is not None:
            sequential = dataclasses.replace(
                sequential,
                first_outcome=outcome(sequential.first_outcome),
                second_outcome=outcome(sequential.second_outcome),
                equilibrium=dist(sequential.equilibrium),
            )
        return dataclasses.replace(
            choice, hv=hv, sequential=sequential, distribution=dist(choice.distribution)
        )

    resolve = cli.resolve_model
    _rebind([cli], "resolve_model", functools.wraps(resolve)(lambda name: timed_choice(resolve(name))))
    biased = cli.biased_distribution
    _rebind([cli], "biased_distribution",
            functools.wraps(biased)(lambda model, q: distribution(biased(model, q))))

    # core: the integration kernel and the classification callback it calls per block.
    sweep = rec.traced("core.sweep", core.sweep_statistics)
    sweep_signature = inspect.signature(core.sweep_statistics)

    def count_block(arguments: dict) -> None:  # coords is the only parameter
        rec.counters["core.points"] += points(next(iter(arguments.values())))

    def traced_sweep(*args, **kwargs):
        bound = sweep_signature.bind(*args, **kwargs)
        rec.counters["core.mask_rows"] += bound.arguments["n_stats"]
        bound.arguments["masks_fn"] = rec.traced("core.masks", bound.arguments["masks_fn"], count_block)
        return sweep(*bound.args, **bound.kwargs)

    _rebind([core, transition, inequalities], "sweep_statistics",
            functools.wraps(core.sweep_statistics)(traced_sweep))

    # transition, inequalities, ordering, protocols: their public entry points.
    wrap = rec.traced
    _rebind([transition, cli, ordering], "full_report", wrap("transition.full_report", transition.full_report))
    _rebind([transition, protocols], "partition_measures",
            wrap("transition.partition_measures", transition.partition_measures))
    _rebind([inequalities, cli, ordering], "stats_from_model",
            wrap("inequalities.stats_from_model", inequalities.stats_from_model))
    _rebind([ordering], "moc_transition_measure",
            wrap("ordering.moc_transition_measure", ordering.moc_transition_measure))
    _rebind([ordering, cli], "moc_demo", wrap("ordering.moc_demo", ordering.moc_demo))
    _rebind([protocols, cli], "marginal_shift", wrap("protocols.marginal_shift", protocols.marginal_shift))
    _rebind([protocols, cli], "detailed_balance",
            wrap("protocols.detailed_balance", protocols.detailed_balance))

    game = wrap(
        "protocols.simulate_game",
        protocols.simulate_game,
        lambda arguments: rec.counters.update({"protocols.game_runs": arguments["n_runs"]}),
    )

    def traced_game(*args, **kwargs):
        summary, stream = game(*args, **kwargs)
        return summary, _TimedIterator(rec, stream)

    _rebind([protocols, cli], "simulate_game", functools.wraps(game)(traced_game))


# ---------------------------------------------------------------------------
# Analysis: self times, module attribution, per-layer aggregation.


def self_times(spans: Sequence[Sequence]) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append((end - start) - covered)
    return result


def span_modules(spans: Sequence[Sequence]) -> list[str]:
    """The module each span's self time is charged to (see module docstring)."""
    modules: list[str] = []
    for name, _, _, parent, _ in spans:
        module = name.split(".", 1)[0]
        if name == "core.masks":
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0].startswith("core."):
                ancestor = spans[ancestor][3]
            if ancestor >= 0:
                module = modules[ancestor]
        modules.append(module)
    return modules


def module_self_times(spans: Sequence[Sequence]) -> dict[int, dict[str, float]]:
    """command id -> module -> summed self time."""
    totals: dict[int, dict[str, float]] = defaultdict(lambda: dict.fromkeys(MODULES, 0.0))
    for span, own, module in zip(spans, self_times(spans), span_modules(spans)):
        totals[span[4]][module] += own
    return dict(totals)


def command_spans(spans: Sequence[Sequence]) -> dict[int, float]:
    """command id -> duration of its ``cli.command`` span."""
    return {span[4]: span[2] - span[1] for span in spans if span[0] == "cli.command"}


def layer_metrics(spans: Sequence[Sequence], counters: dict[str, int]) -> dict[str, float]:
    """The per-layer metrics of :data:`PER_LAYER` that spans and counters give;
    the parent process measures the rest.  Counts are ints, times floats."""
    own = self_times(spans)
    modules = span_modules(spans)
    counters = Counter(counters)
    count: Counter[str] = Counter()
    inclusive: defaultdict[str, float] = defaultdict(float)
    self_by_name: defaultdict[str, float] = defaultdict(float)
    classify: defaultdict[str, float] = defaultdict(float)
    for span, own_time, module in zip(spans, own, modules):
        name = span[0]
        count[name] += 1
        inclusive[name] += span[2] - span[1]
        self_by_name[name] += own_time
        if name == "core.masks":
            classify[module] += own_time
    return {
        "core.sweep_calls": count["core.sweep"],
        "core.points": counters["core.points"],
        "core.blocks": count["core.masks"],
        "core.mask_rows": counters["core.mask_rows"],
        "core.self_s": self_by_name["core.sweep"],
        "models.outcome_calls": count["models.outcome"],
        "models.outcome_points": counters["models.outcome_points"],
        "models.outcome_s": self_by_name["models.outcome"],
        "models.density_s": self_by_name["models.density"],
        "transition.report_s": inclusive["transition.full_report"],
        "transition.classify_s": classify["transition"],
        "inequalities.stats_s": inclusive["inequalities.stats_from_model"],
        "inequalities.classify_s": classify["inequalities"],
        "ordering.moc_s": inclusive["ordering.moc_demo"],
        "ordering.moc_measure_calls": count["ordering.moc_transition_measure"],
        "protocols.game_s": inclusive["protocols.simulate_game"],
        "protocols.game_runs": counters["protocols.game_runs"],
        "protocols.stream_s": inclusive["protocols.stream"],
        "protocols.signal_s": inclusive["protocols.marginal_shift"]
        + inclusive["protocols.detailed_balance"],
        "cli.commands": count["cli.command"],
        "cli.self_s": self_by_name["cli.command"],
    }
