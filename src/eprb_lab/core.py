"""Foundational types and the measure-estimation engine.

A deterministic two-wing model assigns outcomes A(a, b, lambda) and
B(a, b, lambda) in {+1, -1} to every pair of detector settings, where the
hidden variable lambda lives on the unit hypercube [0, 1)^d and carries a
probability density.  This module declares both model types, the
simultaneous :class:`HvModel` and the order-resolved :class:`SequentialModel`
that collapses into one, and checks their answers; :mod:`models` builds
them.  Everything downstream (transition sets, bound evaluation, the
communication game) reduces to measures of indicator-defined subsets of the
hypercube.  Each integration scheme class supplies its blocks of points and
its estimate rule, and the kernel names none:

* :class:`GridScheme`, a midpoint grid, exact for the axis-aligned threshold
  geometry of the built-in models, and
* :class:`MonteCarloScheme`, seeded Monte Carlo with counter-based streams,
  bit-reproducible and independent of how the samples split into blocks.

Breakpoint contract
-------------------
A model and a density may declare per-axis breakpoints (cut positions):
every outcome of the model, and the density, is constant on each open cell
between consecutive cuts.  The grid then splits each axis into runs of
consecutive midpoints, either all the midpoints strictly between two cuts or
one midpoint that equals a cut, and classifies one representative point per
box of runs, weighted by the box's size.  That gives the numbers of the full
midpoint grid (the same bytes on a uniform density) from a few points; the
corners of every box are classified too, so a declaration that misses a
change of outcome or density fails loudly.  Without a declaration every
midpoint is its own run, which is the full grid.

Batch convention
----------------
Outcome functions, densities and indicators accept a numpy array whose last
axis holds the coordinates of one lambda (shape ``(..., d)``) and return an
array of the leading shape.  The engine always calls them with 2-D chunks of
at most ``CHUNK_SIZE`` = ``2**14`` points (up to 16 axes with declared cuts).
A sweep's chunks are column-major, so each coordinate column is contiguous;
their shape and values are those of the row-major array, and a model or
density must not assume C order (the game's lambdas stay row-major).
A sweep runs in blocks of ``BLOCK_SIZE`` = ``2**20`` points, which fix every
random stream and every per-bin sum, and fills each block a chunk at a time.
Under Monte Carlo the blocks, their streams and their chunks come from one
driver, :func:`monte_carlo_chunks`: the sweeps draw their uniform points from
its domain 0, and the communication game (:mod:`protocols`) draws its
lambdas and its two setting coins from its domains 11-13.

Bin contract
------------
:func:`sweep_statistics` is a histogram kernel.  Its classifier maps a block
of points to one integer bin per point, in ``[0, n_stats)``; the kernel adds
up the density that falls in each bin (and, for Monte Carlo, the squared
density) and returns the totals as a :class:`Histogram`.  A statistic is a
boolean mask over the bins, which :meth:`Histogram.measure` turns into a
:class:`MeasureEstimate`, so every statistic is a view of one histogram.
The package fills two kinds: the 256 outcome patterns of a quadruple
(every transition-set measure, context statistic and signal-locality check,
all read off :func:`transition.full_report`), and the 4,096 codes of a
sequential model's ordering sets and first answers (see :mod:`ordering`);
:func:`estimate_measure` is the two-bin case for a bare indicator.  Per
block, each bin counts a run of one repeated weight without keeping it, and
keeps its weights, in block order, in an array grown chunk by chunk only
once a chunk breaks the run; no other array is a block long.
"""

from __future__ import annotations

import dataclasses
import inspect
import itertools
import math
from typing import Callable, Iterator, Sequence, Union

import numpy as np

TAU = 2.0 * math.pi

#: Fixed block size for grid and Monte Carlo sweeps.  Results do not depend
#: on it for the grid (pure summation) and not for Monte Carlo either, since
#: every block gets its own counter-derived stream; it is a constant so that
#: runs are bit-identical.
BLOCK_SIZE = 1 << 20

#: Points per chunk.  A block is drawn (or laid out), weighed and classified
#: one chunk at a time, so only one chunk's coordinates and outcome
#: temporaries are alive at once; the results are those of whole blocks,
#: whatever this size.  A chunk's working set is 35-53 bytes per point, so
#: 2**14 points (under 1 MiB) fit in a 2 MiB L2 cache.  It is not smaller
#: because each chunk costs 100-200 us of numpy calls whatever its size: a
#: 1.1M-sample Monte Carlo command takes 1-9 ms more CPU at 2**14 than at
#: 2**16, and 2**13 would add another 7-16 ms.
CHUNK_SIZE = 1 << 14

_MAX_GRID_CELLS = 1 << 26

# Grid sums of a rounded density may overshoot an exact unit measure by a few
# ulp; anything under this slack snaps back to 1, anything above it raises
# NumericalInvariantError.
_UNIT_SNAP = 1e-9

#: The measurement contexts as (Alice's, Bob's) setting names, in canonical
#: order.  Each context shares one setting with the next (cyclically), so the
#: four form the EPRB cycle, and transition set k links context k to k + 1.
CONTEXTS: tuple[tuple[str, str], ...] = (("a", "b"), ("a'", "b"), ("a'", "b'"), ("a", "b'"))

#: Each wing's setting names in order of first use in :data:`CONTEXTS`:
#: A's ("a", "a'") and B's ("b", "b'").  A wing's choice of setting is an
#: index into its names, and choice 0 is the unprimed setting.
SETTINGS = dict(zip("AB", (tuple(dict.fromkeys(names)) for names in zip(*CONTEXTS))))

#: The wing names, Alice's then Bob's: the order of every :data:`CONTEXTS`
#: pair.  Other modules find a wing by its place here, so none writes the order.
WINGS = tuple(SETTINGS)


def check_wing(wing: str) -> str:
    """``wing`` once it names a wing (one of :data:`WINGS`); ValueError otherwise."""
    if wing not in WINGS:  # a tuple, so an unhashable wing is refused too
        raise ValueError(f"wing must be one of {WINGS}, got {wing!r}")
    return wing


#: Context labels in canonical order: "ab", "a'b", "a'b'", "ab'".
CONTEXT_LABELS = tuple(alice + bob for alice, bob in CONTEXTS)


class NumericalInvariantError(RuntimeError):
    """A built-in mathematical identity failed beyond tolerance.

    Raised when computed data contradicts an identity that holds for every
    deterministic model (for example the sign-parity rule on the
    outcome-pattern table, or average bits below P(sigma_minus)), which
    signals a defect rather than a user error.
    """


def record(cls: type | None = None, *, eq: bool = True):
    """Make ``cls`` a frozen record, as ``@dataclass(frozen=True, eq=eq)`` does,
    from the one set of methods below: ``dataclass`` only records the fields,
    so importing the package compiles no generated methods.

    Fields are read from the class annotations, each with at most a plain
    default.  Instances bind their arguments to the fields in order, run
    ``__post_init__`` when the class has one, refuse to set or delete an
    attribute, repr as ``Name(field=value, ...)`` and, with ``eq``, compare
    and hash by the tuple of their fields.  ``dataclasses.fields``,
    ``replace`` and ``is_dataclass`` work on them.
    """
    if cls is None:
        return lambda cls: record(cls, eq=eq)
    dataclasses.dataclass(cls, init=False, repr=False, eq=False)
    fields = dataclasses.fields(cls)
    if len(fields) != len(cls.__dataclass_fields__) or any(
        field.default_factory is not dataclasses.MISSING or field.kw_only
        or not (field.init and field.repr and field.compare) or field.hash is not None
        for field in fields
    ):
        raise TypeError(f"the fields of record {cls.__qualname__} may have a plain default only")
    cls.__init__, cls.__repr__ = _record_init, _record_repr
    cls.__setattr__, cls.__delattr__ = _record_setattr, _record_delattr
    if eq:
        cls.__eq__, cls.__hash__ = _record_eq, _record_hash
    # the signature the generated __init__ would have, for inspect and help
    missing, empty = dataclasses.MISSING, inspect.Parameter.empty
    cls.__signature__ = inspect.Signature(
        [
            inspect.Parameter(
                field.name,
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
                default=empty if field.default is missing else field.default,
                annotation=field.type,
            )
            for field in fields
        ],
        return_annotation=None,
    )
    return cls


def _record_init(self, *args: object, **kwargs: object) -> None:
    cls = type(self)
    fields = cls.__dataclass_fields__
    if len(args) > len(fields):
        raise TypeError(
            f"{cls.__qualname__}() takes {len(fields)} arguments but {len(args)} were given"
        )
    values = dict(zip(fields, args))
    for name, value in kwargs.items():
        if name in values or name not in fields:
            problem = "multiple values for" if name in values else "an unexpected keyword"
            raise TypeError(f"{cls.__qualname__}() got {problem} argument {name!r}")
        values[name] = value
    for name, field in fields.items():
        value = values.get(name, field.default)
        if value is dataclasses.MISSING:
            raise TypeError(f"{cls.__qualname__}() missing required argument {name!r}")
        object.__setattr__(self, name, value)
    if hasattr(cls, "__post_init__"):
        self.__post_init__()


def _record_values(self) -> tuple:
    return tuple(map(getattr, itertools.repeat(self), type(self).__dataclass_fields__))


def _record_repr(self) -> str:
    fields = (f"{name}={getattr(self, name)!r}" for name in type(self).__dataclass_fields__)
    return f"{type(self).__qualname__}({', '.join(fields)})"


def _record_setattr(self, name: str, value: object) -> None:
    raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")


def _record_delattr(self, name: str) -> None:
    raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")


def _record_eq(self, other: object) -> bool:
    if type(other) is not type(self):
        return NotImplemented
    return _record_values(self) == _record_values(other)


def _record_hash(self) -> int:
    return hash(_record_values(self))


def normalize_radians(radians: float) -> float:
    """Map a finite angle to its representative in [0, 2*pi)."""
    value = float(radians)
    if not math.isfinite(value):
        raise ValueError(f"angle must be finite, got {value!r}")
    value = math.fmod(value, TAU)
    if value < 0.0:
        value += TAU
    # adding TAU to a tiny negative rounds to TAU itself; fold it back
    if value >= TAU:
        value = 0.0
    return value


@record
class Angle:
    """A detector setting in radians, stored normalized into [0, 2*pi)."""

    radians: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "radians", normalize_radians(self.radians))


def theta_between(x: Angle, y: Angle) -> float:
    """Signed separation between two settings, as fed to cos(theta).

    The representative is the raw difference of the stored normalized
    values, a number in (-2*pi, 2*pi).  Only its cosine is consumed
    downstream, so the representative choice is immaterial as long as it is
    used consistently; this one is.
    """
    return x.radians - y.radians


@record
class AngleQuadruple:
    """The four settings a, a' (left wing) and b, b' (right wing).

    Degenerate quadruples with repeated angles are allowed.  The four
    measurement contexts are enumerated in the canonical order of
    :data:`CONTEXTS`.
    """

    a: Angle
    a_prime: Angle
    b: Angle
    b_prime: Angle

    @classmethod
    def chain(cls, theta: float) -> "AngleQuadruple":
        """Quadruple with a-b = b-a' = a'-b' = theta, hence a-b' = 3*theta."""
        if not math.isfinite(3.0 * theta):
            raise ValueError(f"theta must be finite, and so must 3*theta, got {theta!r}")
        return cls(
            a=Angle(3.0 * theta),
            a_prime=Angle(theta),
            b=Angle(2.0 * theta),
            b_prime=Angle(0.0),
        )

    def contexts(self) -> tuple[tuple[Angle, Angle], ...]:
        """(alice, bob) setting pairs in canonical context order."""
        named = self.named_angles()
        return tuple((named[alice], named[bob]) for alice, bob in CONTEXTS)

    def context_thetas(self) -> tuple[float, float, float, float]:
        """theta_between(alice, bob) for each context, canonical order."""
        ts = tuple(theta_between(alice, bob) for alice, bob in self.contexts())
        return ts  # type: ignore[return-value]

    def named_angles(self) -> dict[str, Angle]:
        return {"a": self.a, "a'": self.a_prime, "b": self.b, "b'": self.b_prime}


@record
class LambdaSpace:
    """The hidden-variable space [0, 1)^dimension."""

    dimension: int

    def __post_init__(self) -> None:
        if not isinstance(self.dimension, int) or self.dimension < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.dimension!r}")


DensityFn = Callable[[np.ndarray], np.ndarray]
# a string, so that importing this module does not import numpy.random
SamplerFn = Callable[["np.random.Generator", int], np.ndarray]

#: Per-axis cut positions: one tuple of floats per axis of the space.
Cuts = tuple[tuple[float, ...], ...]

#: ``breakpoints(angles)`` of a model: its cuts for any setting pair drawn
#: from ``angles``.
BreakpointsFn = Callable[[Sequence[Angle]], Cuts]


@record
class Distribution:
    """A probability density on a :class:`LambdaSpace`.

    ``density`` follows the batch convention and must be non-negative with
    total mass 1 over the hypercube.  ``sampler``, when present, draws exact
    samples ``(rng, n) -> array (n, d)``; it is required only by consumers
    that need realized lambdas (the communication game) rather than
    integrals, which are always density-weighted uniform sweeps.  It is
    called repeatedly on one stream, a chunk at a time, and consecutive
    calls must return what one call for their total would; both built-in
    samplers do, since they transform ``rng.random((n, d))`` row by row.

    ``breakpoints``, when present, holds one tuple of cut positions per axis
    such that the density is constant on each open cell between the cuts
    (an empty tuple: constant along that axis); None declares nothing.
    """

    space: LambdaSpace
    density: DensityFn
    label: str
    sampler: SamplerFn | None = None
    breakpoints: Cuts | None = None


def uniform_distribution(space: LambdaSpace) -> Distribution:
    def density(coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=np.float64)
        return np.ones(coords.shape[:-1], dtype=np.float64)

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.random((n, space.dimension))

    return Distribution(
        space=space,
        density=density,
        label="equilibrium",
        sampler=sampler,
        breakpoints=((),) * space.dimension,
    )


OutcomeFn = Callable[[Angle, Angle, np.ndarray], np.ndarray]


@record
class HvModel:
    """A deterministic outcome-function pair over a hidden-variable space.

    ``outcome_a(a, b, coords)`` and ``outcome_b(a, b, coords)`` follow the
    batch convention and must return one +1/-1 per point, of any numeric
    dtype.  :meth:`outcome` is the way to ask for them: it checks that rule.
    The model is local when outcome_a ignores b and outcome_b ignores a,
    which :func:`probe_locality` checks.

    ``breakpoints(angles)``, when present, returns one tuple of cut
    positions per axis such that both outcomes, at every setting pair drawn
    from ``angles``, are constant on each open cell between the cuts; None
    declares nothing.
    """

    name: str
    space: LambdaSpace
    outcome_a: OutcomeFn
    outcome_b: OutcomeFn
    equilibrium: Distribution
    breakpoints: BreakpointsFn | None = None

    def outcome(self, wing: str, a: Angle, b: Angle, coords: np.ndarray) -> np.ndarray:
        """The outcomes of wing "A" or "B" at (a, b), checked to be one
        +1/-1 per point; ValueError names the wing and the model."""
        fn = self.outcome_a if check_wing(wing) == "A" else self.outcome_b
        return _checked_values(fn(a, b, coords), coords, self.name, wing)


FirstOutcomeFn = Callable[[str, Angle, np.ndarray], np.ndarray]
SecondOutcomeFn = Callable[[str, Angle, Angle, np.ndarray, np.ndarray], np.ndarray]


@record
class SequentialModel:
    """A model whose outcomes may depend on the measurement order.

    ``first_outcome(wing, own_setting, coords)`` is the outcome of the wing
    measured first; its signature carries no information about the other
    wing's setting, which encodes the free-choice assumption for the later
    measurement.  ``second_outcome(wing, own_setting, other_setting,
    first_value, coords)`` is the outcome of the wing measured second, given
    the first wing's realized outcome.  Wings are named "A" and "B".
    :meth:`first` and :meth:`second` are the way to ask for them: each
    checks that the answer is one +1/-1 per point, of any numeric dtype.

    ``breakpoints(angles)``, when present, returns one tuple of cut
    positions per axis such that every first and second outcome, at every
    setting pair drawn from ``angles`` and either first value, is constant
    on each open cell between the cuts; None declares nothing.
    """

    name: str
    space: LambdaSpace
    equilibrium: Distribution
    first_outcome: FirstOutcomeFn
    second_outcome: SecondOutcomeFn
    breakpoints: BreakpointsFn | None = None

    def first(self, wing: str, own: Angle, coords: np.ndarray) -> np.ndarray:
        """``wing``'s checked outcomes at ``own`` when it is measured first."""
        answer = self.first_outcome(check_wing(wing), own, coords)
        return _checked_values(answer, coords, self.name, wing)

    def second(
        self, wing: str, own: Angle, other: Angle, first: np.ndarray, coords: np.ndarray
    ) -> np.ndarray:
        """``wing``'s checked outcomes at ``own`` when it is measured second,
        after its companion answered ``first`` at ``other``."""
        answer = self.second_outcome(check_wing(wing), own, other, first, coords)
        return _checked_values(answer, coords, self.name, wing)


@record
class GridScheme:
    """Midpoint rule on resolution^dimension cells; deterministic and exact
    for piecewise-constant integrands whose thresholds avoid cell centers."""

    resolution: int

    def __post_init__(self) -> None:
        if not isinstance(self.resolution, int) or self.resolution <= 0:
            raise ValueError(f"grid resolution must be a positive integer, got {self.resolution!r}")

    @property
    def label(self) -> str:
        return f"grid({self.resolution})"

    def blocks(self, dimension: int, cuts: GridCuts | None) -> Iterator[Chunks]:
        """Blocks of run boxes, each an iterator of chunks ``(coords, sizes)``.

        A box is one run per axis (:func:`_axis_runs`), in row-major order; it
        holds ``sizes[j]`` midpoints.  ``coords`` stacks the box corners: the
        first or last midpoint of the box's run on every axis whose runs are not
        all single midpoints.  Its first ``len(sizes)`` rows are the all-first
        corners, the boxes' representatives; each further group of that many
        rows is another corner of the same boxes.  A block holds up to
        ``BLOCK_SIZE`` corners and a chunk up to ``CHUNK_SIZE``.  When every box
        is a single midpoint (always without cuts) ``sizes`` is None and the
        blocks are the full grid in blocks of ``BLOCK_SIZE``.
        """
        resolution = self.resolution
        if resolution**dimension > _MAX_GRID_CELLS:
            raise ValueError(
                f"grid of {resolution}^{dimension} = {resolution**dimension} cells exceeds "
                f"the {_MAX_GRID_CELLS}-cell limit; lower the resolution"
            )
        axes = (None,) * dimension if cuts is None else cuts.axes
        runs = [_axis_runs(resolution, axis_cuts) for axis_cuts in axes]
        wide = [axis for axis, (_, _, lengths) in enumerate(runs) if np.any(lengths > 1)]
        n_corners = 1 << len(wide)
        n_boxes = math.prod(len(lengths) for _, _, lengths in runs)

        def boxes(start: int, stop: int) -> tuple[np.ndarray, np.ndarray | None]:
            flat = np.arange(start, stop, dtype=np.int64)
            # laid out column-major: axis, corner, box
            coords = np.empty((dimension, n_corners, stop - start), dtype=np.float64)
            sizes = np.ones(stop - start, dtype=np.int64) if wide else None
            for axis in range(dimension - 1, -1, -1):
                firsts, lasts, lengths = runs[axis]
                flat, run = np.divmod(flat, len(lengths))
                coords[axis] = firsts[run]
                if axis in wide:
                    sizes *= lengths[run]
                    bit = 1 << wide.index(axis)
                    coords[axis, [c for c in range(n_corners) if c & bit]] = lasts[run]
            return coords.reshape(dimension, -1).T, None if sizes is None else sizes.astype(np.float64)

        step, chunk = (max(1, size // n_corners) for size in (BLOCK_SIZE, CHUNK_SIZE))
        for start, stop in _spans(0, n_boxes, step):
            yield itertools.starmap(boxes, _spans(start, stop, chunk))

    def estimate(self, total: float, squares: float, dimension: int) -> tuple[float, float]:
        """The selected sum over the cell count, snapped to 1 within
        ``_UNIT_SNAP`` above it and raising further above, and error 0."""
        value = total / float(self.resolution) ** dimension
        if value > 1.0 + _UNIT_SNAP:
            raise NumericalInvariantError(
                f"{self.label} gives a measure of {float(value)!r}, above 1: a density "
                "or outcome step lies on a cell midpoint"
            )
        return min(value, 1.0), 0.0


@record
class MonteCarloScheme:
    """Mean over n uniform samples from a seeded counter-based generator."""

    n: int
    seed: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n <= 0:
            raise ValueError(f"sample count must be a positive integer, got {self.n!r}")
        check_seed(self.seed)

    @property
    def label(self) -> str:
        return f"monte_carlo(n={self.n},seed={self.seed})"

    def blocks(self, dimension: int, cuts: GridCuts | None) -> Iterator[Chunks]:
        """``n`` uniform samples in blocks of chunks, from domain 0 of
        :func:`monte_carlo_chunks`, drawn a chunk at a time as ``(coords, None)``;
        ``cuts`` is ignored."""
        for (stream,), spans in monte_carlo_chunks(self.n, self.seed, (0,)):
            # a new tuple per chunk, so the sweep holds the only reference to its draw
            yield ((stream.random((hi - lo, dimension)), None) for lo, hi in spans)

    def estimate(self, total: float, squares: float, dimension: int) -> tuple[float, float]:
        """The sample mean clipped to [0, 1], with the ddof=1 error of the
        unclipped mean."""
        n, value = self.n, total / self.n
        error = math.sqrt(max(squares - n * value * value, 0.0) / (n - 1) / n) if n > 1 else 0.0
        return min(max(value, 0.0), 1.0), error


Scheme = Union[GridScheme, MonteCarloScheme]


def default_grid_resolution(dimension: int) -> int:
    """1024 cells per axis up to dimension 2, shrinking powers of two above."""
    if dimension <= 2:
        return 1024
    return 2 ** max(1, 20 // dimension)


@record
class MeasureEstimate:
    """A measure value in [0, 1] with its standard error."""

    value: float
    std_error: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"measure value must lie in [0, 1], got {self.value!r}")
        if self.std_error < 0.0:
            raise ValueError(f"std_error must be non-negative, got {self.std_error!r}")


def check_seed(seed: int) -> None:
    if not isinstance(seed, int) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def derived_stream(seed: int, domain: int, block_index: int) -> np.random.Generator:
    """Counter-based generator for one (seed, domain, block) triple.

    The key holds (seed, domain); the block index sits in the highest
    counter word, so the streams of different blocks can never overlap and
    the result of a partitioned sweep does not depend on the partitioning.
    """
    check_seed(seed)
    key = np.array([seed, domain], dtype=np.uint64)
    counter = np.zeros(4, dtype=np.uint64)
    counter[3] = block_index
    return np.random.Generator(np.random.Philox(key=key, counter=counter))


@record
class GridCuts:
    """The merged cuts of one sweep's model and density, per axis, sorted."""

    model: str
    axes: Cuts


def declared_cuts(
    model: HvModel | SequentialModel, dist: Distribution, angles: Sequence[Angle]
) -> GridCuts | None:
    """The cuts of ``model`` at ``angles`` merged with those of ``dist``, or
    None when either declares nothing."""
    if model.breakpoints is None or dist.breakpoints is None:
        return None
    dimension = dist.space.dimension
    declared = (model.breakpoints(tuple(angles)), dist.breakpoints)
    for owner, cuts in zip((f"model {model.name!r}", f"density {dist.label!r}"), declared):
        if len(cuts) != dimension:
            raise ValueError(
                f"{owner} declares breakpoints for {len(cuts)} axes, expected {dimension}"
            )
        if not all(math.isfinite(cut) for axis in cuts for cut in axis):
            raise ValueError(f"{owner} declares a breakpoint that is not finite")
    axes = tuple(
        tuple(sorted(set(map(float, model_axis)) | set(map(float, dist_axis))))
        for model_axis, dist_axis in zip(*declared)
    )
    return GridCuts(model=model.name, axes=axes)


def _axis_runs(
    resolution: int, cuts: Sequence[float] | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First midpoint, last midpoint and length of each run of one grid axis.

    A run is all the midpoints strictly between two consecutive cuts, or one
    midpoint that equals a cut; without cuts every midpoint is its own run.
    """
    index = np.arange(resolution, dtype=np.int64)
    midpoints = (index + 0.5) / resolution
    if cuts is None:
        firsts = index
    else:
        ordered = np.asarray(cuts, dtype=np.float64)
        # even for a midpoint strictly between cuts, odd for one on a cut
        cell = np.searchsorted(ordered, midpoints, "left") + np.searchsorted(
            ordered, midpoints, "right"
        )
        firsts = np.flatnonzero(np.diff(cell, prepend=-1))
    lasts = np.append(firsts[1:] - 1, resolution - 1)
    return midpoints[firsts], midpoints[lasts], lasts - firsts + 1


#: The chunks of one block of a sweep, each ``(coords, sizes)`` as
#: :meth:`GridScheme.blocks` describes.
Chunks = Iterator[tuple[np.ndarray, np.ndarray | None]]


def _spans(start: int, stop: int, size: int) -> Iterator[tuple[int, int]]:
    """The ``[lo, hi)`` pieces of at most ``size`` that tile ``[start, stop)``, made lazily."""
    return ((lo, min(lo + size, stop)) for lo in range(start, stop, size))


def monte_carlo_chunks(
    n: int, seed: int, domains: Sequence[int]
) -> Iterator[tuple[tuple[np.random.Generator, ...], Iterator[tuple[int, int]]]]:
    """The plan of every Monte Carlo consumer of ``n`` draws: per block of
    ``BLOCK_SIZE`` draws, the block's :func:`derived_stream` for each of
    ``domains`` and the block's ``[lo, hi)`` chunk spans of at most
    ``CHUNK_SIZE``, both made lazily, so a (seed, n) pair fixes every draw."""
    for block_index, (start, stop) in enumerate(_spans(0, n, BLOCK_SIZE)):
        streams = tuple(derived_stream(seed, domain, block_index) for domain in domains)
        yield streams, _spans(start, stop, CHUNK_SIZE)


ClassifierFn = Callable[[np.ndarray], np.ndarray]


class Histogram:
    """Per-bin totals of one sweep, the two rows of ``totals``: sums of the
    density and, for Monte Carlo, sums of its square; every statistic is a view."""

    def __init__(self, totals: np.ndarray, scheme: Scheme, dimension: int):
        self.totals, self.scheme, self.dimension = totals, scheme, dimension

    def measure(self, bins: np.ndarray) -> MeasureEstimate:
        """The measure of the union of the bins that the boolean mask ``bins``
        selects, by the scheme's estimate rule from the selected totals."""
        # np.add.reduce is ndarray.sum, the same pairwise sum per contiguous row,
        # without the cost of its wrapper, which a report pays once per statistic
        total, squares = np.add.reduce(np.where(bins, self.totals, 0.0), axis=1)
        value, error = self.scheme.estimate(total, squares, self.dimension)
        return MeasureEstimate(float(value), float(error))


def sweep_statistics(
    dist: Distribution,
    scheme: Scheme,
    masks_fn: ClassifierFn,
    n_stats: int,
    *,
    cuts: GridCuts | None = None,
) -> Histogram:
    """The density-weighted histogram of one sweep over ``n_stats`` bins.

    ``masks_fn(coords)`` classifies a block of points with shape (m, d): it
    returns an integer array of shape (m,) holding one bin in
    ``[0, n_stats)`` per point.  The sweep adds up, per bin, the density of
    the points that land in it, and for Monte Carlo the squared density too;
    :meth:`Histogram.measure` reads any union of bins off the result.  The
    kernel and its parameters keep their names, ``masks_fn`` and ``n_stats``
    among them, because the benchmark's tracer (``bench/tracer.py``) binds
    them by name.

    Each bin total of a block is exactly numpy's pairwise
    ``weights[codes == bin].sum()`` over the whole block, whatever the chunk
    size (see ``CHUNK_SIZE``).  Each bin holds a pending run: a count of
    copies of one weight.  A chunk in which every point weighs its bin's
    one value, and each bin it hits has no run or a run of that value, only
    adds to the runs; a chunk of one weight throughout is seen without a
    per-point scatter.  Any other chunk is sorted stably by bin, and appends
    each bin's slice, after the bin's run, to that bin's array.  So the array
    ends as the bin's slice of the block sorted stably by bin.  A bin that
    met only a run of n copies of v adds ``np.broadcast_to(v, n).sum()``, the
    same pairwise sum over a zero-stride view, which allocates nothing.

    With a grid and ``cuts`` (see :func:`declared_cuts` and the breakpoint
    contract in the module docstring) the sweep classifies one point per box
    of runs, weighted by density times box size, and raises
    :class:`NumericalInvariantError` when the corners of a box disagree in
    bin or density; the totals are those of the full grid, the same bits on
    a uniform density.  Monte Carlo ignores ``cuts``.
    """
    dimension = dist.space.dimension
    blocks = scheme.blocks(dimension, cuts)
    totals = np.zeros((2, n_stats), dtype=np.float64)
    sums, squares = totals

    def add_block(chunks: Chunks) -> None:
        # per bin: a run of ``runs`` copies of ``run_value`` not yet in ``kept``,
        # and the weights in block order
        runs = np.zeros(n_stats, dtype=np.int64)
        run_value = np.zeros(n_stats, dtype=np.float64)
        kept: dict[int, np.ndarray] = {}
        for coords, sizes in chunks:
            # column-major: a Monte Carlo draw is copied, and freed here
            coords = np.asfortranarray(coords)
            weights = _density_values(dist, coords)
            codes = _bin_codes(masks_fn, coords, n_stats)
            if sizes is not None:
                codes, weights = _box_values(coords, codes, weights, sizes, cuts, dist)
            counts = np.bincount(codes, minlength=n_stats)
            hit = counts > 0
            # each bin's one weight in this chunk, if it has one; a chunk of
            # one weight throughout needs no per-point scatter
            if len(weights) and (weights == weights[0]).all():
                value, repeated = weights[0], True
            else:
                value = np.zeros(n_stats, dtype=np.float64)
                value[codes] = weights
                repeated = (weights == value[codes]).all()
            if repeated and not (hit & (runs > 0) & (run_value != value)).any():
                runs += counts
                np.copyto(run_value, value, where=hit)
                continue
            # the classifier's own dtype keeps the stable argsort a radix sort
            ordered = weights[np.argsort(codes, kind="stable")]
            stops = np.cumsum(counts)
            for k in np.flatnonzero(counts).tolist():
                piece = ordered[stops[k] - counts[k] : stops[k]]
                kept[k] = _extended(kept.get(k), runs[k], run_value[k], piece)
                runs[k] = 0
        for k, part in kept.items():
            if runs[k]:
                part = _extended(part, runs[k], run_value[k], np.empty(0))
                runs[k] = 0
            sums[k] += part.sum()
            squares[k] += np.multiply(part, part, out=part).sum()
        # the bins that met only a run: numpy's pairwise sum of a zero-stride view
        for k in np.flatnonzero(runs).tolist():
            v = run_value[k]
            sums[k] += np.broadcast_to(v, runs[k]).sum()
            squares[k] += np.broadcast_to(v * v, runs[k]).sum()

    for chunks in blocks:
        add_block(chunks)
    return Histogram(totals, scheme, dimension)


def _extended(kept: np.ndarray | None, n_run: int, value: float, piece: np.ndarray) -> np.ndarray:
    """``kept`` (None: empty), then ``n_run`` copies of ``value``, then ``piece``:
    ``kept`` grows by a reallocation, never beside a copy, so no view of it may exist."""
    kept = np.empty(0) if kept is None else kept
    start = len(kept)
    kept.resize(start + n_run + len(piece), refcheck=False)
    kept[start : start + n_run] = value
    kept[start + n_run :] = piece
    return kept


def _box_values(
    coords: np.ndarray,
    codes: np.ndarray,
    weights: np.ndarray,
    sizes: np.ndarray,
    cuts: GridCuts | None,
    dist: Distribution,
) -> tuple[np.ndarray, np.ndarray]:
    """The bin of each box's representative and its density times the box
    size, once every corner of the box agrees with it on bin and density."""
    assert cuts is not None  # boxes larger than one midpoint come from cuts
    codes = codes.reshape(-1, len(sizes))
    weights = weights.reshape(-1, len(sizes))
    for values, culprit in (
        (codes, f"the outcomes of model {cuts.model!r} change"),
        (weights, f"density {dist.label!r} changes"),
    ):
        differs = np.any(values != values[0], axis=0)
        if np.any(differs):
            box = int(np.flatnonzero(differs)[0])
            raise NumericalInvariantError(
                f"{culprit} inside the grid cell of lambda = {coords[box].tolist()} "
                "between its declared breakpoints"
            )
    return codes[0], weights[0] * sizes


def _density_values(dist: Distribution, coords: np.ndarray) -> np.ndarray:
    weights = np.asarray(dist.density(coords), dtype=np.float64)
    if weights.shape != coords.shape[:-1]:
        raise ValueError(
            f"density returned shape {weights.shape} for a block of shape {coords.shape}"
        )
    if (weights < 0.0).any():
        raise ValueError(f"density of {dist.label!r} is negative somewhere")
    if not np.isfinite(weights).all():
        raise ValueError(f"density of {dist.label!r} is not finite somewhere")
    return weights


def _bin_codes(masks_fn: ClassifierFn, coords: np.ndarray, n_stats: int) -> np.ndarray:
    codes = np.asarray(masks_fn(coords))
    if not np.issubdtype(codes.dtype, np.integer):
        raise ValueError(f"classifier must return integer bin codes, got {codes.dtype}")
    if codes.shape != (coords.shape[0],):
        raise ValueError(
            f"classifier must return one bin per point, shape ({coords.shape[0]},), "
            f"got shape {codes.shape}"
        )
    if codes.size and codes.min() < 0:
        raise ValueError(f"classifier returned a negative bin {codes.min()}")
    if codes.size and codes.max() >= n_stats:
        raise ValueError(f"classifier returned bin {codes.max()}, not below n_stats = {n_stats}")
    return codes


IndicatorFn = Callable[[np.ndarray], np.ndarray]


def estimate_measure(dist: Distribution, indicator: IndicatorFn, scheme: Scheme) -> MeasureEstimate:
    """Measure of ``{lambda : indicator(lambda)}`` under ``dist``: bin 1 of two.
    No command runs it; its one caller is :func:`ordering.moc_transition_measure`."""

    def masks_fn(coords: np.ndarray) -> np.ndarray:
        return np.asarray(indicator(coords), dtype=bool).astype(np.uint8)

    return sweep_statistics(dist, scheme, masks_fn, 2).measure(np.array([False, True]))


def in_unit_cube(points: np.ndarray) -> bool:
    """Whether every coordinate lies in [0, 1); NaN does not."""
    return bool(np.all((points >= 0.0) & (points < 1.0)))


def as_lambda_point(lam: object, space: LambdaSpace) -> np.ndarray:
    """Validate one lambda as a float vector of the space's dimension."""
    point = np.asarray(lam, dtype=np.float64)
    if point.shape != (space.dimension,):
        raise ValueError(
            f"lambda has shape {point.shape}, expected ({space.dimension},)"
        )
    if not in_unit_cube(point):
        raise ValueError(f"lambda coordinates must lie in [0, 1), got {point!r}")
    return point


def context_outcomes(
    model: HvModel, quadruple: AngleQuadruple, coords: np.ndarray
) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Evaluate (A, B) in all four contexts for a block of points, each
    distinct setting pair once: a quadruple with repeated angles repeats a
    context, as (a1, a2, b, b) repeats two."""
    evaluated: dict[tuple[Angle, Angle], tuple[np.ndarray, np.ndarray]] = {}
    for pair in quadruple.contexts():
        if pair not in evaluated:
            evaluated[pair] = (model.outcome("A", *pair, coords), model.outcome("B", *pair, coords))
    return tuple(evaluated[pair] for pair in quadruple.contexts())


def _checked_values(values: object, coords: np.ndarray, name: str, wing: str) -> np.ndarray:
    """``values`` as an array, once it holds one +1/-1 outcome per point."""
    values = np.asarray(values)
    if values.shape != coords.shape[:-1]:
        raise ValueError(
            f"{wing} outcomes of model {name!r} have shape {values.shape} "
            f"for a block of shape {coords.shape}"
        )
    if not (np.abs(values) == 1).all():
        raise ValueError(f"{wing} outcomes of model {name!r} are not all +1/-1")
    return values


def evaluate_pair(model: HvModel, a: Angle, b: Angle, lam: object) -> tuple[int, int]:
    """Both wings' outcomes at one setting pair and one lambda."""
    block = as_lambda_point(lam, model.space).reshape(1, -1)
    return int(model.outcome("A", a, b, block)[0]), int(model.outcome("B", a, b, block)[0])


def probe_locality(model: HvModel, n_probes: int = 1000, seed: int = 2024) -> bool:
    """Check that each wing's outcome ignores the other wing's setting.

    Draws n random (a, a', b, b', lambda) tuples; True if outcome_a never
    responds to the b swap and outcome_b never responds to the a swap.  Each
    probe is one :func:`evaluate_pair` at (a, b), then A at (a, b') and B at
    (a', b) on the same point: four outcome calls, each checked, so one that
    is not +1/-1 raises ValueError naming the model.
    """
    rng = derived_stream(seed, 102, 0)
    for _ in range(n_probes):
        a = Angle(float(rng.random()) * TAU)
        a_alt = Angle(float(rng.random()) * TAU)
        b = Angle(float(rng.random()) * TAU)
        b_alt = Angle(float(rng.random()) * TAU)
        lam = rng.random(model.space.dimension)
        value_a, value_b = evaluate_pair(model, a, b, lam)
        block = lam.reshape(1, -1)
        moved_a = model.outcome("A", a, b_alt, block)[0]
        moved_b = model.outcome("B", a_alt, b, block)[0]
        if moved_a != value_a or moved_b != value_b:
            return False
    return True
