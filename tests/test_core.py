"""Angles, schemes and the measure-estimation engine."""

from __future__ import annotations

import copy
import dataclasses
import inspect
import math
import pickle
import sys
import tracemalloc
import types
from typing import Callable, ClassVar

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import eprb_lab
from eprb_lab.core import (
    BLOCK_SIZE,
    CHUNK_SIZE,
    CONTEXT_LABELS,
    CONTEXTS,
    SETTINGS,
    TAU,
    Angle,
    AngleQuadruple,
    Distribution,
    GridCuts,
    GridScheme,
    HvModel,
    LambdaSpace,
    MeasureEstimate,
    MonteCarloScheme,
    as_lambda_point,
    context_outcomes,
    default_grid_resolution,
    derived_stream,
    estimate_measure,
    evaluate_pair,
    normalize_radians,
    probe_locality,
    record,
    sweep_statistics,
    theta_between,
    uniform_distribution,
)
from eprb_lab.models import biased_distribution, local_coin_model, singlet_model
from helpers import total_mass

SPACE = LambdaSpace(2)
UNIFORM = uniform_distribution(SPACE)

finite_angles = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def half_space(coords: np.ndarray) -> np.ndarray:
    return coords[..., 0] < 0.5


# ---------------------------------------------------------------------------
# Angles


def test_normalize_examples():
    assert normalize_radians(0.0) == 0.0
    assert normalize_radians(TAU) == 0.0
    assert normalize_radians(-math.pi) == pytest.approx(math.pi)
    assert normalize_radians(3 * TAU + 0.25) == pytest.approx(0.25)


@given(finite_angles)
def test_normalize_range_and_idempotence(x):
    value = normalize_radians(x)
    assert 0.0 <= value < TAU
    assert normalize_radians(value) == value


@given(finite_angles)
def test_normalize_preserves_direction(x):
    # the representative must point the same way as the input angle
    value = normalize_radians(x)
    assert math.cos(value) == pytest.approx(math.cos(x), abs=1e-9)
    assert math.sin(value) == pytest.approx(math.sin(x), abs=1e-9)


def test_angle_is_normalized_and_frozen():
    angle = Angle(-math.pi / 2)
    assert angle.radians == pytest.approx(1.5 * math.pi)
    with pytest.raises(AttributeError):
        angle.radians = 0.0
    with pytest.raises(ValueError):
        Angle(math.inf)


def test_theta_between_signed_representative():
    assert theta_between(Angle(0.0), Angle(1.5 * math.pi)) == pytest.approx(
        -1.5 * math.pi
    )
    assert theta_between(Angle(1.0), Angle(0.25)) == pytest.approx(0.75)


def test_chain_quadruple_layout():
    theta = 0.3
    quad = AngleQuadruple.chain(theta)
    assert quad.a.radians == pytest.approx(0.9)
    assert quad.a_prime.radians == pytest.approx(0.3)
    assert quad.b.radians == pytest.approx(0.6)
    assert quad.b_prime.radians == 0.0
    assert quad.context_thetas() == pytest.approx((0.3, -0.3, 0.3, 0.9))
    assert quad.named_angles()["a'"] is quad.a_prime


def test_contexts_walk_the_cycle():
    quad = AngleQuadruple(*(Angle(x) for x in (0.1, 0.2, 0.3, 0.4)))
    a, a_prime, b, b_prime = quad.a, quad.a_prime, quad.b, quad.b_prime
    assert quad.contexts() == ((a, b), (a_prime, b), (a_prime, b_prime), (a, b_prime))
    assert CONTEXT_LABELS == ("ab", "a'b", "a'b'", "ab'")
    # each context shares exactly one setting with the next, cyclically
    for here, there in zip(CONTEXTS, CONTEXTS[1:] + CONTEXTS[:1]):
        assert sum(x == y for x, y in zip(here, there)) == 1
    # each wing's settings in order of first use; choice 0 is the unprimed one
    assert SETTINGS == {"A": ("a", "a'"), "B": ("b", "b'")}


@given(st.floats(min_value=0.0, max_value=math.pi, allow_nan=False))
def test_chain_context_cosines(theta):
    # three contexts at separation theta, the fourth at 3*theta, even after
    # the normalization wraps the raw settings around the circle
    quad = AngleQuadruple.chain(theta)
    cosines = [math.cos(t) for t in quad.context_thetas()]
    assert cosines[0] == pytest.approx(math.cos(theta), abs=1e-9)
    assert cosines[1] == pytest.approx(math.cos(theta), abs=1e-9)
    assert cosines[2] == pytest.approx(math.cos(theta), abs=1e-9)
    assert cosines[3] == pytest.approx(math.cos(3 * theta), abs=1e-9)


# ---------------------------------------------------------------------------
# Spaces, schemes, estimates


def test_space_validation():
    with pytest.raises(ValueError):
        LambdaSpace(0)
    with pytest.raises(ValueError):
        LambdaSpace(-3)


def test_scheme_validation():
    with pytest.raises(ValueError):
        GridScheme(0)
    with pytest.raises(ValueError):
        MonteCarloScheme(n=0, seed=1)
    with pytest.raises(ValueError):
        MonteCarloScheme(n=10, seed=-1)
    with pytest.raises(ValueError):
        MonteCarloScheme(n=10, seed=2**64)
    assert GridScheme(256).label == "grid(256)"
    assert not hasattr(GridScheme(256), "seed")  # a grid has no seed
    assert MonteCarloScheme(n=10, seed=3).label == "monte_carlo(n=10,seed=3)"


def test_default_grid_resolution():
    assert default_grid_resolution(1) == 1024
    assert default_grid_resolution(2) == 1024
    assert default_grid_resolution(3) == 64
    assert default_grid_resolution(4) == 32
    assert default_grid_resolution(25) == 2


def test_measure_estimate_validation():
    with pytest.raises(ValueError):
        MeasureEstimate(1.2, 0.0)
    with pytest.raises(ValueError):
        MeasureEstimate(0.5, -0.1)
    # an estimate is its value and its error
    assert [field.name for field in dataclasses.fields(MeasureEstimate)] == ["value", "std_error"]


def test_grid_too_large_rejected():
    with pytest.raises(ValueError):
        estimate_measure(UNIFORM, half_space, GridScheme(1 << 14))


# ---------------------------------------------------------------------------
# Grid estimation


def test_grid_half_space_exact():
    est = estimate_measure(UNIFORM, half_space, GridScheme(1000))
    assert est.value == 0.5
    assert est.std_error == 0.0


def test_grid_trivial_indicators():
    scheme = GridScheme(200)
    nothing = estimate_measure(
        UNIFORM, lambda c: np.zeros(c.shape[0], dtype=bool), scheme
    )
    everything = estimate_measure(
        UNIFORM, lambda c: np.ones(c.shape[0], dtype=bool), scheme
    )
    assert nothing.value == 0.0
    assert everything.value == 1.0


def test_grid_complement_rule():
    # power-of-two cell count: both cell fractions are dyadic, so the
    # complement identity holds exactly in floating point
    scheme = GridScheme(128)

    def box(coords):
        return (coords[..., 0] < 0.37) & (coords[..., 1] < 0.81)

    inside = estimate_measure(UNIFORM, box, scheme).value
    outside = estimate_measure(UNIFORM, lambda c: ~box(c), scheme).value
    assert inside + outside == 1.0


def test_grid_normalization_exact():
    assert total_mass(UNIFORM, GridScheme(512)).value == 1.0


def test_grid_rectangle_quadrature():
    # midpoint rule on a power-of-two grid: dyadic thresholds land on cell
    # boundaries, so the rectangle measure comes out exact
    def rectangle(coords):
        return (coords[..., 0] < 0.25) & (coords[..., 1] < 0.75)

    est = estimate_measure(UNIFORM, rectangle, GridScheme(64))
    assert est.value == 0.25 * 0.75


# ---------------------------------------------------------------------------
# Monte Carlo estimation


def test_mc_threshold_measure_within_error():
    target = 0.8536
    scheme = MonteCarloScheme(n=200_000, seed=42)
    est = estimate_measure(UNIFORM, lambda c: c[..., 1] < target, scheme)
    expected_error = math.sqrt(target * (1 - target) / scheme.n)
    assert est.std_error == pytest.approx(expected_error, rel=0.1)
    assert abs(est.value - target) < 4 * est.std_error


def test_mc_bit_reproducible():
    scheme = MonteCarloScheme(n=50_000, seed=9)
    first = estimate_measure(UNIFORM, half_space, scheme)
    second = estimate_measure(UNIFORM, half_space, scheme)
    assert first.value == second.value
    assert first.std_error == second.std_error
    third = estimate_measure(UNIFORM, half_space, MonteCarloScheme(n=50_000, seed=10))
    assert third.value != first.value


def test_mc_spans_multiple_blocks():
    scheme = MonteCarloScheme(n=BLOCK_SIZE + 4321, seed=5)
    est = estimate_measure(UNIFORM, half_space, scheme)
    assert abs(est.value - 0.5) < 4 * est.std_error


def test_mc_trivial_indicator_zero_error():
    scheme = MonteCarloScheme(n=10_000, seed=0)
    est = estimate_measure(UNIFORM, lambda c: np.ones(c.shape[0], dtype=bool), scheme)
    assert est.value == 1.0
    assert est.std_error == 0.0


def test_derived_stream_separation():
    a = derived_stream(1, 0, 0).random(4)
    b = derived_stream(1, 0, 0).random(4)
    c = derived_stream(1, 1, 0).random(4)
    d = derived_stream(2, 0, 0).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


# Sweeps and the game draw each block's stream a chunk at a time; these
# sizes are not multiples of the four 64-bit words of one Philox counter.
CHUNKS = [5, 1, 4098, 3, 7, 65537]

STREAM_DRAWS = {
    "random-d1": lambda rng, m: rng.random((m, 1)),
    "random-d2": lambda rng, m: rng.random((m, 2)),
    "random-d3": lambda rng, m: rng.random((m, 3)),
    "coins": lambda rng, m: rng.integers(0, 2, m),
    "uniform-sampler": UNIFORM.sampler,
    **{
        f"biased-sampler-q{q}": biased_distribution(singlet_model(), q).sampler
        for q in (0.0, 0.3, 1.0)
    },
}


@pytest.mark.parametrize("draw", STREAM_DRAWS.values(), ids=STREAM_DRAWS.keys())
def test_chunked_draws_equal_one_draw(draw):
    chunked = derived_stream(7, 11, 2)
    pieces = [draw(chunked, m) for m in CHUNKS]
    whole = draw(derived_stream(7, 11, 2), sum(CHUNKS))
    assert np.array_equal(np.concatenate(pieces), whole)


def test_monte_carlo_blocks_start_at_once_for_any_n():
    # the spans of the blocks and their chunks are made one at a time, so the
    # first chunk of 10**12 samples (953,675 blocks) costs what it costs in a
    # short sweep
    tracemalloc.start()
    try:
        coords, sizes = next(next(MonteCarloScheme(10**12, 1).blocks(2, None)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20
    assert sizes is None
    assert np.array_equal(coords, derived_stream(1, 0, 0).random((CHUNK_SIZE, 2)))


def test_a_repeated_weight_sums_as_its_zero_stride_view():
    # the kernel sums a bin of n copies of one weight v as
    # np.broadcast_to(v, n).sum(), which must be the bits of the pairwise sum
    # of n stored copies, np.full(n, v).sum(), at every size: below and above
    # the pairwise unroll and block, around powers of two and at a whole block
    rng = np.random.default_rng(28)
    sizes = [*range(1, 301), *(2**k + d for k in range(2, 20) for d in (-1, 0, 1)), BLOCK_SIZE]
    values = [1.0, 0.4, 0.6, 1.4, 1.6, 2.0 / 3.0, 1e-300, 3.7e15, *rng.random(4) * 2.0]
    for v in map(np.float64, values):
        for n in sizes:
            for w in (v, v * v):
                assert np.broadcast_to(w, n).sum().tobytes() == np.full(n, w).sum().tobytes(), (n, w)


@pytest.mark.parametrize(
    "scheme, cuts",
    [
        (MonteCarloScheme(3 * CHUNK_SIZE + 5, seed=36), None),
        (GridScheme(256), None),
        (GridScheme(256), GridCuts(model="half", axes=((0.5,), (0.25, 0.75)))),
    ],
    ids=["monte-carlo", "grid", "grid-with-cuts"],
)
def test_sweep_chunks_are_column_major(scheme, cuts):
    # each coordinate column of a chunk is contiguous for the density and the
    # classifier alike; the points are those of the row-major layout
    seen = []

    def density(coords):
        seen.append(("density", coords.flags.f_contiguous, coords.copy()))
        return np.ones(coords.shape[:-1])

    def classify(coords):
        seen.append(("classifier", coords.flags.f_contiguous, None))
        return half_space(coords).view(np.uint8)

    dist = Distribution(space=SPACE, density=density, label="recording")
    histogram = sweep_statistics(dist, scheme, classify, 2, cuts=cuts)
    assert histogram.measure(np.array([False, True])).value == pytest.approx(0.5, abs=0.01)
    assert {who for who, _, _ in seen} == {"density", "classifier"}
    assert all(contiguous for _, contiguous, _ in seen)
    chunks = [coords for who, _, coords in seen if who == "density"]
    assert all(coords.ndim == 2 and coords.shape[1] == 2 for coords in chunks)
    if isinstance(scheme, MonteCarloScheme):
        assert [len(coords) for coords in chunks] == [CHUNK_SIZE] * 3 + [5]
        assert np.array_equal(np.concatenate(chunks), derived_stream(36, 0, 0).random((scheme.n, 2)))
    elif cuts is None:
        assert np.array_equal(np.concatenate(chunks)[:, 1], np.tile((np.arange(256) + 0.5) / 256, 256))


def test_bad_density_and_masks_rejected():
    bad = Distribution(
        space=SPACE,
        density=lambda c: -np.ones(c.shape[0]),
        label="negative",
    )
    with pytest.raises(ValueError, match="negative"):
        estimate_measure(bad, half_space, GridScheme(8))
    for value in (math.nan, math.inf):
        spiked = Distribution(
            space=SPACE, density=lambda c, v=value: np.where(c[:, 0] > 0.8, v, 1.0), label="spiked"
        )
        for scheme in (GridScheme(8), MonteCarloScheme(1000, seed=1)):
            with pytest.raises(ValueError, match="density of 'spiked' is not finite somewhere"):
                estimate_measure(spiked, half_space, scheme)
    long = Distribution(space=SPACE, density=lambda c: np.ones(c.shape[0] + 1), label="long")
    with pytest.raises(ValueError, match=r"shape \(65,\) for a block of shape \(64, 2\)"):
        estimate_measure(long, half_space, GridScheme(8))

    # sweep statistics insist on one integer bin in [0, n_stats) per point
    bad_classifiers = [
        ("integer bin codes", lambda c: c[:, 0]),
        ("integer bin codes", lambda c: np.ones(c.shape[0], dtype=bool)),
        ("one bin per point", lambda c: np.ones((3, c.shape[0]), dtype=np.int64)),
        ("one bin per point", lambda c: np.ones(c.shape[0] + 1, dtype=np.int64)),
        ("negative bin", lambda c: np.full(c.shape[0], -1)),
        ("not below n_stats", lambda c: np.full(c.shape[0], 2)),
    ]
    for message, classify in bad_classifiers:
        with pytest.raises(ValueError, match=message):
            sweep_statistics(UNIFORM, GridScheme(8), classify, 2)


# ---------------------------------------------------------------------------
# Model evaluation helpers


def test_as_lambda_point_validation():
    assert np.array_equal(as_lambda_point((0.25, 0.75), SPACE), [0.25, 0.75])
    with pytest.raises(ValueError):
        as_lambda_point((0.25,), SPACE)
    with pytest.raises(ValueError):
        as_lambda_point((0.25, 1.0), SPACE)
    with pytest.raises(ValueError):
        as_lambda_point((-0.1, 0.5), SPACE)


def test_evaluate_pair_and_context_outcomes():
    model = singlet_model()
    quad = AngleQuadruple.chain(math.pi / 4)
    lam = (0.3, 0.5)
    pair = evaluate_pair(model, quad.a, quad.b, lam)
    assert pair == (1, -1)
    contexts = context_outcomes(model, quad, np.array([lam]))
    assert (int(contexts[0][0][0]), int(contexts[0][1][0])) == pair


@pytest.mark.parametrize(
    "angles, n_pairs",
    [((0.1, 0.9, 0.3, 0.3), 2), ((0.1, 0.1, 0.3, 0.3), 1), ((0.1, 0.9, 0.3, 1.7), 4)],
)
def test_context_outcomes_evaluates_each_setting_pair_once(angles, n_pairs):
    # (a1, a2, b, b) repeats two contexts, so it costs 4 outcome calls, not 8;
    # the outcomes are still each context's own
    calls = []

    def counted(wing, fn):
        def outcome(a, b, coords):
            calls.append((wing, a, b))
            return fn(a, b, coords)

        return outcome

    singlet = singlet_model()
    model = HvModel(
        "counted", SPACE, counted("A", singlet.outcome_a), counted("B", singlet.outcome_b), UNIFORM
    )
    quad = AngleQuadruple(*map(Angle, angles))
    coords = derived_stream(5, 0, 0).random((1000, 2))
    contexts = context_outcomes(model, quad, coords)
    assert len(calls) == 2 * n_pairs
    assert len(set(calls)) == len(calls)
    assert len(contexts) == len(CONTEXTS)
    for (alice, bob), (va, vb) in zip(quad.contexts(), contexts):
        assert np.array_equal(va, model.outcome_a(alice, bob, coords))
        assert np.array_equal(vb, model.outcome_b(alice, bob, coords))


@pytest.mark.parametrize("coordinate", [math.nan, 1.0, -0.1])
def test_evaluate_pair_rejects_lambda_outside_the_cube(coordinate):
    # NaN fails every comparison, so only a check that every coordinate is inside refuses it
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\)"):
        evaluate_pair(singlet_model(), Angle(0), Angle(1), (coordinate, 0.3))


def test_evaluate_pair_rejects_wrong_dimension():
    model = singlet_model()
    with pytest.raises(ValueError):
        evaluate_pair(model, Angle(0), Angle(0), (0.1, 0.2, 0.3))


def test_outcome_contract_enforced():
    def zeros(a, b, coords):
        return np.zeros(coords.shape[0], dtype=np.int8)

    broken = HvModel(
        name="broken",
        space=SPACE,
        outcome_a=zeros,
        outcome_b=zeros,
        equilibrium=UNIFORM,
    )
    with pytest.raises(ValueError, match="not all"):
        evaluate_pair(broken, Angle(0), Angle(0), (0.1, 0.2))


def test_probes():
    assert probe_locality(local_coin_model(), n_probes=50)
    # B's outcome responds to the remote setting, so the probe must fail
    assert not probe_locality(singlet_model(), n_probes=200)


def test_probe_locality_checks_every_outcome():
    # outcomes of 0 ignore every setting, but they are not outcomes
    def zeros(a, b, coords):
        return np.zeros(coords.shape[0], dtype=np.int8)

    silent = HvModel("silent", SPACE, zeros, zeros, UNIFORM)
    with pytest.raises(ValueError, match="model 'silent' are not all"):
        probe_locality(silent)


def test_probe_locality_makes_four_outcome_calls_per_probe():
    calls = []

    def counted(fn):
        def outcome(a, b, coords):
            calls.append(fn)
            return fn(a, b, coords)

        return outcome

    coin = local_coin_model()
    model = HvModel("counted", SPACE, counted(coin.outcome_a), counted(coin.outcome_b), UNIFORM)
    assert probe_locality(model, n_probes=25)
    assert len(calls) == 4 * 25
    assert calls.count(coin.outcome_a) == calls.count(coin.outcome_b) == 2 * 25


def test_probe_locality_is_exported():
    from eprb_lab import probe_locality as exported

    assert exported is probe_locality


# ---------------------------------------------------------------------------
# Records: core.record against dataclass(frozen=True)


def _sample_distribution() -> Distribution:
    # builtins as the callables, so that an instance pickles
    return Distribution(space=SPACE, density=abs, label="flat", breakpoints=((), ()))


def _measure(value: float) -> MeasureEstimate:
    return MeasureEstimate(value, 0.0)


def _report_fields(sigma_minus: float) -> dict:
    sets = eprb_lab.TransitionSetId
    return dict(
        set_measures={sid: _measure(0.25) for sid in sets},
        partition_measures={sid: (_measure(0.125), _measure(0.125)) for sid in sets},
        region_measures={"F": _measure(0.5)},
        sigma_minus=_measure(sigma_minus),
        p_plus=(0.5, 0.5, 0.5, 0.5),
        marginals=((0.5, 0.5),) * 4,
    )


#: Each exported record class: the arguments of a sample instance, a change
#: that makes an unequal one, and arguments that its __post_init__ refuses
#: (None: it has no __post_init__).  No value is NaN, which equals only itself.
RECORD_SAMPLES = {
    "Angle": (dict(radians=1.0), dict(radians=2.0), dict(radians=math.inf)),
    "AngleQuadruple": (
        dict(a=Angle(0.1), a_prime=Angle(0.2), b=Angle(0.3), b_prime=Angle(0.4)),
        dict(b_prime=Angle(0.5)),
        None,
    ),
    "LambdaSpace": (dict(dimension=2), dict(dimension=3), dict(dimension=0)),
    "Distribution": (dict(space=SPACE, density=abs, label="flat"), dict(label="tilted"), None),
    "HvModel": (
        dict(name="m", space=SPACE, outcome_a=max, outcome_b=min,
             equilibrium=_sample_distribution()),
        dict(breakpoints=len),
        None,
    ),
    "SequentialModel": (
        dict(name="s", space=SPACE, equilibrium=_sample_distribution(), first_outcome=max,
             second_outcome=min),
        dict(name="t"),
        None,
    ),
    "GridScheme": (dict(resolution=8), dict(resolution=16), dict(resolution=0)),
    "MonteCarloScheme": (dict(n=100, seed=3), dict(seed=4), dict(n=100, seed=-1)),
    "MeasureEstimate": (
        dict(value=0.25, std_error=0.01), dict(std_error=0.0), dict(value=2.0, std_error=0.0)
    ),
    "ModelChoice": (dict(name="quantum"), dict(distribution=_sample_distribution()), None),
    "MembershipVector": (
        dict(in_set=(True, False, False, False), sign_pattern=(-1, 1, 1, 1)),
        dict(sign_pattern=(1, -1, 1, 1)),
        dict(in_set=(True,), sign_pattern=(-1,)),
    ),
    "TransitionReport": (_report_fields(0.5), dict(sigma_minus=_measure(0.25)), None),
    "JointStats": (
        dict(p_plus=(0.1, 0.2, 0.3, 0.4)),
        dict(p_plus=(0.4, 0.3, 0.2, 0.1)),
        dict(p_plus=(0.1, 0.2, 0.3, 1.5)),
    ),
    "HardyBounds": (dict(alpha=(-1.0,) * 4, beta=(-2.0,) * 4, x=1.5, y=0.5), dict(y=0.75), None),
    "ContradictionTrace": (
        dict(steps=(), consistent=True, escapes_used=()), dict(consistent=False), None
    ),
    "CommBlock": (
        dict(start=0, lam=np.zeros((2, 2)), key=np.arange(2, dtype=np.int64)), dict(start=2), None
    ),
    "CommSummary": (
        dict(seed=1, average_bits=0.5, bits_std_error=0.01, stats=eprb_lab.JointStats((0.5,) * 4),
             context_counts=(1, 2, 3, 4)),
        dict(seed=2),
        None,
    ),
    "MocReport": (
        dict(pair="p", wing="w", own=Angle(0.1), other=Angle(0.2), moc_measure=_measure(0.1),
             induced_sigma_minus=_measure(0.2), induced_bell_lhs=2.0, quantum_required=0.1),
        dict(induced_bell_lhs=2.5),
        None,
    ),
}


def test_record_samples_cover_every_exported_record():
    exported = {name for name in eprb_lab.__all__
                if isinstance(getattr(eprb_lab, name), type)
                and dataclasses.is_dataclass(getattr(eprb_lab, name))}
    assert set(RECORD_SAMPLES) == exported


def _frozen_twin(cls: type, module: types.ModuleType) -> type:
    """``@dataclass(frozen=True)`` made from the fields, defaults and
    ``__post_init__`` of record ``cls``, under its name in ``module``; a record
    made with ``eq=False`` gets ``eq=False``."""
    fields = dataclasses.fields(cls)
    namespace = {
        "__annotations__": {field.name: field.type for field in fields},
        "__module__": module.__name__,
        "__qualname__": cls.__qualname__,
        **{field.name: field.default for field in fields if field.default is not dataclasses.MISSING},
    }
    if "__post_init__" in vars(cls):
        namespace["__post_init__"] = cls.__post_init__
    eq = "__eq__" in vars(cls)
    twin = dataclasses.dataclass(frozen=True, eq=eq)(type(cls.__name__, (), namespace))
    setattr(module, cls.__qualname__, twin)  # so that pickle finds it
    return twin


def _outcome(action: Callable[[], object]) -> object:
    """What ``action`` returns, or the type and text of what it raises."""
    try:
        return action()
    except Exception as error:
        return type(error), str(error)


def _refusal(action: Callable[[], object]) -> type:
    with pytest.raises(Exception) as caught:
        action()
    return caught.type


def _behaviour(cls: type, kwargs: dict, change: dict, refused: dict | None) -> dict:
    """What a sample of ``cls`` shows, named: every entry is compared."""
    made, again, other = cls(**kwargs), cls(**kwargs), cls(**{**kwargs, **change})
    positional = cls(*[kwargs.get(f.name, f.default) for f in dataclasses.fields(cls)])
    replaced = dataclasses.replace(made, **change)
    copied, unpickled = copy.copy(made), pickle.loads(pickle.dumps(made))
    first = dataclasses.fields(cls)[0].name
    by_value = cls.__hash__ is not object.__hash__
    return {
        "fields": [(f.name, f.type, f.default) for f in dataclasses.fields(cls)],
        "match_args": cls.__match_args__,
        "signature": inspect.signature(cls),
        "reprs": [repr(x) for x in (made, other, positional, replaced, copied, unpickled)],
        "equal": [made == again, made == positional, replaced == other, copied == made,
                  unpickled == made],
        "unequal": [made == other, made != other, made == object()],
        "hash": (by_value, _outcome(lambda: hash(made)) if by_value else None,
                 _outcome(lambda: hash(made) == hash(again)) if by_value else None),
        "frozen": [_refusal(lambda: setattr(made, first, kwargs[first])),
                   _refusal(lambda: setattr(made, "extra", 1)),
                   _refusal(lambda: delattr(made, first))],
        "bad arguments": [_refusal(cls), _refusal(lambda: cls(**kwargs, extra=1)),
                          _refusal(lambda: cls(kwargs[first], **kwargs))],
        "post_init": None if refused is None else _outcome(lambda: cls(**refused)),
    }


@pytest.mark.parametrize("name", sorted(RECORD_SAMPLES))
def test_a_record_behaves_as_its_frozen_dataclass(name, monkeypatch):
    record_cls = getattr(eprb_lab, name)
    module = types.ModuleType("record_twins")
    monkeypatch.setitem(sys.modules, module.__name__, module)
    sample = RECORD_SAMPLES[name]
    ours = _behaviour(record_cls, *sample)
    assert ours == _behaviour(_frozen_twin(record_cls, module), *sample)
    # and the shared outcomes are the intended ones
    assert ours["frozen"] == [dataclasses.FrozenInstanceError] * 3
    assert ours["bad arguments"] == [TypeError] * 3
    assert ours["post_init"] is None or ours["post_init"][0] is ValueError
    eq = name != "CommBlock"
    assert ours["equal"] == [eq] * 5 and ours["unequal"] == [False, True, False]
    assert ours["hash"][0] is eq


@pytest.mark.parametrize(
    "namespace",
    [
        {"x": dataclasses.field(default=0, repr=False)},
        {"x": dataclasses.field(default_factory=list)},
        {"__annotations__": {"x": int, "y": ClassVar[int]}, "y": 0},
    ],
    ids=["repr-false", "default-factory", "class-var"],
)
def test_record_refuses_a_field_its_shared_methods_would_ignore(namespace):
    namespace = {"__annotations__": {"x": "int"}, **namespace}
    with pytest.raises(TypeError, match="plain default only"):
        record(type("Refused", (), namespace))
