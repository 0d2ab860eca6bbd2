"""Angles, schemes and the measure-estimation engine."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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
