"""The outcome-pattern histogram against the per-statistic boolean-mask sums.

The reference below is the kernel the histogram replaced: one boolean mask
per statistic and ``weights[mask].sum()`` per block.  With uniform density
every sum is an exact count, so the two must agree to the bit.  With a
biased density each histogram statistic adds at most 128 pairwise-accurate
bin totals, which bounds the difference far below 1e-13 relative.  With
one mask per bin the kernel's bin totals are the reference's, to the bit.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from eprb_lab import core, transition
from eprb_lab.core import (
    BLOCK_SIZE,
    AngleQuadruple,
    Distribution,
    GridScheme,
    LambdaSpace,
    MonteCarloScheme,
    context_outcomes,
    derived_stream,
    sweep_statistics,
)
from eprb_lab.inequalities import stats_from_model
from eprb_lab.models import (
    as_simultaneous,
    biased_distribution,
    resolve_model,
    sequential_singlet_model,
)
from eprb_lab.ordering import ordering_measures
from eprb_lab.protocols import marginal_shift
from eprb_lab.transition import (
    CANONICAL_SETS,
    LABELS_BY_MASK,
    MASK_BY_PATTERN,
    N_PATTERNS,
    MembershipVector,
    TransitionReport,
    full_report,
    partition_measures,
)
from helpers import CHUNK_SIZES, reference_statistics

QUADRUPLE = AngleQuadruple.chain(0.7)
TWO_BLOCKS = BLOCK_SIZE + 137
BIASED_RTOL = 1e-13


def reference_blocks(dimension, scheme):
    """The sweep's blocks of points, each laid out or drawn in one piece:
    the full midpoint grid in row-major order, or one draw per block from
    the block's own stream."""
    if isinstance(scheme, GridScheme):
        mids = (np.arange(scheme.resolution) + 0.5) / scheme.resolution
        grid = np.stack(np.meshgrid(*[mids] * dimension, indexing="ij"), axis=-1)
        grid = grid.reshape(-1, dimension)
        return [grid[start : start + BLOCK_SIZE] for start in range(0, len(grid), BLOCK_SIZE)]
    return [
        derived_stream(scheme.seed, 0, index).random((min(BLOCK_SIZE, scheme.n - start), dimension))
        for index, start in enumerate(range(0, scheme.n, BLOCK_SIZE))
    ]


def reference_sweep(dist, scheme, masks_fn):
    """Statistic k is the density summed over ``masks[k]``, block by block;
    ``masks_fn`` may return its masks one at a time, as any iterable."""
    sums = squares = 0.0
    for coords in reference_blocks(dist.space.dimension, scheme):
        weights = np.asarray(dist.density(coords), dtype=np.float64)
        block = np.array(
            [(weights[mask].sum(), (weights * weights)[mask].sum()) for mask in masks_fn(coords)]
        )
        sums, squares = sums + block[:, 0], squares + block[:, 1]
    if isinstance(scheme, GridScheme):
        values = sums / float(scheme.resolution) ** dist.space.dimension
        values = np.where((values > 1.0) & (values <= 1.0 + 1e-9), 1.0, values)
        return values, np.zeros(len(values))
    n = scheme.n
    values = sums / n
    variances = np.maximum(squares - n * values * values, 0.0) / (n - 1)
    return np.clip(values, 0.0, 1.0), np.sqrt(variances / n)


def reference_masks(model, quadruple):
    """Masks of the full report's statistics, then the four p_i^+."""

    def masks_fn(coords):
        contexts = context_outcomes(model, quadruple, coords)
        (a1, b1), (a2, b2), (a3, b3), (a4, b4) = contexts
        members = [b1 != b2, a2 != a3, b4 != b3, a1 != a4]
        pre_values = [b1, a2, b4, a1]
        mask_code = sum(member.astype(np.int64) << i for i, member in enumerate(members))
        rows = list(members)
        for member, pre in zip(members, pre_values):
            rows += [member & (pre == 1), member & (pre == -1)]
        rows += [mask_code == code for code in range(16)]
        rows.append(members[0] ^ members[1] ^ members[2] ^ members[3])
        rows += [va * vb == 1 for va, vb in contexts]
        return np.stack(rows)

    return masks_fn


def report_arrays(report):
    """The report's statistics in :func:`reference_masks` order."""
    estimates = [report.set_measures[sid] for sid in CANONICAL_SETS]
    for sid in CANONICAL_SETS:
        estimates += list(report.partition_measures[sid])
    estimates += [report.region_measures[label] for label in LABELS_BY_MASK]
    estimates.append(report.sigma_minus)
    values = [est.value for est in estimates] + list(report.p_plus)
    errors = [est.std_error for est in estimates]
    return np.array(values), np.array(errors)


def _models():
    singlet = resolve_model("singlet")
    biased = resolve_model("singlet+bias:q=0.8")
    b_first = as_simultaneous(sequential_singlet_model(), "B")
    return {
        "singlet": (singlet.hv, singlet.distribution),
        "b-first": (b_first, b_first.equilibrium),
        "biased": (biased.hv, biased.distribution),
    }


CASES = [
    ("singlet", GridScheme(256)),
    ("singlet", MonteCarloScheme(TWO_BLOCKS, 3)),
    ("b-first", GridScheme(256)),
    ("biased", GridScheme(256)),
    ("biased", MonteCarloScheme(TWO_BLOCKS, 3)),
]


def assert_matches(actual, expected, biased):
    if biased:
        np.testing.assert_allclose(actual, expected, rtol=BIASED_RTOL, atol=0.0)
    else:
        assert np.array_equal(actual, expected)


@pytest.mark.parametrize("name, scheme", CASES, ids=[f"{n}-{s.label}" for n, s in CASES])
def test_views_match_boolean_mask_sums(name, scheme):
    model, dist = _models()[name]
    biased = name == "biased"
    ref_values, ref_errors = reference_sweep(dist, scheme, reference_masks(model, QUADRUPLE))

    report = full_report(model, dist, QUADRUPLE, scheme)
    values, errors = report_arrays(report)
    assert_matches(values, ref_values, biased)
    assert_matches(errors, ref_errors[:29], biased)

    # the context statistics and the partitions are rows of the report's sweep
    stats = stats_from_model(model, dist, QUADRUPLE, scheme)
    assert stats.p_plus == report.p_plus
    assert_matches(np.array(stats.p_plus), ref_values[29:], biased)

    for i, sid in enumerate(CANONICAL_SETS):
        plus_minus, minus_plus = partition_measures(model, dist, QUADRUPLE, sid, scheme)
        assert (plus_minus, minus_plus) == report.partition_measures[sid]
        rows = slice(4 + 2 * i, 6 + 2 * i)
        assert_matches(np.array([plus_minus.value, minus_plus.value]), ref_values[rows], biased)
        assert_matches(
            np.array([plus_minus.std_error, minus_plus.std_error]), ref_errors[rows], biased
        )


def test_biased_case_has_non_trivial_weights_and_patterns():
    # the tolerance case must exercise the sorted-bin path on several bins
    model, dist = _models()["biased"]
    (coords,) = reference_blocks(2, GridScheme(256))
    assert len(np.unique(dist.density(coords))) == 2
    values, _ = report_arrays(full_report(model, dist, QUADRUPLE, GridScheme(256)))
    assert np.count_nonzero(values[12:28]) >= 2


def test_pattern_table_matches_set_definitions():
    for pattern in range(N_PATTERNS):
        # bit 2i: A is -1 in context i; bit 2i+1: B is -1 in context i
        (a1, b1), (a2, b2), (a3, b3), (a4, b4) = [
            (1 - 2 * (pattern >> 2 * i & 1), 1 - 2 * (pattern >> 2 * i + 1 & 1)) for i in range(4)
        ]
        in_set = (b1 != b2, a2 != a3, b4 != b3, a1 != a4)
        vector = MembershipVector(in_set=in_set, sign_pattern=(a1 * b1, a2 * b2, a3 * b3, a4 * b4))
        assert MASK_BY_PATTERN[pattern] == vector.mask
        assert vector.parity_consistent()
    assert set(MASK_BY_PATTERN.tolist()) == set(range(16))


def bin_masks(classify):
    """The masks of the bins of ``classify``, one at a time."""

    def masks_fn(coords):
        codes = classify(coords)
        return (codes == k for k in range(256))

    return masks_fn


IDENTITY = np.eye(256, dtype=bool)


@pytest.mark.parametrize("ones_first", [True, False])
def test_bins_mixing_unit_and_weighted_chunks_sum_to_the_same_bits(ones_first):
    # one block of the undeclared grid(1024), laid out row-major: the chunks
    # of one half of u have density exactly 1.0, those of the other do not,
    # and bins 0..199 take points from both halves; the other weights are
    # not dyadic, so a different summation order would round differently
    def density(c):
        unit = c[:, 0] < 0.5 if ones_first else c[:, 0] >= 0.5
        return np.where(unit, 1.0, 1.5 * np.sqrt(c[:, 1]))

    def classify(c):
        return np.where(c[:, 0] < 0.25, 250 + c[:, 1] * 6, c[:, 1] * 200).astype(np.uint8)

    dist = Distribution(space=LambdaSpace(2), density=density, label="half-unit")
    scheme = GridScheme(1024)
    values, _ = reference_statistics(sweep_statistics(dist, scheme, classify, 256), IDENTITY)
    assert np.array_equal(values, reference_sweep(dist, scheme, bin_masks(classify))[0])


def test_bins_whose_weight_changes_mid_block_sum_to_the_same_bits():
    # one block of the undeclared grid(1024), 64 rows of u per chunk: every
    # bin starts as a run of 0.1, meets 0.7 from a chunk boundary on, then a
    # chunk of mixed weights, then runs of 0.1 again; bins 8 and 9 meet only
    # 0.1 and bin 10 only 0.7.  Each total must be the pairwise sum of the
    # bin's weights in block order, whichever way the kernel holds them
    def density(c):
        u, v = c[:, 0], c[:, 1]
        mixed = np.where(v < 0.5, 0.1, 0.3 + v)
        return np.select([u < 0.25, u < 0.5, u < 0.625], [0.1, 0.7, mixed], 0.1)

    def classify(c):
        u, v = c[:, 0], c[:, 1]
        codes = np.where(u >= 0.75, 8 + (v * 2).astype(np.int64), (v * 8).astype(np.int64))
        return np.where((u >= 0.25) & (u < 0.5) & (v < 0.1), 10, codes)

    dist = Distribution(space=LambdaSpace(2), density=density, label="changing")
    scheme = GridScheme(1024)
    histogram = sweep_statistics(dist, scheme, classify, 11)
    (coords,) = reference_blocks(2, scheme)
    weights, codes = density(coords), classify(coords)
    for k in range(11):
        assert histogram.sums[k] == weights[codes == k].sum(), k
        assert histogram.squares[k] == (weights * weights)[codes == k].sum(), k
    assert set(np.unique(weights[codes == 10])) == {0.7}


def test_many_bins_of_a_biased_density_sum_to_the_same_bits():
    # an int64 classifier (a stable argsort that is not a radix sort) over
    # many bins, so each chunk adds a piece to most bins; three blocks, the
    # last one short
    dist = _models()["biased"][1]
    scheme = MonteCarloScheme(2 * BLOCK_SIZE + 5, 3)

    def classify(c):
        return (c[:, 0] * c[:, 1] * 256).astype(np.int64)

    values, errors = reference_statistics(sweep_statistics(dist, scheme, classify, 256), IDENTITY)
    ref_values, ref_errors = reference_sweep(dist, scheme, bin_masks(classify))
    assert np.count_nonzero(ref_values) >= 200
    assert np.array_equal(values, ref_values)
    assert np.array_equal(errors, ref_errors)


def _histogram_of(sweep, monkeypatch):
    """The histogram that the package's one sweep inside ``sweep()`` returns."""
    made = []

    def recording(*args, **kwargs):
        made.append(original(*args, **kwargs))
        return made[-1]

    original = core.sweep_statistics
    for module in (core, transition):
        monkeypatch.setattr(module, "sweep_statistics", recording)
    sweep()
    (histogram,) = made
    return histogram


def _heavier(dist):
    """``dist`` with a total mass of 1 + 2**-40, which the grid snaps to 1."""
    return dataclasses.replace(dist, density=lambda coords: dist.density(coords) * (1 + 2**-40))


DENSITIES = {
    "uniform": lambda model: biased_distribution(model, 0.5),
    "q0.8": lambda model: biased_distribution(model, 0.8),
    "q0.8-heavier": lambda model: _heavier(biased_distribution(model, 0.8)),
}


def _sweeps(density, scheme):
    """The pattern, signal and ordering sweeps under ``density``."""
    singlet = resolve_model("singlet").hv
    sequential = sequential_singlet_model()
    sequential = dataclasses.replace(sequential, equilibrium=density(sequential))
    dist = density(singlet)
    a, a_prime, b = QUADRUPLE.a, QUADRUPLE.a_prime, QUADRUPLE.b
    return {
        "pattern": lambda: full_report(singlet, dist, QUADRUPLE, scheme),
        "signal": lambda: marginal_shift(singlet, dist, b, a, a_prime, scheme),
        "ordering": lambda: ordering_measures(sequential, QUADRUPLE, scheme),
    }


VIEW_CASES = [
    (kind, density, scheme)
    for kind in ("pattern", "signal", "ordering")
    for density in DENSITIES
    for scheme in (GridScheme(256), MonteCarloScheme(TWO_BLOCKS, 3))
]


@pytest.mark.parametrize(
    "kind, density, scheme", VIEW_CASES, ids=[f"{k}-{d}-{s.label}" for k, d, s in VIEW_CASES]
)
def test_measure_is_the_selection_readout_bit_for_bit(kind, density, scheme, monkeypatch):
    # Histogram.measure reads one union of bins as the kernel read each row of
    # a selection matrix: random unions, and none and all bins, where the grid
    # snaps a total mass just above 1 to 1 and Monte Carlo clips it to [0, 1]
    histogram = _histogram_of(_sweeps(DENSITIES[density], scheme)[kind], monkeypatch)
    n_bins = len(histogram.sums)
    rng = np.random.default_rng(11)
    selection = np.concatenate(
        [
            rng.random((200, n_bins)) < rng.random((200, 1)),
            np.zeros((1, n_bins), dtype=bool),
            np.ones((1, n_bins), dtype=bool),
        ]
    )
    ref_values, ref_errors = reference_statistics(histogram, selection)
    estimates = [histogram.measure(bins) for bins in selection]
    assert all(est.scheme == scheme for est in estimates)
    values = np.array([est.value for est in estimates])
    errors = np.array([est.std_error for est in estimates])
    assert values.tobytes() == ref_values.tobytes()
    assert errors.tobytes() == ref_errors.tobytes()
    assert np.count_nonzero(histogram.sums) >= 2


@pytest.mark.parametrize(
    "name, scheme",
    [
        ("singlet", GridScheme(256)),
        ("singlet", MonteCarloScheme(20_000, 4)),
        ("singlet+bias:q=0.7", GridScheme(256)),
        ("singlet+bias:q=0.7", MonteCarloScheme(20_000, 4)),
    ],
    ids=lambda value: getattr(value, "label", value),
)
def test_report_is_the_view_of_any_measure_of_the_patterns(name, scheme, monkeypatch):
    # full_report is its sweep read by TransitionReport.of, and the view reads
    # any measure of pattern selections: the same histogram with its bins
    # permuted, read through the permutation, gives the same report
    choice = resolve_model(name)
    reports = []
    histogram = _histogram_of(
        lambda: reports.append(full_report(choice.hv, choice.distribution, QUADRUPLE, scheme)),
        monkeypatch,
    )
    (report,) = reports
    assert TransitionReport.of(histogram.measure) == report
    perm = np.random.default_rng(5).permutation(N_PATTERNS)
    permuted = core.Histogram(histogram.totals[:, perm], histogram.scheme, histogram.dimension)
    read = TransitionReport.of(lambda bins: permuted.measure(bins[perm]))
    assert {e.scheme for e in read.region_measures.values()} == {scheme}
    (values, errors), (want_values, want_errors) = report_arrays(read), report_arrays(report)
    if name == "singlet":
        # a uniform density makes every bin total an integer, so any order of
        # the pairwise sum gives the same bits
        assert read == report
        assert (values.tobytes(), errors.tobytes()) == (want_values.tobytes(), want_errors.tobytes())
    else:
        # a biased density's totals are floats, summed here in another order
        assert np.max(np.abs(values - want_values)) <= 1e-15
        assert np.max(np.abs(errors - want_errors)) <= 1e-15
        assert np.count_nonzero(histogram.totals[0] % 1) > 0


def _smooth(model):
    """A density that is not piecewise constant and declares no cuts, so
    its weights all differ and every bin keeps them (the kernel's keep path)."""
    return Distribution(
        space=model.space,
        density=lambda coords: 1.0 + 0.5 * np.sin(core.TAU * coords[..., 0]),
        label="smooth",
    )


CHUNK_DENSITIES = {"uniform": DENSITIES["uniform"], "biased": DENSITIES["q0.8"], "smooth": _smooth}
CHUNK_CASES = [
    (kind, density, scheme)
    for kind in ("pattern", "ordering")
    for density in CHUNK_DENSITIES
    for scheme in (MonteCarloScheme(1_300_000, 7), GridScheme(1024), GridScheme(999))
]


@pytest.mark.parametrize(
    "kind, density, scheme", CHUNK_CASES, ids=[f"{k}-{d}-{s.label}" for k, d, s in CHUNK_CASES]
)
def test_totals_do_not_depend_on_the_chunk_size(kind, density, scheme, monkeypatch):
    # blocks fix every stream and every per-bin pairwise sum; chunks only
    # bound memory, so any chunk size gives the same bits in every bin
    sweep = _sweeps(CHUNK_DENSITIES[density], scheme)[kind]

    def totals(size):
        with monkeypatch.context() as patch:
            patch.setattr(core, "CHUNK_SIZE", size)
            return _histogram_of(sweep, patch).totals

    expected = totals(CHUNK_SIZES[0])
    assert np.count_nonzero(expected[0]) >= 2
    for size in CHUNK_SIZES[1:]:
        assert totals(size).tobytes() == expected.tobytes(), size
