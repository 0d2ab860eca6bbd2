"""The communication game, the cost identity, and signal locality."""

from __future__ import annotations

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from eprb_lab.core import (
    BLOCK_SIZE,
    CHUNK_SIZE,
    AngleQuadruple,
    Distribution,
    GridScheme,
    HvModel,
    LambdaSpace,
    MonteCarloScheme,
    NumericalInvariantError,
    context_outcomes,
    estimate_measure,
    evaluate_pair,
    make_angle,
    uniform_distribution,
)
from eprb_lab.inequalities import quantum_stats
from eprb_lab.models import biased_distribution, local_coin_model, singlet_model
from eprb_lab.protocols import (
    BITS_BY_KEY,
    BITS_BY_MASK,
    CONTEXT_BY_KEY,
    MASK_BY_KEY,
    N_KEYS,
    OUTCOME_A_BY_KEY,
    OUTCOME_B_BY_KEY,
    average_bits_identity,
    detailed_balance,
    marginal_shift,
    simulate_game,
)
from eprb_lab.transition import (
    ALL_REGION_LABELS,
    LABELS_BY_MASK,
    MASK_BY_PATTERN,
    SET_LINKS,
    MembershipVector,
    TransitionSetId,
    classify_lambda,
    full_report,
    pattern_code,
)
from helpers import reference_partition_measures

CHAIN = AngleQuadruple.chain(math.pi / 4)


# ---------------------------------------------------------------------------
# Bit cost table


def test_bits_required_by_wing():
    def bits(in_set):
        # the cost reads only the mask, so any legal sign pattern serves
        vector = MembershipVector(in_set=tuple(in_set), sign_pattern=(1, 1, 1, 1))
        return BITS_BY_MASK[vector.mask]

    assert bits((False, False, False, False)) == 0
    # one B-side set: Alice must announce
    assert bits((True, False, False, False)) == 1
    assert bits((False, False, True, False)) == 1
    # both B-side sets still cost one bit
    assert bits((True, False, True, False)) == 1
    # one set per wing costs two
    assert bits((True, True, False, False)) == 2
    assert bits((True, True, True, True)) == 2


def test_region_bits_table():
    expected = {
        "none": 0,
        "T5": 1, "T6": 1, "T7": 1, "T8": 1,
        "E2": 1, "E5": 1,
        "T1": 2, "T2": 2, "T3": 2, "T4": 2,
        "E1": 2, "E3": 2, "E4": 2, "E6": 2,
        "F": 2,
    }
    bits = {label: BITS_BY_MASK[LABELS_BY_MASK.index(label)] for label in ALL_REGION_LABELS}
    assert bits == expected


# ---------------------------------------------------------------------------
# Game simulation


def test_game_local_coin_costs_nothing():
    model = local_coin_model()
    summary, _ = simulate_game(model, model.equilibrium, CHAIN, 5_000, seed=3)
    assert summary.average_bits == 0.0
    assert summary.bits_std_error == 0.0
    assert summary.sigma_minus_bound == 0.0
    assert sum(summary.context_counts) == 5_000


def test_game_singlet_statistics():
    model = singlet_model()
    n = 200_000
    summary, _ = simulate_game(model, model.equilibrium, CHAIN, n, seed=10)
    target = math.sqrt(2) / 2
    assert abs(summary.average_bits - target) < 4 * summary.bits_std_error
    reference = quantum_stats(CHAIN)
    for plus, want, count in zip(summary.stats.p_plus, reference.p_plus, summary.context_counts):
        se = math.sqrt(max(want * (1 - want), 1e-12) / count)
        assert abs(plus - want) < 4 * se
    # the game pays at least what its own data certify
    assert summary.average_bits >= summary.sigma_minus_bound - 4 * summary.bits_std_error
    assert summary.n_runs == n and summary.seed == 10


def test_game_log_is_faithful():
    model = singlet_model()
    summary, stream = simulate_game(model, model.equilibrium, CHAIN, 500, seed=8)
    angles = CHAIN.named_angles()
    (block,) = list(stream)
    assert block.start == 0 and len(block.bits) == 500
    for i in range(0, 500, 7):
        lam = tuple(block.lam[i])
        alice = angles[("a", "a'")[block.alice_choice[i]]]
        bob = angles[("b", "b'")[block.bob_choice[i]]]
        va, vb = evaluate_pair(model, alice, bob, lam)
        assert (block.outcome_a[i], block.outcome_b[i]) == (va, vb)
        memberships = classify_lambda(model, CHAIN, lam)
        assert LABELS_BY_MASK[block.mask_code[i]] == memberships.region
        assert block.bits[i] == BITS_BY_MASK[memberships.mask]
    assert sum(summary.context_counts) == 500


def _block_fields(block):
    return [block.start] + [getattr(block, name) for name in (
        "lam", "alice_choice", "bob_choice", "mask_code", "bits", "outcome_a", "outcome_b")]


def test_game_seed_determinism():
    model = singlet_model()
    first, stream_a = simulate_game(model, model.equilibrium, CHAIN, 2_000, seed=21)
    second, stream_b = simulate_game(model, model.equilibrium, CHAIN, 2_000, seed=21)
    assert first == second
    block_a, block_b = next(iter(stream_a)), next(iter(stream_b))
    for field_a, field_b in zip(_block_fields(block_a), _block_fields(block_b)):
        assert np.array_equal(field_a, field_b)
    other, stream_c = simulate_game(model, model.equilibrium, CHAIN, 2_000, seed=22)
    assert not np.array_equal(next(iter(stream_c)).lam[0], block_a.lam[0])


def test_game_multi_block_run_count():
    model = local_coin_model()
    n = (1 << 20) + 137
    summary, stream = simulate_game(model, model.equilibrium, CHAIN, n, seed=1)
    assert sum(summary.context_counts) == n
    # the regenerated blocks cover runs 0..n-1 in order and reproduce the summary
    sizes = []
    counts = np.zeros(4, dtype=np.int64)
    plus = np.zeros(4, dtype=np.int64)
    for block in stream:
        assert block.start == sum(sizes)
        sizes.append(len(block.bits))
        context = np.array([[0, 3], [1, 2]])[block.alice_choice, block.bob_choice]
        counts += np.bincount(context, minlength=4)
        plus += np.bincount(context[block.outcome_a == block.outcome_b], minlength=4)
    # one chunk of CHUNK_SIZE runs at a time, each starting where the last ended
    assert sizes == [CHUNK_SIZE] * (BLOCK_SIZE // CHUNK_SIZE) + [137]
    assert tuple(counts.tolist()) == summary.context_counts
    assert tuple((plus / counts).tolist()) == summary.stats.p_plus


def test_game_memory_is_one_block():
    model = local_coin_model()

    def peak(n_runs):
        tracemalloc.start()
        try:
            simulate_game(model, model.equilibrium, CHAIN, n_runs, seed=2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # a block is played a chunk at a time: the peak is a few chunks' worth
    one, three = peak(BLOCK_SIZE), peak(3 * BLOCK_SIZE)
    assert one < 8 << 20
    assert three <= 1.5 * one


def test_game_keeps_one_chunk_alive():
    # a wide lambda makes the chunk's lambdas the bulk of the game's memory:
    # the next chunk is played only once the last one is freed, so the peak
    # holds one chunk's lambdas (and the sampler's range check), not two
    space = LambdaSpace(16)

    def coin(axis):
        return lambda a, b, coords: np.where(coords[:, axis] < 0.5, 1, -1)

    model = HvModel("wide", space, coin(0), coin(1), uniform_distribution(space))
    tracemalloc.start()
    try:
        simulate_game(model, model.equilibrium, CHAIN, 4 * CHUNK_SIZE, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.75 * CHUNK_SIZE * space.dimension * 8


def _scrambled_model():
    """Outcomes drawn at random per setting pair and per cell of lambda_0, so
    random lambdas reach every outcome pattern."""

    def outcome(wing):
        def fn(a, b, coords):
            seed = [wing, round(a.radians * 1e6), round(b.radians * 1e6)]
            table = np.random.default_rng(seed).choice([-1, 1], 8192)
            return table[(coords[..., 0] * 8192).astype(int)]

        return fn

    space = LambdaSpace(2)
    return HvModel("scrambled", space, outcome(0), outcome(1), uniform_distribution(space))


@pytest.mark.parametrize("model", [singlet_model(), _scrambled_model()], ids=lambda m: m.name)
def test_key_tables_agree_with_context_outcomes(model):
    rng = np.random.default_rng(17)
    quadruple = AngleQuadruple(*(make_angle(x) for x in rng.uniform(0, 2 * math.pi, 4)))
    lam = rng.random((50_000, 2))
    alice, bob = rng.integers(0, 2, (2, len(lam)))
    contexts = context_outcomes(model, quadruple, lam)
    pattern = pattern_code(contexts)
    key = (2 * alice + bob) * 256 + pattern
    # the choice -> canonical context map: (a,b), (a,b'), (a',b), (a',b')
    context = np.array([[0, 3], [1, 2]])[alice, bob]
    assert np.array_equal(CONTEXT_BY_KEY[key], context)
    assert np.array_equal(OUTCOME_A_BY_KEY[key], np.choose(context, [va for va, _ in contexts]))
    assert np.array_equal(OUTCOME_B_BY_KEY[key], np.choose(context, [vb for _, vb in contexts]))
    assert np.array_equal(MASK_BY_KEY[key], MASK_BY_PATTERN[pattern])
    assert np.array_equal(BITS_BY_KEY[key], np.array(BITS_BY_MASK)[MASK_BY_PATTERN[pattern]])
    if model.name == "scrambled":
        assert len(np.unique(key)) == N_KEYS


def test_game_argument_errors():
    model = singlet_model()
    with pytest.raises(ValueError, match="positive"):
        simulate_game(model, model.equilibrium, CHAIN, 0, seed=1)
    with pytest.raises(ValueError, match="never played"):
        simulate_game(model, model.equilibrium, CHAIN, 1, seed=1)
    no_sampler = Distribution(
        space=model.space,
        density=lambda coords: np.ones(np.asarray(coords).shape[:-1]),
        label="no-sampler",
    )
    with pytest.raises(ValueError, match="sampler"):
        simulate_game(model, no_sampler, CHAIN, 100, seed=1)
    with pytest.raises(ValueError, match="different spaces"):
        simulate_game(model, uniform_distribution(LambdaSpace(1)), CHAIN, 100, seed=1)


@pytest.mark.parametrize("coordinate", [math.nan, 1.0, -0.1])
def test_game_refuses_sampler_points_outside_the_cube(coordinate):
    model = singlet_model()

    def sampler(rng, n):
        points = rng.random((n, 2))
        points[n // 2, 0] = coordinate
        return points

    stray = dataclasses.replace(model.equilibrium, sampler=sampler)
    with pytest.raises(ValueError, match="outside"):
        simulate_game(model, stray, CHAIN, 1000, seed=1)


# ---------------------------------------------------------------------------
# Cost identity


def test_average_bits_identity_singlet():
    model = singlet_model()
    report = full_report(model, model.equilibrium, CHAIN, GridScheme(1024))
    b_regions, lower = average_bits_identity(report)
    # on the chain only T6 is occupied, so the integral hits the bound
    assert b_regions == 724 / 1024
    assert lower == 724 / 1024


def test_average_bits_identity_local_coin():
    model = local_coin_model()
    report = full_report(model, model.equilibrium, CHAIN, GridScheme(128))
    assert average_bits_identity(report) == (0.0, 0.0)


def test_average_bits_identity_monte_carlo_consistency():
    model = singlet_model()
    report = full_report(model, model.equilibrium, CHAIN, MonteCarloScheme(n=100_000, seed=9))
    b_regions, lower = average_bits_identity(report)
    assert b_regions >= lower - 1e-9


def test_average_bits_identity_rejects_doctored_report():
    model = singlet_model()
    report = full_report(model, model.equilibrium, CHAIN, GridScheme(64))
    empty = {
        label: dataclasses.replace(est, value=1.0 if label == "none" else 0.0)
        for label, est in report.region_measures.items()
    }
    broken = dataclasses.replace(report, region_measures=empty)
    with pytest.raises(NumericalInvariantError, match="fell below"):
        average_bits_identity(broken)


# ---------------------------------------------------------------------------
# Signal locality


def signal_setup():
    b = make_angle(0.0)
    a1 = make_angle(0.0)
    a2 = make_angle(math.pi / 2)
    return b, a1, a2, AngleQuadruple(a=a1, a_prime=a2, b=b, b_prime=b)


def test_equilibrium_hides_the_swap():
    model = singlet_model()
    b, a1, a2, quad = signal_setup()
    scheme = GridScheme(256)
    assert marginal_shift(model, model.equilibrium, b, a1, a2, scheme) == (0.0, 0.0)
    assert detailed_balance(model, model.equilibrium, quad, TransitionSetId.BOB_AT_B, scheme) == 0.0


def test_biased_distribution_signals():
    model = singlet_model()
    dist = biased_distribution(model, 1.0)
    b, a1, a2, quad = signal_setup()
    scheme = GridScheme(1024)
    assert marginal_shift(model, dist, b, a1, a2, scheme) == (0.5, 0.5)
    assert detailed_balance(model, dist, quad, TransitionSetId.BOB_AT_B, scheme) == 0.5


def test_local_model_never_signals():
    model = local_coin_model()
    dist = biased_distribution(model, 1.0)
    b, a1, a2, _ = signal_setup()
    assert marginal_shift(model, dist, b, a1, a2, GridScheme(256)) == (0.0, 0.0)


def test_bias_strength_tracks_shift():
    model = singlet_model()
    b, a1, a2, _ = signal_setup()
    scheme = GridScheme(512)
    shifts = [
        marginal_shift(model, biased_distribution(model, q), b, a1, a2, scheme)[0]
        for q in (0.5, 0.75, 1.0)
    ]
    assert shifts[0] == 0.0
    assert shifts[0] < shifts[1] < shifts[2]


def reference_marginal_shift(model, dist, b, a1, a2, scheme):
    """The two-sweep form: one ``estimate_measure`` of {B = +1} per Alice setting."""

    def pointing_up(alice):
        def indicator(coords):
            return np.asarray(model.outcome_b(alice, b, coords)) == 1

        return estimate_measure(dist, indicator, scheme).value

    return abs(pointing_up(a1) - pointing_up(a2))


@pytest.mark.parametrize("scheme", [GridScheme(256), MonteCarloScheme(BLOCK_SIZE + 137, 6)])
@pytest.mark.parametrize("q", [None, 0.8])
def test_marginal_shift_matches_two_sweep_reference(q, scheme):
    model = singlet_model()
    dist = model.equilibrium if q is None else biased_distribution(model, q)
    b = make_angle(0.3)
    for a1, a2 in ((0.0, math.pi / 2), (1.1, 2.9), (0.4, 0.4)):
        args = (model, dist, b, make_angle(a1), make_angle(a2), scheme)
        shift, _ = marginal_shift(*args)
        if q is None:
            # uniform density: every bin total is an exact count
            assert shift == reference_marginal_shift(*args)
        else:
            assert abs(shift - reference_marginal_shift(*args)) <= 1e-15


@pytest.mark.parametrize(
    "scheme", [GridScheme(256), GridScheme(300), MonteCarloScheme(BLOCK_SIZE + 137, 6)]
)
@pytest.mark.parametrize("q", [None, 0.8])
def test_signal_gap_matches_three_bin_reference(q, scheme):
    # each partition is one bin of the four-bin signal sweep and one bin of
    # the three-bin reference, summed over the same points in the same order
    model = singlet_model()
    dist = model.equilibrium if q is None else biased_distribution(model, q)
    b = make_angle(0.3)
    for a1, a2 in ((make_angle(0.0), make_angle(math.pi / 2)), (make_angle(1.1), make_angle(2.9))):
        quadruple = AngleQuadruple(a=a1, a_prime=a2, b=b, b_prime=b)
        _, gap = marginal_shift(model, dist, b, a1, a2, scheme)
        plus_minus, minus_plus = reference_partition_measures(
            model, dist, quadruple, TransitionSetId.BOB_AT_B, scheme
        )
        assert gap == abs(plus_minus.value - minus_plus.value)
        assert gap > 0.0 or q is None


@pytest.mark.parametrize("scheme", [GridScheme(300), MonteCarloScheme(BLOCK_SIZE + 137, 6)])
@pytest.mark.parametrize("q", [None, 0.8])
def test_marginal_shift_is_a_view_of_the_report(q, scheme):
    # the shift is read off the report's B marginals at the bob@b set's two
    # contexts and the gap off its bob@b partitions, the set's detailed balance
    model = singlet_model()
    dist = model.equilibrium if q is None else biased_distribution(model, q)
    b = make_angle(0.3)
    wing, pre, post = SET_LINKS[TransitionSetId.BOB_AT_B]
    for a1, a2 in ((make_angle(0.0), make_angle(math.pi / 2)), (make_angle(1.1), make_angle(2.9))):
        quadruple = AngleQuadruple(a=a1, a_prime=a2, b=b, b_prime=b)
        up = full_report(model, dist, quadruple, scheme).marginals
        shift, gap = marginal_shift(model, dist, b, a1, a2, scheme)
        assert shift == abs(up[pre]["AB".index(wing)] - up[post]["AB".index(wing)])
        assert gap == detailed_balance(model, dist, quadruple, TransitionSetId.BOB_AT_B, scheme)


def test_shift_and_gap_are_summed_over_different_bins():
    # equal in exact arithmetic, the two reads round differently, so neither
    # stands in for the other
    model = singlet_model()
    dist = biased_distribution(model, 0.7)
    angles = (make_angle(1.1), make_angle(0.3), make_angle(2.2))
    shift, gap = marginal_shift(model, dist, *angles, MonteCarloScheme(1_100_000, seed=5))
    assert (shift, gap) == (0.04842545454545455, 0.048425454545454535)
