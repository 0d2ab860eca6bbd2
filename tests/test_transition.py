"""Transition sets, region labels, the parity rule and P(sigma_minus)."""

from __future__ import annotations

import gc
import math
import tracemalloc

import numpy as np
import pytest

from eprb_lab import cli, ordering, protocols, transition
from eprb_lab.core import (
    BLOCK_SIZE,
    CONTEXTS,
    TAU,
    Angle,
    AngleQuadruple,
    GridScheme,
    MonteCarloScheme,
    derived_stream,
    theta_between,
)
from eprb_lab.models import local_coin_model, resolve_model, singlet_model
from eprb_lab.protocols import marginal_shift, simulate_game
from eprb_lab.transition import (
    ALL_REGION_LABELS,
    CANONICAL_SETS,
    LABELS_BY_MASK,
    N_PATTERNS,
    OUTCOMES_BY_PATTERN,
    SET_LINKS,
    MembershipVector,
    TransitionSetId,
    classify_lambda,
    full_report,
    partition_measures,
    pattern_code,
)
from helpers import (
    _SET_CONTEXTS,
    CONTEXT_BY_CHOICE,
    CYCLE_TABLE_DIGESTS,
    FIRST_ANSWERS,
    ORDERING_SETS,
    ordering_measures,
    table_digest,
)

CHAIN = AngleQuadruple.chain(math.pi / 4)
GRID = GridScheme(1024)


def random_quadruple(rng) -> AngleQuadruple:
    angles = [Angle(float(x) * TAU) for x in rng.random(4)]
    return AngleQuadruple(a=angles[0], a_prime=angles[1], b=angles[2], b_prime=angles[3])


def b_side_measure(quadruple: AngleQuadruple, which: TransitionSetId) -> float:
    """Closed form |cos(a, b*) - cos(a', b*)| / 2 for the singlet model."""
    bob = quadruple.b if which is TransitionSetId.BOB_AT_B else quadruple.b_prime
    t1 = math.cos(theta_between(quadruple.a, bob))
    t2 = math.cos(theta_between(quadruple.a_prime, bob))
    return abs(t1 - t2) / 2.0


# ---------------------------------------------------------------------------
# Labels and membership vectors


def test_canonical_order():
    assert [s.value for s in CANONICAL_SETS] == ["bob@b", "alice@a'", "bob@b'", "alice@a"]


def test_set_links_are_the_links_of_the_context_cycle():
    # SET_LINKS is derived from core.CONTEXTS; the helpers' table is written out
    assert SET_LINKS == _SET_CONTEXTS
    for k, sid in enumerate(CANONICAL_SETS):
        wing, pre, post = SET_LINKS[sid]
        assert {pre, post} == {k, (k + 1) % len(CONTEXTS)}
        # the compared wing holds its setting across the link, and the set's id names both
        side = "AB".index(wing)
        shared = CONTEXTS[pre][side]
        assert CONTEXTS[post][side] == shared
        assert sid.value == f"{'alice' if wing == 'A' else 'bob'}@{shared}"


def test_tables_built_from_the_cycle_keep_their_bytes():
    # every table below is derived from core.CONTEXTS and core.SETTINGS; the
    # references in helpers were taken from the tables they replaced
    assert ordering.ORDERING_SETS == ORDERING_SETS
    assert ordering._FIRSTS == FIRST_ANSWERS
    assert tuple(protocols.CONTEXT_BY_KEY[:: transition.N_PATTERNS]) == CONTEXT_BY_CHOICE
    n_keys = protocols.N_KEYS
    every = protocols.CommBlock(start=0, lam=np.empty((n_keys, 0)), key=np.arange(n_keys))
    owners = {"transition": transition, "protocols": protocols, "cli": cli, "CommBlock": every}
    digests = {}
    for name in CYCLE_TABLE_DIGESTS:
        owner, attr = name.split(".")
        table = getattr(owners[owner], attr)
        digests[name] = table_digest(table() if callable(table) else table)
    assert digests == CYCLE_TABLE_DIGESTS


def test_region_label_table():
    # frozen oracle: mask bit i corresponds to canonical set i
    assert LABELS_BY_MASK == (
        "none", "T8", "T7", "E1",
        "T6", "E2", "E4", "T4",
        "T5", "E3", "E5", "T3",
        "E6", "T2", "T1", "F",
    )
    assert len(ALL_REGION_LABELS) == 16
    # a label's membership pattern is its mask's bits, canonical set i at bit i
    assert LABELS_BY_MASK[0b0100] == "T6"
    assert LABELS_BY_MASK[0b0101] == "E2"
    assert LABELS_BY_MASK[0b1111] == "F"


def test_membership_vector_properties():
    vector = MembershipVector(in_set=(False, False, True, False), sign_pattern=(-1, -1, -1, 1))
    assert vector.membership_count == 1
    assert vector.mask == 4
    assert vector.region == "T6"
    assert vector.parity_consistent()
    skewed = MembershipVector(in_set=(False, False, False, False), sign_pattern=(-1, -1, -1, 1))
    assert not skewed.parity_consistent()


def test_membership_vector_validation():
    with pytest.raises(ValueError):
        MembershipVector(in_set=(True, False), sign_pattern=(1, 1, 1, 1))
    with pytest.raises(ValueError):
        MembershipVector(in_set=(False,) * 4, sign_pattern=(1, 1, 0, 1))


def test_classify_lambda_examples():
    model = singlet_model()
    # v above every threshold: no set responds, all products positive
    quiet = classify_lambda(model, CHAIN, (0.3, 0.999))
    assert quiet.in_set == (False, False, False, False)
    assert quiet.region == "none"
    assert quiet.sign_pattern == (1, 1, 1, 1)
    # v between the two bob@b' thresholds: T6, sign product negative
    dark = classify_lambda(model, CHAIN, (0.3, 0.5))
    assert dark.in_set == (False, False, True, False)
    assert dark.region == "T6"
    assert dark.sign_pattern == (-1, -1, -1, 1)
    assert dark.parity_consistent()


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float64])
def test_pattern_code_inverts_the_outcome_table(dtype):
    # each of the 256 patterns' outcomes, in any numeric dtype a model may
    # return, codes back to that pattern
    contexts = tuple(
        (OUTCOMES_BY_PATTERN[i, 0].astype(dtype), OUTCOMES_BY_PATTERN[i, 1].astype(dtype))
        for i in range(len(CONTEXTS))
    )
    code = pattern_code(contexts)
    assert code.dtype == np.uint8
    assert np.array_equal(code, np.arange(N_PATTERNS))


def test_parity_rule_randomized():
    model = singlet_model()
    rng = derived_stream(2024, 55, 0)
    for _ in range(60):
        quadruple = random_quadruple(rng)
        for lam in rng.random((40, 2)):
            assert classify_lambda(model, quadruple, lam).parity_consistent()


# ---------------------------------------------------------------------------
# Measures


def test_singlet_a_side_sets_empty():
    model = singlet_model()
    report = full_report(model, model.equilibrium, CHAIN, GridScheme(128))
    for which in (TransitionSetId.ALICE_AT_A, TransitionSetId.ALICE_AT_A_PRIME):
        assert report.set_measures[which].value == 0.0


@pytest.mark.parametrize("which", [TransitionSetId.BOB_AT_B, TransitionSetId.BOB_AT_B_PRIME])
def test_singlet_b_side_measures_closed_form(which):
    model = singlet_model()
    rng = derived_stream(77, 0, 0)
    for _ in range(4):
        quadruple = random_quadruple(rng)
        est = full_report(model, model.equilibrium, quadruple, GRID).set_measures[which]
        assert est.value == pytest.approx(b_side_measure(quadruple, which), abs=1e-3)


def test_partitions_sum_to_set_measure_exactly():
    model = singlet_model()
    rng = derived_stream(78, 0, 0)
    quadruple = random_quadruple(rng)
    scheme = GridScheme(512)
    report = full_report(model, model.equilibrium, quadruple, scheme)
    for which in CANONICAL_SETS:
        total = report.set_measures[which]
        plus_minus, minus_plus = partition_measures(
            model, model.equilibrium, quadruple, which, scheme
        )
        assert plus_minus.value + minus_plus.value == total.value


def test_equilibrium_partitions_balance():
    # the u coin splits an even grid exactly in half, so the two flip
    # directions carry identical weight at equilibrium
    model = singlet_model()
    plus_minus, minus_plus = partition_measures(
        model, model.equilibrium, CHAIN, TransitionSetId.BOB_AT_B_PRIME, GridScheme(256)
    )
    assert plus_minus.value == minus_plus.value
    assert plus_minus.value > 0.0


def test_biased_partitions_unbalanced():
    from eprb_lab.models import biased_distribution

    model = singlet_model()
    dist = biased_distribution(model, 1.0)
    plus_minus, minus_plus = partition_measures(
        model, dist, CHAIN, TransitionSetId.BOB_AT_B_PRIME, GridScheme(256)
    )
    assert plus_minus.value != minus_plus.value


# ---------------------------------------------------------------------------
# Full report


def test_full_report_local_coin_all_zero():
    model = local_coin_model()
    report = full_report(model, model.equilibrium, CHAIN, GridScheme(128))
    for sid in CANONICAL_SETS:
        assert report.set_measures[sid].value == 0.0
    assert report.sigma_minus.value == 0.0
    assert report.region_measures["none"].value == 1.0
    assert report.sum_t_regions == 0.0


def test_full_report_singlet_chain():
    model = singlet_model()
    report = full_report(model, model.equilibrium, CHAIN, GRID)
    # only the bob@b' swap responds on the chain; its measure is the T6 mass
    assert report.sigma_minus.value == 724 / 1024
    assert report.sigma_minus.value >= math.sqrt(2) - 1
    assert report.region_measures["T6"].value == report.sigma_minus.value
    for label in ("T1", "T2", "T3", "T4", "T5", "T7", "T8", "F"):
        assert report.region_measures[label].value == 0.0
    for label in ("E1", "E2", "E3", "E4", "E5", "E6"):
        assert report.region_measures[label].value == 0.0
    assert report.sum_t_regions - report.sigma_minus.value == 0.0


def test_full_report_regions_partition_unity():
    model = singlet_model()
    rng = derived_stream(79, 0, 0)
    report = full_report(model, model.equilibrium, random_quadruple(rng), GridScheme(256))
    total = sum(report.region_measures[label].value for label in ALL_REGION_LABELS)
    assert total == 1.0


def test_full_report_parity_identity_random_quadruples():
    model = singlet_model()
    rng = derived_stream(80, 0, 0)
    for _ in range(3):
        report = full_report(model, model.equilibrium, random_quadruple(rng), GridScheme(256))
        assert report.sum_t_regions - report.sigma_minus.value == 0.0


def test_full_report_monte_carlo():
    model = singlet_model()
    scheme = MonteCarloScheme(n=200_000, seed=4)
    report = full_report(model, model.equilibrium, CHAIN, scheme)
    target = math.sqrt(2) / 2
    assert abs(report.sigma_minus.value - target) < 4 * report.sigma_minus.std_error


@pytest.mark.parametrize("q", [0.05, 0.3, 0.7, 1.0])
def test_bias_sets_alice_marginal_in_every_context(q):
    # A's outcome is the singlet's coin u < 1/2, the bit the bias weighs with
    # 2q; the chain's few cells sum to q exactly, a random quadruple's many
    # cells to within rounding
    choice = resolve_model(f"singlet+bias:q={q}")
    report = full_report(choice.hv, choice.distribution, CHAIN, GRID)
    assert [up_a for up_a, _ in report.marginals] == [q] * len(CONTEXTS)
    rng = derived_stream(81, 0, 0)
    report = full_report(choice.hv, choice.distribution, random_quadruple(rng), GRID)
    assert [up_a for up_a, _ in report.marginals] == pytest.approx([q] * len(CONTEXTS), abs=1e-15)


@pytest.mark.parametrize("name", ["singlet", "local-coin", "sequential-singlet"])
def test_equilibrium_marginals_ignore_the_remote_setting(name):
    # no signalling: each set links two contexts that share its wing's
    # setting, and at equilibrium that wing's marginal is the same in both
    choice = resolve_model(name)
    rng = derived_stream(82, 0, 0)
    for quadruple in (CHAIN, random_quadruple(rng), random_quadruple(rng)):
        report = full_report(choice.hv, choice.distribution, quadruple, GridScheme(256))
        for wing, pre, post in SET_LINKS.values():
            w = "AB".index(wing)
            assert report.marginals[pre][w] == report.marginals[post][w]


def test_monte_carlo_report_memory_is_one_block():
    # a bin's weights that are not one repeated value are kept, sorted by bin,
    # until the block ends; a finished block's arrays are freed before the next
    choice = resolve_model("singlet+bias:q=0.8")

    def peak(n):
        tracemalloc.start()
        try:
            full_report(choice.hv, choice.distribution, CHAIN, MonteCarloScheme(n, seed=4))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one, three = peak(BLOCK_SIZE), peak(3 * BLOCK_SIZE)
    assert abs(three - one) <= 1 << 20
    assert three < 32 << 20


UNIFORM = resolve_model("singlet")
BIASED = resolve_model("singlet+bias:q=0.8")
SEQUENTIAL = resolve_model("sequential-singlet").sequential
# the tracemalloc peak (MiB) each sweep must stay under, over three blocks
SWEEP_PEAKS = {
    "uniform-full_report": (4, lambda s: full_report(UNIFORM.hv, UNIFORM.distribution, CHAIN, s)),
    "ordering_measures": (4, lambda s: ordering_measures(SEQUENTIAL, CHAIN, s)),
    "biased-full_report": (16, lambda s: full_report(BIASED.hv, BIASED.distribution, CHAIN, s)),
    "biased-marginal_shift": (
        16,
        lambda s: marginal_shift(BIASED.hv, BIASED.distribution, CHAIN.b, CHAIN.a, CHAIN.a_prime, s),
    ),
}


@pytest.mark.parametrize("name", SWEEP_PEAKS)
def test_monte_carlo_sweep_peak_memory(name):
    # a bin of one repeated weight keeps only its count; any other bin keeps
    # its weights (at most a block, 8 MiB), never block-long codes or a permutation
    bound, sweep = SWEEP_PEAKS[name]
    tracemalloc.start()
    try:
        sweep(MonteCarloScheme(3 * BLOCK_SIZE, seed=4))
        assert tracemalloc.get_traced_memory()[1] < bound << 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", ["biased-full_report", "biased-marginal_shift"])
def test_biased_sweeps_keep_no_block_of_weights(name):
    # under the bias every outcome pattern holds one repeated weight, 2q or
    # 2(1 - q), which the kernel counts without keeping: at mc-mix's 1.1M
    # samples the peak stays far below one block of weights (8 MiB)
    _, sweep = SWEEP_PEAKS[name]
    tracemalloc.start()
    try:
        sweep(MonteCarloScheme(1_100_000, seed=4))
        assert tracemalloc.get_traced_memory()[1] < 5 << 20
    finally:
        tracemalloc.stop()


CHUNK_PEAKS = {
    "biased-full_report": SWEEP_PEAKS["biased-full_report"][1],
    "biased-marginal_shift": SWEEP_PEAKS["biased-marginal_shift"][1],
    "ordering_measures": SWEEP_PEAKS["ordering_measures"][1],
    "simulate_game": lambda s: simulate_game(UNIFORM.hv, UNIFORM.distribution, CHAIN, s.n, s.seed),
}


@pytest.mark.parametrize("name", CHUNK_PEAKS)
def test_monte_carlo_peak_is_a_cache_sized_chunk(name):
    # at mc-mix's 1.1M samples nothing a block long is kept, so the peak is
    # one chunk's working set: 35-53 bytes a point, under 1 MiB at 2**14
    # points (2.2-2.8 MiB at 2**16); a small run first makes what the first
    # call of a process builds once
    sweep = CHUNK_PEAKS[name]
    sweep(MonteCarloScheme(1_000, seed=4))
    gc.collect()
    tracemalloc.start()
    try:
        sweep(MonteCarloScheme(1_100_000, seed=4))
        assert tracemalloc.get_traced_memory()[1] < 1.25 * (1 << 20)
    finally:
        tracemalloc.stop()


def test_report_rows_and_json():
    model = singlet_model()
    report = full_report(model, model.equilibrium, CHAIN, GridScheme(64))
    rows = report.csv_rows()
    names = [name for name, _, _ in rows]
    assert names[:4] == ["bob@b", "alice@a'", "bob@b'", "alice@a"]
    assert "bob@b:+-" in names and "alice@a:-+" in names
    assert names[12:15] == ["sigma_minus", "sum_t_regions", "sum_t_minus_sigma"]
    assert len(rows) == 15 + 16
    assert set(names[15:]) == set(ALL_REGION_LABELS)
    assert rows[12][1] == report.sigma_minus.value
