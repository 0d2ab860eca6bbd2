"""Measurement-ordering contextuality and the order-free induced model."""

from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest

from eprb_lab import core, ordering
from eprb_lab.core import (
    BLOCK_SIZE,
    CONTEXTS,
    Angle,
    AngleQuadruple,
    GridScheme,
    LambdaSpace,
    MonteCarloScheme,
    NumericalInvariantError,
    probe_locality,
    theta_between,
    uniform_distribution,
)
from eprb_lab.inequalities import hardy_bounds, stats_from_model
from eprb_lab.models import (
    SequentialModel,
    biased_distribution,
    sequential_singlet_model,
    singlet_model,
)
from eprb_lab.ordering import (
    ORDER_FREE_PATTERNS,
    ORDERING_SETS,
    MocReport,
    moc_demo,
    moc_transition_measure,
)
from eprb_lab.transition import (
    MASK_BY_PATTERN,
    OUTCOMES_BY_PATTERN,
    TransitionReport,
    TransitionSetId,
    full_report,
)
from helpers import FIRST_ANSWERS, induce_noncontextual, ordering_measures

CHAIN = AngleQuadruple.chain(math.pi / 4)


def order_blind_model(cut: float = 0.5) -> SequentialModel:
    """A sequential coin, +1 below ``cut`` on the first axis, whose second
    answer ignores the order entirely."""
    space = LambdaSpace(2)

    def first_outcome(wing, own, coords):
        coords = np.asarray(coords, dtype=np.float64)
        return np.where(coords[..., 0] < cut, 1, -1).astype(np.int8)

    def second_outcome(wing, own, other, first_value, coords):
        return np.asarray(first_value)

    return SequentialModel(
        name="order-blind",
        space=space,
        equilibrium=uniform_distribution(space),
        first_outcome=first_outcome,
        second_outcome=second_outcome,
    )


def test_moc_measure_matches_flip_threshold():
    model = sequential_singlet_model()
    named = CHAIN.named_angles()
    scheme = GridScheme(1024)
    for wing, own, other in (("A", "a", "b"), ("A", "a", "b'"), ("B", "b'", "a'"), ("B", "b", "a")):
        estimate = moc_transition_measure(
            model, model.equilibrium, named[own], named[other], wing, scheme
        )
        theta = theta_between(named[own], named[other])
        assert estimate.value == pytest.approx((1 + math.cos(theta)) / 2, abs=1e-3)


def test_moc_measure_vanishes_at_opposite_settings():
    model = sequential_singlet_model()
    quad = AngleQuadruple.chain(math.pi)
    named = quad.named_angles()
    estimate = moc_transition_measure(
        model, model.equilibrium, named["a'"], named["b"], "A", GridScheme(256)
    )
    # settings pi apart never flip the second answer
    assert estimate.value == 0.0


def test_moc_measure_rejects_bad_wing():
    model = sequential_singlet_model()
    named = CHAIN.named_angles()
    with pytest.raises(ValueError, match="wing"):
        moc_transition_measure(
            model, model.equilibrium, named["a"], named["b"], "C", GridScheme(64)
        )


def test_order_blind_model_has_no_moc():
    model = order_blind_model()
    named = CHAIN.named_angles()
    estimate = moc_transition_measure(
        model, model.equilibrium, named["a"], named["b"], "A", GridScheme(128)
    )
    assert estimate.value == 0.0
    # the induced model reproduces the blind model's own statistics
    induced = induce_noncontextual(model)
    stats = stats_from_model(induced, induced.equilibrium, CHAIN, GridScheme(128))
    assert stats.p_plus == (1.0, 1.0, 1.0, 1.0)


def test_induced_model_is_local_and_transition_free():
    model = sequential_singlet_model()
    induced = induce_noncontextual(model)
    assert induced.name == "sequential-singlet+order-free"
    assert probe_locality(induced, seed=5)
    report = full_report(induced, induced.equilibrium, CHAIN, GridScheme(256))
    assert report.sigma_minus.value == 0.0
    assert report.region_measures["none"].value == 1.0
    # both wings answer with the same shared coin, so products are all +1
    stats = stats_from_model(induced, induced.equilibrium, CHAIN, GridScheme(256))
    assert stats.p_plus == (1.0, 1.0, 1.0, 1.0)


def test_moc_demo_report():
    report = moc_demo(sequential_singlet_model(), CHAIN, GridScheme(512))
    assert isinstance(report, MocReport)
    assert report.wing in ("A", "B")
    assert report.moc_measure.value == 437 / 512
    assert report.moc_measure.value == pytest.approx((1 + math.cos(math.pi / 4)) / 2, abs=1e-3)
    assert report.induced_sigma_minus.value == 0.0
    assert report.induced_bell_lhs == 2.0
    assert abs(report.quantum_required - (math.sqrt(2) - 1)) < 1e-12
    assert report.quantum_required > 0.0
    assert "companion" in report.pair and report.pair.startswith(f"{report.wing}@")


def test_moc_demo_degenerate_quadruple():
    report = moc_demo(sequential_singlet_model(), AngleQuadruple.chain(math.pi), GridScheme(128))
    # every cross-wing pairing sits pi apart, so order never matters and the
    # statistics demand nothing
    assert report.moc_measure.value == 0.0
    assert report.quantum_required == 0.0


@pytest.mark.parametrize(
    "model, quadruple, scheme",
    [
        (sequential_singlet_model(), CHAIN, GridScheme(256)),
        (sequential_singlet_model(), CHAIN, MonteCarloScheme(BLOCK_SIZE + 137, 3)),
        (sequential_singlet_model(), AngleQuadruple.chain(0.7), GridScheme(256)),
        (order_blind_model(), CHAIN, GridScheme(128)),
    ],
)
def test_one_sweep_matches_each_ordering_set(model, quadruple, scheme):
    named = quadruple.named_angles()
    measures = ordering_measures(model, quadruple, scheme)
    assert tuple(measures) == ORDERING_SETS
    best = None
    for wing, own, other in ORDERING_SETS:
        alone = moc_transition_measure(
            model, model.equilibrium, named[own], named[other], wing, scheme
        )
        assert measures[wing, own, other] == alone
        if best is None or alone.value > best[1].value:
            best = ((wing, own, other), alone)
    # at theta = pi/4 several sets tie; the first in search order wins
    report = moc_demo(model, quadruple, scheme)
    (wing, own, other), measure = best
    assert (report.wing, report.own, report.other) == (wing, named[own], named[other])
    assert report.moc_measure == measure


def setting_dependent_model() -> SequentialModel:
    """A sequential model whose first answer is the sign of cos(2 pi u - own)
    for either wing, as in Bell's local model, and whose second answer flips
    it where u + v < 1/2.  It declares no breakpoints."""
    space = LambdaSpace(2)

    def first_outcome(wing, own, coords):
        coords = np.asarray(coords, dtype=np.float64)
        return np.where(np.cos(2 * math.pi * coords[..., 0] - own.radians) >= 0, 1, -1)

    def second_outcome(wing, own, other, first_value, coords):
        coords = np.asarray(coords, dtype=np.float64)
        return np.where(coords[..., 0] + coords[..., 1] < 0.5, -first_value, first_value)

    return SequentialModel(
        name="setting-dependent",
        space=space,
        equilibrium=uniform_distribution(space),
        first_outcome=first_outcome,
        second_outcome=second_outcome,
    )


def biased_sequential_singlet(q: float) -> SequentialModel:
    """The sequential singlet with an equilibrium that puts ``q`` of the mass at u < 1/2."""
    return dataclasses.replace(
        sequential_singlet_model(), equilibrium=biased_distribution(singlet_model(), q)
    )


#: Four settings whose contexts all differ in angle, so that a context or a
#: first answer read in the wrong place changes the induced statistics.
SKEWED = AngleQuadruple(Angle(0.0), Angle(1.5), Angle(0.4), Angle(2.3))


def _assert_induced_figures(model, quadruple, scheme, tolerance, monkeypatch):
    # the one moc sweep against the two-sweep reference: the induced model's
    # own report, and the largest ordering set measured alone.  The bounds
    # are symmetric in the contexts, so the statistics they are given are
    # compared too, context by context.
    given = []
    monkeypatch.setattr(ordering, "hardy_bounds", lambda s: given.append(s) or hardy_bounds(s))
    report = moc_demo(model, quadruple, scheme)
    p_plus = np.array(given[0].p_plus)
    induced = induce_noncontextual(model)
    sigma_minus = full_report(induced, induced.equilibrium, quadruple, scheme).sigma_minus
    stats = stats_from_model(induced, induced.equilibrium, quadruple, scheme)
    bell_lhs = hardy_bounds(stats).bell_lhs
    moc_measure = moc_transition_measure(
        model, model.equilibrium, report.own, report.other, report.wing, scheme
    )
    if tolerance == 0.0:
        assert (report.induced_sigma_minus, report.moc_measure) == (sigma_minus, moc_measure)
        assert (p_plus.tolist(), report.induced_bell_lhs) == (list(stats.p_plus), bell_lhs)
        return
    for got, want in ((report.induced_sigma_minus, sigma_minus), (report.moc_measure, moc_measure)):
        assert abs(got.value - want.value) <= tolerance
        assert abs(got.std_error - want.std_error) <= tolerance
    assert np.max(np.abs(p_plus - stats.p_plus)) <= tolerance
    assert abs(report.induced_bell_lhs - bell_lhs) <= tolerance


@pytest.mark.parametrize("scheme", [GridScheme(256), MonteCarloScheme(20_000, 4)])
def test_moc_demo_induced_model_figures(scheme, monkeypatch):
    _assert_induced_figures(sequential_singlet_model(), CHAIN, scheme, 0.0, monkeypatch)


@pytest.mark.parametrize(
    "model, quadruple, scheme, tolerance",
    [
        (setting_dependent_model(), SKEWED, GridScheme(256), 0.0),
        (setting_dependent_model(), SKEWED, MonteCarloScheme(20_000, 4), 0.0),
        # a biased density makes every bin total a float sum, and the one
        # sweep sums finer bins than the two-sweep reference
        (biased_sequential_singlet(0.7), CHAIN, GridScheme(1024), 1e-15),
        (biased_sequential_singlet(0.7), CHAIN, MonteCarloScheme(BLOCK_SIZE + 137, 6), 1e-15),
    ],
    ids=["grid-setting", "mc-setting", "grid-biased", "mc-biased"],
)
def test_moc_demo_induced_model_figures_of_other_models(
    model, quadruple, scheme, tolerance, monkeypatch
):
    _assert_induced_figures(model, quadruple, scheme, tolerance, monkeypatch)


def test_no_order_free_pattern_lies_in_a_transition_set():
    # each wing gives its first answer whatever the companion's setting, so the
    # order-free model is local: an identity of the tables, for every moc code
    codes = np.arange(len(ORDER_FREE_PATTERNS))
    assert len(codes) == 1 << (len(ORDERING_SETS) + len(FIRST_ANSWERS))
    assert np.all(MASK_BY_PATTERN[ORDER_FREE_PATTERNS] == 0)
    # the pattern holds, in every context, the first answers that bits 8-11 hold
    for i, (x, y) in enumerate(CONTEXTS):
        for wing, own in enumerate((x, y)):
            bit = len(ORDERING_SETS) + FIRST_ANSWERS.index(("AB"[wing], own))
            answer = 1 - 2 * (codes >> bit & 1)
            assert np.array_equal(OUTCOMES_BY_PATTERN[i, wing, ORDER_FREE_PATTERNS], answer)
    # so its 16 patterns are the 16 combinations of first answers
    firsts = codes >> len(ORDERING_SETS)
    assert len(np.unique(ORDER_FREE_PATTERNS)) == 16
    assert len(set(zip(firsts.tolist(), ORDER_FREE_PATTERNS.tolist()))) == 16


def test_moc_code_matches_its_bit_definition(monkeypatch):
    # bit k of a point's code is set when the point lies in ordering set k,
    # and bit 8 + j when first answer j is -1; checked on random chunks in
    # both layouts against the model's own answers
    classifiers, sweep = [], core.sweep_statistics

    def recording(dist, scheme, masks_fn, n_stats, **kwargs):
        classifiers.append(masks_fn)
        return sweep(dist, scheme, masks_fn, n_stats, **kwargs)

    monkeypatch.setattr(core, "sweep_statistics", recording)
    model = sequential_singlet_model()
    quadruple = AngleQuadruple.chain(0.4)
    ordering_measures(model, quadruple, GridScheme(8))
    (classify,) = classifiers
    named = quadruple.named_angles()
    rng = np.random.default_rng(3601)
    for n in (1, 7, 5000):
        coords = rng.random((n, 2))
        expected = np.zeros(n, dtype=np.int64)
        for k, (wing, own, other) in enumerate(ORDERING_SETS):
            companion = model.first("B" if wing == "A" else "A", named[other], coords)
            second = model.second(wing, named[own], named[other], companion, coords)
            expected += (model.first(wing, named[own], coords) != second) << k
        for j, (wing, own) in enumerate(FIRST_ANSWERS, start=len(ORDERING_SETS)):
            expected += (model.first(wing, named[own], coords) < 0) << j
        for layout in (coords, np.asfortranarray(coords)):
            code = classify(layout)
            assert code.dtype == np.uint16
            assert np.array_equal(code, expected)
    # every bit, the ordering sets' included, takes both values in the last chunk
    assert all(0 < np.count_nonzero(expected >> bit & 1) < n for bit in range(12))


@pytest.mark.parametrize("scheme", [GridScheme(256), MonteCarloScheme(20_000, 4)])
def test_order_free_report_has_no_transition(scheme):
    # why moc prints induced_sigma_minus 0 for every model: the order-free
    # view of the moc histogram selects no bin for any set or for sigma_minus
    _, histogram = ordering._moc_sweep(sequential_singlet_model(), CHAIN, scheme)
    report = TransitionReport.of(lambda bins: histogram.measure(bins[ORDER_FREE_PATTERNS]))
    assert list(report.set_measures) == list(TransitionSetId)
    for estimate in (*report.set_measures.values(), report.sigma_minus):
        assert (estimate.value, estimate.std_error) == (0.0, 0.0)
    total = histogram.measure(np.ones(len(ORDER_FREE_PATTERNS), dtype=bool))
    assert report.region_measures["none"] == total
    moc = moc_demo(sequential_singlet_model(), CHAIN, scheme)
    assert moc.induced_sigma_minus == report.sigma_minus


def _u_half(angles):
    return ((0.5,), ())


@pytest.mark.parametrize(
    "model, name",
    [
        # the v thresholds of the second answers left out
        (
            dataclasses.replace(sequential_singlet_model(), breakpoints=_u_half),
            "sequential-singlet",
        ),
        # the first answer changes at u = 0.3, which no ordering set sees
        (
            dataclasses.replace(order_blind_model(0.3), name="blind-off-cut", breakpoints=_u_half),
            "blind-off-cut",
        ),
    ],
    ids=["dropped-v-cuts", "first-answer-off-cut"],
)
def test_moc_names_a_misdeclared_model(model, name):
    # the one corner check covers every bit of the sweep, and names the model
    # the user built, not the induced one
    message = f"outcomes of model {re.escape(repr(name))} change"
    with pytest.raises(NumericalInvariantError, match=message):
        moc_demo(model, CHAIN, GridScheme(64))


def _zeros(coords):
    return np.zeros(coords.shape[0])


def _one_too_many(coords):
    return np.ones(coords.shape[0] + 1)


def _broken_model(first_b_value, second_value) -> SequentialModel:
    """The sequential singlet with B's first answers, or every second
    answer, replaced when a replacement is given."""
    base = sequential_singlet_model()

    def first_outcome(wing, own, coords):
        if wing == "B" and first_b_value is not None:
            return first_b_value(coords)
        return base.first_outcome(wing, own, coords)

    def second_outcome(wing, own, other, first_value, coords):
        if second_value is not None:
            return second_value(coords)
        return base.second_outcome(wing, own, other, first_value, coords)

    return SequentialModel(
        name="broken",
        space=base.space,
        equilibrium=base.equilibrium,
        first_outcome=first_outcome,
        second_outcome=second_outcome,
    )


@pytest.mark.parametrize(
    "model, message",
    [
        # the first set searched reads A's second answer
        (_broken_model(None, _zeros), "A outcomes of model 'broken' are not all"),
        (_broken_model(None, _one_too_many), "A outcomes of model 'broken' have shape"),
        (_broken_model(_zeros, None), "B outcomes of model 'broken' are not all"),
    ],
)
def test_moc_rejects_outcomes_that_are_not_plus_minus_one(model, message):
    with pytest.raises(ValueError, match=message):
        moc_demo(model, CHAIN, GridScheme(16))
    named = CHAIN.named_angles()
    with pytest.raises(ValueError, match=message):
        moc_transition_measure(
            model, model.equilibrium, named["a"], named["b"], "A", GridScheme(16)
        )
