"""Measurement-ordering contextuality and the order-free induced model."""

from __future__ import annotations

import math

import numpy as np
import pytest

from eprb_lab.core import (
    BLOCK_SIZE,
    AngleQuadruple,
    GridScheme,
    LambdaSpace,
    MonteCarloScheme,
    probe_locality,
    theta_between,
    uniform_distribution,
)
from eprb_lab.inequalities import hardy_bounds, stats_from_model
from eprb_lab.models import SequentialModel, sequential_singlet_model
from eprb_lab.ordering import (
    ORDERING_SETS,
    MocReport,
    induce_noncontextual,
    moc_demo,
    moc_transition_measure,
    ordering_measures,
)
from eprb_lab.transition import full_report

CHAIN = AngleQuadruple.chain(math.pi / 4)


def order_blind_model() -> SequentialModel:
    """A sequential coin whose second answer ignores the order entirely."""
    space = LambdaSpace(2)

    def first_outcome(wing, own, coords):
        coords = np.asarray(coords, dtype=np.float64)
        return np.where(coords[..., 0] < 0.5, 1, -1).astype(np.int8)

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
    assert induced.locality_tag == "local"
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


@pytest.mark.parametrize("scheme", [GridScheme(256), MonteCarloScheme(20_000, 4)])
def test_moc_demo_induced_model_figures(scheme):
    model = sequential_singlet_model()
    report = moc_demo(model, CHAIN, scheme)
    induced = induce_noncontextual(model)
    assert report.induced_sigma_minus == full_report(
        induced, induced.equilibrium, CHAIN, scheme
    ).sigma_minus
    stats = stats_from_model(induced, induced.equilibrium, CHAIN, scheme)
    assert report.induced_bell_lhs == hardy_bounds(stats).bell_lhs


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
