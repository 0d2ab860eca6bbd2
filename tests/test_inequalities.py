"""Hardy-type bounds, the unified and CHSH inequalities, and the tracer."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprb_lab.core import (
    AngleQuadruple,
    GridScheme,
    derived_stream,
    evaluate_pair,
)
from eprb_lab.inequalities import (
    ALPHA_SIGNS,
    BETA_SIGNS,
    JointStats,
    bound_for_signs,
    chsh_correlations,
    contradiction_trace,
    hardy_bounds,
    lemma_check,
    quantum_stats,
    stats_from_model,
)
from eprb_lab.models import singlet_model
from eprb_lab.transition import CANONICAL_SETS, MembershipVector, TransitionSetId, classify_lambda
from helpers import assignment_from_contexts, random_joint_stats

CHAIN = AngleQuadruple.chain(math.pi / 4)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
stats_strategy = st.tuples(unit, unit, unit, unit).map(JointStats)


def g_shape(theta: float) -> float:
    return 0.5 * (3.0 * math.cos(theta) - math.cos(3.0 * theta)) - 1.0


# ---------------------------------------------------------------------------
# Bounds


def test_quantum_stats_chain():
    assert quantum_stats(AngleQuadruple.chain(0.0)).p_minus == (1.0, 1.0, 1.0, 1.0)
    stats = quantum_stats(CHAIN)
    cos = math.cos(math.pi / 4)
    for i in range(3):
        assert stats.p_minus[i] == pytest.approx((1 + cos) / 2, abs=1e-15)
    assert stats.p_minus[3] == pytest.approx((1 - cos) / 2, abs=1e-15)


def test_sign_patterns():
    assert len(ALPHA_SIGNS) == 4 and len(BETA_SIGNS) == 4
    for alpha, beta in zip(ALPHA_SIGNS, BETA_SIGNS):
        assert sum(alpha) == 2 and sum(beta) == -2
        assert all(a == -b for a, b in zip(alpha, beta))


def test_chain_quarter_pi_oracle():
    bounds = hardy_bounds(quantum_stats(CHAIN))
    # frozen float64 values; both sit within 5e-16 of sqrt(2)-1 and 2*sqrt(2)
    assert bounds.unified == 0.4142135623730949
    assert bounds.bell_lhs == 2.82842712474619
    assert abs(bounds.unified - (math.sqrt(2) - 1)) < 1e-12
    assert abs(bounds.bell_lhs - 2 * math.sqrt(2)) < 1e-12
    assert bounds.violated
    # the only positive pattern is beta_1, and it carries the whole bound
    assert bounds.beta[0] == bounds.unified
    assert lemma_check(quantum_stats(CHAIN)) == 1


def test_beta1_matches_closed_form():
    rng = derived_stream(91, 0, 0)
    for u in rng.random(25):
        theta = 0.05 + float(u) * (math.pi - 0.1)
        stats = quantum_stats(AngleQuadruple.chain(theta))
        assert bound_for_signs(stats, BETA_SIGNS[0]) == pytest.approx(g_shape(theta), abs=1e-12)


def test_unified_curve_mirrored():
    for i in range(181):
        theta = i * math.pi / 180
        bounds = hardy_bounds(quantum_stats(AngleQuadruple.chain(theta)))
        expected = max(0.0, g_shape(theta), g_shape(math.pi - theta))
        assert bounds.unified == pytest.approx(expected, abs=1e-12)


def test_all_half_stats():
    bounds = hardy_bounds(JointStats((0.5, 0.5, 0.5, 0.5)))
    assert bounds.all_eight() == (-1.0,) * 8
    assert bounds.unified == 0.0 and bounds.bell_lhs == 0.0
    assert not bounds.violated


def test_validate_rejects_bad_stats():
    with pytest.raises(ValueError, match="outside"):
        hardy_bounds(JointStats((1.2, 0.5, 0.5, 0.5)))
    with pytest.raises(ValueError, match="four"):
        hardy_bounds(JointStats((0.5, 0.5)))


def test_joint_stats_checks_its_range_when_made():
    with pytest.raises(ValueError, match="outside"):
        JointStats((1.2, 0.5, 0.5, 0.5))
    with pytest.raises(ValueError, match="outside"):
        JointStats((0.5, float("nan"), 0.5, 0.5))
    with pytest.raises(ValueError, match="four"):
        JointStats((0.5, 0.5))


def test_stats_from_model_matches_quantum():
    model = singlet_model()
    stats = stats_from_model(model, model.equilibrium, CHAIN, GridScheme(1024))
    reference = quantum_stats(CHAIN)
    for got, want in zip(stats.p_minus, reference.p_minus):
        assert got == pytest.approx(want, abs=1e-3)


def test_random_joint_stats_reproducible():
    a = random_joint_stats(derived_stream(5, 6, 0))
    b = random_joint_stats(derived_stream(5, 6, 0))
    assert a == b


@settings(max_examples=300)
@given(stats_strategy)
def test_alpha_beta_complementary(stats):
    bounds = hardy_bounds(stats)
    for alpha, beta in zip(bounds.alpha, bounds.beta):
        assert alpha + beta == pytest.approx(-2.0, abs=1e-12)


@settings(max_examples=300)
@given(stats_strategy)
def test_at_most_one_positive(stats):
    assert lemma_check(stats) <= 1


@settings(max_examples=300)
@given(stats_strategy)
def test_unified_equals_best_pattern(stats):
    bounds = hardy_bounds(stats)
    assert bounds.x - 1 == pytest.approx(max(bounds.alpha[:2] + bounds.beta[:2]), abs=1e-12)
    assert bounds.y - 1 == pytest.approx(max(bounds.alpha[2:] + bounds.beta[2:]), abs=1e-12)
    assert bounds.unified == pytest.approx(max(0.0, max(bounds.all_eight())), abs=1e-12)


@settings(max_examples=300)
@given(stats_strategy)
def test_bell_excess_is_twice_unified(stats):
    bounds = hardy_bounds(stats)
    if bounds.violated:
        assert bounds.bell_lhs - 2.0 == pytest.approx(2.0 * bounds.unified, abs=1e-12)
    else:
        assert bounds.bell_lhs <= 2.0 + 1e-12


@settings(max_examples=300)
@given(stats_strategy)
def test_chsh_pair_budget(stats):
    result = chsh_correlations(stats)
    assert result.lhs1 + result.lhs2 <= 4.0 + 1e-12


def test_chsh_quantum_max():
    result = chsh_correlations(quantum_stats(CHAIN))
    assert result.lhs1 == 0.0
    assert abs(result.lhs2 - 2 * math.sqrt(2)) < 1e-12


# ---------------------------------------------------------------------------
# Contradiction traces


def hypothesis_vector(in_set, signs) -> MembershipVector:
    return MembershipVector(in_set=tuple(in_set), sign_pattern=tuple(signs))


def matching_assignment(signs) -> tuple[tuple[int, int], ...]:
    # A = +1 everywhere; B carries the context product
    return tuple((1, int(s)) for s in signs)


def test_trace_contradiction_on_odd_pattern():
    signs = (-1, -1, -1, 1)
    trace = contradiction_trace(matching_assignment(signs), hypothesis_vector([False] * 4, signs))
    assert not trace.consistent
    assert trace.failing_step == "A(a,b)"
    assert trace.escape_options == tuple(CANONICAL_SETS)
    assert trace.escapes_used == ()
    assert "contradiction at A(a,b)" in trace.render()


def test_trace_consistent_on_even_pattern():
    signs = (1, 1, 1, 1)
    trace = contradiction_trace(matching_assignment(signs), hypothesis_vector([False] * 4, signs))
    assert trace.consistent
    assert trace.failing_step is None
    assert trace.escape_options == ()
    assert trace.escapes_used == ()
    assert "consistent" in trace.render()


def test_trace_structure():
    signs = (-1, -1, -1, 1)
    trace = contradiction_trace(matching_assignment(signs), hypothesis_vector([False] * 4, signs))
    assert len(trace.steps) == 9
    kinds = [step.kind for step in trace.steps]
    assert kinds == [
        "premise",
        "context-sign", "transition",
        "context-sign", "transition",
        "context-sign", "transition",
        "context-sign", "check",
    ]
    observables = [step.observable for step in trace.steps]
    assert observables == [
        "A(a,b)", "B(a,b)", "B(a',b)", "A(a',b)", "A(a',b')",
        "B(a',b')", "B(a,b')", "A(a,b')", "A(a,b)",
    ]
    assert [step.index for step in trace.steps] == list(range(9))


def test_trace_true_memberships_consistent():
    model = singlet_model()
    point = (0.3, 0.5)
    memberships = classify_lambda(model, CHAIN, point)
    contexts = [
        evaluate_pair(model, alice, bob, point)
        for alice, bob in (
            (CHAIN.a, CHAIN.b),
            (CHAIN.a_prime, CHAIN.b),
            (CHAIN.a_prime, CHAIN.b_prime),
            (CHAIN.a, CHAIN.b_prime),
        )
    ]
    trace = contradiction_trace(assignment_from_contexts(contexts), memberships)
    assert trace.consistent
    assert trace.escapes_used == (TransitionSetId.BOB_AT_B_PRIME,)
    flipped = [step for step in trace.steps if step.escaped]
    assert len(flipped) == 1
    assert flipped[0].used_set is TransitionSetId.BOB_AT_B_PRIME


def test_trace_single_escape_restores_consistency():
    signs = (-1, -1, -1, 1)
    trace = contradiction_trace(
        matching_assignment(signs), hypothesis_vector([False, False, False, True], signs)
    )
    assert trace.consistent
    assert trace.escapes_used == (TransitionSetId.ALICE_AT_A,)


def test_trace_rejects_mismatched_signs():
    with pytest.raises(ValueError, match="disagree"):
        contradiction_trace(matching_assignment((1, 1, 1, 1)), hypothesis_vector([False] * 4, (-1, 1, 1, 1)))


def test_trace_rejects_bad_outcomes():
    signs = (1, 1, 1, 1)
    with pytest.raises(ValueError, match="four"):
        contradiction_trace(matching_assignment(signs)[:3], hypothesis_vector([False] * 4, signs))
    with pytest.raises(ValueError, match=r"\+1/-1"):
        contradiction_trace(((0, 1), (1, 1), (1, 1), (1, 1)), hypothesis_vector([False] * 4, signs))


@settings(max_examples=200)
@given(
    st.tuples(st.booleans(), st.booleans(), st.booleans(), st.booleans()),
    st.tuples(*[st.sampled_from([-1, 1])] * 4),
)
def test_trace_verdict_matches_parity(in_set, signs):
    vector = hypothesis_vector(in_set, signs)
    trace = contradiction_trace(matching_assignment(signs), vector)
    assert trace.consistent == vector.parity_consistent()
    assert trace.escapes_used == tuple(
        which for which, member in zip(CANONICAL_SETS, in_set) if member
    )
