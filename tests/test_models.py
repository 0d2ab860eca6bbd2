"""Built-in models: closed-form statistics, bias, the order-resolved pair."""

from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from eprb_lab.core import (
    AngleQuadruple,
    GridScheme,
    MonteCarloScheme,
    derived_stream,
    estimate_measure,
    evaluate_pair,
    make_angle,
    probe_locality,
)
from eprb_lab.inequalities import quantum_stats, stats_from_model
from eprb_lab.models import (
    _BUILT_INS,
    MODEL_NAMES,
    ModelChoice,
    SequentialModel,
    anticorrelation_threshold,
    as_simultaneous,
    biased_distribution,
    local_coin_model,
    resolve_model,
    sequential_singlet_model,
    singlet_model,
)
from eprb_lab.ordering import moc_transition_measure
from eprb_lab.protocols import marginal_shift, simulate_game
from eprb_lab.transition import full_report
from helpers import total_mass

GRID = GridScheme(1024)


def test_local_coin_statistics_exact():
    model = local_coin_model()
    stats = stats_from_model(model, model.equilibrium, AngleQuadruple.chain(0.7), GridScheme(64))
    assert stats.p_plus == (0.5, 0.5, 0.5, 0.5)
    assert probe_locality(model, n_probes=100)


def test_singlet_perfect_anticorrelation_at_zero():
    model = singlet_model()
    stats = stats_from_model(model, model.equilibrium, AngleQuadruple.chain(0.0), GridScheme(128))
    assert stats.p_minus == (1.0, 1.0, 1.0, 1.0)


def test_singlet_perfect_correlation_at_pi():
    model = singlet_model()
    quad = AngleQuadruple(
        a=make_angle(math.pi), a_prime=make_angle(math.pi), b=make_angle(0), b_prime=make_angle(0)
    )
    stats = stats_from_model(model, model.equilibrium, quad, GridScheme(128))
    assert stats.p_plus == (1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("theta", [math.pi / 4, 0.3, 1.9, 2.8])
def test_singlet_matches_quantum_chain(theta):
    model = singlet_model()
    quad = AngleQuadruple.chain(theta)
    measured = stats_from_model(model, model.equilibrium, quad, GRID)
    analytic = quantum_stats(quad)
    for got, want in zip(measured.p_minus, analytic.p_minus):
        assert got == pytest.approx(want, abs=1e-3)


def test_singlet_monte_carlo_agrees():
    model = singlet_model()
    quad = AngleQuadruple.chain(math.pi / 4)
    scheme = MonteCarloScheme(n=200_000, seed=11)
    measured = stats_from_model(model, model.equilibrium, quad, scheme)
    for got, want in zip(measured.p_minus, quantum_stats(quad).p_minus):
        tolerance = 4 * math.sqrt(want * (1 - want) / scheme.n)
        assert abs(got - want) < tolerance


def test_anticorrelation_threshold_values():
    assert anticorrelation_threshold(0.0) == 1.0
    assert anticorrelation_threshold(math.pi) == pytest.approx(0.0, abs=1e-16)
    assert anticorrelation_threshold(math.pi / 2) == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Biased distributions


def test_biased_distribution_validation():
    model = singlet_model()
    with pytest.raises(ValueError):
        biased_distribution(model, -0.01)
    with pytest.raises(ValueError):
        biased_distribution(model, 1.5)
    assert biased_distribution(model, 0.25).label == "nonequilibrium:q=0.25"


@pytest.mark.parametrize("q", [0.0, 0.25, 0.5, 1.0])
def test_biased_distribution_marginal_exact_on_grid(q):
    model = singlet_model()
    dist = biased_distribution(model, q)
    mass = total_mass(dist, GridScheme(256)).value
    assert mass == pytest.approx(1.0, abs=1e-12)
    below = estimate_measure(dist, lambda c: c[..., 0] < 0.5, GridScheme(256)).value
    assert below == pytest.approx(q, abs=1e-12)


@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_biased_distribution_normalized(q):
    dist = biased_distribution(singlet_model(), q)
    assert total_mass(dist, GridScheme(32)).value == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("q", [0.0, 0.3, 1.0])
def test_biased_sampler_matches_density(q):
    dist = biased_distribution(singlet_model(), q)
    rng = derived_stream(17, 0, 0)
    points = dist.sampler(rng, 50_000)
    assert points.shape == (50_000, 2)
    assert np.all(points >= 0.0) and np.all(points < 1.0)
    observed = float(np.mean(points[:, 0] < 0.5))
    assert observed == pytest.approx(q, abs=4 * math.sqrt(max(q * (1 - q), 1e-4) / 50_000))
    # the v axis stays uniform regardless of q
    assert float(np.mean(points[:, 1] < 0.5)) == pytest.approx(0.5, abs=0.01)


# ---------------------------------------------------------------------------
# Sequential model


def test_sequential_orders_share_statistics():
    seq = sequential_singlet_model()
    quad = AngleQuadruple.chain(math.pi / 4)
    scheme = GridScheme(256)
    a_first = as_simultaneous(seq, "A")
    b_first = as_simultaneous(seq, "B")
    stats_a = stats_from_model(a_first, seq.equilibrium, quad, scheme)
    stats_b = stats_from_model(b_first, seq.equilibrium, quad, scheme)
    # the product is -1 exactly when v clears the threshold, whichever wing
    # answers first, so the two orderings agree cell by cell
    assert stats_a == stats_b
    for got, want in zip(stats_a.p_minus, quantum_stats(quad).p_minus):
        assert got == pytest.approx(want, abs=2e-3)


def test_sequential_first_outcome_ignores_other_wing():
    seq = sequential_singlet_model()
    coords = derived_stream(23, 0, 0).random((100, 2))
    own = make_angle(0.4)
    first_a = seq.first_outcome("A", own, coords)
    first_b = seq.first_outcome("B", own, coords)
    assert np.array_equal(first_a, first_b)
    with pytest.raises(ValueError):
        seq.first_outcome("C", own, coords)


def test_as_simultaneous_names_and_tags():
    seq = sequential_singlet_model()
    collapsed = as_simultaneous(seq, "B")
    assert collapsed.name == "sequential-singlet[B first]"
    # measured second, A's outcome reads Bob's setting
    assert not probe_locality(collapsed)
    with pytest.raises(ValueError):
        as_simultaneous(seq, "X")


def test_a_collapse_checks_the_first_answer_it_passes_on():
    # the wing measured second hears the first wing's answer; a bad answer is
    # blamed on the wing that gave it, under the sequential model's name
    seq = sequential_singlet_model()

    def first_outcome(wing, own, coords):
        answer = seq.first_outcome(wing, own, coords)
        return np.zeros_like(answer) if wing == "B" else answer

    broken = replace(seq, name="broken", first_outcome=first_outcome)
    message = re.escape("B outcomes of model 'broken' are not all")
    with pytest.raises(ValueError, match=message):
        full_report(
            as_simultaneous(broken, "B"), broken.equilibrium, AngleQuadruple.chain(0.5), GridScheme(8)
        )


_FAULTS = {
    "zeros": np.zeros_like,
    "one-too-many": lambda values: np.append(values, values[:1]),
}
_CHAIN = AngleQuadruple.chain(0.5)
_ENTRY_POINTS = {
    "full_report": lambda model: full_report(model, model.equilibrium, _CHAIN, GridScheme(8)),
    "marginal_shift": lambda model: marginal_shift(
        model, model.equilibrium, _CHAIN.b, _CHAIN.a, _CHAIN.a_prime, GridScheme(8)
    ),
    "simulate_game": lambda model: simulate_game(model, model.equilibrium, _CHAIN, 100, seed=1),
    "evaluate_pair": lambda model: evaluate_pair(model, _CHAIN.a, _CHAIN.b, (0.25, 0.75)),
    "probe_locality": lambda model: probe_locality(model, n_probes=3),
}


@pytest.mark.parametrize(
    ("entry", "wing", "fault"),
    [
        (entry, wing, fault)
        for entry in _ENTRY_POINTS
        for wing in ("A", "B")
        for fault in _FAULTS
    ],
)
def test_every_entry_point_blames_the_wing_of_a_bad_answer(entry, wing, fault):
    model = singlet_model()
    field = f"outcome_{wing.lower()}"
    answer = getattr(model, field)
    broken = replace(
        model, name="broken", **{field: lambda a, b, coords: _FAULTS[fault](answer(a, b, coords))}
    )
    with pytest.raises(ValueError, match=re.escape(f"{wing} outcomes of model 'broken' ")):
        _ENTRY_POINTS[entry](broken)


def _unchecking_sequential_model() -> tuple[SequentialModel, list[str]]:
    """A user's order-resolved model whose functions accept any wing, and the
    wings they were called with."""
    asked: list[str] = []

    def first_outcome(wing, own, coords):
        asked.append(wing)
        return np.ones(len(coords), dtype=np.int8)

    def second_outcome(wing, own, other, first, coords):
        asked.append(wing)
        return -first

    seq = sequential_singlet_model()
    return replace(seq, name="user", first_outcome=first_outcome, second_outcome=second_outcome), asked


_COORDS = np.full((3, 2), 0.25)
_USER, _ = _unchecking_sequential_model()
_WING_ACCESSORS = {
    "HvModel.outcome": lambda wing: singlet_model().outcome(wing, _CHAIN.a, _CHAIN.b, _COORDS),
    "first": lambda wing: sequential_singlet_model().first(wing, _CHAIN.a, _COORDS),
    "second": lambda wing: sequential_singlet_model().second(
        wing, _CHAIN.a, _CHAIN.b, np.ones(3), _COORDS
    ),
    "user-first": lambda wing: _USER.first(wing, _CHAIN.a, _COORDS),
    "user-second": lambda wing: _USER.second(wing, _CHAIN.a, _CHAIN.b, np.ones(3), _COORDS),
    "as_simultaneous": lambda wing: as_simultaneous(_USER, wing),
    "moc_transition_measure": lambda wing: moc_transition_measure(
        _USER, _USER.equilibrium, _CHAIN.a, _CHAIN.b, wing, GridScheme(4)
    ),
}


@pytest.mark.parametrize("accessor", _WING_ACCESSORS)
@pytest.mark.parametrize("wing", ["C", "a", None, ["A"]])
def test_every_accessor_names_a_bad_wing(accessor, wing):
    with pytest.raises(ValueError, match=re.escape(f"wing must be one of ('A', 'B'), got {wing!r}")):
        _WING_ACCESSORS[accessor](wing)


def test_a_users_model_never_hears_a_bad_wing():
    seq, asked = _unchecking_sequential_model()
    for ask in (
        lambda: seq.first("C", _CHAIN.a, _COORDS),
        lambda: seq.second("C", _CHAIN.a, _CHAIN.b, np.ones(3), _COORDS),
    ):
        with pytest.raises(ValueError, match="got 'C'"):
            ask()
    assert asked == []
    assert seq.first("B", _CHAIN.a, _COORDS).tolist() == [1, 1, 1] and asked == ["B"]


# ---------------------------------------------------------------------------
# Name resolution


def test_resolve_model_builtins():
    assert resolve_model("quantum").hv is None
    assert resolve_model("quantum").sequential is None

    coin = resolve_model("local-coin")
    assert coin.sequential is None
    assert coin.hv is not None and probe_locality(coin.hv)

    singlet = resolve_model("singlet")
    assert singlet.distribution is singlet.hv.equilibrium

    seq = resolve_model("sequential-singlet")
    assert seq.sequential is not None
    assert seq.hv is not None and seq.hv.name == "sequential-singlet[A first]"


def test_resolve_model_bias_parsing():
    choice = resolve_model("singlet+bias:q=0.75")
    assert choice.hv is not None and choice.sequential is None
    assert choice.distribution.label == "nonequilibrium:q=0.75"
    with pytest.raises(ValueError, match="malformed bias"):
        resolve_model("singlet+bias:q=abc")
    with pytest.raises(ValueError, match="q must lie"):
        resolve_model("singlet+bias:q=1.5")


def test_resolve_model_unknown():
    with pytest.raises(ValueError, match="unknown model"):
        resolve_model("telepathy")


def test_every_built_in_is_named_by_its_table_key():
    assert MODEL_NAMES == tuple(_BUILT_INS)
    for key, factory in _BUILT_INS.items():
        name = key.replace("<real>", "0.7")  # a real in the bias template
        choice = resolve_model(name)
        assert choice.name == name
        model = None if factory is None else factory()
        if model is None:
            assert choice == ModelChoice(name=name)
        elif isinstance(model, SequentialModel):
            assert choice.sequential.name == key and choice.hv.name == f"{key}[A first]"
            assert choice.distribution is choice.sequential.equilibrium
        elif name == key:
            assert choice.hv.name == key and choice.sequential is None
            assert choice.distribution is choice.hv.equilibrium
        else:
            assert choice.hv.name == model.name and choice.sequential is None
            assert choice.distribution.label == "nonequilibrium:q=0.7"


def test_a_sequential_entry_runs_as_its_a_first_collapse():
    rng = derived_stream(24, 0, 0)
    choices = [resolve_model(key) for key in MODEL_NAMES if "<real>" not in key]
    sequential = [choice for choice in choices if choice.sequential is not None]
    assert sequential
    for choice in sequential:
        collapse = as_simultaneous(choice.sequential, "A")
        coords = rng.random((4096, choice.hv.space.dimension))
        for _ in range(20):
            a, b = (make_angle(float(x)) for x in rng.random(2) * 2 * math.pi)
            assert np.array_equal(choice.hv.outcome_a(a, b, coords), collapse.outcome_a(a, b, coords))
            assert np.array_equal(choice.hv.outcome_b(a, b, coords), collapse.outcome_b(a, b, coords))
