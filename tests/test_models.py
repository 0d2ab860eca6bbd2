"""Built-in models: closed-form statistics, bias, the order-resolved pair."""

from __future__ import annotations

import math

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
    make_angle,
    probe_locality,
)
from eprb_lab.inequalities import quantum_stats, stats_from_model
from eprb_lab.models import (
    anticorrelation_threshold,
    as_simultaneous,
    biased_distribution,
    local_coin_model,
    resolve_model,
    sequential_singlet_model,
    singlet_model,
)
from helpers import total_mass

GRID = GridScheme(1024)


def test_local_coin_statistics_exact():
    model = local_coin_model()
    stats = stats_from_model(model, model.equilibrium, AngleQuadruple.chain(0.7), GridScheme(64))
    assert stats.p_plus == (0.5, 0.5, 0.5, 0.5)
    assert model.locality_tag == "local"
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
    assert collapsed.locality_tag == "nonlocal"
    with pytest.raises(ValueError):
        as_simultaneous(seq, "X")


# ---------------------------------------------------------------------------
# Name resolution


def test_resolve_model_builtins():
    assert resolve_model("quantum").hv is None
    assert resolve_model("quantum").sequential is None

    coin = resolve_model("local-coin")
    assert coin.sequential is None
    assert coin.hv is not None and coin.hv.locality_tag == "local"

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
