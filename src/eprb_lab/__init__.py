"""Deterministic hidden-variable laboratory for two-wing spin experiments.

Build explicit models A(a, b, lambda), B(a, b, lambda) over a hidden-variable
space, measure their transition sets, evaluate Hardy-type lower bounds and the
unified Bell inequality, play the classical-communication game, and probe
signal locality and measurement-ordering contextuality.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .core import (
    Angle,
    AngleQuadruple,
    CONTEXT_LABELS,
    Distribution,
    GridScheme,
    HvModel,
    LambdaSpace,
    MeasureEstimate,
    MonteCarloScheme,
    NumericalInvariantError,
    estimate_measure,
    evaluate_pair,
    make_angle,
    theta_between,
    uniform_distribution,
)
from .models import (
    SequentialModel,
    as_simultaneous,
    biased_distribution,
    local_coin_model,
    resolve_model,
    sequential_singlet_model,
    singlet_model,
)
from .transition import (
    MembershipVector,
    TransitionReport,
    TransitionSetId,
    classify_lambda,
    full_report,
    partition_measures,
)
from .inequalities import (
    ContradictionTrace,
    HardyBounds,
    JointStats,
    chsh_correlations,
    contradiction_trace,
    hardy_bounds,
    lemma_check,
    quantum_stats,
    stats_from_model,
)
from .protocols import (
    CommBlock,
    CommSummary,
    average_bits_identity,
    bits_required,
    detailed_balance,
    marginal_shift,
    simulate_game,
)
from .ordering import (
    MocReport,
    induce_noncontextual,
    moc_demo,
    moc_transition_measure,
)

__all__ = [
    "__version__",
    "Angle",
    "AngleQuadruple",
    "CONTEXT_LABELS",
    "Distribution",
    "GridScheme",
    "HvModel",
    "LambdaSpace",
    "MeasureEstimate",
    "MonteCarloScheme",
    "NumericalInvariantError",
    "estimate_measure",
    "evaluate_pair",
    "make_angle",
    "theta_between",
    "uniform_distribution",
    "SequentialModel",
    "as_simultaneous",
    "biased_distribution",
    "local_coin_model",
    "resolve_model",
    "sequential_singlet_model",
    "singlet_model",
    "MembershipVector",
    "TransitionReport",
    "TransitionSetId",
    "classify_lambda",
    "full_report",
    "partition_measures",
    "ContradictionTrace",
    "HardyBounds",
    "JointStats",
    "chsh_correlations",
    "contradiction_trace",
    "hardy_bounds",
    "lemma_check",
    "quantum_stats",
    "stats_from_model",
    "CommBlock",
    "CommSummary",
    "average_bits_identity",
    "bits_required",
    "detailed_balance",
    "marginal_shift",
    "simulate_game",
    "MocReport",
    "induce_noncontextual",
    "moc_demo",
    "moc_transition_measure",
]
