"""Deterministic hidden-variable laboratory for two-wing spin experiments.

Build explicit models A(a, b, lambda), B(a, b, lambda) over a hidden-variable
space, measure their transition sets, evaluate Hardy-type lower bounds and the
unified Bell inequality, play the classical-communication game, and probe
signal locality and measurement-ordering contextuality.

The exports are lazy (PEP 562): ``import eprb_lab`` loads no numpy, and a
name's module is imported the first time the name is looked up.  That lets
the command line set up the process (see ``cli``) before numpy loads.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "core": (
            "Angle", "AngleQuadruple", "CONTEXT_LABELS", "Distribution", "GridScheme", "HvModel",
            "LambdaSpace", "MeasureEstimate", "MonteCarloScheme", "NumericalInvariantError",
            "estimate_measure", "evaluate_pair", "make_angle", "probe_locality", "theta_between",
            "uniform_distribution",
        ),
        "models": (
            "SequentialModel", "as_simultaneous", "biased_distribution", "induce_noncontextual",
            "local_coin_model", "resolve_model", "sequential_singlet_model", "singlet_model",
        ),
        "transition": (
            "MembershipVector", "TransitionReport", "TransitionSetId", "classify_lambda",
            "full_report", "partition_measures",
        ),
        "inequalities": (
            "ContradictionTrace", "HardyBounds", "JointStats", "chsh_correlations",
            "contradiction_trace", "hardy_bounds", "lemma_check", "quantum_stats",
            "stats_from_model",
        ),
        "protocols": (
            "CommBlock", "CommSummary", "average_bits_identity", "detailed_balance",
            "marginal_shift", "simulate_game",
        ),
        "ordering": ("MocReport", "moc_demo", "moc_transition_measure"),
    }.items()
    for name in names
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str) -> object:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
