"""Measurement-ordering contextuality for sequential models.

A sequential model resolves what an ordinary model leaves implicit: whether
a wing answers before or after its companion.  The ordering transition set
of a (wing, own setting, companion setting) triple collects the lambdas
where the wing's outcome depends on that order.  If every such set were
empty, the first-measurement rule alone would fix all outcomes; since that
rule cannot see the companion's setting, the induced simultaneous model is
local, all four of its setting-swap transition sets are empty and its
P(sigma_minus) is zero.  Whenever the statistics demand a positive lower
bound on P(sigma_minus), some ordering set must therefore be non-empty:
reproducing those statistics forces ordering contextuality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    Angle,
    AngleQuadruple,
    Distribution,
    HvModel,
    MeasureEstimate,
    Scheme,
    estimate_measure,
)
from .inequalities import JointStats, hardy_bounds, quantum_stats
from .inequalities import stats_from_model  # noqa: F401  (bench/tracer.py rebinds it here)
from .models import SequentialModel, WINGS
from .transition import full_report


def moc_transition_measure(
    model: SequentialModel,
    dist: Distribution,
    own: Angle,
    other: Angle,
    wing: str,
    scheme: Scheme,
) -> MeasureEstimate:
    """Measure of the lambdas where measuring first vs second changes the
    wing's outcome at ``own``, with the companion wing set to ``other``."""
    if wing not in WINGS:
        raise ValueError(f"wing must be one of {WINGS}, got {wing!r}")
    other_wing = "B" if wing == "A" else "A"

    def indicator(coords: np.ndarray) -> np.ndarray:
        first_own = np.asarray(model.first_outcome(wing, own, coords))
        companion_first = np.asarray(model.first_outcome(other_wing, other, coords))
        second_own = np.asarray(
            model.second_outcome(wing, own, other, companion_first, coords)
        )
        return first_own != second_own

    return estimate_measure(dist, indicator, scheme)


def induce_noncontextual(model: SequentialModel) -> HvModel:
    """The simultaneous model forced by ordering non-contextuality.

    If order never matters, each wing's outcome is its first-measurement
    outcome, whose signature has no access to the companion's setting; the
    result is local by construction.
    """

    def outcome_a(a: Angle, b: Angle, coords: np.ndarray) -> np.ndarray:
        return model.first_outcome("A", a, coords)

    def outcome_b(a: Angle, b: Angle, coords: np.ndarray) -> np.ndarray:
        return model.first_outcome("B", b, coords)

    return HvModel(
        name=f"{model.name}+order-free",
        space=model.space,
        outcome_a=outcome_a,
        outcome_b=outcome_b,
        equilibrium=model.equilibrium,
        locality_tag="local",
    )


@dataclass(frozen=True)
class MocReport:
    """The ordering-contextuality demonstration at one quadruple.

    ``pair`` describes the (wing, own, companion) triple with the largest
    ordering-dependence measure found; ``induced_sigma_minus`` and
    ``induced_bell_lhs`` characterize the order-free model, and
    ``quantum_required`` is the unified lower bound the singlet statistics
    impose on P(sigma_minus) at this quadruple.
    """

    pair: str
    wing: str
    own: Angle
    other: Angle
    moc_measure: MeasureEstimate
    induced_sigma_minus: MeasureEstimate
    induced_bell_lhs: float
    quantum_required: float

    def to_json(self) -> dict:
        return {
            "pair": self.pair,
            "wing": self.wing,
            "own": self.own.radians,
            "other": self.other.radians,
            "moc_measure": {
                "value": self.moc_measure.value,
                "std_error": self.moc_measure.std_error,
            },
            "induced_sigma_minus": {
                "value": self.induced_sigma_minus.value,
                "std_error": self.induced_sigma_minus.std_error,
            },
            "induced_bell_lhs": self.induced_bell_lhs,
            "quantum_required": self.quantum_required,
        }


def _setting_pairs(quadruple: AngleQuadruple) -> list[tuple[str, str, str]]:
    pairs = []
    for own in ("a", "a'"):
        for other in ("b", "b'"):
            pairs.append(("A", own, other))
    for own in ("b", "b'"):
        for other in ("a", "a'"):
            pairs.append(("B", own, other))
    return pairs


def moc_demo(model: SequentialModel, quadruple: AngleQuadruple, scheme: Scheme) -> MocReport:
    """Search all eight (wing, own, companion) triples and assemble the report."""
    named = quadruple.named_angles()
    best: tuple[str, str, str, MeasureEstimate] | None = None
    for wing, own_name, other_name in _setting_pairs(quadruple):
        estimate = moc_transition_measure(
            model, model.equilibrium, named[own_name], named[other_name], wing, scheme
        )
        if best is None or estimate.value > best[3].value:
            best = (wing, own_name, other_name, estimate)
    assert best is not None
    wing, own_name, other_name, moc_measure = best

    induced = induce_noncontextual(model)
    report = full_report(induced, induced.equilibrium, quadruple, scheme)
    induced_stats = JointStats.from_p_plus(report.p_plus)
    return MocReport(
        pair=f"{wing}@{own_name} (companion {other_name} first)",
        wing=wing,
        own=named[own_name],
        other=named[other_name],
        moc_measure=moc_measure,
        induced_sigma_minus=report.sigma_minus,
        induced_bell_lhs=hardy_bounds(induced_stats).bell_lhs,
        quantum_required=hardy_bounds(quantum_stats(quadruple)).unified,
    )
