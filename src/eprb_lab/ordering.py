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

:func:`moc_demo` measures all eight ordering sets in one sweep: each lambda
gets an 8-bit code whose bit k is set when it lies in ordering set k, and
set k is read off the histogram as the bins with bit k set.  The induced
model's report is the only other sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the kernel is called as core.sweep_statistics so that rebinding it on core reaches this sweep
from . import core
from .core import (
    Angle,
    AngleQuadruple,
    Distribution,
    HvModel,
    MeasureEstimate,
    Scheme,
    _checked_values,
    declared_cuts,
    estimate_measure,
)
from .inequalities import JointStats, hardy_bounds, quantum_stats
from .inequalities import stats_from_model  # noqa: F401  (bench/tracer.py rebinds it here)
from .models import SequentialModel, _check_wing
from .transition import full_report

#: The eight ordering sets as (wing, own setting, companion setting) names,
#: in the order :func:`moc_demo` searches them.
ORDERING_SETS: tuple[tuple[str, str, str], ...] = (
    ("A", "a", "b"),
    ("A", "a", "b'"),
    ("A", "a'", "b"),
    ("A", "a'", "b'"),
    ("B", "b", "a"),
    ("B", "b", "a'"),
    ("B", "b'", "a"),
    ("B", "b'", "a'"),
)


def _companion(wing: str) -> str:
    return "B" if wing == "A" else "A"


def _first(model: SequentialModel, wing: str, setting: Angle, coords: np.ndarray) -> np.ndarray:
    return _checked_values(model.first_outcome(wing, setting, coords), coords, model.name, wing)


def _order_flip(
    model: SequentialModel,
    wing: str,
    own: Angle,
    other: Angle,
    first_own: np.ndarray,
    companion_first: np.ndarray,
    coords: np.ndarray,
) -> np.ndarray:
    """Where the wing's answer ``first_own`` at ``own`` changes when it is
    measured second, after its companion answered ``companion_first`` at
    ``other``."""
    second_own = _checked_values(
        model.second_outcome(wing, own, other, companion_first, coords), coords, model.name, wing
    )
    return first_own != second_own


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
    _check_wing(wing)

    def indicator(coords: np.ndarray) -> np.ndarray:
        first_own = _first(model, wing, own, coords)
        companion_first = _first(model, _companion(wing), other, coords)
        return _order_flip(model, wing, own, other, first_own, companion_first, coords)

    return estimate_measure(dist, indicator, scheme)


def ordering_measures(
    model: SequentialModel, quadruple: AngleQuadruple, scheme: Scheme
) -> dict[tuple[str, str, str], MeasureEstimate]:
    """The equilibrium measure of every ordering set, keyed as in
    :data:`ORDERING_SETS`, from one sweep.

    Each point's bin is an 8-bit code, bit k set when the point lies in
    ordering set k, so set k is the bins with bit k set.  Each wing's first
    answer at each of its settings is computed once per block and shared by
    the sets that read it.
    """
    named = quadruple.named_angles()

    def classify(coords: np.ndarray) -> np.ndarray:
        firsts = {
            (wing, name): _first(model, wing, named[name], coords)
            for wing, names in (("A", ("a", "a'")), ("B", ("b", "b'")))
            for name in names
        }
        code = np.zeros(coords.shape[0], dtype=np.uint8)
        for k, (wing, own, other) in enumerate(ORDERING_SETS):
            flip = _order_flip(
                model,
                wing,
                named[own],
                named[other],
                firsts[wing, own],
                firsts[_companion(wing), other],
                coords,
            )
            code |= flip.astype(np.uint8) << k
        return code

    n_bins = 1 << len(ORDERING_SETS)
    dist = model.equilibrium
    cuts = declared_cuts(model, dist, named.values())
    histogram = core.sweep_statistics(dist, scheme, classify, n_bins, cuts=cuts)
    codes = np.arange(n_bins)
    return {triple: histogram.measure(codes >> k & 1 == 1) for k, triple in enumerate(ORDERING_SETS)}


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
        breakpoints=model.breakpoints,
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


def moc_demo(model: SequentialModel, quadruple: AngleQuadruple, scheme: Scheme) -> MocReport:
    """Search all eight (wing, own, companion) triples and assemble the report."""
    named = quadruple.named_angles()
    # max keeps the first of tied measures, in ORDERING_SETS order
    (wing, own_name, other_name), moc_measure = max(
        ordering_measures(model, quadruple, scheme).items(), key=lambda item: item[1].value
    )

    induced = induce_noncontextual(model)
    report = full_report(induced, induced.equilibrium, quadruple, scheme)
    induced_stats = JointStats(report.p_plus)
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
