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

:func:`moc_demo` reads every figure off one sweep.  Each lambda gets a
12-bit code: bit k is set when it lies in ordering set k, and bits 8-11 hold
the four first answers, which fix the induced model's outcome pattern
(:data:`ORDER_FREE_PATTERNS`).  So the sets are unions of bins, and the
induced model's figures are ``transition.TransitionReport.of`` over them;
no order-free pattern lies in a transition set, so its sigma_minus is 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the kernel is called as core.sweep_statistics so that rebinding it on core reaches this sweep
from . import core
from .core import (
    CONTEXTS,
    SETTINGS,
    Angle,
    AngleQuadruple,
    Distribution,
    MeasureEstimate,
    Scheme,
    check_wing,
    declared_cuts,
    estimate_measure,
)
from .inequalities import JointStats, hardy_bounds, quantum_stats
from .inequalities import stats_from_model  # noqa: F401  (bench/tracer.py rebinds it here)
from .models import SequentialModel
from .transition import TransitionReport, pattern_code
from .transition import full_report  # noqa: F401  (bench/tracer.py rebinds it here)

#: The first answers as (wing, own setting): bit 8 + j of a moc code is set when answer j is -1.
_FIRSTS = tuple((wing, own) for wing, names in SETTINGS.items() for own in names)

#: The eight ordering sets as (wing, own setting, companion setting) names,
#: in the order :func:`moc_demo` searches them.
ORDERING_SETS: tuple[tuple[str, str, str], ...] = tuple(
    (wing, own, other) for wing, own in _FIRSTS for companion, other in _FIRSTS if companion != wing
)

#: Every moc code, and the first answers (+1/-1) that its bits 8-11 hold.
_CODES = np.arange(1 << (len(ORDERING_SETS) + len(_FIRSTS)))
_ANSWERS = {first: 1 - 2 * (_CODES >> j & 1) for j, first in enumerate(_FIRSTS, len(ORDERING_SETS))}
#: The order-free model's outcome pattern in each moc code: each wing gives its first answer.
ORDER_FREE_PATTERNS = pattern_code(tuple((_ANSWERS["A", x], _ANSWERS["B", y]) for x, y in CONTEXTS))
del _ANSWERS  # 128 KB that no later code reads


def _companion(wing: str) -> str:
    return "B" if wing == "A" else "A"


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
    check_wing(wing)

    def indicator(coords: np.ndarray) -> np.ndarray:
        first_own = model.first(wing, own, coords)
        companion_first = model.first(_companion(wing), other, coords)
        return first_own != model.second(wing, own, other, companion_first, coords)

    return estimate_measure(dist, indicator, scheme)


def ordering_measures(
    model: SequentialModel, quadruple: AngleQuadruple, scheme: Scheme
) -> dict[tuple[str, str, str], MeasureEstimate]:
    """The equilibrium measure of every ordering set, keyed as in :data:`ORDERING_SETS`."""
    return _moc_sweep(model, quadruple, scheme)[0]


def _moc_sweep(
    model: SequentialModel, quadruple: AngleQuadruple, scheme: Scheme
) -> tuple[dict[tuple[str, str, str], MeasureEstimate], core.Histogram]:
    """The ordering-set measures of one sweep over the equilibrium, and its
    histogram.  Each point's bin is a 12-bit code: bit k is set when the
    point lies in ordering set k, and bit 8 + j when first answer j is -1.
    Each first answer is computed once per chunk and shared by the sets."""
    named = quadruple.named_angles()

    def classify(coords: np.ndarray) -> np.ndarray:
        firsts = {(wing, own): model.first(wing, named[own], coords) for wing, own in _FIRSTS}
        code = np.zeros(coords.shape[0], dtype=np.uint16)
        for k, (wing, own, other) in enumerate(ORDERING_SETS):
            companion_first = firsts[_companion(wing), other]
            second = model.second(wing, named[own], named[other], companion_first, coords)
            code |= (firsts[wing, own] != second).astype(np.uint16) << k
        for j, first in enumerate(firsts.values(), start=len(ORDERING_SETS)):
            code |= (first < 0).astype(np.uint16) << j
        return code

    dist = model.equilibrium
    cuts = declared_cuts(model, dist, named.values())
    histogram = core.sweep_statistics(dist, scheme, classify, len(_CODES), cuts=cuts)
    sets = {triple: histogram.measure(_CODES >> k & 1 == 1) for k, triple in enumerate(ORDERING_SETS)}
    return sets, histogram


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
    sets, histogram = _moc_sweep(model, quadruple, scheme)
    # max keeps the first of tied measures, in ORDERING_SETS order
    (wing, own_name, other_name), moc_measure = max(sets.items(), key=lambda item: item[1].value)
    induced = TransitionReport.of(lambda bins: histogram.measure(bins[ORDER_FREE_PATTERNS]))
    return MocReport(
        pair=f"{wing}@{own_name} (companion {other_name} first)",
        wing=wing,
        own=named[own_name],
        other=named[other_name],
        moc_measure=moc_measure,
        induced_sigma_minus=induced.sigma_minus,
        induced_bell_lhs=hardy_bounds(JointStats(induced.p_plus)).bell_lhs,
        quantum_required=hardy_bounds(quantum_stats(quadruple)).unified,
    )
