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
the four first answers, which fix the induced model's outcome pattern, so
the sets, its sigma_minus and its context statistics are all unions of bins.
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
from .transition import _ODD, P_PLUS_SELECTION, pattern_code
from .transition import full_report  # noqa: F401  (bench/tracer.py rebinds it here)

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

#: The first answers as (wing, own setting): bit 8 + j of a moc code is set when answer j is -1.
_FIRSTS: tuple[tuple[str, str], ...] = (("A", "a"), ("A", "a'"), ("B", "b"), ("B", "b'"))


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
        firsts = {(wing, own): _first(model, wing, named[own], coords) for wing, own in _FIRSTS}
        code = np.zeros(coords.shape[0], dtype=np.uint16)
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
            code |= flip.astype(np.uint16) << k
        for j, first in enumerate(firsts.values(), start=len(ORDERING_SETS)):
            code |= (first < 0).astype(np.uint16) << j
        return code

    codes = np.arange(1 << (len(ORDERING_SETS) + len(_FIRSTS)))
    dist = model.equilibrium
    cuts = declared_cuts(model, dist, named.values())
    histogram = core.sweep_statistics(dist, scheme, classify, len(codes), cuts=cuts)
    sets = {triple: histogram.measure(codes >> k & 1 == 1) for k, triple in enumerate(ORDERING_SETS)}
    return sets, histogram


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
    sets, histogram = _moc_sweep(model, quadruple, scheme)
    # max keeps the first of tied measures, in ORDERING_SETS order
    (wing, own_name, other_name), moc_measure = max(sets.items(), key=lambda item: item[1].value)
    # the order-free model's outcome pattern at each combination of first answers, then each bin
    answers = dict(zip(_FIRSTS, 1 - 2 * (np.arange(16) >> np.arange(4)[:, None] & 1)))
    contexts = (("a", "b"), ("a'", "b"), ("a'", "b'"), ("a", "b'"))  # canonical order
    patterns = pattern_code(tuple((answers["A", x], answers["B", y]) for x, y in contexts))
    induced = patterns[np.arange(len(histogram.sums)) >> len(ORDERING_SETS)]
    p_plus = tuple(histogram.measure(bins).value for bins in P_PLUS_SELECTION[:, induced])
    return MocReport(
        pair=f"{wing}@{own_name} (companion {other_name} first)",
        wing=wing,
        own=named[own_name],
        other=named[other_name],
        moc_measure=moc_measure,
        induced_sigma_minus=histogram.measure(_ODD[induced]),
        induced_bell_lhs=hardy_bounds(JointStats(p_plus)).bell_lhs,
        quantum_required=hardy_bounds(quantum_stats(quadruple)).unified,
    )
