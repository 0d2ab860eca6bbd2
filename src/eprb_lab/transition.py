"""Transition sets, membership classification, escape regions and P(sigma_minus).

For a setting quadruple (a, a', b, b') there are four transition sets: the
lambdas where one wing's outcome responds to a swap of the *other* wing's
setting while its own is held fixed.  Set k links context k of the cycle
``core.CONTEXTS`` to context k + 1, and its table :data:`SET_LINKS` is
derived from that cycle.  In canonical order:

======  =============  ================================
index   id             defining comparison
======  =============  ================================
0       bob@b          B(a, b)  vs B(a', b)
1       alice@a'       A(a', b) vs A(a', b')
2       bob@b'         B(a, b') vs B(a', b')
3       alice@a        A(a, b)  vs A(a, b')
======  =============  ================================

A lambda's membership pattern across the four sets, together with the four
context outcome products, obeys a parity rule: the product of the four signs
is -1 exactly when the membership count is odd.  The odd-membership patterns
form the eight regions T1..T8 (T1..T4: exactly three memberships, with the
excluded set walking through canonical indices 0..3; T5..T8: exactly one
membership, the member walking through canonical indices 3..0).  The
even-membership patterns get artifact labels: E1..E6 for the exactly-two
patterns in lexicographic index-pair order, F for all four, "none" for zero.

Every measure of a quadruple is a view over one histogram: a sweep bins each
lambda by its 8 outcome bits (256 patterns), and each set, partition, region,
sigma_minus, context statistic p_i^+ and one-wing marginal is the measure of
a fixed union of those bins.  :meth:`TransitionReport.of` is the package's
one reader of the pattern tables: given the measure of any selection of
patterns, it builds every statistic.  :func:`full_report` hands it its
sweep's histogram and ``ordering.moc_demo`` the order-free model's view of
the moc histogram; :func:`partition_measures`,
:func:`inequalities.stats_from_model` and ``protocols.marginal_shift`` are
views of the report.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Mapping

import numpy as np

from .core import (
    CONTEXTS,
    SETTINGS,
    WINGS,
    AngleQuadruple,
    ClassifierFn,
    Distribution,
    HvModel,
    MeasureEstimate,
    NumericalInvariantError,
    Scheme,
    as_lambda_point,
    context_outcomes,
    declared_cuts,
    record,
    sweep_statistics,
)


class TransitionSetId(enum.Enum):
    """The four swap-response sets, in canonical order; values are the
    stable row labels used in reports."""

    BOB_AT_B = "bob@b"
    ALICE_AT_A_PRIME = "alice@a'"
    BOB_AT_B_PRIME = "bob@b'"
    ALICE_AT_A = "alice@a"


CANONICAL_SETS: tuple[TransitionSetId, ...] = tuple(TransitionSetId)


def _link(here: int) -> tuple[str, int, int]:
    """(wing, pre-context, post-context) of the link from context ``here`` to
    the next: the wing whose setting the two share, then the context where
    the other wing plays its choice 0 (the unprimed setting), then the other."""
    there = (here + 1) % len(CONTEXTS)
    wing = int(CONTEXTS[here][0] != CONTEXTS[there][0])
    if CONTEXTS[here][1 - wing] != SETTINGS[WINGS[1 - wing]][0]:
        here, there = there, here
    return WINGS[wing], here, there


#: (wing, pre-context, post-context) of each set: set k links context k to k + 1.
SET_LINKS = {sid: _link(k) for k, sid in enumerate(CANONICAL_SETS)}


def _build_region_labels() -> tuple[str, ...]:
    n = len(CANONICAL_SETS)
    full = (1 << n) - 1
    labels = {0: "none", full: "F"}
    for j in range(n):
        labels[1 << j] = f"T{2 * n - j}"
        labels[full ^ (1 << j)] = f"T{1 + j}"
    for rank, (i, j) in enumerate(itertools.combinations(range(n), 2), start=1):
        labels[(1 << i) | (1 << j)] = f"E{rank}"
    return tuple(labels[mask] for mask in range(full + 1))


#: Region label for each 4-bit membership mask (bit i = canonical set i).
LABELS_BY_MASK: tuple[str, ...] = _build_region_labels()

T_REGION_LABELS: tuple[str, ...] = tuple(f"T{i}" for i in range(1, 9))
E_REGION_LABELS: tuple[str, ...] = tuple(f"E{i}" for i in range(1, 7))
ALL_REGION_LABELS: tuple[str, ...] = T_REGION_LABELS + E_REGION_LABELS + ("F", "none")


@record
class MembershipVector:
    """Membership flags for the four sets plus the four context products.

    ``in_set`` follows the canonical set order, ``sign_pattern`` the
    canonical context order.  Vectors produced by :func:`classify_lambda`
    always satisfy the parity rule (sign product -1 iff odd membership
    count); hand-built hypothesis vectors, as consumed by the contradiction
    tracer, need not, so the rule is deliberately not enforced here.
    """

    in_set: tuple[bool, bool, bool, bool]
    sign_pattern: tuple[int, int, int, int]

    def __post_init__(self) -> None:
        if len(self.in_set) != len(CANONICAL_SETS) or len(self.sign_pattern) != len(CONTEXTS):
            raise ValueError("in_set and sign_pattern must both have length 4")
        if any(s not in (-1, 1) for s in self.sign_pattern):
            raise ValueError(f"sign_pattern entries must be +1/-1, got {self.sign_pattern!r}")

    @property
    def membership_count(self) -> int:
        return sum(self.in_set)

    @property
    def mask(self) -> int:
        return sum(1 << i for i, flag in enumerate(self.in_set) if flag)

    @property
    def region(self) -> str:
        return LABELS_BY_MASK[self.mask]

    def parity_consistent(self) -> bool:
        product = 1
        for s in self.sign_pattern:
            product *= s
        return (product == -1) == (self.membership_count % 2 == 1)


#: Number of outcome patterns: two outcome bits (A and B) per context.
N_PATTERNS = 1 << 2 * len(CONTEXTS)


def pattern_code(contexts: tuple[tuple[np.ndarray, np.ndarray], ...]) -> np.ndarray:
    """The 8-bit outcome pattern of each point: bit 2i is set when A is -1
    in canonical context i, bit 2i+1 when B is."""
    code = np.zeros(contexts[0][0].shape, dtype=np.uint8)
    for i, (va, vb) in enumerate(contexts):
        code += (va < 0) * np.uint8(1 << 2 * i)
        code += (vb < 0) * np.uint8(2 << 2 * i)
    return code


def pattern_classifier(model: HvModel, quadruple: AngleQuadruple) -> ClassifierFn:
    """A :func:`sweep_statistics` classifier binning each point by its
    outcome pattern (:func:`pattern_code`), ``N_PATTERNS`` bins."""

    def classify(coords: np.ndarray) -> np.ndarray:
        return pattern_code(context_outcomes(model, quadruple, coords))

    return classify


#: The outcome (+1/-1) that each pattern holds, indexed [context, wing,
#: pattern] with wing 0 for A and 1 for B: the inverse of :func:`pattern_code`.
OUTCOMES_BY_PATTERN = 1 - 2 * (
    np.arange(N_PATTERNS) >> np.arange(2 * len(CONTEXTS)).reshape(-1, 2, 1) & 1
)


def _build_pattern_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Set memberships, context signs and pre-swap values of every pattern.

    Each result has one row per canonical set (or context) and one column
    per pattern.  Set i compares the outcomes that ``SET_LINKS`` names;
    its pre-swap value is the outcome at the unprimed swap setting.
    """
    members, pre_values = [], []
    for sid in CANONICAL_SETS:
        wing, pre, post = SET_LINKS[sid]
        outcomes = OUTCOMES_BY_PATTERN[:, WINGS.index(wing)]
        members.append(outcomes[pre] != outcomes[post])
        pre_values.append(outcomes[pre])
    return np.stack(members), np.prod(OUTCOMES_BY_PATTERN, axis=1), np.stack(pre_values)


_MEMBERS, _SIGNS, _PRE_VALUES = _build_pattern_tables()
_ODD = np.bitwise_xor.reduce(_MEMBERS, axis=0)

#: Membership mask (an index into :data:`LABELS_BY_MASK`) of each pattern.
MASK_BY_PATTERN = np.sum(_MEMBERS << np.arange(len(_MEMBERS))[:, None], axis=0).astype(np.uint8)

# The parity rule is an identity of the outcome bits: the four sign products
# multiply to -1 exactly on the odd-membership patterns.  So it holds for
# every lambda of every model, and sigma_minus and the negative-product
# measure are the same bins.
if not np.array_equal(_ODD, np.prod(_SIGNS, axis=0) == -1):
    raise NumericalInvariantError("sign-parity rule fails on the outcome-pattern table")

#: Pattern selection of the context statistics p_i^+, canonical order.
P_PLUS_SELECTION = _SIGNS == 1


def classify_lambda(model: HvModel, quadruple: AngleQuadruple, lam: object) -> MembershipVector:
    """Evaluate all four contexts at one lambda and fill the vector."""
    point = as_lambda_point(lam, model.space).reshape(1, -1)
    pattern = pattern_code(context_outcomes(model, quadruple, point))[0]
    return MembershipVector(
        in_set=tuple(bool(m) for m in _MEMBERS[:, pattern]),  # type: ignore[arg-type]
        sign_pattern=tuple(int(s) for s in _SIGNS[:, pattern]),  # type: ignore[arg-type]
    )


@record
class TransitionReport:
    """Every transition-set statistic from a single sweep.

    ``region_measures`` covers all sixteen membership patterns (T1..T8,
    E1..E6, F, none).  ``sigma_minus`` is the measure of odd-membership
    lambdas, which is also the negative-sign-product measure: both select
    the same outcome patterns.  ``p_plus`` holds the context statistics
    p_i^+ of the same sweep, canonical context order, and ``marginals`` each
    wing's P(outcome = +1) in each context, indexed [context][wing] with
    wing 0 for A and 1 for B.
    """

    set_measures: Mapping[TransitionSetId, MeasureEstimate]
    partition_measures: Mapping[TransitionSetId, tuple[MeasureEstimate, MeasureEstimate]]
    region_measures: Mapping[str, MeasureEstimate]
    sigma_minus: MeasureEstimate
    p_plus: tuple[float, float, float, float]
    marginals: tuple[tuple[float, float], ...]

    @classmethod
    def of(cls, measure: Callable[[np.ndarray], MeasureEstimate]) -> TransitionReport:
        """Every statistic, as ``measure`` of a boolean selection of the outcome patterns."""
        return cls(
            set_measures={sid: measure(_MEMBERS[i]) for i, sid in enumerate(CANONICAL_SETS)},
            partition_measures={
                sid: tuple(measure(_MEMBERS[i] & (_PRE_VALUES[i] == sign)) for sign in (1, -1))
                for i, sid in enumerate(CANONICAL_SETS)
            },
            region_measures={
                label: measure(MASK_BY_PATTERN == code) for code, label in enumerate(LABELS_BY_MASK)
            },
            sigma_minus=measure(_ODD),
            p_plus=tuple(measure(bins).value for bins in P_PLUS_SELECTION),  # type: ignore[arg-type]
            marginals=tuple(tuple(measure(bins).value for bins in up) for up in OUTCOMES_BY_PATTERN == 1),
        )

    @property
    def sum_t_regions(self) -> float:
        """Sum of the eight odd-region measures; equals sigma_minus exactly
        on power-of-two grids and within float addition error otherwise."""
        return float(sum(self.region_measures[label].value for label in T_REGION_LABELS))

    def csv_rows(self) -> list[tuple[str, float, float]]:
        """(name, value, std_error) rows in a stable order."""
        rows: list[tuple[str, float, float]] = []
        for sid in CANONICAL_SETS:
            est = self.set_measures[sid]
            rows.append((sid.value, est.value, est.std_error))
        for sid in CANONICAL_SETS:
            plus_minus, minus_plus = self.partition_measures[sid]
            rows.append((f"{sid.value}:+-", plus_minus.value, plus_minus.std_error))
            rows.append((f"{sid.value}:-+", minus_plus.value, minus_plus.std_error))
        rows.append(("sigma_minus", self.sigma_minus.value, self.sigma_minus.std_error))
        rows.append(("sum_t_regions", self.sum_t_regions, 0.0))
        rows.append(("sum_t_minus_sigma", self.sum_t_regions - self.sigma_minus.value, 0.0))
        for label in ALL_REGION_LABELS:
            est = self.region_measures[label]
            rows.append((label, est.value, est.std_error))
        return rows


def full_report(
    model: HvModel, dist: Distribution, quadruple: AngleQuadruple, scheme: Scheme
) -> TransitionReport:
    """Classify every lambda once and report every measure from that sweep.

    The sweep, the package's only pattern sweep, fills one histogram over
    the 256 outcome patterns and :meth:`TransitionReport.of` reads every
    statistic as a union of its bins, so additivity identities (partitions
    summing to set measures, regions summing to sigma_minus) hold exactly
    rather than approximately.
    """
    histogram = sweep_statistics(
        dist,
        scheme,
        pattern_classifier(model, quadruple),
        N_PATTERNS,
        cuts=declared_cuts(model, dist, quadruple.named_angles().values()),
    )
    return TransitionReport.of(histogram.measure)


def partition_measures(
    model: HvModel,
    dist: Distribution,
    quadruple: AngleQuadruple,
    which: TransitionSetId,
    scheme: Scheme,
) -> tuple[MeasureEstimate, MeasureEstimate]:
    """(P(+,-), P(-,+)): the set split by flip direction.

    (+,-) collects the lambdas whose outcome is +1 at the unprimed swap
    setting and flips to -1 at the primed one; (-,+) is the reverse.  A view
    of :func:`full_report`, kept as a named entry point, so the two add up to
    the set measure exactly.
    """
    return full_report(model, dist, quadruple, scheme).partition_measures[which]
