"""Statistics-level algebra: Hardy-type lower bounds, the unified Bell
inequality, CHSH forms, and the four-context contradiction tracer.

Notation: context i in 1..4 runs over (a,b), (a',b), (a',b'), (a,b') and
p_i^+/p_i^- are the probabilities of outcome product +1/-1 in context i.
Each of the eight sign patterns with an odd number of minus entries yields a
linear lower bound on the measure of a corresponding intersection set; the
two groups of four combine into a single unified lower bound on
P(sigma_minus), and the same quantities rearrange into a single Bell-type
inequality whose violation is exactly twice the unified bound.

Measured statistics (:func:`stats_from_model`) are a view of
:func:`transition.full_report`, its p_i^+; this module makes no sweep of its
own.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .core import CONTEXT_LABELS, CONTEXTS, AngleQuadruple, Distribution, HvModel, Scheme, record
from .core import sweep_statistics  # noqa: F401  (bench/tracer.py rebinds it here)
from .transition import CANONICAL_SETS, SET_LINKS, MembershipVector, TransitionSetId, full_report

#: The four all-but-one-plus sign patterns, in canonical bound order.
ALPHA_SIGNS: tuple[tuple[int, int, int, int], ...] = (
    (1, 1, 1, -1),
    (1, 1, -1, 1),
    (1, -1, 1, 1),
    (-1, 1, 1, 1),
)

#: Entry-wise negations of the alpha patterns.
BETA_SIGNS: tuple[tuple[int, int, int, int], ...] = tuple(
    tuple(-s for s in pattern) for pattern in ALPHA_SIGNS
)


@record
class JointStats:
    """The four context product distributions: p_i^+ is stored (as floats in
    [0, 1], checked when made) and p_i^- = 1 - p_i^+ derived from it."""

    p_plus: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_plus", tuple(float(p) for p in self.p_plus))
        if len(self.p_plus) != len(CONTEXTS):
            raise ValueError("JointStats needs exactly four contexts")
        for i, plus in enumerate(self.p_plus):
            if not 0.0 <= plus <= 1.0:
                raise ValueError(f"context {i + 1} probabilities outside [0, 1]: {plus}, {1.0 - plus}")

    @property
    def p_minus(self) -> tuple[float, float, float, float]:
        return tuple(1.0 - p for p in self.p_plus)  # type: ignore[return-value]


def bound_for_signs(stats: JointStats, signs: Sequence[int]) -> float:
    """The linear bound sum_i p_i^(sign_i) - 3 for one sign pattern."""
    total = 0.0
    for i, sign in enumerate(signs):
        total += stats.p_plus[i] if sign > 0 else stats.p_minus[i]
    return total - 3.0


@record
class HardyBounds:
    """The eight pattern bounds plus the unified quantities.

    ``x`` and ``y`` are the two absolute-difference groups; ``unified`` is
    max(0, x-1) + max(0, y-1) and ``bell_lhs`` is x + y + |x - y|, whose
    excess over 2 is exactly twice the unified bound whenever positive.
    Both are derived from ``x`` and ``y``.
    """

    alpha: tuple[float, float, float, float]
    beta: tuple[float, float, float, float]
    x: float
    y: float

    @property
    def unified(self) -> float:
        return max(0.0, self.x - 1.0) + max(0.0, self.y - 1.0)

    @property
    def bell_lhs(self) -> float:
        return self.x + self.y + abs(self.x - self.y)


def hardy_bounds(stats: JointStats) -> HardyBounds:
    """Evaluate the eight pattern bounds and the unified inequality."""
    alpha = tuple(bound_for_signs(stats, signs) for signs in ALPHA_SIGNS)
    beta = tuple(bound_for_signs(stats, signs) for signs in BETA_SIGNS)
    p, m = stats.p_plus, stats.p_minus
    x = abs(p[0] - m[1]) + abs(p[2] - p[3])
    y = abs(p[0] - p[1]) + abs(p[2] - m[3])
    return HardyBounds(alpha=alpha, beta=beta, x=x, y=y)  # type: ignore[arg-type]


def quantum_stats(quadruple: AngleQuadruple) -> JointStats:
    """Analytic singlet statistics: p_i^- = (1 + cos theta_i)/2."""
    thetas = quadruple.context_thetas()
    return JointStats(tuple(0.5 * (1.0 - np.cos(t)) for t in thetas))


def stats_from_model(
    model: HvModel, dist: Distribution, quadruple: AngleQuadruple, scheme: Scheme
) -> JointStats:
    """Measured product statistics of a model: a view of
    :func:`transition.full_report`, its p_i^+, kept as a named entry point."""
    return JointStats(full_report(model, dist, quadruple, scheme).p_plus)


class ChshResult(NamedTuple):
    c1: float
    c2: float
    c3: float
    c4: float
    lhs1: float
    lhs2: float


def chsh_correlations(stats: JointStats) -> ChshResult:
    """Correlation functions c_i = p_i^+ - p_i^- and both CHSH left sides.

    lhs1 = |c1 + c4| + |c2 - c3| and lhs2 = |c1 - c4| + |c2 + c3|; their sum
    never exceeds 4, so at most one of them can exceed 2.
    """
    c = tuple(plus - minus for plus, minus in zip(stats.p_plus, stats.p_minus))
    lhs1 = abs(c[0] + c[3]) + abs(c[1] - c[2])
    lhs2 = abs(c[0] - c[3]) + abs(c[1] + c[2])
    return ChshResult(c[0], c[1], c[2], c[3], lhs1, lhs2)


@record
class TraceStep:
    """One deduction in the four-context cycle.

    ``kind`` is "premise" (the starting outcome), "context-sign" (the other
    wing's outcome inferred from the context product), "transition" (the
    same wing's outcome carried to the neighbouring context, flipped when
    the hypothesis puts lambda in the crossed set) or "check" (the final
    re-derivation compared against the premise).
    """

    index: int
    kind: str
    observable: str
    value: int
    rule: str
    used_set: TransitionSetId | None = None
    escaped: bool = False


@record
class ContradictionTrace:
    """The full deduction chain and its verdict.

    ``consistent`` is True when the re-derived A(a,b) agrees with the
    premise.  ``escapes_used`` collects the sets the hypothesis already
    flipped on.  Derived from ``consistent``: on contradiction,
    ``failing_step`` names the final check and ``escape_options`` lists the
    sets whose single membership would restore consistency (any one of the
    four: each flips the propagation parity).
    """

    steps: tuple[TraceStep, ...]
    consistent: bool
    escapes_used: tuple[TransitionSetId, ...]

    @property
    def failing_step(self) -> str | None:
        return None if self.consistent else self.steps[-1].observable

    @property
    def escape_options(self) -> tuple[TransitionSetId, ...]:
        return () if self.consistent else CANONICAL_SETS

    def render(self) -> str:
        lines = []
        for step in self.steps:
            mark = " [flip]" if step.escaped else ""
            lines.append(f"{step.index}. {step.observable} = {step.value:+d}  ({step.rule}){mark}")
        verdict = "consistent" if self.consistent else f"contradiction at {self.failing_step}"
        lines.append(verdict)
        return "\n".join(lines)


def _observable(wing: str, context: int) -> str:
    """The wing's outcome in a context of the cycle, e.g. "B(a',b)"."""
    alice, bob = CONTEXTS[context % len(CONTEXTS)]
    return f"{wing}({alice},{bob})"


def contradiction_trace(
    assignment: Sequence[tuple[int, int]], memberships: MembershipVector
) -> ContradictionTrace:
    """Replay the four-context deduction cycle under a membership hypothesis.

    ``assignment`` holds the actual (A, B) outcome pairs of one lambda in
    canonical context order; its context products must match
    ``memberships.sign_pattern``.  The chain starts from A(a,b), alternates
    context-product steps with transition-set crossings (flipping the
    carried value exactly when the hypothesis marks the crossed set), and
    finally re-derives A(a,b).  With the all-false hypothesis the verdict is
    a contradiction precisely for odd sign patterns; with the lambda's true
    memberships it is always consistent.
    """
    pairs = [(int(va), int(vb)) for va, vb in assignment]
    if len(pairs) != len(CONTEXTS):
        raise ValueError("assignment must hold four (A, B) context pairs")
    for va, vb in pairs:
        if va not in (-1, 1) or vb not in (-1, 1):
            raise ValueError(f"outcomes must be +1/-1, got {(va, vb)!r}")
    signs = tuple(va * vb for va, vb in pairs)
    if signs != tuple(memberships.sign_pattern):
        raise ValueError(
            f"assignment products {signs} disagree with sign_pattern "
            f"{tuple(memberships.sign_pattern)}"
        )

    steps: list[TraceStep] = []
    escapes_used: list[TransitionSetId] = []
    premise = pairs[0][0]
    value = premise
    steps.append(
        TraceStep(
            index=0,
            kind="premise",
            observable=_observable("A", 0),
            value=value,
            rule=f"assignment at context {CONTEXT_LABELS[0]}",
        )
    )
    # Alternate: context k's product fixes the other wing, then set k, the link
    # to context k + 1, carries that wing on; the last leg ends at the premise.
    for leg, crossed in enumerate(CANONICAL_SETS):
        wing = SET_LINKS[crossed][0]
        sign = signs[leg]
        value = sign * value
        steps.append(
            TraceStep(
                index=2 * leg + 1,
                kind="context-sign",
                observable=_observable(wing, leg),
                value=value,
                rule=f"context {CONTEXT_LABELS[leg]} product is {sign:+d}",
            )
        )
        flips = bool(memberships.in_set[leg])
        if flips:
            value = -value
            escapes_used.append(crossed)
        observable = _observable(wing, leg + 1)
        steps.append(
            TraceStep(
                index=2 * leg + 2,
                kind="check" if observable == steps[0].observable else "transition",
                observable=observable,
                value=value,
                rule=(
                    f"crossing {crossed.value}: hypothesis says "
                    f"{'member, value flips' if flips else 'not a member, value carries'}"
                ),
                used_set=crossed,
                escaped=flips,
            )
        )
    return ContradictionTrace(
        steps=tuple(steps), consistent=value == premise, escapes_used=tuple(escapes_used)
    )
