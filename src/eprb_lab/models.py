"""Built-in model zoo.

All built-ins live on the two-dimensional hypercube with lambda = (u, v):
u drives the +1/-1 coin, v drives the right wing's anticorrelation flip.
This is the smallest product structure whose transition sets are
axis-aligned rectangles, so every downstream measure has a closed form
against which the estimators can be tested.  Every built-in declares where
its outcomes can change (``breakpoints``): u at 1/2, and for the singlet
models v at the anticorrelation threshold of every setting pair; the bias
density changes only at u = 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .core import (
    Angle,
    BreakpointsFn,
    Cuts,
    Distribution,
    HvModel,
    LambdaSpace,
    _checked_values,
    check_wing,
    theta_between,
    uniform_distribution,
)

SPACE_2D = LambdaSpace(2)


def _coin(coords: np.ndarray, axis: int) -> np.ndarray:
    coords = np.asarray(coords, dtype=np.float64)
    return np.int8(1) - np.int8(2) * (coords[..., axis] >= 0.5).view(np.int8)


def _flip_below(values: np.ndarray, column: np.ndarray, threshold: float) -> np.ndarray:
    """``values`` negated where ``column < threshold``, in int8 arithmetic."""
    # strict < keeps midpoint grids off the threshold
    return values * (np.int8(1) - np.int8(2) * (column < threshold).view(np.int8))


def anticorrelation_threshold(theta: float) -> float:
    """(1 + cos theta)/2, the v-threshold below which the wings disagree."""
    return 0.5 * (1.0 + math.cos(theta))


def _coin_breakpoints(angles: Sequence[Angle]) -> Cuts:
    return ((0.5,), (0.5,))


def _singlet_breakpoints(angles: Sequence[Angle]) -> Cuts:
    """u at 1/2; v at the anticorrelation threshold of every ordered pair of
    ``angles``, computed as the outcome functions compute it."""
    thresholds = (anticorrelation_threshold(theta_between(x, y)) for x in angles for y in angles)
    return ((0.5,), tuple(thresholds))


def local_coin_model() -> HvModel:
    """Two independent fair coins: A reads u, B reads v, settings ignored."""

    def outcome_a(a: Angle, b: Angle, coords: np.ndarray) -> np.ndarray:
        return _coin(coords, 0)

    def outcome_b(a: Angle, b: Angle, coords: np.ndarray) -> np.ndarray:
        return _coin(coords, 1)

    return HvModel(
        name="local-coin",
        space=SPACE_2D,
        outcome_a=outcome_a,
        outcome_b=outcome_b,
        equilibrium=uniform_distribution(SPACE_2D),
        breakpoints=_coin_breakpoints,
    )


def singlet_model() -> HvModel:
    """A deterministic pair reproducing the singlet statistics at equilibrium:
    :func:`sequential_singlet_model` measured A first, renamed "singlet".

    A(a, b, (u, v)) = +1 iff u < 1/2, ignoring both settings.  B copies A
    and flips it exactly when v < (1 + cos theta_ab)/2, so the product is
    -1 with probability (1 + cos theta_ab)/2 under the uniform density.
    All dependence on the remote setting sits on the B side; the A-side
    transition sets are empty by construction.
    """
    return replace(as_simultaneous(sequential_singlet_model(), "A"), name="singlet")


def biased_distribution(model: HvModel, q: float) -> Distribution:
    """Nonequilibrium density that reweights the u axis so P(u < 1/2) = q.

    Piecewise constant: 2q on u < 1/2 and 2(1-q) above; the remaining axes
    stay uniform.  q = 1/2 recovers the uniform density.
    """
    q = float(q)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"bias q must lie in [0, 1], got {q!r}")
    dimension = model.space.dimension

    def density(coords: np.ndarray) -> np.ndarray:
        coords = np.asarray(coords, dtype=np.float64)
        return np.where(coords[..., 0] < 0.5, 2.0 * q, 2.0 * (1.0 - q))

    def sampler(rng: np.random.Generator, n: int) -> np.ndarray:
        points = rng.random((n, dimension))
        w = points[:, 0]
        low = w < q
        u = np.empty_like(w)
        if q > 0.0:
            u[low] = 0.5 * (w[low] / q)
        if q < 1.0:
            u[~low] = 0.5 + 0.5 * ((w[~low] - q) / (1.0 - q))
        points[:, 0] = u
        return points

    return Distribution(
        space=model.space,
        density=density,
        label=f"nonequilibrium:q={q:.12g}",
        sampler=sampler,
        breakpoints=((0.5,),) + ((),) * (dimension - 1),
    )


FirstOutcomeFn = Callable[[str, Angle, np.ndarray], np.ndarray]
SecondOutcomeFn = Callable[[str, Angle, Angle, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class SequentialModel:
    """A model whose outcomes may depend on the measurement order.

    ``first_outcome(wing, own_setting, coords)`` is the outcome of the wing
    measured first; its signature carries no information about the other
    wing's setting, which encodes the free-choice assumption for the later
    measurement.  ``second_outcome(wing, own_setting, other_setting,
    first_value, coords)`` is the outcome of the wing measured second, given
    the first wing's realized outcome.  Wings are named "A" and "B".
    :meth:`first` and :meth:`second` are the way to ask for them: each
    checks that the answer is one +1/-1 per point, of any numeric dtype.

    ``breakpoints(angles)``, when present, returns one tuple of cut
    positions per axis such that every first and second outcome, at every
    setting pair drawn from ``angles`` and either first value, is constant
    on each open cell between the cuts; None declares nothing.
    """

    name: str
    space: LambdaSpace
    equilibrium: Distribution
    first_outcome: FirstOutcomeFn
    second_outcome: SecondOutcomeFn
    breakpoints: BreakpointsFn | None = None

    def first(self, wing: str, own: Angle, coords: np.ndarray) -> np.ndarray:
        """``wing``'s checked outcomes at ``own`` when it is measured first."""
        answer = self.first_outcome(check_wing(wing), own, coords)
        return _checked_values(answer, coords, self.name, wing)

    def second(
        self, wing: str, own: Angle, other: Angle, first: np.ndarray, coords: np.ndarray
    ) -> np.ndarray:
        """``wing``'s checked outcomes at ``own`` when it is measured second,
        after its companion answered ``first`` at ``other``."""
        answer = self.second_outcome(check_wing(wing), own, other, first, coords)
        return _checked_values(answer, coords, self.name, wing)


def sequential_singlet_model() -> SequentialModel:
    """Order-resolved singlet model.

    Whichever wing is measured first answers with the shared coin
    (+1 iff u < 1/2); the wing measured second flips the first outcome
    exactly when v < (1 + cos theta)/2 with theta between the two settings.
    Both orderings reproduce the singlet statistics at equilibrium, but the
    outcome of a fixed wing depends on whether it went first or second on
    the set {v < threshold}, which has measure (1 + cos theta)/2.  Measured
    A first, it is :func:`singlet_model`.
    """

    def first_outcome(wing: str, own: Angle, coords: np.ndarray) -> np.ndarray:
        check_wing(wing)
        return _coin(coords, 0)

    def second_outcome(
        wing: str, own: Angle, other: Angle, first_value: np.ndarray, coords: np.ndarray
    ) -> np.ndarray:
        check_wing(wing)
        coords = np.asarray(coords, dtype=np.float64)
        threshold = anticorrelation_threshold(theta_between(own, other))
        return _flip_below(np.asarray(first_value), coords[..., 1], threshold)

    return SequentialModel(
        name="sequential-singlet",
        space=SPACE_2D,
        equilibrium=uniform_distribution(SPACE_2D),
        first_outcome=first_outcome,
        second_outcome=second_outcome,
        breakpoints=_singlet_breakpoints,
    )


def _ordered(model: SequentialModel, first_wing: str | None, name: str) -> HvModel:
    """``model`` answering under one measurement order.

    The wing named ``first_wing`` answers with ``first_outcome``; the other
    wing answers with ``second_outcome``, after the first wing's answer at
    its own setting.  With no first wing (None) each wing answers with
    ``first_outcome``.
    """

    def answer(wing: str, own: Angle, other: Angle, coords: np.ndarray) -> np.ndarray:
        if first_wing is None or wing == first_wing:
            return model.first_outcome(wing, own, coords)
        first = model.first(first_wing, other, coords)
        return model.second_outcome(wing, own, other, first, coords)

    def outcome_a(a: Angle, b: Angle, coords: np.ndarray) -> np.ndarray:
        return answer("A", a, b, coords)

    def outcome_b(a: Angle, b: Angle, coords: np.ndarray) -> np.ndarray:
        return answer("B", b, a, coords)

    return HvModel(
        name=name,
        space=model.space,
        outcome_a=outcome_a,
        outcome_b=outcome_b,
        equilibrium=model.equilibrium,
        breakpoints=model.breakpoints,
    )


def as_simultaneous(model: SequentialModel, first_wing: str = "A") -> HvModel:
    """Collapse a sequential model into an ordinary one at a fixed order.

    The wing named ``first_wing`` is measured first in every run; the other
    wing's outcome function may then depend on both settings, and
    :func:`core.probe_locality` measures whether it does.
    """
    return _ordered(model, check_wing(first_wing), f"{model.name}[{first_wing} first]")


def induce_noncontextual(model: SequentialModel) -> HvModel:
    """The simultaneous model forced by ordering non-contextuality.

    If order never matters, each wing's outcome is its first-measurement
    outcome, whose signature has no access to the companion's setting; the
    result is local by construction.
    """
    return _ordered(model, None, f"{model.name}+order-free")


@dataclass(frozen=True)
class ModelChoice:
    """A resolved CLI model name.

    Every hidden-variable model populates ``hv`` and ``distribution``.  An
    order-resolved model also populates ``sequential``, and its ``hv`` is the
    collapse that the simultaneous-analysis commands use.  The analytic
    "quantum" source populates neither: it has no hidden variables.
    """

    name: str
    hv: HvModel | None = None
    sequential: SequentialModel | None = None
    distribution: Distribution | None = None


_BIAS_PREFIX = "singlet+bias:q="

#: Each built-in CLI model name, in order, and its factory: a SequentialModel runs
#: as its default collapse, None is analytic, and the bias entry is a template.
_BUILT_INS: dict[str, Callable[[], HvModel | SequentialModel] | None] = {
    "local-coin": local_coin_model,
    "singlet": singlet_model,
    _BIAS_PREFIX + "<real>": singlet_model,
    "sequential-singlet": sequential_singlet_model,
    "quantum": None,
}
MODEL_NAMES = tuple(_BUILT_INS)  # the names resolve_model accepts


def resolve_model(name: str) -> ModelChoice:
    """The :class:`ModelChoice` of a CLI model name; unknown names raise ValueError."""
    key, q = name, None
    if name.startswith(_BIAS_PREFIX):
        text = name[len(_BIAS_PREFIX):]
        try:
            key, q = _BIAS_PREFIX + "<real>", float(text)
        except ValueError:
            raise ValueError(f"malformed bias value {text!r} in model name {name!r}") from None
    if key not in _BUILT_INS:
        raise ValueError(f"unknown model name {name!r}; expected one of {', '.join(MODEL_NAMES)}")
    factory = _BUILT_INS[key]
    if factory is None:
        return ModelChoice(name=name)
    model = factory()
    sequential = model if isinstance(model, SequentialModel) else None
    hv = model if sequential is None else as_simultaneous(sequential)
    distribution = hv.equilibrium if q is None else biased_distribution(hv, q)
    return ModelChoice(name=name, hv=hv, sequential=sequential, distribution=distribution)
