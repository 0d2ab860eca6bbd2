"""The classical-communication game and the signal-locality analyzer.

Game rules: Alice and Bob share a lambda drawn from the model's
distribution, each picks one of their two settings with a fair coin, and
before answering they may exchange setting information.  Alice must send her
setting whenever Bob's outcome could depend on it for at least one of Bob's
settings (lambda lies in bob@b or bob@b'), and symmetrically for Bob, so a
run costs 0, 1 or 2 bits depending only on the membership pattern.  The
average cost is therefore an integral of the pattern-wise bit count, which
is bounded below by the measure of the odd-membership union sigma_minus.

Signal locality: a remote setting swap moves lambdas between the two halves
of a transition set (the (+,-) and (-,+) partitions).  At equilibrium the
two halves have equal measure, so the local marginal cannot shift; a biased
lambda distribution breaks the balance and the marginal moves.  The shift of
the marginal and the balance gap are the same difference of sets read two
ways, so :func:`marginal_shift` reads both off one
:func:`transition.full_report`: the shift from its B marginals, the gap from
its bob@b partitions.  :func:`detailed_balance` reads the gap of any of the
four sets off the same report.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import (
    CONTEXTS,
    SETTINGS,
    Angle,
    AngleQuadruple,
    Distribution,
    HvModel,
    NumericalInvariantError,
    Scheme,
    _in_unit_cube,
    check_seed,
    monte_carlo_chunks,
)
from .inequalities import JointStats, hardy_bounds
from .transition import (
    ALL_REGION_LABELS,
    LABELS_BY_MASK,
    TransitionReport,
    MASK_BY_PATTERN,
    N_PATTERNS,
    OUTCOMES_BY_PATTERN,
    SET_LINKS,
    TransitionSetId,
    full_report,
    partition_measures,
    pattern_classifier,
)

# Domain tags separating the game's random streams (lambda, Alice's coin,
# Bob's coin) from measure sweeps.
_DOMAINS = (11, 12, 13)

#: Bits exchanged for each membership mask (bit i = canonical set i):
#: Alice's setting travels iff lambda sits in a B-side set, Bob's iff in an
#: A-side set, so a run costs one bit per wing among its sets' links.
BITS_BY_MASK: tuple[int, ...] = tuple(
    len({wing for i, (wing, _, _) in enumerate(SET_LINKS.values()) if mask >> i & 1})
    for mask in range(len(LABELS_BY_MASK))
)

#: Number of run keys (see :class:`CommBlock`).
N_KEYS = len(CONTEXTS) * N_PATTERNS
# Every command imports these tables: small dtypes and table lookups keep that cheap.
_CHOICES, _PATTERNS = np.divmod(np.arange(N_KEYS, dtype=np.int16), N_PATTERNS)

#: Canonical context of each run key: the one that setting choice 2 * alice + bob plays.
CONTEXT_BY_KEY = np.array(
    [CONTEXTS.index(pair) for pair in itertools.product(*SETTINGS.values())], dtype=np.int8
)[_CHOICES]
#: Membership mask (an index into ``LABELS_BY_MASK``) of each run key.
MASK_BY_KEY = MASK_BY_PATTERN[_PATTERNS]
#: Bits exchanged in each run key.
BITS_BY_KEY = np.array(BITS_BY_MASK, dtype=np.int8)[MASK_BY_KEY]
#: Alice's and Bob's outcomes in the context each run key plays.
OUTCOME_A_BY_KEY, OUTCOME_B_BY_KEY = OUTCOMES_BY_PATTERN[CONTEXT_BY_KEY, :, _PATTERNS].T


def _by_key(table: np.ndarray) -> property:
    return property(lambda block: table[block.key], doc="A column of the runs, looked up by key.")


@dataclass(frozen=True, eq=False)
class CommBlock:
    """The runs of one chunk of a sampling block.

    Row j is run ``start + j``: the shared lambda ``lam[j]`` and the run key
    ``key[j] = (2 * alice + bob) * N_PATTERNS + pattern``, where a choice is
    an index into ``SETTINGS`` (0 for the unprimed setting) and ``pattern`` is
    lambda's :func:`pattern_code`.  The setting choices, lambda's membership
    mask (an index into ``LABELS_BY_MASK``), the bit cost and the outcomes
    of the realized context are lookups of the key.
    """

    start: int
    lam: np.ndarray
    key: np.ndarray

    alice_choice = _by_key(_CHOICES.astype(np.int8) // len(SETTINGS["B"]))
    bob_choice = _by_key(_CHOICES.astype(np.int8) % len(SETTINGS["B"]))
    mask_code = _by_key(MASK_BY_KEY)
    bits = _by_key(BITS_BY_KEY)
    outcome_a = _by_key(OUTCOME_A_BY_KEY)
    outcome_b = _by_key(OUTCOME_B_BY_KEY)


@dataclass(frozen=True)
class CommSummary:
    """Aggregates of a game: average cost and empirical statistics.

    ``stats`` conditions on the realized settings (context i gets the runs
    that happened to play context i); ``context_counts`` are the run counts
    behind each context, and ``n_runs`` is their sum.  ``sigma_minus_bound``
    is the unified lower bound evaluated on ``stats``: the cost estimated
    from the game's own data, a point estimate with no error bar, to compare
    against ``average_bits``.
    """

    seed: int
    average_bits: float
    bits_std_error: float
    stats: JointStats
    context_counts: tuple[int, int, int, int]

    @property
    def n_runs(self) -> int:
        return sum(self.context_counts)

    @property
    def sigma_minus_bound(self) -> float:
        return hardy_bounds(self.stats).unified


def simulate_game(
    model: HvModel,
    dist: Distribution,
    quadruple: AngleQuadruple,
    n_runs: int,
    seed: int,
) -> tuple[CommSummary, Iterator[CommBlock]]:
    """Play the game for n_runs and return the summary plus a lazy run stream.

    Lambdas come from ``dist.sampler`` and the two setting coins from
    domain-separated streams of the same seed, one stream triple per block
    of :func:`core.monte_carlo_chunks`, the driver the Monte Carlo sweeps
    use, so a (seed, n_runs) pair fixes every run exactly.  Each block is
    played a chunk of runs at a time, and each chunk's lambdas are binned by
    :func:`transition.pattern_classifier`.  The summary's
    counts, ``p_plus`` and bit sums are exact integer sums over one
    ``N_KEYS``-bin histogram of the run keys, filled one chunk at a time, so
    memory stays at one chunk whatever ``n_runs`` is.  The returned iterator
    plays the runs again on demand and yields one :class:`CommBlock` per
    chunk; consuming it is optional.
    """
    if not isinstance(n_runs, int) or n_runs < 1:
        raise ValueError(f"n_runs must be a positive integer, got {n_runs!r}")
    check_seed(seed)
    if dist.sampler is None:
        raise ValueError(f"distribution {dist.label!r} has no sampler; the game needs one")
    if dist.space != model.space:
        raise ValueError("distribution and model live on different spaces")

    classify = pattern_classifier(model, quadruple)

    def play_chunk(streams: tuple[np.random.Generator, ...], lo: int, hi: int) -> CommBlock:
        lam_rng, alice_rng, bob_rng = streams
        lam = dist.sampler(lam_rng, hi - lo)
        if not _in_unit_cube(lam):
            raise ValueError(f"sampler of {dist.label!r} produced points outside [0, 1)")
        key = 2 * alice_rng.integers(0, 2, hi - lo)
        key += bob_rng.integers(0, 2, hi - lo)
        key *= N_PATTERNS
        key += classify(lam)
        return CommBlock(start=lo, lam=lam, key=key)

    def play() -> Iterator[CommBlock]:
        # a chunk is made in its own frame, so the generator keeps no reference
        # to it once yielded, and a consumer that drops it frees it
        for streams, spans in monte_carlo_chunks(n_runs, seed, _DOMAINS):
            for lo, hi in spans:
                yield play_chunk(streams, lo, hi)

    histogram = np.zeros(N_KEYS, dtype=np.int64)
    for chunk in play():
        histogram += np.bincount(chunk.key, minlength=N_KEYS)
        del chunk  # free it before the stream plays the next one

    in_context = CONTEXT_BY_KEY[:, None] == np.arange(len(CONTEXTS))
    counts = (histogram @ in_context).tolist()
    plus = ((OUTCOME_A_BY_KEY == OUTCOME_B_BY_KEY) * histogram @ in_context).tolist()
    if 0 in counts:
        unplayed = counts.index(0) + 1
        raise ValueError(f"context {unplayed} was never played in {n_runs} runs; increase n_runs")

    bits_sum = int(histogram @ BITS_BY_KEY)
    bits_squares = int(histogram @ (BITS_BY_KEY * BITS_BY_KEY))
    # Every context was played, so n_runs >= 4.  The sums are exact integers,
    # so the variance is rounded only once.
    variance = (n_runs * bits_squares - bits_sum * bits_sum) / (n_runs * (n_runs - 1))
    summary = CommSummary(
        seed=seed,
        average_bits=bits_sum / n_runs,
        bits_std_error=math.sqrt(variance) / math.sqrt(n_runs),
        stats=JointStats(tuple(p / count for p, count in zip(plus, counts))),
        context_counts=tuple(counts),  # type: ignore[arg-type]
    )
    return summary, play()


def average_bits_identity(report: TransitionReport) -> tuple[float, float]:
    """Integrate the bit cost over the report's regions.

    Returns (b_regions, lower_bound) where b_regions is the sum of each
    region's bits (``BITS_BY_MASK`` at its mask) times its measure over all
    sixteen regions, and lower_bound is P(sigma_minus).  Every odd region
    costs at least one bit, so b_regions can never fall below the bound; a
    violation means the report is internally inconsistent and raises
    NumericalInvariantError.
    """
    b_regions = float(
        sum(
            BITS_BY_MASK[LABELS_BY_MASK.index(label)] * report.region_measures[label].value
            for label in ALL_REGION_LABELS
        )
    )
    lower_bound = report.sigma_minus.value
    if b_regions < lower_bound - 1e-9:
        raise NumericalInvariantError(
            f"region-integrated bits {b_regions} fell below P(sigma_minus) {lower_bound}"
        )
    return b_regions, lower_bound


def marginal_shift(
    model: HvModel,
    dist: Distribution,
    b_setting: Angle,
    a1: Angle,
    a2: Angle,
    scheme: Scheme,
) -> tuple[float, float]:
    """(shift, gap) at B's setting ``b_setting`` as Alice switches a1 -> a2.

    shift is |P(B=+1 at (a1, b)) - P(B=+1 at (a2, b))| and gap is
    |P(+,-) - P(-,+)| of the bob@b set of the quadruple (a1, a2, b, b), the
    :func:`detailed_balance` of that set.  Both are views of one
    :func:`transition.full_report` of that quadruple; equal in exact
    arithmetic, they are sums over different bins and may differ in the last bits.
    """
    report = full_report(model, dist, AngleQuadruple(a1, a2, b_setting, b_setting), scheme)
    # the bob@b set links B at (a1, b), its pre-context, to B at (a2, b)
    wing, pre, post = SET_LINKS[TransitionSetId.BOB_AT_B]
    up_1, up_2 = (report.marginals[context]["AB".index(wing)] for context in (pre, post))
    plus_minus, minus_plus = report.partition_measures[TransitionSetId.BOB_AT_B]
    return abs(up_1 - up_2), abs(plus_minus.value - minus_plus.value)


def detailed_balance(
    model: HvModel,
    dist: Distribution,
    quadruple: AngleQuadruple,
    which: TransitionSetId,
    scheme: Scheme,
) -> float:
    """|P(+,-) - P(-,+)| for one transition set under ``dist``.

    Zero at equilibrium for statistics-reproducing models; a nonzero gap is
    exactly the handle a remote party would need to signal.
    """
    plus_minus, minus_plus = partition_measures(model, dist, quadruple, which, scheme)
    return abs(plus_minus.value - minus_plus.value)
