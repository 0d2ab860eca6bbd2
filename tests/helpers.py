"""Helpers shared by the test modules (not part of the package)."""

from __future__ import annotations

import hashlib
from typing import Iterable

import numpy as np

from eprb_lab import core
from eprb_lab.core import GridScheme, HvModel, declared_cuts
from eprb_lab.inequalities import JointStats, hardy_bounds
from eprb_lab.ordering import _moc_sweep
from eprb_lab.transition import LABELS_BY_MASK, TransitionSetId


def random_joint_stats(rng: np.random.Generator) -> JointStats:
    """One uniform draw from the full statistics polytope."""
    return JointStats(tuple(float(v) for v in rng.random(4)))


def lemma_check(stats: JointStats) -> int:
    """Count of strictly positive entries among the eight bounds (never >1)."""
    bounds = hardy_bounds(stats)
    return sum(1 for value in bounds.alpha + bounds.beta if value > 0.0)


def ordering_measures(model, quadruple, scheme):
    """The equilibrium measure of every ordering set, keyed as in
    ``ordering.ORDERING_SETS``: the sets of moc's one sweep."""
    return _moc_sweep(model, quadruple, scheme)[0]


def induce_noncontextual(model):
    """The simultaneous model forced by ordering non-contextuality.

    If order never matters, each wing answers with its first-measurement
    outcome at its own setting, whose signature has no access to the
    companion's setting, so the result is local by construction.  Written
    apart from ``models.as_simultaneous``, as the reference for moc's
    order-free view."""
    return HvModel(
        name=f"{model.name}+order-free",
        space=model.space,
        outcome_a=lambda a, b, coords: model.first("A", a, coords),
        outcome_b=lambda a, b, coords: model.first("B", b, coords),
        equilibrium=model.equilibrium,
        breakpoints=model.breakpoints,
    )


def assignment_from_contexts(
    contexts: Iterable[tuple[int, int]]
) -> tuple[tuple[int, int], ...]:
    """Normalize an iterable of (A, B) pairs into a trace assignment."""
    return tuple((int(va), int(vb)) for va, vb in contexts)


# (wing, pre-context, post-context) of each set, canonical context order
# (a,b), (a',b), (a',b'), (a,b'); the unprimed swap slot is listed first.
_SET_CONTEXTS = {
    TransitionSetId.BOB_AT_B: ("B", 0, 1),
    TransitionSetId.ALICE_AT_A_PRIME: ("A", 1, 2),
    TransitionSetId.BOB_AT_B_PRIME: ("B", 3, 2),
    TransitionSetId.ALICE_AT_A: ("A", 0, 3),
}

# The written-out tables that core.SETTINGS replaced, kept as references for
# the tables derived from it: the ordering sets as (wing, own setting,
# companion setting) in moc's search order, the first answers in moc code bit
# order, and the canonical context that each setting choice 2 * alice + bob
# plays in the game.
ORDERING_SETS = (
    ("A", "a", "b"),
    ("A", "a", "b'"),
    ("A", "a'", "b"),
    ("A", "a'", "b'"),
    ("B", "b", "a"),
    ("B", "b", "a'"),
    ("B", "b'", "a"),
    ("B", "b'", "a'"),
)
FIRST_ANSWERS = (("A", "a"), ("A", "a'"), ("B", "b"), ("B", "b'"))
CONTEXT_BY_CHOICE = (0, 3, 1, 2)

# sha256 over dtype, shape and bytes (see table_digest) of every table built
# from the context cycle, taken while the setting names were still written
# out in each module.
CYCLE_TABLE_DIGESTS = {
    "transition.OUTCOMES_BY_PATTERN": "8ad2e0f09aae89cc9c7ebd2ffb68f7f9ef89eaad209f8c95ebc7a73a4aeb2853",
    "transition._MEMBERS": "7fc0f4e823edd0d2ea2e28f71e0649e0bbe9c338891c0dc3c4041e7d781b45e5",
    "transition._SIGNS": "354fc3d302eef97284e8982b084425ca3be6586be7f165758783addc13c9a6e9",
    "transition._PRE_VALUES": "169cbeb7bd68f4a1d0cf4ef53632c81d3572527910a2560f224c42cbf89a4136",
    "transition._ODD": "7405ededb44d5b87a3e38c3a4d2171e9b4cb1e766b6db2ca8cb4f89cce83f431",
    "transition.MASK_BY_PATTERN": "1bb819b89384dd742908dd965c671598c6f4a96aafde7d78e68d1bb5134c99e7",
    "transition.P_PLUS_SELECTION": "0047b47d4e946da52b6db5a5839fa2617da3e21d90dd5db003e72478efce7dd9",
    "transition.LABELS_BY_MASK": "7e49bee9346e77f7e6c65ce1553d8cac2ec537594736b34c86e854245e03407f",
    "protocols.BITS_BY_MASK": "ebe7375bc47932d589e56cc1b17b2e75059a28f047a43db73dfd456cc644bdfe",
    "protocols.CONTEXT_BY_KEY": "cfda80e6062b730b105d6b96ab4bb1894abe5475563595d633fd05094abade9a",
    "protocols.MASK_BY_KEY": "fd4a3ed9941872170a61fdb59acf56438d32f8e4fd6f9c0c349842ee4b09b573",
    "protocols.BITS_BY_KEY": "5284abd43acb0c094dcfb68f20ad52d9a2392346dca380d4a3088305c3485104",
    "protocols.OUTCOME_A_BY_KEY": "017599f8a2fa2c04da12ffcf6ea12b064ce8fbf4b311e02cf9ec8f7377bdd873",
    "protocols.OUTCOME_B_BY_KEY": "d9d089475facd13315c305c4160e6b644c449ea7d1a11a81bb880ec935596c1c",
    "CommBlock.alice_choice": "56770584689d7340ba43243e8b3392a886829572f23fcceac924dfa955b9573f",
    "CommBlock.bob_choice": "a1f7def1651a88750b2f10c22de1cf5ee86fad31868539d7eae93bdba5e0fb7a",
    "CommBlock.mask_code": "fd4a3ed9941872170a61fdb59acf56438d32f8e4fd6f9c0c349842ee4b09b573",
    "CommBlock.bits": "5284abd43acb0c094dcfb68f20ad52d9a2392346dca380d4a3088305c3485104",
    "CommBlock.outcome_a": "017599f8a2fa2c04da12ffcf6ea12b064ce8fbf4b311e02cf9ec8f7377bdd873",
    "CommBlock.outcome_b": "d9d089475facd13315c305c4160e6b644c449ea7d1a11a81bb880ec935596c1c",
    "cli._tail_words": "43528f90402ecbfe5046f452023ad953942e30fecaa80106df7d3e0603f7afbd",
}


# chunk sizes that no result may depend on: two powers of two, one that
# divides no block, and one just above a power of two
CHUNK_SIZES = (1 << 14, 1 << 16, 1000, 4097)


def table_digest(table) -> str:
    """sha256 over a table's dtype, shape and bytes, as a numpy array."""
    array = np.asarray(table)
    digest = hashlib.sha256(f"{array.dtype}{array.shape}".encode("ascii"))
    digest.update(array.tobytes())
    return digest.hexdigest()


def reference_partition_measures(model, dist, quadruple, which, scheme):
    """(P(+,-), P(-,+)) of one set from its own three-bin sweep: the
    classifier the package used before the partitions became rows of the
    outcome-pattern sweep, kept as an independent reference."""
    wing, pre_index, post_index = _SET_CONTEXTS[which]
    contexts = quadruple.contexts()
    fn = model.outcome_a if wing == "A" else model.outcome_b

    def masks_fn(coords):
        pre = np.asarray(fn(*contexts[pre_index], coords))
        post = np.asarray(fn(*contexts[post_index], coords))
        return (pre != post) * np.where(pre == 1, 1, 2)

    # bins: 0 outside the set, 1 for (+,-), 2 for (-,+)
    cuts = declared_cuts(model, dist, quadruple.named_angles().values())
    histogram = core.sweep_statistics(dist, scheme, masks_fn, 3, cuts=cuts)
    return tuple(histogram.measure(np.arange(3) == half) for half in (1, 2))


def reference_statistics(histogram, selection):
    """``(values, std_errors)``, one entry per row of the boolean
    ``(k, n_bins)`` array ``selection``, from a sweep's histogram: the
    readout the kernel made itself while it took selection matrices, kept
    as the reference for ``Histogram.measure``."""

    def selected(totals):
        return np.where(selection, totals, 0.0).sum(axis=1)

    scheme = histogram.scheme
    sums, squares = histogram.totals
    if isinstance(scheme, GridScheme):
        values = selected(sums) / float(scheme.resolution) ** histogram.dimension
        values = np.where((values > 1.0) & (values <= 1.0 + 1e-9), 1.0, values)
        return values, np.zeros(len(values), dtype=np.float64)
    n = scheme.n
    values = selected(sums) / n
    if n > 1:
        variances = np.maximum(selected(squares) - n * values * values, 0.0) / (n - 1)
        std_errors = np.sqrt(variances / n)
    else:
        std_errors = np.zeros(len(values), dtype=np.float64)
    return np.clip(values, 0.0, 1.0), std_errors


def total_mass(dist, scheme):
    """The measure of the whole space under ``dist``: the one bin of a
    one-bin sweep; 1 within the scheme's tolerance for a density."""
    histogram = core.sweep_statistics(dist, scheme, lambda c: np.zeros(len(c), np.uint8), 1)
    return histogram.measure(np.array([True]))


def reference_write_log(handle, dimension, blocks):
    """The run log as the package wrote it before the row tail became a
    lookup of the run key: nine fields plus lambda per row, each row from
    the block's separate columns, kept as the reference for the log bytes."""
    header = (
        ["run"]
        + [f"lambda_{axis}" for axis in range(dimension)]
        + ["alice_setting", "bob_setting", "region", "bits", "outcome_a", "outcome_b"]
    )
    handle.write(",".join(header) + "\n")
    row = "%d," + "%.12g," * dimension + "%s,%s,%s,%d,%d,%d\n"
    alice_labels = np.array(["a", "a'"], dtype=object)
    bob_labels = np.array(["b", "b'"], dtype=object)
    region_labels = np.array(LABELS_BY_MASK, dtype=object)
    for block in blocks:
        n = len(block.lam)
        columns = [range(block.start, block.start + n)]
        columns += [block.lam[:, axis].tolist() for axis in range(dimension)]
        columns += [
            alice_labels[block.alice_choice].tolist(),
            bob_labels[block.bob_choice].tolist(),
            region_labels[block.mask_code].tolist(),
            block.bits.tolist(),
            block.outcome_a.tolist(),
            block.outcome_b.tolist(),
        ]
        for values in zip(*columns):
            handle.write(row % values)
