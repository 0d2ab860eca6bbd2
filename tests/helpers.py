"""Helpers shared by the test modules (not part of the package)."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from eprb_lab import core
from eprb_lab.core import MeasureEstimate, declared_cuts
from eprb_lab.inequalities import JointStats
from eprb_lab.transition import LABELS_BY_MASK, TransitionSetId


def random_joint_stats(rng: np.random.Generator) -> JointStats:
    """One uniform draw from the full statistics polytope."""
    return JointStats.from_p_plus(tuple(float(v) for v in rng.random(4)))


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

# Partition bins: 0 outside the set, 1 for (+,-), 2 for (-,+).
_PARTITION_SELECTION = np.array([[False, True, False], [False, False, True]])


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

    cuts = declared_cuts(model, dist, quadruple.named_angles().values())
    values, errors = core.sweep_statistics(dist, scheme, masks_fn, 3, _PARTITION_SELECTION, cuts=cuts)
    return tuple(MeasureEstimate(float(v), float(e), scheme) for v, e in zip(values, errors))


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
