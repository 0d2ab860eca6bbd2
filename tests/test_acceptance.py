"""Acceptance gate: the twelve shipping criteria, one test per criterion.

Each test exercises the public surface (library or CLI) at the stated
tolerance and prints a single PASS line; a failed assertion is the FAIL
line.  Tolerances are pinned: 1e-12 for float identities, 1e-3 for grid
estimates (resolution >= 512), 4 standard errors for Monte Carlo.
"""

from __future__ import annotations

import csv
import io
import math
import os

import numpy as np

from eprb_lab.cli import main
from eprb_lab.core import (
    TAU,
    Angle,
    AngleQuadruple,
    GridScheme,
    MonteCarloScheme,
    context_outcomes,
    derived_stream,
    probe_locality,
)
from eprb_lab.inequalities import (
    contradiction_trace,
    hardy_bounds,
    quantum_stats,
    stats_from_model,
)
from eprb_lab.models import (
    biased_distribution,
    local_coin_model,
    sequential_singlet_model,
    singlet_model,
)
from eprb_lab.ordering import moc_demo
from eprb_lab.protocols import average_bits_identity, detailed_balance, marginal_shift, simulate_game
from eprb_lab.transition import CANONICAL_SETS, MembershipVector, classify_lambda, full_report
from helpers import induce_noncontextual, lemma_check, random_joint_stats

SQRT2 = math.sqrt(2)
CHAIN = AngleQuadruple.chain(math.pi / 4)


def g_shape(theta: float) -> float:
    return 0.5 * (3.0 * math.cos(theta) - math.cos(3.0 * theta)) - 1.0


def random_quadruple(rng) -> AngleQuadruple:
    a, ap, b, bp = (Angle(float(x) * TAU) for x in rng.random(4))
    return AngleQuadruple(a=a, a_prime=ap, b=b, b_prime=bp)


def sweep_csv(tmp_path) -> list[dict[str, str]]:
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--model", "quantum", "--out", str(out)]) == 0
    return list(csv.DictReader(io.StringIO(out.read_text())))


def test_criterion_01_hardy_bound_curve(tmp_path):
    rows = sweep_csv(tmp_path)
    assert len(rows) == 181
    for i, row in enumerate(rows):
        # reconstruct the grid point exactly as the sweep does
        theta = 0.0 + i * (math.pi - 0.0) / 180
        assert abs(float(row["theta"]) - theta) <= 5e-12
        assert abs(float(row["hardy_bound"]) - max(0.0, g_shape(theta))) <= 1e-12
    quarter = float(rows[45]["hardy_bound"])
    assert abs(quarter - (SQRT2 - 1)) <= 1e-12
    print("criterion 1: PASS - 181-point sweep matches the closed-form bound "
          f"within 1e-12; value at pi/4 is {quarter:.12f} = sqrt(2)-1")


def test_criterion_02_unified_bell_relation():
    bounds = hardy_bounds(quantum_stats(CHAIN))
    assert abs(bounds.bell_lhs - 2 * SQRT2) <= 1e-12
    checked = 0
    for i in range(181):
        theta = i * math.pi / 180
        b = hardy_bounds(quantum_stats(AngleQuadruple.chain(theta)))
        if b.unified > 0.0:
            assert abs(b.unified - (b.bell_lhs - 2.0) / 2.0) <= 1e-12
            checked += 1
    assert checked > 0
    print(f"criterion 2: PASS - bell_lhs(pi/4) = 2*sqrt(2) within 1e-12; "
          f"violation = twice the bound at all {checked} violating sweep points")


def test_criterion_03_at_most_one_positive_bound():
    rng = np.random.default_rng(20260814)
    for _ in range(100_000):
        stats = random_joint_stats(rng)
        assert lemma_check(stats) <= 1
        bounds = hardy_bounds(stats)
        for alpha, beta in zip(bounds.alpha, bounds.beta):
            assert abs(alpha + beta + 2.0) <= 1e-12
    print("criterion 3: PASS - 1e5 random statistics: never two positive "
          "bounds, and each alpha/beta pair sums to -2 within 1e-12")


def test_criterion_04_unified_equals_best_bound():
    rng = np.random.default_rng(20260814)
    for _ in range(100_000):
        bounds = hardy_bounds(random_joint_stats(rng))
        assert abs(bounds.unified - max(0.0, max(bounds.alpha + bounds.beta))) <= 1e-12
    print("criterion 4: PASS - unified bound equals max(0, eight bounds) "
          "within 1e-12 on 1e5 random statistics")


def test_criterion_05_singlet_model_faithful():
    model = singlet_model()
    rng = derived_stream(160814, 0, 0)
    pairs = 0
    for _ in range(8):
        quadruple = random_quadruple(rng)
        measured = stats_from_model(model, model.equilibrium, quadruple, GridScheme(1024))
        analytic = quantum_stats(quadruple)
        for got, want in zip(measured.p_minus, analytic.p_minus):
            assert abs(got - want) <= 1e-3
            pairs += 1
    n = 1_000_000
    mc = stats_from_model(model, model.equilibrium, CHAIN, MonteCarloScheme(n=n, seed=160814))
    for got, want in zip(mc.p_minus, quantum_stats(CHAIN).p_minus):
        se = math.sqrt(want * (1.0 - want) / n)
        assert abs(got - want) <= 4 * se
    print(f"criterion 5: PASS - grid(1024) statistics within 1e-3 at {pairs} "
          "random angle pairs; Monte Carlo (n=1e6) within 4 std errors")


def test_criterion_06_parity_identity():
    model = singlet_model()
    report = full_report(model, model.equilibrium, CHAIN, GridScheme(1024))
    assert report.sum_t_regions - report.sigma_minus.value == 0.0
    assert report.sigma_minus.value >= SQRT2 - 1 - 1e-3
    rng = derived_stream(160814, 1, 0)
    for _ in range(3):
        other = full_report(model, model.equilibrium, random_quadruple(rng), GridScheme(512))
        assert other.sum_t_regions - other.sigma_minus.value == 0.0
    print("criterion 6: PASS - sum of the eight odd-region measures equals "
          f"P(sigma_minus) exactly; P(sigma_minus) = {report.sigma_minus.value:.6f} "
          ">= sqrt(2)-1 - 1e-3 at the pi/4 chain")


def test_criterion_07_local_model_null_case():
    model = local_coin_model()
    report = full_report(model, model.equilibrium, CHAIN, GridScheme(128))
    for sid in CANONICAL_SETS:
        assert report.set_measures[sid].value == 0.0
    assert report.sigma_minus.value == 0.0
    bounds = hardy_bounds(stats_from_model(model, model.equilibrium, CHAIN, GridScheme(128)))
    assert bounds.bell_lhs <= 2.0
    assert bounds.unified == 0.0
    summary, _ = simulate_game(model, model.equilibrium, CHAIN, 20_000, seed=7)
    assert summary.average_bits == 0.0
    print("criterion 7: PASS - local coin model: all transition measures 0, "
          f"bell_lhs = {bounds.bell_lhs:.3f} <= 2, unified = 0, average_bits = 0")


def test_criterion_08_communication_bound():
    model = singlet_model()
    n = 1_000_000
    summary, _ = simulate_game(model, model.equilibrium, CHAIN, n, seed=160814)
    assert summary.average_bits >= SQRT2 - 1 - 4 * summary.bits_std_error
    report = full_report(model, model.equilibrium, CHAIN, GridScheme(1024))
    b_regions, lower = average_bits_identity(report)
    assert b_regions >= lower
    # combined uncertainty: the game's sampling error plus the grid's 1/1024
    # deterministic resolution bound
    assert abs(summary.average_bits - b_regions) <= 4 * summary.bits_std_error + 1 / 1024
    print(f"criterion 8: PASS - game average {summary.average_bits:.6f} bits >= "
          f"sqrt(2)-1 - 4se and matches the region integral {b_regions:.6f} "
          "within 4 std errors plus grid resolution")


def test_criterion_09_signal_locality():
    model = singlet_model()
    rng = derived_stream(160814, 2, 0)
    scheme = GridScheme(512)
    for _ in range(16):
        b, a1, a2 = (Angle(float(x) * TAU) for x in rng.random(3))
        quadruple = AngleQuadruple(a=a1, a_prime=a2, b=b, b_prime=b)
        shift, gap = marginal_shift(model, model.equilibrium, b, a1, a2, scheme)
        assert gap == detailed_balance(
            model, model.equilibrium, quadruple, CANONICAL_SETS[0], scheme
        )
        assert shift <= 1e-3 and gap <= 1e-3
    biased = biased_distribution(model, 1.0)
    shift, _ = marginal_shift(
        model, biased, Angle(0.0), Angle(0.0), Angle(math.pi / 2), GridScheme(1024)
    )
    assert abs(shift - 0.5) <= 1e-3
    print("criterion 9: PASS - equilibrium marginals immune to remote swaps at "
          f"16 random setting pairs (<= 1e-3); q=1 bias shifts by {shift:.4f}")


def test_criterion_10_ordering_contextuality():
    report = moc_demo(sequential_singlet_model(), CHAIN, GridScheme(512))
    target = (1 + math.cos(math.pi / 4)) / 2
    assert abs(report.moc_measure.value - target) <= 1e-3
    assert report.induced_sigma_minus.value == 0.0
    assert report.induced_bell_lhs <= 2.0
    assert abs(report.quantum_required - (SQRT2 - 1)) <= 1e-12
    assert report.quantum_required > 0.0
    induced = induce_noncontextual(sequential_singlet_model())
    assert probe_locality(induced)
    print(f"criterion 10: PASS - ordering-dependence measure {report.moc_measure.value:.6f} "
          "= (1+cos(pi/4))/2 within 1e-3 while the order-free model has "
          "P(sigma_minus) = 0 against a required sqrt(2)-1")


def test_criterion_11_contradiction_tracer_on_grid():
    model = singlet_model()
    resolution = 64
    centers = (np.arange(resolution) + 0.5) / resolution
    uu, vv = np.meshgrid(centers, centers, indexing="ij")
    points = np.column_stack([uu.ravel(), vv.ravel()])
    contexts = context_outcomes(model, CHAIN, points)
    va = np.stack([pair[0] for pair in contexts])  # (4, n)
    vb = np.stack([pair[1] for pair in contexts])
    # canonical membership: a wing's outcome changes under the other wing's swap
    in_set = np.stack(
        [vb[0] != vb[1], va[1] != va[2], vb[3] != vb[2], va[0] != va[3]]
    )
    signs = va * vb
    odd_count = 0
    for j in range(points.shape[0]):
        pairs = tuple((int(va[k, j]), int(vb[k, j])) for k in range(4))
        pattern = tuple(int(s) for s in signs[:, j])
        empty = MembershipVector(in_set=(False,) * 4, sign_pattern=pattern)
        trace = contradiction_trace(pairs, empty)
        odd = bool(in_set[:, j].sum() % 2)
        assert odd == (int(np.prod(signs[:, j])) == -1)
        if odd:
            odd_count += 1
            assert not trace.consistent
            # the cycle closes on the observable it started from
            assert trace.failing_step == "A(a,b)"
        else:
            assert trace.consistent
        truth = MembershipVector(in_set=tuple(bool(m) for m in in_set[:, j]), sign_pattern=pattern)
        assert contradiction_trace(pairs, truth).consistent
    # spot-check the vectorized classification against the scalar one
    for j in range(0, points.shape[0], 301):
        scalar = classify_lambda(model, CHAIN, points[j])
        assert scalar.in_set == tuple(bool(m) for m in in_set[:, j])
    assert 0 < odd_count < points.shape[0]
    print(f"criterion 11: PASS - all {points.shape[0]} grid points traced: "
          f"{odd_count} odd-membership lambdas all contradict at A(a,b) under "
          "the all-empty hypothesis, the rest are consistent")


def test_criterion_12_byte_reproducibility(tmp_path):
    commands = [
        ["comm", "--runs", "50000", "--seed", "11", "--out", "comm.csv", "--log", "comm_log.csv"],
        ["transition", "--mc", "50000", "--seed", "11", "--out", "transition.csv"],
        ["sweep", "--model", "singlet", "--steps", "5", "--grid", "128",
         "--out", "sweep.csv", "--svg", "sweep.svg"],
    ]
    runs = {}
    for label in ("first", "second"):
        directory = tmp_path / label
        directory.mkdir()
        cwd = os.getcwd()
        os.chdir(directory)
        try:
            for argv in commands:
                assert main(argv) == 0
        finally:
            os.chdir(cwd)
        runs[label] = directory
    names = [
        "comm.csv", "comm.csv.manifest.json", "comm_log.csv",
        "transition.csv", "transition.csv.manifest.json",
        "sweep.csv", "sweep.csv.manifest.json", "sweep.svg",
    ]
    for name in names:
        assert (runs["first"] / name).read_bytes() == (runs["second"] / name).read_bytes()
    replay_dir = tmp_path / "replayed"
    replay_dir.mkdir()
    cwd = os.getcwd()
    os.chdir(replay_dir)
    try:
        assert main(["replay", str(runs["first"] / "transition.csv.manifest.json")]) == 0
    finally:
        os.chdir(cwd)
    assert (replay_dir / "transition.csv").read_bytes() == (
        runs["first"] / "transition.csv"
    ).read_bytes()
    print(f"criterion 12: PASS - {len(names)} output files byte-identical "
          "across two runs; manifest replay reproduces the CSV exactly")
