"""End-to-end checks of the command-line front end."""

from __future__ import annotations

import csv
import errno
import gc
import hashlib
import io
import itertools
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from eprb_lab import __version__, cli, core
from eprb_lab.cli import _LOG_PIECE_ROWS, _SUBCOMMANDS, _write_log, main
from eprb_lab.core import BLOCK_SIZE, CHUNK_SIZE, AngleQuadruple, NumericalInvariantError
from eprb_lab.models import MODEL_NAMES, resolve_model
from eprb_lab.protocols import N_KEYS, CommBlock, simulate_game
from helpers import CHUNK_SIZES, reference_write_log


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


# ---------------------------------------------------------------------------
# Happy paths on stdout


def test_stats_quantum(capsys):
    code, out, _ = run_cli(["stats", "--model", "quantum"], capsys)
    assert code == 0
    rows = rows_of(out)
    assert [row["context"] for row in rows] == ["ab", "a'b", "a'b'", "ab'"]
    assert float(rows[0]["p_minus"]) == pytest.approx((1 + math.cos(math.pi / 4)) / 2, abs=1e-12)
    assert float(rows[3]["p_minus"]) == pytest.approx((1 - math.cos(math.pi / 4)) / 2, abs=1e-12)


def test_stats_singlet_grid_matches_quantum(capsys):
    code, out, _ = run_cli(["stats", "--grid", "512"], capsys)
    assert code == 0
    rows = rows_of(out)
    assert float(rows[0]["p_minus"]) == pytest.approx((1 + math.cos(math.pi / 4)) / 2, abs=1e-3)


def test_stats_monte_carlo(capsys):
    code, out, _ = run_cli(["stats", "--mc", "20000", "--seed", "7"], capsys)
    assert code == 0
    rows = rows_of(out)
    assert float(rows[0]["p_minus"]) == pytest.approx((1 + math.cos(math.pi / 4)) / 2, abs=0.02)


def test_stats_local_coin_flat(capsys):
    code, out, _ = run_cli(["stats", "--model", "local-coin", "--grid", "64"], capsys)
    assert code == 0
    assert all(float(row["p_plus"]) == 0.5 for row in rows_of(out))


def test_transition_singlet_chain(capsys):
    code, out, _ = run_cli(["transition", "--grid", "1024"], capsys)
    assert code == 0
    table = {row["name"]: row for row in rows_of(out)}
    assert float(table["sigma_minus"]["value"]) == 724 / 1024
    assert float(table["T6"]["value"]) == 724 / 1024
    assert float(table["alice@a"]["value"]) == 0.0
    assert float(table["sum_t_minus_sigma"]["value"]) == 0.0
    assert table["sigma_minus"]["scheme"] == "grid(1024)"
    assert table["sigma_minus"]["seed"] == ""
    # a single Monte Carlo sample has no spread to estimate
    code, out, _ = run_cli(["transition", "--mc", "1", "--seed", "3"], capsys)
    assert code == 0
    assert {float(row["std_error"]) for row in rows_of(out)} == {0.0}


def test_sweep_quantum_default_curve(capsys):
    code, out, _ = run_cli(["sweep"], capsys)
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 181
    assert rows[0]["theta"] == "0"
    # analytic rows carry no model-measure columns
    assert rows[0]["sigma_minus"] == "" and rows[0]["avg_bits"] == ""
    quarter = rows[45]
    assert float(quarter["theta"]) == pytest.approx(math.pi / 4, abs=1e-12)
    assert float(quarter["hardy_bound"]) == pytest.approx(math.sqrt(2) - 1, abs=1e-12)
    # twelve significant digits resolve a magnitude-2.8 value to ~5e-12
    assert float(quarter["bell_lhs"]) == pytest.approx(2 * math.sqrt(2), abs=5e-12)


def test_sweep_hv_fills_model_columns(capsys):
    code, out, _ = run_cli(
        ["sweep", "--model", "singlet", "--steps", "5", "--grid", "128"], capsys
    )
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 5
    for row in rows:
        assert row["sigma_minus"] != ""
        # on the chain the cost integral collapses onto P(sigma_minus)
        assert row["avg_bits"] == row["sigma_minus"]


def test_comm_summary_and_log(tmp_path, capsys):
    log = tmp_path / "runs.csv"
    argv = ["comm", "--runs", "2000", "--seed", "5", "--log", str(log)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    (row,) = rows_of(out)
    assert row["n_runs"] == "2000" and row["seed"] == "5"
    counts = [int(row[f"count_{i}"]) for i in range(1, 5)]
    assert sum(counts) == 2000
    assert float(row["average_bits"]) >= float(row["sigma_minus_bound"]) - 4 * float(
        row["bits_std_error"]
    )
    log_lines = log.read_text().splitlines()
    assert len(log_lines) == 2001
    assert log_lines[0] == "run,lambda_0,lambda_1,alice_setting,bob_setting,region,bits,outcome_a,outcome_b"


def test_comm_log_and_summary_bytes_are_pinned(tmp_path, capsys):
    # digests of the row-by-row csv.writer output this log format started from
    log = tmp_path / "runs.csv"
    code, out, _ = run_cli(["comm", "--runs", "2000", "--seed", "5", "--log", str(log)], capsys)
    assert code == 0
    assert hashlib.sha256(log.read_bytes()).hexdigest() == (
        "96e794646635084386e2a64dda3214b17ae7b54755a0dc2e56eefb2bb01db01b"
    )
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "fcb99961188c5967ac6a8891a7d0ab382029c1369d81c2f67048f36046359a8f"
    )


@pytest.mark.parametrize(
    "argv, log_digest, out_digest",
    [
        # the biased density's sampler
        (
            ["--model", "singlet+bias:q=0.7", "--runs", "5000", "--seed", "3"],
            "df64b91019dc539bba4640650a2b783b49d03fccf22b0a2588b03783cc759ec7",
            "a65d854a18c803439b153aa56ae9c2c2e09ed91fbbd800afaf59c46780df107f",
        ),
        (
            ["--model", "local-coin", "--runs", "5000", "--seed", "4"],
            "d754dfd22df149062ca06c5fc4d6d2a39046258c0c49b23faecce8877e8ef70f",
            "d6de1128b60d5bb2f525870bf640fd81ea46edafaf8b8589613b96bb3b7eaf62",
        ),
        # more runs than one chunk of a block, fewer than a block
        (
            ["--runs", "200000", "--seed", "5"],
            "bb84f8c0679f5b84095cd0405809aef10d527d8ad72929363ffe7c84852bd1ee",
            "0fd70e59cb767b787a0627c4227164a08c0a4abc8d076dede18e36e866abc2e0",
        ),
        # the same summary: the bias moves only the coin that orders the wings,
        # and neither a product A*B nor a bit cost depends on that order
        (
            ["--model", "singlet+bias:q=0.7", "--runs", "200000", "--seed", "5"],
            "648abc8257de81ed880e8476da30085b0023410c03d84e0ed763b134e647e3a3",
            "0fd70e59cb767b787a0627c4227164a08c0a4abc8d076dede18e36e866abc2e0",
        ),
    ],
    ids=["biased", "local-coin", "chunks", "biased-chunks"],
)
def test_comm_log_bytes_on_biased_and_local_paths_are_pinned(
    argv, log_digest, out_digest, tmp_path, capsys
):
    log = tmp_path / "log.csv"
    code, out, _ = run_cli(["comm", *argv, "--log", str(log)], capsys)
    assert code == 0
    assert hashlib.sha256(log.read_bytes()).hexdigest() == log_digest
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == out_digest


def test_two_block_comm_summary_is_pinned(capsys):
    code, out, _ = run_cli(["comm", "--runs", "1048713", "--seed", "5"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "de1575a4b4e49cc4f85fd3dc9c8b73b9cd719893774f930f1a6bf76f6374284a"
    )


@pytest.mark.parametrize(
    "name, runs, log",
    [
        ("singlet", 200_000, True),
        ("singlet+bias:q=0.7", 200_000, True),
        ("singlet", BLOCK_SIZE + 137, False),
    ],
)
def test_game_and_its_log_do_not_depend_on_the_chunk_size(name, runs, log, monkeypatch):
    # a block fixes the game's three streams; its chunks are consecutive
    # draws from them, so any chunk size plays the same runs
    choice = resolve_model(name)

    def play(size):
        with monkeypatch.context() as patch:
            patch.setattr(core, "CHUNK_SIZE", size)
            summary, stream = simulate_game(
                choice.hv, choice.distribution, AngleQuadruple.chain(math.pi / 4), runs, seed=5
            )
            written = io.StringIO()
            if log:
                _write_log(written, choice.hv.space.dimension, stream)
            return summary, written.getvalue()

    expected = play(CHUNK_SIZES[0])
    for size in CHUNK_SIZES[1:]:
        assert play(size) == expected, size


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_write_log_matches_the_reference_in_any_dimension(dimension):
    # every built-in model is 2-D, so only these blocks reach other widths,
    # and only these reach every run key
    rng = np.random.default_rng(dimension)
    n = _LOG_PIECE_ROWS + N_KEYS + 5  # every run key, and a short last piece
    lam = rng.random((n, dimension))
    lam[:7] = np.array([0.0, 5e-324, 1e-5, 0.1, 0.5, 1 / 3, 1 - 2.0**-53])[:, None]
    key = np.concatenate([np.arange(N_KEYS), rng.integers(0, N_KEYS, n - N_KEYS)])
    blocks = [
        CommBlock(start=0, lam=lam, key=key),  # run numbers cross 9 -> 10 and 999 -> 1000
        CommBlock(start=n, lam=rng.random((1, dimension)), key=np.array([N_KEYS - 1])),
    ]
    # run numbers that cross 9,999 -> 10,000 (a fifth digit), 99,999 -> 100,000,
    # a block boundary 2**20 and 99,999,999 -> 100,000,000 (a ninth digit)
    for start in (9_990, 99_990, BLOCK_SIZE - 10, 10**8 - 10):
        blocks.append(
            CommBlock(start=start, lam=rng.random((20, dimension)), key=rng.integers(0, N_KEYS, 20))
        )
    written, expected = io.StringIO(), io.StringIO()
    _write_log(written, dimension, blocks)
    reference_write_log(expected, dimension, blocks)
    assert written.getvalue() == expected.getvalue()


@pytest.fixture(scope="module")
def lambda_cases():
    """Doubles where a %.12g formatter can go wrong, then bulk random ones,
    each with its %.12g text."""
    edges = [
        np.nextafter(edge, toward) for edge in (1e-4, 1e-3, 1e-2, 0.1) for toward in (0.0, edge, 1.0)
    ]
    special = [0.0, 5e-324, 1e-310, 2.0**-1022, 1e-5, 0.5, 4097 / 8192, 1 - 2.0**-53, *edges]
    rng = np.random.Generator(np.random.Philox(14))
    near_ties = (rng.integers(0, 10**12, 300_000) + 0.5) / 1e12
    values = np.concatenate([special, near_ties, rng.random(1_000_000), rng.random(200_000) ** 8])
    return values, ["%.12g" % v for v in values.tolist()]


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_log_lambdas_are_exactly_percent_12g(dimension, lambda_cases):
    values, texts = lambda_cases
    rows = len(values) // dimension
    written = io.StringIO()
    lam = values[: rows * dimension].reshape(rows, dimension)
    _write_log(written, dimension, [CommBlock(start=0, lam=lam, key=np.zeros(rows, dtype=np.int64))])
    # header and rows alike have the run, the lambdas and six tail fields
    fields = written.getvalue().replace("\n", ",").split(",")
    stride = 7 + dimension
    for axis in range(dimension):
        assert fields[stride + 1 + axis :: stride] == texts[axis : rows * dimension : dimension]


def test_log_memory_is_one_piece():
    rng = np.random.default_rng(3)
    chunks = [
        CommBlock(start=lo, lam=rng.random((CHUNK_SIZE, 2)), key=rng.integers(0, N_KEYS, CHUNK_SIZE))
        for lo in range(0, 3 * CHUNK_SIZE, CHUNK_SIZE)
    ]

    def peak(blocks):
        tracemalloc.start()
        try:
            with open(os.devnull, "w", encoding="utf-8") as sink:
                _write_log(sink, 2, blocks)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the rows are built and written a piece at a time: a few copies of one
    # piece's 68-byte rows, whatever the length of the stream
    peak([CommBlock(start=0, lam=chunks[0].lam[:1], key=chunks[0].key[:1])])  # builds the tables
    one, three = peak(chunks[:1]), peak(chunks)
    assert one < 4 * 68 * _LOG_PIECE_ROWS
    assert three <= 1.5 * one


def test_sweep_memory_does_not_grow_with_steps(monkeypatch):
    # the rows go to stdout through a spool file, one at a time; only --svg,
    # which plots them all, keeps them
    def peak(steps):
        with open(os.devnull, "w", encoding="utf-8") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            # A full collection empties the interpreter's free lists; objects
            # freed into them after tracing starts stay traced, up to 2,000
            # tuples per size.  Collecting first gives every run the same
            # share of them, instead of one that depends on whether the
            # collector happens to run a full collection during the command.
            gc.collect()
            tracemalloc.start()
            try:
                assert main(["sweep", "--model", "quantum", "--steps", str(steps)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    peak(2_000)  # makes what the first command of a process makes and keeps
    short, long = peak(2_000), peak(20_000)
    assert long <= 1.5 * short, f"peak {long} B at 20,000 steps, {short} B at 2,000"


def test_sweep_and_transition_bytes_are_pinned(tmp_path, capsys):
    # digests of the output of the two-sweep-per-row kernel this one replaced
    svg = tmp_path / "sweep.svg"
    argv = ["sweep", "--model", "singlet", "--steps", "6", "--grid", "256", "--svg", str(svg)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "9794820aed7f614a00041b710a7d0a6b68287d116d046c5faf8b2038d8cf8321"
    )
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == (
        "dc57d986c241235f79964f6b689aefd84e2567776d621190d19adb20960f85c6"
    )
    argv = ["transition", "--model", "singlet+bias:q=0.7", "--mc", "1100000", "--seed", "5"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "479035420ebf83548f02fc714e18468c48b074b61a3906be51245081ea194cef"
    )


def test_moc_and_signal_bytes_are_pinned(capsys):
    # digests of the output of the one-sweep-per-ordering-set and
    # two-sweep marginal-shift code these commands started from
    for argv, digest in (
        (
            ["moc", "--mc", "1100000", "--seed", "5"],
            "13ade2568d0e862540b187a77db3d2672aaed8845afa7cb29f79c6999507b699",
        ),
        (
            ["signal", "--q", "0.7", "--mc", "1100000", "--seed", "5"],
            "c423da46fa460859528049b0ed38092ea5e9979a2a0798c716f3902b736ff778",
        ),
    ):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_grid_bytes_on_biased_and_sequential_paths_are_pinned(capsys):
    # digests of the output of the full-grid kernel that classified every midpoint
    for argv, digest in (
        (
            ["transition", "--model", "singlet+bias:q=0.7", "--grid", "256"],
            "3935667a144793ef1177efa756f40596c35c426764bec88a2ab2415e8be2010a",
        ),
        (
            ["signal", "--q", "0.7", "--grid", "256"],
            "bba00b021de1c6c2b6798bd0c07d8d1adf8d45b0b662a9d8fd74901c21b5e3c4",
        ),
        (
            ["moc", "--grid", "256"],
            "a7391407f9327c8c24c2d4c35f0016ab6168f1567eb1c915ce05f26cbc090774",
        ),
        (
            ["stats", "--model", "local-coin", "--grid", "64"],
            "e0ec74231857f2f3e15bb9c182e158551e3292cb1fa11a17082a4365f5f25f68",
        ),
    ):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_biased_stats_bytes_are_pinned(capsys):
    # digests of the output of stats_from_model's own four-row pattern sweep,
    # before it became a view over the full report's rows
    for argv, digest in (
        (
            ["stats", "--model", "singlet+bias:q=0.7", "--mc", "1100000", "--seed", "5"],
            "8a6a38625946fb0373f1c51745d777c9158e16a71845b800562879c946496c8f",
        ),
        (
            ["stats", "--model", "singlet+bias:q=0.7", "--grid", "256"],
            "5a9d218796068a3c94bb8615af90538c2d64b4febd44849ca38a75a2c0910da5",
        ),
    ):
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digests",
    [
        (
            ["stats", "--model", "quantum"],
            {
                "out.csv": "9ef7869a4791d54f16b70bef774ace25135f9977b9871547d86b7fc431cabca3",
                "out.csv.manifest.json": "5ccdb67b2e9ebace6b425370a694d32669cbeb6ae9c0c1dfae1b56b9f582b6b9",
            },
        ),
        (
            ["stats", "--model", "singlet+bias:q=0.7", "--mc", "20000", "--seed", "3"],
            {
                "out.csv": "969fcbcdc5ff340d9d09330b7541f2e5907f457a8ec538f21d393a8c18248493",
                "out.csv.manifest.json": "331a6718db61ff8ec774fc39eea7bf3556640937af9d5706bd03f1c3fc0cdb54",
            },
        ),
        (
            ["transition", "--grid", "64"],
            {
                "out.csv": "7778ce11521ae81f5f9e48631d5f0b0811539ead7d744b379c8c6d005ab052d5",
                "out.csv.manifest.json": "eef418f60411d82bd449da70a3a7d0803417df9cb94c7518c13463baf695f584",
            },
        ),
        (
            ["sweep", "--steps", "5", "--svg", "out.svg"],
            {
                "out.csv": "b8a71008340e2f9c1d8a7cba6fd3b21aa99d8ad3a76deb8e1447b9f7822183aa",
                "out.csv.manifest.json": "d91fce5846a4e8c6e3b8a2bc0dbb8e599706e635cd06a487ea2d3b897a1a0a22",
                "out.svg": "6c4a01beefeda2d1b40a8adec68c314912b4b908dbfc39366b3581d8ca44ba63",
            },
        ),
        (
            ["sweep", "--model", "singlet", "--steps", "3", "--grid", "64"],
            {
                "out.csv": "a3b461995d57a951ebda12088a208f9dafd5c4d3d5305fc9999ecda638709a53",
                "out.csv.manifest.json": "e82d4f06010fe2c65511bd435496f98b0a49d625735f8c9f0616c9c6c1e808ab",
            },
        ),
        (
            ["comm", "--runs", "3000", "--seed", "7", "--log", "log.csv"],
            {
                "log.csv": "6bea2c9f231a4ac078e2f6709c16c6ed8ecb8bf6a9c51fad1aa76b9810bdb3c3",
                "out.csv": "7065ac7261e5e9354787db343df5c23c8e3beeb6eb19eec4bf6c2fe673c5723f",
                "out.csv.manifest.json": "dc59cb6fd4140d744ac29f5e6ef5b087bbbab79fd70e4ac06e90a028c1ba9339",
            },
        ),
        (
            ["signal", "--q", "0.7", "--grid", "64"],
            {
                "out.csv": "fa247f4240fd988419cfdc77b85333efb384b478af63ae04a16649093ab69a67",
                "out.csv.manifest.json": "2721f17d29961900c220d9c647730d6fb8982b7d777e92147d010360567192d8",
            },
        ),
        (
            ["moc", "--mc", "20000", "--seed", "3"],
            {
                "out.csv": "7d8aba5f3926013ff4792e97627dddfe4583412b2b2071df7d01e580704a6e57",
                "out.csv.manifest.json": "bb7070ef7c4a0f7e38fe38ab22f8cb370a2947eb1621a3480f47255b93c0169c",
            },
        ),
        (
            ["transition", "--angles", "0.1,0.9,1.7,2.2", "--mc", "200000", "--seed", "9"],
            {
                "out.csv": "af96895e85b6314499542b535c1fd60a68740af5ade3d8e9636834d027ee5ecd",
                "out.csv.manifest.json": "3c55cb94dbe549f64a7c3db33d81c5ea46095dcab80da8aa1e2bbcd15a4007bc",
            },
        ),
        (
            # one theta: the plot's x range is a single value
            ["sweep", "--theta-min", "1", "--theta-max", "1", "--steps", "2", "--svg", "out.svg"],
            {
                "out.csv": "f8ca158b6bef9a686bbcfff5adeec8210d7ca73beef68d88d9974f60f1791752",
                "out.csv.manifest.json": "a651b01ca0188e51e4e8fc2f72f31c1325b6d56be0c25705beb78ffccbb83457",
                "out.svg": "5236972e51cd24f1e31a2f488868befff3c1a1b38a8eee2bbe88afe1f82811b2",
            },
        ),
        (
            # every column is 0: the plot's y range is a single value
            ["sweep", "--model", "local-coin", "--steps", "3", "--grid", "16", "--svg", "out.svg"],
            {
                "out.csv": "816aec0daea8f51e847f226eb8b32ce808cb4696796f1779d891210164c0e714",
                "out.csv.manifest.json": "1293ff505401abb1b593f2b0da39c6413dc1e1e1f6b0dcddf09aad1f6e10f079",
                "out.svg": "05e67f67036c702d4c8e22be4aeb3632e00a3d663093e179aefff897465f5346",
            },
        ),
    ],
    ids=[
        "stats-analytic", "stats-mc", "transition", "sweep-analytic-svg", "sweep-grid", "comm-log",
        "signal", "moc", "transition-angles-mc", "sweep-one-theta-svg", "sweep-flat-svg",
    ],
)
def test_every_subcommand_writes_pinned_files(argv, digests, tmp_path, monkeypatch, capsys):
    # relative outputs keep each manifest's bytes independent of the directory
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli([*argv, "--out", "out.csv"], capsys)
    assert code == 0 and out == ""
    written = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert {name: hashlib.sha256(data).hexdigest() for name, data in written.items()} == digests


@pytest.mark.parametrize(
    "argv, sweeps",
    [
        (["sweep", "--model", "singlet", "--steps", "3", "--grid", "64"], 3),
        # the eight ordering sets and the induced model read the same bins
        (["moc", "--grid", "64"], 1),
        # the marginal shift and the balance gap read the same four bins
        (["signal", "--grid", "64"], 1),
        (["stats", "--grid", "64"], 1),
        (["transition", "--grid", "64"], 1),
    ],
)
def test_one_sweep_per_quadruple(argv, sweeps, monkeypatch, capsys):
    from eprb_lab import core, inequalities, transition

    calls = []
    original = core.sweep_statistics

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (core, transition, inequalities):
        monkeypatch.setattr(module, "sweep_statistics", counting)
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    assert len(calls) == sweeps


ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv, sweeps",
    [
        (["stats", "--grid", "16"], 1),
        (["transition", "--mc", "1000"], 1),
        (["sweep", "--model", "singlet", "--steps", "2", "--grid", "16"], 2),
        (["signal", "--q", "0.7", "--mc", "1000"], 1),
        (["moc", "--grid", "16"], 1),
        (["comm", "--runs", "200"], 0),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_bench_tracer_finds_every_sweep(argv, sweeps, tmp_path):
    # the benchmark's tracer rebinds the package's functions by name, so a
    # renamed or unreachable one fails this run instead of going untraced
    spans_path = tmp_path / "spans.json"
    result = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "traced_cli.py"), str(spans_path), "--", *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert result.returncode == 0, result.stderr
    spans = json.loads(spans_path.read_text())["spans"]
    assert sum(1 for span in spans if span[0] == "core.sweep") == sweeps


def test_comm_reruns_identically(tmp_path, capsys):
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    log_a, log_b = tmp_path / "a_log.csv", tmp_path / "b_log.csv"
    base = ["comm", "--runs", "1500", "--seed", "9"]
    assert main(base + ["--out", str(out_a), "--log", str(log_a)]) == 0
    assert main(base + ["--out", str(out_b), "--log", str(log_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    assert log_a.read_bytes() == log_b.read_bytes()


def test_signal_biased(capsys):
    code, out, _ = run_cli(["signal", "--q", "1", "--grid", "1024"], capsys)
    assert code == 0
    (row,) = rows_of(out)
    assert float(row["marginal_shift"]) == 0.5
    assert float(row["balance_gap"]) == 0.5
    assert row["model"] == "singlet"


def test_signal_equilibrium_silent(capsys):
    code, out, _ = run_cli(["signal", "--grid", "256"], capsys)
    assert code == 0
    (row,) = rows_of(out)
    assert float(row["marginal_shift"]) == 0.0
    assert float(row["balance_gap"]) == 0.0


def test_moc_defaults(capsys):
    code, out, _ = run_cli(["moc", "--grid", "512"], capsys)
    assert code == 0
    (row,) = rows_of(out)
    assert row["model"] == "sequential-singlet"
    assert float(row["moc_measure"]) == 437 / 512
    assert float(row["induced_sigma_minus"]) == 0.0
    assert float(row["induced_bell_lhs"]) == 2.0
    assert float(row["quantum_required"]) == pytest.approx(math.sqrt(2) - 1, abs=1e-12)


def test_version_flag(capsys):
    code, out, _ = run_cli(["--version"], capsys)
    assert code == 0
    assert "eprb-lab" in out and __version__ in out


def _fresh_run(*args: str) -> subprocess.CompletedProcess:
    """A new interpreter's run of ``python *args`` on this package's source."""
    import eprb_lab

    source = os.path.dirname(os.path.dirname(eprb_lab.__file__))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": source},
    )


def test_python_dash_m_runs_the_cli():
    result = _fresh_run("-m", "eprb_lab", "--version")
    assert result.returncode == 0
    assert result.stdout.strip() == f"eprb-lab {__version__}"


_NUMPY_AND_KERNEL = {"numpy", *(f"eprb_lab.{name}" for name in
                                ("core", "models", "transition", "inequalities", "protocols", "ordering"))}


def _imports_of(argv: list[str], code: int) -> set[str]:
    """The modules ``-X importtime`` lists for a new interpreter's command."""
    result = _fresh_run("-X", "importtime", "-m", "eprb_lab.cli", *argv)
    assert result.returncode == code, argv
    return {
        line.rsplit("|", 1)[-1].strip()
        for line in result.stderr.splitlines()
        if line.startswith("import time:")
    }


def test_version_skips_heavy_imports():
    # parsing alone needs argparse, not numpy or the six kernel modules;
    # xml.sax pulls in urllib.request, http.client and ssl, numpy.random is
    # only needed once a command samples, and html once it draws an SVG
    heavy = _NUMPY_AND_KERNEL | {"xml.sax", "urllib.request", "numpy.random", "html"}
    helps = [([name, "--help"], 0) for name in _SUBCOMMANDS]
    for argv, code in ((["--version"], 0), (["--help"], 0), *helps, (["stats", "--bogus"], 2)):
        imported = _imports_of(argv, code)
        assert "argparse" in imported, argv
        assert not imported & heavy, argv


def test_importtime_lists_the_kernel_a_command_loads():
    # the control of the test above: the loader's imports are ones that
    # -X importtime lists, so their absence there means they did not run
    assert _NUMPY_AND_KERNEL <= _imports_of(["stats", "--model", "quantum"], 0)


def test_only_svg_loads_html(tmp_path):
    # html escapes the plot's title and legend, so a command that loads the
    # kernel but draws no SVG leaves it unloaded; its control draws one
    assert "html" not in _imports_of(["stats", "--model", "quantum"], 0)
    assert "html" in _imports_of(["sweep", "--steps", "3", "--svg", str(tmp_path / "plot.svg")], 0)


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["stats", "--config", "/nonexistent"], 2, "/nonexistent"),
        (["stats", "--model", "nosuch"], 2, "nosuch"),
        (["signal", "--q", "0.05", "--grid", "3"], 3, "above 1"),
        (["transition", "--grid", "64"], 0, None),
        (["replay", "/nonexistent.manifest.json"], 2, "/nonexistent.manifest.json"),
    ],
    ids=["missing-config", "unknown-model", "odd-grid-mass", "transition", "missing-manifest"],
)
def test_a_fresh_interpreter_reaches_every_exit_code(argv, code, message):
    # in-process tests run with the kernel loaded (conftest.py), so only a
    # new interpreter shows a name that cli reads before it is bound
    result = _fresh_run("-m", "eprb_lab", *argv)
    assert result.returncode == code
    if message is None:
        assert result.stderr == "" and result.stdout.startswith("name,value,")
    else:
        assert result.stderr.startswith("eprb-lab: ") and message in result.stderr
        assert "Traceback" not in result.stderr


def test_unknown_cli_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(cli, "no_such_name")


def _fresh_python(code: str, **env: str) -> str:
    """The stdout of ``code`` run by a new interpreter with ``env`` in place
    of any OPENBLAS_NUM_THREADS the tests were started with."""
    import eprb_lab

    environment = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environment["PYTHONPATH"] = os.path.dirname(os.path.dirname(eprb_lab.__file__))
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**environment, **env},
        check=True,
    )
    return result.stdout


def test_package_import_loads_no_numpy():
    code = "import sys, eprb_lab; print('numpy' in sys.modules, eprb_lab.full_report.__module__)"
    assert _fresh_python(code).split() == ["False", "eprb_lab.transition"]


def test_cli_starts_openblas_with_one_thread():
    code = (
        "import os, eprb_lab.cli, numpy\n"
        "tasks = '/proc/self/task'\n"
        "count = len(os.listdir(tasks)) if os.path.isdir(tasks) else 'unknown'\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], count)\n"
    )
    threads, count = _fresh_python(code).split()
    assert threads == "1"
    if count != "unknown":  # no /proc off Linux
        assert count == "1"


def test_cli_keeps_the_users_openblas_thread_count():
    code = "import os, eprb_lab.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _fresh_python(code, OPENBLAS_NUM_THREADS="2").strip() == "2"


def test_a_kernel_name_of_cli_loads_the_kernel():
    # the benchmark tracer reads cli's kernel names before any command runs
    code = (
        "import sys\n"
        "from eprb_lab import cli\n"
        "print('numpy' in sys.modules)\n"
        "resolve = cli.resolve_model\n"
        "from eprb_lab import models\n"
        "print('numpy' in sys.modules, resolve is models.resolve_model)\n"
    )
    assert _fresh_python(code).split() == ["False", "True", "True"]


def test_a_replacement_made_before_the_first_command_is_kept():
    # the kernel loads when main runs, and must not undo a rebinding made before
    code = (
        "from eprb_lab import cli\n"
        "calls = []\n"
        "def replaced(*args):\n"
        "    calls.append(args)\n"
        "    raise ValueError('replaced')\n"
        "cli.full_report = replaced\n"
        "print(cli.main(['transition', '--grid', '4']), len(calls), cli.full_report is replaced)\n"
    )
    assert _fresh_python(code).split() == ["2", "1", "True"]


def test_unknown_package_attribute_raises():
    import eprb_lab

    with pytest.raises(AttributeError, match="no attribute 'full_reports'"):
        getattr(eprb_lab, "full_reports")


def test_stdout_mode_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run_cli(["stats", "--model", "quantum"], capsys)
    assert code == 0 and out
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Manifests and replay


def test_manifest_contents(tmp_path, capsys):
    out = tmp_path / "stats.csv"
    argv = ["stats", "--out", str(out)]
    code, _, _ = run_cli(argv, capsys)
    assert code == 0
    manifest = json.loads((tmp_path / "stats.csv.manifest.json").read_text())
    chain = AngleQuadruple.chain(math.pi / 4)
    assert manifest["tool"] == "eprb-lab"
    assert manifest["tool_version"] == __version__
    assert manifest["subcommand"] == "stats"
    assert manifest["command_line"] == argv
    assert manifest["model"] == "singlet"
    assert manifest["scheme"] == "grid(1024)"
    assert manifest["seed"] is None
    assert manifest["outputs"] == [str(out)]
    assert manifest["quadruple"] == {
        "a": chain.a.radians,
        "a_prime": chain.a_prime.radians,
        "b": chain.b.radians,
        "b_prime": chain.b_prime.radians,
    }


def test_manifest_analytic_scheme(tmp_path, capsys):
    out = tmp_path / "q.csv"
    code, _, _ = run_cli(["stats", "--model", "quantum", "--out", str(out)], capsys)
    assert code == 0
    manifest = json.loads((tmp_path / "q.csv.manifest.json").read_text())
    assert manifest["scheme"] == "analytic"
    assert manifest["seed"] is None


def test_replay_reproduces_bytes(tmp_path, monkeypatch, capsys):
    dir_a = tmp_path / "first"
    dir_b = tmp_path / "second"
    dir_a.mkdir()
    dir_b.mkdir()
    argv = [
        "sweep", "--model", "singlet", "--steps", "5", "--grid", "128",
        "--out", "sweep.csv", "--svg", "sweep.svg",
    ]
    monkeypatch.chdir(dir_a)
    assert main(argv) == 0
    monkeypatch.chdir(dir_b)
    assert main(["replay", str(dir_a / "sweep.csv.manifest.json")]) == 0
    capsys.readouterr()
    for name in ("sweep.csv", "sweep.svg", "sweep.csv.manifest.json"):
        assert (dir_b / name).read_bytes() == (dir_a / name).read_bytes()
    manifest = json.loads((dir_a / "sweep.csv.manifest.json").read_text())
    assert manifest["outputs"] == ["sweep.csv", "sweep.svg"]


def test_sweep_svg_output(tmp_path, capsys):
    svg_path = tmp_path / "curves.svg"
    code, out, _ = run_cli(["sweep", "--steps", "19", "--svg", str(svg_path)], capsys)
    assert code == 0 and out
    body = svg_path.read_text()
    assert body.startswith("<svg")
    assert body.count("<polyline") == 3  # quantum sweeps have no model columns
    manifest = json.loads((tmp_path / "curves.svg.manifest.json").read_text())
    assert manifest["outputs"] == [str(svg_path)]


def test_replay_rejects_bad_manifest(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"subcommand": "stats"}))
    code, _, err = run_cli(["replay", str(path)], capsys)
    assert code == 2
    assert "command_line" in err
    code, _, _ = run_cli(["replay", str(tmp_path / "missing.json")], capsys)
    assert code == 2


@pytest.mark.parametrize("top_level", ["[1, 2]", '"x"', "3", "null", "{bad", "", "\xff\xfe"])
def test_replay_rejects_a_manifest_that_is_not_an_object(top_level, tmp_path, capsys):
    path = tmp_path / "list.json"
    # Latin-1 writes the last case as the bytes ff fe, which are not UTF-8
    path.write_text(top_level, encoding="latin-1")
    code, _, err = run_cli(["replay", str(path)], capsys)
    assert code == 2
    message = "not valid JSON" if top_level in ("{bad", "", "\xff\xfe") else "not a JSON object"
    assert str(path) in err and message in err


def test_replay_rejects_a_replay_command_line(tmp_path, capsys):
    path = tmp_path / "self.json"
    path.write_text(json.dumps({"command_line": ["replay", str(path)]}))
    code, _, err = run_cli(["replay", str(path)], capsys)
    assert code == 2
    assert "itself a replay" in err


@pytest.mark.parametrize(
    "flags",
    [
        ["--out", "x.csv", "--log", "x.csv"],
        ["--out", "x.csv", "--log", "./sub/../x.csv"],
        # the manifest goes next to --out
        ["--out", "x.csv", "--log", "x.csv.manifest.json"],
    ],
)
def test_comm_refuses_outputs_naming_one_file(flags, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    code, out, err = run_cli(["comm", "--runs", "100", *flags], capsys)
    assert code == 2 and out == ""
    assert "name the same file" in err
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]


@pytest.mark.parametrize(
    "flags",
    [
        ["--out", "x.csv", "--svg", "x.csv"],
        ["--svg", "x.svg", "--out", str(os.path.join("sub", "..", "x.svg"))],
        # the manifest goes next to --out
        ["--out", "x.csv", "--svg", "x.csv.manifest.json"],
    ],
)
def test_sweep_refuses_outputs_naming_one_file(flags, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    code, out, err = run_cli(["sweep", "--steps", "3", *flags], capsys)
    assert code == 2 and out == ""
    assert "name the same file" in err
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]


@pytest.mark.parametrize(
    "argv",
    [
        ["comm", "--runs", "100", "--out", "d", "--log", "x.csv"],
        ["sweep", "--steps", "3", "--out", "d", "--svg", "y.svg"],
    ],
    ids=lambda argv: argv[0],
)
def test_no_side_output_when_the_csv_cannot_be_written(argv, tmp_path, monkeypatch, capsys):
    # the CSV is written before --log or --svg, so a failed --out leaves nothing
    monkeypatch.chdir(tmp_path)
    (tmp_path / "d").mkdir()
    code, _, err = run_cli(argv, capsys)
    assert code == 2 and "Is a directory" in err
    assert [p.name for p in tmp_path.iterdir()] == ["d"]


@pytest.mark.parametrize(
    "argv, directory, message",
    [
        (["comm", "--runs", "100", "--out", "a.csv", "--log", "d"], "d", "Is a directory: 'd'"),
        (["sweep", "--steps", "3", "--out", "a.csv", "--svg", "d"], "d", "Is a directory: 'd'"),
        (
            ["comm", "--runs", "100", "--out", "a.csv", "--log", "x.csv"],
            "a.csv.manifest.json",
            "Is a directory: 'a.csv.manifest.json'",
        ),
        (
            ["comm", "--runs", "100", "--out", "a.csv", "--log", "d/e/x.csv"],
            "d",
            "No such file or directory: 'd/e/x.csv'",
        ),
    ],
    ids=["comm", "sweep", "manifest", "missing-directory"],
)
def test_no_file_when_a_later_output_cannot_be_written(
    argv, directory, message, tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / directory).mkdir()
    code, _, err = run_cli(argv, capsys)
    assert code == 2 and message in err
    assert [p.name for p in tmp_path.iterdir()] == [directory]


@pytest.mark.parametrize(
    "argv, name",
    [
        (["comm", "--runs", "1000", "--log"], "x.csv"),
        (["sweep", "--model", "quantum", "--steps", "3", "--svg"], "x.svg"),
    ],
    ids=["comm", "sweep"],
)
def test_nothing_on_stdout_when_a_side_output_cannot_be_created(argv, name, tmp_path, capsys):
    # with the CSV on stdout, every new or regular output and the manifest is
    # created under its temporary name before the copy, so a side output in a
    # missing directory leaves stdout empty; the error names the path as given
    missing = str(tmp_path / "missing" / name)
    code, out, err = run_cli([*argv, missing], capsys)
    assert (code, out) == (2, "") and repr(missing) in err
    assert list(tmp_path.rglob("*.tmp")) == []


def test_output_through_a_symlink_writes_its_target(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link.csv").symlink_to("target.csv")
    code, _, _ = run_cli(["comm", "--runs", "100", "--out", "link.csv"], capsys)
    assert code == 0 and (tmp_path / "link.csv").is_symlink()
    assert (tmp_path / "target.csv").read_text().startswith("n_runs,")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "link.csv", "link.csv.manifest.json", "target.csv"
    ]


def test_no_file_when_writing_fails_midway(tmp_path, monkeypatch, capsys):
    # every output goes under a temporary name first, and a failed run removes
    # them; the error names the output as given, not its temporary
    monkeypatch.chdir(tmp_path)

    def failing_log(handle, dimension, blocks):
        handle.write("run\n")
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "_write_log", failing_log)
    code, _, err = run_cli(["comm", "--runs", "100", "--out", "a.csv", "--log", "x.csv"], capsys)
    assert code == 2 and f"{os.strerror(errno.ENOSPC)}: 'x.csv'" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_an_existing_fifo_is_written_in_place(tmp_path, monkeypatch, capsys):
    # only new and regular files are renamed into place; a FIFO, like a device
    # or /dev/stdout, is opened as it is and stays what it was
    monkeypatch.chdir(tmp_path)
    os.mkfifo("fifo")
    received = []
    reader = threading.Thread(target=lambda: received.append(Path("fifo").read_bytes()))
    reader.daemon = True
    reader.start()
    replaced = []
    real_replace = os.replace
    monkeypatch.setattr(
        os, "replace", lambda src, dst: (replaced.append(dst), real_replace(src, dst))
    )
    argv = ["comm", "--runs", "3000", "--seed", "5", "--out", "a.csv", "--log"]
    code, _, _ = run_cli([*argv, "fifo"], capsys)
    reader.join(timeout=10)
    assert code == 0 and stat.S_ISFIFO(os.stat("fifo").st_mode)
    assert [Path(dst).name for dst in replaced] == ["a.csv", "a.csv.manifest.json"]
    assert json.loads(Path("a.csv.manifest.json").read_text())["outputs"] == ["a.csv", "fifo"]
    code, _, _ = run_cli([*argv, "x.csv"], capsys)
    assert code == 0 and received == [Path("x.csv").read_bytes()]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_a_run_whose_every_output_is_a_stream_writes_no_manifest(tmp_path, monkeypatch, capsys):
    # the manifest goes beside the first new or regular output; the CSV on
    # stdout and the log into a FIFO leave it no such file to sit beside
    monkeypatch.chdir(tmp_path)
    os.mkfifo("fifo")
    received = []
    reader = threading.Thread(target=lambda: received.append(Path("fifo").read_bytes()))
    reader.daemon = True
    reader.start()
    code, out, err = run_cli(["comm", "--runs", "100", "--seed", "5", "--log", "fifo"], capsys)
    reader.join(timeout=10)
    assert (code, err) == (0, "") and out.startswith("n_runs,")
    assert received and received[0].startswith(b"run,")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["fifo"]


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_a_closed_output_pipe_exits_141_quietly(tmp_path):
    # like `... --log /dev/stdout | head -1`: the reader leaves long before the
    # log's 200,000 rows are written
    import eprb_lab

    source = os.path.dirname(os.path.dirname(eprb_lab.__file__))
    argv = ["comm", "--runs", "200000", "--seed", "3", "--out", "c.csv", "--log", "/dev/stdout"]
    child = subprocess.Popen(
        [sys.executable, "-m", "eprb_lab", *argv],
        cwd=tmp_path,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": source},
    )
    assert child.stdout.readline().startswith(b"run,lambda_0,")
    child.stdout.close()
    assert child.wait(timeout=60) == 141
    assert child.stderr.read() == b""
    child.stderr.close()


# ---------------------------------------------------------------------------
# Config files


def test_config_supplies_defaults(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("# defaults\nmodel = local-coin\ntheta = 0.0\ngrid = 64\n")
    code, out, _ = run_cli(["transition", "--config", str(config)], capsys)
    assert code == 0
    table = {row["name"]: row for row in rows_of(out)}
    assert table["sigma_minus"]["scheme"] == "grid(64)"
    assert float(table["sigma_minus"]["value"]) == 0.0


def test_flags_override_config(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("model = local-coin\ngrid = 64\n")
    code, out, _ = run_cli(
        ["transition", "--config", str(config), "--model", "singlet", "--grid", "128"], capsys
    )
    assert code == 0
    table = {row["name"]: row for row in rows_of(out)}
    assert table["sigma_minus"]["scheme"] == "grid(128)"
    assert float(table["sigma_minus"]["value"]) > 0.5


def test_scheme_flag_shadows_config_mc(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("mc = 1000\n")
    code, out, _ = run_cli(["transition", "--config", str(config), "--grid", "32"], capsys)
    assert code == 0
    table = {row["name"]: row for row in rows_of(out)}
    assert table["sigma_minus"]["scheme"] == "grid(32)"


def test_config_scheme_conflict(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("grid = 64\nmc = 1000\n")
    code, _, err = run_cli(["transition", "--config", str(config)], capsys)
    assert code == 2
    assert "mutually exclusive" in err


def test_config_underscore_keys(tmp_path, capsys):
    config = tmp_path / "run.conf"
    config.write_text("steps = 3\ntheta_max = 1.0\n")
    code, out, _ = run_cli(["sweep", "--config", str(config)], capsys)
    assert code == 0
    rows = rows_of(out)
    assert [row["theta"] for row in rows] == ["0", "0.5", "1"]


def test_config_errors(tmp_path, capsys):
    bad_line = tmp_path / "bad.conf"
    bad_line.write_text("just some words\n")
    code, _, err = run_cli(["stats", "--config", str(bad_line)], capsys)
    assert code == 2 and "name = value" in err

    bad_value = tmp_path / "value.conf"
    bad_value.write_text("steps = abc\n")
    code, _, err = run_cli(["sweep", "--config", str(bad_value)], capsys)
    assert code == 2 and "malformed" in err

    bad_seed = tmp_path / "seed.conf"
    bad_seed.write_text("seed = -1\n")
    code, out, err = run_cli(["transition", "--grid", "8", "--config", str(bad_seed)], capsys)
    message = "eprb-lab: error: seed must be an integer in [0, 2**64), got -1\n"
    assert (code, out, err) == (2, "", message)

    empty_out = tmp_path / "out.conf"
    empty_out.write_text("out =\n")
    code, out, err = run_cli(["stats", "--config", str(empty_out)], capsys)
    assert (code, out, err) == (2, "", "eprb-lab: error: --out needs a file path\n")

    code, _, _ = run_cli(["stats", "--config", str(tmp_path / "absent.conf")], capsys)
    assert code == 2

    not_utf8 = tmp_path / "bom.conf"
    not_utf8.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(["stats", "--config", str(not_utf8)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"eprb-lab: error: {not_utf8}: the config file is not valid UTF-8: ")
    assert err.count("\n") == 1


def test_config_rejects_unknown_keys(tmp_path, capsys):
    typo = tmp_path / "typo.conf"
    typo.write_text("# scheme\ngrdi = 8\n")
    code, out, err = run_cli(["transition", "--config", str(typo)], capsys)
    assert code == 2 and out == ""
    assert "typo.conf:2: unknown key 'grdi'" in err
    # a flag of another subcommand is unknown here too
    other = tmp_path / "other.conf"
    other.write_text("runs = 10\n")
    code, _, err = run_cli(["stats", "--config", str(other)], capsys)
    assert code == 2 and "unknown key 'runs'" in err
    # and so is a flag the subcommand does not read
    for subcommand, line in (("comm", "grid = 8\n"), ("signal", "theta = 1\n")):
        unread = tmp_path / f"{subcommand}.conf"
        unread.write_text(line)
        code, _, err = run_cli([subcommand, "--config", str(unread)], capsys)
        assert code == 2 and f"unknown key {line.split()[0]!r}" in err


# ---------------------------------------------------------------------------
# Usage and invariant failures


@pytest.mark.parametrize(
    "argv",
    [
        ["stats", "--model", "nonsense"],
        ["stats", "--angles", "1,2,3"],
        ["stats", "--angles", "1,2,x,4"],
        ["transition", "--grid", "64", "--mc", "1000"],
        ["transition", "--model", "quantum"],
        ["sweep", "--steps", "1"],
        ["comm", "--runs", "0"],
        ["signal", "--q", "1.5"],
        ["moc", "--model", "singlet"],
        ["stats", "--theta", "abc"],
        ["unknown-subcommand"],
        [],
        # the analytic model resolves no scheme, but the flags still conflict
        ["stats", "--model", "quantum", "--grid", "3", "--mc", "4"],
        ["sweep", "--steps", "2", "--grid", "3", "--mc", "4"],
        # flags a subcommand does not read
        ["comm", "--grid", "64"],
        ["comm", "--mc", "10"],
        ["signal", "--theta", "1"],
        ["signal", "--angles", "1,2,3,4"],
        ["sweep", "--angles", "1,2,3,4"],
        ["sweep", "--theta", "1"],
    ],
)
def test_usage_errors_exit_two(argv, capsys):
    code, _, _ = run_cli(argv, capsys)
    assert code == 2


def test_readme_lists_each_subcommands_flags():
    # the README's table of flags per subcommand is the CLI's table, row for row
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| subcommand | flags |") + 2
    documented: dict[str, set[str]] = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
        _, names, flags, _ = line.split("|")
        for name in re.findall(r"`([a-z]+)`", names):
            documented[name] = set(re.findall(r"`(--[a-z0-9-]+)`", flags))
    declared = {
        name: {flag for flag, _ in flags if flag.startswith("--")}
        for name, (_, _, flags) in _SUBCOMMANDS.items()
    }
    assert documented == declared


def test_readme_model_names_resolve():
    # every name of the README's Models table, and its bias example, is a --model value
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    section = lines[lines.index("### Models") : lines.index("### Conventions")]
    table = [re.match(r"\| `([^`]+)` \|", line)[1] for line in section if line.startswith("| `")]
    examples = re.findall(r"`([a-z-]+\+bias:q=[0-9.]+)`", "\n".join(section))
    assert set(table) == {name for name in MODEL_NAMES if "<" not in name}
    assert examples
    for name in table + examples:
        assert resolve_model(name).name == name


def test_usage_error_messages(capsys):
    hidden = "provides analytic statistics only; this command needs a hidden-variable model"
    ordered = "does not resolve measurement order; this command needs an order-resolved model"
    for subcommand, model, message in (
        ("transition", "quantum", hidden),
        ("comm", "quantum", hidden),
        ("signal", "quantum", hidden),
        ("moc", "quantum", ordered),
        ("moc", "singlet", ordered),
    ):
        code, out, err = run_cli([subcommand, "--model", model], capsys)
        assert (code, out, err) == (2, "", f"eprb-lab: error: model {model!r} {message}\n")
    # the analytic model refuses the scheme flags a hidden-variable model refuses
    for argv, message in (
        (["stats", "--grid", "0"], "grid resolution must be a positive integer, got 0"),
        (["sweep", "--mc", "-5", "--steps", "2"], "sample count must be a positive integer, got -5"),
        (["stats", "--mc", "0", "--seed", "-3"], "sample count must be a positive integer, got 0"),
    ):
        for model in ("quantum", "singlet"):
            code, out, err = run_cli([*argv, "--model", model], capsys)
            assert (code, out, err) == (2, "", f"eprb-lab: error: {message}\n")
    # every subcommand refuses a bad seed, whether or not it reads one
    for argv, seed in (
        (["transition", "--grid", "64", "--seed", "-1"], "-1"),
        (["stats", "--model", "quantum", "--seed", "-1"], "-1"),
        (["sweep", "--steps", "2", "--seed", "-1"], "-1"),
        (["moc", "--grid", "8", "--seed", "-1"], "-1"),
        (["signal", "--grid", "8", "--seed", str(2**64)], str(2**64)),
        (["transition", "--mc", "10", "--seed", "-1"], "-1"),
        (["comm", "--runs", "10", "--seed", "-1"], "-1"),
    ):
        code, out, err = run_cli(argv, capsys)
        message = f"seed must be an integer in [0, 2**64), got {seed}"
        assert (code, out, err) == (2, "", f"eprb-lab: error: {message}\n")
    # a chain whose a = 3*theta overflows names the theta given, not 3*theta
    for argv, theta in (
        (["moc", "--mc", "10", "--theta", "1e308"], "1e+308"),
        (["comm", "--theta", "1e308"], "1e+308"),
        (["transition", "--theta=-1e308"], "-1e+308"),
        (["stats", "--theta", "inf"], "inf"),
        (["sweep", "--theta-max", "1e308", "--steps", "2"], "1e+308"),
    ):
        code, out, err = run_cli(argv, capsys)
        message = f"theta must be finite, and so must 3*theta, got {theta}"
        assert (code, out, err) == (2, "", f"eprb-lab: error: {message}\n")
    # a sweep whose width overflows names the range given, not the nan it makes
    for ends, given in (
        (["--theta-min=-1e308", "--theta-max", "1e308"], "-1e+308 to 1e+308"),
        (["--theta-max", "inf"], "0.0 to inf"),
    ):
        code, out, err = run_cli(["sweep", "--model", "quantum", "--steps", "2", *ends], capsys)
        message = f"theta range must have a finite width, got {given}"
        assert (code, out, err) == (2, "", f"eprb-lab: error: {message}\n")
    # an empty output path would name the working directory, an empty config
    # or manifest path names no file
    for argv, flag in (
        (["stats", "--out="], "out"),
        (["comm", "--runs", "1000", "--log="], "log"),
        (["sweep", "--model", "quantum", "--steps", "2", "--svg="], "svg"),
        (["stats", "--model", "quantum", "--config="], "config"),
    ):
        code, out, err = run_cli(argv, capsys)
        assert (code, out, err) == (2, "", f"eprb-lab: error: --{flag} needs a file path\n")
    code, out, err = run_cli(["replay", ""], capsys)
    assert (code, out, err) == (2, "", "eprb-lab: error: replay needs a manifest path\n")
    # a theta just small enough keeps the bytes it had before the check
    code, out, _ = run_cli(["stats", "--theta", "5e307"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "a38e851119371a5c06eb2d879369e14ee86db4f8f5d26a6ff83596192b4433c5"
    )


def test_invariant_failure_exits_three(monkeypatch, capsys):
    def explode(*args, **kwargs):
        raise NumericalInvariantError("parity check failed")

    monkeypatch.setattr("eprb_lab.cli.full_report", explode)
    code, _, err = run_cli(["transition", "--grid", "64"], capsys)
    assert code == 3
    assert "numerical invariant" in err


def test_odd_grid_overshoot_exits_three(capsys):
    # on grid(3) the bias density's step at u = 1/2 lies on a midpoint, so the
    # grid's mass exceeds 1: a numerical fault, not a usage error
    code, out, err = run_cli(["signal", "--q", "0.05", "--grid", "3"], capsys)
    assert (code, out) == (3, "")
    assert "grid(3)" in err
    assert "a measure of 1.2666666666666666," in err  # a float, not an np.float64 repr
