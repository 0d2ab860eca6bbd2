"""Grid sweeps over declared breakpoints against the full midpoint grid.

The reference for every declared sweep is the same sweep with the
declaration stripped (``breakpoints=None``), which classifies every
midpoint.  On a uniform density every bin total is an exact count, so the
two must agree to the bit; on the biased density the declared sweep adds
density times box size where the full grid adds one density per midpoint,
so they agree to a few ulp.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from eprb_lab.cli import main
from eprb_lab.core import (
    BLOCK_SIZE,
    CHUNK_SIZE,
    TAU,
    AngleQuadruple,
    Distribution,
    GridScheme,
    HvModel,
    LambdaSpace,
    NumericalInvariantError,
    _axis_runs,
    declared_cuts,
    make_angle,
    uniform_distribution,
)
from eprb_lab.inequalities import stats_from_model
from eprb_lab.models import (
    ModelChoice,
    anticorrelation_threshold,
    as_simultaneous,
    biased_distribution,
    induce_noncontextual,
    local_coin_model,
    sequential_singlet_model,
    singlet_model,
)
from eprb_lab.ordering import ordering_measures
from eprb_lab.protocols import marginal_shift
from eprb_lab.transition import (
    CANONICAL_SETS,
    N_PATTERNS,
    P_PLUS_SELECTION,
    full_report,
    partition_measures,
    pattern_classifier,
)

RESOLUTIONS = (1, 2, 3, 5, 64, 255, 256)
BIASED_RTOL = 1e-15


def strip(model):
    return dataclasses.replace(model, breakpoints=None)


def built_ins() -> dict[str, HvModel]:
    sequential = sequential_singlet_model()
    return {
        "singlet": singlet_model(),
        "local-coin": local_coin_model(),
        "sequential-A": as_simultaneous(sequential, "A"),
        "sequential-B": as_simultaneous(sequential, "B"),
        "moc-induced": induce_noncontextual(sequential),
    }


def random_quadruples(count: int, seed: int) -> list[AngleQuadruple]:
    rng = np.random.default_rng(seed)
    return [
        AngleQuadruple(*(make_angle(float(x)) for x in rng.uniform(0.0, TAU, 4)))
        for _ in range(count)
    ]


QUADRUPLES = [AngleQuadruple.chain(math.pi / 4)] + random_quadruples(2, 11)
# theta(a, b) = pi/2 puts the v cut at exactly 1/2, the middle midpoint of grid(3)
HALF_PI = AngleQuadruple(make_angle(math.pi / 2), make_angle(0.3), make_angle(0.0), make_angle(1.1))


def report_values(report) -> np.ndarray:
    return np.array([value for _, value, _ in report.csv_rows()] + list(report.p_plus))


def assert_same(actual, expected, biased=False):
    if biased:
        np.testing.assert_allclose(actual, expected, rtol=BIASED_RTOL, atol=0.0)
    else:
        assert np.array_equal(actual, expected)


@pytest.mark.parametrize("name", list(built_ins()))
@pytest.mark.parametrize("resolution", RESOLUTIONS)
def test_built_in_report_and_stats_match_full_grid(name, resolution):
    model = built_ins()[name]
    dist = model.equilibrium
    scheme = GridScheme(resolution)
    for quadruple in QUADRUPLES + [HALF_PI]:
        assert declared_cuts(model, dist, quadruple.named_angles().values()) is not None
        declared = full_report(model, dist, quadruple, scheme)
        reference = full_report(strip(model), dist, quadruple, scheme)
        assert_same(report_values(declared), report_values(reference))
        declared_stats = stats_from_model(model, dist, quadruple, scheme)
        assert declared_stats == stats_from_model(strip(model), dist, quadruple, scheme)


@pytest.mark.parametrize("name", ["singlet", "sequential-B"])
def test_grid_1024_matches_full_grid(name):
    model = built_ins()[name]
    quadruple = QUADRUPLES[1]
    scheme = GridScheme(1024)
    declared = full_report(model, model.equilibrium, quadruple, scheme)
    reference = full_report(strip(model), model.equilibrium, quadruple, scheme)
    assert_same(report_values(declared), report_values(reference))


@pytest.mark.parametrize("resolution", (3, 5, 255))
def test_cut_on_a_midpoint_gets_its_own_run(resolution):
    # odd N: the middle midpoint is exactly u = 1/2, the coin's cut
    mids = (np.arange(resolution) + 0.5) / resolution
    assert 0.5 in mids
    middle = resolution // 2
    firsts, lasts, lengths = _axis_runs(resolution, (0.5,))
    assert lengths.tolist() == [middle, 1, middle]
    assert firsts[1] == lasts[1] == 0.5
    assert firsts.tolist() == [mids[0], 0.5, mids[middle + 1]]
    model = singlet_model()
    declared = full_report(model, model.equilibrium, HALF_PI, GridScheme(resolution))
    reference = full_report(strip(model), model.equilibrium, HALF_PI, GridScheme(resolution))
    assert_same(report_values(declared), report_values(reference))


def test_half_pi_threshold_lands_on_grid3_midpoint():
    assert anticorrelation_threshold(math.pi / 2) == 0.5 == (1 + 0.5) / 3


@pytest.mark.parametrize("resolution", RESOLUTIONS)
def test_partition_and_marginal_shift_match_full_grid(resolution):
    scheme = GridScheme(resolution)
    for model in (singlet_model(), built_ins()["sequential-A"]):
        for quadruple in QUADRUPLES:
            for sid in CANONICAL_SETS:
                declared = partition_measures(model, model.equilibrium, quadruple, sid, scheme)
                reference = partition_measures(strip(model), model.equilibrium, quadruple, sid, scheme)
                assert declared == reference
            a1, a2, b = quadruple.a, quadruple.a_prime, quadruple.b
            assert marginal_shift(model, model.equilibrium, b, a1, a2, scheme) == marginal_shift(
                strip(model), model.equilibrium, b, a1, a2, scheme
            )


@pytest.mark.parametrize("resolution", RESOLUTIONS + (1024,))
def test_ordering_measures_match_full_grid(resolution):
    sequential = sequential_singlet_model()
    for quadruple in QUADRUPLES[:2] + [HALF_PI]:
        declared = ordering_measures(sequential, quadruple, GridScheme(resolution))
        reference = ordering_measures(strip(sequential), quadruple, GridScheme(resolution))
        assert declared == reference


@pytest.mark.parametrize("resolution", (2, 3, 5, 64, 256))
def test_biased_density_agrees_with_full_grid(resolution):
    model = singlet_model()
    scheme = GridScheme(resolution)
    for q, quadruple in zip((0.7, 0.83, 0.61), QUADRUPLES):
        dist = biased_distribution(model, q)
        declared = full_report(model, dist, quadruple, scheme)
        reference = full_report(strip(model), dist, quadruple, scheme)
        assert_same(report_values(declared), report_values(reference), biased=True)
        for sid in CANONICAL_SETS:
            assert_same(
                [e.value for e in partition_measures(model, dist, quadruple, sid, scheme)],
                [e.value for e in partition_measures(strip(model), dist, quadruple, sid, scheme)],
                biased=True,
            )
        a1, a2, b = quadruple.a, quadruple.a_prime, quadruple.b
        assert_same(
            marginal_shift(model, dist, b, a1, a2, scheme),
            marginal_shift(strip(model), dist, b, a1, a2, scheme),
            biased=True,
        )


def test_undeclared_model_sums_every_midpoint_pairwise():
    # the bin contract on the full grid: bin k totals weights[codes == k].sum()
    model = strip(singlet_model())
    dist = biased_distribution(model, 0.7)
    quadruple = QUADRUPLES[2]
    resolution = 256
    mids = (np.arange(resolution) + 0.5) / resolution
    u, v = np.meshgrid(mids, mids, indexing="ij")
    coords = np.stack([u.ravel(), v.ravel()], axis=-1)
    weights = dist.density(coords)
    codes = pattern_classifier(model, quadruple)(coords)
    totals = np.array([weights[codes == k].sum() for k in range(N_PATTERNS)])
    expected = np.where(P_PLUS_SELECTION, totals, 0.0).sum(axis=1) / float(resolution) ** 2
    stats = stats_from_model(model, dist, quadruple, GridScheme(resolution))
    assert np.array_equal(np.array(stats.p_plus), expected)


def test_undeclared_blocks_stay_within_block_size():
    blocks = [list(chunks) for chunks in GridScheme(BLOCK_SIZE + 5).blocks(1, None)]
    assert [[len(coords) for coords, _ in chunks] for chunks in blocks] == [
        [CHUNK_SIZE] * (BLOCK_SIZE // CHUNK_SIZE),
        [5],
    ]
    assert all(sizes is None for chunks in blocks for _, sizes in chunks)
    first = np.concatenate([coords for coords, _ in blocks[0]])
    assert np.array_equal(first[:, 0], (np.arange(BLOCK_SIZE) + 0.5) / (BLOCK_SIZE + 5))


def test_declared_sweep_classifies_a_few_points():
    points = []

    def counted(fn):
        def wrapper(a, b, coords):
            points.append(len(coords))
            return fn(a, b, coords)

        return wrapper

    singlet = singlet_model()
    model = dataclasses.replace(
        singlet, outcome_a=counted(singlet.outcome_a), outcome_b=counted(singlet.outcome_b)
    )
    assert model.breakpoints is singlet.breakpoints
    full_report(model, model.equilibrium, AngleQuadruple.chain(math.pi / 4), GridScheme(1024))
    assert len(points) == 8
    assert max(points) <= 64


# ---------------------------------------------------------------------------
# User models with declared cuts, off dimension 2


def _sign_below(column: np.ndarray, threshold: float) -> np.ndarray:
    return np.where(column < threshold, 1, -1)


def line_model() -> HvModel:
    """lambda = t on [0, 1): A reads t against (1 + cos a)/2, B against a
    threshold of both settings, so B is nonlocal."""
    space = LambdaSpace(1)

    def a_cut(a):
        return 0.5 * (1.0 + math.cos(a.radians))

    def b_cut(a, b):
        return 0.25 * (2.0 + math.sin(a.radians - b.radians))

    def breakpoints(angles):
        return (tuple(a_cut(x) for x in angles) + tuple(b_cut(x, y) for x in angles for y in angles),)

    return HvModel(
        name="line",
        space=space,
        outcome_a=lambda a, b, coords: _sign_below(coords[..., 0], a_cut(a)),
        outcome_b=lambda a, b, coords: -_sign_below(coords[..., 0], b_cut(a, b)),
        equilibrium=uniform_distribution(space),
        breakpoints=breakpoints,
    )


def cube_model() -> HvModel:
    """lambda = (u, v, w): a coin on u at 1/2 that w flips below a cut of the
    own setting, and the singlet's v flip on the B side."""
    space = LambdaSpace(3)

    def w_cut(x):
        return 0.5 * (1.0 + math.sin(x.radians))

    def coin(coords, own):
        return _sign_below(coords[..., 0], 0.5) * _sign_below(coords[..., 2], w_cut(own))

    def outcome_b(a, b, coords):
        flip = _sign_below(coords[..., 1], anticorrelation_threshold(a.radians - b.radians))
        return -coin(coords, b) * flip

    def breakpoints(angles):
        v = tuple(anticorrelation_threshold(x.radians - y.radians) for x in angles for y in angles)
        return ((0.5,), v, tuple(w_cut(x) for x in angles))

    return HvModel(
        name="cube",
        space=space,
        outcome_a=lambda a, b, coords: coin(coords, a),
        outcome_b=outcome_b,
        equilibrium=uniform_distribution(space),
        breakpoints=breakpoints,
    )


@pytest.mark.parametrize("make, resolutions", [(line_model, RESOLUTIONS + (1024,)), (cube_model, (1, 2, 3, 5, 32))])
def test_user_models_off_dimension_two_match_full_grid(make, resolutions):
    model = make()
    for resolution in resolutions:
        for quadruple in QUADRUPLES:
            declared = full_report(model, model.equilibrium, quadruple, GridScheme(resolution))
            reference = full_report(strip(model), model.equilibrium, quadruple, GridScheme(resolution))
            assert_same(report_values(declared), report_values(reference))


# ---------------------------------------------------------------------------
# A declaration that misses a change fails loudly


def misdeclared_singlet(resolution: int) -> HvModel:
    """The singlet with every v cut declared 1/N above its real threshold."""
    singlet = singlet_model()

    def breakpoints(angles):
        u_cuts, v_cuts = singlet.breakpoints(angles)
        return u_cuts, tuple(cut + 1.0 / resolution for cut in v_cuts)

    return dataclasses.replace(singlet, name="misdeclared-singlet", breakpoints=breakpoints)


def test_misdeclared_model_raises_naming_it():
    model = misdeclared_singlet(64)
    with pytest.raises(NumericalInvariantError, match="misdeclared-singlet"):
        full_report(model, model.equilibrium, QUADRUPLES[0], GridScheme(64))


def test_misdeclared_density_raises_naming_it():
    # a step at v = 0.3, where the singlet declares no cut, claimed flat
    def density(coords):
        return np.where(coords[..., 1] < 0.3, 0.5, 0.85 / 0.7)

    stepped = Distribution(LambdaSpace(2), density, "v-step", breakpoints=((), ()))
    with pytest.raises(NumericalInvariantError, match="v-step"):
        full_report(singlet_model(), stepped, QUADRUPLES[0], GridScheme(64))
    declared = dataclasses.replace(stepped, breakpoints=((), (0.3,)))
    full_report(singlet_model(), declared, QUADRUPLES[0], GridScheme(64))


@pytest.mark.parametrize(
    "argv",
    [
        ["transition", "--grid", "64"],
        ["sweep", "--model", "singlet", "--steps", "3", "--grid", "64"],
    ],
)
def test_misdeclared_model_exits_three(argv, monkeypatch, capsys):
    model = misdeclared_singlet(64)
    choice = ModelChoice(name="singlet", hv=model, distribution=model.equilibrium)
    monkeypatch.setattr("eprb_lab.cli.resolve_model", lambda name: choice)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical invariant" in captured.err and "misdeclared-singlet" in captured.err


def test_malformed_declaration_is_a_value_error():
    singlet = singlet_model()
    one_axis = dataclasses.replace(singlet, breakpoints=lambda angles: ((0.5,),))
    with pytest.raises(ValueError, match="2"):
        full_report(one_axis, singlet.equilibrium, QUADRUPLES[0], GridScheme(8))
    not_finite = dataclasses.replace(singlet, breakpoints=lambda angles: ((0.5,), (math.nan,)))
    with pytest.raises(ValueError, match="not finite"):
        full_report(not_finite, singlet.equilibrium, QUADRUPLES[0], GridScheme(8))


def test_declarations_survive_dataclasses_replace():
    dist = biased_distribution(singlet_model(), 0.7)
    assert dataclasses.replace(dist, density=dist.density).breakpoints == ((0.5,), ())
    model = as_simultaneous(sequential_singlet_model(), "A")
    assert dataclasses.replace(model, outcome_a=model.outcome_a).breakpoints is model.breakpoints
    undeclared = Distribution(space=LambdaSpace(2), density=dist.density, label="user")
    assert declared_cuts(singlet_model(), undeclared, QUADRUPLES[0].named_angles().values()) is None
