"""Check registry: name filtering, per-check errors and shared fixtures."""

import dataclasses
import itertools
import json
import math
import random

import numpy as np
import pytest

from qdisc import DiscElement, GridFunction, QContext
from qdisc import green, spherical, verify
from qdisc.cli import main
from qdisc.verify import REGISTRY, _max, run_registry


def test_registry_stops_a_group_after_its_last_requested_check(monkeypatch):
    # only the kernel-centre check is asked for, so none of the checks
    # declared after it materializes an assembled kernel
    ctx = QContext(0.5, grid_horizon=200)
    green._KERNELS.clear()
    calls = itertools.count()
    real = green._materialize

    def counted(*args, **kwargs):
        next(calls)
        return real(*args, **kwargs)

    monkeypatch.setattr(green, "_materialize", counted)
    [res] = run_registry(ctx, ["kernel_centre"])
    assert next(calls) == 0
    monkeypatch.undo()
    assert res.name == "kernel_centre_delta"
    assert (res.residual, res.tolerance, res.detail) == verify.kernel_centre_delta(
        ctx, verify.Fixtures(ctx)
    )
    assert res.passed


def test_registry_skips_groups_without_a_matching_name(monkeypatch):
    def never_run(check):
        def boom(ctx, fx):
            raise AssertionError(f"{check.__name__} ran without a matching name")

        boom.__name__ = check.__name__
        return boom

    monkeypatch.setattr(
        verify,
        "REGISTRY",
        tuple(c if c is verify.algebra_rep_involution else never_run(c) for c in REGISTRY),
    )
    results = run_registry(QContext(0.5), ["algebra_rep_inv"])
    assert [r.name for r in results] == ["algebra_rep_involution"]
    assert results[0].passed


def test_a_non_scalar_residual_fails_its_own_check(monkeypatch, tmp_path):
    # a check that returns an unreduced array fails alone, with residual
    # nan, its own tolerance and a detail naming what came back; the run
    # still reports every other check and exits 1
    def unreduced(ctx, fx):
        return np.ones(3), 1e-10, "an array"

    unreduced.__name__ = "algebra_rep_involution"
    monkeypatch.setattr(
        verify,
        "REGISTRY",
        tuple(unreduced if c is verify.algebra_rep_involution else c for c in REGISTRY),
    )
    out = tmp_path / "report.json"
    code = main(["verify", "--q", "0.5", "--checks", "algebra_rep,algebra_integral", "--out", str(out)])
    report = json.loads(out.read_text())
    assert code == 1 and report["passed"] is False
    checks = {c["check"]: c for c in report["checks"]}
    assert list(checks) == ["algebra_rep_products", "algebra_rep_involution", "algebra_integral_values"]
    bad = checks.pop("algebra_rep_involution")
    assert math.isnan(bad["residual"]) and bad["tolerance"] == 1e-10 and bad["pass"] is False
    assert bad["detail"] == "residual is a ndarray of shape (3,), not a real scalar"
    assert all(c["pass"] for c in checks.values())


def test_registry_declares_every_check_once():
    names = [check.__name__ for check in REGISTRY]
    assert len(names) == 47
    assert len(set(names)) == len(names)


def test_max_keeps_nan_wherever_it_is():
    assert _max(0.5, 2.0, 1.0) == 2.0
    for vals in ((math.nan, 1.0), (1.0, math.nan), (0.0, 1.0, math.nan)):
        assert math.isnan(_max(*vals))


def _nan_like(x):
    if isinstance(x, DiscElement):
        return x.scaled(math.nan)
    if isinstance(x, GridFunction):
        return GridFunction(x.values * math.nan, x.finite_support)
    if isinstance(x, np.ndarray):
        return x * math.nan
    if isinstance(x, tuple):
        return tuple(_nan_like(v) for v in x)
    if isinstance(x, list):
        return [*x[:-1], _nan_like(x[-1])]
    if dataclasses.is_dataclass(x):
        fields = [f.name for f in dataclasses.fields(x)]
        return dataclasses.replace(x, **{f: math.nan for f in fields if isinstance(getattr(x, f), float)})
    return math.nan


# one term per check family: the module and function whose result turns
# nan, the call that turns (a later one where the check folds several terms)
# and the check that must then fail
_NAN_TERMS = [
    (verify, "_shift", 2, "algebra_commutation_shifts"),
    (verify, "act_word", 5, "hopf_defining_relations"),
    (verify, "laplacian_apply", 1, "casimir_equals_laplacian"),
    (verify, "invariance_residual", 1, "unit_invariance"),
    (spherical, "phi_matrix", 1, "phi_recurrence_agreement"),
    (spherical, "transform_inverse", 2, "transform_roundtrip"),
    (spherical, "spectrum_probe", 1, "spectrum_inside_segment"),
    (green, "gm_quadrature_grid", 2, "green_series_vs_quadrature"),
    (green, "kernel_invariance_residual", 2, "kernel_invariance_exact"),
    (green, "green_solve", 1, "matrix_solve_oracle"),
    (green, "classical_limit_report", 1, "dilog_reflection"),
]


@pytest.mark.parametrize("module, name, at, check", _NAN_TERMS, ids=[entry[3] for entry in _NAN_TERMS])
def test_a_nan_term_fails_its_check(monkeypatch, module, name, at, check):
    real = getattr(module, name)
    calls = itertools.count(1)

    def poisoned(*args, **kwargs):
        out = real(*args, **kwargs)
        return _nan_like(out) if next(calls) == at else out

    monkeypatch.setattr(module, name, poisoned)
    [result] = [r for r in run_registry(QContext(0.5), [check]) if r.name == check]
    assert math.isnan(result.residual)
    assert not result.passed


def _nan_member(x, member):
    """x with member `member` of its first family nan in one sector: the
    first batch of a list or tuple of them, a batched element (nan on the
    member's support in that sector, so its finite support stays inside
    the grid), or a batch of grid values."""
    if isinstance(x, (list, tuple)):
        return type(x)([_nan_member(x[0], member), *x[1:]])
    if isinstance(x, DiscElement):
        m, g = next(iter(x.sectors.items()))
        values = g.values.copy()
        values[member, values[member] != 0] = math.nan
        return DiscElement({**x.sectors, m: GridFunction(values, g.finite_support)}, x.ctx)
    out = x.copy()
    out[member] = math.nan
    return out


# one member of one stacked family turns nan: the builder of the family, the
# member (one the check reads) and the check that must then fail
_NAN_MEMBERS = [
    ("_normals", 3, "algebra_commutation_shifts"),
    ("_algebra_elements", 5, "algebra_rep_products"),
    ("_algebra_elements", 4, "algebra_rep_involution"),
    ("_algebra_elements", 7, "algebra_associativity"),
    ("_delta_batches", 1, "hopf_defining_relations"),
    ("_delta_batches", 1, "module_algebra_law"),
    ("_delta_batches", 2, "involution_covariance"),
    ("_delta_batches", 1, "integral_invariance"),
    ("_delta_batches", 1, "adjoint_law"),
    ("_casimir_elements", 4, "casimir_equals_laplacian"),
    ("_casimir_elements", 2, "casimir_centrality"),
    ("_random_elements", 5, "radial_part_identity"),
    ("_random_elements", 0, "sector_preservation"),
]


@pytest.mark.parametrize("name, member, check", _NAN_MEMBERS, ids=[entry[2] for entry in _NAN_MEMBERS])
def test_a_nan_member_fails_its_check(monkeypatch, name, member, check):
    # a batched check folds one residual per member with a nan-keeping max,
    # so a nan in any one member of its family fails it
    real = getattr(verify, name)
    monkeypatch.setattr(verify, name, lambda *args, **kwargs: _nan_member(real(*args, **kwargs), member))
    [result] = run_registry(QContext(0.5), [check])
    assert result.name == check
    assert math.isnan(result.residual)
    assert not result.passed


def test_interior_max_cuts_the_rows_of_every_member():
    # the margin cuts the last axis: on a two-member element the second
    # member's interior counts, and its rows past the margin do not
    ctx = QContext(0.5, grid_horizon=8)
    v = np.zeros((2, ctx.npoints), dtype=complex)
    v[0, 2], v[1, 3], v[1, -1] = 1.0, 5.0, 100.0
    d = DiscElement({0: GridFunction(v)}, ctx)
    assert verify._interior_max(d, 1) == 5.0
    assert verify._interior_max(d, 0) == 100.0


def test_matrix_solve_oracle_is_sized_from_the_grid():
    # the truncated-matrix oracle reaches past the grid at every horizon, so a
    # horizon of 200 or more gives a result instead of a broadcast error, and
    # it reaches deep enough near q = 1, where rows decay slowly
    for ctx in (QContext(0.5, grid_horizon=200), QContext(0.98)):
        [res] = run_registry(ctx, ["matrix_solve"])
        assert res.name == "matrix_solve_oracle"
        assert res.passed


# checks whose rows fit a grid of horizon 11 or more
_FIT_FROM_11 = (
    "algebra_rep_involution",
    "algebra_integral_values",
    "radial_part_identity",
    "sector_preservation",
    "transform_centre_delta",
    "density_symmetry_and_quotient",
    "quadrature_self_consistency",
)


@pytest.mark.parametrize("horizon", [11, 12, 20, 21])
def test_checks_that_would_read_past_the_grid_fail_on_a_typed_error(horizon):
    # casimir_centrality reaches row 12 and multiplication_law row nmax + 1 = 21;
    # on a shorter grid each fails on CapacityError, not on a residual read
    # from the zero-filled rows past it, and the checks that fit still pass
    ctx = QContext(0.5, grid_horizon=horizon)
    results = {
        r.name: r
        for r in run_registry(ctx, ["casimir_centrality", "multiplication_law", *_FIT_FROM_11])
    }
    for name in _FIT_FROM_11:
        assert results[name].passed, results[name]
    for name, row in (("casimir_centrality", 12), ("multiplication_law", 21)):
        res = results[name]
        if horizon >= row:
            assert res.passed, res
        else:
            assert res.residual == math.inf
            assert res.detail.startswith("CapacityError"), res


def _gauss(ref: random.Random, n: int) -> np.ndarray:
    """The next n values of ref's gauss(0.0, 1.0), one call each."""
    return np.array([ref.gauss(0.0, 1.0) for _ in range(n)])


def test_normals_draw_what_gauss_draws():
    # the blocks of one _normals call are bit for bit successive calls of
    # gauss(0.0, 1.0), in C order: over the registry's seeds, single blocks
    # of odd and even sizes, and several shapes in one call, whose blocks
    # start on the sine half of a pair where an odd block ends
    shapes = [(11,), (5,), (0,), (1,), 2, (7,), (8,), (3, 5), (2, 3, 7), (4, 1, 2), (64,)]
    for seed in (2024, 5, 11, 17, 23, 31, 41):
        for n in (0, 1, 2, 7, 8, 11, 64):
            [block] = verify._normals(seed, n)
            expected = _gauss(random.Random(seed), n)
            assert block.dtype == expected.dtype and block.shape == (n,)
            assert block.tobytes() == expected.tobytes()
        ref = random.Random(seed)
        blocks = verify._normals(seed, *shapes)
        assert len(blocks) == len(shapes)
        for block, shape in zip(blocks, shapes):
            expected = _gauss(ref, math.prod(np.atleast_1d(shape))).reshape(shape)
            assert block.dtype == expected.dtype and block.shape == expected.shape
            assert block.tobytes() == expected.tobytes()


def test_random_elements_take_one_draw_per_fixture():
    # the registry's random fixtures are one batch each, read from one draw
    # of seed's stream: member by member, bit for bit the per-sector draws
    # of gauss, real parts before imaginary; no two sectors share memory
    ctx = QContext(0.5)
    for seed, count in ((2024, 100), (5, 6), (23, 1)):
        batch = verify._random_elements(ctx, count, seed=seed)
        assert sorted(batch.sectors) == list(range(-3, 4))
        ref = random.Random(seed)
        for k in range(count):
            for m in range(-3, 4):
                re = [ref.gauss(0.0, 1.0) for _ in range(11)]
                im = [ref.gauss(0.0, 1.0) for _ in range(11)]
                expected = np.zeros(ctx.npoints, dtype=complex)
                expected[:11] = np.array(re) + 1j * np.array(im)
                assert batch.sectors[m].values[k].tobytes() == expected.tobytes()
        rows = [g.values for g in batch.sectors.values()]
        assert all(v.shape == (count, ctx.npoints) for v in rows)
        assert not any(np.shares_memory(a, b) for a, b in itertools.combinations(rows, 2))


def test_stacked_draws_are_the_draws_one_at_a_time():
    # the seeded families are the vectors the checks once drew one at a time
    # from the same stream, padded with zeros onto the grid: seed 11's real
    # rows, seed 17's complex rows (real parts first), seed 31's six complex
    # pairs then four real vectors, and seed 41's four 6-vectors then a 5-vector
    def grid(values, npoints):
        v = np.zeros(npoints, dtype=complex)
        v[: len(values)] = values
        return v

    for horizon in (11, 12, 64, 128):
        ctx = QContext(0.5, grid_horizon=horizon)
        n = ctx.npoints
        ref = random.Random(11)
        for row in verify._on_grid(*verify._normals(11, (8, n - 2)), n):
            assert row.tobytes() == grid(_gauss(ref, n - 2), n).tobytes()
        ref = random.Random(17)
        radial = verify._random_elements(ctx, 6, seed=17, sectors=0, support=11)
        assert list(radial.sectors) == [0]
        for row in radial.sectors[0].values:
            re, im = _gauss(ref, 12), _gauss(ref, 12)
            assert row.tobytes() == grid(re + 1j * im, n).tobytes()
    ref = random.Random(31)
    paired, real = verify._seed31_draws(QContext(0.5))
    for pair in paired:
        for draw in pair:
            re, im = _gauss(ref, 21), _gauss(ref, 21)
            assert (draw[0] + 1j * draw[1]).tobytes() == (re + 1j * im).tobytes()
    assert all(draw.tobytes() == _gauss(ref, 21).tobytes() for draw in real)
    ref = random.Random(41)
    sixes, five = verify._seed41_draws(QContext(0.5))
    assert all(draw.tobytes() == _gauss(ref, 6).tobytes() for draw in sixes)
    assert five.tobytes() == _gauss(ref, 5).tobytes()


def _deltas(batch):
    """The (sector, row) of each member of a batch of single deltas."""
    [(m, g)] = batch.sectors.items()
    assert np.count_nonzero(g.values) == len(g.values) and np.all(g.values[g.values != 0] == 1.0)
    return [(m, int(n)) for n in np.flatnonzero(g.values) % g.values.shape[-1]]


def test_delta_batches_stack_the_spanning_deltas():
    # the covariance suite's families are the deltas it took one at a time:
    # sectors -3..3 by rows 0..10 in that order, the pairs (5k, 5k + 1), every
    # fourth delta, and every third delta of rows 0..8 for the kernels, one
    # element per row on all seven sectors
    ctx = QContext(0.5)
    basis = [(m, n) for m in range(-3, 4) for n in range(11)]
    spanning = verify._spanning_set(ctx)
    assert [len(f.sectors[m].values) for f, m in zip(spanning, range(-3, 4))] == [11] * 7
    assert [d for f in spanning for d in _deltas(f)] == basis
    pairs = [p for f, g in verify._basis_pairs(ctx) for p in zip(_deltas(f), _deltas(g))]
    assert sorted(pairs) == sorted(zip(basis[::5], basis[1::5]))
    fourth = [d for (f,) in verify._delta_batches(ctx, ((k,) for k in range(0, 77, 4))) for d in _deltas(f)]
    assert fourth == basis[::4]
    kernels = [(m, n) for m in range(-3, 4) for n in range(9)][::3]
    deltas = []
    for element, n in zip(verify._inversion_basis(ctx), (0, 3, 6), strict=True):
        assert list(element.sectors) == list(range(-3, 4))
        for m, g in element.sectors.items():
            assert g.values.tobytes() == GridFunction.delta(n, ctx.npoints).values.tobytes()
            deltas.append((m, n))
    assert sorted(deltas) == kernels
