"""Quantum symmetry: actions, Casimir, Laplacian, invariance."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qdisc import (
    DiscElement,
    GridFunction,
    QContext,
    act,
    casimir_apply,
    delta_fn,
    inner,
    inv_integral,
    invariance_residual,
    laplacian_apply,
    normal_mul,
    radial_laplacian,
    sector_rotate,
    star,
)
from qdisc.discalg import integral_scale
from qdisc.uqsl2 import _stencil_solve, act_word, stencil_coefficients
from qdisc.verify import _generator_casimir
from conftest import random_element


def test_generator_values(ctx):
    q = ctx.q
    z = DiscElement.generator_z(ctx)
    zs = DiscElement.generator_zstar(ctx)
    fz = act("F", z)
    assert list(fz.sectors) == [0]
    assert abs(fz.sector(0).values[0] - q**0.5) < 1e-15
    ez = act("E", z)
    assert list(ez.sectors) == [2]
    assert abs(ez.sector(2).values[0] + q**0.5) < 1e-15
    ezs = act("E", zs)
    assert abs(ezs.sector(0).values[0] - q**-1.5) < 1e-15
    # the conjugate generator is lowered with the power forced by the
    # defining relations
    fzs = act("F", zs)
    assert abs(fzs.sector(-2).values[0] + q**2.5) < 1e-15
    kz = act("K", z)
    assert abs(kz.sector(1).values[0] - q**2) < 1e-15


def test_action_on_centre_delta(ctx):
    # E f0 is the sector-1 element -q^(1/2)/(1-q^2) (f0(y) - f0(q^2 y)),
    # supported at the centre point only
    q = ctx.q
    ef0 = act("E", delta_fn(0, ctx))
    assert list(ef0.sectors) == [1]
    vals = ef0.sector(1).values
    assert abs(vals[0] + q**0.5 / (1 - q**2)) < 1e-15
    assert not np.any(vals[1:])


def test_unit_is_invariant(ctx):
    for c in (ctx, QContext(0.05, grid_horizon=32), QContext(0.995, grid_horizon=32)):
        one = DiscElement.one(c)
        assert invariance_residual(one, c) == 0.0
        # the Casimir action annihilates the unit exactly (interior rows; the
        # horizon row of a non-finite element is outside the difference formulas)
        om = casimir_apply(one, c)
        for g in om.sectors.values():
            assert np.max(np.abs(g.values[:-2])) == 0.0


def test_centre_delta_not_invariant(ctx):
    assert invariance_residual(delta_fn(0, ctx), ctx) > 1e-2


def test_sup_norms_keep_nan_in_any_sector_order():
    ctx = QContext(0.5, grid_horizon=8)
    ones = np.ones(ctx.npoints, dtype=complex)
    bad = np.zeros(ctx.npoints, dtype=complex)
    bad[2] = np.nan
    for keys in ((0, 1), (1, 0)):
        f = DiscElement({m: GridFunction(ones if m == 0 else bad) for m in keys}, ctx)
        assert list(f.sectors) == list(keys)
        assert np.isnan(f.max_abs())
        assert np.isnan(invariance_residual(f, ctx))


def test_defining_relations(ctx, rng):
    q = ctx.q
    for _ in range(5):
        f = random_element(ctx, rng)
        scale = max(1.0, act_word("EF", f).max_abs())
        r1 = act_word("K E Kinv".split(), f).max_abs_diff(act("E", f).scaled(q**2))
        r2 = act_word("K F Kinv".split(), f).max_abs_diff(act("F", f).scaled(q**-2))
        lhs = act_word("EF", f) - act_word("FE", f)
        rhs = (act("K", f) - act("Kinv", f)).scaled(1.0 / (q - 1.0 / q))
        assert max(r1, r2, lhs.max_abs_diff(rhs)) / scale < 1e-12


def test_module_algebra_law(ctx, rng):
    for _ in range(5):
        f = random_element(ctx, rng, sectors=2, support=6)
        g = random_element(ctx, rng, sectors=2, support=6)
        fg = normal_mul(f, g)
        lhsE = act("E", fg)
        rhsE = normal_mul(act("E", f), g) + normal_mul(act("K", f), act("E", g))
        lhsF = act("F", fg)
        rhsF = normal_mul(act("F", f), act("Kinv", g)) + normal_mul(f, act("F", g))
        scale = max(1.0, lhsE.max_abs(), lhsF.max_abs())
        assert lhsE.max_abs_diff(rhsE) / scale < 1e-12
        assert lhsF.max_abs_diff(rhsF) / scale < 1e-12


def test_involution_covariance(ctx, rng):
    # (E f)* = q^-2 F f*, (F f)* = q^2 E f*, (K f)* = K^-1 f*
    q = ctx.q
    for _ in range(5):
        f = random_element(ctx, rng)
        scale = max(1.0, act("E", f).max_abs(), act("F", f).max_abs())
        assert star(act("E", f)).max_abs_diff(act("F", star(f)).scaled(q**-2)) / scale < 1e-12
        assert star(act("F", f)).max_abs_diff(act("E", star(f)).scaled(q**2)) / scale < 1e-12
        assert star(act("K", f)).max_abs_diff(act("Kinv", star(f))) / scale < 1e-12


def test_integral_invariance(ctx, rng):
    for _ in range(5):
        f = random_element(ctx, rng)
        sc = integral_scale(f)
        for lab in ("E", "F"):
            acted = act(lab, f)
            assert abs(inv_integral(acted)) / max(sc, integral_scale(acted)) < 1e-12
        assert abs(inv_integral(act("K", f)) - inv_integral(f)) / sc < 1e-13


def test_adjoint_law(ctx, rng):
    for _ in range(5):
        f = random_element(ctx, rng, support=8)
        g = random_element(ctx, rng, support=8)
        sc = max(abs(inner(f, f)), abs(inner(g, g)), 1.0)
        rE = inner(act("E", f), g) - inner(f, act_word("KF", g).scaled(-1.0))
        rF = inner(act("F", f), g) - inner(f, act_word("E Kinv".split(), g).scaled(-1.0))
        rK = inner(act("K", f), g) - inner(f, act("K", g))
        assert max(abs(rE), abs(rF), abs(rK)) / sc < 1e-12


def test_casimir_equals_laplacian(ctx, rng):
    for _ in range(4):
        f = random_element(ctx, rng)
        lhs = laplacian_apply(f, ctx)
        rhs = _generator_casimir(f, ctx).scaled(1.0 / ctx.q)
        assert lhs.max_abs_diff(rhs) / max(1.0, lhs.max_abs()) < 1e-13


def test_casimir_centrality(ctx, rng):
    f = random_element(ctx, rng)
    for lab in ("K", "Kinv", "E", "F"):
        lhs = act(lab, casimir_apply(f, ctx))
        rhs = casimir_apply(act(lab, f, ctx), ctx)
        assert lhs.max_abs_diff(rhs) / max(1.0, lhs.max_abs()) < 1e-12


def test_laplacian_sector_preservation(ctx, rng):
    f = random_element(ctx, rng)
    lap = laplacian_apply(f, ctx)
    assert set(lap.sectors) <= set(f.sectors)
    # equivalently, it commutes with the circle rotation
    lhs = sector_rotate(lap, 1.3)
    rhs = laplacian_apply(sector_rotate(f, 1.3), ctx)
    assert lhs.max_abs_diff(rhs) / max(1.0, lhs.max_abs()) < 1e-13


def test_radial_stencil_values(ctx):
    # rows 0 and 1 of the stencil on the centre delta, by hand:
    # row 0 = -1/(1-q^2), row 1 = q^2/(1-q^2)
    q2 = ctx.q2
    lap = laplacian_apply(delta_fn(0, ctx), ctx).sector(0).values
    assert abs(lap[0] + 1.0 / (1 - q2)) < 1e-14
    assert abs(lap[1] - q2 / (1 - q2)) < 1e-14
    assert not np.any(np.abs(lap[2:]) > 1e-15)


def test_radial_laplacian_annihilates_constants(ctx):
    const = GridFunction(np.ones(ctx.npoints), finite_support=False)
    out = radial_laplacian(const, ctx).values
    assert np.max(np.abs(out[:-1])) < 1e-14


def test_radial_laplacian_linear_function(ctx):
    yv = GridFunction(ctx.ygrid().astype(complex), finite_support=False)
    out = radial_laplacian(yv, ctx).values
    assert np.max(np.abs((out + ctx.ygrid() ** 2)[:-1])) < 1e-14


def test_radial_matches_casimir_route(ctx, rng):
    v = np.zeros(ctx.npoints, dtype=complex)
    v[:12] = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    f = DiscElement({0: GridFunction(v)}, ctx)
    lhs = _generator_casimir(f, ctx).scaled(1.0 / ctx.q).sector(0).values
    rhs = radial_laplacian(GridFunction(v), ctx).values
    assert np.max(np.abs(lhs - rhs)) / max(1.0, np.max(np.abs(rhs))) < 1e-13


def test_stencil_boundary_row_closes(ctx):
    # the off-grid coefficient at the first row vanishes identically
    for m in range(-3, 4):
        up, diag, down = stencil_coefficients(ctx, sector=m)
        assert up[0] == 0.0


def test_stacked_laplacian_equals_the_one_sector_passes():
    # one pass over all sectors gives each sector's own stencil bit for bit
    rng = np.random.default_rng(41)
    for q in (0.05, 0.5, 0.995):
        ctx = QContext(q, grid_horizon=40)
        f = random_element(ctx, rng, sectors=3, support=30)
        whole = laplacian_apply(f, ctx)
        assert list(whole.sectors) == list(f.sectors)
        for m, g in f.sectors.items():
            alone = laplacian_apply(DiscElement({m: g}, ctx), ctx).sector(m).values
            up, diag, down = stencil_coefficients(ctx, ctx.npoints, m)
            v = g.values
            direct = up * (np.r_[0, v[:-1]] - v) + down * (np.r_[v[1:], 0] - v)
            assert np.array_equal(whole.sector(m).values, alone)
            assert np.array_equal(alone, direct)


def test_sector_stencil_matches_the_casimir_route():
    # 1-7 sectors, finite and not, against the generator route over q
    rng = np.random.default_rng(29)
    for q in (0.3, 0.5, 0.9, 0.995):
        for horizon in (64, 128):
            ctx = QContext(q, grid_horizon=horizon)
            for count in range(1, 8):
                sectors = {}
                for m in rng.choice(np.arange(-3, 4), size=count, replace=False):
                    v = np.zeros(ctx.npoints, dtype=complex)
                    v[:12] = rng.standard_normal(12) + 1j * rng.standard_normal(12)
                    sectors[int(m)] = GridFunction(v, finite_support=bool(m % 2))
                f = DiscElement(sectors, ctx)
                got = casimir_apply(f, ctx).scaled(1.0 / q)
                ref = _generator_casimir(f, ctx).scaled(1.0 / q)
                assert set(got.sectors) == set(ref.sectors) == set(f.sectors)
                for m, g in got.sectors.items():
                    assert g.finite_support == ref.sectors[m].finite_support
                    diff = np.max(np.abs(g.values - ref.sectors[m].values))
                    assert diff / max(1.0, g.max_abs()) < 1e-12


def test_casimir_route_matches_the_stencil_on_elements_that_fill_the_grid():
    # on sectors m < 0 the generator route reads E's image one row past the
    # grid, so it runs on the element zero-padded to horizon H + 1
    rng = np.random.default_rng(37)
    for q in (0.5, 0.9):
        for horizon in range(1, 21):
            ctx = QContext(q, grid_horizon=horizon)
            padded = QContext(q, grid_horizon=horizon + 1)
            for m in range(-3, 4):
                v = rng.standard_normal(ctx.npoints) + 1j * rng.standard_normal(ctx.npoints)
                lhs = laplacian_apply(DiscElement({m: GridFunction(v)}, ctx), ctx).sector(m).values
                ref = _generator_casimir(DiscElement({m: GridFunction(np.append(v, 0.0))}, padded), padded)
                rhs = ref.sector(m).values[: ctx.npoints] / q
                assert np.max(np.abs(lhs - rhs)) / max(1.0, np.max(np.abs(lhs))) < 1e-12


def test_stencil_sweep_matches_the_dense_solve():
    rng = np.random.default_rng(31)
    for q in (0.05, 0.5, 0.995):
        ctx = QContext(q)
        for dim in (2, 3, 50, 300):
            for m in range(-3, 4):
                up, diag, down = stencil_coefficients(ctx, dim, m)
                mat = np.diag(diag) + np.diag(up[1:], -1) + np.diag(down[:-1], 1)
                rhs = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
                ref = np.linalg.solve(mat, rhs)
                got = _stencil_solve(up, diag, down, rhs)
                assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-12


def test_sector_rotation_phases(ctx, rng):
    f = random_element(ctx, rng, sectors=2, support=4)
    rot = sector_rotate(f, np.pi / 3)
    for m, g in f.sectors.items():
        expected = np.exp(1j * m * np.pi / 3) * g.values
        assert np.max(np.abs(rot.sector(m).values - expected)) < 1e-15


def _finite_element(ctx, rng, sectors):
    """Random finite element on `sectors`, each supported on rows well
    inside the grid."""
    out = {}
    for m in sectors:
        rows = int(rng.integers(1, ctx.npoints // 2 + 1))
        v = np.zeros(ctx.npoints, dtype=complex)
        v[:rows] = rng.standard_normal(rows) + 1j * rng.standard_normal(rows)
        out[m] = GridFunction(v)
    return DiscElement(out, ctx)


def _abs(f):
    return DiscElement(
        {m: GridFunction(np.abs(g.values), g.finite_support) for m, g in f.sectors.items()}, f.ctx
    )


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    q=st.floats(0.05, 0.995),
    horizon=st.integers(4, 64),
    sectors=st.sets(st.integers(-3, 3), min_size=1, max_size=7),
    seed=st.integers(0, 2**32 - 1),
)
def test_laplacian_is_self_adjoint_under_the_pairing(q, horizon, sectors, seed):
    ctx = QContext(q, grid_horizon=horizon)
    rng = np.random.default_rng(seed)
    f, g = _finite_element(ctx, rng, sectors), _finite_element(ctx, rng, sectors)
    lf, lg = laplacian_apply(f, ctx), laplacian_apply(g, ctx)
    # componentwise scale: the same pairings taken in absolute value
    scale = abs(inner(_abs(lf), _abs(g))) + abs(inner(_abs(f), _abs(lg)))
    assert abs(inner(lf, g) - inner(f, lg)) <= 1e-12 * scale
