"""Disc algebra: normal form, products, involution, integral, representation."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdisc import discalg
from qdisc import (
    CapacityError,
    DiscElement,
    DomainError,
    GridFunction,
    QContext,
    RangeError,
    delta_fn,
    element_from_json_dict,
    element_to_json_dict,
    inner,
    inv_integral,
    normal_mul,
    rep_matrix,
    star,
)
from qdisc.discalg import (
    _integral_weights,
    _poch_down,
    _poch_up,
    _row_weights,
    _shift_weights,
    integral_scale,
)
from qdisc.uqsl2 import act, laplacian_apply, stencil_coefficients
from conftest import random_element, random_sectors


def test_delta_fn_basics(ctx):
    f0 = delta_fn(0, ctx)
    assert f0.sector(0).values[0] == 1.0
    assert not np.any(f0.sector(0).values[1:])
    assert f0.finite
    with pytest.raises(RangeError):
        delta_fn(ctx.grid_horizon + 1, ctx)
    # a negative row is off the grid too, not the last row
    for n in (-1, ctx.npoints):
        with pytest.raises(RangeError):
            GridFunction.delta(n, ctx.npoints)


def test_delta_partition(ctx):
    total = delta_fn(0, ctx)
    for n in range(1, 6):
        total = total + delta_fn(n, ctx)
    vals = total.sector(0).values
    assert np.all(vals[:6] == 1.0) and not np.any(vals[6:])


def test_generator_contractions(ctx):
    z = DiscElement.generator_z(ctx)
    zs = DiscElement.generator_zstar(ctx)
    yg = ctx.ygrid()
    zz = normal_mul(zs, z)
    assert list(zz.sectors) == [0]
    assert np.max(np.abs(zz.sector(0).values - (1 - ctx.q2 * yg))) == 0.0
    zzs = normal_mul(z, zs)
    assert np.max(np.abs(zzs.sector(0).values - (1 - yg))) == 0.0


def test_qr_identity_exact(ctx):
    z = DiscElement.generator_z(ctx)
    zs = DiscElement.generator_zstar(ctx)
    one = DiscElement.one(ctx)
    resid = normal_mul(zs, z) - normal_mul(z, zs).scaled(ctx.q2) - one.scaled(
        1 - ctx.q2
    )
    assert resid.max_abs() < 1e-14


def test_commutation_shift_rules(ctx, rng):
    # z* psi(y) = psi(q^2 y) z*, z psi(y) = psi(q^-2 y) z
    v = np.zeros(ctx.npoints, dtype=complex)
    v[: ctx.npoints - 2] = rng.standard_normal(ctx.npoints - 2)
    psi = DiscElement({0: GridFunction(v)}, ctx)
    zs = DiscElement.generator_zstar(ctx)
    z = DiscElement.generator_z(ctx)
    lhs = normal_mul(zs, psi)
    shifted = np.zeros_like(v)
    shifted[:-1] = v[1:]
    assert lhs.max_abs_diff(DiscElement({-1: GridFunction(shifted)}, ctx)) == 0.0
    down = np.zeros_like(v)
    down[1:] = v[:-1]
    lhs2 = normal_mul(z, psi)
    rhs2 = normal_mul(DiscElement({0: GridFunction(down)}, ctx), z)
    assert lhs2.max_abs_diff(rhs2) == 0.0


def test_power_contractions(ctx):
    # z*^k z^k and z^k z*^k have the explicit polynomial values;
    # generators are not finitely supported, so the top rows fall to the
    # shift reach of the horizon and are excluded
    z = DiscElement.generator_z(ctx)
    zs = DiscElement.generator_zstar(ctx)
    yg = ctx.ygrid()
    z2 = normal_mul(z, z)
    zs2 = normal_mul(zs, zs)
    lhs = normal_mul(zs2, z2).sector(0).values
    expected = (1 - ctx.q2 * yg) * (1 - ctx.q2**2 * yg)
    assert np.max(np.abs((lhs - expected)[:-2])) < 1e-15
    lhs2 = normal_mul(z2, zs2).sector(0).values
    expected2 = (1 - yg) * (1 - yg / ctx.q2)
    assert np.max(np.abs((lhs2 - expected2)[:-2])) < 1e-14


def test_product_grading(ctx, rng):
    f = random_element(ctx, rng, sectors=2, support=5)
    g = random_element(ctx, rng, sectors=2, support=5)
    prod = normal_mul(f, g)
    assert max(abs(m) for m in prod.sectors) <= 4


def test_rep_oracle_products(ctx, rng):
    dim, interior = 24, 14
    for _ in range(10):
        f = random_element(ctx, rng)
        g = random_element(ctx, rng)
        lhs = rep_matrix(normal_mul(f, g), dim, ctx).entries
        rhs = rep_matrix(f, dim, ctx).entries @ rep_matrix(g, dim, ctx).entries
        scale = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs((lhs - rhs)[:interior, :interior])) / scale < 1e-12


def test_rep_relation_truncation(ctx):
    # z* z - q^2 z z* - (1 - q^2) vanishes off the last basis vector
    dim = 12
    mz = rep_matrix(DiscElement.generator_z(ctx), dim, ctx).entries
    mzs = rep_matrix(DiscElement.generator_zstar(ctx), dim, ctx).entries
    resid = mzs @ mz - ctx.q2 * mz @ mzs - (1 - ctx.q2) * np.eye(dim)
    assert np.max(np.abs(resid[: dim - 1, : dim - 1])) < 1e-12


def test_rep_diagonals(ctx):
    y = DiscElement.radial_y(ctx)
    diag = rep_matrix(y, 6, ctx).entries.diagonal().real
    assert np.max(np.abs(diag - ctx.q2 ** np.arange(6))) == 0.0
    mz = rep_matrix(DiscElement.generator_z(ctx), 6, ctx).entries
    prods = (mz.conj().T @ mz).diagonal().real
    assert np.max(np.abs(prods[:5] - (1 - ctx.q2 ** np.arange(1, 6)))) < 1e-15


def test_star_involution(ctx, rng):
    f = random_element(ctx, rng)
    assert star(star(f)).max_abs_diff(f) == 0.0
    y = DiscElement.radial_y(ctx)
    assert star(y).max_abs_diff(y) == 0.0


def test_star_antihomomorphism(ctx, rng):
    for _ in range(5):
        f = random_element(ctx, rng, sectors=2, support=6)
        g = random_element(ctx, rng, sectors=2, support=6)
        lhs = star(normal_mul(f, g))
        rhs = normal_mul(star(g), star(f))
        assert lhs.max_abs_diff(rhs) / max(1.0, lhs.max_abs()) < 1e-13


def test_associativity_vs_rep(ctx, rng):
    dim, interior = 24, 12
    a = random_element(ctx, rng, sectors=2, support=6)
    b = random_element(ctx, rng, sectors=2, support=6)
    c = random_element(ctx, rng, sectors=2, support=6)
    left = normal_mul(normal_mul(a, b), c)
    right = normal_mul(a, normal_mul(b, c))
    assert left.max_abs_diff(right) / max(1.0, left.max_abs()) < 1e-12
    mats = rep_matrix(a, dim, ctx).entries @ rep_matrix(b, dim, ctx).entries @ rep_matrix(c, dim, ctx).entries
    direct = rep_matrix(left, dim, ctx).entries
    scale = max(1.0, np.max(np.abs(mats)))
    assert np.max(np.abs((direct - mats)[:interior, :interior])) / scale < 1e-12


def test_integral_values(ctx):
    f0 = delta_fn(0, ctx)
    assert abs(inv_integral(f0) - (1 - ctx.q2)) == 0.0
    z = DiscElement.generator_z(ctx)
    zf = normal_mul(z, f0)
    assert inv_integral(zf) == 0.0
    zzf = normal_mul(z, zf)
    assert inv_integral(zzf) == 0.0
    for n in (1, 3, 5):
        expected = (1 - ctx.q2) / ctx.q2**n
        assert abs(inv_integral(delta_fn(n, ctx)) - expected) / expected < 1e-15


def test_integral_requires_finite(ctx):
    with pytest.raises(DomainError):
        inv_integral(DiscElement.one(ctx))


def test_cross_sector_orthogonality(ctx):
    # integrals of products that land outside sector zero vanish identically
    z = DiscElement.generator_z(ctx)
    rad = DiscElement({0: GridFunction.delta(1, ctx.npoints)}, ctx)
    f0 = delta_fn(0, ctx)
    combos = [
        normal_mul(normal_mul(z, rad), f0),
        normal_mul(rad, normal_mul(f0, star(z))),
        normal_mul(normal_mul(z, normal_mul(z, rad)), normal_mul(f0, star(z))),
    ]
    for el in combos:
        assert inv_integral(el) == 0.0


def test_inner_product(ctx, rng):
    f0 = delta_fn(0, ctx)
    assert abs(inner(f0, f0) - (1 - ctx.q2)) == 0.0
    f = random_element(ctx, rng, sectors=2, support=6)
    g = random_element(ctx, rng, sectors=2, support=6)
    assert abs(inner(f, g) - np.conj(inner(g, f))) < 1e-10
    assert inner(f, f).real > 0
    assert abs(inner(f, f).imag) / inner(f, f).real < 1e-14


def test_trace_identity(ctx):
    # invariant integral equals the weighted diagonal sum of the matrix
    dim = 16
    v = np.zeros(ctx.npoints, dtype=complex)
    v[2] = 1.5
    v[4] = -0.25j
    f = DiscElement({0: GridFunction(v)}, ctx)
    m = rep_matrix(f, dim, ctx).entries
    tr = (1 - ctx.q2) * sum(m[k, k] / ctx.q2**k for k in range(dim))
    assert abs(tr - inv_integral(f)) < 1e-12


def test_capacity_error_on_horizon_overflow():
    ctx = QContext(0.5, grid_horizon=6)
    z = DiscElement.generator_z(ctx)
    v = np.zeros(ctx.npoints, dtype=complex)
    v[-1] = 1.0  # support at the horizon
    f = DiscElement({0: GridFunction(v)}, ctx)
    zsf = DiscElement({-1: GridFunction(v)}, ctx)
    with pytest.raises(CapacityError):
        normal_mul(normal_mul(z, f), zsf)


def test_a_nan_at_the_horizon_raises_like_a_number():
    # z^2 psi times z*: psi's top row moves past the grid, and a NaN there
    # is as nonzero as 2.0
    ctx = QContext(0.5, grid_horizon=8)
    for top in (2.0, math.nan):
        v = np.zeros(ctx.npoints, dtype=complex)
        v[8] = top
        with pytest.raises(CapacityError, match="horizon"):
            normal_mul(DiscElement({2: GridFunction(v)}, ctx), DiscElement.generator_zstar(ctx))


def test_json_round_trip(ctx, rng):
    f = random_element(ctx, rng, sectors=2, support=4)
    doc = element_to_json_dict(f)
    assert doc["q"] == ctx.q
    assert json.dumps(doc)  # serializable
    back = element_from_json_dict(doc, ctx)
    assert back.max_abs_diff(f) == 0.0


def test_json_schema_shape(ctx):
    doc = element_to_json_dict(delta_fn(2, ctx))
    assert set(doc) == {"q", "sectors"}
    assert doc["sectors"][0]["m"] == 0
    assert doc["sectors"][0]["values"] == [[2, 1.0, 0.0]]


def test_contraction_polynomials_match_products():
    # P_d[n] = prod_{s=n-d+1}^{n} (1 - q^(2s)) and Q_d[n] = prod_{s=1}^{d}
    # (1 - q^(2(n+s))), multiplied in that order, so equal to the bit
    for q in (0.05, 0.5, 0.995):
        ctx = QContext(q)
        for npoints in (1, 5, 66):
            yg = ctx.ygrid(2 * npoints + 3)
            for d in range(npoints + 3):
                down = np.zeros(npoints, dtype=complex)
                up = np.ones(npoints, dtype=complex)
                for n in range(npoints):
                    if n >= d:
                        p = 1.0
                        for s in range(n - d + 1, n + 1):
                            p *= 1.0 - yg[s]
                        down[n] = p
                    p = 1.0
                    for s in range(1, d + 1):
                        p *= 1.0 - yg[n + s]
                    up[n] = p
                assert np.array_equal(_poch_down(d, ctx, npoints), down)
                assert np.array_equal(_poch_up(d, ctx, npoints), up)
                if d < npoints:
                    # the shifted lower polynomial is the upper one
                    assert np.array_equal(_poch_down(d, ctx, npoints + d)[d:], up)


def _dense_rep(f, dim, ctx):
    """Reference representation: a dense z from its subdiagonal weights,
    and each sector through matrix powers of z or z*."""
    z = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        z[k + 1, k] = np.sqrt(1.0 - ctx.q2 ** (k + 1))
    out = np.zeros((dim, dim), dtype=complex)
    for m, g in f.sectors.items():
        vals = np.zeros(dim, dtype=complex)
        take = min(dim, len(g.values))
        vals[:take] = g.values[:take]
        if m >= 0:
            out += np.linalg.matrix_power(z, m) @ np.diag(vals)
        else:
            out += np.diag(vals) @ np.linalg.matrix_power(z.conj().T, -m)
    return out


def test_rep_matrix_matches_dense_powers():
    # one sector at a time and all at once, with |m| >= dim and dim past the horizon
    rng = np.random.default_rng(31)
    for q in (0.05, 0.5, 0.995):
        ctx = QContext(q, grid_horizon=32)
        for dim in (1, 2, 12, 40):
            singles = [
                random_sectors(ctx, rng, [m], ctx.grid_horizon) for m in range(-7, 8)
            ]
            whole = random_sectors(ctx, rng, range(-7, 8), ctx.grid_horizon)
            for f in singles + [whole]:
                got = rep_matrix(f, dim, ctx).entries
                ref = _dense_rep(f, dim, ctx)
                assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_rep_matrix_never_uses_contraction_polynomials(ctx, rng, monkeypatch):
    # the oracle must stay independent of the products it checks
    def refuse(*args):
        raise AssertionError("rep_matrix called a contraction polynomial")

    monkeypatch.setattr(discalg, "_poch_down", refuse)
    monkeypatch.setattr(discalg, "_poch_up", refuse)
    f = random_element(ctx, rng, sectors=5)
    ref = _dense_rep(f, 24, ctx)
    assert np.max(np.abs(rep_matrix(f, 24, ctx).entries - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_inner_is_bit_identical_to_the_integral_of_the_product():
    rng = np.random.default_rng(77)
    for q in (0.05, 0.3, 0.9, 0.995):
        for horizon in (32, 64):
            ctx = QContext(q, grid_horizon=horizon)
            for _ in range(8):
                f, g = (
                    random_sectors(
                        ctx,
                        rng,
                        rng.choice(np.arange(-4, 5), rng.integers(1, 8), replace=False),
                        int(rng.integers(0, horizon - 8)),
                    )
                    for _ in range(2)
                )
                assert inner(f, g) == inv_integral(normal_mul(star(g), f))


def test_inner_of_disjoint_sectors_is_exactly_zero(ctx, rng):
    f = random_sectors(ctx, rng, [-2, 1, 3], 6)
    g = random_sectors(ctx, rng, [-1, 0, 2], 6)
    for value in (inner(f, g), inner(g, f)):
        assert value == 0j and isinstance(value, complex)


def test_inner_needs_a_finite_factor(ctx):
    one, z = DiscElement.one(ctx), DiscElement.generator_z(ctx)
    with pytest.raises(DomainError):
        inner(one, z)
    f0 = delta_fn(0, ctx)
    assert inner(one, f0) == inner(f0, one) == 1 - ctx.q2


def test_integral_weights_only_on_nonzero_rows():
    # q^(-2n) overflows past row 118 at q = 0.05 and past row 154 at q = 0.1
    for q in (0.05, 0.1):
        ctx = QContext(q, grid_horizon=160)
        f0 = delta_fn(0, ctx)
        assert inner(f0, f0) == inv_integral(f0) == integral_scale(f0) == 1 - ctx.q2
    ctx = QContext(0.05, grid_horizon=160)
    far = delta_fn(125, ctx)
    for integral in (inv_integral, integral_scale, lambda f: inner(f, f)):
        with pytest.raises(CapacityError, match="integral weight"):
            integral(far)
    # the weights read one cover per q^2, bit for bit the pow they were
    # taken by on each call's own rows, in any row order, one row at a time
    # and for any batch, and the first weight past the double range raises
    # on the same row
    def pow_on(rows, ctx):
        with np.errstate(over="ignore"):
            return np.power(1.0 / ctx.q2, np.asarray(rows, dtype=float))

    rng = np.random.default_rng(3)
    for q in (0.05, 0.1, 0.3, 0.5, 0.9, 0.995):
        ctx = QContext(q, grid_horizon=160)
        finite = int(np.count_nonzero(np.isfinite(pow_on(range(ctx.npoints), ctx))))
        rows = rng.permutation(finite)
        assert _row_weights(rows, ctx).tobytes() == pow_on(rows, ctx).tobytes()
        for n in rows[:16]:
            assert _row_weights([n], ctx).tobytes() == pow_on([n], ctx).tobytes()
        values = np.zeros((4, ctx.npoints), dtype=complex)
        expected = np.zeros((4, ctx.npoints))
        for member, weights in zip(values, expected):
            nz = np.sort(rng.choice(finite, 9, replace=False))
            member[nz] = 1.0
            weights[nz] = pow_on(nz, ctx)
        assert _integral_weights(values, ctx).tobytes() == expected.tobytes()
        if finite < ctx.npoints:
            assert (q, finite) in ((0.05, 119), (0.1, 155))
            with pytest.raises(CapacityError, match="integral weight"):
                _row_weights([finite], ctx)
            with pytest.raises(CapacityError, match="integral weight"):
                inv_integral(delta_fn(finite, ctx))


def test_max_abs_diff_keeps_nan():
    ctx = QContext(0.5, grid_horizon=8)
    ones = np.ones(ctx.npoints, dtype=complex)
    bad = ones.copy()
    bad[3] = np.nan
    f = DiscElement({0: GridFunction(ones), 2: GridFunction(bad)}, ctx)
    g = DiscElement({0: GridFunction(2 * ones), 2: GridFunction(ones)}, ctx)
    assert np.isnan(f.max_abs_diff(g))
    assert np.isnan(g.max_abs_diff(f))
    assert DiscElement({0: GridFunction(ones)}, ctx).max_abs_diff(g) == 1.0
    assert DiscElement.zero(ctx).max_abs_diff(DiscElement.zero(ctx)) == 0.0
    # in a batch the nan stays in its own member
    fb = DiscElement({0: GridFunction(np.stack([ones, ones])), 2: GridFunction(np.stack([ones, bad]))}, ctx)
    gb = DiscElement({0: GridFunction(np.stack([2 * ones, 2 * ones]))}, ctx)
    for got in (fb.max_abs_diff(gb), gb.max_abs_diff(fb), fb.max_abs()):
        assert got[0] == 1.0 and np.isnan(got[1])


def test_cached_grid_tables_are_read_only():
    # shared between callers; the grid is keyed on q^2 rather than on the context
    ctx = QContext(0.5, grid_horizon=8)
    assert ctx.ygrid(12) is QContext(0.5, grid_horizon=40, series_tol=1e-12).ygrid(12)
    tables = (ctx.ygrid(), _poch_down(3, ctx, 9), _poch_up(3, ctx, 9), _shift_weights(ctx.q2, 9, 2))
    for arr in tables + stencil_coefficients(ctx, 9, -2):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_shift_weights_are_read_only_slices_of_the_direct_products():
    # entry k of the a-fold product is w_k ... w_(k+a-1) whatever dim is, so
    # every dim's weights are one slice of a cover, grown in any order
    for q in (0.05, 0.5, 0.995):
        ctx = QContext(q)
        w = [math.sqrt(1.0 - y) for y in ctx.ygrid(65)[1:].tolist()]
        ref = {}
        for a in range(64):
            ref[a] = []
            for k in range(64 - a):
                p = 1.0
                for j in range(a):
                    p *= w[k + j]
                ref[a].append(p)
        for dims in (range(1, 65), range(64, 0, -1)):
            discalg._shift_cover.cache_clear()
            for dim in dims:
                for a in range(dim):
                    got = _shift_weights(ctx.q2, dim, a)
                    assert not got.flags.writeable
                    assert np.array_equal(got, ref[a][: dim - a])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    q=st.floats(0.05, 0.995),
    horizon=st.integers(16, 128),
    f_sectors=st.sets(st.integers(-3, 3), min_size=1, max_size=7),
    g_sectors=st.sets(st.integers(-3, 3), min_size=1, max_size=7),
    data=st.data(),
)
def test_products_star_and_pairing_match_the_representation(q, horizon, f_sectors, g_sectors, data):
    # the registry's algebra_rep_products and algebra_rep_involution, with
    # their tolerances and scales, over q, horizons, supports and sector sets
    ctx = QContext(q, grid_horizon=horizon)
    support = data.draw(st.integers(0, horizon // 4), label="support")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    f, g = (random_sectors(ctx, rng, s, support) for s in (f_sectors, g_sectors))
    dim = support + 20
    interior = dim - 10
    mf, mg = rep_matrix(f, dim, ctx).entries, rep_matrix(g, dim, ctx).entries
    prod = rep_matrix(normal_mul(f, g), dim, ctx).entries
    scale = max(1.0, float(np.max(np.abs(mf))) * float(np.max(np.abs(mg))))
    assert np.max(np.abs((prod - mf @ mg)[:interior, :interior])) <= 1e-12 * scale
    st_f = rep_matrix(star(f), dim, ctx).entries
    scale = max(1.0, float(np.max(np.abs(mf))))
    assert np.max(np.abs((st_f - mf.conj().T)[:interior, :interior])) <= 1e-12 * scale
    assert inner(f, g) == inv_integral(normal_mul(star(g), f))


def _batch_sectors(ctx, rng, sectors, support, members):
    """A batch of `members` finite elements on the given sectors, random
    values on rows 0..support."""
    out = {}
    for m in sectors:
        v = np.zeros((members, ctx.npoints), dtype=complex)
        v[:, : support + 1] = rng.standard_normal((members, support + 1)) + 1j * rng.standard_normal(
            (members, support + 1)
        )
        out[int(m)] = GridFunction(v)
    return DiscElement(out, ctx)


def _member(f, k):
    return DiscElement({m: GridFunction(g.values[k], g.finite_support) for m, g in f.sectors.items()}, f.ctx)


def _assert_member_is_alone(batched, alone, k, members):
    """Member k of a batched result is bit for bit the result on member k
    alone; a sector the batch has and the member alone lacks is zero."""
    if isinstance(alone, DiscElement):
        for m, g in alone.sectors.items():
            assert batched.sectors[m].values[k].tobytes() == g.values.tobytes()
            assert batched.sectors[m].finite_support == g.finite_support
        for m in set(batched.sectors) - set(alone.sectors):
            assert not np.any(batched.sectors[m].values[k])
    elif isinstance(alone, discalg.RepMatrix):
        assert batched.entries[k].tobytes() == alone.entries.tobytes()
    else:
        # an unbatched reduction is a Python scalar, a batched one an array
        assert type(alone) in (float, complex)
        got = np.broadcast_to(batched, (members,))[k]
        assert np.asarray(got, type(alone)).tobytes() == np.asarray(alone).tobytes()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    q=st.floats(0.05, 0.995),
    horizon=st.integers(16, 128),
    members=st.integers(1, 5),
    f_sectors=st.sets(st.integers(-3, 3), min_size=1, max_size=7),
    g_sectors=st.sets(st.integers(-3, 3), min_size=1, max_size=7),
    data=st.data(),
)
def test_each_member_of_a_batch_is_the_element_alone(q, horizon, members, f_sectors, g_sectors, data):
    # one leading batch axis through every operation: each member's result
    # is bit for bit the operation on that member alone
    ctx = QContext(q, grid_horizon=horizon)
    support = data.draw(st.integers(0, horizon // 4), label="support")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    f, g = (_batch_sectors(ctx, rng, s, support, members) for s in (f_sectors, g_sectors))
    dim = support + 20
    ops = {
        "normal_mul": lambda f, g: normal_mul(f, g),
        "star": lambda f, g: star(f),
        **{label: lambda f, g, label=label: act(label, f) for label in ("E", "F", "K", "Kinv")},
        "inner": inner,
        "inv_integral": lambda f, g: inv_integral(f),
        "inv_integral of a product": lambda f, g: inv_integral(normal_mul(star(g), f)),
        "integral_scale": lambda f, g: integral_scale(f),
        "rep_matrix": lambda f, g: rep_matrix(f, dim),
        "laplacian_apply": lambda f, g: laplacian_apply(f),
        "max_abs": lambda f, g: f.max_abs(),
        "max_abs_diff": lambda f, g: f.max_abs_diff(g),
    }
    for name, op in ops.items():
        batched = op(f, g)
        for k in range(members):
            _assert_member_is_alone(batched, op(_member(f, k), _member(g, k)), k, members)
    paired = np.broadcast_to(inner(f, g), (members,))
    assert paired.tobytes() == np.broadcast_to(inv_integral(normal_mul(star(g), f)), (members,)).tobytes()


def test_zero_sectors_are_dropped_by_value(ctx):
    nan = np.zeros(ctx.npoints, dtype=complex)
    nan[3] = np.nan
    negzero = np.full(ctx.npoints, -0.0 - 0.0j)
    f = DiscElement({1: GridFunction(nan), 2: GridFunction(negzero)}, ctx)
    assert list(f.sectors) == [1]
