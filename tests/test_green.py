"""Green functions, kernels, integral operators, classical limits."""

import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdisc import (
    CapacityError,
    DiscElement,
    DomainError,
    GridFunction,
    PoleError,
    QContext,
    act,
    apply_kernel,
    classical_limit_report,
    coef_order1,
    coef_order2,
    delta_fn,
    dilog,
    g_radial_grid,
    gm_quadrature_grid,
    gm_spectral,
    green_solve,
    kernel_G,
    kernel_assembled,
    kernel_invariance_residual,
    lambda_rho,
    laplacian_apply,
    qpochhammer,
    radial_laplacian,
    rep_matrix,
)
from qdisc import discalg, green
from qdisc.discalg import _contraction_table, _integral_weights, _poch_down, _poch_up
from qdisc.green import _depth_coefficients, _majorants, _materialize
from qdisc.uqsl2 import _stencil_solve, stencil_coefficients
from conftest import random_element, random_sectors


# --- per-pair references ---------------------------------------------------
#
# The kernel formulas one sector pair, one depth and one leg at a time: the
# oracles that the one-pass assembly, the window-view materializer and the
# invariance residual must match bit for bit.


def _depth_coefficients_ref(l, q, s_cap, sectors):
    """c[p, r, s] = c_{i,s}(l_p) and (L_k + L_n)(l_p) from running products
    padded with np.pad."""
    q2 = q * q
    i = np.asarray(sectors)[:, None]
    j = np.arange(s_cap + np.abs(i).max(), dtype=float)
    fac = 1.0 - np.exp((2.0 * l[:, None] + 2.0 * j) * math.log(q))
    ratios = fac[:, :-1] / (1.0 - q2 ** (j[:-1] + 1.0))
    R = np.cumprod(np.pad(ratios, ((0, 0), (1, 0)), constant_values=1.0), axis=1)
    lterms = np.divide(q2**j, fac, out=np.zeros_like(fac), where=fac != 0)
    L = np.pad(np.cumsum(lterms, axis=1), ((0, 0), (1, 0)))
    k = np.arange(s_cap) + np.maximum(-i, 0)
    n = np.arange(s_cap) + np.maximum(i, 0)
    return q2**k * R[:, k] * R[:, n], L[:, k] + L[:, n]


def _tail_table(order, ctx, shape, i):
    """M0 - 1 and the nonnegative tail table of the pair (i, -i)."""
    q, q2, tol = ctx.q, ctx.q2, ctx.series_tol
    d = np.arange(sum(shape) - 1)
    count = 0
    while abs(coef_order1(count + 1, q)) / (1.0 - q2) >= tol:
        count += 1
    m0 = count + 1
    (_, cbar), (lsum, _) = _depth_coefficients_ref(np.array([m0, np.inf]), q, min(shape), [i])
    lin = 1.0
    if order == 2:
        lin = coef_order2(m0, q) / abs(coef_order1(m0, q))
        lin = lin + (1.0 - q2) * (q2**m0 * lsum[0, :, None] + d)
    return count, cbar[0, :, None] * lin * q2 ** (m0 * d) / (1.0 - q2 ** (1.0 + d))


def _majorant(H, q2, shape):
    """max_{a, b} sum_s P_s(a) P_s(b) H[s, a+b-2s] at the balanced splits."""
    A, B = shape
    t = np.arange(A + B - 1)
    a = np.clip(t // 2, t - (B - 1), A - 1)
    b = t - a
    P = _contraction_table(q2, H.shape[0], max(A, B)).real
    s = np.arange(H.shape[0])[:, None]
    summands = np.where(t >= 2 * s, P[:, a] * P[:, b] * H[s, np.maximum(t - 2 * s, 0)], 0.0)
    return float(np.add.accumulate(summands, axis=0)[-1].max())


def _term_count(order, ctx, shape, i):
    """The certified term count M of the pair (i, -i) and its majorant."""
    count, H = _tail_table(order, ctx, shape, i)
    majorant = _majorant(H, ctx.q2, shape)
    while abs(coef_order1(count + 1, ctx.q)) * majorant >= ctx.series_tol:
        count += 1
    return count, majorant


def _assembled_row(order, ctx, shape, i):
    """Table row H[i, s, d], term count and tail bound of the pair (i, -i)."""
    q, q2 = ctx.q, ctx.q2
    count, majorant = _term_count(order, ctx, shape, i)
    d = np.arange(sum(shape) - 1)
    m = np.arange(1.0, count + 1)
    c, lsum = (x[:, 0] for x in _depth_coefficients_ref(m, q, min(shape), [i]))
    X = np.exp(2.0 * np.outer(m, d) * math.log(q))
    W = coef_order1(m, q)[:, None] * c
    if order == 1:
        H = W.T @ X
    else:
        Wd = (1.0 - q2) * W
        direct = coef_order2(m, q)[:, None] * c + Wd * (q2**m)[:, None] * lsum
        H = direct.T @ X - d * (Wd.T @ X)
    return H, count, float(abs(coef_order1(count + 1, q)) * majorant)


def _materialize_ref(table, q2, shape):
    """Dense terms by one offsets gather per depth."""
    if not table:
        return {}
    A, B = shape
    H = np.stack(list(table.values()))
    P = _contraction_table(q2, H.shape[1], max(A, B)).real
    offsets = np.add.outer(np.arange(A), np.arange(B))
    psi = np.zeros((H.shape[0], A, B), dtype=H.dtype)
    for s in range(H.shape[1]):
        psi[:, s:, s:] += np.outer(P[s, s:A], P[s, s:B]) * H[:, s, offsets[: A - s, : B - s]]
    return {(i, -i): acc for i, acc in zip(table, psi) if np.any(acc)}


def _leg_image_ref(psi, axis, c0, c1, s):
    """c0 psi + c1 shift(psi, s), shifted along the axis through a transpose."""
    shifted = discalg._shift(psi.T, s).T if axis == 0 else discalg._shift(psi, s)
    return c0 * psi + c1 * shifted


def _invariance_residual_ref(K, ctx):
    """kernel_invariance_residual pair by pair, leg by leg, accumulating
    every leg image and magnitude in order, folded with the builtin max."""
    worst = 0.0
    for lab in ("E", "F"):
        acted, mags = {}, {}
        for key, source, axis, c0, c1, s in green._coproduct_legs(lab, K.terms, ctx):
            psi = K.terms[source]
            for acc, image in (
                (acted, _leg_image_ref(psi, axis, c0, c1, s)),
                (mags, _leg_image_ref(np.abs(psi), axis, abs(c0), abs(c1), s)),
            ):
                acc[key] = acc[key] + image if key in acc else image
        for key, arr in acted.items():
            if not K.exact and max(abs(key[0]), abs(key[1])) > K.sector_max:
                continue
            ratio = np.abs(arr) / np.maximum(1.0, mags[key])
            if ratio.shape[0] > 1 and ratio.shape[1] > 1:
                worst = max(worst, float(np.max(ratio[:-1, :-1])))
    for (i, j), psi in K.terms.items():
        dev = abs(ctx.q ** (2 * (i + j)) - 1.0) * np.abs(psi)
        worst = max(worst, float(np.max(dev / np.maximum(1.0, np.abs(psi)))))
    return worst


def test_radial_solution_order1(ctx_wide):
    ctx = ctx_wide
    g1 = g_radial_grid(1, ctx, 44)
    lap = radial_laplacian(g1, ctx).values
    f0 = np.zeros(44)
    f0[0] = 1.0
    assert np.max(np.abs(lap[:41] - f0[:41])) < 1e-10


def test_radial_solution_order2(ctx_wide):
    ctx = ctx_wide
    g1 = g_radial_grid(1, ctx, 44)
    g2 = g_radial_grid(2, ctx, 44)
    lap2 = radial_laplacian(g2, ctx).values
    assert np.max(np.abs(lap2[:41] - g1.values[:41])) < 1e-11
    lap22 = radial_laplacian(GridFunction(lap2, False), ctx).values
    f0 = np.zeros(44)
    f0[0] = 1.0
    assert np.max(np.abs(lap22[:41] - f0[:41])) < 1e-10


def test_centre_value_series(ctx):
    # value at the disc centre from an independent coefficient sum
    total = 0.0
    q2 = ctx.q2
    for m in range(1, 400):
        total += (1.0 / q2 - 1.0) / (q2**-m - 1.0)
    expected = -(1 - q2) * total
    assert abs(g_radial_grid(1, ctx).values[0] - expected) < 1e-12


def test_quadrature_oracle_matches_series(ctx):
    for m in (1, 2):
        gq = gm_quadrature_grid(m, ctx, 21)
        gs = g_radial_grid(m, ctx, 21)
        assert np.max(np.abs(gq.values - gs.values)) < 1e-7


def test_gm_quadrature_point(ctx):
    assert abs(gm_quadrature_grid(1, ctx, 2).values[1] - g_radial_grid(1, ctx, 2).values[1]) < 1e-7
    # m = 0 would be a delta and m = -1 a Laplacian image, not an oracle
    for m in (0, -1):
        with pytest.raises(DomainError):
            gm_quadrature_grid(m, ctx)


def _green_by_direct_sums(p: float, npoints: int):
    """Rows 0..npoints-1 of g_1 and g_2 from 30-digit sums U(n) and V(n) of
    u_j = p^j / (1 - p^j), with the double p taken exactly.  Terms past
    j = npoints + 60/h are left out, below 1e-24 of every row."""
    with mpmath.workdps(30):
        p = mpmath.mpf(p)
        cut = npoints + math.ceil(60 / -math.log(p))
        U = V = mpmath.mpf(0)
        g1, g2 = [], []
        for j in range(cut, 0, -1):
            u = p**j / (1 - p**j)
            U += u
            V += j * u
            if j <= npoints:
                # U and V now hold U(n) and V(n) for n = j - 1
                g1.append(float(-((1 - p) ** 2) / p * U))
                g2.append(float((1 - p) ** 3 / p * (2 * V - j * U)))
    return {1: np.array(g1[::-1]), 2: np.array(g2[::-1])}


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(q=st.floats(0.05, 0.995), horizon=st.integers(0, 120))
def test_green_grid_matches_direct_sums_and_rows(q, horizon):
    ctx = QContext(q, grid_horizon=horizon)
    ref = _green_by_direct_sums(ctx.q2, ctx.npoints)
    for order in (1, 2):
        grid = g_radial_grid(order, ctx)
        assert grid.values.dtype == complex and not grid.finite_support
        assert not np.any(grid.values.imag)
        rows = np.abs(ref[order]) > 1e-290
        err = np.abs(grid.values.real - ref[order])[rows] / np.abs(ref[order])[rows]
        assert np.all(err <= 1e-14), (order, err.max())


def test_green_grid_edge_cases(ctx):
    for npoints in (0, -3):
        assert len(g_radial_grid(2, ctx, npoints).values) == 0
    for order in (0, 3):
        with pytest.raises(DomainError):
            g_radial_grid(order, ctx)


def test_spectral_image_inverts_eigenvalue(ctx):
    for rho in (0.25, 0.8, 1.9):
        for m in (1, 2):
            prod = lambda_rho(rho, ctx) ** m * gm_spectral(m, rho, ctx)
            assert abs(prod - (1 - ctx.q2)) < 1e-13


def test_spectral_image_on_arrays_matches_scalars(ctx):
    rhos = np.linspace(-0.3, 1.2, 13) * ctx.rho_period()
    for m in (1, 2):
        vec = gm_spectral(m, rhos, ctx)
        assert vec.shape == rhos.shape
        for r, v in zip(rhos, vec):
            scalar = gm_spectral(m, float(r), ctx)
            assert isinstance(scalar, complex)
            assert abs(v - scalar) <= 1e-15 * abs(scalar)


def test_kernel_terminating_expansion(ctx):
    # expansion of the l = -1 kernel: coefficient 1 on the (0,0) depth-0
    # block, -1 and -q^-2 on the two mixed-sector blocks, q^-2 on depth 1
    q = ctx.q
    K = kernel_G(-1.0, "plain", ctx, shape=(8, 8), sector_max=3)
    assert sorted(K.terms) == [(-1, 1), (0, 0), (1, -1)]
    a = np.arange(8)
    yinv = (1.0 / ctx.q2) ** a
    yg = ctx.q2**a
    leg1 = ctx.q2 * yinv * (1 - yg)
    refs = {
        (0, 0): np.outer(yinv, yinv) + q**-2 * np.outer(leg1, leg1),
        (1, -1): -(q**-2) * np.outer(yinv, yinv),
        (-1, 1): -1.0 * np.outer(yinv, yinv),
    }
    for key, ref in refs.items():
        scale = np.maximum(1.0, np.abs(ref))
        assert np.max(np.abs(K.term(*key) - ref) / scale) < 1e-13


def test_kernel_pairing_against_representation_trace(ctx):
    # independent route: pair the second leg with f through matrix traces
    # in the weighted-shift representation
    K = kernel_G(-1.0, "plain", ctx, shape=(10, 10), sector_max=2)
    f = delta_fn(1, ctx)
    direct = apply_kernel(K, f, ctx)
    dim = 10
    w = (1.0 / ctx.q2) ** np.arange(dim)
    acc = np.zeros((10,), dtype=complex)
    for (i, j), psi in K.terms.items():
        if j != 0:
            # build the second-leg element and f in the representation
            pass
    # sector-0 term only: nu(psi(.,eta) f(eta)) via the trace identity
    psi00 = K.term(0, 0)
    fmat = rep_matrix(f, dim, ctx).entries
    for arow in range(10):
        leg2 = rep_matrix(
            DiscElement({0: GridFunction(psi00[arow, :dim])}, ctx), dim, ctx
        ).entries
        acc[arow] = (1 - ctx.q2) * np.sum((leg2 @ fmat).diagonal() * w)
    assert np.max(np.abs(acc - direct.sector(0).values[:10])) / np.max(
        np.abs(acc)
    ) < 1e-12


def test_kernel_invariance_exact(ctx):
    for l0 in (1, 2, 3):
        K = kernel_G(-float(l0), "plain", ctx, shape=(10, 10), sector_max=l0 + 1)
        assert K.exact
        assert kernel_invariance_residual(K, ctx) < 1e-12


def test_kernel_derivative_matches_finite_difference(ctx):
    for N in (1, 2):
        Kd = kernel_G(float(N), "derivative", ctx, (6, 6), 2)
        errs = []
        for eps in (1e-3, 5e-4):
            Kp = kernel_G(N + eps, "plain", ctx, (6, 6), 2)
            Km = kernel_G(N - eps, "plain", ctx, (6, 6), 2)
            worst = 0.0
            for key in Kd.terms:
                fd = (Kp.term(*key) - Km.term(*key)) / (2 * eps)
                worst = max(worst, float(np.max(np.abs(fd - Kd.term(*key)))))
            errs.append(worst)
        assert errs[0] < 1e-5
        assert errs[1] / errs[0] == pytest.approx(0.25, abs=0.1)


def test_assembled_coefficients(ctx):
    assert coef_order1(1, ctx.q) == -1.0
    for qq in (0.9, 0.99, 0.999):
        for m in (2, 5, 10):
            dev_now = abs(coef_order1(m, qq) + 1.0 / m)
            assert dev_now < abs(coef_order1(m, 0.8) + 1.0 / m) or qq == 0.8
    # classical trend toward -1/m and 2/m^2
    for m in (1, 2, 7):
        assert abs(coef_order1(m, 0.999) + 1.0 / m) * m < 2e-2
        assert abs(coef_order2(m, 0.999) - 2.0 / m**2) * m * m < 4e-2


def test_kernel_centre_delta_gives_fundamental_solutions(ctx):
    for c in (ctx, QContext(0.3, grid_horizon=32), QContext(0.8, grid_horizon=32)):
        f0 = delta_fn(0, c)
        for order in (1, 2):
            K = kernel_assembled(order, c, sector_max=1)
            sol = apply_kernel(K, f0, c)
            assert sorted(sol.sectors) == [0]
            ref = g_radial_grid(order, c)
            assert np.max(np.abs(sol.sector(0).values - ref.values)) < 1e-10


def test_kernel_application_uses_orthogonality(ctx):
    # a kernel with only a nonzero-sector second leg pairs to zero against
    # a radial element
    K = kernel_G(-1.0, "plain", ctx, shape=(8, 8), sector_max=1)
    K.table.pop(0)
    with pytest.raises(CapacityError):
        apply_kernel(K, delta_fn(0, ctx), ctx)


def test_power_kernel_pairs_to_power_function(ctx):
    # the one-parameter kernel paired with the centre delta returns
    # (1 - q^2) y^l for every parameter
    for l in (-1.0, -2.0, 0.7, 1.5):
        K = kernel_G(l, "plain", ctx, shape=(10, 10), sector_max=2)
        out = apply_kernel(K, delta_fn(0, ctx), ctx)
        a = np.arange(10)
        expected = (1 - ctx.q2) * np.exp(2 * a * l * math.log(ctx.q))
        assert np.max(
            np.abs(out.sector(0).values[:10] - expected) / np.maximum(1.0, np.abs(expected))
        ) < 1e-13


def test_main_inversion_identity(ctx):
    K1 = kernel_assembled(1, ctx, sector_max=3)
    K2 = kernel_assembled(2, ctx, sector_max=3)
    rng = np.random.default_rng(9)
    for m in range(-3, 4):
        v = np.zeros(ctx.npoints, dtype=complex)
        v[:8] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        f = DiscElement({m: GridFunction(v)}, ctx)
        back1 = laplacian_apply(apply_kernel(K1, f, ctx), ctx) - f
        r1 = max(np.max(np.abs(g.values[:-1])) for g in back1.sectors.values())
        assert r1 < 1e-8
        back2 = (
            laplacian_apply(laplacian_apply(apply_kernel(K2, f, ctx), ctx), ctx) - f
        )
        r2 = max(np.max(np.abs(g.values[:-2])) for g in back2.sectors.values())
        assert r2 < 1e-7


def test_assembled_invariance_below_tail(ctx):
    for c in (ctx, QContext(0.3, grid_horizon=32), QContext(0.8, grid_horizon=32)):
        for order in (1, 2):
            K = kernel_assembled(order, c, sector_max=2)
            assert kernel_invariance_residual(K, c) <= max(K.tail_bound, 1e-12)


def test_green_solve_preserves_sectors(ctx, rng):
    f = random_element(ctx, rng, sectors=2, support=5)
    sol = green_solve(f, 1, ctx)
    assert set(sol.sectors) <= set(f.sectors)


def test_green_solve_past_the_weight_range():
    # q^(-2n) overflows past row 118 at q = 0.05; the kernel pairing weighs
    # only f's support, and a weight on the support raises
    ctx = QContext(0.05, grid_horizon=160)
    for order in (1, 2):
        sol = green_solve(delta_fn(0, ctx), order, ctx).sector(0).values
        ref = g_radial_grid(order, ctx).values
        assert np.max(np.abs(sol - ref)) < 1e-12
    with pytest.raises(CapacityError, match="integral weight"):
        green_solve(delta_fn(125, ctx), 1, ctx)


def test_green_solve_requires_finite(ctx):
    with pytest.raises(DomainError):
        green_solve(DiscElement.one(ctx), 1, ctx)


def test_matrix_solve_oracle(ctx):
    rng = np.random.default_rng(77)
    dim = 200
    for sector in (-1, 0, 2):
        v = np.zeros(ctx.npoints, dtype=complex)
        v[:6] = rng.standard_normal(6)
        f = DiscElement({sector: GridFunction(v)}, ctx)
        sol = green_solve(f, 1, ctx)
        rhs = np.zeros(dim, dtype=complex)
        rhs[: ctx.npoints] = v
        x = _stencil_solve(*stencil_coefficients(ctx, dim, sector), rhs)
        assert np.max(np.abs(x[: ctx.npoints] - sol.sector(sector).values)) < 1e-6


def test_uniqueness_transfer(ctx):
    # two intertwining inverse routes that agree on the centre delta agree
    # on the whole spanning set
    dim = 160
    K1 = kernel_assembled(1, ctx, sector_max=2)
    stencils = {s: stencil_coefficients(ctx, dim, s) for s in (-2, -1, 0, 1, 2)}
    f0 = delta_fn(0, ctx)
    route_a = apply_kernel(K1, f0, ctx).sector(0).values
    rhs = np.zeros(dim, dtype=complex)
    rhs[0] = 1.0
    route_b = _stencil_solve(*stencils[0], rhs)
    assert np.max(np.abs(route_a - route_b[: ctx.npoints])) < 1e-6
    for s in (-2, -1, 1, 2):
        for n in (0, 3, 7):
            f = DiscElement({s: GridFunction.delta(n, ctx.npoints)}, ctx)
            a = apply_kernel(K1, f, ctx).sector(s).values
            rhs = np.zeros(dim, dtype=complex)
            rhs[n] = 1.0
            b = _stencil_solve(*stencils[s], rhs)
            assert np.max(np.abs(a - b[: ctx.npoints])) < 1e-6


def test_route_consistency(ctx):
    rng = np.random.default_rng(5)
    v = np.zeros(ctx.npoints, dtype=complex)
    v[:5] = rng.standard_normal(5)
    f = DiscElement({-1: GridFunction(v)}, ctx)
    once = green_solve(f, 1, ctx)
    once_f = DiscElement(
        {m: GridFunction(g.values.copy(), True) for m, g in once.sectors.items()}, ctx
    )
    twice = green_solve(once_f, 1, ctx)
    direct = green_solve(f, 2, ctx)
    assert twice.max_abs_diff(direct) < 1e-6


def test_default_context_certifies_near_q_one():
    # the a-priori term count has no cap: near q = 1 both orders certify
    # on the default context, and the kernels still invert
    for q in (0.95, 0.995):
        ctx = QContext(q)
        for order in (1, 2):
            K = kernel_assembled(order, ctx, sector_max=3)
            assert K.tail_bound < ctx.series_tol
            sol = apply_kernel(K, delta_fn(0, ctx), ctx)
            ref = g_radial_grid(order, ctx)
            assert np.max(np.abs(sol.sector(0).values - ref.values)) < 1e-10, (q, order)


def test_kernel_G_raises_capacity_when_terms_overflow():
    # the leg factors q^(2l(a-s)) and their products pass the double range
    # for small q or large -l on deep grids; such terms must not be returned
    for l, ctx in ((-3.0, QContext(0.05, grid_horizon=32)), (-5.0, QContext(0.5))):
        for mode in ("plain", "derivative"):
            with np.errstate(all="ignore"), pytest.raises(CapacityError):
                kernel_G(l, mode, ctx)
    # nearby cases stay finite: the same l on shallower grids, and the
    # registry's exact kernels down to q = 0.05
    for l, ctx, shape in (
        (-3.0, QContext(0.05, grid_horizon=18), None),
        (-5.0, QContext(0.5, grid_horizon=48), None),
        (-1.0, QContext(0.05), (10, 10)),
        (-2.0, QContext(0.05), (10, 10)),
        (-3.0, QContext(0.05), (10, 10)),
    ):
        for mode in ("plain", "derivative"):
            K = kernel_G(l, mode, ctx, shape)
            assert K.exact == (mode == "plain")
            assert all(np.isfinite(arr).all() for arr in K.terms.values())


def test_capacity_on_missing_sector(ctx):
    K = kernel_assembled(1, ctx, sector_max=1)
    f = DiscElement({2: GridFunction.delta(0, ctx.npoints)}, ctx)
    with pytest.raises(CapacityError):
        apply_kernel(K, f, ctx)


def test_classical_limit_report():
    rows = classical_limit_report([0.0, 0.25, 0.5, 0.75], [0.9, 0.99, 0.999])
    by_qt = {(r.q, r.t): r for r in rows}
    # the t = 0 rows vanish identically
    for q in (0.9, 0.99, 0.999):
        r = by_qt[(q, 0.0)]
        assert r.err_order1 == 0.0 and r.err_order2 == 0.0
    # errors decrease monotonically along the q list
    for t in (0.25, 0.5, 0.75):
        e1 = [by_qt[(q, t)].err_order1 for q in (0.9, 0.99, 0.999)]
        e2 = [by_qt[(q, t)].err_order2 for q in (0.9, 0.99, 0.999)]
        assert e1[0] > e1[1] > e1[2]
        assert e2[0] > e2[1] > e2[2]
        assert by_qt[(0.999, t)].reflection_residual < 1e-12


def _limit_sums_by_mpmath(q: float, t: float):
    """The two series of classical_limit_report, s1 = sum coef_order1(m) t^m
    and s2 = sum coef_order2(m) t^m + (1-q^2)/h ln t s1, from 30-digit
    sums with the doubles q and t taken exactly; the terms left out are
    below 1e-39 in all."""
    with mpmath.workdps(30):
        q, t = mpmath.mpf(q), mpmath.mpf(t)
        p = q * q
        s1 = direct = mpmath.mpf(0)
        for m in itertools.count(1):
            c1 = -(1 / p - 1) / (p**-m - 1)
            c2 = p ** (m - 1) * (1 + p**m) * (1 - p) ** 2 / (1 - p**m) ** 2
            s1 += c1 * t**m
            direct += c2 * t**m
            if max(-c1, c2) * t**m < 1e-40:
                return s1, direct + (1 - p) / (-2 * mpmath.log(q)) * mpmath.log(t) * s1


def test_limit_errors_match_the_mpmath_sums():
    # each row's errors are the 30-digit sums' errors against the targets:
    # within 2e-15 for the first series and 3e-12 for the second, whose log
    # term cancels about 1/h^2 of its size near q = 1
    for q in (0.9, 0.99, 0.999):
        for t in (0.25, 0.5, 0.75):
            s1, s2 = _limit_sums_by_mpmath(q, t)
            with mpmath.workdps(30):
                lt, l1t = mpmath.log(t), mpmath.log(1 - t)
                e1, e2 = abs(s1 - l1t), abs(s2 - (2 * mpmath.polylog(2, t) + lt * l1t))
            [row] = classical_limit_report([t], [q])
            assert abs(row.err_order1 - e1) <= 2e-15, (q, t)
            assert abs(row.err_order2 - e2) <= 3e-12, (q, t)


def test_limit_targets_against_dilog_reflection():
    # the second-order target rewrites to the reflected classical form
    for t in (0.25, 0.5, 0.75):
        target = 2 * dilog(t) + math.log(t) * math.log(1 - t)
        classical = (
            -math.log(1 - t) * math.log(t) - 2 * dilog(1 - t) + math.pi**2 / 3
        )
        assert abs(target - classical) < 1e-12


def test_limit_rejects_bad_arguments():
    with pytest.raises(DomainError):
        classical_limit_report([0.5], [1.5])
    with pytest.raises(DomainError):
        classical_limit_report([1.0], [0.9])
    # near q = 1 the Lambert cut ceil(41/h) passes its 2^20-term budget
    with pytest.raises(CapacityError):
        classical_limit_report([0.5], [0.99999])


def test_assembled_kernel_terms_are_read_only(ctx):
    K = kernel_assembled(1, ctx, sector_max=1)
    legs = _contraction_table(ctx.q2, ctx.npoints, ctx.npoints)
    for arr in [*K.table.values(), *K.terms.values(), legs]:
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.995])
def test_kernel_legs_and_product_polynomials_are_one_table(q):
    # the kernels read their legs P_s(q^(2a)) from the table behind
    # _poch_down and _poch_up, and those read its rows bit for bit,
    # past the grid (d >= npoints) too
    assert green._contraction_table is discalg._contraction_table
    ctx = QContext(q)
    for npoints in (1, 5, 66):
        legs = _contraction_table(ctx.q2, npoints + 3, npoints)
        for d in range(npoints + 3):
            down = _poch_down(d, ctx, npoints)
            assert down.tobytes() == legs[d].tobytes()
            wide = _contraction_table(ctx.q2, npoints + 3, npoints + d)
            assert _poch_up(d, ctx, npoints).tobytes() == wide[d, d:].tobytes()
            # a row does not depend on the size of the table it is read from
            assert wide[d, :npoints].tobytes() == down.tobytes()
        # the kernels read the real part, so the table must carry nothing else
        assert not legs[npoints:].any() and not legs.imag.any()


@pytest.fixture
def row_builds(monkeypatch):
    """The sector lists of every row build, from emptied kernel covers."""
    monkeypatch.setattr(green, "_KERNELS", green._Covers(green._KERNELS.limit))
    builds = []
    build = green._assembled_rows

    def counted(order, ctx, shape, sectors):
        builds.append(list(sectors))
        return build(order, ctx, shape, sectors)

    monkeypatch.setattr(green, "_assembled_rows", counted)
    return builds


def test_green_solve_reuses_the_cached_sector_pairs(row_builds):
    # table rows are kept in one cover per (order, ctx, shape): after the
    # sector_max = 3 kernel, green_solve on sectors -2, 0, 1 and 3 builds no
    # new row
    ctx = QContext(0.45, grid_horizon=20)
    kernel_assembled(1, ctx, sector_max=3)
    built = len(row_builds)
    rng = np.random.default_rng(3)
    for m in (-2, 0, 1, 3):
        v = np.zeros(ctx.npoints, dtype=complex)
        v[:6] = rng.standard_normal(6)
        green_solve(DiscElement({m: GridFunction(v)}, ctx), 1, ctx)
    assert len(row_builds) == built
    # the dense terms a kernel_G kernel builds on request are read-only too
    for arr in kernel_G(0.7, "plain", ctx, sector_max=2).terms.values():
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0


def test_a_smaller_sector_max_builds_nothing(row_builds):
    ctx = QContext(0.6, grid_horizon=12)
    K3 = kernel_assembled(2, ctx, sector_max=3)
    assert row_builds == [list(range(-3, 4))]
    for sector_max in (0, 2, 1):
        K = kernel_assembled(2, ctx, sector_max=sector_max)
        assert sorted(K.table) == list(range(-sector_max, sector_max + 1))
        # the rows are the cover's, shared with the larger kernel
        assert all(K.table[i] is K3.table[i] for i in K.table)
    assert len(row_builds) == 1


def test_a_larger_sector_max_grows_the_cover_once(row_builds):
    ctx = QContext(0.6, grid_horizon=12)
    K1 = kernel_assembled(1, ctx, sector_max=1)
    K3 = kernel_assembled(1, ctx, sector_max=3)
    # one build of the new pairs alone; the old rows stay in the cover
    assert row_builds == [[-1, 0, 1], [-3, -2, 2, 3]]
    assert all(K3.table[i] is K1.table[i] for i in K1.table)
    # the cover holds the rows alone, and a range asked again reads them
    rows = green._KERNELS[1, ctx, (ctx.npoints, ctx.npoints)]
    assert sorted(rows) == list(range(-3, 4))
    assert all(rows[i][0] is K3.table[i] for i in rows)
    for K in (K3, K1):
        again = kernel_assembled(1, ctx, sector_max=K.sector_max)
        assert list(again.table) == list(K.table)
        assert all(again.table[i] is K.table[i] for i in K.table)
        assert again.tail_bound == K.tail_bound
    assert kernel_assembled(1, ctx, sector_max=2).tail_bound <= K3.tail_bound
    assert len(row_builds) == 2


def test_a_walk_over_many_q_keeps_at_most_the_bound(row_builds):
    limit = green._KERNELS.limit
    qs = np.linspace(0.1, 0.9, limit + 5)
    for q in qs:
        kernel_assembled(1, QContext(float(q), grid_horizon=6), sector_max=1)
        assert len(green._KERNELS) <= limit
    assert len(green._KERNELS) == limit
    # the most recent covers are kept, and their rows are read-only
    kept = {key[1].q for key in green._KERNELS}
    assert kept == {float(q) for q in qs[-limit:]}
    for rows in green._KERNELS.values():
        for H, _, _ in rows.values():
            assert not H.flags.writeable


def _requests(order):
    """Sector ranges requested ascending, descending and mixed."""
    return {"ascending": (0, 1, 2, 3), "descending": (3, 2, 1, 0), "mixed": (1, 3, 0, 2)}[order]


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.995])
def test_assembled_rows_match_the_per_pair_formulas(q, monkeypatch):
    # every table entry, term count and tail bound of the one-pass build is
    # the per-pair formula's bit for bit, whatever order the sector ranges
    # are asked in, and every table is read-only
    for horizon in (16, 64):
        ctx = QContext(q, grid_horizon=horizon)
        n = ctx.npoints
        for shape, order in itertools.product(((n, n), (n, 9)), (1, 2)):
            ref = {i: _assembled_row(order, ctx, shape, i) for i in range(-3, 4)}
            for requests in ("ascending", "descending", "mixed"):
                monkeypatch.setattr(green, "_KERNELS", green._Covers(green._KERNELS.limit))
                for sector_max in _requests(requests):
                    K = kernel_assembled(order, ctx, shape, sector_max)
                    assert K.tail_bound == max(ref[i][2] for i in K.table)
                rows = green._KERNELS[order, ctx, shape]
                assert sorted(rows) == list(range(-3, 4))
                for i, (H, count, bound) in rows.items():
                    where = (q, horizon, shape, order, requests, i)
                    assert np.array_equal(H, ref[i][0]), where
                    assert (count, bound) == ref[i][1:], where
                    assert not H.flags.writeable


def test_depth_coefficients_match_the_padded_products():
    # the preallocated running products against np.pad's, for real, infinite
    # and complex l, at every sector range kernel_G and the tails use
    for q in (0.05, 0.5, 0.995):
        for l in (np.array([1.0, 2.5, np.inf]), np.array([-3.0]), np.array([0.7 + 0.4j]), np.array([0.0])):
            for s_cap, sectors in ((1, [0]), (4, [-2, 1]), (12, range(-3, 4))):
                got, ref = _depth_coefficients(l, q, s_cap, sectors), _depth_coefficients_ref(l, q, s_cap, sectors)
                for a, b in zip(got, ref):
                    assert a.dtype == b.dtype and np.array_equal(a, b), (q, l, s_cap)


def test_materialized_terms_match_the_offsets_gather():
    # the strided Hankel views give the offsets gather's dense terms bit for
    # bit, for assembled kernels and for plain and derivative kernel_G
    for q in (0.05, 0.5, 0.9):
        ctx = QContext(q, grid_horizon=24)
        n = ctx.npoints
        kernels = [kernel_assembled(order, ctx, shape, 3) for order in (1, 2) for shape in ((n, n), (n, 9), (9, n))]
        kernels += [
            kernel_G(l, mode, ctx, shape, 3)
            for l in (-2.0, 0.7, 1 + 0.5j)
            for mode in ("plain", "derivative")
            for shape in ((10, 10), (8, 12), (12, 8))
        ]
        for K in kernels:
            ref = _materialize_ref(K.table, ctx.q2, K.shape)
            assert sorted(K.terms) == sorted(ref)
            for key, arr in K.terms.items():
                assert arr.dtype == ref[key].dtype and np.array_equal(arr, ref[key]), (q, K.shape, key)
                assert not arr.flags.writeable


def test_invariance_residual_matches_the_per_pair_route():
    # the stacked residual is the per-pair route's bit for bit: exact and
    # truncated kernel_G, assembled kernels of every sector range
    for q in (0.05, 0.3, 0.5, 0.9, 0.995):
        ctx = QContext(q, grid_horizon=16)
        kernels = [kernel_G(-float(l), "plain", ctx, (10, 10), l + 1) for l in (1, 2, 3)]
        kernels += [kernel_G(l, mode, ctx, (8, 12), 2) for l in (0.7, 1 + 0.5j) for mode in ("plain", "derivative")]
        kernels += [kernel_assembled(order, ctx, sector_max=r) for order in (1, 2) for r in range(4)]
        kernels += [kernel_G(-1.0, "plain", ctx, (1, 5), 1), kernel_G(-2.0, "plain", ctx, (5, 1), 2)]
        for K in kernels:
            assert kernel_invariance_residual(K, ctx) == _invariance_residual_ref(K, ctx), (q, K.shape)


def test_a_nan_on_the_edge_of_the_support_reaches_the_solution():
    # the support is every nonzero entry, NaN included: a NaN past the last
    # finite row, or alone, is not dropped from the pairing
    ctx = QContext(0.5, grid_horizon=16)
    for head in (1.0, 0.0):
        v = np.zeros(ctx.npoints, dtype=complex)
        v[0], v[3] = head, math.nan
        out = green_solve(DiscElement({0: GridFunction(v)}, ctx), 1)
        assert list(out.sectors) == [0] and np.isnan(out.sector(0).values).all()


def test_invariance_residual_keeps_nan():
    # a nan entry in any term makes the residual nan, wherever it sits
    ctx = QContext(0.5, grid_horizon=16)
    for key, (a, b) in itertools.product(((0, 0), (2, -2)), ((0, 0), (3, 4), (9, 9))):
        K = kernel_G(-2.0, "plain", ctx, (10, 10), 3)
        terms = dict(K.terms)
        terms[key] = terms[key].copy()
        terms[key][a, b] = np.nan
        K.__dict__["terms"] = terms
        assert math.isnan(kernel_invariance_residual(K, ctx)), (key, a, b)


def test_assembled_kernels_fit_the_per_pair_memory():
    # both orders' sector_max = 3 kernels at q = 0.995 on the default grid,
    # from emptied caches, peak below the per-pair build's 21.73e6 bytes of
    # traced allocations (numpy reports its buffers to tracemalloc)
    import tracemalloc

    ctx = QContext(0.995)
    green._KERNELS.clear()
    _contraction_table.cache_clear()
    tracemalloc.start()
    try:
        for order in (1, 2):
            kernel_assembled(order, ctx, sector_max=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 21.73e6, peak


def _dense_apply(K, f, ctx):
    """Reference: (1 - q^2) psi_(m,-m) @ weighted per sector m of f, with the
    sum (1 - q^2) |psi| @ |weighted| of the absolute contributions."""
    B = K.shape[1]
    out = {}
    for m, phi in f.sectors.items():
        col = np.zeros(B, dtype=complex)
        col[: min(B, len(phi.values))] = phi.values[:B]
        j = -m
        weighted = col * _poch_up(abs(j), ctx, B) * _integral_weights(col, ctx)
        weighted = weighted * (ctx.q2**-j if j > 0 else 1.0)
        psi = K.terms[(m, j)]
        out[m] = (1 - ctx.q2) * (psi @ weighted), (1 - ctx.q2) * (np.abs(psi) @ np.abs(weighted))
    return out


def test_apply_kernel_matches_the_dense_route():
    # the table contraction against the materialized terms times the weighted
    # values, on the spanning set (rows 0..8) and a random element of each sector
    rng = np.random.default_rng(13)
    for q in (0.05, 0.5, 0.9, 0.995):
        ctx = QContext(q, grid_horizon=24)
        kernels = [kernel_assembled(order, ctx, sector_max=3) for order in (1, 2)]
        kernels += [kernel_G(l, "plain", ctx, sector_max=3) for l in (-2.0, 0.7)]
        for K, m in itertools.product(kernels, range(-3, 4)):
            if abs(m) > K.sector_max:
                continue
            v = np.zeros(ctx.npoints, dtype=complex)
            v[:9] = rng.standard_normal(9) + 1j * rng.standard_normal(9)
            rows = [GridFunction.delta(n, ctx.npoints) for n in range(9)] + [GridFunction(v)]
            for g in rows:
                f = DiscElement({m: g}, ctx)
                got = apply_kernel(K, f, ctx).sector(m).values
                ref, mag = _dense_apply(K, f, ctx)[m]
                assert np.all(np.abs(got - ref) <= 1e-14 * mag), (q, m)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    data=st.data(),
    alpha=st.complex_numbers(min_magnitude=0.1, max_magnitude=10),
    beta=st.complex_numbers(min_magnitude=0.1, max_magnitude=10),
)
def test_apply_kernel_is_linear(data, alpha, beta):
    # K(alpha f + beta g) against alpha K f + beta K g, entrywise relative to
    # |alpha| |K f| + |beta| |K g|, on the exact kernels G(-l) over the
    # supported range of q and on the assembled kernels at three q
    if data.draw(st.booleans(), label="assembled"):
        ctx = QContext(data.draw(st.sampled_from((0.05, 0.5, 0.9)), label="q"), grid_horizon=16)
        K = kernel_assembled(data.draw(st.sampled_from((1, 2)), label="order"), ctx, sector_max=3)
    else:
        ctx = QContext(data.draw(st.floats(0.05, 0.995), label="q"), grid_horizon=11)
        K = kernel_G(-data.draw(st.integers(1, 3), label="l"), "plain", ctx, sector_max=3)
    sectors = st.sets(st.integers(-K.sector_max, K.sector_max), min_size=1, max_size=7)
    support = data.draw(st.integers(0, 5), label="support")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    f, g = (random_sectors(ctx, rng, data.draw(sectors, label="sectors"), support) for _ in range(2))
    Kf, Kg = apply_kernel(K, f, ctx), apply_kernel(K, g, ctx)
    both = apply_kernel(K, f.scaled(alpha) + g.scaled(beta), ctx)
    for m in set(f.sectors) | set(g.sectors):
        kf, kg = Kf.sector(m).values, Kg.sector(m).values
        gap = np.abs(both.sector(m).values - (alpha * kf + beta * kg))
        assert np.all(gap <= 1e-13 * (abs(alpha) * np.abs(kf) + abs(beta) * np.abs(kg))), m


def test_midpoint_majorant_equals_the_materialized_one():
    # the majorant read at the balanced split of each antidiagonal is the
    # maximum of the materialized tail table, bit for bit
    for q, horizon in itertools.product((0.05, 0.5, 0.9, 0.995), (16, 64)):
        ctx = QContext(q, grid_horizon=horizon)
        n = ctx.npoints
        for shape, order in itertools.product(((n, n), (n, 9)), (1, 2)):
            rows = green._assembled_rows(order, ctx, shape, range(-4, 5))
            for i in range(-4, 5):
                where = (q, horizon, shape, order, i)
                _, H = _tail_table(order, ctx, shape, i)
                ref = _materialize({i: H}, ctx.q2, shape)[(i, -i)].max()
                assert _majorants([H], ctx.q2, shape)[0] == ref, where
                # the library's count and bound are certified by that majorant
                count = _term_count(order, ctx, shape, i)[0]
                assert rows[i][1:] == (count, float(abs(coef_order1(count + 1, q)) * ref)), where
    # the tail tables peak at the corner; tables of random nonnegative entries
    # peak inside the block, where the split matters (there a near tie may
    # round either way, so they agree to rounding)
    rng = np.random.default_rng(5)
    for q, shape in itertools.product((0.05, 0.5, 0.9, 0.995), ((17, 17), (17, 9), (9, 17))):
        H = rng.random((min(shape), sum(shape) - 1))
        ref = _materialize({0: H}, q * q, shape)[(0, 0)].max()
        assert _majorants([H], q * q, shape)[0] == pytest.approx(ref, rel=1e-15, abs=0), (q, shape)
        assert _majorants([H], q * q, shape)[0] == _majorant(H, q * q, shape)
    # so the sector_max = 3 kernels on the default grid keep their term counts
    for q, counts in ((0.95, (367, 344)), (0.98, (995, 915)), (0.995, (4418, 3958))):
        ctx = QContext(q)
        shape = (ctx.npoints, ctx.npoints)
        for order, want in zip((1, 2), counts):
            rows = green._assembled_rows(order, ctx, shape, range(-3, 4))
            assert max(count for _, count, _ in rows.values()) == want


def test_assembled_cache_key_fills_in_defaults(ctx, row_builds):
    # the default shape and its spelled-out value share one cover and its
    # tables; a context with another series_tol gets its own
    K = kernel_assembled(1, ctx, sector_max=1)
    same = kernel_assembled(1, ctx, (ctx.npoints, ctx.npoints), 1)
    assert all(same.table[i] is K.table[i] for i in K.table)
    assert list(green._KERNELS) == [(1, ctx, (ctx.npoints, ctx.npoints))]
    loose = QContext(ctx.q, series_tol=1e-6)
    assert kernel_assembled(1, loose, sector_max=1).table[0] is not K.table[0]
    assert len(green._KERNELS) == 2 and len(row_builds) == 2


def test_green_solve_builds_only_its_own_pairs(row_builds):
    # near q = 1, an element on sector 3 alone builds the pair (3, -3) and no
    # other, and solves as the kernel of the whole range -3..3 does, bit for bit
    ctx = QContext(0.995)
    v = np.zeros(ctx.npoints, dtype=complex)
    v[:5] = (1.0, 0.5 - 0.25j, 0.0, -0.3 + 0.1j, 0.2)
    f = DiscElement({3: GridFunction(v)}, ctx)
    for order in (1, 2):
        sol = green_solve(f, order, ctx)
        assert row_builds[-1] == [3] and set(sol.sectors) == {3}
        ref = apply_kernel(kernel_assembled(order, ctx, sector_max=3), f, ctx)
        assert np.array_equal(sol.sector(3).values, ref.sector(3).values)
    assert row_builds == [[3], [-3, -2, -1, 0, 1, 2], [3], [-3, -2, -1, 0, 1, 2]]


def test_kernel_act_on_rank_one_terms_matches_element_action():
    # K = outer(f, g) at (i, j): E acts as E (x) 1 + K (x) E and F as
    # F (x) K^-1 + 1 (x) F, each leg by the element action of its sector
    from qdisc.discalg import _shift
    from qdisc.green import kernel_act
    from qdisc.uqsl2 import _ef_terms

    rng = np.random.default_rng(7)
    for q in (0.3, 0.5, 0.8):
        ctx = QContext(q, grid_horizon=12)
        n = ctx.npoints
        yg = ctx.ygrid()

        def leg(label, sector, v):
            el = DiscElement({sector: GridFunction(v)}, ctx)
            m2, c0, c1, s = _ef_terms(label, sector, yg, q)
            mag = np.abs(c0) * np.abs(v) + np.abs(c1) * _shift(np.abs(v), s)
            return m2, act(label, el, ctx).sector(m2).values, mag

        for i in range(-3, 4):
            for j in range(-3, 4):
                f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                terms = {(i, j): np.outer(f, g)}
                for label, kf, kg in (("E", 1.0, q ** (2 * i)), ("F", q ** (-2 * j), 1.0)):
                    i2, lf, mf = leg(label, i, f)
                    j2, lg, mg = leg(label, j, g)
                    want = {
                        (i2, j): (kf * np.outer(lf, g), kf * np.outer(mf, np.abs(g))),
                        (i, j2): (kg * np.outer(f, lg), kg * np.outer(np.abs(f), mg)),
                    }
                    got = kernel_act(label, terms, ctx)
                    assert sorted(got) == sorted(want)
                    for key, (val, mag) in want.items():
                        assert np.all(np.abs(got[key] - val) <= 1e-14 * mag), (q, i, j, label)


def test_kernel_act_k_scales_each_sector_pair(ctx):
    from qdisc.green import kernel_act

    K = kernel_G(-1.0, "plain", ctx, shape=(8, 8), sector_max=2)
    KK = kernel_act("K", K.terms, ctx)
    back = kernel_act("Kinv", KK, ctx)
    for (i, j), psi in K.terms.items():
        assert np.allclose(KK[(i, j)], ctx.q ** (2 * (i + j)) * psi, rtol=1e-14, atol=0)
        assert np.allclose(back[(i, j)], psi, rtol=1e-12, atol=0)


def l_sum(xi: complex, k: int | float, q: float, series_tol: float = 1e-14) -> complex:
    """Logarithmic-derivative sum sum_{j<k} q^(2j) / (1 - q^(2j) xi).

    k may be a nonnegative integer or math.inf; the infinite sum stops on
    a geometric tail bound.  A vanishing denominator raises PoleError.
    """
    q2 = q * q
    total = 0.0 + 0.0j
    w = 1.0 + 0.0j  # q^(2j)
    infinite = k == math.inf
    for j in range(100_000 if infinite else int(k)):
        den = 1.0 - w * xi
        if abs(den) < 1e-13 * (1.0 + abs(w * xi)):
            raise PoleError(f"l_sum denominator vanishes at j={j}")
        total += w / den
        w *= q2
        if infinite and abs(w) / (1.0 - q2) < series_tol:
            break
    return total


def test_product_log_derivative():
    # finite difference of (tau; q^2)_inf against -(tau; q^2)_inf L_inf(tau)
    q = 0.5
    q2 = q * q
    for tau in (0.3, 0.55, -0.4):
        eps = 1e-6
        fp = qpochhammer(tau + eps, q2, math.inf)
        fm = qpochhammer(tau - eps, q2, math.inf)
        fd = (fp - fm) / (2 * eps)
        exact = -qpochhammer(tau, q2, math.inf) * l_sum(tau, math.inf, q)
        assert abs(fd - exact) / abs(exact) < 1e-6


def _kernel_G_by_depth(l, mode, ctx, shape, sector_max):
    """Reference: the per-depth np.outer loop with scalar q-Pochhammer
    coefficients and l_sum, skipping depths with a zero coefficient."""
    l = complex(l)
    lnq = math.log(ctx.q)
    q2 = ctx.q2
    A, B = shape
    neg_int = l.imag == 0.0 and l.real < 0 and float(l.real).is_integer()
    s_cap, i_cap = min(A, B), sector_max
    if neg_int:
        s_cap, i_cap = min(s_cap, int(-l.real) + 1), min(i_cap, int(-l.real))

    def qpoch_l(k):
        return math.prod(1.0 - np.exp((2.0 * l + 2 * j) * lnq) for j in range(k))

    def qpoch_q(k):
        return math.prod(1.0 - q2**j for j in range(1, k + 1))

    def leg(s, npoints):
        out = np.zeros(npoints, dtype=complex)
        a = np.arange(s, npoints, dtype=float)
        out[s:] = np.exp(2.0 * (a - s) * l * lnq) * _poch_down(s, ctx, npoints)[s:]
        return out

    q2l = np.exp(2.0 * l * lnq)
    offsets = np.arange(A)[:, None] + np.arange(B)[None, :]
    terms = {}
    for i in range(-i_cap, i_cap + 1):
        acc = np.zeros((A, B), dtype=complex)
        for s in range(s_cap):
            k, n = (s, s + i) if i >= 0 else (s - i, s)
            c = q2**k * qpoch_l(k) * qpoch_l(n) / (qpoch_q(k) * qpoch_q(n))
            if c == 0:
                continue
            block = c * np.outer(leg(s, A), leg(s, B))
            if mode == "derivative":
                lsum = l_sum(q2l, k, ctx.q) + l_sum(q2l, n, ctx.q)
                block = block * (ctx.h * (q2l * lsum + 2.0 * s - offsets))
            acc += block
        if np.any(acc):
            terms[(i, -i)] = acc
    return terms, neg_int and mode == "plain"


def test_kernel_G_matches_depth_loop(ctx):
    # the materialized depth tables against the per-depth outer-product sums;
    # the derivative at l = 0, -1, -2, -3 sits on poles of L_k, where it
    # must stay free of warnings and NaN and keep the loop's sector pairs
    for l in (-3.0, -2.0, -1.0, 0.0, 0.7, 1.0, 2.3, 1 + 0.5j):
        for mode in ("plain", "derivative"):
            for shape in ((10, 10), (8, 12), (12, 8)):
                for sector_max in range(4):
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        K = kernel_G(l, mode, ctx, shape, sector_max)
                    ref, exact = _kernel_G_by_depth(l, mode, ctx, shape, sector_max)
                    assert sorted(K.terms) == sorted(ref)
                    assert K.exact == exact
                    for key, arr in ref.items():
                        err = np.max(np.abs(K.terms[key] - arr)) / np.max(np.abs(arr))
                        assert err <= 1e-13, (l, mode, shape, sector_max, key)


def test_assembled_kernel_matches_summed_depth_loop():
    # the closed-form assembly against the per-depth loop summed term by
    # term far past convergence; the gap must stay inside the stored tail
    # bound, which at series_tol = 1e-6 is far above rounding.  Terms do not
    # depend on the block shape or sector_max, so one 10 x 12 reference
    # serves all.
    for q in (0.3, 0.5, 0.8):
        ctx = QContext(q, grid_horizon=12)
        ref = {1: {}, 2: {}}
        m = 1
        while abs(coef_order1(m, q)) >= 1e-18:
            plain, _ = _kernel_G_by_depth(float(m), "plain", ctx, (10, 12), 3)
            deriv, _ = _kernel_G_by_depth(float(m), "derivative", ctx, (10, 12), 3)
            c1, c2 = coef_order1(m, q), coef_order2(m, q)
            for key in plain:
                blocks = {
                    1: c1 * plain[key],
                    2: c2 * plain[key] + (1 - ctx.q2) / ctx.h * c1 * deriv[key],
                }
                for order, block in blocks.items():
                    ref[order][key] = ref[order].get(key, 0.0) + block
            m += 1
        loose = QContext(q, series_tol=1e-6, grid_horizon=12)
        for order, shape, sector_max, kctx in itertools.product(
            (1, 2), ((10, 10), (8, 12)), (0, 3), (ctx, loose)
        ):
            K = kernel_assembled(order, kctx, shape, sector_max)
            want = {
                key: arr[: shape[0], : shape[1]]
                for key, arr in ref[order].items()
                if abs(key[0]) <= sector_max
            }
            assert sorted(K.terms) == sorted(want)
            for key, arr in want.items():
                gap = np.abs(K.terms[key] - arr)
                bound = K.tail_bound + 1e-13 * np.max(np.abs(arr))
                assert np.all(gap <= bound), (q, order, shape, sector_max, kctx.series_tol, key)
