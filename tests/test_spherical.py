"""Spectral theory: eigenfunctions, density, transform pair, spectrum."""

import functools
import math

import numpy as np
import pytest

from qdisc import (
    CapacityError,
    DomainError,
    GridFunction,
    PoleError,
    QContext,
    QuadratureError,
    c_coefficient,
    delta_fn,
    inner,
    lambda_rho,
    phi_column,
    phi_rho,
    psi_rho,
    qgamma,
    radial_laplacian,
    sigma_density,
    spectrum_probe,
    transform_forward,
    transform_inverse,
)
from qdisc import verify
from qdisc.discalg import DiscElement
from qdisc.spherical import (
    _PHI_CERT_TOL,
    _density_vector,
    _inverse_on_nodes,
    _phi_ascending,
    _phi_series,
    _start_nodes,
)


def test_lambda_endpoints(ctx):
    q = ctx.q
    assert abs(lambda_rho(0.0, ctx) + 1.0 / (1 + q) ** 2) < 1e-15
    assert abs(lambda_rho(math.pi / ctx.h, ctx) + 1.0 / (1 - q) ** 2) < 1e-12
    for rho in (0.3, 1.4):
        assert abs(lambda_rho(rho, ctx) - lambda_rho(-rho, ctx)) < 1e-15


def test_lambda_on_arrays(ctx):
    rhos = np.linspace(-0.4, 1.3, 11) * ctx.rho_period()
    lams = lambda_rho(rhos, ctx)
    scalars = np.array([lambda_rho(float(r), ctx) for r in rhos])
    assert lams.shape == rhos.shape
    assert np.max(np.abs(lams - scalars) / np.abs(scalars)) <= 1e-15
    assert np.all(lams.imag == 0.0)
    assert type(lambda_rho(0.7, ctx)) is complex
    assert lambda_rho(0.7, ctx).imag == 0.0
    # off the real axis the eigenvalue is genuinely complex
    rho = 0.3 + 0.2j
    a, b = ctx.q ** (1 + 2j * rho), ctx.q ** (1 - 2j * rho)
    expected = -(1 - a) * (1 - b) / (1 - ctx.q2) ** 2
    for lam in (lambda_rho(rho, ctx), lambda_rho(np.array([rho, 0.5]), ctx)[0]):
        assert lam.imag != 0.0
        assert abs(lam - expected) < 1e-14 * abs(expected)


def test_phi_normalization(ctx):
    for rho in (0.0, 0.7, 1.9, 2.5):
        assert phi_rho(rho, 0, ctx) == 1.0


def test_phi_symmetry_in_rho(ctx):
    for n in (1, 4, 9):
        assert abs(phi_rho(0.8, n, ctx) - phi_rho(-0.8, n, ctx)) < 1e-13


def test_phi_eigen_equation(ctx):
    # reference terminating-series evaluation against the stencil
    for rho in (0.35, 1.2, 2.0):
        vals = phi_rho(rho, range(14), ctx)
        lam = lambda_rho(rho, ctx)
        res = radial_laplacian(GridFunction(vals, False), ctx).values[:13] - lam * vals[:13]
        assert np.max(np.abs(res)) < 1e-9


def test_phi_first_rows_solve_the_stencil():
    # the multiprecision series on the rows next to the disc centre
    for q in (0.1, 0.3, 0.5, 0.8):
        c = QContext(q, grid_horizon=32)
        for f in (0.1, 0.37, 0.8):
            rho = f * c.rho_period() / 2
            vals = phi_rho(rho, range(7), c)
            lap = radial_laplacian(GridFunction(vals, False), c).values
            res = lap[:6] - lambda_rho(rho, c) * vals[:6]
            assert np.max(np.abs(res)) / max(1.0, np.max(np.abs(vals))) <= 1e-13


def test_phi_column_matches_reference():
    for q in (0.1, 0.3, 0.5, 0.8):
        c = QContext(q, grid_horizon=32)
        for rho in (0.4, 1.5):
            rows = [0, 1, 5, 11, 18, 25]
            col = phi_column(rho, 26, c)
            assert np.max(np.abs(col[rows] - phi_rho(rho, rows, c))) < 1e-9


def test_phi_rows_equal_single_rows():
    # the row form shares its tables across rows, at the precision of the
    # largest one; each value must still be the one-row value exactly
    for q in (0.1, 0.3, 0.5, 0.8, 0.95):
        c = QContext(q, grid_horizon=32)
        for f in (0.1, 0.37, 0.8):
            rho = f * c.rho_period() / 2
            rows = phi_rho(rho, range(32), c)
            assert np.all(rows == np.array([phi_rho(rho, n, c) for n in range(32)]))
            picked = phi_rho(rho, [5, 0, 5, 2], c)
            assert np.all(picked == rows[[5, 0, 5, 2]])


def test_phi_row_form_types_and_domain(ctx):
    assert type(phi_rho(0.7, 3, ctx)) is complex
    rows = phi_rho(0.7, range(4), ctx)
    assert isinstance(rows, np.ndarray) and rows.shape == (4,) and rows.dtype == complex
    for n in (-1, [3, -2, 0], range(-1, 3)):
        with pytest.raises(DomainError):
            phi_rho(0.7, n, ctx)


def test_eigenfunction_checks_sum_phi_once_per_rho(monkeypatch):
    # check_eigenfunctions takes every phi row it needs, the connection
    # formula's included, from one row-form call per rho sample
    from qdisc import spherical, verify

    calls = []
    real = spherical.phi_rho

    def counted(rho, n, ctx):
        calls.append(rho)
        return real(rho, n, ctx)

    monkeypatch.setattr(spherical, "phi_rho", counted)
    ctx = QContext(0.5)
    results = verify.check_eigenfunctions(ctx)
    assert all(r.passed for r in results)
    assert len(calls) == len(verify._rho_samples(ctx)) == 16


# q over the supported range, for real rho across the half period and one
# complex rho; the multiprecision series is the reference
_CLOSED_FORM_QS = (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.995)


def _closed_form_cases(q):
    ctx = QContext(q, grid_horizon=32)
    half = ctx.rho_period() / 2
    return ctx, (0.06 * half, 0.41 * half, 0.83 * half, 0.3 + 0.2j)


@functools.cache
def _series_rows(q, rho):
    ctx = QContext(q, grid_horizon=32)
    return _phi_series(rho, range(32), ctx)


@pytest.mark.parametrize("q", _CLOSED_FORM_QS)
def test_phi_rho_matches_the_series(q):
    ctx, rhos = _closed_form_cases(q)
    for rho in rhos:
        ref = _series_rows(q, rho)
        vals = phi_rho(rho, range(32), ctx)
        assert np.all(np.abs(vals - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("q", _CLOSED_FORM_QS)
def test_ascending_sum_within_its_certificate(q):
    ctx, rhos = _closed_form_cases(q)
    for rho in rhos:
        vals, bound = _phi_ascending(rho, 31, ctx)
        ok = bound <= _PHI_CERT_TOL
        assert ok[0]
        assert np.all(np.abs(vals - _series_rows(q, rho))[ok] <= bound[ok])


def test_phi_far_off_the_real_axis_takes_the_series():
    # e^(i m theta) overflows in the ascending tables from about row 13 at
    # Im rho = 40; phi_rho then sums every row in multiprecision
    ctx = QContext(0.5)
    rho = 0.3 + 40j
    assert np.all(_phi_ascending(rho, 31, ctx)[1] == np.inf)
    picked = [3, 31]
    vals = phi_rho(rho, picked, ctx)
    assert np.array_equal(vals, _phi_series(rho, picked, ctx))
    assert np.isfinite(vals[0])


def test_ascending_sum_certifies_every_row_at_small_q():
    # the fallback is for q near 1: below q = 1/2 no verify row needs it
    for q in (0.05, 0.1, 0.3, 0.5):
        ctx = QContext(q)
        for rho in verify._rho_samples(ctx):
            assert np.all(_phi_ascending(rho, 31, ctx)[1] <= _PHI_CERT_TOL)


def test_psi_eigen_equation_interior(ctx):
    for rho in (0.5, 1.1):
        vals = np.array([psi_rho(rho, n, ctx) for n in range(14)])
        lam = lambda_rho(rho, ctx)
        res = radial_laplacian(GridFunction(vals, False), ctx).values[1:13] - lam * vals[1:13]
        assert np.max(np.abs(res)) < 1e-9


def test_psi_series_term_form(ctx):
    # independent accumulation of the stated series coefficients
    rho, n = 0.8, 3
    q, q2 = ctx.q, ctx.q2
    lnq = math.log(q)
    b = np.exp((1 - 2j * rho) * lnq)
    c = np.exp((2 - 4j * rho) * lnq)
    y = q2**n
    total = 0.0j
    for k in range(200):
        num = 1.0 + 0.0j
        den = 1.0 + 0.0j
        for j in range(k):
            num *= (1 - b * q2**j) ** 2
            den *= (1 - c * q2**j) * (1 - q2 ** (j + 1))
        total += num / den * q2**k * y**k
    expected = np.exp((0.5 - 1j * rho) * 2 * n * lnq) * total
    assert abs(psi_rho(rho, n, ctx) - expected) < 1e-13


def test_psi_rejects_non_finite_rho(ctx):
    # every stopping test is false on NaN, so only an up-front check ends it at once
    with pytest.raises(DomainError, match="rho \\(nan\\+0j\\) is not finite"):
        psi_rho(math.nan, 3, ctx)


def test_psi_pole_detection(ctx):
    with pytest.raises(PoleError):
        psi_rho(-0.5j, 2, ctx)  # rho in the excluded half-integer imaginary set


def test_connection_formula(ctx):
    period = ctx.rho_period()
    for frac in (0.11, 0.23, 0.37, 0.44):
        rho = frac * period / 2
        cp, cm = c_coefficient(rho, ctx), c_coefficient(-rho, ctx)
        for n in (0, 3, 8, 15):
            lhs = phi_rho(rho, n, ctx)
            rhs = cp * psi_rho(rho, n, ctx) + cm * psi_rho(-rho, n, ctx)
            assert abs(lhs - rhs) < 1e-9


def test_density_endpoints_and_symmetry(ctx):
    period = ctx.rho_period()
    assert sigma_density(0.0, ctx) == 0.0
    assert sigma_density(period, ctx) == 0.0
    for frac in (0.2, 0.35):
        a = sigma_density(frac * period, ctx)
        b = sigma_density((1 - frac) * period, ctx)
        assert a > 0
        assert abs(a - b) / a < 1e-12


def test_density_matches_gamma_quotient(ctx):
    # direct Gamma-function route away from the endpoint poles
    period = ctx.rho_period()
    for frac in (0.12, 0.31):
        rho = frac * period
        direct = (
            abs(qgamma(0.5 - 1j * rho, ctx.q2) ** 2 / qgamma(-2j * rho, ctx.q2)) ** 2
            * ctx.h
            / (4 * math.pi * (1 - ctx.q2))
        )
        assert abs(direct - sigma_density(rho, ctx)) / direct < 1e-12


def test_density_vector_matches_scalar(ctx):
    period = ctx.rho_period()
    rhos = np.linspace(0.05, 0.95, 9) * period
    vec = _density_vector(rhos, ctx)
    for r, v in zip(rhos, vec):
        assert abs(v - sigma_density(float(r), ctx)) < 1e-14


def test_total_mass(ctx):
    # inverting the constant transform of the centre delta at the centre
    # forces total measure 1/(1-q^2)
    period = ctx.rho_period()
    rhos = period * np.arange(4096) / 4096
    mass = period / 4096 * np.sum(_density_vector(rhos, ctx))
    assert abs(mass - 1.0 / (1 - ctx.q2)) < 1e-12


def test_forward_of_centre_delta(ctx):
    F = transform_forward(delta_fn(0, ctx).sector(0), ctx, 128)
    assert np.max(np.abs(F.values - (1 - ctx.q2))) == 0.0


def test_forward_linearity(ctx, rng):
    a = np.zeros(ctx.npoints, dtype=complex)
    b = np.zeros(ctx.npoints, dtype=complex)
    a[:8] = rng.standard_normal(8)
    b[:8] = rng.standard_normal(8)
    Fa = transform_forward(GridFunction(a), ctx, 64).values
    Fb = transform_forward(GridFunction(b), ctx, 64).values
    Fab = transform_forward(GridFunction(2 * a - 3j * b), ctx, 64).values
    assert np.max(np.abs(Fab - (2 * Fa - 3j * Fb))) < 1e-10


def test_forward_requires_finite_support(ctx):
    with pytest.raises(DomainError):
        transform_forward(GridFunction(np.ones(ctx.npoints), False), ctx)


def test_conjugate_symmetry_for_real_functions(ctx, rng):
    v = np.zeros(ctx.npoints, dtype=complex)
    v[:6] = rng.standard_normal(6)
    F = transform_forward(GridFunction(v), ctx, 64)
    n = len(F.nodes)
    scale = np.max(np.abs(F.values))
    for j in range(1, n // 2):
        assert abs(np.conj(F.values[j]) - F.values[n - j]) < 1e-13 * scale


def test_round_trip_on_deltas(ctx):
    for n in (0, 2, 5, 9):
        d = delta_fn(n, ctx).sector(0)
        back = transform_inverse(transform_forward(d, ctx, 256), ctx)
        assert np.max(np.abs(back.values - d.values)) < 1e-9


def test_inverse_of_constant(ctx):
    back = transform_inverse(lambda rho: 1.0 - ctx.q2, ctx)
    f0 = delta_fn(0, ctx).sector(0)
    assert np.max(np.abs(back.values - f0.values)) < 1e-10


def test_multiplication_law(ctx, rng):
    v = np.zeros(ctx.npoints, dtype=complex)
    v[:9] = rng.standard_normal(9)
    g = GridFunction(v)
    lap = radial_laplacian(g, ctx)
    lhs = transform_forward(lap, ctx, 64)
    rhs = lambda_rho(lhs.nodes, ctx) * transform_forward(g, ctx, 64).values
    assert np.max(np.abs(lhs.values - rhs)) / max(1.0, np.max(np.abs(rhs))) < 1e-12


def test_plancherel_pairing(ctx, rng):
    fv = np.zeros(ctx.npoints, dtype=complex)
    gv = np.zeros(ctx.npoints, dtype=complex)
    fv[:10] = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    gv[:10] = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    f = DiscElement({0: GridFunction(fv)}, ctx)
    g = DiscElement({0: GridFunction(gv)}, ctx)
    lhs = inner(f, g)
    count = 512
    Ff = transform_forward(f.sector(0), ctx, count)
    Fg = transform_forward(g.sector(0), ctx, count)
    dens = _density_vector(Ff.nodes, ctx)
    rhs = ctx.rho_period() / count * np.sum(Ff.values * np.conj(Fg.values) * dens)
    assert abs(lhs - rhs) / abs(lhs) < 1e-10


def test_quadrature_doubling_stability(ctx):
    d = delta_fn(1, ctx).sector(0)
    F = transform_forward(d, ctx, 64)
    a, _ = _inverse_on_nodes(F, ctx, 128, ctx.npoints)
    b, _ = _inverse_on_nodes(F, ctx, 256, ctx.npoints)
    assert np.max(np.abs(a - b)) < 1e-10


def test_spectrum_probe_inside_segment(ctx):
    q = ctx.q
    left, right = -1.0 / (1 - q) ** 2, -1.0 / (1 + q) ** 2
    lo, hi = spectrum_probe(60, ctx)
    assert left - 1e-8 <= lo <= hi <= right + 1e-8
    lo2, hi2 = spectrum_probe(2, ctx)
    assert left <= lo2 <= hi2 <= right
    # dim-2 closed form from the first two stencil rows
    from qdisc.uqsl2 import stencil_coefficients

    up, diag, down = stencil_coefficients(ctx, 2)
    e = ctx.q * down.real[0]
    tr = diag.real[0] + diag.real[1]
    det = diag.real[0] * diag.real[1] - e * e
    disc = math.sqrt(tr * tr / 4 - det)
    assert abs(lo2 - (tr / 2 - disc)) < 1e-12
    assert abs(hi2 - (tr / 2 + disc)) < 1e-12


def test_spectrum_probe_convergence(ctx):
    q = ctx.q
    lo, hi = spectrum_probe(200, ctx)
    assert abs(hi + 1.0 / (1 + q) ** 2) < 1e-2
    assert abs(lo + 1.0 / (1 - q) ** 2) < 1e-2


def test_phi_matrix_shape_follows_nodes(ctx):
    # node sets of different sizes never share a cached matrix
    from qdisc.spherical import _nodes, phi_matrix

    assert phi_matrix(np.array([0.3]), 5, ctx).shape == (1, 5)
    assert phi_matrix(_nodes(7, ctx), 5, ctx).shape == (7, 5)


def test_cached_quadrature_arrays_are_read_only(ctx):
    from qdisc.spherical import _density_on_nodes, _phi_on_nodes

    transform_inverse(transform_forward(delta_fn(1, ctx).sector(0), ctx, 64), ctx)
    for arr in (_phi_on_nodes(ctx.q, 64, ctx.npoints), _density_on_nodes(ctx.q, 64)):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_inverse_ignores_the_forward_node_count():
    # the inverse re-evaluates F from its source, so the node count F was
    # built at plays no part
    ctx = QContext(0.5, grid_horizon=16)
    d = GridFunction.delta(1, 17)
    coarse = transform_inverse(transform_forward(d, ctx, 64), ctx)
    fine = transform_inverse(transform_forward(d, ctx, 8192), ctx)
    assert np.array_equal(coarse.values, fine.values)


def test_unsettled_callable_raises_by_four_start_counts(ctx):
    # seeded random values never settle; the sums stop at 4 N0 nodes
    rng = np.random.default_rng(5)
    counts = []

    def noise(rhos):
        counts.append(len(rhos))
        return rng.standard_normal(len(rhos))

    start = _start_nodes(ctx)
    with pytest.raises(QuadratureError, match=f"by {4 * start} nodes"):
        transform_inverse(noise, ctx)
    assert counts == [start, 2 * start, 4 * start]


def test_start_count_is_a_power_of_two_from_the_strip():
    for q in (0.05, 0.5, 0.9, 0.995):
        ctx = QContext(q)
        for depth in (0, 1, 20):
            start = _start_nodes(ctx, depth)
            need = math.log(1e14) / math.log(1.0 / q) + 2 * depth
            assert start & (start - 1) == 0
            assert need <= start < 2 * need


def test_forward_of_centre_delta_past_the_weight_range():
    # q^(-2n) overflows past row 118 at q = 0.05; rows off the support
    # take no weight, and a weight on the support raises
    ctx = QContext(0.05, grid_horizon=160)
    F = transform_forward(delta_fn(0, ctx).sector(0), ctx, 64)
    assert np.all(F.values == 1 - ctx.q2)
    with pytest.raises(CapacityError, match="integral weight"):
        transform_forward(delta_fn(125, ctx).sector(0), ctx, 64)


def test_round_trips_at_the_top_of_the_range():
    # the strip narrows to ln(1/q) = 0.005; the start count follows it
    ctx = QContext(0.995, grid_horizon=24)
    for n in (0, 1, 20):
        d = GridFunction.delta(n, ctx.npoints)
        back = transform_inverse(transform_forward(d, ctx, 64), ctx)
        assert np.max(np.abs(back.values - d.values)) < 1e-8
