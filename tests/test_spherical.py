"""Spectral theory: eigenfunctions, density, transform pair, spectrum."""

import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from qdisc import spherical as S
from qdisc import verify
from qdisc.discalg import DiscElement, _row_weights
from qdisc.spherical import (
    _PHI_CERT_TOL,
    SpectralFunction,
    _columns,
    _density_table,
    _density_vector,
    _forward,
    _inverse_on_nodes,
    _nodes,
    _phi_ascending,
    _phi_digits,
    _phi_series,
    _phi_table,
    _start_nodes,
    _table_nodes,
    phi_matrix,
)
from qdisc.uqsl2 import stencil_coefficients


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
    # the eigenfunction checks take every phi row they need, the connection
    # formula's included, from one shared row-form call per rho sample
    from qdisc import spherical, verify

    calls = []
    real = spherical.phi_rho

    def counted(rho, n, ctx):
        calls.append(rho)
        return real(rho, n, ctx)

    monkeypatch.setattr(spherical, "phi_rho", counted)
    ctx = QContext(0.5)
    results = verify.run_registry(
        ctx, ["eigen_equation_phi", "phi_recurrence_agreement", "connection_formula", "phi_closed"]
    )
    assert len(results) == 4
    assert all(r.passed for r in results)
    assert len(calls) == len(verify._rho_samples(ctx)) == 16


def _mp_phi_series(rho, rows, ctx):
    """Reference: phi_rho's terminating 3phi2 series summed in mpmath at
    _phi_digits of the largest row, all rows from shared tables of q^(2j),
    1 - q^(-2j) and the n-free term ratio (1 - s x + q^2 x^2) q^2 /
    (1 - q^2 x)^2 at x = q^(2k), s = 2q cos(2 rho ln q)."""
    top = max(rows)
    with mpmath.workdps(_phi_digits(top, ctx.q)):
        qm = mpmath.mpf(ctx.q)
        q2 = qm * qm
        s = 2 * qm * mpmath.cos(2 * mpmath.mpmathify(rho) * mpmath.log(qm))
        q2j = [mpmath.mpf(1)]
        for _ in range(top):
            q2j.append(q2j[-1] * q2)
        drop = [1 - 1 / p for p in q2j]
        ratio = [(1 - (s - q2 * x) * x) * q2 / (1 - x * q2) ** 2 for x in q2j[:top]]
        vals = []
        for m in rows:
            total = mpmath.mpf(1)
            term = mpmath.mpf(1)
            for k in range(m):
                term *= drop[m - k] * ratio[k]
                total += term
            vals.append(complex(total))
    return np.array(vals, dtype=complex)


# q over the supported range, for real rho across the half period and one
# complex rho; the mpmath series is the reference
_CLOSED_FORM_QS = (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.995)


def _closed_form_cases(q):
    ctx = QContext(q, grid_horizon=32)
    half = ctx.rho_period() / 2
    return ctx, (0.06 * half, 0.41 * half, 0.83 * half, 0.3 + 0.2j)


@functools.cache
def _series_rows(q, rho):
    ctx = QContext(q, grid_horizon=32)
    return _mp_phi_series(rho, range(32), ctx)


def _ulps_apart(a, b):
    """Largest distance between a and b in units in the last place, over
    real and imaginary parts; equal parts (equal infinities too) are 0."""
    gaps = [0.0]
    for x, y in ((a.real, b.real), (a.imag, b.imag)):
        with np.errstate(invalid="ignore"):
            gap = np.abs(x - y) / np.spacing(np.maximum(np.abs(x), np.abs(y)))
        gaps.extend(np.where(x == y, 0.0, np.where(np.isfinite(gap), gap, np.inf)))
    return max(gaps)


@pytest.mark.parametrize("q", _CLOSED_FORM_QS)
def test_integer_series_matches_the_mpmath_reference(q):
    # the fixed-point sum rounds once to double, and so does mpmath's; at
    # Im rho = 40 the rows leave the double range from row 4 at q = 0.05,
    # row 13 at q = 0.5 and row 26 at q = 0.7, in both
    ctx, rhos = _closed_form_cases(q)
    for rho in rhos:
        assert _ulps_apart(_phi_series(rho, range(32), ctx), _series_rows(q, rho)) <= 1.0
    rows = [0, 3, 4, 12, 13, 25, 26, 31]
    far = _phi_series(0.3 + 40j, rows, ctx)
    ref = _mp_phi_series(0.3 + 40j, rows, ctx)
    assert _ulps_apart(far, ref) <= 1.0
    assert np.array_equal(np.isinf(far.real), np.isinf(ref.real))
    assert np.array_equal(np.isinf(far.imag), np.isinf(ref.imag))
    assert np.isinf(far[-1]) == (q <= 0.7)


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


def test_ascending_rows_do_not_depend_on_top():
    # row j of the ascending tables reads entries 0..j alone, so a longer
    # table gives bitwise the same rows and bounds
    for q in (0.05, 0.3, 0.7, 0.9, 0.995):
        ctx = QContext(q)
        half = ctx.rho_period() / 2
        for rho in (0.0, 0.13 * half, 0.62 * half, 0.99 * half, 0.3 + 0.2j):
            vals, bound = _phi_ascending(rho, 40, ctx)
            for top in range(0, 40, 3):
                part, part_bound = _phi_ascending(rho, top, ctx)
                assert np.array_equal(part, vals[: top + 1])
                assert np.array_equal(part_bound, bound[: top + 1])
            # from an emptied cache: the large top first, so every small top
            # is cut from its cover, and the small tops first, so the cover
            # is rebuilt longer as they pass it
            for tops in ([40, *range(0, 40, 3)], [*range(0, 40, 3), 40]):
                S._COVERS.clear()
                for top in tops:
                    part, part_bound = _phi_ascending(rho, top, ctx)
                    assert np.array_equal(part, vals[: top + 1])
                    assert np.array_equal(part_bound, bound[: top + 1])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    q=st.floats(0.05, 0.995),
    frac=st.floats(0.0, 1.0),
    n=st.integers(0, 31),
)
def test_phi_rho_matches_the_mpmath_series(q, frac, n):
    ctx = QContext(q)
    rho = frac * ctx.rho_period() / 2
    ref = _mp_phi_series(rho, [n], ctx)[0]
    assert abs(phi_rho(rho, n, ctx) - ref) <= 1e-13 * max(1.0, abs(ref))


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
    a, b, _ = _inverse_on_nodes(F, ctx, 256, ctx.npoints)
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
    assert phi_matrix(np.array([0.3]), 5, ctx).shape == (1, 5)
    assert phi_matrix(_nodes(7, ctx), 5, ctx).shape == (7, 5)


def test_cached_quadrature_arrays_are_read_only(ctx):
    transform_inverse(transform_forward(delta_fn(1, ctx).sector(0), ctx, 64), ctx)
    for arr in (_phi_table(ctx.q, 64, ctx.npoints), _density_table(ctx.q, 64)):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def _assert_view_of_cover(table, kind, q, count):
    # a served table is a read-only view of its cover with one unit stride
    odd = count // (count & -count)
    assert np.shares_memory(table, S._COVERS[kind, q, odd])
    assert not table.flags.writeable and table.strides[-1] == table.itemsize


def test_node_columns_nest_coarse_to_fine():
    # each node has its own column; the first count/2 columns hold the
    # nodes of count/2, the even nodes of count, in their own order, and
    # the odd nodes follow in ascending order; the table order of the
    # nodes is a reordering of the ascending ones
    ctx = QContext(0.5)
    for odd in (1, 3, 5):
        for count in (odd << k for k in range(6)):
            cols, nodes = _columns(count), _table_nodes(count, ctx)
            assert np.array_equal(np.sort(cols), np.arange(count))
            assert np.array_equal(nodes[cols], _nodes(count, ctx))
            if count % 2 == 0:
                assert np.array_equal(cols[::2], _columns(count // 2))
                assert np.array_equal(cols[1::2], np.arange(count // 2, count))
                assert np.array_equal(nodes[: count // 2], _table_nodes(count // 2, ctx))


def test_walking_the_node_counts_keeps_one_cover_per_key():
    # each doubling grows the cover in place of the last one, and every
    # table served is a view of the cover that was current then
    S._COVERS.clear()
    q, npoints = 0.5, 33
    for count in (16 << k for k in range(11)):
        _assert_view_of_cover(_phi_table(q, count, npoints), "phi", q, count)
        _assert_view_of_cover(_density_table(q, count), "density", q, count)
    assert set(S._COVERS) == {("phi", q, 1), ("density", q, 1)}
    phi, dens = S._COVERS["phi", q, 1], S._COVERS["density", q, 1]
    assert phi.shape == (npoints, 16384) and dens.shape == (16384,)
    assert not phi.flags.writeable and not dens.flags.writeable
    S._COVERS.clear()


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.995])
def test_node_tables_equal_direct_builds_in_any_order(q):
    # every table is cut from one cover per (q, odd part of the count),
    # whatever order the requests grew it in; each must equal a direct
    # build on its nodes bit for bit, on a family that is not powers of
    # two and on the start counts of transform_inverse, whose covers are
    # left in place
    ctx = QContext(q)
    start = _start_nodes(ctx)
    for counts in ((250, 500, 1000), (start, 2 * start, 4 * start)):
        keys = [(count, horizon + 1) for count in counts for horizon in (32, 64)]
        phi_ref = {(c, n): phi_matrix(_table_nodes(c, ctx), n, ctx).T for c, n in keys}
        dens_ref = {c: _density_vector(_table_nodes(c, ctx), ctx) for c in counts}
        # mixed: the first growth skips a count (and adds rows), so it
        # appends three new nodes to each old one
        mixed = [keys[i] for i in (0, 5, 2, 3, 1, 4)]
        for order in (keys, keys[::-1], mixed):
            S._COVERS.clear()
            for count, npoints in order:
                table, dens = _phi_table(q, count, npoints), _density_table(q, count)
                assert np.array_equal(table, phi_ref[count, npoints])
                assert np.array_equal(dens, dens_ref[count])
                _assert_view_of_cover(table, "phi", q, count)
                _assert_view_of_cover(dens, "density", q, count)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    q=st.floats(0.05, 0.9),
    horizon=st.integers(8, 128),
    requests=st.lists(
        st.tuples(st.sampled_from([1, 3, 5]), st.integers(0, 8)), min_size=3, max_size=6
    ),
    random_source=st.booleans(),
    depth_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**16),
)
def test_node_tables_and_round_trips_from_emptied_covers(
    q, horizon, requests, random_source, depth_frac, seed
):
    # counts of odd parts 1, 3 and 5, asked for in any order from emptied
    # covers: each table served equals a direct build on its nodes bit for
    # bit and is a view of its cover; the forward values come back in
    # ascending node order, and the round trip meets transform_roundtrip's
    # tolerance up to its resolvable depth
    ctx = QContext(q, grid_horizon=horizon)
    resolvable = int(math.log(1e-8 / (32 * np.finfo(float).eps)) / math.log(1.0 / q))
    depth = min(int(depth_frac * (min(verify.TRANSFORM_NMAX, resolvable) + 1)), horizon)
    if random_source:
        rng = np.random.default_rng(seed)
        v = np.zeros(ctx.npoints, dtype=complex)
        v[: depth + 1] = rng.uniform(-1, 1, depth + 1) + 1j * rng.uniform(-1, 1, depth + 1)
        source = GridFunction(v)
    else:
        source = GridFunction.delta(depth, ctx.npoints)
    S._COVERS.clear()
    for odd, shift in requests:
        count = odd << shift
        table, dens = _phi_table(q, count, ctx.npoints), _density_table(q, count)
        assert np.array_equal(table, phi_matrix(_table_nodes(count, ctx), ctx.npoints, ctx).T)
        assert np.array_equal(dens, _density_vector(_table_nodes(count, ctx), ctx))
        _assert_view_of_cover(table, "phi", q, count)
        _assert_view_of_cover(dens, "density", q, count)
        F = transform_forward(source, ctx, count)
        assert np.array_equal(F.nodes, _nodes(count, ctx))
        rows = depth + 1
        v = source.values[:rows] * _row_weights(np.arange(rows), ctx)
        phi = phi_matrix(F.nodes, rows, ctx)
        ref = (1.0 - ctx.q2) * (phi @ v)
        assert np.all(np.abs(F.values - ref) <= 1e-14 * (1.0 - ctx.q2) * (np.abs(phi) @ np.abs(v)))
    back = transform_inverse(F, ctx)
    assert np.max(np.abs(back.values - source.values)) <= 1e-8
    # the inverse's tables are prefixes of the odd-part-1 cover
    cover = S._COVERS["phi", q, 1]
    rows, width = cover.shape
    assert np.array_equal(cover, phi_matrix(_table_nodes(width, ctx), rows, ctx).T)
    S._COVERS.clear()


def _complex_phi_recurrence(rhos, npoints, ctx):
    # phi_matrix's recurrence in complex arithmetic, one column per row n:
    # the reference for the real, row-major node tables
    lam = lambda_rho(rhos, ctx)
    up, diag, down = stencil_coefficients(ctx, npoints)
    out = np.zeros((len(lam), npoints), dtype=complex)
    out[:, 0] = 1.0
    if npoints > 1:
        out[:, 1] = (lam - diag[0]) / down[0]
        for n in range(1, npoints - 1):
            out[:, n + 1] = ((lam - diag[n]) * out[:, n] - up[n] * out[:, n - 1]) / down[n]
    return out


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.995])
def test_real_node_tables_match_the_complex_recurrence(q):
    # complex division does not round like real division, so the entries
    # move by a few ulp; scaled by the running maximum of |phi| down each
    # node's column (rows 0..n) they stay at rounding level
    ctx = QContext(q)
    for count in (16, 1024):
        nodes = _table_nodes(count, ctx)
        for npoints in (1, 2, 33, 65):
            table = _phi_table(q, count, npoints)
            assert table.dtype == np.float64 and table.shape == (npoints, count)
            _assert_view_of_cover(table, "phi", q, count)
            ref = _complex_phi_recurrence(nodes, npoints, ctx).T
            assert np.all(ref.imag == 0.0)
            scale = np.maximum.accumulate(np.abs(ref.real), axis=0)
            assert np.max(np.abs(table - ref.real) / scale) <= 1e-13
            assert np.array_equal(phi_column(nodes[count // 3], npoints, ctx), table[:, count // 3])


def test_phi_tables_take_real_rho_only(ctx):
    for rho in (0.3 + 0.2j, complex(0.3, math.nan)):
        with pytest.raises(DomainError, match="real rho"):
            phi_column(rho, 5, ctx)
        with pytest.raises(DomainError, match="real rho"):
            phi_matrix(np.array([0.1, rho]), 5, ctx)
    # a complex dtype with zero imaginary parts is real rho
    real = phi_matrix(np.array([0.1, 0.3]), 5, ctx)
    assert real.dtype == np.float64
    assert np.array_equal(phi_matrix(np.array([0.1, 0.3], dtype=complex), 5, ctx), real)
    assert np.array_equal(phi_column(0.3 + 0j, 5, ctx), real[1])


def _compensated_matvec(table, v):
    """table @ v for a real table and a complex vector, summing each row's
    double products pairwise with TwoSum and carrying the exact rounding
    terms, so each sum is good to a rounding of itself plus eps^2 terms on
    any platform."""
    def rows(p):
        err = np.zeros(len(p))
        while p.shape[1] > 1:
            if p.shape[1] % 2:
                p = np.hstack([p, np.zeros((len(p), 1))])
            a, b = p[:, ::2], p[:, 1::2]
            s = a + b
            bb = s - a
            err += ((a - (s - bb)) + (b - bb)).sum(axis=1)
            p = s
        return p[:, 0] + err

    return rows(table * v.real) + 1j * rows(table * v.imag)


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.995])
def test_real_gemm_contractions_match_the_complex_matvec(q):
    # the transform contracts real node tables with complex operands as
    # real GEMMs; a complex matvec over the same table is the reference,
    # on the node counts transform_inverse takes for each source, and the
    # inverse's coarse sum against a matvec over the half-count table
    ctx = QContext(q, grid_horizon=32)
    rng = np.random.default_rng(7)
    period = ctx.rho_period()
    sources = [GridFunction.delta(n, ctx.npoints) for n in (0, 1, 7, 20, 32)]
    for top in (3, 12, 32):
        v = np.zeros(ctx.npoints, dtype=complex)
        v[: top + 1] = rng.standard_normal(top + 1) + 1j * rng.standard_normal(top + 1)
        sources.append(GridFunction(v))
    for g in sources:
        nz = np.flatnonzero(g.values)
        start = _start_nodes(ctx, int(nz.max()))
        for count in (start, 2 * start, 4 * start):
            phi = _phi_table(q, count, ctx.npoints)
            v = g.values[nz] * _row_weights(nz, ctx)
            fv = _forward(phi, g, ctx)
            ref = (1.0 - ctx.q2) * (phi[nz].T.astype(complex) @ v)
            scale = (1.0 - ctx.q2) * (np.abs(phi[nz].T) @ np.abs(v))
            assert np.all(np.abs(fv - ref) <= 1e-15 * scale)
            coarse, out, _ = _inverse_on_nodes(
                SpectralFunction(_nodes(count, ctx), fv, g), ctx, count, ctx.npoints
            )
            # the inverse's references are compensated row sums: a double
            # matvec's own rounding reaches 0.92e-15 scale (q = 0.9,
            # row 1 of a 1024-node sum), where the GEMM errs by 0.19e-15
            weighted = fv * _density_table(q, count)
            ref = (period / count) * _compensated_matvec(phi, weighted)
            scale = (period / count) * (np.abs(phi) @ np.abs(weighted))
            assert np.all(np.abs(out - ref) <= 1e-15 * scale)
            half = count // 2
            phi = _phi_table(q, half, ctx.npoints)
            weighted = fv[:half] * _density_table(q, half)
            ref = (period / half) * _compensated_matvec(phi, weighted)
            scale = (period / half) * (np.abs(phi) @ np.abs(weighted))
            assert np.all(np.abs(coarse - ref) <= 1e-15 * scale)


def test_zero_source_transforms_to_zero_and_back():
    # a source with no nonzero row contracts an empty slice of the table
    ctx = QContext(0.5, grid_horizon=16)
    F = transform_forward(GridFunction.zeros(ctx.npoints), ctx)
    assert F.values.shape == (1024,)
    assert not np.any(F.values)
    g = transform_inverse(F, ctx)
    assert g.values.shape == (ctx.npoints,)
    assert not np.any(g.values)


def test_inverse_ignores_the_forward_node_count():
    # the inverse re-evaluates F from its source, so the node count F was
    # built at plays no part
    ctx = QContext(0.5, grid_horizon=16)
    d = GridFunction.delta(1, 17)
    coarse = transform_inverse(transform_forward(d, ctx, 64), ctx)
    fine = transform_inverse(transform_forward(d, ctx, 8192), ctx)
    assert np.array_equal(coarse.values, fine.values)


def test_unsettled_callable_raises_by_four_start_counts(ctx):
    # seeded random values never settle; one pass on 2 N0 nodes compares
    # N0 with 2 N0, one on 4 N0 compares 2 N0 with 4 N0, and the sums stop
    rng = np.random.default_rng(5)
    counts = []

    def noise(rhos):
        counts.append(len(rhos))
        return rng.standard_normal(len(rhos))

    start = _start_nodes(ctx)
    with pytest.raises(QuadratureError, match=f"by {4 * start} nodes"):
        transform_inverse(noise, ctx)
    assert counts == [2 * start, 4 * start]


def test_callable_aliased_at_the_start_count_settles_by_four_start_counts(ctx):
    # a Fourier mode of order N0 + 1 in h rho aliases onto mode 1 on N0
    # nodes, so the first pass does not settle; on 2 N0 nodes it meets only
    # the q^(N0 - 1)-small modes of phi and the density, so the second does
    start = _start_nodes(ctx)
    counts = []

    def mode(rhos):
        counts.append(len(rhos))
        return np.cos((start + 1) * ctx.h * rhos)

    out = transform_inverse(mode, ctx).values
    assert counts == [2 * start, 4 * start]
    nodes = _nodes(4 * start, ctx)
    weights = np.cos((start + 1) * ctx.h * nodes) * _density_vector(nodes, ctx)
    terms = phi_matrix(nodes, ctx.npoints, ctx) * weights[:, None]
    ref = ctx.rho_period() / (4 * start) * terms.sum(axis=0)
    scale = ctx.rho_period() / (4 * start) * np.abs(terms).sum(axis=0)
    assert np.all(np.abs(out - ref) <= 1e-14 * scale)


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
