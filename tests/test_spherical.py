"""Spectral theory: eigenfunctions, density, transform pair, spectrum."""

import functools
import itertools
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
    _alias_bound,
    _certified_nodes,
    _columns,
    _cosine_bits,
    _density_table,
    _fixed_exp,
    _fixed_ln,
    _forward,
    _inverse_on_nodes,
    _multiplicity,
    _nodes,
    _phi_ascending,
    _phi_digits,
    _phi_series,
    _phi_table,
    _series_bits,
    _start_nodes,
    _table_nodes,
    _two_q_cos,
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
# the q of verify's sweep over the supported range
SWEEP_Q = (0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.95, 0.98, 0.995)


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


def _mp_two_q_cos(rho, q, bits):
    """s = 2q cos(2 rho ln q) from mpmath at `bits`, as fixed-point integers
    at `bits`: the cosine _phi_series took before its integer routine."""
    with mpmath.workprec(bits):
        qm = mpmath.mpf(q)
        s = mpmath.mpc(2 * qm * mpmath.cos(2 * mpmath.mpmathify(rho) * mpmath.log(qm)))
        return tuple(mpmath.libmp.to_fixed(part._mpf_, bits) for part in (s.real, s.imag))


def _series_on_mpmath_cosine(rho, rows, ctx):
    """_phi_series with s taken from mpmath at the largest row's B."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(S, "_two_q_cos", _mp_two_q_cos)
        patch.setattr(S, "_cosine_bits", lambda rho, rows, q: _series_bits(max(rows), q))
        return _phi_series(rho, rows, ctx)


@pytest.mark.parametrize("q", sorted((*_CLOSED_FORM_QS, 0.98)))
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
    # s from the integer routine at the bound's w bits gives every row bit
    # for bit what s from mpmath at the tables' B bits gives: rho at and
    # near 0, about P/2 (cos theta = -1) and past the period P, from q = 0.5
    # on a row past 31, and at q <= 0.1 rows below 1e-30
    period = ctx.rho_period()
    rows = [*range(32), 60] if q >= 0.5 else range(32)
    smallest = math.inf
    for rho in (*rhos, 0.0, 1e-9, 0.5 * period, 0.5 * period - 1e-7, 1.37 * period, 12.3 * period):
        vals = _phi_series(rho, rows, ctx)
        assert np.array_equal(vals, _series_on_mpmath_cosine(rho, rows, ctx))
        smallest = min(smallest, float(np.min(np.abs(vals))))
    assert (smallest < 1e-30) == (q <= 0.1)


@pytest.mark.parametrize("w", [53, 128, 192, 700, 4500])
def test_fixed_point_elementary_functions_match_mpmath(w):
    # each within a few units of 2^-w of a value mpmath takes 64 bits
    # further: e^(iy) as cos and sin within 1, e^x and e^(x + iy) within
    # 2 e^x; so is s = 2q cos(2 rho ln q), within 2 for real rho and within
    # 2 max(1, 2q cosh(Im theta)) for complex rho, theta = 2 rho ln q
    scale = mpmath.mpf(2) ** w

    def fixed(x):
        return int(mpmath.floor(mpmath.mpf(x) * scale))

    with mpmath.workprec(w + 64):
        for q in (0.05, 0.3, 0.5, 0.9, 0.995, 1.7, 1e-5):
            a, b = q.as_integer_ratio()
            assert abs(_fixed_ln(a, b, w) - mpmath.log(mpmath.mpf(a) / b) * scale) <= 2
        angles = (0.0, 2e-9, -0.37, 1.0, -3.14159, 20.5, -613.0, 4096.25)
        for y in angles:
            t = fixed(y)
            c, s = _fixed_exp(0, t, w)
            assert abs(c - mpmath.cos(t / scale) * scale) <= 1
            assert abs(s - mpmath.sin(t / scale) * scale) <= 1
        for x in (0.0, 3e-7, 0.5, 1.0, 7.25, 40.0, 300.0):
            t = fixed(x)
            e = mpmath.exp(t / scale)
            re, im = _fixed_exp(t, 0, w)
            assert abs(re - e * scale) <= 2 * e and im == 0
            for y in angles[1:]:
                z = mpmath.exp(mpmath.mpc(t, fixed(y)) / scale)
                re, im = _fixed_exp(t, fixed(y), w)
                assert abs(re - z.real * scale) <= 2 * e
                assert abs(im - z.imag * scale) <= 2 * e
        for q, rho in itertools.product((0.05, 0.5, 0.995), (0.0, 0.7, 123.4)):
            s_re, s_im = _two_q_cos(rho, q, w)
            qm = mpmath.mpf(q)
            assert abs(s_re - 2 * qm * mpmath.cos(2 * rho * mpmath.log(qm)) * scale) <= 2
            assert s_im == 0
        for q, rho in itertools.product((0.05, 0.5, 0.995), (0.3 + 0.2j, 0.3 + 40j, 1.5j, -0.4 - 2j)):
            s_re, s_im = _two_q_cos(rho, q, w)
            qm = mpmath.mpf(q)
            theta = 2 * mpmath.mpc(rho) * mpmath.log(qm)
            s = 2 * qm * mpmath.cos(theta) * scale
            units = 2 * max(1, 2 * qm * mpmath.cosh(theta.imag))
            assert abs(s_re - s.real) <= units
            assert abs(s_im - s.imag) <= units


def test_cosine_bits_follow_the_markov_bound():
    # w = min(B, 128 + ceil(log2 max(1, n^2 M_n / 2q))): near 128 bits
    # where M_31 is small, B itself at q = 0.995 (log2 M_31 = 155), and B
    # for nonreal rho
    for q in (0.05, 0.3, 0.5):
        assert 128 <= _cosine_bits(0.3, range(32), q) <= 140 < _series_bits(31, q)
    assert _cosine_bits(0.3, range(32), 0.995) == _series_bits(31, 0.995)
    assert _cosine_bits(0.3 + 0.2j, range(32), 0.5) == _series_bits(31, 0.5)
    assert _cosine_bits(0.3, [0], 0.5) == 128


@pytest.mark.parametrize("q", _CLOSED_FORM_QS)
def test_phi_rho_matches_the_series(q):
    ctx, rhos = _closed_form_cases(q)
    for rho in rhos:
        ref = _series_rows(q, rho)
        vals = phi_rho(rho, range(32), ctx)
        assert np.all(np.abs(vals - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("q", SWEEP_Q)
def test_ascending_sum_within_its_certificate(q):
    # and off the real axis at a rho that scales with the period
    ctx, rhos = _closed_form_cases(q)
    for rho in (*rhos, complex(0.37 * ctx.rho_period() / 2, 0.25)):
        vals, bound = _phi_ascending(rho, 31, ctx)
        ok = bound <= _PHI_CERT_TOL
        assert ok[0]
        assert np.all(np.abs(vals - _series_rows(q, rho))[ok] <= bound[ok])


def _mp_majorant(q, b, rows):
    """Reference of the majorant: the absolute sum q^n sum_j sum_i
    |e_i e_(j-i)| sum_k e^((m - 2k) b) / ((p; p)_k (p; p)_(m-k)), m = n - j,
    of the ascending form's terms at |Im theta| = b, Euler's coefficients
    e_i = (-1)^i q^(i^2) / (p; p)_i, in mpmath at 30 digits."""
    with mpmath.workdps(30):
        qm, bm = mpmath.mpf(q), mpmath.mpf(b)
        poch = [mpmath.mpf(1)]
        for k in range(1, rows):
            poch.append(poch[-1] * (1 - qm ** (2 * k)))
        euler = [qm ** (i * i) / poch[i] for i in range(rows)]
        c = [mpmath.fsum(euler[i] * euler[j - i] for i in range(j + 1)) for j in range(rows)]
        h = [
            mpmath.fsum(mpmath.exp((m - 2 * k) * bm) / (poch[k] * poch[m - k]) for k in range(m + 1))
            for m in range(rows)
        ]
        return np.array([float(qm**n * mpmath.fsum(c[j] * h[n - j] for j in range(n + 1))) for n in range(rows)])


@pytest.mark.parametrize("q", SWEEP_Q)
def test_majorant_matches_the_mpmath_absolute_sum(q):
    # the |a| rows of the cosine cover, weighted at b = 0 (the cached rows
    # behind the rounding bound and _cosine_bits) and at b = h/2, against
    # the absolute sum of the ascending terms.  Every term is nonnegative,
    # so row n errs by at most (10 + b) n + 30 ulp relative: the count of
    # _phi_ascending's K with the weights' b n in place of its phase terms
    # (measured: at most 2 (n + 1) ulp, at q = 0.05 and b = h/2)
    ctx = QContext(q)
    absolute, peak = S._cosine_cover(q, 31)[1:]
    n = np.arange(32)
    for b in (0.0, ctx.h / 2):
        got = S._phi_majorant(absolute, b)[:32]
        if b == 0.0:
            assert np.array_equal(got, peak[:32])
        ref = _mp_majorant(q, b, 32)
        assert np.all(np.abs(got - ref) <= ((10 + b) * n + 30) * 2.0**-53 * ref), b


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


@pytest.mark.parametrize("rho", [math.nan, math.inf, complex(0.3, math.nan)])
def test_non_finite_rho_raises_before_any_table(rho, monkeypatch):
    # refused before the cosine tables, the series, the recurrence or
    # qgamma are reached: past them a NaN or inf escapes as ValueError or
    # OverflowError from the integer routines, or comes back as NaN rows
    ctx = QContext(0.5)

    def unreachable(*args):
        raise AssertionError("reached table or series work")

    for name in ("_cosine_cover", "_phi_series", "_recur", "qgamma"):
        monkeypatch.setattr(S, name, unreachable)
    for call in (
        lambda: phi_rho(rho, 3, ctx),
        lambda: phi_rho(rho, [0, 5], ctx),
        lambda: c_coefficient(rho, ctx),
        lambda: phi_column(rho, 5, ctx),
        lambda: psi_rho(rho, 3, ctx),
    ):
        with pytest.raises(DomainError, match="rho"):
            call()


def test_psi_rejects_negative_rows(ctx):
    # at n = -1 the series divides by zero, and for n <= -2 its ratio
    # q^2 y exceeds 1, so its stopping test ends it after one term
    for n in (-1, -2, -5):
        with pytest.raises(DomainError, match="grid index must be nonnegative"):
            psi_rho(0.7, n, ctx)


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
    # a scalar call is the entry of an array call, bit for bit, whatever
    # the array's other entries, shape or order are; off (0, P) it is zero
    period = ctx.rho_period()
    rhos = np.linspace(-0.5, 1.5, 41) * period
    vec = sigma_density(rhos, ctx)
    assert vec.dtype == np.float64 and vec.shape == rhos.shape
    for r, v in zip(rhos, vec):
        scalar = sigma_density(float(r), ctx)
        assert type(scalar) is float and scalar == v
    assert np.array_equal(sigma_density(rhos[::-1], ctx), vec[::-1])
    assert np.array_equal(sigma_density(rhos.reshape(1, 41), ctx), vec.reshape(1, 41))
    off = (rhos <= 0.0) | (rhos >= period)
    assert np.all(vec[off] == 0.0) and np.all(vec[~off] >= 0.0)


def _sigma_reference(rho, q):
    """sigma(rho) from its defining products, (h/(4 pi (1-p))) prod_k
    (1 - p^(k+1))^2 |1 - e^(2ih rho) p^k|^2 / |1 - q e^(ih rho) p^k|^4: h
    and the cosines from mpmath at 40 digits, the product in 200-bit
    integer floating point (mpmath's qp does not converge at q = 0.995),
    the factors taken while p^k > 2^-150."""
    bits = 200
    one = 1 << bits
    with mpmath.workdps(40):
        qm = mpmath.mpf(q)
        p, h = qm * qm, -2 * mpmath.log(qm)
        pf, c2, c1 = (
            mpmath.libmp.to_fixed(v._mpf_, bits)
            for v in (p, 2 * mpmath.cos(2 * h * rho), 2 * qm * mpmath.cos(h * rho))
        )
        # the product is value * 2^(scale - bits), value kept at bits + 1 bits
        value, scale, pk = one, 0, one
        while pk > 1 << 50:
            sq = pk * pk >> bits
            euler = one - (pf * pk >> bits)
            den = one - (c1 * pk >> bits) + (pf * sq >> bits)
            value = (value * euler * euler >> bits) * (one - (c2 * pk >> bits) + sq) // (den * den)
            shift = value.bit_length() - bits - 1
            value = value >> shift if shift >= 0 else value << -shift
            scale += shift
            pk = pk * pf >> bits
        return float(h / (4 * mpmath.pi * (1 - p)) * mpmath.ldexp(value, scale - bits))


def test_density_matches_the_product_reference_over_the_range():
    # the closed form against the defining products across the supported
    # range, at points on both sides of P/2, near both ends and near the
    # zero at P/2; the error is scaled by max sigma, read off 4096 nodes
    fracs = np.array([0.003, 0.06, 0.29, 0.47, 0.53, 0.94, 0.997])
    for q in (0.05, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.98, 0.995):
        ctx = QContext(q)
        rhos = fracs * ctx.rho_period()
        ref = np.array([_sigma_reference(mpmath.mpf(r), q) for r in rhos])
        err = np.abs(sigma_density(rhos, ctx) - ref)
        assert np.max(err) <= 2e-14 * np.max(sigma_density(_nodes(4096, ctx), ctx)), q


def test_total_mass(ctx):
    # inverting the constant transform of the centre delta at the centre
    # forces total measure 1/(1-q^2)
    period = ctx.rho_period()
    rhos = period * np.arange(4096) / 4096
    mass = period / 4096 * np.sum(sigma_density(rhos, ctx))
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
    dens = sigma_density(Ff.nodes, ctx)
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


@pytest.mark.parametrize("q", [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.95, 0.98, 0.995])
def test_spectrum_probe_matches_the_dense_eigensolver(q):
    # the dense symmetric solve is the oracle of the bisection; both err by
    # about eps times the spectral radius |lo|, which near q = 1 is 1e-12
    # of the upper extreme itself, so the agreement is measured against |lo|
    ctx = QContext(q)
    for dim in (2, 60, 200, 1000):
        _, diag, down = stencil_coefficients(ctx, dim)
        off = q * down[: dim - 1]
        vals = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        lo, hi = spectrum_probe(dim, ctx)
        assert abs(lo - vals[0]) <= 1e-12 * abs(vals[0])
        assert abs(hi - vals[-1]) <= 1e-12 * abs(vals[0])


def test_spectrum_probe_steps_off_a_zero_pivot(ctx, monkeypatch):
    # a shift where a pivot is exactly zero is counted one ulp above
    real = S._pivots
    shifts = []

    def zero_once(up, diag, down, shift):
        shifts.append(shift)
        if len(shifts) == 1:
            raise ZeroDivisionError
        return real(up, diag, down, shift)

    monkeypatch.setattr(S, "_pivots", zero_once)
    nudged = spectrum_probe(60, ctx)
    monkeypatch.undo()
    assert shifts[1] == math.nextafter(shifts[0], math.inf)
    assert nudged == spectrum_probe(60, ctx)


def test_spectrum_probe_builds_no_square_array():
    import tracemalloc

    ctx = QContext(0.98)
    spectrum_probe(10, ctx)
    tracemalloc.start()
    try:
        spectrum_probe(2000, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a dense 2000 x 2000 float64 matrix alone is 32 MB
    assert peak < 2_000_000


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
    # a served table is a read-only view of its node cover's phi or density
    # part with one unit stride
    odd = count // (count & -count)
    assert np.shares_memory(table, S._COVERS[q, odd][("phi", "density").index(kind)])
    assert not table.flags.writeable and table.strides[-1] == table.itemsize


def _mirrors(count):
    # the node of each of the count ascending nodes whose column it reads
    j = np.arange(count)
    return np.minimum(j, count - j)


def test_node_columns_nest_coarse_to_fine():
    # nodes j and count - j share a column, and each distinct node
    # j = 0..count//2 has its own, count//2 + 1 in all, read by one or two
    # nodes; the first count//4 + 1 columns hold the distinct nodes of
    # count/2, the even nodes of count, in their own order, and the odd
    # nodes j <= count/2 follow in ascending order; the table order of the
    # distinct nodes is a reordering of the ascending ones
    ctx = QContext(0.5)
    for odd in (1, 3, 5):
        for count in (odd << k for k in range(6)):
            cols, nodes = _columns(count), _table_nodes(count, ctx)
            width = count // 2 + 1
            assert np.array_equal(cols, cols[_mirrors(count)])
            assert np.array_equal(np.sort(cols[:width]), np.arange(width))
            assert np.array_equal(nodes[cols[:width]], _nodes(count, ctx)[:width])
            ones = [0] if count % 2 else [0, cols[count // 2]]
            expected = np.full(width, 2.0)
            expected[ones] = 1.0
            assert np.array_equal(_multiplicity(count), expected)
            if count % 2 == 0:
                half = count // 2
                assert np.array_equal(cols[::2], _columns(half))
                assert np.array_equal(cols[1 : half + 1 : 2], np.arange(half // 2 + 1, width))
                assert np.array_equal(nodes[: half // 2 + 1], _table_nodes(half, ctx))


@pytest.mark.parametrize("q", [0.05, 0.5, 0.995])
def test_node_covers_rebuild_whole_and_keep_every_view(q):
    # requests that grow the rows alone, the columns alone, both, and a
    # family of odd part 3: each one past the cover rebuilds it whole, and
    # every view served so far, those cut from a replaced cover included,
    # equals a direct build of phi and of the density on its nodes; the
    # store then holds the family's one node cover, on the largest count
    # and rows asked for
    ctx = QContext(q)
    orders = (
        [(256, 33), (256, 65), (256, 129)],
        [(64, 65), (256, 65), (1024, 65)],
        [(64, 33), (512, 65), (128, 129), (1024, 33)],
        [(96, 33), (768, 65), (24, 129), (384, 17)],
    )
    for order in orders:
        S._COVERS.clear()
        served = []
        for count, npoints in order:
            served.append((count, npoints, _phi_table(q, count, npoints), _density_table(q, count)))
            for c, n, table, dens in served:
                nodes = _table_nodes(c, ctx)
                assert np.array_equal(table, phi_matrix(nodes, n, ctx).T)
                assert np.array_equal(dens, sigma_density(nodes, ctx))
        odd = count // (count & -count)
        assert list(S._COVERS) == [(q, odd)]
        phi, dens = S._COVERS[q, odd]
        width = max(c for c, _ in order) // 2 + 1
        assert phi.shape == (max(n for _, n in order), width) and dens.shape == (width,)
        assert not phi.flags.writeable and not dens.flags.writeable
    S._COVERS.clear()


def test_round_trips_keep_one_node_cover_per_q():
    # round trips at the spectral workload's node counts and horizons and
    # phi_rho rows leave two covers per q: the cosine cover and one node
    # cover for odd part 1, which every power-of-two count reads
    S._COVERS.clear()
    qs = (0.2, 0.5, 0.8)
    for q, count, horizon in itertools.product(qs, (256, 512, 1024), (32, 64)):
        ctx = QContext(q, grid_horizon=horizon)
        source = GridFunction.delta(3, ctx.npoints)
        back = transform_inverse(transform_forward(source, ctx, count), ctx)
        assert np.max(np.abs(back.values - source.values)) <= 1e-8
        phi_rho(0.3, 20, ctx)
    assert set(S._COVERS) == {("cosine", q) for q in qs} | {(q, 1) for q in qs}
    S._COVERS.clear()


def test_walking_the_node_counts_keeps_one_cover_per_key():
    # each doubling rebuilds the cover in place of the last one, and every
    # table served is a view of the cover that was current then, on the
    # count//2 + 1 distinct nodes
    S._COVERS.clear()
    q, npoints = 0.5, 33
    for count in (16 << k for k in range(11)):
        table, dens = _phi_table(q, count, npoints), _density_table(q, count)
        assert table.shape == (npoints, count // 2 + 1) and dens.shape == (count // 2 + 1,)
        _assert_view_of_cover(table, "phi", q, count)
        _assert_view_of_cover(dens, "density", q, count)
    assert set(S._COVERS) == {(q, 1)}
    phi, dens = S._COVERS[q, 1]
    assert phi.shape == (npoints, 8193) and dens.shape == (8193,)
    assert not phi.flags.writeable and not dens.flags.writeable
    S._COVERS.clear()


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.995])
def test_node_tables_equal_direct_builds_in_any_order(q):
    # every table is cut from one cover per (q, odd part of the count),
    # whatever order the requests grew it in; each must equal a direct
    # build on its distinct nodes bit for bit, on a family that is not
    # powers of two and on the start counts of transform_inverse, whose
    # covers are left in place; the forward transform gives a mirrored
    # pair of nodes equal values
    ctx = QContext(q)
    start = _start_nodes(ctx)
    for counts in ((250, 500, 1000), (start, 2 * start, 4 * start)):
        keys = [(count, horizon + 1) for count in counts for horizon in (32, 64)]
        phi_ref = {(c, n): phi_matrix(_table_nodes(c, ctx), n, ctx).T for c, n in keys}
        dens_ref = {c: sigma_density(_table_nodes(c, ctx), ctx) for c in counts}
        for c in counts:
            assert np.array_equal(_table_nodes(c, ctx), _nodes(c, ctx)[: c // 2 + 1][_order(c)])
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
                values = transform_forward(GridFunction.delta(7, npoints), ctx, count).values
                assert np.array_equal(values, values[_mirrors(count)])


def _order(count):
    # the ascending distinct node of each node table column
    return np.argsort(_columns(count)[: count // 2 + 1])


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
    # covers: each table served equals a direct build on its distinct nodes
    # bit for bit and is a view of its cover; the forward values come back
    # in ascending node order, node count - j with the value of node j, and
    # the round trip meets transform_roundtrip's tolerance up to its
    # resolvable depth
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
        assert np.array_equal(dens, sigma_density(_table_nodes(count, ctx), ctx))
        _assert_view_of_cover(table, "phi", q, count)
        _assert_view_of_cover(dens, "density", q, count)
        F = transform_forward(source, ctx, count)
        assert np.array_equal(F.nodes, _nodes(count, ctx))
        assert np.array_equal(F.values, F.values[_mirrors(count)])
        rows = depth + 1
        v = source.values[:rows] * _row_weights(np.arange(rows), ctx)
        phi = phi_matrix(F.nodes[_mirrors(count)], rows, ctx)
        ref = (1.0 - ctx.q2) * (phi @ v)
        assert np.all(np.abs(F.values - ref) <= 1e-14 * (1.0 - ctx.q2) * (np.abs(phi) @ np.abs(v)))
    back = transform_inverse(F, ctx)
    assert np.max(np.abs(back.values - source.values)) <= 1e-8
    # the inverse's tables are prefixes of the odd-part-1 cover, whose
    # width w holds the distinct nodes of count 2 (w - 1), or of count 1
    cover, dens = S._COVERS[q, 1]
    rows, width = cover.shape
    top = max(1, 2 * (width - 1))
    assert np.array_equal(cover, phi_matrix(_table_nodes(top, ctx), rows, ctx).T)
    assert np.array_equal(dens, sigma_density(_table_nodes(top, ctx), ctx))
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
            assert table.dtype == np.float64 and table.shape == (npoints, count // 2 + 1)
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
    # on the certified count transform_inverse takes for each source and
    # on its doublings, and the two-column pass's coarse sum against a
    # matvec over the half-count table with the half count's own
    # multiplicities
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
        start = _certified_nodes(g, ctx, ctx.npoints)
        # the inverse's one pass: a GEMM against one weight column
        back = transform_inverse(SpectralFunction(_nodes(start, ctx), None, g), ctx).values
        phi = _phi_table(q, start, ctx.npoints)
        weighted = _forward(phi, g, ctx) * _multiplicity(start) * _density_table(q, start)
        ref = (period / start) * _compensated_matvec(phi, weighted)
        assert np.all(np.abs(back - ref) <= 1e-15 * (period / start) * (np.abs(phi) @ np.abs(weighted)))
        for count in (start, 2 * start, 4 * start):
            phi = _phi_table(q, count, ctx.npoints)
            v = g.values[nz] * _row_weights(nz, ctx)
            fv = _forward(phi, g, ctx)
            ref = (1.0 - ctx.q2) * (phi[nz].T.astype(complex) @ v)
            scale = (1.0 - ctx.q2) * (np.abs(phi[nz].T) @ np.abs(v))
            assert np.all(np.abs(fv - ref) <= 1e-15 * scale)
            F = SpectralFunction(_nodes(count, ctx), fv[_columns(count)], g)
            coarse, out, _ = _inverse_on_nodes(F, ctx, count, ctx.npoints)
            # the inverse's references are compensated row sums: a double
            # matvec's own rounding reaches 0.92e-15 scale (q = 0.9,
            # row 1 of a 1024-node sum), where the GEMM errs by 0.19e-15
            weighted = fv * _multiplicity(count) * _density_table(q, count)
            ref = (period / count) * _compensated_matvec(phi, weighted)
            scale = (period / count) * (np.abs(phi) @ np.abs(weighted))
            assert np.all(np.abs(out - ref) <= 1e-15 * scale)
            half = count // 2
            phi = _phi_table(q, half, ctx.npoints)
            weighted = fv[: half // 2 + 1] * _multiplicity(half) * _density_table(q, half)
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
    # both forwards' folded values cover the certified count, so each
    # inverse reads its own: the node count F was built at plays no part,
    # and the GEMM rows of a 33- and a 4097-column table agree bit for bit
    ctx = QContext(0.5, grid_horizon=16)
    d = GridFunction.delta(1, 17)
    coarse = transform_inverse(transform_forward(d, ctx, 64), ctx)
    fine = transform_inverse(transform_forward(d, ctx, 8192), ctx)
    assert np.array_equal(coarse.values, fine.values)


def _counted_forward(monkeypatch):
    """Count the calls of spherical._forward from now on."""
    calls = []
    real = S._forward

    def counted(*args):
        calls.append(args[0].shape)
        return real(*args)

    monkeypatch.setattr(S, "_forward", counted)
    return calls


def _family(count: int):
    """count and every count below it whose table is a prefix of its cover:
    count, count/2, ... down to its odd part."""
    while True:
        yield count
        if count % 2:
            return
        count //= 2


@pytest.mark.parametrize("q", [0.05, 0.3, 0.5, 0.9, 0.995])
def test_folded_values_are_the_re_evaluation_bit_for_bit(q, monkeypatch):
    # transform_inverse reads the forward's folded values where they cover
    # its count; they are bit for bit the values a re-evaluation from the
    # source gives on every count of the forward's family, over deltas at
    # rows 0..20, random finite sources and node counts 1..8192, 768 (odd
    # part 3) among them
    rng = np.random.default_rng(38)
    counts = [1 << k for k in range(14)] + [3, 96, 768]
    for horizon in (32, 64):
        ctx = QContext(q, grid_horizon=horizon)
        sources = [GridFunction.delta(n, ctx.npoints) for n in range(21)]
        for top in (0, 5, 20, horizon):
            v = np.zeros(ctx.npoints, dtype=complex)
            v[: top + 1] = rng.standard_normal(top + 1) + 1j * rng.standard_normal(top + 1)
            sources.append(GridFunction(v))
        for g in sources:
            for node_count in counts:
                F = transform_forward(g, ctx, node_count)
                by_hand = SpectralFunction(F.nodes, F.values, g)
                calls = _counted_forward(monkeypatch)
                for count in _family(node_count):
                    table, fv = S._quadrature_terms(F, ctx, count, ctx.npoints)
                    assert not calls, (node_count, count)
                    ref_table, ref = S._quadrature_terms(by_hand, ctx, count, ctx.npoints)
                    assert len(calls) == 1
                    calls.clear()
                    assert np.array_equal(table, ref_table)
                    assert np.array_equal(fv, ref), (horizon, node_count, count)
                monkeypatch.undo()


def test_round_trip_contracts_its_source_once(monkeypatch):
    # a forward on at least the certified count leaves the inverse nothing
    # to evaluate; one on fewer nodes, on another odd part or at another q,
    # and one built by hand with no values, are evaluated again from the
    # source, and every route gives the same rows bit for bit
    ctx = QContext(0.5)
    g = GridFunction.delta(5, ctx.npoints)
    certified = _certified_nodes(g, ctx, ctx.npoints)
    assert 1 < certified < 1024
    reference = transform_inverse(SpectralFunction(_nodes(certified, ctx), None, g), ctx).values
    cases = [
        (lambda: transform_forward(g, ctx, 1024), 1),
        (lambda: transform_forward(g, ctx, certified), 1),
        (lambda: transform_forward(g, ctx, certified // 2), 2),
        (lambda: transform_forward(g, ctx, 768), 2),
        (lambda: transform_forward(g, QContext(0.3), 1024), 2),
        (lambda: SpectralFunction(_nodes(1024, ctx), None, g), 1),
    ]
    for make, expected in cases:
        calls = _counted_forward(monkeypatch)
        back = transform_inverse(make(), ctx).values
        assert len(calls) == expected
        assert np.array_equal(back, reference)
        monkeypatch.undo()


def test_folded_values_and_nodes_are_read_only():
    ctx = QContext(0.5, grid_horizon=16)
    F = transform_forward(GridFunction.delta(3, ctx.npoints), ctx, 256)
    key, folded = F._folded
    assert key == (0.5, 1) and len(folded) == 129
    assert np.array_equal(F.values, folded[_columns(256)])
    # the nodes of a count are one cached array per (h, count), whatever
    # the horizon; the values expand the folded ones and stay the caller's
    assert F.nodes is _nodes(256, QContext(0.5)) is _nodes(256, ctx)
    for arr in (folded, F.nodes):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert F.values.flags.writeable


def test_inverse_of_a_nan_source_raises():
    # a NaN value makes the aliasing bound NaN, and no count certifies it
    ctx = QContext(0.5, grid_horizon=16)
    values = np.zeros(17)
    values[[0, 3]] = (math.nan, 1.0)
    F = transform_forward(GridFunction(values), ctx, 64)
    with pytest.raises(QuadratureError, match="certifies"):
        transform_inverse(F, ctx)


@pytest.mark.parametrize("route", ["spectral_function", "callable"])
def test_inverse_on_no_rows_raises_domain_error(route):
    ctx = QContext(0.5, grid_horizon=16)
    if route == "spectral_function":
        F = transform_forward(GridFunction.delta(1, ctx.npoints), ctx, 64)
    else:
        def F(rhos):
            return np.ones(len(rhos))
    for npoints in (0, -1):
        with pytest.raises(DomainError, match="npoints"):
            transform_inverse(F, ctx, npoints=npoints)


@pytest.mark.parametrize("q", [0.05, 0.5, 0.9, 0.995])
def test_folded_inverse_matches_the_full_period_sum(q):
    # the oracle of the fold: the trapezoid sum over all N ascending nodes,
    # phi and the density evaluated at each of them and F called there, on
    # the delta's certified count, even, and one more, odd, and for the
    # N/2-node sum of the even count.  F is a delta's spectral image and
    # e^(i h rho), which is not even under rho -> P - rho, so the fold must
    # add the two nodes of a pair rather than double one of them.  The two
    # sums differ only by rounding: node N - j rounds to a rho other than
    # P - rho_j, and the recurrence holds phi to eps times the running
    # maximum of |phi| down a node's column (see the complex-recurrence
    # test), so each term is scaled by that maximum in both of its phi
    # factors; on that scale the sums differ by at most 19 ulp (q = 0.995),
    # 3.1 at q = 0.9 and under 1 at q <= 0.5.  For the delta, whose image is
    # even, the rounding floor is the full-period one
    ctx = QContext(q)
    eps = np.finfo(float).eps
    depth = 3
    d = GridFunction.delta(depth, ctx.npoints)
    weight = (1.0 - ctx.q2) * _row_weights(np.array([depth]), ctx)[0]
    certified = _certified_nodes(d, ctx, ctx.npoints)
    for count in (certified, certified + 1):
        for fewer in (count, count // 2) if count % 2 == 0 else (count,):
            nodes = _nodes(fewer, ctx)
            phi = phi_matrix(nodes, ctx.npoints, ctx)
            peak = np.maximum.accumulate(np.abs(phi), axis=1)
            dens = sigma_density(nodes, ctx)
            # each image: F, its values on the nodes, and their rounding scale
            images = (
                (transform_forward(d, ctx, 64), weight * phi[:, depth], weight * peak[:, depth]),
                (lambda rhos: np.exp(1j * ctx.h * rhos), np.exp(1j * ctx.h * nodes), 1.0),
            )
            for k, (F, values, size) in enumerate(images):
                ref = ctx.rho_period() / fewer * (phi * (values * dens)[:, None]).sum(axis=0)
                scale = ctx.rho_period() / fewer * (peak * (size * dens)[:, None]).sum(axis=0)
                coarse, out, floor = _inverse_on_nodes(F, ctx, count, ctx.npoints)
                got = out if fewer == count else coarse
                assert np.all(np.abs(got - ref) <= 64 * eps * scale), (count, fewer)
                if k == 0 and fewer == count:
                    mean = float(np.mean(np.abs(values * dens)))
                    full = 32.0 * eps * ctx.rho_period() * math.sqrt(count) * mean
                    assert floor == pytest.approx(full, rel=1e-12, abs=0.0)
        if count % 2:
            assert not np.any(coarse)


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
    weights = np.cos((start + 1) * ctx.h * nodes) * sigma_density(nodes, ctx)
    terms = phi_matrix(nodes, ctx.npoints, ctx) * weights[:, None]
    ref = ctx.rho_period() / (4 * start) * terms.sum(axis=0)
    scale = ctx.rho_period() / (4 * start) * np.abs(terms).sum(axis=0)
    assert np.all(np.abs(out - ref) <= 1e-14 * scale)


def test_start_count_is_a_power_of_two_from_the_strip():
    # the strip rule's count, which callables start from, and the certified
    # count of a delta source: the least power of two whose aliasing bound
    # meets the settle tolerance, never past twice the strip rule's count
    for q in (0.05, 0.5, 0.9, 0.995):
        ctx = QContext(q)
        for depth in (0, 1, 20):
            start = _start_nodes(ctx, depth)
            need = math.log(1e14) / math.log(1.0 / q) + 2 * depth
            assert start & (start - 1) == 0
            assert need <= start < 2 * need
            d = GridFunction.delta(depth, ctx.npoints)
            count = _certified_nodes(d, ctx, ctx.npoints)
            bounds = _alias_bound(np.abs(d.values), ctx, ctx.npoints)
            bound = dict(zip(S._ALIAS_COUNTS.tolist(), bounds))
            assert count & (count - 1) == 0 and count <= 2 * start
            assert bound[count] <= S._QUAD_ABS_TOL < bound[count // 2]


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


@pytest.mark.parametrize("q", SWEEP_Q)
def test_alias_bound_holds_over_the_sweep(q):
    # for delta sources at depths 0..20 the bound at the certified count
    # meets the settle tolerance, and at half and a quarter of that count,
    # wherever the measured error against the exact delta stands above the
    # rounding floor, the bound covers it: the measured max-row error is
    # the aliasing plus rounding of at most the floor
    ctx = QContext(q)
    counts = S._ALIAS_COUNTS.tolist()
    compared = 0
    for depth in range(21):
        d = GridFunction.delta(depth, ctx.npoints)
        bound = dict(zip(counts, _alias_bound(np.abs(d.values), ctx, ctx.npoints)))
        count = _certified_nodes(d, ctx, ctx.npoints)
        assert bound[count] <= S._QUAD_ABS_TOL
        F = SpectralFunction(None, None, d)
        for fewer in (count // 2, count // 4):
            _, out, floor = _inverse_on_nodes(F, ctx, fewer, ctx.npoints)
            err = float(np.max(np.abs(out - d.values)))
            if err > floor:
                assert err - floor <= bound[fewer], (depth, fewer, err, bound[fewer])
                compared += 1
    assert compared >= 10


# _certified_nodes of the unit delta at depths 0..20, horizon 64: runs of
# equal counts as (first depth, count)
_CERTIFIED_COUNTS = {
    0.05: ((0, 16), (2, 32), (9, 64)),
    0.1: ((0, 32), (8, 64)),
    0.2: ((0, 32), (4, 64), (19, 128)),
    0.3: ((0, 32), (1, 64), (15, 128)),
    0.5: ((0, 64), (6, 128)),
    0.7: ((0, 128),),
    0.9: ((0, 256), (12, 512)),
    0.95: ((0, 512),),
    0.98: ((0, 2048),),
    0.995: ((0, 8192),),
}


@pytest.mark.parametrize("q", SWEEP_Q)
def test_certified_node_counts_are_pinned(q):
    # a change to the majorant or to the aliasing bound that moves a count
    # fails here, whether or not a check notices it
    ctx = QContext(q)
    runs = _CERTIFIED_COUNTS[q]
    ends = [start for start, _ in runs[1:]] + [21]
    expected = [count for (start, count), end in zip(runs, ends) for _ in range(start, end)]
    got = [_certified_nodes(GridFunction.delta(d, ctx.npoints), ctx, ctx.npoints) for d in range(21)]
    assert got == expected


@pytest.mark.parametrize("q", (0.05, 0.5, 0.9, 0.995))
def test_alias_tables_against_phi_at_the_poles_and_on_the_lines(q):
    # Y[n, j] is phi_n at the pole rho = (2j+1) i/2, and X[l, n] / 2 bounds
    # |phi_n| on the lines Im rho = +-y_l: both against phi_rho itself.  At
    # q = 0.05 the pole j = 4 overflows from row 30 on, in both.  At
    # Re rho = P/2 every term of the ascending form has one sign, so there
    # the bound is attained and holds to the rounding of either side
    ctx = QContext(q)
    X, Y = S._alias_tables(q, S._ALIAS_ROWS)[:2]
    for j in range(5):
        phi = phi_rho((2 * j + 1) * 0.5j, range(33), ctx)
        pole = Y[:33, j]
        assert np.array_equal(np.isinf(pole), np.isinf(phi)), j
        ok = np.isfinite(phi)
        assert np.all(np.abs(pole[ok] - phi[ok]) <= 1e-13 * np.maximum(1.0, np.abs(phi[ok]))), j
    lines = [*S._ALIAS_SUB, *range(1, S._ALIAS_LINES + 1)]
    half = ctx.rho_period() / 2
    for y in (7 / 16, 1, 3):
        bound = X[lines.index(y), :21] / 2
        for a in (0.0, 0.37 * half, half):
            for rho in (complex(a, y), complex(a, -y)):
                assert np.all(np.abs(phi_rho(rho, range(21), ctx)) <= bound * (1.0 + 1e-13)), (y, rho)


def test_halved_certified_count_fails_a_check(monkeypatch):
    # at q = 0.5 a depth-20 source errs by about 4e-7 on half its certified
    # count, so the round trip or the doubling oracle must catch the halving
    ctx = QContext(0.5)
    certified = S._certified_nodes
    assert all(r.passed for r in verify.run_registry(ctx, ["transform_roundtrip", "quadrature_self_consistency"]))
    monkeypatch.setattr(S, "_certified_nodes", lambda g, c, n: certified(g, c, n) // 2)
    results = verify.run_registry(ctx, ["transform_roundtrip", "quadrature_self_consistency"])
    assert not all(r.passed for r in results)
