"""Spectral theory of the radial Laplacian.

Eigenfunctions, the eigenvalue curve lambda(rho), the spectral density on
the period [0, 2*pi/h], and the forward/inverse spherical transform pair
for radial grid functions, plus a truncated-matrix probe of the spectrum.

Evaluation notes.  The terminating 3phi2 series defining the spherical
function phi_rho(q^(2n)) cancels catastrophically in fixed precision once
n is moderate (its terms reach size ~ q^(-n(n-1)) while the value decays
like q^n).  phi_rho is also an Al-Salam-Chihara polynomial in base q^2,
and its ascending form from the generating function has no such terms, so
phi_rho sums that form in double and bounds each row's rounding error a
priori; everything in that sum that depends on q alone is cut from one
table per q, and its three Cauchy products are np.convolve calls.  A row
whose bound exceeds 1e-13 (about half of rows 0..31 at q = 0.7, all but
the first one or two from q = 0.9 on) falls back to the 3phi2 series
summed in Python-integer fixed point, with the working precision growing
with n and mpmath used only for the one scalar 2q cos(2 rho ln q); the
rows of one call share those tables, built once at the precision of the
largest row, and each row is summed at its own.  Transform machinery
instead evaluates phi columns through the eigen-recurrence seeded at the
disc centre, which is numerically stable on the continuous spectrum; the
routes are cross-checked in the test suite and by the verify registry.

Node tables.  The transform's nodes are real, so phi_matrix steps the
recurrence in real arithmetic, one contiguous row of float64 per grid
point, and the transform contracts those tables with complex operands as
real GEMMs on the operands' (k, 2) float views, so no table is ever cast
to complex.  The node set of N nodes is every other node of the set of
2N, and both phi and the density are evaluated node by node, so each is
built once per (q, odd part of the count) as a cover whose columns run
coarse to fine: the nodes of the odd part first, then the nodes each
doubling adds.  The table on any count of that family is the cover's
first columns (and, for phi, its first rows), served as a read-only view
with one unit stride, bit for bit what a direct build on those nodes
gives; a cover grows by appending the columns and rows it lacks.  The
covers, at most 64 of them, are the only store of node tables, and
transform_forward returns its values in ascending node order.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import OrderedDict
from dataclasses import dataclass

import mpmath
import numpy as np

from .context import QContext, _frozen
from .discalg import GridFunction, _row_weights
from .errors import DomainError, PoleError, QuadratureError
from .qspecial import _euler_product, qgamma, qpochhammer
from .uqsl2 import stencil_coefficients


def lambda_rho(rho, ctx: QContext) -> complex | np.ndarray:
    """Eigenvalue -(1 - q^(1+2i rho))(1 - q^(1-2i rho)) / (1-q^2)^2.

    Real and inside [-1/(1-q)^2, -1/(1+q)^2] for real rho.  Takes a
    scalar (returns a complex) or an array of rho (returns a complex
    array); entries with real rho carry an exactly zero imaginary part.
    """
    rho = np.asarray(rho, dtype=complex)
    lnq = math.log(ctx.q)
    a = np.exp((1 + 2j * rho) * lnq)
    b = np.exp((1 - 2j * rho) * lnq)
    val = -(1.0 - a) * (1.0 - b) / (1.0 - ctx.q2) ** 2
    val = np.where(rho.imag == 0.0, val.real, val)
    return complex(val) if val.ndim == 0 else val


def _phi_digits(n: int, q: float) -> int:
    """Working precision for the terminating spherical series at grid n.

    The largest intermediate term is of order q^(-n(n-1)); summing to a
    q^n-sized value costs that many digits.
    """
    return 30 + int(n * (n + 1) * math.log10(1.0 / q)) + 10


# a row of the ascending sum is accepted when its rounding certificate is
# at most this; any other row is summed in multiprecision
_PHI_CERT_TOL = 1e-13


# Covers: per key, the largest q-only table asked for so far, read-only.
# A larger request replaces the cover with a grown one, and the smaller one
# is dropped; smaller requests are served as its slices.  The dict keeps
# the covers in order of use and holds at most _COVER_LIMIT of them (a
# spectral benchmark pass uses 48: 16 q, three kinds).
_COVERS: OrderedDict = OrderedDict()
_COVER_LIMIT = 64


def _keep(key: tuple, cover):
    """Store cover under key as the most recently used one, dropping the
    least recently used covers past _COVER_LIMIT."""
    _COVERS[key] = cover
    _COVERS.move_to_end(key)
    while len(_COVERS) > _COVER_LIMIT:
        _COVERS.popitem(last=False)
    return cover


def _ascending_tables(q: float, top: int) -> tuple[np.ndarray, ...]:
    """The q-only tables of _phi_ascending, read-only: the index k,
    (p; p)_k, Euler's self-convolution c and its absolute twin, and q^k.

    They run to row top + 1, one past the last row kept, cut from one
    cover per q whose length is the smallest power of two >= top + 2, so
    it is rebuilt only when top passes it.  np.convolve sums entry j of a
    full convolution of two length-N vectors as one dot product over their
    entries 0..j when j < N - 1, but entry N - 1 by a short-kernel loop of
    its own when N is small; with N >= top + 2 every row kept takes the
    dot product, so the rows kept are the same whatever the cover's length.
    """
    key = ("ascending", q)
    cover = _COVERS.get(key)
    if cover is None or len(cover[0]) < top + 2:
        size = 1 << (top + 1).bit_length()
        lnq = math.log(q)
        k = np.arange(float(size))
        poch = np.cumprod(np.concatenate(([1.0], -np.expm1(2 * k[1:] * lnq))))
        euler = np.where(k % 2, -1.0, 1.0) * np.power(q, k * k) / poch
        c = np.convolve(euler, euler)[:size]
        c_abs = np.convolve(abs(euler), abs(euler))[:size]
        cover = tuple(_frozen(t) for t in (k, poch, c, c_abs, np.power(q, k)))
    return tuple(t[: top + 2] for t in _keep(key, cover))


def _phi_ascending(rho: complex, top: int, ctx: QContext) -> tuple[np.ndarray, np.ndarray]:
    """phi_rho on rows 0..top in double, and an a-priori bound on the
    rounding error of each row.

    With p = q^2 and theta = 2 rho ln q, phi_rho(n) = q^n Q_n(cos theta;
    q, q | p) / (p; p)_n, an Al-Salam-Chihara polynomial, and the
    generating function (Koekoek-Lesky-Swarttouw 14.8.13)

        sum_n Q_n t^n / (p; p)_n = (qt, qt; p)_inf / (t e^(i theta), t e^(-i theta); p)_inf

    gives the ascending form phi_rho(n) = q^n sum_{j<=n} c_j h_(n-j), with
    c_j = [t^j] (qt; p)_inf^2, the self-convolution of Euler's coefficients
    (-1)^j q^(j^2) / (p; p)_j, and h_m = sum_k e^(i(m-2k) theta) / ((p; p)_k
    (p; p)_(m-k)).  Every sum is finite, so nothing is truncated.  The
    q-only tables (c among them) are cut from one table per q; a call builds
    the vectors e^(+-i m theta) / (p; p)_m and takes h, the row sums and
    their absolute twins as np.convolve products cut at row top.  Entry j
    of a convolution is a sum over entries 0..j alone, so a row comes out
    the same whatever top is.

    The bound is gamma_K q^n sum |terms| (Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 3), the sum taken over the same tables in
    absolute value, with gamma_K = Ku/(1 - 2Ku) so that it also covers the
    rounding of that sum.  K = (12 + 6 |theta|) n + 30 bounds the roundings
    that reach one term of row n: 10 for each factor 1 - p^i of a (p; p)_k,
    taken as -expm1(2 i ln q) so it does not cancel as q -> 1 (log and
    expm1 within 4 ulp each); 4 for each pow; 6 |m theta| ulp of phase
    error in e^(i m theta); and n for the three nested sums.  np.convolve
    adds each entry's terms in an order of its own (BLAS dot kernels
    split them over several accumulators), but any order of summing n
    terms errs by at most gamma_(n-1) times their absolute sum (Higham
    Lemma 3.1 and Section 4.2), which those n roundings of K already
    count.  Terms that underflow are below 1e-300 times the table sizes
    and are not counted.  If e^(+-i m theta) / (p; p)_m leaves the double
    range on any row (rho far off the real axis), no row is certified.
    """
    k, poch, c, c_abs, qn = _ascending_tables(ctx.q, top)
    theta = 2.0 * complex(rho) * math.log(ctx.q)
    rows = slice(top + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        up = np.exp(1j * theta * k) / poch
        down = np.exp(-1j * theta * k) / poch
        if not (np.isfinite(up).all() and np.isfinite(down).all()):
            return np.full(top + 1, np.nan, dtype=complex), np.full(top + 1, np.inf)
        # h and its twin keep the extra row too, for the second convolution
        h = np.convolve(up, down)[: top + 2]
        h_abs = np.convolve(abs(up), abs(down))[: top + 2]
        vals = qn[rows] * np.convolve(c, h)[rows]
        Ku = ((12.0 + 6.0 * abs(theta)) * k[rows] + 30.0) * 2.0**-53
        gamma = np.where(Ku < 0.5, Ku / (1.0 - 2.0 * Ku), np.inf)
        bound = gamma * qn[rows] * np.convolve(c_abs, h_abs)[rows]
    if complex(rho).imag == 0.0:
        vals = vals.real.astype(complex)
    return vals, bound


def phi_rho(rho: complex, n, ctx: QContext) -> complex | np.ndarray:
    """Spherical function phi_rho at the grid points y = q^(2n).

    The terminating series of n+1 terms

        sum_k (q^(-2n); q^2)_k (q^(1+2i rho); q^2)_k (q^(1-2i rho); q^2)_k
              / ((q^2; q^2)_k)^2 * q^(2k),

    normalized by phi_rho(1) = 1.  Takes an int n (returns a complex) or a
    sequence of row indices (returns a complex array, in the given order).
    Each row is first summed in double from its ascending Al-Salam-Chihara
    form (_phi_ascending), whose terms have no q^(-n(n-1)) sizes; a row
    whose a-priori rounding bound exceeds 1e-13 is summed instead from the
    series above in integer fixed point (_phi_series).  The choice is made
    row by row and each row's sum depends on that row alone, so a row
    comes out bitwise the same in any call.
    """
    rows = np.atleast_1d(n)
    if min(rows, default=0) < 0:
        raise DomainError("grid index must be nonnegative")
    rows = rows.astype(int)
    vals, bound = _phi_ascending(rho, int(max(rows, default=0)), ctx)
    out = vals[rows]
    rough = ~(bound[rows] <= _PHI_CERT_TOL)  # a nan bound is rough too
    if rough.any():
        out[rough] = _phi_series(rho, rows[rough], ctx)
    return complex(out[0]) if np.ndim(n) == 0 else out


def _series_bits(n: int, q: float) -> int:
    """_phi_digits(n, q) in bits, plus 32 guard bits: the fixed-point
    precision of _phi_series on row n."""
    return math.ceil(_phi_digits(n, q) * math.log2(10)) + 32


def _fixed_to_float(x: int, bits: int) -> float:
    """The fixed-point number x / 2^bits as the nearest double (true
    integer division rounds correctly); past the double range, +-inf."""
    try:
        return x / (1 << bits)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _phi_series(rho: complex, n, ctx: QContext) -> complex | np.ndarray:
    """phi_rho's terminating series summed in integer fixed point: the
    reference of the ascending form, and phi_rho's route for rows it
    cannot certify.

    Terminating series of n+1 terms

        sum_k (q^(-2n); q^2)_k (q^(1+2i rho); q^2)_k (q^(1-2i rho); q^2)_k
              / ((q^2; q^2)_k)^2 * q^(2k),

    normalized by phi_rho(1) = 1.  Takes an int n (returns a complex) or a
    sequence of row indices (returns a complex array, in the given order).
    Across rows the terms differ only in the factor (q^(-2n); q^2)_k, so
    all rows share one table of q^(2j), of 1 - q^(-2j) and of the n-free
    term ratio, built at the precision of the largest row (see module
    docstring); row n then takes n multiplications.

    The sums run in Python-integer fixed point: an integer X stands for
    X / 2^B, and a complex number is a pair of them.  B is _phi_digits in
    bits plus 32 guard bits: the tables are built at the largest row's B,
    and each row is summed at its own, with the tables cut down to it.  q
    is read exactly (float.as_integer_ratio), so the one rounded input is
    the scalar s = 2q cos(2 rho ln q), taken from mpmath at the tables' B.
    Each table entry and each product drops less than one unit of 2^-B,
    and q^(-2j) is stepped from 1/q^2 so that it keeps its relative
    precision.  A term past 2^64 keeps B + 64 significant bits, like a
    float, which is all the cancellation down to the q^n-sized value
    needs.  Each sum is rounded to double once, by true integer division;
    a value past the double range becomes +-inf.  For real rho every
    imaginary part is exactly zero and its products cost next to nothing.
    """
    rows = np.atleast_1d(n)
    if min(rows, default=0) < 0:
        raise DomainError("grid index must be nonnegative")
    top = int(max(rows, default=0))
    q = ctx.q
    bits = _series_bits(top, q)
    one = 1 << bits
    a, b = q.as_integer_ratio()
    q2 = (a * a << bits) // (b * b)
    with mpmath.workprec(bits):
        qm = mpmath.mpf(q)
        s = mpmath.mpc(2 * qm * mpmath.cos(2 * mpmath.mpmathify(rho) * mpmath.log(qm)))
        s_re, s_im = (mpmath.libmp.to_fixed(part._mpf_, bits) for part in (s.real, s.imag))
    q2j = [one]
    inv = [one]
    inv_q2 = (b * b << bits) // (a * a)
    for _ in range(top):
        q2j.append(q2j[-1] * q2 >> bits)
        inv.append(inv[-1] * inv_q2 >> bits)
    # drop[j] = 1 - q^(-2j) is the (q^(-2n); q^2) factor at k = n - j;
    # row n stops before k = n, where it would vanish.  q^(-2j) is stepped
    # from 1/q^2 itself, so it keeps its relative precision at small q
    drop = [one - p for p in inv]
    # (1 - q^(1+2i rho) x)(1 - q^(1-2i rho) x) = 1 - s x + q^2 x^2 at
    # x = q^(2k), times q^2 / (1 - q^2 x)^2, a real factor
    ratio = []
    for x in q2j[:top]:
        num_re = one + (q2 * (x * x >> bits) >> bits) - (s_re * x >> bits)
        den = (one - (q2 * x >> bits)) ** 2 >> bits
        ratio.append((num_re * q2 // den, -(s_im * x >> bits) * q2 // den))
    vals = []
    for m in rows:
        # row m is summed at the bits of its own _phi_digits, so the
        # shared tables are cut down to them
        prec = _series_bits(m, q)
        cut = bits - prec
        total_re, total_im = 1 << prec, 0
        # term = (term_re + i term_im) 2^(scale - prec): past 2^64 a term
        # drops its low bits like a float, keeping prec + 64 of them
        term_re, term_im, scale = 1 << prec, 0, 0
        for k in range(m):
            d, (r_re, r_im) = drop[m - k] >> cut, ratio[k]
            f_re, f_im = d * (r_re >> cut) >> prec, d * (r_im >> cut) >> prec
            term_re, term_im = (
                (term_re * f_re - term_im * f_im) >> prec,
                (term_re * f_im + term_im * f_re) >> prec,
            )
            excess = max(term_re.bit_length(), term_im.bit_length()) - prec - 64
            if excess > 0:
                term_re >>= excess
                term_im >>= excess
                scale += excess
            total_re += term_re << scale
            total_im += term_im << scale
        vals.append(complex(_fixed_to_float(total_re, prec), _fixed_to_float(total_im, prec)))
    return vals[0] if np.ndim(n) == 0 else np.array(vals, dtype=complex)


def phi_column(rho: float, npoints: int, ctx: QContext) -> np.ndarray:
    """phi_rho on grid rows 0..npoints-1 via the eigen-recurrence, as a
    float64 array.  rho must be real (a complex rho with a nonzero
    imaginary part raises DomainError); phi_rho covers complex rho."""
    return phi_matrix(np.array([rho]), npoints, ctx)[0]


def phi_matrix(rhos: np.ndarray, npoints: int, ctx: QContext) -> np.ndarray:
    """Matrix phi[rho_j, n] on grid rows 0..npoints-1 for all rho_j at once.

    Stable evaluation used by the transform machinery: seed phi(1) = 1,
    step with the three-term stencil at eigenvalue lambda(rho).  On the
    continuous spectrum both solutions share the q^n envelope, so forward
    stepping does not amplify.  Cross-checked against phi_rho in tests.

    Every rho must be real (a nonzero imaginary part raises DomainError),
    so lambda(rho) and every entry are real: the recurrence runs in
    float64 and writes one contiguous row per grid point.  The result has
    shape (len(rhos), npoints) and is the transpose of that row-major
    (npoints, len(rhos)) array.
    """
    rhos = np.asarray(rhos)
    if np.iscomplexobj(rhos) and np.any(rhos.imag != 0.0):
        raise DomainError("phi tables take real rho only; phi_rho takes complex rho")
    rows = np.empty((npoints, len(rhos)))
    _recur(rows, lambda_rho(rhos.real, ctx).real, ctx)
    return rows.T


def _recur(rows: np.ndarray, lam: np.ndarray, ctx: QContext, start: int = 0) -> None:
    """Fill rows[start:] of a row-major phi table, one column per
    eigenvalue in lam, by the eigen-recurrence from the rows above start.
    Every step is elementwise in the columns, so a column comes out the
    same whatever the other columns or the rows below are."""
    up, diag, down = stencil_coefficients(ctx, len(rows))
    if start == 0:
        rows[:1] = 1.0
    if start <= 1 and len(rows) > 1:
        rows[1] = (lam - diag[0]) / down[0]
    for n in range(max(start, 2) - 1, len(rows) - 1):
        rows[n + 1] = ((lam - diag[n]) * rows[n] - up[n] * rows[n - 1]) / down[n]


def psi_rho(rho: complex, n: int, ctx: QContext) -> complex:
    """Second solution y^(1/2 - i rho) * 2Phi1 at y = q^(2n).

    Series coefficients (q^(1-2i rho); q^2)_k^2 /
    ((q^(2-4i rho); q^2)_k (q^2; q^2)_k) q^(2k) y^k; the prefactor is
    exp((1/2 - i rho) * 2n ln q).  Defined away from rho in (1/2i) N,
    where a denominator factor vanishes (PoleError); a non-finite rho
    raises DomainError.
    """
    rho = complex(rho)
    if not cmath.isfinite(rho):
        raise DomainError(f"psi_rho rho {rho} is not finite")
    q = ctx.q
    q2 = ctx.q2
    lnq = math.log(q)
    b = cmath.exp((1 - 2j * rho) * lnq)       # q^(1-2i rho)
    c = cmath.exp((2 - 4j * rho) * lnq)       # q^(2-4i rho)
    y = q2**n
    prefactor = cmath.exp((0.5 - 1j * rho) * 2 * n * lnq)
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    k = 0
    while True:
        den = (1.0 - c * q2**k) * (1.0 - q2 ** (k + 1))
        if abs(den) < 1e-13:
            raise PoleError(f"psi_rho parameter pole at rho={rho}")
        term *= (1.0 - b * q2**k) ** 2 / den * q2 * y
        total += term
        k += 1
        ratio = abs(q2 * y)
        if abs(term) * ratio / (1 - ratio) < ctx.series_tol:
            break
        if k > 100_000:
            raise DomainError("psi_rho series did not converge")
    return prefactor * total


def c_coefficient(rho: complex, ctx: QContext) -> complex:
    """Harmonic-analysis c-coefficient Gamma_{q^2}(2 i rho) / Gamma_{q^2}(1/2 + i rho)^2.

    Connects phi_rho to the pair psi_{+rho}, psi_{-rho}:
    phi = c(rho) psi_rho + c(-rho) psi_{-rho}.
    """
    q2 = ctx.q2
    return qgamma(2j * rho, q2) / qgamma(0.5 + 1j * rho, q2) ** 2


def sigma_density(rho: float, ctx: QContext) -> float:
    """Density of the spectral (Plancherel) measure on [0, 2*pi/h].

    (1/4pi) (h/(1-q^2)) |Gamma_{q^2}(1/2 - i rho)^2 / Gamma_{q^2}(-2 i rho)|^2
    evaluated through the pole-free product quotient

        Gamma^2(1/2 - i rho) / Gamma(-2 i rho)
            = (q^2; q^2)_inf (q^(-4 i rho); q^2)_inf / (q^(1-2 i rho); q^2)_inf^2,

    which vanishes smoothly at the period endpoints.
    """
    period = ctx.rho_period()
    if rho <= 0.0 or rho >= period:
        return 0.0
    q = ctx.q
    q2 = ctx.q2
    lnq = math.log(q)
    half = (
        _euler_product(q2)
        * qpochhammer(cmath.exp(-4j * rho * lnq), q2, math.inf)
        / qpochhammer(cmath.exp((1 - 2j * rho) * lnq), q2, math.inf) ** 2
    )
    dens = (half * half.conjugate()).real
    return ctx.h / (4.0 * math.pi * (1.0 - q2)) * dens


def _density_vector(rhos: np.ndarray, ctx: QContext) -> np.ndarray:
    """Vectorized density evaluation."""
    q2 = ctx.q2
    lnq = math.log(ctx.q)
    w = np.exp(-4j * np.asarray(rhos) * lnq)      # q^(-4 i rho)
    b = np.exp((1 - 2j * np.asarray(rhos)) * lnq)  # q^(1-2 i rho)
    prod_w = np.ones_like(w)
    prod_b = np.ones_like(b)
    const = 1.0
    fac = 1.0
    k = 0
    while fac > 1e-18 and k < 10_000:
        qk = q2**k
        prod_w *= 1.0 - w * qk
        prod_b *= 1.0 - b * qk
        const *= 1.0 - q2 ** (k + 1)
        fac = q2 ** (k + 1)
        k += 1
    half = const * prod_w / prod_b**2
    dens = (half * np.conj(half)).real * ctx.h / (4.0 * math.pi * (1.0 - q2))
    period = ctx.rho_period()
    dens[(np.asarray(rhos) <= 0.0) | (np.asarray(rhos) >= period)] = 0.0
    return np.maximum(dens, 0.0)


@dataclass
class SpectralFunction:
    """Transform values on equispaced nodes of the spectral period.

    Transforms keep a reference to their source grid function so
    refinement re-evaluates exactly; quadrature then never relies on
    interpolation, which would smear the rounding of the large
    near-midpoint values of deep transforms over the whole period.
    """

    nodes: np.ndarray
    values: np.ndarray
    source: GridFunction


def _nodes(count: int, ctx: QContext) -> np.ndarray:
    period = ctx.rho_period()
    return period * np.arange(count) / count


# Node tables nest.  The nodes of count N are every (M/N)-th node of count
# M when M/N is a power of two (period j / N and period (2j) / (2N) round
# alike), phi and the density are evaluated node by node, and phi's rows
# 0..n-1 do not depend on the rows below them.  So phi and the density each
# keep one cover per (q, odd part c of the count), its columns in
# coarse-to-fine order: the c nodes of count c, then the c nodes that count
# 2c adds, then the 2c nodes that count 4c adds, and so on.  The table on
# c 2^k nodes and n rows is the cover's first c 2^k columns and first n
# rows, bit for bit what a direct build on those nodes gives, and it is
# served as a read-only view of the cover.  A cover grows by appending the
# columns of the nodes it lacks and the rows it lacks.
def _cover_key(kind: str, q: float, count: int) -> tuple:
    if count < 1:
        raise DomainError(f"node count {count} must be positive")
    return kind, q, count // (count & -count)


@functools.lru_cache(maxsize=64)
def _columns(count: int) -> np.ndarray:
    """The node table column of each of the count nodes, in ascending node
    order; read-only, and the same for every q.  Node 2j of an even count
    is node j of count/2, in its column; the odd nodes follow them."""
    if count % 2:
        cols = np.arange(count)
    else:
        cols = np.empty(count, dtype=np.intp)
        cols[::2] = _columns(count // 2)
        cols[1::2] = np.arange(count // 2, count)
    return _frozen(cols)


def _table_nodes(count: int, ctx: QContext) -> np.ndarray:
    """The count nodes in the order of the node table's columns."""
    nodes = np.empty(count)
    nodes[_columns(count)] = _nodes(count, ctx)
    return nodes


# A phi cover's rows are padded by this many doubles past its width.  On
# an unpadded cover of power-of-two width, the inverse's GEMM over a view
# of part of every row read up to 1.2-1.4x its time on a contiguous copy
# (65 rows, 2048 columns of 4096 or 8192, one BLAS thread, 2-core x86-64);
# with the pad it reads within about 15 % of the copy.
_ROW_PAD = 64


def _phi_table(q: float, count: int, npoints: int) -> np.ndarray:
    """Row-major phi table on count nodes and npoints rows: entry [n, p] is
    phi at row n and the node of column p (see _columns).  A read-only
    view of the cover, with one unit stride."""
    key = _cover_key("phi", q, count)
    cover = _COVERS.get(key)
    if cover is None or npoints > len(cover) or count > cover.shape[1]:
        ctx = QContext(q)
        rows, size = (0, 0) if cover is None else cover.shape
        grown_rows, grown_size = max(npoints, rows), max(count, size)
        lam = lambda_rho(_table_nodes(grown_size, ctx), ctx).real
        grown = np.empty((grown_rows, grown_size + _ROW_PAD))[:, :grown_size]
        if cover is not None:
            grown[:rows, :size] = cover
            _recur(grown[:, :size], lam[:size], ctx, rows)
        if grown_size > size:
            _recur(grown[:, size:], lam[size:], ctx)
        cover = _keep(key, _frozen(grown))
    else:
        _COVERS.move_to_end(key)
    return cover[:npoints, :count]


def _density_table(q: float, count: int) -> np.ndarray:
    """The density on count nodes, in the columns' order of the phi table:
    a read-only view of the cover."""
    key = _cover_key("density", q, count)
    cover = _COVERS.get(key)
    if cover is None or count > len(cover):
        ctx = QContext(q)
        old = np.empty(0) if cover is None else cover
        fresh = _density_vector(_table_nodes(count, ctx)[len(old) :], ctx)
        cover = _keep(key, _frozen(np.concatenate((old, fresh))))
    else:
        _COVERS.move_to_end(key)
    return cover[:count]


def _real_matmul(table: np.ndarray, v: np.ndarray) -> np.ndarray:
    """table @ v for a real table and a complex vector or (k, m) matrix, as
    one real GEMM on v's (k, 2m) float view; table @ v itself would cast
    table to complex."""
    v = np.ascontiguousarray(v, dtype=complex)
    cols = v if v.ndim == 2 else v[:, None]
    out = (table @ cols.view(float)).view(complex)
    return out if v.ndim == 2 else out.ravel()


def _forward(phi: np.ndarray, g: GridFunction, ctx: QContext) -> np.ndarray:
    """(1-q^2) sum_m phi[m, :] g(q^(2m)) q^(-2m) over a row-major phi table,
    contracted over the basic slice of rows up to g's last nonzero one, so
    the table is not copied, and weighted only on the nonzero rows (the
    weights of _integral_weights, from one scan for the nonzero rows)."""
    nz = np.flatnonzero(g.values)
    rows = int(nz[-1]) + 1 if len(nz) else 0
    weights = np.zeros(rows)
    weights[nz] = _row_weights(nz, ctx)
    return (1.0 - ctx.q2) * _real_matmul(phi[:rows].T, g.values[:rows] * weights)


def transform_forward(
    g: GridFunction, ctx: QContext, node_count: int = 1024
) -> SpectralFunction:
    """Spherical transform of a finite radial grid function.

    hat f(rho) = integral_0^1 phi_rho(y) f(y) y^(-2) d_{q^2} y
               = (1-q^2) sum_m phi_rho(q^(2m)) f(q^(2m)) q^(-2m),

    an exact finite sum, evaluated on equispaced nodes.  A weight q^(-2m)
    past the double range on g's support raises CapacityError.
    """
    if not g.finite_support:
        raise DomainError("spherical transform requires finite support")
    vals = _forward(_phi_table(ctx.q, node_count, len(g.values)), g, ctx)
    return SpectralFunction(_nodes(node_count, ctx), vals[_columns(node_count)], source=g)


# settle tolerances of transform_inverse
_QUAD_ABS_TOL = 1e-11
_QUAD_REL_TOL = 1e-12


def _start_nodes(ctx: QContext, depth: int = 0) -> int:
    """Start count N0 of transform_inverse for a source reaching row depth:
    the power of two past ln(1/eps)/ln(1/q) + 2 depth.  The trapezoid error
    falls like q^N in the strip |Im h rho| < ln(1/q) of analyticity
    (Trefethen-Weideman 2014, Thm 3.2), eps = 1e-14 is three decades under
    the absolute settle tolerance and 2 depth covers the forward weights'
    range q^(-2 depth).  The inverse evaluates on 2 N0 and then 4 N0 nodes,
    reading the N0- and 2 N0-node sums off those passes; a power of two
    has odd part 1, so those counts, and the forward's power-of-two counts,
    are slices of one node-table cover per q at any depth."""
    need = math.log(1e3 / _QUAD_ABS_TOL) / math.log(1.0 / ctx.q) + 2 * depth
    return 1 << math.ceil(math.log2(need))


def _inverse_on_nodes(
    F, ctx: QContext, count: int, npoints: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Periodic-trapezoid inverse transform on count/2 and on count
    equispaced nodes from one pass over the count nodes, and the rounding
    floor of the count-node sums.

    F is either a SpectralFunction, re-evaluated exactly from its source
    grid function on these nodes, or a callable called once on the array
    of the count nodes in the node table's order.  The count/2 nodes are
    the first half of the table's columns, so one real GEMM of the table
    against two weight columns, the weights with the second half zeroed
    and all of them, gives both sums.
    """
    if isinstance(F, SpectralFunction):
        table = _phi_table(ctx.q, count, max(npoints, len(F.source.values)))
        fv = _forward(table, F.source, ctx)
    else:
        table = _phi_table(ctx.q, count, npoints)
        fv = F(_table_nodes(count, ctx))
    columns = np.zeros((count, 2), dtype=complex)
    weighted = np.multiply(fv, _density_table(ctx.q, count), out=columns[:, 1])
    columns[: count // 2, 0] = weighted[: count // 2]
    sums = _real_matmul(table[:npoints], columns)
    period = ctx.rho_period()
    coarse = (2.0 * period / count) * sums[:, 0]
    fine = (period / count) * sums[:, 1]
    # rounding floor of the quadrature sums: spectral values of deep
    # deltas reach q^(-2n) sizes and the summation noise accumulates
    # like sqrt(count); differences below this are indistinguishable
    # from rounding (the integrands here are entire and periodic, so
    # the discretization error collapses far faster than this floor)
    mean = float(np.mean(np.abs(weighted)))
    floor = 32.0 * np.finfo(float).eps * period * math.sqrt(count) * mean
    return coarse, fine, floor


def transform_inverse(F, ctx: QContext, npoints: int | None = None) -> GridFunction:
    """Inverse spherical transform by periodic-trapezoid quadrature.

    f(q^(2n)) = integral_0^{2 pi/h} phi_rho(q^(2n)) F(rho) dsigma(rho).

    F is either a SpectralFunction, re-evaluated exactly from its source
    at each node set (its node count plays no part), or a callable on an
    array of rho.  With N0 the _start_nodes count for the last nonzero row
    of F's source (0 for a callable), one pass on 2 N0 nodes gives the N0-
    and 2 N0-node sums; when they differ by more than max(1e-11, 1e-12 *
    scale, rounding floor), one pass on 4 N0 nodes compares 2 N0 with 4 N0
    by the same rule, and not settling there raises QuadratureError.
    """
    if npoints is None:
        npoints = ctx.npoints
    depth = 0
    if isinstance(F, SpectralFunction):
        depth = int(np.flatnonzero(F.source.values).max(initial=0))
    start = _start_nodes(ctx, depth)
    for count in (2 * start, 4 * start):
        coarse, out, floor = _inverse_on_nodes(F, ctx, count, npoints)
        diff = float(np.max(np.abs(out - coarse)))
        if diff <= max(_QUAD_ABS_TOL, _QUAD_REL_TOL * float(np.max(np.abs(out))), floor):
            return GridFunction(out, finite_support=False)
    raise QuadratureError(
        f"inverse transform did not settle below tol by {count} nodes "
        f"(last change {diff:.3e})"
    )


def spectrum_probe(dim: int, ctx: QContext) -> tuple[float, float]:
    """Extreme eigenvalues of the symmetrized dim x dim truncation.

    The radial operator is symmetric under the weight q^(-2n); conjugating
    by diag(q^(-n)) gives a real symmetric tridiagonal matrix whose
    spectrum sits inside [-1/(1-q)^2, -1/(1+q)^2] and fills it as dim
    grows.  The eigenvalues come from a dense symmetric solve, meant for
    dims up to a few hundred.
    """
    if dim < 2:
        raise DomainError("spectrum probe needs dim >= 2")
    _, diag, down = stencil_coefficients(ctx, dim)
    off = ctx.q * down[: dim - 1]
    vals = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return float(vals[0]), float(vals[-1])
