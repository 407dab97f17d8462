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
priori.  A row whose bound exceeds 1e-13 (about half of rows 0..31 at
q = 0.7, all but the first one or two from q = 0.9 on) falls back to the 3phi2 series
summed in multiprecision, with the working precision growing with n; the
rows of one call share those tables, built once at the precision of the
largest row.  Transform machinery instead evaluates phi columns through
the eigen-recurrence seeded at the disc centre, which is numerically
stable on the continuous spectrum; the routes are cross-checked in the
test suite and by the verify registry.

Node tables.  The transform's nodes are real, so phi_matrix steps the
recurrence in real arithmetic, one contiguous row of float64 per grid
point, and the transform contracts those tables with complex operands as
real GEMMs on the operands' (k, 2) float views, so no table is ever cast
to complex.  The tables and densities on each node set are kept in
bounded LRU caches, read-only.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .context import QContext, _frozen
from .discalg import GridFunction, _row_weights
from .errors import DomainError, PoleError, QuadratureError
from .qspecial import qgamma, qpochhammer
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


def _cauchy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Cauchy products d_j = sum_{i<=j} a_i b_(j-i) along the last axis.

    Row j of the table a_i b_((j-i) mod n) is added in the order i = 0..j
    and read at i = j, so d_j depends on a[..., :j+1] and b[..., :j+1]
    alone: longer tables give bitwise the same entries.
    """
    n = a.shape[-1]
    lag = np.arange(n)[:, None] - np.arange(n)
    partial = np.cumsum(a[..., None, :] * np.take(b, lag, axis=-1, mode="wrap"), axis=-1)
    return np.diagonal(partial, axis1=-2, axis2=-1)


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
    (p; p)_(m-k)).  Every sum is finite, so nothing is truncated.

    The bound is gamma_K q^n sum |terms| (Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 3), the sum taken over the same tables in
    absolute value, with gamma_K = Ku/(1 - 2Ku) so that it also covers the
    rounding of that sum.  K = (12 + 6 |theta|) n + 30 bounds the roundings
    that reach one term of row n: 10 for each factor 1 - p^i of a (p; p)_k,
    taken as -expm1(2 i ln q) so it does not cancel as q -> 1 (log and
    expm1 within 4 ulp each); 4 for each pow; 6 |m theta| ulp of phase
    error in e^(i m theta); and n for the three nested sums.  Terms that
    underflow are below 1e-300 times the table sizes and are not counted.
    """
    q = ctx.q
    lnq = math.log(q)
    theta = 2.0 * complex(rho) * lnq
    k = range(top + 1)
    poch = np.cumprod([1.0] + [-math.expm1(2 * i * lnq) for i in k[1:]])
    euler = np.array([(-1) ** j * math.pow(q, j * j) for j in k]) / poch
    try:
        up = np.array([cmath.exp(1j * m * theta) for m in k]) / poch
        down = np.array([cmath.exp(-1j * m * theta) for m in k]) / poch
    except OverflowError:
        # e^(i m theta) leaves the double range (rho far off the real
        # axis), so no row is certified
        return np.full(top + 1, np.nan, dtype=complex), np.full(top + 1, np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        # row 0 of each stack carries the values, row 1 their absolute twins
        twins = np.stack([euler, abs(euler)])
        c = _cauchy(twins, twins)
        h = _cauchy(np.stack([up, abs(up)]), np.stack([down, abs(down)]))
        total = _cauchy(c, h)
        qn = np.array([math.pow(q, n) for n in k])
        vals = qn * total[0]
        Ku = ((12.0 + 6.0 * abs(theta)) * np.arange(top + 1) + 30.0) * 2.0**-53
        gamma = np.where(Ku < 0.5, Ku / (1.0 - 2.0 * Ku), np.inf)
        bound = gamma * qn * total[1].real
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
    series above in multiprecision (_phi_series).  The choice is made row
    by row and each row's sum depends on that row alone, so a row comes
    out bitwise the same in any call.
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


def _phi_series(rho: complex, n, ctx: QContext) -> complex | np.ndarray:
    """Multiprecision sum of phi_rho's terminating series: the reference
    of the ascending form, and phi_rho's route for rows it cannot certify.

    Terminating series of n+1 terms

        sum_k (q^(-2n); q^2)_k (q^(1+2i rho); q^2)_k (q^(1-2i rho); q^2)_k
              / ((q^2; q^2)_k)^2 * q^(2k),

    normalized by phi_rho(1) = 1.  Takes an int n (returns a complex) or a
    sequence of row indices (returns a complex array, in the given order).
    Across rows the terms differ only in the factor (q^(-2n); q^2)_k, so
    all rows share one table of q^(2j), of 1 - q^(-2j) and of the n-free
    term ratio, built in multiprecision at the precision of the largest
    row (see module docstring); row n then takes n multiplications.
    """
    rows = np.atleast_1d(n)
    if min(rows, default=0) < 0:
        raise DomainError("grid index must be nonnegative")
    top = int(max(rows, default=0))
    q = ctx.q
    with mpmath.workdps(_phi_digits(top, q)):
        qm = mpmath.mpf(q)
        q2 = qm * qm
        # (1 - q^(1+2i rho) x)(1 - q^(1-2i rho) x) = 1 - s x + q^2 x^2, with
        # s real for real rho, so real rho sums in real arithmetic
        s = 2 * qm * mpmath.cos(2 * mpmath.mpmathify(rho) * mpmath.log(qm))
        q2j = [mpmath.mpf(1)]
        for _ in range(top):
            q2j.append(q2j[-1] * q2)
        # drop[j] = 1 - q^(-2j) is the (q^(-2n); q^2) factor at k = n - j;
        # row n stops before k = n, where it would vanish
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
    lam = lambda_rho(rhos.real, ctx).real
    up, diag, down = stencil_coefficients(ctx, npoints)
    rows = np.empty((npoints, len(lam)))
    rows[:1] = 1.0
    if npoints > 1:
        rows[1] = (lam - diag[0]) / down[0]
        for n in range(1, npoints - 1):
            rows[n + 1] = ((lam - diag[n]) * rows[n] - up[n] * rows[n - 1]) / down[n]
    return rows.T


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
        qpochhammer(q2, q2, math.inf)
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


# Quadrature data on the equispaced node sets depends on q alone, so the
# transforms share it across contexts; cached arrays are read-only since
# every caller shares them.  The bounds keep every key of a pass resident
# (a spectral benchmark pass uses about 145 phi and 45 density keys).
@functools.lru_cache(maxsize=256)
def _phi_on_nodes(q: float, count: int, npoints: int) -> np.ndarray:
    """Row-major phi table: entry [n, j] is phi at row n and node j."""
    ctx = QContext(q)
    return _frozen(phi_matrix(_nodes(count, ctx), npoints, ctx).T)


@functools.lru_cache(maxsize=64)
def _density_on_nodes(q: float, count: int) -> np.ndarray:
    ctx = QContext(q)
    return _frozen(_density_vector(_nodes(count, ctx), ctx))


def _real_matmul(table: np.ndarray, v: np.ndarray) -> np.ndarray:
    """table @ v for a real table and a complex vector, as one real GEMM on
    v's (k, 2) float view; table @ v itself would cast table to complex."""
    pairs = np.ascontiguousarray(v, dtype=complex).view(float).reshape(-1, 2)
    return (table @ pairs).view(complex).ravel()


def _forward(phi: np.ndarray, g: GridFunction, ctx: QContext) -> np.ndarray:
    """(1-q^2) sum_m phi[m, :] g(q^(2m)) q^(-2m) over a row-major phi table,
    contracted over g's nonzero rows m only, and weighted only there."""
    nz = np.flatnonzero(g.values)
    return (1.0 - ctx.q2) * _real_matmul(phi[nz].T, g.values[nz] * _row_weights(nz, ctx))


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
    vals = _forward(_phi_on_nodes(ctx.q, node_count, len(g.values)), g, ctx)
    return SpectralFunction(_nodes(node_count, ctx), vals, source=g)


# settle tolerances of transform_inverse
_QUAD_ABS_TOL = 1e-11
_QUAD_REL_TOL = 1e-12


def _start_nodes(ctx: QContext, depth: int = 0) -> int:
    """Start count N0 of transform_inverse for a source reaching row depth:
    the power of two past ln(1/eps)/ln(1/q) + 2 depth.  The trapezoid error
    falls like q^N in the strip |Im h rho| < ln(1/q) of analyticity
    (Trefethen-Weideman 2014, Thm 3.2), eps = 1e-14 is three decades under
    the absolute settle tolerance and 2 depth covers the forward weights'
    range q^(-2 depth); powers of two nest, so depths share cached tables."""
    need = math.log(1e3 / _QUAD_ABS_TOL) / math.log(1.0 / ctx.q) + 2 * depth
    return 1 << math.ceil(math.log2(need))


def _inverse_on_nodes(F, ctx: QContext, count: int, npoints: int) -> tuple[np.ndarray, float]:
    """Periodic-trapezoid inverse transform on count equispaced nodes, and
    the rounding floor of its sums.

    F is either a SpectralFunction, re-evaluated exactly from its source
    grid function on these nodes, or a callable called on the node array.
    """
    if isinstance(F, SpectralFunction):
        fv = _forward(_phi_on_nodes(ctx.q, count, len(F.source.values)), F.source, ctx)
    else:
        fv = F(_nodes(count, ctx))
    weighted = fv * _density_on_nodes(ctx.q, count)
    period = ctx.rho_period()
    out = (period / count) * _real_matmul(_phi_on_nodes(ctx.q, count, npoints), weighted)
    # rounding floor of the quadrature sums: spectral values of deep
    # deltas reach q^(-2n) sizes and the summation noise accumulates
    # like sqrt(count); differences below this are indistinguishable
    # from rounding (the integrands here are entire and periodic, so
    # the discretization error collapses far faster than this floor)
    mean = float(np.mean(np.abs(weighted)))
    floor = 32.0 * np.finfo(float).eps * period * math.sqrt(count) * mean
    return out, floor


def transform_inverse(F, ctx: QContext, npoints: int | None = None) -> GridFunction:
    """Inverse spherical transform by periodic-trapezoid quadrature.

    f(q^(2n)) = integral_0^{2 pi/h} phi_rho(q^(2n)) F(rho) dsigma(rho).

    F is either a SpectralFunction, re-evaluated exactly from its source
    at each node set (its node count plays no part), or a callable on an
    array of rho.  The sum starts at _start_nodes' N0 for the last nonzero
    row of F's source (0 for a callable) and doubles until outputs move by
    less than max(1e-11, 1e-12 * scale, rounding floor); not settling by
    4 N0 nodes raises QuadratureError.
    """
    if npoints is None:
        npoints = ctx.npoints
    depth = 0
    if isinstance(F, SpectralFunction):
        depth = int(np.flatnonzero(F.source.values).max(initial=0))
    start = _start_nodes(ctx, depth)
    prev, _ = _inverse_on_nodes(F, ctx, start, npoints)
    for count in (2 * start, 4 * start):
        out, floor = _inverse_on_nodes(F, ctx, count, npoints)
        diff = float(np.max(np.abs(out - prev)))
        if diff <= max(_QUAD_ABS_TOL, _QUAD_REL_TOL * float(np.max(np.abs(out))), floor):
            return GridFunction(out, finite_support=False)
        prev = out
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
