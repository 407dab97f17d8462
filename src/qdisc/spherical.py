"""Spectral theory of the radial Laplacian.

Eigenfunctions, the eigenvalue curve lambda(rho), the spectral density on
the period [0, 2*pi/h], and the forward/inverse spherical transform pair
for radial grid functions, plus a probe of the truncated spectrum that
bisects on the pivot signs of the stencil's own elimination, in O(dim)
per step with no matrix built.

Evaluation notes.  The terminating 3phi2 series defining the spherical
function phi_rho(q^(2n)) cancels catastrophically in fixed precision once
n is moderate (its terms reach size ~ q^(-n(n-1)) while the value decays
like q^n).  phi_rho is also an Al-Salam-Chihara polynomial in base q^2,
and its ascending form from the generating function has no such terms, so
phi_rho sums that form in double and bounds each row's rounding error a
priori.  The form's terms regroup into a cosine polynomial, phi_n =
sum_l a_(n,l) w_l with w_0 = 1 and w_l = 2 cos(l theta), whose
coefficients depend on q alone: one cover per q holds them, their
absolute twin and that twin's row sums, so the rows of one rho are one
elementwise product of the table with the weights, and the rounding
bound of a real rho reads a cached row.  The form's absolute sum
(_phi_majorant), the absolute table against the weights 2 cosh(l b),
bounds |phi_n| on a strip |Im theta| <= b, and it is the one quantity
behind three certificates: the rounding bound of a row, the precision of
the series' cosine below, and the aliasing bound of the inverse
transform.  A row whose bound exceeds 1e-13 (about half of rows 0..31 at
q = 0.7, all but the first one or two from q = 0.9 on) falls back to the
3phi2 series summed in Python-integer fixed point, with the working
precision growing with n; the rows of one call share those tables, built
once at the precision of the largest row, and each row is summed at its
own.  The one
rounded input of that sum, the scalar s = 2q cos(2 rho ln q), comes from
a stdlib-integer routine at a precision w set by a bound, not at the
sum's own: a row is a degree-n polynomial in x = cos theta, so by Markov's
inequality an error dx in x moves it by at most n^2 M_n |dx|, M_n the
majorant's bound on its modulus on [-1, 1], and w is the least that keeps
this below 2^-127 (see _phi_series).  No module of the package imports
mpmath; the test suite keeps it as the oracle.  Transform machinery
instead evaluates phi columns through the eigen-recurrence seeded at the
disc centre, which is numerically stable on the continuous spectrum; the
routes are cross-checked in the test suite and by the verify registry.

Density.  sigma_density turns the q-Gamma quotient of the Plancherel
density into theta sums in the dual nome e^(-4 pi^2/h), by the triple
product and Jacobi's imaginary transformation: eight terms, every
exponent <= 0, at any q.  The registry keeps the quotient as its oracle.

Node tables.  The transform's nodes are real, so phi_matrix steps the
recurrence in real arithmetic, one contiguous row of float64 per grid
point, and the transform contracts those tables with complex operands as
real GEMMs on the operands' (k, 2) float views, so no table is ever cast
to complex.  phi and the density depend on rho only through cos(h rho),
so of the N equispaced nodes j P/N, node N - j carries the same values as
node j: a table holds the N//2 + 1 distinct nodes j = 0..N//2 alone.  The
node set of N nodes is every other node of the set of 2N, and both phi
and the density are evaluated node by node, so both are kept per (q, odd
part of the count) in one node cover whose columns run coarse to fine:
the distinct nodes of the odd part first, then the odd nodes j <= N that
each doubling to 2N adds.  The table on any count of that family is
the cover's first columns (and, for phi, its first rows), served as a
read-only view with one unit stride, bit for bit what a direct build on
those nodes gives; a request past the cover rebuilds it whole, on the
largest count and the most rows asked for so far.  The covers, at most
64 of them, are the only store of node tables, and transform_forward
returns its values on all N nodes in ascending order, a mirrored pair's
two values equal.

Inverse.  transform_inverse sums the inversion integral by the periodic
trapezoid rule in one pass, on a count certified by a bound rather than
settled by comparing counts.  The integrand phi_n F sigma is a
trigonometric polynomial times the density, whose continuation has simple
poles at Im rho = +-(2j+1)/2; the residue theorem on the trapezoid rule's
kernel (Trefethen-Weideman 2014) splits the error into those poles' terms,
exact, and integrals over lines between them, bounded by the majorant
and the density's theta form (_delta_bounds).
phi is 1 at the first poles, so the leading term is the same on every row
and is the measured error to rounding.  The certified count is the least
power of two whose bound meets the settle tolerance; a callable spectral
image, which has no bound, keeps the rule that compares N0 with 2 N0
nodes.  The N-node sum is folded onto the table's distinct nodes: the
column of node j takes weight 2 for 0 < j < N/2 and 1 for j = 0 and
j = N/2, and a callable's values on the two nodes of a mirrored pair are
added, so the sum is the N-node one term for term, and the bound on it
holds as it stands.  The contraction over nodes runs in blocks of 4096
nodes, where a single GEMM slows down.  transform_forward's result keeps
its values on the table's distinct nodes, and when they cover the
certified count (same q and odd part, at least as many nodes) the inverse
reads their first columns in place of contracting the source again: a
round trip then contracts its source once, bit for bit as twice.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .context import QContext, _Covers, _frozen
from .discalg import GridFunction, _row_weights
from .errors import DomainError, PoleError, QuadratureError
from .qspecial import _euler_product, qgamma
from .uqsl2 import _pivots, stencil_coefficients


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


# Covers: per key, the largest q-only tables asked for so far, read-only.
# A larger request replaces the cover with one built whole, and the smaller
# one is dropped; smaller requests are served as its slices.  The store
# keeps the covers in order of use and holds at most 64 of them (a spectral
# benchmark pass uses 32: 16 q, each with a cosine cover and a node cover).
_COVERS = _Covers(64)


def _finite(rho, name: str) -> complex:
    """rho as a complex; a non-finite rho raises DomainError."""
    rho = complex(rho)
    if not cmath.isfinite(rho):
        raise DomainError(f"{name} rho {rho} is not finite")
    return rho


def _cosine_coefficients(q: float, size: int, signed: bool = True) -> np.ndarray:
    """The cosine tables of phi's ascending form on rows and columns
    0..size-1, size a power of two >= 32: entry [n, l] of the first is
    a_(n,l), and of the last its absolute twin, the same sum over |c_j|
    (the only table when signed is false).

    h_m (see _phi_ascending) is symmetric under k <-> m - k, so its terms k
    and m - k pair into h_m = sum_l w_l(theta) / ((p; p)_((m-l)/2)
    (p; p)_((m+l)/2)) over l = m, m - 2, ... >= 0, with w_0 = 1 and
    w_l = 2 cos(l theta), and phi_n = sum_(l<=n) a_(n,l) w_l(theta) with

        a_(n,l) = q^n sum_j c_j / ((p; p)_((n-j-l)/2) (p; p)_((n-j+l)/2))

    over j <= n - l with n - j - l even: the terms of the ascending form
    regrouped, and the same for complex theta.  The sum over j runs as one
    GEMM per parity of l, over mu with n - j = 2 mu + (l mod 2), in row
    blocks [0, 32), [32, 64), [64, 128), ...: block [lo, hi) takes rows
    lo..hi-1 of the Toeplitz matrix of c against the leading hi/2 rows and
    columns of the parity's coefficients of h, so its shapes and inputs do
    not depend on size.  c comes from np.convolve on size + 1 entries,
    whose entry j < size is one dot product over entries 0..j.  So the
    rows of a table are bitwise the same at every size.  Zero terms are
    exact zeros, and a_(n,l) = 0 for l > n.
    """
    lnq = math.log(q)
    k = np.arange(float(size + 1))
    poch = np.cumprod(np.concatenate(([1.0], -np.expm1(2 * k[1:] * lnq))))
    euler = np.where(k % 2, -1.0, 1.0) * np.power(q, k * k) / poch
    factors = (euler, abs(euler)) if signed else (abs(euler),)
    coefs = [np.convolve(e, e)[:size] for e in factors]
    inv = 1.0 / poch
    half = size // 2
    strided = np.lib.stride_tricks.as_strided
    # c_(n - 2 mu - parity) at [t, parity, n, mu] and 1/(p; p)_(mu - lam)
    # at [mu, lam], zero where the index is negative: strided views that
    # step back from c_0 (from 1/(p; p)_0) into the zeros before it, at most
    # size (half) entries
    padded = np.concatenate((np.zeros((len(coefs), size)), coefs), axis=1)[:, size:]
    step = padded.itemsize
    c = strided(padded, (len(coefs), 2, size, half), (padded.strides[0], -step, step, -2 * step))
    below = np.concatenate((np.zeros(half), inv[:half]))[half:]
    lower = strided(below, (half, half), (step, -step))
    # h[parity, mu, lam] = 1/((p; p)_(mu-lam) (p; p)_(mu+lam+parity)), the
    # coefficient of w_(2 lam + parity) in h_(2 mu + parity)
    h = lower * strided(inv, (2, half, half), (step, step, step))
    table = np.zeros((len(coefs), size, size))
    lo, hi = 0, 32
    while lo < size:
        block = c[:, :, lo:hi, : hi // 2] @ h[:, : hi // 2, : hi // 2]
        table[:, lo:hi, 0:hi:2] = block[:, 0]
        table[:, lo:hi, 1:hi:2] = block[:, 1]
        lo, hi = hi, 2 * hi
    table *= np.power(q, k[:size])[:, None]
    return table


def _cosine_cover(q: float, top: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cosine tables of _cosine_coefficients at q and the majorant at
    b = 0 on their rows, read-only, from one cover per q whose size is the
    least power of two >= max(32, top + 1); it is rebuilt only when top
    passes it, and its rows do not depend on its size."""
    key = ("cosine", q)
    cover = _COVERS.get(key)
    if cover is None or len(cover[0]) <= top:
        signed, absolute = _cosine_coefficients(q, max(32, 1 << top.bit_length()))
        cover = tuple(_frozen(t) for t in (signed, absolute, _phi_majorant(absolute, 0.0)))
    return _COVERS.keep(key, cover)


def _phi_majorant(absolute: np.ndarray, b) -> np.ndarray:
    """sum_l |a|_(n,l) w_l(i b) on the rows of absolute, a block of the
    absolute cosine table (_cosine_coefficients) with all its columns:
    w_0 = 1 and w_l(i b) = 2 cosh(l b).  A scalar b gives a vector, an array
    of b one column per b.  A row that meets a weight past the double range
    reads inf.

    It is the absolute sum of the terms of phi_n's ascending form
    (_phi_ascending) at |Im theta| = b, theta = 2 rho ln q: term k of h_m
    has modulus e^((m - 2k) Im theta) / ((p; p)_k (p; p)_(m-k)), and with
    term m - k it sums to 2 cosh((m - 2k) b) over that denominator, which
    grows with b.  So it bounds |phi_n| wherever |Im theta| <= b.
    _phi_ascending's rounding bound is gamma_K times it at b = |Im theta|,
    _cosine_bits reads it at b = 0 as the largest modulus on [-1, 1], and
    the aliasing bound's X rows are twice it at b = h y on the lines
    Im rho = +-y.  Every term is a nonnegative double, so its rounding is
    relative and of order n u.
    """
    with np.errstate(over="ignore"):
        w = 2.0 * np.cosh(np.multiply.outer(np.arange(float(absolute.shape[1])), b))
    w[0] = 1.0
    # |a|_(n,l) is zero for l > n, so a weight that overflows at l reaches
    # the rows n >= l alone
    over = np.isinf(w)
    rows = absolute @ np.where(over, 0.0, w)
    rows[np.logical_or.accumulate(over)[: len(rows)]] = np.inf
    return rows


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
    (p; p)_(m-k)).  Every sum is finite, so nothing is truncated.  Its
    terms regroup into the cosine polynomial phi_n = sum_(l<=n) a_(n,l)
    w_l(theta), w_0 = 1 and w_l = 2 cos(l theta), whose coefficients depend
    on q alone (_cosine_coefficients); a call takes the weights w_l for
    l <= top, zero past it, and each row as the elementwise product of its
    table row with them, summed over the cover's power-of-two width.  Table
    rows do not depend on the cover's size and the products past row n or
    past top are exact zeros, so a row comes out the same whatever top is.

    The bound is gamma_K q^n sum |terms| (Higham, Accuracy and Stability
    of Numerical Algorithms, ch. 3), the absolute sum being _phi_majorant at
    b = |Im theta| (cached with the cover at b = 0), with gamma_K =
    Ku/(1 - 2Ku) so that it also covers the rounding of that sum.
    K = (12 + 6 |theta|) n + 30 bounds the roundings that reach one term of
    row n, taking math.log within 1 ulp and numpy's expm1, pow and cos
    within 4 ulp each: 7 for each of the term's n factors 1 - p^i, taken as
    -expm1(2 i ln q) so it does not cancel as q -> 1 (2 in the argument,
    which expm1 does not amplify for an argument < 0, 4 in expm1 and 1 in
    the running product); 4 for each of its three pows; 9 for the four
    divisions and five products that form Euler's coefficients, c_j, h's
    coefficient and a_(n,l) and take it times w_l; 5n/2 for the three
    nested sums, over c_j's terms (j), over a_(n,l)'s ((n - l)/2) and over
    l (n); and 6 |theta| n + 8 for w_l, whose argument l theta carries
    three roundings, in units of 2 cosh(l Im theta), the weight of
    _phi_majorant.  The sum is (9.5 + 6 |theta|) n + 29.  The GEMM and the
    row sum add each entry's terms in orders of their own (BLAS kernels
    split them over several accumulators and may fuse a product with its
    sum), but any order of summing n terms errs by at most gamma_(n-1)
    times their absolute sum (Higham Lemma 3.1 and Section 4.2), which the
    count of the sums takes.  Terms that underflow are below 1e-300 times
    the table sizes and are not counted.  If a weight w_l, l <= top, leaves
    the double range (rho far off the real axis), no row is certified.
    """
    signed, absolute, majorant = _cosine_cover(ctx.q, top)
    theta = 2.0 * complex(rho) * math.log(ctx.q)
    index = np.arange(float(len(signed)))
    if theta.imag == 0.0:
        # every weight is finite, and the products past row n are zeros
        w = 2.0 * np.cos(theta.real * index)
    else:
        # weights past top are zeros, so one that would overflow there
        # plays no part
        w = np.zeros(len(index), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            w[: top + 1] = 2.0 * np.cos(theta * index[: top + 1])
        if not np.isfinite(w).all():
            return np.full(top + 1, np.nan, dtype=complex), np.full(top + 1, np.inf)
        majorant = _phi_majorant(absolute, abs(theta.imag))
    w[0] = 1.0
    vals = (signed[: top + 1] * w).sum(axis=1)
    Ku = ((12.0 + 6.0 * abs(theta)) * index[: top + 1] + 30.0) * 2.0**-53
    bound = Ku / (1.0 - 2.0 * Ku) * majorant[: top + 1]
    if Ku[-1] >= 0.5:  # gamma_K holds for Ku < 1/2 alone
        bound[Ku >= 0.5] = np.inf
    return vals.astype(complex), bound


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
    comes out bitwise the same in any call.  A non-finite rho or a negative
    row raises DomainError.
    """
    rho = _finite(rho, "phi_rho")
    rows = np.asarray(n)
    scalar = rows.ndim == 0
    rows = rows.reshape(-1)
    if rows.min(initial=0) < 0:
        raise DomainError("grid index must be nonnegative")
    rows = rows.astype(int, copy=False)
    vals, bound = _phi_ascending(rho, int(rows.max(initial=0)), ctx)
    out = vals[rows]
    certified = bound[rows] <= _PHI_CERT_TOL  # a nan bound is not
    if not certified.all():
        rough = ~certified
        out[rough] = _phi_series(rho, rows[rough], ctx)
    return complex(out[0]) if scalar else out


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


def _fixed_ln(a: int, b: int, w: int) -> int:
    """ln(a/b) for integers a, b > 0 in fixed point: an integer within 2
    of 2^w ln(a/b).

    k square roots (math.isqrt) take x = a/b to y = x^(2^-k), with
    |ln y| < 2^-r, and ln x = 2^(k+1) atanh t, t = (y - 1)/(y + 1), whose
    odd series is summed until its terms vanish; r = 4 + sqrt(w)/4, here and
    in _fixed_exp, balances the k steps against the terms (a root or a
    squaring of W-bit numbers costs about as much as three or four terms,
    which shrink as the sum runs).  The run is at W = w + g bits:
    each root and each term drops less than a unit, a root halves the
    relative error it is handed, and the reading of x errs by 2^-W/x
    relative, so the 2^k of the last step and the 1/x take k + e bits of
    g (x >= 2^-e), and 16 bits more cover the count of roundings.
    """
    lnx = abs(math.log(a) - math.log(b))
    r = 4 + math.isqrt(w) // 4
    k = r + int(lnx).bit_length()
    g = k + (b // a).bit_length() + 16
    W = w + g
    one = 1 << W
    y = (a << W) // b
    for _ in range(k):
        y = math.isqrt(y << W)
    t = (abs(y - one) << W) // (y + one)
    t2 = t * t >> W
    total = power = t
    for j in itertools.count(3, 2):
        power = power * t2 >> W
        if not power:
            break
        total += power // j
    total = (total << (k + 1)) + (1 << (g - 1)) >> g
    return total if y >= one else -total


def _fixed_exp(x: int, y: int, w: int) -> tuple[int, int]:
    """e^z for z = (x + iy) / 2^w with x >= 0, in fixed point: the pair of
    integers within 2 e^(Re z) of 2^w Re e^z and 2^w Im e^z, and within 1
    for x = 0, where they are 2^w cos y and 2^w sin y.

    Halved k times, to u = z 2^-k with |u| < 2^-r, e^u = C + u S is summed
    from the even and odd halves of its Taylor series, C = sum_h v^h/(2h)!
    and S = sum_h v^h/(2h+1)! with v = u^2: each step multiplies C's term by
    v and divides it by (2h - 1) 2h, and S's term is C's over 2h + 1; then
    k complex squarings double it back.  The run is at W = w + k + 12 bits,
    and the halving is exact, a shift of x and y.  Every product and
    quotient is floored, so a term that falls to within a unit of zero may
    sit at -1 there: the sums stop at the first term whose parts both lie
    in [-1, 1].  A step adds at most four units to the sums (C's floor,
    the rounding of v it carries and S's floor), the stop drops two more,
    and |term h| < 2^(W - 2rh) allows fewer than W/(2r) + 2 steps.  A
    squaring at most doubles the relative error it is handed and adds two
    units (the modulus is e^(Re z) >= 1), so the result errs by under
    (4 W/(2r) + 20) 2^-(w+12) relative, below 2^-(w+1) for w up to 40000
    bits, and half a unit in the last rounding.
    """
    r = 4 + math.isqrt(w) // 4
    k = r + ((x + abs(y)) >> w).bit_length()
    W = w + k + 12
    a, b = x << (W - w - k), y << (W - w - k)
    p, s = (a * a - b * b) >> W, (a * b) >> (W - 1)
    c = c_re = s_re = 1 << W
    d = c_im = s_im = 0
    for j in itertools.count(3, 2):
        n = (j - 2) * (j - 1)
        c, d = ((c * p - d * s) >> W) // n, ((c * s + d * p) >> W) // n
        if c * c + d * d <= 2:
            break
        c_re, c_im, s_re, s_im = c_re + c, c_im + d, s_re + c // j, s_im + d // j
    re, im = c_re + ((a * s_re - b * s_im) >> W), c_im + ((a * s_im + b * s_re) >> W)
    for _ in range(k):
        re, im = (re * re - im * im) >> W, (re * im) >> (W - 1)
    half = 1 << (W - w - 1)
    return (re + half) >> (W - w), (im + half) >> (W - w)


def _two_q_cos(rho: complex, q: float, w: int) -> tuple[int, int]:
    """s = 2q cos(2 rho ln q) in fixed point at w bits, as the pair of
    integers nearest 2^w Re s and 2^w Im s, each to within 2 units of
    max(1, 2q cosh(2 Im rho ln q)) (for real rho, to within 2 units).

    q and rho are read exactly (float.as_integer_ratio).  The angle
    theta = 2 rho ln q takes ln q at the bits that cover the factor
    2|rho|, so each part of theta errs by at most 3 units of 2^-(w+8).
    With E = e^(|Im theta| + i Re theta) (_fixed_exp at w + 8 bits) and
    F = E/|E|^2 = e^(-|Im theta| + i Re theta), which is E itself for real
    rho, s = q (Re(E + F) - i sign(Im theta) Im(E - F)), rounded to w bits.
    """
    rho = complex(rho)
    a, b = q.as_integer_ratio()
    W = w + 8
    reach = (int(2.0 * (abs(rho.real) + abs(rho.imag))) + 1).bit_length()
    lnq = _fixed_ln(a, b, W + reach)
    (re_num, re_den), (im_num, im_den) = rho.real.as_integer_ratio(), rho.imag.as_integer_ratio()
    im_theta = (2 * im_num * lnq) // im_den >> reach
    E = _fixed_exp(abs(im_theta), (2 * re_num * lnq) // re_den >> reach, W)
    F = E if im_theta == 0 else tuple((part << 2 * W) // (E[0] ** 2 + E[1] ** 2) for part in E)
    sign = 1 if im_theta > 0 else -1
    return (a * (E[0] + F[0]) // b + 128) >> 8, (128 - sign * a * (E[1] - F[1]) // b) >> 8


def _cosine_bits(rho: complex, rows, q: float) -> int:
    """The precision w at which _phi_series takes s = 2q cos(2 rho ln q):
    for real rho, the largest over the rows n of min(B_n, 128 +
    ceil(log2 max(1, n^2 M_n / (2q)))), with M_n = _phi_majorant at b = 0
    (the rows the cosine cover keeps), the bound on |phi_n| over cos theta
    in [-1, 1]; for nonreal rho, B of
    the largest row.  See _phi_series."""
    top = int(max(rows, default=0))
    if complex(rho).imag != 0.0:
        return _series_bits(top, q)
    peak = _cosine_cover(q, top)[2]
    w = 128
    for m in rows:
        slope = float(m * m * peak[m]) / (2.0 * q)
        need = 128 + math.ceil(math.log2(max(slope, 1.0))) if slope < math.inf else math.inf
        w = max(w, min(_series_bits(m, q), need))
    return w


def _phi_series(rho: complex, rows, ctx: QContext) -> np.ndarray:
    """phi_rho's terminating series summed in integer fixed point: the
    reference of the ascending form, and phi_rho's route for rows it
    cannot certify.

    Terminating series of n+1 terms

        sum_k (q^(-2n); q^2)_k (q^(1+2i rho); q^2)_k (q^(1-2i rho); q^2)_k
              / ((q^2; q^2)_k)^2 * q^(2k),

    normalized by phi_rho(1) = 1.  Takes a sequence of nonnegative row
    indices (phi_rho checks them) and returns a complex array, in the given
    order.  Across rows the terms differ only in the factor
    (q^(-2n); q^2)_k, so all rows share one table of q^(2j), of
    1 - q^(-2j) and of the n-free term ratio, built at the precision of the
    largest row (see module docstring); row n then takes n
    multiplications.

    The sums run in Python-integer fixed point: an integer X stands for
    X / 2^B, and a complex number is a pair of them.  B is _phi_digits in
    bits plus 32 guard bits: the tables are built at the largest row's B,
    and each row is summed at its own, with the tables cut down to it.  q
    is read exactly (float.as_integer_ratio), so the one rounded input is
    the scalar s = 2q cos(2 rho ln q), taken from _two_q_cos at w <= B
    bits (_cosine_bits) and carried to B with zero low bits.  The bound
    that sets w: row n is q^n Q_n(x) / (p; p)_n, a polynomial of degree n
    in x = cos theta = s / (2q), and for real rho x lies in [-1, 1].  By
    Markov's inequality |phi_n'(x)| <= n^2 M_n there, with M_n = max |phi_n|
    over [-1, 1], and M_n <= _phi_majorant at b = 0, since theta is real
    there.  An s within 2 units of 2^-w thus moves row n by at most n^2 M_n
    2^(1-w) / (2q) (a step past +-1 by 2^-w changes that bound by a factor
    1 + O(n^2 2^-w)), and w = min(B, 128 + ceil(log2 max(1, n^2 M_n /
    (2q)))), taken over the rows asked for, keeps it below 2^-127; M_n
    reads 2^-129 at q = 0.05, 2^-23 at 0.5, 2^27 at 0.9 and 2^155 at
    0.995, where w is B.  For nonreal rho x leaves [-1, 1], and s
    is taken at B.  In every case the rounded s moves a row far below the
    one rounding to double.
    Each table entry and each product drops less than one unit of 2^-B,
    and q^(-2j) is stepped from 1/q^2 so that it keeps its relative
    precision.  A term past 2^64 keeps B + 64 significant bits, like a
    float, which is all the cancellation down to the q^n-sized value
    needs.  Each sum is rounded to double once, by true integer division;
    a value past the double range becomes +-inf.  For real rho every
    imaginary part is exactly zero and its products cost next to nothing.
    """
    top = int(max(rows, default=0))
    q = ctx.q
    bits = _series_bits(top, q)
    one = 1 << bits
    a, b = q.as_integer_ratio()
    q2 = (a * a << bits) // (b * b)
    w = _cosine_bits(rho, rows, q)
    s_re, s_im = (part << (bits - w) for part in _two_q_cos(rho, q, w))
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
    return np.array(vals, dtype=complex)


def phi_column(rho: float, npoints: int, ctx: QContext) -> np.ndarray:
    """phi_rho on grid rows 0..npoints-1 via the eigen-recurrence, as a
    float64 array.  rho must be real and finite (a nonzero imaginary part,
    a NaN or an infinity raises DomainError); phi_rho covers complex rho."""
    return phi_matrix(np.array([rho]), npoints, ctx)[0]


def phi_matrix(rhos: np.ndarray, npoints: int, ctx: QContext) -> np.ndarray:
    """Matrix phi[rho_j, n] on grid rows 0..npoints-1 for all rho_j at once.

    Stable evaluation used by the transform machinery: seed phi(1) = 1,
    step with the three-term stencil at eigenvalue lambda(rho).  On the
    continuous spectrum both solutions share the q^n envelope, so forward
    stepping does not amplify.  Cross-checked against phi_rho in tests.

    Every rho must be real and finite (a nonzero imaginary part or a
    non-finite rho raises DomainError), so lambda(rho) and every entry are
    real: the recurrence runs in float64 and writes one contiguous row per
    grid point.  The result has shape (len(rhos), npoints) and is the
    transpose of that row-major (npoints, len(rhos)) array.
    """
    rhos = np.asarray(rhos)
    if np.iscomplexobj(rhos) and np.any(rhos.imag != 0.0):
        raise DomainError("phi tables take real rho only; phi_rho takes complex rho")
    if not np.isfinite(rhos).all():
        raise DomainError("phi tables take finite rho only")
    rows = np.empty((npoints, len(rhos)))
    _recur(rows, lambda_rho(rhos.real, ctx).real, ctx)
    return rows.T


def _recur(rows: np.ndarray, lam: np.ndarray, ctx: QContext) -> None:
    """Fill a row-major phi table, one column per eigenvalue in lam, by the
    eigen-recurrence from phi = 1 at row 0.  Every step is elementwise in
    the columns and reads the rows above it alone, so a column comes out
    the same whatever the other columns or the rows below are."""
    up, diag, down = stencil_coefficients(ctx, len(rows))
    rows[:1] = 1.0
    if len(rows) > 1:
        rows[1] = (lam - diag[0]) / down[0]
    for n in range(1, len(rows) - 1):
        rows[n + 1] = ((lam - diag[n]) * rows[n] - up[n] * rows[n - 1]) / down[n]


def psi_rho(rho: complex, n: int, ctx: QContext) -> complex:
    """Second solution y^(1/2 - i rho) * 2Phi1 at y = q^(2n).

    Series coefficients (q^(1-2i rho); q^2)_k^2 /
    ((q^(2-4i rho); q^2)_k (q^2; q^2)_k) q^(2k) y^k; the prefactor is
    exp((1/2 - i rho) * 2n ln q).  Defined away from rho in (1/2i) N,
    where a denominator factor vanishes (PoleError); a non-finite rho or
    a negative row n raises DomainError.
    """
    if n < 0:
        raise DomainError("grid index must be nonnegative")
    rho = _finite(rho, "psi_rho")
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
    phi = c(rho) psi_rho + c(-rho) psi_{-rho}.  A non-finite rho raises
    DomainError.
    """
    rho = _finite(rho, "c_coefficient")
    q2 = ctx.q2
    return qgamma(2j * rho, q2) / qgamma(0.5 + 1j * rho, q2) ** 2


# the terms n = -3..4 of sigma_density's theta sums, N's then D's: slope
# in x, sign, and offset in units of P
_THETA_N = _frozen(np.arange(-3.0, 5.0))
_THETA_SLOPES = _frozen(-2.0 * math.pi * np.concatenate((2.0 * _THETA_N, _THETA_N)))
_THETA_SIGNS = _frozen(np.concatenate((np.where(_THETA_N % 2, -1.0, 1.0), np.ones(8))))
_THETA_OFFSETS = _frozen(np.tile(-math.pi * _THETA_N * (_THETA_N - 1.0), 2))


def _sigma_constants(q: float) -> tuple[float, float, float]:
    """h = -ln fl(q^2), the period P = 2 pi/h and the constant
    (p'; p')_inf^3 e^(h/4) / (1 - q^2) of sigma_density's theta form."""
    h = -math.log(q * q)
    period = 2.0 * math.pi / h
    dual = _euler_product(math.exp(-2.0 * math.pi * period)).real
    return h, period, dual**3 * math.exp(h / 4.0) / (1.0 - q * q)


def sigma_density(rho, ctx: QContext) -> float | np.ndarray:
    """Density of the spectral (Plancherel) measure on [0, P], P = 2 pi/h,

        (h / (4 pi (1-p))) |(p; p)_inf (q^(-4 i rho); p)_inf / (q^(1-2 i rho); p)_inf^2|^2,

    p = q^2 = e^(-h), in closed form.  Takes a scalar (returns a float) or
    an array of rho (returns a float array of its shape); zero off (0, P).

    With u = h rho, Jacobi's triple product (Gasper-Rahman 1.6.1) writes
    |(e^(2iu); p)_inf|^2 as (1 - e^(-2iu)) sum_n (-1)^n p^(n(n-1)/2)
    e^(2inu) / (p; p)_inf and |(p^(1/2) e^(iu); p)_inf|^2 as sum_n (-1)^n
    p^(n^2/2) e^(inu) / (p; p)_inf.  Poisson summation of those Gaussians,
    Jacobi's imaginary transformation (Whittaker-Watson 21.51), moves them
    to the nome p' = e^(-2 pi P), and Dedekind eta's gives (p; p)_inf =
    (2 pi/h)^(1/2) e^(h/24 - pi P/12) (p'; p')_inf.  The Gaussian factors
    cancel, and with x = min(rho, P - rho) (sigma is symmetric about P/2)

        sigma = (p'; p')_inf^3 e^(h/4) / (1 - q^2) sin(x h) e^(-x^2 h) N(x) / D(x)^2,
        N(x) = sum_n (-1)^n e^(-4 pi n x - pi P n(n-1)),
        D(x) = sum_n e^(-2 pi n x - pi P n(n-1)).

    On [0, P/2] every exponent is <= 0 and D >= 1, so nothing overflows at
    any q; the sums run over n = -3..4, whose first term left out is at
    most e^(-12 pi P) of the leading one, under 1e-17 at q = 0.05.  Every
    step is elementwise in rho, so a scalar call equals the entry of an
    array call bit for bit.  sin and N round to either sign at the zeros
    0, P/2 and P, so the value is taken in absolute value.
    """
    rho = np.asarray(rho, dtype=float)
    # p is q^2 as the stencil rounds it and the phase keeps ln q, so x is
    # rho scaled by ctx.h / h, 1 - 5e-15 at q = 0.995; with ctx.h in place
    # of h there, the transform's round trip lost about 1e-14 per row
    h, period, const = _sigma_constants(ctx.q)
    x = np.maximum(np.minimum(rho, ctx.rho_period() - rho), 0.0) * (ctx.h / h)
    terms = np.exp(x[..., None] * _THETA_SLOPES + period * _THETA_OFFSETS) * _THETA_SIGNS
    sums = terms.reshape(x.shape + (2, 8)).sum(axis=-1)
    val = np.abs(const * np.sin(x * h) * np.exp(-x * x * h) * sums[..., 0] / np.square(sums[..., 1]))
    return float(val) if val.ndim == 0 else val


@dataclass
class SpectralFunction:
    """Transform values on equispaced nodes of the spectral period.

    Transforms keep a reference to their source grid function so
    refinement re-evaluates exactly; quadrature then never relies on
    interpolation, which would smear the rounding of the large
    near-midpoint values of deep transforms over the whole period.

    One that transform_forward returns also keeps, read-only, its folded
    values: the value on each distinct node of its node table, with the
    table's cover key (q and the odd part of the node count).  The inverse
    reads them in place of a second evaluation when they cover its count,
    so F describes its source as it was when the forward ran.  One built
    by hand has none and is evaluated from its source.
    """

    nodes: np.ndarray
    values: np.ndarray
    source: GridFunction
    _folded: tuple | None = field(default=None, init=False, repr=False, compare=False)


def _nodes(count: int, ctx: QContext) -> np.ndarray:
    """The count equispaced nodes j P/count of the period P; read-only."""
    return _equispaced(ctx.h, count)


@functools.lru_cache(maxsize=64)
def _equispaced(h: float, count: int) -> np.ndarray:
    """_nodes, cached per (h, count): P = 2 pi/h as rho_period takes it."""
    return _frozen((2.0 * math.pi / h) * np.arange(count) / count)


# Node tables fold and nest.  Node count - j of count nodes is the mirror
# P - rho of node j, and phi and the density depend on rho only through
# cos(h rho), so a table keeps the count//2 + 1 distinct nodes
# j = 0..count//2 and node count - j reads the column of node j.  The nodes
# of count N are every (M/N)-th node of count M when M/N is a power of two
# (period j / N and period (2j) / (2N) round alike), phi and the density
# are evaluated node by node, and phi's rows 0..n-1 do not depend on the
# rows below them.  So one node cover per (q, odd part c of the count)
# holds both, its columns in coarse-to-fine order: the (c + 1)/2 distinct
# nodes of count c, then the odd nodes j <= c that count 2c adds, then the
# odd nodes j <= 2c that count 4c adds, and so on.  The table on c 2^k
# nodes and n rows is the cover's first _width(c 2^k) columns and first n
# rows, bit for bit what a direct build on those nodes gives, and it is
# served as a read-only view of the cover.  A request past the cover
# rebuilds it whole, on the largest count and the most rows asked for so
# far, and the new cover replaces the old one.
def _cover_key(q: float, count: int) -> tuple:
    if count < 1:
        raise DomainError(f"node count {count} must be positive")
    return q, count // (count & -count)


def _width(count: int) -> int:
    """The columns of a node table on count nodes: its distinct nodes
    j = 0..count//2."""
    return count // 2 + 1


@functools.lru_cache(maxsize=64)
def _columns(count: int) -> np.ndarray:
    """The node table column of each of the count nodes, in ascending node
    order; read-only, and the same for every q.  Nodes j and count - j
    share the column of node min(j, count - j).  Node 2j of an even count
    is node j of count/2, in its column; the odd nodes j <= count/2 follow
    them in ascending order."""
    j = np.arange(count)
    mirror = np.minimum(j, count - j)
    if count % 2:
        return _frozen(mirror)
    cols = np.empty(count, dtype=np.intp)
    cols[::2] = _columns(count // 2)
    cols[1::2] = _width(count // 2) + mirror[1::2] // 2
    return _frozen(cols)


@functools.lru_cache(maxsize=64)
def _multiplicity(count: int) -> np.ndarray:
    """The number of the count nodes that read each node table column: 1
    for node 0 and, for an even count, node count/2; 2 for every other
    column.  Read-only."""
    return _frozen(np.bincount(_columns(count)).astype(float))


def _table_nodes(count: int, ctx: QContext) -> np.ndarray:
    """The distinct nodes of count nodes in the order of the node table's
    columns."""
    width = _width(count)
    nodes = np.empty(width)
    nodes[_columns(count)[:width]] = _nodes(count, ctx)[:width]
    return nodes


def _node_cover(q: float, count: int, npoints: int) -> tuple[np.ndarray, np.ndarray]:
    """The node cover of count's family, on at least npoints rows and the
    distinct nodes of count: the row-major phi table (see _columns) and the
    density on the same columns, both read-only.  A cover too small for
    the request is rebuilt whole, by one recurrence over every row and
    column and one density call, on the larger of its count and the
    request's and on the most rows either asks for."""
    key = _cover_key(q, count)
    cover = _COVERS.get(key)
    if cover is None or npoints > len(cover[0]) or _width(count) > len(cover[1]):
        ctx = QContext(q)
        rows, size = (0, 0) if cover is None else cover[0].shape
        while _width(count) < size:  # the cover's own count, when it is larger
            count *= 2
        nodes = _table_nodes(count, ctx)
        # the density first: its temporaries, several times the density's
        # size, are gone before the new phi table joins the old cover
        density = _frozen(sigma_density(nodes, ctx))
        phi = np.empty((max(npoints, rows), len(nodes)))
        _recur(phi, lambda_rho(nodes, ctx).real, ctx)
        cover = _frozen(phi), density
    return _COVERS.keep(key, cover)


def _phi_table(q: float, count: int, npoints: int) -> np.ndarray:
    """Row-major phi table on the distinct nodes of count nodes and on
    npoints rows: entry [n, p] is phi at row n and the node of column p
    (see _columns), npoints x _width(count).  A read-only view of the
    node cover, with one unit stride."""
    return _node_cover(q, count, npoints)[0][:npoints, : _width(count)]


def _density_table(q: float, count: int) -> np.ndarray:
    """The density on the distinct nodes of count nodes, in the columns'
    order of the phi table: a read-only view of the node cover."""
    return _node_cover(q, count, 0)[1][: _width(count)]


# The inverse's GEMM contracts a phi table over its nodes.  Past 4096
# nodes one GEMM ran far below OpenBLAS's speed: 65 rows against one
# complex column took 0.56 ms on 8192 nodes and 0.85 ms on 16384, and the
# sum of GEMMs over blocks of 4096 nodes 0.21 and 0.41 ms (one BLAS
# thread, 2-core x86-64); blocks of 1024 or 2048 were no faster.
_GEMM_BLOCK = 4096


def _real_matmul(table: np.ndarray, v: np.ndarray) -> np.ndarray:
    """table @ v for a real table and a complex vector or (k, m) matrix, as
    real GEMMs on v's (k, 2m) float view, one per block of _GEMM_BLOCK of
    the k columns, summed in order; table @ v itself would cast table to
    complex."""
    v = np.ascontiguousarray(v, dtype=complex)
    cols = (v if v.ndim == 2 else v[:, None]).view(float)
    out = table[:, :_GEMM_BLOCK] @ cols[:_GEMM_BLOCK]
    for start in range(_GEMM_BLOCK, len(cols), _GEMM_BLOCK):
        out += table[:, start : start + _GEMM_BLOCK] @ cols[start : start + _GEMM_BLOCK]
    out = out.view(complex)
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
    past the double range on g's support raises CapacityError.  The sum
    runs once per distinct node of the node table (node count - j mirrors
    node j); the result keeps those folded values, read-only, for
    transform_inverse, and its nodes are a shared read-only array.
    """
    if not g.finite_support:
        raise DomainError("spherical transform requires finite support")
    vals = _frozen(_forward(_phi_table(ctx.q, node_count, len(g.values)), g, ctx))
    F = SpectralFunction(_nodes(node_count, ctx), vals[_columns(node_count)], source=g)
    F._folded = (_cover_key(ctx.q, node_count), vals)
    return F


# settle tolerances of transform_inverse
_QUAD_ABS_TOL = 1e-11
_QUAD_REL_TOL = 1e-12


def _start_nodes(ctx: QContext, depth: int = 0) -> int:
    """The strip rule's count for a trapezoid sum whose integrand reaches
    row depth: the power of two past ln(1/eps)/ln(1/q) + 2 depth.  The
    trapezoid error falls like q^N in the strip |Im h rho| < ln(1/q) of
    analyticity (Trefethen-Weideman 2014, Thm 3.2), eps = 1e-14 is three
    decades under the absolute settle tolerance and 2 depth covers the
    forward weights' range q^(-2 depth).  It is a heuristic: transform_inverse
    starts a callable, which has no bound, at N0 = _start_nodes(ctx) and
    settles it on 2 N0 and 4 N0 nodes, and plancherel_pairing sizes its
    own sum with it.  A SpectralFunction takes _certified_nodes instead."""
    need = math.log(1e3 / _QUAD_ABS_TOL) / math.log(1.0 / ctx.q) + 2 * depth
    return 1 << math.ceil(math.log2(need))


# The aliasing bound of _delta_bounds reads the density's analytic
# continuation on lines Im rho = y: one below its first poles, which sit
# at Im rho = +-1/2, and the integers 1.._ALIAS_LINES, where the poles
# +-(2j+1)/2 below the line are taken out exactly.  The bound is taken at
# every power of two up to _MAX_NODES, where the search for a certified
# count stops.
_ALIAS_SUB = (0.4375,)
_ALIAS_LINES = 6
_MAX_NODES = 1 << 16
_ALIAS_COUNTS = _frozen(1 << np.arange(_MAX_NODES.bit_length()))
# the q-only tables are built on at least this many rows, so the default
# horizon and every smaller one share one table per q
_ALIAS_ROWS = 128


@functools.lru_cache(maxsize=64)
def _alias_tables(q: float, size: int) -> tuple[np.ndarray, ...]:
    """The q-only tables of _delta_bounds on rows 0..size-1, read-only,
    for size a power of two.

    X[l, n] is twice _phi_majorant at b = h y_l, a bound on |phi_n| on the
    lines Im rho = +-y_l, taken for every line in one product from an
    absolute cosine table on size rows that is dropped after (the phi
    cover keeps only the rows phi_rho asks for); Y[n, j] is phi_n at
    rho = (2j+1) i/2;
    pole[j] is 4 pi |Res sigma| at that pole, with sigma's constant from
    _sigma_constants as sigma_density takes it, and rate[j] = (2j+1) h/2;
    line[l] is 2 P times the bound on |sigma| on the lines, and
    grow[l] = h y_l.  See _delta_bounds for why each one bounds what it
    does.
    """
    ctx = QContext(q)
    h, period = ctx.h, ctx.rho_period()
    ys = np.concatenate((_ALIAS_SUB, np.arange(1.0, _ALIAS_LINES + 1)))
    X = 2.0 * _phi_majorant(_cosine_coefficients(q, size, signed=False)[0], h * ys).T
    lnq = math.log(q)
    with np.errstate(over="ignore", invalid="ignore"):
        # phi's terminating series at rho = (2j+1) i/2: term i + 1 over term
        # i is >= 0, and its factor 1 - q^(2i-2j) ends the sum after term j
        i, n, j = np.ogrid[: _ALIAS_LINES - 1, :size, :_ALIAS_LINES]
        ratio = (
            np.expm1(2 * (i - n) * lnq) * np.expm1(2 * (i - j) * lnq)
            * -np.expm1(2 * (j + i + 1) * lnq) * q * q / np.expm1(2 * (i + 1) * lnq) ** 2
        )
        Y = 1.0 + np.cumprod(ratio, axis=0).sum(axis=0)
        j = j.ravel()
        # the density's constant as sigma_density takes it, the residue
        # sum A of its theta terms, and the weight eps of the terms |n| >= 2
        const = _sigma_constants(q)[2]
        A = abs(float(np.sum(_THETA_SIGNS[:8] * _THETA_N * np.exp(period * _THETA_OFFSETS[:8]))))
        eps = 2.0 * math.exp(-2.0 * math.pi * period) / -math.expm1(-4.0 * math.pi * period)
        odd = 2 * j + 1
        pole = 4.0 * const * np.sinh(odd * h / 2.0) * np.exp(h * odd**2 / 4.0) / A
        dip = np.sin(2.0 * math.pi * np.array(_ALIAS_SUB)) - math.exp(-math.pi * period) - eps
        theta = np.concatenate(((3.0 + eps) / dip**2, np.full(_ALIAS_LINES, 2.0 + eps)))
        line = 2.0 * period * const * np.cosh(h * ys) * np.exp(h * ys**2) * theta
    Y = np.where(np.isnan(Y), np.inf, Y)
    return tuple(_frozen(t) for t in (X, Y, pole, odd * h / 2.0, line, h * ys))


@functools.lru_cache(maxsize=128)
def _delta_bounds(q: float, npoints: int, rows: int) -> np.ndarray:
    """Entry [m, k]: a bound on the trapezoid error, on every row
    0..npoints-1, of the inverse transform of the unit delta at row m < rows
    on _ALIAS_COUNTS[k] nodes; read-only, inf where no line bounds it.

    Row n integrates T sigma with T = phi_n F, F = (1-q^2) q^(-2m) phi_m
    the delta's spectral image; both are trigonometric polynomials in
    u = h rho, so T is entire and P-periodic.  sigma continues to the theta
    form of sigma_density, sigma = C sin(h rho) e^(-h rho^2) N(rho)/D(rho)^2,
    meromorphic, P-periodic, even and real on the real axis.  N and D are
    i-periodic, and D's zeros sit at rho = i(k + 1/2) + mP: sigma's poles
    are simple, at +-(2j+1) i/2 (mod P), where N has simple zeros and D
    double ones, with Res sigma = C sin(h rho_j) e^(-h rho_j^2) N'/D'^2 and
    N'/D'^2 = -1/(pi A) at every pole, A = sum_n (-1)^n n e^(-pi P n(n-1)).

    Error.  Shift the trapezoid rule's contour (Trefethen-Weideman 2014,
    Thm 3.2, whose proof runs the residue theorem on cot(N u/2)) to the
    lines Im rho = +-y.  On N nodes the error is the two line integrals,
    each at most P sup|T sigma| / (e^(h y N) - 1), plus, from each pole
    pair +-rho_j between them, 4 pi |T(rho_j) Res sigma| / (e^((2j+1) h N/2)
    - 1).  phi_rho at rho = i/2 is 1 on every row (lambda = 0 there, and
    the recurrence keeps a constant), so the first pole pair gives
    4 |Res sigma| (1-q^2) q^(-2m) / (e^(h N/2) - 1) on every row: the whole
    error to rounding wherever it is measurable.  At the other poles phi's
    terminating series has nonnegative terms only, so those values carry
    no cancellation and grow with n.

    Bounds on the lines, over rho = a + iy with a in [0, P/2]
    (sigma(P - rho) = sigma(rho) and reflection give the rest):
    - |phi_n| <= _phi_majorant at b = h y, for both of T's factors, taken
      twice over as the bound 2 cosh(h y l) on |e^(i l theta)| first gave
      it;
    - on the integer lines, |sin| <= cosh(h y), |e^(-h rho^2)| <= e^(h y^2)
      and |N/D^2| is its value on the real axis, where D >= 1 + e^(-2 pi a)
      and |N| <= 1 - e^(-4 pi a) + e^(4 pi a - 2 pi P) + eps, so
      |N/D^2| <= 2 + eps, with eps = 2 e^(-2 pi P)/(1 - e^(-4 pi P)) the
      terms |n| >= 2 of either sum;
    - below the first poles (y < 1/2), |N| <= 3 + eps and |D| >=
      |1 + e^(-2 pi (a + iy))| - e^(-pi P) - eps >= sin(2 pi y) - e^(-pi P)
      - eps.
    A line's bound sums its terms, each with its largest row factor over
    rows 0..npoints-1, and each count takes the least line.  Every table
    is a sum or product of nonnegative doubles, so its rounding is
    relative and of order n eps; a line whose tables leave the double
    range reads inf, and so does a row whose weight q^(-2m) does.
    """
    X, Y, pole, rate, line, grow = _alias_tables(q, max(_ALIAS_ROWS, 1 << (rows - 1).bit_length()))
    X, Y = X[:, :rows], Y[:rows]
    counts = _ALIAS_COUNTS[:, None]
    top = npoints - 1
    with np.errstate(over="ignore", invalid="ignore"):
        scale = (1.0 - q * q) * np.power(1.0 / (q * q), np.arange(float(rows)))[:, None, None]
        at_poles = pole * Y[top] / np.expm1(rate * counts)
        on_lines = line * X[:, : top + 1].max(axis=1) / np.expm1(grow * counts)
        total = scale * (X.T[:, None, :] * on_lines)
        total[:, :, len(_ALIAS_SUB) :] += np.cumsum(scale * Y[:, None, :] * at_poles, axis=2)
    return _frozen(np.where(np.isnan(total), np.inf, total).min(axis=2))


def _alias_bound(size: np.ndarray, ctx: QContext, npoints: int) -> np.ndarray:
    """A bound on the trapezoid error of the inverse transform of g's
    spectral image on every row 0..npoints-1, one per node count in
    _ALIAS_COUNTS, from size = |g|: the error is linear in g, so it is at
    most sum_m |g_m| times the unit delta's bound at row m (_delta_bounds)."""
    nz = size.nonzero()[0]
    rows = max(npoints, int(nz[-1]) + 1) if len(nz) else npoints
    return size[nz] @ _delta_bounds(ctx.q, npoints, rows)[nz]


def _certified_nodes(g: GridFunction, ctx: QContext, npoints: int) -> int:
    """The least power of two N whose aliasing bound (_alias_bound) on rows
    0..npoints-1 is at most max(_QUAD_ABS_TOL, _QUAD_REL_TOL * max |g|) on
    those rows: the settle rule's tolerance, whose scale is the largest
    value the inverse returns, without its rounding floor.  A zero source
    takes one node; a source no count up to _MAX_NODES certifies, a NaN
    value's included, raises QuadratureError.  A power of two has odd
    part 1, so every count is a prefix of one node-table cover per q."""
    size = np.abs(g.values)
    bound = _alias_bound(size, ctx, npoints)
    tol = max(_QUAD_ABS_TOL, _QUAD_REL_TOL * float(size[:npoints].max(initial=0.0)))
    # the bound falls as the count grows; a NaN bound (a non-finite source)
    # certifies no count
    k = len(bound) - int(np.count_nonzero(bound <= tol))
    if k == len(_ALIAS_COUNTS):
        # a weight past the double range raises CapacityError
        _row_weights(np.flatnonzero(g.values), ctx)
        raise QuadratureError(f"no node count up to {_MAX_NODES} certifies the inverse transform")
    return int(_ALIAS_COUNTS[k])


def _quadrature_terms(F, ctx: QContext, count: int, npoints: int) -> tuple[np.ndarray, np.ndarray]:
    """The phi table on the distinct nodes of count nodes and rows
    0..npoints-1, and F folded onto its columns: the sum of F over the
    nodes that read each column, so the count-node sum of phi F sigma is
    the table contracted against it times the density.

    F is either a SpectralFunction or a callable.  A SpectralFunction's
    values on the distinct nodes are taken times the columns'
    multiplicity: its folded values (transform_forward's, as its source was
    when the forward ran) when they share the count's cover key and are at
    least _width(count) long, else re-evaluated exactly from its source
    grid function.  The folded values are the cover's columns coarse to
    fine, so their first _width(count) are the count's distinct nodes, and
    each value is one GEMM row over the same phi row and source entries:
    bit for bit what the re-evaluation gives.  A callable is called once on
    the array of the count nodes in ascending order, the values of a
    mirrored pair added.
    """
    if isinstance(F, SpectralFunction):
        key, folded = F._folded or (None, ())
        if key == _cover_key(ctx.q, count) and len(folded) >= _width(count):
            table, fv = _phi_table(ctx.q, count, npoints), folded[: _width(count)]
        else:
            table = _phi_table(ctx.q, count, max(npoints, len(F.source.values)))
            fv = _forward(table, F.source, ctx)
        fv = fv * _multiplicity(count)
    else:
        table = _phi_table(ctx.q, count, npoints)
        fv = np.zeros(_width(count), dtype=complex)
        np.add.at(fv, _columns(count), F(_nodes(count, ctx)))
    return table[:npoints], fv


def _inverse_on_nodes(
    F, ctx: QContext, count: int, npoints: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Periodic-trapezoid inverse transform on count/2 and on count
    equispaced nodes from one pass over the count nodes, and the rounding
    floor of the count-node sums: the settle rule of a callable, and the
    oracle of quadrature_self_consistency.

    For an even count the distinct nodes of count/2 are the table's first
    count//4 + 1 columns, and each has the same multiplicity there as in
    count (node i of count/2 is node 2i of count, and the pair i,
    count/2 - i is the pair 2i, count - 2i), so one real GEMM of the table
    against two weight columns, the folded weights with all but those
    columns zeroed and all of them, gives both sums.  For an odd count the
    count/2-node sum reads zero.
    """
    table, fv = _quadrature_terms(F, ctx, count, npoints)
    columns = np.zeros((_width(count), 2), dtype=complex)
    weighted = np.multiply(fv, _density_table(ctx.q, count), out=columns[:, 1])
    head = 0 if count % 2 else _width(count // 2)
    columns[:head, 0] = weighted[:head]
    sums = _real_matmul(table, columns)
    period = ctx.rho_period()
    coarse = (2.0 * period / count) * sums[:, 0]
    fine = (period / count) * sums[:, 1]
    # rounding floor of the quadrature sums: spectral values of deep
    # deltas reach q^(-2n) sizes and the summation noise accumulates
    # like sqrt(count); differences below this are indistinguishable
    # from rounding (the integrands here are entire and periodic, so
    # the discretization error collapses far faster than this floor).
    # The mean is over the count nodes, whose terms the folded ones sum
    mean = float(np.sum(np.abs(weighted))) / count
    floor = 32.0 * np.finfo(float).eps * period * math.sqrt(count) * mean
    return coarse, fine, floor


def transform_inverse(F, ctx: QContext, npoints: int | None = None) -> GridFunction:
    """Inverse spherical transform by periodic-trapezoid quadrature.

    f(q^(2n)) = integral_0^{2 pi/h} phi_rho(q^(2n)) F(rho) dsigma(rho).

    F is either a SpectralFunction, whose values on the nodes are exact
    (its node count plays no part: the sum reads transform_forward's folded
    values where they cover the certified count, and a re-evaluation from
    its source elsewhere, bit for bit the same), or a callable on an array
    of rho.  A SpectralFunction takes one pass on _certified_nodes' count,
    whose aliasing bound on every row is within the settle tolerance.  A
    callable has no bound: with N0 = _start_nodes(ctx), one pass on 2 N0
    nodes gives the N0- and 2 N0-node sums; when they differ by more than
    max(1e-11, 1e-12 * scale, rounding floor), one pass on 4 N0 nodes
    compares 2 N0 with 4 N0 by the same rule, and not settling there raises
    QuadratureError.  Each pass contracts the folded sum over the count's
    distinct nodes (_quadrature_terms).  npoints < 1 raises DomainError.
    """
    if npoints is None:
        npoints = ctx.npoints
    if npoints < 1:
        raise DomainError(f"the inverse transform needs npoints >= 1, not {npoints}")
    if isinstance(F, SpectralFunction):
        count = _certified_nodes(F.source, ctx, npoints)
        table, fv = _quadrature_terms(F, ctx, count, npoints)
        out = (ctx.rho_period() / count) * _real_matmul(table, fv * _density_table(ctx.q, count))
        return GridFunction(out, finite_support=False)
    start = _start_nodes(ctx)
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
    by diag(q^(-n)) gives a real symmetric tridiagonal matrix T whose
    spectrum sits inside [-1/(1-q)^2, -1/(1+q)^2] and fills it as dim
    grows.  The stencil's own elimination run on diag - x gives the LDL^T
    pivots of T - x, and by Sylvester's law of inertia some pivot is
    negative iff an eigenvalue lies below x, and every pivot iff all do.
    So each extreme eigenvalue is bisected to the last bit inside the
    Gershgorin interval on the sign of the least or the greatest pivot:
    O(dim) per step, about 60 steps each, and no dim x dim array.
    """
    if dim < 2:
        raise DomainError("spectrum probe needs dim >= 2")
    up, diag, down = (c.tolist() for c in stencil_coefficients(ctx, dim))
    off = [0.0, *(ctx.q * w for w in down[:-1]), 0.0]  # all >= 0, as down is
    radii = [b + c for b, c in zip(off, off[1:])]
    lo = min(a - r for a, r in zip(diag, radii))
    hi = max(a + r for a, r in zip(diag, radii))

    def pivots(x: float) -> list:
        try:
            return _pivots(up, diag, down, x)
        except ZeroDivisionError:  # x is an eigenvalue of a leading block
            return pivots(math.nextafter(x, math.inf))

    def bisect(extreme) -> float:
        a, b = lo, hi
        while a < (mid := 0.5 * (a + b)) < b:
            a, b = (a, mid) if extreme(pivots(mid)) < 0.0 else (mid, b)
        return b

    return bisect(min), bisect(max)
