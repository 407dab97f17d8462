"""Green functions and kernels of the invariant Laplacian.

Radial fundamental solutions g_1, g_2 as grid functions, each row a tail
of one Lambert series, and an independent quadrature oracle for them on
the same rows through the spectral transform; the one-parameter kernel
family on the double disc together with its parameter derivative, the
assembled inverse kernels for the first and second power of the
Laplacian, kernel application as an integral operator, Green solvers,
and classical-limit comparison tables.

Kernel storage.  A kernel is a family of two-variable grid functions
indexed by a sector pair (i, j): the (i, j) term represents

    (z-part of sector i)  psi_ij(y, eta)  (zeta-part of sector j)

with each leg kept in the same normal-form convention as DiscElement
(generator left of the function for nonnegative sectors, conjugate
generator right of it for negative ones).  On the grid each term is a
matrix psi_ij[q^(2a), q^(2b)].

The one-parameter family G(l) expands into such terms with sector pairs
(i, -i): writing s for the contraction depth,

    psi_i = sum_s  c_{i,s}(l) F_s(y; l) (x) F_s(eta; l),
    F_s(t; l) = q^(-2 s l) t^l P_s(t),
    P_s(t) = prod_{r=0}^{s-1} (1 - q^(-2r) t)   (vanishes on grid rows < s),

with c_{i,s}(l) = q^(2k) (q^(2l); q^2)_k (q^(2l); q^2)_n / ((q^2;q^2)_k
(q^2;q^2)_n) for (k, n) = (s, s+i) when i >= 0 and (s+|i|, s) otherwise.
For l a negative integer the s- and i-ranges terminate exactly.

On the grid t = q^(2a), P_s(q^(2a)) = (q^2;q^2)_a / (q^2;q^2)_(a-s), read
from the contraction table of discalg that normal_mul uses, and
F_s(y; l) F_s(eta; l) = q^(2ld) P_s(a) P_s(b) with d = a + b - 2s.  So
every kernel, plain, derivative or assembled, is stored as its table
H[i, s, d], one row per sector pair (i, -i).  apply_kernel contracts the
table with f directly; the dense matrices
psi_i[a, b] = sum_s P_s(a) P_s(b) H[i, s, a+b-2s] are materialized only
on request (Kernel.terms), for the coproduct action and the invariance
residual, depth by depth from one strided window view of the stacked rows
(hankel[i, s, a, b] = H[i, s, a + b]).  The assembled kernels' rows are
built in one pass per request, sharing every table their pairs have in
common, and kept, rows only, in one bounded cover per (order, context,
shape).  kernel_assembled builds its Kernel from the rows of its sector
range, green_solve from those of f's own sectors (_assembled_kernel).

The coproduct action on a kernel acts on each leg with the element
formulas of uqsl2._ef_terms, applied along that leg's grid axis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .context import QContext, _Covers, _frozen, _max
from .discalg import DiscElement, GridFunction, _contraction_table, _integral_weights, _poch_up, _shift
from .errors import CapacityError, DomainError
from .qspecial import dilog
from .spherical import transform_inverse
from .uqsl2 import _ef_terms

# --- radial Green functions -------------------------------------------


def coef_order1(m: int, q: float) -> float:
    """Coefficient of y^m in the first Green series: -(q^-2 - 1)/(q^-2m - 1).

    Tends to -1/m as q -> 1.
    """
    q2 = q * q
    return -(1.0 / q2 - 1.0) / (q2 ** (-m) - 1.0)


def coef_order2(m: int, q: float) -> float:
    """Direct-family coefficient of the second Green series:
    q^(2m-2) (1 + q^(2m)) (1 - q^2)^2 / (1 - q^(2m))^2; tends to 2/m^2."""
    q2 = q * q
    return q2 ** (m - 1) * (1.0 + q2**m) * (1.0 - q2) ** 2 / (1.0 - q2**m) ** 2


def _lambert_tails(p: float, x0: float, rows: int, terms: int) -> tuple[np.ndarray, np.ndarray]:
    """g_1 and g_2 at the real depths x0 + n, n < rows, as g_radial_grid
    writes them: Lambert tails over j = x0 + 1 .. x0 + terms, each summed
    smallest term first.  More than 2^20 terms raise CapacityError."""
    if terms > 2**20:
        raise CapacityError(f"the Green series' Lambert cut takes {terms} terms, more than 2^20")
    j = x0 + np.arange(1.0, terms + 1)
    u = p**j / -np.expm1(j * math.log(p))
    U, V = (np.cumsum(x[::-1])[::-1][:rows] for x in (u, j * u))
    # j[n] = x0 + n + 1
    return -((1.0 - p) ** 2) / p * U, (1.0 - p) ** 3 / p * (2.0 * V - j[:rows] * U)


def g_radial_grid(order: int, ctx: QContext, npoints: int | None = None) -> GridFunction:
    """Fundamental solution on grid rows 0..npoints-1, as Lambert tails.

    g_1 = (1-p) s1 and g_2 = (1-p) (s2 - (1-p) n s1) at t = p^n, p = q^2,
    with s1 = sum_{m>=1} coef_order1(m) t^m and s2 that of coef_order2 plus
    the log term (1-p)/h ln t s1 (ln t / h = -n).  Put 1/(1-p^m) =
    sum_k p^(mk) and (1+p^m)/(1-p^m)^2 = sum_k (2k+1) p^(mk) into the
    coefficients and sum over m first; with u_j = p^j/(1-p^j), and the log
    term giving the n U(n),

        g_1(n) = -(1-p)^2/p U(n),                  U(n) = sum_{j>n} u_j,
        g_2(n) = (1-p)^3/p (2 V(n) - (n+1) U(n)),  V(n) = sum_{j>n} j u_j,

    that is g_2(n) = (1-p)^3/p sum_{j>n} (2j-n-1) u_j, where j runs over
    n + 1, n + 2, ...; the same sums hold at a real depth n, which is how
    classical_limit_report reads them.  U and V are reverse cumulative
    sums, smallest term first, with 1 - p^j = -expm1(j ln p), to
    J = max(npoints, ctx.npoints) + ceil(41/h).  Row n omits K > 41/h terms,
    at most p^K/(1-p^K) of its value times 1 or, for the weights n + 2i - 1
    at j = n + i, 1 + 2K(1-p)/(1+p) <= 1 + Kh: below 42 e^-41/(1 - e^-41)
    = 6.6e-17 < 2^-53 on every row (40/h gives 1.7e-16).  Grids no longer
    than the context's share J, so their common rows agree bit for bit.
    """
    if order not in (1, 2):
        raise DomainError("order must be 1 or 2")
    npoints = max(ctx.npoints if npoints is None else npoints, 0)
    terms = max(npoints, ctx.npoints) + math.ceil(41.0 / ctx.h)
    return GridFunction(_lambert_tails(ctx.q2, 0.0, npoints, terms)[order - 1], finite_support=False)


def gm_spectral(m: int, rho, ctx: QContext) -> complex | np.ndarray:
    """Spectral image of the m-th fundamental solution:
    (-1)^m (1-q^2)^(2m+1) / ((1-q^(1+2i rho))^m (1-q^(1-2i rho))^m).

    Satisfies lambda(rho)^m * gm_spectral = 1 - q^2 identically.  Takes a
    scalar rho (returns a complex) or an array of rho (returns a complex
    array), so the inverse transform evaluates it once per node set.  The
    denominator's product is taken as (1-q)^2 + 4q sin^2(rho ln q), which
    holds for complex rho too, is real for real rho, and does not cancel
    near rho = 0 as q -> 1.
    """
    rho = np.asarray(rho)
    d = (1.0 - ctx.q) ** 2 + 4.0 * ctx.q * np.sin(rho * math.log(ctx.q)) ** 2
    val = ((-1.0) ** m * (1.0 - ctx.q2) ** (2 * m + 1) / d**m).astype(complex)
    return complex(val) if val.ndim == 0 else val


def gm_quadrature_grid(m: int, ctx: QContext, npoints: int | None = None) -> GridFunction:
    """Quadrature oracle for the m-th fundamental solution on grid rows
    0..npoints-1.

    Applies the inverse spherical transform to gm_spectral; independent
    of g_radial_grid's tail sums, it validates them numerically.
    """
    if m < 1:
        raise DomainError("m must be a positive integer")
    if npoints is None:
        npoints = ctx.npoints
    return transform_inverse(
        lambda rho: gm_spectral(m, rho, ctx), ctx, npoints=npoints
    )


# --- kernels -----------------------------------------------------------


@dataclass
class Kernel:
    """Two-leg kernel: its depth table per sector pair plus truncation data.

    table[i] = H[i, s, d] for the pair (i, -i) (see the module docstring).
    A table must be finite wherever the grid block reads it,
    d + 2 s <= A + B - 2, or CapacityError is raised.
    """

    table: dict[int, np.ndarray]
    ctx: QContext
    shape: tuple[int, int]
    sector_max: int
    tail_bound: float = 0.0
    exact: bool = False

    def __post_init__(self):
        A, B = self.shape
        for i, H in self.table.items():
            S, D = H.shape
            read = np.arange(D) + 2 * np.arange(S)[:, None] <= A + B - 2
            if not np.isfinite(H[read]).all():
                raise CapacityError(f"kernel term {(i, -i)} is not finite in double precision")

    @functools.cached_property
    def terms(self) -> dict[tuple[int, int], np.ndarray]:
        """Dense grid matrices psi_ij per nonzero sector pair, materialized
        from the table on first use; read-only."""
        terms = _materialize(self.table, self.ctx.q2, self.shape)
        return {key: _frozen(arr) for key, arr in terms.items()}

    def term(self, i: int, j: int) -> np.ndarray:
        t = self.terms.get((i, j))
        if t is None:
            return np.zeros(self.shape, dtype=complex)
        return t


def _accumulate(acc: dict, key, arr: np.ndarray) -> None:
    acc[key] = acc[key] + arr if key in acc else arr


def _running_products(l: np.ndarray, q: float, width: int):
    """R[p, k] = (q^(2l_p); q^2)_k / (q^2; q^2)_k and L[p, k] = L_k(l_p) for
    k < width, with L_k(l) = sum_{j<k} q^(2j) / (1 - q^(2l+2j)): a running
    product and a running sum along each row, written into arrays of l's
    dtype, so a row's first columns do not depend on the width.  A
    vanishing 1 - q^(2l+2j) only occurs where every later R is 0, so its L
    term is masked rather than divided.
    """
    q2 = q * q
    j = np.arange(max(width - 1, 0), dtype=float)
    # 1 - q^(2l+2j), in place
    fac = 2.0 * l[:, None] + 2.0 * j
    fac *= math.log(q)
    np.exp(fac, out=fac)
    np.subtract(1.0, fac, out=fac)
    R = np.empty((len(l), width), dtype=fac.dtype)
    R[:, :1] = 1.0
    np.divide(fac, 1.0 - q2 ** (j + 1.0), out=R[:, 1:])
    np.cumprod(R, axis=1, out=R)
    L = np.zeros_like(R)
    np.divide(q2**j, fac, out=L[:, 1:], where=fac != 0)
    np.cumsum(L[:, 1:], axis=1, out=L[:, 1:])
    return R, L


def _depth_coefficients(l: np.ndarray, q: float, s_cap: int, sectors):
    """c[p, r, s] = c_{i,s}(l_p) and (L_k + L_n)(l_p) for i = sectors[r] and
    depths s < s_cap, gathered from _running_products' columns k and n.  At
    l = inf, c is its bound cbar.
    """
    i = np.asarray(sectors)[:, None]
    R, L = _running_products(l, q, s_cap + np.abs(i).max())
    k = np.arange(s_cap) + np.maximum(-i, 0)
    n = np.arange(s_cap) + np.maximum(i, 0)
    return (q * q) ** k * R[:, k] * R[:, n], L[:, k] + L[:, n]


def _materialize(table: dict, q2: float, shape: tuple[int, int]) -> dict:
    """Nonzero terms psi_i[a, b] = sum_s P_s(a) P_s(b) H[i, s, a+b-2s], keyed
    (i, -i).

    Depth s fills the block a, b >= s, where P_s is nonzero, with a Hankel
    matrix in the offsets d = 0..A+B-2 of H: the leading block of one
    strided window view, hankel[i, s, a, b] = H[i, s, a + b], never copied.
    """
    if not table:
        return {}
    A, B = shape
    H = np.stack(list(table.values()))
    P = _contraction_table(q2, H.shape[1], max(A, B)).real
    hankel = sliding_window_view(H, B, axis=-1)
    psi = np.zeros((H.shape[0], A, B), dtype=H.dtype)
    for s in range(H.shape[1]):
        psi[:, s:, s:] += np.outer(P[s, s:A], P[s, s:B]) * hankel[:, s, : A - s, : B - s]
    return {(i, -i): acc for i, acc in zip(table, psi) if np.any(acc)}


def _majorants(tables, q2: float, shape: tuple[int, int]) -> list[float]:
    """max_{a, b} sum_s P_s(a) P_s(b) H[s, a+b-2s] for each nonnegative row H
    of tables, an iterable of (min(shape), A+B-1) tables.

    On each antidiagonal a + b = t every summand is largest at the most
    balanced split inside the block, as ln P_s is concave along the grid;
    so one sum per t, at (floor(t/2), ceil(t/2)) clipped to the shape, and
    summed over s in the materializer's order, gives its maximum exactly.
    The splits, their leg products P_s(a) P_s(b) and the reads are shared.
    """
    A, B = shape
    t = np.arange(A + B - 1)
    a = np.clip(t // 2, t - (B - 1), A - 1)
    b = t - a
    P = _contraction_table(q2, min(A, B), max(A, B)).real
    s = np.arange(min(A, B))[:, None]
    # reads H[s, max(t - 2s, 0)] as flat indices; the sum over s runs row by row
    reach, at, legs = t >= 2 * s, s * len(t) + np.maximum(t - 2 * s, 0), P[:, a] * P[:, b]
    return [float(np.add.reduce(np.where(reach, legs * H.take(at), 0.0), axis=0).max()) for H in tables]


def kernel_G(
    l: complex,
    mode: str,
    ctx: QContext,
    shape: tuple[int, int] | None = None,
    sector_max: int = 4,
) -> Kernel:
    """Kernel of the one-parameter family at parameter l, or its l-derivative.

    mode "plain" gives G(l); mode "derivative" gives the closed-form
    d/dl G(l) (the kernel carrying the logarithmic terms), whose depth-s
    summand carries the factor

        h * [ q^(2l) (L_k + L_n)(q^(2l)) + 2 s - a - b ],

    where the first piece is the logarithmic derivative of the Pochhammer
    coefficients and the grid offsets realize ln(y) + ln(eta) exactly.
    The kernel's table is H = c_{i,s}(l) q^(2ld), times that factor for the
    derivative; kernel_assembled sums these tables in closed form.  Depths
    with c = 0 give zero, so the poles of L_k at l = 0, -1, ... never enter,
    and sector pairs whose table vanishes are left out.  For l a negative
    integer both sums terminate and it is exact.
    """
    if mode not in ("plain", "derivative"):
        raise DomainError("mode must be 'plain' or 'derivative'")
    if shape is None:
        shape = (ctx.npoints, ctx.npoints)
    A, B = shape
    l = complex(l)
    neg_int = l.imag == 0.0 and l.real < 0 and float(l.real).is_integer()
    s_cap, i_cap = min(A, B), sector_max
    if neg_int:
        # (q^(2l); q^2)_k vanishes exactly for k > -l, ending both sums
        s_cap, i_cap = min(s_cap, 1 - int(l.real)), min(i_cap, -int(l.real))
    sectors = range(-i_cap, i_cap + 1)
    (c,), (lsum,) = _depth_coefficients(np.array([l]), ctx.q, s_cap, sectors)
    d = np.arange(A + B - 1)
    H = c[:, :, None] * np.exp(2.0 * l * d * math.log(ctx.q))
    if mode == "derivative":
        H = ctx.h * H * (ctx.q2**l * lsum[:, :, None] - d)
    table = {i: row for i, row in zip(sectors, H) if np.any(row)}
    return Kernel(table, ctx, (A, B), i_cap, 0.0, exact=neg_int and mode == "plain")


# the assembled kernels' covers by (order, ctx, shape), rows only: the rows
# {i: (H, M, bound)} of every pair built so far, replaced, never changed, on
# growth.  A verify run reads 2 (orders 1 and 2 at its q).  A pass of
# green_solve of both orders over 40 q in [0.95, 0.995] reads each of its 80
# at its own q only, so it builds 80 at any limit from 2 up; the limit sets
# what the pass keeps.  Its peak RSS was 51 MB at 2, 58 MB at 16 (eight q of
# both orders) and 82 MB with all 80 kept.
_KERNELS = _Covers(16)


def kernel_assembled(
    order: int,
    ctx: QContext,
    shape: tuple[int, int] | None = None,
    sector_max: int = 4,
) -> Kernel:
    """Inverse kernel for the given power of the Laplacian.

    order 1:  - sum_{m>=1} (q^-2 - 1)/(q^-2m - 1) G(m)
    order 2:    sum_{m>=1} coef_order2(m) G(m)
              - (1-q^2)/h sum_{m>=1} (q^-2 - 1)/(q^-2m - 1) dG(m)/dl

    Each sector pair's table row is the sum of kernel_G's rows over m <= M,
    one product W[s, m] X[m, d] with X = q^(2md), and its count M is fixed
    first by an a-priori bound on every tail entry of that pair: as
    |c_{i,s}(m)| <= cbar = c_{i,s}(inf), coefficient ratios are at most q^2
    and L_k(m) decreases in m, the tail past M >= M0 is at most
    |coef_order1(M+1)| max_{a,b} sum_s cbar P_s(a) P_s(b) lin
    q^(2(M0+1)d) / (1 - q^(2+2d)), lin = 1 for order 1 or the order-2 factor
    at M0 + 1, where |coef_order1(M0+1)| / (1 - q^2) < ctx.series_tol.  M is
    the smallest count whose bound is below ctx.series_tol; there is no cap
    on M.  The kernel's tail_bound is the largest bound of its pairs.

    The rows are kept in one cover per (order, ctx, shape), shape filled
    in, and each call builds its Kernel from them (_assembled_kernel): a
    smaller sector_max, or green_solve on pairs built before, builds no row;
    a larger one builds only its new pairs, in one pass (_assembled_rows).
    At most 16 covers are kept, the least recently used dropped first.  The
    cover holds rows only, so each call returns a new Kernel, whose dense
    terms are built on its own first use.  Cached tables and the dense terms
    built from them are read-only.
    """
    shape = (ctx.npoints, ctx.npoints) if shape is None else tuple(shape)
    return _assembled_kernel(order, ctx, shape, range(-sector_max, sector_max + 1), sector_max)


def _assembled_kernel(order: int, ctx: QContext, shape: tuple[int, int], sectors, sector_max: int) -> Kernel:
    """The order-th inverse kernel on the pairs (i, -i), i in sectors, from
    the cover's rows; the missing ones are built in one _assembled_rows pass
    and kept.  Its tail_bound is the largest bound of its pairs."""
    if order not in (1, 2):
        raise DomainError("order must be 1 or 2")
    key = (order, ctx, shape)
    rows = _KERNELS.get(key, {})
    new = [i for i in sectors if i not in rows]
    if new:
        rows = {**rows, **_assembled_rows(order, ctx, shape, new)}
    _KERNELS.keep(key, rows)
    tail = max((rows[i][2] for i in sectors), default=0.0)
    return Kernel({i: rows[i][0] for i in sectors}, ctx, shape, sector_max, tail)


def _assembled_rows(order: int, ctx: QContext, shape: tuple[int, int], sectors) -> dict:
    """{i: (H, M, bound)} for the pairs (i, -i), i in sectors: the read-only
    table row H[i, s, d] of the order-th inverse kernel (kernel_assembled),
    its term count M and its tail bound, in one pass.

    The pairs share M0, their cbar and L(M0) from one _depth_coefficients
    call, X = q^(2md) up to their largest count and the running products of
    _running_products up to their widest sector; each pair gathers its own
    prefix and columns.  Its tail table, whose materialized maximum is its
    majorant, is cbar lin q^(2 M0 d) / (1 - q^(2+2d)).
    """
    q, q2, tol = ctx.q, ctx.q2, ctx.series_tol
    depths = min(shape)
    d = np.arange(sum(shape) - 1)
    m0 = 1
    while abs(coef_order1(m0, q)) / (1.0 - q2) >= tol:
        m0 += 1
    (_, cbar), (lsum, _) = _depth_coefficients(np.array([m0, np.inf]), q, depths, sectors)
    decay, gap = q2 ** (m0 * d), 1.0 - q2 ** (1.0 + d)

    def tail_tables():
        for r in range(len(sectors)):
            lin = 1.0
            if order == 2:
                lin = coef_order2(m0, q) / abs(coef_order1(m0, q)) + (1.0 - q2) * (q2**m0 * lsum[r, :, None] + d)
            yield cbar[r, :, None] * lin * decay / gap

    counts, bounds = [], []
    for majorant in _majorants(tail_tables(), q2, shape):
        count = m0 - 1
        while abs(coef_order1(count + 1, q)) * majorant >= tol:
            count += 1
        counts.append(count)
        bounds.append(float(abs(coef_order1(count + 1, q)) * majorant))
    m = np.arange(1.0, max(counts) + 1)
    # X = q^(2md), in place
    X = np.outer(m, d)
    X *= 2.0
    X *= math.log(q)
    np.exp(X, out=X)
    R, L = _running_products(m, q, depths + max(map(abs, sectors)))
    w1, w2, powers = coef_order1(m, q)[:, None], coef_order2(m, q)[:, None], (q2**m)[:, None]
    rows = {}
    for i, count, bound in zip(sectors, counts, bounds):
        k = np.arange(depths) + max(-i, 0)
        n = np.arange(depths) + max(i, 0)
        c = R[:count, k]
        c *= q2**k
        c *= R[:count, n]
        W = w1[:count] * c
        if order == 1:
            H = W.T @ X[:count]
        else:
            # the direct family plus (1-q^2)/h coef_order1 times the derivative tables
            c *= w2[:count]
            W *= 1.0 - q2
            derivative = L[:count, k]
            derivative += L[:count, n]
            derivative *= W * powers[:count]
            c += derivative
            H = c.T @ X[:count] - d * (W.T @ X[:count])
        rows[i] = (_frozen(H), count, bound)
    return rows


# --- kernel application -------------------------------------------------


def apply_kernel(K: Kernel, f: DiscElement, ctx: QContext | None = None) -> DiscElement:
    """Integral operator with kernel K: pair the second leg with f under
    the invariant integral.

    Only the second-leg sector opposite to each sector of f survives the
    integral; the pairing contracts the legs with the exact grid
    polynomials of the generator contractions.  For sector m of f, with
    weighted values w on its support, it contracts the table directly:

        out(a) = (1-q^2) sum_{b in supp f} sum_{s<=b} P_s(a) P_s(b) H[m, s, a+b-2s] w(b),

    at cost O(n^2 N) for f supported on rows below n, never forming the
    N x N term.  Insufficient kernel truncation for the support or sectors
    of f, or an integral weight q^(-2n) past the double range on f's
    support, raises CapacityError.
    """
    ctx = ctx or f.ctx
    A, B = K.shape
    out: dict[int, np.ndarray] = {}
    for m, phi in f.sectors.items():
        if not phi.finite_support:
            raise DomainError("apply_kernel requires a finite element")
        supp = np.flatnonzero(phi.values)
        if len(supp) == 0:
            continue
        j = -m
        H = K.table.get(m)
        if H is None:
            raise CapacityError(
                f"kernel lacks the sector pair {(m, j)} needed for f's sector {m}"
            )
        if supp[-1] >= B:
            raise CapacityError("kernel second-leg block too small for supp f")
        v = phi.values[: supp[-1] + 1]
        # the |j| generator contractions between the second leg and f
        # leave the polynomial Q_|j|; for j > 0 they also shift the
        # integral weight by q^(-2j)
        w = _integral_weights(v, ctx) * (ctx.q2**-j if j > 0 else 1.0)
        weighted = v * _poch_up(abs(j), ctx, len(v)) * w
        out[m] = (1.0 - ctx.q2) * _contract(H, ctx.q2, A, weighted)
    sectors = {
        i: GridFunction(_fit(v, ctx.npoints), finite_support=False)
        for i, v in out.items()
    }
    return DiscElement(sectors, ctx)


def _contract(H: np.ndarray, q2: float, A: int, v: np.ndarray) -> np.ndarray:
    """out(a) = sum_b sum_s P_s(a) P_s(b) H[s, a+b-2s] v(b) for a < A.

    Depth s reaches only a, b >= s, where the b-sum is a correlation of
    H[s] with P_s v, taken by np.convolve with the reversed vector.
    """
    # the kernel-wide leg table: one cache entry per kernel shape, whatever
    # the support of v (len(v) <= B = H.shape[1] - A + 1)
    depths = min(H.shape[0], len(v))
    P = _contraction_table(q2, H.shape[0], max(A, H.shape[1] - A + 1)).real
    out = np.zeros(A, dtype=complex)
    for s in range(depths):
        u = (P[s, s : len(v)] * v[s:])[::-1]
        out[s:] += P[s, s:A] * np.convolve(H[s, : A - s + len(u) - 1], u, "valid")
    return out


def _fit(v: np.ndarray, npoints: int) -> np.ndarray:
    if len(v) == npoints:
        return v
    out = np.zeros(npoints, dtype=complex)
    out[: min(npoints, len(v))] = v[:npoints]
    return out


def green_solve(f: DiscElement, order: int, ctx: QContext | None = None) -> DiscElement:
    """Solution of the order-th power of the Laplacian applied inversely to f.

    Applies the inverse kernel on the full grid with the sector pairs of
    f's own sectors only: f on sector 3 alone needs the pair (3, -3) and
    builds no other.  Its table rows come from kernel_assembled's cover, so
    a pair already built for any sector range is not built again; the
    solution lives in the closure of each sector of f.
    """
    ctx = ctx or f.ctx
    if not f.finite:
        raise DomainError("green_solve requires a finite element")
    sectors = list(f.sectors)
    K = _assembled_kernel(order, ctx, (ctx.npoints, ctx.npoints), sectors, max(map(abs, sectors), default=0))
    return apply_kernel(K, f, ctx)


# --- kernel invariance ---------------------------------------------------


def _coproduct_legs(label: str, terms: dict, ctx: QContext):
    """E or F acting on a kernel's dense sector-pair terms through the
    coproduct, E as E (x) 1 + K (x) E and F as F (x) K^-1 + 1 (x) F.

    Yields (target pair, source pair, axis, c0, c1, s) for each term and
    leg: the leg image is c0 psi + c1 shift(psi, s) along the axis, psi the
    source pair's term, with c0, c1 from the element formulas of _ef_terms
    on that leg's grid and the K or K^-1 factor of the other leg folded in.
    """
    q = ctx.q
    for (i, j), psi in terms.items():
        A, B = psi.shape
        i2, a0, a1, sa = _ef_terms(label, i, ctx.ygrid(A)[:, None], q)
        j2, b0, b1, sb = _ef_terms(label, j, ctx.ygrid(B)[None, :], q)
        if label == "E":
            b0, b1 = q ** (2 * i) * b0, q ** (2 * i) * b1
        else:
            a0, a1 = q ** (-2 * j) * a0, q ** (-2 * j) * a1
        yield (i2, j), (i, j), 0, a0, a1, sa
        yield (i, j2), (i, j), 1, b0, b1, sb


def _leg_image(psi: np.ndarray, axis: int, c0, c1, s: int) -> np.ndarray:
    """c0 psi + c1 shift(psi, s), shifted along the axis and zero past the
    grid."""
    shifted = _shift(psi.T, s).T if axis == 0 else _shift(psi, s)
    image = c0 * psi
    image += np.multiply(c1, shifted, out=shifted)
    return image


def kernel_act(label: str, terms: dict, ctx: QContext) -> dict:
    """Coproduct action on a kernel given by its dense sector-pair terms
    (Kernel.terms), as the dict of the image's terms: E acts as
    E (x) 1 + K (x) E, F as F (x) K^-1 + 1 (x) F, K legwise."""
    out: dict[tuple[int, int], np.ndarray] = {}
    if label in ("K", "Kinv"):
        s = 1 if label == "K" else -1
        for (i, j), psi in terms.items():
            out[(i, j)] = ctx.q ** (2 * s * (i + j)) * psi
    else:
        for key, source, *leg in _coproduct_legs(label, terms, ctx):
            _accumulate(out, key, _leg_image(terms[source], *leg))
    return out


def kernel_invariance_residual(K: Kernel, ctx: QContext | None = None) -> float:
    """Invariance defect of a kernel under the coproduct action.

    max over xi in {E, F} of the entrywise residual of xi(K), normalized by
    the magnitude of the contributions entering each entry, |c0| |psi| +
    |c1| shift(|psi|, s) over the same legs (kernel functions grow along
    the grid, so raw sup norms would drown exact cancellations in rounding
    noise).  The top grid row/column of each term is excluded, matching the
    one-step reach of the difference formulas.  K - 1 is not measured: K
    acts on the pair (i, j) as q^(2(i+j)), and every Kernel holds pairs
    (i, -i) only, so that part is 0 exactly, or nan where a term is not
    finite.  The E/F part never reads the top row and column, so an explicit
    check over the terms keeps that: any nan or inf entry makes the residual
    nan.

    For exact (terminating) kernels every sector pair is measured.  For
    sector-truncated kernels the generator images cancel between
    adjacent stored terms, so only acted pairs whose parents are all
    inside the stored sector range carry meaning; pairs at the
    truncation boundary are skipped, and their images are never formed.

    Each acted pair is summed from its leg images (kernel_act's, at most
    one per leg, so the order of the sum does not matter) one pair at a
    time, and |psi| is taken once per term.  A nan entry makes the
    residual nan.
    """
    ctx = ctx or K.ctx
    absolute = {key: np.abs(psi) for key, psi in K.terms.items()}
    acted: dict[tuple, list] = {}
    for lab in ("E", "F"):
        for target, *leg in _coproduct_legs(lab, K.terms, ctx):
            if min(K.shape) > 1 and (K.exact or max(map(abs, target)) <= K.sector_max):
                acted.setdefault((lab, target), []).append(leg)

    def residual(legs):
        image = functools.reduce(np.add, (_leg_image(K.terms[source], *leg) for source, *leg in legs))
        mag = functools.reduce(
            np.add, (_leg_image(absolute[source], axis, abs(c0), abs(c1), s) for source, axis, c0, c1, s in legs)
        )
        return np.max(np.abs(image[:-1, :-1]) / np.maximum(1.0, mag[:-1, :-1]))

    finite = all(np.isfinite(size).all() for size in absolute.values())
    return _max(0.0 if finite else math.nan, *(residual(legs) for legs in acted.values()))


# --- classical limits ----------------------------------------------------


@dataclass
class LimitRow:
    """One row of the classical-limit comparison table."""

    q: float
    t: float
    err_order1: float
    err_order2: float
    reflection_residual: float


def classical_limit_report(t_list, q_list) -> list[LimitRow]:
    """Errors of the coefficient-series limits against the classical targets.

    For each q in q_list and argument t in t_list the first series is
    compared with ln(1-t) and the second with 2 Li2(t) + ln(t) ln(1-t);
    the dilogarithm reflection identity residual is reported alongside.
    Errors decrease as q -> 1.

    The series s1 and s2 of g_radial_grid at t = p^x, p = q^2, are its
    g_1 and g_2 over (1-p) at the real depth x = ln(1/t)/h, h = ln(1/p),
    so they are read from the same Lambert tails, ceil(41/h) terms each
    (about 20500 at q = 0.999).  The h of that depth is the double p's
    own, so p^x is t to rounding.  Against 30-digit sums at q = 0.9 to
    0.999, s1 errs below 4e-16; s2 errs more near q = 1, where its log
    term cancels.
    """
    rows = []
    for q in q_list:
        if not 0.0 < q < 1.0:
            raise DomainError("limit study requires q in (0, 1)")
        for t in t_list:
            if not 0.0 <= t < 1.0:
                raise DomainError("limit study requires t in [0, 1)")
            if t == 0.0:
                rows.append(LimitRow(q, t, 0.0, 0.0, 0.0))
                continue
            p = q * q
            h = -math.log(p)
            g1, g2 = _lambert_tails(p, math.log(t) / -h, 1, math.ceil(41.0 / h))
            s1, s2 = float(g1[0]) / (1.0 - p), float(g2[0]) / (1.0 - p)
            target1 = math.log(1.0 - t)
            target2 = 2.0 * dilog(t) + math.log(t) * math.log(1.0 - t)
            refl = abs(
                dilog(t)
                + dilog(1.0 - t)
                - (math.pi**2 / 6.0 - math.log(t) * math.log(1.0 - t))
            )
            rows.append(
                LimitRow(q, t, abs(s1 - target1), abs(s2 - target2), refl)
            )
    return rows
