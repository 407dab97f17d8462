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
residual.

The coproduct action on a kernel acts on each leg with the element
formulas of uqsl2._ef_terms, applied along that leg's grid axis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .context import QContext, _frozen
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


def _green_sums(q: float, t: float, tol: float) -> tuple[float, float]:
    """s1 = sum_{m>=1} coef_order1(m) t^m and s2 = sum_{m>=1} coef_order2(m) t^m,
    stopped once inc r / (1 - r), r = q^2 t < 1, is below tol: both families
    have consecutive ratios below q^2, so that bounds the tail."""
    s1 = s2 = 0.0
    power, r = 1.0, q * q * t
    for m in range(1, 10_000_001):
        power *= t
        term1, term2 = coef_order1(m, q) * power, coef_order2(m, q) * power
        s1, s2 = s1 + term1, s2 + term2
        if max(abs(term1), abs(term2)) * r / (1.0 - r) < tol:
            return s1, s2
    raise DomainError("green series did not converge")


def g_radial_grid(order: int, ctx: QContext, npoints: int | None = None) -> GridFunction:
    """Fundamental solution on grid rows 0..npoints-1, as Lambert tails.

    g_1 = (1-p) s1 and g_2 = (1-p) (s2 - (1-p) n s1) at t = p^n, p = q^2,
    with s1, s2 the series of _green_sums (ln t / h = -n).  Put 1/(1-p^m) =
    sum_k p^(mk) and (1+p^m)/(1-p^m)^2 = sum_k (2k+1) p^(mk) into the
    coefficients and sum over m first; with u_j = p^j/(1-p^j), and the log
    term giving the n U(n),

        g_1(n) = -(1-p)^2/p U(n),                  U(n) = sum_{j>n} u_j,
        g_2(n) = (1-p)^3/p (2 V(n) - (n+1) U(n)),  V(n) = sum_{j>n} j u_j,

    that is g_2(n) = (1-p)^3/p sum_{j>n} (2j-n-1) u_j.  U and V are reverse
    cumulative sums, smallest term first, with 1 - p^j = -expm1(j ln p), to
    J = max(npoints, ctx.npoints) + ceil(41/h).  Row n omits K > 41/h terms,
    at most p^K/(1-p^K) of its value times 1 or, for the weights n + 2i - 1
    at j = n + i, 1 + 2K(1-p)/(1+p) <= 1 + Kh: below 42 e^-41/(1 - e^-41)
    = 6.6e-17 < 2^-53 on every row (40/h gives 1.7e-16).  Grids no longer
    than the context's share J, so their common rows agree bit for bit.
    """
    if order not in (1, 2):
        raise DomainError("order must be 1 or 2")
    npoints = max(ctx.npoints if npoints is None else npoints, 0)
    p = ctx.q2
    j = np.arange(1.0, max(npoints, ctx.npoints) + math.ceil(41.0 / ctx.h) + 1)
    u = p**j / -np.expm1(j * math.log(p))
    U, V = (np.cumsum(x[::-1])[::-1][:npoints] for x in (u, j * u))
    if order == 1:
        return GridFunction(-((1.0 - p) ** 2) / p * U, finite_support=False)
    # j[n] = n + 1
    return GridFunction((1.0 - p) ** 3 / p * (2.0 * V - j[:npoints] * U), finite_support=False)


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


def _depth_coefficients(l: np.ndarray, q: float, s_cap: int, sectors):
    """c[p, r, s] = c_{i,s}(l_p) and (L_k + L_n)(l_p) for i = sectors[r] and
    depths s < s_cap, with L_k(l) = sum_{j<k} q^(2j) / (1 - q^(2l+2j)).
    A vanishing 1 - q^(2l+2j) only occurs where c = 0, so its L term is
    masked rather than divided.  At l = inf, c is its bound cbar.
    """
    q2 = q * q
    i = np.asarray(sectors)[:, None]
    j = np.arange(s_cap + np.abs(i).max(), dtype=float)
    # 1 - q^(2l+2j), and R_k = (q^(2l); q^2)_k / (q^2; q^2)_k as running products
    fac = 1.0 - np.exp((2.0 * l[:, None] + 2.0 * j) * math.log(q))
    ratios = fac[:, :-1] / (1.0 - q2 ** (j[:-1] + 1.0))
    R = np.cumprod(np.pad(ratios, ((0, 0), (1, 0)), constant_values=1.0), axis=1)
    lterms = np.divide(q2**j, fac, out=np.zeros_like(fac), where=fac != 0)
    L = np.pad(np.cumsum(lterms, axis=1), ((0, 0), (1, 0)))
    k = np.arange(s_cap) + np.maximum(-i, 0)
    n = np.arange(s_cap) + np.maximum(i, 0)
    return q2**k * R[:, k] * R[:, n], L[:, k] + L[:, n]


def _materialize(table: dict, q2: float, shape: tuple[int, int]) -> dict:
    """Nonzero terms psi_i[a, b] = sum_s P_s(a) P_s(b) H[i, s, a+b-2s], keyed
    (i, -i).

    Depth s fills the block a, b >= s, where P_s is nonzero, with a Hankel
    matrix in the offsets d = 0..A+B-2 of H.
    """
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


def _majorant(H: np.ndarray, q2: float, shape: tuple[int, int]) -> float:
    """max_{a, b} sum_s P_s(a) P_s(b) H[s, a+b-2s] for a nonnegative row H.

    On each antidiagonal a + b = t every summand is largest at the most
    balanced split inside the block, as ln P_s is concave along the grid;
    so one sum per t, at (floor(t/2), ceil(t/2)) clipped to the shape, and
    summed over s in the materializer's order, gives its maximum exactly.
    """
    A, B = shape
    t = np.arange(A + B - 1)
    a = np.clip(t // 2, t - (B - 1), A - 1)
    b = t - a
    P = _contraction_table(q2, H.shape[0], max(A, B)).real
    s = np.arange(H.shape[0])[:, None]
    summands = np.where(t >= 2 * s, P[:, a] * P[:, b] * H[s, np.maximum(t - 2 * s, 0)], 0.0)
    return float(np.add.accumulate(summands, axis=0)[-1].max())


def kernel_G(
    l: complex,
    mode: str = "plain",
    ctx: QContext | None = None,
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
    if ctx is None:
        raise DomainError("kernel_G requires a context")
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

    Rows are cached per (order, ctx, shape, sector pair) and shared by every
    sector_max, so green_solve reuses them; kernels are cached per (order,
    ctx, shape, sector_max) with shape filled in.  Cached tables and the
    dense terms built from them are read-only.
    """
    if order not in (1, 2):
        raise DomainError("order must be 1 or 2")
    if shape is None:
        shape = (ctx.npoints, ctx.npoints)
    return _assembled(order, ctx, tuple(shape), sector_max)


@functools.cache
def _assembled(order: int, ctx: QContext, shape: tuple[int, int], sector_max: int) -> Kernel:
    rows = {i: _assembled_row(order, ctx, shape, i) for i in range(-sector_max, sector_max + 1)}
    tail = max(t for _, t in rows.values())
    return Kernel({i: H for i, (H, _) in rows.items()}, ctx, shape, sector_max, tail, False)


def _tail_table(order: int, ctx: QContext, shape: tuple[int, int], i: int):
    """M0 - 1 and the nonnegative table cbar lin q^(2 M0 d) / (1 - q^(2+2d))
    of the pair (i, -i), whose materialized maximum is its majorant."""
    q, q2, tol = ctx.q, ctx.q2, ctx.series_tol
    d = np.arange(sum(shape) - 1)
    count = 0
    while abs(coef_order1(count + 1, q)) / (1.0 - q2) >= tol:
        count += 1
    m0 = count + 1
    (_, cbar), (lsum, _) = _depth_coefficients(np.array([m0, np.inf]), q, min(shape), [i])
    lin = 1.0
    if order == 2:
        lin = coef_order2(m0, q) / abs(coef_order1(m0, q))
        lin = lin + (1.0 - q2) * (q2**m0 * lsum[0, :, None] + d)
    return count, cbar[0, :, None] * lin * q2 ** (m0 * d) / (1.0 - q2 ** (1.0 + d))


def _term_count(order: int, ctx: QContext, shape: tuple[int, int], i: int) -> tuple[int, float]:
    """The certified term count M of the pair (i, -i) and its majorant."""
    count, H = _tail_table(order, ctx, shape, i)
    majorant = _majorant(H, ctx.q2, shape)
    while abs(coef_order1(count + 1, ctx.q)) * majorant >= ctx.series_tol:
        count += 1
    return count, majorant


@functools.cache
def _assembled_row(order: int, ctx: QContext, shape: tuple[int, int], i: int):
    """Table row H[i, s, d] of the order-th inverse kernel and its tail bound."""
    q, q2 = ctx.q, ctx.q2
    count, majorant = _term_count(order, ctx, shape, i)
    d = np.arange(sum(shape) - 1)
    m = np.arange(1.0, count + 1)
    c, lsum = (x[:, 0] for x in _depth_coefficients(m, q, min(shape), [i]))
    X = np.exp(2.0 * np.outer(m, d) * math.log(q))
    W = coef_order1(m, q)[:, None] * c
    if order == 1:
        H = W.T @ X
    else:
        # the direct family plus (1-q^2)/h coef_order1 times the derivative tables
        Wd = (1.0 - q2) * W
        direct = coef_order2(m, q)[:, None] * c + Wd * (q2**m)[:, None] * lsum
        H = direct.T @ X - d * (Wd.T @ X)
    # cached and shared between kernels, so read-only
    return _frozen(H), float(abs(coef_order1(count + 1, q)) * majorant)


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
        supp = np.nonzero(np.abs(phi.values) > 0)[0]
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
    f's sectors.  Its table rows are cached per sector pair, so they are
    shared with every kernel_assembled call and never rebuilt for another
    sector range; the solution lives in the closure of each sector of f.
    """
    ctx = ctx or f.ctx
    if not f.finite:
        raise DomainError("green_solve requires a finite element")
    lo, hi = f.sector_range()
    sector_max = max(abs(lo), abs(hi))
    K = kernel_assembled(order, ctx, (ctx.npoints, ctx.npoints), sector_max)
    return apply_kernel(K, f, ctx)


# --- kernel invariance ---------------------------------------------------


def _coproduct_legs(label: str, terms: dict, ctx: QContext):
    """E or F acting on a kernel's dense sector-pair terms through the
    coproduct, E as E (x) 1 + K (x) E and F as F (x) K^-1 + 1 (x) F.

    Yields (target pair, psi, axis, c0, c1, s) for each term and leg: the
    leg image is c0 psi + c1 shift(psi, s) along the axis, with c0, c1
    from the element formulas of _ef_terms on that leg's grid and the K or
    K^-1 factor of the other leg folded in.
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
        yield (i2, j), psi, 0, a0, a1, sa
        yield (i, j2), psi, 1, b0, b1, sb


def _leg_image(psi: np.ndarray, axis: int, c0, c1, s: int) -> np.ndarray:
    """c0 psi + c1 shift(psi, s), shifted along the axis."""
    shifted = _shift(psi.T, s).T if axis == 0 else _shift(psi, s)
    return c0 * psi + c1 * shifted


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
        for key, *leg in _coproduct_legs(label, terms, ctx):
            _accumulate(out, key, _leg_image(*leg))
    return out


def kernel_invariance_residual(K: Kernel, ctx: QContext | None = None) -> float:
    """Invariance defect of a kernel under the coproduct action.

    max over xi in {E, F, K-1} of the entrywise residual of xi(K),
    normalized by the magnitude of the contributions entering each entry,
    |c0| |psi| + |c1| shift(|psi|, s) over the same legs (kernel functions
    grow along the grid, so raw sup norms would drown exact cancellations
    in rounding noise).  The top grid row/column of each term is excluded,
    matching the one-step reach of the difference formulas.

    For exact (terminating) kernels every sector pair is measured.  For
    sector-truncated kernels the generator images cancel between
    adjacent stored terms, so only acted pairs whose parents are all
    inside the stored sector range carry meaning; pairs at the
    truncation boundary are skipped.
    """
    ctx = ctx or K.ctx
    worst = 0.0
    for lab in ("E", "F"):
        acted = kernel_act(lab, K.terms, ctx)
        mags: dict[tuple[int, int], np.ndarray] = {}
        for key, psi, axis, c0, c1, s in _coproduct_legs(lab, K.terms, ctx):
            _accumulate(mags, key, _leg_image(np.abs(psi), axis, abs(c0), abs(c1), s))
        for key, arr in acted.items():
            if not K.exact and max(abs(key[0]), abs(key[1])) > K.sector_max:
                continue
            ratio = np.abs(arr) / np.maximum(1.0, mags[key])
            if ratio.shape[0] > 1 and ratio.shape[1] > 1:
                worst = max(worst, float(np.max(ratio[:-1, :-1])))
    for (i, j), psi in K.terms.items():
        dev = abs(ctx.q ** (2 * (i + j)) - 1.0) * np.abs(psi)
        scale = np.maximum(1.0, np.abs(psi))
        worst = max(worst, float(np.max(dev / scale)))
    return worst


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
            s1, direct = _green_sums(q, t, 1e-15)
            s2 = direct + (1.0 - q * q) / (-2.0 * math.log(q)) * math.log(t) * s1
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
