"""Green functions and kernels of the invariant Laplacian.

Radial fundamental solutions g_1, g_2 as explicit coefficient series, an
independent quadrature oracle for them through the spectral transform,
the one-parameter kernel family on the double disc together with its
parameter derivative, the assembled inverse kernels for the first and
second power of the Laplacian, kernel application as an integral
operator, Green solvers, and classical-limit comparison tables.

Kernel storage.  A kernel is a family of two-variable grid functions
indexed by a sector pair (i, j): the (i, j) term represents

    (z-part of sector i)  psi_ij(y, eta)  (zeta-part of sector j)

with each leg kept in the same normal-form convention as DiscElement
(generator left of the function for nonnegative sectors, conjugate
generator right of it for negative ones).  On the grid each term is a
dense matrix psi_ij[q^(2a), q^(2b)].

The one-parameter family G(l) expands into such terms with sector pairs
(i, -i): writing s for the contraction depth,

    psi_i = sum_s  c_{i,s}(l) F_s(y; l) (x) F_s(eta; l),
    F_s(t; l) = q^(-2 s l) t^l P_s(t),
    P_s(t) = prod_{r=0}^{s-1} (1 - q^(-2r) t)   (vanishes on grid rows < s),

with c_{i,s}(l) = q^(2k) (q^(2l); q^2)_k (q^(2l); q^2)_n / ((q^2;q^2)_k
(q^2;q^2)_n) for (k, n) = (s, s+i) when i >= 0 and (s+|i|, s) otherwise.
For l a negative integer the s- and i-ranges terminate exactly.

On the grid t = q^(2a), P_s(q^(2a)) = (q^2;q^2)_a / (q^2;q^2)_(a-s), so
every factor is a ratio of running products.  kernel_G stacks the legs
into F[s, a] = F_s(q^(2a); l) and evaluates each term as the single
product psi_i = F^T diag(c_i) F over the depth s.

The coproduct action on a kernel acts on each leg with the element
formulas of uqsl2._ef_terms, applied along that leg's grid axis.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .context import QContext
from .discalg import DiscElement, GridFunction, _poch_up, _shift
from .errors import CapacityError, DomainError
from .qspecial import dilog
from .spherical import transform_inverse
from .uqsl2 import _ef_terms, laplacian_apply

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


def _green_sums(order: int, q: float, t: float, tol: float) -> tuple[float, float]:
    """Sums s1 = sum_{m>=1} coef_order1(m) t^m and, for order 2,
    s2 = sum_{m>=1} coef_order2(m) t^m (else 0.0).

    Both coefficient families have consecutive ratios below q^2, so the
    increment ratio is at most r = q^2 t < 1 and inc r / (1 - r) bounds
    the tail; the sums stop once that bound is below tol.
    """
    s1 = 0.0
    s2 = 0.0
    power = 1.0
    r = q * q * t
    for m in range(1, 10_000_001):
        power *= t
        term = coef_order1(m, q) * power
        s1 += term
        inc = abs(term)
        if order == 2:
            term = coef_order2(m, q) * power
            s2 += term
            inc = max(inc, abs(term))
        if inc * r / (1.0 - r) < tol:
            return s1, s2
    raise DomainError("green series did not converge")


def g_radial(order: int, n: int, ctx: QContext) -> complex:
    """Fundamental solution value at y = q^(2n).

    order 1: g_1(y) = (1-q^2) sum_m coef_order1(m) y^m solves the radial
    equation with the delta at the disc centre as the right-hand side;
    order 2 adds the direct family and a log term, with
    ln(y) = -n h evaluated exactly from the grid index.
    """
    if order not in (1, 2):
        raise DomainError("order must be 1 or 2")
    s1, s2 = _green_sums(order, ctx.q, ctx.q2**n, ctx.series_tol)
    if order == 1:
        return (1.0 - ctx.q2) * s1
    # the log factor ln(y) = -n h cancels h against the series prefactor;
    # s1 already carries the sign of the order-1 coefficients
    return (1.0 - ctx.q2) * (s2 - (1.0 - ctx.q2) * n * s1)


def g_radial_grid(order: int, ctx: QContext, npoints: int | None = None) -> GridFunction:
    """Fundamental solution on grid rows 0..npoints-1."""
    if npoints is None:
        npoints = ctx.npoints
    vals = np.array([g_radial(order, n, ctx) for n in range(npoints)])
    return GridFunction(vals, finite_support=False)


def gm_spectral(m: int, rho: float, ctx: QContext) -> complex:
    """Spectral image of the m-th fundamental solution:
    (-1)^m (1-q^2)^(2m+1) / ((1-q^(1+2i rho))^m (1-q^(1-2i rho))^m).

    Satisfies lambda(rho)^m * gm_spectral = 1 - q^2 identically.
    """
    q = ctx.q
    lnq = math.log(q)
    a = cmath.exp((1 + 2j * rho) * lnq)
    b = cmath.exp((1 - 2j * rho) * lnq)
    return (-1.0) ** m * (1.0 - ctx.q2) ** (2 * m + 1) / ((1.0 - a) ** m * (1.0 - b) ** m)


def gm_quadrature(m: int, n: int, ctx: QContext) -> complex:
    """Quadrature oracle for the m-th fundamental solution at y = q^(2n).

    Applies the inverse spherical transform to gm_spectral; independent
    of the coefficient series of g_radial, it validates them numerically
    (the second-order series in particular).
    """
    if m < 1:
        raise DomainError("m must be a positive integer")
    grid = gm_quadrature_grid(m, ctx, n + 1)
    return complex(grid.values[n])


def gm_quadrature_grid(m: int, ctx: QContext, npoints: int | None = None) -> GridFunction:
    if npoints is None:
        npoints = ctx.npoints
    return transform_inverse(
        lambda rho: gm_spectral(m, rho, ctx), ctx, npoints=npoints
    )


# --- kernels -----------------------------------------------------------


@dataclass
class Kernel:
    """Two-leg kernel: sector-pair indexed grid matrices plus truncation data."""

    terms: dict[tuple[int, int], np.ndarray]
    ctx: QContext
    shape: tuple[int, int]
    sector_max: int
    tail_bound: float = 0.0
    exact: bool = False

    def term(self, i: int, j: int) -> np.ndarray:
        t = self.terms.get((i, j))
        if t is None:
            return np.zeros(self.shape, dtype=complex)
        return t


def _accumulate(acc: dict, key, arr: np.ndarray) -> None:
    acc[key] = acc[key] + arr if key in acc else arr


def kernel_G(
    l: complex,
    mode: str = "plain",
    ctx: QContext | None = None,
    shape: tuple[int, int] | None = None,
    sector_max: int = 4,
) -> Kernel:
    """Kernel of the one-parameter family at parameter l, or its l-derivative.

    mode "plain" materializes G(l); mode "derivative" materializes the
    closed-form d/dl G(l) (the kernel carrying the logarithmic terms),
    whose depth-s summand carries the factor

        h * [ q^(2l) (L_k + L_n)(q^(2l)) + 2 s - a - b ],

    where the first piece is the logarithmic derivative of the Pochhammer
    coefficients and the grid offsets realize ln(y) + ln(eta) exactly.

    Each sector term is one matrix product over the contraction depth s,

        psi_i = F_a^T diag(c_i) F_b,    F[s, a] = F_s(q^(2a); l),

    and the derivative term is h * (F_a^T diag(c_i q^(2l) (L_k + L_n)) F_b
    - (D F_a)^T diag(c_i) F_b - F_a^T diag(c_i) (D F_b)), D[s, a] = a - s.
    F, c_i and L_k are read off cumulative q-Pochhammer tables built once
    per call.  Depths with c_{i,s} = 0 are left out, so the poles of L_k
    at l = 0, -1, -2, ... never enter.  For l a negative integer both the
    depth and sector sums terminate and the kernel is exact.
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
    s_cap = min(A, B)
    i_cap = sector_max
    if neg_int:
        # (q^(2l); q^2)_k vanishes exactly for k > -l, ending both sums
        l0 = int(-l.real)
        s_cap = min(s_cap, l0 + 1)
        i_cap = min(i_cap, l0)
    lnq = math.log(ctx.q)
    q2 = ctx.q2
    depth = np.arange(s_cap)
    j = np.arange(max(A, B, s_cap + i_cap), dtype=float)
    # (q^2; q^2)_k, and 1 - q^(2l+2j) whose running products are (q^(2l); q^2)_k
    qq = np.cumprod(np.concatenate(([1.0], 1.0 - q2 ** j[1:])))
    fac = 1.0 - np.exp((2.0 * l + 2.0 * j) * lnq)
    ql = np.cumprod(np.concatenate(([1.0], fac[:-1])))

    def legs(npoints: int) -> tuple[np.ndarray, np.ndarray]:
        # F[s, a] = q^(2l(a-s)) (q^2;q^2)_a / (q^2;q^2)_(a-s), zero for a < s,
        # and the offsets a - s clipped at zero
        d = np.arange(npoints, dtype=float) - depth[:, None]
        dd = np.maximum(d, 0.0)
        P = np.where(d >= 0, qq[:npoints] / qq[dd.astype(int)], 0.0)
        return np.exp(2.0 * dd * l * lnq) * P, dd

    (Fa, Da), (Fb, Db) = legs(A), legs(B)
    if mode == "derivative":
        # L_k = sum_{j<k} q^(2j) / (1 - q^(2l+2j)); a vanishing factor only
        # occurs where c = 0, so its term is masked rather than divided
        lterms = np.divide(q2**j, fac, out=np.zeros_like(fac), where=fac != 0)
        L = np.concatenate(([0.0], np.cumsum(lterms)))
        q2l = cmath.exp(2.0 * l * lnq)
        # 2s - a - b = -(a - s) - (b - s): each offset rides on its own leg,
        # so the leading depth s = min(a, b) adds no cancellation
        DFa, DFb = Da * Fa, Db * Fb
    terms: dict[tuple[int, int], np.ndarray] = {}
    for i in range(-i_cap, i_cap + 1):
        k = depth + max(-i, 0)
        n = depth + max(i, 0)
        c = q2**k * (ql[k] * ql[n]) / (qq[k] * qq[n])
        live = c != 0
        fa, fb, cl = Fa[live], Fb[live], c[live, None]
        if mode == "plain":
            acc = fa.T @ (cl * fb)
        else:
            w = (c * q2l * (L[k] + L[n]))[live, None]
            acc = ctx.h * (
                fa.T @ (w * fb) - DFa[live].T @ (cl * fb) - fa.T @ (cl * DFb[live])
            )
        if not np.isfinite(acc).all():
            raise CapacityError(
                f"kernel term {(i, -i)} at l={l} is not finite in double "
                f"precision on a {A}x{B} grid"
            )
        if np.any(acc):
            terms[(i, -i)] = acc
    return Kernel(terms, ctx, (A, B), i_cap, 0.0, exact=neg_int and mode == "plain")


def kernel_assembled(
    order: int,
    ctx: QContext,
    shape: tuple[int, int] | None = None,
    sector_max: int = 4,
    tol: float | None = None,
) -> Kernel:
    """Inverse kernel for the given power of the Laplacian.

    order 1:  - sum_{m>=1} (q^-2 - 1)/(q^-2m - 1) G(m)
    order 2:    sum_{m>=1} coef_order2(m) G(m)
              - (1-q^2)/h sum_{m>=1} (q^-2 - 1)/(q^-2m - 1) dG(m)/dl

    The coefficient series decay geometrically (ratio q^2 up to a linear
    factor); terms are accumulated until a measured-ratio tail bound is
    below tol, else CapacityError.  Kernels are cached per (order, ctx,
    shape, sector_max, tol) with shape and tol filled in, so callers that
    spell out the defaults share one assembly; cached term arrays are
    read-only.
    """
    if order not in (1, 2):
        raise DomainError("order must be 1 or 2")
    if shape is None:
        shape = (ctx.npoints, ctx.npoints)
    if tol is None:
        tol = ctx.series_tol
    return _assembled(order, ctx, tuple(shape), sector_max, tol)


@functools.cache
def _assembled(
    order: int, ctx: QContext, shape: tuple[int, int], sector_max: int, tol: float
) -> Kernel:
    acc: dict[tuple[int, int], np.ndarray] = {}
    increments: list[float] = []
    tail = math.inf
    for m in range(1, ctx.trunc_terms + 1):
        g = kernel_G(float(m), "plain", ctx, shape, sector_max)
        c1 = coef_order1(m, ctx.q)
        inc_norm = 0.0
        if order == 1:
            pieces = [(c1, g)]
        else:
            ghat = kernel_G(float(m), "derivative", ctx, shape, sector_max)
            pieces = [
                (coef_order2(m, ctx.q), g),
                ((1.0 - ctx.q2) / ctx.h * c1, ghat),
            ]
        for c, ker in pieces:
            for key, arr in ker.terms.items():
                block = c * arr
                _accumulate(acc, key, block)
                inc_norm = max(inc_norm, float(np.max(np.abs(block))))
        increments.append(inc_norm)
        if len(increments) >= 4:
            recent = increments[-3:]
            ratios = [
                recent[k + 1] / recent[k] for k in range(2) if recent[k] > 0
            ]
            r = max(ratios) if ratios else 0.0
            if r < 0.95:
                tail = increments[-1] * r / (1.0 - r) if r > 0 else 0.0
                if tail < tol:
                    # cached and shared between callers, so read-only
                    for arr in acc.values():
                        arr.flags.writeable = False
                    return Kernel(acc, ctx, shape, sector_max, tail, False)
    raise CapacityError(
        f"kernel series tail bound {tail:.2e} not below {tol:.2e} "
        f"within {ctx.trunc_terms} terms"
    )


# --- kernel application -------------------------------------------------


def apply_kernel(K: Kernel, f: DiscElement, ctx: QContext | None = None) -> DiscElement:
    """Integral operator with kernel K: pair the second leg with f under
    the invariant integral.

    Only the second-leg sector opposite to each sector of f survives the
    integral; the pairing contracts the legs with the exact grid
    polynomials of the generator contractions.  Insufficient kernel
    truncation for the support or sectors of f raises CapacityError.
    """
    ctx = ctx or f.ctx
    B = K.shape[1]
    w = ctx.weights(B)
    out: dict[int, np.ndarray] = {}
    for m, phi in f.sectors.items():
        if not phi.finite_support:
            raise DomainError("apply_kernel requires a finite element")
        supp = np.nonzero(np.abs(phi.values) > 0)[0]
        if len(supp) == 0:
            continue
        j = -m
        if (m, j) not in K.terms:
            raise CapacityError(
                f"kernel lacks the sector pair {(m, j)} needed for f's sector {m}"
            )
        if supp[-1] >= B:
            raise CapacityError("kernel second-leg block too small for supp f")
        col = np.zeros(B, dtype=complex)
        col[: min(B, len(phi.values))] = phi.values[:B]
        # the |j| generator contractions between the second leg and f
        # leave the polynomial Q_|j|; for j > 0 they also shift the
        # integral weight by q^(-2j)
        weighted = col * _poch_up(abs(j), ctx, B) * w * (ctx.q2**-j if j > 0 else 1.0)
        out[m] = (1.0 - ctx.q2) * K.terms[(m, j)] @ weighted
    sectors = {
        i: GridFunction(_fit(v, ctx.npoints), finite_support=False)
        for i, v in out.items()
    }
    return DiscElement(sectors, ctx)


def _fit(v: np.ndarray, npoints: int) -> np.ndarray:
    if len(v) == npoints:
        return v
    out = np.zeros(npoints, dtype=complex)
    out[: min(npoints, len(v))] = v[:npoints]
    return out


def green_solve(f: DiscElement, order: int, ctx: QContext | None = None) -> DiscElement:
    """Solution of the order-th power of the Laplacian applied inversely to f.

    Assembles the inverse kernel sized to f's sectors and support and
    applies it; the solution lives in the closure of each sector of f.
    """
    ctx = ctx or f.ctx
    if not f.finite:
        raise DomainError("green_solve requires a finite element")
    lo, hi = f.sector_range()
    sector_max = max(abs(lo), abs(hi))
    K = kernel_assembled(order, ctx, (ctx.npoints, ctx.npoints), sector_max)
    return apply_kernel(K, f, ctx)


def sector_laplacian_matrix(sector: int, dim: int, ctx: QContext) -> np.ndarray:
    """Matrix of the Laplacian restricted to one sector, on the grid basis.

    Built by applying the operator to delta combs (the operator couples
    nearest grid neighbours only, so three staggered combs recover every
    column); used as the independent linear-solve oracle for the kernel
    route.
    """
    big = QContext(
        ctx.q,
        series_tol=ctx.series_tol,
        grid_horizon=dim,
        trunc_terms=ctx.trunc_terms,
    )
    mat = np.zeros((dim, dim), dtype=complex)
    for offset in range(3):
        vals = np.zeros(big.npoints, dtype=complex)
        cols = np.arange(offset, dim, 3)
        vals[cols] = 1.0
        el = DiscElement({sector: GridFunction(vals)}, big)
        img = laplacian_apply(el, big).sector(sector).values
        for col in cols:
            lo = max(0, col - 1)
            hi = min(dim, col + 2)
            mat[lo:hi, col] = img[lo:hi]
    return mat


# --- kernel invariance ---------------------------------------------------


def _coproduct_legs(label: str, K: Kernel, ctx: QContext):
    """E or F acting on K through the coproduct, E as E (x) 1 + K (x) E and
    F as F (x) K^-1 + 1 (x) F.

    Yields (target pair, psi, axis, c0, c1, s) for each stored term and
    leg: the leg image is c0 psi + c1 shift(psi, s) along the axis, with
    c0, c1 from the element formulas of _ef_terms on that leg's grid and
    the K or K^-1 factor of the other leg folded in.
    """
    q = ctx.q
    for (i, j), psi in K.terms.items():
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
    shifted = _shift(psi, s) if axis == 0 else _shift(psi.T, s).T
    return c0 * psi + c1 * shifted


def kernel_act(label: str, K: Kernel, ctx: QContext | None = None) -> Kernel:
    """Coproduct action on a kernel: E acts as E (x) 1 + K (x) E,
    F as F (x) K^-1 + 1 (x) F, K legwise."""
    ctx = ctx or K.ctx
    out: dict[tuple[int, int], np.ndarray] = {}
    if label in ("K", "Kinv"):
        s = 1 if label == "K" else -1
        for (i, j), psi in K.terms.items():
            out[(i, j)] = ctx.q ** (2 * s * (i + j)) * psi
    else:
        for key, *leg in _coproduct_legs(label, K, ctx):
            _accumulate(out, key, _leg_image(*leg))
    return Kernel(out, ctx, K.shape, K.sector_max + 1, K.tail_bound, False)


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
        acted = kernel_act(lab, K, ctx).terms
        mags: dict[tuple[int, int], np.ndarray] = {}
        for key, psi, axis, c0, c1, s in _coproduct_legs(lab, K, ctx):
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


def classical_limit_report(
    t_list, q_list, ctx: QContext | None = None
) -> list[LimitRow]:
    """Errors of the coefficient-series limits against the classical targets.

    For each q and argument t (scalar or list) the first series is
    compared with ln(1-t) and the second with 2 Li2(t) + ln(t) ln(1-t);
    the dilogarithm reflection identity residual is reported alongside.
    Errors decrease as q -> 1.
    """
    if isinstance(t_list, (int, float)):
        t_list = [float(t_list)]
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
            # one order-2 pass gives the order-1 sum (also the log family)
            # and the direct family
            s1, direct = _green_sums(2, q, t, 1e-15)
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
