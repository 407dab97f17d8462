"""Quantum symmetry of the disc algebra.

Covariant generator actions (K, K^-1, E, F) on elements in normal form,
the invariant Laplacian, its closed-form three-term stencil applied to all
sectors in one stacked pass, the Casimir element (q times the Laplacian),
and invariance residuals for elements and kernels.

Sector structure: K scales sector n by q^(2n) exactly, E raises the
sector index by one, F lowers it.  The difference formulas reference
the neighbour grid point with cofactors that vanish exactly where the
reference would leave the grid, so all actions stay well defined on
stored arrays.

Batches, as in discalg: act, act_word, casimir_apply, laplacian_apply,
radial_laplacian and sector_rotate take elements whose grid values carry
leading batch axes, shape (..., npoints), through their one code path
along the last axis, and return batched elements; invariance_residual
returns one value per member (a float when unbatched), a nan in a member
kept in that member's value.
"""

from __future__ import annotations

import functools
from typing import Iterable

import numpy as np

from .context import QContext, _fold_max, _frozen
from .discalg import DiscElement, GridFunction, _abs_max, _scale_sectors, _shift, _value
from .errors import DomainError


def act(label: str, f: DiscElement, ctx: QContext | None = None) -> DiscElement:
    """Covariant action of a generator on an element in normal form.

    K/Kinv scale each sector; E maps sector j to j+1 and F to j-1 via the
    first-order difference formulas of the module structure:

        E(z^j f(y))    = -q^(1/2)/(1-q^2) z^(j+1) (f(y) - q^(2j) f(q^2 y))
        E(f(y) z*^j)   = -q^(1/2)/(1-q^2) ((y - q^(-2j)) f(y)
                          + (1-y) f(q^(-2) y)) z*^(j-1),  j >= 1
        F(z^j f(y))    = -q^(5/2)/(1-q^2) z^(j-1) ((y - q^(-2j)) f(y)
                          + (1-y) f(q^(-2) y)),           j >= 1
        F(f(y) z*^j)   = -q^(5/2)/(1-q^2) (f(y) - q^(2j) f(q^2 y)) z*^(j+1)

    In particular F z = q^(1/2), E z = -q^(1/2) z^2, E z* = q^(-3/2) and
    F z* = -q^(5/2) z*^2 (the sign/power forced by the defining relations).
    """
    ctx = ctx or f.ctx
    q = ctx.q
    if label == "K":
        return _scale_sectors(f, lambda m: q ** (2 * m), ctx)
    if label == "Kinv":
        return _scale_sectors(f, lambda m: q ** (-2 * m), ctx)
    if label not in ("E", "F"):
        raise DomainError(f"unknown generator {label!r}")
    yg = ctx.ygrid()
    out: dict[int, GridFunction] = {}
    # E and F move every sector by the same step, so no two sectors meet
    for m, g in f.sectors.items():
        m2, c0, c1, s = _ef_terms(label, m, yg, q)
        out[m2] = GridFunction(c0 * g.values + c1 * _shift(g.values, s), g.finite_support)
    return DiscElement(out, ctx)


def _ef_terms(label: str, sector: int, yg, q: float):
    """E or F on sector `sector` as (new sector, c0, c1, s): the image of
    psi is c0 psi + c1 shift(psi, s), with c0, c1 scalars or grid arrays
    shaped like yg.  These are the four difference formulas of act; the
    kernel leg action reuses them along each axis.
    """
    q2 = q * q
    if label == "E":
        alpha = -(q**0.5) / (1.0 - q2)
        if sector >= 0:
            return sector + 1, alpha, -alpha * q ** (2 * sector), 1
        return sector + 1, alpha * (yg - q ** (2 * sector)), alpha * (1.0 - yg), -1
    if label == "F":
        beta = -(q**2.5) / (1.0 - q2)
        if sector >= 1:
            return sector - 1, beta * (yg - q ** (-2 * sector)), beta * (1.0 - yg), -1
        return sector - 1, beta, -beta * q ** (-2 * sector), 1
    raise DomainError(f"unknown generator {label!r}")


def act_word(labels: Iterable[str], f: DiscElement, ctx: QContext | None = None) -> DiscElement:
    """Compose generator actions right to left: act_word("EF", f) = E(F(f))."""
    ctx = ctx or f.ctx
    out = f
    for lab in reversed(list(labels)):
        out = act(lab, out, ctx)
    return out


def casimir_apply(f: DiscElement, ctx: QContext | None = None) -> DiscElement:
    """Casimir action FE + (q^-1 K^-1 + q K - q - q^-1) / (q^-1 - q)^2.

    It is q times the Laplacian, so it is computed as laplacian_apply(f)
    scaled by q; the generator composition is the oracle that checks it.
    """
    ctx = ctx or f.ctx
    return laplacian_apply(f, ctx).scaled(ctx.q)


def laplacian_apply(f: DiscElement, ctx: QContext | None = None) -> DiscElement:
    """Invariant Laplacian: q^-1 times the Casimir action.

    Preserves each sector.  On sector m it applies the closed-form stencil
    of stencil_coefficients(ctx, sector=m) in difference form,
    up(n) (f(n-1) - f(n)) + down(n) (f(n+1) - f(n)), the same operator
    since diag = -(up + down); constants go to exact zeros.  Row n reads
    f(n + 1), zero past the grid.  All sectors, with all members of a
    batch, go in one stacked pass over one zero-padded copy.
    """
    ctx = ctx or f.ctx
    v = np.array([g.values for g in f.sectors.values()], ndmin=2)
    n = v.shape[-1]
    up = stencil_coefficients(ctx, n)[0]
    # one row of down coefficients per sector, broadcast over its members
    down = np.array([stencil_coefficients(ctx, n, abs(m))[2] for m in f.sectors], ndmin=2)
    down = down.reshape(len(v), *(1,) * (v.ndim - 2), n)
    pad = np.zeros(v.shape[:-1] + (n + 2,), dtype=complex)
    pad[..., 1:-1] = v
    out = up * (pad[..., :-2] - v) + down * (pad[..., 2:] - v)
    fin = [g.finite_support for g in f.sectors.values()]
    return DiscElement({m: GridFunction(row, b) for m, row, b in zip(f.sectors, out, fin)}, ctx)


@functools.lru_cache(maxsize=512)
def stencil_coefficients(ctx: QContext, npoints: int | None = None, sector: int = 0):
    """Three-term coefficients of the Laplacian on sector m = `sector` of the grid,
    cached per (ctx, npoints, sector) and read-only.

    Row n couples f at indices n-1, n, n+1; with y = q^(2n),

        up(n)   = q^2 (1 - y) / (1-q^2)^2          (zero at n = 0)
        down(n) = (1 - q^(2|m|+2) y) / (1-q^2)^2
        diag(n) = -(up(n) + down(n))

    Derivation for m >= 0 (m < 0 mirrors it with |m|): E then F from
    _ef_terms, times 1/q, give up(n) f(n-1) + down(n) f(n+1) and put
    q^2 y - q^(-2m) - q^(2m+2) + q^(2m+2) y over (1-q^2)^2 on the diagonal.
    The K part adds q^(-2m) + q^(2m+2) - q^2 - 1 there; the q^(-2m) and
    q^(2m+2) terms cancel exactly, so diag = -(up + down).
    """
    yg = ctx.ygrid(npoints)
    denom = (1.0 - ctx.q2) ** 2
    up = ctx.q2 * (1.0 - yg)
    down = 1.0 - ctx.q2 ** (abs(sector) + 1) * yg
    return tuple(_frozen(c) for c in (up / denom, -(up + down) / denom, down / denom))


def _pivots(up: list, diag: list, down: list, shift: float = 0.0) -> list:
    """Pivots of the forward elimination of the truncated stencil less
    shift times the identity, in O(dim) (Golub-Van Loan 4.3).

    On sector 0 the stencil symmetrizes to a tridiagonal T with
    off(n-1)^2 = up(n) down(n-1), so these are also the LDL^T pivots of
    T - shift, and by Sylvester's law of inertia their negative count is
    the number of eigenvalues of T below shift (Golub-Van Loan 8.4).  An
    exact zero pivot raises ZeroDivisionError."""
    d = diag[0] - shift
    out = [d]
    for u, a, w in zip(up[1:], diag[1:], down):
        d = (a - shift) - u / d * w
        out.append(d)
    return out


def _stencil_solve(up, diag, down, rhs) -> np.ndarray:
    """Solve the truncated stencil system (row n: up, diag, down at columns
    n-1, n, n+1) by one elimination and one back substitution, in O(dim).
    |diag| = up + down, so no pivoting is needed."""
    up, down = up.tolist(), down.tolist()
    piv = _pivots(up, diag.tolist(), down)
    x = [complex(r) for r in rhs]
    for n in range(1, len(x)):
        x[n] -= up[n] / piv[n - 1] * x[n - 1]
    x[-1] /= piv[-1]
    for n in range(len(x) - 2, -1, -1):
        x[n] = (x[n] - down[n] * x[n + 1]) / piv[n]
    return np.array(x)


def radial_laplacian(g: GridFunction | np.ndarray, ctx: QContext) -> GridFunction:
    """Radial part of the Laplacian: the composition q^-1 y^2 D (1-qy) D,
    which is laplacian_apply on sector 0.

    D is the symmetric q-difference (f(t/q) - f(qt)) / (t/q - qt); the
    first D lands on the half grid q^(2n+1), the multiplier (1-qy) acts
    there, and the second D returns to the grid.  At n = 0 the would-be
    off-grid reference carries coefficient zero, so the operator closes
    on the grid.
    """
    return laplacian_apply(
        DiscElement({0: g if isinstance(g, GridFunction) else GridFunction(g)}, ctx)
    ).sector(0)


def sector_rotate(f: DiscElement, angle: float) -> DiscElement:
    """One-parameter rotation: sector m picks up the phase e^(i m angle).

    Test helper exposing the circle action whose eigenspaces are the
    sectors; commutes with the Laplacian.
    """
    return _scale_sectors(f, lambda m: np.exp(1j * m * angle), f.ctx)


def _sup_norm(f: DiscElement, margin: int):
    """Sup norm over grid rows, one per member, dropping the top `margin`
    rows of any non-finite sector (difference formulas read one row past
    the horizon there, so the last row is not meaningful for such
    functions)."""
    return _fold_max(
        _abs_max(g.values if g.finite_support or margin == 0 else g.values[..., :-margin])
        for g in f.sectors.values()
    )


def invariance_residual(v: DiscElement, ctx: QContext | None = None) -> float:
    """Deviation of the element v from invariance under the symmetry, one
    per member (a float when unbatched).

    Max over xi in {E, F, K-1} of the sup norm of xi(v) - eps(xi) v,
    normalized by the element's magnitude.  Rows past the horizon reach of
    non-finite sectors are excluded.  Kernels have their own leg-wise
    residual, green.kernel_invariance_residual.
    """
    ctx = ctx or v.ctx
    kdev = _scale_sectors(v, lambda m: ctx.q ** (2 * m) - 1.0, ctx)
    worst = _fold_max(_sup_norm(w, 1) for w in (act("E", v, ctx), act("F", v, ctx), kdev))
    return _value(worst / np.maximum(1.0, v.max_abs()))
