"""Function algebra of the quantum unit disc.

Elements are stored in normal form: a sector-indexed family of grid
functions,

    f  =  sum_{m>0} z^m psi_m(y)  +  psi_0(y)  +  sum_{m>0} psi_{-m}(y) z*^m,

with each psi living on the grid y = q^(2n).  The generator relation
z* z = q^2 z z* + (1 - q^2) drives the normal-ordered product: powers of
z and z* commute past grid functions via the argument shifts
phi(y) -> phi(q^{-+2} y), and z*^k z^k / z^k z*^k contract to explicit
polynomial grid functions, rows of one contraction table that also gives
the legs of the Green kernels.  Each sector pair adds its term into its
product sector's row in place, by slices of the factors.

A truncated weighted-shift matrix representation serves as an independent
oracle for products, the involution, and the invariant integral; each
sector of it is one strided diagonal of subdiagonal-weight products.  The
pairing accumulates only the sector pairs that land in sector 0.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .context import QContext, _frozen, _ygrid
from .errors import CapacityError, DomainError, RangeError


def _shift(values: np.ndarray, s: int) -> np.ndarray:
    """Grid function of the scaled argument: result[n] = values[n + s].

    Out-of-range reads are zero-filled.  Every place this is used with a
    negative s, the zero-filled rows carry exactly vanishing cofactors.
    """
    if s == 0:
        return values.copy()
    out = np.zeros(values.shape, values.dtype)
    if s > 0:
        if s < len(values):
            out[:-s] = values[s:]
    else:
        out[-s:] = values[:s]
    return out


class GridFunction:
    """Function on the grid q^(2Z+), stored densely up to the horizon."""

    __slots__ = ("values", "finite_support")

    def __init__(self, values, finite_support: bool = True):
        self.values = np.asarray(values, dtype=complex)
        self.finite_support = bool(finite_support)

    @classmethod
    def zeros(cls, npoints: int) -> "GridFunction":
        return cls(np.zeros(npoints, dtype=complex))

    @classmethod
    def delta(cls, n: int, npoints: int) -> "GridFunction":
        if not 0 <= n < npoints:
            raise RangeError(f"grid index {n} outside 0..{npoints - 1}")
        v = np.zeros(npoints, dtype=complex)
        v[n] = 1.0
        return cls(v)

    def conj(self) -> "GridFunction":
        return GridFunction(np.conj(self.values), self.finite_support)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values))) if len(self.values) else 0.0


@dataclass
class DiscElement:
    """Sector-indexed normal form of an algebra element.

    sectors[m] holds psi_m; m > 0 means z^m psi_m(y), m < 0 means
    psi_m(y) z*^|m|.  Elements are treated as immutable values; all
    operations return new instances.
    """

    sectors: dict[int, GridFunction]
    ctx: QContext

    def __post_init__(self):
        self.sectors = {m: g for m, g in self.sectors.items() if np.count_nonzero(g.values)}

    @property
    def finite(self) -> bool:
        return all(g.finite_support for g in self.sectors.values())

    def sector(self, m: int) -> GridFunction:
        g = self.sectors.get(m)
        if g is None:
            return GridFunction.zeros(self.ctx.npoints)
        return g

    def sector_range(self) -> tuple[int, int]:
        if not self.sectors:
            return (0, 0)
        keys = self.sectors.keys()
        return (min(keys), max(keys))

    def max_abs(self) -> float:
        return max((g.max_abs() for g in self.sectors.values()), default=0.0)

    def __add__(self, other: "DiscElement") -> "DiscElement":
        return self._merge(other, np.add)

    def __sub__(self, other: "DiscElement") -> "DiscElement":
        return self._merge(other, np.subtract)

    def _merge(self, other: "DiscElement", op) -> "DiscElement":
        """Sector-wise op(self, other); a missing sector counts as zero, unbuilt."""
        out: dict[int, GridFunction] = {}
        for m in set(self.sectors) | set(other.sectors):
            a, b = self.sectors.get(m), other.sectors.get(m)
            out[m] = a if b is None else GridFunction(
                op(0.0 if a is None else a.values, b.values),
                b.finite_support and (a is None or a.finite_support),
            )
        return DiscElement(out, self.ctx)

    def scaled(self, c: complex) -> "DiscElement":
        return DiscElement(
            {
                m: GridFunction(c * g.values, g.finite_support)
                for m, g in self.sectors.items()
            },
            self.ctx,
        )

    def max_abs_diff(self, other: "DiscElement") -> float:
        """Largest |self - other| entry over all sectors; nan if any entry is nan."""
        a, b = self.sectors, other.sectors
        devs = [
            np.max(np.abs(a[m].values - b[m].values)) if m in a and m in b
            else np.max(np.abs((a[m] if m in a else b[m]).values))
            for m in set(a) | set(b)
        ]
        # np.max propagates nan, where a fold with max() would drop it
        return float(np.max(devs, initial=0.0))

    # --- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ctx: QContext) -> "DiscElement":
        return cls({}, ctx)

    @classmethod
    def one(cls, ctx: QContext) -> "DiscElement":
        return cls({0: GridFunction(np.ones(ctx.npoints, dtype=complex), False)}, ctx)

    @classmethod
    def generator_z(cls, ctx: QContext) -> "DiscElement":
        return cls({1: GridFunction(np.ones(ctx.npoints, dtype=complex), False)}, ctx)

    @classmethod
    def generator_zstar(cls, ctx: QContext) -> "DiscElement":
        return cls({-1: GridFunction(np.ones(ctx.npoints, dtype=complex), False)}, ctx)

    @classmethod
    def radial_y(cls, ctx: QContext) -> "DiscElement":
        return cls({0: GridFunction(ctx.ygrid().astype(complex), False)}, ctx)


def delta_fn(n: int, ctx: QContext) -> DiscElement:
    """Radial indicator of the grid point q^(2n) (n = 0 gives f_0)."""
    if not 0 <= n <= ctx.grid_horizon:
        raise RangeError(f"grid index {n} outside 0..{ctx.grid_horizon}")
    return DiscElement({0: GridFunction.delta(n, ctx.npoints)}, ctx)


def _poch_down(d: int, ctx: QContext, npoints: int) -> np.ndarray:
    """P_d[n] = prod_{s=0}^{d-1} (1 - q^{2(n-s)}); exactly zero for n < d.

    This is the grid function of z^d z*^d, row d of the contraction table;
    read-only.
    """
    return _contraction_table(ctx.q2, d + 1, npoints)[d]


def _poch_up(d: int, ctx: QContext, npoints: int) -> np.ndarray:
    """Q_d[n] = prod_{s=1}^{d} (1 - q^{2(n+s)}) = P_d[n + d]; the grid function
    of z*^d z^d, row d of the contraction table d columns wider; read-only."""
    return _contraction_table(ctx.q2, d + 1, npoints + d)[d, d:]


@functools.lru_cache(maxsize=1024)
def _contraction_table(q2: float, depths: int, npoints: int) -> np.ndarray:
    """P[s, a] = P_s(q^(2a)) = prod_{r=0}^{s-1} (1 - q^(2(a-r))) for s < depths,
    a < npoints, zero for a < s; cached per (q^2, depths, npoints), read-only.

    Row s is row s-1 shifted one column times 1 - q^(2a), so P[s, a]
    multiplies 1 - q^(2(a-s+1)) up to 1 - q^(2a) in that order, whatever
    the table's size.  Stored complex like the grid functions it multiplies,
    so products cast nothing; the kernels read its (exact) real part.
    """
    y = _ygrid(q2, npoints)
    P = np.zeros((depths, npoints))
    P[:1] = 1.0
    for s in range(1, depths):
        P[s, s:] = P[s - 1, s - 1 : -1] * (1.0 - y[s:])
    return _frozen(P.astype(complex))


def _mul_into(row: np.ndarray | None, m1: int, psi: np.ndarray, m2: int, phi: np.ndarray,
              finite: bool, ctx: QContext) -> np.ndarray:
    """Add the normal form of z^m1-term psi times z^m2-term phi into row by slices
    (row None: write it into a new zero row); finite: a factor has finite support."""
    npoints, fresh = ctx.npoints, row is None
    row = np.zeros(npoints, dtype=complex) if fresh else row
    if m1 >= 0 and m2 >= 0:
        # z^a psi(y) z^b phi(y) = z^(a+b) psi(q^(2b) y) phi(y)
        k = max(npoints - m2, 0)
        out, x, y = row[:k], psi[m2:], phi[:k]
    elif m1 < 0 and m2 < 0:
        # psi(y) z*^a phi(y) z*^b = psi(y) phi(q^(2a) y) z*^(a+b)
        k = max(npoints + m1, 0)
        out, x, y = row[:k], psi[:k], phi[-m1:]
    elif m1 >= 0:
        # z^a chi(y) z*^b with chi = psi * phi: contract d = min(a, b) pairs,
        # leaving the argument of chi shifted up and the contraction polynomial P_d.
        d = min(m1, -m2)
        chi = psi * phi
        if finite and d > 0 and np.any(np.abs(chi[npoints - d:]) > 0):
            raise CapacityError("product support would pass the grid horizon; raise grid_horizon")
        k = max(npoints - d, 0)
        out, x, y = row[npoints - k:], chi[:k], _poch_down(d, ctx, npoints)[npoints - k:]
    else:
        # psi(y) z*^a z^b phi(y) = psi(y) Q_d(y) z^(b-a) phi(y), d = min(a, b)
        s = m1 + m2
        qup = _poch_up(min(-m1, m2), ctx, npoints)
        k = max(npoints - abs(s), 0)
        out = row[:k]
        x, y = ((psi * qup)[s:], phi[:k]) if s >= 0 else (psi[:k], (qup * phi)[-s:])
    np.multiply(x, y, out=out) if fresh else np.add(out, x * y, out=out)
    return row


def normal_mul(f: DiscElement, g: DiscElement, ctx: QContext | None = None) -> DiscElement:
    """Product of two elements in normal form: each sector pair writes or adds its
    term into its sector's one row, in place, in f's then g's sector order."""
    ctx = ctx or f.ctx
    rows: dict[int, np.ndarray] = {}
    fin: dict[int, bool] = {}
    for m1, psi in f.sectors.items():
        for m2, phi in g.sectors.items():
            m = m1 + m2
            # a factor of finite support confines the product's support
            finite = psi.finite_support or phi.finite_support
            rows[m] = _mul_into(rows.get(m), m1, psi.values, m2, phi.values, finite, ctx)
            fin[m] = fin.get(m, True) and finite
    return DiscElement({m: GridFunction(v, fin[m]) for m, v in rows.items()}, ctx)


def star(f: DiscElement) -> DiscElement:
    """Involution: sector m maps to sector -m with conjugated values."""
    return DiscElement({-m: g.conj() for m, g in f.sectors.items()}, f.ctx)


def _row_weights(rows: np.ndarray, ctx: QContext) -> np.ndarray:
    """Integral weights q^(-2n) on the given rows n alone; a weight past the
    double range raises CapacityError."""
    with np.errstate(over="ignore"):
        w = np.power(1.0 / ctx.q2, np.asarray(rows, dtype=float))
    if not np.isfinite(w).all():
        raise CapacityError("integral weight q^(-2n) overflows on the element's support")
    return w


def _integral_weights(values: np.ndarray, ctx: QContext) -> np.ndarray:
    """Weights q^(-2n) on the nonzero rows of values and 0 on the rest, so a
    weight past the double range cannot turn the sum into inf * 0 = nan; one
    that is needed raises CapacityError.  Only the nonzero rows' powers are
    taken."""
    nz = np.flatnonzero(values)
    w = np.zeros(len(values))
    w[nz] = _row_weights(nz, ctx)
    return w


def inv_integral(f: DiscElement, ctx: QContext | None = None) -> complex:
    """Invariant integral (1-q^2) sum_m psi_0(q^(2m)) q^(-2m).

    Only the radial sector contributes; integrals of nonzero-sector terms
    vanish identically.  Requires a finite element.
    """
    ctx = ctx or f.ctx
    if not f.finite:
        raise DomainError("invariant integral requires a finite element")
    g = f.sectors.get(0)
    if g is None:
        return 0j
    return (1.0 - ctx.q2) * complex(np.sum(g.values * _integral_weights(g.values, ctx)))


def integral_scale(f: DiscElement, ctx: QContext | None = None) -> float:
    """Absolute-mass scale of the invariant integral (for relative residuals)."""
    ctx = ctx or f.ctx
    if not f.sectors:
        return 0.0
    mass = [np.abs(g.values) for g in f.sectors.values()]
    # one weight row, on the union of the supports
    w = _integral_weights(mass[0] if len(mass) == 1 else np.sum(mass, axis=0), ctx)
    s = 0.0
    for a in mass:
        s += float(np.sum(a * w))
    return (1.0 - ctx.q2) * s


def inner(f: DiscElement, g: DiscElement, ctx: QContext | None = None) -> complex:
    """Sesquilinear pairing integral(g* f); positive definite on finite elements.

    Only sector 0 of g* f is integrated: the pairs g_m* f_m, summed in g's
    sector order, so bit-identical to inv_integral(normal_mul(star(g), f));
    a horizon CapacityError comes only from them.  Needs f or g finite.
    """
    ctx = ctx or f.ctx
    if not (f.finite or g.finite):
        raise DomainError("pairing requires a finite element")
    radial = None
    for m, psi in g.sectors.items():
        if (phi := f.sectors.get(m)) is not None:
            finite = psi.finite_support or phi.finite_support
            radial = _mul_into(radial, -m, np.conj(psi.values), m, phi.values, finite, ctx)
    if radial is None:
        return 0j
    return (1.0 - ctx.q2) * complex(np.sum(radial * _integral_weights(radial, ctx)))


# --- faithful weighted-shift representation ---------------------------


@dataclass
class RepMatrix:
    """Truncated matrix of an element in the weighted-shift representation."""

    dim: int
    entries: np.ndarray


def rep_matrix(f: DiscElement, dim: int, ctx: QContext | None = None) -> RepMatrix:
    """Matrix of f on the first dim basis vectors of the representation.

    z e_k = w_k e_(k+1) with w_k = sqrt(1 - q^(2(k+1))) and y e_k = q^(2k) e_k,
    so (z^m psi)[k+m, k] = w_k ... w_(k+m-1) psi(q^(2k)); psi z*^|m| is its
    transpose, m = 0 the diagonal, and |m| >= dim has no entry.
    """
    ctx = ctx or f.ctx
    if dim < 1:
        raise DomainError("representation dimension must be positive")
    out = np.zeros((dim, dim), dtype=complex)
    flat = out.reshape(-1)
    for m, g in f.sectors.items():
        a = abs(m)
        n = min(dim - a, len(g.values))
        if n > 0:
            diag = flat[a * dim if m > 0 else a :: dim + 1]  # from (a, 0), or (0, a) if m < 0
            diag[:n] = _shift_weights(ctx.q2, dim, a)[:n] * g.values[:n]
    return RepMatrix(dim, out)


def _shift_weights(q2: float, dim: int, a: int) -> np.ndarray:
    """w_k ... w_(k+a-1) for k < dim - a, w_k = sqrt(1 - q^(2(k+1))), multiplied in
    that order; a read-only slice of the (q^2, a) cover of power-of-two length."""
    return _shift_cover(q2, a, 1 << max(dim - a - 1, 0).bit_length())[: dim - a]


# the oracle's own table, kept apart from the contraction polynomials it checks
@functools.lru_cache(maxsize=1024)
def _shift_cover(q2: float, a: int, length: int) -> np.ndarray:
    w = np.sqrt(1.0 - _ygrid(q2, length + a)[1:])
    out = np.ones(length)
    for k in range(a):
        out *= w[k : k + length]
    return _frozen(out)


# --- JSON serialization (consumed by the CLI) -------------------------


def element_to_json_dict(f: DiscElement) -> dict:
    """Schema: {q, sectors: [{m, values: [[n, re, im], ...]}, ...]}."""
    sectors = []
    for m in sorted(f.sectors):
        vals = f.sectors[m].values
        rows = [
            [int(n), float(v.real), float(v.imag)]
            for n, v in enumerate(vals)
            if v != 0
        ]
        sectors.append({"m": int(m), "values": rows})
    return {"q": f.ctx.q, "sectors": sectors}


def element_from_json_dict(doc: dict, ctx: QContext) -> DiscElement:
    sectors: dict[int, GridFunction] = {}
    for entry in doc.get("sectors", []):
        v = np.zeros(ctx.npoints, dtype=complex)
        for n, re, im in entry["values"]:
            if not 0 <= int(n) <= ctx.grid_horizon:
                raise RangeError(f"serialized grid index {n} beyond horizon")
            v[int(n)] = re + 1j * im
        sectors[int(entry["m"])] = GridFunction(v)
    return DiscElement(sectors, ctx)


def save_element(f: DiscElement, path) -> None:
    with open(path, "w") as fh:
        json.dump(element_to_json_dict(f), fh, indent=1)


def load_element(path, ctx: QContext) -> DiscElement:
    with open(path) as fh:
        return element_from_json_dict(json.load(fh), ctx)
