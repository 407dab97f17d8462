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

Batches.  A sector's grid values may carry leading batch axes, shape
(..., npoints): one stacked family of elements, its members.  Every
operation here takes them through its one code path, which slices the last
axis alone, so an unbatched element is the case with no batch axis; the
sectors of one element share one batch shape, and two operands' shapes
broadcast.  normal_mul, star and the arithmetic return batched elements,
rep_matrix one matrix per member, shape (..., dim, dim); max_abs,
max_abs_diff, inner, inv_integral and integral_scale return one value per
member, and a float or complex for an unbatched element.  An element with
no sectors has no batch axis, so its reductions return one scalar, which
broadcasts over any batch.  A nan in any member propagates to that
member's value (np.maximum, never fmax).  JSON serialization takes
unbatched elements.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass

import numpy as np

from .context import QContext, _fold_max, _frozen, _ygrid
from .errors import CapacityError, DomainError, RangeError


def _shift(values: np.ndarray, s: int) -> np.ndarray:
    """Grid function of the scaled argument along the last axis:
    result[..., n] = values[..., n + s].

    Out-of-range reads are zero-filled.  Every place this is used with a
    negative s, the zero-filled rows carry exactly vanishing cofactors.
    """
    if s == 0:
        return values.copy()
    out = np.zeros(values.shape, values.dtype)
    if s > 0:
        if s < values.shape[-1]:
            out[..., :-s] = values[..., s:]
    else:
        out[..., -s:] = values[..., :s]
    return out


def _value(x):
    """A reduction's result: a Python float or complex without a batch
    axis, else the array of one value per member."""
    return np.asarray(x).item() if np.ndim(x) == 0 else x


def _abs_max(values: np.ndarray):
    """Largest |value| along the grid axis, one per member; 0 on an empty grid."""
    return np.abs(values).max(axis=-1, initial=0.0)


class GridFunction:
    """Function on the grid q^(2Z+), stored densely up to the horizon; the
    values may carry leading batch axes, shape (..., npoints)."""

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

    def max_abs(self):
        """Largest |value| of each member (a float when unbatched); nan if any is nan."""
        return _value(_abs_max(self.values))


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

    def max_abs(self):
        """Largest |entry| of each member over all sectors (a float when
        unbatched); nan if any of its entries is nan."""
        return _value(_fold_max(_abs_max(g.values) for g in self.sectors.values()))

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
        return _scale_sectors(self, lambda m: c, self.ctx)

    def max_abs_diff(self, other: "DiscElement"):
        """Largest |self - other| entry over all sectors, one per member (a
        float when unbatched); nan if any of its entries is nan."""
        a, b = self.sectors, other.sectors
        return _value(_fold_max(
            _abs_max(a[m].values - b[m].values) if m in a and m in b
            else _abs_max((a[m] if m in a else b[m]).values)
            for m in set(a) | set(b)
        ))

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


def _scale_sectors(f: DiscElement, factor, ctx: QContext) -> DiscElement:
    """f with each sector m scaled by factor(m): a sector-diagonal map
    such as a scalar multiple, K, K^-1 or the circle action."""
    return DiscElement(
        {m: GridFunction(factor(m) * g.values, g.finite_support) for m, g in f.sectors.items()},
        ctx,
    )


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
    """Add the normal form of z^m1-term psi times z^m2-term phi into row by
    slices of the last axis (row None: write it into a new zero row of the
    term's batch shape, that of the factors broadcast); finite: a factor has
    finite support, and a member whose product passes the horizon raises
    for the batch."""
    npoints = ctx.npoints
    if m1 >= 0 and m2 >= 0:
        # z^a psi(y) z^b phi(y) = z^(a+b) psi(q^(2b) y) phi(y)
        k = max(npoints - m2, 0)
        cols, x, y = slice(k), psi[..., m2:], phi[..., :k]
    elif m1 < 0 and m2 < 0:
        # psi(y) z*^a phi(y) z*^b = psi(y) phi(q^(2a) y) z*^(a+b)
        k = max(npoints + m1, 0)
        cols, x, y = slice(k), psi[..., :k], phi[..., -m1:]
    elif m1 >= 0:
        # z^a chi(y) z*^b with chi = psi * phi: contract d = min(a, b) pairs,
        # leaving the argument of chi shifted up and the contraction polynomial P_d.
        d = min(m1, -m2)
        chi = psi * phi
        if finite and d > 0 and np.any(chi[..., npoints - d:] != 0):
            raise CapacityError("product support would pass the grid horizon; raise grid_horizon")
        k = max(npoints - d, 0)
        cols, x, y = slice(npoints - k, None), chi[..., :k], _poch_down(d, ctx, npoints)[npoints - k:]
    else:
        # psi(y) z*^a z^b phi(y) = psi(y) Q_d(y) z^(b-a) phi(y), d = min(a, b)
        s = m1 + m2
        qup = _poch_up(min(-m1, m2), ctx, npoints)
        k = max(npoints - abs(s), 0)
        cols = slice(k)
        x, y = ((psi * qup)[..., s:], phi[..., :k]) if s >= 0 else (psi[..., :k], (qup * phi)[..., -s:])
    term = x * y
    if row is None:
        row = np.zeros(term.shape[:-1] + (npoints,), dtype=complex)
        row[..., cols] = term
    else:
        row[..., cols] += term
    return row


def normal_mul(f: DiscElement, g: DiscElement, ctx: QContext | None = None) -> DiscElement:
    """Product of two elements in normal form, member by member for batches:
    each sector pair writes or adds its term into its sector's one row, in
    place, in f's then g's sector order."""
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


# one cover per (q^2, length), as the grid has; entry n is the pow the
# weights were always taken by, so the doubles are the same bit for bit
@functools.lru_cache(maxsize=512)
def _weight_cover(q2: float, length: int) -> np.ndarray:
    with np.errstate(over="ignore"):
        return _frozen(np.power(1.0 / q2, np.arange(length, dtype=float)))


def _weights(q2: float, npoints: int) -> np.ndarray:
    """q^(-2n) for n < npoints, inf past the double range: a read-only slice
    of the cover of power-of-two length."""
    return _weight_cover(q2, 1 << max(npoints - 1, 0).bit_length())[:npoints]


def _finite_weights(w: np.ndarray) -> np.ndarray:
    if not np.isfinite(w).all():
        raise CapacityError("integral weight q^(-2n) overflows on the element's support")
    return w


def _row_weights(rows: np.ndarray, ctx: QContext) -> np.ndarray:
    """Integral weights q^(-2n) on the given rows n alone, read from the
    cover; a weight past the double range raises CapacityError."""
    rows = np.asarray(rows, dtype=np.intp)
    return _finite_weights(_weights(ctx.q2, int(rows.max(initial=0)) + 1)[rows])


def _integral_weights(values: np.ndarray, ctx: QContext) -> np.ndarray:
    """Weights q^(-2n) on the nonzero entries of values (..., npoints) and 0
    on the rest, so a weight past the double range cannot turn the sum into
    inf * 0 = nan; one that is needed raises CapacityError."""
    return _finite_weights(np.where(values != 0, _weights(ctx.q2, values.shape[-1]), 0.0))


def _integrate(values: np.ndarray, ctx: QContext):
    """(1-q^2) sum_n values[..., n] q^(-2n), one sum per member."""
    return _value((1.0 - ctx.q2) * np.sum(values * _integral_weights(values, ctx), axis=-1))


def inv_integral(f: DiscElement, ctx: QContext | None = None) -> complex:
    """Invariant integral (1-q^2) sum_m psi_0(q^(2m)) q^(-2m), one per
    member (a complex when unbatched).

    Only the radial sector contributes; integrals of nonzero-sector terms
    vanish identically.  Requires a finite element.
    """
    ctx = ctx or f.ctx
    if not f.finite:
        raise DomainError("invariant integral requires a finite element")
    g = f.sectors.get(0)
    return 0j if g is None else _integrate(g.values, ctx)


def integral_scale(f: DiscElement, ctx: QContext | None = None) -> float:
    """Absolute-mass scale of the invariant integral (for relative
    residuals), one per member (a float when unbatched)."""
    ctx = ctx or f.ctx
    if not f.sectors:
        return 0.0
    mass = [np.abs(g.values) for g in f.sectors.values()]
    # one weight row per member, on the union of its supports
    w = _integral_weights(sum(mass), ctx)
    s = 0.0
    for a in mass:
        s = s + np.sum(a * w, axis=-1)
    return _value((1.0 - ctx.q2) * s)


def inner(f: DiscElement, g: DiscElement, ctx: QContext | None = None) -> complex:
    """Sesquilinear pairing integral(g* f), one per member (a complex when
    unbatched); positive definite on finite elements.

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
    return 0j if radial is None else _integrate(radial, ctx)


# --- faithful weighted-shift representation ---------------------------


@dataclass
class RepMatrix:
    """Truncated matrix of an element in the weighted-shift representation;
    entries has shape (..., dim, dim), one matrix per member."""

    dim: int
    entries: np.ndarray


def rep_matrix(f: DiscElement, dim: int, ctx: QContext | None = None) -> RepMatrix:
    """Matrix of f on the first dim basis vectors of the representation, one
    per member: entries of shape (..., dim, dim).

    z e_k = w_k e_(k+1) with w_k = sqrt(1 - q^(2(k+1))) and y e_k = q^(2k) e_k,
    so (z^m psi)[k+m, k] = w_k ... w_(k+m-1) psi(q^(2k)); psi z*^|m| is its
    transpose, m = 0 the diagonal, and |m| >= dim has no entry.
    """
    ctx = ctx or f.ctx
    if dim < 1:
        raise DomainError("representation dimension must be positive")
    batch = next((g.values.shape[:-1] for g in f.sectors.values()), ())
    out = np.zeros(batch + (dim, dim), dtype=complex)
    flat = out.reshape(batch + (dim * dim,))
    for m, g in f.sectors.items():
        a = abs(m)
        n = min(dim - a, g.values.shape[-1])
        if n > 0:
            diag = flat[..., a * dim if m > 0 else a :: dim + 1]  # from (a, 0), or (0, a) if m < 0
            diag[..., :n] = _shift_weights(ctx.q2, dim, a)[:n] * g.values[..., :n]
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
    """Schema: {q, sectors: [{m, values: [[n, re, im], ...]}, ...]}; f unbatched."""
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


def _number(x, kinds=(int, float)) -> bool:
    """Whether x is a finite instance of kinds and no bool."""
    return isinstance(x, kinds) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def element_from_json_dict(doc: dict, ctx: QContext) -> DiscElement:
    """The element of a document in element_to_json_dict's schema (its q is
    not read).  A malformed document raises DomainError: each sector is an
    object with an int m and a list of values, each value row [n, re, im]
    has an int n and real re and im (a bool, nan, inf or an int past the
    double range is neither), and no sector, nor a row within one,
    repeats.  A row past the horizon raises RangeError."""
    if not isinstance(doc, dict) or not isinstance(doc.get("sectors", []), list):
        raise DomainError("an element document is an object whose sectors are a list")
    sectors: dict[int, GridFunction] = {}
    for entry in doc.get("sectors", []):
        if not (isinstance(entry, dict) and _number(entry.get("m"), int) and isinstance(entry.get("values"), list)):
            raise DomainError(f"sector entry {entry!r} is not an int m with a list of values")
        m, rows = entry["m"], entry["values"]
        for row in rows:
            if not (isinstance(row, list) and len(row) == 3 and _number(row[0], int) and all(map(_number, row[1:]))):
                raise DomainError(f"value row {row!r} of sector {m} is not [n, re, im] with an int n and real re, im")
        if m in sectors or len({n for n, _, _ in rows}) < len(rows):
            raise DomainError(f"sector {m}, or a row of it, repeats")
        v = np.zeros(ctx.npoints, dtype=complex)
        for n, re, im in rows:
            if not 0 <= n <= ctx.grid_horizon:
                raise RangeError(f"serialized grid index {n} beyond horizon")
            v[n] = re + 1j * im
        sectors[m] = GridFunction(v)
    return DiscElement(sectors, ctx)


def save_element(f: DiscElement, path) -> None:
    with open(path, "w") as fh:
        json.dump(element_to_json_dict(f), fh, indent=1)


def load_element(path, ctx: QContext) -> DiscElement:
    """The element of a JSON file (element_from_json_dict); a file that is
    no JSON raises DomainError."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"element file is not valid JSON: {exc}") from exc
    return element_from_json_dict(doc, ctx)
