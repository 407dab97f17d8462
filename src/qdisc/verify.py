"""Identity-check registry.

Every analytic identity the library implements is packaged as a named
check returning a residual and a tolerance.  The CLI `verify` command
runs the registry and reports machine-readable results; the acceptance
test suite drives the same functions at the pinned tolerances.

A check is a plain function `name(ctx, fx) -> (residual, tolerance,
detail)` named after the check, listed once in `REGISTRY`.  `fx` memoizes
the set-up that several checks share for one run.  Each check fits its own
rows to the grid, and a qdisc error it raises fails that check only.

Families on the batch axis.  A check's elements, functions or rho samples
are one stacked batch, passed through each library call that takes one
(every discalg and uqsl2 operation, radial_laplacian, phi_matrix,
sigma_density), and the per-member residuals fold with a nan-keeping max.
Seeded draws come from one reader, `_normals(seed, *shapes)`: consecutive
blocks of the seed's gauss stream, bit for bit, which `_on_grid` puts on
the first rows of a zero grid batch.  lambda_rho stays one scalar call per
rho, and transform_forward one call per member, as it takes one function.

Residual conventions.  Identities between O(1) quantities use absolute
residuals.  Identities whose terms the integral weights or generator
coefficients amplify (anything involving q^(-2n) masses or high-sector
actions) are normalized by the magnitude of the contributing terms, the
standard measure of cancellation quality in floating point.
"""

from __future__ import annotations

import math
import numbers
import random
import time
from dataclasses import dataclass

import numpy as np

from . import green as G
from . import spherical as S
from .context import QContext, _fold_max, _max
from .discalg import (
    DiscElement,
    GridFunction,
    _abs_max,
    _shift,
    delta_fn,
    inner,
    integral_scale,
    inv_integral,
    normal_mul,
    rep_matrix,
    star,
)
from .errors import CapacityError, DomainError, QDiscError
from .qspecial import qgamma
from .uqsl2 import (
    _stencil_solve,
    act,
    act_word,
    casimir_apply,
    invariance_residual,
    laplacian_apply,
    radial_laplacian,
    sector_rotate,
    stencil_coefficients,
)

ALGEBRA_RANDOM = 100  # random elements behind the representation oracle
REP_DIM = 28  # representation matrices compared on their leading 18 rows
REP_BLOCK = 10  # pairs per stacked block of the representation oracle
EIGEN_NMAX = 30
TRANSFORM_NMAX = 20
TRANSFORM_NODES = 1024
GREEN_NMAX = 40
SPECTRUM_DIM = 200  # the probe's least dim; near q = 1 it grows as SPECTRUM_DEPTH / h
SPECTRUM_DEPTH = 64
CONNECTION_ROWS = (0, 2, 5, 9, 14, 20)
# one phi_rho call per rho gives the rows of the eigen-equation and of the
# connection formula
PHI_ROWS = range(max(EIGEN_NMAX + 2, CONNECTION_ROWS[-1] + 1))


@dataclass
class CheckResult:
    name: str
    residual: float
    tolerance: float
    detail: str = ""
    runtime: float = 0.0

    @property
    def passed(self) -> bool:
        return bool(self.residual <= self.tolerance)

    def as_dict(self) -> dict:
        return {
            "check": self.name,
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
            "pass": self.passed,
            "detail": self.detail,
            "runtime_s": round(float(self.runtime), 3),
        }


class Fixtures:
    """Per-run memo of shared set-up: `get(build)` calls `build(ctx)` on
    first use only.  A build that raises is not kept, so every check that
    needs it raises the same typed error on its own."""

    def __init__(self, ctx: QContext):
        self.ctx = ctx
        self._built: dict = {}

    def get(self, build):
        if build not in self._built:
            self._built[build] = build(self.ctx)
        return self._built[build]


def _fit_support(ctx: QContext, support: int) -> None:
    """CapacityError unless rows 0..support lie on the grid."""
    if support >= ctx.npoints:
        raise CapacityError(
            f"check support of rows 0..{support} passes the grid horizon {ctx.grid_horizon}"
        )


def _delta_batches(ctx: QContext, picks):
    """Deltas of the block of sectors -3..3 by rows 0..10 that the
    covariance suite spans, numbered in that order: delta k sits at row
    k % 11 of sector k // 11 - 3.  Each pick is a tuple of numbers; the
    picks are stacked as one tuple of batches per tuple of sectors, members
    in pick order."""
    _fit_support(ctx, 10)
    rows = np.eye(11, ctx.npoints, dtype=complex)
    groups: dict[tuple, list] = {}
    for pick in picks:
        sectors, ns = zip(*(divmod(k, 11) for k in pick))
        groups.setdefault(sectors, []).append(ns)
    return [
        tuple(
            DiscElement({m - 3: GridFunction(rows[list(col)])}, ctx)
            for m, col in zip(sectors, zip(*members))
        )
        for sectors, members in groups.items()
    ]


def _spanning_set(ctx: QContext):
    """The covariance suite's delta basis: one batch of 11 deltas per sector."""
    return [f for (f,) in _delta_batches(ctx, ((k,) for k in range(77)))]


def _members(f: DiscElement, index) -> DiscElement:
    """The members `index` (a slice or an index list) of a batched element."""
    return DiscElement(
        {m: GridFunction(g.values[index], g.finite_support) for m, g in f.sectors.items()}, f.ctx
    )


_TWO_PI = 2.0 * math.pi


def _uniforms(seed: int, count: int) -> np.ndarray:
    """The first count random.Random(seed).random() values, bit for bit,
    from one getrandbits draw of the same 32-bit words: random() is
    ((a >> 5) 2^26 + (b >> 6)) 2^-53 on two consecutive words a, b, exact
    in double.  getrandbits fills its integer with words from the least
    significant up, so its little-endian bytes are the words in order."""
    stream = random.Random(seed).getrandbits(64 * count).to_bytes(8 * count, "little")
    words = np.frombuffer(stream, dtype="<u4")
    return ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * 2.0**-53


def _normals(seed: int, *shapes) -> list[np.ndarray]:
    """Consecutive C-order blocks of seed's standard-normal stream, one per
    shape, from a stdlib stream, so a run never loads numpy.random.  The
    values are bit for bit the successive random.Random(seed).gauss(0.0,
    1.0) values: Box-Muller pairs on two random() each (_uniforms), the
    cosine half first, with the math module's log, cos and sin, as gauss
    takes them, and `0.0 + z` as gauss's `mu + z * sigma`."""
    sizes = [int(np.prod(shape)) for shape in shapes]
    pairs = (sum(sizes) + 1) // 2
    uniform = _uniforms(seed, 2 * pairs)
    angle = (uniform[0::2] * _TWO_PI).tolist()
    radius = np.sqrt(-2.0 * np.fromiter(map(math.log, (1.0 - uniform[1::2]).tolist()), float, pairs))
    draws = np.empty((pairs, 2))
    draws[:, 0] = np.fromiter(map(math.cos, angle), float, pairs) * radius
    draws[:, 1] = np.fromiter(map(math.sin, angle), float, pairs) * radius
    flat = draws.ravel()[: sum(sizes)] + 0.0
    return [block.reshape(shape) for block, shape in zip(np.split(flat, np.cumsum(sizes[:-1])), shapes)]


def _on_grid(values, npoints: int) -> np.ndarray:
    """values of shape (..., k) on rows 0..k-1 of a zero complex grid batch
    of shape (..., npoints)."""
    values = np.asarray(values)
    v = np.zeros((*values.shape[:-1], npoints), dtype=complex)
    v[..., : values.shape[-1]] = values
    return v


def _random_elements(ctx: QContext, count: int, seed: int = 2024, sectors: int = 3, support: int = 10):
    """`count` elements on sectors -sectors..sectors, stacked as one batch,
    each row 0..support a complex normal from seed's stream: element by
    element, sector by sector, real parts drawn before imaginary."""
    _fit_support(ctx, support)
    [draws] = _normals(seed, (count, 2 * sectors + 1, 2, support + 1))
    # sector-major, so each sector's batch is one contiguous block
    v = _on_grid(np.moveaxis(draws[:, :, 0] + 1j * draws[:, :, 1], 1, 0), ctx.npoints)
    return DiscElement({m: GridFunction(v[j]) for j, m in enumerate(range(-sectors, sectors + 1))}, ctx)


def _rel(diff, scale):
    """diff over max(1, scale), member by member."""
    return diff / np.maximum(1.0, scale)


def _rel_gap(lhs: DiscElement, rhs: DiscElement):
    """|lhs - rhs| over max(1, |lhs|), member by member."""
    return _rel(lhs.max_abs_diff(rhs), lhs.max_abs())


def _modulus(z):
    """|z| member by member, bit for bit Python's abs, which takes libm's
    hypot; np.abs rounds some complex moduli differently."""
    return np.hypot(np.real(z), np.imag(z))


# --- algebra ------------------------------------------------------------


def _algebra_elements(ctx: QContext):
    return _random_elements(ctx, ALGEBRA_RANDOM)


def algebra_qr_identity(ctx: QContext, fx: Fixtures):
    z = DiscElement.generator_z(ctx)
    zs = DiscElement.generator_zstar(ctx)
    one = DiscElement.one(ctx)
    qr = normal_mul(zs, z) - normal_mul(z, zs).scaled(ctx.q2) - one.scaled(1 - ctx.q2)
    return qr.max_abs(), 1e-14, "generator relation in normal form, exact to rounding"


def algebra_commutation_shifts(ctx: QContext, fx: Fixtures):
    # seed 11's eight real draws on rows 0..npoints - 3, at least row 0
    _fit_support(ctx, 2)
    z = DiscElement.generator_z(ctx)
    zs = DiscElement.generator_zstar(ctx)
    v = _on_grid(*_normals(11, (8, ctx.npoints - 2)), ctx.npoints)
    psi = DiscElement({0: GridFunction(v)}, ctx)
    # z* psi(y) = psi(q^2 y) z*  and  z psi(y) = psi(q^-2 y) z
    lhs = normal_mul(zs, psi)
    rhs = DiscElement({-1: GridFunction(_shift(v, 1))}, ctx)
    lhs2 = normal_mul(z, psi)
    rhs2 = normal_mul(DiscElement({0: GridFunction(_shift(v, -1))}, ctx), z)
    return (
        _max(lhs.max_abs_diff(rhs), lhs2.max_abs_diff(rhs2)),
        1e-14,
        "generators commute past grid functions with argument shifts",
    )


def _rep_blocks(fx: Fixtures):
    """The algebra elements' pairs (2k, 2k + 1) as (f, g) batches of
    REP_BLOCK pairs, which bound the oracle's stacks of matrices."""
    elements = fx.get(_algebra_elements)
    step = 2 * REP_BLOCK
    for start in range(0, ALGEBRA_RANDOM, step):
        yield (
            _members(elements, slice(start, start + step, 2)),
            _members(elements, slice(start + 1, start + step, 2)),
        )


def _matrix_max(entries: np.ndarray) -> np.ndarray:
    """Largest |entry| of each member's matrix."""
    return np.max(np.abs(entries), axis=(-2, -1))


def algebra_rep_products(ctx: QContext, fx: Fixtures):
    interior = REP_DIM - 10
    worst = 0.0
    for f, g in _rep_blocks(fx):
        mf, mg = rep_matrix(f, REP_DIM, ctx).entries, rep_matrix(g, REP_DIM, ctx).entries
        prod = rep_matrix(normal_mul(f, g), REP_DIM, ctx).entries
        dev = _matrix_max((prod - mf @ mg)[..., :interior, :interior])
        worst = _max(worst, _rel(dev, _matrix_max(mf) * _matrix_max(mg)))
    return worst, 1e-12, "normal-ordered products match the weighted-shift matrices"


def algebra_rep_involution(ctx: QContext, fx: Fixtures):
    interior = REP_DIM - 10
    worst = 0.0
    for f, _ in _rep_blocks(fx):
        mf = rep_matrix(f, REP_DIM, ctx).entries
        st = rep_matrix(star(f), REP_DIM, ctx).entries
        dev = _matrix_max((st - mf.conj().swapaxes(-1, -2))[..., :interior, :interior])
        worst = _max(worst, _rel(dev, _matrix_max(mf)))
    return worst, 1e-12, "involution matches the matrix adjoint"


def algebra_associativity(ctx: QContext, fx: Fixtures):
    # the triples (3k, 3k + 1, 3k + 2) for k < 4, as three batches
    a, b, c = (_members(fx.get(_algebra_elements), slice(i, 12, 3)) for i in range(3))
    lhs = normal_mul(normal_mul(a, b), c)
    rhs = normal_mul(a, normal_mul(b, c))
    return _max(_rel_gap(lhs, rhs)), 1e-12, "associativity on random triples"


def algebra_integral_values(ctx: QContext, fx: Fixtures):
    f0 = delta_fn(0, ctx)
    vals = [
        abs(inv_integral(f0) - (1 - ctx.q2)),
        abs(inv_integral(normal_mul(DiscElement.generator_z(ctx), f0))),
        abs(inv_integral(delta_fn(2, ctx)) - (1 - ctx.q2) / ctx.q2**2)
        / ((1 - ctx.q2) / ctx.q2**2),
        abs(inner(f0, f0) - (1 - ctx.q2)),
    ]
    # cross-sector orthogonality families vanish structurally
    rad = DiscElement({0: GridFunction.delta(1, ctx.npoints)}, ctx)
    for k, j in ((1, 0), (2, 1), (0, 3)):
        zk = _zpow(k, ctx)
        zj = _zpow(j, ctx)
        if k != j:
            vals.append(abs(inv_integral(normal_mul(normal_mul(zk, rad), normal_mul(zj, f0)))))
            vals.append(abs(inv_integral(normal_mul(normal_mul(rad, star(zk)), normal_mul(f0, star(zj))))))
    return _max(*vals), 1e-13, "invariant integral values and cross-sector orthogonality"


def _zpow(k: int, ctx: QContext) -> DiscElement:
    out = DiscElement.one(ctx)
    z = DiscElement.generator_z(ctx)
    for _ in range(k):
        out = normal_mul(out, z)
    return out


# --- covariance / Hopf suite ---------------------------------------------


def _basis_pairs(ctx: QContext):
    """The spanning set's deltas 5k and 5k + 1 as pairs: one (f, g) pair of
    batches per pair of sectors."""
    return _delta_batches(ctx, ((k, k + 1) for k in range(0, 76, 5)))


def hopf_defining_relations(ctx: QContext, fx: Fixtures):
    q = ctx.q
    worst = 0.0
    for f in fx.get(_spanning_set):
        kek = act_word("K E Kinv".split(), f)
        ef = act_word("EF", f)
        fe = act_word("FE", f)
        scale = _fold_max((kek.max_abs(), ef.max_abs(), fe.max_abs()), 1.0)
        r1 = kek.max_abs_diff(act("E", f).scaled(q**2))
        r2 = act_word("K F Kinv".split(), f).max_abs_diff(act("F", f).scaled(q**-2))
        lhs = ef - fe
        rhs = (act("K", f) - act("Kinv", f)).scaled(1.0 / (q - 1.0 / q))
        r3 = lhs.max_abs_diff(rhs)
        worst = _max(worst, _rel(_fold_max((r1, r2, r3)), scale))
    return worst, 1e-12, "generator relations as operator identities on the spanning set"


def module_algebra_law(ctx: QContext, fx: Fixtures):
    worst = 0.0
    for f, g in fx.get(_basis_pairs):
        fg = normal_mul(f, g)
        lhsE = act("E", fg)
        rhsE = normal_mul(act("E", f), g) + normal_mul(act("K", f), act("E", g))
        lhsF = act("F", fg)
        rhsF = normal_mul(act("F", f), act("Kinv", g)) + normal_mul(f, act("F", g))
        scale = _fold_max((lhsE.max_abs(), rhsE.max_abs(), lhsF.max_abs(), rhsF.max_abs()), 1.0)
        dev = _fold_max((lhsE.max_abs_diff(rhsE), lhsF.max_abs_diff(rhsF)))
        worst = _max(worst, _rel(dev, scale))
    return worst, 1e-12, "coproduct compatibility of the actions with the product"


def involution_covariance(ctx: QContext, fx: Fixtures):
    q = ctx.q
    worst = 0.0
    # every fourth delta of the spanning set
    for (f,) in _delta_batches(ctx, ((k,) for k in range(0, 77, 4))):
        scale = _fold_max((act("E", f).max_abs(), act("F", f).max_abs()), 1.0)
        r1 = star(act("E", f)).max_abs_diff(act("F", star(f)).scaled(q**-2))
        r2 = star(act("F", f)).max_abs_diff(act("E", star(f)).scaled(q**2))
        r3 = star(act("K", f)).max_abs_diff(act("Kinv", star(f)))
        worst = _max(worst, _rel(_fold_max((r1, r2, r3)), scale))
    return worst, 1e-12, "star intertwines the actions through the antipode table"


def integral_invariance(ctx: QContext, fx: Fixtures):
    worst = 0.0
    for f in fx.get(_spanning_set):
        sc = np.maximum(integral_scale(f), 1e-30)
        acted = [act(lab, f) for lab in ("E", "F")]
        devs = (_modulus(inv_integral(a)) / np.maximum(sc, integral_scale(a)) for a in acted)
        worst = _max(worst, *devs, _modulus(inv_integral(act("K", f)) - inv_integral(f)) / sc)
    return worst, 1e-12, "the invariant integral kills E and F images and fixes K images"


def adjoint_law(ctx: QContext, fx: Fixtures):
    worst = 0.0
    for f, g in fx.get(_basis_pairs):
        sc = _fold_max(
            (_modulus(inner(f, f)), _modulus(inner(g, g)), integral_scale(f) * integral_scale(g)),
            1.0,
        )
        rE = _modulus(inner(act("E", f), g) - inner(f, act_word("KF", g).scaled(-1.0)))
        rF = _modulus(
            inner(act("F", f), g) - inner(f, act_word("E Kinv".split(), g).scaled(-1.0))
        )
        rK = _modulus(inner(act("K", f), g) - inner(f, act("K", g)))
        worst = _max(worst, _fold_max((rE, rF, rK)) / sc)
    return worst, 1e-12, "generator adjoints under the pairing match the star structure"


def _casimir_elements(ctx: QContext):
    """Seed 5's six random elements, one batch; casimir_centrality takes
    the first three, which the same stream draws first."""
    return _random_elements(ctx, 6, seed=5)


def _generator_casimir(f: DiscElement, ctx: QContext) -> DiscElement:
    """The Casimir FE + (q^-1 K^-1 + q K - q - q^-1) / (q^-1 - q)^2 composed
    from the generator actions, which cancel its q^(-2m) and q^(2m+2) terms
    in floating point: the independent oracle of the closed-form stencil.
    On sectors m < 0, F reads E's image one row past the grid as zero, so
    f's top grid row must be zero."""
    q = ctx.q
    kpart = act("Kinv", f, ctx).scaled(1.0 / q) + act("K", f, ctx).scaled(q) + f.scaled(-(q + 1.0 / q))
    return act_word("FE", f, ctx) + kpart.scaled(1.0 / (1.0 / q - q) ** 2)


def casimir_equals_laplacian(ctx: QContext, fx: Fixtures):
    # on sectors m < 0 the generator route reads E's image at row 11, one
    # row past the random elements, and needs it on the grid
    _fit_support(ctx, 11)
    f = fx.get(_casimir_elements)
    lhs = laplacian_apply(f, ctx)
    rhs = _generator_casimir(f, ctx).scaled(1.0 / ctx.q)
    return (
        _max(_rel_gap(lhs, rhs)),
        1e-12,
        "the closed-form stencil equals the generator route of the Casimir, over q",
    )


def casimir_centrality(ctx: QContext, fx: Fixtures):
    f = _members(fx.get(_casimir_elements), slice(3))
    # the Casimir reaches row 11 of the random elements and E/F one more
    _fit_support(ctx, 12)
    om = casimir_apply(f, ctx)
    gaps = (_rel_gap(act(lab, om), casimir_apply(act(lab, f, ctx), ctx)) for lab in ("K", "Kinv", "E", "F"))
    return _max(*gaps), 1e-12, "the Casimir action commutes with every generator action"


def radial_part_identity(ctx: QContext, fx: Fixtures):
    f = _random_elements(ctx, 6, seed=17, sectors=0, support=11)
    lhs = _generator_casimir(f, ctx).scaled(1.0 / ctx.q).sector(0).values
    rhs = radial_laplacian(f.sector(0), ctx).values
    return (
        _max(_rel(_abs_max(lhs - rhs), _abs_max(rhs))),
        1e-12,
        "the generator route of the Casimir, over q, equals the radial stencil on sector 0",
    )


def sector_preservation(ctx: QContext, fx: Fixtures):
    f = _random_elements(ctx, 1, seed=23)
    lap = laplacian_apply(f, ctx)
    sector_ok = 0.0 if set(lap.sectors) <= set(f.sectors) else 1.0
    rot = sector_rotate(lap, 0.9).max_abs_diff(laplacian_apply(sector_rotate(f, 0.9), ctx))
    return (
        _max(sector_ok, _rel(rot, lap.max_abs())),
        1e-12,
        "the Laplacian preserves sectors and commutes with rotations",
    )


def unit_invariance(ctx: QContext, fx: Fixtures):
    return invariance_residual(DiscElement.one(ctx), ctx), 1e-14, "the unit element is invariant"


def centre_delta_not_invariant(ctx: QContext, fx: Fixtures):
    f0_res = invariance_residual(delta_fn(0, ctx), ctx)
    return 0.0 if f0_res > 1e-3 else 1.0, 1e-12, "the centre delta is genuinely non-invariant"


# --- spectral suite -------------------------------------------------------


def _rho_samples(ctx: QContext, count: int = 16):
    period = ctx.rho_period()
    return [(0.06 + 0.88 * i / (count - 1)) * period / 2 for i in range(count)]


def _phi_rows(ctx: QContext):
    return [S.phi_rho(rho, PHI_ROWS, ctx) for rho in _rho_samples(ctx)]


# eigenfunction magnitudes blow up near the band edges as q -> 1, so the
# eigenfunction residuals are taken relative to the eigenfunction scale


def _eigen_residual(rhos, vals: np.ndarray, first: int, ctx: QContext) -> float:
    """The worst over rho of |L v - lambda(rho) v| on rows first..EIGEN_NMAX
    over max(1, |v|), for the stacked rows v of each rho.  lambda is one
    scalar call per rho: an array call rounds some last bits differently."""
    lam = np.array([[S.lambda_rho(rho, ctx)] for rho in rhos])
    res = radial_laplacian(GridFunction(vals, False), ctx).values - lam * vals
    return _max(_rel(_abs_max(res[:, first : EIGEN_NMAX + 1]), _abs_max(vals)))


def eigen_equation_phi(ctx: QContext, fx: Fixtures):
    vals = np.array(fx.get(_phi_rows))[:, : EIGEN_NMAX + 2]
    return (
        _eigen_residual(_rho_samples(ctx), vals, 0, ctx),
        1e-9,
        f"spherical eigenfunction solves the radial equation, n <= {EIGEN_NMAX}",
    )


def phi_recurrence_agreement(ctx: QContext, fx: Fixtures):
    vals = np.array(fx.get(_phi_rows))[:, : EIGEN_NMAX + 2]
    cols = S.phi_matrix(np.array(_rho_samples(ctx)), EIGEN_NMAX + 2, ctx)
    return (
        _max(_rel(_abs_max(cols - vals), _abs_max(vals))),
        1e-9,
        "stable recurrence evaluation matches the terminating series",
    )


def eigen_equation_psi(ctx: QContext, fx: Fixtures):
    rhos = _rho_samples(ctx)[::3]
    vals = np.array([[S.psi_rho(rho, n, ctx) for n in range(EIGEN_NMAX + 2)] for rho in rhos])
    return (
        _eigen_residual(rhos, vals, 1, ctx),
        1e-9,
        "second-kind solution solves the radial equation at interior rows",
    )


def connection_formula(ctx: QContext, fx: Fixtures):
    period = ctx.rho_period()
    worst = 0.0
    for rho, phi in zip(_rho_samples(ctx), fx.get(_phi_rows)):
        if min(rho, abs(rho - period / 2), abs(period - rho)) < 0.05 * period / 2:
            continue
        cp = S.c_coefficient(rho, ctx)
        cm = S.c_coefficient(-rho, ctx)
        for n in CONNECTION_ROWS:
            lhs = phi[n]
            a = cp * S.psi_rho(rho, n, ctx)
            b = cm * S.psi_rho(-rho, n, ctx)
            scale = max(1.0, abs(a), abs(b))
            worst = _max(worst, abs(lhs - (a + b)) / scale)
    return worst, 1e-9, "eigenfunction splits into the two second-kind solutions"


def phi_closed_forms_agree(ctx: QContext, fx: Fixtures):
    # the double ascending sum against the multiprecision series, on the
    # rows whose rounding certificate phi_rho accepts
    worst = 0.0
    compared = 0
    for rho in _rho_samples(ctx)[::3]:
        vals, bound = S._phi_ascending(rho, PHI_ROWS[-1], ctx)
        ok = np.flatnonzero(bound <= S._PHI_CERT_TOL)
        ref = S._phi_series(rho, ok, ctx)
        worst = _max(worst, np.abs(vals[ok] - ref) / np.maximum(1.0, np.abs(ref)))
        compared += len(ok)
    return (
        worst,
        1e-13,
        f"the ascending Al-Salam-Chihara sum matches the series on {compared} certified rows",
    )


def transform_roundtrip(ctx: QContext, fx: Fixtures):
    # the forward weights amplify a depth-n delta by q^(-2n) and the round
    # trip returns it with error of order eps * q^(-n); depths past the
    # point where that floor crosses the tolerance are not resolvable in
    # doubles, so the sweep stops there (n = 20 exactly at q = 1/2)
    rt_tol = 1e-8
    floor_depth = int(math.log(rt_tol / (32 * np.finfo(float).eps)) / math.log(1.0 / ctx.q))
    nmax_rt = min(TRANSFORM_NMAX, floor_depth)
    deltas = [GridFunction.delta(n, ctx.npoints) for n in range(nmax_rt + 1)]
    gaps = (S.transform_inverse(S.transform_forward(d, ctx, TRANSFORM_NODES), ctx).values - d.values for d in deltas)
    return (
        _max(*map(np.abs, gaps)),
        rt_tol,
        f"inverse transform undoes the forward transform on deltas, n <= {nmax_rt}",
    )


def transform_centre_delta(ctx: QContext, fx: Fixtures):
    f0 = delta_fn(0, ctx)
    F0 = S.transform_forward(f0.sector(0), ctx, 256)
    back = S.transform_inverse(F0, ctx)
    worst = _max(np.abs(F0.values - (1 - ctx.q2)), np.abs(back.values - f0.sector(0).values))
    return worst, 1e-10, "the centre delta transforms to the constant and back"


def _seed31_draws(ctx: QContext):
    """Seed 31's stream in the order plancherel_pairing then
    multiplication_law take it: six pairs of complex vectors, each its real
    parts before its imaginary ones, then four real vectors."""
    return _normals(31, (6, 2, 2, TRANSFORM_NMAX + 1), (4, TRANSFORM_NMAX + 1))


def _transforms(g: GridFunction, ctx: QContext, count: int):
    """The nodes and the stacked values of each member's forward transform;
    transform_forward takes one function."""
    Fs = [S.transform_forward(GridFunction(v, g.finite_support), ctx, count) for v in g.values]
    return Fs[0].nodes, np.array([F.values for F in Fs])


def plancherel_pairing(ctx: QContext, fx: Fixtures):
    nmax = TRANSFORM_NMAX
    _fit_support(ctx, nmax)
    # the pairing is a trapezoid sum too: at least the inverse's start count
    count = max(TRANSFORM_NODES, S._start_nodes(ctx, nmax))
    dens = S.sigma_density(S._nodes(count, ctx), ctx)
    draws = fx.get(_seed31_draws)[0]
    f, g = map(GridFunction, _on_grid(np.moveaxis(draws[:, :, 0] + 1j * draws[:, :, 1], 1, 0), ctx.npoints))
    lhs = inner(DiscElement({0: f}, ctx), DiscElement({0: g}, ctx))
    (_, Ff), (_, Fg) = (_transforms(h, ctx, count) for h in (f, g))
    rhs = ctx.rho_period() / count * np.sum(Ff * np.conj(Fg) * dens, axis=-1)
    dev = _rel(_modulus(lhs - rhs), _modulus(lhs))
    return _max(dev), 1e-8, "the transform is unitary for the weighted pairing"


def multiplication_law(ctx: QContext, fx: Fixtures):
    # the radial Laplacian reads one row past the random functions
    _fit_support(ctx, TRANSFORM_NMAX + 1)
    g = GridFunction(_on_grid(fx.get(_seed31_draws)[1], ctx.npoints))
    nodes, Fg = _transforms(g, ctx, 128)
    _, Fl = _transforms(radial_laplacian(g, ctx), ctx, 128)
    lams = S.lambda_rho(nodes, ctx)
    dev = _rel(_abs_max(Fl - lams * Fg), _abs_max(Fl))
    return _max(dev), 1e-9, "the transform diagonalizes the radial Laplacian"


def density_symmetry_and_quotient(ctx: QContext, fx: Fixtures):
    period = ctx.rho_period()
    # the ends 0 and P, then three pairs rho and P - rho
    fracs = np.array([0.0, 0.13, 0.31, 0.47])
    left, right = (S.sigma_density(x * period, ctx) for x in (fracs, 1.0 - fracs))
    dens_devs = [left[0], right[0], *np.abs(left[1:] - right[1:])]
    # the closed form against the Gamma route away from poles
    for rho in (0.11 * period, 0.29 * period):
        quotient = qgamma(0.5 - 1j * rho, ctx.q2) ** 2 / qgamma(-2j * rho, ctx.q2)
        direct = abs(quotient) ** 2 * ctx.h / (4 * math.pi * (1 - ctx.q2))
        dens_devs.append(abs(direct - S.sigma_density(rho, ctx)) / direct)
    return (
        _max(*dens_devs),
        1e-10,
        "density vanishes at the period ends, is symmetric, matches the Gamma quotient",
    )


def quadrature_self_consistency(ctx: QContext, fx: Fixtures):
    # the inverse's certified count N against 2 N, both sums read off one
    # pass on 2 N nodes, so the certificate is checked by doubling
    d = GridFunction.delta(1, ctx.npoints)
    Fd = S.transform_forward(d, ctx, 512)
    count = S._certified_nodes(d, ctx, ctx.npoints)
    out_a, out_b, _ = S._inverse_on_nodes(Fd, ctx, 2 * count, ctx.npoints)
    doubling = float(np.max(np.abs(out_a - out_b)))
    return doubling, 1e-10, f"doubling the certified count {count} leaves the inverse transform unchanged"


def _spectrum_dim(ctx: QContext) -> int:
    """The truncation reaches depth SPECTRUM_DEPTH in ln(1/y): the extreme
    eigenvalues then sit about 3e-3 from the band edges at every q."""
    return max(SPECTRUM_DIM, math.ceil(SPECTRUM_DEPTH / ctx.h))


def _spectrum_offsets(ctx: QContext):
    """The probe's extreme eigenvalues less the band edges -1/(1 -+ q)^2."""
    lo, hi = S.spectrum_probe(_spectrum_dim(ctx), ctx)
    return lo + 1.0 / (1.0 - ctx.q) ** 2, hi + 1.0 / (1.0 + ctx.q) ** 2


def spectrum_inside_segment(ctx: QContext, fx: Fixtures):
    lo, hi = fx.get(_spectrum_offsets)
    inside = _max(0.0, -lo, hi)
    return inside, 1e-8, f"dim-{_spectrum_dim(ctx)} truncation eigenvalues stay inside the band"


def spectrum_endpoint_approach(ctx: QContext, fx: Fixtures):
    lo, hi = fx.get(_spectrum_offsets)
    return _max(abs(lo), abs(hi)), 1e-2, "extreme eigenvalues reach the band edges"


# --- green suite ----------------------------------------------------------


def _green_radial(ctx: QContext):
    """g1 and the radial Laplacians of g1, g2 and of that, rows 0..GREEN_NMAX + 2."""
    npts = GREEN_NMAX + 3
    g1 = G.g_radial_grid(1, ctx, npts)
    lap2 = radial_laplacian(G.g_radial_grid(2, ctx, npts), ctx).values
    lap22 = radial_laplacian(GridFunction(lap2, False), ctx).values
    return g1.values, radial_laplacian(g1, ctx).values, lap2, lap22


def green_radial_order1(ctx: QContext, fx: Fixtures):
    nmax = GREEN_NMAX
    _, lap1, _, _ = fx.get(_green_radial)
    r1 = float(np.max(np.abs(lap1[: nmax + 1] - np.eye(1, nmax + 1)[0])))
    return r1, 1e-10, f"the first fundamental solution solves the radial equation, n <= {nmax}"


def green_radial_order2(ctx: QContext, fx: Fixtures):
    nmax = GREEN_NMAX
    g1, _, lap2, lap22 = fx.get(_green_radial)
    r2, r12 = np.abs(lap22[: nmax + 1] - np.eye(1, nmax + 1)[0]), np.abs(lap2[: nmax + 1] - g1[: nmax + 1])
    return _max(r2, r12), 1e-10, "the second fundamental solution solves it twice"


def green_series_vs_quadrature(ctx: QContext, fx: Fixtures):
    gaps = (G.gm_quadrature_grid(m, ctx, 21).values - G.g_radial_grid(m, ctx, 21).values for m in (1, 2))
    return _max(*map(np.abs, gaps)), 1e-7, "the Lambert tail sums agree with the spectral quadrature oracle"


def spectral_image_identity(ctx: QContext, fx: Fixtures):
    images = (S.lambda_rho(rho, ctx) ** m * G.gm_spectral(m, rho, ctx) for rho in (0.2, 0.9, 1.7) for m in (1, 2))
    worst = _max(*(abs(image - (1 - ctx.q2)) for image in images))
    return worst, 1e-12, "the spectral images invert the eigenvalue powers"


def kernel_exact_expansion(ctx: QContext, fx: Fixtures):
    q = ctx.q
    K = G.kernel_G(-1.0, "plain", ctx, shape=(8, 8), sector_max=2)
    a = np.arange(8)
    yinv = (1.0 / ctx.q2) ** a
    yg = ctx.q2**a
    t00 = np.outer(yinv, yinv) + q**-2 * np.outer(
        ctx.q2 * yinv * (1 - yg), ctx.q2 * yinv * (1 - yg)
    )
    t1 = -(q**-2) * np.outer(yinv, yinv)
    tm1 = -1.0 * np.outer(yinv, yinv)
    refs = {(0, 0): t00, (1, -1): t1, (-1, 1): tm1}
    worst = _max(*(_rel(np.abs(K.term(*key) - ref), np.abs(ref)) for key, ref in refs.items()))
    extra = [k for k in K.terms if abs(k[0]) > 1]
    return (
        worst + (1.0 if extra else 0.0),
        1e-12,
        "the terminating kernel matches its four-term hand expansion",
    )


def kernel_invariance_exact(ctx: QContext, fx: Fixtures):
    kernels = (G.kernel_G(-float(l0), "plain", ctx, shape=(10, 10), sector_max=l0 + 1) for l0 in (1, 2, 3))
    worst = _max(*(G.kernel_invariance_residual(K, ctx) for K in kernels))
    return worst, 1e-12, "terminating kernels are exactly invariant"


def kernel_derivative_fd(ctx: QContext, fx: Fixtures):
    worst_ratio = 0.0
    worst_abs = 0.0
    for N in (1, 2):
        Kd = G.kernel_G(float(N), "derivative", ctx, (6, 6), 2)
        errs = []
        for eps in (1e-3, 5e-4):
            Kp = G.kernel_G(N + eps, "plain", ctx, (6, 6), 2)
            Km = G.kernel_G(N - eps, "plain", ctx, (6, 6), 2)
            gaps = ((Kp.term(*key) - Km.term(*key)) / (2 * eps) - Kd.term(*key) for key in Kd.terms)
            errs.append(_max(0.0, *map(np.abs, gaps)))
        worst_abs = _max(worst_abs, errs[0])
        worst_ratio = _max(worst_ratio, errs[1] / errs[0])
    return (
        _max(worst_abs / 1e-5, worst_ratio / 0.3),
        1.0,
        "the derivative kernel matches central differences at second order",
    )


def kernel_coefficient_limits(ctx: QContext, fx: Fixtures):
    return abs(G.coef_order1(1, ctx.q) + 1.0), 1e-14, "leading kernel coefficient is -1"


def kernel_coefficient_classical_trend(ctx: QContext, fx: Fixtures):
    trend_ok = True
    final_dev = 0.0
    for m in range(1, 11):
        devs = [
            abs(G.coef_order1(m, qq) + 1.0 / m) * m for qq in (0.9, 0.99, 0.999)
        ]
        trend_ok &= devs[0] >= devs[1] >= devs[2]
        final_dev = _max(final_dev, devs[2])
    return (
        (0.0 if trend_ok else 1.0) + _max(0.0, final_dev - 0.02),
        1e-12,
        "kernel coefficients approach the classical -1/m as q grows",
    )


def kernel_centre_delta(ctx: QContext, fx: Fixtures):
    f0 = delta_fn(0, ctx)
    sols = {order: G.apply_kernel(G.kernel_assembled(order, ctx, sector_max=3), f0, ctx) for order in (1, 2)}
    worst = _max(*(np.abs(sol.sector(0).values - G.g_radial_grid(order, ctx).values) for order, sol in sols.items()))
    return worst, 1e-10, "assembled kernels send the centre delta to the fundamental solutions"


def _inversion_basis(ctx: QContext):
    """Every third delta of the block of sectors -3..3 by rows 0..8,
    numbered sector by sector; one unbatched element each, as apply_kernel
    takes them."""
    _fit_support(ctx, 8)
    return [
        DiscElement({k // 9 - 3: GridFunction.delta(k % 9, ctx.npoints)}, ctx)
        for k in range(0, 63, 3)
    ]


def main_inversion_order1(ctx: QContext, fx: Fixtures):
    K1 = G.kernel_assembled(1, ctx, sector_max=3)
    backs = (laplacian_apply(G.apply_kernel(K1, f, ctx), ctx) - f for f in fx.get(_inversion_basis))
    worst = _max(*(_interior_max(d, 1) for d in backs))
    return worst, 1e-8, "the Laplacian undoes the first assembled kernel on the spanning set"


def main_inversion_order2(ctx: QContext, fx: Fixtures):
    K2 = G.kernel_assembled(2, ctx, sector_max=3)
    backs = (laplacian_apply(laplacian_apply(G.apply_kernel(K2, f, ctx), ctx), ctx) - f for f in fx.get(_inversion_basis))
    worst = _max(*(_interior_max(d, 2) for d in backs))
    return worst, 1e-7, "the squared Laplacian undoes the second assembled kernel"


def kernel_invariance_truncated(ctx: QContext, fx: Fixtures):
    kernels = [G.kernel_assembled(order, ctx, sector_max=3) for order in (1, 2)]
    return (
        _max(*(G.kernel_invariance_residual(K, ctx) for K in kernels)),
        _max(*(K.tail_bound for K in kernels), 1e-12),
        "assembled kernels are invariant up to the series tail bound",
    )


def _seed41_draws(ctx: QContext):
    """Seed 41's stream in the order matrix_solve_oracle then
    inverse_route_consistency take it: four real 6-vectors, then one
    real 5-vector."""
    return _normals(41, (4, 6), (5,))


def matrix_solve_oracle(ctx: QContext, fx: Fixtures):
    _fit_support(ctx, 5)
    worst = 0.0
    # the truncation reaches past the grid until q^(2k) drops below 2^-53
    dim = ctx.npoints + math.ceil(53 * math.log(2) / ctx.h)
    for sector, rhs in zip((-2, 0, 1, 3), _on_grid(fx.get(_seed41_draws)[0], dim)):
        f = DiscElement({sector: GridFunction(rhs[: ctx.npoints])}, ctx)
        sol = G.green_solve(f, 1, ctx)
        x = _stencil_solve(*stencil_coefficients(ctx, dim, sector), rhs)
        stray = 1.0 if set(sol.sectors) - {sector} else 0.0
        worst = _max(worst, stray, np.abs(x[: ctx.npoints] - sol.sector(sector).values))
    return worst, 1e-6, "kernel route agrees with truncated-matrix inversion per sector"


def inverse_route_consistency(ctx: QContext, fx: Fixtures):
    _fit_support(ctx, 4)
    f = DiscElement({1: GridFunction(_on_grid(fx.get(_seed41_draws)[1], ctx.npoints))}, ctx)
    once = G.green_solve(f, 1, ctx)
    once_f = DiscElement(
        {m: GridFunction(g.values.copy(), True) for m, g in once.sectors.items()}, ctx
    )
    twice = G.green_solve(once_f, 1, ctx)
    direct = G.green_solve(f, 2, ctx)
    return (
        twice.max_abs_diff(direct),
        1e-6,
        "iterating the first inverse matches the second inverse",
    )


def _interior_max(d: DiscElement, margin: int) -> float:
    return _max(0.0, *(np.abs(g.values[..., : d.ctx.npoints - margin]) for g in d.sectors.values()))


def _limit_rows(ctx: QContext):
    return G.classical_limit_report([0.25, 0.5, 0.75], [0.9, 0.99, 0.999])


def classical_limit_monotone(ctx: QContext, fx: Fixtures):
    rows = fx.get(_limit_rows)
    mono_ok = True
    for t in (0.25, 0.5, 0.75):
        errs1 = [r.err_order1 for r in rows if r.t == t]
        errs2 = [r.err_order2 for r in rows if r.t == t]
        mono_ok &= all(a > b for a, b in zip(errs1, errs1[1:]))
        mono_ok &= all(a > b for a, b in zip(errs2, errs2[1:]))
    conv_ok = rows[-1].err_order1 < 1e-2 and rows[-1].err_order2 < 1e-2
    return (
        0.0 if (mono_ok and conv_ok) else 1.0,
        1e-12,
        "series limits approach the log and dilog targets monotonically",
    )


def dilog_reflection(ctx: QContext, fx: Fixtures):
    return (
        _max(*(r.reflection_residual for r in fx.get(_limit_rows))),
        1e-12,
        "dilogarithm reflection identity as a scalar check",
    )


REGISTRY = (
    # algebra
    algebra_qr_identity, algebra_commutation_shifts, algebra_rep_products,
    algebra_rep_involution, algebra_associativity, algebra_integral_values,
    # covariance / Hopf
    hopf_defining_relations, module_algebra_law, involution_covariance, integral_invariance,
    adjoint_law,
    # Casimir
    casimir_equals_laplacian, casimir_centrality, radial_part_identity, sector_preservation,
    # invariant elements
    unit_invariance, centre_delta_not_invariant,
    # eigenfunctions
    eigen_equation_phi, phi_recurrence_agreement, eigen_equation_psi, connection_formula,
    phi_closed_forms_agree,
    # transform
    transform_roundtrip, transform_centre_delta, plancherel_pairing, multiplication_law,
    density_symmetry_and_quotient, quadrature_self_consistency,
    # spectrum
    spectrum_inside_segment, spectrum_endpoint_approach,
    # radial Green functions
    green_radial_order1, green_radial_order2, green_series_vs_quadrature,
    spectral_image_identity,
    # terminating kernels
    kernel_exact_expansion, kernel_invariance_exact, kernel_derivative_fd,
    kernel_coefficient_limits, kernel_coefficient_classical_trend,
    # assembled kernels
    kernel_centre_delta, main_inversion_order1, main_inversion_order2,
    kernel_invariance_truncated, matrix_solve_oracle, inverse_route_consistency,
    # classical limits
    classical_limit_monotone, dilog_reflection,
)


def run_registry(ctx: QContext, patterns: list[str] | None = None) -> list[CheckResult]:
    """Run, in registry order, every check whose name contains one of
    `patterns` (all checks when none are given); a pattern that matches no
    check is a DomainError.  A check that raises a qdisc error fails with
    residual inf, tolerance 0 and the error as its detail; one whose
    residual is not a real scalar (an unreduced array, a complex) fails
    with residual nan, its own tolerance and a detail naming what came
    back.  A runtime is the check's own call, with any fixture it was
    first to build."""
    names = [check.__name__ for check in REGISTRY]
    for p in patterns or ():
        if not any(p in name for name in names):
            raise DomainError(f"no check matches {p!r}")
    fx = Fixtures(ctx)
    out = []
    for name, check in zip(names, REGISTRY):
        if patterns and not any(p in name for p in patterns):
            continue
        t0 = time.perf_counter()
        try:
            residual, tol, detail = check(ctx, fx)
        except QDiscError as exc:
            residual, tol, detail = math.inf, 0.0, f"{type(exc).__name__}: {exc}"
        if not isinstance(residual, numbers.Real):
            shape = f" of shape {residual.shape}" if hasattr(residual, "shape") else ""
            residual, detail = math.nan, f"residual is a {type(residual).__name__}{shape}, not a real scalar"
        out.append(CheckResult(name, residual, tol, detail, time.perf_counter() - t0))
    return out
