"""Identity-check registry.

Every analytic identity the library implements is packaged as a named
check returning a residual and a tolerance.  The CLI `verify` command
runs the registry and reports machine-readable results; the acceptance
test suite drives the same functions at the pinned tolerances.

Checks come in groups that share set-up work.  A group is declared once
with `_group(*names)`: its body yields one (residual, tolerance, detail)
triple per declared name, in order, and the decorator turns the triples
into timed CheckResult records.

Residual conventions.  Identities between O(1) quantities use absolute
residuals.  Identities whose terms the integral weights or generator
coefficients amplify (anything involving q^(-2n) masses or high-sector
actions) are normalized by the magnitude of the contributing terms, the
standard measure of cancellation quality in floating point.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import green as G
from . import spherical as S
from .context import QContext
from .discalg import (
    DiscElement,
    GridFunction,
    _shift,
    delta_fn,
    inner,
    integral_scale,
    inv_integral,
    normal_mul,
    rep_matrix,
    star,
)
from .errors import CapacityError, QDiscError
from .qspecial import qgamma
from .uqsl2 import (
    act,
    act_word,
    casimir_apply,
    invariance_residual,
    laplacian_apply,
    radial_laplacian,
    sector_rotate,
)


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


def _group(*names: str):
    """Declare a check group producing the named checks, in order.

    The decorated body is a generator yielding one (residual, tolerance,
    detail) triple per name; on a full run a count mismatch raises
    ValueError.  With `last` set to one of the names, the generator is
    closed once that check has been yielded, and the later checks are
    neither run nor reported.  Each result's runtime is the time since the
    previous yield, or since the group started for the first one.  If the
    body raises a QDiscError, the results already yielded stand and every
    remaining name up to `last` fails with residual inf, tolerance 0 and the
    error as its detail.  The names are kept on the function as `.names`, so
    the registry can skip a group without running it.
    """

    def decorate(body):
        @functools.wraps(body)
        def run(*args, last: str | None = None, **kwargs) -> list[CheckResult]:
            kept = names[: names.index(last) + 1] if last else names
            out = []
            t0 = time.perf_counter()
            checks = body(*args, **kwargs)
            try:
                for name, (residual, tol, detail) in zip(kept, checks, strict=kept == names):
                    t1 = time.perf_counter()
                    out.append(CheckResult(name, residual, tol, detail, t1 - t0))
                    t0 = t1
            except QDiscError as exc:
                detail = f"{type(exc).__name__}: {exc}"
                runtime = time.perf_counter() - t0
                for name in kept[len(out):]:
                    out.append(CheckResult(name, math.inf, 0.0, detail, runtime))
                    runtime = 0.0
            finally:
                checks.close()
            return out

        run.names = names
        return run

    return decorate


def _fit_support(ctx: QContext, support: int) -> None:
    """CapacityError unless rows 0..support lie on the grid."""
    if support >= ctx.npoints:
        raise CapacityError(
            f"check support of rows 0..{support} passes the grid horizon {ctx.grid_horizon}"
        )


def _spanning_set(ctx: QContext, sectors: int = 3, support: int = 10):
    """Delta basis of the sector/grid block used by the covariance suite."""
    _fit_support(ctx, support)
    out = []
    for m in range(-sectors, sectors + 1):
        for n in range(support + 1):
            out.append(
                DiscElement({m: GridFunction.delta(n, ctx.npoints)}, ctx)
            )
    return out


def _random_elements(ctx: QContext, count: int, seed: int = 2024, sectors: int = 3, support: int = 10):
    _fit_support(ctx, support)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        secs = {}
        for m in range(-sectors, sectors + 1):
            v = np.zeros(ctx.npoints, dtype=complex)
            v[: support + 1] = rng.standard_normal(support + 1) + 1j * rng.standard_normal(
                support + 1
            )
            secs[m] = GridFunction(v)
        out.append(DiscElement(secs, ctx))
    return out


def _rel(diff: float, scale: float) -> float:
    return diff / max(1.0, scale)


def _max(*residuals: float) -> float:
    """Largest residual, or nan if any is nan.  The builtin max keeps a nan
    only in first place, so a nan term folded in later would be dropped and
    its check could pass."""
    vals = [float(r) for r in residuals]
    return math.nan if any(map(math.isnan, vals)) else max(vals)


# --- algebra ------------------------------------------------------------


@_group(
    "algebra_qr_identity",
    "algebra_commutation_shifts",
    "algebra_rep_products",
    "algebra_rep_involution",
    "algebra_associativity",
    "algebra_integral_values",
)
def check_algebra(ctx: QContext, n_random: int = 100):
    z = DiscElement.generator_z(ctx)
    zs = DiscElement.generator_zstar(ctx)
    one = DiscElement.one(ctx)

    qr = normal_mul(zs, z) - normal_mul(z, zs).scaled(ctx.q2) - one.scaled(1 - ctx.q2)
    yield qr.max_abs(), 1e-14, "generator relation in normal form, exact to rounding"

    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(8):
        v = np.zeros(ctx.npoints, dtype=complex)
        v[: ctx.npoints - 2] = rng.standard_normal(ctx.npoints - 2)
        psi = DiscElement({0: GridFunction(v)}, ctx)
        # z* psi(y) = psi(q^2 y) z*  and  z psi(y) = psi(q^-2 y) z
        lhs = normal_mul(zs, psi)
        rhs = DiscElement({-1: GridFunction(_shift(v, 1))}, ctx)
        worst = _max(worst, lhs.max_abs_diff(rhs))
        lhs2 = normal_mul(z, psi)
        rhs2 = normal_mul(DiscElement({0: GridFunction(_shift(v, -1))}, ctx), z)
        worst = _max(worst, lhs2.max_abs_diff(rhs2))
    yield worst, 1e-14, "generators commute past grid functions with argument shifts"

    dim = 28
    interior = dim - 10
    elements = _random_elements(ctx, n_random)
    worst_prod = worst_star = worst_assoc = 0.0
    for idx in range(0, len(elements) - 1, 2):
        f, g = elements[idx], elements[idx + 1]
        mf, mg = rep_matrix(f, dim, ctx).entries, rep_matrix(g, dim, ctx).entries
        prod = rep_matrix(normal_mul(f, g), dim, ctx).entries
        scale = max(1.0, float(np.max(np.abs(mf))) * float(np.max(np.abs(mg))))
        worst_prod = _max(
            worst_prod,
            float(np.max(np.abs((prod - mf @ mg)[:interior, :interior]))) / scale,
        )
        st = rep_matrix(star(f), dim, ctx).entries
        worst_star = _max(
            worst_star,
            float(np.max(np.abs((st - mf.conj().T)[:interior, :interior])))
            / max(1.0, float(np.max(np.abs(mf)))),
        )
    for idx in range(0, 12, 3):
        a, b, c = elements[idx], elements[idx + 1], elements[idx + 2]
        lhs = normal_mul(normal_mul(a, b), c)
        rhs = normal_mul(a, normal_mul(b, c))
        scale = max(1.0, lhs.max_abs())
        worst_assoc = _max(worst_assoc, lhs.max_abs_diff(rhs) / scale)
    yield worst_prod, 1e-12, "normal-ordered products match the weighted-shift matrices"
    yield worst_star, 1e-12, "involution matches the matrix adjoint"
    yield worst_assoc, 1e-12, "associativity on random triples"

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
    yield _max(*vals), 1e-13, "invariant integral values and cross-sector orthogonality"


def _zpow(k: int, ctx: QContext) -> DiscElement:
    out = DiscElement.one(ctx)
    z = DiscElement.generator_z(ctx)
    for _ in range(k):
        out = normal_mul(out, z)
    return out


# --- covariance / Hopf suite ---------------------------------------------


@_group(
    "hopf_defining_relations",
    "module_algebra_law",
    "involution_covariance",
    "integral_invariance",
    "adjoint_law",
)
def check_hopf(ctx: QContext):
    q = ctx.q
    basis = _spanning_set(ctx)

    worst = 0.0
    for f in basis:
        kek = act_word("K E Kinv".split(), f)
        ef = act_word("EF", f)
        fe = act_word("FE", f)
        scale = max(1.0, kek.max_abs(), ef.max_abs(), fe.max_abs())
        r1 = kek.max_abs_diff(act("E", f).scaled(q**2))
        r2 = act_word("K F Kinv".split(), f).max_abs_diff(act("F", f).scaled(q**-2))
        lhs = ef - fe
        rhs = (act("K", f) - act("Kinv", f)).scaled(1.0 / (q - 1.0 / q))
        r3 = lhs.max_abs_diff(rhs)
        worst = _max(worst, _rel(_max(r1, r2, r3), scale))
    yield worst, 1e-12, "generator relations as operator identities on the spanning set"

    worst = 0.0
    pairs = list(zip(basis[::5], basis[1::5]))
    for f, g in pairs:
        fg = normal_mul(f, g)
        lhsE = act("E", fg)
        rhsE = normal_mul(act("E", f), g) + normal_mul(act("K", f), act("E", g))
        lhsF = act("F", fg)
        rhsF = normal_mul(act("F", f), act("Kinv", g)) + normal_mul(f, act("F", g))
        scale = max(1.0, lhsE.max_abs(), rhsE.max_abs(), lhsF.max_abs(), rhsF.max_abs())
        worst = _max(
            worst,
            _rel(_max(lhsE.max_abs_diff(rhsE), lhsF.max_abs_diff(rhsF)), scale),
        )
    yield worst, 1e-12, "coproduct compatibility of the actions with the product"

    worst = 0.0
    for f in basis[:: 4]:
        scale = max(1.0, act("E", f).max_abs(), act("F", f).max_abs())
        r1 = star(act("E", f)).max_abs_diff(act("F", star(f)).scaled(q**-2))
        r2 = star(act("F", f)).max_abs_diff(act("E", star(f)).scaled(q**2))
        r3 = star(act("K", f)).max_abs_diff(act("Kinv", star(f)))
        worst = _max(worst, _rel(_max(r1, r2, r3), scale))
    yield worst, 1e-12, "star intertwines the actions through the antipode table"

    worst = 0.0
    for f in basis:
        sc = max(integral_scale(f), 1e-30)
        for lab in ("E", "F"):
            acted = act(lab, f)
            worst = _max(
                worst, abs(inv_integral(acted)) / max(sc, integral_scale(acted))
            )
        worst = _max(worst, abs(inv_integral(act("K", f)) - inv_integral(f)) / sc)
    yield worst, 1e-12, "the invariant integral kills E and F images and fixes K images"

    worst = 0.0
    for f, g in pairs:
        sc = max(
            abs(inner(f, f)),
            abs(inner(g, g)),
            integral_scale(f) * integral_scale(g),
            1.0,
        )
        rE = abs(inner(act("E", f), g) - inner(f, act_word("KF", g).scaled(-1.0)))
        rF = abs(
            inner(act("F", f), g) - inner(f, act_word("E Kinv".split(), g).scaled(-1.0))
        )
        rK = abs(inner(act("K", f), g) - inner(f, act("K", g)))
        worst = _max(worst, _max(rE, rF, rK) / sc)
    yield worst, 1e-12, "generator adjoints under the pairing match the star structure"


@_group(
    "casimir_equals_laplacian",
    "casimir_centrality",
    "radial_part_identity",
    "sector_preservation",
)
def check_casimir(ctx: QContext):
    elements = _random_elements(ctx, 6, seed=5)
    worst = 0.0
    for f in elements:
        lhs = laplacian_apply(f, ctx)
        rhs = casimir_apply(f, ctx).scaled(1.0 / ctx.q)
        worst = _max(worst, _rel(lhs.max_abs_diff(rhs), max(1.0, lhs.max_abs())))
    yield worst, 1e-12, "the Laplacian is 1/q times the Casimir action"

    worst = 0.0
    for f in elements[:3]:
        om = casimir_apply(f, ctx)
        for lab in ("K", "Kinv", "E", "F"):
            lhs = act(lab, om)
            rhs = casimir_apply(act(lab, f, ctx), ctx)
            worst = _max(worst, _rel(lhs.max_abs_diff(rhs), max(1.0, lhs.max_abs())))
    yield worst, 1e-12, "the Casimir action commutes with every generator action"

    worst = 0.0
    rng = np.random.default_rng(17)
    _fit_support(ctx, 11)
    for _ in range(6):
        v = np.zeros(ctx.npoints, dtype=complex)
        v[:12] = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        f = DiscElement({0: GridFunction(v)}, ctx)
        lhs = laplacian_apply(f, ctx).sector(0).values
        rhs = radial_laplacian(GridFunction(v), ctx).values
        worst = _max(worst, float(np.max(np.abs(lhs - rhs))) / max(1.0, float(np.max(np.abs(rhs)))))
    yield worst, 1e-12, "Casimir route equals the three-term radial stencil on sector 0"

    f = _random_elements(ctx, 1, seed=23)[0]
    lap = laplacian_apply(f, ctx)
    sector_ok = 0.0 if set(lap.sectors) <= set(f.sectors) else 1.0
    rot = sector_rotate(lap, 0.9).max_abs_diff(laplacian_apply(sector_rotate(f, 0.9), ctx))
    yield (
        _max(sector_ok, _rel(rot, max(1.0, lap.max_abs()))),
        1e-12,
        "the Laplacian preserves sectors and commutes with rotations",
    )


# --- spectral suite -------------------------------------------------------


def _rho_samples(ctx: QContext, count: int = 16):
    period = ctx.rho_period()
    return [(0.06 + 0.88 * i / (count - 1)) * period / 2 for i in range(count)]


@_group(
    "eigen_equation_phi",
    "phi_recurrence_agreement",
    "eigen_equation_psi",
    "connection_formula",
    "phi_closed_forms_agree",
)
def check_eigenfunctions(ctx: QContext, nmax: int = 30):
    # eigenfunction magnitudes blow up near the band edges as q -> 1, so
    # residuals are taken relative to the eigenfunction scale
    rhos = _rho_samples(ctx)
    connection_rows = (0, 2, 5, 9, 14, 20)
    # one phi_rho call per rho gives the rows of the eigen-equation and of
    # the connection formula
    rows = range(max(nmax + 2, connection_rows[-1] + 1))
    phis = [S.phi_rho(rho, rows, ctx) for rho in rhos]
    worst_phi = 0.0
    worst_rec = 0.0
    for rho, phi in zip(rhos, phis):
        vals = phi[: nmax + 2]
        lam = S.lambda_rho(rho, ctx)
        res = radial_laplacian(GridFunction(vals, False), ctx).values - lam * vals
        scale = max(1.0, float(np.max(np.abs(vals))))
        worst_phi = _max(worst_phi, float(np.max(np.abs(res[: nmax + 1]))) / scale)
        col = S.phi_column(rho, nmax + 2, ctx)
        worst_rec = _max(worst_rec, float(np.max(np.abs(col - vals))) / scale)
    yield worst_phi, 1e-9, f"spherical eigenfunction solves the radial equation, n <= {nmax}"
    yield worst_rec, 1e-9, "stable recurrence evaluation matches the terminating series"

    worst_psi = 0.0
    for rho in rhos[::3]:
        vals = np.array([S.psi_rho(rho, n, ctx) for n in range(nmax + 2)])
        lam = S.lambda_rho(rho, ctx)
        res = radial_laplacian(GridFunction(vals, False), ctx).values - lam * vals
        scale = max(1.0, float(np.max(np.abs(vals))))
        worst_psi = _max(worst_psi, float(np.max(np.abs(res[1 : nmax + 1]))) / scale)
    yield worst_psi, 1e-9, "second-kind solution solves the radial equation at interior rows"

    period = ctx.rho_period()
    worst_c = 0.0
    for rho, phi in zip(rhos, phis):
        if min(rho, abs(rho - period / 2), abs(period - rho)) < 0.05 * period / 2:
            continue
        cp = S.c_coefficient(rho, ctx)
        cm = S.c_coefficient(-rho, ctx)
        for n in connection_rows:
            lhs = phi[n]
            a = cp * S.psi_rho(rho, n, ctx)
            b = cm * S.psi_rho(-rho, n, ctx)
            scale = max(1.0, abs(a), abs(b))
            worst_c = _max(worst_c, abs(lhs - (a + b)) / scale)
    yield worst_c, 1e-9, "eigenfunction splits into the two second-kind solutions"

    # the double ascending sum against the multiprecision series, on the
    # rows whose rounding certificate phi_rho accepts
    worst_cf = 0.0
    compared = 0
    for rho in rhos[::3]:
        vals, bound = S._phi_ascending(rho, rows[-1], ctx)
        ok = np.flatnonzero(bound <= S._PHI_CERT_TOL)
        ref = S._phi_series(rho, ok, ctx)
        worst_cf = _max(worst_cf, float(np.max(np.abs(vals[ok] - ref) / np.maximum(1.0, np.abs(ref)))))
        compared += len(ok)
    yield (
        worst_cf,
        1e-13,
        f"the ascending Al-Salam-Chihara sum matches the series on {compared} certified rows",
    )


@_group(
    "transform_roundtrip",
    "transform_centre_delta",
    "plancherel_pairing",
    "multiplication_law",
    "density_symmetry_and_quotient",
    "quadrature_self_consistency",
)
def check_transform(ctx: QContext, nmax: int = 20, node_count: int = 1024):
    worst_rt = 0.0
    # the forward weights amplify a depth-n delta by q^(-2n) and the round
    # trip returns it with error of order eps * q^(-n); depths past the
    # point where that floor crosses the tolerance are not resolvable in
    # doubles, so the sweep stops there (n = 20 exactly at q = 1/2)
    rt_tol = 1e-8
    floor_depth = int(math.log(rt_tol / (32 * np.finfo(float).eps)) / math.log(1.0 / ctx.q))
    nmax_rt = min(nmax, floor_depth)
    for n in range(nmax_rt + 1):
        d = GridFunction.delta(n, ctx.npoints)
        back = S.transform_inverse(
            S.transform_forward(d, ctx, node_count), ctx
        )
        worst_rt = _max(worst_rt, float(np.max(np.abs(back.values - d.values))))
    yield (
        worst_rt,
        rt_tol,
        f"inverse transform undoes the forward transform on deltas, n <= {nmax_rt}",
    )

    f0 = delta_fn(0, ctx)
    F0 = S.transform_forward(f0.sector(0), ctx, 256)
    const_dev = float(np.max(np.abs(F0.values - (1 - ctx.q2))))
    back = S.transform_inverse(F0, ctx)
    f0_dev = float(np.max(np.abs(back.values - f0.sector(0).values)))
    yield _max(const_dev, f0_dev), 1e-10, "the centre delta transforms to the constant and back"

    rng = np.random.default_rng(31)
    _fit_support(ctx, nmax)
    worst_p = 0.0
    # the pairing is a trapezoid sum too: at least the inverse's start count
    count = max(node_count, S._start_nodes(ctx, nmax))
    for _ in range(6):
        fv = np.zeros(ctx.npoints, dtype=complex)
        gv = np.zeros(ctx.npoints, dtype=complex)
        fv[: nmax + 1] = rng.standard_normal(nmax + 1) + 1j * rng.standard_normal(nmax + 1)
        gv[: nmax + 1] = rng.standard_normal(nmax + 1) + 1j * rng.standard_normal(nmax + 1)
        f = DiscElement({0: GridFunction(fv)}, ctx)
        g = DiscElement({0: GridFunction(gv)}, ctx)
        lhs = inner(f, g)
        Ff = S.transform_forward(f.sector(0), ctx, count)
        Fg = S.transform_forward(g.sector(0), ctx, count)
        dens = S._density_on_nodes(ctx.q, count)
        rhs = ctx.rho_period() / count * np.sum(Ff.values * np.conj(Fg.values) * dens)
        worst_p = _max(worst_p, abs(lhs - rhs) / max(1.0, abs(lhs)))
    yield worst_p, 1e-8, "the transform is unitary for the weighted pairing"

    worst_m = 0.0
    for _ in range(4):
        gv = np.zeros(ctx.npoints, dtype=complex)
        gv[: nmax + 1] = rng.standard_normal(nmax + 1)
        g = GridFunction(gv)
        lap = radial_laplacian(g, ctx)
        Fg = S.transform_forward(g, ctx, 128)
        Fl = S.transform_forward(lap, ctx, 128)
        lams = S.lambda_rho(Fg.nodes, ctx)
        worst_m = _max(
            worst_m,
            float(np.max(np.abs(Fl.values - lams * Fg.values)))
            / max(1.0, float(np.max(np.abs(Fl.values)))),
        )
    yield worst_m, 1e-9, "the transform diagonalizes the radial Laplacian"

    dens_devs = [
        S.sigma_density(0.0, ctx),
        S.sigma_density(ctx.rho_period(), ctx),
    ]
    period = ctx.rho_period()
    for frac in (0.13, 0.31, 0.47):
        dens_devs.append(
            abs(S.sigma_density(frac * period, ctx) - S.sigma_density((1 - frac) * period, ctx))
        )
    # quotient form against the direct Gamma route away from poles
    for rho in (0.11 * period, 0.29 * period):
        direct = abs(
            qgamma(0.5 - 1j * rho, ctx.q2) ** 2 / qgamma(-2j * rho, ctx.q2)
        ) ** 2 * ctx.h / (4 * math.pi * (1 - ctx.q2))
        dens_devs.append(abs(direct - S.sigma_density(rho, ctx)) / direct)
    yield (
        _max(*dens_devs),
        1e-10,
        "density vanishes at the period ends, is symmetric, matches Gammas",
    )

    # the inverse's own start count N0 against 2 N0, so the start rule is checked
    d = GridFunction.delta(1, ctx.npoints)
    Fd = S.transform_forward(d, ctx, 512)
    start = S._start_nodes(ctx, 1)
    out_a, _ = S._inverse_on_nodes(Fd, ctx, start, ctx.npoints)
    out_b, _ = S._inverse_on_nodes(Fd, ctx, 2 * start, ctx.npoints)
    doubling = float(np.max(np.abs(out_a - out_b)))
    yield doubling, 1e-10, f"doubling the start count {start} leaves the inverse transform unchanged"


@_group("spectrum_inside_segment", "spectrum_endpoint_approach")
def check_spectrum(ctx: QContext, dim: int = 200):
    lo, hi = S.spectrum_probe(dim, ctx)
    left = -1.0 / (1.0 - ctx.q) ** 2
    right = -1.0 / (1.0 + ctx.q) ** 2
    inside = _max(0.0, left - lo, hi - right)
    yield inside, 1e-8, f"dim-{dim} truncation eigenvalues stay inside the band"
    approach = _max(abs(lo - left), abs(hi - right))
    yield approach, 1e-2, "extreme eigenvalues reach the band edges"


# --- green suite ----------------------------------------------------------


@_group(
    "green_radial_order1",
    "green_radial_order2",
    "green_series_vs_quadrature",
    "spectral_image_identity",
)
def check_green_radial(ctx: QContext, nmax: int = 40):
    npts = nmax + 3
    g1 = G.g_radial_grid(1, ctx, npts)
    g2 = G.g_radial_grid(2, ctx, npts)
    f0 = np.zeros(npts)
    f0[0] = 1.0
    lap1 = radial_laplacian(g1, ctx).values
    lap2 = radial_laplacian(g2, ctx).values
    lap22 = radial_laplacian(GridFunction(lap2, False), ctx).values
    r1 = float(np.max(np.abs(lap1[: nmax + 1] - f0[: nmax + 1])))
    r2 = float(np.max(np.abs(lap22[: nmax + 1] - f0[: nmax + 1])))
    r12 = float(np.max(np.abs(lap2[: nmax + 1] - g1.values[: nmax + 1])))
    yield r1, 1e-10, f"the first fundamental series solves the radial equation, n <= {nmax}"
    yield _max(r2, r12), 1e-10, "the second fundamental series solves it twice"

    worst = 0.0
    for m in (1, 2):
        gq = G.gm_quadrature_grid(m, ctx, 21)
        gs = G.g_radial_grid(m, ctx, 21)
        worst = _max(worst, float(np.max(np.abs(gq.values - gs.values))))
    yield worst, 1e-7, "coefficient series agree with the spectral quadrature oracle"

    worst = 0.0
    for rho in (0.2, 0.9, 1.7):
        for m in (1, 2):
            worst = _max(
                worst,
                abs(
                    S.lambda_rho(rho, ctx) ** m * G.gm_spectral(m, rho, ctx)
                    - (1 - ctx.q2)
                ),
            )
    yield worst, 1e-12, "the spectral images invert the eigenvalue powers"


@_group(
    "kernel_exact_expansion",
    "kernel_invariance_exact",
    "kernel_derivative_fd",
    "kernel_coefficient_limits",
    "kernel_coefficient_classical_trend",
)
def check_kernels(ctx: QContext):
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
    worst = 0.0
    for key, ref in (((0, 0), t00), ((1, -1), t1), ((-1, 1), tm1)):
        scale = np.maximum(1.0, np.abs(ref))
        worst = _max(worst, float(np.max(np.abs(K.term(*key) - ref) / scale)))
    extra = [k for k in K.terms if abs(k[0]) > 1]
    yield (
        worst + (1.0 if extra else 0.0),
        1e-12,
        "the terminating kernel matches its four-term hand expansion",
    )

    worst = 0.0
    for l0 in (1, 2, 3):
        Kl = G.kernel_G(-float(l0), "plain", ctx, shape=(10, 10), sector_max=l0 + 1)
        worst = _max(worst, G.kernel_invariance_residual(Kl, ctx))
    yield worst, 1e-12, "terminating kernels are exactly invariant"

    worst_ratio = 0.0
    worst_abs = 0.0
    for N in (1, 2):
        Kd = G.kernel_G(float(N), "derivative", ctx, (6, 6), 2)
        errs = []
        for eps in (1e-3, 5e-4):
            Kp = G.kernel_G(N + eps, "plain", ctx, (6, 6), 2)
            Km = G.kernel_G(N - eps, "plain", ctx, (6, 6), 2)
            worst_fd = 0.0
            for key in Kd.terms:
                fd = (Kp.term(*key) - Km.term(*key)) / (2 * eps)
                worst_fd = _max(worst_fd, float(np.max(np.abs(fd - Kd.term(*key)))))
            errs.append(worst_fd)
        worst_abs = _max(worst_abs, errs[0])
        worst_ratio = _max(worst_ratio, errs[1] / errs[0])
    yield (
        _max(worst_abs / 1e-5, worst_ratio / 0.3),
        1.0,
        "the derivative kernel matches central differences at second order",
    )

    yield abs(G.coef_order1(1, q) + 1.0), 1e-14, "leading kernel coefficient is -1"

    trend_ok = True
    final_dev = 0.0
    for m in range(1, 11):
        devs = [
            abs(G.coef_order1(m, qq) + 1.0 / m) * m for qq in (0.9, 0.99, 0.999)
        ]
        trend_ok &= devs[0] >= devs[1] >= devs[2]
        final_dev = _max(final_dev, devs[2])
    yield (
        (0.0 if trend_ok else 1.0) + _max(0.0, final_dev - 0.02),
        1e-12,
        "kernel coefficients approach the classical -1/m as q grows",
    )


@_group(
    "kernel_centre_delta",
    "main_inversion_order1",
    "main_inversion_order2",
    "kernel_invariance_truncated",
    "matrix_solve_oracle",
    "inverse_route_consistency",
)
def check_green_operator(ctx: QContext):
    K1 = G.kernel_assembled(1, ctx, sector_max=3)
    K2 = G.kernel_assembled(2, ctx, sector_max=3)
    f0 = delta_fn(0, ctx)
    g1 = G.g_radial_grid(1, ctx)
    g2 = G.g_radial_grid(2, ctx)
    sol1 = G.apply_kernel(K1, f0, ctx)
    sol2 = G.apply_kernel(K2, f0, ctx)
    r1 = float(np.max(np.abs(sol1.sector(0).values - g1.values)))
    r2 = float(np.max(np.abs(sol2.sector(0).values - g2.values)))
    yield (
        _max(r1, r2),
        1e-10,
        "assembled kernels send the centre delta to the fundamental solutions",
    )

    basis = _spanning_set(ctx, sectors=3, support=8)
    worst1 = worst2 = 0.0
    for f in basis[::3]:
        back1 = laplacian_apply(G.apply_kernel(K1, f, ctx), ctx)
        d1 = back1 - f
        worst1 = _max(worst1, _interior_max(d1, 1))
        back2 = laplacian_apply(laplacian_apply(G.apply_kernel(K2, f, ctx), ctx), ctx)
        d2 = back2 - f
        worst2 = _max(worst2, _interior_max(d2, 2))
    yield worst1, 1e-8, "the Laplacian undoes the first assembled kernel on the spanning set"
    yield worst2, 1e-7, "the squared Laplacian undoes the second assembled kernel"

    yield (
        _max(
            G.kernel_invariance_residual(K1, ctx),
            G.kernel_invariance_residual(K2, ctx),
        ),
        _max(K1.tail_bound, K2.tail_bound, 1e-12),
        "assembled kernels are invariant up to the series tail bound",
    )

    rng = np.random.default_rng(41)
    worst = 0.0
    # the truncated matrix reaches at least 135 rows past the grid (200 rows on the default one)
    dim = max(200, ctx.npoints + 135)
    for sector in (-2, 0, 1, 3):
        mat = G.sector_laplacian_matrix(sector, dim, ctx)
        v = np.zeros(ctx.npoints, dtype=complex)
        v[:6] = rng.standard_normal(6)
        f = DiscElement({sector: GridFunction(v)}, ctx)
        sol = G.green_solve(f, 1, ctx)
        if set(sol.sectors) - {sector}:
            worst = _max(worst, 1.0)
        rhs = np.zeros(dim, dtype=complex)
        rhs[: ctx.npoints] = v
        x = np.linalg.solve(mat, rhs)
        worst = _max(
            worst, float(np.max(np.abs(x[: ctx.npoints] - sol.sector(sector).values)))
        )
    yield worst, 1e-6, "kernel route agrees with truncated-matrix inversion per sector"

    v = np.zeros(ctx.npoints, dtype=complex)
    v[:5] = rng.standard_normal(5)
    f = DiscElement({1: GridFunction(v)}, ctx)
    once = G.green_solve(f, 1, ctx)
    once_f = DiscElement(
        {m: GridFunction(g.values.copy(), True) for m, g in once.sectors.items()}, ctx
    )
    twice = G.green_solve(once_f, 1, ctx)
    direct = G.green_solve(f, 2, ctx)
    yield (
        twice.max_abs_diff(direct),
        1e-6,
        "iterating the first inverse matches the second inverse",
    )


def _interior_max(d: DiscElement, margin: int) -> float:
    worst = 0.0
    take = d.ctx.npoints - margin
    for g in d.sectors.values():
        worst = _max(worst, float(np.max(np.abs(g.values[:take]))))
    return worst


@_group("classical_limit_monotone", "dilog_reflection")
def check_limits(ctx: QContext):
    rows = G.classical_limit_report([0.25, 0.5, 0.75], [0.9, 0.99, 0.999])
    mono_ok = True
    for t in (0.25, 0.5, 0.75):
        errs1 = [r.err_order1 for r in rows if r.t == t]
        errs2 = [r.err_order2 for r in rows if r.t == t]
        mono_ok &= all(a > b for a, b in zip(errs1, errs1[1:]))
        mono_ok &= all(a > b for a, b in zip(errs2, errs2[1:]))
    conv_ok = rows[-1].err_order1 < 1e-2 and rows[-1].err_order2 < 1e-2
    yield (
        0.0 if (mono_ok and conv_ok) else 1.0,
        1e-12,
        "series limits approach the log and dilog targets monotonically",
    )
    yield (
        _max(*(r.reflection_residual for r in rows)),
        1e-12,
        "dilogarithm reflection identity as a scalar check",
    )


@_group("unit_invariance", "centre_delta_not_invariant")
def check_invariance_elements(ctx: QContext):
    yield invariance_residual(DiscElement.one(ctx), ctx), 1e-14, "the unit element is invariant"
    f0_res = invariance_residual(delta_fn(0, ctx), ctx)
    yield 0.0 if f0_res > 1e-3 else 1.0, 1e-12, "the centre delta is genuinely non-invariant"


REGISTRY = (
    check_algebra,
    check_hopf,
    check_casimir,
    check_invariance_elements,
    check_eigenfunctions,
    check_transform,
    check_spectrum,
    check_green_radial,
    check_kernels,
    check_green_operator,
    check_limits,
)


def run_registry(ctx: QContext, patterns: list[str] | None = None) -> list[CheckResult]:
    """Run all (or name-filtered) checks and return their results in
    registry order.  Groups with no matching names are skipped entirely, and
    a group stops after its last matching check."""
    def wanted(name: str) -> bool:
        return not patterns or any(p in name for p in patterns)

    out: list[CheckResult] = []
    for group in REGISTRY:
        names = [name for name in group.names if wanted(name)]
        if names:
            out.extend(r for r in group(ctx, last=names[-1]) if wanted(r.name))
    return out
