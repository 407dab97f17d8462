"""Seeded workloads: the op plans and the oracle each op is checked against.

A workload is a fixed op sequence built from the seed alone; the library
only ever receives the generated inputs.  Each op returns a list of
``(check, residual, tolerance)`` triples.  Every triple reuses the residual
normalisation and the tolerance of the ``qdisc.verify`` check it is named
after, so no tolerance here is new and none is looser than the registry's.

Library functions are always reached through their module
(``S.transform_forward``, not a name imported here), so the tracer's
rebinding of ``qdisc.*`` namespaces also catches the calls made from here.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("verify", "spectral", "algebra")

# the q range swept by the seeded workloads, split into equal strata with
# one q drawn per stratum, so every seed covers the whole range evenly
Q_LO, Q_HI, Q_STRATA = 0.1, 0.9, 16

SPECTRAL_NODES = (256, 512, 1024)
SPECTRAL_HORIZONS = (32, 64)
ALGEBRA_HORIZONS = (64, 128)
ALGEBRA_SECTORS = tuple(range(-3, 4))  # up to 7 sectors per element

# op counts per pass; a seed changes the inputs but not this mix, and every
# input that sets an op's cost is drawn stratified within its kind
SPECTRAL_MIX = {"roundtrip": 512, "gm_quadrature": 64, "phi_rho": 128, "density": 96}
ALGEBRA_MIX = {"normal_mul": 384, "star": 144, "inner": 96, "laplacian": 192, "invariance": 144}

# registry tolerances (qdisc.verify), cited by check name
TOL = {
    "transform_roundtrip": 1e-8,
    "green_series_vs_quadrature": 1e-7,
    "phi_recurrence_agreement": 1e-9,
    "density_symmetry_and_quotient": 1e-10,
    "connection_formula": 1e-9,
    "algebra_rep_products": 1e-12,
    "algebra_rep_involution": 1e-12,
    "adjoint_law": 1e-12,
    "casimir_equals_laplacian": 1e-12,
    "unit_invariance": 1e-14,
    "centre_delta_not_invariant": 1e-12,
}


@dataclass
class Op:
    kind: str
    args: dict


@dataclass
class Plan:
    ops: list[Op]
    properties: dict = field(default_factory=dict)


def build_plan(workload: str, seed: int) -> Plan:
    if workload == "verify":
        return _verify_plan()
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "spectral":
        return _spectral_plan(rng)
    if workload == "algebra":
        return _algebra_plan(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _q_set(rng) -> list[float]:
    width = (Q_HI - Q_LO) / Q_STRATA
    return [float(Q_LO + width * (k + rng.random())) for k in range(Q_STRATA)]


def _spread(rng, count: int, lo: int, hi: int) -> list[int]:
    """`count` integers in [lo, hi], one per equal stratum, shuffled."""
    vals = [lo + int((k + rng.random()) * (hi - lo + 1) / count) for k in range(count)]
    rng.shuffle(vals)
    return vals


def _balanced(rng, values, count: int) -> list:
    """`count` items cycling through `values`, shuffled."""
    vals = list(values)
    out = [vals[k % len(vals)] for k in range(count)]
    rng.shuffle(out)
    return out


# --- verify -------------------------------------------------------------
# Why: the command every user and CI runs, cold; ~95 % is kernel assembly.


def _verify_plan() -> Plan:
    return Plan(
        [Op("verify", {"q": 0.5})],
        {"q_set": [0.5], "horizons": [64], "sector_counts": {}, "key_repeat_share": 0.0},
    )


# --- spectral -------------------------------------------------------------
# Why: spherical/qspecial alone, no kernels; repeated keys hit the caches.


def _resolvable_depth(q: float) -> int:
    """Deepest delta whose round trip stays above rounding (check_transform)."""
    tol = TOL["transform_roundtrip"]
    return min(20, int(math.log(tol / (32 * np.finfo(float).eps)) / math.log(1.0 / q)))


def _spectral_plan(rng) -> Plan:
    qs = _q_set(rng)
    ops: list[Op] = []

    # three keys per q, one per node count; of the keys of each node count
    # half are used once and half repeat, each half with both horizons equally
    singles, repeated = [], []
    half = len(qs) // 2
    for nodes in SPECTRAL_NODES:
        order = rng.permutation(len(qs))
        for group, idx in ((singles, order[:half]), (repeated, order[half:])):
            horizons = _balanced(rng, SPECTRAL_HORIZONS, half)
            group += [(qs[i], nodes, h) for i, h in zip(idx, horizons)]
    n_rt = SPECTRAL_MIX["roundtrip"]
    uses = singles + [repeated[k % len(repeated)] for k in range(n_rt - len(singles))]
    fracs = _spread(rng, n_rt, 0, 999)
    for (q, nodes, horizon), frac in zip(uses, fracs):
        depth = frac * (_resolvable_depth(q) + 1) // 1000
        ops.append(Op("roundtrip", {"q": q, "nodes": nodes, "horizon": horizon, "depth": depth}))

    per_q = SPECTRAL_MIX["gm_quadrature"] // len(qs)
    for q in qs:
        for k in range(per_q):
            ops.append(Op("gm_quadrature", {"q": q, "m": 1 + k % 2}))

    per_q = SPECTRAL_MIX["phi_rho"] // len(qs)
    for q in qs:
        for n in _spread(rng, per_q, 0, 31):
            ops.append(Op("phi_rho", {"q": q, "rho_frac": _rho_frac(rng), "n": n}))

    per_q = SPECTRAL_MIX["density"] // len(qs)
    for q in qs:
        # connection-formula rows at the registry's grid points, in equal numbers
        ns = _balanced(rng, (0, 2, 5, 9, 14, 20), 3 * per_q)
        for k in range(per_q):
            rows = [{"rho_frac": _rho_frac(rng), "n": n} for n in ns[3 * k : 3 * k + 3]]
            ops.append(Op("density", {"q": q, "rows": rows}))

    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]
    # share of round trips whose key an earlier op of the pass already used
    seen, repeats = set(), 0
    for op in ops:
        if op.kind == "roundtrip":
            key = (op.args["q"], op.args["nodes"], op.args["horizon"])
            repeats += key in seen
            seen.add(key)
    props = {
        "q_set": qs,
        "horizons": list(SPECTRAL_HORIZONS),
        "node_counts": list(SPECTRAL_NODES),
        "sector_counts": {"1": len(ops)},
        "distinct_keys": len(seen),
        "key_repeat_share": repeats / n_rt,
    }
    return Plan(ops, props)


def _rho_frac(rng) -> float:
    """Point of the half period inside the registry's sample range
    (check_eigenfunctions' _rho_samples), away from the poles at 0 and P/2."""
    return float(0.06 + 0.88 * rng.random())


# --- algebra ------------------------------------------------------------
# Why: discalg/uqsl2 alone, sharing _poch_down/_poch_up with kernel assembly.


def _algebra_plan(rng) -> Plan:
    qs = _q_set(rng)
    ops = []
    for kind, count in ALGEBRA_MIX.items():
        horizons = _balanced(rng, ALGEBRA_HORIZONS, count)
        q_of = _balanced(rng, qs, count)
        fracs = _spread(rng, count, 0, 999)
        # sector counts of (f, g): every pair equally often, since the cost
        # of a two-element op grows with the product of the two counts
        pairs = _balanced(rng, [(a, b) for a in range(1, 8) for b in range(1, 8)], count)
        for i in range(count):
            horizon = horizons[i]
            # support well inside the horizon: products add at most six rows
            # of sector shift, and the representation oracle needs ten more
            support = 4 + fracs[i] * (horizon // 4 - 3) // 1000
            args = {"q": q_of[i], "horizon": horizon, "support": support}
            if kind == "invariance" and i % 2:
                args["unit"] = complex(rng.standard_normal(), rng.standard_normal())
            else:
                names = ("f", "g") if kind in ("normal_mul", "inner") else ("f",)
                for name, sectors in zip(names, pairs[i]):
                    args[name] = _element_spec(rng, sectors, support)
            ops.append(Op(kind, args))
    order = rng.permutation(len(ops))
    ops = [ops[i] for i in order]
    used = [len(op.args[x]) for op in ops for x in ("f", "g") if x in op.args]
    props = {
        "q_set": qs,
        "horizons": list(ALGEBRA_HORIZONS),
        "sector_counts": {str(c): used.count(c) for c in sorted(set(used))},
        "key_repeat_share": 0.0,
    }
    return Plan(ops, props)


def _element_spec(rng, count: int, support: int) -> dict[int, np.ndarray]:
    sectors = rng.choice(ALGEBRA_SECTORS, size=count, replace=False)
    return {
        int(m): rng.standard_normal(support + 1) + 1j * rng.standard_normal(support + 1)
        for m in sectors
    }


# --- execution --------------------------------------------------------------


class Runner:
    """Executes ops against the imported library; one per worker process."""

    def __init__(self, report_path: str):
        import qdisc
        import qdisc.cli

        self.qd = qdisc
        self.cli = qdisc.cli
        self.D = qdisc.discalg
        self.G = qdisc.green
        self.Q = qdisc.qspecial
        self.S = qdisc.spherical
        self.U = qdisc.uqsl2
        self.report_path = report_path

    def run(self, op: Op) -> list[tuple[str, float, float]]:
        return getattr(self, "_op_" + op.kind)(**op.args)

    def _ctx(self, q: float, horizon: int = 64):
        return self.qd.QContext(q, grid_horizon=horizon)

    def _element(self, spec: dict, ctx):
        D = self.D
        sectors = {}
        for m, vals in spec.items():
            v = np.zeros(ctx.npoints, dtype=complex)
            v[: len(vals)] = vals
            sectors[m] = D.GridFunction(v)
        return D.DiscElement(sectors, ctx)

    # verify: the whole registry through the command line, cold
    def _op_verify(self, q: float):
        code = self.cli.main(["verify", "--q", repr(q), "--out", self.report_path])
        with open(self.report_path) as fh:
            report = json.load(fh)
        out = [(c["check"], c["residual"], c["tolerance"]) for c in report["checks"]]
        # exit status and overall verdict, as a check that passes at 0
        out.append(("verify_exit", float(code != 0 or not report["passed"]), 0.0))
        return out

    # [transform_roundtrip] absolute max deviation of the delta round trip
    def _op_roundtrip(self, q, nodes, horizon, depth):
        S = self.S
        ctx = self._ctx(q, horizon)
        d = self.D.GridFunction.delta(depth, ctx.npoints)
        back = S.transform_inverse(S.transform_forward(d, ctx, nodes), ctx)
        res = float(np.max(np.abs(back.values - d.values)))
        return [("transform_roundtrip", res, TOL["transform_roundtrip"])]

    # [green_series_vs_quadrature] absolute max deviation on rows 0..20
    def _op_gm_quadrature(self, q, m):
        G = self.G
        ctx = self._ctx(q)
        gq = G.gm_quadrature_grid(m, ctx, 21)
        gs = G.g_radial_grid(m, ctx, 21)
        res = float(np.max(np.abs(gq.values - gs.values)))
        return [("green_series_vs_quadrature", res, TOL["green_series_vs_quadrature"])]

    # [phi_recurrence_agreement] recurrence against the multiprecision
    # series, relative to max(1, |phi|)
    def _op_phi_rho(self, q, rho_frac, n):
        S = self.S
        ctx = self._ctx(q)
        rho = rho_frac * ctx.rho_period() / 2
        ref = S.phi_rho(rho, n, ctx)
        col = S.phi_column(rho, n + 1, ctx)
        res = abs(col[n] - ref) / max(1.0, abs(ref))
        return [("phi_recurrence_agreement", res, TOL["phi_recurrence_agreement"])]

    # [density_symmetry_and_quotient] and [connection_formula] on a table
    # of (rho, density, c(rho)) rows
    def _op_density(self, q, rows):
        S, Q = self.S, self.Q
        ctx = self._ctx(q)
        period = ctx.rho_period()
        norm = ctx.h / (4 * math.pi * (1 - ctx.q2))
        dens_res = conn_res = 0.0
        for row in rows:
            rho = row["rho_frac"] * period / 2
            dens = S.sigma_density(rho, ctx)
            direct = abs(Q.qgamma(0.5 - 1j * rho, ctx.q2) ** 2 / Q.qgamma(-2j * rho, ctx.q2)) ** 2 * norm
            dens_res = max(
                dens_res,
                abs(direct - dens) / direct,
                abs(dens - S.sigma_density(period - rho, ctx)),
            )
            cp = S.c_coefficient(rho, ctx)
            cm = S.c_coefficient(-rho, ctx)
            n = row["n"]
            a = cp * S.psi_rho(rho, n, ctx)
            b = cm * S.psi_rho(-rho, n, ctx)
            lhs = S.phi_rho(rho, n, ctx)
            conn_res = max(conn_res, abs(lhs - (a + b)) / max(1.0, abs(a), abs(b)))
        return [
            ("density_symmetry_and_quotient", dens_res, TOL["density_symmetry_and_quotient"]),
            ("connection_formula", conn_res, TOL["connection_formula"]),
        ]

    def _rep_dim(self, support: int) -> tuple[int, int]:
        """Representation size and the interior it is exact on, with the
        registry's ten-row margin (check_algebra: dim 28, interior 18)."""
        dim = support + 20
        return dim, dim - 10

    # [algebra_rep_products] interior deviation from the matrix product,
    # relative to max(1, max|rep f| max|rep g|)
    def _op_normal_mul(self, q, horizon, support, f, g):
        D = self.D
        ctx = self._ctx(q, horizon)
        fe, ge = self._element(f, ctx), self._element(g, ctx)
        dim, inner = self._rep_dim(support)
        prod = D.rep_matrix(D.normal_mul(fe, ge), dim, ctx).entries
        mf = D.rep_matrix(fe, dim, ctx).entries
        mg = D.rep_matrix(ge, dim, ctx).entries
        scale = max(1.0, float(np.max(np.abs(mf))) * float(np.max(np.abs(mg))))
        res = float(np.max(np.abs((prod - mf @ mg)[:inner, :inner]))) / scale
        return [("algebra_rep_products", res, TOL["algebra_rep_products"])]

    # [algebra_rep_involution] interior deviation from the adjoint matrix
    def _op_star(self, q, horizon, support, f):
        D = self.D
        ctx = self._ctx(q, horizon)
        fe = self._element(f, ctx)
        dim, inner = self._rep_dim(support)
        st = D.rep_matrix(D.star(fe), dim, ctx).entries
        mf = D.rep_matrix(fe, dim, ctx).entries
        res = float(np.max(np.abs((st - mf.conj().T)[:inner, :inner]))) / max(
            1.0, float(np.max(np.abs(mf)))
        )
        return [("algebra_rep_involution", res, TOL["algebra_rep_involution"])]

    # [adjoint_law] generator adjoints under the pairing, relative to the
    # registry's scale max(|<f,f>|, |<g,g>|, |f|_1 |g|_1, 1)
    def _op_inner(self, q, horizon, support, f, g):
        D, U = self.D, self.U
        ctx = self._ctx(q, horizon)
        fe, ge = self._element(f, ctx), self._element(g, ctx)
        sc = max(
            abs(D.inner(fe, fe)),
            abs(D.inner(ge, ge)),
            D.integral_scale(fe) * D.integral_scale(ge),
            1.0,
        )
        rE = abs(D.inner(U.act("E", fe), ge) - D.inner(fe, U.act_word("KF", ge).scaled(-1.0)))
        rF = abs(
            D.inner(U.act("F", fe), ge)
            - D.inner(fe, U.act_word(["E", "Kinv"], ge).scaled(-1.0))
        )
        rK = abs(D.inner(U.act("K", fe), ge) - D.inner(fe, U.act("K", ge)))
        return [("adjoint_law", max(rE, rF, rK) / sc, TOL["adjoint_law"])]

    # [casimir_equals_laplacian] relative to max(1, max|Lap f|)
    def _op_laplacian(self, q, horizon, support, f):
        U = self.U
        ctx = self._ctx(q, horizon)
        fe = self._element(f, ctx)
        lhs = U.laplacian_apply(fe, ctx)
        rhs = U.casimir_apply(fe, ctx).scaled(1.0 / ctx.q)
        res = lhs.max_abs_diff(rhs) / max(1.0, lhs.max_abs())
        return [("casimir_equals_laplacian", res, TOL["casimir_equals_laplacian"])]

    # [unit_invariance] for multiples of the unit, and
    # [centre_delta_not_invariant] (residual must exceed 1e-3) otherwise
    def _op_invariance(self, q, horizon, support, f=None, unit=None):
        D, U = self.D, self.U
        ctx = self._ctx(q, horizon)
        if unit is not None:
            res = U.invariance_residual(D.DiscElement.one(ctx).scaled(unit), ctx)
            return [("unit_invariance", res, TOL["unit_invariance"])]
        res = U.invariance_residual(self._element(f, ctx), ctx)
        flag = 0.0 if res > 1e-3 else 1.0
        return [("centre_delta_not_invariant", flag, TOL["centre_delta_not_invariant"])]
