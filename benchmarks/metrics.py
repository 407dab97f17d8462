"""Metric names, units and how the per-layer ones are read off the spans.

End-to-end metrics come from untraced passes only.  Per-layer metrics come
from traced passes; each line notes the end-to-end metric it should move.
"""

from __future__ import annotations

END_TO_END = {
    "setup_s": "s",  # spawn -> `import qdisc` and the first QContext done
    "wall_s": "s",  # one pass of the seeded op sequence, tracing off
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",  # worker ru_maxrss; module caches are unbounded
}

VERIFY_GROUPS = (
    "check_algebra",
    "check_hopf",
    "check_casimir",
    "check_invariance_elements",
    "check_eigenfunctions",
    "check_transform",
    "check_spectrum",
    "check_green_radial",
    "check_kernels",
    "check_green_operator",
    "check_limits",
)

# (metric, unit, statistic, traced functions); a layer name alone means
# every traced function of that layer
_SPEC = [
    # qspecial -> wall_s on spectral (density, c-coefficient), verify (l_sum)
    ("qspecial.calls", "count", "calls", ["qspecial"]),
    ("qspecial.self_s", "s", "self_s", ["qspecial"]),
    ("qspecial.l_sum.calls", "count", "calls", ["qspecial.l_sum"]),
    # discalg -> algebra op_p50_ms / op_p90_ms / wall_s; poch also verify
    ("discalg.calls", "count", "calls", ["discalg"]),
    ("discalg.self_s", "s", "self_s", ["discalg"]),
    ("discalg.normal_mul.calls", "count", "calls", ["discalg.normal_mul"]),
    ("discalg.normal_mul.self_s", "s", "self_s", ["discalg.normal_mul"]),
    ("discalg.rep_matrix.self_s", "s", "self_s", ["discalg.rep_matrix"]),
    ("discalg.inner.self_s", "s", "self_s", ["discalg.inner"]),
    ("discalg.poch.calls", "count", "calls", ["discalg._poch_down", "discalg._poch_up"]),
    ("discalg.poch.self_s", "s", "self_s", ["discalg._poch_down", "discalg._poch_up"]),
    # uqsl2 -> algebra wall_s / op_p50_ms
    ("uqsl2.calls", "count", "calls", ["uqsl2"]),
    ("uqsl2.self_s", "s", "self_s", ["uqsl2"]),
    ("uqsl2.act.calls", "count", "calls", ["uqsl2.act"]),
    ("uqsl2.act.self_s", "s", "self_s", ["uqsl2.act"]),
    ("uqsl2.laplacian_apply.calls", "count", "calls", ["uqsl2.laplacian_apply"]),
    ("uqsl2.laplacian_apply.self_s", "s", "self_s", ["uqsl2.laplacian_apply"]),
    ("uqsl2.invariance_residual.self_s", "s", "self_s", ["uqsl2.invariance_residual"]),
    # spherical -> spectral op_p50_ms (phi_matrix, forward), op_p90_ms
    # (inverse), wall_s (phi_rho, density)
    ("spherical.calls", "count", "calls", ["spherical"]),
    ("spherical.self_s", "s", "self_s", ["spherical"]),
    ("spherical.phi_matrix.calls", "count", "calls", ["spherical.phi_matrix"]),
    ("spherical.phi_matrix.self_s", "s", "self_s", ["spherical.phi_matrix"]),
    ("spherical.transform_forward.self_s", "s", "self_s", ["spherical.transform_forward"]),
    ("spherical.transform_inverse.calls", "count", "calls", ["spherical.transform_inverse"]),
    ("spherical.transform_inverse.self_s", "s", "self_s", ["spherical.transform_inverse"]),
    ("spherical.phi_rho.self_s", "s", "self_s", ["spherical.phi_rho"]),
    ("spherical.sigma_density.self_s", "s", "self_s", ["spherical.sigma_density"]),
    # green -> verify wall_s (kernels), spectral wall_s (g_radial, gm_quadrature)
    ("green.calls", "count", "calls", ["green"]),
    ("green.self_s", "s", "self_s", ["green"]),
    ("green.kernel_assembled.calls", "count", "calls", ["green.kernel_assembled"]),
    ("green.kernel_assembled.self_s", "s", "self_s", ["green.kernel_assembled"]),
    ("green.kernel_G.calls", "count", "calls", ["green.kernel_G"]),
    ("green.kernel_G.self_s", "s", "self_s", ["green.kernel_G"]),
    ("green.apply_kernel.calls", "count", "calls", ["green.apply_kernel"]),
    ("green.apply_kernel.self_s", "s", "self_s", ["green.apply_kernel"]),
    ("green.green_solve.calls", "count", "calls", ["green.green_solve"]),
    ("green.green_solve.self_s", "s", "self_s", ["green.green_solve"]),
    ("green.kernel_invariance_residual.self_s", "s", "self_s", ["green.kernel_invariance_residual"]),
    ("green.g_radial.self_s", "s", "self_s", ["green.g_radial", "green.g_radial_grid"]),
    ("green.gm_quadrature.self_s", "s", "self_s", ["green.gm_quadrature", "green.gm_quadrature_grid"]),
] + [
    # verify -> verify wall_s: time inside each registry group
    (f"verify.{group}.s", "s", "total_s", [f"verify.{group}"])
    for group in VERIFY_GROUPS
]

# metrics not read off single functions: see layer_metrics and run.py
_DERIVED = [
    # time under outermost green spans (green plus what it calls), and the
    # shares of the traced ops' time that green's self and inclusive time take
    ("green.inclusive_s", "s"),
    ("green.self_share", "ratio"),
    ("green.inclusive_share", "ratio"),
    ("spherical.key_repeat_share", "ratio"),  # generator input property
    ("verify.worst_margin", "ratio"),  # largest residual/tolerance of the run
    ("trace.overhead_s", "s"),  # traced minus untraced wall_s
    ("trace.spans", "count"),
]

PER_LAYER = {name: unit for name, unit, _, _ in _SPEC} | dict(_DERIVED)


def expected_functions() -> list[str]:
    """Every "layer.function" the per-layer metrics read."""
    return sorted({f for _, _, _, fns in _SPEC for f in fns if "." in f})


def layer_metrics(summary: dict) -> dict[str, float]:
    """Per-layer values of one traced pass (from tracer.summarize).

    Shares are taken of the time under the ops' root spans, which, like
    every span, includes the calibration chunks that fell inside it."""
    by_name = summary["by_name"]
    out = {}
    for metric, _, stat, fns in _SPEC:
        total = 0.0
        for name, row in by_name.items():
            if name in fns or name.split(".", 1)[0] in fns:
                total += row[stat]
        out[metric] = total
    incl = summary["inclusive_s"]["green"]
    ops_s = sum(row["total_s"] for name, row in by_name.items() if name.startswith("op."))
    out["green.inclusive_s"] = incl
    out["green.self_share"] = out["green.self_s"] / ops_s
    out["green.inclusive_share"] = incl / ops_s
    out["trace.spans"] = summary["spans"]
    return out
