"""Acceptance criteria at their pinned tolerances.

Each test evaluates one numbered criterion end to end, prints a single
PASS/FAIL line (visible with `pytest -s` or in captured output), and
asserts the stated tolerance.  All criteria run at q = 0.5 with the
default horizons.
"""

import time

from qdisc import QContext
from qdisc.verify import run_registry

CTX = QContext(0.5)


def _checks(*names: str):
    """The named checks' results, from one registry run."""
    results = run_registry(CTX, list(names))
    assert sorted(r.name for r in results) == sorted(names)
    return results


def _report(num: int, label: str, results) -> None:
    worst = max((r.residual / r.tolerance) for r in results)
    status = "PASS" if all(r.passed for r in results) else "FAIL"
    detail = "; ".join(f"{r.name}={r.residual:.2e}" for r in results)
    print(f"CRITERION {num:2d} {status} ({label}): {detail}")
    for r in results:
        assert r.passed, f"{r.name}: residual {r.residual} > tol {r.tolerance}"


def test_criterion_01_algebra_relations():
    # (qr)/(qr1) exact; representation oracle < 1e-12 on 100 random
    # elements; runtime < 5 s
    t0 = time.time()
    results = _checks(
        "algebra_qr_identity",
        "algebra_commutation_shifts",
        "algebra_rep_products",
        "algebra_rep_involution",
        "algebra_associativity",
        "algebra_integral_values",
    )
    elapsed = time.time() - t0
    _report(1, "algebra relations and representation oracle", results)
    assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"


def test_criterion_02_hopf_covariance_suite():
    # defining relations, module-algebra law, involution covariance,
    # integral invariance, adjoint law: residuals < 1e-12; runtime < 10 s
    t0 = time.time()
    results = _checks(
        "hopf_defining_relations",
        "module_algebra_law",
        "involution_covariance",
        "integral_invariance",
        "adjoint_law",
    )
    elapsed = time.time() - t0
    for r in results:
        assert r.tolerance <= 1e-12
    _report(2, "covariance suite on the spanning set", results)
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"


def test_criterion_03_casimir_identity():
    results = _checks("casimir_equals_laplacian", "radial_part_identity")
    for r in results:
        assert r.tolerance <= 1e-12
    _report(3, "Casimir route equals the Laplacian and its radial part", results)


def test_criterion_04_eigenfunctions():
    # eigen equations at n <= 30 for 16 samples, residual < 1e-9;
    # connection formula < 1e-9 away from the coefficient poles
    results = _checks("eigen_equation_phi", "eigen_equation_psi", "connection_formula")
    for r in results:
        assert r.tolerance <= 1e-9
    _report(4, "eigenfunctions and connection formula", results)


def test_criterion_05_transform_pair():
    # round trip on deltas n <= 20 < 1e-8; pairing match < 1e-8;
    # diagonalization < 1e-9; runtime < 60 s at 1024 nodes
    t0 = time.time()
    results = _checks(
        "transform_roundtrip",
        "transform_centre_delta",
        "plancherel_pairing",
        "multiplication_law",
        "density_symmetry_and_quotient",
        "quadrature_self_consistency",
    )
    elapsed = time.time() - t0
    keep = [
        r
        for r in results
        if r.name in ("transform_roundtrip", "plancherel_pairing", "multiplication_law")
    ]
    _report(5, "spherical transform pair", keep)
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"


def test_criterion_06_radial_green_functions():
    # fundamental solutions solve the radial equations at n <= 40 to
    # 1e-10 and match the quadrature oracle to 1e-7 at n <= 20
    results = _checks("green_radial_order1", "green_radial_order2", "green_series_vs_quadrature")
    _report(6, "radial fundamental solutions", results)


def test_criterion_07_kernel_inversion():
    # main inversion identities on the spanning set (1e-8 / 1e-7), centre
    # delta images gridwise < 1e-10, matrix-solve agreement < 1e-6
    results = _checks(
        "kernel_centre_delta",
        "main_inversion_order1",
        "main_inversion_order2",
        "matrix_solve_oracle",
    )
    _report(7, "assembled kernels invert the Laplacian", results)


def test_criterion_08_kernel_invariance():
    results = _checks("kernel_invariance_exact", "kernel_invariance_truncated")
    exact = [r for r in results if r.name == "kernel_invariance_exact"]
    for r in exact:
        assert r.tolerance <= 1e-12
    _report(8, "kernel invariance, exact and truncated", results)


def test_criterion_09_spectrum():
    results = _checks("spectrum_inside_segment", "spectrum_endpoint_approach")
    _report(9, "spectrum of the truncated radial operator", results)


def test_criterion_10_classical_limits():
    results = _checks("classical_limit_monotone", "dilog_reflection")
    _report(10, "classical limits and dilogarithm reflection", results)
