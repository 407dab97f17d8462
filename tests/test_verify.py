"""Check registry: group declaration, timing records and name filtering."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from qdisc import CapacityError, DiscElement, GridFunction, QContext
from qdisc import green, spherical, verify
from qdisc.verify import REGISTRY, _group, _max, run_registry


def test_group_names_each_yield_in_order():
    @_group("first", "second")
    def pair(scale):
        yield 0.5 * scale, 1.0, "a"
        yield 2.0 * scale, 1.0, "b"

    results = pair(1.0)
    assert pair.names == ("first", "second")
    assert [r.name for r in results] == ["first", "second"]
    assert [r.passed for r in results] == [True, False]
    assert [r.detail for r in results] == ["a", "b"]
    assert all(r.runtime >= 0.0 for r in results)


def test_group_rejects_a_count_mismatch():
    @_group("first", "second")
    def short():
        yield 0.0, 1.0, "only one"

    with pytest.raises(ValueError):
        short()


def test_group_error_fails_the_remaining_names():
    @_group("first", "second", "third")
    def breaks():
        yield 0.5, 1.0, "a"
        raise CapacityError("term budget exhausted")

    results = breaks()
    assert [r.name for r in results] == ["first", "second", "third"]
    assert [r.passed for r in results] == [True, False, False]
    assert results[0].detail == "a"
    for r in results[1:]:
        assert r.residual == math.inf
        assert r.detail == "CapacityError: term budget exhausted"


def test_group_stops_after_the_last_requested_name():
    ran = []

    @_group("first", "second", "third")
    def three():
        try:
            for label in ("a", "b", "c"):
                ran.append(label)
                yield 0.0, 1.0, label
        finally:
            ran.append("closed")

    results = three(last="second")
    assert [r.name for r in results] == ["first", "second"]
    assert ran == ["a", "b", "closed"]
    assert [r.name for r in three()] == ["first", "second", "third"]


def test_registry_stops_a_group_after_its_last_requested_check(monkeypatch):
    # only the kernel-centre check is asked for, so neither assembled kernel
    # is materialized for the later checks of its group
    ctx = QContext(0.5, grid_horizon=200)
    green._assembled.cache_clear()
    calls = itertools.count()
    real = green._materialize

    def counted(*args, **kwargs):
        next(calls)
        return real(*args, **kwargs)

    monkeypatch.setattr(green, "_materialize", counted)
    [res] = run_registry(ctx, ["kernel_centre"])
    assert next(calls) == 0
    monkeypatch.undo()
    full = {r.name: r for r in verify.check_green_operator(ctx)}
    assert res.name == "kernel_centre_delta"
    assert res.residual == full["kernel_centre_delta"].residual
    assert res.passed


def test_registry_declares_every_check_once():
    names = [name for group in REGISTRY for name in group.names]
    assert len(names) == 47
    assert len(set(names)) == len(names)


def test_registry_skips_groups_without_a_matching_name(monkeypatch):
    def never_run(group):
        def boom(*args, **kwargs):
            raise AssertionError(f"{group.__name__} ran without a matching name")

        boom.names = group.names
        return boom

    monkeypatch.setattr(
        verify,
        "REGISTRY",
        tuple(g if g is verify.check_algebra else never_run(g) for g in REGISTRY),
    )
    results = run_registry(QContext(0.5), ["algebra_qr"])
    assert [r.name for r in results] == ["algebra_qr_identity"]


def test_max_keeps_nan_wherever_it_is():
    assert _max(0.5, 2.0, 1.0) == 2.0
    for vals in ((math.nan, 1.0), (1.0, math.nan), (0.0, 1.0, math.nan)):
        assert math.isnan(_max(*vals))


def _nan_like(x):
    if isinstance(x, DiscElement):
        return x.scaled(math.nan)
    if isinstance(x, GridFunction):
        return GridFunction(x.values * math.nan, x.finite_support)
    if isinstance(x, np.ndarray):
        return x * math.nan
    if isinstance(x, tuple):
        return tuple(_nan_like(v) for v in x)
    if isinstance(x, list):
        return [*x[:-1], _nan_like(x[-1])]
    if dataclasses.is_dataclass(x):
        fields = [f.name for f in dataclasses.fields(x)]
        return dataclasses.replace(x, **{f: math.nan for f in fields if isinstance(getattr(x, f), float)})
    return math.nan


# one term per group: the module and function whose result turns nan, the
# call that turns (a later one where the check folds several terms) and the
# check that must then fail
_NAN_TERMS = [
    (verify.check_algebra, verify, "_shift", 2, "algebra_commutation_shifts"),
    (verify.check_hopf, verify, "act_word", 5, "hopf_defining_relations"),
    (verify.check_casimir, verify, "laplacian_apply", 2, "casimir_equals_laplacian"),
    (verify.check_invariance_elements, verify, "invariance_residual", 1, "unit_invariance"),
    (verify.check_eigenfunctions, spherical, "phi_column", 2, "phi_recurrence_agreement"),
    (verify.check_transform, spherical, "transform_inverse", 2, "transform_roundtrip"),
    (verify.check_spectrum, spherical, "spectrum_probe", 1, "spectrum_inside_segment"),
    (verify.check_green_radial, green, "gm_quadrature_grid", 2, "green_series_vs_quadrature"),
    (verify.check_kernels, green, "kernel_invariance_residual", 2, "kernel_invariance_exact"),
    (verify.check_green_operator, green, "green_solve", 2, "matrix_solve_oracle"),
    (verify.check_limits, green, "classical_limit_report", 1, "dilog_reflection"),
]


def test_nan_terms_cover_every_group():
    assert {entry[0] for entry in _NAN_TERMS} == set(REGISTRY)


@pytest.mark.parametrize(
    "group, module, name, at, check", _NAN_TERMS, ids=[entry[4] for entry in _NAN_TERMS]
)
def test_a_nan_term_fails_its_check(monkeypatch, group, module, name, at, check):
    real = getattr(module, name)
    calls = itertools.count(1)

    def poisoned(*args, **kwargs):
        out = real(*args, **kwargs)
        return _nan_like(out) if next(calls) == at else out

    monkeypatch.setattr(module, name, poisoned)
    (result,) = [r for r in group(QContext(0.5)) if r.name == check]
    assert math.isnan(result.residual)
    assert not result.passed


def test_matrix_solve_oracle_is_sized_from_the_grid():
    # the truncated-matrix oracle reaches past the grid at every horizon, so a
    # horizon of 200 or more gives a result instead of a broadcast error
    [res] = run_registry(QContext(0.5, grid_horizon=200), ["matrix_solve"])
    assert res.name == "matrix_solve_oracle"
    assert res.passed
