"""Check registry: group declaration, timing records and name filtering."""

import math

import pytest

from qdisc import CapacityError, QContext
from qdisc import verify
from qdisc.verify import REGISTRY, _group, run_registry


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


def test_registry_declares_every_check_once():
    names = [name for group in REGISTRY for name in group.names]
    assert len(names) == 46
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
