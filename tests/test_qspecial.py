"""Scalar special-function kernel tests."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from qdisc import (
    CapacityError,
    DomainError,
    PoleError,
    QContext,
    dilog,
    qgamma,
    qpochhammer,
)
from qdisc.qspecial import _euler_product
from qdisc.verify import run_registry

Q = 0.5


def test_pochhammer_empty_product():
    assert qpochhammer(0.3 + 0.2j, Q, 0) == 1.0


def test_pochhammer_terminating_zero():
    # the k=1 factor of (q^-2; q^2)_k is exactly zero
    for k in range(2, 6):
        assert qpochhammer(Q**-2, Q**2, k) == 0.0


def test_pochhammer_infinite_vs_brute_force():
    # partial products with an interval tail bound: after K factors the
    # remaining product differs from 1 by less than sum_{j>=K} a q^j
    a, q = Q**2, Q**2
    partial = 1.0
    k = 0
    while a * q**k > 1e-18:
        partial *= 1 - a * q**k
        k += 1
    assert abs(qpochhammer(a, q, math.inf) - partial) < 1e-14


def test_pochhammer_recurrence():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = complex(*rng.uniform(-1, 1, 2))
        n = int(rng.integers(0, 12))
        lhs = qpochhammer(a, Q, n + 1)
        rhs = qpochhammer(a, Q, n) * (1 - a * Q**n)
        assert abs(lhs - rhs) < 1e-13


def test_pochhammer_infinite_requires_contraction():
    with pytest.raises(DomainError):
        qpochhammer(0.5, 1.1, math.inf)


def test_pochhammer_infinite_raises_past_its_factor_budget():
    # |a q^k| reaches 1e-17 only after about 2.5 million factors; the
    # 100000-factor partial product reads 0.9387 against the full 0.9048
    with pytest.raises(CapacityError):
        qpochhammer(1e-6, 0.99999, math.inf)
    # qgamma's largest base, q^2 at q = 0.995, stays well inside the budget
    q2 = 0.995**2
    with mpmath.workdps(30):
        ref = complex(mpmath.qp(q2, q2))
    assert abs(qpochhammer(q2, q2, math.inf) - ref) < 1e-12 * abs(ref)


def test_qgamma_at_one():
    assert abs(qgamma(1.0, Q) - 1.0) < 1e-15


def test_qgamma_functional_equation():
    # Gamma_q(x+1)/Gamma_q(x) = (1-q^x)/(1-q), from the defining quotient
    for x in (0.3 + 0.2j, 1.7, 2.5 - 0.4j, 0.5 + 1.1j):
        lhs = qgamma(x + 1, Q) / qgamma(x, Q)
        rhs = (1 - Q**x) / (1 - Q)
        assert abs(lhs - rhs) < 1e-12


def test_qgamma_keeps_its_uncached_bits():
    # (q; q)_inf is cached per base; qgamma's values stay those of the
    # product taken afresh on every call
    for q in (0.05, 0.25, 0.72, 0.98**2):
        assert _euler_product(q) == qpochhammer(q, q, math.inf)
        for x in (0.3 + 0j, 2.5 - 0.4j, -1.5 + 0.7j):
            fresh = (
                qpochhammer(q, q, math.inf)
                / qpochhammer(cmath.exp(x * math.log(q)), q, math.inf)
                * cmath.exp((1.0 - x) * math.log(1.0 - q))
            )
            assert qgamma(x, q) == fresh


def test_qgamma_pole():
    with pytest.raises(PoleError):
        qgamma(0.0, Q)
    with pytest.raises(PoleError):
        qgamma(-2.0, Q)


def test_qgamma_poles_near_base_one():
    # the poles x = -n + 2 pi i k / ln(base) raise at every base; near base
    # 1 the product (q^x; q)_inf is tiny everywhere, and that alone is no pole
    for base in (0.25, 0.98**2, 0.995**2):
        for n in (0, 1, 3):
            for k in (0, 1, -2):
                with pytest.raises(PoleError):
                    qgamma(-n + 2j * math.pi * k / math.log(base), base)
    x = 0.5 + 4.665106419967962j
    with mpmath.workdps(30):
        ref = complex(mpmath.qgamma(x, 0.98**2))
    assert abs(qgamma(x, 0.98**2) - ref) <= 1e-10 * abs(ref)
    # the connection check at q = 0.98 evaluates there and gives a result
    [result] = run_registry(QContext(0.98), ["connection"])
    assert result.name == "connection_formula"


def test_qgamma_diverges_toward_zero_argument():
    # |Gamma_{q^2}(2 i rho)| grows without bound as rho -> 0
    big = abs(qgamma(2e-4j, Q * Q))
    bigger = abs(qgamma(1e-4j, Q * Q))
    assert bigger > big > 1e2


def test_qgamma_functional_equation_grid():
    # dense sampling of regular points for the q^2 base
    q2 = Q * Q
    worst = 0.0
    for re in np.linspace(0.2, 3.0, 8):
        for im in np.linspace(-2.0, 2.0, 5):
            x = complex(re, im)
            lhs = qgamma(x + 1, q2) / qgamma(x, q2)
            rhs = (1 - q2**x) / (1 - q2)
            worst = max(worst, abs(lhs - rhs))
    assert worst < 1e-12


def test_dilog_against_mpmath_polylog():
    for t in np.linspace(0.01, 0.99, 23):
        assert abs(dilog(float(t)) - float(mpmath.polylog(2, float(t)))) < 5e-15


def test_dilog_reflection_identity():
    for t in (0.25, 0.5, 0.75):
        resid = dilog(t) + dilog(1 - t) - (math.pi**2 / 6 - math.log(t) * math.log(1 - t))
        assert abs(resid) < 1e-12
