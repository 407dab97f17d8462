"""Scalar special-function kernel tests."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from qdisc import (
    DomainError,
    PoleError,
    QContext,
    basic_hypergeometric,
    dilog,
    jackson_integral,
    l_sum,
    qgamma,
    qpochhammer,
)
from qdisc.qspecial import _euler_product
from qdisc.verify import run_registry

Q = 0.5


def brute_pochhammer(a, q, n):
    out = 1.0 + 0.0j
    for k in range(n):
        out *= 1.0 - a * q**k
    return out


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


def test_hypergeometric_at_zero():
    assert basic_hypergeometric([0.3, 0.4], [0.9], Q, 0.0) == 1.0


def test_hypergeometric_terminating_value_is_one():
    # upper parameter 1 kills every term past the zeroth
    val = basic_hypergeometric(
        [1.0, Q ** (1 + 2j), Q ** (1 - 2j)], [Q**2, 0.0], Q**2, Q**2
    )
    assert val == 1.0


def test_hypergeometric_matches_term_accumulation():
    # independent re-summation oracle with explicit Pochhammer products
    upper = [0.3 + 0.1j, -0.2]
    lower = [0.7]
    q, z = 0.4, 0.35 + 0.2j
    total = 0.0 + 0.0j
    for n in range(200):
        num = brute_pochhammer(upper[0], q, n) * brute_pochhammer(upper[1], q, n)
        den = brute_pochhammer(lower[0], q, n) * brute_pochhammer(q, q, n)
        total += num / den * z**n
    assert abs(basic_hypergeometric(upper, lower, q, z) - total) < 1e-14


def test_hypergeometric_balancing_factor():
    # 1Phi1 carries ((-1)^n q^(n(n-1)/2)) per term
    upper, lower = [0.25], [0.6]
    q, z = 0.45, 0.8
    total = 0.0 + 0.0j
    for n in range(300):
        num = brute_pochhammer(upper[0], q, n)
        den = brute_pochhammer(lower[0], q, n) * brute_pochhammer(q, q, n)
        total += num / den * ((-1) ** n * q ** (n * (n - 1) / 2)) * z**n
    assert abs(basic_hypergeometric(upper, lower, q, z) - total) < 1e-13


def test_hypergeometric_converges_near_unit_argument():
    # the tail certificate bounds every later term ratio, so |z| near 1 settles
    upper, lower, q = [0.2, 0.3], [0.5], 0.5
    for z in (0.9, 0.95):
        ref = complex(mpmath.qhyper(upper, lower, q, z))
        assert abs(basic_hypergeometric(upper, lower, q, z) - ref) < 1e-13 * abs(ref)


def test_hypergeometric_lower_pole():
    with pytest.raises(PoleError):
        basic_hypergeometric([0.3], [Q**-2], Q**2, 0.5)


def test_hypergeometric_rejects_non_finite_input():
    # every stopping test is false on NaN, so only an up-front check ends it at once
    with pytest.raises(DomainError, match="z nan is not finite"):
        basic_hypergeometric([0.5], [0.3], 0.5, math.nan)
    with pytest.raises(DomainError, match="upper parameter inf"):
        basic_hypergeometric([math.inf], [0.3], 0.5, 0.2)


def test_hypergeometric_overflowing_terms_raise_domain_error():
    # 1 + s - r < 0: the terms grow like q^(-n^2/2) and overflow near term 50
    with pytest.raises(DomainError, match="basic hypergeometric series 3phi1 diverges"):
        basic_hypergeometric([0.3, 0.4, 0.5], [0.6], 0.5, 0.1)
    # a zero argument ends the same series at its first term
    assert basic_hypergeometric([0.3, 0.4, 0.5], [0.6], 0.5, 0.0) == 1.0


def test_jackson_constant(ctx):
    res = jackson_integral(np.ones(ctx.npoints), ctx, finite_support=False)
    assert abs(res.value - 1.0) <= res.tail_estimate + 1e-14
    assert res.truncated


def test_jackson_indicator(ctx):
    v = np.zeros(ctx.npoints)
    v[1] = 1.0
    res = jackson_integral(v, ctx)
    assert abs(res.value - (1 - ctx.q2) * ctx.q2) < 1e-16
    assert res.tail_estimate == 0.0 and not res.truncated


def test_jackson_linear_weight(ctx):
    # f(y) = y: geometric series gives 1/(1+q^2)
    res = jackson_integral(ctx.ygrid(), ctx, finite_support=False)
    assert abs(res.value - 1.0 / (1.0 + ctx.q2)) < 1e-14


def test_jackson_linearity_and_positivity(ctx, rng):
    a = rng.standard_normal(ctx.npoints)
    b = rng.standard_normal(ctx.npoints)
    lhs = jackson_integral(2.0 * a + 3.0 * b, ctx).value
    rhs = 2.0 * jackson_integral(a, ctx).value + 3.0 * jackson_integral(b, ctx).value
    assert abs(lhs - rhs) < 1e-12
    assert jackson_integral(np.abs(a), ctx).value.real > 0


def test_l_sum_base_cases():
    assert l_sum(0.7, 0, Q) == 0.0
    assert abs(l_sum(0.7, 1, Q) - 1.0 / 0.3) < 1e-15


def test_l_sum_telescoping():
    # L_inf(q^(2k+2)) - q^2 L_inf(q^(2k+4)) = 1/(1 - q^(2k+2))
    for k in range(5):
        lhs = l_sum(Q ** (2 * k + 2), math.inf, Q) - Q**2 * l_sum(
            Q ** (2 * k + 4), math.inf, Q
        )
        assert abs(lhs - 1.0 / (1.0 - Q ** (2 * k + 2))) < 1e-13


def test_l_sum_pole():
    with pytest.raises(PoleError):
        l_sum(1.0, 2, Q)


def test_product_log_derivative():
    # finite difference of (tau; q^2)_inf against -(tau; q^2)_inf L_inf(tau)
    q2 = Q * Q
    for tau in (0.3, 0.55, -0.4):
        eps = 1e-6
        fp = qpochhammer(tau + eps, q2, math.inf)
        fm = qpochhammer(tau - eps, q2, math.inf)
        fd = (fp - fm) / (2 * eps)
        exact = -qpochhammer(tau, q2, math.inf) * l_sum(tau, math.inf, Q)
        assert abs(fd - exact) / abs(exact) < 1e-6


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
