"""Scalar q-special-function kernel.

q-Pochhammer symbols, the q-Gamma function, and a dilogarithm used as a
classical comparison target.

Everything here is a pure function of its arguments in double-precision
complex arithmetic.  The infinite q-Pochhammer product stops at its first
factor within 1e-17 of one, and raises CapacityError if 100000 factors do
not reach it; the dilogarithm series stops at its first term
below 1e-17.  The one product that depends on the base alone,
(q; q)_inf, is cached per base.
"""

from __future__ import annotations

import cmath
import functools
import math

from .errors import CapacityError, DomainError, PoleError


def qpochhammer(a: complex, q: float, n: int | float) -> complex:
    """q-shifted factorial (a; q)_n = prod_{k<n} (1 - a q^k).

    n may be a nonnegative integer or math.inf.  The infinite product
    requires |q| < 1.  It stops at the first k with |a q^k| <= 1e-17 and
    applies no tail correction; if 100000 factors do not reach that k (q
    near 1: q = 0.99999 with a = 1e-6 needs about 2.5 million), it raises
    CapacityError rather than return the truncated product.
    """
    if n is math.inf or n == math.inf:
        if abs(q) >= 1:
            raise DomainError("(a;q)_inf requires |q| < 1")
        prod = 1.0 + 0.0j
        term = complex(a)
        # geometric factor decay: after K steps |a q^K| < tol and the
        # remaining product differs from 1 by less than tol / (1 - q).
        k = 0
        while abs(term) > 1e-17:
            if k == 100_000:
                raise CapacityError(f"(a;q)_inf needs more than 100000 factors at q={q}")
            prod *= 1.0 - term
            term *= q
            k += 1
        return prod
    if int(n) != n or n < 0:
        raise DomainError("n must be a nonnegative integer or infinity")
    prod = 1.0 + 0.0j
    term = complex(a)
    for _ in range(int(n)):
        prod *= 1.0 - term
        term *= q
    return prod


@functools.lru_cache(maxsize=64)
def _euler_product(q: float) -> complex:
    """(q; q)_inf, cached per base: qgamma's numerator, and cubed in the
    dual nome e^(-4 pi^2/h) the constant of spherical.sigma_density."""
    return qpochhammer(q, q, math.inf)


def qgamma(x: complex, q: float) -> complex:
    """q-Gamma function (q; q)_inf / (q^x; q)_inf * (1-q)^(1-x).

    The power (1-q)^(1-x) uses the principal branch.  Poles, where a
    factor 1 - q^(x+n) of (q^x; q)_inf vanishes, that is
    x = -n + 2 pi i k / ln q, raise PoleError.  Only the factor with
    n = round(-Re x) can vanish, so it alone is tested; the product
    itself is tiny near q = 1 far from any pole.
    """
    if not 0 < q < 1:
        raise DomainError("qgamma requires 0 < q < 1")
    x = complex(x)
    n = round(-x.real)
    if n >= 0 and abs(1.0 - cmath.exp((x + n) * math.log(q))) < 1e-12:
        raise PoleError(f"qgamma pole at x={x}")
    denom = qpochhammer(cmath.exp(x * math.log(q)), q, math.inf)
    num = _euler_product(q)
    power = cmath.exp((1.0 - x) * math.log(1.0 - q))
    return num / denom * power


def dilog(t: float) -> float:
    """Euler dilogarithm sum t^m / m^2 for t in [0, 1].

    Uses the defining series on [0, 0.8], to its first term below 1e-17
    (so the reflection identity stays an independent check there), and the
    reflection formula above.
    """
    if t < 0.0 or t > 1.0:
        raise DomainError("dilog implemented on [0, 1] only")
    if t == 1.0:
        return math.pi**2 / 6.0
    if t > 0.8:
        return (
            math.pi**2 / 6.0
            - math.log(t) * math.log(1.0 - t)
            - dilog(1.0 - t)
        )
    total = 0.0
    power = 1.0
    for m in range(1, 100_000):
        power *= t
        term = power / (m * m)
        total += term
        if term < 1e-17:
            break
    return total
