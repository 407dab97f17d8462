"""Scalar q-special-function kernel.

q-Pochhammer symbols, the q-Gamma function, basic hypergeometric series,
the Jackson integral on [0, 1], the logarithmic-derivative sums L_k, and a
dilogarithm used as a classical comparison target.

Everything here is a pure function of its arguments in double-precision
complex arithmetic.  Infinite products and series stop once a geometric
tail bound falls below the requested tolerance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

from .context import QContext
from .errors import DomainError, PoleError

_ZERO_CUTOFF = 1e-15  # |1 - a q^k| below this counts as a terminating zero


def qpochhammer(a: complex, q: float, n: int | float) -> complex:
    """q-shifted factorial (a; q)_n = prod_{k<n} (1 - a q^k).

    n may be a nonnegative integer or math.inf.  The infinite product
    requires |q| < 1 and is truncated once |a| q^k drops below 1e-14 with
    a tail correction of the same order.
    """
    if n is math.inf or n == math.inf:
        if abs(q) >= 1:
            raise DomainError("(a;q)_inf requires |q| < 1")
        prod = 1.0 + 0.0j
        term = complex(a)
        # geometric factor decay: after K steps |a q^K| < tol and the
        # remaining product differs from 1 by less than tol / (1 - q).
        k = 0
        while abs(term) > 1e-17 and k < 100_000:
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
    num = qpochhammer(q, q, math.inf)
    power = cmath.exp((1.0 - x) * math.log(1.0 - q))
    return num / denom * power


def basic_hypergeometric(
    upper: Sequence[complex],
    lower: Sequence[complex],
    q: float,
    z: complex,
    series_tol: float = 1e-14,
    max_terms: int = 100_000,
) -> complex:
    """Basic hypergeometric series rPhis(upper; lower; q; z).

    Each term carries the standard balancing factor
    ((-1)^n q^(n(n-1)/2))^(1 + s - r).  The series terminates when some
    upper-parameter factor hits an exact zero; otherwise it is summed
    until the absolute tail bound falls below series_tol.
    """
    if not 0 < abs(q) < 1:
        raise DomainError("basic_hypergeometric requires 0 < |q| < 1")
    r, s = len(upper), len(lower)
    balance = 1 + s - r
    total = 1.0 + 0.0j
    term = 1.0 + 0.0j
    qn = 1.0 + 0.0j  # q^n
    qpow = 1.0 + 0.0j  # running q^(n+1) for the (q;q)_{n+1} factor
    for n in range(max_terms):
        # ratio from term n to term n+1
        num = 1.0 + 0.0j
        terminated = False
        for a in upper:
            f = 1.0 - a * qn
            if abs(f) <= _ZERO_CUTOFF * (1.0 + abs(a * qn)):
                terminated = True
                break
            num *= f
        if terminated:
            return total
        den = 1.0 + 0.0j
        for b in lower:
            f = 1.0 - b * qn
            if abs(f) <= _ZERO_CUTOFF * (1.0 + abs(b * qn)):
                raise PoleError(
                    f"lower parameter {b} hits a pole at term {n + 1}"
                )
            den *= f
        qpow *= q
        den *= 1.0 - qpow  # (q; q) factor
        term *= z * num / den
        if balance:
            term *= (-qn) ** balance
        total += term
        qn *= q
        # geometric tail certificate: once terms shrink steadily and the
        # next-step ratio is below 1, the remaining sum is bounded by
        # |term| * ratio / (1 - ratio).
        ratio = abs(z) * abs(qn) ** max(balance, 0)
        if n > 4 and ratio < 0.9 and abs(term) * ratio / (1 - ratio) < series_tol:
            return total
        if n > 50 and abs(term) > 1e6 * (1.0 + abs(total)):
            raise DomainError("basic hypergeometric series diverges")
    raise DomainError("basic hypergeometric series did not converge")


@dataclass
class JacksonResult:
    """Value of a Jackson integral plus truncation metadata."""

    value: complex
    tail_bound: float
    truncated: bool

    def __complex__(self) -> complex:
        return complex(self.value)


def jackson_integral(values, ctx: QContext, finite_support: bool = True) -> JacksonResult:
    """Jackson q^2-integral over [0, 1]: (1-q^2) * sum f(q^(2m)) q^(2m).

    `values` is a grid function (or raw array of grid values up to the
    horizon).  For finite-support functions the result is exact;
    otherwise a geometric tail estimate based on the last stored value is
    reported and the result is flagged as truncated.
    """
    import numpy as np

    if hasattr(values, "finite_support"):
        finite_support = values.finite_support
        values = values.values
    vals = np.asarray(values, dtype=complex)
    n = len(vals)
    yg = ctx.ygrid(n)
    total = (1.0 - ctx.q2) * complex(np.sum(vals * yg))
    if finite_support:
        return JacksonResult(total, 0.0, False)
    last = abs(vals[-1]) if n else 0.0
    # bound the tail by a constant continuation of the last value
    tail = last * ctx.q2 ** n / (1.0 - ctx.q2) * (1.0 - ctx.q2)
    return JacksonResult(total, float(tail), True)


def l_sum(xi: complex, k: int | float, q: float, series_tol: float = 1e-14) -> complex:
    """Logarithmic-derivative sum sum_{j<k} q^(2j) / (1 - q^(2j) xi).

    k may be a nonnegative integer or math.inf; the infinite sum stops on
    a geometric tail bound.  A vanishing denominator raises PoleError.
    """
    if not 0 < q < 1:
        raise DomainError("l_sum requires 0 < q < 1")
    q2 = q * q
    total = 0.0 + 0.0j
    w = 1.0 + 0.0j  # q^(2j)
    infinite = k is math.inf or k == math.inf
    if not infinite and (int(k) != k or k < 0):
        raise DomainError("k must be a nonnegative integer or infinity")
    limit = 100_000 if infinite else int(k)
    for j in range(limit):
        den = 1.0 - w * xi
        if abs(den) < 1e-13 * (1.0 + abs(w * xi)):
            raise PoleError(f"l_sum denominator vanishes at j={j}")
        total += w / den
        w *= q2
        if infinite and abs(w) / (1.0 - q2) < series_tol:
            break
    return total


def dilog(t: float, series_tol: float = 1e-17) -> float:
    """Euler dilogarithm sum t^m / m^2 for t in [0, 1].

    Uses the defining series on [0, 0.8] (so the reflection identity stays
    an independent check there) and the reflection formula above.
    """
    if t < 0.0 or t > 1.0:
        raise DomainError("dilog implemented on [0, 1] only")
    if t == 1.0:
        return math.pi**2 / 6.0
    if t > 0.8:
        return (
            math.pi**2 / 6.0
            - math.log(t) * math.log(1.0 - t)
            - dilog(1.0 - t, series_tol)
        )
    total = 0.0
    power = 1.0
    for m in range(1, 100_000):
        power *= t
        term = power / (m * m)
        total += term
        if term < series_tol:
            break
    return total
