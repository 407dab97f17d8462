"""Deformation-parameter context shared by every module.

All radial objects live on the geometric grid y = q^(2n), n = 0..grid_horizon.
The context bundles q, the log-scale h = ln(1/q^2), the grid horizon and
the series tolerance, and serves the cached grid values everything else uses.
"""

from __future__ import annotations

import functools
import math
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

# Series bounds degrade as q -> 1; enforced range keeps double precision honest.
Q_MIN = 0.05
Q_MAX = 0.995


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only, since every caller shares it."""
    arr.flags.writeable = False
    return arr


class _Covers(OrderedDict):
    """Read-only covers by key in order of use, at most `limit` of them."""

    def __init__(self, limit: int):
        super().__init__()
        self.limit = limit

    def keep(self, key, cover):
        """Store cover under key as the most recently used one, dropping the
        least recently used covers past the limit."""
        self[key] = cover
        self.move_to_end(key)
        while len(self) > self.limit:
            self.popitem(last=False)
        return cover


def _max(*values: float) -> float:
    """Largest value, or nan if any is nan.  The builtin max keeps a nan
    only in first place, so a nan folded in later would be dropped and a
    residual or sup norm built on it could pass."""
    return math.nan if any(map(math.isnan, values)) else float(max(values))


def _fold_max(values, start=0.0):
    """Member-wise largest of start and values, each a float or an array of
    one value per member of a batch; nan wherever any of them is nan
    (np.maximum, never fmax, so no member's nan is dropped)."""
    return functools.reduce(np.maximum, values, start)


# keyed on q^2 and the length, not the context, so contexts that differ only
# in horizon or tolerance share one table
@functools.lru_cache(maxsize=512)
def _ygrid(q2: float, npoints: int) -> np.ndarray:
    return _frozen(np.power(q2, np.arange(npoints, dtype=float)))


@dataclass(frozen=True)
class QContext:
    """Deformation parameter q plus shared truncation settings.

    Attributes:
        q: deformation parameter, strictly inside (0, 1); validated to
           [0.05, 0.995].
        series_tol: absolute tail bound at which truncated series stop,
           including the kernel coefficient series, whose term count is
           fixed a priori from that bound with no cap.  The radial Green
           functions do not read it: their cut is relative, fixed by h.
        grid_horizon: largest grid index N_max; grid points are q^(2n),
           n = 0..N_max.
    """

    q: float
    series_tol: float = 1e-14
    grid_horizon: int = 64
    h: float = field(init=False)

    def __post_init__(self):
        if not (Q_MIN <= self.q <= Q_MAX):
            raise DomainError(
                f"q={self.q} outside the supported range [{Q_MIN}, {Q_MAX}]"
            )
        if self.series_tol <= 0:
            raise DomainError("series_tol must be positive")
        if self.grid_horizon < 0:
            raise DomainError("grid_horizon must be nonnegative")
        object.__setattr__(self, "h", -2.0 * math.log(self.q))

    @property
    def q2(self) -> float:
        return self.q * self.q

    @property
    def npoints(self) -> int:
        """Number of stored grid points (grid_horizon + 1)."""
        return self.grid_horizon + 1

    def ygrid(self, npoints: int | None = None) -> np.ndarray:
        """Grid values q^(2n) for n = 0..npoints-1 (q^0 is exactly 1.0);
        cached per (q^2, npoints) and read-only."""
        if npoints is None:
            npoints = self.npoints
        return _ygrid(self.q2, npoints)

    def rho_period(self) -> float:
        """Period 2*pi/h of the spectral parameter."""
        return 2.0 * math.pi / self.h
