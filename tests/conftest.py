import numpy as np
import pytest

from qdisc import DiscElement, GridFunction, QContext


@pytest.fixture(scope="session")
def ctx():
    return QContext(0.5, grid_horizon=32)


@pytest.fixture(scope="session")
def ctx_wide():
    return QContext(0.5, grid_horizon=64)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_sectors(ctx, rng, sectors, support):
    """Finite element on the given sectors, random values on rows 0..support."""
    out = {}
    for m in sectors:
        v = np.zeros(ctx.npoints, dtype=complex)
        v[: support + 1] = rng.standard_normal(support + 1) + 1j * rng.standard_normal(
            support + 1
        )
        out[int(m)] = GridFunction(v)
    return DiscElement(out, ctx)


def random_element(ctx, rng, sectors=3, support=10):
    return random_sectors(ctx, rng, range(-sectors, sectors + 1), support)
