import numpy as np
import pytest

from semirelax import Field, make_grid


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def grid_1d():
    return make_grid(1, 256, 40.0)


@pytest.fixture
def grid_2d():
    return make_grid(2, 32, 10.0)


@pytest.fixture
def grid_3d():
    return make_grid(3, 16, 10.0)


def random_field(grid, rng, spectral_decay=True):
    """A random complex field; optionally smoothed so norms of high order
    stay well conditioned."""
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    f = Field(grid, vals, "physical")
    if spectral_decay:
        from semirelax import apply_multiplier

        f = apply_multiplier(
            f, lambda xi: np.exp(-0.5 * sum(np.asarray(k) ** 2 for k in xi)),
            representation="physical",
        )
    return f


def constant_field(grid, value=1.0):
    """The field equal to value at every sample."""
    return Field(grid, np.full(grid.shape, value, dtype=np.complex128), "physical")


def mirror(v, ax):
    """v[(N - j) % N] along axis ax: the reflection x -> -x on the grid."""
    return np.roll(np.flip(v, ax), 1, ax)


def symmetrized(f):
    """f averaged with its mirror image one axis at a time, so the result
    equals its mirror image on every axis exactly."""
    v = f.values
    for ax in range(v.ndim):
        v = (v + mirror(v, ax)) / 2
    return Field(f.grid, v)
