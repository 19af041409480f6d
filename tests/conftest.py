import math

import numpy as np
import pytest

from semirelax import Field, make_grid, to_physical
from semirelax.fields import _basis


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


def stored_row_bytes(f):
    """The bytes of one snapshot of f as evolve stores it, the unit of its
    block budget: the (N/2+1)^n octant of mirror-symmetric data with
    n >= 2, else the full grid."""
    return _basis(to_physical(f).values, f.grid.n).samples.nbytes


def reference_passed(check, sc, entry) -> bool:
    """The verdict of each check as its own evaluator once computed it, in
    one of four ways, read from the JSON entry a run wrote for the check
    (where an infinite value reads "inf").  The check table now judges every
    check by one rule, value <= bound; this is the reference it must match."""
    from semirelax.checks import DUHAMEL_TOL, MAXIMAL_TOL, SCALING_TOL

    def num(key):
        return float(entry[key])

    if check in ("prop11", "prop12", "prop13", "prop14"):  # finite and mass-monotone
        if sc.solver == "radial-wave":  # the last profile was finite
            return math.isfinite(num("final_l2"))
        first, last = num("initial_l2"), num("final_l2")
        return math.isfinite(first) and math.isfinite(last) and last <= first * (1 + 1e-10)
    if check in ("prop21", "prop22", "lemma35"):  # below the payload's tolerance
        return num("relative_linf" if check == "lemma35" else "relative") < num("tolerance")
    if check == "duhamel":  # below a dt-scaled tolerance
        return num("relative") < DUHAMEL_TOL * (sc.dt / 1.0e-3) ** 2
    if check == "scaling":  # below a fixed tolerance
        return all(num(f"relative_sigma_{sigma}") < SCALING_TOL for sigma in (0.5, 2.0))
    if check == "lemma36":
        return num("worst_gap") <= MAXIMAL_TOL
    if check == "prop24":  # a slack, allowed roundoff below zero
        return float(entry["notes"]["slack"]) >= -1e-12 * max(num("rhs"), 1.0)
    if check in ("lemma33", "lemma34"):  # finite only
        return math.isfinite(num("ratio"))
    finite = math.isfinite(num("empirical_constant"))  # prop23, cor37, cor39
    return finite and "out_of_space" not in entry.get("notes", {})
