import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from semirelax import (
    Field,
    LittlewoodPaleyPartition,
    SobolevSpec,
    besov_norm,
    gaussian_field,
    l2_norm,
    lp_norm,
    make_grid,
    mode_field,
    sobolev_norm,
    space_time_norm,
    weight_bracket,
    weighted_norm,
)
from semirelax.radial import profile_from_function
from conftest import constant_field, random_field


class TestLpNorms:
    def test_unit_indicator(self):
        g = make_grid(1, 16, 1.0)
        for p in (1.0, 2.0, 3.5, math.inf):
            assert lp_norm(constant_field(g, 1.0), p) == pytest.approx(1.0)

    def test_zero_field(self, grid_1d):
        assert lp_norm(constant_field(grid_1d, 0.0), 4.0) == 0.0

    def test_rejects_p_below_one(self, grid_1d):
        with pytest.raises(ValueError):
            lp_norm(constant_field(grid_1d), 0.5)

    def test_gaussian_l4_quadrature_oracle(self):
        # oracle: int exp(-4 x^2) dx by quadrature, then the fourth root
        g = make_grid(1, 256, 40.0)
        val, _ = scipy.integrate.quad(lambda x: np.exp(-4.0 * x**2), -np.inf, np.inf)
        assert lp_norm(gaussian_field(g), 4.0) == pytest.approx(val**0.25, rel=1e-8)


class TestSobolevNorms:
    def test_zero_field(self, grid_2d):
        assert sobolev_norm(constant_field(grid_2d, 0.0), SobolevSpec(1.5)) == 0.0

    def test_single_mode_homogeneous(self):
        g = make_grid(1, 32, 2 * np.pi)
        f = mode_field(g, 2, amplitude=1.0 / np.sqrt(2 * np.pi))
        h1 = sobolev_norm(f, SobolevSpec(1.0, homogeneous=True))
        assert h1 == pytest.approx(2.0 * l2_norm(f), rel=1e-12)

    def test_gaussian_h1_quadrature_oracle(self):
        g = make_grid(1, 256, 40.0)
        integrand = lambda xi: (1 + xi**2) * np.pi * np.exp(-(xi**2) / 2.0)
        val, _ = scipy.integrate.quad(integrand, -np.inf, np.inf)
        expected = np.sqrt(val / (2 * np.pi))
        assert sobolev_norm(gaussian_field(g), SobolevSpec(1.0)) == pytest.approx(
            expected, rel=1e-6
        )

    def test_s0_inhomogeneous_equals_l2(self, grid_2d, rng):
        f = random_field(grid_2d, rng)
        assert sobolev_norm(f, SobolevSpec(0.0)) == pytest.approx(
            lp_norm(f, 2.0), rel=1e-12
        )

    @given(s1=st.floats(-1.0, 2.0), s2=st.floats(-1.0, 2.0))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_s(self, s1, s2):
        g = make_grid(1, 32, 8.0)
        f = random_field(g, np.random.default_rng(7))
        lo, hi = min(s1, s2), max(s1, s2)
        assert sobolev_norm(f, SobolevSpec(lo)) <= sobolev_norm(
            f, SobolevSpec(hi)
        ) * (1 + 1e-12)

    def test_negative_homogeneous_rejects_mean(self, grid_1d):
        with pytest.raises(ValueError, match="mean-free"):
            sobolev_norm(constant_field(grid_1d, 1.0), SobolevSpec(-0.5, True))


class TestBesov:
    def test_partition_of_unity(self, grid_1d):
        part = LittlewoodPaleyPartition(grid_1d)
        assert part.partition_residual() < 1e-12

    def test_partition_cached_per_grid_off_the_public_api(self, grid_1d):
        from semirelax import norms
        from semirelax.norms import dyadic_partition

        assert "dyadic_partition" not in norms.__all__
        assert dyadic_partition(grid_1d) is dyadic_partition(make_grid(1, 256, 40.0))

    def test_zero_field(self, grid_1d):
        assert besov_norm(constant_field(grid_1d, 0.0), 1.0, 2.0) == 0.0

    def test_single_shell_collapses(self):
        # one grid mode lies in exactly one dyadic shell; the norm reduces
        # to 2^(js) ||f||_{L^r}
        g = make_grid(1, 64, 2 * np.pi)
        f = mode_field(g, 5)  # |xi| = 5 lies in shell j = 2 (3..6)
        part = LittlewoodPaleyPartition(g)
        idx = np.argmin(np.abs(g.wavenumbers - 5.0))
        j = int(part.block_index[idx])
        assert j == 2
        for s, r in ((0.0, 2.0), (1.3, 2.0), (0.7, 4.0)):
            assert besov_norm(f, s, r) == pytest.approx(
                2.0 ** (j * s) * lp_norm(f, r), rel=1e-12
            )

    def test_s0_r2_equals_l2(self, grid_1d, rng):
        f = random_field(grid_1d, rng)
        assert besov_norm(f, 0.0, 2.0) == pytest.approx(lp_norm(f, 2.0), rel=1e-12)

    def test_frame_equivalence_with_sobolev(self, grid_1d, rng):
        # the frame constants come from the implemented partition itself
        part = LittlewoodPaleyPartition(grid_1d)
        s = 0.8
        c, C = part.frame_bounds(s)
        assert 0 < c <= C < math.inf
        for seed in range(3):
            f = random_field(grid_1d, np.random.default_rng(seed))
            b = besov_norm(f, s, 2.0)
            h = sobolev_norm(f, SobolevSpec(s))
            assert c * h * (1 - 1e-12) <= b <= C * h * (1 + 1e-12)

    def test_rejects_r_below_one(self, grid_1d):
        with pytest.raises(ValueError):
            besov_norm(constant_field(grid_1d), 1.0, 0.5)


class TestSpaceTimeNorm:
    def test_single_snapshot_inf(self, grid_1d):
        f = gaussian_field(grid_1d)
        val = space_time_norm(([0.0], [f]), math.inf, lambda u: lp_norm(u, 2.0))
        assert val == pytest.approx(l2_norm(f))

    def test_zero_trajectory(self, grid_1d):
        zero = constant_field(grid_1d, 0.0)
        times = [0.0, 0.5, 1.0]
        assert space_time_norm((times, [zero] * 3), 2.0, l2_norm) == 0.0

    def test_exponential_decay_closed_form(self, grid_1d):
        # u(t) = exp(-t) g: integral of exp(-2t) over [0, 1]
        g = gaussian_field(grid_1d)
        times = np.linspace(0.0, 1.0, 2001)
        snaps = [Field(grid_1d, np.exp(-t) * g.values, "physical") for t in times]
        val = space_time_norm((times, snaps), 2.0, l2_norm)
        expected = l2_norm(g) * np.sqrt((1 - np.exp(-2.0)) / 2.0)
        assert val == pytest.approx(expected, rel=1e-6)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            space_time_norm(([], []), 2.0, l2_norm)


class TestWeightedNorm:
    def test_bracket_value_at_one(self):
        for delta in (0.1, 0.5, 1.0, 2.0):
            assert weight_bracket(np.array([1.0]), delta)[0] == pytest.approx(2.0)

    def test_zero_field(self, grid_3d):
        assert weighted_norm(constant_field(grid_3d, 0.0), 0.5, 2.0, -1) == 0.0

    def test_radial_shell_quadrature_oracle(self):
        # f = 1 on 1 <= r <= 2: oracle integral of 4 pi r^2 / (r^0.5 + r^1.5)
        M, R = 4096, 4.0
        prof = profile_from_function(
            lambda r: ((r >= 1.0) & (r <= 2.0)).astype(float), R=R, M=M
        )
        val, _ = scipy.integrate.quad(
            lambda r: 4 * np.pi * r**2 / (r**0.5 + r**1.5), 1.0, 2.0
        )
        got = weighted_norm(prof, 0.5, 2.0, -1)
        assert got == pytest.approx(np.sqrt(val), rel=1e-5)

    def test_origin_sample_dropped_for_singular_sign(self, grid_1d):
        f = constant_field(grid_1d, 1.0)
        val = weighted_norm(f, 0.5, 2.0, -1)
        assert math.isfinite(val) and val > 0

    def test_parameter_validation(self, grid_1d):
        f = constant_field(grid_1d)
        with pytest.raises(ValueError):
            weighted_norm(f, -0.5, 2.0, -1)
        with pytest.raises(ValueError):
            weighted_norm(f, 0.5, 0.5, -1)
        with pytest.raises(ValueError):
            weighted_norm(f, 0.5, 2.0, 0)
