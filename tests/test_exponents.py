import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semirelax import (
    critical_power,
    embedding_exponent_check,
    scaling_critical_exponent,
)
from semirelax.exponents import _admissible_r


def admissible(n, q, r) -> bool:
    """Whether (q, r) is admissible in dimension n: r is the one that
    _admissible_r gives for q (check-exponents' verdict)."""
    return _admissible_r(n, q) == r


def scaling_rate(n, p, s):
    """Exponent e with ||u_sigma||_{Hdot^s} = sigma^e ||u||_{Hdot^s} under
    u_sigma(x) = sigma^(1/(p-1)) u(sigma x): e = 1/(p-1) + s - n/2, the
    reference for scaling_critical_exponent."""
    p, s = Fraction(p), Fraction(s)
    return 1 / (p - 1) + s - Fraction(n, 2)


class TestScalingExponents:
    def test_cubic_3d_is_h1_critical(self):
        assert scaling_critical_exponent(3, 3) == 1

    def test_2d_cubic(self):
        assert scaling_critical_exponent(2, 3) == Fraction(1, 2)

    def test_large_p_limit_approaches_half_dimension(self):
        for n in (1, 2, 3):
            prev = -math.inf
            for p in (2, 10, 100, 10**6):
                s = scaling_critical_exponent(n, p)
                assert prev < s < Fraction(n, 2)
                prev = s

    def test_rejects_p_at_most_one(self):
        with pytest.raises(ValueError):
            scaling_critical_exponent(2, 1)

    @given(
        n=st.integers(1, 3),
        s=st.fractions(
            min_value=Fraction(-2), max_value=Fraction(2), max_denominator=50
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_inverse_relation_is_exact(self, n, s):
        # p(n, s) = 1 + 2/(n - 2s) inverts the critical-index map exactly
        if 2 * s >= n:
            return
        p = critical_power(n, s)
        assert scaling_critical_exponent(n, p) == s

    def test_scaling_rate_vanishes_at_critical_index(self):
        for n, p in ((1, 3), (2, 3), (3, 3), (2, Fraction(7, 3))):
            s = scaling_critical_exponent(n, p)
            assert scaling_rate(n, p, s) == 0

    def test_scaling_rate_value(self):
        assert scaling_rate(1, 3, 1) == 1


class TestAdmissibility:
    def test_one_dimensional_endpoint_only(self):
        assert admissible(1, math.inf, 2)
        assert not admissible(1, 4, 4)
        assert not admissible(1, 8, 2)

    def test_two_dimensional_family(self):
        # sigma = 1: 1/r = 1/2 - 2/q
        assert admissible(2, 4, math.inf)
        assert admissible(2, 8, 4)
        assert admissible(2, math.inf, 2)
        assert not admissible(2, 4, 6)

    def test_three_dimensional_excludes_r_infinity(self):
        # sigma = 2: 1/r = 1/2 - 1/q; q = 2 would give r = inf
        assert admissible(3, 4, 4)
        assert admissible(3, math.inf, 2)
        assert not admissible(3, 2, math.inf)


def reference_is_admissible(n, q, r) -> bool:
    """The admissibility relation checked term by term, independent of
    _admissible_r."""
    inv = lambda x: Fraction(0) if x == math.inf else 1 / Fraction(x)
    inv_q, inv_r = inv(q), inv(r)
    if inv_q < 0 or inv_r < 0:
        return False
    if n == 1:
        return inv_q == 0 and inv_r == Fraction(1, 2)
    if inv_r != Fraction(1, 2) - Fraction(2, n - 1) * inv_q:
        return False
    return inv_r <= Fraction(1, 2) and not (n == 3 and inv_r == 0)


VALUES = [math.inf, 1, 2, 3, 4, 6, 8, Fraction(8, 3), Fraction(10, 3), -4, 2.5, 4.0]


class TestAdmissibleR:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_the_relation_term_by_term(self, n):
        for q in VALUES:
            for r in VALUES:
                expected = reference_is_admissible(n, q, r)
                assert admissible(n, q, r) == expected, (q, r)


class TestEmbeddingCheck:
    def test_known_values(self):
        assert embedding_exponent_check(1, 4) is True  # 7/8 < 1
        assert embedding_exponent_check(Fraction(7, 8), 4) is False  # boundary
        assert embedding_exponent_check(Fraction(3, 4), math.inf) is False

    def test_rejects_r_at_most_two(self):
        with pytest.raises(ValueError):
            embedding_exponent_check(1, 2)

    @given(
        s=st.fractions(min_value=0, max_value=2, max_denominator=40),
        r=st.fractions(
            min_value=Fraction(21, 10), max_value=Fraction(50), max_denominator=40
        ),
    )
    @settings(max_examples=80, deadline=None)
    def test_equivalent_threshold_forms(self, s, r):
        # s - (3/2)(1/2 - 1/r) - 2/r > 0  <=>  s > 3/4 + 1/(2r)
        direct = embedding_exponent_check(s, r)
        threshold = s > Fraction(3, 4) + Fraction(1, 2) / r
        assert direct == threshold
