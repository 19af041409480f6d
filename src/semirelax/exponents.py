"""Scaling-exponent and Strichartz-admissibility bookkeeping.

Everything here is exact arithmetic on rationals wherever the inputs are
rational; floats are accepted and converted through Fraction, so equalities
like the critical-power inverse relation hold without tolerance.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

__all__ = [
    "Rational",
    "scaling_critical_exponent",
    "critical_power",
    "embedding_exponent_check",
]

Rational = Union[int, float, Fraction]


def _frac(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if math.isinf(x):
        raise ValueError("expected a finite value")
    return Fraction(x).limit_denominator(10**12)


def _inv(x: Rational) -> Fraction:
    """1/x as a Fraction, with 1/inf = 0."""
    if isinstance(x, float) and math.isinf(x):
        return Fraction(0)
    return 1 / _frac(x)


def scaling_critical_exponent(n: int, p: Rational) -> Fraction:
    """The Sobolev index n/2 - 1/(p-1) at which rescaling u(x) ->
    sigma^(1/(p-1)) u(sigma x) leaves the homogeneous norm invariant."""
    p = _frac(p)
    if p <= 1:
        raise ValueError(f"nonlinearity power must exceed 1, got {p}")
    return Fraction(n, 2) - 1 / (p - 1)


def critical_power(n: int, s: Rational) -> Fraction:
    """The power 1 + 2/(n - 2s) whose critical index is s; requires s < n/2."""
    s = _frac(s)
    if 2 * s >= n:
        raise ValueError(f"critical power requires s < n/2, got s={s}, n={n}")
    return 1 + Fraction(2, 1) / (n - 2 * s)


def _admissible_r(n: int, q: Rational):
    """The r with (q, r) admissible for the half-wave propagator in dimension
    n, 1/r = 1/2 - (2/(n-1)) (1/q) with r < inf for n = 3 and only (inf, 2)
    for n = 1: math.inf for the endpoint 1/r = 0, None when no r is."""
    inv_q = _inv(q)
    if inv_q < 0:
        return None
    if n == 1:
        return 2 if inv_q == 0 else None
    inv_r = Fraction(1, 2) - Fraction(2, n - 1) * inv_q
    if not 0 <= inv_r <= Fraction(1, 2) or (n == 3 and inv_r == 0):
        return None
    return math.inf if inv_r == 0 else 1 / inv_r


def embedding_exponent_check(s: Rational, r: Rational) -> bool:
    """Whether s - (3/2)(1/2 - 1/r) - 2/r > 0, the 2-d condition for the
    dyadic-block space to land in L^inf.  Equivalent to s > 3/4 + 1/(2r);
    the threshold itself fails (strict inequality)."""
    inv_r = _inv(r)
    if inv_r >= Fraction(1, 2):
        raise ValueError(f"embedding check requires r > 2, got r={r}")
    s = _frac(s)
    return s - Fraction(3, 2) * (Fraction(1, 2) - inv_r) - 2 * inv_r > 0
