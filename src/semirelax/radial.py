"""3D-radial wave reformulation: the averaging kernel J, its time
derivative, the half-wave operator on radial profiles, the wave-form source
term, Volterra time marching, and maximal-function machinery.

A radial function u(x) on R^3 is represented by its profile u~(r) sampled
at staggered nodes r_k = (k + 1/2) R / M, which keeps every 1/r and 1/(2r)
factor away from the origin.  The kernel

    J[f](t, r) = (1/2r) * int_{|r-t|}^{r+t} lambda f~(lambda) d lambda

is evaluated by JEvaluator from a cubic spline of f~ and the antiderivative
of the spline of lambda f~, both zero beyond the last node; polynomials of
degree <= 3 are integrated exactly, so J[1](t, r) = t to machine precision
wherever the window stays inside the sampled range.  The splines are
_Spline, an in-package not-a-knot spline that agrees bit for bit with
scipy's CubicSpline, so no run loads scipy.interpolate.

D and the Volterra march use the type-II sine series of v = r u~, where by
Kirchhoff's formula r J[f](t) = sin(t xi)/xi v and r dJ/dt[f](t) = cos(t xi) v.

Every estimate check in the package returns the JSON payload that _estimate
builds here, next to the REGULARIZATION_EPS that its relative mismatch uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

from .propagator import StepperConfig

__all__ = [
    "RadialProfile",
    "RadialTrajectory",
    "profile_from_function",
    "radial_l2_norm",
    "radial_sobolev_norm",
    "JEvaluator",
    "radial_halfwave_operator",
    "F_p_source",
    "wave_evolve",
    "cumulative_mass",
    "maximal_function",
    "maximal_bound_check",
    "duhamel_maximal_bound_check",
]

REGULARIZATION_EPS = 1e-30
DECAY_TOL = 1e-8
_CHUNK = 8192  # points per pass of a spline evaluation


def _relative(lhs, rhs):
    """The relative mismatch |lhs - rhs| / max(lhs, rhs, REGULARIZATION_EPS),
    elementwise on arrays."""
    return np.abs(lhs - rhs) / np.maximum(np.maximum(lhs, rhs), REGULARIZATION_EPS)


def _estimate(
    lhs: float, rhs: float, empirical_constant: float | None = None, notes: dict | None = None
) -> dict:
    """The payload of an a priori estimate, an identity lhs = rhs or a
    one-sided bound lhs <= C rhs: lhs, rhs, residual and relative, plus the
    empirical constant C when given and notes when not empty."""
    out = {
        "lhs": lhs,
        "rhs": rhs,
        "residual": abs(lhs - rhs),
        "relative": float(_relative(lhs, rhs)),
    }
    if empirical_constant is not None:
        out["empirical_constant"] = empirical_constant
    if notes:
        out["notes"] = notes
    return out


@dataclass
class RadialProfile:
    """Radial samples u~(r_k) at staggered nodes r_k = (k + 1/2) R / M."""

    R: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.ndim != 1 or vals.size < 16:
            raise ValueError("radial profile needs a 1-d array of at least 16 samples")
        if not (self.R > 0):
            raise ValueError(f"radial extent must be positive, got {self.R}")
        if not np.isfinite(vals).all():
            raise ValueError("radial profile contains non-finite samples")
        object.__setattr__(self, "values", vals)

    @property
    def M(self) -> int:
        return self.values.size

    @property
    def dr(self) -> float:
        return self.R / self.M

    @cached_property
    def r(self) -> np.ndarray:
        return (np.arange(self.M) + 0.5) * self.dr


@dataclass
class RadialTrajectory:
    """Time-ordered radial profiles on a shared grid."""

    times: np.ndarray
    profiles: list[RadialProfile]


def profile_from_function(func, R: float, M: int) -> RadialProfile:
    r = (np.arange(M) + 0.5) * (R / M)
    return RadialProfile(R, np.asarray(func(r), dtype=np.complex128))


def radial_l2_norm(f: RadialProfile) -> float:
    """L^2 norm of the associated 3-d field: (int |u~|^2 4 pi r^2 dr)^(1/2)."""
    return float(np.sqrt(np.sum(np.abs(f.values) ** 2 * 4.0 * np.pi * f.r**2) * f.dr))


def _sine_modes(f: RadialProfile) -> np.ndarray:
    return np.pi * np.arange(1, f.M + 1) / f.R


def _sine(f: RadialProfile) -> np.ndarray:
    """Type-II sine coefficients of v = r u~ (orthonormal, complex)."""
    return scipy.fft.dst(f.r * f.values, type=2, norm="ortho")


def _from_sine(b: np.ndarray, f: RadialProfile) -> np.ndarray:
    """Samples u~ = v / r on f's nodes of the v with sine coefficients b."""
    return scipy.fft.idst(b, type=2, norm="ortho") / f.r


def _halfwave_multiplier(f: RadialProfile) -> RadialProfile:
    """Apply D on a radial profile through v = r u~ and a sine series.

    The 3-d radial identity (-Laplacian) u = -(1/r) d^2/dr^2 (r u) turns D
    into the 1-d half-Laplacian acting on the odd extension of v = r u~;
    on the staggered grid that is a type-II sine transform with multiplier
    m pi / R.  No decay validation here; see radial_halfwave_operator.
    """
    return RadialProfile(f.R, _from_sine(_sine(f) * _sine_modes(f), f))


def radial_sobolev_norm(f: RadialProfile, s: float) -> float:
    """Homogeneous Sobolev norm of the associated radial 3-d field,
    computed from the sine-series coefficients of v = r u~."""
    xi = _sine_modes(f)
    power = np.abs(_sine(f)) ** 2
    return float(np.sqrt(4.0 * np.pi * np.sum(xi ** (2.0 * s) * power) * f.dr))


class _Spline:
    """Not-a-knot cubic spline through (x, y) on uniformly spaced nodes x,
    extrapolated by its end cubics.  It is scipy's
    CubicSpline(x, y, bc_type="not-a-knot", extrapolate=True) bit for bit:
    the same slope system and power-basis coefficients (c[k, i] multiplies
    (x - x[i])^(len(c) - 1 - k)), and the elimination LAPACK's gtsv runs on
    that system when it swaps no rows, which holds on uniform nodes: each
    diagonal entry is at least the one below it."""

    def __init__(self, x: np.ndarray, y: np.ndarray):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=np.result_type(y, float))
        dx = np.diff(x)
        slope = np.diff(y) / dx
        d, e = x[2] - x[0], x[-1] - x[-3]
        b = np.empty_like(y)
        b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * e + dx[-1]) * dx[-2] * slope[-1]) / e
        h = dx.tolist()
        upper = [float(d), *h[:-1]]
        main = [h[1], *(2 * (dx[:-1] + dx[1:])).tolist(), h[-2]]
        lower = [*h[1:], float(e)]
        s = b.tolist()
        for k in range(x.size - 1):
            m = lower[k] / main[k]
            main[k + 1] -= m * upper[k]
            s[k + 1] -= m * s[k]
        s[-1] /= main[-1]
        for k in range(x.size - 2, -1, -1):
            s[k] = (s[k] - upper[k] * s[k + 1]) / main[k]
        s = np.array(s, dtype=y.dtype)
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x = x
        self.c = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))

    @classmethod
    def _of(cls, x: np.ndarray, c: np.ndarray) -> _Spline:
        spline = cls.__new__(cls)
        spline.x, spline.c = x, c
        return spline

    def __call__(self, x) -> np.ndarray:
        """PPoly's power sum on the interval x[i] <= x < x[i+1], the end
        intervals continuing outward, in chunks of _CHUNK points so that
        the temporaries stay in cache."""
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape, dtype=self.c.dtype)
        xs, outs = x.reshape(-1), out.reshape(-1)
        for a in range(0, xs.size, _CHUNK):
            xa, acc = xs[a : a + _CHUNK], outs[a : a + _CHUNK]
            i = np.searchsorted(self.x, xa, side="right")
            i -= 1
            np.clip(i, 0, self.x.size - 2, out=i)
            s = xa - self.x.take(i)
            self.c[-1].take(i, out=acc)
            z = s.copy()
            for k in range(self.c.shape[0] - 2, -1, -1):
                term = self.c[k].take(i)
                term *= z
                acc += term
                if k:
                    z *= s
        return out

    def derivative(self) -> _Spline:
        return self._of(self.x, self.c[:-1] * np.arange(self.c.shape[0] - 1, 0, -1.0)[:, None])

    def antiderivative(self) -> _Spline:
        """The antiderivative that vanishes at x[0].  Interval i's constant
        is piece i - 1 at x[i], its terms added one by one in PPoly's
        order; a cumsum of the increments rounds differently."""
        c = np.zeros((self.c.shape[0] + 1, self.c.shape[1]), dtype=self.c.dtype)
        c[:-1] = self.c / np.arange(self.c.shape[0], 0, -1.0)[:, None]
        h = np.diff(self.x)[:-1]
        z, terms = h, []
        for row in c[-2::-1]:
            terms.append((row[:-1] * z).tolist())
            z = z * h
        acc, consts = c[-1, 0].item(), []
        for increments in zip(*terms):
            for term in increments:
                acc += term
            consts.append(acc)
        c[-1, 1:] = consts
        return self._of(self.x, c)


def radial_halfwave_operator(f: RadialProfile) -> RadialProfile:
    """Apply D = (-Laplacian)^(1/2) to a radial profile.

    The sine-series route is exact for profiles sin(m pi r / R) / r and
    spectrally accurate for smooth decaying data, but it presumes the
    extension of r u~(r) vanishes at r = R; inputs whose extrapolated value
    at R is not negligible are rejected.
    """
    scale = float(np.max(np.abs(f.values)))
    if scale > 0:
        edge = abs(_Spline(f.r, f.values)(f.R))
        if edge > DECAY_TOL * scale:
            raise ValueError(
                "profile does not decay at the radial boundary "
                f"(|u~(R)| ~ {edge:.3e} vs max {scale:.3e}); "
                "enlarge R or truncate the data"
            )
    return _halfwave_multiplier(f)


class JEvaluator:
    """J[f] and dJ/dt of one profile, from the splines of f~ and r f~ (both
    zero beyond the last node), each built at its first use: j reads only
    the antiderivative of the spline of r f~, dj_dt only the spline of f~.
    t is a scalar or a column ts[:, None]; a column adds a leading time
    axis to the result."""

    def __init__(self, f: RadialProfile):
        self._f = f
        self.r_last = float(f.r[-1])

    @cached_property
    def _point(self) -> _Spline:
        return _Spline(self._f.r, self._f.values)

    @cached_property
    def _slope(self) -> _Spline:
        return self._point.derivative()

    @cached_property
    def _anti(self) -> _Spline:
        r = self._f.r
        return _Spline(r, r * self._f.values).antiderivative()

    def point(self, x: np.ndarray) -> np.ndarray:
        """u~ at arbitrary radii, zero beyond the last sampled node."""
        x = np.asarray(x, dtype=float)
        out = self._point(np.minimum(x, self.r_last))
        return np.where(x <= self.r_last, out, 0.0)

    def point_derivative(self, x: np.ndarray) -> np.ndarray:
        """d/dr of the interpolated u~ at arbitrary radii."""
        return self._slope(x)

    def j(self, t: float | np.ndarray, r: np.ndarray) -> np.ndarray:
        """J[f](t, r) as the antiderivative difference over [|r-t|, r+t]
        (clamped at the last node), so J[f](0, r) is exactly 0."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0):
            raise ValueError("J[f](t, r) requires r > 0")
        if np.any(np.asarray(t) < 0):
            raise ValueError("J[f](t, r) requires t >= 0")
        a = np.minimum(np.abs(r - t), self.r_last)
        b = np.minimum(r + t, self.r_last)
        return (self._anti(b) - self._anti(a)) / (2.0 * r)

    def dj_dt(self, t: float | np.ndarray, r: np.ndarray) -> np.ndarray:
        """dJ/dt[f](t, r) = [(r+t) f~(r+t) + (r-t) f~(|r-t|)] / (2r)."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0):
            raise ValueError("dJ/dt requires r > 0")
        if np.any(np.asarray(t) < 0):
            raise ValueError("dJ/dt requires t >= 0")
        up = (r + t) * self.point(r + t)
        down = (r - t) * self.point(np.abs(r - t))
        return (up + down) / (2.0 * r)


def modulus_power(u: np.ndarray, exponent: float) -> np.ndarray:
    """|u|^exponent; a negative exponent is regularized near |u| = 0 as
    (|u|^2 + REGULARIZATION_EPS)^(exponent/2)."""
    if exponent >= 0:
        return np.abs(u) ** exponent
    return (np.abs(u) ** 2 + REGULARIZATION_EPS) ** (exponent / 2.0)


def F_p_source(u: RadialProfile, p: float) -> RadialProfile:
    """Wave-form source F_p(u) driving Box u = F_p(u).

    Obtained by eliminating du/dt = -i D u - |u|^(p-1) u from the time
    derivative of |u|^(p-1) u:

        F_p(u) = i (p+1)/2 |u|^(p-1) D u
               - i (p-1)/2 |u|^(p-3) u^2 conj(D u)
               + i D(|u|^(p-1) u)
               + p |u|^(2p-2) u.

    For p < 3 the |u|^(p-3) factor is regularized as in the gradient
    dissipation checks.
    """
    if not p > 1:
        raise ValueError(f"nonlinearity power must exceed 1, got {p}")
    return _source(u, _sine(u), p)


def _source(u: RadialProfile, b: np.ndarray, p: float) -> RadialProfile:
    """F_p_source of u, whose sine coefficients b the caller already holds."""
    du = _from_sine(b * _sine_modes(u), u)
    vals = u.values
    nl = np.abs(vals) ** (p - 1.0) * vals
    d_nl = _halfwave_multiplier(RadialProfile(u.R, nl)).values
    out = (
        0.5j * (p + 1.0) * np.abs(vals) ** (p - 1.0) * du
        - 0.5j * (p - 1.0) * modulus_power(vals, p - 3.0) * vals**2 * np.conj(du)
        + 1j * d_nl
        + p * np.abs(vals) ** (2.0 * p - 2.0) * vals
    )
    return RadialProfile(u.R, out)


def _wave_form_domain(p: float, dt: float, T: float, R: float) -> int:
    """The hypotheses of wave_evolve: 1 < p <= 3, the stepper's rules for dt
    and T, and a last march time n_steps dt < R (finite propagation keeps
    the solution inside the sampled range).  Returns n_steps."""
    if not 1 < p <= 3:
        raise ValueError(f"wave form is implemented for 1 < p <= 3, got {p}")
    n_steps = StepperConfig(p, dt, T).n_steps
    if not n_steps * dt < R:
        raise ValueError(
            f"last march time {n_steps * dt:.6g} (T = {T}) must be below R = {R}: at the "
            "radial boundary the truncated data no longer determine the solution"
        )
    return n_steps


def wave_evolve(
    u0: RadialProfile, p: float, dt: float, T: float, nonlinear: bool = True
) -> RadialTrajectory:
    """March the wave-form integral equation

        u~(t) = dJ/dt[u0](t) + J[-i D u0 - |u0|^(p-1) u0](t)
              + int_0^t J[F_p(u)(s)](t - s) ds

    by trapezoidal quadrature over previous steps.  Because J[g](0, r) = 0
    identically, the endpoint term of the trapezoid vanishes and the march
    is explicit; self-convergence is second order.  Finite propagation
    requires every march time below R, and the sine series extends data
    oddly beyond R.

    In the sine series of v = r u~, with b0 = DST(r u0), b1 = DST(r q0)/xi
    and g_k = w_k DST(r F_p(u_k))/xi (w_k the trapezoid weights), the
    addition formula gives b(t_m) = cos(t_m xi)(b0 - S_m) + sin(t_m xi)(b1 + C_m)
    with running sums C_m, S_m of cos(t_k xi) g_k, sin(t_k xi) g_k over k < m:
    a nonlinear step costs five sine transforms (F_p_source reuses b(t_{m-1})).

    With ``nonlinear=False`` the source and the cubic data term are dropped
    and the march reduces to the exact free-wave representation
    u~(t) = dJ/dt[u0](t) + J[-i D u0](t).
    """
    n_steps = _wave_form_domain(p, dt, T, u0.R)
    xi = _sine_modes(u0)
    b = b0 = _sine(u0)
    q0_vals = -1j * _from_sine(b0 * xi, u0)
    if nonlinear:
        q0_vals = q0_vals - np.abs(u0.values) ** (p - 1.0) * u0.values
    b1 = _sine(RadialProfile(u0.R, q0_vals)) / xi
    cos_sum, sin_sum = np.zeros_like(b0), np.zeros_like(b0)
    cos_k, sin_k = np.ones_like(xi), np.zeros_like(xi)  # at t_0 = 0

    profiles = [u0]
    times = [0.0]
    for m in range(1, n_steps + 1):
        t_m = m * dt
        blow_up = f"non-finite radial state at step {m} (t = {t_m:.6g})"
        if nonlinear:
            w = 0.5 * dt if m == 1 else dt
            try:
                source = _source(profiles[-1], b, p)
            except ValueError as exc:  # the only one left: non-finite samples
                raise FloatingPointError(blow_up) from exc
            g = w * _sine(source) / xi
            cos_sum += cos_k * g
            sin_sum += sin_k * g
        cos_k, sin_k = np.cos(t_m * xi), np.sin(t_m * xi)
        b = cos_k * (b0 - sin_sum) + sin_k * (b1 + cos_sum)
        vals = _from_sine(b, u0)
        if not np.isfinite(vals).all():
            raise FloatingPointError(blow_up)
        profiles.append(RadialProfile(u0.R, vals))
        times.append(t_m)
    return RadialTrajectory(times=np.asarray(times), profiles=profiles)


def cumulative_mass(x: np.ndarray, values: np.ndarray):
    """Piecewise-linear cumulative integral of |f| for samples on a uniform
    grid, each sample viewed as a constant density over its cell.  Returns
    a callable C with int_a^b |f| = C(b) - C(a), constant outside the
    sampled range."""
    x = np.asarray(x, dtype=float)
    vals = np.abs(np.asarray(values))
    dx = float(x[1] - x[0])
    edges = np.concatenate([x - 0.5 * dx, [x[-1] + 0.5 * dx]])
    cum = np.concatenate([[0.0], np.cumsum(vals) * dx])
    return lambda y: np.interp(y, edges, cum)


def maximal_function(x: np.ndarray, values: np.ndarray, t: float) -> float:
    """Centered Hardy-Littlewood maximal value of |f| at the point t.

    f is sampled on the uniform grid x with compact support and viewed as a
    piecewise-constant density; the supremum sup_{h>0} (1/2h)
    int_{t-h}^{t+h} |f| is exact because the windowed mass is piecewise
    linear in h, so the ratio is monotone between cell edges and the grid
    of candidate radii (distances from t to cell edges) attains it.
    """
    x = np.asarray(x, dtype=float)
    vals = np.abs(np.asarray(values))
    if vals.size == 0 or not np.any(vals > 0):
        raise ValueError("maximal function of an identically-zero sample set")
    dx = float(x[1] - x[0])
    C = cumulative_mass(x, vals)
    edges = np.concatenate([x - 0.5 * dx, [x[-1] + 0.5 * dx]])
    h = np.unique(np.abs(edges - t))
    h = h[h > 0]
    best = float(np.max((C(t + h) - C(t - h)) / (2.0 * h))) if h.size else 0.0
    # h -> 0 limit: the density at t itself
    inside = (t >= edges[0]) & (t <= edges[-1])
    if inside:
        i = int(np.clip(np.round((t - x[0]) / dx), 0, vals.size - 1))
        best = max(best, float(vals[i]))
    return best


def maximal_domination_gap(seed: int, trials: int, m: int = 200) -> float:
    """Worst gap of sup_r (1/2r) int_{|r-t|}^{r+t} f over the maximal value
    of the even extension, over random nonnegative compactly supported f."""
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(trials):
        grid = np.linspace(0.0, 10.0, m, endpoint=False) + 10.0 / (2 * m)
        f = rng.random(m)
        cutoff = rng.integers(m // 2, m)
        f[cutoff:] = 0.0
        t = float(grid[rng.integers(m // 4, m // 2)])
        # lhs: exact windowed averages of f on the half-line
        C = cumulative_mass(grid, f)
        r = grid
        lhs = float(np.max((C(r + t) - C(np.abs(r - t))) / (2.0 * r)))
        # rhs: maximal function of the even extension
        x_full = np.concatenate([-grid[::-1], grid])
        f_full = np.concatenate([f[::-1], f])
        rhs = maximal_function(x_full, f_full, t)
        worst = max(worst, lhs - rhs)
    return worst


def _probe_times(f: RadialProfile, T: float, n_t: int | None) -> np.ndarray:
    """The n_t + 1 times on [0, T] of an L^2_t L^inf_r probe, n_t = M/2 if None."""
    n_t = f.M // 2 if n_t is None else n_t
    if T < 0 or n_t < 1:
        raise ValueError(f"probe needs T >= 0 and n_t >= 1, got T = {T}, n_t = {n_t}")
    return np.linspace(0.0, T, n_t + 1)


def _l2_sup(kernel, f: RadialProfile, T: float, n_t: int | None) -> float:
    """|| sup_r |kernel(t, r)| ||_{L^2(0,T)} on f's nodes and _probe_times,
    with kernel(ts[i:j, None], r) on blocks of _CHUNK // M times (16 at
    M = 512, a 128 KiB complex block that stays in cache with the kernel's
    temporaries); each row is evaluated alone, so the block size moves no bit."""
    ts = _probe_times(f, T, n_t)
    size = max(1, _CHUNK // f.M)
    sup = np.concatenate([
        np.max(np.abs(kernel(ts[i : i + size, None], f.r)), axis=1)
        for i in range(0, ts.size, size)
    ])
    return float(np.sqrt(np.trapezoid(sup**2, ts)))


def maximal_bound_check(f: RadialProfile, T: float, n_t: int | None = None) -> dict:
    """Ratio probe for || J[f] ||_{L^2(0,T;L^inf)} <= C ||f||_{L^2, radial},
    reported with the empirical constant lhs/rhs."""
    lhs = _l2_sup(JEvaluator(f).j, f, T, n_t)
    rhs = radial_l2_norm(f)
    return _estimate(lhs, rhs, lhs / rhs if rhs > 0 else 0.0)


def duhamel_maximal_bound_check(
    f: RadialProfile, T: float, phi=None, n_t: int | None = None
) -> dict:
    """Time-convolved variant: with h(t) = phi(t) f, probes
    || int_0^t J[h(s)](t - s) ds ||_{L^2(0,T;L^inf)} <= C ||h||_{L^1(0,T;L^2)}."""
    if phi is None:
        phi = lambda t: np.exp(-t)
    ts = _probe_times(f, T, n_t)
    dt = ts[1] - ts[0]
    j_at = JEvaluator(f).j(ts[:, None], f.r)
    sup = []
    for m in range(len(ts)):
        acc = np.zeros_like(f.r, dtype=complex)
        for k in range(m + 1):
            w = dt if 0 < k < m else 0.5 * dt
            acc += w * phi(ts[k]) * j_at[m - k]
        sup.append(np.max(np.abs(acc)))
    lhs = float(np.sqrt(np.trapezoid(np.asarray(sup) ** 2, ts)))
    rhs = float(np.trapezoid(np.abs(phi(ts)), ts)) * radial_l2_norm(f)
    return _estimate(lhs, rhs, lhs / rhs if rhs > 0 else 0.0)
