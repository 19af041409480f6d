"""Residuals and ratio probes for the a priori structure of the flow.

The CSV, the balance laws, the H^s growth bound, the curvature inequality
(prop24) and the lemma33 and Duhamel scales read one per-snapshot table
stored on the trajectory, built with one forward transform of each
snapshot; the CSV's residuals are running trapezoid sums over it.  Every
reader takes Trajectory.blocks, one transform and reduction per block,
derivatives from fields._derivative on the block's basis, and folds no
snapshot: on the (N/2+1)^n octant of an octant-resident trajectory its sums
carry the DCT-I multiplicities, at about a sixth of the full-grid time and
memory at 64^3.
A linear trajectory dissipates nothing: its balance laws are conservation
of ||u||^2, ||grad u||^2.

Each checker returns the JSON payload of its check, built by
radial._estimate: for an exact balance law its two sides and their
mismatch; for a one-sided estimate also the empirical constant (only it and
its refinement stability are meaningful) and notes.
Space derivatives are always spectral multipliers, never finite
differences, so the residuals isolate time-discretization error.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import Field, _basis, _derivative, _stack_axes, to_physical
from .grids import make_grid
from .norms import SobolevSpec, _sample_radii, _sobolev_norms, _weighted_l2, space_time_norm
from .propagator import Trajectory
from .radial import (
    JEvaluator, RadialProfile, _estimate, _l2_sup, _relative, radial_sobolev_norm,
)

__all__ = [
    "diagnostics_table",
    "write_diagnostics_csv",
    "TABLE_COLUMNS",
    "CSV_HEADER",
    "check_l2_identity",
    "check_h1_identity",
    "check_hs_growth",
    "check_h2_inequality",
    "check_scaling_law",
    "strauss_ratio",
    "weighted_strichartz_ratio",
    "hardy_time_derivative_check",
]


TABLE_COLUMNS = (
    "t", "l2", "h1dot", "h2dot", "hs", "linf", "lpp1", "grad_term", "modulus_term",
)
CSV_HEADER = "t,l2,h1dot,h2dot,hs,linf,lpp1_budget,res_prop21,res_prop22"


def _snapshot_index(traj: Trajectory, t: float) -> int:
    times = np.asarray(traj.times)
    idx = int(np.argmin(np.abs(times - t)))
    if abs(times[idx] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"t = {t} is not a snapshot time of this trajectory")
    return idx


def diagnostics_table(
    traj: Trajectory, s: float = 1.0, hessian: bool = False
) -> dict[str, np.ndarray]:
    """Per-snapshot scalars of ``traj``, one array per TABLE_COLUMNS entry,
    built on first use and stored on the trajectory under s: the time t, the
    norms l2, h1dot, h2dot, hs (homogeneous, index s), linf and lpp1 (L^(p+1)),
    and the two dissipation integrands of check_h1_identity, grad_term and
    modulus_term, zero for a linear trajectory and else both formed from the
    same d_j u.  With hessian, one more column, cross, holds the Hessian
    cross term sum_{j,k} ||u d_j d_k u||^2 of check_h2_inequality; a stored
    table without it is built again whole.  The pass runs over
    Trajectory.blocks: one forward transform (then one inverse per d_j u and
    per d_j d_k u) and one reduction per block.

    An octant-resident trajectory is tabled on its stored octant arrays, with
    no fold and no second mirror test, under a DCT-I transform, its sums
    weighted by the mode and sample multiplicities, and agrees with the FFT
    table to roundoff; 1-d and any other trajectory keep the FFT stack."""
    stored = traj.tables.get(s)
    if stored is not None and (not hessian or "cross" in stored):
        return stored
    grid, p = traj.grid, traj.config.p
    dV, axes = grid.cell_volume, _stack_axes(grid)
    columns = (*TABLE_COLUMNS, "cross") if hessian else TABLE_COLUMNS
    table = {name: np.zeros(len(traj.snapshots)) for name in columns}
    second_axes = [(j, k) for j in range(grid.n) for k in range(grid.n)] if hessian else []
    table["t"][:] = traj.times
    specs = [(name, SobolevSpec(r, homogeneous=True))
             for name, r in (("h1dot", 1.0), ("h2dot", 2.0), ("hs", s))]
    # (column, spec, |multiplier| at the modes), built once: on the octant
    # from the k <= N/2 corner of |xi| alone
    sobolev = None
    for i, basis in traj.blocks():
        # the last block's arrays go before this block's forward transform
        coeffs = absu = nonzero = grad_sq = radial_sq = power = None
        samples, forward, weights = basis.samples, basis.forward, basis.weights
        rows = slice(i, i + len(samples))
        if sobolev is None:
            sobolev = [
                (name, spec, np.abs(spec._at(grid.xi_norm_at(basis.modes))))
                for name, spec in specs
            ]
        coeffs = forward(samples)
        coeffs *= dV
        for name, spec, m in sobolev:
            table[name][rows] = _sobolev_norms(coeffs, grid, spec, m, weights)
        absu = np.abs(samples)
        table["l2"][rows] = np.sqrt(_integral(absu**2, weights, grid))
        table["linf"][rows] = np.max(absu, axis=axes)
        # float powers, not numpy's vectorised power: the two round differently
        sums = _integral(absu ** (p + 1.0), weights, grid)
        table["lpp1"][rows] = [v ** (1.0 / (p + 1.0)) for v in sums.tolist()]
        for jk in second_axes:
            djk = _derivative(basis, coeffs, grid, jk)
            table["cross"][rows] += _integral(np.abs(samples * djk) ** 2, weights, grid)
            del djk  # one second derivative held at a time
        if traj.linear:
            continue
        nonzero, grad_sq, radial_sq = absu > 0, 0.0, 0.0
        for j in range(grid.n):
            d = _derivative(basis, coeffs, grid, (j,))
            grad_sq += np.abs(d) ** 2
            # Re(conj(u) d_j u) / |u| = (grad |u|^2)_j / (2|u|), 0 where u is
            re = d.real * samples.real + d.imag * samples.imag
            radial_sq += np.divide(re, absu, out=re, where=nonzero) ** 2
            del d, re  # one derivative held at a time
        power = absu ** (p - 1.0)
        table["grad_term"][rows] = 2.0 * _integral(power * grad_sq, weights, grid)
        radial_sq *= power
        table["modulus_term"][rows] = 2.0 * (p - 1.0) * _integral(radial_sq, weights, grid)
    traj.tables[s] = table
    return table


def _any_table(traj: Trajectory, hessian: bool = False) -> dict[str, np.ndarray]:
    """A stored table of any s (only hs depends on it), else one at s = 1."""
    return diagnostics_table(traj, next(iter(traj.tables), 1.0), hessian)


def _integral(density: np.ndarray, weights, grid) -> np.ndarray:
    """The grid sum times dV of each density of a stack, an octant sample
    counted as often as it occurs (in place)."""
    if weights is not None:
        density *= weights
    return np.sum(density, axis=_stack_axes(grid)) * grid.cell_volume


def write_diagnostics_csv(traj: Trajectory, path, s: float = 1.0) -> np.ndarray:
    """Write the per-snapshot norm table plus running identity residuals,
    and return the written rows, one per snapshot in CSV_HEADER's columns.

    lpp1_budget is the accumulated dissipation 2 * int_0^t ||u||^(p+1) dt'
    (trapezoid; zero for a linear trajectory), res_prop21 / res_prop22 the
    relative residuals of the L^2 and gradient balance laws over [0, t] as
    running trapezoid sums (check_l2/h1_identity up to roundoff).
    """
    table = diagnostics_table(traj, s)
    # float powers, not numpy's vectorised power: the two round differently
    l2sq, h1sq = (np.array([v**2 for v in table[c].tolist()]) for c in ("l2", "h1dot"))
    budget = np.zeros(len(l2sq))
    if not traj.linear:
        q = traj.config.p + 1.0
        density = np.array([v**q for v in table["lpp1"].tolist()])
        budget = 2.0 * _cumtrapz(density, table["t"])
    gradient_budget = _cumtrapz(table["grad_term"] + table["modulus_term"], table["t"])
    # the relative entry of check_l2/h1_identity's payload over [0, t] of each row
    residuals = [_relative(l2sq + budget, l2sq[0]), _relative(h1sq + gradient_budget, h1sq[0])]
    columns = [table[name] for name in CSV_HEADER.split(",")[:6]]
    rows = np.column_stack([*columns, budget, *residuals])
    fmt = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        fh.writelines(fmt % tuple(row) for row in rows.tolist())
    return rows


def _cumtrapz(vals: np.ndarray, times: np.ndarray) -> np.ndarray:
    out = np.zeros_like(vals)
    if len(vals) > 1:
        seg = 0.5 * (vals[1:] + vals[:-1]) * np.diff(times)
        out[1:] = np.cumsum(seg)
    return out


def check_l2_identity(traj: Trajectory, t1: float, t2: float) -> dict:
    """Mass balance:  ||u(t2)||^2 + 2 ||u||^(p+1)_{L^(p+1)((t1,t2) x R^n)}
    against ||u(t1)||^2.

    The stated balance uses open endpoints 0 < t1; the checker also accepts
    t1 = 0 since the discrete solution is defined there (flagged by the
    runner when used).  The relative residual decays at second order in dt.
    On a linear trajectory the check is mass conservation.
    """
    i1, i2 = _validate_window(traj, t1, t2)
    table = _any_table(traj)
    lhs = float(table["l2"][i2]) ** 2
    if not traj.linear:
        q = traj.config.p + 1.0
        window = slice(i1, i2 + 1)
        lpp1 = space_time_norm((table["t"][window], table["lpp1"][window]), q, float)
        lhs += 2.0 * lpp1**q
    return _estimate(lhs, float(table["l2"][i1]) ** 2)


def _validate_window(traj: Trajectory, t1: float, t2: float) -> tuple[int, int]:
    if not (0 <= t1 < t2 <= float(traj.times[-1]) + 1e-12):
        raise ValueError(f"need 0 <= t1 < t2 <= T, got t1={t1}, t2={t2}")
    return _snapshot_index(traj, t1), _snapshot_index(traj, t2)


def check_h1_identity(traj: Trajectory, t1: float, t2: float) -> dict:
    """Gradient balance:

        ||grad u(t2)||^2 + 2 int || |u|^((p-1)/2) grad u ||^2
                         + (p-1)/2 int || |u|^((p-3)/2) grad |u|^2 ||^2
        against ||grad u(t1)||^2.

    Both dissipation integrands are pointwise nonnegative, so the gradient
    norm is nonincreasing.  As grad |u|^2 = 2 Re(conj(u) grad u), the second is
    2(p-1) |u|^(p-3) sum_j (Re conj(u) d_j u)^2, 0 where u = 0, at most p-1 times
    the first for every p.  On a linear trajectory the gradient norm is conserved.
    """
    i1, i2 = _validate_window(traj, t1, t2)
    table, window = _any_table(traj), slice(i1, i2 + 1)
    dissipation = table["grad_term"][window] + table["modulus_term"][window]
    integral = float(np.trapezoid(dissipation, table["t"][window]))
    lhs = float(table["h1dot"][i2]) ** 2 + integral
    return _estimate(lhs, float(table["h1dot"][i1]) ** 2)


def check_hs_growth(traj: Trajectory, s: float, C: float) -> dict:
    """Gronwall-type growth control of the homogeneous H^s norm:

        ||u(t2)||^2 <= ||u(t1)||^2 + C int ||u||_Linf^(p-1) ||u||_Hs^2 dt,

    valid for n in {1, 2} and n/2 < s < min(2, p).  Reports the bound at
    the supplied C over [0, T] together with the smallest constant C* that
    makes the inequality hold over every snapshot pair.
    """
    n = traj.grid.n
    p = traj.config.p
    if n not in (1, 2):
        raise ValueError(f"growth bound requires n in {{1, 2}}, got n={n}")
    if not (n / 2.0 < s < min(2.0, p)):
        raise ValueError(
            f"growth bound requires n/2 < s < min(2, p); got s={s} with n={n}, p={p}"
        )
    table = diagnostics_table(traj, s)
    hs_sq = np.array([v**2 for v in table["hs"].tolist()])
    integrand = table["linf"] ** (p - 1.0) * hs_sq
    cum = _cumtrapz(integrand, table["t"])
    c_star = 0.0
    for i in range(len(hs_sq) - 1):
        gain, slack_int = hs_sq[i + 1 :] - hs_sq[i], cum[i + 1 :] - cum[i]
        ok = (gain > 0) & (slack_int > 0)
        c_star = max(c_star, float(np.max(gain[ok] / slack_int[ok], initial=0.0)))
    lhs = float(hs_sq[-1])
    rhs = float(hs_sq[0] + C * cum[-1])
    return _estimate(
        lhs, rhs, c_star, {"supplied_constant": C, "holds": bool(lhs <= rhs + 1e-12 * rhs)}
    )


def check_h2_inequality(traj: Trajectory, t1: float, t2: float) -> dict:
    """Curvature inequality for the cubic flow (p = 3):

        ||u(t2)||_{H2dot}^2 + 2 sum_{j,k} int || u d_j d_k u ||^2
        <= ||u(t1)||_{H2dot}^2 + 2 n^2 (n+1) int ||u||_{H1dot}^(4-n) ||u||_{H2dot}^n.

    The cross term is the table's cross column (diagnostics_table with
    hessian), its second derivatives the spectral multipliers -xi_j xi_k;
    this check reads the table alone and makes no transform.  The report
    carries the nonnegative slack rhs - lhs in its notes.
    """
    if traj.config.p != 3:
        raise ValueError(
            f"curvature inequality is stated for the cubic case p = 3, got p={traj.config.p}"
        )
    i1, i2 = _validate_window(traj, t1, t2)
    n, window = traj.grid.n, slice(i1, i2 + 1)
    table = _any_table(traj, hessian=True)
    times, cross = table["t"][window], table["cross"][window]
    h1, h2 = table["h1dot"][window].tolist(), table["h2dot"][window].tolist()
    majorant = np.array([a ** (4.0 - n) * b ** float(n) for a, b in zip(h1, h2)])
    lhs = h2[-1] ** 2 + 2.0 * float(np.trapezoid(cross, times))
    rhs = h2[0] ** 2 + 2.0 * n**2 * (n + 1) * float(np.trapezoid(majorant, times))
    return _estimate(lhs, rhs, lhs / rhs if rhs > 0 else 0.0, {"slack": rhs - lhs})


def _initial_row(f) -> tuple:
    """(grid, row): f's grid and a one-row fields._Basis of its samples, the
    stored row 0 of a Trajectory (no fold) or a Field under fields._basis."""
    if isinstance(f, Trajectory):
        (_, row), = f.blocks(0, 1)
        return f.grid, row
    return f.grid, _basis(to_physical(f).values[None], f.grid.n)


def _hdot_norm(grid, row, s: float, samples: np.ndarray) -> float:
    """The Hdot^s norm on grid of one row of samples under row's basis."""
    spec, coeffs = SobolevSpec(s, homogeneous=True), row.forward(samples) * grid.cell_volume
    m = np.abs(spec._at(grid.xi_norm_at(row.modes)))
    return float(_sobolev_norms(coeffs, grid, spec, m, row.weights)[0])


def check_scaling_law(u0, sigma: float, s: float, p: float) -> dict:
    """Rescaling invariance of homogeneous norms.

    Builds u_sigma(x) = sigma^(1/(p-1)) u0(sigma x) on the grid with period
    L/sigma (same N; band-limited data make the construction exact) and
    compares ||u_sigma||_{Hdot^s} with sigma^(1/(p-1)+s-n/2) ||u0||_{Hdot^s}.
    At the critical index the predicted ratio is exactly 1.  u0 is a Field
    or a Trajectory, read at its stored row 0 (on the octant, unfolded).
    """
    if not sigma > 0:
        raise ValueError(f"scale factor must be positive, got {sigma}")
    grid, row = _initial_row(u0)
    scaled_grid = make_grid(grid.n, grid.N, grid.L / sigma)
    # On the rescaled grid the sample positions satisfy sigma * x'_j = x_j,
    # so the rescaled field carries the same sample values, only reweighted.
    amp = sigma ** (1.0 / (p - 1.0))
    exponent = 1.0 / (p - 1.0) + s - grid.n / 2.0
    lhs = _hdot_norm(scaled_grid, row, s, amp * row.samples)
    return _estimate(lhs, sigma**exponent * _hdot_norm(grid, row, s, row.samples))


def strauss_ratio(f, s: float = 1.0) -> float:
    """Weighted sup probe  || |x|^(n/2-s) f ||_Linf / ||f||_{Hdot^s}
    for radial data; requires n >= 2 and 1/2 < s < n/2.  Returns 0 for
    identically-zero input (0/0 convention).  f is a 3-d radial profile, a
    Field, or a Trajectory read at its stored row 0 (Hdot^s from its table)."""
    grid, row = _initial_row(f) if isinstance(f, (Field, Trajectory)) else (None, None)
    n = 3 if grid is None else grid.n
    if n < 2:
        raise ValueError(f"radial sup estimate requires n >= 2, got n={n}")
    if not (0.5 < s < n / 2.0):
        raise ValueError(f"radial sup estimate requires 1/2 < s < n/2, got s={s}")
    if grid is None:
        vals, radii, denom = np.abs(f.values), f.r, radial_sobolev_norm(f, s)
    else:
        vals, radii = np.abs(row.samples[0]), _sample_radii(grid, row.weights)
        if isinstance(f, Trajectory):  # its table holds the Hdot^s norm
            denom = float(diagnostics_table(f, s)["hs"][0])
        else:
            denom = _hdot_norm(grid, row, s, row.samples)
    if not np.any(vals > 0):
        return 0.0
    return float(np.max(radii ** (n / 2.0 - s) * vals)) / denom


def weighted_strichartz_ratio(traj: Trajectory, delta: float, q1: float) -> float:
    """Weighted space-time probe for the free flow:

        || [x]_delta^(-1/q1) u(t) ||_{L^q1(0,T;L^2)} / ||u(0)||_{L^2}.

    Only trajectories generated by the linear propagator are accepted.
    Returns 0 for zero data.  Both norms sum over the stored rows.
    """
    if not traj.linear:
        raise ValueError("weighted space-time probe requires a linear trajectory")
    if q1 < 2:
        raise ValueError(f"time exponent must satisfy q1 >= 2, got {q1}")
    grid, first = _initial_row(traj)
    denom = math.sqrt(float(_integral(np.abs(first.samples) ** 2, first.weights, grid)[0]))
    if denom == 0:
        return 0.0
    weighted = _weighted_l2(grid, delta, q1, sign=-1, weights=first.weights)
    rows = [row for _, basis in traj.blocks() for row in basis.samples]
    num = space_time_norm((traj.times, rows), q1, weighted)
    return num / denom


def hardy_time_derivative_check(
    f: RadialProfile, T: float | None = None, n_t: int | None = None
) -> dict:
    """Hardy-type probe for the time derivative of the radial average:

        || d/dt (1/2r) int_{|r-t|}^{r+t} lambda f(lambda) d lambda ||_{L^2_t L^inf_r}
        <= C || r f'(r) ||_{L^2(0,inf)}.

    The derivative is evaluated in closed form; the right side by midpoint
    quadrature of the spline derivative.  T defaults to 0.9 R.  A vanishing
    right side (constant f, not in the weighted space) is flagged
    out_of_space, with an infinite constant, instead of divided by.
    """
    ev = JEvaluator(f)
    lhs = _l2_sup(ev.dj_dt, f, 0.9 * f.R if T is None else T, n_t)
    fprime = ev.point_derivative(f.r)
    rhs = float(np.sqrt(np.sum(np.abs(f.r * fprime) ** 2) * f.dr))
    if rhs <= 1e-14 * max(1.0, float(np.max(np.abs(f.values)))):
        return _estimate(lhs, rhs, math.inf, {"out_of_space": True})
    return _estimate(lhs, rhs, lhs / rhs)
