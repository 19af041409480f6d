"""The split-step integrator: unitary free flow alternated with the exact
pointwise amplitude decay.  Shows the monotone mass decay, the second-order
self-convergence, and writes an SVG of the norm history.

Run:  python demos/02_splitting_integrator.py
"""

import os

import numpy as np

from semirelax import (
    SobolevSpec,
    StepperConfig,
    evolve,
    gaussian_field,
    l2_norm,
    lp_norm,
    make_grid,
    sobolev_norm,
)
from semirelax.plotting import fit_order, line_chart_svg

grid = make_grid(1, 256, 40.0)
u0 = gaussian_field(grid, 0.5)

print("=== cubic flow, dt = 1e-3, T = 1 ===")
traj = evolve(u0, StepperConfig(p=3.0, dt=1e-3, T=1.0, snapshot_stride=100))
h1 = SobolevSpec(1.0, homogeneous=True)
print(f"{'t':>5} {'L2':>12} {'H1dot':>12} {'Linf':>12}")
for t, u in zip(traj.times, traj):
    print(f"{t:5.2f} {l2_norm(u):12.8f} {sobolev_norm(u, h1):12.8f} "
          f"{lp_norm(u, np.inf):12.8f}")

norms = [l2_norm(u) for u in traj]
drop = norms[0] - norms[-1]
print(f"\nmass dissipated over [0, 1]: {drop:.6f} (monotone at every step)")

print("\n=== self-convergence of the splitting ===")
T = 0.25
dts = [5e-3, 2.5e-3, 1.25e-3]


def final_state(dt):
    n_steps = round(T / dt)
    cfg = StepperConfig(p=3.0, dt=dt, T=T, snapshot_stride=n_steps)
    return evolve(u0, cfg)[-1].values


ref = final_state(dts[-1] / 8)
errs = [np.max(np.abs(final_state(dt) - ref)) for dt in dts]
for dt, err in zip(dts, errs):
    print(f"dt = {dt:8.2e}   max error vs reference = {err:.3e}")
print(f"fitted order: {fit_order(dts, errs):.3f}")

outdir = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(outdir, exist_ok=True)
path = os.path.join(outdir, "mass_decay.svg")
line_chart_svg([float(t) for t in traj.times], norms, "L2 norm decay", path)
print(f"\nwrote {path}")
