"""The exact balance laws of the dissipative flow as numerical residuals.

The mass identity trades ||u(t)||_L2^2 against the accumulated (p+1)-power
dissipation; the gradient identity does the same for ||grad u||_L2^2 with
two nonnegative dissipation integrals.  Both residuals shrink at second
order in dt, confirming they measure only time-discretization error.

Run:  python demos/03_balance_laws.py
"""

import os

from semirelax import (
    StepperConfig,
    check_h1_identity,
    check_h2_inequality,
    check_l2_identity,
    evolve,
    gaussian_field,
    make_grid,
)
from semirelax.plotting import fit_order, refinement_chart_svg

grid = make_grid(1, 256, 40.0)
u0 = gaussian_field(grid, 0.5)
T = 0.5
dts = [2e-3, 1e-3, 5e-4]

print("=== residuals of the two balance laws under dt refinement ===")
res21, res22 = [], []
for dt in dts:
    traj = evolve(u0, StepperConfig(p=3.0, dt=dt, T=T))
    r21 = check_l2_identity(traj, 0.0, T)["relative"]
    r22 = check_h1_identity(traj, 0.0, T)["relative"]
    res21.append(r21)
    res22.append(r22)
    print(f"dt = {dt:7.1e}   mass residual = {r21:.3e}   gradient residual = {r22:.3e}")

print(f"fitted orders: mass {fit_order(dts, res21):.3f}, "
      f"gradient {fit_order(dts, res22):.3f}")

print("\n=== curvature inequality (cubic case) ===")
traj = evolve(u0, StepperConfig(p=3.0, dt=1e-3, T=T))
report = check_h2_inequality(traj, 0.0, T)
print(f"lhs = {report['lhs']:.8f}")
print(f"rhs = {report['rhs']:.8f}")
print(f"slack = {report['notes']['slack']:.8f}  (nonnegative)")

outdir = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(outdir, exist_ok=True)
path = os.path.join(outdir, "mass_residual_refinement.svg")
refinement_chart_svg(dts, res21, "mass balance refinement", path)
print(f"\nwrote {path}")
