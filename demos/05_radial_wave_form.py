"""The 3-d radial wave form: averaging kernel, radial half-Laplacian, and
the Volterra march cross-checked against the full 3-d spectral solver.

Run:  python demos/05_radial_wave_form.py   (a few seconds)
"""

import numpy as np

from semirelax import (
    JEvaluator,
    StepperConfig,
    evolve,
    gaussian_field,
    hardy_time_derivative_check,
    make_grid,
    maximal_bound_check,
    profile_from_function,
    radial_halfwave_operator,
    wave_evolve,
)
from semirelax.checks import spectral_vs_wave_disagreement

print("=== kernel identities ===")
ones = profile_from_function(lambda r: np.ones_like(r), R=10.0, M=512)
for t in (0.5, 2.0):
    nodes = ones.r[ones.r + t <= ones.r[-1]][::64]
    vals = JEvaluator(ones).j(t, nodes)
    print(f"J[1]({t}, r) = {np.real(vals).round(12)} (exactly t)")

gauss = profile_from_function(lambda r: np.exp(-(r**2)), R=12.0, M=512)
t, h = 0.7, 1e-5
r_chk = gauss.r[100:105]
ev = JEvaluator(gauss)
fd = (ev.j(t + h, r_chk) - ev.j(t - h, r_chk)) / (2 * h)
cf = ev.dj_dt(t, r_chk)
print(f"dJ/dt closed form vs centered difference: {np.max(np.abs(fd - cf)):.2e}")

print("\n=== radial half-Laplacian eigenmode ===")
R, M = 8.0, 1024
k = 2 * np.pi / R
eig = profile_from_function(lambda r: np.sin(k * r) / r, R=R, M=M)
out = radial_halfwave_operator(eig)
print(f"D[sin(kr)/r] = k sin(kr)/r with k = {k:.4f}: "
      f"max error {np.max(np.abs(out.values - k * eig.values)):.2e}")

print("\n=== wave-form march vs 3-d spectral solver (small critical data) ===")
amp, T, dt = 0.1, 0.5, 4e-3
g3 = make_grid(3, 64, 20.0)
u0 = gaussian_field(g3, amp)
traj = evolve(u0, StepperConfig(p=3.0, dt=dt, T=T, snapshot_stride=25))
prof = profile_from_function(lambda r: amp * np.exp(-(r**2)), R=20.0, M=512)
rtraj = wave_evolve(prof, 3.0, dt=dt, T=T)
gap = spectral_vs_wave_disagreement(traj, rtraj)
print(f"relative L^inf disagreement at T = {T}: {gap:.3e}")

print("\n=== maximal-average bound probes ===")
report = maximal_bound_check(prof, T=4.0)
print(f"averaging kernel L2_t L^inf_r over radial L2: "
      f"constant {report['empirical_constant']:.5f}")
hardy = hardy_time_derivative_check(gauss)
print(f"time-derivative Hardy probe: constant {hardy['empirical_constant']:.5f}")
