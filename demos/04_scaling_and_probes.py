"""Scaling structure and estimate probes.

The rescaling u(x) -> sigma^(1/(p-1)) u(sigma x) changes homogeneous norms
by the exact rate sigma^(1/(p-1)+s-n/2); at the critical index the rate is
zero.  The radial sup probe and the weighted space-time probe attach
empirical constants to the corresponding one-sided estimates.

Run:  python demos/04_scaling_and_probes.py
"""

from semirelax import (
    StepperConfig,
    check_scaling_law,
    critical_power,
    evolve,
    gaussian_field,
    make_grid,
    l2_norm,
    scaling_critical_exponent,
    space_time_norm,
    strauss_ratio,
    weighted_norm,
    weighted_strichartz_ratio,
)

print("=== critical exponents (exact arithmetic) ===")
for n in (1, 2, 3):
    for p in (2, 3, 5):
        s = scaling_critical_exponent(n, p)
        back = critical_power(n, s) if 2 * s < n else None
        inverse = f", p({n}, {s}) = {back}" if back is not None else ""
        print(f"n={n}, p={p}: s_crit = {s}{inverse}")

print("\n=== rescaling rates measured on the grid ===")
g = make_grid(2, 16, 12.0)
u0 = gaussian_field(g, 0.8, width=1.5)
p = 3.0
for s in (0.5, 1.0, 1.5):
    rate = 1.0 / (p - 1.0) + s - g.n / 2.0
    for sigma in (0.5, 2.0):
        res = check_scaling_law(u0, sigma, s, p)
        measured = res["lhs"] / (res["rhs"] / sigma**rate)
        print(f"s={s}: sigma={sigma}: measured sigma^e = {measured:10.6f} "
              f"(predicted {sigma**rate:10.6f}, residual {res['relative']:.1e})")

print("\n=== radial sup probe (weighted L^inf over homogeneous norm) ===")
g3 = make_grid(3, 32, 16.0)
f3 = gaussian_field(g3)
for s in (0.8, 1.0, 1.2):
    print(f"s={s}: ratio = {strauss_ratio(f3, s=s):.6f}")

print("\n=== weighted space-time probe on the free flow ===")
traj = evolve(f3, StepperConfig(p=3.0, dt=0.1, T=4.0, nonlinear=False))
print(f"lemma34, delta=0.5, q1=4.0: ratio = {weighted_strichartz_ratio(traj):.6f}")
# other weights from the norms themselves, each snapshot read as a Field
for delta, q1 in ((0.25, 4.0), (0.5, 2.0)):
    num = space_time_norm(
        (traj.times, traj), q1, lambda u: weighted_norm(u, delta, q1, sign=-1)
    )
    print(f"delta={delta}, q1={q1}: ratio = {num / l2_norm(f3):.6f}")
