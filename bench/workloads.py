"""Workload definitions: seeded scenario configs and per-layer probes.

Each workload is a scenario file in the package's documented config
grammar.  The seed only jitters the gaussian amplitudes (uniformly within
+-5 %), so every seed exercises the same code paths and array sizes while
the numbers the program computes change.

This module imports only the standard library at top level, so the set-up
probe can time the package import on its own.
"""

from __future__ import annotations

import random
import time

AMPLITUDE_JITTER = 0.05

# Amplitude 0.0357 gives the cross-check fixture's data (H^1 norm ~ 0.1),
# small enough for the prop14 hypothesis at every jitter.
_SPECTRAL_3D = """\
[scenario.spectral_3d]
n = 3
p = 3
s = 1.0
solver = both
N = 64
L = 20
M = 512
R = 20
dt = 4e-3
T = 0.2
snapshot_stride = 25
initial = gaussian({a0!r}, 1.0, 0.0)
checks = prop14, prop21, lemma35
"""

_DIAGNOSTICS_DENSE = """\
[scenario.lin_3d_probes]
n = 3
p = 3
s = 1.0
solver = both
N = 64
L = 20
M = 512
R = 20
dt = 0.05
T = 0.5
snapshot_stride = 1
nonlinear = false
initial = gaussian({a0!r}, 1.0, 0.0)
checks = lemma34, lemma36, cor37, cor39

[scenario.p11_1d_cubic]
n = 1
p = 3
s = 1.5
solver = spectral
N = 256
L = 40
dt = 1e-3
T = 1.0
snapshot_stride = 1
initial = gaussian({a1!r}, 1.0, 0.0)
checks = prop11, prop21, prop22, prop24, duhamel
"""

_RADIAL_MARCH = """\
[scenario.radial_march]
n = 3
p = 3
solver = radial-wave
M = 1024
R = 40
dt = 2e-3
T = 0.35
initial = gaussian({a0!r}, 1.0, 0.0)
checks = prop14, cor37, cor39
"""

# name -> (config template, base amplitude of each gaussian).  radial_march
# runs by hand only: its wall time is too unsteady on the reference machine
# for a bound in BENCHMARK.json (bench/README.md).
WORKLOADS = {
    "spectral_3d": (_SPECTRAL_3D, (0.0357,)),
    "diagnostics_dense": (_DIAGNOSTICS_DENSE, (1.0, 0.5)),
    "radial_march": (_RADIAL_MARCH, (0.0357,)),
}

# The determinism probe runs this catalog scenario as shipped.
DETERMINISM_SCENARIO = "p11_1d_quintic"


def config_text(workload: str, seed: int) -> str:
    """Scenario file of one workload; the same seed gives the same text."""
    template, amplitudes = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    jittered = {
        f"a{i}": a * (1.0 + rng.uniform(-AMPLITUDE_JITTER, AMPLITUDE_JITTER))
        for i, a in enumerate(amplitudes)
    }
    return template.format(**jittered)


def build_initial_data(scenarios) -> None:
    """Construct every initial field and profile the scenarios' solvers use."""
    for sc in scenarios:
        if sc.solver in ("spectral", "both"):
            sc.initial_field()
        if sc.solver in ("radial-wave", "both"):
            sc.initial_profile()


def _best_ms(fn, reps: int = 5, inner: int = 1) -> float:
    """Best of `reps` timings of `inner` back-to-back calls, in ms per call
    (the ROADMAP Baseline table reports best of 5)."""
    fn()
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        best = min(best, (time.perf_counter() - t0) / inner)
    return best * 1e3


def layer_probes() -> dict[str, float]:
    """Direct calls into public functions at the ROADMAP Baseline sizes.

    strang_step and the transform pair belong to spectral_3d, sobolev_norm
    and gradient to diagnostics_dense, J and F_p_source to radial_march;
    every traced run measures all of them so each result carries the full
    per-layer set.
    """
    import numpy as np

    from semirelax import fields, norms, propagator, radial
    from semirelax.grids import make_grid

    cfg = propagator.StepperConfig(p=3.0, dt=1e-3, T=1.0)
    u128 = fields.gaussian_field(make_grid(3, 128, 20.0), 0.5)
    u64 = fields.gaussian_field(make_grid(3, 64, 20.0), 0.5)
    u1d = fields.gaussian_field(make_grid(1, 256, 40.0), 0.5)
    prof = radial.profile_from_function(lambda r: 0.5 * np.exp(-(r**2)), 40.0, 1024)
    ev = radial.JEvaluator(prof)
    h1 = norms.SobolevSpec(1.0, homogeneous=True)
    out = {
        "probe.strang_step_3d_n128_ms": _best_ms(lambda: propagator.strang_step(u128, cfg)),
        "probe.fft_pair_3d_n128_ms": _best_ms(
            lambda: fields.to_physical(fields.to_spectral(u128))
        ),
        "probe.strang_step_3d_n64_ms": _best_ms(
            lambda: propagator.strang_step(u64, cfg), inner=5
        ),
        "probe.strang_step_1d_n256_ms": _best_ms(
            lambda: propagator.strang_step(u1d, cfg), inner=200
        ),
        "probe.sobolev_norm_3d_n64_ms": _best_ms(
            lambda: norms.sobolev_norm(u64, h1), inner=5
        ),
        "probe.gradient_3d_n64_ms": _best_ms(lambda: fields.gradient(u64), inner=2),
        "probe.j_m1024_ms": _best_ms(lambda: ev.j(0.5, prof.r), inner=100),
        "probe.f_p_source_m1024_ms": _best_ms(
            lambda: radial.F_p_source(prof, 3.0), inner=50
        ),
    }
    return out
