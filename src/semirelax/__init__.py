"""semirelax: pseudospectral simulation and verification suite for the
dissipative half-wave flow  i u_t - (-Lap)^(1/2) u = -i |u|^(p-1) u.

The package provides periodic spectral grids and norms (Lebesgue, Sobolev,
Besov, space-time, weighted), an exact-substep splitting integrator, the
a-priori balance-law and estimate checkers, the 3-d radial wave-form
reduction with its averaging-kernel machinery, and a scenario runner.
"""

from .diagnostics import (
    check_h1_identity,
    check_h2_inequality,
    check_hs_growth,
    check_l2_identity,
    check_scaling_law,
    diagnostics_table,
    hardy_time_derivative_check,
    strauss_ratio,
    weighted_strichartz_ratio,
    write_diagnostics_csv,
)
from .exponents import (
    critical_power,
    embedding_exponent_check,
    scaling_critical_exponent,
)
from .fields import (
    Field,
    apply_multiplier,
    gaussian_field,
    gradient,
    half_laplacian,
    load_field,
    mode_field,
    second_derivative,
    to_physical,
    to_spectral,
)
from .grids import Grid, make_grid
from .norms import (
    LittlewoodPaleyPartition,
    SobolevSpec,
    besov_norm,
    l2_norm,
    lp_norm,
    sobolev_norm,
    space_time_norm,
    weight_bracket,
    weighted_norm,
)
from .propagator import (
    StepperConfig,
    Trajectory,
    duhamel_residual,
    evolve,
    lie_step,
    linear_step,
    nonlinear_step,
    strang_step,
)
from .radial import (
    F_p_source,
    JEvaluator,
    RadialProfile,
    RadialTrajectory,
    duhamel_maximal_bound_check,
    maximal_bound_check,
    maximal_function,
    profile_from_function,
    radial_halfwave_operator,
    radial_l2_norm,
    radial_sobolev_norm,
    wave_evolve,
)
from .runner import RunReport, run, sweep
from .scenarios import Scenario, ScenarioError, default_catalog_path, load_config

__version__ = "0.1.0"
