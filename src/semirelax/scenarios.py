"""Scenario configuration: the flat key=value format, hypothesis
validation, and construction of initial data.

Config grammar (INI-style, parsed by configparser):

    [scenario.<name>]
    n = 1                     # spatial dimension
    p = 3                     # nonlinearity power
    s = 1.5                   # diagnostic Sobolev index
    solver = spectral         # spectral | radial-wave | both
    N = 256                   # grid points per axis   (spectral solvers)
    L = 40                    # box period             (spectral solvers)
    M = 512                   # radial samples         (radial solvers, cor37, cor39)
    R = 20                    # radial extent          (radial solvers, cor37, cor39)
    dt = 1e-3
    T = 1.0
    snapshot_stride = 1       # optional, default 1
    nonlinear = true          # optional, default true
    initial = gaussian(0.5, 1.0, 0.0)   # or mode(k, amplitude) or file(path)
    checks = prop21, prop22   # comma-separated keys of checks.CHECKS
"""

from __future__ import annotations

import configparser
import importlib.resources
import re
from dataclasses import dataclass, field

import numpy as np

from .checks import CHECKS, broken_hypothesis
from .fields import Field, gaussian_field, load_field, mode_field
from .grids import make_grid
from .propagator import StepperConfig
from .radial import RadialProfile, _wave_form_domain, profile_from_function

__all__ = ["Scenario", "ScenarioError", "load_config", "default_catalog_path"]


class ScenarioError(ValueError):
    """Configuration that violates a stated hypothesis or the grammar."""


@dataclass
class Scenario:
    name: str
    n: int
    p: float
    s: float
    solver: str
    dt: float
    T: float
    initial: str
    checks: list[str] = field(default_factory=list)
    N: int | None = None
    L: float | None = None
    M: int | None = None
    R: float | None = None
    snapshot_stride: int = 1
    nonlinear: bool = True

    def initial_field(self) -> Field:
        if self.N is None or self.L is None:
            raise ScenarioError(f"scenario {self.name!r} has no spectral grid (N, L)")
        grid = make_grid(self.n, self.N, self.L)
        kind, args = _parse_initial(self.initial)
        if kind == "gaussian":
            amp, width, center = args
            return gaussian_field(grid, amp, width, center)
        if kind == "mode":
            k, amp = args
            return mode_field(grid, int(k), amp)
        return load_field(args[0])

    def initial_profile(self) -> RadialProfile:
        if self.M is None or self.R is None:
            raise ScenarioError(f"scenario {self.name!r} has no radial grid (M, R)")
        kind, args = _parse_initial(self.initial)
        if kind != "gaussian":
            raise ScenarioError(
                f"scenario {self.name!r}: the radial profile needs gaussian initial data"
            )
        amp, width, center = args
        if center != 0:
            raise ScenarioError(
                f"scenario {self.name!r}: radial initial data must be centered (center=0)"
            )
        return profile_from_function(
            lambda r: amp * np.exp(-((r / width) ** 2)), self.R, self.M
        )


def _parse_initial(spec: str):
    m = re.fullmatch(r"\s*(gaussian|mode|file)\s*\(([^)]*)\)\s*", spec)
    if not m:
        raise ScenarioError(
            f"bad initial-data spec {spec!r}; expected gaussian(a, w, c), "
            "mode(k, a) or file(path)"
        )
    kind, body = m.group(1), m.group(2)
    parts = [s.strip() for s in body.split(",")] if body.strip() else []
    if kind == "gaussian":
        if len(parts) != 3:
            raise ScenarioError("gaussian initial data needs (amplitude, width, center)")
        return kind, tuple(float(s) for s in parts)
    if kind == "mode":
        if len(parts) != 2:
            raise ScenarioError("mode initial data needs (k, amplitude)")
        return kind, (float(parts[0]), float(parts[1]))
    if len(parts) != 1:
        raise ScenarioError("file initial data needs a single path")
    return kind, (parts[0],)


def _validate(sc: Scenario) -> None:
    if sc.solver not in ("spectral", "radial-wave", "both"):
        raise ScenarioError(f"scenario {sc.name!r}: unknown solver {sc.solver!r}")
    unknown = [c for c in sc.checks if c not in CHECKS]
    if unknown:
        raise ScenarioError(f"scenario {sc.name!r}: unknown checks {unknown}")
    if sc.solver in ("spectral", "both") and (sc.N is None or sc.L is None):
        raise ScenarioError(f"scenario {sc.name!r}: spectral solver needs N and L")
    try:  # the solvers' own rules, checked by the code that enforces them
        if sc.solver in ("spectral", "both"):
            make_grid(sc.n, sc.N, sc.L)
            StepperConfig(sc.p, sc.dt, sc.T, snapshot_stride=sc.snapshot_stride)
        if sc.solver != "spectral" or any(CHECKS[c].reads == "radial" for c in sc.checks):
            sc.initial_profile()  # M, R and the radial form of the data
        if sc.solver != "spectral":
            if sc.n != 3:
                raise ScenarioError(
                    f"scenario {sc.name!r}: the wave form is a 3-d radial reduction, got n={sc.n}"
                )
            _wave_form_domain(sc.p, sc.dt, sc.T, sc.R)
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(f"scenario {sc.name!r}: {exc}") from exc
    kind, args = _parse_initial(sc.initial)
    for check in sc.checks:
        broken = broken_hypothesis(sc, check, kind, args)
        if broken:
            raise ScenarioError(f"scenario {sc.name!r}, check {check!r}: {broken}")


def _get(section, key, cast, default=None, required=False):
    if key not in section:
        if required:
            raise ScenarioError(f"missing key {key!r} in [{section.name}]")
        return default
    raw = section[key]
    try:
        if cast is bool:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        return cast(raw)
    except ValueError as exc:
        raise ScenarioError(f"bad value for {key!r} in [{section.name}]: {raw!r}") from exc


def load_config(path) -> list[Scenario]:
    """Parse and validate a scenario file; parse errors carry line numbers,
    hypothesis violations name the failed requirement."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive: n vs N, T vs dt
    try:
        with open(path) as fh:
            parser.read_file(fh, source=str(path))
    except configparser.Error as exc:
        raise ScenarioError(f"config parse error: {exc}") from exc
    scenarios = []
    for section_name in parser.sections():
        if not section_name.startswith("scenario."):
            raise ScenarioError(
                f"unexpected section [{section_name}]; sections must be [scenario.<name>]"
            )
        sec = parser[section_name]
        sc = Scenario(
            name=section_name.split(".", 1)[1],
            n=_get(sec, "n", int, required=True),
            p=_get(sec, "p", float, required=True),
            s=_get(sec, "s", float, default=1.0),
            solver=_get(sec, "solver", str, default="spectral"),
            dt=_get(sec, "dt", float, required=True),
            T=_get(sec, "T", float, required=True),
            initial=_get(sec, "initial", str, required=True),
            checks=[
                c.strip()
                for c in _get(sec, "checks", str, default="").split(",")
                if c.strip()
            ],
            N=_get(sec, "N", int),
            L=_get(sec, "L", float),
            M=_get(sec, "M", int),
            R=_get(sec, "R", float),
            snapshot_stride=_get(sec, "snapshot_stride", int, default=1),
            nonlinear=_get(sec, "nonlinear", bool, default=True),
        )
        _validate(sc)
        scenarios.append(sc)
    return scenarios


def default_catalog_path() -> str:
    """Path of the catalog shipped with the package."""
    return str(importlib.resources.files("semirelax").joinpath("data/catalog.cfg"))
