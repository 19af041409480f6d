"""Scenario configuration: the flat key=value format, the hypotheses a
frozen Scenario checks whenever it is built, and its initial data.

Config grammar (INI-style, parsed by configparser).  The keys are the
Scenario fields after name, each cast by its type and required iff it has
no default.  A scenario is rejected when it sets any other key, repeats a
check, is named '', '.', '..' or with a '/', or sets a key its run never
reads: solver = radial-wave the keys marked spectral solvers, solver =
spectral M and R without cor37 or cor39.  s < 0 needs mean-free data at
every step, which the nonlinear flow keeps only for mode(k, a) data:

    [scenario.<name>]
    n = 1                     # spatial dimension
    p = 3                     # nonlinearity power
    dt = 1e-3                 # time step
    T = 1.0                   # final time
    initial = gaussian(0.5, 1.0, 0.0)   # or mode(k, amplitude) or file(path)
    s = 1.5                   # optional, default 1.0: diagnostic Sobolev index (spectral solvers)
    solver = spectral         # optional, default spectral: spectral | radial-wave | both
    checks = prop21, prop22   # optional: comma-separated keys of checks.CHECKS, each once
    N = 256                   # optional: grid points per axis (spectral solvers)
    L = 40                    # optional: box period           (spectral solvers)
    M = 512                   # optional: radial samples       (radial solvers, cor37, cor39)
    R = 20                    # optional: radial extent        (radial solvers, cor37, cor39)
    snapshot_stride = 1       # optional, default 1            (spectral solvers)
    nonlinear = true          # optional, default true (or yes/no, on/off, 1/0, false)
"""

from __future__ import annotations

import configparser
import importlib.resources
import math
import re
from dataclasses import MISSING, InitVar, dataclass, fields
from functools import cached_property

import numpy as np

from .checks import CHECKS, broken_hypothesis
from .fields import Field, gaussian_field, load_field, mode_field
from .grids import make_grid
from .norms import SobolevSpec, sobolev_norm
from .propagator import StepperConfig
from .radial import RadialProfile, _wave_form_domain, profile_from_function

__all__ = ["Scenario", "ScenarioError", "load_config", "default_catalog_path"]


class ScenarioError(ValueError):
    """Configuration that violates a stated hypothesis or the grammar."""


# the arguments of each initial-data kind, in the order its spec lists them
INITIAL_ARGS = {
    "gaussian": ("amplitude", "width", "center"),
    "mode": ("k", "amplitude"),
    "file": ("path",),
}


@dataclass(frozen=True)
class Scenario:
    name: str  # the section's [scenario.<name>]; every later field is a config key
    n: int
    p: float
    dt: float
    T: float
    initial: str
    s: float = 1.0
    solver: str = "spectral"
    checks: tuple[str, ...] = ()
    N: int | None = None
    L: float | None = None
    M: int | None = None
    R: float | None = None
    snapshot_stride: int = 1
    nonlinear: bool = True
    defaulted: InitVar[tuple[str, ...]] = ()  # which of s, snapshot_stride a config sets

    def __post_init__(self, defaulted):  # a Scenario, however built, is one the loader accepts
        where = f"scenario {self.name!r}"
        object.__setattr__(self, "checks", tuple(self.checks))  # frozen all the way down
        if self.name in ("", ".", "..") or "/" in self.name:  # a run writes outdir/<name>/
            raise ScenarioError(f"{where}: a name is one path component")
        if self.solver not in ("spectral", "radial-wave", "both"):
            raise ScenarioError(f"{where}: unknown solver {self.solver!r}")
        unknown = [c for c in self.checks if c not in CHECKS]
        if unknown:
            raise ScenarioError(f"{where}: unknown checks {unknown}")
        repeated = sorted({c for c in self.checks if self.checks.count(c) > 1})
        if repeated:
            raise ScenarioError(f"{where}: repeated checks {repeated}")
        # the keys this run never reads: the spectral solvers' under the wave
        # form alone, the radial grid when no solver or check reads the profile
        radial = self.solver != "spectral" or any(CHECKS[c].reads == "radial" for c in self.checks)
        read = () if self.solver == "radial-wave" else ("s", "snapshot_stride", "N", "L")
        read += ("M", "R") if radial else ()
        # a key is set when the config names it or its value is not the default
        default = {f.name: f.default for f in fields(self)}
        ignored = [
            key for key in ("s", "snapshot_stride", "N", "L", "M", "R")
            if (key in defaulted or getattr(self, key) != default[key]) and key not in read
        ]
        if ignored:
            raise ScenarioError(f"{where}: solver = {self.solver} ignores {ignored}")
        if self.solver in ("spectral", "both") and (self.N is None or self.L is None):
            raise ScenarioError(f"{where}: spectral solver needs N and L")
        kind, _ = self.parsed_initial
        try:  # the solvers' own rules, checked by the code that enforces them
            if self.solver in ("spectral", "both"):
                make_grid(self.n, self.N, self.L)
                steps = self.stepper().n_steps
                if steps % self.snapshot_stride:  # the last stored row is the final time
                    raise ScenarioError(f"{where}: snapshot_stride = {self.snapshot_stride} does "
                                        f"not divide the {steps} steps to T, so T is not stored")
                if kind == "file":  # read now: a missing or foreign file is a config error
                    self.initial_field()
                if self.s < 0:  # the table's homogeneous H^s norm needs mean-free data
                    try:
                        sobolev_norm(self.initial_field(), SobolevSpec(self.s, homogeneous=True))
                    except ValueError as exc:
                        raise ScenarioError(f"{where}: s = {self.s:g}: {exc}") from exc
                    if self.nonlinear and kind != "mode":  # |u|^(p-1) u makes a mean
                        raise ScenarioError(
                            f"{where}: s = {self.s:g}: the nonlinear flow keeps only "
                            f"mode(k, a) data mean-free, got {self.initial!r}"
                        )
            if radial:
                self.initial_profile()  # M, R and the radial form of the data
            if self.solver != "spectral":
                if self.n != 3:
                    raise ScenarioError(
                        f"{where}: the wave form is a 3-d radial reduction, got n={self.n}"
                    )
                _wave_form_domain(self.p, self.dt, self.T, self.R)
        except ScenarioError:
            raise
        except (OSError, ValueError) as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
        for check in self.checks:
            broken = broken_hypothesis(self, check)
            if broken:
                raise ScenarioError(f"{where}, check {check!r}: {broken}")

    @cached_property
    def parsed_initial(self) -> tuple[str, tuple]:
        """The initial-data spec as (kind, args), args in INITIAL_ARGS[kind]'s order."""
        where = f"scenario {self.name!r}"
        m = re.fullmatch(rf"\s*({'|'.join(INITIAL_ARGS)})\s*\(([^)]*)\)\s*", self.initial)
        if not m:
            raise ScenarioError(
                f"{where}: bad initial-data spec {self.initial!r}; expected "
                "gaussian(a, w, c), mode(k, a) or file(path)"
            )
        kind, body = m.group(1), m.group(2)
        parts = [s.strip() for s in body.split(",")] if body.strip() else []
        names = INITIAL_ARGS[kind]
        if kind == "file":
            if len(parts) != len(names):
                raise ScenarioError(f"{where}: file initial data needs a single path")
            return kind, (parts[0],)
        try:
            args = tuple(float(s) for s in parts)
        except ValueError:
            args = ()
        if len(args) != len(names) or not all(map(math.isfinite, args)):
            raise ScenarioError(
                f"{where}: {kind} initial data needs finite numbers "
                f"({', '.join(names)}), got {self.initial!r}"
            )
        if kind == "gaussian" and not args[1] > 0:
            raise ScenarioError(f"{where}: gaussian width must be positive")
        if kind == "mode" and not args[0].is_integer():
            raise ScenarioError(f"{where}: mode number k must be an integer")
        return kind, args

    def stepper(self) -> StepperConfig:
        """The time-stepping parameters."""
        return StepperConfig(self.p, self.dt, self.T, self.snapshot_stride, self.nonlinear)

    def initial_field(self) -> Field:
        if self.N is None or self.L is None:
            raise ScenarioError(f"scenario {self.name!r} has no spectral grid (N, L)")
        grid = make_grid(self.n, self.N, self.L)
        kind, args = self.parsed_initial
        if kind == "gaussian":
            amp, width, center = args
            return gaussian_field(grid, amp, width, center)
        if kind == "mode":
            k, amp = args
            return mode_field(grid, int(k), amp)
        u0 = load_field(args[0])
        if u0.grid != grid:
            g = u0.grid
            raise ScenarioError(
                f"scenario {self.name!r}: {args[0]} holds data on the grid n={g.n}, "
                f"N={g.N}, L={g.L:g}, not the scenario's n={self.n}, N={self.N}, L={self.L:g}"
            )
        return u0

    def initial_profile(self) -> RadialProfile:
        if self.M is None or self.R is None:
            raise ScenarioError(f"scenario {self.name!r} has no radial grid (M, R)")
        kind, args = self.parsed_initial
        if kind != "gaussian":
            raise ScenarioError(
                f"scenario {self.name!r}: the radial profile needs gaussian initial data"
            )
        amp, width, center = args
        if center != 0:
            raise ScenarioError(
                f"scenario {self.name!r}: radial initial data must be centered (center=0)"
            )
        return profile_from_function(lambda r: amp * np.exp(-((r / width) ** 2)), self.R, self.M)


# each config key's cast, by its field's annotation (a string under
# `from __future__ import annotations`); checks is a comma-separated list
_CASTS = {
    "int": int, "float": float, "str": str, "bool": bool,
    "tuple[str, ...]": lambda raw: tuple(c.strip() for c in raw.split(",") if c.strip()),
}
KEYS = {f.name: _CASTS[f.type.removesuffix(" | None")] for f in fields(Scenario)[1:]}
REQUIRED = [f.name for f in fields(Scenario)[1:] if f.default is MISSING]


def _get(section, name, key):
    raw, cast = section[key], KEYS[key]
    try:  # a boolean is one of configparser's words: true/false, yes/no, on/off, 1/0
        value = section.getboolean(key) if cast is bool else cast(raw)
    except ValueError as exc:
        raise ScenarioError(f"scenario {name!r}: bad value for {key!r}: {raw!r}") from exc
    if cast is float and not math.isfinite(value):
        raise ScenarioError(f"scenario {name!r}: {key!r} must be a finite number, got {raw!r}")
    return value


def load_config(path) -> list[Scenario]:
    """Parse and validate a scenario file; parse errors carry line numbers,
    hypothesis violations name the failed requirement."""
    parser = configparser.ConfigParser(interpolation=None)  # a value may hold a '%'
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
        sec, name = parser[section_name], section_name.split(".", 1)[1]
        unknown = [key for key in sec if key not in KEYS]  # [DEFAULT]'s keys too
        if unknown:
            raise ScenarioError(f"scenario {name!r}: unknown keys {unknown}")
        missing = [key for key in REQUIRED if key not in sec]
        if missing:
            raise ScenarioError(f"scenario {name!r}: missing key {missing[0]!r}")
        values = {key: _get(sec, name, key) for key in sec}
        defaulted = [key for key in ("s", "snapshot_stride") if key in sec]
        scenarios.append(Scenario(name, **values, defaulted=defaulted))
    return scenarios


def default_catalog_path() -> str:
    """Path of the catalog shipped with the package."""
    return str(importlib.resources.files("semirelax").joinpath("data/catalog.cfg"))
