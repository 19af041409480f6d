"""Outside tracer: spans around the package's public functions, recorded
from the benchmark's own code without touching the package source.

Installing the tracer replaces each target function by a wrapper that
records a span (name, start, end, parent, pass id).  A function bound by
``from .fields import to_physical`` lives under its own name in every
importing module, so the wrapper is bound in every loaded ``semirelax``
module that holds the original object, not only in the defining one.
Spans are kept in memory and written out once at the end.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import weakref

# module -> public functions wrapped; dotted names are methods
TARGETS = {
    "fields": [
        "to_spectral", "to_physical", "apply_multiplier", "half_laplacian",
        "gradient", "second_derivative",
    ],
    "propagator": [
        "evolve", "strang_step", "lie_step", "linear_step", "nonlinear_step",
        "duhamel_residual",
    ],
    "norms": [
        "lp_norm", "l2_norm", "sobolev_norm", "besov_norm", "space_time_norm",
        "weighted_norm",
    ],
    "diagnostics": [
        "write_diagnostics_csv", "check_l2_identity", "check_h1_identity",
        "check_hs_growth", "check_h2_inequality", "check_scaling_law",
        "strauss_ratio", "weighted_strichartz_ratio", "hardy_time_derivative_check",
    ],
    "radial": [
        "wave_evolve", "JEvaluator.__init__", "JEvaluator.j", "JEvaluator.dj_dt",
        "F_p_source", "maximal_bound_check", "duhamel_maximal_bound_check",
        "maximal_function", "cumulative_mass",
    ],
    "runner": ["run"],
    "scenarios": ["load_config", "Scenario.initial_field", "Scenario.initial_profile"],
}

_FFT = {"fields.to_spectral": "is_spectral", "fields.to_physical": "is_physical"}
_DIAGNOSTIC_CHECKS = [f"diagnostics.{n}" for n in TARGETS["diagnostics"][1:]]
_RADIAL_PROBES = [
    "radial.maximal_bound_check", "radial.duhamel_maximal_bound_check",
    "radial.maximal_function", "radial.cumulative_mass",
]


class Tracer:
    """In-memory span recorder plus the counters spans cannot carry."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, pass id]
        self.pass_id = 0
        self.fft_bytes = 0
        self.fft_repeats = 0
        self.wave_steps = 0
        self._stack: list[int] = []
        self._seen: dict[int, weakref.ref] = {}
        self._restore: list[tuple] = []

    def new_pass(self, pass_id: int) -> None:
        """Start a pass: counters and repeat detection cover one pass."""
        self.pass_id = pass_id
        self.fft_bytes = self.fft_repeats = self.wave_steps = 0
        self._seen.clear()

    def call(self, name: str, fn, args, kwargs):
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.pass_id]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _count_fft(self, name: str, f) -> None:
        vals = f.values
        self.fft_bytes += 2 * vals.nbytes  # read input, write output
        if name == "fields.to_spectral":
            ref = self._seen.get(id(vals))
            if ref is not None and ref() is vals:
                self.fft_repeats += 1
            else:
                self._seen[id(vals)] = weakref.ref(vals)

    def _wrapper(self, name: str, orig):
        tracer = self
        if name in _FFT:
            noop_attr = _FFT[name]

            def wrapped(f, *args, **kwargs):
                if getattr(f, noop_attr):  # already in the target representation
                    return orig(f, *args, **kwargs)
                tracer._count_fft(name, f)
                return tracer.call(name, orig, (f,) + args, kwargs)
        elif name == "radial.wave_evolve":

            def wrapped(*args, **kwargs):
                traj = tracer.call(name, orig, args, kwargs)
                tracer.wave_steps += len(traj.times) - 1
                return traj
        else:

            def wrapped(*args, **kwargs):
                return tracer.call(name, orig, args, kwargs)

        return wrapped

    def install(self) -> None:
        """Wrap every target in every loaded semirelax module."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "semirelax" or key.startswith("semirelax."))
        ]
        for mod_name, funcs in TARGETS.items():
            home = sys.modules[f"semirelax.{mod_name}"]
            for func in funcs:
                span_name = f"{mod_name}.{func.replace('.__init__', '.build')}"
                if "." in func:
                    cls_name, attr = func.split(".")
                    cls = getattr(home, cls_name)
                    orig = cls.__dict__[attr]
                    setattr(cls, attr, self._wrapper(span_name, orig))
                    self._restore.append((cls, attr, orig))
                    continue
                orig = getattr(home, func)
                wrapped = self._wrapper(span_name, orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapped)
                            self._restore.append((mod, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def write(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "pass"],
                    "names": names,
                    "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans],
                },
                fh,
                separators=(",", ":"),
            )

    def layer_metrics(self, pass_id: int, pass_wall: float) -> dict[str, float]:
        """Per-layer metrics of one traced pass; `scenarios.load_s` comes
        from the set-up spans (pass 0)."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[4] == pass_id]
        child_time: dict[int, float] = {}
        for _, s in spans:
            if s[3] >= 0:
                child_time[s[3]] = child_time.get(s[3], 0.0) + s[2] - s[1]
        count: dict[str, int] = {}
        self_time: dict[str, float] = {}
        for i, s in spans:
            count[s[0]] = count.get(s[0], 0) + 1
            self_time[s[0]] = self_time.get(s[0], 0.0) + s[2] - s[1] - child_time.get(i, 0.0)

        def n(*names):
            return sum(count.get(k, 0) for k in names)

        def outermost(s, names) -> bool:
            parent = s[3]
            while parent >= 0:
                if self.spans[parent][0] in names:
                    return False
                parent = self.spans[parent][3]
            return True

        def t(*names):
            """Inclusive time of the named spans; nested ones are not added twice."""
            return sum(
                (s[2] - s[1] for _, s in spans if s[0] in names and outermost(s, names)), 0.0
            )

        def st(*names):
            return sum(self_time.get(k, 0.0) for k in names)

        fft = ("fields.to_spectral", "fields.to_physical")
        steps = ("propagator.strang_step", "propagator.lie_step")
        step_durations = [s[2] - s[1] for _, s in spans if s[0] in steps]
        forward = n("fields.to_spectral")
        setup = [s for s in self.spans if s[4] == 0 and s[0] == "scenarios.load_config"]
        runs = t("runner.run")
        return {
            "fields.fft_calls": n(*fft),
            "fields.fft_forward_calls": forward,
            "fields.fft_s": t(*fft),
            "fields.fft_mb_computed": self.fft_bytes / 1e6,
            "fields.fft_repeat_frac": self.fft_repeats / forward if forward else 0.0,
            "fields.multiplier_calls": n("fields.apply_multiplier", "fields.half_laplacian"),
            "fields.multiplier_self_s": st(
                "fields.apply_multiplier", "fields.half_laplacian",
                "fields.gradient", "fields.second_derivative",
            ),
            "fields.gradient_calls": n("fields.gradient"),
            "norms.calls": n(*(f"norms.{k}" for k in TARGETS["norms"])),
            "norms.sobolev_s": t("norms.sobolev_norm"),
            "norms.lp_s": t("norms.lp_norm"),
            "diagnostics.csv_s": t("diagnostics.write_diagnostics_csv"),
            "diagnostics.checks_s": t(*_DIAGNOSTIC_CHECKS),
            "propagator.steps": len(step_durations),
            "propagator.evolve_s": t("propagator.evolve"),
            "propagator.step_ms": (
                statistics.median(step_durations) * 1e3 if step_durations else 0.0
            ),
            "propagator.linear_step_self_s": st("propagator.linear_step"),
            "propagator.nonlinear_step_self_s": st("propagator.nonlinear_step"),
            "propagator.duhamel_s": t("propagator.duhamel_residual"),
            "radial.wave_evolve_s": t("radial.wave_evolve"),
            "radial.wave_steps": self.wave_steps,
            "radial.wave_step_ms": (
                t("radial.wave_evolve") / self.wave_steps * 1e3 if self.wave_steps else 0.0
            ),
            "radial.j_calls": n("radial.JEvaluator.j"),
            "radial.j_s": t("radial.JEvaluator.j"),
            "radial.spline_builds": n("radial.JEvaluator.build"),
            "radial.f_p_source_s": t("radial.F_p_source"),
            "radial.probe_s": t(*_RADIAL_PROBES),
            "scenarios.load_s": sum((s[2] - s[1] for s in setup), 0.0),
            "runner.self_s": st("runner.run"),
            "trace.wall_s": pass_wall,
            # share of the pass inside spans of the layers the runner calls
            "trace.coverage_frac": (runs - st("runner.run")) / pass_wall,
        }
