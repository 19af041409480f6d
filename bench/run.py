"""semirelax benchmark: one workload per process, through the user path
(``scenarios.load_config`` -> ``runner.run``, as ``semirelax run`` does).

    python3 bench/run.py --workload spectral_3d --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics and ``--trace 1`` the per-layer metrics; see
bench/README.md for what each means and which workload should move it.
Everything a run writes goes under bench/out/<workload>/seed-<seed>/.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
# Fixed before the package is imported and never changed during the run:
# the package reads it from the environment at every transform.
THREADS = "1"
SETUP_SAMPLES = 5
# Wall time each setup child may take before the run is abandoned.
SETUP_TIMEOUT_S = 60


def parse_args(argv=None):
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics this mode reports, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "SEMIRELAX_THREADS": os.environ["SEMIRELAX_THREADS"],
    }


def setup_seconds(workload: str, seed: int, outdir: str) -> list[float]:
    """Set-up samples, each in a fresh process so the import is included."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [
                sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"),
                "--workload", workload, "--seed", str(seed),
                "--config", os.path.join(outdir, "setup_probe.cfg"),
            ],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def validate(sc, run_dir: str) -> list[str]:
    """Problems found in the files one scenario run wrote; empty if none."""
    from semirelax.diagnostics import CSV_HEADER

    out = os.path.join(run_dir, sc.name)
    problems = []
    with open(os.path.join(out, "report.json")) as fh:
        report = json.load(fh)
    if report["passed"] is not True:
        problems.append("report.json: passed is not true")
    if sorted(report["checks"]) != sorted(sc.checks):
        problems.append(f"report.json: checks {sorted(report['checks'])} != {sorted(sc.checks)}")
    for check in sc.checks:
        with open(os.path.join(out, "checks", f"{check}.json")) as fh:
            if json.load(fh)["passed"] is not True:
                problems.append(f"check {check} did not pass")
    if sc.solver in ("spectral", "both"):
        with open(os.path.join(out, "diagnostics.csv")) as fh:
            lines = fh.read().splitlines()
        n_steps = math.ceil(sc.T / sc.dt - 1e-12)
        if lines[0] != CSV_HEADER:
            problems.append("diagnostics.csv: wrong header")
        if len(lines) - 1 != n_steps // sc.snapshot_stride + 1:
            problems.append(f"diagnostics.csv: {len(lines) - 1} snapshot rows")
        rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
        if not all(math.isfinite(v) for row in rows for v in row):
            problems.append("diagnostics.csv: non-finite value")
        l2 = [row[1] for row in rows]
        if any(b > a * (1 + 1e-10) for a, b in zip(l2, l2[1:])):
            problems.append("diagnostics.csv: L2 norm increased")
    return problems


def run_pass(scs, run_dir: str) -> tuple[float, list[dict]]:
    """Run every scenario once; returns the summed runner.run wall time and
    one record per operation (scenario run)."""
    from semirelax import runner

    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    gc.collect()
    wall = 0.0
    ops = []
    for sc in scs:
        t0 = time.perf_counter()
        try:
            runner.run(sc, run_dir)
        except Exception:
            wall += time.perf_counter() - t0
            ops.append({"op": sc.name, "problems": [traceback.format_exc()]})
            continue
        wall += time.perf_counter() - t0
        try:
            problems = validate(sc, run_dir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        ops.append({"op": sc.name, "problems": problems})
    return wall, ops


def _output_files(run_dir: str, names) -> dict[str, bytes]:
    out = {}
    for name in names:
        base = os.path.join(run_dir, name)
        for dirpath, _, files in os.walk(base):
            for f in files:
                path = os.path.join(dirpath, f)
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, run_dir)] = fh.read()
    return out


def determinism_probe(outdir: str) -> dict:
    """Run one short catalog scenario twice in deterministic mode and
    compare the bytes of everything the two runs wrote."""
    import workloads
    from semirelax import runner, scenarios

    sc = next(
        s for s in scenarios.load_config(scenarios.default_catalog_path())
        if s.name == workloads.DETERMINISM_SCENARIO
    )
    dirs = [os.path.join(outdir, "determinism", tag) for tag in ("a", "b")]
    problems = []
    try:
        for d in dirs:
            shutil.rmtree(d, ignore_errors=True)
            if not runner.run(sc, d, deterministic=True).all_passed:
                problems.append(f"{d}: a check did not pass")
    except Exception:
        return {"op": "determinism", "problems": [traceback.format_exc()]}
    a, b = (_output_files(d, [sc.name]) for d in dirs)
    if sorted(a) != sorted(b):
        problems.append(f"file sets differ: {sorted(a)} vs {sorted(b)}")
    problems += [f"{k} differs between repeated runs" for k in a if a[k] != b.get(k)]
    return {"op": "determinism", "problems": problems}


def measure_untraced(scs, outdir: str, seconds: float) -> tuple[list[float], list[dict]]:
    """Repeat passes while the next one, at the median pass time so far,
    still ends within `seconds`; at least one pass."""
    walls, ops = [], []
    start = time.perf_counter()
    while True:
        wall, pass_ops = run_pass(scs, os.path.join(outdir, "runs"))
        walls.append(wall)
        ops += pass_ops
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return walls, ops


def measure_traced(scs_untraced, cfg_path: str, outdir: str) -> tuple[dict, list[dict]]:
    """One untraced pass, then one traced pass of the same inputs; the
    per-layer metrics come from the traced pass."""
    import workloads
    from semirelax import scenarios
    from tracer import Tracer

    plain_dir = os.path.join(outdir, "runs_untraced")
    traced_dir = os.path.join(outdir, "runs_traced")
    untraced_wall, ops = run_pass(scs_untraced, plain_dir)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.new_pass(0)
        scs = scenarios.load_config(cfg_path)
        tracer.new_pass(1)
        traced_wall, traced_ops = run_pass(scs, traced_dir)
    finally:
        tracer.uninstall()
    # tracing must not change a single output byte (report.json carries
    # the wall time, so it is left out)
    plain = _output_files(plain_dir, [sc.name for sc in scs])
    traced = _output_files(traced_dir, [sc.name for sc in scs])
    for op in traced_ops:
        op["problems"] += [
            f"{k} differs between the untraced and traced pass"
            for k in plain
            if k.startswith(op["op"] + os.sep)
            and not k.endswith("report.json")
            and plain[k] != traced.get(k)
        ]
    metrics = tracer.layer_metrics(1, traced_wall)
    metrics["runner.out_bytes"] = sum(len(b) for b in traced.values())
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics.update(workloads.layer_probes())
    tracer.write(os.path.join(outdir, "trace.json"))
    return metrics, ops + traced_ops


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "semirelax", "__init__.py")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    os.environ["SEMIRELAX_THREADS"] = THREADS
    sys.path.insert(0, SRC)
    import workloads

    outdir = os.path.join(BENCH_DIR, "out", args.workload, f"seed-{args.seed}")
    os.makedirs(outdir, exist_ok=True)
    setup = [] if args.trace else setup_seconds(args.workload, args.seed, outdir)

    from semirelax import scenarios

    cfg_path = os.path.join(outdir, "scenarios.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(workloads.config_text(args.workload, args.seed))
    scs = scenarios.load_config(cfg_path)
    env = environment()

    if args.trace:
        metrics, ops = measure_traced(scs, cfg_path, outdir)
        walls = []
    else:
        walls, ops = measure_untraced(scs, outdir, args.seconds)
    ops.append(determinism_probe(outdir))
    if os.environ.get("SEMIRELAX_THREADS") != THREADS:
        ops[-1]["problems"].append("SEMIRELAX_THREADS changed during the run")

    attempted = len(ops)
    failed = sum(1 for op in ops if op["problems"])
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": (attempted - failed) / attempted,
        }
    units = metric_units(args.trace)
    if set(units) != set(metrics):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json"
        )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "config": os.path.relpath(cfg_path, ROOT),
        "setup_samples_s": setup,
        "pass_walls_s": walls,
        "operations": ops,
        "metrics": metrics,
    }
    with open(os.path.join(outdir, f"result-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=2)
    for op in ops:
        for problem in op["problems"]:
            print(f"FAILED {op['op']}: {problem}", file=sys.stderr)
    print("environment " + json.dumps(env))
    if walls:
        print(f"wall_s median of {len(walls)} passes: {[round(w, 3) for w in walls]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
