"""Command-line interface.

    semirelax run --config <path> [--scenario <name>] [--out <dir>]
                  [--deterministic] [--plots]
    semirelax sweep --config <path> --vary dt=1e-3,5e-4,2.5e-4 [--scenario <name>]
                  [--out <dir>] [--deterministic]
    semirelax check-exponents --n {1,2,3} --p <p> [--s <s>]

Exit code is 0 iff every requested check passed, 2 for a configuration
error (including a bad --vary key or value, or a sweep member the loader
would reject; no member runs then; a check-exponents --p or --s that is
not a finite rational, or --p <= 1).  --deterministic zeroes the reports'
wall time.  Every run uses one FFT worker and a sweep runs its members one
after another; the environment is not read.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction

from .exponents import (
    _admissible_r,
    critical_power,
    embedding_exponent_check,
    scaling_critical_exponent,
)
from .runner import run, sweep
from .scenarios import ScenarioError, default_catalog_path, load_config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semirelax",
        description="Pseudospectral simulation and verification of a "
        "dissipative half-wave equation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run scenarios from a config file")
    p_run.add_argument("--config", default=default_catalog_path())
    p_run.add_argument("--scenario", default=None, help="run only this scenario")
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--deterministic", action="store_true")
    p_run.add_argument("--plots", action="store_true")

    p_sweep = sub.add_parser("sweep", help="parameter sweep over one scenario")
    p_sweep.add_argument("--config", default=default_catalog_path())
    p_sweep.add_argument("--scenario", default=None)
    p_sweep.add_argument(
        "--vary", action="append", required=True,
        help="key=v1,v2,... with key in {dt, N, amplitude, sigma}; repeatable",
    )
    p_sweep.add_argument("--out", default="out")
    p_sweep.add_argument("--deterministic", action="store_true")

    p_exp = sub.add_parser(
        "check-exponents", help="print scaling/admissibility bookkeeping"
    )
    p_exp.add_argument("--n", type=int, required=True)
    p_exp.add_argument("--p", type=str, required=True, help="power, e.g. 3 or 7/3")
    p_exp.add_argument("--s", type=str, default=None, help="Sobolev index override")
    return parser


def _select(scenarios, name):
    if name is None:
        return scenarios
    chosen = [sc for sc in scenarios if sc.name == name]
    if not chosen:
        raise ScenarioError(
            f"scenario {name!r} not in config; available: {[s.name for s in scenarios]}"
        )
    return chosen


def _cmd_run(args) -> int:
    scenarios = _select(load_config(args.config), args.scenario)
    all_ok = True
    for sc in scenarios:
        report = run(sc, args.out, args.deterministic, args.plots)
        for check, entry in report.checks.items():
            status = "pass" if entry["passed"] else "FAIL"
            print(f"{sc.name}: {check}: {status}")
        all_ok = all_ok and report.all_passed
    return 0 if all_ok else 1


def _parse_vary(items) -> dict:
    vary = {}
    for item in items:
        if "=" not in item:
            raise ScenarioError(f"bad --vary {item!r}; expected key=v1,v2,...")
        key, vals = item.split("=", 1)
        if (key := key.strip()) in vary:
            raise ScenarioError(f"--vary {key} given twice; list all its values in one --vary")
        vary[key] = [v.strip() for v in vals.split(",") if v.strip()]
    return vary


def _cmd_sweep(args) -> int:
    scenarios = _select(load_config(args.config), args.scenario)
    if len(scenarios) != 1:
        raise ScenarioError("sweep needs exactly one scenario; use --scenario")
    aggregate = sweep(scenarios[0], _parse_vary(args.vary), args.out, args.deterministic)
    ok = True
    for member in aggregate["members"]:
        if "error" in member:
            print(f"{member['name']}: ERROR: {member['error']}")
            ok = False
        else:
            status = "pass" if member["passed"] else "FAIL"
            print(f"{member['scenario']['name']}: {status}")
            ok = ok and member["passed"]
    for check, order in aggregate["orders"].items():
        print(f"order[{check}] = {order:.3f}")
    for check, entry in aggregate["stability"].items():
        print(f"stability[{check}] = {entry['max_over_min']:.3f}")
    return 0 if ok else 1


def _parse_rational(flag: str, text: str) -> Fraction:
    """A finite rational such as 3, 2.5 or 7/3; anything else is a
    configuration error naming the flag."""
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ScenarioError(
            f"bad {flag} {text!r}; expected a finite rational such as 3 or 7/3"
        ) from None


def _cmd_check_exponents(args) -> int:
    n = args.n
    if n not in (1, 2, 3):
        raise ScenarioError(f"--n must be 1, 2 or 3, got {n}")
    p = _parse_rational("--p", args.p)
    if p <= 1:
        raise ScenarioError(f"--p must exceed 1, got {p}")
    s_crit = scaling_critical_exponent(n, p)
    s = s_crit if args.s is None else _parse_rational("--s", args.s)
    print(f"n = {n}, p = {p}")
    print(f"s_crit(n, p) = n/2 - 1/(p-1) = {s_crit} = {float(s_crit):.12g}")
    if 2 * s_crit < n:
        p_back = critical_power(n, s_crit)
        print(f"p_crit(n, s_crit) = 1 + 2/(n - 2 s) = {p_back} (inverse relation)")
    print(f"admissible (q, r) samples for n = {n}:")
    for q in (math.inf, 4, 6, 8):
        r = _admissible_r(n, q)
        if r is not None:
            print(f"  q = {q}, r = {r}: admissible = True")
    print(f"L^inf embedding verdicts at s = {s}:")
    for r in (3, 4, 6, math.inf):
        try:
            verdict = embedding_exponent_check(s, r)
        except ValueError:
            continue
        print(f"  r = {r}: s > 3/4 + 1/(2r) is {verdict}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        commands = {"run": _cmd_run, "sweep": _cmd_sweep, "check-exponents": _cmd_check_exponents}
        return commands[args.command](args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
