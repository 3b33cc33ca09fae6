"""Command line front end.

    lem run <config.ini> [--out report.csv] [--workers N --no-timing]
    lem decay <case> --courant <c> [--out profile.csv]
    lem verify

Exit codes: 0 on success, 1 on hard errors (bad config, failed runs),
2 when the acceptance suite reports failures.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import subprocess
import sys

from .bench import (ConfigError, _CASES, emit_csv, emit_decay_profile,
                    parse_config, run_sweep)


def _cmd_run(args) -> int:
    if args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 1
    if args.workers > 1 and not args.no_timing:
        print("error: --workers N needs --no-timing", file=sys.stderr)
        return 1
    if args.workers > 1 and "1" not in (os.environ.get(var, "").strip() for var in
                                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")):
        print(f"warning: --workers {args.workers} runs {args.workers} cells at "
              "once, each on every BLAS thread; start lem with "
              "OPENBLAS_NUM_THREADS=1 (or OMP_NUM_THREADS=1), or the run can "
              "be slower than with one worker", file=sys.stderr)
    try:
        cases = parse_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not cases:
        print(f"error: {args.config} declares no cases", file=sys.stderr)
        return 1

    reports = []
    for case in cases:
        print(f"case {case.label} ({case.name}): "
              f"{len(case.methods)} method(s), {len(case.rows)} row(s), "
              f"D in {case.d_values}")
        try:
            reports.extend(run_sweep(case, workers=args.workers,
                                     timing=not args.no_timing))
        except Exception as exc:
            print(f"error: case {case.label} failed: {exc}", file=sys.stderr)
            return 1
    emit_csv(reports, args.out)
    failed = sum(1 for r in reports if any("run failed" in w for w in r.warnings))
    print(f"wrote {len(reports)} rows to {args.out}"
          + (f" ({failed} failed runs)" if failed else ""))
    return 1 if failed else 0


def _cmd_decay(args) -> int:
    if not (math.isfinite(args.courant) and args.courant > 0):
        print("error: --courant must be positive and finite", file=sys.stderr)
        return 1
    if args.case not in _CASES:
        print(f"error: unknown case {args.case!r} "
              f"(known: {', '.join(sorted(_CASES))})", file=sys.stderr)
        return 1
    reg = _CASES[args.case]
    system = reg["build"](dict(reg["params"]))
    speed = system.wave_speed(system.initial)
    if speed == 0:
        print(f"error: case {args.case} has no advective speed; "
              "a Courant number does not set its step", file=sys.stderr)
        return 1
    dt = args.courant * min(system.mesh.dx) / speed
    try:
        emit_decay_profile(system, dt, args.out)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote decay profile for {args.case} at C={args.courant} to {args.out}")
    return 0


def _find_acceptance(start: str):
    cur = os.path.abspath(start)
    while True:
        candidate = os.path.join(cur, "tests", "test_acceptance.py")
        if os.path.isfile(candidate):
            return candidate
        parent = os.path.dirname(cur)
        if parent == cur:
            return None
        cur = parent


def _cmd_verify(args) -> int:
    path = _find_acceptance(os.getcwd())
    if path is None:
        print("error: tests/test_acceptance.py not found above the current "
              "directory", file=sys.stderr)
        return 1
    rc = subprocess.call([sys.executable, "-m", "pytest", "-v", path])
    if rc == 0:
        return 0
    if rc == 1:  # pytest: tests ran, some failed
        return 2
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lem",
        description="local exponential time integration benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the sweeps in a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="report.csv")
    p_run.add_argument("--workers", type=int, default=1,
                       help="run cells on N threads (needs --no-timing)")
    p_run.add_argument("--no-timing", action="store_true",
                       help="skip wall clocks and allow parallel cells")
    p_run.set_defaults(func=_cmd_run)

    p_decay = sub.add_parser("decay", help="propagator decay profile for a case")
    p_decay.add_argument("case")
    p_decay.add_argument("--courant", type=float, required=True)
    p_decay.add_argument("--out", default="profile.csv")
    p_decay.set_defaults(func=_cmd_decay)

    p_verify = sub.add_parser("verify", help="run the acceptance test suite")
    p_verify.set_defaults(func=_cmd_verify)

    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(message)s")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
