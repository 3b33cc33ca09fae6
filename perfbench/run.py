"""Benchmark of the `lem` package: three INI workloads run as `lem run` runs them.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
`src/` directory. Each pass parses the workload's INI file with
`lem.bench.parse_config` and calls `run_sweep(case, workers=1,
timing=True)` on every case, in this one process, with one BLAS thread.
Passes repeat until `--seconds` have elapsed; timings are medians over
passes.

With `--trace 0` the result holds the end-to-end metrics:

* `global_s`    summed wall time of the D=1 cells (calls into `run_global`);
* `local_s`     summed wall time of the D>1 cells (calls into `run_lem`);
* `setup_s`     the rest of the pass: config parse, system build, oracle,
                partitions and report assembly;
* `peak_rss_mb` peak resident memory of this process;
* `pass_ratio`  cells that passed the accuracy gate over cells attempted.

With `--trace 1`, untraced and traced passes alternate, and the result
holds per-layer self times and exact work counts (see `spans.py`) plus
the tracing overhead. The last line of standard output is always one JSON
object with the keys correct, attempted, failed and metrics.

A cell fails if it raises (a `run failed:` warning), is missing from the
sweep, has a non-finite final state, or has a relative l2 error against
its case oracle above the ceiling in CEILINGS.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy loads BLAS. With a second thread the
# small and mid-size matrix kernels (local phi builds, Hessenberg phi)
# switch between two speeds, about 1.5x apart, with the load on the other
# cores, which makes run-to-run timings bimodal.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Workload -> entry points it is not meant to exercise. Every other entry
# point in spans.ENTRY_POINTS must record calls in its traced pass.
WORKLOADS = {
    "dense-nonlinear": (),
    "linear-stepping": ("rhs", "jacobian"),
    "krylov-action": ("PhiEvaluator.dense",),
}

# The seed scales each case's initial-data parameter by a factor drawn
# from [1 - SEED_BAND, 1 + SEED_BAND]; meshes, steps and cells never change.
SEED_BAND = 0.005
SEED_PARAM = {"porous1d": "amp"}  # every other case: "sigma"

# Ceiling on err_l2_rel per (INI section, D): 1.25 times the largest error
# measured with the seed parameter at both ends of a +-2% band, four times
# SEED_BAND, rounded up. The Krylov global rotation cell is exact up to the
# Krylov and oracle tolerances, so its ceiling is 10 times the oracle
# tolerance (1e-9).
CEILINGS = {
    "porous": {1: 2.2e-3, 5: 2.2e-3},
    "burgers": {1: 9.6e-4, 5: 9.6e-4},
    "advdiff": {1: 1.9e-3, 4: 1.9e-3, 10: 1.9e-3, 20: 1.9e-3},
    "schrodinger": {1: 4.2e-4, 4: 4.2e-4},
    "porous-krylov": {1: 2.2e-3, 5: 2.2e-3},
    "rotation": {1: 1e-8, 2: 4.2e-4, 4: 7.1e-4},
}


def run_metadata() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def load_cases(workload: str, seed: int):
    from lem.bench import parse_config
    cases = parse_config(str(HERE / "workloads" / f"{workload}.ini"))
    rng = random.Random(seed)
    for case in cases:
        key = SEED_PARAM.get(case.name, "sigma")
        case.params[key] *= 1 + rng.uniform(-SEED_BAND, SEED_BAND)
    return cases


def expected_cells(case) -> int:
    return len(case.methods) * len(case.rows) * len(case.d_values)


def cell_failures(case, reports) -> list[str]:
    """Reasons each failed cell of one case failed; missing cells count."""
    ceilings = CEILINGS[case.label]
    expected = expected_cells(case)
    bad = [f"{case.label}: {expected - len(reports)} cell(s) missing"] * (
        expected - len(reports))
    for r in reports:
        where = f"{case.label} {r.method} D={r.D} B={r.B} dt={r.dt:.4g}"
        if any(w.startswith("run failed:") for w in r.warnings):
            bad.append(f"{where}: {r.warnings}")
        elif r.final_state is None or not np.all(np.isfinite(r.final_state)):
            bad.append(f"{where}: non-finite final state")
        elif not r.err_l2_rel <= ceilings[r.D]:
            bad.append(f"{where}: err_l2_rel {r.err_l2_rel:.3e} above "
                       f"ceiling {ceilings[r.D]:.1e}")
    return bad


def run_pass(workload: str, seed: int, instrument) -> dict:
    """One pass over the workload's cases under the given instrumentation.

    Returns the pass wall time, the cells attempted, one message per
    failed cell (a case that raises fails all its cells) and the number
    of warnings the RunReports carry.
    """
    from lem.bench import run_sweep
    done = []
    start = time.perf_counter()
    with instrument:
        for case in load_cases(workload, seed):
            try:
                reports = run_sweep(case, workers=1, timing=True)
            except Exception as exc:  # keep measuring; the cells count as failed
                print(f"case {case.label} raised {exc!r}", file=sys.stderr)
                reports = []
            done.append((case, reports))
    wall = time.perf_counter() - start

    attempted, failures, events = 0, [], 0
    for case, reports in done:
        attempted += expected_cells(case)
        failures += cell_failures(case, reports)
        events += sum(len(r.warnings) for r in reports)
    return {"wall": wall, "attempted": attempted, "failures": failures,
            "events": events}


def _median(passes, key):
    return statistics.median(p[key] for p in passes)


def _timed_pass(workload, seed, spans) -> dict:
    acc = {"global": 0.0, "local": 0.0}
    p = run_pass(workload, seed, spans.timed_cells(acc))
    p.update(global_s=acc["global"], local_s=acc["local"],
             setup_s=p["wall"] - acc["global"] - acc["local"])
    print(f"pass {p['wall']:.3f} s: global_s {p['global_s']:.4f}  "
          f"local_s {p['local_s']:.4f}  setup_s {p['setup_s']:.4f}  "
          f"failed {len(p['failures'])}/{p['attempted']}")
    return p


def end_to_end(workload, seed, deadline, spans):
    """Untraced passes until the deadline; end-to-end metrics, medians."""
    passes = []
    while not passes or time.perf_counter() < deadline:
        passes.append(_timed_pass(workload, seed, spans))
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    glob, loc = _median(passes, "global_s"), _median(passes, "local_s")
    metrics = {
        "global_s": (glob, "s"),
        "local_s": (loc, "s"),
        "setup_s": (_median(passes, "setup_s"), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "pass_ratio": ((attempted - len(failures)) / attempted, "ratio"),
    }
    ratio = f"{glob / loc:.3f}" if loc else "undefined"
    print(f"{len(passes)} passes; fail_ratio {len(failures) / attempted:.4g}; "
          f"global_s/local_s {ratio} (the paper's headline, not gated)")
    return metrics, attempted, failures


def per_layer(workload, seed, deadline, spans, out_meta):
    """Alternate untraced and traced passes; per-layer metrics."""
    untraced, traced, failures = [], [], []
    while not traced or time.perf_counter() < deadline:
        untraced.append(_timed_pass(workload, seed, spans))
        tracer = spans.Tracer()
        p = run_pass(workload, seed, spans.instrumented(tracer))
        p["layers"] = spans.layer_metrics(tracer, p["events"])
        print(f"traced pass {p['wall']:.3f} s: cell wall "
              f"{tracer.cell_wall:.4f} s, {len(tracer.span_name)} spans")
        gap = spans.self_time_gap(tracer)
        if abs(gap) > 1e-6:
            failures.append(f"self times miss the traced cell wall by {gap:.3e} s")
        traced.append(p)
    for name in spans.ENTRY_POINTS:
        if name not in WORKLOADS[workload] and not tracer.calls(name):
            failures.append(f"entry point {name} recorded no calls")

    metrics = {}
    for name, (value, unit) in traced[-1]["layers"].items():
        values = [p["layers"][name][0] for p in traced]
        if unit == "s":
            value = statistics.median(values)
        elif len(set(values)) > 1:
            failures.append(f"count {name} differs between passes: {values}")
        metrics[name] = (value, unit)
    metrics["trace.overhead_s"] = (
        _median(traced, "wall") - _median(untraced, "wall"), "s")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{workload}.txt.gz", out_meta)
    every = untraced + traced
    attempted = sum(p["attempted"] for p in every)
    failures += [f for p in every for f in p["failures"]]
    return metrics, attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "lem" / "__init__.py").is_file():
        print(f"error: no lem package under {src}; run from the root of a "
              "source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import spans

    meta = run_metadata()
    meta.update(workload=args.workload, seed=args.seed, trace=args.trace)
    print("meta " + json.dumps(meta))
    deadline = time.perf_counter() + args.seconds
    if args.trace:
        metrics, attempted, failures = per_layer(
            args.workload, args.seed, deadline, spans, meta)
    else:
        metrics, attempted, failures = end_to_end(
            args.workload, args.seed, deadline, spans)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for reason in sorted(set(failures)):
        print(f"FAILED: {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
