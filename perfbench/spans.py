"""Span recording around the entry points of each `lem` layer.

Everything here acts from outside the package: entry points are replaced
by wrappers for the duration of a pass and restored afterwards, so the
program under test carries no timers of its own. A span is one call of a
wrapped entry point (name, start, end, parent). Spans are kept in memory
and aggregated online into self times (duration minus the time covered by
child spans) and call counts, split by whether the call ran inside a cell,
i.e. under the outermost `run_global` or `run_lem` call of the sweep.
"""

from __future__ import annotations

import gzip
import json
import math
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

import lem.bench
import lem.expm
import lem.sparse
import lem.steppers

CELL_NAMES = ("run_global", "run_lem")

# Every span name an instrumented pass can record. The exercise gate in
# run.py checks these against the calls a workload actually made.
ENTRY_POINTS = (
    "PhiEvaluator.dense", "PhiEvaluator.apply", "expm_dense",
    "BandedSparseMatrix.matvec", "BandedSparseMatrix.restrict",
    "BandedSparseMatrix.halo", "gather_overwrite", "make_partition",
    "rhs", "jacobian", "oracle", "solve_ivp", "run_global", "run_lem",
)


class Tracer:
    """In-memory span recorder with online self-time aggregation."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []   # open spans: [index, child seconds]
        self._cell_depth = 0
        # (name, in_cell) -> [calls, self seconds, total seconds]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])
        self.work = defaultdict(float)  # exact work counts from the hooks
        self.krylov_dims: list[int] = []
        self.cell_wall = 0.0
        self.origin = time.perf_counter()

    @property
    def in_cell(self) -> bool:
        return self._cell_depth > 0

    def _name(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def wrap(self, name, fn, after=None):
        """Return fn wrapped in a span; `name` may be a callable of the args.

        `after(args, kwargs, result)` runs once the span has closed, on
        calls that returned normally.
        """
        def traced(*args, **kwargs):
            label = name(args) if callable(name) else name
            root = label in CELL_NAMES and self._cell_depth == 0
            if label in CELL_NAMES:
                self._cell_depth += 1
            idx = len(self.span_name)
            self.span_name.append(self._name(label))
            self.span_parent.append(self._stack[-1][0] if self._stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [idx, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                dur = end - start
                in_cell = self._cell_depth > 0
                if label in CELL_NAMES:
                    self._cell_depth -= 1
                stat = self.stats[label, in_cell]
                stat[0] += 1
                stat[1] += dur - frame[1]
                stat[2] += dur
                if self._stack:
                    self._stack[-1][1] += dur
                if root:
                    self.cell_wall += dur
                self.span_start[idx] = start - self.origin
                self.span_end[idx] = end - self.origin
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def calls(self, entry_point: str) -> int:
        """Calls of an entry point, over all its span names (`name/variant`)."""
        return sum(stat[0] for (name, _), stat in self.stats.items()
                   if name.split("/")[0] == entry_point)

    def write(self, path, meta: dict) -> None:
        """Write the spans as gzipped text: a header, then one span a line.

        Spans are listed in the order they started; the parent column is
        the line number of the parent span (0-based), -1 for top level.
        """
        with gzip.open(path, "wt") as fh:
            fh.write(f"# meta {json.dumps(meta)}\n# name start_s end_s parent\n")
            names = self.names
            for n, p, s, e in zip(self.span_name, self.span_parent,
                                  self.span_start, self.span_end):
                fh.write(f"{names[n]} {s:.9f} {e:.9f} {p}\n")


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr: str, value) -> None:
        # a renamed entry point raises KeyError here instead of going untimed
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


@contextmanager
def timed_cells(acc: dict):
    """Untraced pass: add the wall time of each cell to acc['global'/'local'].

    `run_sweep` looks both runners up by name in `lem.bench`, so they are
    replaced there; `run_global`'s own inner `run_lem` call is not timed
    twice.
    """
    patches = _Patches()

    def timed(key, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                acc[key] += time.perf_counter() - start
        return wrapper

    try:
        patches.set(lem.bench, "run_global", timed("global", lem.bench.run_global))
        patches.set(lem.bench, "run_lem", timed("local", lem.bench.run_lem))
        yield
    finally:
        patches.undo()


@contextmanager
def instrumented(tracer: Tracer):
    """Traced pass: wrap every entry point in ENTRY_POINTS with spans.

    Functions imported by name into another module are replaced where they
    are looked up (`lem.bench`, `lem.steppers`, `lem.expm`).
    """
    t = tracer
    patches = _Patches()
    PhiEvaluator = lem.expm.PhiEvaluator
    Banded = lem.sparse.BandedSparseMatrix

    def on_apply(args, kwargs, result):
        ev = args[0]
        if ev.mode == "KrylovAction" and t.in_cell:
            t.krylov_dims.append(ev.krylov_dims[-1])

    def on_expm(args, kwargs, result):
        if t.in_cell:
            t.work["expm_dense_gn3"] += result.shape[0] ** 3 / 1e9

    def on_rhs(args, kwargs, result):
        if t.in_cell:
            t.work["rhs_dofs"] += len(args[0])

    def on_solve_ivp(args, kwargs, result):
        t.work["oracle_rhs_calls"] += result.nfev

    def on_run_lem(args, kwargs, result):
        part, cfg = args[1], args[2]
        steps = cfg.n_steps
        t.work["steps"] += steps
        t.work["local_steps"] += steps * part.D
        t.work["dof_updates"] += steps * part.dof_updates_per_step

    build = lem.bench.BenchCase.build

    def traced_build(case):
        system = build(case)
        system.rhs = t.wrap("rhs", system.rhs, on_rhs)
        system.jacobian = t.wrap("jacobian", system.jacobian)
        return system

    dense = PhiEvaluator.__dict__["dense"].__func__
    try:
        patches.set(PhiEvaluator, "dense",
                    classmethod(t.wrap("PhiEvaluator.dense", dense)))
        patches.set(PhiEvaluator, "apply", t.wrap(
            lambda args: "PhiEvaluator.apply/" + args[0].mode,
            PhiEvaluator.apply, on_apply))
        patches.set(lem.expm, "expm_dense",
                    t.wrap("expm_dense", lem.expm.expm_dense, on_expm))
        for meth in ("matvec", "restrict", "halo"):
            patches.set(Banded, meth, t.wrap(
                f"BandedSparseMatrix.{meth}", getattr(Banded, meth)))
        patches.set(lem.steppers, "gather_overwrite", t.wrap(
            "gather_overwrite", lem.steppers.gather_overwrite))
        for mod in (lem.steppers, lem.bench):
            patches.set(mod, "make_partition",
                        t.wrap("make_partition", mod.make_partition))
            patches.set(mod, "solve_ivp",
                        t.wrap("solve_ivp", mod.solve_ivp, on_solve_ivp))
            patches.set(mod, "run_lem",
                        t.wrap("run_lem", mod.run_lem, on_run_lem))
        patches.set(lem.bench, "run_global",
                    t.wrap("run_global", lem.bench.run_global))
        patches.set(lem.bench, "_oracle_state",
                    t.wrap("oracle", lem.bench._oracle_state))
        patches.set(lem.bench.BenchCase, "build", traced_build)
        yield t
    finally:
        patches.undo()


def layer_metrics(t: Tracer, events: int) -> dict:
    """Per-layer metrics of one traced pass: (value, unit) by name.

    Times are self times inside cells, except `partition.make_s` (every
    call, most of them in set-up) and `bench.oracle_s` (inclusive time of
    the oracle, which runs outside cells).
    """
    def cell(*names):
        stats = [t.stats[n, True] for n in names]
        return sum(s[0] for s in stats), sum(s[1] for s in stats)

    phi_builds, phi_build_s = cell("PhiEvaluator.dense")
    expm_calls, expm_s = cell("expm_dense")
    applies, apply_s = cell("PhiEvaluator.apply/DenseStored",
                            "PhiEvaluator.apply/KrylovAction")
    _, krylov_s = cell("PhiEvaluator.apply/KrylovAction")
    matvecs, matvec_s = cell("BandedSparseMatrix.matvec")
    extracts, extract_s = cell("BandedSparseMatrix.restrict",
                               "BandedSparseMatrix.halo")
    gathers, gather_s = cell("gather_overwrite")
    rhs_calls, rhs_s = cell("rhs")
    jac_calls, jac_s = cell("jacobian")
    _, stepper_s = cell(*CELL_NAMES)
    make_s = sum(t.stats["make_partition", c][1] for c in (True, False))
    oracle_s = sum(t.stats["oracle", c][2] for c in (True, False))
    dims = t.krylov_dims
    w = t.work
    return {
        "expm.phi_build_s": (phi_build_s, "s"),
        "expm.phi_builds": (phi_builds, "count"),
        "expm.expm_dense_s": (expm_s, "s"),
        "expm.expm_dense_calls": (expm_calls, "count"),
        "expm.expm_dense_gn3": (w["expm_dense_gn3"], "Gn3"),
        "expm.phi_apply_s": (apply_s, "s"),
        "expm.phi_applies": (applies, "count"),
        "expm.krylov_self_s": (krylov_s, "s"),
        "expm.krylov_dim_mean": (sum(dims) / len(dims) if dims else 0.0, "count"),
        "expm.krylov_dim_max": (max(dims, default=0), "count"),
        "sparse.matvec_s": (matvec_s, "s"),
        "sparse.matvec_calls": (matvecs, "count"),
        "sparse.extract_s": (extract_s, "s"),
        "sparse.extracts": (extracts, "count"),
        "partition.gather_s": (gather_s, "s"),
        "partition.gather_calls": (gathers, "count"),
        "partition.make_s": (make_s, "s"),
        "models.rhs_s": (rhs_s, "s"),
        "models.rhs_calls": (rhs_calls, "count"),
        "models.rhs_dofs": (int(w["rhs_dofs"]), "count"),
        "models.jacobian_s": (jac_s, "s"),
        "models.jacobian_calls": (jac_calls, "count"),
        "steppers.self_s": (stepper_s, "s"),
        "steppers.steps": (int(w["steps"]), "count"),
        "steppers.local_steps": (int(w["local_steps"]), "count"),
        "steppers.dof_updates": (int(w["dof_updates"]), "count"),
        "steppers.events": (events, "count"),
        "bench.oracle_s": (oracle_s, "s"),
        "bench.oracle_rhs_calls": (int(w["oracle_rhs_calls"]), "count"),
        "trace.cell_wall_s": (t.cell_wall, "s"),
    }


def self_time_gap(t: Tracer) -> float:
    """Traced cell wall minus the summed self times of all in-cell spans."""
    covered = math.fsum(s[1] for (name, in_cell), s in t.stats.items() if in_cell)
    return t.cell_wall - covered
