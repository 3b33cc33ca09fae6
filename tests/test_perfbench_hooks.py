"""The benchmark's span hooks still find and exercise every entry point.

`perfbench/spans.py` wraps the package's layer entry points by name. A
refactor that renames one, or stops calling it, would otherwise show up
only as a KeyError or an exercise-gate failure of a traced benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

import lem.bench
from lem.bench import parse_config, run_sweep
from lem.models import build_burgers_1d, build_porous_1d
from lem.partition import make_partition
from lem.steppers import StepperConfig

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# porous medium with an adaptive-reference oracle, so that the oracle's
# solve_ivp runs too; ExpRB3 exercises the local nonlinear stages, and the
# composed ExpRB2 step extracts the exterior couplings (`halo`), which
# ExpRB3 never reads
POROUS = """\
[porous]
case = porous1d
n = 64
L = 10
T = 0.1
oracle = AdaptiveReference
methods = ExpRB2, ExpRB3
D = 1, 2
rows = dt=0.01 B=8
"""

# Krylov phi actions: one batched Arnoldi process per application, whose
# evaluator logs one dimension per subdomain
KRYLOV = """\
[porous-krylov]
case = porous1d
n = 64
L = 10
T = 0.1
methods = ExpRB2
phi_mode = KrylovAction
D = 1, 2
rows = dt=0.01 B=8
"""

# One D>1 cell of each step form that the `krylov-action` and
# `linear-stepping` workloads time: (config, rebuilds per cell, whether
# phi is stored). The porous ExpRB2 Krylov cell rebuilds at steps 0 and 5
# of 10; the advection-diffusion ExpEuler cell is linear and composed,
# built once.
GATED_CELLS = {
    "krylov": ("""\
[porous-krylov]
case = porous1d
n = 64
L = 10
T = 0.1
methods = ExpRB2
phi_mode = KrylovAction
D = 2
rows = dt=0.01 B=8
""", 2, False),
    "linear-composed": ("""\
[advdiff]
case = advdiff1d
n = 64
L = 10
T = 1
methods = ExpEuler
D = 2
rows = dt=0.1 B=8
""", 1, True),
}

# the entry points those gates need called inside every such cell
CELL_ENTRY_POINTS = (
    "BandedSparseMatrix.restrict", "BandedSparseMatrix.halo",
    "BandedSparseMatrix.matvec", "PhiEvaluator.apply", "gather_overwrite",
)


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_entry_point_records_calls(tmp_path):
    spans = load_spans()
    path = tmp_path / "porous.ini"
    path.write_text(POROUS)
    (case,) = parse_config(str(path))
    with spans.instrumented(spans.Tracer()) as tracer:
        reports = run_sweep(case, workers=1, timing=True)
    assert [(r.method, r.D) for r in reports] == [
        ("ExpRB2", 1), ("ExpRB2", 2), ("ExpRB3", 1), ("ExpRB3", 2)]
    assert all(r.warnings == [] for r in reports)
    silent = [name for name in spans.ENTRY_POINTS if tracer.calls(name) == 0]
    assert silent == []


def test_krylov_apply_hook_reads_batched_evaluator(tmp_path):
    spans = load_spans()
    path = tmp_path / "krylov.ini"
    path.write_text(KRYLOV)
    (case,) = parse_config(str(path))
    with spans.instrumented(spans.Tracer()) as tracer:
        reports = run_sweep(case, workers=1, timing=True)
    assert [r.D for r in reports] == [1, 2]
    assert all(r.warnings == [] for r in reports)
    applies = tracer.calls("PhiEvaluator.apply")
    assert applies == 2 * 10  # one per step and cell
    # the hook samples the last member's dimension of every application
    assert len(tracer.krylov_dims) == applies
    assert all(d > 0 for d in tracer.krylov_dims)


def cell_calls(tracer, entry_point):
    """Calls of an entry point inside cells, over all its span names."""
    return sum(stat[0] for (name, in_cell), stat in tracer.stats.items()
               if in_cell and name.split("/")[0] == entry_point)


@pytest.mark.parametrize("name", sorted(GATED_CELLS))
def test_d_above_one_cells_call_gated_entry_points(tmp_path, name):
    config, rebuilds, stored = GATED_CELLS[name]
    spans = load_spans()
    path = tmp_path / f"{name}.ini"
    path.write_text(config)
    (case,) = parse_config(str(path))
    with spans.instrumented(spans.Tracer()) as tracer:
        (report,) = run_sweep(case, workers=1, timing=True)
    assert report.D == 2 and report.warnings == []
    wanted = CELL_ENTRY_POINTS
    if stored:
        wanted += ("PhiEvaluator.dense", "expm_dense")
    silent = [e for e in wanted if cell_calls(tracer, e) == 0]
    assert silent == []
    # one extraction of each kind per rebuild, whatever D
    assert cell_calls(tracer, "BandedSparseMatrix.restrict") == rebuilds
    assert cell_calls(tracer, "BandedSparseMatrix.halo") == rebuilds


# Dense phi cells of the kinds the `dense-nonlinear` and `linear-stepping`
# gates trace, run straight through `run_lem` (no oracle): (model, method,
# D). Ten steps with a refresh every five make two rebuilds.
DENSE_CELLS = [("burgers", "ExpRB3", 1), ("burgers", "ExpRB3", 2),
               ("porous", "ExpRB2", 2)]


@pytest.mark.parametrize("kind,method,d", DENSE_CELLS)
def test_dense_rebuilds_build_once_per_window_size_and_apply(kind, method, d):
    spans = load_spans()
    system = (build_burgers_1d(64, 10.0, 0.05, sigma=0.5) if kind == "burgers"
              else build_porous_1d(64, 10.0))
    part = make_partition(system.mesh, d, 8 if d > 1 else 0)
    cfg = StepperConfig(method=method, dt=0.01, t_end=0.1,
                        jacobian_refresh_every=5)
    with spans.instrumented(spans.Tracer()) as tracer:
        report = lem.bench.run_lem(system, part, cfg)
    assert report.D == d and report.warnings == []
    rebuilds, sizes = 2, len(set(part.sizes.tolist()))
    assert cell_calls(tracer, "PhiEvaluator.dense") == rebuilds
    assert cell_calls(tracer, "expm_dense") == rebuilds * sizes
    # every rebuild's evaluator is applied before the next rebuild
    names = [tracer.names[i].split("/")[0] for i in tracer.span_name]
    builds = [i for i, name in enumerate(names) if name == "PhiEvaluator.dense"]
    for start, end in zip(builds, builds[1:] + [len(names)]):
        assert "PhiEvaluator.apply" in names[start:end]
