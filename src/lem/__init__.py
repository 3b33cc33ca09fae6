"""Local exponential time integration for semi-discretized PDEs.

The package replaces the global matrix exponential of a stiff semi-discrete
system by independent local exponentials computed on overlapping subdomains
with buffer regions. Buffer values are recomputed by their owners at the end
of every step, so the locality error is controlled by the off-diagonal decay
of the matrix exponential.
"""

from lem.sparse import BandedSparseMatrix
from lem.expm import (
    expm_dense,
    phi_dense_all,
    phi_k_dense,
    phi_action_krylov,
    PhiEvaluator,
    iserles_bound,
    verify_decay,
)
from lem.models import (
    Mesh,
    SemiDiscreteSystem,
    StabilityParams,
    BarenblattParams,
    build_advdiff_1d,
    build_advection_dirichlet_1d,
    build_schrodinger_1d,
    build_fv_advection_1d,
    build_burgers_1d,
    build_porous_1d,
    build_advdiff_2d,
    exact_advdiff_fourier,
    exact_barenblatt,
    exact_square_wave,
    stability_params,
)
from lem.partition import (
    Partition,
    make_partition,
    gather_overwrite,
)
from lem.steppers import (
    StepperConfig,
    run_lem,
    run_global,
    run_reference,
)
from lem.reports import RunReport
from lem.bench import (
    BenchCase,
    ConfigError,
    parse_config,
    run_sweep,
    error_norms,
    emit_csv,
    load_csv,
    emit_decay_profile,
)

__version__ = "0.1.0"

__all__ = [
    "BandedSparseMatrix",
    "expm_dense",
    "phi_dense_all",
    "phi_k_dense",
    "phi_action_krylov",
    "PhiEvaluator",
    "iserles_bound",
    "verify_decay",
    "Mesh",
    "SemiDiscreteSystem",
    "StabilityParams",
    "BarenblattParams",
    "build_advdiff_1d",
    "build_advection_dirichlet_1d",
    "build_schrodinger_1d",
    "build_fv_advection_1d",
    "build_burgers_1d",
    "build_porous_1d",
    "build_advdiff_2d",
    "exact_advdiff_fourier",
    "exact_barenblatt",
    "exact_square_wave",
    "stability_params",
    "Partition",
    "make_partition",
    "gather_overwrite",
    "StepperConfig",
    "run_lem",
    "run_global",
    "run_reference",
    "RunReport",
    "BenchCase",
    "ConfigError",
    "parse_config",
    "run_sweep",
    "error_norms",
    "emit_csv",
    "load_csv",
    "emit_decay_profile",
]
