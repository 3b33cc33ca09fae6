"""Run-level result records shared by the integrators and the bench harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

__all__ = ["RunReport"]


@dataclass
class RunReport:
    """Outcome of one integration run.

    Error fields are filled in by whoever owns the oracle (the bench sweep
    or a test); the integrators report timing, configuration, and state.
    ``wall_seconds`` times the one stepping loop of every method, phi
    builds and factorizations included, oracle computation and I/O excluded.
    """

    case: str
    method: str
    D: int
    B: int
    courant: float
    mu: float
    dt: float
    wall_seconds: float
    dof_updates_per_step: int
    final_state: Optional[np.ndarray] = field(default=None, repr=False)
    err_l2_rel: float = float("nan")
    err_linf_rel: float = float("nan")
    krylov_avg_dim: float = float("nan")
    warnings: List[str] = field(default_factory=list)
    trajectory: Optional[list] = field(default=None, repr=False)
