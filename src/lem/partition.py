"""Overlapping mesh decomposition: disjoint interiors plus buffer rings.

Each subdomain owns a contiguous interior block D_i; the local problem is
solved on M_i = D_i union B_i, where the buffer B_i absorbs the influence
of the rest of the mesh over one step. After the step only interior values
are kept, so every global degree of freedom is written by exactly one
subdomain. The drivers that restrict an operator to M_i live in `steppers`.

The drivers advance all subdomains at once on one flat local vector: the
M_i concatenated in partition order (`Partition.flat_locals`, one slice
per subdomain between consecutive `offsets`). A `Partition` computes at
construction, for every mesh node, the position in that vector of its
owner's value (`owner_positions`), and `gather_overwrite` reads it every
step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .models import Mesh
from .sparse import IndexSet

__all__ = [
    "Partition",
    "make_partition",
    "gather_overwrite",
]


@dataclass(frozen=True)
class Partition:
    """Disjoint interiors, per-subdomain buffers, and their unions."""

    D: int
    interiors: List[IndexSet]
    buffers: List[IndexSet]
    locals: List[IndexSet]
    layout: str
    n_total: int
    b_nominal: int = 0
    flat_locals: np.ndarray = field(init=False, repr=False, compare=False)
    offsets: np.ndarray = field(init=False, repr=False, compare=False)
    owner_positions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.D != len(self.interiors) or self.D != len(self.buffers):
            raise ValueError("one interior and one buffer per subdomain")
        seen = np.zeros(self.n_total, dtype=bool)
        for i in range(self.D):
            d_i = self.interiors[i].indices
            if seen[d_i].any():
                raise ValueError("interiors must be pairwise disjoint")
            seen[d_i] = True
            b_i = self.buffers[i].indices
            if np.intersect1d(d_i, b_i, assume_unique=True).size:
                raise ValueError(f"buffer of subdomain {i} overlaps its interior")
            m_i = self.locals[i].indices
            if not np.array_equal(m_i, np.union1d(d_i, b_i)):
                raise ValueError(f"local set of subdomain {i} is not D_i union B_i")
        if not seen.all():
            raise ValueError("interiors must cover every mesh index")
        offsets = np.cumsum([0] + [len(m) for m in self.locals])
        owners = np.empty(self.n_total, dtype=np.int64)
        for i, (m_i, d_i) in enumerate(zip(self.locals, self.interiors)):
            owners[d_i.indices] = offsets[i] + m_i.positions_of(d_i)
        flat = np.concatenate([m.indices for m in self.locals])
        for arr in (offsets, owners, flat):
            arr.setflags(write=False)
        object.__setattr__(self, "flat_locals", flat)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "owner_positions", owners)

    def describe(self) -> str:
        lines = [f"{self.layout}: {self.D} subdomains over {self.n_total} nodes"]
        for i in range(self.D):
            d_i, b_i = self.interiors[i], self.buffers[i]
            lines.append(
                f"  subdomain {i}: interior [{d_i.indices[0]}..{d_i.indices[-1]}] "
                f"({len(d_i)} nodes), buffer {len(b_i)} nodes"
            )
        return "\n".join(lines)

    @property
    def dof_updates_per_step(self) -> int:
        """Total degrees of freedom written per step, buffers included."""
        return len(self.flat_locals)


def _block_sizes(n: int, d: int) -> List[int]:
    base, rem = divmod(n, d)
    return [base + 1 if i < rem else base for i in range(d)]


def _buffer_for_block(start: int, stop: int, b: int, n: int,
                      periodic: bool) -> np.ndarray:
    if b == 0:
        return np.empty(0, dtype=np.int64)
    left = np.arange(start - b, start)
    right = np.arange(stop, stop + b)
    ring = np.concatenate([left, right])
    if periodic:
        ring %= n
    else:
        ring = ring[(ring >= 0) & (ring < n)]
    return np.unique(ring)


def make_partition(mesh: Mesh, d: int, b: int) -> Partition:
    """Split the mesh into d contiguous interior blocks with b-node buffers.

    1D meshes are split along their only axis (layout "blocks1d"); 2D
    meshes are split into column blocks along the first (horizontal) axis
    (layout "columns2d"), with buffers extending only along that axis and b
    counting grid columns. Periodic buffers wrap across the ends; Dirichlet
    buffers are clipped at physical boundaries. With d=1 the buffer is
    empty by construction: the single subdomain has no exterior. Remainders
    go to the leading subdomains.
    """
    if d < 1:
        raise ValueError("need at least one subdomain")
    if b < 0:
        raise ValueError("buffer size must be nonnegative")
    layout = "blocks1d" if mesh.dim == 1 else "columns2d"

    n_axis = mesh.n[0]
    periodic = mesh.boundary[0] == "periodic"
    if d > n_axis:
        raise ValueError(f"cannot split {n_axis} nodes into {d} subdomains")
    sizes = _block_sizes(n_axis, d)
    b_eff = 0 if d == 1 else b
    if d > 1 and periodic and b > n_axis - max(sizes):
        raise ValueError(
            f"buffer of {b} nodes per side wraps onto its own interior "
            f"(only {n_axis - max(sizes)} exterior nodes along the axis)")

    interiors, buffers, local_sets = [], [], []
    start = 0
    for size in sizes:
        stop = start + size
        axis_interior = np.arange(start, stop)
        axis_buffer = _buffer_for_block(start, stop, b_eff, n_axis, periodic)
        if layout == "blocks1d":
            d_i, b_i = axis_interior, axis_buffer
        else:
            # expand column indices to all rows of the flattened grid
            ny = mesh.n[1]
            d_i = (axis_interior[:, None] * ny + np.arange(ny)).reshape(-1)
            b_i = (axis_buffer[:, None] * ny + np.arange(ny)).reshape(-1)
        interiors.append(IndexSet(np.sort(d_i)))
        buffers.append(IndexSet(np.sort(b_i)))
        local_sets.append(IndexSet(np.union1d(d_i, b_i)))
        start = stop

    return Partition(D=d, interiors=interiors, buffers=buffers,
                     locals=local_sets, layout=layout,
                     n_total=mesh.n_total, b_nominal=b_eff)


def gather_overwrite(part: Partition, local_flat: np.ndarray,
                     u_next: np.ndarray) -> np.ndarray:
    """Assemble the next global state from the flat local result, interiors only.

    `local_flat` holds every subdomain's result on M_i, concatenated in
    partition order (`part.flat_locals`). Buffer results are discarded;
    every global index receives the value computed by its unique owner. The
    result has the common dtype of `local_flat` and `u_next`.
    """
    if local_flat.shape != (part.dof_updates_per_step,):
        raise ValueError(f"expected a flat local result of length "
                         f"{part.dof_updates_per_step}, got shape {local_flat.shape}")
    out = local_flat[part.owner_positions]
    dtype = np.result_type(u_next.dtype, local_flat.dtype)
    return out if out.dtype == dtype else out.astype(dtype)
