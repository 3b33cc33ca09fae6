"""Overlapping mesh decomposition: disjoint interiors, each inside a window of rows.

A row is one index of mesh axis 0: one node of a 1D mesh, the ny nodes of
one grid column of a 2D mesh (x-major flattening). Subdomain i owns the
interior rows [s_i, e_i), a contiguous range of global indices, and its
local problem is solved on the window of rows [s_i - B, e_i + B), where
the buffer rows absorb the influence of the rest of the mesh over one
step. On a periodic axis the window wraps modulo n; on a Dirichlet axis
it is cut at the ends. After the step only interior values are kept, so
every global degree of freedom is written by exactly one subdomain. The
drivers that step the windows live in `steppers`.

M_i lists its nodes in window order, not by global index, so a window
that wraps across a periodic end has the same layout as one that does
not, and its interior sits at a fixed offset inside it. The drivers
advance all subdomains at once on one (D, L) stack, L the widest window
(`Partition.width`): row i holds M_i in window order (`nodes`, the
global index of every slot) and zeros after its `sizes[i]` nodes
(`pads`, None when every window has L nodes). `to_stack` lays a global
vector out that way, `BandedSparseMatrix.restrict`/`halo` a matrix. A
`Partition` computes at construction, for every mesh node, the position
in the flattened stack of its owner's value (`owner_positions`), and
`gather_overwrite` reads it every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

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
    """Disjoint interiors and the windows M_i they are solved on."""

    D: int
    interiors: List[IndexSet]
    locals: List[IndexSet]
    n_total: int
    b_nominal: int = 0
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    pads: Optional[np.ndarray] = field(init=False, repr=False, compare=False)
    sizes: np.ndarray = field(init=False, repr=False, compare=False)
    owner_positions: np.ndarray = field(init=False, repr=False, compare=False)
    width: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.D != len(self.interiors) or self.D != len(self.locals):
            raise ValueError("one interior and one window per subdomain")
        sizes = np.array([len(m_i) for m_i in self.locals])
        width = int(sizes.max())
        nodes = np.zeros((self.D, width), dtype=np.int64)
        owners = np.full(self.n_total, -1, dtype=np.int64)
        for i, (m_i, d_i) in enumerate(zip(self.locals, self.interiors)):
            m, d = m_i.indices, d_i.indices
            if np.any(owners[d] >= 0):
                raise ValueError("interiors must be pairwise disjoint")
            lead = int(np.argmax(m == d[0]))
            if not np.array_equal(m[lead:lead + d.size], d):
                raise ValueError(
                    f"interior of subdomain {i} is not a run of its window")
            owners[d] = i * width + lead + np.arange(d.size)
            nodes[i, :m.size] = m
        if np.any(owners < 0):
            raise ValueError("interiors must cover every mesh index")
        pads = np.arange(width) >= sizes[:, None]
        pads = pads if pads.any() else None
        for arr in (nodes, pads, sizes, owners):
            if arr is not None:
                arr.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "pads", pads)
        object.__setattr__(self, "sizes", sizes)
        object.__setattr__(self, "owner_positions", owners)
        object.__setattr__(self, "width", width)

    @property
    def dof_updates_per_step(self) -> int:
        """Total degrees of freedom written per step, buffers included."""
        return int(self.sizes.sum())

    def to_stack(self, x: np.ndarray) -> np.ndarray:
        """The (D, L) stack of the global vector x: x on M_i in window order
        at the front of row i, zeros at the pads."""
        out = x[self.nodes]
        if self.pads is not None:
            out[self.pads] = 0
        return out


def _block_sizes(n: int, d: int) -> List[int]:
    base, rem = divmod(n, d)
    return [base + 1 if i < rem else base for i in range(d)]


def make_partition(mesh: Mesh, d: int, b: int) -> Partition:
    """Split mesh axis 0 into d contiguous interior blocks with b-row buffers.

    Subdomain i owns the rows [s_i, e_i) of axis 0 and is solved on the
    window [s_i - b, e_i + b), its nodes listed in window order. A row is
    one node of a 1D mesh and one grid column (ny nodes) of a 2D mesh, so
    1D and 2D meshes are split alike and b counts rows. Periodic windows
    wrap across the ends, and stop after n rows where their two flanks
    meet; Dirichlet windows are cut at the physical boundaries. With d=1
    the window is the whole mesh: the single subdomain has no exterior.
    Remainders go to the leading subdomains.
    """
    if d < 1:
        raise ValueError("need at least one subdomain")
    if b < 0:
        raise ValueError("buffer size must be nonnegative")

    n_axis = mesh.n[0]
    per_row = mesh.n_total // n_axis
    periodic = mesh.boundary[0] == "periodic"
    if d > n_axis:
        raise ValueError(f"cannot split {n_axis} nodes into {d} subdomains")
    sizes = _block_sizes(n_axis, d)
    b_eff = 0 if d == 1 else b
    if d > 1 and periodic and b > n_axis - max(sizes):
        raise ValueError(
            f"buffer of {b} nodes per side wraps onto its own interior "
            f"(only {n_axis - max(sizes)} exterior nodes along the axis)")

    interiors, windows = [], []
    start = 0
    for size in sizes:
        stop = start + size
        lo, hi = start - b_eff, stop + b_eff
        if periodic:
            hi = min(hi, lo + n_axis)
        else:
            lo, hi = max(lo, 0), min(hi, n_axis)
        rows = np.arange(lo, hi) % n_axis
        nodes = rows[:, None] * per_row + np.arange(per_row)
        interiors.append(IndexSet(np.arange(start * per_row, stop * per_row)))
        windows.append(IndexSet(nodes.reshape(-1)))
        start = stop

    return Partition(D=d, interiors=interiors, locals=windows,
                     n_total=mesh.n_total, b_nominal=b_eff)


def gather_overwrite(part: Partition, local: np.ndarray,
                     u_next: np.ndarray) -> np.ndarray:
    """Assemble the next global state from the local result, interiors only.

    `local` is the flattened (D, L) stack of every subdomain's result, row i
    on M_i in window order (`part.nodes`). Buffer and pad entries are
    discarded; every global index receives the value computed by its
    unique owner. The result has the common dtype of `local` and `u_next`.
    """
    if local.shape != (part.nodes.size,):
        raise ValueError(f"expected a flattened local stack of length "
                         f"{part.nodes.size}, got shape {local.shape}")
    out = local[part.owner_positions]
    dtype = np.result_type(u_next.dtype, local.dtype)
    return out if out.dtype == dtype else out.astype(dtype)
