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

A `Partition` is its (D, L) stack arrays, L the widest window
(`Partition.width`), and is built from them: row i of `nodes` lists
window M_i in window order, not by global index, so a window that wraps
across a periodic end has the same layout as one that does not; the slots
past its `sizes[i]` nodes are pads (`pads`, None when every window has L
nodes). `owner_positions` gives, for every mesh node, the slot in the
flattened stack of its owner's value; the interiors are exactly those
slots. `to_stack` lays a global vector out on the stack,
`BandedSparseMatrix.restrict`/`halo` a matrix, and `gather_overwrite`
reads the owners' slots every step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .models import Mesh

__all__ = [
    "Partition",
    "make_partition",
    "gather_overwrite",
]


@dataclass(frozen=True, eq=False)
class Partition:
    """The (D, L) stack of windows M_i and the owner slot of every node.

    `nodes[i, :sizes[i]]` is M_i in window order, and `owner_positions[k]`
    is the flattened slot of `nodes` that holds node k in its owner's
    window. The constructor keeps read-only copies and checks that the
    windows are duplicate-free node lists of the mesh and that every
    owner slot is a window slot holding its node, which by itself makes
    the interiors disjoint and cover the mesh.
    """

    nodes: np.ndarray
    sizes: np.ndarray
    owner_positions: np.ndarray
    b_nominal: int = 0
    pads: Optional[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        arrays = [np.array(a) for a in
                  (self.nodes, self.sizes, self.owner_positions)]
        if not all(np.issubdtype(a.dtype, np.integer) for a in arrays):
            raise ValueError("partition arrays must hold integers")
        nodes, sizes, owners = (a.astype(np.int64, copy=False)
                                for a in arrays)
        if (nodes.ndim != 2 or sizes.shape != nodes.shape[:1]
                or owners.ndim != 1):
            raise ValueError("need a (D, L) node stack, D window sizes and "
                             "one owner position per mesh node")
        d, width = nodes.shape
        n = owners.size
        if d == 0 or sizes.min() < 1 or sizes.max() != width:
            raise ValueError(f"window sizes must lie in 1..L and reach L, "
                             f"got {sizes.tolist()} for L={width}")
        if nodes.min() < 0 or nodes.max() >= n:
            raise ValueError(f"window nodes must lie in [0, {n})")
        pads = np.arange(width) >= sizes[:, None]
        # `BandedSparseMatrix` looks window entries up by (window, node)
        key = (np.arange(d)[:, None] * n + nodes)[~pads]
        if np.unique(key).size != key.size:
            raise ValueError("a window lists a node twice")
        if (owners.min() < 0 or owners.max() >= nodes.size
                or not np.array_equal(nodes.reshape(-1)[owners], np.arange(n))
                or pads.reshape(-1)[owners].any()):
            raise ValueError("every node's owner position must be a window "
                             "slot holding that node")
        pads = pads if pads.any() else None
        for name, arr in (("nodes", nodes), ("sizes", sizes),
                          ("owner_positions", owners), ("pads", pads)):
            if arr is not None:
                arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def D(self) -> int:
        return self.nodes.shape[0]

    @property
    def width(self) -> int:
        return self.nodes.shape[1]

    @property
    def n_total(self) -> int:
        return self.owner_positions.size

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
    sizes = np.array(_block_sizes(n_axis, d))
    b_eff = 0 if d == 1 else b
    if d > 1 and periodic and b > n_axis - max(sizes):
        raise ValueError(
            f"buffer of {b} nodes per side wraps onto its own interior "
            f"(only {n_axis - max(sizes)} exterior nodes along the axis)")

    # window i: rows [lo_i, hi_i) of the axis, its interior from row start_i
    start = np.cumsum(sizes) - sizes
    lo, hi = start - b_eff, start + sizes + b_eff
    if periodic:
        hi = np.minimum(hi, lo + n_axis)
    else:
        lo, hi = np.maximum(lo, 0), np.minimum(hi, n_axis)
    counts = (hi - lo) * per_row
    slot = np.arange(counts.max())
    nodes = (lo[:, None] + slot // per_row) % n_axis * per_row + slot % per_row
    nodes[slot >= counts[:, None]] = 0
    # the interiors cover the mesh in order; node k of interior i sits at
    # slot k - lo_i per_row of window i
    first = np.arange(d) * slot.size - lo * per_row
    owners = np.repeat(first, sizes * per_row) + np.arange(mesh.n_total)
    return Partition(nodes=nodes, sizes=counts, owner_positions=owners,
                     b_nominal=b_eff)


def gather_overwrite(part: Partition, local: np.ndarray) -> np.ndarray:
    """Assemble the next global state from the local result, interiors only.

    `local` is the flattened (D, L) stack of every subdomain's result, row i
    on M_i in window order (`part.nodes`). Buffer and pad entries are
    discarded; every global index receives the value computed by its
    unique owner. The result has the dtype of `local`.
    """
    if local.shape != (part.nodes.size,):
        raise ValueError(f"expected a flattened local stack of length "
                         f"{part.nodes.size}, got shape {local.shape}")
    return local[part.owner_positions]
