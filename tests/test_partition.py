"""Partitioning: interiors, windows of rows, interior positions, and gathering."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lem import (
    Mesh,
    Partition,
    build_advdiff_1d,
    build_porous_1d,
    gather_overwrite,
    make_partition,
)
from partition_reference import reference_windows


def window(part, i):
    """Window i of the partition under test, in window order."""
    return part.nodes[i, :part.sizes[i]]


def interior_sizes(part):
    """How many nodes each window owns, from the partition under test."""
    return np.bincount(part.owner_positions // part.width, minlength=part.D)


class TestMakePartition:
    def test_uniform_blocks(self):
        part = make_partition(Mesh.line(400, 10.0), 8, 18)
        assert part.D == 8
        assert np.all(interior_sizes(part) == 50)
        assert np.all(part.sizes == 86)
        assert part.dof_updates_per_step == 400 + 2 * 18 * 8

    def test_four_blocks(self):
        part = make_partition(Mesh.line(400, 10.0), 4, 15)
        assert np.all(interior_sizes(part) == 100)
        assert np.all(part.sizes == 130)

    def test_uneven_sizes(self):
        part = make_partition(Mesh.line(100, 10.0), 3, 4)
        assert sorted(interior_sizes(part)) == [33, 33, 34]
        assert interior_sizes(part).sum() == 100

    def test_interiors_disjoint_cover(self):
        mesh = Mesh.line(127, 10.0)
        part = make_partition(mesh, 5, 7)
        # every node has its own slot, and that slot holds it
        pos = part.owner_positions
        assert pos.shape == (127,) and np.unique(pos).size == 127
        assert np.array_equal(part.nodes.reshape(-1)[pos], np.arange(127))
        for i, (_, d_i) in enumerate(reference_windows(mesh, 5, 7)):
            assert np.array_equal(np.flatnonzero(pos // part.width == i), d_i)

    def test_periodic_buffer_wraps(self):
        part = make_partition(Mesh.line(40, 10.0), 4, 3)
        # window order: wraps below 0, then runs past the interior
        assert window(part, 0).tolist() == [37, 38, 39] + list(range(13))

    def test_dirichlet_buffer_clips(self):
        part = make_partition(Mesh.line(40, 10.0, boundary="dirichlet"), 4, 3)
        assert window(part, 0).tolist() == list(range(13))  # nothing below 0
        assert window(part, 3).tolist() == list(range(27, 40))

    def test_single_domain_degenerate(self):
        part = make_partition(Mesh.line(64, 10.0), 1, 9)
        # no buffer: the one window is the mesh, and owns every node
        assert part.nodes.tolist() == [list(range(64))] and part.pads is None
        assert np.array_equal(part.owner_positions, np.arange(64))
        assert part.b_nominal == 0
        assert part.dof_updates_per_step == 64

    # windows [0..5] and [3..7] of 8 nodes, the second padded by one slot;
    # nodes 0-3 are owned by window 0 (slots 0-3), 4-7 by window 1 (7-10)
    VALID = dict(nodes=[[0, 1, 2, 3, 4, 5], [3, 4, 5, 6, 7, 0]],
                 sizes=[6, 5], owner_positions=[0, 1, 2, 3, 7, 8, 9, 10])

    def test_valid_arrays_accepted(self):
        part = Partition(**self.VALID, b_nominal=2)
        assert (part.D, part.width, part.n_total) == (2, 6, 8)
        assert part.pads.tolist() == [[False] * 6, [False] * 5 + [True]]
        assert part.dof_updates_per_step == 11 and part.b_nominal == 2
        with pytest.raises(ValueError):
            part.nodes[0, 0] = 1  # read-only copies

    def test_inconsistent_partition_rejected(self):
        # one case per rule, each breaking only that rule of VALID
        sizes, span = "window sizes must lie in 1..L", "must lie in \\[0, "
        twice, owner = "lists a node twice", "owner position must be a window"
        shape, dtype = "node stack", "must hold integers"
        for rule, change in (
            # sizes lie in 1..L, and their max is L
            (sizes, dict(nodes=[list(range(6)), [0] * 6], sizes=[6, 0],
                         owner_positions=list(range(6)))),  # empty window
            (sizes, dict(sizes=[7, 5])),  # above L
            (sizes, dict(nodes=[[0, 1, 2, 3, 4, 5, 0], [3, 4, 5, 6, 7, 0, 0]],
                         owner_positions=[0, 1, 2, 3, 8, 9, 10, 11])),
            # window nodes lie in [0, n), pads included (`to_stack` reads them)
            (span, dict(nodes=[list(range(8)) + [20]], sizes=[9],
                        owner_positions=list(range(8)))),
            (span, dict(nodes=[[0, 1, 2, 3, 4, 5], [3, 4, 5, 6, 7, -1]])),
            # window nodes are distinct within a window
            (twice, dict(nodes=[[0, 1, 2, 3, 4, 5], [3, 4, 4, 6, 7, 0]],
                         owner_positions=[0, 1, 2, 3, 4, 5, 9, 10])),
            # the owner slot of node k is a live slot that holds k
            (owner, dict(owner_positions=[0, 1, 2, 3, 1, 8, 9, 10])),  # shared
            (owner, dict(owner_positions=[0, 1, 2, 3, 7, 8, 9, 12])),  # past
            (owner, dict(owner_positions=[-12, 1, 2, 3, 7, 8, 9, 10])),  # wraps
            (owner, dict(nodes=[[0, 1, 2, 3, 4, 5], [3, 4, 5, 6, 7, 7]],
                         owner_positions=[0, 1, 2, 3, 7, 8, 9, 11])),  # a pad
            # shapes and dtypes
            (shape, dict(nodes=list(range(8)), sizes=[8])),
            (shape, dict(sizes=[6, 5, 5])),
            (shape, dict(owner_positions=[[0, 1, 2, 3], [7, 8, 9, 10]])),
            (dtype, dict(nodes=[[0.0, 1, 2, 3, 4, 5], [3, 4, 5, 6, 7, 0]])),
        ):
            with pytest.raises(ValueError, match=rule):
                Partition(**{**self.VALID, **change})

    def test_window_order_translation_invariant(self):
        # every window, wrapped or not, restricts to the same local operator
        system = build_advdiff_1d(400, 10.0, 1.0, 0.025)
        a = system.linear_matrix
        for d in (4, 10, 20):
            for b in (8, 15):
                part = make_partition(system.mesh, d, b)
                stack = a.restrict(part.nodes, part.pads)
                # block i holds the entries of rows i L ... (i + 1) L - 1
                width = part.width
                block = stack.rows // width
                assert np.array_equal(block, stack.cols // width)
                ref = block == 0
                for i in range(1, d):
                    loc = block == i
                    assert np.array_equal(stack.rows[loc] - i * width,
                                          stack.rows[ref])
                    assert np.array_equal(stack.cols[loc] - i * width,
                                          stack.cols[ref])
                    assert np.array_equal(stack.vals[loc], stack.vals[ref])

    def test_overlapping_buffers_rejected_periodic(self):
        # two periodic subdomains cannot carry buffers wider than the gap
        mesh = Mesh.line(40, 10.0)
        make_partition(mesh, 2, 20)  # maximal overlap is still representable
        with pytest.raises(ValueError):
            make_partition(mesh, 2, 21)

    def test_interior_positions(self):
        # owners sit at i L + lead in the flattened stack, lead the buffer
        # rows in front of the interior (none at a clipped Dirichlet start)
        for boundary, leads in (("periodic", (5, 5, 5)),
                                ("dirichlet", (0, 5, 5))):
            mesh = Mesh.line(60, 10.0, boundary=boundary)
            part = make_partition(mesh, 3, 5)
            ref = reference_windows(mesh, 3, 5)
            for i, (lead, (m_i, d_i)) in enumerate(zip(leads, ref)):
                assert np.array_equal(part.owner_positions[d_i],
                                      i * part.width + lead + np.arange(20))
                pos = part.owner_positions[d_i] - i * part.width
                assert np.array_equal(m_i[pos], d_i)

    def test_columns_layout_2d(self):
        mesh = Mesh.grid(24, 10, 10.0, 5.0)
        part = make_partition(mesh, 4, 3)
        # strips of 6 columns, each column ny cells, buffered by 3 columns
        assert np.all(interior_sizes(part) == 60)
        assert part.sizes[1] == (6 + 6) * 10
        # whole columns: window 1 spans columns 3..14, window 0 is cut at 0
        assert window(part, 1).tolist() == list(range(30, 150))
        assert window(part, 0).tolist() == list(range(90))


def stack_result(part, value_of):
    """A flattened local stack whose row of subdomain i is value_of(i)."""
    return np.repeat([value_of(i) for i in range(part.D)], part.width)


class TestGatherOverwrite:
    def test_interiors_only(self):
        mesh = Mesh.line(24, 10.0)
        part = make_partition(mesh, 3, 4)
        out = gather_overwrite(part, stack_result(part, lambda i: i + 1.0))
        for i, (_, d_i) in enumerate(reference_windows(mesh, 3, 4)):
            assert np.all(out[d_i] == i + 1)

    def test_rejects_wrong_lengths(self):
        part = make_partition(Mesh.line(24, 10.0), 3, 4)
        good = stack_result(part, float)
        for bad in (good[:-1], np.zeros(24), np.zeros((1, len(good)))):
            with pytest.raises(ValueError):
                gather_overwrite(part, bad)
        # a clipped split: the sum of window sizes is not the stack length
        clipped = make_partition(build_porous_1d(64, 10.0).mesh, 4, 6)
        with pytest.raises(ValueError):
            gather_overwrite(clipped, np.zeros(100))


@st.composite
def meshes_and_splits(draw):
    """A small 1D or 2D mesh, periodic or Dirichlet, with a valid (D, B)."""
    dim = draw(st.sampled_from((1, 2)))
    boundary = draw(st.sampled_from(("periodic", "dirichlet")))
    n_axis = draw(st.integers(4, 48))
    if dim == 1:
        mesh = Mesh.line(n_axis, 10.0, boundary=boundary)
    else:
        mesh = Mesh.grid(n_axis, draw(st.integers(4, 6)), 10.0, 5.0,
                         boundary=boundary)
    d = draw(st.integers(1, min(8, n_axis)))
    b_max = 6
    if boundary == "periodic" and d > 1:
        b_max = min(b_max, n_axis - -(-n_axis // d))
    return mesh, d, draw(st.integers(0, max(b_max, 0)))


class TestPartitionProperties:
    @settings(max_examples=200, deadline=None)
    @given(meshes_and_splits())
    def test_arrays_match_reference(self, case):
        # make_partition's arrays are the windows and interiors of the
        # row rule: row i of `nodes` is M_i, and node k of D_i is owned at
        # its position in M_i
        mesh, d, b = case
        part = make_partition(mesh, d, b)
        ref = reference_windows(mesh, d, b)
        width = max(m_i.size for m_i, _ in ref)
        assert part.nodes.shape == (d, width)
        assert part.sizes.tolist() == [m_i.size for m_i, _ in ref]
        assert part.b_nominal == (0 if d == 1 else b)
        want = np.full(mesh.n_total, -1)
        for i, (m_i, d_i) in enumerate(ref):
            assert np.array_equal(window(part, i), m_i)
            slot_of = {node: j for j, node in enumerate(m_i.tolist())}
            want[d_i] = [i * width + slot_of[k] for k in d_i.tolist()]
        assert np.array_equal(part.owner_positions, want)

    @settings(max_examples=200, deadline=None)
    @given(meshes_and_splits())
    def test_invariants(self, case):
        mesh, d, b = case
        part = make_partition(mesh, d, b)
        ref = reference_windows(mesh, d, b)
        n = mesh.n_total
        owner = np.full(n, -1)
        for i, (_, d_i) in enumerate(ref):
            assert np.all(owner[d_i] == -1)  # disjoint
            owner[d_i] = i
        assert np.all(owner >= 0)  # cover
        # unclipped: no Dirichlet end, and the two buffer flanks stay apart
        n_axis, rows = mesh.n[0], n // mesh.n[0]
        max_size = -(-n_axis // d)
        if d == 1 or (mesh.boundary[0] == "periodic"
                      and 2 * b <= n_axis - max_size):
            assert part.dof_updates_per_step == n + 2 * part.b_nominal * d * rows

        # the (D, L) stack: row i of `nodes` is M_i in window order, and
        # `pads` marks the slots past it, None when every window has L nodes
        sizes = [m_i.size for m_i, _ in ref]
        width = part.width
        assert width == max(sizes) and part.nodes.shape == (d, width)
        assert part.dof_updates_per_step == sum(sizes)
        assert (part.pads is None) == all(s == width for s in sizes)
        pads = np.zeros((d, width), bool) if part.pads is None else part.pads
        for i, (m_i, _) in enumerate(ref):
            assert np.array_equal(part.nodes[i, :sizes[i]], m_i)
            assert np.array_equal(pads[i], np.arange(width) >= sizes[i])
        # to_stack puts zeros exactly at the pads
        assert np.array_equal(part.to_stack(np.arange(1, n + 1)) == 0, pads)
        # each window is a run of whole rows, consecutive modulo n_axis
        for i in range(d):
            r = window(part, i).reshape(-1, rows)
            assert np.array_equal(r, r[:, :1] + np.arange(rows))
            assert np.all(np.diff(r[:, 0] // rows) % n_axis == 1)
        pos = part.owner_positions
        assert np.array_equal(part.nodes.reshape(-1)[pos], np.arange(n))
        assert not pads.reshape(-1)[pos].any()
        # each node's value is read from its owner's row of the stack
        assert np.array_equal(pos // width, owner)

    @settings(max_examples=50, deadline=None)
    @given(meshes_and_splits())
    def test_gather_keeps_owner_values(self, case):
        part = make_partition(*case)
        stack = 1000.0 * np.arange(part.D)[:, None] + part.nodes
        if part.pads is not None:
            stack[part.pads] = np.nan  # never read
        out = gather_overwrite(part, stack.reshape(-1))
        for i, (_, d_i) in enumerate(reference_windows(*case)):
            assert np.array_equal(out[d_i], 1000.0 * i + d_i)

    @settings(max_examples=100, deadline=None)
    @given(meshes_and_splits(), st.booleans(), st.integers(0, 2**32 - 1))
    def test_stack_round_trip(self, case, complex_, seed):
        # the owners' slots of the stack of x give back x bitwise, and the
        # stack holds zeros exactly at the pads
        part = make_partition(*case)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(part.n_total) + 0.5
        if complex_:
            x = x + 1j * rng.standard_normal(part.n_total)
        stack = part.to_stack(x)
        assert stack.shape == (part.D, part.width) and stack.dtype == x.dtype
        out = gather_overwrite(part, stack.reshape(-1))
        assert out.dtype == x.dtype and out.tobytes() == x.tobytes()
        pads = (np.zeros(stack.shape, bool) if part.pads is None
                else part.pads)
        assert np.array_equal(stack == 0, pads)

