"""Partitioning: interiors, windows of rows, interior positions, and gathering."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lem import (
    IndexSet,
    Mesh,
    Partition,
    build_advdiff_1d,
    build_porous_1d,
    gather_overwrite,
    make_partition,
)


class TestMakePartition:
    def test_uniform_blocks(self):
        part = make_partition(Mesh.line(400, 10.0), 8, 18)
        assert part.D == 8
        assert all(len(s) == 50 for s in part.interiors)
        assert all(len(s) == 86 for s in part.locals)
        assert part.dof_updates_per_step == 400 + 2 * 18 * 8

    def test_four_blocks(self):
        part = make_partition(Mesh.line(400, 10.0), 4, 15)
        assert all(len(s) == 100 for s in part.interiors)
        assert all(len(s) == 130 for s in part.locals)

    def test_uneven_sizes(self):
        part = make_partition(Mesh.line(100, 10.0), 3, 4)
        sizes = sorted(len(s) for s in part.interiors)
        assert sizes == [33, 33, 34]
        assert sum(len(s) for s in part.interiors) == 100

    def test_interiors_disjoint_cover(self):
        part = make_partition(Mesh.line(127, 10.0), 5, 7)
        seen = np.concatenate([s.indices for s in part.interiors])
        assert len(seen) == 127
        assert len(np.unique(seen)) == 127

    def test_periodic_buffer_wraps(self):
        part = make_partition(Mesh.line(40, 10.0), 4, 3)
        # window order: wraps below 0, then runs past the interior
        assert part.locals[0].indices.tolist() == [37, 38, 39] + list(range(13))

    def test_dirichlet_buffer_clips(self):
        part = make_partition(Mesh.line(40, 10.0, boundary="dirichlet"), 4, 3)
        assert part.locals[0].indices.tolist() == list(range(13))  # nothing below 0
        assert part.locals[3].indices.tolist() == list(range(27, 40))

    def test_single_domain_degenerate(self):
        part = make_partition(Mesh.line(64, 10.0), 1, 9)
        assert part.locals[0] == part.interiors[0]  # no buffer
        assert len(part.locals[0]) == 64
        assert part.dof_updates_per_step == 64

    def test_inconsistent_partition_rejected(self):
        d0, d1 = IndexSet(range(4)), IndexSet(range(4, 8))
        for interiors, windows in (
            ([d0, d0], [d0, d1]),                       # overlapping interiors
            ([d0, IndexSet(range(4, 7))], [d0, d1]),    # node 7 has no owner
            ([d0, d1], [d0, IndexSet([5, 4, 6, 7])]),   # interior not a run
        ):
            with pytest.raises(ValueError):
                Partition(D=2, interiors=interiors, locals=windows, n_total=8)

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
            part = make_partition(Mesh.line(60, 10.0, boundary=boundary), 3, 5)
            for i, lead in enumerate(leads):
                d_i = part.interiors[i].indices
                assert np.array_equal(part.owner_positions[d_i],
                                      i * part.width + lead + np.arange(20))
                pos = part.owner_positions[d_i] - i * part.width
                assert np.array_equal(part.locals[i].indices[pos], d_i)

    def test_columns_layout_2d(self):
        mesh = Mesh.grid(24, 10, 10.0, 5.0)
        part = make_partition(mesh, 4, 3)
        # strips of 6 columns, each column ny cells, buffered by 3 columns
        assert all(len(s) == 60 for s in part.interiors)
        assert len(part.locals[1]) == (6 + 6) * 10
        # whole columns: window 1 spans columns 3..14, window 0 is cut at 0
        assert part.locals[1].indices.tolist() == list(range(30, 150))
        assert part.locals[0].indices.tolist() == list(range(90))


def stack_result(part, value_of):
    """A flattened local stack whose row of subdomain i is value_of(i)."""
    return np.repeat([value_of(i) for i in range(part.D)], part.width)


class TestGatherOverwrite:
    def test_interiors_only(self):
        mesh = Mesh.line(24, 10.0)
        part = make_partition(mesh, 3, 4)
        u = np.zeros(24)
        out = gather_overwrite(part, stack_result(part, lambda i: i + 1.0), u)
        for i in range(3):
            assert np.all(out[part.interiors[i].indices] == i + 1)

    def test_rejects_wrong_lengths(self):
        part = make_partition(Mesh.line(24, 10.0), 3, 4)
        u = np.zeros(24)
        good = stack_result(part, float)
        for bad in (good[:-1], np.zeros(24), np.zeros((1, len(good)))):
            with pytest.raises(ValueError):
                gather_overwrite(part, bad, u)
        # a clipped split: the sum of window sizes is not the stack length
        clipped = make_partition(build_porous_1d(64, 10.0).mesh, 4, 6)
        with pytest.raises(ValueError):
            gather_overwrite(clipped, np.zeros(100), np.zeros(64))

    def test_promotes_dtype(self):
        part = make_partition(Mesh.line(12, 10.0), 2, 2)
        res = gather_overwrite(part, stack_result(part, lambda i: 1.0),
                               np.zeros(12, dtype=complex))
        assert np.iscomplexobj(res)
        res = gather_overwrite(part, stack_result(part, lambda i: 1j),
                               np.zeros(12))
        assert np.iscomplexobj(res)


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
    def test_invariants(self, case):
        mesh, d, b = case
        part = make_partition(mesh, d, b)
        n = mesh.n_total
        owner = np.full(n, -1)
        for i, d_i in enumerate(part.interiors):
            assert np.all(owner[d_i.indices] == -1)  # disjoint
            owner[d_i.indices] = i
        assert np.all(owner >= 0)  # cover
        # unclipped: no Dirichlet end, and the two buffer flanks stay apart
        n_axis, rows = mesh.n[0], n // mesh.n[0]
        max_size = -(-n_axis // d)
        if d == 1 or (mesh.boundary[0] == "periodic"
                      and 2 * b <= n_axis - max_size):
            assert part.dof_updates_per_step == n + 2 * part.b_nominal * d * rows

        # the (D, L) stack: row i of `nodes` is M_i in window order, and
        # `pads` marks the slots past it, None when every window has L nodes
        sizes = [len(m_i) for m_i in part.locals]
        width = part.width
        assert width == max(sizes) and part.nodes.shape == (d, width)
        assert part.dof_updates_per_step == sum(sizes)
        assert (part.pads is None) == all(s == width for s in sizes)
        pads = np.zeros((d, width), bool) if part.pads is None else part.pads
        for i, m_i in enumerate(part.locals):
            assert np.array_equal(part.nodes[i, :sizes[i]], m_i.indices)
            assert np.array_equal(pads[i], np.arange(width) >= sizes[i])
        # to_stack puts zeros exactly at the pads
        assert np.array_equal(part.to_stack(np.arange(1, n + 1)) == 0, pads)
        # each window is a run of whole rows, consecutive modulo n_axis
        for m_i in part.locals:
            r = m_i.indices.reshape(-1, rows)
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
        out = gather_overwrite(part, stack.reshape(-1), np.zeros(part.n_total))
        for i, d_i in enumerate(part.interiors):
            assert np.array_equal(out[d_i.indices], 1000.0 * i + d_i.indices)

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
        out = gather_overwrite(part, stack.reshape(-1), x)
        assert out.dtype == x.dtype and out.tobytes() == x.tobytes()
        pads = (np.zeros(stack.shape, bool) if part.pads is None
                else part.pads)
        assert np.array_equal(stack == 0, pads)


class TestIndexSet:
    def test_requires_sorted_unique(self):
        with pytest.raises(ValueError):
            IndexSet([3, 3, 4])
        with pytest.raises(ValueError):
            IndexSet([4, 3, 4])
        with pytest.raises(ValueError):
            IndexSet([5, -4])
        assert IndexSet([5, 4]).indices.tolist() == [5, 4]
