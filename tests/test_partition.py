"""Partitioning: interiors, buffers, interior positions, and gathering."""

import numpy as np
import pytest

from lem import (
    IndexSet,
    Mesh,
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
        first = part.buffers[0].indices
        assert 37 in first and 38 in first and 39 in first  # wraps below 0
        assert 10 in first and 12 in first  # extends past the interior

    def test_dirichlet_buffer_clips(self):
        part = make_partition(Mesh.line(40, 10.0, boundary="dirichlet"), 4, 3)
        first = part.buffers[0].indices
        assert first.min() == 10 and first.max() == 12  # nothing below 0

    def test_single_domain_degenerate(self):
        part = make_partition(Mesh.line(64, 10.0), 1, 9)
        assert len(part.buffers[0]) == 0
        assert len(part.locals[0]) == 64
        assert part.dof_updates_per_step == 64

    def test_overlapping_buffers_rejected_periodic(self):
        # two periodic subdomains cannot carry buffers wider than the gap
        mesh = Mesh.line(40, 10.0)
        make_partition(mesh, 2, 20)  # maximal overlap is still representable
        with pytest.raises(ValueError):
            make_partition(mesh, 2, 21)

    def test_interior_positions(self):
        part = make_partition(Mesh.line(60, 10.0), 3, 5)
        for i in range(3):
            pos = part.interior_positions(i)
            assert np.array_equal(part.locals[i].indices[pos],
                                  part.interiors[i].indices)

    def test_columns_layout_2d(self):
        mesh = Mesh.grid(24, 10, 10.0, 5.0)
        part = make_partition(mesh, 4, 3)
        # strips of 6 columns, each column ny cells, buffered by 3 columns
        assert all(len(s) == 60 for s in part.interiors)
        assert len(part.locals[1]) == (6 + 6) * 10
        assert part.layout == "columns2d"

    def test_describe_mentions_sizes(self):
        part = make_partition(Mesh.line(400, 10.0), 8, 18)
        text = part.describe()
        assert "8 subdomains" in text
        assert "50 nodes" in text
        assert "36 nodes" in text  # both buffer flanks


class TestGatherOverwrite:
    def test_interiors_only(self):
        mesh = Mesh.line(24, 10.0)
        part = make_partition(mesh, 3, 4)
        u = np.zeros(24)
        locals_out = []
        for i in range(3):
            v = np.full(len(part.locals[i]), float(i + 1))
            locals_out.append(v)
        out = gather_overwrite(part, locals_out, u)
        for i in range(3):
            assert np.all(out[part.interiors[i].indices] == i + 1)

    def test_rejects_wrong_lengths(self):
        part = make_partition(Mesh.line(24, 10.0), 3, 4)
        u = np.zeros(24)
        bad = [np.zeros(len(part.locals[i])) for i in range(3)]
        bad[1] = np.zeros(3)
        with pytest.raises(ValueError):
            gather_overwrite(part, bad, u)

    def test_promotes_dtype(self):
        part = make_partition(Mesh.line(12, 10.0), 2, 2)
        u = np.zeros(12)
        outs = [np.ones(len(part.locals[i]), dtype=complex) * 1j
                for i in range(2)]
        res = gather_overwrite(part, outs, u)
        assert np.iscomplexobj(res)


class TestIndexSet:
    def test_requires_sorted_unique(self):
        with pytest.raises(ValueError):
            IndexSet([3, 3, 4])
        with pytest.raises(ValueError):
            IndexSet([5, 4])

    def test_positions_subset(self):
        s = IndexSet([2, 5, 9, 14])
        sub = IndexSet([5, 14])
        assert list(s.positions_of(sub)) == [1, 3]
        with pytest.raises(ValueError):
            s.positions_of(IndexSet([5, 7]))
