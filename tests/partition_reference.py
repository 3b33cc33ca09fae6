"""A reference construction of the windows and interiors of `make_partition`.

It follows the row rule of `make_partition`'s docstring one subdomain and
one row at a time, so tests can check a partition's arrays, and drive
per-subdomain reference steppers, without reading the windows back from
the code under test.
"""

import numpy as np


def reference_windows(mesh, d, b):
    """[(M_i, D_i)] for the split of mesh axis 0 into d blocks, b-row buffers.

    M_i lists window i in window order: the rows from s_i - b up to e_i + b,
    wrapped modulo the axis length on a periodic axis (at most one full
    turn), cut at the ends on a Dirichlet axis; with d = 1 there is no
    buffer. D_i lists the interior rows [s_i, e_i); remainders go to the
    leading blocks. A row is one node of a 1D mesh and the ny nodes of one
    grid column of a 2D mesh.
    """
    n_axis = mesh.n[0]
    per_row = mesh.n_total // n_axis
    periodic = mesh.boundary[0] == "periodic"
    if d == 1:
        b = 0
    out, s = [], 0
    for i in range(d):
        e = s + n_axis // d + (1 if i < n_axis % d else 0)
        rows = []
        for r in range(s - b, e + b):
            if periodic and len(rows) < n_axis:
                rows.append(r % n_axis)
            elif not periodic and 0 <= r < n_axis:
                rows.append(r)
        window = [row * per_row + k for row in rows for k in range(per_row)]
        interior = list(range(s * per_row, e * per_row))
        out.append((np.array(window, dtype=np.int64),
                    np.array(interior, dtype=np.int64)))
        s = e
    return out
