"""Realization of a coincidence by one field elimination per vector.

This is `coincidence.realize` as it was before the realization system of a
(slope, type) was eliminated once over the integers: the blocks B A_i and
the right-hand side -B c0(v) are built over Q(alpha) for every vector and
solved with `linalg.solve_right`.  The tests use it as an oracle for the
integer solver.
"""

from __future__ import annotations

from slopechar.coincidence import (Coincidence, Degenerate,
                                   InconsistentSystem, _column0,
                                   _integer_part)
from slopechar.geometry import eprime_basis
from slopechar.linalg import Matrix, solve_right


def realize(s, t, v):
    """Solve B(x_0 - x_i) = 0, i = 1..n-d, for the real entries; free real
    entries are set to 0."""
    n = s.n
    col0, a_rows = _integer_part(t)
    c0 = _column0(col0, v)
    b = eprime_basis(s)
    lhs, rhs = [], []
    for i in range(0, len(a_rows), n):
        lhs.extend((b * Matrix(a_rows[i:i + n])).rows)
        rhs.extend(-x for x in b.apply(c0[i:i + n]))
    rvals = solve_right(Matrix(lhs), rhs)
    if rvals is None:
        raise InconsistentSystem("vector is not in the coincidence lattice")
    aidx = t.a_index()
    ridx = t.r_index()
    points = []
    for i in range(len(t.subsets)):
        pt = []
        for j in range(1, s.n + 1):
            if (i, j) in aidx:
                pt.append(v[aidx[(i, j)]])
            else:
                pt.append(rvals[ridx[(i, j)]])
        points.append(tuple(pt))
    if any(points[i] == points[j]
           for i in range(len(points)) for j in range(i + 1, len(points))):
        return Degenerate(tuple(points))
    projs = [b.apply(pt) for pt in points]
    if any(q != projs[0] for q in projs[1:]):
        raise ValueError("realized points do not project together")
    return Coincidence(t, tuple(points), projs[0], tuple(v))
