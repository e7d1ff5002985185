"""Digitization by a walk on point tuples, testing every point from scratch.

This is `tiling._digitize_at` as it was before the walk moved to packed
integer keys with enclosure sums stepped from the parent point: each
neighbour is built by tuple slicing and tested with
`LatticeMembership.status`, and each face's corners are built as tuples and
tested one by one.  The tests use it as an oracle for the packed-key walk.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import combinations
from operator import add

from slopechar.errors import SingularOffset
from slopechar.geometry import eprime_basis, window
from slopechar.tiling import (Face, LatticeMembership, _find_seed,
                              _float_pi_basis, _pi_coords)


def digitize_faces(s, offset, radius):
    """The faces of the patch of `s` at `offset` and `radius`, as a sorted
    list; raises SingularOffset where the walk meets the window boundary."""
    n, d = s.n, s.d
    b = eprime_basis(s)
    w = window(s)
    member = LatticeMembership(w, b, offset)
    basis = _float_pi_basis(s)
    unit_pi = [_pi_coords(basis, [1.0 if j == i else 0.0 for j in range(n)])
               for i in range(n)]
    step = max(math.sqrt(sum(c * c for c in u)) for u in unit_pi)
    reach = float(radius) + d * step + 2 * step

    def inball(x, r):
        p = [0.0] * d
        for j, xj in enumerate(x):
            if xj:
                for t in range(d):
                    p[t] += unit_pi[j][t] * xj
        return sum(a * a for a in p) <= r * r

    origin = (0,) * n
    st = member.status(origin)
    if st == 0:
        raise SingularOffset("seed vertex on window boundary; perturb the offset")
    if st < 0:
        origin = _find_seed(member, b, [o + c for o, c in zip(offset, w.center)])
    frontier = deque([origin])
    inside = {origin}
    while frontier:
        v = frontier.popleft()
        for j in range(n):
            for sgn in (1, -1):
                nb = v[:j] + (v[j] + sgn,) + v[j + 1:]
                if nb in inside:
                    continue
                st = member.status(nb)
                if st == 0:
                    raise SingularOffset(
                        f"lattice point {nb} projects onto the window boundary; "
                        "perturb the offset slightly")
                if st > 0 and inball(nb, reach):
                    inside.add(nb)
                    frontier.append(nb)
    steps = [(dirs, Face((0,) * n, dirs).corners()[1:])
             for dirs in combinations(range(1, n + 1), d)]
    r = float(radius)
    faces = []
    for v in inside:
        for dirs, corner_steps in steps:
            corners = [tuple(map(add, v, step)) for step in corner_steps]
            for c in corners:
                if c not in inside:
                    st = member.status(c)
                    if st <= 0:
                        if st == 0:
                            raise SingularOffset("face corner on window boundary")
                        break
            else:
                if inball(v, r) or any(inball(c, r) for c in corners):
                    faces.append(Face(v, dirs))
    return sorted(faces)
