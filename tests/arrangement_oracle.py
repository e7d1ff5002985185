"""The exact 2-D atlas over `FieldElem` slab values, with per-cell areas.

This is `patterns._arrangement` as it was before the cut loop moved to
integer line coordinates: every slab value is a `FieldElem` with its
fixed-point enclosure, a crossing point is interpolated along its edge with
field division and products, a comparison whose enclosures overlap takes
`_sgn` of the exact difference, and each cell's area is `_poly_area`.  The
tests use it as an oracle for the integer cut loop and the pattern areas.
"""

from __future__ import annotations

from fractions import Fraction

from slopechar.geometry import _sgn, eprime_basis
from slopechar.linalg import dot
from slopechar.patterns import _reachable_offsets, _window_polygon


def _enclosed(x):
    """A slab value with its fixed-point enclosure: (x, lo, hi), where
    lo <= 2^FILTER_BITS * x <= hi (`FieldElem.enclosure`)."""
    return (x, *x.enclosure())


def _cmp(a, b):
    """Sign of a - b for two enclosed slab values: 0 for the same value
    object, the order of the enclosures when they are disjoint, and
    otherwise the exact sign of the difference."""
    if a is b:
        return 0
    if a[2] < b[1]:
        return -1
    if a[1] > b[2]:
        return 1
    return _sgn(a[0] - b[0])


def _split(cell, k, c):
    """The two halves of a convex cell cut by the line nu_k . y = c: the part
    with nu_k . y <= c, then the part with nu_k . y >= c.  A crossing point
    gets its values by interpolation along its edge, and exactly c on the
    cut's own slab."""
    m = len(cell)
    sides = [_cmp(v[k], c) for _, v in cell]
    lo_part, hi_part = [], []
    for i in range(m):
        a, va = cell[i]
        sa, sb = sides[i], sides[(i + 1) % m]
        if sa <= 0:
            lo_part.append(cell[i])
        if sa >= 0:
            hi_part.append(cell[i])
        if sa * sb < 0:
            b, vb = cell[(i + 1) % m]
            ak = va[k][0]
            t = (ak - c[0]) / (ak - vb[k][0])
            p = tuple(pa + t * (pb - pa) for pa, pb in zip(a, b))
            v = tuple(c if j == k else _enclosed(xa[0] + t * (xb[0] - xa[0]))
                      for j, (xa, xb) in enumerate(zip(va, vb)))
            lo_part.append((p, v))
            hi_part.append((p, v))
    return lo_part, hi_part


def _extent(cell, k):
    """(min, max) of nu_k . y over the cell's vertices, as enclosed values."""
    lo = hi = cell[0][1][k]
    for _, v in cell[1:]:
        x = v[k]
        if _cmp(x, lo) < 0:
            lo = x
        elif _cmp(x, hi) > 0:
            hi = x
    return lo, hi


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _poly_area(poly):
    if len(poly) < 3:
        zero = poly[0][0] - poly[0][0] if poly else Fraction(0)
        return zero
    acc = None
    for k in range(len(poly)):
        t = _cross(poly[k], poly[(k + 1) % len(poly)])
        acc = t if acc is None else acc + t
    return abs(acc / 2)


def arrangement(s, r, w):
    """(cells, labels, masks) of the window cut by every translated slab
    boundary line that the walks of an r-pattern can cross; see
    `patterns._arrangement`."""
    b = eprime_basis(s)
    nk = len(w.slabs)
    base = [(p, tuple(_enclosed(dot(nu, p)) for nu, _, _ in w.slabs))
            for p in _window_polygon(w)]
    bits = {}
    for k, (_, lo, hi) in enumerate(w.slabs):
        bits[k, lo.num, lo.den] = 2 * k
        bits[k, hi.num, hi.den] = 2 * k + 1
    inside = sum(1 << 2 * k for k in range(nk))
    masks = {(0,) * s.n: (inside, inside << 1)}
    cells = [(base, [_extent(base, k) for k in range(nk)], inside)]
    for x in _reachable_offsets(s.n, r + 1):
        shift = b.apply(x)
        need_forbid = [0, 0]
        for k, (nu, lo, hi) in enumerate(w.slabs):
            t = dot(nu, shift)
            for side, c in enumerate((lo - t, hi - t)):
                bit = bits.get((k, c.num, c.den))
                if bit is None:
                    bit = bits[k, c.num, c.den] = len(bits)
                    cells = _cut(cells, k, _enclosed(c), 1 << bit)
                need_forbid[side] |= 1 << bit
        masks[x] = tuple(need_forbid)
    return ([[p for p, _ in cell] for cell, _, _ in cells],
            [label for _, _, label in cells], masks)


def _cut(cells, k, c, bit):
    out = []
    for cell, ext, label in cells:
        cmin, cmax = ext[k]
        if _cmp(c, cmin) <= 0:
            out.append((cell, ext, label | bit))
        elif _cmp(cmax, c) <= 0:
            out.append((cell, ext, label))
        else:
            lo_part, hi_part = _split(cell, k, c)
            for part, own, side in ((lo_part, (cmin, c), label),
                                    (hi_part, (c, cmax), label | bit)):
                out.append((part, [own if j == k else _extent(part, j)
                                   for j in range(len(ext))], side))
    return out


def cell_areas(cells):
    """`_poly_area` of every cell."""
    return [_poly_area(poly) for poly in cells]
