"""Patterns of planar tilings and their regions in the window.

A lifted pattern is a finite connected set of unit edges of Z^n.  Its region
is the intersection of window translates over the pattern's vertices; the
pattern appears at exactly the points of that region.  The r-pattern at a
window point is built from in-window walks of length r + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from operator import add, mul, sub

from .errors import InputError
from .geometry import HPolytope, Window, _sgn, eprime_basis, window
from .jsondoc import dumps
from .linalg import _is_zero, dot
from .numfield import _canonical
from .slope import Slope
from .tiling import LatticeMembership, _cleared, _slab_rows


class SingularPoint(Exception):
    """The query point is tight against some translated window boundary."""


class LiftedPattern:
    """Finite connected set of unit edges of Z^n (plus isolated vertices)."""

    __slots__ = ("edges", "_vertices")

    def __init__(self, edges, vertices=None):
        self.edges = frozenset((tuple(a), int(i)) for a, i in edges)
        verts = set()
        for a, i in self.edges:
            verts.add(a)
            verts.add(a[:i - 1] + (a[i - 1] + 1,) + a[i:])
        if vertices is not None:
            verts.update(tuple(v) for v in vertices)
        if not verts:
            raise InputError("pattern has no vertices")
        self._vertices = frozenset(verts)

    @classmethod
    def _of(cls, edges, vertices):
        """The pattern with these frozensets of normalized edges and of
        vertices, which already hold every edge's ends."""
        p = object.__new__(cls)
        p.edges = edges
        p._vertices = vertices
        return p

    def vertices(self):
        return self._vertices

    def __len__(self):
        return len(self.edges)

    def __eq__(self, other):
        return isinstance(other, LiftedPattern) and self.edges == other.edges \
            and self._vertices == other._vertices

    def __hash__(self):
        return hash((self.edges, self._vertices))

    def __le__(self, other):
        return self.edges <= other.edges

    def translated(self, t):
        return LiftedPattern._of(
            frozenset([(vec_add_int(a, t), i) for a, i in self.edges]),
            frozenset([vec_add_int(v, t) for v in self._vertices]))

    def canonical(self):
        """Translate so the lexicographically least vertex sits at 0."""
        v0 = min(self._vertices)
        return self.translated(tuple(-x for x in v0))

    def key(self):
        """The sorted edges and vertices, in place (not up to translation)."""
        return (tuple(sorted(self.edges)), tuple(sorted(self._vertices)))

    def encode(self):
        """The key of the canonical translate: equal for translates."""
        return self.canonical().key()

    def __repr__(self):
        return f"LiftedPattern({len(self.edges)} edges, {len(self._vertices)} vertices)"


def vec_add_int(u, v):
    return tuple(map(add, u, v))


def edge_between(u, v):
    """Canonical (anchor, direction) for the unit edge joining u and v."""
    diff = [b - a for a, b in zip(u, v)]
    nz = [j for j, x in enumerate(diff) if x]
    if len(nz) != 1 or abs(diff[nz[0]]) != 1:
        raise ValueError(f"{u} and {v} are not adjacent lattice points")
    i = nz[0]
    return (u, i + 1) if diff[i] == 1 else (v, i + 1)


@dataclass
class Region:
    """Intersection of window translates W - pi'(x) over pattern vertices."""
    polytope: HPolytope
    pattern: LiftedPattern
    translations: list

    def contains(self, p) -> str:
        return self.polytope.contains(p)


def pattern_region(s: Slope, p: LiftedPattern) -> Region:
    b = eprime_basis(s)
    w = window(s)
    halfspaces = []
    translations = []
    for x in sorted(p.vertices()):
        shift = b.apply(x)
        translations.append(shift)
        for nu, hi in w.halfspaces():
            halfspaces.append((nu, hi - dot(nu, shift)))
    return Region(HPolytope(halfspaces, s.n - s.d), p, translations)


# ---------------------------------------------------------------------------
# r-patterns


def r_pattern_at(s: Slope, q, r: int) -> LiftedPattern:
    """Union of all length-(r+1) in-window lifted walks from q, anchored at 0.

    q is a point of E' strictly inside the window; walk positions are
    q + B x over lattice offsets x, so the membership's offset is -q.
    """
    member = LatticeMembership(window(s), eprime_basis(s), tuple(-c for c in q))
    return _walk(s.n, r, member.status)


def _walk(n: int, r: int, status) -> LiftedPattern:
    """Union of the length-(r+1) walks from 0 in Z^n through the offsets x
    with status(x) == 1 (in the window), anchored at 0; status(x) is 1
    inside, 0 on a boundary, -1 outside."""
    origin = (0,) * n
    if status(origin) != 1:
        raise SingularPoint("base point not strictly inside the window")
    seen = {origin}
    frontier = [origin]
    edges = set()
    for _ in range(r + 1):
        nxt = []
        for x in frontier:
            for j in range(n):
                for sg in (1, -1):
                    y = x[:j] + (x[j] + sg,) + x[j + 1:]
                    st = status(y)
                    if st == 0:
                        raise SingularPoint(
                            f"walk point at offset {y} lies on a window boundary")
                    if st < 0:
                        continue
                    # the edge is anchored at its lower end
                    edges.add((x if sg > 0 else y, j + 1))
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
        frontier = nxt
    # the points reached are the origin and the ends of the edges
    return LiftedPattern._of(frozenset(edges), frozenset(seen))


# ---------------------------------------------------------------------------
# window partition by r-patterns


class _Lines:
    """Integer coordinates of the lines and points of a 2-D window's
    arrangement.

    Every line of the arrangement is nu_k . y = c for a slab k, with
    c = sum_i m_i g_ki, g_ki = nu_k . B e_i and m in Z^n: a cut at offset x
    has m = ind - x, and a window edge has m in {0, 1}^n.  So c = C / den_k
    for the integer vector C = cols_k m, with the columns and the one
    denominator of `tiling._slab_rows`, and a line is kept as (k, value, C).

    The point where the lines (k, c_k) and (j, c_j) meet is c_k u + c_j v,
    (u, v) the dual basis of (nu_k, nu_j).  Its coordinates are integer
    vectors P over one denominator `den` for the whole arrangement: P is
    U_kj C_k + V_kj C_j, with the integer matrices of the products by u and
    v.  Its slab values are integer vectors over one denominator per slab,
    V_l = N_l P with the matrix of the product by nu_l, and the value of a
    line is C scaled to that denominator.  A value is kept as (V, lo, hi)
    with its `NumberField.enclosure`; two values of one slab share their
    denominator, so they are compared by their enclosures and, where those
    overlap, by `sign_of` of the integer difference (`_cmp`).

    The set-up takes one field inverse per pair of slabs and a few products
    per pair and per slab; no later step divides."""

    def __init__(self, w: Window, b):
        self.field = field = b[0, 0].field
        self.sign_of = field.sign_of
        self.enclosure = field.enclosure
        deg = field.degree
        alpha = field.alpha

        def columns(e):
            # e alpha^i for i < degree: the columns of the product by e
            out = [e]
            for _ in range(deg - 1):
                out.append(out[-1] * alpha)
            return out

        # the window's bounds are sums of the slab's column values, so den
        # is a multiple of their denominators
        normals, dens, self.cols, self.lo, self.hi = [], [], [], [], []
        for nu, den, cols, lo, hi, _, _ in _slab_rows(w, b):
            normals.append(nu)
            dens.append(den)
            self.cols.append(cols)
            self.lo.append(_cleared(lo, den))
            self.hi.append(_cleared(hi, den))
        self.nk = nk = len(normals)
        # y = c_k u + c_j v solves nu_k . y = c_k and nu_j . y = c_j
        duals = {}
        for k, j in combinations(range(nk), 2):
            a, c = normals[k], normals[j]
            inv = (a[0] * c[1] - a[1] * c[0]).inverse()
            duals[k, j] = ([columns(c[1] * inv), columns(-(c[0] * inv))],
                           [columns(-(a[1] * inv)), columns(a[0] * inv)])
        self.den = den = math.lcm(*(
            dens[kj[side]] * e.den for kj, uv in duals.items()
            for side in (0, 1) for coord in uv[side] for e in coord))

        def product_rows(coords, scale):
            # row (t, r): coefficient r of coordinate t of the product by the
            # columns' element, from numerators over den / scale to numerators
            # over den
            return tuple(tuple(den * e.num[r] // (scale * e.den) for e in coord)
                         for coord in coords for r in range(deg))

        self.meets = [[None] * nk for _ in range(nk)]
        for (k, j), (u, v) in duals.items():
            rows_u, rows_v = product_rows(u, dens[k]), product_rows(v, dens[j])
            self.meets[k][j] = (rows_u, rows_v)
            self.meets[j][k] = (rows_v, rows_u)
        self.values, self.scales = [], []
        for nu, d in zip(normals, dens):
            coords = [columns(e) for e in nu]
            common = math.lcm(d, *(den * e.den for coord in coords for e in coord))
            self.values.append(tuple(
                tuple(common * e.num[r] // (den * e.den) for coord in coords for e in coord)
                for r in range(deg)))
            self.scales.append(common // d)

    def line(self, k, c):
        """The line nu_k . y = C / den_k, for the integer vector C = c."""
        v = tuple(x * self.scales[k] for x in c)
        return k, (v, *self.enclosure(v)), c

    def _value(self, l, p):
        v = tuple(sum(map(mul, row, p)) for row in self.values[l])
        return v, *self.enclosure(v)

    def vertex(self, p):
        """A vertex with coordinates p over `den`: (p, its slab values)."""
        return p, tuple(self._value(l, p) for l in range(self.nk))

    def meet(self, one, two):
        """The vertex where two lines of different slabs meet; the lines'
        own slabs take the lines' values."""
        k, ck, c1 = one
        j, cj, c2 = two
        rows1, rows2 = self.meets[k][j]
        p = tuple(sum(map(mul, r1, c1)) + sum(map(mul, r2, c2))
                  for r1, r2 in zip(rows1, rows2))
        return p, tuple(ck if l == k else cj if l == j else self._value(l, p)
                        for l in range(self.nk))

    def point(self, p):
        """The point with coordinates p over `den`, as field elements."""
        deg = self.field.degree
        return tuple(_canonical(self.field, p[t:t + deg], self.den)
                     for t in range(0, len(p), deg))


def _cmp(a, b, sign_of):
    """Sign of a - b for two values (V, lo, hi) of one slab: 0 for the same
    value object, the order of the enclosures when they are disjoint, and
    otherwise `sign_of` of the integer difference."""
    if a is b:
        return 0
    if a[2] < b[1]:
        return -1
    if a[1] > b[2]:
        return 1
    return sign_of(list(map(sub, a[0], b[0])))


def _split(lines, verts, edges, cut):
    """The two halves of a convex cell cut by the line `cut` of slab k: the
    part with nu_k . y <= c, then the part with nu_k . y >= c, each as
    (vertices, edge lines).

    A cell is an ordered list of vertices (p, values), `values` holding the
    slab value nu_j . p of every slab j, and the line of the edge from each
    vertex to the next.  A crossing point is the meet of the cut and the
    edge's line.  An edge of a half lies on the line of the cell's edge it
    is part of, or on the cut: the edge leaving a vertex on the cut, or
    leaving a crossing point, toward the other side.  The halves hold
    distinct vertices of the cell and crossing points strictly inside
    distinct edges, and the cut meets the cell's interior, so each half has
    at least 3 distinct vertices."""
    k, c, _ = cut
    sign_of = lines.sign_of
    sides = [_cmp(v[k], c, sign_of) for _, v in verts]
    m = len(verts)
    lo_verts, lo_edges, hi_verts, hi_edges = [], [], [], []
    for i in range(m):
        edge = edges[i]
        sa, sb = sides[i], sides[i + 1 - m]
        if sa <= 0:
            lo_verts.append(verts[i])
            lo_edges.append(cut if sa == 0 and sb > 0 else edge)
        if sa >= 0:
            hi_verts.append(verts[i])
            hi_edges.append(cut if sa == 0 and sb < 0 else edge)
        if sa * sb < 0:
            x = lines.meet(cut, edge)
            lo_verts.append(x)
            lo_edges.append(cut if sb > 0 else edge)
            hi_verts.append(x)
            hi_edges.append(cut if sb < 0 else edge)
    return (lo_verts, lo_edges), (hi_verts, hi_edges)


def _extent(verts, k, sign_of):
    """(min, max) of nu_k . y over the vertices, as slab values."""
    lo = hi = verts[0][1][k]
    for _, v in verts[1:]:
        x = v[k]
        if _cmp(x, lo, sign_of) < 0:
            lo = x
        elif _cmp(x, hi, sign_of) > 0:
            hi = x
    return lo, hi


def _cross(a, b):
    return a[0] * b[1] - a[1] * b[0]


def _poly_area(*polys):
    """The total area of counter-clockwise polygons with `FieldElem`
    coordinates: twice it is the sum of the cross products p_i x p_(i+1)
    over the edges of all of them (the shoelace formula).  Every coordinate
    is taken over one common denominator, so that sum is one sum of
    unreduced integer polynomial products, reduced by the field once."""
    field = polys[0][0][0].field
    den = math.lcm(*{x.den for poly in polys for p in poly for x in p})
    acc = [0] * (2 * field.degree - 1)
    for poly in polys:
        pts = [[[c * (den // x.den) for c in x.num] for x in p] for p in poly]
        for (a0, a1), (b0, b1) in zip(pts, pts[1:] + pts[:1]):
            for i, x in enumerate(a0):
                if x:
                    for j, y in enumerate(b1, i):
                        acc[j] += x * y
            for i, x in enumerate(a1):
                if x:
                    for j, y in enumerate(b0, i):
                        acc[j] -= x * y
    return abs(field.from_product(acc, 2 * den * den))


def _window_polygon(w: Window):
    """The vertices of a 2-D window, counter-clockwise, from its generators.

    Each nonzero generator is turned to point into the upper half-plane,
    the base moving by every generator that was turned, so the zonotope is
    the same.  Parallel generators are then merged, and the rest sorted by
    angle with exact cross products.  Walking from the base along the
    sorted generators, then back along the same generators negated, visits
    every vertex once (Shephard, Canad. J. Math. 1974)."""
    start = w.base
    gens = []
    for g in w.generators:
        if all(_is_zero(c) for c in g):
            continue
        if _sgn(g[0] if _is_zero(g[1]) else g[1]) < 0:
            start = tuple(a + c for a, c in zip(start, g))
            g = tuple(-c for c in g)
        for i, h in enumerate(gens):
            if _is_zero(_cross(g, h)):
                gens[i] = tuple(a + c for a, c in zip(g, h))
                break
        else:
            gens.append(g)
    gens.sort(key=cmp_to_key(lambda a, b: -_sgn(_cross(a, b))))
    verts = [start]
    for g in gens + [tuple(-c for c in g) for g in gens[:-1]]:
        verts.append(tuple(a + c for a, c in zip(verts[-1], g)))
    return verts


def _reachable_offsets(n, length):
    """Lattice vectors with 1-norm at most `length` (excluding 0)."""
    out = set()
    frontier = {(0,) * n}
    for _ in range(length):
        nxt = set()
        for x in frontier:
            for j in range(n):
                for sg in (1, -1):
                    y = x[:j] + (x[j] + sg,) + x[j + 1:]
                    if y not in out and any(y):
                        nxt.add(y)
        out |= nxt
        frontier = nxt
    return sorted(out)


@dataclass
class AtlasEntry:
    pattern: LiftedPattern
    area: object  # exact field element: total area where this pattern occurs
    cells: list


@dataclass
class PatternAtlas:
    entries: list
    window_area: object
    complete: bool


def enumerate_r_patterns(s: Slope, r: int, samples: int = 200, seed: int = 0) -> PatternAtlas:
    """All r-patterns of the tilings of slope s, with exact region areas.

    For a 2-dimensional window the arrangement of translated-window boundary
    lines is subdivided exactly, so the areas form a certified partition of
    the window.  For a 3-dimensional window, patterns are discovered by
    randomized sampling and the result is a lower bound (complete=False).
    """
    if r < 0:
        raise InputError(f"r must be >= 0, got {r}")
    if samples < 1:
        raise InputError(f"samples must be >= 1, got {samples}")
    m = s.n - s.d
    w = window(s)
    if m == 2:
        return _enumerate_exact_2d(s, r, w)
    return _enumerate_sampled(s, r, w, samples, seed)


def _arrangement(s: Slope, r: int, w: Window):
    """Cells of the window cut by every translated slab boundary line that
    the walks of an r-pattern can cross, as ordered vertex lists, with the
    label of each cell and the masks that read walk membership off a label.
    Returns (cells, labels, masks).

    Each cut is a line nu_k . y = c of slab k, at the integer line
    coordinates of `_Lines`.  Each cell carries its extent (min, max) of
    nu_k . y over its vertices for every k.  A cell is convex and nu_k . y
    is linear, so the values it takes on the cell fill exactly that extent:
    the cut meets the cell's interior, and so splits it, iff min < c < max,
    which is the condition "some vertex strictly on each side".  Only a cell
    that splits gets a vertex pass.

    A cut on a line already cut, or on a window edge, meets no cell's
    interior: the first cut of a line split every cell it crossed.  Such a
    cut, known by its slab and its integer vector C, is skipped.

    Every slab value (of a window vertex, of a crossing point, of a cut) is
    an integer vector over its slab's one denominator, created once with its
    integer enclosure [lo, hi] of 2^FILTER_BITS times the scaled value, and
    `_cmp` compares two of them.  The filter is exact: both enclosures are
    certified, so hi_a < lo_b proves a < b and lo_a > hi_b proves a > b.
    Every other pair, which includes every pair of equal values, goes to
    `NumberField.sign_of` of the integer difference, whose exact path
    reports equal values as 0; a cut along a cell edge gives c = min or
    c = max, and the cell does not split.  So the test gives the cells that
    exact comparisons alone give.  The returned polygons are built once per
    point from its integer coordinates.

    Labels.  Every distinct cut (k, c), the window's own bounds included,
    owns one bit, and a cell's label has that bit set iff the cell lies on
    the side nu_k . y > c.  The loop knows that side for every cell: c <= min
    puts the cell on the high side and max <= c on the low side; a split
    gives the low half a clear bit and the high half a set one.  A skipped
    cut takes the bit of the first cut with its key.  No cut meets the
    interior of a finished cell, so nu_k . y - c has one strict sign on the
    whole open cell, the sign its bit records.

    At a point q, a walk offset x is in the window iff
    lo_k - nu_k . B x < nu_k . q < hi_k - nu_k . B x for every k (the test
    of `r_pattern_at`).  So masks[x] = (need, forbid) holds the bits of the
    cuts lo_k - nu_k . B x, which must be set, and of hi_k - nu_k . B x,
    which must be clear.  They are given for 0 and for every x with
    |x|_1 <= r + 1, all the offsets an r-pattern's walks test, and a label
    decides each of them on its whole open cell.
    """
    lines = _Lines(w, eprime_basis(s))
    nk, sign_of = lines.nk, lines.sign_of
    base = [lines.vertex(tuple(c for x in p for c in _cleared(x, lines.den)))
            for p in _window_polygon(w)]
    # each window edge lies on the one slab line through both its ends
    edges = []
    for (_, va), (_, vb) in zip(base, base[1:] + base[:1]):
        k = next(k for k in range(nk) if va[k][0] == vb[k][0])
        edges.append(lines.line(k, tuple(x // lines.scales[k] for x in va[k][0])))
    bits = {}
    for k in range(nk):
        bits[k, lines.lo[k]] = 2 * k
        bits[k, lines.hi[k]] = 2 * k + 1
    # every cell lies above the window's lo_k and below its hi_k
    inside = sum(1 << 2 * k for k in range(nk))
    masks = {(0,) * s.n: (inside, inside << 1)}
    cells = [(base, edges, [_extent(base, k, sign_of) for k in range(nk)], inside)]
    for x in _reachable_offsets(s.n, r + 1):
        need_forbid = [0, 0]
        for k, cols in enumerate(lines.cols):
            t = [sum(map(mul, x, col)) for col in cols]
            for side, bound in enumerate((lines.lo[k], lines.hi[k])):
                c = tuple(map(sub, bound, t))
                bit = bits.get((k, c))
                if bit is None:
                    bit = bits[k, c] = len(bits)
                    cells = _cut(lines, cells, lines.line(k, c), 1 << bit)
                need_forbid[side] |= 1 << bit
        masks[x] = tuple(need_forbid)
    points = {}
    polys = []
    for verts, _, _, _ in cells:
        poly = []
        for p, _ in verts:
            point = points.get(p)
            if point is None:
                point = points[p] = lines.point(p)
            poly.append(point)
        polys.append(poly)
    return polys, [label for _, _, _, label in cells], masks


def _cut(lines, cells, cut, bit):
    """The cells, each with its edge lines, extents and label, after the cut
    by the line `cut` of slab k; `bit` is set on the side nu_k . y > c."""
    k, c, _ = cut
    sign_of = lines.sign_of
    out = []
    for verts, edges, ext, label in cells:
        cmin, cmax = ext[k]
        if _cmp(c, cmin, sign_of) <= 0:
            out.append((verts, edges, ext, label | bit))
        elif _cmp(cmax, c, sign_of) <= 0:
            out.append((verts, edges, ext, label))
        else:
            lo_part, hi_part = _split(lines, verts, edges, cut)
            # the cut's own slab: the halves meet at c
            for (part, part_edges), own, side in ((lo_part, (cmin, c), label),
                                                  (hi_part, (c, cmax), label | bit)):
                out.append((part, part_edges,
                            [own if j == k else _extent(part, j, sign_of)
                             for j in range(len(ext))], side))
    return out


def _enumerate_exact_2d(s: Slope, r: int, w: Window) -> PatternAtlas:
    """The cells of `_arrangement` grouped by their r-patterns; the areas
    partition the window.  A cell's r-pattern is the walk of `r_pattern_at`
    with "x is in the window" read off the cell's label by two mask tests,
    which holds at every point of the open cell: no field arithmetic, no
    sample point and no lattice membership.  A pattern's area is one
    `_poly_area` over its cells, all counter-clockwise as the window
    polygon is, since a split keeps the order of the vertices.

    The walk depends on the label only through the set of offsets that are
    in the window, which the masks read off it.  Cells are grouped by that
    set, and each distinct set is walked and its pattern translated to
    canonical position once."""
    cells, labels, masks = _arrangement(s, r, w)
    # x is in the window iff the label holds exactly the need bits of x's
    # need | forbid bits
    tests = [(need | forbid, need) for need, forbid in masks.values()]
    pattern_of = {}  # in-window set -> key of its canonical pattern
    by_pattern = {}
    for poly, label in zip(cells, labels):
        inside = tuple([label & bits == need for bits, need in tests])
        key = pattern_of.get(inside)
        if key is None:
            pat = _walk(s.n, r, _label_status(label, masks)).canonical()
            key = pattern_of[inside] = pat.key()
            if key not in by_pattern:
                by_pattern[key] = (pat, [])
        by_pattern[key][1].append(poly)
    entries = []
    for key in sorted(by_pattern):
        pat, polys = by_pattern[key]
        entries.append(AtlasEntry(pat, _poly_area(*polys), polys))
    total = None
    for e in entries:
        total = e.area if total is None else total + e.area
    window_area = w.volume()
    complete = total == window_area
    return PatternAtlas(entries, window_area, complete)


def _label_status(label, masks):
    """Walk status of the offsets x of `masks` on a cell with this label:
    1 in the window, -1 outside."""
    def status(x):
        need, forbid = masks[x]
        return 1 if label & need == need and not label & forbid else -1
    return status


def _enumerate_sampled(s: Slope, r: int, w: Window, samples: int, seed: int) -> PatternAtlas:
    import random

    rng = random.Random(seed)
    lo, hi = w.bounding_box()
    found = {}
    tries = points = 0
    den = 10 ** 6
    while tries < samples * 20 and points < samples:
        tries += 1
        q = tuple(lo[j] + (hi[j] - lo[j]) * Fraction(rng.randint(0, den), den)
                  for j in range(w.dim))
        try:
            pat = r_pattern_at(s, q, r).canonical()
        except SingularPoint:
            continue
        points += 1
        found.setdefault(pat.key(), (pat, []))[1].append(q)
    entries = []
    for key in sorted(found):
        pat, pts = found[key]
        entries.append(AtlasEntry(pat, None, pts))
    return PatternAtlas(entries, w.volume(), False)


# ---------------------------------------------------------------------------
# rotation classes (hyperoctahedral symmetries preserving the slope structure)


def transform_pattern(p: LiftedPattern, perm, signs) -> LiftedPattern:
    """Apply the signed permutation e_j -> signs[j] * e_{perm[j]} (0-based)."""

    def tv(v):
        out = [0] * len(v)
        for j, x in enumerate(v):
            out[perm[j]] = signs[j] * x
        return tuple(out)

    edges = []
    for a, i in p.edges:
        b = a[:i - 1] + (a[i - 1] + 1,) + a[i:]
        edges.append(edge_between(tv(a), tv(b)))
    return LiftedPattern(edges, [tv(v) for v in p.vertices()])


def cyclic_rotation_group(n: int):
    """Order-2n rotation group of the n-fold cyclotomic slopes.

    For odd n the coordinate shift e_j -> e_{j+1} realizes the 2*pi/n
    rotation and central symmetry supplies the odd half-turns, giving the
    group {+-shift^k}.  For even n the shift alone is the 2*pi/n rotation
    but -shift^k duplicates shifts, so the signed shift e_n -> -e_1 (whose
    n-th power is -1) generates all 2n rotations instead.
    """
    group = []
    if n % 2:
        for k in range(n):
            perm = tuple((j + k) % n for j in range(n))
            group.append((perm, (1,) * n))
            group.append((perm, (-1,) * n))
    else:
        perm = tuple((j + 1) % n for j in range(n))
        signs = tuple(-1 if j == n - 1 else 1 for j in range(n))
        cur_perm = tuple(range(n))
        cur_signs = (1,) * n
        for _ in range(2 * n):
            group.append((cur_perm, cur_signs))
            cur_perm, cur_signs = (
                tuple(perm[cur_perm[j]] for j in range(n)),
                tuple(cur_signs[j] * signs[cur_perm[j]] for j in range(n)))
    return group


def rotation_classes(patterns, group):
    """Partition patterns into orbits under `group` (up to translation)."""
    reps = {}
    for p in patterns:
        orbit_key = min(transform_pattern(p, perm, signs).encode()
                        for perm, signs in group)
        reps.setdefault(orbit_key, p)
    return list(reps.values())


# ---------------------------------------------------------------------------
# vertex stars of digitized patches


def vertex_star(member, v) -> LiftedPattern:
    """0-pattern (incident in-window edges) at lattice vertex v."""
    n = len(v)
    edges = []
    for i in range(n):
        for sg in (1, -1):
            nb = v[:i] + (v[i] + sg,) + v[i + 1:]
            if member.status(nb) > 0:
                edges.append(edge_between(v, nb))
    return LiftedPattern(edges, [v])


def patch_vertex_stars(patch):
    """Distinct vertex 0-patterns of a patch, canonical up to translation."""
    stars = {}
    for v in sorted(patch.vertex_set()):
        pat = vertex_star(patch.member, v).canonical()
        stars.setdefault(pat.key(), pat)
    return list(stars.values())


# ---------------------------------------------------------------------------
# JSON export


def pattern_json(p: LiftedPattern) -> str:
    doc = {
        "edges": [{"vertex": list(a), "direction": i, "orientation": 1}
                  for a, i in sorted(p.edges)],
        "vertices": [list(v) for v in sorted(p.vertices())],
    }
    return dumps(doc)


def region_json(reg: Region) -> str:
    def num(x):
        if isinstance(x, Fraction):
            return str(x)
        return [str(c) for c in x.coeffs]

    doc = {
        "halfspaces": [{"normal": [num(c) for c in nu], "offset": num(c0)}
                       for nu, c0 in reg.polytope.halfspaces],
        "translations": [[num(c) for c in t] for t in reg.translations],
    }
    return dumps(doc)
