"""Patterns of planar tilings and their regions in the window.

A lifted pattern is a finite connected set of unit edges of Z^n.  Its region
is the intersection of window translates over the pattern's vertices; the
pattern appears at exactly the points of that region.  The r-pattern at a
window point is built from in-window walks of length r + 1.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key

from .errors import InputError
from .geometry import HPolytope, Window, _sgn, eprime_basis, window
from .linalg import _is_zero, dot
from .slope import Slope
from .tiling import LatticeMembership


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
        return LiftedPattern(
            [(vec_add_int(a, t), i) for a, i in self.edges],
            [vec_add_int(v, t) for v in self._vertices])

    def canonical(self):
        """Translate so the lexicographically least vertex sits at 0."""
        v0 = min(self._vertices)
        return self.translated(tuple(-x for x in v0))

    def encode(self):
        c = self.canonical()
        return (tuple(sorted(c.edges)), tuple(sorted(c._vertices)))

    def __repr__(self):
        return f"LiftedPattern({len(self.edges)} edges, {len(self._vertices)} vertices)"


def vec_add_int(u, v):
    return tuple(a + b for a, b in zip(u, v))


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
    dist = {origin: 0}
    frontier = [origin]
    edges = set()
    for level in range(r + 1):
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
                    edges.add(edge_between(x, y))
                    if y not in dist:
                        dist[y] = level + 1
                        nxt.append(y)
        frontier = nxt
    return LiftedPattern(edges, [origin])


# ---------------------------------------------------------------------------
# window partition by r-patterns


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
    with nu_k . y <= c, then the part with nu_k . y >= c.

    A cell is an ordered list of (point, values) vertices, `values` holding
    nu_j . point, enclosed, for every slab normal nu_j of the window.  A
    crossing point gets its values by interpolation along its edge, and
    exactly c on the cut's own slab, so no dot product is formed.  The
    halves hold distinct vertices of the cell and crossing points strictly
    inside distinct edges, and the cut meets the cell's interior, so each
    half has at least 3 distinct vertices."""
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

    Each cut is a line nu_k . y = c of slab k.  Each cell carries its extent
    (min, max) of nu_k . y over its vertices for every k.  A cell is convex
    and nu_k . y is linear, so the values it takes on the cell fill exactly
    that extent: the cut meets the cell's interior, and so splits it, iff
    min < c < max, which is the condition "some vertex strictly on each
    side".  Only a cell that splits gets a vertex pass.

    A cut on a line already cut, or on a window edge, meets no cell's
    interior: the first cut of a line split every cell it crossed.  Such a
    cut, known by its slab and the coefficients of its offset, is skipped.

    The slab values (window vertices' nu_k . p, interpolated crossing
    values, cut offsets c) are exact field elements, each created once with
    its integer enclosure [lo, hi] of 2^FILTER_BITS times the value, and
    `_cmp` compares two of them.  The filter is exact: both enclosures are
    certified, so hi_a < lo_b proves a < b and lo_a > hi_b proves a > b.
    Every other pair, which includes every pair of equal values, goes to
    `_sgn` of the exact difference, that is to `NumberField.sign_of`, whose
    exact path reports equal values as 0; a cut along a cell edge gives
    c = min or c = max, and the cell does not split.  So the test gives the
    cells that exact comparisons alone give.

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
    b = eprime_basis(s)
    nk = len(w.slabs)
    base = [(p, tuple(_enclosed(dot(nu, p)) for nu, _, _ in w.slabs))
            for p in _window_polygon(w)]
    bits = {}
    for k, (_, lo, hi) in enumerate(w.slabs):
        bits[k, lo.num, lo.den] = 2 * k
        bits[k, hi.num, hi.den] = 2 * k + 1
    # every cell lies above the window's lo_k and below its hi_k
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
    """The cells, each with its extents and label, after the cut
    nu_k . y = c; `bit` is set on the side nu_k . y > c."""
    out = []
    for cell, ext, label in cells:
        cmin, cmax = ext[k]
        if _cmp(c, cmin) <= 0:
            out.append((cell, ext, label | bit))
        elif _cmp(cmax, c) <= 0:
            out.append((cell, ext, label))
        else:
            lo_part, hi_part = _split(cell, k, c)
            # the cut's own slab: the halves meet at c
            for part, own, side in ((lo_part, (cmin, c), label),
                                    (hi_part, (c, cmax), label | bit)):
                out.append((part, [own if j == k else _extent(part, j)
                                   for j in range(len(ext))], side))
    return out


def _enumerate_exact_2d(s: Slope, r: int, w: Window) -> PatternAtlas:
    """The cells of `_arrangement` grouped by their r-patterns; the areas
    partition the window.  A cell's r-pattern is the walk of `r_pattern_at`
    with "x is in the window" read off the cell's label by two mask tests,
    which holds at every point of the open cell: no field arithmetic, no
    sample point and no lattice membership."""
    cells, labels, masks = _arrangement(s, r, w)
    by_pattern = {}
    for poly, label in zip(cells, labels):
        pat = _walk(s.n, r, _label_status(label, masks))
        key = pat.encode()
        if key not in by_pattern:
            by_pattern[key] = (pat, [])
        by_pattern[key][1].append(poly)
    entries = []
    for key in sorted(by_pattern):
        pat, polys = by_pattern[key]
        area = None
        for poly in polys:
            a = _poly_area(poly)
            area = a if area is None else area + a
        entries.append(AtlasEntry(pat.canonical(), area, polys))
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
            pat = r_pattern_at(s, q, r)
        except SingularPoint:
            continue
        points += 1
        found.setdefault(pat.encode(), (pat, []))[1].append(q)
    entries = []
    for key in sorted(found):
        pat, pts = found[key]
        entries.append(AtlasEntry(pat.canonical(), None, pts))
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
        stars.setdefault(pat.encode(), pat)
    return list(stars.values())


# ---------------------------------------------------------------------------
# JSON export


def pattern_json(p: LiftedPattern) -> str:
    doc = {
        "edges": [{"vertex": list(a), "direction": i, "orientation": 1}
                  for a, i in sorted(p.edges)],
        "vertices": [list(v) for v in sorted(p.vertices())],
    }
    return json.dumps(doc, indent=2, sort_keys=True)


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
    return json.dumps(doc, indent=2, sort_keys=True)
