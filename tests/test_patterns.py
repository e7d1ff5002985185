import json
import random
from fractions import Fraction as F

import pytest

import arrangement_oracle
from slopechar import patterns
from slopechar.geometry import (BOUNDARY, INSIDE, OUTSIDE, HPolytope, _sgn,
                                eprime_basis, window)
from slopechar.linalg import Matrix, dot, rank
from slopechar.patterns import (LiftedPattern, SingularPoint,
                                cyclic_rotation_group, edge_between,
                                enumerate_r_patterns, patch_vertex_stars,
                                pattern_json,
                                pattern_region, r_pattern_at, region_json,
                                rotation_classes, transform_pattern,
                                vertex_star)
from slopechar.numfield import NumberField
from slopechar.tiling import LatticeMembership, digitize


def test_edge_between():
    assert edge_between((0, 0), (1, 0)) == ((0, 0), 1)
    assert edge_between((1, 0), (0, 0)) == ((0, 0), 1)
    with pytest.raises(Exception):
        edge_between((0, 0), (1, 1))


def test_canonical_translation_invariance():
    p = LiftedPattern([((2, 3), 1), ((3, 3), 2)], [(2, 3)])
    q = LiftedPattern([((7, -1), 1), ((8, -1), 2)], [(7, -1)])
    assert p.canonical().encode() == q.canonical().encode()


def test_pattern_order():
    small = LiftedPattern([((0, 0), 1)], [(0, 0)])
    big = LiftedPattern([((0, 0), 1), ((1, 0), 2)], [(0, 0)])
    assert small <= big
    assert not big <= small


def test_r_pattern_nesting(ab):
    w = window(ab)
    q = w.center
    p0 = r_pattern_at(ab, q, 0)
    p1 = r_pattern_at(ab, q, 1)
    assert p0 <= p1
    assert len(p1.edges) > len(p0.edges)


def test_r_pattern_singular_point(ab):
    w = window(ab)
    poly = HPolytope(w.halfspaces(), w.dim)
    v = poly.vertices()[0]  # boundary point
    with pytest.raises(SingularPoint):
        r_pattern_at(ab, v, 0)


def test_r_pattern_walk_point_on_translated_boundary(ab):
    # q strictly inside, q + B (sg e_j) a window vertex: the walk step to
    # sg e_j has a slab functional that is exactly 0, which only the exact
    # path of sign_of reports
    w, b = window(ab), eprime_basis(ab)
    cases = 0
    for v in HPolytope(w.halfspaces(), w.dim).vertices():
        assert w.contains(v) == BOUNDARY
        for j in range(ab.n):
            for sg in (1, -1):
                q = tuple(c - sg * g for c, g in zip(v, b.col(j)))
                if w.contains(q) != INSIDE:
                    continue
                cases += 1
                with pytest.raises(SingularPoint):
                    r_pattern_at(ab, q, 0)
    assert cases > 0


def test_pattern_region_contains_source(ab):
    w = window(ab)
    q = w.center
    for r in (0, 1):
        p = r_pattern_at(ab, q, r)
        reg = pattern_region(ab, p)
        assert reg.contains(q) == INSIDE


def test_bigger_pattern_smaller_region(ab):
    q = window(ab).center
    r0 = pattern_region(ab, r_pattern_at(ab, q, 0))
    r1 = pattern_region(ab, r_pattern_at(ab, q, 1))
    # every halfspace of the small region also bounds the big one
    for nu, c in r0.polytope.halfspaces:
        assert (nu, c) in set(r1.polytope.halfspaces)


def test_atlas_exact_and_partition(ab):
    atlas = enumerate_r_patterns(ab, 0)
    assert atlas.complete
    total = None
    for e in atlas.entries:
        assert e.area is not None
        total = e.area if total is None else total + e.area
    assert total == atlas.window_area
    # random interior points have a pattern of the atlas
    patterns = {e.pattern.encode() for e in atlas.entries}
    rng = random.Random(42)
    w = window(ab)
    hits = 0
    while hits < 25:
        q = tuple(c + F(rng.randint(-400, 400), 1009) for c in w.center)
        if w.contains(q) != INSIDE:
            continue
        try:
            p = r_pattern_at(ab, q, 0)
        except SingularPoint:
            continue
        hits += 1
        assert p.canonical().encode() in patterns
        # region of the point's own pattern contains it
        assert pattern_region(ab, p).contains(q) != OUTSIDE


def _clip_by_vertex_pass(poly, nu, c, keep_sign):
    """Clip a convex polygon to nu.x <= c or >= c, every value a fresh dot
    product."""
    out = []
    m = len(poly)
    vals = [dot(nu, p) - c for p in poly]
    sides = [_sgn(v) * keep_sign for v in vals]
    for k in range(m):
        a, b = poly[k], poly[(k + 1) % m]
        sa, sb = sides[k], sides[(k + 1) % m]
        if sa >= 0:
            out.append(a)
        if sa * sb < 0:
            t = vals[k] / (vals[k] - vals[(k + 1) % m])
            out.append(tuple(pa + t * (pb - pa) for pa, pb in zip(a, b)))
    dedup = []
    for p in out:
        if not any(all(_sgn(x - y) == 0 for x, y in zip(p, q)) for q in dedup):
            dedup.append(p)
    return dedup if len(dedup) >= 3 else []


def _arrangement_by_vertex_pass(s, r):
    """Reference arrangement: every cell is tested against every cut by the
    side of each of its vertices."""
    w, b = window(s), eprime_basis(s)
    cells = [patterns._window_polygon(w)]
    for x in patterns._reachable_offsets(s.n, r + 1):
        shift = b.apply(x)
        for nu, lo, hi in w.slabs:
            t = dot(nu, shift)
            for c in (lo - t, hi - t):
                nxt = []
                for poly in cells:
                    sides = {_sgn(dot(nu, p) - c) for p in poly}
                    if 1 in sides and -1 in sides:
                        nxt += [part for part in (_clip_by_vertex_pass(poly, nu, c, -1),
                                                  _clip_by_vertex_pass(poly, nu, c, 1))
                                if part]
                    else:
                        nxt.append(poly)
                cells = nxt
    return cells


def test_atlas_over_a_non_integral_minpoly(half42):
    # integer numerators over a denominator that the minpoly's reduction
    # table scales: the atlas cells are the reference arrangement's cells
    atlas = enumerate_r_patterns(half42, 0)
    assert atlas.complete and len(atlas.entries) > 10
    key = lambda poly: tuple(tuple(x.coeffs for x in p) for p in poly)
    cells = sorted(key(poly) for e in atlas.entries for poly in e.cells)
    assert cells == sorted(map(key, _arrangement_by_vertex_pass(half42, 0)))


@pytest.mark.parametrize("name, r", [("ab", 1), ("typical", 0)])
def test_arrangement_matches_vertex_pass(request, name, r):
    # the extent test splits the same cells, into the same vertices, in the
    # same order, as the side test of every vertex
    s = request.getfixturevalue(name)
    cells, _, _ = patterns._arrangement(s, r, window(s))
    assert cells == _arrangement_by_vertex_pass(s, r)
    assert len(cells) > 100


def test_arrangement_runs_the_exact_sign_path(ab, monkeypatch):
    # cuts along existing cell edges make extent and side comparisons exactly
    # 0; the filter of sign_of never returns 0, only its exact path does
    inside, zeros = [], []
    cmp, sign_of = patterns._cmp, NumberField.sign_of

    def counting_cmp(a, b, sign):
        inside.append(True)
        try:
            return cmp(a, b, sign)
        finally:
            inside.pop()

    def counting_sign_of(self, coeffs):
        out = sign_of(self, coeffs)
        if inside and out == 0:
            zeros.append(coeffs)
        return out

    monkeypatch.setattr(patterns, "_cmp", counting_cmp)
    monkeypatch.setattr(NumberField, "sign_of", counting_sign_of)
    patterns._arrangement(ab, 1, window(ab))
    assert zeros


@pytest.mark.parametrize("name, r", [("ab", 0), ("ab", 1), ("typical", 0)])
def test_split_halves_are_cells(request, monkeypatch, name, r):
    # a split never yields an empty half or a repeated vertex: each half has
    # at least 3 vertices, all distinct, and each edge of a half lies on the
    # line it keeps: both its ends take the line's value on the line's slab
    s = request.getfixturevalue(name)
    halves = []
    split = patterns._split

    def recording_split(lines, verts, edges, cut):
        out = split(lines, verts, edges, cut)
        halves.extend(out)
        return out

    monkeypatch.setattr(patterns, "_split", recording_split)
    patterns._arrangement(s, r, window(s))
    assert halves
    for verts, edges in halves:
        # integer coordinates over one denominator: equal points, equal keys
        points = [p for p, _ in verts]
        assert len(points) >= 3
        assert len(set(points)) == len(points)
        assert len(edges) == len(verts)
        for i, (k, value, _) in enumerate(edges):
            for _, values in (verts[i], verts[(i + 1) % len(verts)]):
                assert values[k][0] == value[0]


@pytest.mark.parametrize("name", ["ab", "typical"])
def test_enclosure_comparisons_match_exact_signs(request, monkeypatch, name):
    # every comparison of the arrangement, filtered or not, is the exact
    # sign of the difference, and most are decided by the enclosures alone
    s = request.getfixturevalue(name)
    calls, exact = [], []
    cmp = patterns._cmp
    f = s.field

    def checking_cmp(a, b, sign_of):
        out = cmp(a, b, lambda d: exact.append(d) or sign_of(d))
        # values of one slab share a denominator: the numerators' order
        assert out == _sgn(f.elem(a[0]) - f.elem(b[0]))
        calls.append(out)
        return out

    monkeypatch.setattr(patterns, "_cmp", checking_cmp)
    patterns._arrangement(s, 0, window(s))
    assert set(calls) == {-1, 0, 1}
    assert len(exact) < len(calls) / 4


def _centroid(poly):
    acc = poly[0]
    for p in poly[1:]:
        acc = tuple(a + c for a, c in zip(acc, p))
    return tuple(a / len(poly) for a in acc)


@pytest.mark.parametrize("name, r", [("ab", 0), ("ab", 1), ("typical", 0), ("quad42", 0),
                                     ("half42", 0)])
def test_cell_labels_give_the_pattern_at_each_centroid(request, monkeypatch, name, r):
    # a cell's pattern, read off its label, is the one the lattice walk of
    # r_pattern_at finds at a point inside the cell
    s = request.getfixturevalue(name)
    cuts = []
    cut = patterns._cut
    monkeypatch.setattr(patterns, "_cut", lambda *a: cuts.append(a) or cut(*a))
    atlas = enumerate_r_patterns(s, r)
    assert atlas.complete
    for e in atlas.entries:
        for poly in e.cells:
            assert r_pattern_at(s, _centroid(poly), r).canonical() == e.pattern
    if (name, r) == ("ab", 1):
        # most cuts repeat a line already cut: their labels come by aliasing
        total = 2 * len(window(s).slabs) * len(patterns._reachable_offsets(s.n, r + 1))
        assert (total, total - len(cuts)) == (320, 240)


@pytest.mark.parametrize("name, r, cells, walks", [("ab", 1, 217, 185), ("ab", 0, 81, 41),
                                                   ("typical", 0, 157, 37)])
def test_exact_atlas_walks_and_translates_once_per_pattern(request, monkeypatch, name, r,
                                                          cells, walks):
    # cells with the same in-window offsets share one walk, and each walk's
    # pattern is translated to canonical position once, for its entry
    s = request.getfixturevalue(name)
    counts = {"walk": 0, "translated": 0}
    walk, translated = patterns._walk, LiftedPattern.translated

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(patterns, "_walk", counted("walk", walk))
    monkeypatch.setattr(LiftedPattern, "translated", counted("translated", translated))
    atlas = enumerate_r_patterns(s, r)
    assert atlas.complete
    assert sum(len(e.cells) for e in atlas.entries) == cells
    assert len(atlas.entries) == counts["walk"] == counts["translated"] == walks


def test_exact_atlas_takes_no_lattice_walk(ab, penrose, monkeypatch):
    # the exact 2-D atlas reads its patterns off the cell labels; only the
    # sampled 3-D atlas walks the lattice from its sample points
    calls = []
    walk = patterns.r_pattern_at
    monkeypatch.setattr(patterns, "r_pattern_at", lambda *a: calls.append(a) or walk(*a))
    enumerate_r_patterns(ab, 1)
    assert calls == []
    enumerate_r_patterns(penrose, 0, samples=2, seed=3)
    assert calls


def test_cmp_decides_overlapping_enclosures_exactly():
    # convergents p/q of sqrt 2 closer than 2^-96, as slab values over the
    # denominator q: the integer vectors (0, q) and (p, 0), whose enclosures
    # overlap, so only the exact path can order them, on either side
    f = NumberField([-2, 0, 1], (F(1), F(2)))
    exact = []

    def sign_of(d):
        exact.append(d)
        return f.sign_of(d)

    def value(v):
        return (v, *f.enclosure(v))

    p, q = 1, 1
    while q < 10 ** 16:
        p, q = p + 2 * q, p + q
    sides = set()
    for p, q in ((p, q), (p + 2 * q, p + q)):
        alpha, conv = value((0, q)), value((p, 0))
        assert conv[1] <= alpha[2] and alpha[1] <= conv[2]
        side = 1 if 2 * q * q > p * p else -1  # sqrt 2 > p/q
        assert patterns._cmp(alpha, conv, sign_of) == side
        assert patterns._cmp(conv, alpha, sign_of) == -side
        sides.add(side)
        assert patterns._cmp(alpha, alpha, sign_of) == 0
    assert sides == {-1, 1}
    assert len(exact) == 4


# quad42 is also the atlas benchmark's generated slope gen42q2 (its fixed
# stream draws these generators), so the last case covers it
ORACLE_CASES = [("ab", 0), ("ab", 1), ("ab", 2), ("typical", 0), ("typical", 1),
                ("quad42", 0), ("quad42", 1), ("quad42", 2), ("half42", 0), ("half42", 1),
                ("half42", 2), ("gen53q3", 0)]


@pytest.mark.parametrize("name, r", ORACLE_CASES)
def test_integer_arrangement_matches_the_field_oracle(request, name, r):
    # the cut loop on integer line coordinates gives the cells, vertices,
    # labels and masks of the FieldElem cut loop, and each pattern's area is
    # the sum of the oracle's per-cell areas
    s = request.getfixturevalue(name)
    w = window(s)
    cells, labels, masks = patterns._arrangement(s, r, w)
    want = arrangement_oracle.arrangement(s, r, w)
    assert (cells, labels, masks) == want
    areas = {}
    for area, label in zip(arrangement_oracle.cell_areas(want[0]), want[1]):
        key = patterns._walk(s.n, r, patterns._label_status(label, want[2])).encode()
        areas[key] = areas[key] + area if key in areas else area
    atlas = enumerate_r_patterns(s, r)
    assert atlas.complete
    assert {e.pattern.encode(): e.area for e in atlas.entries} == areas


def test_poly_area_of_one_polygon_and_of_a_union(ab):
    # one polygon: the oracle's area; a union of counter-clockwise cells:
    # the sum of their areas, from one reduction
    cells, _, _ = patterns._arrangement(ab, 0, window(ab))
    areas = arrangement_oracle.cell_areas(cells)
    for poly, area in zip(cells, areas):
        assert patterns._poly_area(poly) == area
    total = areas[0]
    for area in areas[1:]:
        total = total + area
    assert patterns._poly_area(*cells) == total == window(ab).volume()


def test_sampled_atlas_takes_every_sample(penrose):
    # every sample point that gives a pattern counts, up to `samples`
    atlas = enumerate_r_patterns(penrose, 0, samples=4, seed=3)
    assert not atlas.complete
    assert sum(len(e.cells) for e in atlas.entries) == 4


def test_rotation_group_properties():
    for n in (4, 5):
        group = cyclic_rotation_group(n)
        assert len(group) == 2 * n
        assert (tuple(range(n)), (1,) * n) in group
        assert len(set(group)) == 2 * n


def _preserves_slope(s, perm, signs):
    cols = []
    for j in range(s.d):
        col = s.generators.col(j)
        out = [None] * s.n
        for i, e in enumerate(col):
            out[perm[i]] = e * signs[i]
        cols.append(out)
    rows = []
    for j in range(s.d):
        rows.append(list(s.generators.col(j)))
    m = Matrix([list(r) for r in zip(*(rows + cols))])
    return rank(m) == s.d


def test_rotation_group_preserves_fixture_slopes(ab, penrose):
    for s in (ab, penrose):
        for perm, signs in cyclic_rotation_group(s.n):
            assert _preserves_slope(s, perm, signs)


def test_rotation_classes_ab_vertex_atlas(ab):
    patch = digitize(ab, radius=F(20), seed=0)
    stars = patch_vertex_stars(patch)
    classes = rotation_classes(stars, cyclic_rotation_group(4))
    # the Ammann-Beenker vertex atlas has 6 stars up to rotation
    assert len(classes) == 6


def test_transform_pattern_roundtrip():
    p = LiftedPattern([((0, 0, 0, 0), 1), ((0, 1, 0, 0), 2)], [(0, 0, 0, 0)])
    perm = (1, 2, 3, 0)
    signs = (1, 1, 1, -1)
    q = transform_pattern(p, perm, signs)
    inv_perm = tuple(perm.index(k) for k in range(4))
    inv_signs = tuple(signs[inv_perm[k]] for k in range(4))
    back = transform_pattern(q, inv_perm, inv_signs)
    assert back.canonical().encode() == p.canonical().encode()


def test_pattern_and_region_json(ab):
    q = window(ab).center
    p = r_pattern_at(ab, q, 0)
    doc = json.loads(pattern_json(p))
    assert set(doc) == {"edges", "vertices"}
    reg = pattern_region(ab, p)
    rdoc = json.loads(region_json(reg))
    assert set(rdoc) == {"halfspaces", "translations"}


def test_vertex_stars_reuse_the_patch_membership(ab, monkeypatch):
    built = []
    init = LatticeMembership.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(LatticeMembership, "__init__", counting_init)
    patch = digitize(ab, radius=F(8), seed=4)
    stars = patch_vertex_stars(patch)
    assert built == [patch.member]
    monkeypatch.undo()
    fresh = LatticeMembership(window(ab), eprime_basis(ab), patch.offset)
    expected = {}
    for v in sorted(patch.vertex_set()):
        pat = vertex_star(fresh, v).canonical()
        expected.setdefault(pat.encode(), pat)
    assert [p.encode() for p in stars] == list(expected)
