import hashlib
import itertools
import json
import math
from collections import deque
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import digitize_oracle
from conftest import spy_past_filter
from interval_oracle import IntervalOracle
from slopechar import specfile, tiling
from slopechar.errors import InputError
from slopechar.geometry import (BOUNDARY, INSIDE, complementary_zonotope,
                                eprime_basis, window)
from slopechar.linalg import Matrix, dot, kernel_int
from slopechar.numfield import FILTER_BITS
from slopechar.slope import Slope
from slopechar.specfile import spec_offset
from slopechar.tiling import (Face, LatticeMembership, SingularOffset,
                              digitize, draw_offset, face_selected_by_anchor,
                              integral_sum_offset, patch_json, render_svg,
                              slope_hash, tile_frequencies)
from test_coincidence import SPEC_41, SPEC_43, SPEC_53


def test_face_corners():
    f = Face((0, 0, 0, 0), (1, 3))
    assert sorted(f.corners()) == [
        (0, 0, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0), (1, 0, 1, 0)]


def test_digitize_faces_are_in_window(ab):
    patch = digitize(ab, radius=F(6), seed=1)
    w = window(ab)
    member = LatticeMembership(w, eprime_basis(ab), patch.offset)
    for f in patch.faces:
        assert all(member.status(c) > 0 for c in f.corners())


def test_digitize_deterministic(ab):
    p1 = digitize(ab, radius=F(6), seed=5)
    p2 = digitize(ab, radius=F(6), seed=5)
    assert p1.faces == p2.faces and p1.offset == p2.offset


def test_digitize_radius_monotone(ab):
    small = digitize(ab, radius=F(4), seed=2)
    big = digitize(ab, radius=F(7), seed=2)
    assert set(small.faces) <= set(big.faces)


def test_singular_offset_raises(typical):
    zero = tuple(typical.field.zero for _ in range(2))
    with pytest.raises(SingularOffset):
        digitize(typical, offset=zero, radius=F(5))


def test_tile_frequencies_sum_to_one(ab):
    patch = digitize(ab, radius=F(8), seed=0)
    freqs = tile_frequencies(patch)
    assert sum(freqs.values()) == 1
    assert set(freqs) == {(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)}


def test_tiles_cover_plane_without_overlap(ab):
    # total float area of the tiles ~ disk area of the patch radius
    patch = digitize(ab, radius=F(8), seed=0)
    a = math.sqrt(2)
    areas = {(1, 2): 1 / (2 + a), (1, 3): a / (2 + a) / a,
             (3, 4): 1 / (2 + a)}
    total = 0.0
    g = [[float(x) for x in row] for row in
         [[-1, 0], [0, 1], [1, math.sqrt(2) / 2 * 0 + math.sqrt(2)], [math.sqrt(2), 1]]]
    # simpler: every rhombus area |pi(e_i) ^ pi(e_j)| via the projector
    from test_slope import projectors
    pi, _ = projectors(ab)
    cols = [[float(pi[i, j]) for i in range(4)] for j in range(4)]

    def wedge(i, j):
        # area of the projected rhombus spanned by pi(e_i), pi(e_j)
        u, v = cols[i], cols[j]
        uu = sum(x * x for x in u)
        vv = sum(x * x for x in v)
        uv = sum(x * y for x, y in zip(u, v))
        return math.sqrt(max(uu * vv - uv * uv, 0.0))

    total = sum(wedge(f.directions[0] - 1, f.directions[1] - 1)
                for f in patch.faces)
    assert abs(total - math.pi * 64) / (math.pi * 64) < 0.25


def test_anchor_test_matches_corner_test(ab):
    patch = digitize(ab, radius=F(6), seed=3)
    faces = set(patch.faces)
    for f in patch.faces:
        assert face_selected_by_anchor(ab, f, patch.offset)
    # shifted faces outside the patch reach must fail the anchor test
    for f in list(patch.faces)[:20]:
        far = Face(tuple(a + 50 for a in f.anchor), f.directions)
        assert not face_selected_by_anchor(ab, far, patch.offset)


ANCHOR_FACES = [Face(anchor, dirs) for anchor in itertools.product((-1, 0), repeat=4)
                for dirs in ((1, 2), (1, 3), (2, 4), (3, 4))]
ANCHOR_OFFSET = (F(1, 3), F(-1, 5))


def _anchor_on_fresh_slope(base, face):
    # a slope freed on return: the next one built here usually gets its id
    s = Slope(base.field, base.n, base.d, base.u_columns)
    return face_selected_by_anchor(s, face, tuple(map(s.field.from_rational, ANCHOR_OFFSET)))


def test_anchor_test_on_alternating_fresh_slopes(typical, ab):
    cases = []
    for s in (typical, ab):
        member = LatticeMembership(window(s), eprime_basis(s),
                                   tuple(map(s.field.from_rational, ANCHOR_OFFSET)))
        corner = [all(member.status(c) > 0 for c in f.corners()) for f in ANCHOR_FACES]
        assert any(corner) and not all(corner)
        cases.append((s, corner))
    for k in range(400):
        s, corner = cases[k % 2]
        i = k // 2 % len(ANCHOR_FACES)
        assert _anchor_on_fresh_slope(s, ANCHOR_FACES[i]) == corner[i]


def test_integral_sum_offset_penrose(penrose):
    off = integral_sum_offset(penrose)
    patch = digitize(penrose, offset=off, radius=F(8))
    # the sum functional takes exactly d + 2 = 4 consecutive values on vertices
    sums = {sum(v) for v in patch.vertex_set()}
    assert len(sums) == 4
    assert max(sums) - min(sums) == 3


def test_integral_sum_offset_needs_orthogonality(typical):
    with pytest.raises(InputError, match="not orthogonal"):
        integral_sum_offset(typical)


def test_render_svg_deterministic(ab):
    patch = digitize(ab, radius=F(5), seed=4)
    svg = render_svg(patch)
    assert svg.startswith('<?xml version="1.0"')
    assert svg == render_svg(patch)
    assert svg.count("<polygon") == len(patch)


def test_patch_json_shape(ab):
    patch = digitize(ab, radius=F(4), seed=0)
    doc = json.loads(patch_json(patch))
    assert doc["n"] == 4 and doc["d"] == 2
    assert len(doc["faces"]) == len(patch)
    assert doc["slope_hash"] == slope_hash(ab)


def test_slope_hash_distinguishes(typical, ab):
    assert slope_hash(typical) != slope_hash(ab)


def test_spec_offset_resolution(penrose_spec, penrose, ab_spec, ab):
    off = spec_offset(penrose_spec, penrose)
    assert off == integral_sum_offset(penrose)
    assert spec_offset(ab_spec, ab) is None


def _reference_status(w, b, offset, x):
    """Membership of B x in the translated window with FieldElem arithmetic."""
    zero = b[0, 0].field.zero
    result = 1
    for nu, lo, hi in w.slabs:
        m = len(nu)
        value = sum((nu[i] * b[i, j] * xj for i in range(m) for j, xj in enumerate(x)),
                    start=zero)
        shift = sum((nu[i] * offset[i] for i in range(m)), start=zero)
        s1 = (value - lo - shift).sign()
        s2 = (hi + shift - value).sign()
        if s1 < 0 or s2 < 0:
            return -1
        if s1 == 0 or s2 == 0:
            result = 0
    return result


@pytest.mark.parametrize("name", ["typical", "ab", "penrose"])
def test_membership_matches_field_evaluation(name, request):
    s = request.getfixturevalue(name)
    off = integral_sum_offset(s) if name == "penrose" else None
    patch = digitize(s, offset=off, radius=F(6), seed=3)
    w, b = window(s), eprime_basis(s)
    member = LatticeMembership(w, b, patch.offset)
    points = set()
    for v in patch.vertex_set():
        points.add(v)
        for i in range(s.n):
            for sg in (1, -1):
                points.add(v[:i] + (v[i] + sg,) + v[i + 1:])
    assert {member.status(x) for x in points} == {1, -1}
    for x in sorted(points):
        assert member.status(x) == _reference_status(w, b, patch.offset, x)
    # the anchor test's complementary zonotope, and an offset of Fractions
    # instead of field elements
    zc = complementary_zonotope(s, (1, 2))
    rational = tuple(F(math.floor(float(c) * 997), 997) for c in patch.offset)
    for zono, off in ((zc, patch.offset), (w, rational)):
        other = LatticeMembership(zono, b, off)
        got = {x: other.status(x) for x in sorted(points)[::4]}
        assert set(got.values()) >= {1, -1}
        for x, st in got.items():
            assert st == _reference_status(zono, b, off, x)
    # at offset 0 corners of the unit cube project onto the window boundary
    zero = (s.field.zero,) * (s.n - s.d)
    at_zero = LatticeMembership(w, b, zero)
    box = list(itertools.product((-1, 0, 1), repeat=s.n))
    for x in box:
        assert at_zero.status(x) == _reference_status(w, b, zero, x)
    assert {at_zero.status(x) for x in box} == {1, 0, -1}


# -- the enclosure filter and its exact fallback -------------------------------


def _offset_near_a_bound(s, x, eps):
    """The offset o with B x - o = c + eps nu, where nu is the normal of the
    window's first slab and c the center of the facet on its upper bound:
    |eps| nu.nu from that bound, outside it for eps > 0, inside for eps < 0,
    and strictly inside every other slab for eps small enough."""
    w = window(s)
    nu = w.slabs[0][0]
    c = list(w.base)
    for g in w.generators:
        t = dot(nu, g)
        if not t < 0:
            c = [a + (e if t > 0 else e / 2) for a, e in zip(c, g)]
    return tuple(a - ci - eps * e for a, ci, e in zip(eprime_basis(s).apply(x), c, nu))


def test_exact_fallback_decides_a_point_just_inside_a_bound(ab, monkeypatch):
    # eps = (sqrt 2 - 1)^80, about 2^-101.7: the point is closer to the bound
    # than the enclosures of its slab value and of the bound resolve
    w, b = window(ab), eprime_basis(ab)
    nu = w.slabs[0][0]
    eps = (ab.field.alpha - 1) ** 80
    assert 0 < eps * dot(nu, nu) < F(1, 2 ** 90)
    x = (1, -2, 0, 3)
    offset = _offset_near_a_bound(ab, x, -eps)
    member = LatticeMembership(w, b, offset)
    calls = spy_past_filter(monkeypatch)
    assert member.status(x) == 1
    assert calls
    monkeypatch.undo()
    assert _reference_status(w, b, offset, x) == 1
    # just outside the same bound
    offset = _offset_near_a_bound(ab, x, eps)
    assert LatticeMembership(w, b, offset).status(x) == -1
    assert _reference_status(w, b, offset, x) == -1


def test_filter_swaps_the_ends_for_negative_coordinates(quad42):
    # x and -x in the integer kernel of the first slab's functional nu . B,
    # with entries of both signs on columns of different values: the bound
    # nu . offset stays free of x, so its enclosure is narrow while the
    # enclosure of nu . B x is as wide as x makes it.  B x - offset lies
    # 2^-300 nu.nu outside the first slab, much closer than that enclosure
    # resolves.
    s = quad42
    w, b = window(s), eprime_basis(s)
    nu = w.slabs[0][0]
    values = [dot(nu, b.col(j)) for j in range(s.n)]
    kernel = kernel_int(Matrix([[e.coeffs[i] for e in values]
                                for i in range(s.field.degree)]))
    z = next(v for v in kernel if min(v) < 0 < max(v))
    for x in (z, tuple(-c for c in z)):
        offset = _offset_near_a_bound(s, x, F(1, 2 ** 300))
        assert LatticeMembership(w, b, offset).status(x) == -1
        assert _reference_status(w, b, offset, x) == -1


def test_point_on_a_bound_is_on_the_boundary(ab):
    x = (1, 0, 0, 0)
    offset = _offset_near_a_bound(ab, x, 0)
    w, b = window(ab), eprime_basis(ab)
    assert LatticeMembership(w, b, offset).status(x) == 0
    assert _reference_status(w, b, offset, x) == 0
    with pytest.raises(SingularOffset):
        digitize(ab, offset=offset, radius=F(4))


# SHA-256 of patch_json at radius 9, recorded with the FieldElem membership
# kernel; the seeds are the benchmark's digitize seeds at --seed 0
GOLDEN_PATCHES = {
    "typical": (132381, 555,
                "e3e588cc09a91bbfba5bc6523e1e6d5ef194c274588ed4226c7aaf5a34843d66"),
    "ab": (821420, 672,
           "d3da332ba9ff4fb6cf1619d25b2d715434b08cffa17927fc972a9f6872676473"),
    "penrose": (560670, 846,
                "57f5e241a098bc50e2ac217f90561606644d8304b1053fd3d1441f09aba489b9"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PATCHES))
def test_patch_json_golden(name, request):
    seed, faces, digest = GOLDEN_PATCHES[name]
    spec = request.getfixturevalue(name + "_spec")
    s = request.getfixturevalue(name)
    patch = digitize(s, offset=spec_offset(spec, s), radius=F(9), seed=seed)
    assert len(patch) == faces
    assert hashlib.sha256(patch_json(patch).encode()).hexdigest() == digest


# -- the seed search ------------------------------------------------------------


def _seed_from_origin(member, b, target):
    """Breadth-first search in Z^n from the origin for a lattice point in the
    window, the oracle of `tiling._find_seed`, which starts at the window's
    center instead."""
    origin = (0,) * b.ncols
    frontier = deque([origin])
    seen = {origin}
    while frontier and len(seen) < 100_000:
        v = frontier.popleft()
        for j in range(len(v)):
            for sgn in (1, -1):
                nb = v[:j] + (v[j] + sgn,) + v[j + 1:]
                if nb in seen:
                    continue
                seen.add(nb)
                if member.status(nb) > 0:
                    return nb
                frontier.append(nb)
    pytest.fail("no lattice point in the window near the origin")


@pytest.mark.parametrize("name", ["typical", "ab"])
def test_seed_search_matches_search_from_origin(name, request, monkeypatch):
    # offsets that put the window a little off the origin: the patch is the
    # same whichever in-window point the growth starts from
    s = request.getfixturevalue(name)
    w, b = window(s), eprime_basis(s)
    for shift in [(F(3, 2), 0), (0, F(3, 2)), (F(-3, 2), F(1, 3)), (-2, F(-1, 2)), (1, -1)]:
        offset = tuple(s.field.from_rational(x) - c for c, x in zip(w.center, shift))
        assert LatticeMembership(w, b, offset).status((0,) * s.n) < 0
        got = digitize(s, offset=offset, radius=F(4))
        monkeypatch.setattr(tiling, "_find_seed", _seed_from_origin)
        want = digitize(s, offset=offset, radius=F(4))
        monkeypatch.undo()
        assert len(got) > 100 and got.faces == want.faces


def test_far_offset_finds_its_seed_next_to_the_window(ab):
    # a search from the origin tests millions of lattice points here; this
    # one starts next to the window, so growing the patch is most of the work
    offset = (ab.field.from_rational(50), ab.field.from_rational(50))
    patch = digitize(ab, offset=offset, radius=F(3))
    assert len(patch) == 90 and len(patch.member.cache) < 2000


# -- the packed-key walk against the walk on point tuples ----------------------


def _outcome(fn):
    try:
        return fn()
    except SingularOffset as exc:
        return ("singular", str(exc))


def _walk_and_oracle(s, offset, radius):
    """The outcomes of `tiling._digitize_at` and of the oracle walk: the
    sorted faces, or the SingularOffset message."""
    return (_outcome(lambda: tiling._digitize_at(s, offset, radius).faces),
            _outcome(lambda: digitize_oracle.digitize_faces(s, offset, radius)))


# the radii per slope, smaller where d = 3 makes a patch large
ORACLE_RADII = {"typical": (0, 3, 7), "ab": (1, 4, 8), "penrose": (2, 6),
                "quad42": (2, 5), "half42": (2, 5), "slope53": (1, 2),
                "slope43": (1, 3), "slope41": (3, 12)}


@pytest.mark.parametrize("name", sorted(ORACLE_RADII))
def test_packed_walk_matches_the_tuple_walk(name, request):
    if name.startswith("slope"):
        spec = {"slope53": SPEC_53, "slope43": SPEC_43, "slope41": SPEC_41}[name]
        s = specfile.to_slope(specfile.parse_spec(spec))
    else:
        s = request.getfixturevalue(name)
    field, m = s.field, s.n - s.d
    w = window(s)
    offsets = [draw_offset(s, f"{seed}:0") for seed in (0, 1, 7)]
    offsets.append((field.zero,) * m)  # lattice points on the boundary
    # offsets a little off the origin, which the seed search starts from
    for shift in [(F(3, 2), 0), (F(-3, 2), F(1, 3)), (1, -1)]:
        shift = (shift * m)[:m]
        offsets.append(tuple(field.from_rational(x) - c for c, x in zip(w.center, shift)))
    offsets.append((field.from_rational(50),) * m)
    if name == "penrose":
        offsets.append(integral_sum_offset(s))
    singular = 0
    for offset in offsets:
        for radius in ORACLE_RADII[name]:
            got, want = _walk_and_oracle(s, offset, F(radius))
            assert got == want, (offset, radius)
            singular += isinstance(got, tuple)
    assert singular < len(offsets) * len(ORACLE_RADII[name])
    if s.d == 2:
        assert singular  # the zero offset


def test_walk_falls_back_to_the_exact_test_next_to_a_bound(ab, monkeypatch):
    # x lies (sqrt 2 - 1)^80 nu.nu inside, then outside, the first slab's
    # upper bound: closer than the enclosures resolve, so the walk decides x
    # from its stepped sums only through the exact test
    eps = (ab.field.alpha - 1) ** 80
    x = (1, -2, 0, 3)
    decide = LatticeMembership.decide
    at_x = []

    def spy_decide(member, y, m, r):
        before = len(calls)
        got = decide(member, y, m, r)
        if y == x:
            at_x.append((got, len(calls) - before))
        return got

    for sign, want in ((-1, 1), (1, -1)):
        offset = _offset_near_a_bound(ab, x, sign * eps)
        at_x.clear()
        calls = spy_past_filter(monkeypatch)
        monkeypatch.setattr(LatticeMembership, "decide", spy_decide)
        patch = digitize(ab, offset=offset, radius=F(4))
        monkeypatch.undo()
        assert len(at_x) == 1 and at_x[0][0] == want and at_x[0][1] > 0
        assert (x in patch.vertex_set()) == (want > 0)
        assert patch.faces == digitize_oracle.digitize_faces(ab, offset, F(4))


def test_bounds_with_cancelling_coefficients_keep_the_filter(ab, monkeypatch):
    # the offset's coefficients have 103-105 bits and cancel to a value of
    # size 1: enclosed from those coefficients at FILTER_BITS every bound was
    # about 2^105 wide, and every walk point took the exact path (6,664
    # exact-path calls).  Each bound is now enclosed once at 288 bits, the
    # exact path runs only for the 55 walk points that lie on the two lines
    # (sqrt 2 - 1)^80 inside the first slab's bounds, which no enclosure at
    # FILTER_BITS separates from them, and 4 floats of the seed search and
    # the radius cut need more bits: 67 decisions past the filter.  Each
    # encloses one numerator vector at growing precision (122 enclosures)
    eps = (ab.field.alpha - 1) ** 80
    offset = _offset_near_a_bound(ab, (1, -2, 0, 3), -eps)
    assert max(abs(c) for x in offset for c in x.num).bit_length() > 100
    calls = spy_past_filter(monkeypatch)
    patch = digitize(ab, offset=offset, radius=F(4))
    monkeypatch.undo()
    decisions = sum(i == 0 or num is not calls[i - 1] for i, num in enumerate(calls))
    assert 0 < decisions <= 80
    assert patch.faces == digitize_oracle.digitize_faces(ab, offset, F(4))
    # every point the walk tested, inside the window or not, has the status
    # that FieldElem arithmetic gives
    w, b = window(ab), eprime_basis(ab)
    assert len(patch.member.cache) > len(patch.vertex_set())
    for x, status in patch.member.cache.items():
        assert _reference_status(w, b, offset, x) == status


def test_bound_enclosures_hold_their_bounds_narrowly(typical, ab, penrose):
    # each slab bound is enclosed at FILTER_BITS plus the size of its
    # numerators and shifted back to FILTER_BITS: l <= 2^FILTER_BITS common
    # bound <= u with u - l <= 3 however large the numerators, against the
    # interval oracle; for the cancelling offset the enclosure at FILTER_BITS
    # alone is more than 2^100 wide
    eps = (ab.field.alpha - 1) ** 80
    cases = [(ab, _offset_near_a_bound(ab, (1, -2, 0, 3), -eps))]
    for s in (typical, ab, penrose):
        cases += [(s, draw_offset(s, f"{seed}:0")) for seed in range(8)]
    cases.append((penrose, integral_sum_offset(penrose)))
    widest = 0
    for s, offset in cases:
        oracle = IntervalOracle(s.field)
        member = LatticeMembership(window(s), eprime_basis(s), offset)
        for _, lo, hi, _, _, lo_l, lo_u, hi_l, hi_u in member.tests:
            for num, l, u in ((lo, lo_l, lo_u), (hi, hi_l, hi_u)):
                # the tests keep twice the enclosure
                l, u = l // 2, u // 2
                assert u - l <= 3
                scaled = [c << FILTER_BITS for c in num]
                assert oracle.sign([scaled[0] - l] + scaled[1:]) >= 0
                assert oracle.sign([scaled[0] - u] + scaled[1:]) <= 0
                f_lo, f_hi = s.field.enclosure(num)
                widest = max(widest, f_hi - f_lo)
    assert widest > 2 ** 100


@settings(max_examples=60, deadline=None, derandomize=True)
@given(which=st.booleans(), seed=st.integers(0, 50),
       start=st.lists(st.integers(-3, 3), min_size=5, max_size=5),
       moves=st.lists(st.tuples(st.integers(0, 4), st.sampled_from((1, -1))),
                      max_size=40))
def test_stepped_sums_equal_sums_from_scratch(ab, penrose, which, seed, start, moves):
    # random walks from points near the origin: steps toward and across
    # x_j = 0, where the change of |x_j| turns sign
    s = penrose if which else ab
    member = LatticeMembership(window(s), eprime_basis(s), draw_offset(s, seed))
    mids = [tuple(slab[3][j] for slab in member.tests) for j in range(s.n)]
    rads = [tuple(slab[4][j] for slab in member.tests) for j in range(s.n)]
    x = list(start[:s.n])
    m, r = map(list, member.sums(x))
    for j, sgn in moves:
        j %= s.n
        m, r = tiling._step_sums(m, r, mids[j], rads[j], x[j], sgn)
        x[j] += sgn
        assert [m, r] == list(map(list, member.sums(x)))
