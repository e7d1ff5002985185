from fractions import Fraction as F

from slopechar.geometry import (BOUNDARY, INSIDE, OUTSIDE, HPolytope,
                                complementary_zonotope, eprime_basis,
                                intersect_halfspaces, window)


def test_window_contains_center_and_far_point(typical, ab, penrose):
    for s in (typical, ab, penrose):
        w = window(s)
        assert window(s) is w  # cached on the slope
        assert w.contains(w.center) == INSIDE
        far = tuple(c + 100 for c in w.center)
        assert w.contains(far) == OUTSIDE


def test_window_vertices_on_boundary(ab):
    w = window(ab)
    poly = w.as_hpolytope()
    verts = poly.vertices()
    # Ammann-Beenker window is a regular octagon
    assert len(verts) == 8
    for v in verts:
        assert w.contains(v) == BOUNDARY


def test_window_area_ab(ab):
    # octagon with unit-square plus sqrt(2) contributions: 1/2 + sqrt(2)/4...
    # verified against the exact shoelace of its vertices
    poly = window(ab).as_hpolytope()
    verts = poly.vertices()
    a = ab.field.alpha
    area = poly.volume()
    # shoelace oracle over the field
    from slopechar.geometry import _angular_sort, _centroid
    ring = _angular_sort(list(verts), _centroid(verts))
    twice = ab.field.zero
    for i in range(len(ring)):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % len(ring)]
        twice = twice + (x1 * y2 - x2 * y1)
    assert area == twice / 2 or area == -(twice / 2)


def test_window_projects_all_cube_vertices(typical):
    w = window(typical)
    b = eprime_basis(typical)
    for k in range(16):
        corner = tuple((k >> j) & 1 for j in range(4))
        p = b.apply(corner)
        assert w.contains(p) in (INSIDE, BOUNDARY)


def test_hpolytope_empty_and_interior():
    one = F(1)
    # x >= 0, x <= -1 is empty
    empty = HPolytope([((one,), F(0)), ((-one,), F(-1))], 1)
    assert empty.is_empty()
    # a segment in the plane has empty interior
    seg = HPolytope([((one, F(0)), F(1)), ((-one, F(0)), F(-1)),
                     ((F(0), one), F(0)), ((F(0), -one), F(0))], 2)
    assert not seg.is_empty()
    assert seg.interior_empty()


def test_intersect_halfspaces_square():
    one = F(1)
    square, verts = intersect_halfspaces(
        [((one, F(0)), F(1)), ((-one, F(0)), F(0)),
         ((F(0), one), F(1)), ((F(0), -one), F(0))], 2)
    assert sorted(verts) == [
        (F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1))]
    assert square.volume() == 1


def test_complementary_zonotope_smaller(ab):
    w = window(ab)
    zc = complementary_zonotope(ab, (1, 2))
    # eroded window: strictly inside the window (offset by the tile edges)
    c = zc.center
    assert w.contains(c) == INSIDE
