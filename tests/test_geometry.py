from fractions import Fraction as F
from itertools import product

import pytest

from slopechar.geometry import (BOUNDARY, INSIDE, OUTSIDE, HPolytope, Window,
                                _sgn, complementary_zonotope, eprime_basis,
                                window)
from slopechar.linalg import Matrix, inverse, rref
from slopechar.numfield import NumberField
from slopechar.patterns import _window_polygon
from slopechar.slope import Slope
from test_slope import projectors

Q2 = NumberField([-2, 0, 1], (1, 2))
# a quadratic 4->3 hyperplane and a quadratic 5->3 slope
EXTRA_SLOPES = {
    "hyper43": (4, 3, [[1, 0, 0, [0, 1]], [0, 1, 0, [1, 1]], [0, 0, 1, [0, -1]]]),
    "slope53": (5, 3, [[1, 0, 0, [0, 1], [1, 1]], [0, 1, 0, [2, -1], [0, 1]],
                       [0, 0, 1, [1, 0], [-1, 1]]]),
}


def test_window_contains_center_and_far_point(typical, ab, penrose):
    for s in (typical, ab, penrose):
        w = window(s)
        assert window(s) is w  # cached on the slope
        assert w.contains(w.center) == INSIDE
        far = tuple(c + 100 for c in w.center)
        assert w.contains(far) == OUTSIDE


def test_window_vertices_on_boundary(ab):
    w = window(ab)
    poly = HPolytope(w.halfspaces(), w.dim)
    verts = poly.vertices()
    # Ammann-Beenker window is a regular octagon
    assert len(verts) == 8
    for v in verts:
        assert w.contains(v) == BOUNDARY


def _shoelace(ring):
    twice = 0
    for (x1, y1), (x2, y2) in zip(ring, ring[1:] + ring[:1]):
        twice = twice + (x1 * y2 - x2 * y1)
    return abs(twice / 2)


def test_window_area_ab(ab):
    # the octagon's area from its generators equals the shoelace area of its
    # vertices, found by half-space vertex enumeration
    w = window(ab)
    assert w.volume() == _shoelace(_window_polygon(w))
    assert w.volume() == ab.field.elem([F(1, 2), F(1, 4)])


def test_window_area_typical(typical):
    w = window(typical)
    assert w.volume() == _shoelace(_window_polygon(w))


def _window_polygon_matches_vertex_enumeration(w):
    # the generator walk gives the vertices that half-space enumeration
    # gives, each once, counter-clockwise with a left turn at every vertex
    poly = _window_polygon(w)
    key = lambda p: tuple(getattr(c, "coeffs", c) for c in p)
    assert sorted(map(key, poly)) == sorted(map(key, HPolytope(w.halfspaces(), w.dim).vertices()))
    assert len(set(map(key, poly))) == len(poly)
    for a, b, c in zip(poly, poly[1:] + poly[:1], poly[2:] + poly[:2]):
        assert _sgn((b[0] - a[0]) * (c[1] - b[1]) - (b[1] - a[1]) * (c[0] - b[0])) > 0
    return poly


@pytest.mark.parametrize("name, count", [("typical", 8), ("ab", 8), ("quad42", 6)])
def test_window_polygon_is_the_generator_walk(request, name, count):
    # penrose is left out: its window is 3-dimensional
    w = window(request.getfixturevalue(name))
    assert len(_window_polygon_matches_vertex_enumeration(w)) == count


def test_window_polygon_turns_merges_and_drops_generators():
    # generators pointing down or left are turned, the parallel ones merged
    # and the zero one dropped: a parallelogram moved off the base
    gens = [(F(1), F(0)), (F(-2), F(0)), (F(0), F(0)), (F(1), F(-1)), (F(-1), F(1))]
    w = Window(gens, (F(1, 2), F(3)))
    assert len(_window_polygon_matches_vertex_enumeration(w)) == 4


def test_window_volume_penrose(penrose):
    # the value the vertex triangulation of the 3-D window gave
    assert window(penrose).volume() == penrose.field.elem([F(1, 5), F(3, 5)])


@pytest.mark.parametrize("name", ["typical", "ab", "penrose"])
def test_window_bounding_box_is_hull_of_cube_images(name, request):
    s = request.getfixturevalue(name)
    b = eprime_basis(s)
    images = [b.apply(c) for c in product((0, 1), repeat=s.n)]
    lo, hi = window(s).bounding_box()
    for j in range(s.n - s.d):
        assert lo[j] == min(p[j] for p in images)
        assert hi[j] == max(p[j] for p in images)


@pytest.mark.parametrize("name", ["typical", "ab", "penrose", "quad42", "hyper43",
                                  "slope53"])
def test_eprime_basis_is_built_from_the_projector_row_space(name, request):
    if name in EXTRA_SLOPES:
        n, d, gens = EXTRA_SLOPES[name]
        s = Slope(Q2, n, d, gens)
    else:
        s = request.getfixturevalue(name)
    _, pip = projectors(s)
    red, pivots = rref(pip)
    b0 = Matrix(red.rows[: len(pivots)])
    b = eprime_basis(s)
    assert b == inverse(b0 * b0.transpose()) * b0
    assert b.nrows == s.n - s.d
    assert all(x.is_zero() for r in (b * s.generators).rows for x in r)


def test_window_projects_all_cube_vertices(typical):
    w = window(typical)
    b = eprime_basis(typical)
    for k in range(16):
        corner = tuple((k >> j) & 1 for j in range(4))
        p = b.apply(corner)
        assert w.contains(p) in (INSIDE, BOUNDARY)


def test_hpolytope_empty_interval():
    one = F(1)
    # x <= 0, x >= 1 has no vertex
    assert HPolytope([((one,), F(0)), ((-one,), F(-1))], 1).vertices() == []


def test_intersect_halfspaces_square():
    one = F(1)
    square = HPolytope(
        [((one, F(0)), F(1)), ((-one, F(0)), F(0)),
         ((F(0), one), F(1)), ((F(0), -one), F(0))], 2)
    assert sorted(square.vertices()) == [
        (F(0), F(0)), (F(0), F(1)), (F(1), F(0)), (F(1), F(1))]


def test_complementary_zonotope_smaller(ab):
    w = window(ab)
    zc = complementary_zonotope(ab, (1, 2))
    # eroded window: strictly inside the window (offset by the tile edges)
    c = zc.center
    assert w.contains(c) == INSIDE
