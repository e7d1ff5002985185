import random
from fractions import Fraction as F

import pytest

from slopechar import coincidence, specfile
from slopechar.coincidence import (Coincidence, CoincidenceEquation,
                                   CoincidenceType, Degenerate,
                                   InconsistentSystem, TrivialEquation,
                                   all_equations, coincidence_lattice,
                                   enumerate_types, equation_of,
                                   grassmann_variables, integer_constraints,
                                   minimize_r, realize)
from slopechar.geometry import eprime_basis
from slopechar.linalg import (Matrix, det, kernel, kernel_int, rank,
                              solve_right)
from slopechar.numfield import NumberField
from slopechar.slope import Slope, grassmann

import realize_oracle
from conftest import positive_factor
from groebner_oracle import content_normalized, unpacked

SEC6_TYPE = CoincidenceType(4, 2, [(4,), (3,), (2,)])
SEC6_VECTOR = (3, -3, 3, 3, 3, 2, -5, -3, -3)

# a generic 5->3 slope over Q(sqrt 5)
SPEC_53 = """\
minpoly = ["-5", "0", "1"]
root_interval = ["2", "3"]
n = 5
d = 3
generators = [[["1", "0"], ["0", "0"], ["0", "0"], ["1", "1"], ["-1", "0"]], [["0", "0"], ["1", "0"], ["0", "0"], ["0", "1"], ["1", "0"]], [["0", "0"], ["0", "0"], ["1", "0"], ["0", "-1"], ["1", "1"]]]
normalization = "G123"
"""

# a line of R^4 over Q(2^(1/4)), and a hyperplane of R^4 over Q(sqrt 2)
SPEC_41 = """\
minpoly = ["-2", "0", "0", "0", "1"]
root_interval = ["1", "2"]
n = 4
d = 1
generators = [[["1", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"], ["0", "0", "0", "1"]]]
"""
SPEC_43 = """\
minpoly = ["-2", "0", "1"]
root_interval = ["1", "2"]
n = 4
d = 3
generators = [[["1", "0"], ["0", "0"], ["0", "0"], ["0", "1"]], [["0", "0"], ["1", "0"], ["0", "0"], ["1", "1"]], [["0", "0"], ["0", "0"], ["1", "0"], ["-1", "0"]]]
"""


def _reference_matrix(s, t, v):
    """The square concurrency system M(v) of size n(n-d) over the field, with
    columns (1 | r_1..r_p | lambdas): row (i, j) says x_0 - x_i + U lambda_i = 0
    at coordinate j.  Column 0 carries the integer entries, the A-part the
    real entries, the diagonal blocks copies of the generator matrix U."""
    n, d = s.n, s.d
    zero, one = s.field.zero, s.field.one
    col0, a_rows = coincidence._integer_part(t)
    rows = []
    for r, (coeffs, arow) in enumerate(zip(col0, a_rows)):
        i, jj = divmod(r, n)
        row = [one * sum(c * v[k] for k, c in coeffs.items())]
        row.extend(one * x for x in arow)
        for blk in range(n - d):
            row.extend(s.generators.rows[jj] if blk == i else [zero] * d)
        rows.append(row)
    return Matrix(rows)


def _reference_constraints(s, t):
    """integer_constraints from an elimination: the left kernel of the fixed
    part N of M, with its free entry at 1, expanded in powers of alpha."""
    fixed = Matrix(r[1:] for r in _reference_matrix(s, t, (0,) * t.num_a).rows)
    left = kernel(fixed.transpose())
    assert len(left) == 1
    col0, _ = coincidence._integer_part(t)
    k = s.field.degree
    rows = [[F(0)] * t.num_a for _ in range(k)]
    for r, coeffs in enumerate(col0):
        for ai, sign in coeffs.items():
            e = left[0][r] * sign
            for tdeg in range(k):
                rows[tdeg][ai] += e.coeffs[tdeg]
    return Matrix(rows)


def _real_entries(t, points):
    ridx = t.r_index()
    out = [None] * t.p
    for (i, j), q in ridx.items():
        out[q] = points[i][j - 1]
    return tuple(out)


def test_enumerate_types_counts():
    assert len(enumerate_types(4, 2)) == 4
    assert len(enumerate_types(5, 2)) == 210
    # d = n-1: single type with empty real-entry subsets
    types = enumerate_types(3, 2)
    assert len(types) == 1
    assert types[0].subsets == ((), ())


def test_type_canonicalization():
    t1 = CoincidenceType(4, 2, [(4,), (3,), (2,)])
    t2 = CoincidenceType(4, 2, [(2,), (4,), (3,)])
    assert t1 == t2
    assert hash(t1) == hash(t2)
    assert t1 != CoincidenceType(4, 2, [(1,), (3,), (2,)])


def test_index_layout():
    t = SEC6_TYPE
    aidx = t.a_index()
    # reading order: point 0 = (a1, a2, a3, r1), point 1 = (a4, a5, r2, a6), ...
    assert aidx[(0, 1)] == 0 and aidx[(0, 3)] == 2
    assert aidx[(1, 1)] == 3 and aidx[(1, 4)] == 5
    assert aidx[(2, 1)] == 6 and aidx[(2, 4)] == 8
    ridx = t.r_index()
    assert ridx[(0, 4)] == 0 and ridx[(1, 3)] == 1 and ridx[(2, 2)] == 2


def test_constraints_match_known_linear_forms(typical):
    printed = Matrix([
        [17, 6, -30, 10, -6, 0, -27, 30, 0],
        [56, -4, -69, -26, 4, 30, -30, 69, -30],
        [32, -7, -45, 4, 7, -12, -36, 45, 12],
    ])
    constraints = integer_constraints(typical, SEC6_TYPE)
    assert positive_factor(constraints.rows,
                           _reference_constraints(typical, SEC6_TYPE).rows) is not None
    assert rank(constraints) == 3
    stacked = Matrix(list(constraints.rows) + list(printed.rows))
    assert rank(stacked) == 3  # equal row spaces


def test_kernel_dimension_and_vector(typical):
    basis = kernel_int(integer_constraints(typical, SEC6_TYPE))
    assert len(basis) == 6
    # the reference vector lies in the lattice
    aug = Matrix(zip(*basis))
    from slopechar.linalg import solve_right
    sol = solve_right(aug, SEC6_VECTOR)
    assert sol is not None
    assert all(x.denominator == 1 for x in sol)


def test_equation_of_reference_vector(typical):
    eq = equation_of(typical, SEC6_TYPE, SEC6_VECTOR)
    tuples, names = grassmann_variables(4, 2)
    idx = {t: i for i, t in enumerate(tuples)}

    def mono(*pairs):
        m = [0] * 6
        for t in pairs:
            m[idx[t]] += 1
        return tuple(m)

    expected = {
        mono((1, 2), (1, 3)): F(5),
        mono((1, 2), (1, 4)): F(-6),
        mono((1, 3), (1, 4)): F(-6),
        mono((1, 2), (3, 4)): F(8),
    }
    norm = content_normalized(unpacked(coincidence.grassmann_ring(4, 2), eq.poly))
    ratio = None
    assert set(norm) == set(expected)
    for m, c in expected.items():
        r = norm[m] / c
        assert ratio is None or r == ratio
        ratio = r


def test_equation_determinant_oracle(typical):
    """equation_of is the exact blockwise expansion of det(M(v)): evaluating
    it at the minors of any test plane agrees with the determinant computed
    directly from that plane's generator matrix."""
    rng = random.Random(13)
    q = NumberField([0, 1], (-1, 1))
    tuples, _ = grassmann_variables(4, 2)
    for t in enumerate_types(4, 2)[:2]:
        lat = coincidence_lattice(typical, t)
        for v in lat[:3]:
            eq = equation_of(typical, t, v)
            if isinstance(eq, TrivialEquation):
                continue
            for _ in range(3):
                while True:
                    cols = [[F(rng.randint(-4, 4)) for _ in range(4)]
                            for _ in range(2)]
                    try:
                        s2 = Slope(q, 4, 2, cols)
                        break
                    except Exception:
                        continue
                direct = det(_reference_matrix(s2, t, v))
                g2 = grassmann(s2)
                vals = [g2[tp] for tp in tuples]
                via_poly = coincidence.grassmann_ring(4, 2).evaluate(eq.poly, vals)
                assert direct == via_poly


@pytest.mark.parametrize("name", ["typical", "ab", "slope53"])
def test_cofactors_match_elimination(name, typical, ab):
    """Constraint rows from the cofactors are the rows of an elimination on
    the full system M times one positive factor, and realizations in E'
    coordinates give its r values."""
    s = {"typical": typical, "ab": ab,
         "slope53": specfile.to_slope(specfile.parse_spec(SPEC_53))}[name]
    realized = 0
    for t in enumerate_types(s.n, s.d):
        assert positive_factor(integer_constraints(s, t).rows,
                               _reference_constraints(s, t).rows) is not None
        for v in coincidence_lattice(s, t):
            m = _reference_matrix(s, t, v)
            sol = solve_right(Matrix(r[1:] for r in m.rows), [-x for x in m.col(0)])
            try:
                c = realize(s, t, v)
            except InconsistentSystem:
                assert sol is None
                continue
            assert _real_entries(t, c.points) == sol[:t.p]
            realized += 1
    assert realized


def test_rank_deficient_type():
    """A type whose fixed part N is rank-deficient: det(M) vanishes for every
    vector, so there are no constraint rows; a realization is then not unique
    (free real entries are set to 0) but still projects together."""
    q = NumberField([0, 1], (-1, 1))
    s = Slope(q, 4, 2, [[F(-2), F(1), F(0), F(-1)], [F(2), F(-2), F(0), F(-2)]])
    t = CoincidenceType(4, 2, [(1,), (2,), (4,)])
    assert integer_constraints(s, t) == Matrix([[F(0)] * t.num_a])
    b = eprime_basis(s)
    outcomes = set()
    for v in coincidence_lattice(s, t) + [(0, 2, -2, 1, 2, 1, 1, 0, 2)]:
        try:
            c = realize(s, t, v)
        except InconsistentSystem:
            outcomes.add("inconsistent")
            continue
        outcomes.add(type(c).__name__)
        if isinstance(c, Coincidence):
            projs = {b.apply([q.from_rational(x) if isinstance(x, int) else x
                              for x in pt]) for pt in c.points}
            assert len(projs) == 1
    assert {"Degenerate", "Coincidence"} <= outcomes


def test_bareiss_cofactors_match_minor_determinants():
    """Each column-0 cofactor from the one Bareiss elimination is
    (-1)^k det(rows without row k), rank-deficient matrices included."""
    rng = random.Random(14)
    deficient = 0
    for _ in range(300):
        p = rng.randint(0, 8)
        # at most two nonzeros, each +-1, per row, as in an incidence matrix
        rows = [[0] * p for _ in range(p + 1)]
        for row in rows:
            for j in rng.sample(range(p), min(p, rng.randint(0, 2))):
                row[j] = rng.choice((1, -1))
        if p >= 2 and rng.random() < 0.3:
            j, k = rng.sample(range(p), 2)
            for row in rows:
                row[k] = -row[j]
        expected = [(-1) ** k * det(Matrix([[F(x) for x in r]
                                            for i, r in enumerate(rows) if i != k]))
                    if p else 1
                    for k in range(p + 1)]
        deficient += not any(expected)
        assert coincidence._cofactors(rows) == expected
    assert deficient > 50


def test_equation_of_cold_and_warm_cache(typical, ab):
    """The expansion data is shared by every slope of a shape: equations of
    two 4->2 slopes come out the same whichever slope filled the cache."""

    def equations(s):
        out = {}
        for t in enumerate_types(4, 2):
            for v in coincidence_lattice(s, t):
                eq = equation_of(s, t, v)
                out[t.subsets, v] = None if isinstance(eq, TrivialEquation) else eq.poly
        return out

    cold = {}
    for s in (typical, ab):
        coincidence._EXPANSIONS.clear()
        cold[s] = equations(s)
    for first, second in ((typical, ab), (ab, typical)):
        coincidence._EXPANSIONS.clear()
        assert equations(first) == cold[first]
        assert equations(second) == cold[second]
        assert len(coincidence._EXPANSIONS) == 4


def test_equation_vanishes_only_on_lattice(typical):
    lat = coincidence_lattice(typical, SEC6_TYPE)
    g = grassmann(typical)
    tuples, _ = grassmann_variables(4, 2)
    vals = [g[t] for t in tuples]
    for v in lat:
        eq = equation_of(typical, SEC6_TYPE, v)
        if isinstance(eq, TrivialEquation):
            continue
        assert coincidence.grassmann_ring(4, 2).evaluate(eq.poly, vals) == 0
    # a vector outside the lattice yields an inconsistent system
    with pytest.raises(InconsistentSystem):
        realize(typical, SEC6_TYPE, (1, 0, 0, 0, 0, 0, 0, 0, 0))


def test_realize_reference_coincidence(typical):
    a = typical.field.alpha
    c = realize(typical, SEC6_TYPE, SEC6_VECTOR)
    assert isinstance(c, Coincidence)
    p0, p1, p2 = c.points
    assert p0[:3] == (3, -3, 3)
    assert p0[3] == -4 * a ** 2 - 2 * a + 2
    assert p1[2] == -F(64, 17) * a ** 2 - F(52, 17) * a + F(163, 17)
    # third real entry: the exact value, matching its decimal ~ -0.1865
    r3 = p2[1]
    assert r3 == -a ** 2 - 5 * a - 6
    lo, hi = r3.interval(F(1, 10 ** 5))
    assert F(-1866, 10 ** 4) < lo and hi < F(-1864, 10 ** 4)


def test_realize_projections_coincide(typical):
    from slopechar.geometry import eprime_basis
    c = realize(typical, SEC6_TYPE, SEC6_VECTOR)
    b = eprime_basis(typical)
    f = typical.field

    def proj(pt):
        elems = [x if not isinstance(x, int) else f.from_rational(x)
                 for x in pt]
        return tuple(sum((b[i, j] * elems[j] for j in range(4)),
                         start=f.zero) for i in range(b.nrows))

    ref = proj(c.points[0])
    for pt in c.points[1:]:
        assert proj(pt) == ref


def test_minimize_r_reference(typical):
    c = realize(typical, SEC6_TYPE, SEC6_VECTOR)
    c2, r = minimize_r(typical, c)
    assert r == 5
    # translation by 3 in the last coordinate only
    assert tuple(b - a for a, b in zip(c.points[0][:3], c2.points[0][:3])) == (0, 0, 0)
    assert c2.points[1][3] - c.points[1][3] == 3


def test_degenerate_realization(typical):
    # the zero vector puts all three points at the origin
    c = realize(typical, SEC6_TYPE, (0,) * 9)
    assert isinstance(c, Degenerate)


def test_all_equations_typical(typical):
    eqs = all_equations(typical)
    assert len(eqs) == 8
    g = grassmann(typical)
    tuples, _ = grassmann_variables(4, 2)
    vals = [g[t] for t in tuples]
    ring = coincidence.grassmann_ring(4, 2)
    for e in eqs:
        assert ring.evaluate(e.poly, vals) == 0
        assert {ring.degree(m) for m in e.poly} == {2}
        assert unpacked(ring, e.poly) == content_normalized(unpacked(ring, e.poly))
    assert len({frozenset(e.poly.items()) for e in eqs}) == len(eqs)


def test_all_equations_ab(ab):
    eqs = all_equations(ab)
    g = grassmann(ab)
    tuples, _ = grassmann_variables(4, 2)
    vals = [g[t] for t in tuples]
    assert eqs
    for e in eqs:
        assert coincidence.grassmann_ring(4, 2).evaluate(e.poly, vals) == 0


# -- the integer solver against the field elimination ---------------------------


def _outcome(solve, s, t, v):
    """What a realization gives, with the type of every point entry."""
    try:
        c = solve(s, t, v)
    except InconsistentSystem:
        return "inconsistent"
    points = tuple(tuple((type(x), x) for x in pt) for pt in c.points)
    if isinstance(c, Degenerate):
        return "Degenerate", points
    return "Coincidence", points, c.window_point, c.vector


@pytest.mark.parametrize("name", ["typical", "ab", "slope53", "slope41", "slope43",
                                  "penrose"])
def test_realize_matches_field_elimination(name, typical, ab, penrose):
    """Every type of 4->1, 4->2, 4->3 and 5->3 (a seeded sample of 5->2):
    lattice vectors and random integer vectors off the lattice realize as
    one field elimination per vector realizes them."""
    s = {"typical": typical, "ab": ab, "penrose": penrose,
         "slope53": specfile.to_slope(specfile.parse_spec(SPEC_53)),
         "slope41": specfile.to_slope(specfile.parse_spec(SPEC_41)),
         "slope43": specfile.to_slope(specfile.parse_spec(SPEC_43))}[name]
    rng = random.Random(18)
    types = enumerate_types(s.n, s.d)
    if name == "penrose":
        types = rng.sample(types, 12)
    seen = {}
    for t in types:
        lattice = coincidence_lattice(s, t)
        off = [tuple(rng.randint(-5, 5) for _ in range(t.num_a)) for _ in range(4)]
        for v in lattice + off:
            got = _outcome(realize, s, t, v)
            assert got == _outcome(realize_oracle.realize, s, t, v), (t, v)
            kind = got if isinstance(got, str) else got[0]
            seen[kind, v in lattice] = seen.get((kind, v in lattice), 0) + 1
    # the integer consistency rows reject vectors off the lattice
    assert seen.get(("inconsistent", False))
    assert seen.get(("Coincidence", True)) or seen.get(("Degenerate", True))


def test_rank_deficient_type_over_a_quadratic_field():
    """A rank-deficient type over Q(sqrt 2): the slope lies in x_3 = 0, and
    every point of the type has an integer third entry, so the last real
    entry (point 2, position 4) is a free block of the integer system and is
    set to 0, the other two blocks are pivots, and a vector is consistent
    iff the third entries agree (v_1 = v_4 = v_8)."""
    f = NumberField([-2, 0, 1], (1, 2))
    a = f.alpha
    s = Slope(f, 4, 2, [[-2, 1, 0, a - 1], [2, -2 * a, 0, -2]])
    t = CoincidenceType(4, 2, [(1,), (2,), (4,)])
    assert integer_constraints(s, t) == Matrix([[F(0)] * t.num_a] * 2)
    solve = coincidence._realizer(s, t).solve
    assert solve[2] is None and solve[0] is not None and solve[1] is not None
    rng = random.Random(7)
    kinds = []
    for _ in range(40):
        v = [rng.randint(-4, 4) for _ in range(t.num_a)]
        if rng.random() < 0.7:
            v[4] = v[8] = v[1]
        v = tuple(v)
        got = _outcome(realize, s, t, v)
        assert got == _outcome(realize_oracle.realize, s, t, v), v
        assert (got == "inconsistent") == (v[1] != v[4] or v[1] != v[8])
        kinds.append(got if isinstance(got, str) else got[0])
        if got[0] == "Coincidence":
            assert got[1][2][3] == (type(f.zero), f.zero)
    assert {"inconsistent", "Coincidence"} <= set(kinds)
