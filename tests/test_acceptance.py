"""End-to-end acceptance suite: one test per shipped guarantee.

Each test states a result the package promises (exact values, verdicts,
counts, equivalences) together with a wall-clock budget.
"""

import json
import random
import time
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import sympy

from slopechar import charcheck, cli, coincidence, linalg, patterns, tiling
from slopechar.coincidence import (CoincidenceType, TrivialEquation,
                                   all_equations, coincidence_lattice,
                                   equation_of, grassmann_variables,
                                   integer_constraints, minimize_r, realize)
from slopechar.geometry import INSIDE, eprime_basis, window
from slopechar.linalg import Matrix, det, hnf, kernel_int, lll, rank
from slopechar.patterns import (SingularPoint, cyclic_rotation_group,
                                enumerate_r_patterns, patch_vertex_stars,
                                r_pattern_at, rotation_classes)
from slopechar.polyring import Poly
from slopechar.slope import grassmann
from slopechar.specfile import spec_offset
from slopechar.tiling import (LatticeMembership, Face, digitize,
                              face_selected_by_anchor, tile_frequencies)
from groebner_oracle import normal_form, s_polynomial
from test_linalg import lll_checks

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"

SEC6_TYPE = CoincidenceType(4, 2, [(4,), (3,), (2,)])
SEC6_VECTOR = (3, -3, 3, 3, 3, 2, -5, -3, -3)

TUPLES4 = [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
IDX4 = {t: i for i, t in enumerate(TUPLES4)}


def _quadric(pairs):
    terms = {}
    for c, t1, t2 in pairs:
        m = [0] * 6
        m[IDX4[t1]] += 1
        m[IDX4[t2]] += 1
        m = tuple(m)
        terms[m] = terms.get(m, F(0)) + F(c)
    return Poly(6, terms)


# the eight degree-2 coincidence relations of the typical cubic example
TYPICAL_QUADRICS = [
    _quadric([(5, (1, 2), (1, 3)), (-6, (1, 2), (1, 4)),
              (-6, (1, 3), (1, 4)), (8, (1, 2), (3, 4))]),
    _quadric([(17, (1, 2), (1, 3)), (28, (1, 2), (1, 4)),
              (-36, (1, 3), (1, 4)), (51, (1, 3), (2, 4)),
              (-42, (1, 2), (3, 4))]),
    _quadric([(7, (1, 2), (2, 3)), (-6, (1, 4), (2, 3)),
              (4, (1, 2), (2, 4)), (-9, (2, 3), (2, 4)),
              (-2, (1, 2), (3, 4))]),
    _quadric([(14, (1, 2), (2, 3)), (-9, (1, 4), (2, 3)),
              (-2, (1, 2), (2, 4)), (24, (2, 3), (2, 4))]),
    _quadric([(49, (1, 3), (2, 3)), (2, (1, 4), (2, 3)),
              (12, (1, 3), (2, 4)), (-10, (1, 3), (3, 4)),
              (2, (2, 3), (3, 4))]),
    _quadric([(38, (1, 3), (2, 3)), (-72, (1, 4), (2, 3)),
              (-8, (1, 3), (2, 4)), (1, (1, 3), (3, 4)),
              (103, (2, 3), (3, 4))]),
    _quadric([(13, (1, 4), (2, 3)), (-6, (1, 3), (2, 4)),
              (2, (1, 4), (2, 4)), (8, (1, 4), (3, 4)),
              (-7, (2, 4), (3, 4))]),
    _quadric([(38, (1, 4), (2, 3)), (17, (1, 3), (2, 4)),
              (-166, (1, 4), (2, 4)), (26, (1, 4), (3, 4)),
              (74, (2, 4), (3, 4))]),
]


def _elapsed_ok(t0, budget, what):
    dt = time.monotonic() - t0
    assert dt < budget, f"{what} took {dt:.1f}s, budget {budget}s"


def _sgn(x):
    return x.sign() if hasattr(x, "sign") else (x > 0) - (x < 0)


def test_criterion_01_grassmann_reproduction(tmp_path, typical):
    t0 = time.monotonic()
    out = tmp_path / "info.json"
    assert cli.main(["info", str(FIXTURES / "typical.slope"),
                     "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    a = typical.field.alpha
    expected = {
        "G12": -6 * a ** 2 + 3,
        "G13": -4 * a ** 2 - 6 * a + 4,
        "G14": -4 * a ** 2 + 7 * a - 2,
        "G23": 2 * a ** 2 - 2 * a + 2,
        "G24": 4 * a ** 2 + 6 * a - 3,
        "G34": 10 * a - 2,
    }
    got = {k: typical.field.elem([F(c) for c in v["coeffs"]])
           for k, v in doc["grassmann"].items()}
    assert set(got) == set(expected)
    # equality up to one common nonzero rational factor
    ratio = None
    for k in sorted(expected):
        r = got[k] / expected[k]
        assert r.is_rational() and not r.is_zero()
        assert ratio is None or r == ratio
        ratio = r
    _elapsed_ok(t0, 1, "info")


def test_criterion_02_constraint_system(typical):
    t0 = time.monotonic()
    printed = Matrix([
        [F(17), F(6), F(-30), F(10), F(-6), F(0), F(-27), F(30), F(0)],
        [F(56), F(-4), F(-69), F(-26), F(4), F(30), F(-30), F(69), F(-30)],
        [F(32), F(-7), F(-45), F(4), F(7), F(-12), F(-36), F(45), F(12)],
    ])
    constraints = integer_constraints(typical, SEC6_TYPE)
    assert rank(constraints) == 3
    assert rank(Matrix(list(constraints.rows) + list(printed.rows))) == 3
    basis = kernel_int(constraints)
    assert len(basis) == 6
    aug = Matrix([[F(x) for x in row] for row in zip(*basis)])
    sol = linalg.solve_right(aug, [F(x) for x in SEC6_VECTOR])
    assert sol is not None and all(x.denominator == 1 for x in sol)
    _elapsed_ok(t0, 1, "constraint system")


def test_criterion_03_equation_derivation(typical):
    t0 = time.monotonic()
    eq = equation_of(typical, SEC6_TYPE, SEC6_VECTOR)
    reference = TYPICAL_QUADRICS[0]
    norm = eq.poly.content_normalized()
    assert set(norm.terms) == set(reference.terms)
    ratio = {m: norm.terms[m] / c for m, c in reference.terms.items()}
    assert len(set(ratio.values())) == 1

    a = typical.field.alpha
    c = realize(typical, SEC6_TYPE, SEC6_VECTOR)
    assert c.points[0][3] == -4 * a ** 2 - 2 * a + 2
    assert c.points[1][2] == (-F(64, 17) * a ** 2 - F(52, 17) * a + F(163, 17))
    # third real entry: exactly -a^2 - 5a - 6 (~ -0.1865)
    assert c.points[2][1] == -a ** 2 - 5 * a - 6
    c2, r = minimize_r(typical, c)
    assert r == 5
    shift = tuple(b - x for x, b in zip(c.points[0], c2.points[0]))[:3]
    assert shift == (0, 0, 0)
    assert c2.points[1][3] - c.points[1][3] == 3  # translation (0,0,0,3)
    _elapsed_ok(t0, 5, "equation derivation")


def test_criterion_04_substitution_soundness(typical, ab, penrose):
    t0 = time.monotonic()
    g = grassmann(typical)
    vals = [g[t] for t in TUPLES4]
    for q in TYPICAL_QUADRICS:
        assert q.evaluate(vals).is_zero()
    gab = grassmann(ab)
    assert gab[(1, 2)] == gab[(1, 4)] == gab[(2, 3)] == gab[(3, 4)]
    assert gab[(1, 3)] * gab[(2, 4)] == 2 * gab[(1, 2)] * gab[(1, 2)]
    gp = grassmann(penrose)
    # G12 = G23 = G34 = G45 = G51 and G13 = G35 = G52 = G24 = G41
    long_diag = [gp[(1, 2)], gp[(2, 3)], gp[(3, 4)], gp[(4, 5)], -gp[(1, 5)]]
    short_diag = [gp[(1, 3)], gp[(3, 5)], -gp[(2, 5)], gp[(2, 4)], -gp[(1, 4)]]
    assert all(x == long_diag[0] for x in long_diag)
    assert all(x == short_diag[0] for x in short_diag)
    _elapsed_ok(t0, 1, "substitution soundness")


def test_criterion_05_verdicts(typical, ab, penrose,
                               typical_spec, ab_spec, penrose_spec):
    t0 = time.monotonic()
    v1 = charcheck.verdict(typical, normalize_at=typical_spec.normalization)
    assert v1.status == "CharacterizedByCoincidences"
    assert isinstance(v1.r_bound, int) and v1.r_bound >= 1
    assert v1.r_witnesses and max(r for _, r in v1.r_witnesses) == v1.r_bound

    v2 = charcheck.verdict(ab, normalize_at=ab_spec.normalization)
    assert v2.status == "NotCharacterized"
    # one-parameter family G13*G24 = 2 (after G12 = 1)
    expected = Poly(6, {(0, 1, 0, 0, 1, 0): F(1), (0,) * 6: F(-2)})
    assert expected in set(v2.witness["family"])
    pt = v2.witness["comparison_point"]
    assert pt is not None and pt["G13"] == F(3, 2)

    v3 = charcheck.verdict(penrose, normalize_at=penrose_spec.normalization)
    assert v3.status == "NonGenericInput"
    assert v3.witness["rational_normal_vector"] == (1, 1, 1, 1, 1)
    cons = [c for c in v3.consequences if c["variable"] == "G12"]
    assert cons
    c = cons[0]
    coeffs = sorted(((m[0], v) for m, v in c["polynomial"].terms.items()))
    assert coeffs == [(0, F(-1)), (1, F(-1)), (2, F(1))]  # G12^2 - G12 - 1
    assert any(r["sign"] == -1 and not r["accepted"] for r in c["roots"])
    assert any(r["sign"] == 1 and r["accepted"] for r in c["roots"])
    _elapsed_ok(t0, 60, "three verdicts")


def test_criterion_06_frequencies(ab):
    t0 = time.monotonic()
    patch = digitize(ab, radius=F(40), seed=0)
    freqs = tile_frequencies(patch)
    g = grassmann(ab)
    lo, hi = g[(1, 3)].interval(F(1, 10 ** 6))
    sqrt2 = float((lo + hi) / 2) / float(g[(1, 2)].coeffs[0])
    weights = {}
    for t in TUPLES4:
        l, h = g[t].interval(F(1, 10 ** 6))
        weights[t] = abs(float((l + h) / 2))
    total = sum(weights.values())
    assert abs(total / min(weights.values()) - (4 + 2 * sqrt2)) < 1e-6
    for t in TUPLES4:
        assert abs(float(freqs[t]) - weights[t] / total) < 0.05
    _elapsed_ok(t0, 30, "radius-40 frequencies")


def _strictly_inside(poly, q):
    sign = 0
    for k in range(len(poly)):
        a, b = poly[k], poly[(k + 1) % len(poly)]
        cross = (b[0] - a[0]) * (q[1] - a[1]) - (b[1] - a[1]) * (q[0] - a[0])
        s = _sgn(cross)
        if s == 0:
            return False
        if sign == 0:
            sign = s
        elif s != sign:
            return False
    return True


def test_criterion_07_partition_property(ab):
    t0 = time.monotonic()
    atlas = enumerate_r_patterns(ab, 0)
    assert atlas.complete
    total = None
    for e in atlas.entries:
        total = e.area if total is None else total + e.area
    assert total == atlas.window_area  # exact, in the slope's field
    cells = [poly for e in atlas.entries for poly in e.cells]
    w = window(ab)
    rng = random.Random(2024)
    checked = 0
    while checked < 200:
        q = tuple(c + F(rng.randint(-1200, 1200), 997) for c in w.center)
        if w.contains(q) != INSIDE:
            continue
        try:
            r_pattern_at(ab, q, 0)  # regularity check
        except SingularPoint:
            continue
        hits = sum(1 for poly in cells if _strictly_inside(poly, q))
        assert hits == 1
        checked += 1
    _elapsed_ok(t0, 60, "partition property")


def test_criterion_08_oracle_equivalence(typical, ab, penrose, penrose_spec):
    t0 = time.monotonic()
    cases = [(typical, None), (ab, None),
             (penrose, spec_offset(penrose_spec, penrose))]
    for s, off in cases:
        patch = digitize(s, offset=off, radius=F(10), seed=0)
        member = LatticeMembership(window(s), eprime_basis(s), patch.offset)
        candidates = set(patch.faces)
        for f in patch.faces:
            for i in range(s.n):
                for sg in (1, -1):
                    anchor = list(f.anchor)
                    anchor[i] += sg
                    candidates.add(Face(tuple(anchor), f.directions))
        for f in candidates:
            corner = all(member.status(c) > 0 for c in f.corners())
            anchor = face_selected_by_anchor(s, f, patch.offset)
            assert corner == anchor
    _elapsed_ok(t0, 30, "anchor-test equivalence")


def test_criterion_09_kernel_suite(typical, ab):
    t0 = time.monotonic()
    rng = random.Random(99)
    # Plucker residuals of minors of 100 random rational matrices
    shapes = [(4, 2), (5, 2), (5, 3), (6, 2), (6, 3)]
    for trial in range(100):
        n, d = shapes[trial % len(shapes)]
        rows = [[F(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(d)]
                for _ in range(n)]
        minors = [det(Matrix([rows[i] for i in t]))
                  for t in combinations(range(n), d)]
        for p in charcheck.plucker_polys(n, d):
            assert p.evaluate(minors) == 0
    # LLL: Lovasz condition at delta = 3/4 and lattice equality via HNF
    for _ in range(20):
        k = rng.randint(2, 4)
        basis = [[rng.randint(-30, 30) for _ in range(k)] for _ in range(k)]
        if det(Matrix([[F(x) for x in row] for row in basis])) == 0:
            continue
        red = lll(basis, delta=F(3, 4))
        size_ok, lovasz_ok = lll_checks(red, delta=F(3, 4))
        assert size_ok and lovasz_ok
        assert hnf(Matrix(zip(*basis))).rows == hnf(Matrix(zip(*red))).rows
    # Buchberger output passes the S-polynomial criterion
    ideals = []
    for s in (typical, ab):
        ideal, _ = charcheck.assemble_ideal(s)
        ideals.append(ideal)
    x2 = Poly(2, {(2, 0): F(1), (0, 1): F(-1)})
    y2 = Poly(2, {(0, 2): F(1), (0, 0): F(-2)})
    ideals.append(charcheck.PolyIdeal(["x", "y"], [x2, y2]))
    for ideal in ideals:
        gb = charcheck.buchberger(ideal)
        for f, g in combinations(gb, 2):
            assert normal_form(s_polynomial(f, g), gb).is_zero()
    # zero-dimensionality agrees with an independent implementation
    hand_made = [
        (2, [{(2, 0): 1, (0, 0): -2}, {(0, 1): 1, (0, 0): -1}]),
        (2, [{(1, 1): 1, (0, 0): -1}]),
        (2, [{(2, 0): 1, (0, 2): 1, (0, 0): -1}, {(1, 0): 1, (0, 1): -1}]),
        (3, [{(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}]),
        (3, [{(2, 0, 0): 1, (0, 1, 0): -1}, {(0, 2, 0): 1, (0, 0, 1): -1},
             {(0, 0, 2): 1, (0, 0, 0): -2}]),
    ]
    syms3 = sympy.symbols("x0 x1 x2")
    for nv, gens in hand_made:
        polys = [Poly(nv, {m: F(c) for m, c in g.items()}) for g in gens]
        gb = charcheck.buchberger(
            charcheck.PolyIdeal(["x%d" % i for i in range(nv)], polys))
        exprs = []
        for p in polys:
            e = 0
            for m, c in p.terms.items():
                t = sympy.Rational(c.numerator, c.denominator)
                for s_, ex in zip(syms3[:nv], m):
                    t *= s_ ** ex
                e += t
            exprs.append(e)
        ref = sympy.groebner(exprs, *syms3[:nv], order="grevlex")
        assert (not charcheck._free_variables(gb, range(nv))) == ref.is_zero_dimensional
    _elapsed_ok(t0, 60, "kernel suite")


def test_criterion_10_penrose_pattern_scan(penrose, penrose_spec):
    t0 = time.monotonic()
    off = spec_offset(penrose_spec, penrose)
    patch = digitize(penrose, offset=off, radius=F(30), seed=penrose_spec.seed)
    stars = patch_vertex_stars(patch)
    classes = rotation_classes(stars, cyclic_rotation_group(5))
    assert len(classes) == 7
    _elapsed_ok(t0, 60, "Penrose pattern scan")
