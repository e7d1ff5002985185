import json
import math
import random
from fractions import Fraction as F
from itertools import combinations
from pathlib import Path

import jsonschema
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import groebner_oracle as oracle
from groebner_oracle import (add, grevlex_key, leading, monic, monomial_div,
                             monomial_divides, monomial_lcm, mul, normal_form,
                             packed, poly, s_polynomial, unpacked)
from slopechar import cli
from slopechar.charcheck import (MINPOLY_DEGREE_CAP, PolyIdeal, ResourceLimit,
                                 _free_variables, _normal_form, _split,
                                 assemble_ideal, buchberger, isolate_real_roots,
                                 minimal_polynomial_of, plucker_polys,
                                 span_reduce, verdict)
from slopechar.coincidence import (DEGREE_CAP, grassmann_ring,
                                   grassmann_variables)
from slopechar.linalg import Matrix, det
from slopechar.polyring import Ring, primitive

X, Y, Z = range(3)


def _ideal(nv, gens, ring=None):
    """The PolyIdeal of plain generator dicts in nv variables, packed in
    `ring` (by default one wide enough for DEGREE_CAP)."""
    ring = ring or Ring(nv, 2 * DEGREE_CAP)
    return PolyIdeal(ring, ["x%d" % i for i in range(nv)], [packed(ring, g) for g in gens])


def _basis(ideal, **caps):
    """The reduced basis of the ideal as monic plain dicts."""
    return [monic(unpacked(ideal.ring, g)) for g in buchberger(ideal, **caps)]


def _minors(rows, d):
    n = len(rows)
    out = []
    for t in combinations(range(n), d):
        out.append(det(Matrix([rows[i] for i in t])))
    return out


def test_plucker_polys_vanish_on_minors():
    rng = random.Random(7)
    for n, d in ((4, 2), (5, 2), (6, 3)):
        polys = plucker_polys(n, d)
        ring = grassmann_ring(n, d)
        for _ in range(10):
            rows = [[F(rng.randint(-5, 5)) for _ in range(d)] for _ in range(n)]
            vals = _minors(rows, d)
            for p in polys:
                assert ring.evaluate(p, vals) == 0


def test_plucker_polys_reject_non_minor_vector():
    polys = plucker_polys(4, 2)
    assert len(polys) == 1
    tuples, _ = grassmann_variables(4, 2)
    # G12 = G34 = 1, everything else 0 violates the quadric
    vals = [F(1) if t in ((1, 2), (3, 4)) else F(0) for t in tuples]
    assert grassmann_ring(4, 2).evaluate(polys[0], vals) != 0


def test_span_reduce_preserves_span():
    ring = Ring(2, 24)
    p = poly({(2, 0): 2, (0, 1): 4})
    q = poly({(2, 0): 1, (0, 1): 2})  # dependent on p
    r = poly({(1, 1): 1})
    polys = [packed(ring, g) for g in (p, q, r, add(p, r))]
    inputs = [dict(g) for g in polys]
    out = span_reduce(polys)
    assert polys == inputs  # the inputs stay as they were
    assert len(out) == 2
    # distinct leading monomials (triangular), sorted, each primitive
    leads = [max(g) for g in out]
    assert leads == sorted(set(leads))
    assert all(primitive(g) == g for g in out)
    # adding the inputs back does not enlarge the span
    assert len(span_reduce(out + polys)) == 2


def _to_sympy(p, gens):
    expr = 0
    for m, c in p.items():
        t = sympy.Rational(c.numerator, c.denominator)
        for g, e in zip(gens, m):
            t *= g ** e
        expr += t
    return expr


HAND_MADE = [
    (2, [{(2, 0): 1, (0, 0): -2}, {(0, 1): 1, (0, 0): -1}]),
    (2, [{(1, 1): 1, (0, 0): -1}]),
    (2, [{(2, 0): 1, (0, 2): 1, (0, 0): -1}, {(1, 0): 1, (0, 1): -1}]),
    (3, [{(1, 0, 0): 1}, {(0, 1, 0): 1}, {(0, 0, 1): 1}]),
    (3, [{(2, 0, 0): 1, (0, 1, 0): -1}, {(0, 2, 0): 1, (0, 0, 1): -1},
         {(0, 0, 2): 1, (0, 0, 0): -2}]),
]


def _hand_made_ideals():
    for nv, gens in HAND_MADE:
        yield nv, [poly(g) for g in gens]


def _from_sympy(expr, syms):
    sp = sympy.Poly(expr, *syms)
    terms = {}
    for mono, c in sp.terms():
        c = sympy.Rational(c)
        terms[tuple(int(e) for e in mono)] = F(int(c.p), int(c.q))
    return oracle.poly(terms)


def test_buchberger_matches_reference_implementation():
    gens_syms = sympy.symbols("x0 x1 x2")
    for nv, gens in _hand_made_ideals():
        syms = gens_syms[:nv]
        ideal = _ideal(nv, gens)
        gb = buchberger(ideal)
        ref = sympy.groebner([_to_sympy(g, syms) for g in gens], *syms,
                             order="grevlex")
        ours = {frozenset(unpacked(ideal.ring, g).items()) for g in gb}
        theirs = {frozenset(oracle.content_normalized(_from_sympy(e, syms)).items())
                  for e in ref.exprs}
        assert ours == theirs
        assert all(primitive(g) == g for g in gb)


def test_buchberger_s_polynomial_criterion(typical, ab):
    """Every S-polynomial of a computed basis reduces to zero against it."""
    bases = []
    for nv, gens in _hand_made_ideals():
        bases.append(_basis(_ideal(nv, gens)))
    for s in (typical, ab):
        ideal, _ = assemble_ideal(s)
        bases.append(_basis(ideal))
    for gb in bases:
        for f, g in combinations(gb, 2):
            sp = s_polynomial(f, g)
            assert not normal_form(sp, gb)


def test_is_zero_dimensional_against_reference():
    gens_syms = sympy.symbols("x0 x1 x2")
    for nv, gens in _hand_made_ideals():
        syms = gens_syms[:nv]
        ideal = _ideal(nv, gens)
        gb = buchberger(ideal)
        ref = sympy.groebner([_to_sympy(g, syms) for g in gens], *syms,
                             order="grevlex")
        assert (not _free_variables(ideal.ring, gb, range(nv))) == ref.is_zero_dimensional


def test_normal_form_properties():
    gens = [poly({(2, 0): 1, (0, 0): -2}), poly({(0, 1): 1, (0, 0): -1})]
    gb = _basis(_ideal(2, gens))
    x = poly({(1, 0): 1})
    y = poly({(0, 1): 1})
    combo = add(mul(gens[0], add(x, y)), mul(gens[1], gens[1]))
    assert not normal_form(combo, gb)
    p = add(mul(mul(x, x), y), x)
    nf = normal_form(p, gb)
    assert normal_form(nf, gb) == nf


def test_minimal_polynomial_of():
    # x^2 = y, y^2 = 2  =>  x^4 = 2
    gens = [poly({(2, 0): 1, (0, 1): -1}), poly({(0, 2): 1, (0, 0): -2})]
    ideal = _ideal(2, gens)
    gb = buchberger(ideal)
    assert minimal_polynomial_of(X, gb, ideal.ring) == [F(-2), F(0), F(0), F(0), F(1)]
    assert minimal_polynomial_of(Y, gb, ideal.ring) == [F(-2), F(0), F(1)]
    # linear relation
    gens = [poly({(1, 0): 1, (0, 0): -3}), poly({(0, 2): 1, (0, 1): 1})]
    ideal = _ideal(2, gens)
    gb = buchberger(ideal)
    assert minimal_polynomial_of(X, gb, ideal.ring) == [F(-3), F(1)]
    # the powers up to x^(MINPOLY_DEGREE_CAP + 1) must fit the ring's fields
    with pytest.raises(ValueError, match="overflow"):
        minimal_polynomial_of(X, gb, Ring(2, 4))


def test_oracle_monomial_helpers():
    assert monomial_divides((1, 0), (2, 1))
    assert not monomial_divides((1, 2), (2, 1))
    assert monomial_div((2, 1), (1, 0)) == (1, 1)
    assert monomial_lcm((2, 0), (1, 3)) == (2, 3)


SYMS = sympy.symbols("x0 x1 x2 x3")


def _polys(nv):
    """Polynomials of degree <= 4 in nv variables, with non-integer,
    non-monic rational coefficients."""
    mono = st.tuples(*[st.integers(0, 4)] * nv).filter(lambda m: sum(m) <= 4)
    coef = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool)
    return st.dictionaries(mono, coef, min_size=1, max_size=4)


@st.composite
def _ideals(draw):
    """(nvars, generators): up to 3 generators in 2-4 variables."""
    nv = draw(st.integers(2, 4))
    return nv, draw(st.lists(_polys(nv), min_size=1, max_size=3))


def _sympy_basis(gens, syms):
    ref = sympy.groebner([_to_sympy(g, syms) for g in gens], *syms, order="grevlex")
    return [monic(_from_sympy(e, syms)) for e in ref.exprs]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_ideals())
def test_buchberger_equals_sympy_reduced_basis(ideal):
    nv, gens = ideal
    gb = _basis(_ideal(nv, gens))
    theirs = _sympy_basis(gens, SYMS[:nv])
    assert gb == sorted(theirs, key=lambda g: grevlex_key(leading(g)[0]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_ideals(), st.data())
def test_kernel_normal_form_equals_oracle(ideal, data):
    # reduction by an arbitrary list, not only by a Groebner basis
    nv, basis = ideal
    p = mul(data.draw(_polys(nv)), data.draw(_polys(nv)))
    ring = Ring(nv, max(sum(m) for g in basis + [p] for m in g))
    den = math.lcm(*(c.denominator for c in p.values()))
    work = {oracle.pack(ring, m): int(c * den) for m, c in p.items()}
    r, s = _normal_form(work, [_split(packed(ring, g)) for g in basis], ring.guard)
    assert s > 0
    assert unpacked(ring, r, s * den) == normal_form(p, basis)


def _sympy_minimal_polynomial(var, gens, nv):
    """Ascending coefficients of the first monic linear relation among the
    normal forms of var^0, var^1, ... that sympy's basis gives, or None if
    there is none up to MINPOLY_DEGREE_CAP."""
    syms = SYMS[:nv]
    ref = sympy.groebner([_to_sympy(g, syms) for g in gens], *syms, order="grevlex")
    nfs = [sympy.Poly(ref.reduce(syms[var] ** k)[1], *syms).as_dict()
           for k in range(MINPOLY_DEGREE_CAP + 1)]
    for k in range(len(nfs)):
        monos = sorted({m for nf in nfs[:k + 1] for m in nf})
        mat = sympy.Matrix(len(monos), k + 1,
                           lambda i, j: nfs[j].get(monos[i], 0))
        kernel = mat.nullspace()
        if kernel:
            v = kernel[0]
            return [F(int(c.p), int(c.q)) for c in (x / v[k] for x in v)]
    return None


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_ideals())
def test_minimal_polynomial_of_equals_sympy(ideal):
    nv, gens = ideal
    ideal = _ideal(nv, gens)
    gb = buchberger(ideal)
    for var in range(nv):
        assert minimal_polynomial_of(var, gb, ideal.ring) == \
            _sympy_minimal_polynomial(var, gens, nv)


def test_buchberger_with_exponents_past_eight_bits():
    # the exponent field width comes from the input's degree: 260 needs nine
    # bits and a guard bit, which DEGREE_CAP alone would not give
    gens = [poly({(260, 0): 1, (0, 1): F(-1, 3)}),
            poly({(259, 1): 2, (0, 0): -1})]
    gb = _basis(_ideal(2, gens, Ring(2, 2 * 260)))
    theirs = _sympy_basis(gens, SYMS[:2])
    assert gb == sorted(theirs, key=lambda g: grevlex_key(leading(g)[0]))
    assert max(sum(m) for g in gb for m in g) >= 256


def test_buchberger_refuses_a_narrow_ring():
    # fields of 5 bits hold exponents up to 15 < 2 * DEGREE_CAP; the degree
    # 260 input does not fit the default ring of the test ideals
    gens = [poly({(2, 0): 1, (0, 0): -2}), poly({(0, 1): 1, (0, 0): -1})]
    narrow = _ideal(2, gens, Ring(2, 15))
    with pytest.raises(ValueError, match="overflow"):
        buchberger(narrow)
    assert len(buchberger(narrow, degree_cap=7)) == 2
    wide = _ideal(2, [poly({(20, 0): 1, (0, 0): -2})])
    with pytest.raises(ValueError, match="overflow"):
        buchberger(wide)


def test_isolate_real_roots_quadratic():
    # x^2 - 2
    ivs = isolate_real_roots([F(-2), F(0), F(1)])
    assert len(ivs) == 2
    (l1, h1), (l2, h2) = ivs
    assert h1 < 0 < l2  # signs are determined
    # each interval contains its root (sqrt(2) ~ 1.41421356)
    assert l1 < F(-1414214, 10 ** 6) < h1 or l1 < F(-1414213, 10 ** 6) < h1
    assert l2 < F(1414213, 10 ** 6) < h2 or l2 < F(1414214, 10 ** 6) < h2
    # no real roots
    assert isolate_real_roots([F(1), F(0), F(1)]) == []


def test_isolate_real_roots_with_zero_root():
    # x^3 - x : roots -1, 0, 1
    ivs = isolate_real_roots([F(0), F(-1), F(0), F(1)])
    assert len(ivs) == 3
    signs = []
    for lo, hi in ivs:
        if lo == hi == 0:
            signs.append(0)
        elif hi < 0:
            signs.append(-1)
        elif lo > 0:
            signs.append(1)
        else:
            signs.append(None)
    assert signs == [-1, 0, 1]


def test_isolate_real_roots_contains_rational_root():
    # (2x - 1)(x + 3) = 2x^2 + 5x - 3
    ivs = isolate_real_roots([F(-3), F(5), F(2)])
    assert len(ivs) == 2
    assert ivs[0][0] <= -3 <= ivs[0][1]
    assert ivs[1][0] <= F(1, 2) <= ivs[1][1]


def test_resource_limit(typical):
    ideal, _ = assemble_ideal(typical)
    with pytest.raises(ResourceLimit):
        buchberger(ideal, degree_cap=1)
    with pytest.raises(ResourceLimit):
        buchberger(ideal, basis_cap=1)


def test_assemble_ideal_vanishes_at_slope(typical):
    from slopechar.slope import grassmann
    tuples, _ = grassmann_variables(4, 2)
    ideal, norm = assemble_ideal(typical)
    g = grassmann(typical)
    norm_val = g[norm]
    scaled = [g[t] / norm_val for t in tuples]
    for p in ideal.generators:
        assert ideal.ring.evaluate(p, scaled) == 0


def test_assembled_generators_are_content_normalized(typical, ab):
    """assemble_ideal takes span_reduce's generators as they are: integer
    coefficients, each generator primitive, with distinct leading monomials
    and free of the normalization coordinate."""
    for s in (typical, ab):
        ideal, norm = assemble_ideal(s)
        gens = ideal.generators
        assert ideal.ring is grassmann_ring(s.n, s.d)
        assert gens and all(type(c) is int for g in gens for c in g.values())
        for g in gens:
            assert math.gcd(*g.values()) == 1 and g[max(g)] > 0
            assert oracle.content_normalized(unpacked(ideal.ring, g)) == \
                unpacked(ideal.ring, g)
        assert len({max(g) for g in gens}) == len(gens)
        tuples, _ = grassmann_variables(s.n, s.d)
        assert tuples.index(norm) not in set().union(
            *(ideal.ring.variables(g) for g in gens))


def test_verdict_typical(typical):
    v = verdict(typical)
    assert v.status == "CharacterizedByCoincidences"
    assert v.r_bound is not None and v.r_bound >= 5
    from slopechar.slope import grassmann
    tuples, _ = grassmann_variables(4, 2)
    active = [i for i, t in enumerate(tuples) if t != v.normalization]
    assert not _free_variables(v.ring, list(v.groebner), active)
    # the basis vanishes at the slope's normalized coordinates
    g = grassmann(typical)
    scaled = [g[t] / g[v.normalization] for t in tuples]
    for p in v.groebner:
        assert v.ring.evaluate(p, scaled) == 0


def test_verdict_ab(ab, ab_spec):
    v = verdict(ab, normalize_at=ab_spec.normalization)
    assert v.status == "NotCharacterized"
    assert v.witness["family"]
    pt = v.witness["comparison_point"]
    assert pt is not None
    assert pt["G13"] == F(3, 2)
    # the comparison point satisfies the whole basis
    tuples, names = grassmann_variables(4, 2)
    vals = [pt[nm] for nm in names]
    for p in v.groebner:
        assert v.ring.evaluate(p, vals) == 0
    for p in v.witness["family"]:
        assert v.ring.evaluate(p, vals) == 0


CUBIC_LINE = """\
minpoly = ["-2", "0", "0", "1"]
root_interval = ["1", "2"]
n = 3
d = 1
generators = [[["1"], ["0", "1"], ["0", "0", "1"]]]
"""


def test_verdict_with_empty_groebner_basis(tmp_path):
    # the line spanned by (1, alpha, alpha^2), alpha^3 = 2, has no coincidence
    # equations, so the assembled ideal has no generators
    spec = tmp_path / "cubic_line.slope"
    spec.write_text(CUBIC_LINE)
    out = tmp_path / "verdict.json"
    assert cli.main(["verdict", str(spec), "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    schema = Path(__file__).resolve().parent.parent / "schemas" / "verdict.schema.json"
    jsonschema.validate(doc, json.loads(schema.read_text()))
    assert doc["status"] == "NotCharacterized"
    assert doc["groebner_basis"] == []


# a generic 4->3 hyperplane over Q(sqrt 10) whose free Grassmann coordinate
# lies in (-1, 0): drawn with the benchmark's slope generator
NEGATIVE_FREE_HYPERPLANE = """\
minpoly = ["-10", "0", "1"]
root_interval = ["-4", "-3"]
n = 4
d = 3
generators = [[["-1", "-1"], ["-1", "1"], ["1", "1"], ["0", "1"]], \
[["1", "0"], ["1", "-1"], ["-1", "1"], ["1", "0"]], \
[["1", "0"], ["0", "0"], ["1", "1"], ["1", "0"]]]
normalization = "G123"
"""


def test_comparison_point_for_free_coordinate_in_minus_one_zero(tmp_path):
    from slopechar.slope import grassmann
    from slopechar.specfile import load_spec, to_slope

    path = tmp_path / "hyperplane.slope"
    path.write_text(NEGATIVE_FREE_HYPERPLANE)
    s = to_slope(load_spec(str(path)))
    v = verdict(s)
    assert v.status == "NotCharacterized"
    tuples, names = grassmann_variables(4, 3)
    (free,) = v.witness["free_variables"]
    g = grassmann(s)
    value = g[tuples[names.index(free)]] / g[v.normalization]
    assert -1 < value < 0
    pt = v.witness["comparison_point"]
    assert pt is not None and set(pt) == set(names)
    assert -1 < pt[free] < 0
    vals = [pt[nm] for nm in names]
    for p in v.groebner:
        assert v.ring.evaluate(p, vals) == 0


# generic cubic 4->3 hyperplanes, drawn with the benchmark's slope generator:
# their verdicts have two free variables
CUBIC_HYPERPLANES = {
    # fixing the first free variable alone leaves the rest undetermined
    "no_point": """\
minpoly = ["2", "0", "0", "1"]
root_interval = ["-2", "-1"]
n = 4
d = 3
generators = [[["-1", "-1", "0"], ["1", "-1", "0"], ["0", "1", "0"], ["1", "-1", "-1"]], \
[["0", "0", "-1"], ["1", "1", "0"], ["0", "0", "0"], ["-1", "1", "1"]], \
[["0", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"], ["0", "0", "1"]]]
normalization = "G123"
""",
    # fixing the first free variable alone leaves G234 unconstrained
    "missing_coordinate": """\
minpoly = ["-1", "1", "-2", "1"]
root_interval = ["1", "2"]
n = 4
d = 3
generators = [[["0", "0", "0"], ["-1", "1", "-1"], ["-1", "0", "-1"], ["1", "0", "0"]], \
[["1", "-1", "1"], ["0", "0", "0"], ["1", "-1", "1"], ["0", "-1", "1"]], \
[["-1", "1", "-1"], ["-1", "-1", "-1"], ["0", "1", "1"], ["0", "0", "0"]]]
normalization = "G123"
""",
}


@pytest.mark.parametrize("case", sorted(CUBIC_HYPERPLANES))
def test_comparison_point_with_two_free_variables(case):
    from slopechar.slope import grassmann
    from slopechar.specfile import parse_spec, to_slope

    spec = parse_spec(CUBIC_HYPERPLANES[case])
    s = to_slope(spec)
    v = verdict(s, normalize_at=spec.normalization)
    assert v.status == "NotCharacterized"
    tuples, names = grassmann_variables(4, 3)
    assert len(v.witness["free_variables"]) == 2
    pt = v.witness["comparison_point"]
    assert pt is not None and set(pt) == set(names)
    vals = [pt[nm] for nm in names]
    for p in v.groebner:
        assert v.ring.evaluate(p, vals) == 0
    for p in v.witness["family"]:
        assert v.ring.evaluate(p, vals) == 0
    g = grassmann(s)
    scaled = [g[t] / g[v.normalization] for t in tuples]
    assert any(x != y for x, y in zip(vals, scaled))
