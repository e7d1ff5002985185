from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopechar.polyring import Ring, primitive

import groebner_oracle as oracle

RING2 = Ring(2, 24)
RING3 = Ring(3, 24)


def P(terms):
    """The primitive packed form of a two-variable polynomial."""
    return oracle.packed(RING2, oracle.poly(terms))


def test_grevlex_order():
    def pack(m):
        return oracle.pack(RING2, m)

    # degree first
    assert pack((2, 0)) > pack((1, 0))
    # same degree: grevlex compares the last exponents reversed
    assert pack((2, 0)) > pack((1, 1)) > pack((0, 2))
    monos = [(a, b, c) for a in range(4) for b in range(4) for c in range(4)]
    assert sorted(monos, key=lambda m: oracle.pack(RING3, m)) == sorted(monos, key=oracle.grevlex_key)
    assert all(RING3.unpack(oracle.pack(RING3, m)) == m for m in monos)


def test_leading_and_degree():
    p = P({(1, 1): 3, (2, 0): 1, (0, 0): -7})
    assert RING2.unpack(max(p)) == (2, 0) and p[max(p)] == 1
    assert RING2.degree(max(p)) == 2
    assert RING2.var(0) * 2 == oracle.pack(RING2, (2, 0))
    assert RING2.variables(p) == {0, 1}
    assert RING2.variables(P({(0, 2): 1, (0, 0): 1})) == {1}


def test_content_normalized():
    p = oracle.poly({(1, 0): F(4, 6), (0, 1): F(-2, 3)})
    assert oracle.unpacked(RING2, oracle.packed(RING2, p)) == {(1, 0): 1, (0, 1): -1}
    # leading coefficient positive
    q = primitive({oracle.pack(RING2, (2, 0)): -2, oracle.pack(RING2, (0, 0)): 4})
    assert q == {oracle.pack(RING2, (2, 0)): 1, oracle.pack(RING2, (0, 0)): -2}


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3),
                       st.integers(-40, 40).filter(bool), min_size=1, max_size=6),
       st.integers(1, 12))
def test_content_normalized_matches_fraction_scaling(terms, k):
    # any integer multiple of a primitive polynomial comes back to it
    packed = {oracle.pack(RING3, m): c * k for m, c in terms.items()}
    q = primitive(packed)
    ref = oracle.content_normalized(oracle.poly(terms))
    assert oracle.unpacked(RING3, q) == ref
    assert all(type(c) is int for c in q.values())


def test_evaluate_exact_and_field(typical):
    p = {oracle.pack(RING2, (2, 0)): 2, oracle.pack(RING2, (1, 1)): -6, oracle.pack(RING2, (0, 0)): 1}
    assert RING2.evaluate(p, [F(2), F(3)]) == 8 - 36 + 1
    a = typical.field.alpha
    v = RING2.evaluate(p, [a, a + 1])
    assert v == 2 * a * a - 6 * a * (a + 1) + 1


def test_specialize():
    # x^2 y + 3x - y
    p = P({(2, 1): 1, (1, 0): 3, (0, 1): -1})
    # 3y + 6, made primitive
    assert oracle.unpacked(RING2, RING2.specialize(p, {0: F(2)})) == {(0, 1): 1, (0, 0): 2}
    # -x^2/2 + 3x + 1/2, made primitive: x^2 - 6x - 1
    assert oracle.unpacked(RING2, RING2.specialize(p, {1: F(-1, 2)})) == \
        {(2, 0): 1, (1, 0): -6, (0, 0): -1}
    assert oracle.unpacked(RING2, RING2.specialize(p, {0: 0, 1: 5})) == {(0, 0): 1}
    assert RING2.specialize(p, {}) == p
    # x - y at x = y = 1 vanishes
    assert RING2.specialize(P({(1, 0): 1, (0, 1): -1}), {0: 1, 1: 1}) == {}


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3),
                       st.integers(-5, 5).filter(bool), min_size=1, max_size=6),
       st.lists(rationals, min_size=3, max_size=3),
       st.sets(st.integers(0, 2)))
def test_specialize_then_evaluate_is_evaluate(terms, point, fixed):
    p = oracle.packed(RING3, oracle.poly(terms))
    q = RING3.specialize(p, {i: point[i] for i in fixed})
    assert not RING3.variables(q) & fixed
    # the specialization is a nonzero multiple of the fixed polynomial
    ref = oracle.evaluate(oracle.unpacked(RING3, p), point)
    got = RING3.evaluate(q, point)
    assert (got == 0) == (ref == 0)
    if ref and q:
        spec = oracle.specialize(oracle.unpacked(RING3, p), {i: point[i] for i in fixed})
        assert oracle.evaluate(spec, point) == ref
        assert oracle.content_normalized(spec) == oracle.unpacked(RING3, q)


def test_pretty():
    p = {oracle.pack(RING2, (1, 1)): 1, oracle.pack(RING2, (0, 0)): -2, oracle.pack(RING2, (2, 0)): -1}
    names = ["x", "y"]
    assert RING2.json(p, names)["pretty"] == "-x^2 + x*y - 2"
    assert RING2.json(primitive(p), names)["pretty"] == "x^2 - x*y + 2"
    assert RING2.json({}, names) == {"pretty": "0", "terms": []}
    q = {oracle.pack(RING2, (1, 1)): 3, oracle.pack(RING2, (0, 0)): -2, oracle.pack(RING2, (2, 0)): 2}
    assert RING2.json(q, names)["pretty"] == "2*x^2 + 3*x*y - 2"
    assert RING2.json(q, names, monic=True) == {
        "pretty": "x^2 + 3/2*x*y - 1",
        "terms": [{"monomial": [2, 0], "coefficient": "1"},
                  {"monomial": [1, 1], "coefficient": "3/2"},
                  {"monomial": [0, 0], "coefficient": "-1"}]}


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3),
                       st.fractions(min_value=-40, max_value=40,
                                    max_denominator=30).filter(bool),
                       min_size=1, max_size=6),
       st.lists(rationals, min_size=3, max_size=3),
       st.dictionaries(st.integers(0, 2), rationals))
def test_packed_helpers_match_oracle(terms, point, fixed):
    """Specialization then primitive, evaluation at a rational point, and the
    document writer for the primitive and the monic form, against the plain
    tuple-and-Fraction dicts."""
    ref = oracle.poly(terms)
    p = oracle.packed(RING3, ref)
    assert oracle.unpacked(RING3, p) == oracle.content_normalized(ref)
    # evaluation: the primitive form is ref times a nonzero rational
    scale = next(iter(oracle.content_normalized(ref).values())) / ref[next(iter(ref))]
    assert RING3.evaluate(p, point) == scale * oracle.evaluate(ref, point)
    # specialization, made primitive
    spec = oracle.specialize(ref, fixed)
    assert oracle.unpacked(RING3, RING3.specialize(p, fixed)) == \
        oracle.content_normalized(spec)
    # the writer, primitive and monic
    names = ["x", "y", "z"]
    for form, monic in ((oracle.content_normalized(ref), False),
                        (oracle.monic(ref), True)):
        doc = RING3.json(p, names, monic=monic)
        assert doc["pretty"] == oracle.pretty(form, names)
        order = sorted(form, key=oracle.grevlex_key, reverse=True)
        assert doc["terms"] == [{"monomial": list(m), "coefficient": str(form[m])}
                                for m in order]


def test_narrow_ring_is_refused():
    ring = Ring(2, 12)
    assert ring.max_degree == 15
    ring.require(15)
    with pytest.raises(ValueError, match="overflow"):
        ring.require(16)
