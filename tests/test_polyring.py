from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from slopechar.polyring import Poly, grevlex_key

import groebner_oracle


def P(terms):
    return Poly(2, {m: F(c) for m, c in terms.items()})


def test_grevlex_order():
    # degree first
    assert grevlex_key((2, 0)) > grevlex_key((1, 0))
    # same degree: grevlex compares the last exponents reversed
    assert grevlex_key((2, 0)) > grevlex_key((1, 1)) > grevlex_key((0, 2))


def test_leading_and_degree():
    p = P({(1, 1): 3, (2, 0): 1, (0, 0): -7})
    assert p.leading() == ((2, 0), F(1))
    assert p.degree() == 2


def test_arithmetic_and_zero():
    x = P({(1, 0): 1})
    y = P({(0, 1): 1})
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (p - p).is_zero()
    assert x * 0 == Poly.zero(2)


def test_content_normalized():
    p = P({(1, 0): F(4, 6), (0, 1): F(-2, 3)})
    q = p.content_normalized()
    assert q.terms == {(1, 0): F(1), (0, 1): F(-1)}
    # leading coefficient positive
    r = P({(2, 0): -2, (0, 0): 4}).content_normalized()
    assert r.leading()[1] > 0


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3),
                       st.fractions(min_value=-40, max_value=40,
                                    max_denominator=30).filter(bool),
                       max_size=6))
def test_content_normalized_matches_fraction_scaling(terms):
    p = Poly(3, terms)
    q = p.content_normalized()
    ref = groebner_oracle.content_normalized(p)
    assert q == ref and list(q.terms) == list(ref.terms)
    assert all(type(c) is int for c in q.terms.values())


def test_evaluate_exact_and_field(typical):
    p = P({(2, 0): 1, (1, 1): -3, (0, 0): F(1, 2)})
    assert p.evaluate([F(2), F(3)]) == 4 - 18 + F(1, 2)
    a = typical.field.alpha
    v = p.evaluate([a, a + 1])
    assert v == a * a - 3 * a * (a + 1) + F(1, 2)


def test_specialize():
    x = P({(1, 0): 1})
    y = P({(0, 1): 1})
    p = x * x * y + 3 * x - y
    assert p.specialize({0: F(2)}) == 3 * y + Poly.constant(2, 6)
    assert p.specialize({1: F(-1, 2)}) == F(-1, 2) * x * x + 3 * x + Poly.constant(2, F(1, 2))
    assert p.specialize({0: 0, 1: 5}) == Poly.constant(2, -5)
    assert p.specialize({}) == p


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3),
                       st.integers(-5, 5), max_size=6),
       st.lists(rationals, min_size=3, max_size=3),
       st.sets(st.integers(0, 2)))
def test_specialize_then_evaluate_is_evaluate(terms, point, fixed):
    p = Poly(3, terms)
    q = p.specialize({i: point[i] for i in fixed})
    assert all(m[i] == 0 for m in q.terms for i in fixed)
    assert q.evaluate(point) == p.evaluate(point)


def test_pretty():
    p = P({(1, 1): 1, (0, 0): -2, (2, 0): -1})
    names = ["x", "y"]
    assert p.pretty(names) == "-x^2 + x*y - 2"
    assert Poly.zero(2).pretty(names) == "0"


coef = st.integers(min_value=-4, max_value=4)
mono = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(mono, coef, max_size=5).map(
    lambda d: Poly(2, {m: F(c) for m, c in d.items()}))


@settings(max_examples=60, deadline=None)
@given(polys, polys, st.tuples(st.fractions(max_denominator=5),
                               st.fractions(max_denominator=5)))
def test_evaluation_is_ring_morphism(p, q, xy):
    vals = list(xy)
    assert (p + q).evaluate(vals) == p.evaluate(vals) + q.evaluate(vals)
    assert (p * q).evaluate(vals) == p.evaluate(vals) * q.evaluate(vals)
