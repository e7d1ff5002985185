import math
import random
import time
from fractions import Fraction as F

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import spy_past_filter
from interval_oracle import IntervalOracle
from slopechar import numfield
from slopechar.errors import InputError
from slopechar.numfield import (FieldElem, NumberField, count_real_roots,
                                is_irreducible, poly_eval)


def sqrt2():
    return NumberField([-2, 0, 1], (F(1), F(2)))


def cubic():
    return NumberField([1, -1, 1, 1], (F(-2), F(-1)))


def half():
    """Q(sqrt(3/2)): the monic minpoly x^2 - 3/2 has a non-integer coefficient."""
    return NumberField([-3, 0, 2], (F(1), F(2)))


def half_cubic():
    """The root in (1, 2) of x^3 - x/2 - 3/2: alpha^3 and alpha^4 both reduce
    with denominator 2."""
    return NumberField([-3, -1, 0, 2], (F(1), F(2)))


def test_root_bracketing_errors():
    with pytest.raises(InputError, match="no real root"):
        NumberField([-2, 0, 1], (F(2), F(3)))
    with pytest.raises(InputError, match="2 roots"):
        NumberField([-2, 0, 1], (F(-2), F(2)))
    with pytest.raises(InputError, match="reducible"):
        NumberField([-1, 0, 1], (F(0), F(2)))  # x^2 - 1 = (x-1)(x+1)


def test_irreducibility():
    assert is_irreducible([F(-2), F(0), F(1)])          # x^2 - 2
    assert not is_irreducible([F(0), F(0), F(1)])       # x^2
    assert not is_irreducible([F(-1), F(0), F(0), F(1)])  # x^3 - 1
    # degree-4 cases go through the sympy fallback
    assert is_irreducible([F(2), F(0), F(0), F(0), F(1)])    # x^4 + 2
    assert not is_irreducible([F(-4), F(0), F(0), F(0), F(1)])  # x^4 - 4


def _sympy_irreducible(coeffs):
    x = sympy.Symbol("x")
    return sympy.Poly(sum(sympy.Rational(c.numerator, c.denominator) * x ** i
                          for i, c in enumerate(coeffs)), x).is_irreducible


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(2, 3), st.booleans(), st.data())
def test_irreducibility_of_quadratics_and_cubics_matches_sympy(degree, split, data):
    rationals = st.fractions(min_value=-40, max_value=40, max_denominator=6)

    def poly(deg):
        return data.draw(st.lists(rationals, min_size=deg + 1, max_size=deg + 1)
                         .filter(lambda c: c[-1] != 0))

    if split:
        # a rational root by construction: (x - root) * factor
        factor, root = poly(degree - 1), data.draw(rationals)
        coeffs = [F(0)] + factor
        for i, c in enumerate(factor):
            coeffs[i] -= root * c
    else:
        coeffs = poly(degree)
    assert is_irreducible(coeffs) == _sympy_irreducible(coeffs)


@pytest.mark.parametrize("degree", [2, 3])
def test_irreducibility_of_twenty_digit_constants_is_fast(degree):
    # trial division up to sqrt(a0) once took seconds from 16 digits on
    big = 10 ** 20 + 3
    for a0 in (big, big * big if degree == 2 else big ** 3):
        coeffs = [F(-a0)] + [F(0)] * (degree - 1) + [F(1)]
        t0 = time.perf_counter()
        assert is_irreducible(coeffs) == _sympy_irreducible(coeffs)
        assert time.perf_counter() - t0 < 1


def test_basic_arithmetic():
    f = sqrt2()
    a = f.alpha
    assert a * a == f.from_rational(2)
    assert (a + 1) * (a - 1) == f.from_rational(1)
    assert (f.one / a) * a == f.one
    x = 3 * a + f.from_rational(F(1, 2))
    assert x - x == f.zero
    assert (x / x) == f.one


def test_pow_and_inverse():
    f = cubic()
    a = f.alpha
    assert a ** 3 == -(a ** 2) + a - 1  # from the minimal polynomial
    assert (a ** -1) * a == f.one
    with pytest.raises(Exception):
        f.zero.inverse()


def test_sign_and_comparison():
    f = sqrt2()
    a = f.alpha
    assert a.sign() == 1
    assert (a - 2).sign() == -1
    assert (a - 1).sign() == 1
    assert f.zero.sign() == 0
    assert a < f.from_rational(F(3, 2))
    assert abs(f.from_rational(-3)) == f.from_rational(3)


def test_floor():
    f = sqrt2()
    a = f.alpha
    assert a.floor() == 1
    assert (-a).floor() == -2
    assert (a * a).floor() == 2  # exact integer 2
    assert f.from_rational(F(-7, 2)).floor() == -4


def test_interval_refinement():
    f = cubic()
    a = f.alpha
    lo, hi = a.interval(F(1, 10 ** 9))
    assert hi - lo <= F(1, 10 ** 9)
    assert poly_eval([F(1), F(-1), F(1), F(1)], lo) * \
        poly_eval([F(1), F(-1), F(1), F(1)], hi) <= 0


def test_count_real_roots():
    # x^3 - x has roots -1, 0, 1
    p = [F(0), F(-1), F(0), F(1)]
    assert count_real_roots(p, F(-2), F(2)) == 3
    assert count_real_roots(p, F(1, 2), F(2)) == 1
    assert count_real_roots(p, F(2), F(3)) == 0


def test_approx_matches_float():
    f = cubic()
    a = f.alpha
    x = 2 * a ** 2 + 3 * a - f.from_rational(F(1, 3))
    assert abs(float(x) - (2 * float(a) ** 2 + 3 * float(a) - 1 / 3)) < 1e-9


small_rats = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(st.lists(small_rats, min_size=2, max_size=2),
       st.lists(small_rats, min_size=2, max_size=2))
def test_field_ring_axioms(ca, cb):
    f = sqrt2()
    x = f.elem(ca)
    y = f.elem(cb)
    assert x + y == y + x
    assert x * y == y * x
    assert x * (y + f.one) == x * y + x
    if not y.is_zero():
        assert (x / y) * y == x


# -- the fixed-point sign filter ------------------------------------------------

FIELDS = {"quadratic": sqrt2, "cubic": cubic, "half": half, "half_cubic": half_cubic}


def _reference_sign(name, coeffs):
    """Sign by refinement of a Fraction isolating interval alone, on an
    interval of its own (`interval_oracle`)."""
    return IntervalOracle(FIELDS[name]()).sign(coeffs)


def _convergents(field, max_q):
    """Continued-fraction convergents (p, q) of alpha with q <= max_q."""
    lo, hi = field.alpha.interval(F(1, max_q ** 3))
    out = []
    p0, q0, p1, q1 = 0, 1, 1, 0
    while True:
        a = lo.numerator // lo.denominator
        if a != hi.numerator // hi.denominator:
            return out  # the enclosure no longer fixes the next term
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > max_q:
            return out
        out.append((p1, q1))
        lo, hi = 1 / (hi - a), 1 / (lo - a)


CONVERGENTS = {name: _convergents(make(), 10 ** 30) for name, make in FIELDS.items()}


@st.composite
def _elements(draw):
    """(field name, coefficients): random, near zero, or exactly zero."""
    name = draw(st.sampled_from(sorted(FIELDS)))
    f = FIELDS[name]()
    kind = draw(st.sampled_from(["random", "near-zero", "zero"]))
    if kind == "zero":
        return name, (F(0),) * f.degree
    if kind == "random":
        return name, tuple(draw(st.lists(st.fractions(max_denominator=10 ** 6),
                                         min_size=f.degree, max_size=f.degree)))
    # p - q alpha for a convergent p/q, times a small integer element
    p, q = draw(st.sampled_from(CONVERGENTS[name]))
    mult = draw(st.lists(st.integers(-3, 3), min_size=f.degree,
                         max_size=f.degree).filter(any))
    return name, (f.elem([p, -q]) * f.elem(mult)).coeffs


@settings(max_examples=300, deadline=None)
@given(_elements())
def test_filtered_sign_matches_exact_path(elem):
    name, coeffs = elem
    f = FIELDS[name]()
    assert f.elem(coeffs).sign() == _reference_sign(name, coeffs)
    # the same element over a common denominator, as integers
    den = math.lcm(*(c.denominator for c in coeffs))
    assert f.sign_of([int(c * den) for c in coeffs]) == _reference_sign(name, coeffs)


def test_filter_defers_near_zero_elements_to_the_exact_path(monkeypatch):
    cases = []
    for name, conv in CONVERGENTS.items():
        assert conv[-1][1] > 10 ** 29
        degree = FIELDS[name]().degree
        for p, q in conv:
            for sg in (1, -1):
                coeffs = (sg * p, -sg * q) + (0,) * (degree - 2)
                cases.append((name, coeffs, _reference_sign(name, coeffs)))
    steps = spy_past_filter(monkeypatch)
    refined = 0
    for name, coeffs, expected in cases:
        # a fresh field per element: no enclosure past FILTER_BITS is cached
        f = FIELDS[name]()
        steps.clear()
        assert f.sign_of(coeffs) == expected
        refined += bool(steps)
    # the largest convergents are closer to alpha than the filter resolves
    assert refined >= 4


def test_sign_filter_leaves_the_root_interval_alone():
    for make in FIELDS.values():
        f = make()
        before = f.root_interval
        rng = random.Random(5)
        for _ in range(500):
            coeffs = [F(rng.randint(-10 ** 9, 10 ** 9), rng.randint(1, 10 ** 6))
                      for _ in range(f.degree)]
            f.elem(coeffs).sign()
            f.sign_of([rng.randint(-10 ** 30, 10 ** 30) for _ in range(f.degree)])
        assert f.root_interval == before


@settings(max_examples=60, deadline=None)
@given(st.lists(small_rats, min_size=3, max_size=3), small_rats)
def test_rational_factor_matches_general_product(cx, q):
    f = cubic()
    x = f.elem(cx)
    general = numfield._reduce_mod([c * q for c in x.coeffs], f.minpoly)
    general = tuple(general) + (F(0),) * (3 - len(general))
    for prod in (x * q, q * x, x * f.from_rational(q), f.from_rational(q) * x):
        assert prod.coeffs == general
        assert all(type(c) is F for c in prod.coeffs)
    if q.denominator == 1:
        assert (x * int(q)).coeffs == general


# -- the shared enclosure -----------------------------------------------------

MP_DIGITS = 60


def _mp_alpha(name, digits=MP_DIGITS):
    """alpha to `digits` digits: the root of the minpoly in its interval."""
    f = FIELDS[name]()
    lo, hi = (mpmath.mpf(x.numerator) / x.denominator for x in f.root_interval)
    with mpmath.workdps(digits + 10):
        roots = mpmath.polyroots([mpmath.mpf(c.numerator) / c.denominator
                                  for c in reversed(f.minpoly)], extraprec=200)
        real = [x.real for x in roots if abs(x.imag) < mpmath.mpf(10) ** -digits]
        return next(x for x in real if lo <= x <= hi)


MP_ALPHA = {name: _mp_alpha(name) for name in FIELDS}


@settings(max_examples=300, deadline=None)
@given(_elements(), st.sampled_from([1, 2, 4]))
def test_enclosure_contains_the_scaled_value(elem, times):
    name, coeffs = elem
    f = FIELDS[name]()
    bits = numfield.FILTER_BITS * times
    lo, hi = f.elem(coeffs).enclosure(bits)
    assert type(lo) is int and type(hi) is int and lo <= hi
    if times == 1:
        assert (lo, hi) == f.elem(coeffs).enclosure()
    with mpmath.workdps(APPROX_DPS):
        alpha = APPROX_ALPHA[name]
        terms = [mpmath.mpf(c.numerator) / c.denominator * alpha ** i
                 for i, c in enumerate(coeffs)]
        scaled = mpmath.fsum(terms) * 2 ** bits
        # rounding of the 150-digit evaluation, relative to its largest term
        slack = (sum(abs(t) for t in terms) * 2 ** bits
                 * mpmath.mpf(10) ** (10 - APPROX_DPS))
        assert lo - slack <= scaled <= hi + slack
    # an enclosure that excludes 0 gives the sign that refinement gives
    if lo > 0 or hi < 0:
        assert (1 if lo > 0 else -1) == _reference_sign(name, coeffs)


def test_sign_of_is_the_sign_of_its_enclosure(monkeypatch):
    # sign_of's filter is the enclosure: swapping in a wider enclosure at
    # FILTER_BITS makes every sign take the exact path, with the same results
    rng = random.Random(11)
    for name, make in FIELDS.items():
        f = make()
        cases = [f.elem([F(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 3))
                         for _ in range(f.degree)]).num for _ in range(200)]
        filtered = [f.sign_of(c) for c in cases]
        enclosure = f.enclosure
        monkeypatch.setattr(f, "enclosure", lambda num, bits=numfield.FILTER_BITS:
                            (-1, 1) if bits == numfield.FILTER_BITS else enclosure(num, bits))
        assert [f.sign_of(c) for c in cases] == filtered
        assert filtered == [_reference_sign(name, c) for c in cases]
        monkeypatch.undo()


# -- decimal approximation, against mpmath --------------------------------------

# working digits of the oracle: the near-zero elements cancel about 60 digits,
# and 50 significant digits of the value remain
APPROX_DPS = 150


APPROX_ALPHA = {name: _mp_alpha(name, APPROX_DPS) for name in FIELDS}


def _mp_value(name, coeffs):
    alpha = APPROX_ALPHA[name]
    return mpmath.fsum(mpmath.mpf(c.numerator) / c.denominator * alpha ** i
                       for i, c in enumerate(coeffs))


def _assert_approx(text, value, digits):
    """`text` is `value` rounded at `digits` significant digits: within half
    a unit of its last place, with the decimal places that place needs."""
    if value == 0:
        assert text == ("0." + "0" * (digits - 1) if digits > 1 else "0")
        return
    expo = int(mpmath.floor(mpmath.log10(abs(value))))
    unit = mpmath.mpf(10) ** (expo - digits + 1)
    assert abs(mpmath.mpf(text) - value) <= unit / 2 * (1 + mpmath.mpf(10) ** -40)
    places = len(text.partition(".")[2])
    assert places == max(0, digits - 1 - expo)


@settings(max_examples=300, deadline=None)
@given(_elements(), st.sampled_from([1, 2, 6, 15]))
def test_approx_matches_mpmath(elem, digits):
    name, coeffs = elem
    with mpmath.workdps(APPROX_DPS):
        value = _mp_value(name, coeffs)
        _assert_approx(FIELDS[name]().elem(coeffs).approx(digits), value, digits)


def test_approx_of_small_values():
    # a midpoint of an interval of absolute width 10^-12 got these wrong
    # beyond their first digits
    f = sqrt2()
    assert (f.alpha - F(1414213562373, 10 ** 12)).approx(6) == "0.0000000000000950488"
    assert (f.alpha - F("1.41421356")).approx(6) == "0.00000000237310"
    assert (F("1.41421356") - f.alpha).approx(3) == "-0.00000000237"
    assert f.from_rational(F(-1, 3 * 10 ** 20)).approx(2) == "-0.0000000000000000000033"
    assert (f.alpha * 10 ** 9).approx(3) == "1410000000"
    with mpmath.workdps(APPROX_DPS):
        for k in range(0, 90, 3):
            for x in ((f.alpha - 1) ** k, (f.alpha + 1) ** k):
                _assert_approx(x.approx(6), _mp_value("quadratic", x.coeffs), 6)


@st.composite
def _scaled_elements(draw):
    """(field name, coefficients): an element of `_elements` times
    +-10^e, e in [-40, 40], for negative, tiny and large values."""
    name, coeffs = draw(_elements())
    scale = F(10) ** draw(st.integers(-40, 40)) * draw(st.sampled_from([1, -1]))
    return name, tuple(c * scale for c in coeffs)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_scaled_elements(), st.sampled_from([1, 3, 6, 15]))
def test_approx_from_the_enclosure_matches_mpmath(elem, digits):
    name, coeffs = elem
    with mpmath.workdps(APPROX_DPS):
        value = _mp_value(name, coeffs)
        _assert_approx(FIELDS[name]().elem(coeffs).approx(digits), value, digits)


def test_approx_near_a_rounding_tie_refines_the_interval(monkeypatch):
    """Within 2^-FILTER_BITS of a rounding tie the enclosure's ends round
    differently, and the rounding comes from an enclosure at more bits; the
    rational tie itself never separates and is rounded half up from its
    value; farther away the enclosure at FILTER_BITS decides alone."""
    f = sqrt2()
    tiny = (f.alpha - 1) ** 80  # about 2.4e-31, below 2^-96
    tie = F("1.234565")
    calls = spy_past_filter(monkeypatch)
    for x, text in ((tie + tiny, "1.23457"), (tie - tiny, "1.23456"),
                    (-(tie + tiny), "-1.23457"), (tiny - tie, "-1.23456")):
        calls.clear()
        assert x.approx(6) == text
        assert calls
    calls.clear()
    for x, text in ((f.from_rational(tie), "1.23457"), (f.from_rational(-tie), "-1.23457")):
        assert x.approx(6) == text
    assert not calls
    with mpmath.workdps(APPROX_DPS):
        for x in (f.alpha, -f.alpha, f.alpha * 10 ** 20, (f.alpha - 1) ** 20,
                  -(f.alpha + 1) ** 20, tie + f.alpha / 10 ** 4):
            calls.clear()
            _assert_approx(x.approx(6), _mp_value("quadratic", x.coeffs), 6)
            assert not calls


def _assert_nearest_double(d, value):
    """No double is closer to `value` than d."""
    err = abs(mpmath.mpf(d) - value)
    for other in (math.nextafter(d, math.inf), math.nextafter(d, -math.inf)):
        assert err <= abs(mpmath.mpf(other) - value)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_elements())
def test_float_is_nearest_double(elem):
    name, coeffs = elem
    with mpmath.workdps(APPROX_DPS):
        _assert_nearest_double(float(FIELDS[name]().elem(coeffs)),
                               _mp_value(name, coeffs))


def test_float_of_small_values():
    # a midpoint of an interval of absolute width 10^-20 gave -2.11e-21 here
    f = sqrt2()
    x = (f.alpha - 1) ** 80
    assert x.sign() == 1 and 2.38e-31 < float(x) < 2.40e-31
    assert float(f.from_rational(F(-1, 3 * 10 ** 40))) == -1 / 3e40
    with mpmath.workdps(APPROX_DPS):
        for k in range(0, 90, 3):
            for x in ((f.alpha - 1) ** k, (f.alpha + 1) ** k, -(f.alpha - 1) ** k):
                _assert_nearest_double(float(x), _mp_value("quadratic", x.coeffs))


# -- the filter's integer set-up, and floors from the enclosure ----------------


def neg_sqrt2():
    """-sqrt(2): a negative root."""
    return NumberField([-2, 0, 1], (F(-2), F(-1)))


@pytest.mark.parametrize("make", [sqrt2, half, neg_sqrt2, cubic, half_cubic],
                         ids=["sqrt2", "half", "neg_sqrt2", "cubic", "half_cubic"])
def test_filter_bounds_enclose_the_scaled_powers(make):
    """L_i <= 2^bits alpha^i <= U_i and U_i - L_i <= 2 at FILTER_BITS and at
    2 and 4 times as many bits, against mpmath at 200 digits: for the field
    built on the given isolating interval, and on that interval refined by
    the oracle step by step to below the set-up's dyadic step, where the
    interval's ends decide most bisection steps."""
    f = make()
    oracle = IntervalOracle(f)
    lo, hi = (mpmath.mpf(x.numerator) / x.denominator for x in f.root_interval)
    with mpmath.workdps(200):
        roots = mpmath.polyroots([mpmath.mpf(c.numerator) / c.denominator
                                  for c in reversed(f.minpoly)], extraprec=800)
        alpha = next(x.real for x in roots
                     if abs(x.imag) < mpmath.mpf(10) ** -150 and lo <= x.real <= hi)
        for step in range(160):
            g = NumberField(f.minpoly, oracle.root_interval)
            for bits in [numfield.FILTER_BITS << k for k in range(3 if step % 8 == 0 else 1)]:
                bounds = g._filter_bounds(bits)
                assert len(bounds) == f.degree
                for i, (low, up) in enumerate(bounds):
                    assert type(low) is int and type(up) is int
                    assert low <= alpha ** i * 2 ** bits <= up and up - low <= 2
            oracle._refine()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_elements(), st.integers(-5, 5))
def test_floor_matches_mpmath(elem, shift):
    name, coeffs = elem
    x = FIELDS[name]().elem(coeffs) + shift
    with mpmath.workdps(APPROX_DPS):
        assert x.floor() == int(mpmath.floor(_mp_value(name, x.coeffs)))


def test_floor_near_an_integer_refines_the_interval(monkeypatch):
    """Near an integer (here within 2^-FILTER_BITS of it) the enclosure at
    FILTER_BITS holds the integer, and the floor comes from an enclosure at
    more bits; farther away the enclosure at FILTER_BITS decides alone."""
    f = sqrt2()
    tiny = (f.alpha - 1) ** 80  # about 2.4e-31, below 2^-96
    calls = spy_past_filter(monkeypatch)
    for x, expected in ((3 + tiny, 3), (-(3 + tiny), -4), (3 - tiny, 2), (tiny - 3, -3)):
        calls.clear()
        assert x.floor() == expected
        assert calls
    with mpmath.workdps(APPROX_DPS):
        for x in (f.alpha, -f.alpha, 3 + f.alpha / 7, f.alpha * 10 ** 6,
                  f.alpha * 10 ** 20 - 10 ** 20):
            calls.clear()
            assert x.floor() == int(mpmath.floor(_mp_value("quadratic", x.coeffs)))
            assert not calls


def test_results_do_not_depend_on_earlier_calls():
    """A sign that needs many more bits than FILTER_BITS changes nothing that
    later decisions on the same field read."""
    f = sqrt2()
    x = 3 * f.alpha + 1

    def results():
        return x.interval(F(1, 100)), x.floor(), x.approx(6), float(x)

    before = results()
    assert ((f.alpha - 1) ** 80).sign() == 1
    assert results() == before
    assert before[0][1] - before[0][0] <= F(1, 100)


# -- integer numerators over one denominator, against sympy ------------------

X = sympy.Symbol("x")


def _sym(coeffs):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)],
                      X, domain="QQ")


def _residue(p, degree):
    out = [F(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]
    return tuple(out + [F(0)] * (degree - len(out)))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(FIELDS)), st.data())
def test_arithmetic_matches_sympy(name, data):
    f = FIELDS[name]()
    entries = st.lists(st.just(F(0)) | st.fractions(-10 ** 4, 10 ** 4, max_denominator=60),
                       min_size=f.degree, max_size=f.degree)
    a, b = tuple(data.draw(entries)), tuple(data.draw(entries))
    x, y = f.elem(a), f.elem(b)
    mp, pa, pb = _sym(f.minpoly), _sym(a), _sym(b)
    for e, c in ((x, a), (y, b)):
        assert e.coeffs == c
        assert e.den > 0 and math.gcd(e.den, *e.num) == 1
    assert (x + y).coeffs == tuple(p + q for p, q in zip(a, b))
    assert (x - y).coeffs == tuple(p - q for p, q in zip(a, b))
    assert (b[0] - x).coeffs == tuple((b[0] if i == 0 else 0) - p for i, p in enumerate(a))
    assert (x * y).coeffs == _residue((pa * pb).rem(mp), f.degree)
    assert (x * b[0]).coeffs == tuple(p * b[0] for p in a)
    if not y.is_zero():
        inv = sympy.invert(pb, mp)
        assert y.inverse().coeffs == _residue(inv, f.degree)
        assert (x / y).coeffs == _residue((pa * inv).rem(mp), f.degree)
    # equal elements built different ways compare and hash equal
    assert (x == y) == (a == b)
    again = x * y - y * x + x
    assert again == x and hash(again) == hash(x)
    assert x.sign() == _reference_sign(name, a)
    lo, hi = x.enclosure()
    assert type(lo) is int and type(hi) is int
    with mpmath.workdps(MP_DIGITS):
        terms = [mpmath.mpf(c.numerator) / c.denominator * MP_ALPHA[name] ** i
                 for i, c in enumerate(a)]
        scaled = mpmath.fsum(terms) * 2 ** numfield.FILTER_BITS
        slack = (sum(abs(t) for t in terms) * 2 ** numfield.FILTER_BITS
                 * mpmath.mpf(10) ** (10 - MP_DIGITS))
        assert lo - slack <= scaled <= hi + slack


@settings(max_examples=60, deadline=None)
@given(st.lists(small_rats, min_size=3, max_size=3),
       small_rats.filter(lambda q: q != 0))
def test_rational_divisor_matches_inverse_product(cx, q):
    f = cubic()
    x = f.elem(cx)
    general = x * f.from_rational(q).inverse()
    for quot in (x / q, x / f.from_rational(q)):
        assert quot.coeffs == general.coeffs
        assert all(type(c) is F for c in quot.coeffs)
    if not x.is_zero():
        assert (q / x).coeffs == (f.from_rational(q) * x.inverse()).coeffs
    if q.denominator == 1:
        assert (x / int(q)).coeffs == general.coeffs


def test_rational_divisor_takes_no_inverse(monkeypatch):
    f = cubic()
    monkeypatch.setattr(FieldElem, "inverse", lambda self: pytest.fail("inverse"))
    x = f.elem([1, F(2, 3), -5])
    assert (x / 4 * 4) == x
    assert (x / F(-3, 7)) == x * F(-7, 3)
    assert (1 / f.from_rational(F(2, 5))) == f.from_rational(F(5, 2))
    assert (x / f.from_rational(-2)) == x * F(-1, 2)
    for zero in (0, F(0), f.zero):
        with pytest.raises(ZeroDivisionError):
            x / zero
    with pytest.raises(ZeroDivisionError):
        1 / f.zero
