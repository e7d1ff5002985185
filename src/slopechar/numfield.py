"""Exact arithmetic in a real algebraic number field Q(alpha).

alpha is given by an irreducible minimal polynomial together with a rational
interval isolating exactly one real root.  An element is its canonical
residue mod the minimal polynomial in the standard representation (Cohen,
A Course in Computational Algebraic Number Theory, 1993, 4.2): integer
numerators `num`, one per power of alpha, over one denominator `den` > 0,
with gcd(den, *num) = 1.  The representation is unique, so equality and zero
tests compare integers.  A product is an integer polynomial product, reduced
with the field's integer table of alpha^degree .. alpha^(2 degree - 2) over
one denominator (1 for an integer minpoly), then divided by one gcd; a sum
works over the lcm of the two denominators; an inverse solves the integer
matrix of multiplication by the element with Cramer's rule, its cofactors
from one fraction-free elimination.  `FieldElem.coeffs` gives the residue
as Fractions, for output.

Every exact decision reads one approximation of alpha: integer bounds
L_i <= 2^bits * alpha^i <= U_i, U_i - L_i <= 2, kept per precision `bits`
and found by an integer bisection of the minimal polynomial at dyadic points.
Integer numerators c get the enclosure sum c_i [L_i, U_i]
(`NumberField.enclosure`), the certified fixed-point filter of Bronnimann,
Burnikel and Pion (2001).  Signs, floors, decimal roundings, doubles and
intervals of a given width are read off the first enclosure that decides
them, at FILTER_BITS and then at twice as many bits each time
(`NumberField.decide`).  An irrational value is not 0, no integer and no
rounding tie, and its enclosures shrink to it, so the doubling ends; a
rational value is answered from its numerator and den.  The isolating
interval given to the field only starts the bisection and never changes, so
no result depends on earlier calls.  Two values with disjoint enclosures are
ordered by them alone: the atlas arrangement compares its integer slab values
that way, and lattice membership (`tiling.LatticeMembership`) compares a
slab value, summed from the enclosures of the slab's integer columns, with
the slab's bounds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .errors import InputError


# binary digits of the first enclosure of every decision: it decides the sign
# of every element farther than about 2^-FILTER_BITS * sum |c_i| from 0
FILTER_BITS = 96


def _rat(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not a rational: {x!r}")


def rat_str(x) -> str:
    """A rational as "p/q", or "p" when it is an integer."""
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# dense univariate polynomials over Q, ascending coefficients


def poly_trim(p: Sequence[Fraction]) -> list[Fraction]:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_eval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_divmod(p, q):
    q = poly_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    p = list(poly_trim(p))
    quot = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    lc = q[-1]
    while len(p) >= len(q):
        k = len(p) - len(q)
        c = p[-1] / lc
        quot[k] = c
        for i, b in enumerate(q):
            p[k + i] -= c * b
        p = poly_trim(p)
    return poly_trim(quot), p


def poly_deriv(p):
    return poly_trim([i * c for i, c in enumerate(p)][1:])


def _sturm_chain(p):
    chain = [poly_trim(p), poly_deriv(p)]
    while chain[-1]:
        _, rem = poly_divmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _sign_changes(chain, x):
    signs = []
    for q in chain:
        v = poly_eval(q, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    changes = 0
    for a, b in zip(signs, signs[1:]):
        if a != b:
            changes += 1
    return changes


def count_real_roots(p, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi]."""
    chain = _sturm_chain(p)
    return _sign_changes(chain, lo) - _sign_changes(chain, hi)


def _has_integer_root(q: list[int]) -> bool:
    """Whether the monic integer cubic q (ascending) has an integer root.

    q is monotone on each stretch between its critical points (-2 q2 -+
    sqrt(D)) / 6, D = 4 q2^2 - 12 q1; an integer bisection on each stretch of
    the root bound [-B, B] finds its root if it has one, in O(log B)
    evaluations.  The two integers next to the critical points are tried
    directly."""
    def at(y):
        return ((y + q[2]) * y + q[1]) * y + q[0]

    bound = 1 + max(abs(c) for c in q[:3])
    disc = 4 * q[2] * q[2] - 12 * q[1]
    if disc <= 0:
        stretches = [(-bound, bound)]
    else:
        r = math.isqrt(disc)
        # critical points c1 in (k1 - 1, k1 + 1), c2 in [k2, k2 + 2)
        k1, k2 = (-2 * q[2] - r) // 6, (-2 * q[2] + r) // 6
        if at(k1) == 0 or at(k2 + 1) == 0:
            return True
        stretches = [(-bound, k1 - 1), (k1 + 1, k2), (k2 + 2, bound)]
    for lo, hi in stretches:
        lo, hi = max(lo, -bound), min(hi, bound)
        if lo > hi:
            continue
        flo, fhi = at(lo), at(hi)
        if flo == 0 or fhi == 0:
            return True
        if (flo > 0) == (fhi > 0):
            continue
        while hi - lo > 1:
            mid = (lo + hi) // 2
            fm = at(mid)
            if fm == 0:
                return True
            if (fm > 0) == (flo > 0):
                lo = mid
            else:
                hi = mid
    return False


def is_irreducible(p: Sequence[Fraction]) -> bool:
    """Irreducibility over Q of a nonconstant polynomial.

    A quadratic or cubic is reducible iff it has a rational root: a quadratic
    iff its discriminant is a square, a cubic a3 x^3 + ... + a0 iff its monic
    transform in y = a3 x, y^3 + a2 y^2 + a1 a3 y + a0 a3^2, has an integer
    root.  Both cost a polynomial in the coefficients' bit length.  Higher
    degrees go to sympy."""
    p = poly_trim(p)
    deg = len(p) - 1
    if deg < 1:
        return False
    if deg == 1:
        return True
    # clear denominators to an integer polynomial
    den = math.lcm(*[c.denominator for c in p])
    intp = [int(c * den) for c in p]
    if intp[0] == 0:
        return False  # X divides
    if deg == 2:
        a0, a1, a2 = intp
        disc = a1 * a1 - 4 * a2 * a0
        return disc < 0 or math.isqrt(disc) ** 2 != disc
    if deg == 3:
        a0, a1, a2, a3 = intp
        return not _has_integer_root([a0 * a3 * a3, a1 * a3, a2, 1])
    import sympy  # only reached for degree >= 4

    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c) * x**i for i, c in enumerate(intp))
    return sympy.Poly(expr, x).is_irreducible


# ---------------------------------------------------------------------------


class NumberField:
    """Q(alpha) for the unique real root alpha of `minpoly` in `root_interval`."""

    def __init__(self, minpoly: Iterable, root_interval):
        given = [_rat(c) for c in minpoly]
        coeffs = poly_trim(given)
        if len(coeffs) < 2:
            raise InputError("minpoly must be nonconstant")
        lc = coeffs[-1]
        self.minpoly: tuple[Fraction, ...] = tuple(c / lc for c in coeffs)
        self.degree: int = len(self.minpoly) - 1
        if not is_irreducible(self.minpoly):
            # in the spec's own notation: ["-4", "0", "1"]
            text = ", ".join(f'"{c}"' for c in given)
            raise InputError(f"minpoly [{text}] is reducible over Q")
        lo, hi = _rat(root_interval[0]), _rat(root_interval[1])
        if not lo < hi:
            raise InputError("root_interval must satisfy lo < hi")
        if self.degree == 1:
            root = -self.minpoly[0]
            if not (lo <= root <= hi):
                raise InputError(f"{root} not in [{lo}, {hi}]")
            self._lo = self._hi = root
        else:
            nroots = count_real_roots(self.minpoly, lo, hi)
            if poly_eval(self.minpoly, lo) == 0:
                nroots += 1
            if nroots == 0:
                raise InputError(f"no real root in [{lo}, {hi}]")
            if nroots > 1:
                raise InputError(f"{nroots} roots in [{lo}, {hi}]")
            # shrink until the endpoints straddle the root strictly
            while poly_eval(self.minpoly, lo) == 0 or poly_eval(self.minpoly, hi) == 0 \
                    or (poly_eval(self.minpoly, lo) > 0) == (poly_eval(self.minpoly, hi) > 0):
                third = (hi - lo) / 3
                for a, b in ((lo + third, hi), (lo, hi - third), (lo + third, hi - third)):
                    if count_real_roots(self.minpoly, a, b) + (poly_eval(self.minpoly, a) == 0) == 1:
                        lo, hi = a, b
                        break
            self._lo, self._hi = lo, hi
        self._sign_at_lo = 1 if poly_eval(self.minpoly, self._lo) > 0 else -1
        # bits -> (L_i, U_i) per power of alpha, built on first use
        self._filters: dict[int, tuple[tuple[int, int], ...]] = {}
        # (D, rows): D * alpha^i = sum_t rows[i - degree][t] alpha^t for
        # i = degree .. 2 degree - 2, with integer rows; D = 1 for an integer
        # minpoly
        powers = [_reduce_mod([0] * i + [Fraction(1)], self.minpoly)
                  for i in range(self.degree, 2 * self.degree - 1)]
        powers = [r + [Fraction(0)] * (self.degree - len(r)) for r in powers]
        den = math.lcm(*(c.denominator for r in powers for c in r))
        self._reduction = (den, tuple(tuple(int(c * den) for c in r) for r in powers))

    # -- construction helpers ------------------------------------------------

    def elem(self, coeffs) -> "FieldElem":
        c = [_rat(x) for x in coeffs]
        if len(c) > self.degree:
            c = _reduce_mod(c, self.minpoly)
        c = c + [Fraction(0)] * (self.degree - len(c))
        # over the lcm of the denominators, numerators and den are coprime
        den = math.lcm(*(x.denominator for x in c))
        return FieldElem(self, tuple(x.numerator * (den // x.denominator) for x in c), den)

    def from_rational(self, x) -> "FieldElem":
        x = _rat(x)
        return FieldElem(self, (x.numerator,) + (0,) * (self.degree - 1), x.denominator)

    @property
    def zero(self) -> "FieldElem":
        return self.from_rational(0)

    @property
    def one(self) -> "FieldElem":
        return self.from_rational(1)

    @property
    def alpha(self) -> "FieldElem":
        if self.degree == 1:
            return self.from_rational(self._lo)
        return self.elem([0, 1])

    @property
    def root_interval(self) -> tuple[Fraction, Fraction]:
        return self._lo, self._hi

    # -- signs ----------------------------------------------------------------

    def _filter_bounds(self, bits: int = FILTER_BITS) -> tuple[tuple[int, int], ...]:
        """Integer bounds L_i <= 2^bits * alpha^i <= U_i, U_i - L_i <= 2,
        cached per `bits`.

        Bisects on dyadic points c / 2^m with integers only.  Inside the
        isolating interval, which holds no other root, c / 2^m is below alpha
        iff the minpoly has there the sign it has at the interval's lower
        end; that sign is the sign of sum p_i c^i 2^(m (degree - i)) for the
        minpoly's integer multiple p."""
        scale = 1 << bits
        if self.degree == 1:
            self._filters[bits] = got = ((scale, scale),)
            return got
        # |alpha| < 2^size, so on an interval of width 2^-m around alpha,
        # 2^bits alpha^i moves by less than
        # 2^(bits + bitlen(degree) + size (degree - 1) - m) = 1/2, and its
        # floor and ceiling are at most 2 apart
        size = (math.ceil(max(abs(self._lo), abs(self._hi))) + 1).bit_length()
        m = bits + 1 + self.degree.bit_length() + size * (self.degree - 1)
        den = math.lcm(*(c.denominator for c in self.minpoly))
        ints = [int(c * den) for c in reversed(self.minpoly)]
        positive_below = self._sign_at_lo > 0
        lo_n, lo_d = self._lo.numerator, self._lo.denominator
        hi_n, hi_d = self._hi.numerator, self._hi.denominator

        def below(c):
            # alpha > c / 2^m: at or past an end of the isolating interval
            # that end decides, and inside it the sign of the minpoly
            if c * lo_d <= lo_n << m:
                return True
            if c * hi_d >= hi_n << m:
                return False
            acc, z = 0, 1
            for p in ints:
                acc = acc * c + p * z
                z <<= m
            return (acc > 0) == positive_below

        # lo / 2^m <= _lo < alpha < _hi <= hi / 2^m; alpha is irrational, so
        # it is no dyadic point
        lo = (lo_n << m) // lo_d
        hi = -((-hi_n << m) // hi_d)
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            if below(mid):
                lo = mid
            else:
                hi = mid
        # lo < 2^m alpha < lo + 1, and 0 is no interior point of [lo, lo + 1],
        # so every power is monotone on it
        bounds = [(scale, scale)]
        for i in range(1, self.degree):
            a, b = sorted((lo ** i << bits, (lo + 1) ** i << bits))
            bounds.append((a >> (m * i), -(-b >> (m * i))))
        self._filters[bits] = got = tuple(bounds)
        return got

    def enclosure(self, num, bits: int = FILTER_BITS) -> tuple[int, int]:
        """Integers (lo, hi) with lo <= 2^bits * x <= hi for
        x = sum num[i] * alpha^i, from the fixed-point bounds on alpha^i.

        `num` holds at most `degree` ints.  At FILTER_BITS this is the
        filter of `sign_of`; callers that compare many values keep each
        value's enclosure (`FieldElem.enclosure`) and compare enclosures."""
        bounds = self._filters.get(bits) or self._filter_bounds(bits)
        lo = hi = 0
        for c, (l, u) in zip(num, bounds):
            if c > 0:
                lo += c * l
                hi += c * u
            elif c:
                lo += c * u
                hi += c * l
        return lo, hi

    def decide(self, num, den: int, test: Callable):
        """The first answer other than None of test(lo, hi, bits), for the
        integer enclosures lo <= 2^bits * x <= hi of
        x = sum num[i] * alpha^i / den (den > 0), at FILTER_BITS, then at
        twice as many bits each time.  The enclosures shrink to x, so this
        ends for every test that answers on every enclosure near enough to
        x."""
        bits = FILTER_BITS
        while True:
            lo, hi = self.enclosure(num, bits)
            got = test(lo // den, -(-hi // den), bits)
            if got is not None:
                return got
            bits <<= 1

    def from_product(self, prod, den) -> "FieldElem":
        """The element sum prod[i] alpha^i / den, for an integer polynomial
        prod of degree at most 2 degree - 2 (a product of two residues, or a
        sum of such products) and an integer den > 0: one reduction with the
        integer table, then one gcd."""
        k = self.degree
        # alpha^i for i >= degree is rows[i - degree] / scale
        scale, rows = self._reduction
        num = prod[:k]
        if scale != 1:
            num = [scale * c for c in num]
        for c, row in zip(prod[k:], rows):
            if c:
                num = [u + c * r for u, r in zip(num, row)]
        return _canonical(self, num, den * scale)

    def sign_of(self, num) -> int:
        """Sign of sum num[i] * alpha^i under the real embedding.

        `num` holds at most `degree` ints.  After the zero test the
        enclosures decide (`decide`), the first at FILTER_BITS: a nonzero
        element is irrational or has a point enclosure (its constant
        numerator times 2^bits), and neither contains 0 for long."""
        if not any(num):
            return 0
        return self.decide(num, 1, _sign)

    def __eq__(self, other):
        return (isinstance(other, NumberField)
                and self.minpoly == other.minpoly
                and self._contains(other) )

    def _contains(self, other):
        # same minpoly: intervals isolate the same root iff they overlap
        return self._lo < other._hi and other._lo < self._hi

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return f"NumberField(minpoly={[str(c) for c in self.minpoly]}, alpha in [{self._lo}, {self._hi}])"


def _reduce_mod(c, minpoly):
    k = len(minpoly) - 1
    c = list(c)
    for i in range(len(c) - 1, k - 1, -1):
        lead = c[i]
        if lead == 0:
            c.pop()
            continue
        c.pop()
        for j in range(k):
            c[i - k + j] -= lead * minpoly[j]
    return poly_trim(c)


def _cofactors(rows):
    """The column-0 cofactors (-1)^k det(rows without row k), k = 0..p, of a
    (p+1) x p integer matrix, from one fraction-free (Bareiss) elimination of
    [rows | I]: its last row ends as det([rows | e_k]) = (-1)^(k+p) minor_k,
    times the sign of the row swaps.  A column without a pivot means
    rank < p, and then every minor is 0."""
    m = len(rows)
    p = m - 1
    a = [list(r) + [int(i == k) for i in range(m)] for k, r in enumerate(rows)]
    sign = -1 if p % 2 else 1
    prev = 1
    for k in range(p):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, m) if a[i][k]), None)
            if piv is None:
                return [0] * m
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot = a[k]
        akk = pivot[k]
        for row in a[k + 1:]:
            aik = row[k]
            if aik:
                for j in range(k + 1, p + m):
                    row[j] = (row[j] * akk - aik * pivot[j]) // prev
            elif akk != prev:
                for j in range(k + 1, p + m):
                    row[j] = row[j] * akk // prev
        prev = akk
    return [sign * c for c in a[p][p:]]


def _canonical(field, num, den) -> "FieldElem":
    """The element num / den (den > 0) with the common factor removed."""
    g = math.gcd(den, *num)
    if g != 1:
        return FieldElem(field, tuple(c // g for c in num), den // g)
    return FieldElem(field, tuple(num), den)


def _sign(lo: int, hi: int, bits: int):
    """The sign an enclosure [lo, hi] fixes, or None (`NumberField.decide`)."""
    return 1 if lo > 0 else -1 if hi < 0 else None


def _floor(lo: int, hi: int, bits: int):
    """The floor an enclosure [lo, hi] of 2^bits x fixes, or None."""
    f = lo >> bits
    return f if hi >> bits == f else None


def _decimal_exponent(v: Fraction) -> int:
    """The integer e with 10^e <= v < 10^(e+1), for a rational v > 0."""
    e = len(str(v.numerator)) - len(str(v.denominator))
    # 10^(e-1) < v < 10^(e+1)
    return e if v >= Fraction(10) ** e else e - 1


def _round_half_up(v: Fraction) -> int:
    q, r = divmod(v.numerator, v.denominator)
    return q + (2 * r >= v.denominator)


def _rounded(lo: Fraction, hi: Fraction, digits: int):
    """(q, decimals) with q the value rounded half up at `digits` significant
    digits times 10^decimals, the same for every value in [lo, hi] with
    0 < lo <= hi; None when the ends have different decimal exponents or
    round differently."""
    expo = _decimal_exponent(lo)
    if _decimal_exponent(hi) != expo:
        return None
    decimals = digits - 1 - expo
    q = _round_half_up(lo * Fraction(10) ** decimals)
    if q != _round_half_up(hi * Fraction(10) ** decimals):
        return None
    return q, decimals


class FieldElem:
    """An element of Q(alpha): its canonical residue mod minpoly, stored as
    integer numerators `num` (one per power of alpha) over one denominator
    `den`, with den > 0 and gcd(den, *num) = 1."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num: tuple[int, ...], den: int):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The residue's coefficients as rationals."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- ring structure -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def _plus(self, o, sign):
        """self + sign * o over the lcm of the denominators."""
        da, db = self.den, o.den
        if da == db:
            num = [a + sign * b for a, b in zip(self.num, o.num)]
            return _canonical(self.field, num, da)
        g = math.gcd(da, db)
        sa, sb = db // g, sign * (da // g)
        num = [a * sa + b * sb for a, b in zip(self.num, o.num)]
        return _canonical(self.field, num, da * sa)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return FieldElem(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._plus(o, -1)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        # a rational factor scales the numerators: no product, no reduction
        if isinstance(other, (int, Fraction)):
            return self._scaled(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        prod = [0] * (2 * len(a) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    prod[j] += x * y
        return self.field.from_product(prod, self.den * o.den)

    __rmul__ = __mul__

    def _scaled(self, q) -> "FieldElem":
        # q.denominator > 0 for ints and Fractions alike
        p = q.numerator
        return _canonical(self.field, [c * p for c in self.num], self.den * q.denominator)

    def inverse(self) -> "FieldElem":
        """1/self by Cramer's rule on integers.  Column j of W is
        scale^j num(alpha) alpha^j, as integers (scale of the reduction
        table), so 1/num(alpha) = sum_j scale^j z_j alpha^j for the solution z
        of W z = e_0: z_j = det(W with column j replaced by e_0) / det W."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        scale, rows = self.field._reduction
        k = len(self.num)
        cols = [list(self.num)]
        for _ in range(k - 1):
            w = cols[-1]
            top = w[-1]
            cols.append([scale * a + top * r for a, r in zip([0] + w[:-1], rows[0])])
        # det(W_j) = (-1)^j det(W without row 0 and column j)
        cramer = _cofactors([col[1:] for col in cols])
        det = sum(col[0] * c for col, c in zip(cols, cramer))
        if det < 0:
            det, cramer = -det, [-c for c in cramer]
        num = [self.den * c * scale ** j for j, c in enumerate(cramer)]
        return _canonical(self.field, num, det)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.is_rational():
            return self * o.inverse()
        # a rational divisor scales the numerators: no inverse
        if o.is_zero():
            raise ZeroDivisionError("division by zero")
        return self._scaled(Fraction(o.den, o.num[0]))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        out = self.field.one
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.num == o.num

    def __hash__(self):
        return hash((self.num, self.den))

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    # -- order structure under the real embedding -----------------------------

    def sign(self) -> int:
        # den > 0: the numerators have the element's sign
        return self.field.sign_of(self.num)

    def enclosure(self, bits: int = FILTER_BITS) -> tuple[int, int]:
        """Integers (lo, hi) with lo <= 2^bits * self <= hi."""
        lo, hi = self.field.enclosure(self.num, bits)
        return lo // self.den, -(-hi // self.den)

    def __lt__(self, other):
        o = self._coerce(other)
        return (self - o).sign() < 0

    def __le__(self, other):
        o = self._coerce(other)
        return (self - o).sign() <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        return (self - o).sign() > 0

    def __ge__(self, other):
        o = self._coerce(other)
        return (self - o).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- approximation ---------------------------------------------------------

    def interval(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """Enclosure of this element with width at most `width` > 0: a
        rational's value, an irrational's first enclosure that narrow
        (`NumberField.decide`)."""
        if self.is_rational():
            v = Fraction(self.num[0], self.den)
            return v, v

        def narrow(lo, hi, bits):
            if hi - lo <= width * (1 << bits):
                return Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)
            return None

        return self.field.decide(self.num, self.den, narrow)

    def approx(self, digits: int) -> str:
        """Decimal string of the value rounded half up at `digits`
        significant digits.  A rational is rounded from its value.  Rounding
        is monotone, so for an irrational the first enclosure whose two ends
        have the same decimal exponent and the same rounding fixes both; an
        irrational value is neither a power of 10 nor a rounding tie."""
        if digits < 1:
            raise ValueError("digits must be >= 1")
        if self.is_zero():
            return "0." + "0" * (digits - 1) if digits > 1 else "0"
        if self.is_rational():
            v = Fraction(self.num[0], self.den)
            neg, (q, decimals) = v < 0, _rounded(abs(v), abs(v), digits)
        else:
            def rounded(lo, hi, bits):
                neg = hi < 0
                if neg:
                    lo, hi = -hi, -lo
                if lo <= 0:
                    return None
                got = _rounded(Fraction(lo, 1 << bits), Fraction(hi, 1 << bits), digits)
                return got and (neg, got)

            neg, (q, decimals) = self.field.decide(self.num, self.den, rounded)
        if decimals > 0:
            text = str(q).rjust(decimals + 1, "0")
            out = text[:-decimals] + "." + text[-decimals:]
        else:
            out = str(q * 10 ** -decimals)
        return ("-" if neg else "") + out

    def __float__(self):
        """The value correctly rounded to a double: a rational's from its
        value, an irrational's from the first enclosure whose two ends round
        to the same double (an irrational value is no rounding tie)."""
        if self.is_rational():
            return float(Fraction(self.num[0], self.den))

        def rounded(lo, hi, bits):
            # int / int rounds correctly
            x = lo / (1 << bits)
            return x if x == hi / (1 << bits) else None

        return self.field.decide(self.num, self.den, rounded)

    def floor(self) -> int:
        """Exact integer floor under the real embedding: a rational's from
        its numerator and den, an irrational's from the first enclosure that
        holds no integer."""
        if self.is_rational():
            return self.num[0] // self.den
        return self.field.decide(self.num, self.den, _floor)

    def __repr__(self):
        if self.is_rational():
            return str(self.coeffs[0])
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*a" if c != 1 else "a")
            else:
                terms.append(f"{c}*a^{i}" if c != 1 else f"a^{i}")
        return " + ".join(terms).replace("+ -", "- ")
