"""Multivariate polynomials over Q with graded reverse lexicographic order.

A polynomial is a dict {exponent tuple: Fraction}; the variable names live
beside the data (typically Grassmann symbols "G12", "G134", ...).  Kept
minimal: arithmetic, evaluation, fixing variables to rationals, and the
grevlex order.  Groebner bases are computed in `charcheck`, on packed
integer monomials with integer coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def grevlex_key(mono):
    """Sort key: higher means larger in graded reverse lexicographic order."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


class Poly:
    """Immutable rational-coefficient polynomial in a fixed variable count."""

    __slots__ = ("terms", "nvars")

    def __init__(self, nvars, terms=()):
        self.nvars = nvars
        clean = {}
        for mono, c in (terms.items() if isinstance(terms, dict) else terms):
            c = Fraction(c)
            if c:
                mono = tuple(mono)
                clean[mono] = clean.get(mono, Fraction(0)) + c
        self.terms = {m: c for m, c in clean.items() if c}

    @classmethod
    def from_terms(cls, nvars, terms):
        """The Poly of `terms`, a dict of exponent tuples to nonzero
        Fractions, taken as it is."""
        p = cls.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    @classmethod
    def zero(cls, nvars):
        return cls(nvars)

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: Fraction(c)})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.nvars, other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return Poly(self.nvars, out)

    def __neg__(self):
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.nvars, other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(self.nvars, {m: c * other for m, c in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def leading(self):
        """(monomial, coefficient) under grevlex."""
        m = max(self.terms, key=grevlex_key)
        return m, self.terms[m]

    def degree(self):
        return max((sum(m) for m in self.terms), default=-1)

    def content_normalized(self):
        """Scale so coefficients are coprime integers, leading one positive."""
        if not self.terms:
            return self
        den = 1
        for c in self.terms.values():
            den = den * c.denominator // gcd(den, c.denominator)
        num = 0
        for c in self.terms.values():
            num = gcd(num, abs(c.numerator * (den // c.denominator)))
        scale = Fraction(den, num)
        _, lead = self.leading()
        if lead < 0:
            scale = -scale
        return self * scale

    def evaluate(self, values):
        """Evaluate at values[i] (any ring with +, *, and int powers)."""
        acc = None
        for m, c in sorted(self.terms.items(), key=lambda kv: grevlex_key(kv[0])):
            term = None
            for i, e in enumerate(m):
                for _ in range(e):
                    term = values[i] if term is None else term * values[i]
            if term is None:
                part = values[0] - values[0] + c if values else c
            else:
                part = term * c
            acc = part if acc is None else acc + part
        if acc is None:
            return Fraction(0)
        return acc

    def specialize(self, values):
        """Fix variable i to the rational values[i] for each i in values: each
        term's coefficient is multiplied by values[i]**e and its exponent e of
        variable i is set to 0."""
        out = {}
        for m, c in self.terms.items():
            m = list(m)
            for i, q in values.items():
                if m[i]:
                    c *= q ** m[i]
                    m[i] = 0
            m = tuple(m)
            out[m] = out.get(m, 0) + c
        return Poly(self.nvars, out)

    def pretty(self, names):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=grevlex_key, reverse=True):
            c = self.terms[m]
            vars_part = "*".join(
                names[i] + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(m) if e)
            if not vars_part:
                bits.append(str(c))
            elif c == 1:
                bits.append(vars_part)
            elif c == -1:
                bits.append("-" + vars_part)
            else:
                bits.append(f"{c}*{vars_part}")
        out = bits[0]
        for b in bits[1:]:
            out += " - " + b[1:] if b.startswith("-") else " + " + b
        return out

    def __repr__(self):
        return f"Poly({len(self.terms)} terms, nvars={self.nvars})"

