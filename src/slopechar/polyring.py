"""Integer polynomials on packed monomials in graded reverse lexicographic order.

A polynomial is a dict {K: int} over the packed monomials K of a `Ring`.
The verdict keeps every polynomial primitive (`primitive`): coprime
coefficients, the one of the largest monomial positive.  A rational
polynomial is held as its primitive multiple, which every test it serves
allows: zero tests, degrees, root ratios and ideal membership do not see a
nonzero scale.  Exponent tuples appear only in the document writer
(`Ring.json`).  Groebner bases are computed in `charcheck`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class Ring:
    """Packed monomials in nvars variables, every exponent at most
    max_degree.

    A monomial is the int K = (deg << S) - sum(e_i << W*i), S = W*nvars, with
    W bits per exponent, the top one a guard bit that no exponent reaches.
    Int order is then grevlex, K_a + K_b is the product, K_b - K_a the
    quotient, and a divides b iff (K_a - K_b) & guard is 0: subtracting the
    fields sets the guard bit of the lowest field that underflows (Monagan
    and Pearce, J. Symb. Comp. 2011).  Packing is linear: the monomial
    x_i^e is e * var(i)."""

    def __init__(self, nvars, max_degree):
        self.nvars = nvars
        self.width = w = max_degree.bit_length() + 1
        self.max_degree = (1 << (w - 1)) - 1
        self.shift = w * nvars
        self.low = (1 << self.shift) - 1
        self.guard = sum(1 << (w * i + w - 1) for i in range(nvars))
        self._vars = tuple((1 << self.shift) - (1 << (w * i)) for i in range(nvars))

    def require(self, degree):
        """ValueError unless every exponent up to `degree` fits a field."""
        if degree > self.max_degree:
            raise ValueError(f"exponents up to {degree} overflow a ring of "
                             f"{self.width}-bit fields")

    def var(self, i):
        """The packed monomial x_i."""
        return self._vars[i]

    def unpack(self, k):
        v = -k & self.low
        field = (1 << self.width) - 1
        return tuple((v >> (self.width * i)) & field for i in range(self.nvars))

    def exponent(self, k, i):
        return ((-k & self.low) >> (self.width * i)) & ((1 << self.width) - 1)

    def degree(self, k):
        return (k + self.low) >> self.shift

    def lcm(self, a, b):
        w = self.width
        va, vb = -a & self.low, -b & self.low
        # guard bit of each field where a's exponent is at least b's; the
        # guard bits set in va keep the fields from borrowing from each other
        ge = ((va | self.guard) - vb) & self.guard
        ones = ge >> (w - 1)
        mask = (ones << w) - ones
        v = (va & mask) | (vb & ~mask)
        # the sum of the fields, read off modulo 2^W - 1
        return ((v % ((1 << w) - 1)) << self.shift) - v

    def variables(self, terms):
        """The variables with a nonzero exponent in some term."""
        v = 0
        for k in terms:
            v |= -k & self.low
        field = (1 << self.width) - 1
        return {i for i in range(self.nvars) if (v >> (self.width * i)) & field}

    def specialize(self, terms, values):
        """The primitive form of terms with variable i fixed to the rational
        values[i], for each i in values.

        For values[i] = a/b and top the largest exponent of x_i, a term c x_i^e
        becomes c a^e b^(top-e): the polynomial times b^top, still integer."""
        items = terms.items()
        for i, q in values.items():
            exps = [self.exponent(k, i) for k in terms]
            top = max(exps, default=0)
            if not top:
                continue
            num, den = q.numerator, q.denominator
            unit = self._vars[i]
            out = {}
            for (k, c), e in zip(items, exps):
                if e:
                    k -= e * unit
                    c *= num ** e * den ** (top - e)
                elif den != 1:
                    c *= den ** top
                out[k] = out.get(k, 0) + c
            terms = {k: c for k, c in out.items() if c}
            items = terms.items()
        return primitive(terms) if terms else {}

    def evaluate(self, terms, values):
        """The value at values[i] for variable i: ints, Fractions or field
        elements."""
        total = 0
        for k, c in terms.items():
            m = None
            for i, e in enumerate(self.unpack(k)):
                for _ in range(e):
                    m = values[i] if m is None else m * values[i]
            total = total + (c if m is None else m * c)
        return total

    def json(self, terms, names, monic=False):
        """The document form: `pretty` and the `terms` with exponent lists,
        both in descending (grevlex) order; coefficients divided by the
        leading one when monic."""
        keys = sorted(terms, reverse=True)
        lead = terms[keys[0]] if monic and keys else 1
        coeffs = [Fraction(terms[k], lead) if lead != 1 else terms[k] for k in keys]
        monos = [self.unpack(k) for k in keys]
        bits = []
        for m, c in zip(monos, coeffs):
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
        pretty = bits[0] if bits else "0"
        for b in bits[1:]:
            pretty += " - " + b[1:] if b.startswith("-") else " + " + b
        return {
            "pretty": pretty,
            "terms": [{"monomial": list(m), "coefficient": str(c)}
                      for m, c in zip(monos, coeffs)],
        }


def primitive(terms):
    """Nonzero integer terms divided by their content, the leading (largest
    monomial's) coefficient made positive."""
    g = gcd(*terms.values())
    if terms[max(terms)] < 0:
        g = -g
    return terms if g == 1 else {k: c // g for k, c in terms.items()}
