"""Tuple-and-Fraction polynomials, independent of slopechar.

A polynomial here is a plain dict {exponent tuple: Fraction}, its monomials
ordered by `grevlex_key`.  The tests use these helpers as an oracle:
S-polynomials and normal forms computed here check the bases that
`charcheck.buchberger` computes on packed monomials with integer
coefficients, and `content_normalized`, `specialize`, `evaluate` and
`pretty` check `polyring`'s primitive forms and its document writer.
`pack`, `packed` and `unpacked` convert through a ring's own `var` and `unpack`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


def grevlex_key(mono):
    """Sort key: higher means larger in graded reverse lexicographic order."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


def poly(terms):
    """The polynomial of a dict or (monomial, coefficient) pairs, repeated
    monomials summed and zero terms dropped."""
    out = {}
    for m, c in (terms.items() if isinstance(terms, dict) else terms):
        m = tuple(m)
        out[m] = out.get(m, Fraction(0)) + Fraction(c)
    return {m: c for m, c in out.items() if c}


def leading(p):
    """(monomial, coefficient) of the grevlex-largest term."""
    m = max(p, key=grevlex_key)
    return m, p[m]


def add(p, q):
    return poly(list(p.items()) + list(q.items()))


def mul(p, q):
    return poly((tuple(a + b for a, b in zip(m1, m2)), c1 * c2)
                for m1, c1 in p.items() for m2, c2 in q.items())


def scaled(p, c):
    return poly((m, v * c) for m, v in p.items())


def monomial_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def monomial_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def monomial_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def _reduce_terms(terms, basis_lt):
    """Full normal form of a term dict against [(lm, lc, terms)] entries,
    each step by the first entry whose leading monomial divides."""
    work = dict(terms)
    out = {}
    while work:
        lead = max(work, key=grevlex_key)
        c = work.pop(lead)
        for lm, lc, bt in basis_lt:
            if monomial_divides(lm, lead):
                shift = monomial_div(lead, lm)
                f = c / lc
                for m, cm in bt.items():
                    mm = tuple(a + b for a, b in zip(m, shift))
                    if mm == lead:
                        continue
                    v = work.get(mm, out.pop(mm, Fraction(0))) - f * cm
                    if v:
                        work[mm] = v
                    else:
                        work.pop(mm, None)
                break
        else:
            out[lead] = c
    return out


def normal_form(p, basis):
    """Remainder of p on multivariate division by the basis list."""
    basis_lt = [leading(g) + (g,) for g in basis if g]
    return poly(_reduce_terms(p, basis_lt))


def s_polynomial(f, g):
    mf, cf = leading(f)
    mg, cg = leading(g)
    lcm = monomial_lcm(mf, mg)
    tf = monomial_div(lcm, mf)
    tg = monomial_div(lcm, mg)
    return poly([(tuple(a + b for a, b in zip(m, tf)), c / cf) for m, c in f.items()]
                + [(tuple(a + b for a, b in zip(m, tg)), -c / cg) for m, c in g.items()])


def content_normalized(p):
    """Scale so coefficients are coprime integers, leading one positive."""
    if not p:
        return p
    den = 1
    for c in p.values():
        den = den * c.denominator // gcd(den, c.denominator)
    num = 0
    for c in p.values():
        num = gcd(num, abs(c.numerator * (den // c.denominator)))
    scale = Fraction(den, num)
    if leading(p)[1] < 0:
        scale = -scale
    return scaled(p, scale)


def monic(p):
    return scaled(p, 1 / leading(p)[1]) if p else p


def evaluate(p, values):
    """The value at values[i] for variable i (any ring with + and *)."""
    total = Fraction(0)
    for m, c in p.items():
        term = c
        for v, e in zip(values, m):
            for _ in range(e):
                term = v * term
        total = term + total
    return total


def specialize(p, values):
    """Variable i fixed to values[i] for each i in values."""
    out = []
    for m, c in p.items():
        m = list(m)
        for i, q in values.items():
            c *= Fraction(q) ** m[i]
            m[i] = 0
        out.append((m, c))
    return poly(out)


def pretty(p, names):
    if not p:
        return "0"
    bits = []
    for m in sorted(p, key=grevlex_key, reverse=True):
        c = p[m]
        vars_part = "*".join(names[i] + (f"^{e}" if e > 1 else "")
                             for i, e in enumerate(m) if e)
        if not vars_part:
            bits.append(str(c))
        elif c in (1, -1):
            bits.append(("-" if c < 0 else "") + vars_part)
        else:
            bits.append(f"{c}*{vars_part}")
    out = bits[0]
    for b in bits[1:]:
        out += " - " + b[1:] if b.startswith("-") else " + " + b
    return out


def pack(ring, mono):
    """The packed monomial of an exponent tuple: packing is linear."""
    return sum(e * ring.var(i) for i, e in enumerate(mono))


def packed(ring, p):
    """The primitive packed form of p in `ring`: {packed monomial: int}."""
    return {pack(ring, m): int(c) for m, c in content_normalized(p).items()}


def unpacked(ring, terms, den=1):
    """The packed integer terms of `ring`, divided by den, as a plain dict."""
    return poly((ring.unpack(k), Fraction(c, den)) for k, c in terms.items())
