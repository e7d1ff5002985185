"""Tuple-and-Fraction Groebner helpers, independent of charcheck's kernel.

Monomials are exponent tuples ordered by `polyring.grevlex_key`, and
coefficients are Fractions.  The tests use these as an oracle: S-polynomials
and normal forms computed here check the bases that `charcheck.buchberger`
computes with packed integer monomials and integer coefficients.
"""

from __future__ import annotations

from fractions import Fraction

from slopechar.polyring import Poly, grevlex_key


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


def normal_form(p: Poly, basis):
    """Remainder of p on multivariate division by the basis list."""
    basis_lt = [(g.leading()[0], g.leading()[1], g.terms) for g in basis if g]
    return Poly(p.nvars, _reduce_terms(p.terms, basis_lt))


def s_polynomial(f: Poly, g: Poly):
    mf, cf = f.leading()
    mg, cg = g.leading()
    lcm = monomial_lcm(mf, mg)
    tf = monomial_div(lcm, mf)
    tg = monomial_div(lcm, mg)
    terms = {}
    for m, c in f.terms.items():
        mm = tuple(a + b for a, b in zip(m, tf))
        terms[mm] = terms.get(mm, Fraction(0)) + c / cf
    for m, c in g.terms.items():
        mm = tuple(a + b for a, b in zip(m, tg))
        terms[mm] = terms.get(mm, Fraction(0)) - c / cg
    return Poly(f.nvars, terms)
