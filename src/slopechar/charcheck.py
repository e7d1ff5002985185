"""Deciding characterization by coincidences.

Assembles the coincidence equations of a slope together with the Plucker
relations and a normalization (some Grassmann coordinate set to 1), computes
a reduced Groebner basis, and reads the verdict off zero-dimensionality.
Non-generic slopes get an informational analysis instead of a verdict.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

from .coincidence import (Degenerate, InconsistentSystem, all_equations,
                          grassmann_variables, minimize_r, realize)
from .errors import InputError, ResourceLimit
from .numfield import count_real_roots, poly_eval, poly_trim, rat_str
from .polyring import Poly, grevlex_key
from .slope import (Slope, _perm_sign, grassmann, is_generic,
                    plucker_relation_index_pairs)

DEGREE_CAP = 12
BASIS_CAP = 10000
MINPOLY_DEGREE_CAP = 8


# ---------------------------------------------------------------------------
# packed integer polynomials


class _Ring:
    """Packed monomials in nvars variables, every total degree at most
    max_degree.

    A monomial is the int K = (deg << S) - sum(e_i << W*i), S = W*nvars, with
    W bits per exponent, the top one a guard bit that no exponent reaches.
    Int order is then grevlex, K_a + K_b is the product, K_b - K_a the
    quotient, and a divides b iff (K_a - K_b) & guard is 0: subtracting the
    fields sets the guard bit of the lowest field that underflows (Monagan
    and Pearce, J. Symb. Comp. 2011).  A polynomial is a dict {K: int}."""

    def __init__(self, nvars, max_degree):
        self.nvars = nvars
        self.width = w = max_degree.bit_length() + 1
        self.shift = w * nvars
        self.low = (1 << self.shift) - 1
        self.guard = sum(1 << (w * i + w - 1) for i in range(nvars))

    def pack(self, mono):
        v = 0
        for i, e in enumerate(mono):
            v |= e << (self.width * i)
        return (sum(mono) << self.shift) - v

    def unpack(self, k):
        v = -k & self.low
        field = (1 << self.width) - 1
        return tuple((v >> (self.width * i)) & field for i in range(self.nvars))

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

    def primitive(self, p: Poly):
        """p's terms as coprime integers, the leading one positive."""
        den = math.lcm(*(c.denominator for c in p.terms.values()))
        return _primitive({self.pack(m): c.numerator * (den // c.denominator)
                           for m, c in p.terms.items()})

    def poly(self, terms, den=1):
        """The Poly of terms / den, terms in descending order."""
        return Poly.from_terms(self.nvars, {self.unpack(m): Fraction(terms[m], den)
                                            for m in sorted(terms, reverse=True)})


def _primitive(terms):
    """terms divided by their content, the leading coefficient made positive."""
    g = math.gcd(*terms.values())
    if terms[max(terms)] < 0:
        g = -g
    return terms if g == 1 else {m: c // g for m, c in terms.items()}


def _split(terms):
    """(lead, lead coefficient, tail items) of a nonzero term dict."""
    lead = max(terms)
    return lead, terms[lead], tuple((m, c) for m, c in terms.items() if m != lead)


def _normal_form(work, reducers, guard):
    """Full reduction of the term dict `work` (consumed) by `reducers`, a list
    of (lead, lead coefficient > 0, tail items), each step by the first
    reducer whose lead divides the leading term.

    Fraction-free: a step scales the work by a / gcd(a, c) for the reducer's
    lead coefficient a and the term's coefficient c, then subtracts an
    integer multiple of the reducer.  Returns (r, s) with r = s * NF exactly
    and s a positive int, r in descending order."""
    out = []  # (monomial, coefficient, scale of the work when it left)
    s = 1
    while work:
        t = max(work)
        c = work.pop(t)
        for lm, a, tail in reducers:
            if not (lm - t) & guard:
                break
        else:
            out.append((t, c, s))
            continue
        q = math.gcd(a, c)
        if q != a:
            scale = a // q
            s *= scale
            for m in work:
                work[m] *= scale
        f = c // q
        shift = t - lm
        for m, cm in tail:
            m += shift
            v = work.get(m, 0) - f * cm
            if v:
                work[m] = v
            else:
                del work[m]
    return {t: c * (s // at) for t, c, at in out}, s


# ---------------------------------------------------------------------------
# ideal assembly


class PolyIdeal:
    """Nonzero generators over named variables, grevlex order.  `buchberger`
    makes each primitive itself; `assemble_ideal`'s generators are
    `span_reduce`'s, already content-normalized and distinct."""

    def __init__(self, names, generators, active=None):
        self.names = tuple(names)
        self.generators = tuple(g for g in generators if g)
        self.active = tuple(active) if active is not None else tuple(range(len(names)))

    def __repr__(self):
        return f"PolyIdeal({len(self.generators)} generators, {len(self.names)} vars)"


def _coord_term(tuples_index, idx):
    """(sign, variable position) of G_idx for a possibly unsorted index tuple."""
    srt = tuple(sorted(idx))
    if len(set(srt)) != len(srt):
        return 0, None
    return _perm_sign(idx, srt), tuples_index[srt]


def plucker_polys(n, d):
    """The quadratic Plucker relations as polynomials in the minor variables."""
    tuples, _ = grassmann_variables(n, d)
    tuples_index = {t: i for i, t in enumerate(tuples)}
    nvars = len(tuples)
    out = []
    for a, b in plucker_relation_index_pairs(n, d):
        terms = {}
        for l, bl in enumerate(b):
            s1, i1 = _coord_term(tuples_index, a + (bl,))
            s2, i2 = _coord_term(tuples_index, tuple(x for x in b if x != bl))
            if not s1 or not s2:
                continue
            mono = [0] * nvars
            mono[i1] += 1
            mono[i2] += 1
            mono = tuple(mono)
            c = Fraction(s1 * s2 * (1 if l % 2 == 0 else -1))
            terms[mono] = terms.get(mono, Fraction(0)) + c
        p = Poly(nvars, terms)
        if p:
            out.append(p)
    return list(dict.fromkeys(p.content_normalized() for p in out))


def span_reduce(polys):
    """Q-linearly independent triangular basis of the span (sparse Gauss,
    fraction-free), content-normalized and sorted by leading monomial."""
    polys = [p for p in polys if p]
    if not polys:
        return []
    ring = _Ring(polys[0].nvars, max(p.degree() for p in polys))
    pivots = {}  # leading monomial -> primitive row, leading coefficient > 0
    for p in polys:
        row = ring.primitive(p)
        while row:
            lead = max(row)
            hit = pivots.get(lead)
            if hit is None:
                break
            a, c = hit[lead], row[lead]
            q = math.gcd(a, c)
            if q != a:
                row = {m: v * (a // q) for m, v in row.items()}
            f = c // q
            for m, cm in hit.items():
                v = row.get(m, 0) - f * cm
                if v:
                    row[m] = v
                else:
                    del row[m]
        if row:
            pivots[lead] = _primitive(row)
    return [ring.poly(pivots[m]) for m in sorted(pivots)]


def assemble_ideal(s: Slope, equations=None, normalize_at=None):
    """Coincidence equations + Plucker relations, normalized at one coordinate.

    normalize_at: index tuple like (1, 3) or None for the coordinate of
    largest modulus at the slope.  Returns (PolyIdeal, normalization index).
    """
    tuples, names = grassmann_variables(s.n, s.d)
    if equations is None:
        equations = all_equations(s)
    g = grassmann(s)
    if normalize_at is None:
        normalize_at = max(tuples, key=lambda t: abs(g[t]))
    norm_pos = tuples.index(tuple(normalize_at))
    if g[tuple(normalize_at)].is_zero():
        name = "G" + "".join(str(i) for i in normalize_at)
        raise InputError(
            f"normalization coordinate {name} vanishes at the slope")
    nvars = len(tuples)
    polys = [e.poly for e in equations] + plucker_polys(s.n, s.d)
    subst = [p.specialize({norm_pos: 1}) for p in polys]
    gens = span_reduce([p for p in subst if p])
    active = tuple(i for i in range(nvars) if i != norm_pos)
    return PolyIdeal(names, gens, active), tuple(normalize_at)


# ---------------------------------------------------------------------------
# Buchberger


def buchberger(ideal: PolyIdeal, degree_cap=DEGREE_CAP, basis_cap=BASIS_CAP):
    """Reduced Groebner basis (grevlex) of the ideal's generators, as monic
    Polys sorted by leading monomial.

    Works on packed monomials with primitive integer coefficients, so each
    basis element is a positive multiple of the monic one.  Pairs come in
    order of their lcm, then of their indices; the product criterion and
    the chain criterion skip pairs."""
    gens = ideal.generators
    if not gens:
        return []
    # an S-polynomial has at most the degree of two basis elements together,
    # and reduction never raises the degree
    ring = _Ring(gens[0].nvars,
                 2 * max(degree_cap, max(g.degree() for g in gens)))
    guard = ring.guard
    basis = [_split(ring.primitive(g)) for g in gens]
    heap = []
    pending = set()

    def add_pairs(k):
        lk = basis[k][0]
        for i in range(k):
            li = basis[i][0]
            lcm = ring.lcm(li, lk)
            if lcm == li + lk:
                continue  # coprime leading monomials: S-poly reduces to 0
            heapq.heappush(heap, (lcm, i, k))
            pending.add((i, k))

    for k in range(len(basis)):
        add_pairs(k)
    while heap:
        lcm, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        # chain criterion: some other basis element divides the lcm and both
        # of its pairs with i, j are already handled
        if any(k != i and k != j and not (lk - lcm) & guard
               and (min(i, k), max(i, k)) not in pending
               and (min(j, k), max(j, k)) not in pending
               for k, (lk, _, _) in enumerate(basis)):
            continue
        li, ai, ti = basis[i]
        lj, aj, tj = basis[j]
        q = math.gcd(ai, aj)
        fi, fj = aj // q, ai // q
        si, sj = lcm - li, lcm - lj
        sp = {m + si: fi * c for m, c in ti}
        for m, c in tj:
            m += sj
            v = sp.get(m, 0) - fj * c
            if v:
                sp[m] = v
            else:
                del sp[m]
        rem, _ = _normal_form(sp, basis, guard)
        if not rem:
            continue
        h = _split(_primitive(rem))
        deg = ring.degree(h[0])
        if deg > degree_cap:
            raise ResourceLimit(f"degree {deg} exceeds cap {degree_cap}")
        if len(basis) >= basis_cap:
            raise ResourceLimit(f"basis size exceeds cap {basis_cap}")
        basis.append(h)
        add_pairs(len(basis) - 1)
    # minimal basis: drop each element whose lead another lead divides (of
    # equal leads the first stays); then reduce each tail by the others
    keep = sorted(
        (b for i, b in enumerate(basis)
         if not any(j != i and not (lj - b[0]) & guard and (j < i or lj != b[0])
                    for j, (lj, _, _) in enumerate(basis))),
        key=lambda b: b[0])
    out = []
    for i, (lm, a, tail) in enumerate(keep):
        rem, s = _normal_form(dict(tail), keep[:i] + keep[i + 1:], guard)
        out.append(ring.poly({lm: a * s, **rem}, a * s))
    return out


def _free_variables(gb, active):
    """The active variables that are no leading monomial's pure power."""
    leads = [g.leading()[0] for g in gb]
    return tuple(i for i in active
                 if not any(sum(m) == m[i] and m[i] > 0 for m in leads))


# ---------------------------------------------------------------------------
# univariate consequences and sign filtering


def _univariate_in(p: Poly, active):
    """Variable index if p involves exactly one active variable, else None."""
    used = {i for m in p.terms for i, e in enumerate(m) if e}
    used &= set(active)
    return used.pop() if len(used) == 1 else None


def _to_coeff_list(p: Poly, var):
    deg = max(m[var] for m in p.terms)
    coeffs = [Fraction(0)] * (deg + 1)
    for m, c in p.terms.items():
        coeffs[m[var]] += c
    return poly_trim(coeffs)


def isolate_real_roots(coeffs):
    """Disjoint rational intervals, one simple real root each (Sturm + bisection)."""
    coeffs = poly_trim(coeffs)
    if len(coeffs) <= 1:
        return []
    bound = 1 + max(abs(c) for c in coeffs[:-1]) / abs(coeffs[-1])
    intervals = [(-bound, bound)]
    out = []
    while intervals:
        lo, hi = intervals.pop()
        k = count_real_roots(coeffs, lo, hi)
        if k == 0:
            continue
        if k == 1:
            at0 = lo <= 0 <= hi and poly_eval(coeffs, Fraction(0)) == 0
            if at0:
                out.append((Fraction(0), Fraction(0)))
                continue
            if lo < 0 < hi:
                intervals.append((lo, Fraction(0)))
                intervals.append((Fraction(0), hi))
                continue
            # shrink a zero endpoint so the interval determines the sign
            if hi == 0:
                cand = lo / 2
                while count_real_roots(coeffs, lo, cand) != 1:
                    cand /= 2
                hi = cand
            elif lo == 0:
                cand = hi / 2
                while count_real_roots(coeffs, cand, hi) != 1:
                    cand /= 2
                lo = cand
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        if poly_eval(coeffs, mid) == 0:
            out.append((mid, mid))
            lo2 = mid - Fraction(1, 10 ** 6)
            hi2 = mid + Fraction(1, 10 ** 6)
            while count_real_roots(coeffs, lo2, mid) > 1:
                lo2 = (lo2 + mid) / 2
            while count_real_roots(coeffs, mid, hi2) > 1:
                hi2 = (mid + hi2) / 2
            intervals.append((lo, lo2))
            intervals.append((hi2, hi))
        else:
            intervals.append((lo, mid))
            intervals.append((mid, hi))
    return sorted(out)


def minimal_polynomial_of(var, gb, nvars):
    """Monic univariate polynomial (ascending coefficients) of least degree
    satisfied by the variable modulo the ideal of gb, or None if that degree
    exceeds MINPOLY_DEGREE_CAP."""
    cap = MINPOLY_DEGREE_CAP
    # the normal form of var^k has at most degree k
    ring = _Ring(nvars, max([cap + 1] + [g.degree() for g in gb]))
    reducers = [_split(ring.primitive(g)) for g in gb]
    x = ring.pack(tuple(1 if i == var else 0 for i in range(nvars)))
    # the normal form of var^k is scale * nf (of 1 too: it is 0 in the unit
    # ideal)
    nf, s = _normal_form({0: 1}, reducers, ring.guard)
    scale = Fraction(1, s)
    rows = []  # (pivot mono, vector, combination over power basis)
    for k in range(cap + 1):
        vec = {m: c * scale for m, c in nf.items()}
        comb = [Fraction(0)] * (cap + 1)
        comb[k] = Fraction(1)
        for pm, pv, pc in sorted(rows, key=lambda r: r[0], reverse=True):
            f = vec.get(pm)
            if not f:
                continue
            for m, c in pv.items():
                v = vec.get(m, Fraction(0)) - f * c
                if v:
                    vec[m] = v
                else:
                    vec.pop(m, None)
            for i in range(cap + 1):
                comb[i] -= f * pc[i]
        if not vec:
            coeffs = poly_trim(comb)
            lead = coeffs[-1]
            return [c / lead for c in coeffs]
        pm = max(vec)
        lc = vec[pm]
        rows.append((pm, {m: c / lc for m, c in vec.items()},
                     [c / lc for c in comb]))
        nf, s = _normal_form({m + x: c for m, c in nf.items()}, reducers,
                             ring.guard)
        scale /= s
    return None


def _root_sign(interval):
    lo, hi = interval
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    return 0


# ---------------------------------------------------------------------------
# verdict


@dataclass
class Verdict:
    status: str  # CharacterizedByCoincidences | NotCharacterized | NonGenericInput
    names: tuple = ()
    normalization: tuple | None = None
    equations: tuple = ()
    groebner: tuple = ()
    r_bound: int | None = None
    r_witnesses: tuple = ()
    witness: dict = field(default_factory=dict)
    consequences: tuple = ()
    timings: dict = field(default_factory=dict)


def _r_bound(s: Slope, equations):
    """Max minimized r over the realizable coincidences behind the equations."""
    best = None
    witnesses = []
    for e in equations:
        try:
            c = realize(s, e.type, e.vector)
        except InconsistentSystem:
            continue
        if isinstance(c, Degenerate):
            continue
        c2, r = minimize_r(s, c)
        witnesses.append((c2, r))
        if best is None or r > best:
            best = r
    return best, tuple(witnesses)


def _solve_linearly(gens, active):
    """Assignment {var: Fraction} if repeated linear elimination solves the
    system completely, else None."""
    gens = [g for g in gens if g]
    values = {}
    progress = True
    while gens and progress:
        progress = False
        for g in list(gens):
            var = _univariate_in(g, active)
            if var is None or var in values:
                continue
            coeffs = _to_coeff_list(g, var)
            if len(coeffs) != 2:
                continue
            v = -coeffs[0] / coeffs[1]
            values[var] = v
            gens = [h.specialize({var: v}) for h in gens]
            gens = [h for h in gens if h]
            progress = True
            break
    if gens:
        return None
    return values


def _candidates(v):
    """Nonzero rationals near v with v's sign, simplest first."""
    lo, hi = v.interval(Fraction(1, 100))
    candidates = []
    for den in (2, 1, 3, 4):
        # floor, not truncation: a coordinate in (-1, 0) needs a negative candidate
        base = math.floor(lo * den)
        for num in (base, base + 1, math.floor(hi * den) + 1):
            c = Fraction(num, den)
            if c != 0 and c.denominator == den:
                candidates.append(c)
    # among candidates within 1/10 of v's enclosure prefer the simplest, the
    # nearest first
    def dist(c):
        d = max(lo - c, c - hi)
        return d if d > 0 else Fraction(0)

    near = [c for c in candidates if dist(c) < Fraction(1, 10)]
    if near:
        candidates = near
        candidates.sort(key=lambda c: (c.denominator, dist(c)))
    else:
        candidates.sort(key=lambda c: (dist(c), c.denominator))
    positive = v.sign() > 0
    return [c for c in dict.fromkeys(candidates) if (c > 0) == positive]


def _comparison_point(gb, active, free, names, exact_values, norm_pos):
    """A rational point on the positive-dimensional component, distinct from
    the slope's own coordinates: specialize the free variables in turn, each
    to the first nearby rational that leaves no nonzero constant, until
    linear elimination solves the rest.  None unless the point has every
    coordinate and the whole basis vanishes at it."""
    nvars = len(names)
    spec = list(gb)
    values = {norm_pos: Fraction(1)}
    for fv in free:
        for c in _candidates(exact_values[fv]):
            trial = [g.specialize({fv: c}) for g in spec]
            if not any(g.degree() == 0 and g for g in trial):
                break
        else:
            return None
        spec = [g for g in trial if g]
        values[fv] = c
        # free by their leading terms, the variables may still be bound to
        # each other: stop as soon as the rest is determined
        rest = [a for a in active if a not in values]
        sol = _solve_linearly(spec, rest)
        if sol is not None and len(sol) == len(rest):
            break
    else:
        return None
    values.update(sol)
    if any(g.evaluate([values[i] for i in range(nvars)]) for g in gb):
        return None
    return {names[i]: x for i, x in values.items()}


def verdict(s: Slope, normalize_at=None) -> Verdict:
    """Characterization verdict for a slope (Penrose-like inputs get the
    non-generic informational treatment)."""
    t0 = time.monotonic()
    tuples, names = grassmann_variables(s.n, s.d)
    generic, gwitness = is_generic(s)
    timings = {}

    eqs = all_equations(s)
    timings["equations"] = time.monotonic() - t0
    g = grassmann(s)
    exact = [g[t] for t in tuples]
    for e in eqs:
        if not e.poly.evaluate(exact).is_zero():
            raise RuntimeError("coincidence equation fails to vanish at the slope")

    t1 = time.monotonic()
    ideal, norm = assemble_ideal(s, equations=eqs, normalize_at=normalize_at)
    norm_pos = tuples.index(norm)
    norm_val = exact[norm_pos]
    scaled = [v / norm_val for v in exact]
    gb = buchberger(ideal)
    timings["groebner"] = time.monotonic() - t1

    if not generic:
        consequences = []
        nvars = len(tuples)
        for var in ideal.active:
            coeffs = minimal_polynomial_of(var, gb, nvars)
            if coeffs is None:
                continue
            # a zero root means the coordinate vanishes, excluded whenever the
            # slope's own coordinate does not: strip it via the sign filter
            achievable = scaled[var].sign()
            while achievable != 0 and len(coeffs) > 1 and coeffs[0] == 0:
                coeffs = coeffs[1:]
            if len(coeffs) <= 2:
                continue
            mono = [0] * nvars
            poly = Poly(nvars, {tuple(mono[:var] + [k] + mono[var + 1:]): c
                                for k, c in enumerate(coeffs)})
            roots = []
            for iv in isolate_real_roots(coeffs):
                sign = _root_sign(iv)
                roots.append({
                    "interval": iv,
                    "sign": sign,
                    "accepted": sign == achievable,
                })
            consequences.append({
                "variable": names[var],
                "polynomial": poly.content_normalized(),
                "achievable_sign": achievable,
                "roots": roots,
            })
        timings["total"] = time.monotonic() - t0
        return Verdict(status="NonGenericInput", names=tuple(names),
                       normalization=norm, equations=tuple(eqs),
                       groebner=tuple(gb),
                       witness={"rational_normal_vector": tuple(gwitness)},
                       consequences=tuple(consequences), timings=timings)

    free = _free_variables(gb, ideal.active)
    if not free:
        r_bound, witnesses = _r_bound(s, eqs)
        timings["total"] = time.monotonic() - t0
        return Verdict(status="CharacterizedByCoincidences", names=tuple(names),
                       normalization=norm, equations=tuple(eqs),
                       groebner=tuple(gb), r_bound=r_bound,
                       r_witnesses=witnesses, timings=timings)

    # family through the slope: specialize bound variables whose value at the
    # slope is rational, keep the relations purely among the free variables
    bound = {i: scaled[i].coeffs[0] for i in ideal.active
             if i not in free and scaled[i].is_rational()}
    family = []
    for p in gb:
        q = p.specialize(bound)
        if q and {i for m in q.terms for i, e in enumerate(m) if e} <= set(free):
            family.append(q.content_normalized())
    family = tuple(dict.fromkeys(family))
    point = _comparison_point(gb, ideal.active, free, names, scaled, norm_pos)
    timings["total"] = time.monotonic() - t0
    return Verdict(status="NotCharacterized", names=tuple(names),
                   normalization=norm, equations=tuple(eqs), groebner=tuple(gb),
                   witness={
                       "free_variables": tuple(names[i] for i in free),
                       "family": family,
                       "comparison_point": point,
                   },
                   timings=timings)


# ---------------------------------------------------------------------------
# JSON


def poly_json(p: Poly, names):
    return {
        "pretty": p.pretty(names),
        "terms": [{"monomial": list(m), "coefficient": rat_str(c)}
                  for m, c in sorted(p.terms.items(),
                                     key=lambda kv: grevlex_key(kv[0]), reverse=True)],
    }


def verdict_json(v: Verdict):
    names = list(v.names)
    out = {
        "status": v.status,
        "variables": names,
        "normalization": "G" + "".join(str(i) for i in v.normalization) if v.normalization else None,
        "equation_count": len(v.equations),
        "groebner_basis": [poly_json(p, names) for p in v.groebner],
        "timings": {k: round(t, 3) for k, t in v.timings.items()},
    }
    if v.status == "CharacterizedByCoincidences":
        out["r_bound"] = v.r_bound
        out["r_values"] = sorted({r for _, r in v.r_witnesses}, reverse=True)
    if v.status == "NotCharacterized":
        out["witness"] = {
            "free_variables": list(v.witness.get("free_variables", ())),
            "family": [poly_json(p, names) for p in v.witness.get("family", ())],
            "comparison_point": (
                {k: rat_str(x) for k, x in v.witness["comparison_point"].items()}
                if v.witness.get("comparison_point") else None),
        }
    if v.status == "NonGenericInput":
        out["witness"] = {"rational_normal_vector":
                          list(v.witness.get("rational_normal_vector", ()))}
        out["consequences"] = [{
            "variable": c["variable"],
            "polynomial": poly_json(c["polynomial"], names),
            "achievable_sign": c["achievable_sign"],
            "roots": [{
                "interval": [rat_str(c2) for c2 in r["interval"]],
                "sign": r["sign"],
                "accepted": r["accepted"],
            } for r in c["roots"]],
        } for c in v.consequences]
    return out
