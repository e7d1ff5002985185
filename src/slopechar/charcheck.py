"""Deciding characterization by coincidences.

Assembles the coincidence equations of a slope together with the Plucker
relations and a normalization (some Grassmann coordinate set to 1), computes
a reduced Groebner basis, and reads the verdict off zero-dimensionality.
Non-generic slopes get an informational analysis instead of a verdict.
Every polynomial, from the equations to the basis, the family and the
consequences, is a primitive packed integer polynomial of the shape's
`grassmann_ring`; reduction is fraction-free (Monagan and Pearce, J. Symb.
Comp. 2011), and only the document writer `Ring.json` unpacks exponents.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from .coincidence import (DEGREE_CAP, Degenerate, InconsistentSystem,
                          all_equations, grassmann_ring, grassmann_variables,
                          minimize_r, realize)
from .errors import InputError, ResourceLimit
from .numfield import count_real_roots, poly_eval, poly_trim, rat_str
from .polyring import Ring, primitive
from .slope import (Slope, _perm_sign, grassmann, is_generic,
                    plucker_relation_index_pairs)

BASIS_CAP = 10000
MINPOLY_DEGREE_CAP = 8


# ---------------------------------------------------------------------------
# fraction-free reduction


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
    """Nonzero primitive generators in a ring, over named variables, grevlex
    order; `assemble_ideal`'s are `span_reduce`'s, with distinct leading
    monomials."""

    def __init__(self, ring: Ring, names, generators, active=None):
        self.ring = ring
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


@cache
def plucker_polys(n, d):
    """The quadratic Plucker relations in the minor variables, primitive and
    distinct, packed in `grassmann_ring(n, d)`: built once per shape."""
    tuples, _ = grassmann_variables(n, d)
    tuples_index = {t: i for i, t in enumerate(tuples)}
    ring = grassmann_ring(n, d)
    out = {}
    for a, b in plucker_relation_index_pairs(n, d):
        terms = {}
        for l, bl in enumerate(b):
            s1, i1 = _coord_term(tuples_index, a + (bl,))
            s2, i2 = _coord_term(tuples_index, tuple(x for x in b if x != bl))
            if not s1 or not s2:
                continue
            mono = ring.var(i1) + ring.var(i2)
            terms[mono] = terms.get(mono, 0) + s1 * s2 * (1 if l % 2 == 0 else -1)
        terms = {m: c for m, c in terms.items() if c}
        if terms:
            terms = primitive(terms)
            out.setdefault(frozenset(terms.items()), terms)
    return tuple(out.values())


def span_reduce(polys):
    """Q-linearly independent triangular basis of the span of primitive
    polynomials (sparse Gauss, fraction-free), primitive and sorted by
    leading monomial."""
    pivots = {}  # leading monomial -> primitive row, leading coefficient > 0
    for p in polys:
        row = dict(p)
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
            pivots[lead] = primitive(row)
    return [pivots[m] for m in sorted(pivots)]


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
    ring = grassmann_ring(s.n, s.d)
    # the normalization coordinate set to 1
    one = {norm_pos: 1}
    polys = [e.poly for e in equations] + list(plucker_polys(s.n, s.d))
    gens = span_reduce([q for p in polys if (q := ring.specialize(p, one))])
    active = tuple(i for i in range(len(tuples)) if i != norm_pos)
    return PolyIdeal(ring, names, gens, active), tuple(normalize_at)


# ---------------------------------------------------------------------------
# Buchberger


def buchberger(ideal: PolyIdeal, degree_cap=DEGREE_CAP, basis_cap=BASIS_CAP):
    """Reduced Groebner basis (grevlex) of the ideal's generators, each
    element primitive, sorted by leading monomial.

    Works on the ideal's packed monomials with fraction-free integer
    coefficients.  Pairs come in order of their lcm, then of their indices;
    the product criterion and the chain criterion skip pairs.  ValueError if
    the ring's fields are too narrow for the S-polynomials up to the caps."""
    gens = ideal.generators
    if not gens:
        return []
    ring = ideal.ring
    # an S-polynomial has at most the degree of two basis elements together,
    # and reduction never raises the degree
    ring.require(2 * max(degree_cap, max(ring.degree(max(g)) for g in gens)))
    guard = ring.guard
    basis = [_split(g) for g in gens]
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
        h = _split(primitive(rem))
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
        out.append(primitive({lm: a * s, **rem}))
    return out


def _free_variables(ring: Ring, gb, active):
    """The active variables that are no leading monomial's pure power."""
    leads = [max(g) for g in gb]
    return tuple(i for i in active
                 if not any(lm == ring.degree(lm) * ring.var(i) for lm in leads))


# ---------------------------------------------------------------------------
# univariate consequences and sign filtering


def _univariate_in(ring: Ring, p, active):
    """Variable index if p involves exactly one active variable, else None."""
    used = ring.variables(p) & set(active)
    return used.pop() if len(used) == 1 else None


def _to_coeff_list(ring: Ring, p, var):
    deg = max(ring.exponent(m, var) for m in p)
    coeffs = [0] * (deg + 1)
    for m, c in p.items():
        coeffs[ring.exponent(m, var)] += c
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


def minimal_polynomial_of(var, gb, ring: Ring):
    """Monic univariate polynomial (ascending coefficients) of least degree
    satisfied by the variable modulo the ideal of gb, a primitive Groebner
    basis in `ring`, or None if that degree exceeds MINPOLY_DEGREE_CAP."""
    cap = MINPOLY_DEGREE_CAP
    # the normal form of var^k has at most degree k
    ring.require(cap + 1)
    reducers = [_split(g) for g in gb]
    x = ring.var(var)
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
    ring: Ring  # the ring of every polynomial below
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


def _solve_linearly(ring: Ring, gens, active):
    """Assignment {var: Fraction} if repeated linear elimination solves the
    system completely, else None."""
    gens = [g for g in gens if g]
    values = {}
    progress = True
    while gens and progress:
        progress = False
        for g in list(gens):
            var = _univariate_in(ring, g, active)
            if var is None or var in values:
                continue
            coeffs = _to_coeff_list(ring, g, var)
            if len(coeffs) != 2:
                continue
            v = Fraction(-coeffs[0], coeffs[1])
            values[var] = v
            gens = [q for h in gens if (q := ring.specialize(h, {var: v}))]
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


def _comparison_point(ring: Ring, gb, active, free, names, exact_values, norm_pos):
    """A rational point on the positive-dimensional component, distinct from
    the slope's own coordinates: specialize the free variables in turn, each
    to the first nearby rational that leaves no nonzero constant, until
    linear elimination solves the rest.  None unless the point has every
    coordinate and the whole basis vanishes at it."""
    spec = list(gb)
    values = {norm_pos: Fraction(1)}
    for fv in free:
        for c in _candidates(exact_values[fv]):
            trial = [ring.specialize(g, {fv: c}) for g in spec]
            # a nonzero constant (the packed monomial 1 is 0) empties the
            # variety
            if not any(g and max(g) == 0 for g in trial):
                break
        else:
            return None
        spec = [g for g in trial if g]
        values[fv] = c
        # free by their leading terms, the variables may still be bound to
        # each other: stop as soon as the rest is determined
        rest = [a for a in active if a not in values]
        sol = _solve_linearly(ring, spec, rest)
        if sol is not None and len(sol) == len(rest):
            break
    else:
        return None
    values.update(sol)
    if any(ring.specialize(g, values) for g in gb):
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
    ring = grassmann_ring(s.n, s.d)
    for e in eqs:
        if ring.evaluate(e.poly, exact) != 0:
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
        for var in ideal.active:
            coeffs = minimal_polynomial_of(var, gb, ring)
            if coeffs is None:
                continue
            # a zero root means the coordinate vanishes, excluded whenever the
            # slope's own coordinate does not: strip it via the sign filter
            achievable = scaled[var].sign()
            while achievable != 0 and len(coeffs) > 1 and coeffs[0] == 0:
                coeffs = coeffs[1:]
            if len(coeffs) <= 2:
                continue
            den = math.lcm(*(c.denominator for c in coeffs))
            x = ring.var(var)
            poly = primitive({k * x: c.numerator * (den // c.denominator)
                              for k, c in enumerate(coeffs) if c})
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
                "polynomial": poly,
                "achievable_sign": achievable,
                "roots": roots,
            })
        timings["total"] = time.monotonic() - t0
        return Verdict(status="NonGenericInput", ring=ring, names=tuple(names),
                       normalization=norm, equations=tuple(eqs),
                       groebner=tuple(gb),
                       witness={"rational_normal_vector": tuple(gwitness)},
                       consequences=tuple(consequences), timings=timings)

    free = _free_variables(ring, gb, ideal.active)
    if not free:
        r_bound, witnesses = _r_bound(s, eqs)
        timings["total"] = time.monotonic() - t0
        return Verdict(status="CharacterizedByCoincidences", ring=ring,
                       names=tuple(names), normalization=norm,
                       equations=tuple(eqs), groebner=tuple(gb), r_bound=r_bound,
                       r_witnesses=witnesses, timings=timings)

    # family through the slope: specialize bound variables whose value at the
    # slope is rational, keep the relations purely among the free variables
    bound = {i: scaled[i].coeffs[0] for i in ideal.active
             if i not in free and scaled[i].is_rational()}
    family = {}
    for p in gb:
        q = ring.specialize(p, bound)
        if q and ring.variables(q) <= set(free):
            family.setdefault(frozenset(q.items()), q)
    point = _comparison_point(ring, gb, ideal.active, free, names, scaled, norm_pos)
    timings["total"] = time.monotonic() - t0
    return Verdict(status="NotCharacterized", ring=ring, names=tuple(names),
                   normalization=norm, equations=tuple(eqs), groebner=tuple(gb),
                   witness={
                       "free_variables": tuple(names[i] for i in free),
                       "family": tuple(family.values()),
                       "comparison_point": point,
                   },
                   timings=timings)


# ---------------------------------------------------------------------------
# JSON


def verdict_json(v: Verdict):
    names = list(v.names)
    ring = v.ring
    out = {
        "status": v.status,
        "variables": names,
        "normalization": "G" + "".join(str(i) for i in v.normalization) if v.normalization else None,
        "equation_count": len(v.equations),
        # the reduced basis is written monic
        "groebner_basis": [ring.json(p, names, monic=True) for p in v.groebner],
        "timings": {k: round(t, 3) for k, t in v.timings.items()},
    }
    if v.status == "CharacterizedByCoincidences":
        out["r_bound"] = v.r_bound
        out["r_values"] = sorted({r for _, r in v.r_witnesses}, reverse=True)
    if v.status == "NotCharacterized":
        out["witness"] = {
            "free_variables": list(v.witness.get("free_variables", ())),
            "family": [ring.json(p, names) for p in v.witness.get("family", ())],
            "comparison_point": (
                {k: rat_str(x) for k, x in v.witness["comparison_point"].items()}
                if v.witness.get("comparison_point") else None),
        }
    if v.status == "NonGenericInput":
        out["witness"] = {"rational_normal_vector":
                          list(v.witness.get("rational_normal_vector", ()))}
        out["consequences"] = [{
            "variable": c["variable"],
            "polynomial": ring.json(c["polynomial"], names),
            "achievable_sign": c["achievable_sign"],
            "roots": [{
                "interval": [rat_str(c2) for c2 in r["interval"]],
                "sign": r["sign"],
                "accepted": r["accepted"],
            } for r in c["roots"]],
        } for c in v.consequences]
    return out
