"""Coincidences: concurrent face projections and their Grassmann equations.

A coincidence of a d-plane of R^n is a set of n-d+1 pairwise non-parallel
unit (n-d-1)-faces of Z^n whose projections are concurrent in the window:
det M(v) = 0 for a square matrix whose column 0 is linear in the integer
entries v.  One Laplace expansion per type writes det M(v) in the Grassmann
coordinates; its column-0 cofactors give the lattice constraints, and
lattice vectors are realized in E' coordinates.  Everything is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import prod
from operator import mul

from .geometry import eprime_basis
from .linalg import Matrix, kernel_int, lll, rref_int
from .numfield import FieldElem, _canonical, _cofactors
from .polyring import Poly
from .slope import Slope, grassmann


class InconsistentSystem(Exception):
    """The vector is not in the coincidence lattice: no real entries solve
    the system."""


class Degenerate:
    """Marker result: the faces were already concurrent in Z^n."""

    def __init__(self, points=None):
        self.points = points

    def __repr__(self):
        return "Degenerate()"


class TrivialEquation:
    """Marker result: det(M) is identically zero (degenerate coincidence)."""

    def __repr__(self):
        return "TrivialEquation()"


class CoincidenceType:
    """Real-entry position subsets of the n-d+1 points, pairwise distinct."""

    def __init__(self, n, d, subsets):
        self.n = n
        self.d = d
        self.subsets = tuple(tuple(sorted(sub)) for sub in subsets)
        if len(self.subsets) != n - d + 1:
            raise ValueError("need n-d+1 subsets")
        for sub in self.subsets:
            if len(sub) != n - d - 1:
                raise ValueError("each subset must have n-d-1 positions")
            if any(not 1 <= j <= n for j in sub):
                raise ValueError("positions out of range")
        if n - d - 1 > 0 and len(set(self.subsets)) != len(self.subsets):
            raise ValueError("subsets must be pairwise distinct")

    def canonical(self):
        return CoincidenceType(self.n, self.d, sorted(self.subsets))

    def __eq__(self, other):
        return (isinstance(other, CoincidenceType)
                and (self.n, self.d) == (other.n, other.d)
                and sorted(self.subsets) == sorted(other.subsets))

    def __hash__(self):
        return hash((self.n, self.d, tuple(sorted(self.subsets))))

    def __repr__(self):
        return f"CoincidenceType{self.subsets}"

    # --- index layout: reading order over points, ascending positions ---

    def integer_positions(self, i):
        return tuple(j for j in range(1, self.n + 1) if j not in self.subsets[i])

    def a_index(self):
        """Map (point, position) -> 0-based index into (a_1, ..., a_#)."""
        idx = {}
        for i in range(len(self.subsets)):
            for j in self.integer_positions(i):
                idx[(i, j)] = len(idx)
        return idx

    def r_index(self):
        """Map (point, position) -> 0-based index into (r_1, ..., r_p)."""
        idx = {}
        for i, sub in enumerate(self.subsets):
            for j in sub:
                idx[(i, j)] = len(idx)
        return idx

    @property
    def num_a(self):
        return (self.d + 1) * (self.n - self.d + 1)

    @property
    def p(self):
        return (self.n - self.d - 1) * (self.n - self.d + 1)


def enumerate_types(n, d):
    """All coincidence types, canonical up to point permutation."""
    size = n - d - 1
    if size == 0:
        return [CoincidenceType(n, d, [()] * (n - d + 1))]
    subsets = list(combinations(range(1, n + 1), size))
    return [CoincidenceType(n, d, combo)
            for combo in combinations(subsets, n - d + 1)]


def _integer_part(t: CoincidenceType):
    """Slope-independent rows of M: column 0 as one {a_index: +-1} dict per
    global row, and the integer A-part tracking the real entries."""
    n, d = t.n, t.d
    aidx = t.a_index()
    ridx = t.r_index()
    col0 = []
    a_rows = []
    for i in range(1, n - d + 1):
        for j in range(1, n + 1):
            c = {}
            if (0, j) in aidx:
                c[aidx[(0, j)]] = 1
            if (i, j) in aidx:
                c[aidx[(i, j)]] = c.get(aidx[(i, j)], 0) - 1
            col0.append(c)
            arow = [0] * t.p
            if (0, j) in ridx:
                arow[ridx[(0, j)]] = 1
            if (i, j) in ridx:
                arow[ridx[(i, j)]] -= 1
            a_rows.append(arow)
    return col0, a_rows


def _column0(col0_coeffs, v):
    return [sum(c * v[k] for k, c in row.items()) for row in col0_coeffs]


def _check_shape(s: Slope, t: CoincidenceType):
    if (s.n, s.d) != (t.n, t.d):
        raise ValueError("type does not match slope dimensions")


def integer_constraints(s: Slope, t: CoincidenceType) -> Matrix:
    """k x #a rational matrix whose vanishing is det(M) = 0 for all powers of alpha.

    det(M(v)) = sum_r c0(v)_r * C_r for the column-0 cofactors C_r, the
    Laplace forms' coefficients at the slope's Grassmann coordinates.  C
    spans the left kernel of the fixed part N = (A | diag U) when N has full
    column rank, and is zero otherwise.
    """
    _check_shape(s, t)
    col0, _, data = _expansion_data(t)
    g = grassmann(s)
    gvals = [g[tp] for tp in grassmann_variables(s.n, s.d)[0]]
    cofs = [s.field.zero] * len(col0)
    for mono, form in data:
        gm = prod(gvals[i] for i, e in enumerate(mono) for _ in range(e))
        for r, c in form:
            cofs[r] = cofs[r] + gm * c
    k = s.field.degree
    rows = [[Fraction(0)] * t.num_a for _ in range(k)]
    last = next((c for c in reversed(cofs) if not c.is_zero()), None)
    if last is None:
        # the fixed columns are already dependent: det(M) vanishes identically
        return Matrix(rows)
    # scaled to 1 at its last nonzero entry, the column rref leaves free
    inv = last.inverse()
    for coeffs, c in zip(col0, cofs):
        m = c * inv
        for ai, sign in coeffs.items():
            for tdeg in range(k):
                rows[tdeg][ai] += Fraction(sign * m.num[tdeg], m.den)
    return Matrix(rows)


def coincidence_lattice(s: Slope, t: CoincidenceType):
    """LLL-reduced basis of the integer kernel of the constraint matrix."""
    basis = kernel_int(integer_constraints(s, t))
    return lll(basis) if basis else []


@dataclass
class Coincidence:
    type: CoincidenceType
    points: tuple          # n-d+1 points; entries int or FieldElem
    window_point: tuple    # common E' projection
    vector: tuple          # the integer entries a


class _Realizer:
    """The realization system of one (slope, type), eliminated once.

    B(x_0 - x_i) = 0, i = 1..n-d, reads L r = W v for the real entries r:
    the field matrix L stacks the blocks B A_i, and W = -B C_i maps the
    integer entries v to the right-hand side (C_i the column-0 rows of block
    i).  Writing r_c = sum_t y_{c,t} alpha^t expands [L | W] over Q, one
    rational row per field row and power of alpha; each is cleared of
    denominators, and the integer system gets one fraction-free Gauss-Jordan
    elimination (`rref_int`) with the columns (c, t) in c-major order.  Over
    Q(alpha) the span of the earlier blocks is a Q(alpha)-subspace, so a
    block's k columns are all pivots (column c of L is independent of the
    earlier ones) or none: the pivot blocks are the field pivots of L, and
    y = 0 on the free blocks is the field solution with its free entries 0.
    """

    __slots__ = ("solve", "checks", "layout")

    def __init__(self, s: Slope, t: CoincidenceType):
        field = s.field
        k = field.degree
        n, p = s.n, t.p
        scale, red = field._reduction
        top = scale ** (k - 1)
        col0, a_rows = _integer_part(t)
        b = eprime_basis(s)
        rows = []
        for blk in range(0, len(a_rows), n):
            # block rows of [A | -C]: the field row [L | W] is B times them
            fixed = [a_rows[blk + j] + [-col0[blk + j].get(q, 0) for q in range(t.num_a)]
                     for j in range(n)]
            for brow in b.rows:
                # [L | W] as integer numerators over the B row's denominator
                den = math.lcm(*(e.den for e in brow))
                ents = [[0] * k for _ in range(p + t.num_a)]
                for e, row in zip(brow, fixed):
                    x = [c * (den // e.den) for c in e.num]
                    for c, sign in enumerate(row):
                        if sign:
                            ents[c] = [a + sign * y for a, y in zip(ents[c], x)]
                # column (c, tt) holds top * L_c alpha^tt; with the field's
                # table, scale * x alpha = scale * (x shifted up) + x_{k-1} * red[0]
                cols = []
                for x in ents[:p]:
                    cols.append([top * c for c in x])
                    for tt in range(1, k):
                        x = [scale * a + x[-1] * r for a, r in zip([0] + x[:-1], red[0])]
                        cols.append([c * scale ** (k - 1 - tt) for c in x])
                for tt in range(k):
                    row = [col[tt] for col in cols] + [top * x[tt] for x in ents[p:]]
                    g = math.gcd(*row)
                    rows.append([c // g for c in row] if g > 1 else row)
        pivots, d = rref_int(rows, p * k)
        if len(pivots) != k * len({c // k for c in pivots}):
            raise RuntimeError("realization pivots are not whole blocks")
        # block c: y_{c,t} = (row_t . v) / d, over the block's own content
        self.solve = [None] * p
        for i in range(0, len(pivots), k):
            block = [rows[i + tt][p * k:] for tt in range(k)]
            g = math.gcd(d, *(c for row in block for c in row)) * (1 if d > 0 else -1)
            self.solve[pivots[i] // k] = (
                tuple([c // g for c in row] for row in block), d // g)
        self.checks = []
        for row in rows[len(pivots):]:
            g = math.gcd(*row)
            if g:
                self.checks.append([c // g for c in row[p * k:]])
        aidx, ridx = t.a_index(), t.r_index()
        self.layout = tuple(
            tuple((True, aidx[(i, j)]) if (i, j) in aidx else (False, ridx[(i, j)])
                  for j in range(1, n + 1))
            for i in range(len(t.subsets)))


def _realizer(s: Slope, t: CoincidenceType) -> _Realizer:
    """The eliminated realization system of (s, t), cached on the slope."""
    cache = getattr(s, "_realizers", None)
    if cache is None:
        cache = s._realizers = {}
    got = cache.get(t.subsets)
    if got is None:
        got = cache[t.subsets] = _Realizer(s, t)
    return got


def realize(s: Slope, t: CoincidenceType, v):
    """Solve B(x_0 - x_i) = 0, i = 1..n-d, for the real entries, with B the
    E' basis, whose kernel is E; Degenerate when points collide.  Unique
    unless the fixed part N of M is rank-deficient; then the free real
    entries are set to 0.

    The system of (s, t) is eliminated once (`_Realizer`); a vector then
    costs integer dot products: each consistency row must vanish, and each
    pivot block gives the numerators of one real entry over its
    denominator."""
    _check_shape(s, t)
    system = _realizer(s, t)
    for row in system.checks:
        if sum(map(mul, row, v)):
            raise InconsistentSystem("vector is not in the coincidence lattice")
    field = s.field
    zero = field.zero
    rvals = [zero if block is None
             else _canonical(field, [sum(map(mul, row, v)) for row in block[0]], block[1])
             for block in system.solve]
    points = [tuple(v[q] if is_a else rvals[q] for is_a, q in pt)
              for pt in system.layout]
    # pairwise ==, not a set: an int and the equal FieldElem hash differently
    if any(points[i] == points[j]
           for i in range(len(points)) for j in range(i + 1, len(points))):
        return Degenerate(tuple(points))
    b = eprime_basis(s)
    projs = [b.apply(pt) for pt in points]
    if any(q != projs[0] for q in projs[1:]):
        raise ValueError("realized points do not project together")
    return Coincidence(t, tuple(points), projs[0], tuple(v))


# ---------------------------------------------------------------------------
# equations


def grassmann_variables(n, d):
    """Ascending index tuples in fixed order, with name strings."""
    tuples = list(combinations(range(1, n + 1), d))
    names = ["G" + "".join(str(i) for i in t) for t in tuples]
    return tuples, names


@dataclass
class CoincidenceEquation:
    poly: Poly
    type: CoincidenceType
    vector: tuple

    def degree(self):
        return self.poly.degree()


# (n, d, type subsets) -> (column 0 coefficients, nvars, Laplace forms per
# monomial); all three depend only on the shape and the type, so every slope
# of a shape shares them
_EXPANSIONS = {}


def _expansion_data(t: CoincidenceType):
    """Per-type Laplace data: det(M(v)) = sum over Grassmann monomials of
    (cofactor form evaluated on column 0) * monomial.

    Each term's integer rows get their column-0 cofactors from one Bareiss
    elimination (`_cofactors`), and the terms of one monomial are summed:
    the forms' coefficients are the column-0 cofactors of M as polynomials
    in the Grassmann coordinates.
    """
    key = (t.n, t.d, t.subsets)
    got = _EXPANSIONS.get(key)
    if got is not None:
        return got
    n, d = t.n, t.d
    col0, a_rows = _integer_part(t)
    p = t.p
    gtuples, _ = grassmann_variables(n, d)
    gindex = {gt: i for i, gt in enumerate(gtuples)}
    nvars = len(gtuples)
    half = (p + 2) * (p + 1) // 2
    forms = {}
    for choice in product(combinations(range(n), d), repeat=n - d):
        # rows kept for the integer/real part: complement of the U rows
        srows = []
        for blk, rset in enumerate(choice):
            keep = set(rset)
            srows.extend(blk * n + jj for jj in range(n) if jj not in keep)
        sign = -1 if (sum(srows) + len(srows) + half) % 2 else 1
        mono = [0] * nvars
        for rset in choice:
            mono[gindex[tuple(jj + 1 for jj in rset)]] += 1
        form = forms.setdefault(tuple(mono), {})
        for r, cof in zip(srows, _cofactors([a_rows[rr] for rr in srows])):
            if cof:
                form[r] = form.get(r, 0) + sign * cof
    data = []
    for mono, form in forms.items():
        form = tuple((r, c) for r, c in form.items() if c)
        if form:
            data.append((mono, form))
    got = _EXPANSIONS[key] = (col0, nvars, data)
    return got


def equation_of(s: Slope, t: CoincidenceType, v):
    """Blockwise Laplace expansion of det(M(v)) into Grassmann variables."""
    _check_shape(s, t)
    col0, nvars, data = _expansion_data(t)
    c0 = _column0(col0, v)
    poly = Poly(nvars, {mono: sum(cof * c0[r] for r, cof in form)
                        for mono, form in data})
    if poly.is_zero():
        return TrivialEquation()
    return CoincidenceEquation(poly, t, tuple(v))


def all_equations(s: Slope):
    """Deduplicated coincidence equations from LLL bases of every type."""
    out = []
    seen = set()
    for t in enumerate_types(s.n, s.d):
        for v in coincidence_lattice(s, t):
            eq = equation_of(s, t, v)
            if isinstance(eq, TrivialEquation):
                continue
            norm = eq.poly.content_normalized()
            key = frozenset(norm.terms.items())
            if key in seen:
                continue
            seen.add(key)
            out.append(CoincidenceEquation(norm, t, tuple(v)))
    return out


# ---------------------------------------------------------------------------
# r-bounds


def _entry_bounds(s, e):
    """Integer interval [lo, hi] spanned by this entry over the face vertices."""
    if isinstance(e, FieldElem):
        f = e.floor()
        return f, f + 1
    return int(e), int(e)


def minimize_r(s: Slope, c: Coincidence):
    """Common integer translation minimizing the largest vertex entry modulus."""
    n = s.n
    spans = []
    r = 0
    for j in range(n):
        lo = hi = None
        for pt in c.points:
            a, b = _entry_bounds(s, pt[j])
            lo = a if lo is None else min(lo, a)
            hi = b if hi is None else max(hi, b)
        spans.append((lo, hi))
        tj = -((lo + hi) // 2)
        r = max(r, min(max(abs(lo + t), abs(hi + t))
                       for t in (tj - 1, tj, tj + 1)))
    # among translations achieving r, keep each coordinate shift minimal
    best_t = []
    for lo, hi in spans:
        t = 0
        while max(abs(lo + t), abs(hi + t)) > r:
            t += 1 if abs(lo) >= abs(hi) else -1
        best_t.append(t)
    tvec = tuple(best_t)
    pts = tuple(tuple(e + tvec[j] for j, e in enumerate(pt)) for pt in c.points)
    aidx = c.type.a_index()
    newv = list(c.vector)
    for (i, j), k in aidx.items():
        newv[k] = c.vector[k] + tvec[j - 1]
    b = eprime_basis(s)
    wp = b.apply(pts[0])
    return Coincidence(c.type, pts, wp, tuple(newv)), r
