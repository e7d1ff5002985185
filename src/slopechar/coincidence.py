"""Coincidences: concurrent face projections and their Grassmann equations.

A coincidence of a d-plane of R^n is a set of n-d+1 pairwise non-parallel
unit (n-d-1)-faces of Z^n whose projections are concurrent in the window.
Writing the concurrency as an overdetermined linear system, its determinant
is linear in the integer entries and homogeneous of degree n-d in the
Grassmann coordinates; both views are computed here exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product

from .geometry import eprime_basis
from .linalg import Matrix, kernel, kernel_int, lll, solve_right
from .numfield import FieldElem
from .polyring import Poly
from .slope import Slope


class CoincidenceError(Exception):
    pass


class InconsistentSystem(CoincidenceError):
    pass


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
            raise CoincidenceError("need n-d+1 subsets")
        for sub in self.subsets:
            if len(sub) != n - d - 1:
                raise CoincidenceError("each subset must have n-d-1 positions")
            if any(not 1 <= j <= n for j in sub):
                raise CoincidenceError("positions out of range")
        if n - d - 1 > 0 and len(set(self.subsets)) != len(self.subsets):
            raise CoincidenceError("subsets must be pairwise distinct")

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


class CoincidenceSystem:
    """The square matrix M of size n(n-d): columns (1 | r_1..r_p | lambdas).

    Column 0 carries integer linear forms in the a_i's; the A-part tracks
    the real entries; the diagonal carries copies of the generator matrix U.
    """

    def __init__(self, s: Slope, t: CoincidenceType):
        if (s.n, s.d) != (t.n, t.d):
            raise CoincidenceError("type does not match slope dimensions")
        self.slope = s
        self.type = t
        n, d = s.n, s.d
        self.size = n * (n - d)
        self.p = t.p
        zero, one = s.field.zero, s.field.one
        self.col0_coeffs, self.a_rows = _integer_part(t)
        # the fixed part N = (A | diag U) over the field
        rows = []
        for i in range(1, n - d + 1):
            for jj in range(n):
                row = [one * x for x in self.a_rows[(i - 1) * n + jj]]
                for blk in range(1, n - d + 1):
                    if blk == i:
                        row.extend(s.generators.rows[jj])
                    else:
                        row.extend([zero] * d)
                rows.append(row)
        self.n_matrix = Matrix(rows)

    def column0(self, v):
        """Evaluate column 0 at integer entries v (over Q)."""
        return _column0(self.col0_coeffs, v)

    def matrix(self, v) -> Matrix:
        """M with the a_i's replaced by v, over the field."""
        one = self.slope.field.one
        c0 = self.column0(v)
        return Matrix((one * c0[r],) + tuple(self.n_matrix.rows[r])
                      for r in range(self.size))


def integer_constraints(s: Slope, t: CoincidenceType) -> Matrix:
    """k x #a rational matrix whose vanishing is det(M) = 0 for all powers of alpha."""
    sysm = CoincidenceSystem(s, t)
    left = kernel(sysm.n_matrix.transpose())
    k = s.field.degree
    if len(left) != 1:
        # the fixed columns are already dependent: det(M) vanishes identically
        return Matrix(tuple(Fraction(0) for _ in range(t.num_a)) for _ in range(k))
    m = left[0]
    rows = [[Fraction(0)] * t.num_a for _ in range(k)]
    for r, coeffs in enumerate(sysm.col0_coeffs):
        for ai, sign in coeffs.items():
            e = m[r] * sign
            for tdeg in range(k):
                rows[tdeg][ai] += e.coeffs[tdeg]
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


def realize(s: Slope, t: CoincidenceType, v):
    """Solve M(v) (1, r, lambda)^T = 0; Degenerate when points collide."""
    sysm = CoincidenceSystem(s, t)
    m = sysm.matrix(v)
    rhs = tuple(-m[r, 0] for r in range(sysm.size))
    rest = Matrix(tuple(row[1:]) for row in m.rows)
    sol = solve_right(rest, rhs)
    if sol is None:
        raise InconsistentSystem("vector is not in the coincidence lattice")
    rvals = sol[:sysm.p]
    aidx = t.a_index()
    ridx = t.r_index()
    points = []
    for i in range(len(t.subsets)):
        pt = []
        for j in range(1, s.n + 1):
            if (i, j) in aidx:
                pt.append(v[aidx[(i, j)]])
            else:
                pt.append(rvals[ridx[(i, j)]])
        points.append(tuple(pt))
    if any(_points_equal(s, points[i], points[j])
           for i in range(len(points)) for j in range(i + 1, len(points))):
        return Degenerate(tuple(points))
    b = eprime_basis(s)
    projs = [_apply_mixed(b, s.field, pt) for pt in points]
    for q in projs[1:]:
        if any((x - y).sign() != 0 for x, y in zip(projs[0], q)):
            raise CoincidenceError("realized points do not project together")
    return Coincidence(t, tuple(points), projs[0], tuple(v))


def _apply_mixed(b, field, pt):
    elems = [field.from_rational(Fraction(e)) if not isinstance(e, FieldElem) else e
             for e in pt]
    acc = [field.zero] * b.nrows
    for j, e in enumerate(elems):
        for i in range(b.nrows):
            acc[i] = acc[i] + b[i, j] * e
    return tuple(acc)


def _points_equal(s, p1, p2):
    for x, y in zip(p1, p2):
        fx = x if isinstance(x, FieldElem) else s.field.from_rational(Fraction(x))
        fy = y if isinstance(y, FieldElem) else s.field.from_rational(Fraction(y))
        if (fx - fy).sign() != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# equations


def _int_det(rows):
    """Determinant of a small sparse integer matrix.

    The incidence minors met here have at most two nonzeros per row, so
    repeatedly expanding along single-nonzero rows usually collapses the
    whole determinant; any dense remainder falls back to Bareiss.
    """
    n = len(rows)
    if n == 0:
        return 1
    a = rows
    act_r = list(range(n))
    act_c = list(range(n))
    det = 1
    sign = 1
    changed = True
    while act_r and changed:
        changed = False
        for pos_r, ri in enumerate(act_r):
            row = a[ri]
            nz = [ci for ci in act_c if row[ci]]
            if not nz:
                return 0
            if len(nz) == 1:
                ci = nz[0]
                if (pos_r + act_c.index(ci)) % 2:
                    sign = -sign
                det *= row[ci]
                del act_r[pos_r]
                act_c.remove(ci)
                changed = True
                break
    if not act_r:
        return sign * det
    core = [[a[ri][ci] for ci in act_c] for ri in act_r]
    return sign * det * _int_det_dense(core)


def _int_det_dense(rows):
    """Bareiss fraction-free determinant of a small integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[-1][-1]


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


# (n, d, type subsets) -> (column 0 coefficients, nvars, Laplace terms); all
# three depend only on the shape and the type, so every slope of a shape
# shares them
_EXPANSIONS = {}


def _expansion_data(t: CoincidenceType):
    """Per-type Laplace data: det(M(v)) = sum over U-row choices of
    sign * (cofactor form evaluated on column 0) * prod of Grassmann vars.

    Each term's integer minor is expanded once along column 0, leaving a
    linear form sum_r cof_r * c0[r] that is cheap to evaluate per vector.
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
    data = []
    for choice in product(combinations(range(n), d), repeat=n - d):
        # rows kept for the integer/real part: complement of the U rows
        srows = []
        for blk, rset in enumerate(choice):
            keep = set(rset)
            srows.extend(blk * n + jj for jj in range(n) if jj not in keep)
        sign = -1 if (sum(srows) + len(srows) + half) % 2 else 1
        form = []
        for k, r in enumerate(srows):
            minor = [a_rows[rr] for idx, rr in enumerate(srows) if idx != k]
            cof = _int_det(minor)
            if cof:
                form.append((r, cof if k % 2 == 0 else -cof))
        if not form:
            continue
        mono = [0] * nvars
        for rset in choice:
            mono[gindex[tuple(jj + 1 for jj in rset)]] += 1
        data.append((sign, tuple(form), tuple(mono)))
    got = _EXPANSIONS[key] = (col0, nvars, data)
    return got


def equation_of(s: Slope, t: CoincidenceType, v):
    """Blockwise Laplace expansion of det(M(v)) into Grassmann variables."""
    if (s.n, s.d) != (t.n, t.d):
        raise CoincidenceError("type does not match slope dimensions")
    col0, nvars, data = _expansion_data(t)
    c0 = _column0(col0, v)
    terms = {}
    for sign, form, mono in data:
        dphi = sum(cof * c0[r] for r, cof in form)
        if dphi:
            terms[mono] = terms.get(mono, 0) + sign * dphi
    poly = Poly(nvars, terms)
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
    wp = _apply_mixed(b, s.field, pts[0])
    return Coincidence(c.type, pts, wp, tuple(newv)), r
