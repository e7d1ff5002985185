"""Exact polytope kernel in the internal space E' (dimension n-d <= 3 for
vertex-level work; H-form predicates work in any dimension).

All coordinates live in a fixed exact basis of E' obtained by row-reducing
a basis of E' = E^perp, so every predicate is a sign computation in Q(alpha); a
zero test compares coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .linalg import Matrix, _is_zero, det, dot, inverse, kernel, rref, solve_right
from .slope import Slope


INSIDE, BOUNDARY, OUTSIDE = "inside", "boundary", "outside"


# ---------------------------------------------------------------------------
# E' coordinates


def eprime_basis(s: Slope) -> Matrix:
    """(n-d) x n matrix B with B x = coordinates of pi'(x) in a fixed exact
    basis of E'.  Cached on the slope.

    E' = E^perp is the kernel of the transposed generators.  The basis b0 is
    the RREF of that kernel's basis: a row space has exactly one RREF, so b0
    is also the RREF of the orthogonal projector pi' onto E', whose rows span
    the same space, and B = (b0 b0^T)^-1 b0 does not depend on the spanning
    set reduced."""
    cached = getattr(s, "_eprime_B", None)
    if cached is not None:
        return cached
    red, pivots = rref(Matrix(kernel(s.generators.transpose())))
    b0 = Matrix(red.rows[: len(pivots)])  # basis of the row space = E'
    b = inverse(b0 * b0.transpose()) * b0
    s._eprime_B = b
    return b


def cross_normal(vectors, m, one):
    """Generalized cross product: vector orthogonal to m-1 vectors in R^m."""
    zero = one - one
    if m == 1:
        return (one,)
    rows = [list(v) for v in vectors]
    normal = []
    for j in range(m):
        sub = Matrix(tuple(r[:j] + r[j + 1:]) for r in rows)
        minor = det(sub) if sub.nrows else one
        normal.append(minor if j % 2 == 0 else -minor)
    if all(_is_zero(c) for c in normal):
        return None
    return tuple(normal)


def _sgn(x):
    if isinstance(x, Fraction) or isinstance(x, int):
        return (x > 0) - (x < 0)
    return x.sign()


def _canonical_direction(normal):
    """Scale so the first nonzero entry is +1 (dedupes parallel normals)."""
    lead = next(c for c in normal if not _is_zero(c))
    return tuple(c / lead for c in normal)


# ---------------------------------------------------------------------------
# window zonotope


class Window:
    """Zonotope sum_i [0,1] g_i + base, with exact slab H-representation."""

    def __init__(self, generators, base):
        self.generators = [tuple(g) for g in generators]
        self.base = tuple(base)
        self.dim = len(self.base)
        self.slabs = self._build_slabs()

    def _build_slabs(self):
        one = _unit_of(self.base, self.generators)
        directions = []
        seen = set()
        nontrivial = [g for g in self.generators if not all(_is_zero(c) for c in g)]
        for sub in combinations(nontrivial, self.dim - 1):
            normal = cross_normal(sub, self.dim, one)
            if normal is None:
                continue  # parallel generators merged: dependent subset
            cd = _canonical_direction(normal)
            key = tuple(getattr(c, "coeffs", c) for c in cd)
            if key in seen:
                continue
            seen.add(key)
            directions.append(cd)
        slabs = []
        for nu in directions:
            lo = hi = dot(nu, self.base)
            for g in self.generators:
                t = dot(nu, g)
                sg = _sgn(t)
                if sg > 0:
                    hi = hi + t
                elif sg < 0:
                    lo = lo + t
            slabs.append((nu, lo, hi))
        return slabs

    @property
    def center(self):
        c = list(self.base)
        for g in self.generators:
            for j, x in enumerate(g):
                c[j] = c[j] + x / 2
        return tuple(c)

    def halfspaces(self):
        """List of (normal, offset) meaning normal . x <= offset."""
        out = []
        for nu, lo, hi in self.slabs:
            out.append((nu, hi))
            out.append((tuple(-c for c in nu), -lo))
        return out

    def contains(self, p) -> str:
        on_boundary = False
        for nu, lo, hi in self.slabs:
            v = dot(nu, p)
            s1 = _sgn(v - lo)
            s2 = _sgn(hi - v)
            if s1 < 0 or s2 < 0:
                return OUTSIDE
            if s1 == 0 or s2 == 0:
                on_boundary = True
        return BOUNDARY if on_boundary else INSIDE

    def volume(self):
        """Exact volume: the sum of |det| over the dim-subsets of the
        generators (Shephard, Canad. J. Math. 1974)."""
        return sum(abs(det(Matrix(sub)))
                   for sub in combinations(self.generators, self.dim))

    def bounding_box(self):
        """(lo, hi) per coordinate: the base plus the negative, resp.
        positive, coordinates of the generators."""
        lo, hi = list(self.base), list(self.base)
        for g in self.generators:
            for j, x in enumerate(g):
                if _sgn(x) < 0:
                    lo[j] = lo[j] + x
                else:
                    hi[j] = hi[j] + x
        return lo, hi


def _unit_of(base, generators):
    for v in [base] + list(generators):
        for c in v:
            if not _is_zero(c):
                return c / c
    return Fraction(1)


def window(s: Slope) -> Window:
    """The window pi'([0,1]^n) in exact E' coordinates (base at 0).  Cached
    on the slope."""
    cached = getattr(s, "_window", None)
    if cached is None:
        b = eprime_basis(s)
        gens = [b.col(j) for j in range(s.n)]
        cached = s._window = Window(gens, (s.field.zero,) * (s.n - s.d))
    return cached


# ---------------------------------------------------------------------------
# general H-polytopes


class HPolytope:
    """Finite intersection of half-spaces normal . x <= offset in R^dim."""

    def __init__(self, halfspaces, dim):
        self.dim = dim
        self.halfspaces = [(tuple(n), c) for n, c in halfspaces]
        self._vertices = None

    def contains(self, p) -> str:
        on_boundary = False
        for nu, c in self.halfspaces:
            s = _sgn(c - dot(nu, p))
            if s < 0:
                return OUTSIDE
            if s == 0:
                on_boundary = True
        return BOUNDARY if on_boundary else INSIDE

    def _dedup_halfspaces(self):
        best = {}
        order = []
        for nu, c in self.halfspaces:
            if all(_is_zero(x) for x in nu):
                continue  # trivial or infeasible handled by contains of others
            lead = next(x for x in nu if not _is_zero(x))
            scale = lead if _sgn(lead) > 0 else -lead
            key_n = tuple(getattr(x, "coeffs", x) for x in (y / scale for y in nu))
            cc = c / scale
            if key_n in best:
                if _sgn(best[key_n][1] - cc) > 0:
                    best[key_n] = (tuple(y / scale for y in nu), cc)
            else:
                best[key_n] = (tuple(y / scale for y in nu), cc)
                order.append(key_n)
        return [best[k] for k in order]

    def vertices(self):
        """Exact vertex list (dim <= 3); double description at desk scale."""
        if self._vertices is not None:
            return self._vertices
        if self.dim > 3:
            raise ValueError(f"vertex enumeration in dim {self.dim}")
        hs = self._dedup_halfspaces()
        m = self.dim
        verts = []
        seen = set()
        for sub in combinations(range(len(hs)), m):
            a = Matrix(hs[i][0] for i in sub)
            if _is_zero(det(a)):
                continue
            p = solve_right(a, tuple(hs[i][1] for i in sub))
            if p is None:
                continue
            ok = True
            for nu, c in hs:
                if _sgn(c - dot(nu, p)) < 0:
                    ok = False
                    break
            if ok:
                key = tuple(getattr(x, "coeffs", x) for x in p)
                if key not in seen:
                    seen.add(key)
                    verts.append(p)
        self._vertices = verts
        return verts


def complementary_zonotope(s: Slope, directions) -> Window:
    """Zonotope of the n-d generators NOT in `directions` (1-based), anchored
    at the window's base; the anchor test dual to full-face membership."""
    b = eprime_basis(s)
    gens = [b.col(j) for j in range(s.n) if (j + 1) not in set(directions)]
    return Window(gens, (s.field.zero,) * (s.n - s.d))
