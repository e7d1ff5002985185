"""The benchmark's own arithmetic, kept apart from slopechar.

Exact work is done in Q(alpha) with sympy: an element is a sympy `Poly` in x
reduced modulo the minimal polynomial.  Numeric work uses mpmath at 40
digits, with alpha refined by sympy inside its isolating interval.  The input
generator and the checkers use this module; slopechar is never imported here.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, permutations

import mpmath
import sympy
from sympy import QQ

X = sympy.Symbol("x")
mpmath.mp.dps = 40


def perm_sign(seq) -> int:
    """Sign of the permutation that sorts `seq` (entries distinct)."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


class Field:
    """Q(alpha) for the root of `minpoly` (ascending) inside `interval`."""

    def __init__(self, minpoly, interval):
        self.minpoly = tuple(Fraction(c) for c in minpoly)
        self.interval = (Fraction(interval[0]), Fraction(interval[1]))
        self.degree = len(self.minpoly) - 1
        self.mod = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                               for c in reversed(self.minpoly)], X, domain=QQ)
        self.zero = self.elem([0])
        self.one = self.elem([1])
        self._alpha = None

    # -- exact ---------------------------------------------------------------

    def elem(self, coeffs):
        cs = [sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
              for c in coeffs] or [0]
        return sympy.Poly(list(reversed(cs)), X, domain=QQ).rem(self.mod)

    def coeffs(self, a) -> list[Fraction]:
        """Ascending coefficient list of length `degree`."""
        out = [Fraction(int(c.p), int(c.q)) for c in reversed(a.all_coeffs())]
        return (out + [Fraction(0)] * self.degree)[:self.degree]

    def mul(self, a, b):
        return (a * b).rem(self.mod)

    def inv(self, a):
        if a.is_zero:
            raise ZeroDivisionError("inverse of zero in Q(alpha)")
        return a.invert(self.mod)

    def det(self, rows):
        """Determinant by permutation expansion (matrices here are d x d, d <= 4)."""
        n = len(rows)
        acc = self.zero
        for perm in permutations(range(n)):
            term = self.one
            for i, j in enumerate(perm):
                term = self.mul(term, rows[i][j])
            acc = acc + term if perm_sign(perm) > 0 else acc - term
        return acc

    def evaluate(self, terms, values):
        """sum c * prod values[i]**e over terms [(exponents, Fraction c)]."""
        acc = self.zero
        powers = {}
        for mono, c in terms:
            term = self.elem([c])
            for i, e in enumerate(mono):
                if e:
                    key = (i, e)
                    if key not in powers:
                        p = self.one
                        for _ in range(e):
                            p = self.mul(p, values[i])
                        powers[key] = p
                    term = self.mul(term, powers[key])
            acc = acc + term
        return acc.rem(self.mod)

    # -- numeric -------------------------------------------------------------

    @property
    def alpha(self) -> mpmath.mpf:
        if self._alpha is None:
            if self.degree == 1:
                self._alpha = mpmath.mpf(-self.minpoly[0].numerator) / self.minpoly[0].denominator
            else:
                lo, hi = self.interval
                a, b = self.mod.refine_root(sympy.Rational(lo.numerator, lo.denominator),
                                            sympy.Rational(hi.numerator, hi.denominator),
                                            eps=sympy.Rational(1, 10 ** 45))
                self._alpha = (mpf_of(a) + mpf_of(b)) / 2
        return self._alpha

    def num(self, coeffs) -> mpmath.mpf:
        """Numeric value of an ascending coefficient list (Fractions or strings)."""
        acc = mpmath.mpf(0)
        for c in reversed(list(coeffs)):
            acc = acc * self.alpha + mpf_of(c)
        return acc

    def num_elem(self, a) -> mpmath.mpf:
        return self.num(self.coeffs(a))


def mpf_of(v) -> mpmath.mpf:
    f = Fraction(str(v)) if not isinstance(v, Fraction) else v
    return mpmath.mpf(f.numerator) / f.denominator


def grassmann(field: Field, gens, n: int, d: int):
    """Exact Grassmann coordinates {ascending 1-based d-tuple: element}.

    `gens` lists d columns, each n ascending coefficient lists.
    """
    cols = [[field.elem(e) for e in col] for col in gens]
    out = {}
    for rows in combinations(range(n), d):
        out[tuple(i + 1 for i in rows)] = field.det(
            [[cols[j][i] for j in range(d)] for i in rows])
    return out


def rational_rank(gens, n: int, degree: int) -> int:
    """Rank over Q of the (d * degree) x n matrix of generator coefficients.

    It is n exactly when no rational linear form vanishes on the slope, that
    is when the slope lies in no strict rational subspace.
    """
    rows = [[sympy.Rational(str(Fraction(col[i][t]))) for i in range(n)]
            for col in gens for t in range(degree)]
    return sympy.Matrix(rows).rank()


def plucker_relations(n: int, d: int):
    """Quadratic Pluecker relations as term lists over ascending d-tuples.

    For a (d-1)-subset a and a (d+1)-subset b: sum_l (-1)^l G[a + b_l] G[b - b_l].
    Each relation is a list of (tuple1, tuple2, sign) products.
    """
    rels = []
    for a in combinations(range(1, n + 1), d - 1):
        for b in combinations(range(1, n + 1), d + 1):
            rel = []
            for l, bl in enumerate(b):
                left = a + (bl,)
                if len(set(left)) < d:
                    continue
                right = tuple(x for x in b if x != bl)
                sign = (-1) ** l * perm_sign(left)
                rel.append((tuple(sorted(left)), right, sign))
            if rel:
                rels.append(rel)
    return rels


def numeric_matrix(field: Field, gens, n: int, d: int):
    """n x d mpmath matrix of the generators."""
    m = mpmath.matrix(n, d)
    for j, col in enumerate(gens):
        for i, e in enumerate(col):
            m[i, j] = field.num(e)
    return m


def eprime_basis(u: mpmath.matrix) -> mpmath.matrix:
    """(n-d) x n matrix B with B x the coordinates of pi'(x) in the basis
    slopechar uses: the rows R of the reduced row echelon form of pi',
    orthogonalised as B = (R R^T)^-1 R.  The echelon form is unique, so B is
    a function of the slope alone."""
    n, d = u.rows, u.cols
    pi = u * mpmath.inverse(u.T * u) * u.T
    pip = mpmath.eye(n) - pi
    rows = [[pip[i, j] for j in range(n)] for i in range(n)]
    tol = mpmath.mpf(10) ** -30
    pivots = []
    r = 0
    for c in range(n):
        if r == n:
            break
        piv = max(range(r, n), key=lambda i: abs(rows[i][c]))
        if abs(rows[piv][c]) < tol:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        p = rows[r][c]
        rows[r] = [x / p for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if len(pivots) != n - d:
        raise ValueError("projector rank differs from n - d")
    rr = mpmath.matrix(rows[:n - d])
    return mpmath.inverse(rr * rr.T) * rr


def e_basis(u: mpmath.matrix):
    """Orthonormal basis of E (rows, as float lists), by Gram-Schmidt."""
    out = []
    for j in range(u.cols):
        w = [u[i, j] for i in range(u.rows)]
        for b in out:
            c = mpmath.fsum(x * y for x, y in zip(w, b))
            w = [x - c * y for x, y in zip(w, b)]
        norm = mpmath.sqrt(mpmath.fsum(x * x for x in w))
        out.append([x / norm for x in w])
    return out


def zonotope_slabs(gens):
    """Facet normals of the zonotope sum_j [0,1] g_j, each with its extent.

    `gens` are m-vectors (m = 1, 2 or 3) of mpf.  Returns [(normal, lo, hi)]
    with lo <= normal . p <= hi on the zonotope; normals are unit vectors.
    """
    m = len(gens[0])
    normals = []
    if m == 1:
        normals = [[mpmath.mpf(1)]]
    elif m == 2:
        normals = [[-g[1], g[0]] for g in gens]
    elif m == 3:
        for g, h in combinations(gens, 2):
            normals.append([g[1] * h[2] - g[2] * h[1],
                            g[2] * h[0] - g[0] * h[2],
                            g[0] * h[1] - g[1] * h[0]])
    else:
        raise ValueError(f"window dimension {m} not supported")
    slabs = []
    tol = mpmath.mpf(10) ** -25
    for nu in normals:
        norm = mpmath.sqrt(mpmath.fsum(x * x for x in nu))
        if norm < tol:
            continue
        nu = [x / norm for x in nu]
        if any(all(abs(a - b) < tol for a, b in zip(nu, s[0])) or
               all(abs(a + b) < tol for a, b in zip(nu, s[0])) for s in slabs):
            continue
        lo = hi = mpmath.mpf(0)
        for g in gens:
            t = mpmath.fsum(a * b for a, b in zip(nu, g))
            if t > 0:
                hi += t
            else:
                lo += t
        slabs.append((nu, lo, hi))
    return slabs
