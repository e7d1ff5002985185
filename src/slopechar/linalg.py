"""Exact linear algebra over Q and Q(alpha).

Matrices are small and dense (list of row tuples); entries are ints,
Fractions or FieldElems, never floats: a pivot's inverse is exact for each.
Determinants, kernels and solving use exact elimination with the first
nonzero pivot scanning top to bottom.  Lattice work takes int matrices and
stays over Z: HNF, integer kernels, and LLL (delta = 3/4) in its integral
form, which tracks Gram-Schmidt data as integers and never builds a rational
Gram-Schmidt basis.
"""

from __future__ import annotations

from fractions import Fraction

from .numfield import FieldElem


class Matrix:
    """Immutable rectangular matrix; entries all from one field (or all Q)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        self.rows = rows

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def row(self, i):
        return self.rows[i]

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def transpose(self):
        return Matrix(zip(*self.rows)) if self.rows else Matrix(())

    def __mul__(self, other):
        if isinstance(other, Matrix):
            cols = other.transpose().rows
            return Matrix(tuple(dot(r, c) for c in cols) for r in self.rows)
        return Matrix(tuple(e * other for e in r) for r in self.rows)

    def __add__(self, other):
        return Matrix(tuple(a + b for a, b in zip(r, s))
                      for r, s in zip(self.rows, other.rows))

    def __sub__(self, other):
        return Matrix(tuple(a - b for a, b in zip(r, s))
                      for r, s in zip(self.rows, other.rows))

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "Matrix([" + ",\n        ".join(str(list(r)) for r in self.rows) + "])"

    def apply(self, v):
        return tuple(dot(r, v) for r in self.rows)


def dot(u, v):
    """sum u_i v_i of two nonempty vectors, with the entries' own arithmetic."""
    it = iter(zip(u, v))
    a, b = next(it)
    acc = a * b
    for a, b in it:
        acc = acc + a * b
    return acc


def _is_zero(x):
    if isinstance(x, FieldElem):
        return x.is_zero()
    return x == 0


def _inverse(p):
    """1 / p, exact for int, Fraction and FieldElem pivots alike."""
    return Fraction(1, p) if isinstance(p, int) else 1 / p


# ---------------------------------------------------------------------------


def det(m: Matrix):
    """Exact determinant by elimination; entries form a field."""
    if m.nrows != m.ncols:
        raise ValueError(f"matrix is {m.nrows}x{m.ncols}, not square")
    n = m.nrows
    if n == 0:
        return Fraction(1)
    rows = [list(r) for r in m.rows]
    sign_flips = 0
    result = None
    for c in range(n):
        piv = next((r for r in range(c, n) if not _is_zero(rows[r][c])), None)
        if piv is None:
            return rows[0][0] - rows[0][0]
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            sign_flips ^= 1
        p = rows[c][c]
        result = p if result is None else result * p
        pinv = _inverse(p)
        for r in range(c + 1, n):
            f = rows[r][c] * pinv
            if _is_zero(f):
                continue
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return -result if sign_flips else result


def rref(m: Matrix):
    """Reduced row echelon form; returns (Matrix, pivot column list)."""
    rows = [list(r) for r in m.rows]
    nr, nc = len(rows), m.ncols
    pivots = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if not _is_zero(rows[i][c])), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pinv = _inverse(rows[r][c])
        rows[r] = [a * pinv for a in rows[r]]
        for i in range(nr):
            if i != r and not _is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return Matrix(rows), pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def solve_right(a: Matrix, b):
    """One solution x of A x = b, or None if inconsistent."""
    aug = Matrix(tuple(r) + (bi,) for r, bi in zip(a.rows, b))
    red, pivots = rref(aug)
    if a.ncols in pivots:
        return None
    x = [None] * a.ncols
    zero = None
    for i, c in enumerate(pivots):
        x[c] = red[i, a.ncols]
        zero = x[c] - x[c]
    if zero is None:
        zero = Fraction(0) if not a.ncols else a.rows[0][0] - a.rows[0][0]
    return tuple(zero if v is None else v for v in x)


def inverse(m: Matrix) -> Matrix:
    if m.nrows != m.ncols:
        raise ValueError(f"matrix is {m.nrows}x{m.ncols}, not square")
    n = m.nrows
    # the unit of the entries' field, from the first nonzero entry
    nz = next(e for r in m.rows for e in r if not _is_zero(e))
    one = nz / nz
    zero = one - one
    aug = Matrix(tuple(m.rows[i]) + tuple(one if i == j else zero for j in range(n))
                 for i in range(n))
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("singular matrix")
    return Matrix(tuple(red.rows[i][n:]) for i in range(n))


def kernel(m: Matrix):
    """Right kernel basis over the entry field (list of tuples)."""
    red, pivots = rref(m)
    nc = m.ncols
    free = [c for c in range(nc) if c not in pivots]
    if not m.rows:
        one, zero = Fraction(1), Fraction(0)
    else:
        e = m.rows[0][0]
        zero = e - e
        one = zero + 1 if isinstance(e, Fraction) else e.field.one
    basis = []
    for fc in free:
        v = [zero] * nc
        v[fc] = one
        for i, pc in enumerate(pivots):
            v[pc] = -red[i, fc]
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# integer lattices


def hnf(m: Matrix) -> Matrix:
    """Column-style Hermite normal form (canonical basis of the column lattice).

    Zero columns are dropped; pivots are positive and entries to their right
    within the pivot row are reduced into [0, pivot).
    """
    cols = [list(c) for c in zip(*m.rows)] if m.rows else []
    nr = m.nrows
    out = []
    r = 0
    while r < nr and cols:
        nz = [j for j, c in enumerate(cols) if c[r] != 0]
        if not nz:
            r += 1
            continue
        # gcd all entries in row r into one column by integer column ops
        j0 = nz[0]
        for j in nz[1:]:
            a, b = cols[j0][r], cols[j][r]
            while b:
                q = a // b
                colj0 = [x - q * y for x, y in zip(cols[j0], cols[j])]
                cols[j0], cols[j] = cols[j], colj0
                a, b = cols[j0][r], cols[j][r]
        if cols[j0][r] < 0:
            cols[j0] = [-x for x in cols[j0]]
        pivot_col = cols.pop(j0)
        p = pivot_col[r]
        for done in out:
            q = done[r] // p
            if q:
                for i in range(nr):
                    done[i] -= q * pivot_col[i]
        out.append(pivot_col)
        r += 1
    return Matrix(zip(*out)) if out else Matrix(tuple(() for _ in range(nr)))


def rref_int(rows, ncols):
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 1968) of
    integer rows, in place, over their first `ncols` columns; the columns
    past them ride along.  Pivots are the first nonzero entries scanning top
    to bottom, as in `rref`.  Returns (pivot columns, D): row i < rank has D
    in column pivots[i] and 0 in every other pivot column, and the rows past
    the rank are 0 in the first `ncols` columns.  Every entry stays a minor of
    the input, so each division is exact."""
    nr = len(rows)
    pivots = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, nr) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        prow = rows[r]
        a = prow[c]
        for i in range(nr):
            if i != r:
                f = rows[i][c]
                rows[i] = [(a * x - f * y) // prev for x, y in zip(rows[i], prow)]
        prev = a
        pivots.append(c)
    return pivots, prev


def kernel_int(m: Matrix):
    """Z-basis of {x in Z^ncols : M x = 0} for an integer matrix (saturated).
    Rational rows take the quotients of any positive multiple of them."""
    nr, nc = m.nrows, m.ncols
    cols = [[m.rows[i][j] for i in range(nr)] for j in range(nc)]
    trans = [[1 if i == j else 0 for i in range(nc)] for j in range(nc)]
    active = list(range(nc))
    for r in range(nr):
        nz = [j for j in active if cols[j][r] != 0]
        if not nz:
            continue
        j0 = nz[0]
        for j in nz[1:]:
            a, b = cols[j0][r], cols[j][r]
            while b:
                q = a // b
                cols[j0] = [x - q * y for x, y in zip(cols[j0], cols[j])]
                trans[j0] = [x - q * y for x, y in zip(trans[j0], trans[j])]
                cols[j0], cols[j] = cols[j], cols[j0]
                trans[j0], trans[j] = trans[j], trans[j0]
                a, b = cols[j0][r], cols[j][r]
        active.remove(j0)
    return [tuple(trans[j]) for j in active]


def lll(basis, delta=Fraction(3, 4)):
    """LLL reduction over Z; input vectors must be linearly independent.

    Integral LLL (Cohen, Alg. 2.6.7): with b*_i the Gram-Schmidt vectors,
    d[i] = |b*_0|^2 ... |b*_{i-1}|^2 (d[0] = 1) and lam[i][j] = d[j+1] mu_ij
    are integers, kept up to date through every size reduction and swap.
    Each vector is fully size-reduced (mu rounded to floor(mu + 1/2)) before
    the exact Lovasz test, so the result is the textbook rational LLL's.
    """
    b = [[int(x) for x in v] for v in basis]
    n = len(b)
    if n == 0:
        return []
    p, q = Fraction(delta).as_integer_ratio()
    d = [1] * (n + 1)
    lam = [[0] * i for i in range(n)]
    for i in range(n):
        for j in range(i + 1):
            u = sum(x * y for x, y in zip(b[i], b[j]))
            for m in range(j):
                u = (d[m + 1] * u - lam[i][m] * lam[j][m]) // d[m]
            if j < i:
                lam[i][j] = u
            elif u == 0:
                raise ValueError("input vectors are linearly dependent")
            else:
                d[i + 1] = u

    k = 1
    while k < n:
        lk = lam[k]
        for j in range(k - 1, -1, -1):
            dj = d[j + 1]
            r = (2 * lk[j] + dj) // (2 * dj)
            if r:
                b[k] = [x - r * y for x, y in zip(b[k], b[j])]
                lk[j] -= r * dj
                lj = lam[j]
                for m in range(j):
                    lk[m] -= r * lj[m]
        mu = lk[k - 1]
        if q * d[k + 1] * d[k - 1] >= p * d[k] * d[k] - q * mu * mu:
            k += 1
            continue
        b[k], b[k - 1] = b[k - 1], b[k]
        # the swap leaves lam[k][k-1] as it is
        lam[k][:k - 1], lam[k - 1] = lam[k - 1], lam[k][:k - 1]
        big = (d[k - 1] * d[k + 1] + mu * mu) // d[k]
        for i in range(k + 1, n):
            li = lam[i]
            t = li[k]
            li[k] = (d[k + 1] * li[k - 1] - mu * t) // d[k]
            li[k - 1] = (big * t + mu * li[k]) // d[k + 1]
        d[k] = big
        k = max(k - 1, 1)
    return [tuple(v) for v in b]
