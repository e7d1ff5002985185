"""Slopes of planar tilings and their Grassmann coordinates.

A slope is a d-plane of R^n spanned by columns over Q(alpha).  Its Grassmann
coordinates are the d x d minors of the generator matrix, listed on ascending
index tuples and extended antisymmetrically elsewhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from .errors import InputError
from .numfield import FieldElem, NumberField
from .linalg import Matrix, det, hnf, kernel_int, rank


class Slope:
    """d-plane of R^n given by an n x d full-rank generator matrix over Q(alpha)."""

    def __init__(self, field: NumberField, n: int, d: int, generators):
        if not n > d >= 1:
            raise InputError(f"need n > d >= 1, got n={n}, d={d}")
        self.field = field
        self.n = n
        self.d = d
        cols = []
        for col in generators:
            if len(col) != n:
                raise InputError("generator length != n")
            cols.append(tuple(_to_elem(field, e) for e in col))
        if len(cols) != d:
            raise InputError("need exactly d generators")
        self.generators = Matrix(zip(*cols))  # n x d
        if rank(self.generators) != d:
            raise InputError("generators are not linearly independent")

    @property
    def u_columns(self):
        return [self.generators.col(j) for j in range(self.d)]

    def __repr__(self):
        return f"Slope(n={self.n}, d={self.d})"


def _to_elem(field, e):
    if isinstance(e, FieldElem):
        return e
    if isinstance(e, (int, Fraction, str)):
        return field.from_rational(Fraction(e))
    return field.elem(e)  # coefficient list


class GrassmannCoords:
    """Map from ascending d-tuples of 1-based indices to field elements."""

    def __init__(self, n: int, d: int, values: dict):
        self.n = n
        self.d = d
        self.values = dict(values)
        if all(v.is_zero() for v in self.values.values()):
            raise InputError("all Grassmann coordinates are zero")
        self._field = next(iter(values.values())).field

    @property
    def field(self):
        return self._field

    def tuples(self):
        return sorted(self.values)

    def __getitem__(self, idx):
        """Value on an arbitrary index tuple (antisymmetric extension)."""
        idx = tuple(idx)
        if len(set(idx)) < len(idx):
            return self._field.zero
        order = sorted(idx)
        sign = _perm_sign(idx, order)
        v = self.values[tuple(order)]
        return v if sign > 0 else -v


def _perm_sign(seq, sorted_seq):
    seq = list(seq)
    sign = 1
    for i in range(len(seq)):
        if seq[i] != sorted_seq[i]:
            j = seq.index(sorted_seq[i], i + 1)
            seq[i], seq[j] = seq[j], seq[i]
            sign = -sign
    return sign


def grassmann(s: Slope) -> GrassmannCoords:
    """All (n choose d) minors of the generator matrix, ascending tuples.
    Cached on the slope."""
    cached = getattr(s, "_grassmann", None)
    if cached is None:
        vals = {}
        for rows in combinations(range(s.n), s.d):
            sub = Matrix(tuple(s.generators.rows[i]) for i in rows)
            vals[tuple(i + 1 for i in rows)] = det(sub)
        cached = s._grassmann = GrassmannCoords(s.n, s.d, vals)
    return cached


def plucker_relation_index_pairs(n: int, d: int):
    """Index data (a, b) generating the Plucker relations for G(n, d)."""
    if d == 1:
        return []
    pairs = []
    for a in combinations(range(1, n + 1), d - 1):
        for b in combinations(range(1, n + 1), d + 1):
            pairs.append((a, b))
    return pairs


def plucker_residual(g: GrassmannCoords, a, b) -> FieldElem:
    """sum_l (-1)^l G_{a,b_l} G_{b \\ b_l}; zero on actual d-planes."""
    acc = g.field.zero
    for l, bl in enumerate(b):
        left = g[a + (bl,)]
        right = g[tuple(x for x in b if x != bl)]
        term = left * right
        acc = acc + (term if l % 2 == 0 else -term)
    return acc


def plucker_residuals(g: GrassmannCoords):
    """One residual per Plucker relation instance."""
    return [plucker_residual(g, a, b) for a, b in plucker_relation_index_pairs(g.n, g.d)]


def is_generic(s: Slope):
    """(True, None) iff no strict rational subspace contains the slope.

    A rational normal vector of the slope is an integer x orthogonal to every
    generator, that is to every coefficient row (over the power basis of
    Q(alpha)) of every generator.  Those x form the saturated lattice
    kernel_int of the coefficient rows; it is empty iff the slope is generic.
    Otherwise returns (False, witness): the first column of the HNF of that
    lattice, a primitive integer normal vector to the smallest rational
    subspace containing the slope, which depends on the lattice alone.
    """
    k = s.field.degree
    rows = []
    for col in s.u_columns:
        # row j holds the alpha^j numerators over the column's common
        # denominator: a positive multiple of the rational row, same kernel
        den = math.lcm(*(e.den for e in col))
        for j in range(k):
            rows.append(tuple(e.num[j] * (den // e.den) for e in col))
    normals = kernel_int(Matrix(rows))
    if not normals:
        return True, None
    return False, hnf(Matrix(zip(*normals))).col(0)
