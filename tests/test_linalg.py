import itertools
import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from slopechar.coincidence import coincidence_lattice, enumerate_types
from slopechar.linalg import (Matrix, det, hnf, inverse, kernel, kernel_int, lll,
                              rank, rref, solve_right)
from slopechar.numfield import FieldElem, NumberField


def identity(n, one=F(1), zero=F(0)):
    return Matrix(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def _primitive_int_vector(v):
    """Scale a rational vector to a primitive integer vector, first nonzero > 0."""
    den = 1
    for x in v:
        den = lcm(den, F(x).denominator)
    ints = [int(F(x) * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g:
        ints = [x // g for x in ints]
    lead = next((x for x in ints if x != 0), 0)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def kernel_rational(m: Matrix):
    """Kernel basis of a rational matrix as primitive integer vectors: the
    reference for `kernel_int`."""
    return [_primitive_int_vector(v) for v in kernel(m)]


def perm_det(rows):
    """Leibniz-formula determinant; independent oracle for small matrices."""
    n = len(rows)
    total = F(0)
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = F(1)
        for i in range(n):
            prod *= rows[i][perm[i]]
        total += sign * prod
    return total


def rand_matrix(rng, nr, nc, den=3):
    return Matrix([[F(rng.randint(-6, 6), rng.randint(1, den)) for _ in range(nc)]
                   for _ in range(nr)])


def test_det_oracle():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n)
        assert det(m) == perm_det(m.rows)


def test_det_not_square():
    with pytest.raises(ValueError, match="not square"):
        det(Matrix([[F(1), F(2)]]))


def test_rref_and_rank():
    m = Matrix([[F(1), F(2), F(3)], [F(2), F(4), F(6)], [F(0), F(1), F(1)]])
    red, pivots = rref(m)
    assert pivots == [0, 1]
    assert rank(m) == 2
    # pivot columns are unit vectors
    for i, c in enumerate(pivots):
        col = [red[r, c] for r in range(m.nrows)]
        assert col == [F(1) if r == i else F(0) for r in range(m.nrows)]


def test_solve_right_and_inverse():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = rand_matrix(rng, n, n)
        if det(m) == 0:
            continue
        x = tuple(F(rng.randint(-5, 5)) for _ in range(n))
        b = m.apply(x)
        assert solve_right(m, b) == x
        assert inverse(m) * m == identity(n)
    assert solve_right(Matrix([[F(1)], [F(1)]]), (F(0), F(1))) is None


def test_solve_right_without_unknowns():
    # consistent exactly when the right-hand side vanishes
    assert solve_right(Matrix([[], []]), (F(0), F(0))) == ()
    assert solve_right(Matrix([[], []]), (F(0), F(1))) is None


def test_field_elimination_inverts_each_pivot_once(monkeypatch):
    f = NumberField([F(-2), F(0), F(0), F(1)], (F(1), F(2)))
    rng = random.Random(5)
    m = Matrix([[f.elem([F(rng.randint(-3, 3)) for _ in range(3)])
                 for _ in range(4)] for _ in range(4)])
    calls = []
    inverse_of = FieldElem.inverse
    monkeypatch.setattr(FieldElem, "inverse",
                        lambda self: calls.append(self) or inverse_of(self))
    value = det(m)
    assert len(calls) <= 4
    assert value == perm_det(m.rows)
    calls.clear()
    red, pivots = rref(Matrix(m.rows[:3]))
    assert len(calls) == len(pivots) == 3
    for i, c in enumerate(pivots):
        assert [red[r, c] for r in range(3)] == [f.one if r == i else f.zero
                                                 for r in range(3)]


def test_kernel_annihilates():
    rng = random.Random(11)
    for _ in range(25):
        nr, nc = rng.randint(1, 3), rng.randint(1, 5)
        m = rand_matrix(rng, nr, nc)
        basis = kernel(m)
        assert len(basis) == nc - rank(m)
        for v in basis:
            assert all(x == 0 for x in m.apply(v))


def test_kernel_int_saturated():
    # kernel of [2 4] over Z is generated by (2, -1), not (4, -2)
    basis = kernel_int(Matrix([[F(2), F(4)]]))
    assert len(basis) == 1
    v = basis[0]
    assert tuple(abs(x) for x in v) == (2, 1)
    # saturation: x + 2y = 0 over Q scaled by 3 still gives primitive kernel
    basis = kernel_int(Matrix([[F(3), F(6)]]))
    assert sorted(tuple(abs(x) for x in b) for b in basis) == [(2, 1)]


def test_kernel_int_matches_rational_kernel_lattice():
    rng = random.Random(5)
    for _ in range(25):
        nr, nc = rng.randint(1, 3), rng.randint(2, 5)
        m = rand_matrix(rng, nr, nc)
        zint = kernel_int(m)
        zrat = kernel_rational(m)
        assert len(zint) == len(zrat)
        for v in zint:
            assert all(x == 0 for x in m.apply(v))
        if zint:
            # same lattice: the integer kernel saturates the rational one
            h1 = hnf(Matrix(zip(*zint)))
            assert all(any(x % 1 == 0 for x in row) for row in h1.rows)


def test_hnf_canonical():
    # two bases of the same lattice get the same HNF
    b1 = Matrix([[2, 1], [0, 3]])
    b2 = Matrix([[2, 3], [0, 3]])  # second column changed by a column op
    assert hnf(b1).rows == hnf(b2).rows


def test_hnf_membership():
    m = Matrix([[4, 6], [2, 2]])
    h = hnf(m)
    # original columns lie in the lattice spanned by the HNF columns
    hd = det(Matrix([[F(x) for x in r] for r in h.rows]))
    md = det(Matrix([[F(x) for x in r] for r in m.rows]))
    assert abs(hd) == abs(md)


def test_lll_reduced_and_same_lattice():
    rng = random.Random(19)
    for _ in range(15):
        n = rng.randint(2, 4)
        while True:
            basis = [[rng.randint(-9, 9) for _ in range(n + 1)] for _ in range(n)]
            if rank(Matrix([[F(x) for x in r] for r in basis])) == n:
                break
        red = lll(basis)
        size_ok, lovasz_ok = lll_checks(red)
        assert size_ok and lovasz_ok
        assert hnf(Matrix(zip(*red))).rows == hnf(Matrix(zip(*basis))).rows


def test_lll_dependent_input():
    with pytest.raises(ValueError, match="linearly dependent"):
        lll([[1, 2], [2, 4]])
    with pytest.raises(ValueError, match="linearly dependent"):
        lll([[1, 2, 3], [0, 0, 0], [4, 5, 6]])
    with pytest.raises(ValueError, match="linearly dependent"):
        lll([[1, 0, 2], [0, 1, 1], [1, 1, 3]])


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _gram_schmidt(basis):
    ortho, mu = [], []
    for i, v in enumerate(basis):
        w = [F(x) for x in v]
        murow = []
        for j in range(i):
            den = _dot(ortho[j], ortho[j])
            m_ij = _dot([F(x) for x in v], ortho[j]) / den if den else F(0)
            murow.append(m_ij)
            w = [a - m_ij * b for a, b in zip(w, ortho[j])]
        ortho.append(w)
        mu.append(murow)
    return ortho, mu


def lll_checks(basis, delta=F(3, 4)):
    """(size_ok, lovasz_ok) for a reduced basis."""
    ortho, mu = _gram_schmidt(basis)
    size_ok = all(abs(m) <= F(1, 2) for row in mu for m in row)
    lovasz_ok = all(
        _dot(ortho[k], ortho[k]) >= (delta - mu[k][k - 1] ** 2) * _dot(ortho[k - 1], ortho[k - 1])
        for k in range(1, len(basis)))
    return size_ok, lovasz_ok


def _rational_lll(basis, delta=F(3, 4)):
    """Textbook LLL over Q, recomputing Gram-Schmidt after every swap; the
    reference that lll must match step for step."""
    b = [list(v) for v in basis]
    ortho, _ = _gram_schmidt(b)

    def mu(i, j):
        return (sum(F(x) * y for x, y in zip(b[i], ortho[j]))
                / sum(y * y for y in ortho[j]))

    k = 1
    while k < len(b):
        for j in range(k - 1, -1, -1):
            q = (mu(k, j) + F(1, 2)).__floor__()
            if q:
                b[k] = [x - q * y for x, y in zip(b[k], b[j])]
        norm = [sum(y * y for y in ortho[i]) for i in (k - 1, k)]
        if norm[1] >= (delta - mu(k, k - 1) ** 2) * norm[0]:
            k += 1
        else:
            b[k], b[k - 1] = b[k - 1], b[k]
            ortho, _ = _gram_schmidt(b)
            k = max(k - 1, 1)
    return [tuple(v) for v in b]


@st.composite
def int_bases(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    m = n + draw(st.integers(min_value=0, max_value=2))
    row = st.lists(st.integers(min_value=-30, max_value=30), min_size=m, max_size=m)
    return draw(st.lists(row, min_size=n, max_size=n))


@settings(max_examples=60, deadline=None)
@given(int_bases())
def test_lll_random_independent_bases(basis):
    assume(rank(Matrix([[F(x) for x in r] for r in basis])) == len(basis))
    red = lll(basis)
    assert red == lll(basis)
    assert all(isinstance(x, int) for v in red for x in v)
    assert lll_checks(red) == (True, True)
    assert hnf(Matrix(zip(*red))).rows == hnf(Matrix(zip(*basis))).rows
    if len(basis) <= 6:
        assert red == _rational_lll(basis)


def test_lll_delta_matches_rational_reference():
    rng = random.Random(23)
    for delta in (F(1, 2), F(3, 4), F(99, 100)):
        for _ in range(10):
            n = rng.randint(2, 6)
            while True:
                basis = [[rng.randint(-50, 50) for _ in range(n + 1)] for _ in range(n)]
                if rank(Matrix([[F(x) for x in r] for r in basis])) == n:
                    break
            red = lll(basis, delta=delta)
            assert red == _rational_lll(basis, delta=delta)
            assert lll_checks(red, delta=delta) == (True, True)


# coincidence_lattice of every type of the typical and ammann_beenker
# fixtures, recorded with the rational Gram-Schmidt LLL of _rational_lll
GOLDEN_LATTICES = {
    "typical": {
        ((1,), (2,), (3,)): [
            (0, 1, 0, 0, 1, 0, 0, 0, 0),
            (0, 0, 0, 1, 0, 0, 1, 0, 0),
            (1, 0, 0, 0, 0, 0, 0, 1, 0),
            (0, 0, 1, 0, 0, 1, 0, 0, 1),
            (-4, 1, -7, -4, -1, 0, 3, 4, 6),
            (13, 83, 31, -37, -83, -24, 37, -13, -7),
        ],
        ((1,), (2,), (4,)): [
            (0, 0, 1, 0, 0, 1, 0, 0, 0),
            (0, 0, 0, 1, 0, 0, 1, 0, 0),
            (1, 0, 0, 0, 0, 0, 0, 1, 0),
            (0, 1, 0, 0, 1, 0, 0, 0, 1),
            (5, 9, -25, 1, -5, 24, -1, -5, -3),
            (-1, -29, -19, 51, 51, 19, -52, 0, -21),
        ],
        ((1,), (3,), (4,)): [
            (0, 0, 1, 0, 0, 1, 0, 0, 0),
            (0, 0, 0, 1, 0, 0, 1, 0, 0),
            (0, 1, 0, 0, 0, 0, 0, 0, 1),
            (1, 0, 0, 0, 1, 0, 0, 1, 0),
            (1, -2, 3, 4, -3, -4, -5, 3, 2),
            (3, 1, 7, -12, -6, -7, 12, 3, -1),
        ],
        ((2,), (3,), (4,)): [
            (0, 0, 1, 0, 0, 1, 0, 0, 0),
            (0, 0, 0, 0, 1, 0, 0, 1, 0),
            (0, 1, 0, 0, 0, 0, 0, 0, 1),
            (1, 0, 0, 1, 0, 0, 1, 0, 0),
            (-5, -3, -3, 3, 3, 2, 3, -3, 3),
            (11, 14, -9, 20, 18, 8, -31, -18, -14),
        ],
    },
    "ammann_beenker": {
        ((1,), (2,), (3,)): [
            (1, 0, -1, 0, 0, 0, 0, 0, 0),
            (0, 1, 0, -1, 0, 0, 0, 0, 0),
            (0, 0, 0, 1, 1, 0, 0, 0, 0),
            (0, -1, 0, 0, 0, 0, -1, 0, 0),
            (-1, 0, 0, 0, 0, 0, 0, -1, 0),
            (-1, 0, 0, 0, 0, 0, 0, 0, 1),
            (-1, 0, 0, 0, 0, -1, 0, 0, -1),
        ],
        ((1,), (2,), (4,)): [
            (1, 0, -1, 0, 0, 0, 0, 0, 0),
            (0, 0, 0, 1, 1, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 1, 0, 0, 0),
            (0, 0, 0, -1, 0, 0, -1, 0, 0),
            (-1, 0, 0, 0, 0, 0, 0, -1, 0),
            (0, 0, 0, -1, 0, 0, 0, 0, -1),
            (0, 1, 0, -1, 0, 0, 0, 0, 1),
        ],
        ((1,), (3,), (4,)): [
            (1, 0, -1, 0, 0, 0, 0, 0, 0),
            (0, 1, 0, -1, 0, 0, 0, 0, 0),
            (0, 0, 1, 0, -1, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 1, 0, 0, 0),
            (0, 0, 0, 1, 0, 0, 1, 0, 0),
            (0, -1, 0, 0, 0, 0, 0, 0, -1),
            (0, 0, 1, 0, 0, -1, 0, 1, 0),
        ],
        ((2,), (3,), (4,)): [
            (1, 1, 0, 0, 0, 0, 0, 0, 0),
            (0, 0, 1, 0, -1, 0, 0, 0, 0),
            (0, 0, 0, 0, 1, 1, 0, 0, 0),
            (-1, 0, 0, 0, 0, 0, 1, 0, 0),
            (0, 0, -1, 0, 0, 0, 0, -1, 0),
            (0, -1, 0, 0, 0, 0, 0, 0, -1),
            (0, -1, 0, 1, 0, 0, 0, 0, 1),
        ],
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_LATTICES))
def test_coincidence_lattices_golden(name, request):
    s = request.getfixturevalue({"typical": "typical", "ammann_beenker": "ab"}[name])
    got = {t.subsets: coincidence_lattice(s, t) for t in enumerate_types(s.n, s.d)}
    assert got == GOLDEN_LATTICES[name]


small = st.integers(min_value=-4, max_value=4)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=3, max_size=3))
def test_det_multiplicative(rows):
    a = Matrix([[F(x) for x in r] for r in rows])
    b = Matrix([[F(1), F(2), F(0)], [F(0), F(1), F(1)], [F(1), F(0), F(1)]])
    assert det(a * b) == det(a) * det(b)
