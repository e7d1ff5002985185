import random
from fractions import Fraction as F
from math import gcd

from slopechar.linalg import Matrix, hnf, inverse, rank
from slopechar.numfield import NumberField
from slopechar.slope import Slope, grassmann, is_generic, plucker_residuals
from test_linalg import identity, kernel_rational


def projectors(s: Slope):
    """(pi, pi_prime): exact orthogonal projectors onto E and its complement."""
    u = s.generators
    gram = u.transpose() * u
    gram_inv = inverse(gram)
    pi = u * gram_inv * u.transpose()
    return pi, identity(s.n, s.field.one, s.field.zero) - pi


def coefficient_rows(s: Slope):
    """The rational rows whose common kernel is the slope's rational normals."""
    return [tuple(e.coeffs[j] for e in col)
            for col in s.u_columns for j in range(s.field.degree)]


def generic_reference(s: Slope):
    """Genericity from the rational kernel: the witness is the first HNF
    column of the kernel's primitive rational basis."""
    m = Matrix(coefficient_rows(s))
    if rank(m) == s.n:
        return True, None
    return False, hnf(Matrix(zip(*kernel_rational(m)))).col(0)


def rational_slope(rng, n, d):
    """Random full-rank d-plane of R^n with rational generators."""
    q = NumberField([0, 1], (-1, 1))
    while True:
        cols = [[F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(d)]
        try:
            return Slope(q, n, d, cols)
        except Exception:
            continue


def test_grassmann_typical_cubic(typical):
    g = grassmann(typical)
    a = typical.field.alpha
    expected = {
        (1, 2): -6 * a ** 2 + 3,
        (1, 3): -4 * a ** 2 - 6 * a + 4,
        (1, 4): -4 * a ** 2 + 7 * a - 2,
        (2, 3): 2 * a ** 2 - 2 * a + 2,
        (2, 4): 4 * a ** 2 + 6 * a - 3,
        (3, 4): 10 * a - 2,
    }
    for t, val in expected.items():
        assert g[t] == val


def test_grassmann_index_sign_convention(ab):
    g = grassmann(ab)
    assert g[(2, 1)] == -g[(1, 2)]
    assert g[(1, 1)].is_zero()


def test_plucker_residuals_random_matrices():
    rng = random.Random(2024)
    count = 0
    while count < 100:
        n = rng.randint(2, 6)
        d = rng.randint(1, min(3, n - 1))
        s = rational_slope(rng, n, d)
        for r in plucker_residuals(grassmann(s)):
            assert r.is_zero()
        count += 1


def test_plucker_residuals_fixtures(typical, ab, penrose):
    for s in (typical, ab, penrose):
        assert all(r.is_zero() for r in plucker_residuals(grassmann(s)))


def test_is_generic(typical, ab, penrose):
    assert is_generic(typical) == (True, None)
    assert is_generic(ab)[0] is True
    ok, witness = is_generic(penrose)
    assert not ok
    assert tuple(witness) == (1, 1, 1, 1, 1)


def test_is_generic_matches_rational_kernel_up_to_codimension_one(typical, ab,
                                                                  penrose):
    # slopes in no rational hyperplane or in exactly one, where the rational
    # kernel's basis is a single primitive vector and so a lattice basis
    q2 = NumberField([-2, 0, 1], (1, 2))
    rng = random.Random(13)
    cases = [typical, ab, penrose]
    while len(cases) < 80:
        d = rng.randint(1, 2)
        n = rng.randint(d + 1, 2 * d + 1)  # the 2d coefficient rows can span w^perp
        w = [rng.randint(-3, 3) for _ in range(n - 1)] + [1]
        hyper = rng.random() < 0.7

        def coeff():
            v = [rng.randint(-4, 4) for _ in range(n)]
            if hyper:  # orthogonal to the integer vector w
                v[-1] = -sum(a * b for a, b in zip(w, v[:-1]))
            return v

        cols = [[[a, b] for a, b in zip(coeff(), coeff())] for _ in range(d)]
        try:
            cases.append(Slope(q2, n, d, cols))
        except Exception:
            continue
    compared = codim1 = 0
    for s in cases:
        ref = generic_reference(s)
        if ref[0] or len(kernel_rational(Matrix(coefficient_rows(s)))) == 1:
            assert is_generic(s) == ref
            compared += 1
            codim1 += not ref[0]
    assert compared == len(cases) and codim1 >= 50


def test_is_generic_witness_in_codimension_two():
    # the coefficient rows (1, -3, -1, -3) and (-3, -3, 2, 1) leave a rank-2
    # normal lattice; the witness is the first column of its HNF
    q2 = NumberField([-2, 0, 1], (1, 2))
    s = Slope(q2, 4, 1, [[[1, -3], [-3, -3], [-1, 2], [-3, 1]]])
    ok, witness = is_generic(s)
    assert not ok
    assert tuple(witness) == (1, 1, 4, -2)
    g = 0
    for x in witness:
        g = gcd(g, x)
    assert g == 1
    for row in coefficient_rows(s):
        assert sum(a * b for a, b in zip(row, witness)) == 0
    # the rational kernel's basis spans a sublattice of index 3 here
    assert generic_reference(s) == (False, (3, 3, 12, -6))


def test_projectors(typical):
    pi, pip = projectors(typical)
    assert pi * pi == pi
    assert pip * pip == pip
    zero = typical.field.zero
    assert all(e == zero for r in (pi * pip).rows for e in r)
    # E is invariant under pi
    u = typical.generators
    assert pi * u == u
