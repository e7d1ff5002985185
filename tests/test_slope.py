import random
from fractions import Fraction as F


from slopechar.numfield import NumberField
from slopechar.slope import (Slope, grassmann, is_generic, plucker_residuals,
                             projectors)


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


def test_projectors(typical):
    pi, pip = projectors(typical)
    assert pi * pi == pi
    assert pip * pip == pip
    zero = typical.field.zero
    assert all(e == zero for r in (pi * pip).rows for e in r)
    # E is invariant under pi
    u = typical.generators
    assert pi * u == u
