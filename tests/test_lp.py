import random
from fractions import Fraction
from itertools import combinations

import pytest

from balgame import lp


def solve_exact(rows, rhs):
    """The unique solution of rows * lam = rhs, or None when the system
    is inconsistent or has more than one solution.  Gauss-Jordan over
    Fractions."""
    k = len(rows[0])
    aug = [[Fraction(a) for a in row] + [Fraction(b)]
           for row, b in zip(rows, rhs)]
    r = 0
    for c in range(k):
        piv = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if piv is None:
            return None  # rank below k: not a unique solution
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [a / aug[r][c] for a in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                fac = aug[i][c]
                aug[i] = [a - fac * b for a, b in zip(aug[i], aug[r])]
        r += 1
    if any(row[-1] != 0 for row in aug[k:]):
        return None
    return [row[-1] for row in aug[:k]]


def reference_in_hull(points, q):
    """Caratheodory: q is in conv(points) iff it lies in the simplex of
    some affinely independent subset of at most d+1 points."""
    d = len(q)
    for k in range(1, min(d + 1, len(points)) + 1):
        for sub in combinations(points, k):
            rows = [[1] * k] + [[p[i] for p in sub] for i in range(d)]
            lam = solve_exact(rows, [1] + list(q))
            if lam is not None and all(a >= 0 for a in lam):
                return True
    return False


def assert_certificate(points, q, lam):
    assert len(lam) == len(points)
    assert all(a >= 0 for a in lam)
    assert sum(lam) == 1
    for i in range(len(q)):
        assert sum(a * p[i] for a, p in zip(lam, points)) == q[i]


def random_query(rng, d):
    return tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                 for _ in range(d))


def test_feasible_combination_matches_caratheodory():
    rng = random.Random(20251)
    inside = 0
    for trial in range(300):
        d = 1 + trial % 3
        points = [tuple(rng.randint(-3, 3) for _ in range(d))
                  for _ in range(rng.randint(1, 6))]
        queries = [random_query(rng, d) for _ in range(3)]
        a, b = rng.choice(points), rng.choice(points)
        queries.append(tuple(Fraction(x + y, 2) for x, y in zip(a, b)))
        queries.append(a)
        for q in queries:
            lam = lp.feasible_combination(points, q)
            assert (lam is not None) == reference_in_hull(points, q), \
                (points, q)
            if lam is not None:
                assert_certificate(points, q, lam)
                inside += 1
    assert inside > 300  # both answers are well exercised


def test_feasible_combination_edge_cases():
    assert lp.feasible_combination([], (0, 0)) is None
    # a repeated point, and a query with a negative coordinate
    pts = [(0, -2), (0, -2), (2, 0)]
    lam = lp.feasible_combination(pts, (1, -1))
    assert_certificate(pts, (1, -1), lam)
    assert lp.feasible_combination(pts, (1, 0)) is None
    # a segment in 3-space: the rows are dependent
    seg = [(0, 0, 0), (2, 2, 2)]
    assert_certificate(seg, (1, 1, 1), lp.feasible_combination(seg, (1, 1, 1)))
    assert lp.feasible_combination(seg, (1, 1, 0)) is None


@pytest.mark.parametrize("c,a_ub,b_ub,value,z", [
    # vertex optimum at (3, 1)
    ([3, 2], [[1, 1], [1, 3], [1, 0]], [4, 6, 3], 11, [3, 1]),
    # fractional optimum
    ([1, 1], [[2, 1], [1, 2]], [4, 4], Fraction(8, 3),
     [Fraction(4, 3), Fraction(4, 3)]),
    # degenerate start: a zero right-hand side
    ([1, 0], [[1, -1], [0, 1]], [0, 2], 2, [2, 2]),
    # the origin is optimal
    ([-1, -1], [[1, 1]], [5], 0, [0, 0]),
])
def test_simplex_max_known_optima(c, a_ub, b_ub, value, z):
    status, got_value, got_z = lp.simplex_max(c, a_ub, b_ub)
    assert status == lp.OPTIMAL
    assert got_value == value
    assert got_z == z


def test_simplex_max_unbounded():
    assert lp.simplex_max([1, 0], [[-1, 1]], [1]) == (lp.UNBOUNDED, None,
                                                      None)


def test_simplex_max_rejects_negative_rhs():
    with pytest.raises(ValueError):
        lp.simplex_max([1], [[-1]], [-1])
