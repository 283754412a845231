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


# --- the integer tableau against a Fraction tableau ----------------------
#
# The reference below is the Gauss-Jordan simplex over Fractions that the
# integer tableau replaces.  Bland's rule and the ratio test must make the
# same choices on both, so every answer and every lambda must agree.

def ref_pivot(tab, basis, r, c):
    pv = tab[r][c]
    tab[r] = [x / pv for x in tab[r]]
    for i in range(len(tab)):
        if i != r and tab[i][c] != 0:
            fac = tab[i][c]
            tab[i] = [x - fac * y for x, y in zip(tab[i], tab[r])]
    basis[r] = c


def ref_run(tab, basis):
    m = len(tab) - 1
    ncols = len(tab[-1]) - 1
    while True:
        obj = tab[-1]
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            return lp.OPTIMAL
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best[0] or \
                        (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            return lp.UNBOUNDED
        ref_pivot(tab, basis, best[1], enter)


def ref_simplex_max(c, a_ub, b_ub):
    m = len(a_ub)
    n = len(c)
    tab = []
    for i in range(m):
        row = [Fraction(x) for x in a_ub[i]] + [Fraction(0)] * m
        row[n + i] = Fraction(1)
        tab.append(row + [Fraction(b_ub[i])])
    basis = list(range(n, n + m))
    tab.append([-Fraction(x) for x in c] + [Fraction(0)] * (m + 1))
    if ref_run(tab, basis) == lp.UNBOUNDED:
        return lp.UNBOUNDED, None, None
    z = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            z[basis[i]] = tab[i][-1]
    return lp.OPTIMAL, sum(Fraction(cj) * zj for cj, zj in zip(c, z)), z


def ref_feasible_combination(points, x):
    m = len(points)
    rows = [[Fraction(1)] * m + [Fraction(1)]]
    for i in range(len(x)):
        rows.append([Fraction(p[i]) for p in points] + [Fraction(x[i])])
    rows = [[-a for a in row] if row[-1] < 0 else row for row in rows]
    basis = [m + i for i in range(len(rows))]
    tab = rows + [[-sum(col) for col in zip(*rows)]]
    ref_run(tab, basis)
    if tab[-1][-1] != 0:
        return None
    lam = [Fraction(0)] * m
    for i, j in enumerate(basis):
        if j < m:
            lam[j] = tab[i][-1]
    return lam


def random_entry(rng, lo, hi):
    """An int or, one time in three, a Fraction with a small denominator."""
    if rng.random() < 1 / 3:
        return Fraction(rng.randint(lo * 3, hi * 3), rng.randint(2, 5))
    return rng.randint(lo, hi)


def test_simplex_max_matches_fraction_tableau():
    rng = random.Random(7001)
    statuses = set()
    fractional = 0
    for _trial in range(300):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        c = [random_entry(rng, -4, 4) for _ in range(n)]
        a_ub = [[random_entry(rng, -3, 4) for _ in range(n)]
                for _ in range(m)]
        # zeros in b_ub give degenerate pivots, where ties are broken
        b_ub = [abs(random_entry(rng, 0, 5)) for _ in range(m)]
        got = lp.simplex_max(c, a_ub, b_ub)
        assert got == ref_simplex_max(c, a_ub, b_ub), (c, a_ub, b_ub)
        statuses.add(got[0])
        if got[0] == lp.OPTIMAL and \
                any(zj.denominator != 1 for zj in got[2]):
            fractional += 1
    assert statuses == {lp.OPTIMAL, lp.UNBOUNDED}
    assert fractional > 30


def test_feasible_combination_matches_fraction_tableau():
    rng = random.Random(7002)
    inside = 0
    for trial in range(300):
        d = 1 + trial % 4
        points = [tuple(random_entry(rng, -3, 3) for _ in range(d))
                  for _ in range(rng.randint(1, 7))]
        a, b = rng.choice(points), rng.choice(points)
        for q in (tuple(random_entry(rng, -3, 3) for _ in range(d)),
                  tuple(Fraction(x + 2 * y, 3) for x, y in zip(a, b)),
                  a):
            lam = lp.feasible_combination(points, q)
            assert lam == ref_feasible_combination(points, q), (points, q)
            if lam is not None:
                assert_certificate(points, q, lam)
                inside += 1
    assert inside > 600
