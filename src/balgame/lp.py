"""Small exact LP solver over Fractions (simplex tableau, Bland's
rule).  Only meant for the dense, desk-scale programs the witness
checker needs; no floating point anywhere.

`simplex_max` solves from the feasible origin of `a_ub z <= b_ub` with
`b_ub >= 0`; `feasible_combination` is a phase one on its equality
rows.  `pivot` is also the partial coloring's elimination step."""

from fractions import Fraction

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


def pivot(tab, basis, r, c):
    """Scale row r by tab[r][c], clear column c from every other row and
    record c as row r's basic column."""
    pv = tab[r][c]
    tab[r] = [x / pv for x in tab[r]]
    for i in range(len(tab)):
        if i != r and tab[i][c] != 0:
            fac = tab[i][c]
            tab[i] = [x - fac * y for x, y in zip(tab[i], tab[r])]
    basis[r] = c


def _run(tab, basis):
    """Minimize, objective in the last row, rhs in the last column;
    Bland's rule throughout."""
    m = len(tab) - 1
    ncols = len(tab[-1]) - 1
    while True:
        obj = tab[-1]
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            return OPTIMAL
        best = None
        for i in range(m):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best[0] or \
                        (ratio == best[0] and basis[i] < basis[best[1]]):
                    best = (ratio, i)
        if best is None:
            return UNBOUNDED
        pivot(tab, basis, best[1], enter)


def simplex_max(c, a_ub, b_ub):
    """Maximize c.z subject to a_ub z <= b_ub, z >= 0, where b_ub >= 0
    so that z = 0 is feasible and the slacks are the first basis.

    Returns (status, value, z); status is OPTIMAL or UNBOUNDED."""
    if any(b < 0 for b in b_ub):
        raise ValueError("simplex_max needs b_ub >= 0")
    m = len(a_ub)
    n = len(c)
    tab = []
    for i in range(m):
        row = [Fraction(x) for x in a_ub[i]] + [Fraction(0)] * m
        row[n + i] = Fraction(1)
        tab.append(row + [Fraction(b_ub[i])])
    basis = list(range(n, n + m))
    tab.append([-Fraction(x) for x in c] + [Fraction(0)] * (m + 1))
    if _run(tab, basis) == UNBOUNDED:
        return UNBOUNDED, None, None
    z = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            z[basis[i]] = tab[i][-1]
    value = sum(Fraction(cj) * zj for cj, zj in zip(c, z))
    return OPTIMAL, value, z


def feasible_combination(points, x):
    """Is x a convex combination of the given points?  Returns the
    coefficient list or None.  Exact throughout.

    Phase one on the equality rows sum lam = 1 and sum lam*p = x, each
    signed to a nonnegative rhs and started on its own artificial.  An
    artificial that leaves the basis never re-enters, so its column is
    not stored; row i's artificial is labelled m + i in the basis."""
    if not points:
        return None
    m = len(points)
    rows = [[Fraction(1)] * m + [Fraction(1)]]
    for i in range(len(x)):
        rows.append([Fraction(p[i]) for p in points] + [Fraction(x[i])])
    rows = [[-a for a in row] if row[-1] < 0 else row for row in rows]
    basis = [m + i for i in range(len(rows))]
    # minimize the sum of the artificials, priced out over the rows
    tab = rows + [[-sum(col) for col in zip(*rows)]]
    _run(tab, basis)
    if tab[-1][-1] != 0:
        return None
    lam = [Fraction(0)] * m
    for i, j in enumerate(basis):
        if j < m:
            lam[j] = tab[i][-1]
    return lam
