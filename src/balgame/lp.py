"""Small exact LP solver over integer tableaus (simplex, Bland's rule).
Only meant for the dense, desk-scale programs the witness checker needs;
no floating point anywhere.

Every tableau is kept fraction-free: its entries are integers over one
common denominator d, the last pivot (Edmonds; Bareiss, Math. Comp.
1968).  The rational tableau is tab / d, so signs and ratios read off
the integers give the pivot sequence and optimum that a Fraction
tableau gives.

`simplex_max` solves from the feasible origin of `a_ub z <= b_ub` with
`b_ub >= 0`; `feasible_combination` is a phase one on its equality
rows.  `pivot` also keeps the partial coloring's echelon."""

from fractions import Fraction
from math import lcm

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


def pivot(tab, basis, r, c, d):
    """One fraction-free Gauss-Jordan step on the integer tableau with
    common denominator d: clear column c from every other row, record c
    as row r's basic column and return the new denominator tab[r][c].

    Row r stays as it is; every other row becomes (p*row - row[c]*row_r)
    / d, a division that is exact."""
    pv = tab[r][c]
    pr = tab[r]
    for i in range(len(tab)):
        if i == r:
            continue
        fac = tab[i][c]
        if fac:
            tab[i] = [(pv * x - fac * y) // d for x, y in zip(tab[i], pr)]
        elif pv != d:
            tab[i] = [pv * x // d for x in tab[i]]
    basis[r] = c
    return pv


def _run(tab, basis):
    """Minimize, objective in the last row, rhs in the last column;
    Bland's rule throughout.  The tableau starts integral (d = 1);
    returns the status and the final common denominator."""
    m = len(tab) - 1
    ncols = len(tab[-1]) - 1
    d = 1
    while True:
        obj = tab[-1]
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            return OPTIMAL, d
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                if best is None:
                    best = i
                    continue
                # rhs_i / a < rhs_best / a_best, both rows over d > 0
                lhs = tab[i][-1] * tab[best][enter]
                rhs = tab[best][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[best]):
                    best = i
        if best is None:
            return UNBOUNDED, d
        d = pivot(tab, basis, best, enter, d)


def _integral(rows):
    """The rows times the lcm of all their denominators, as ints; one
    positive factor keeps every ratio and every sign."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row]
            for row in rows]


def simplex_max(c, a_ub, b_ub):
    """Maximize c.z subject to a_ub z <= b_ub, z >= 0, where b_ub >= 0
    so that z = 0 is feasible and the slacks are the first basis.
    Entries are ints or Fractions.

    Returns (status, value, z); status is OPTIMAL or UNBOUNDED."""
    if any(b < 0 for b in b_ub):
        raise ValueError("simplex_max needs b_ub >= 0")
    m = len(a_ub)
    n = len(c)
    rows = _integral([list(a_ub[i]) + [b_ub[i]] for i in range(m)])
    tab = []
    for i, row in enumerate(rows):
        slack = [0] * m
        slack[i] = 1
        tab.append(row[:-1] + slack + row[-1:])
    basis = list(range(n, n + m))
    # the objective's own factor: Bland's rule reads only its signs
    tab.append([-x for x in _integral([c])[0]] + [0] * (m + 1))
    status, d = _run(tab, basis)
    if status == UNBOUNDED:
        return UNBOUNDED, None, None
    z = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            z[basis[i]] = Fraction(tab[i][-1], d)
    value = sum(Fraction(cj) * zj for cj, zj in zip(c, z))
    return OPTIMAL, value, z


def feasible_combination(points, x):
    """Is x a convex combination of the given points?  Returns the
    coefficient list or None.  Exact throughout.

    Phase one on the equality rows sum lam = 1 and sum lam*p = x, each
    signed to a nonnegative rhs and started on its own artificial.  An
    artificial that leaves the basis never re-enters, so its column is
    not stored; row i's artificial is labelled m + i in the basis.  All
    rows are scaled by one common factor, which leaves the phase-one
    objective, and so every pivot, as it was."""
    if not points:
        return None
    m = len(points)
    rows = [[1] * m + [1]]
    for i in range(len(x)):
        rows.append([p[i] for p in points] + [x[i]])
    rows = [[-a for a in row] if row[-1] < 0 else row
            for row in _integral(rows)]
    basis = [m + i for i in range(len(rows))]
    # minimize the sum of the artificials, priced out over the rows
    tab = rows + [[-sum(col) for col in zip(*rows)]]
    _status, d = _run(tab, basis)
    if tab[-1][-1] != 0:
        return None
    lam = [Fraction(0)] * m
    for i, j in enumerate(basis):
        if j < m:
            lam[j] = Fraction(tab[i][-1], d)
    return lam
