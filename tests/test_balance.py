import functools
import hashlib
import random
from fractions import Fraction
from itertools import product
from math import ceil, comb, floor

import pytest

from balgame import balance, lp
from balgame.balance import (NotExpressibleError, UnsatisfiableError,
                             balance_middle, balance_middle_cached,
                             chooser_translate, express_in_pairs,
                             greedy_pairs, middle_layer, odd_signs,
                             orbit_decompose, partial_color, rotate,
                             search_signs)
from balgame.core import (SizeLimitError, canonical_family, enumerate_psum,
                          smul, vadd, vneg, vsub, vsum, zero)

from sign_tables import TABLE_W, fixture_rows


def signed_sum(rows):
    total = zero(len(rows[0][1]))
    for s, v in rows:
        total = vadd(total, smul(s, v))
    return total


def test_odd_signs():
    for n in (3, 5, 7):
        sa = odd_signs(n)
        c = comb(n - 1, (n - 1) // 2)
        assert sa.signed_sum() == (c,) * n
    with pytest.raises(ValueError):
        odd_signs(4)


def test_constructions_reject_n_above_limit():
    assert balance.N_LIMIT == 21
    for fn, n in ((balance_middle, 22), (balance_middle, 40),
                  (chooser_translate, 22), (chooser_translate, 23),
                  (odd_signs, 23)):
        with pytest.raises(SizeLimitError, match="construction limit 21"):
            fn(n)
    # the parity checks still come first
    with pytest.raises(ValueError, match="odd"):
        odd_signs(22)
    with pytest.raises(ValueError, match="even"):
        balance_middle(23)


def test_middle_layer():
    for n in range(2, 17, 2):
        ml = middle_layer(n)
        assert len(ml) == comb(n - 1, n // 2)
        # the family's sum-0 members, in family order
        assert ml.members == tuple(v for v in canonical_family(n)
                                   if sum(v) == 0), n
    with pytest.raises(ValueError):
        middle_layer(5)


def test_rotate():
    assert rotate((1, 2, 3)) == (2, 3, 1)


def test_orbit_decompose_partition():
    for n in (4, 6, 8):
        orbits = orbit_decompose(n)
        all_members = [v for o in orbits for v in o.members]
        v0 = set(middle_layer(n).members)
        pool = v0 | {vneg(v) for v in v0}
        assert sorted(all_members) == sorted(pool)
        for o in orbits:
            assert o.representative == min(o.members)
            assert o.self_negating == (vneg(o.representative) in o.members)
            assert signed_sum([(1, v) for v in o.members]) == zero(n)


def test_search_signs_zero_target():
    n = 6
    orbits = orbit_decompose(n)
    selfneg = [v for o in orbits if o.self_negating for v in o.members]
    eps = search_signs(selfneg, zero(n))
    assert signed_sum([(eps[v], v) for v in selfneg]) == zero(n)
    for v in selfneg:
        assert eps[vneg(v)] == -eps[v]


def test_search_signs_nonzero_target():
    n = 4
    pool = sorted(set(middle_layer(n).members)
                  | {vneg(v) for v in middle_layer(n).members})
    target = (6, -2, -2, -2)
    eps = search_signs(pool, target)
    assert signed_sum([(eps[v], v) for v in pool]) == target


def test_search_signs_errors():
    with pytest.raises(ValueError):
        search_signs([(1, -1)], (0, 0))  # not negation-closed
    with pytest.raises(UnsatisfiableError):
        search_signs([(1, -1), (-1, 1)], (1, 1))  # odd target
    with pytest.raises(UnsatisfiableError):
        search_signs([(1, -1), (-1, 1)], (2, 2))  # unreachable
    with pytest.raises(ValueError, match="1 vectors"):
        search_signs([(2, 0), (-2, 0)], (0, 0))  # backtracking needs +-1
    with pytest.raises(ValueError, match="1 vectors"):
        search_signs([(1, 0), (-1, 0)], (2, 0))


def test_search_signs_budget_exhausted(monkeypatch):
    n = 6
    orbits = orbit_decompose(n)
    selfneg = [v for o in orbits if o.self_negating for v in o.members]
    monkeypatch.setattr(balance, "_search_reps",
                        functools.partial(balance._search_reps,
                                          node_budget=3))
    with pytest.raises(UnsatisfiableError, match="node budget"):
        search_signs(selfneg, zero(n))


def reference_search_reps(reps, target, pair_bounds=False):
    """The recursive search `_search_reps` replaces: (signs or None, nodes
    visited).  Every node tests the interval and parity of each residual
    coordinate, one Python loop each over n.  With `pair_bounds` it also
    tests |r_i + r_j| <= 2a_ij and |r_i - r_j| <= 2b_ij for i < j, with
    a_ij and b_ij counted over the vectors left, as `_search_reps` does."""
    n = len(target)
    k = len(reps)
    partial = list(target)
    signs = [0] * k
    nodes = 0

    def feasible(depth):
        rem = k - depth
        for i in range(n):
            r = partial[i]
            if abs(r) > rem or (r - rem) % 2 != 0:
                return False
        if pair_bounds:
            for i in range(n):
                for j in range(i + 1, n):
                    a = sum(v[i] == v[j] for v in reps[depth:])
                    if (abs(partial[i] + partial[j]) > 2 * a
                            or abs(partial[i] - partial[j]) > 2 * (rem - a)):
                        return False
        return True

    def go(depth):
        nonlocal nodes
        nodes += 1
        if depth == k:
            return all(a == 0 for a in partial)
        if not feasible(depth):
            return False
        v = reps[depth]
        for s in (1, -1):
            for i in range(n):
                partial[i] -= s * v[i]
            signs[depth] = s
            if go(depth + 1):
                return True
            for i in range(n):
                partial[i] += s * v[i]
        signs[depth] = 0
        return False

    return (list(signs) if go(0) else None), nodes


def assert_search_matches_reference(reps, target):
    """Same signs as the interval-only reference, and the pair-bound
    reference's node count is exactly the smallest budget that lets the
    search finish."""
    want, _nodes = reference_search_reps(reps, target)
    pruned, nodes = reference_search_reps(reps, target, pair_bounds=True)
    assert pruned == want
    assert balance._search_reps(reps, target, node_budget=nodes) == want
    with pytest.raises(UnsatisfiableError, match="node budget"):
        balance._search_reps(reps, target, node_budget=nodes - 1)
    return want, nodes


def self_negating_reps(n):
    return balance._pack_pairs([v for o in orbit_decompose(n)
                                if o.self_negating for v in o.members])


def test_search_reps_matches_reference_small_path():
    # the searches balance_middle runs for n = 4..10, and more: every
    # defect candidate for a power of two (balance_middle stops at the
    # first, which is reachable), the zero target otherwise
    first_nodes = {}
    for n in (4, 6, 8, 10):
        reps = self_negating_reps(n)
        targets = (list(balance._pow2_defect_candidates(n)) if n in (4, 8)
                   else [zero(n)])
        results = [assert_search_matches_reference(reps, t) for t in targets]
        assert results[0][0] is not None, n
        first_nodes[n] = results[0][1]
    # the interval-only search visits {4: 7, 6: 9, 8: 52, 10: 249}
    assert first_nodes == {4: 7, 6: 7, 8: 18, 10: 31}


def test_search_reps_n12_nodes_pinned():
    # balance_middle(12)'s search: 3901 nodes, against 418,837 with the
    # interval bound alone; test_balance_middle_search_pinned pins its
    # signs
    reps = self_negating_reps(12)
    assert balance._search_reps(reps, zero(12), node_budget=3901) is not None
    with pytest.raises(UnsatisfiableError, match="node budget"):
        balance._search_reps(reps, zero(12), node_budget=3900)


def test_search_reps_matches_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def cases(draw):
        n = draw(st.integers(1, 6))
        vectors = st.tuples(*[st.sampled_from((1, -1))] * n)
        reps = []
        for v in draw(st.lists(vectors, max_size=12, unique=True)):
            if vneg(v) not in reps:
                reps.append(v)
        # a negation-closed list in a drawn order, so that either vector
        # of a pair can come first
        vs = draw(st.permutations([u for v in reps for u in (v, vneg(v))]))
        if draw(st.booleans()):
            eps = draw(st.lists(st.sampled_from((1, -1)),
                                min_size=len(reps), max_size=len(reps)))
            half = signed_sum(list(zip(eps, reps))) if reps else zero(n)
        else:
            half = draw(st.tuples(*[st.integers(-len(reps) - 2,
                                                len(reps) + 2)] * n))
        return vs, half

    @hypothesis.settings(max_examples=200, deadline=None,
                         derandomize=True, database=None)
    @hypothesis.given(cases())
    def check(case):
        vs, half = case
        reps = balance._pack_pairs(vs)
        want, _nodes = assert_search_matches_reference(reps, half)
        target = smul(2, half)
        if want is None:
            with pytest.raises(UnsatisfiableError, match="no antisymmetric"):
                search_signs(vs, target)
        else:
            eps = search_signs(vs, target)
            assert [eps[r] for r in reps] == want

    check()


def test_partial_color_bound():
    vs = list(middle_layer(8).members)
    signs, x = partial_color(vs)
    assert all(s in (-1, 1) for s in signs)
    assert signed_sum(list(zip(signs, vs))) == x
    assert max(abs(a) for a in x) <= 8


def test_partial_color_trivial():
    signs, x = partial_color([(1, 1), (1, -1)])
    assert len(signs) == 2
    assert max(abs(a) for a in x) <= 2
    assert partial_color([]) == ([], ())


def test_partial_color_rejects_general_vectors():
    with pytest.raises(ValueError):
        partial_color([(2, 0)])
    # the echelon multiplies every vector into a block of len(vs[0])
    # columns, so a vector of another length is refused
    for vs in ([(1, 1), (1,)], [(1,), (1, -1)]):
        with pytest.raises(ValueError, match="one length"):
            partial_color(vs)


# --- the partial coloring against its reference walk ---------------------
#
# The walk `partial_color` replaces: a full fraction-free elimination of
# the active columns at every step, and Fraction coefficients.  The kept
# echelon must take the same steps, so every (signs, x) must agree.

def reference_kernel_vector(cols, n):
    """A nonzero rational kernel vector of the n x m matrix with the
    given integer columns (m > rank guaranteed by m = n+1), by
    fraction-free elimination: row r of the integer tableau over its
    common denominator d has d in its pivot column."""
    m = len(cols)
    a = [[cols[j][i] for j in range(m)] for i in range(n)]
    basis = []  # basis[r] is the pivot column of row r
    d = 1
    for col in range(m):
        row = len(basis)
        sel = next((r for r in range(row, n) if a[r][col] != 0), None)
        if sel is None:
            continue
        a[row], a[sel] = a[sel], a[row]
        basis.append(col)
        d = lp.pivot(a, basis, row, col, d)
        if len(basis) == n:
            break
    free = next(c for c in range(m) if c not in basis)
    k = [Fraction(0)] * m
    k[free] = Fraction(1)
    for r, c in enumerate(basis):
        k[c] = Fraction(-a[r][free], d)
    return k


def reference_partial_color(vs, kernel=reference_kernel_vector):
    """(signs, x) by the walk with a fresh elimination per step and
    Fraction coefficients; `kernel(cols, n)` gives each step's k."""
    vs = [tuple(v) for v in vs]
    if not vs:
        return [], zero(0)
    n = len(vs[0])
    big_n = len(vs)
    lam = [Fraction(0)] * big_n
    frozen = {}
    nxt = 0  # next column of vs to enter the active set
    active = []
    while True:
        while nxt < big_n and len(active) < n + 1:
            active.append(nxt)
            nxt += 1
        if len(active) <= n:
            break
        k = kernel([vs[j] for j in active], n)
        step = None
        for idx, j in enumerate(active):
            kj = k[idx]
            if kj == 0:
                continue
            t = (1 - lam[j]) / kj if kj > 0 else (-1 - lam[j]) / kj
            if step is None or t < step:
                step = t
        for idx, j in enumerate(active):
            lam[j] += step * k[idx]
        newly = [j for j in active if abs(lam[j]) == 1]
        for j in newly:
            frozen[j] = int(lam[j])
        active = [j for j in active if j not in frozen]
    for j in active:
        frozen[j] = 1 if lam[j] >= 0 else -1
    signs = [frozen[j] for j in range(big_n)]
    x = zero(n)
    for s, v in zip(signs, vs):
        x = vadd(x, smul(s, v))
    # greedy descent on the max-norm
    improved = True
    while improved:
        improved = False
        cur = max(abs(a) for a in x)
        for j in range(big_n):
            cand = vsub(x, smul(2 * signs[j], vs[j]))
            if max(abs(a) for a in cand) < cur:
                x = cand
                signs[j] = -signs[j]
                improved = True
                break
    return signs, x


def fraction_kernel_vector(cols, n):
    """Gauss-Jordan over Fractions with the reference's pivot columns;
    also returns the rank and whether a row swap was needed."""
    m = len(cols)
    a = [[Fraction(cols[j][i]) for j in range(m)] for i in range(n)]
    basis = []
    swapped = False
    for col in range(m):
        row = len(basis)
        sel = next((r for r in range(row, n) if a[r][col] != 0), None)
        if sel is None:
            continue
        swapped |= sel != row
        a[row], a[sel] = a[sel], a[row]
        basis.append(col)
        a[row] = [x / a[row][col] for x in a[row]]
        for i in range(n):
            if i != row and a[i][col] != 0:
                fac = a[i][col]
                a[i] = [x - fac * y for x, y in zip(a[i], a[row])]
        if len(basis) == n:
            break
    free = next(c for c in range(m) if c not in basis)
    k = [Fraction(0)] * m
    k[free] = Fraction(1)
    for r, c in enumerate(basis):
        k[c] = -a[r][free]
    return k, len(basis), swapped


def test_partial_color_matches_reference_seeded(monkeypatch):
    # n + 1 columns, so that the first step's direction is the kernel
    # vector of all of them, checked against Fraction elimination
    pivots = []
    tally = {"deficient": 0, "swapped": 0, "negative": 0}

    def recording_pivot(tab, basis, r, c, d):
        pivots.append(tab[r][c])
        return lp_pivot(tab, basis, r, c, d)

    def checked_kernel(cols, n):
        k = reference_kernel_vector(cols, n)
        ref, rank, swap = fraction_kernel_vector(cols, n)
        assert k == ref, cols
        for i in range(n):
            assert sum(kj * col[i] for kj, col in zip(k, cols)) == 0
        tally["deficient"] += rank < n
        tally["swapped"] += swap
        return k

    lp_pivot = lp.pivot
    monkeypatch.setattr(lp, "pivot", recording_pivot)
    rng = random.Random(7003)
    for trial in range(300):
        n = 1 + trial % 7
        cols = [tuple(rng.choice((-1, 1)) for _ in range(n))
                for _ in range(n + 1)]
        if trial % 3 == 0:
            # repeated and negated columns drop the rank
            for j in range(1, n + 1):
                if rng.random() < 0.5:
                    src = cols[rng.randrange(j)]
                    cols[j] = src if rng.random() < 0.5 else vneg(src)
        del pivots[:]
        got = partial_color(cols)
        # a negative pivot leaves the kept echelon's d < 0
        tally["negative"] += any(p < 0 for p in pivots)
        assert got == reference_partial_color(cols, checked_kernel), cols
    assert min(tally.values()) > 30, tally


def test_partial_color_matches_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def vector_lists(draw):
        n = draw(st.integers(1, 9))
        size = draw(st.integers(0, 60))
        base = draw(st.lists(st.tuples(*[st.sampled_from((1, -1))] * n),
                             min_size=1, max_size=20))
        # picks of the base vectors and their negations, so that vectors
        # repeat and negate
        picks = draw(st.lists(st.integers(0, 2 * len(base) - 1),
                              min_size=size, max_size=size))
        return [base[i // 2] if i % 2 else vneg(base[i // 2])
                for i in picks]

    @hypothesis.settings(max_examples=200, deadline=None,
                         derandomize=True, database=None)
    @hypothesis.given(vector_lists())
    def check(vs):
        assert partial_color(vs) == reference_partial_color(vs)

    check()


def test_partial_color_matches_reference_pipeline_n14(monkeypatch):
    inputs = []

    def recording(vs):
        inputs.append(list(vs))
        return real(vs)

    real = balance.partial_color
    monkeypatch.setattr(balance, "partial_color", recording)
    balance_middle(14)
    (vs,) = inputs
    assert len(vs) == 1533
    assert real(vs) == reference_partial_color(vs)


def test_greedy_pairs():
    ps = greedy_pairs(14, 7)
    assert len(ps.pairs) == 13 * 7
    ps.validate()
    assert sum(ps.w) == 0
    with pytest.raises(ValueError):
        greedy_pairs(6, 3)  # bound fails, small-n path territory


def test_express_in_pairs_roundtrip():
    # every lattice point within +-2 of the center g, coordinate by
    # coordinate, is g + y/2 for a correction y the pair system can
    # sign: one sign per pair vector and one for w
    ps = greedy_pairs(14, 7)
    vectors = ps.vectors()
    sigma = vsum(vectors, 14)
    g = [Fraction(a, 2) for a in sigma]
    count = 0
    for parity in (0, 1):
        ranges = [[a for a in range(ceil(c - 2), floor(c + 2) + 1)
                   if a % 2 == parity] for c in g]
        for target in product(*ranges):
            if sum(target) != 0:
                continue
            y = tuple(2 * a - b for a, b in zip(target, sigma))
            eps = express_in_pairs(y, ps)
            assert signed_sum([(eps[u], u) for u in vectors]) == y
            assert len(eps) == len(vectors) and set(eps) == set(vectors)
            for vp, vm in ps.pairs.values():
                assert eps[vp] == -eps[vm]
            count += 1
    assert count == 6864


def test_express_in_pairs_rejects():
    ps = greedy_pairs(14, 7)
    vectors = ps.vectors()
    # every pair signed +1 on v_plus, and w +1: each a_i is R
    eps = {}
    for vp, vm in ps.pairs.values():
        eps[vp], eps[vm] = 1, -1
    eps[ps.w] = 1
    y = signed_sum([(eps[u], u) for u in vectors])
    assert express_in_pairs(y, ps) == eps
    e12 = (1, -1) + (0,) * 12
    for bad in (
            vadd(y, (2,) + (0,) * 13),  # sum(y) != 0
            vadd(y, e12),  # odd entries
            vadd(y, smul(2, e12)),  # c_2 off by 2 mod 4
            vadd(y, smul(4, e12)),  # a_2 = R + 2
    ):
        with pytest.raises(NotExpressibleError):
            express_in_pairs(bad, ps)
    # signed the other way, every a_i is -R, which is in range
    assert express_in_pairs(vneg(y), ps) == {u: -e for u, e in eps.items()}


def test_balance_middle_defects():
    for n, want in ((2, (-1, 1)), (4, (3, -1, -1, -1)),
                    (6, zero(6)), (8, (3, -1, -1, -1, 3, -1, -1, -1)),
                    (10, zero(10)), (12, zero(12))):
        sa, defect = balance_middle_cached(n)
        assert defect == tuple(want), n
        assert sa.signed_sum() == tuple(want), n
        assert len(sa.signs) == comb(n - 1, n // 2)


def middle_digest(n):
    sa, defect = balance_middle_cached(n)
    return hashlib.sha256(repr((sa.signs, defect)).encode()).hexdigest()


@pytest.mark.parametrize("n,digest", [
    # sha256 of repr((signs, defect)) recorded with the Fraction kernel;
    # both sizes go through the partial-coloring pipeline, so this pins
    # every step of its walk
    (14, "a69568f982f9f9832009497d9703168048ab152e033bb147fadbf35b1b017cbb"),
    (16, "9ce9329c7935e2d87f65e165a6852c657f9ae19e92cb594416a1e0915c5cef7b"),
])
def test_balance_middle_pipeline_pinned(n, digest):
    assert middle_digest(n) == digest


@pytest.mark.parametrize("n,digest", [
    # sha256 of repr((signs, defect)) recorded with the recursive sign
    # search; these sizes take the orbit decomposition and sign search
    (4, "28ea42934c263762addd15c152a9baa24325dd52571a86656695bb3dba9bda83"),
    (6, "854a42e58832f04b8556c683acdba5208fb611e314371994c41a3ebebcaf5f1a"),
    (8, "2569dbadeab376ed7097625f87de07d9b2305531932e9a6cb2f45d8e0d7e15e1"),
    (10, "e74fa7eaa84106aa828f66989a793946f113993a07799d10a64e89715e0406f7"),
    (12, "70810383df2d051a64b82e6239d5c0542ade248c31d59c908baa136a96dbd821"),
])
def test_balance_middle_search_pinned(n, digest):
    assert middle_digest(n) == digest


def test_balance_middle_errors():
    with pytest.raises(ValueError):
        balance_middle(3)
    with pytest.raises(ValueError):
        balance_middle(0)


def test_balance_cache_identity():
    assert balance_middle_cached(6) is balance_middle_cached(6)


def test_vsum_matches_signed_sum_loop():
    rng = random.Random(14)
    cases = [fixture_rows(n) for n in (4, 6, 8, 10, 12)]
    cases += [[(rng.choice((1, -1)), tuple(rng.randint(-5, 5)
                                           for _ in range(n)))
               for _ in range(rng.randint(1, 30))]
              for n in range(1, 8) for _ in range(20)]
    for rows in cases:
        n = len(rows[0][1])
        vs = [v for _, v in rows]
        assert vsum(vs, n, [s for s, _ in rows]) == signed_sum(rows)
        assert vsum(vs, n) == signed_sum([(1, v) for v in vs])
    assert vsum([], 5) == zero(5)


def test_fixture_tables_regression():
    for n, rows in ((4, fixture_rows(4)), (6, fixture_rows(6)),
                    (8, fixture_rows(8)), (10, fixture_rows(10)),
                    (12, fixture_rows(12))):
        want = smul(2, TABLE_W[n]) if n in TABLE_W else zero(n)
        assert signed_sum(rows) == want, n
        # antisymmetry: -v appears with the opposite sign
        table = {v: s for s, v in rows}
        assert len(table) == len(rows)
        for v, s in table.items():
            assert table[vneg(v)] == -s, (n, v)


def test_chooser_translate_n2():
    t, s0, m = chooser_translate(2)
    assert t == (Fraction(-1), Fraction(-1))
    assert s0 == ((1, 1),)
    assert m == 1


def test_chooser_translate_origin_identity():
    for n in range(2, 9):
        t, s0, m = chooser_translate(n)
        pos = t
        for v in s0:
            pos = vadd(pos, v)
        assert tuple(pos) == (Fraction(0),) * n, n


def test_chooser_translate_containment_small():
    for n in (2, 3, 4):
        f = canonical_family(n)
        t, _s0, m = chooser_translate(n)
        for u in enumerate_psum(f):
            q = vadd(t, u)
            assert all(a <= m for a in q), (n, u)


def test_chooser_translate_tight():
    # some coordinate peak gets within one of the boundary, otherwise M
    # would not be critical
    for n in (3, 4, 6):
        f = canonical_family(n)
        t, _s0, m = chooser_translate(n)
        peak = max(t[i] + sum(v[i] for v in f if v[i] > 0)
                   for i in range(n))
        assert m - 1 < peak <= m, n


# sha256 of repr(chooser_translate(n)), recorded when S0 was still read
# off a sign per member (majority signs from odd_signs for odd n)
PINNED_TRANSLATES = [
    (2, "679743fdfe83618427be1b257e1a850a71ea3d9e653922e6fcf34f23cbe07c4a"),
    (3, "2c83f31ade1afae269a745d96654661f551c49d4d6b58233297c3dff552a76d8"),
    (4, "fb8e2204c09e16a28d0baadbc3f739ec7bf3b3f04a584d8e85bd87060e6ce7a8"),
    (5, "68707a2043325fa68b2a478606ceef7f21338b28083c8c6e516d31b9b0b1f363"),
    (6, "0987eb54b5341a20fcbdf6dc10670dcfc921c80318f80503a8e703336ab2a56b"),
    (7, "ed6bfdecd69fff0a0dfd0a0a657b878793b9f704b45e9d49905cf8c7f4291978"),
    (8, "8884d234861eb9199fa0c50bcb1843d49df2389e4753f0b90877689906ebc246"),
    (9, "81d93d61aae0c344a35c9aefeca66ca168020d1ba671ede5d7bf3435c2d1d522"),
    (10, "b0388fd760273a1f05ed859862fc6d372f3744735df763e7c2a93be2f71471f2"),
    (11, "86ecb8fc09e133dce3fa31c76c042d30019014273197d427ac7d3201b4f9d15e"),
    (12, "d019f7d622e44d0eeeb6d9da14e362446a6d72a5a2111e1c7e3d354953dd0b7d"),
    (13, "55c4d51de804b0f14e7f931f0770a35741e72eeea5df43c9558fe843cc4a8393"),
    (14, "9723a97498a22711534acb2d070bf9c0896e1219bad5b96ac70ddde7b5efc452"),
    (15, "917e6ee3667f5283dc037386ea2ab5086fee720a5acf4a9b7b8c4084be65c3d8"),
    (17, "cce4204fc7ce648940790912220f7a09c6cdb40f1b322cd21e3d8b2b756e92c8"),
]


@pytest.mark.parametrize("n,digest", PINNED_TRANSLATES,
                         ids=["n%d" % n for n, _ in PINNED_TRANSLATES])
def test_chooser_translate_pinned(n, digest):
    got = hashlib.sha256(repr(chooser_translate(n)).encode()).hexdigest()
    assert got == digest
