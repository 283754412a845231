"""Sign-assignment constructions for the canonical family.

Builds Chooser's explicit translate for every n up to N_LIMIT: majority
signs off the middle layer, and a balanced signing of the middle layer
itself.  The middle-layer signing goes through either a rotation-orbit
decomposition plus a backtracking search, exact for +-1 vectors (small
n), or, for large n, a greedy pair system, an exact partial coloring of
the rest with signed sum x, and a correction that signs the pair system
in integers so that its signed sum is y = defect - x.  The coloring's
kernel vectors come from one fraction-free echelon, kept across the
walk with `lp.pivot`.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb, gcd
from operator import countOf, itemgetter, mul

from . import lp
from .core import (SignAssignment, SizeLimitError, VectorFamily,
                   canonical_family, canonical_members, center, smul,
                   vadd, vneg, vsub, vsum, zero)
from .threshold import critical_M, is_power_of_two


class ConstructionError(AssertionError):
    """An asserted postcondition of a construction failed; indicates an
    arithmetic bug, never an expected runtime condition."""


class NotExpressibleError(ValueError):
    pass


class UnsatisfiableError(RuntimeError):
    pass


# The largest n the constructions finish in under a minute (2-vCPU Xeon,
# Python 3.11): balance_middle(20) takes about 9-10 s and
# chooser_translate(21) about 5.3-5.8 s and 282 MB, while n = 22 has a
# middle layer of C(21, 11) = 352716 vectors, about four times that of
# n = 20.
N_LIMIT = 21


def check_size(n):
    """Reject an n above N_LIMIT with SizeLimitError."""
    if n > N_LIMIT:
        raise SizeLimitError("n = %d is above the construction limit %d"
                             % (n, N_LIMIT))


def odd_signs(n):
    """Majority signs for odd n: the signed sum is C(n-1,(n-1)/2) * 1."""
    if n % 2 == 0 or n < 3:
        raise ValueError("n must be odd and >= 3, got %s" % n)
    check_size(n)
    f = canonical_family(n)
    signs = tuple(1 if sum(v) > 0 else -1 for v in f)
    sa = SignAssignment(f, signs)
    expect = (comb(n - 1, (n - 1) // 2),) * n
    if sa.signed_sum() != expect:
        raise ConstructionError("majority signed sum mismatch for n=%d" % n)
    return sa


def middle_layer(n):
    """Canonical members with coordinate sum 0; size C(n-1, n/2).

    A member has sum 0 iff n/2 of its coordinates 2..n are -1.  Family
    order puts +1 before -1, coordinate by coordinate, so the members
    come in the reverse of `combinations` order over the positions of
    their -1s; the rest of the family is never built.
    """
    if n % 2 != 0:
        raise ValueError("middle layer needs even n, got %s" % n)
    members = []
    for neg in reversed(list(combinations(range(1, n), n // 2))):
        v = [1] * n
        for i in neg:
            v[i] = -1
        members.append(tuple(v))
    return VectorFamily(n, tuple(members), label="middle_layer(%d)" % n)


def rotate(v):
    return v[1:] + v[:1]


@dataclass(frozen=True)
class Orbit:
    representative: tuple
    members: tuple
    self_negating: bool


def orbit_decompose(n):
    """Rotation orbits of the doubled middle layer V0 u -V0."""
    v0 = middle_layer(n).members
    pool = sorted(set(v0) | {vneg(v) for v in v0})
    seen = set()
    orbits = []
    for v in pool:
        if v in seen:
            continue
        cyc = [v]
        u = rotate(v)
        while u != v:
            cyc.append(u)
            u = rotate(u)
        rep = min(cyc)
        k = cyc.index(rep)
        cyc = cyc[k:] + cyc[:k]
        seen.update(cyc)
        if vsum(cyc, n) != zero(n):
            raise ConstructionError("orbit of %s does not sum to 0" % (v,))
        orbits.append(Orbit(rep, tuple(cyc), vneg(rep) in cyc))
    orbits.sort(key=lambda o: o.representative)
    return orbits


# --- backtracking sign search over negation-closed vector lists ---------

def _pack_pairs(vs):
    """One representative per {v, -v} pair, in first-seen order."""
    reps = []
    seen = set()
    for v in vs:
        if v in seen or vneg(v) in seen:
            continue
        seen.add(v)
        reps.append(v)
    return reps


def _search_reps(reps, target, node_budget=4 * 10 ** 6):
    """Find eps in {-1,+1}^k with sum eps_j reps[j] = target by
    depth-first backtracking, sign +1 before -1.  Every node entered,
    the root included, counts against `node_budget`.

    All reps are +-1 vectors.  At a node with rem vectors left, r what
    remains of the target, and a_ij, b_ij the numbers of vectors left
    with v_i = v_j and with v_i != v_j, each vector left adds +-2 or 0
    to r_i + r_j (+-2 iff v_i = v_j) and to r_i - r_j (+-2 iff
    v_i != v_j).  So every solution below the node needs
    |r_i + r_j| <= 2 a_ij and |r_i - r_j| <= 2 b_ij, and a node that
    breaks one is pruned.  Both prunes are exact, so they drop no
    solution and the first one found is the unpruned search's:
    - parity: r_i - rem mod 2 is the same at every node of a path, so
      it is tested once, at the root;
    - pair bounds: one int holds three n x n blocks of lanes, lane (i, j)
      2a_ij + r_i + r_j in the first, 2a_ij - r_i - r_j in the second
      and 2b_ij + r_i - r_j in the third, which with lane (j, i) bounds
      both signs of r_i - r_j.  Each lane has an offset and a guard bit,
      and a node passes iff every guard bit is set.  On the diagonal,
      a_ii = rem: the first two blocks hold 2(rem +- r_i), the interval
      bound |r_i| <= rem, which at depth k forces r = 0.
    Sign s on v lowers lane (i, j) by 4 where (s v_i, s v_j) is (+1, +1)
    in the first block, (-1, -1) in the second and (+1, -1) in the
    third, and leaves every other lane as it is, so a child is its
    parent minus a per-depth delta.
    """
    n = len(target)
    k = len(reps)
    if node_budget < 1:
        raise UnsatisfiableError("node budget exhausted")
    if any(abs(t) > k or (t - k) % 2 for t in target):
        return None
    # lane values stay in [-2k, 4k]: a root lane is 2a_ij or 2b_ij plus
    # t_i +- t_j with |t_i| <= k, the lanes (i, j) of the first two
    # blocks add up to 4a_ij <= 4k and those at (i, j) and (j, i) of the
    # third to 4b_ij, and a child of a passing node drops a lane by at
    # most 4 below 0
    offset = (4 * k).bit_length()
    width = offset + 1
    block = width * n * n
    lane = [1 << width * i for i in range(n * n)]
    ones = sum(lane)
    guard = (ones | ones << block | ones << 2 * block) << offset
    cols = [4 * c for c in lane[:n]]  # 4 in lane (0, j)
    rows = lane[::n]  # 1 in lane (i, 0)
    all_cols = sum(cols)
    all_rows = sum(rows)
    plus = []  # plus[j]: the delta of sign +1 on reps[j]
    minus = []
    for v in reps:
        up_c = sum(c for c, a in zip(cols, v) if a == 1)
        up_r = sum(r for r, a in zip(rows, v) if a == 1)
        down_c = all_cols - up_c
        down_r = all_rows - up_r
        uu = up_r * up_c
        dd = down_r * down_c
        plus.append(uu | dd << block | up_r * down_c << 2 * block)
        minus.append(dd | uu << block | down_r * up_c << 2 * block)
    # the deltas of both signs on every rep add 4a_ij to the first two
    # blocks and 4b_ij to the third
    state = guard + (sum(plus) + sum(minus) >> 1)
    for i, ti in enumerate(target):
        for j, tj in enumerate(target):
            c = lane[n * i + j]
            state += ((ti + tj) * c - ((ti + tj) * c << block)
                      + ((ti - tj) * c << 2 * block))
    signs = [0] * k
    states = [0] * k  # states[j]: the node at depth j on the current path
    nodes = 1
    depth = 0
    while True:
        if state & guard == guard:
            if depth == k:
                return signs
            states[depth] = state
            signs[depth] = 1
            state -= plus[depth]
            depth += 1
        else:
            depth -= 1
            while depth >= 0 and signs[depth] == -1:
                depth -= 1
            if depth < 0:
                return None
            signs[depth] = -1
            state = states[depth] - minus[depth]
            depth += 1
        nodes += 1
        if nodes > node_budget:
            raise UnsatisfiableError("node budget exhausted")


def search_signs(vs, target):
    """Antisymmetric signs over a negation-closed list of +-1 vectors
    summing to `target` (the zero vector or 2w).  Returns {v: eps_v}."""
    vs = list(vs)
    vset = set(vs)
    for v in vs:
        if any(a not in (-1, 1) for a in v):
            raise ValueError("search_signs expects +-1 vectors")
        if vneg(v) not in vset:
            raise ValueError("input not closed under negation at %s" % (v,))
    reps = _pack_pairs(vs)
    if any(a % 2 for a in target):
        raise UnsatisfiableError("target has odd coordinates")
    half_target = tuple(a // 2 for a in target)
    # sum over pairs of eps_r * 2r = target  <=>  sum eps_r r = target/2
    signs = _search_reps(reps, half_target)
    if signs is None:
        raise UnsatisfiableError("no antisymmetric signing reaches %s"
                                 % (target,))
    out = {}
    for r, s in zip(reps, signs):
        out[r] = s
        out[vneg(r)] = -s
    if vsum(vs, len(target), [out[v] for v in vs]) != tuple(target):
        raise ConstructionError("sign search postcondition failed")
    return out


# --- greedy pair system -------------------------------------------------

@dataclass
class PairSystem:
    n: int
    R: int
    pairs: dict  # (i, j) -> (v_plus, v_minus), i in 2..n, j in 1..R
    w: tuple

    def vectors(self):
        out = []
        for key in sorted(self.pairs):
            vp, vm = self.pairs[key]
            out.append(vp)
            out.append(vm)
        out.append(self.w)
        return out

    def validate(self):
        seen = set()
        for (i, _j), (vp, vm) in self.pairs.items():
            diff = vsub(vp, vm)
            expect = tuple(2 if k == 0 else (-2 if k == i - 1 else 0)
                           for k in range(self.n))
            if diff != expect:
                raise ConstructionError("pair (%s) difference wrong" % (i,))
            for v in (vp, vm):
                if sum(v) != 0 or any(a not in (-1, 1) for a in v):
                    raise ConstructionError("pair vector outside V0+-")
                if v in seen or vneg(v) in seen:
                    raise ConstructionError("pair vectors not (~)-distinct")
                seen.add(v)
        if self.w in seen or vneg(self.w) in seen:
            raise ConstructionError("w collides with pair vectors")
        if sum(self.w) != 0:
            raise ConstructionError("w outside V0+-")


def greedy_pairs(n, R):
    """Greedy pair system: for each coordinate i>=2 and each of
    R rounds, a vector with first coordinate +1 and i-th coordinate -1
    (balanced elsewhere) plus its partner with those two flipped."""
    if n % 2 != 0 or n < 4:
        raise ValueError("n must be even and >= 4")
    if comb(n - 2, (n - 2) // 2) <= 4 * R * (n - 1):
        raise ValueError(
            "pair-count bound fails: C(%d,%d)=%d <= %d; use the small-n path"
            % (n - 2, (n - 2) // 2, comb(n - 2, (n - 2) // 2),
               4 * R * (n - 1)))
    chosen = set()

    def candidates(i):
        # free positions: all but coordinate 1 and coordinate i (1-based)
        free = [k for k in range(n) if k not in (0, i - 1)]
        for plus_pos in combinations(free, (n - 2) // 2):
            v = [-1] * n
            v[0] = 1
            v[i - 1] = -1
            for k in plus_pos:
                v[k] = 1
            yield tuple(v)

    def flip(v, i):
        u = list(v)
        u[0] = -u[0]
        u[i - 1] = -u[i - 1]
        return tuple(u)

    pairs = {}
    for i in range(2, n + 1):
        for j in range(1, R + 1):
            for vp in candidates(i):
                vm = flip(vp, i)
                if (vp in chosen or vneg(vp) in chosen
                        or vm in chosen or vneg(vm) in chosen):
                    continue
                pairs[(i, j)] = (vp, vm)
                chosen.add(vp)
                chosen.add(vm)
                break
            else:
                raise ConstructionError(
                    "greedy pair search exhausted at (%d,%d)" % (i, j))
    # the first free middle-layer vector in family order; the walk stops
    # there instead of building the whole middle layer
    w = next((v for v in canonical_members(n)
              if sum(v) == 0 and v not in chosen and vneg(v) not in chosen),
             None)
    if w is None:
        raise ConstructionError("no free vector left for w")
    ps = PairSystem(n, R, pairs, w)
    ps.validate()
    return ps


# --- exact partial coloring --------------------------------------------

def partial_color(vs):
    """Signs for +-1 vectors with signed sum bounded by n in every
    coordinate, via an exact fractional kernel walk (Beck-Fiala,
    *Integer-making theorems*, 1981).

    Coefficients lam start at 0.  The first n + 1 unfrozen columns are
    active; each step moves their lam along a kernel vector k of the
    active columns until one more reaches +-1 and freezes there.  Once
    at most n stay fractional, rounding them perturbs each coordinate by
    at most 1 each, so the infinity norm of the result is at most n.  A
    final greedy flip pass shrinks it further when it can.

    The direction is fixed by the ordered active columns: `free` is the
    first active column that depends on the columns before it, and k is
    zero off the lex-first basis and `free`, with k[free] = 1.  It is
    read off one fraction-free Gauss-Jordan tableau (`lp.pivot`) kept
    across steps: the active columns, plus an n x n block that records
    the row operations, all over one denominator d.  Row r holds d in
    its basic column, so k is d at `free` and -tab[r][free] at the basic
    column of row r, all over d; the walk takes it negated when d < 0, a
    positive multiple of k, which gives the same step.
    - A frozen column outside the basis leaves with no pivot.
    - A frozen basis column in row r is replaced by one pivot, on the
      first active non-basis column with a nonzero in row r.  The
      non-basis columns before it do not use the frozen column, so they
      still depend on the columns before them; the replacement uses it,
      so it is now independent of the columns before it; and from it
      on, every prefix spans what it spanned before.  So the basis
      stays lex-first.  With no such column, row r is left without a
      pivot.
    - An entering column is the recorded block times the vector (n^2
      products).  It is pivoted in only if it is nonzero in a row that
      has no pivot, that is, if it is independent of the active columns.

    The walk is in integers: the active lam over one positive common
    denominator, reduced by their gcd after each step, and a column
    freezes when its numerator equals the denominator in size.

    The flip pass restarts at the first vector after every flip.  As
    every coordinate of x has the parity of len(vs), flipping s_j
    lowers the norm `cur` iff s_j v_j is +1 wherever x_i >= cur - 2 and
    -1 wherever x_i <= 2 - cur: two mask tests per vector.
    """
    vs = [tuple(v) for v in vs]
    if not vs:
        return [], zero(0)
    n = len(vs[0])
    big_n = len(vs)
    for v in vs:
        if len(v) != n or any(a not in (-1, 1) for a in v):
            raise ValueError("partial_color expects +-1 vectors of one "
                             "length")
    signs = [0] * big_n
    # row r: the recorded row operations E, then one entry per active
    # column, with tab / d = E [I | active]
    tab = [[int(i == r) for i in range(n)] for r in range(n)]
    basis = [None] * n  # basis[r]: the tableau column pivoted in row r
    d = 1
    active = []  # indices into vs, ascending
    lam = []  # numerators of the active lam over den
    den = 1
    nxt = 0
    while True:
        while nxt < big_n and len(active) < n + 1:
            c = n + len(active)
            v = vs[nxt]
            for row in tab:
                row.append(sum(map(mul, row, v)))
            r = next((r for r in range(n)
                      if basis[r] is None and tab[r][c]), None)
            if r is not None:
                d = lp.pivot(tab, basis, r, c, d)
            active.append(nxt)
            lam.append(0)
            nxt += 1
        if len(active) <= n:
            break
        basic = set(basis)
        free = next(c for c in range(n, 2 * n + 1) if c not in basic)
        k = [0] * (n + 1)
        k[free - n] = d
        for r, c in enumerate(basis):
            if c is not None:
                k[c - n] = -tab[r][free]
        if d < 0:
            k = [-a for a in k]
        # the step to the nearest of +-1, a / (den * b), least over k
        best_a = best_b = None
        for num, kj in zip(lam, k):
            if kj:
                a, b = (den - num, kj) if kj > 0 else (den + num, -kj)
                if best_b is None or a * best_b < best_a * b:
                    best_a, best_b = a, b
        lam = [best_b * num + best_a * kj for num, kj in zip(lam, k)]
        den *= best_b
        g = gcd(den, *lam)
        if g > 1:
            lam = [num // g for num in lam]
            den //= g
        gone = [p for p, num in enumerate(lam) if abs(num) == den]
        for p in gone:
            signs[active[p]] = 1 if lam[p] > 0 else -1
            if n + p in basic:
                r = basis.index(n + p)
                row = tab[r]
                # every other basic column is 0 in row r, so the first
                # nonzero left is the first non-basis one
                q = next((q for q in range(n + 1)
                          if row[n + q] and q not in gone), None)
                if q is None:
                    basis[r] = None
                else:
                    d = lp.pivot(tab, basis, r, n + q, d)
        for p in reversed(gone):
            c = n + p
            for row in tab:
                del row[c]
            del active[p], lam[p]
            basis = [b if b is None or b < c else b - 1 for b in basis]
    for j, num in zip(active, lam):
        signs[j] = 1 if num >= 0 else -1
    x = vsum(vs, n, signs)
    # greedy descent on the max-norm; up[j]: where s_j v_j is +1
    up = [sum(1 << i for i, a in enumerate(v) if a == s)
          for s, v in zip(signs, vs)]
    full = (1 << n) - 1
    while True:
        cur = max(map(abs, x))
        hi = sum(1 << i for i, a in enumerate(x) if a >= cur - 2)
        lo = sum(1 << i for i, a in enumerate(x) if a <= 2 - cur)
        j = next((j for j, u in enumerate(up)
                  if not (hi & ~u or lo & u)), None)
        if j is None:
            break
        s = signs[j] = -signs[j]
        x = vadd(x, smul(2 * s, vs[j]))
        up[j] ^= full
    if cur > n:
        raise ConstructionError("partial coloring bound violated")
    return signs, x


# --- expression in a pair system ---------------------------------------

def express_in_pairs(y, ps):
    """Signs {u: +-1} over `ps.vectors()` with signed sum y.

    Pair (i, j) signed +1 on v_plus and -1 on v_minus adds
    v_plus - v_minus = 2(e1 - ei), signed the other way its negative,
    and w adds s*w.  With c_i = s*w_i - y_i, coordinate i >= 2 comes out
    right when the first (2R + c_i)/4 pairs of coordinate i take +1 on
    v_plus and the rest -1, which needs c_i = 2R mod 4 and
    |c_i| <= 2R.  As w_i is odd, at most one s in (1, -1) meets the
    first; coordinate 1 then holds because sum(y) = sum(w) = 0.
    """
    n, big_r = ps.n, ps.R
    y = tuple(y)
    if len(y) != n or sum(y) != 0:
        raise NotExpressibleError("correction %s does not sum to 0" % (y,))
    for s in (1, -1):
        c = [s * wi - yi for wi, yi in zip(ps.w[1:], y[1:])]
        if all((ci - 2 * big_r) % 4 == 0 and abs(ci) <= 2 * big_r
               for ci in c):
            break
    else:
        raise NotExpressibleError(
            "correction %s outside the expressible range of the pair system"
            % (y,))
    eps = {}
    for i, ci in enumerate(c, 2):
        npos = (2 * big_r + ci) // 4
        for j in range(1, big_r + 1):
            vp, vm = ps.pairs[(i, j)]
            eps[vp] = 1 if j <= npos else -1
            eps[vm] = -eps[vp]
    eps[ps.w] = s
    vs = ps.vectors()
    if vsum(vs, n, [eps[u] for u in vs]) != y:
        raise ConstructionError("pair signs do not sum to the correction")
    return eps


# --- middle-layer balancing --------------------------------------------

def _pow2_defect_candidates(n):
    """Candidate defect vectors: n/4 coordinates at +3, the rest at -1.
    Positions that are all 0 mod 4 come first; they give the patterns of
    the bundled tables, (0,) at n = 4 and (0, 4) at n = 8."""
    for pos in sorted(combinations(range(n), n // 4),
                      key=lambda pos: any(i % 4 for i in pos)):
        yield tuple(3 if i in pos else -1 for i in range(n))


def _balance_small(n):
    """Small-n path: orbit decomposition plus sign search."""
    orbits = orbit_decompose(n)
    eps = {}
    done = set()
    selfneg = []
    for o in orbits:
        if o.self_negating:
            selfneg.extend(o.members)
            continue
        if o.representative in done:
            continue
        neg_members = {vneg(v) for v in o.members}
        for v in o.members:
            eps[v] = 1
        for v in neg_members:
            eps[v] = -1
        done.update(o.members)
        done.update(neg_members)
    if is_power_of_two(n):
        last_err = None
        for w in _pow2_defect_candidates(n):
            try:
                found = search_signs(selfneg, smul(2, w))
            except UnsatisfiableError as exc:
                last_err = exc
                continue
            eps.update(found)
            defect = w
            break
        else:
            raise ConstructionError("no admissible defect pattern for n=%d: %s"
                                    % (n, last_err))
    else:
        eps.update(search_signs(selfneg, zero(n)))
        defect = zero(n)
    return eps, defect


def _balance_pipeline(v0, R, defect):
    """Greedy pairs + partial coloring + pair expression (large n), over
    the middle layer v0.  A pair-system vector u with u_1 = -1 is the
    negative of the middle-layer member -u, which takes its sign negated."""
    ps = greedy_pairs(v0.dim, R)
    taken = {u if u[0] == 1 else vneg(u) for u in ps.vectors()}
    rest = [v for v in v0 if v not in taken]
    pc_signs, x = partial_color(rest)
    eps = dict(zip(rest, pc_signs))
    for u, e in express_in_pairs(vsub(defect, x), ps).items():
        if u[0] == 1:
            eps[u] = e
        else:
            eps[vneg(u)] = -e
    return eps, defect


def balance_middle(n):
    """Signs over the middle layer with signed sum equal to the defect:
    zero unless n is a power of two, where the defect has n/4
    coordinates at +3 and the rest at -1."""
    if n % 2 != 0 or n < 2:
        raise ValueError("n must be even and >= 2, got %s" % n)
    check_size(n)
    f = middle_layer(n)
    if n == 2:
        # single middle-layer vector (1,-1); sign -1 keeps the translate
        # shift within the w_i <= 1 regime
        return SignAssignment(f, (-1,)), (-1, 1)
    pow2 = is_power_of_two(n)
    if (pow2 and n < 16) or (not pow2 and n < 14):
        eps, defect = _balance_small(n)
    elif pow2:
        wprime = tuple(-3 if (i + 1) % 4 == 0 else 1 for i in range(n))
        eps, defect = _balance_pipeline(f, n // 2 + 2, vneg(wprime))
    else:
        eps, defect = _balance_pipeline(f, n // 2, zero(n))
    sa = SignAssignment(f, tuple(eps[v] for v in f))
    if sa.signed_sum() != tuple(defect):
        raise ConstructionError("middle-layer defect mismatch for n=%d" % n)
    return sa, tuple(defect)


@cache
def balance_middle_cached(n):
    return balance_middle(n)


# --- Chooser's explicit translate --------------------------------------

def chooser_translate(n):
    """The translate t and subset S0 with 0 = t + sum(S0), and the
    critical M for which t + P(V) fits in the region.

    S0 holds the members with positive coordinate sum, and for even n
    the middle-layer members `balance_middle` signs +1.  For odd n the
    origin identity implies the majority signed sum `odd_signs` checks:
    sum eps_v v = 2 sum(S0) - 2g = c * 1.

    Returns (t, s0, M) with t a tuple of exact Fractions.
    """
    if n < 2:
        raise ValueError("n must be >= 2, got %s" % n)
    check_size(n)
    f = canonical_family(n)
    m = critical_M(n).m_crit
    mid = {}
    shift = zero(n)
    if n % 2 == 0:
        mid_sa, defect = balance_middle_cached(n)
        mid = dict(zip(mid_sa.family.members, mid_sa.signs))
        if is_power_of_two(n):
            shift = vneg(defect)  # w' has w'_i <= 1
            if any(a > 1 for a in shift):
                raise ConstructionError("defect pattern breaks the shift")
    # comb(n-1, (n-1)//2) == comb(n-1, n//2) for odd n
    half_c = Fraction(comb(n - 1, n // 2), 2)
    t = tuple(-gi - half_c + Fraction(si, 2)
              for gi, si in zip(center(f), shift))
    s0 = tuple(v for v in f if sum(v) > 0 or mid.get(v) == 1)
    if vadd(t, vsum(s0, n)) != zero(n):
        raise ConstructionError("origin identity failed for n=%d" % n)
    # coordinate bound: max over t+P(V) of coordinate i must be <= M;
    # canonical entries are +-1, so the positive part counts the +1s
    for i in range(n):
        peak = t[i] + countOf(map(itemgetter(i), f.members), 1)
        if peak > m:
            raise ConstructionError(
                "translate exceeds the region in coordinate %d" % i)
    return t, s0, m
