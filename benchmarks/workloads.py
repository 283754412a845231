"""Seeded workloads for the balgame benchmark.

A workload builds every input from its seed, does the library's one-time
work in `setup()`, and then hands out timed operations block by block.
Every block holds the same number of operations of each class, in a
seeded order, so a run that stops at any block boundary keeps the class
shares fixed.  The shares are chosen so that the p50 and p90 ranks fall
inside one class each, away from the edges between classes (README.md).

The correctness gates here re-derive each property with plain tuples,
sets and loops; they call the library only where noted.
"""

import hashlib
import random
from dataclasses import dataclass
from operator import add, mul, sub

from balgame import coloring, core, fixtures, game, threshold, witness
from balgame import balance


@dataclass
class Op:
    """One timed operation.  Only `call` is timed; `check` and `describe`
    run afterwards, outside the timed region and outside trace spans."""
    cls: str            # operation class, for the per-class report
    call: object        # () -> result
    check: object       # result -> bool, the correctness gate
    describe: object    # result -> JSON-able dict for the digest
    then: object = None  # result -> list of follow-up Ops, or None
    # Operations with the same key must give the same result: the first
    # one is checked in full, and later ones must match its fingerprint.
    key: object = None
    fingerprint: object = None  # result -> hashable, the result's content


def _vadd(u, v):
    return tuple(map(add, u, v))


def _vsub(u, v):
    return tuple(map(sub, u, v))


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def closure_ok(cert, members):
    """The certificate partitions its window into a safe set and removed
    points; the safe set is V-closed; and each removed point's record
    (round, v) has z + v and z - v outside the window or removed in an
    earlier round.  Together these prove the safe set is the maximal
    V-closed subset of the window."""
    w = cert.window
    safe = cert.safe.points
    rank = cert.rank
    if len(safe) + len(rank) != w.volume() or not safe.isdisjoint(rank):
        return False
    for pts in (safe, rank):
        if pts and not all(a <= min(c) and max(c) <= b for a, b, c
                           in zip(w.lo, w.hi, zip(*pts))):
            return False
    family = set(members)
    if any(v not in family for _rnd, v in rank.values()):
        return False
    # number the cells of the window padded by the longest step, so that
    # z +- v is z's number +- a fixed offset and never wraps around
    pad = max((abs(a) for v in members for a in v), default=0)
    strides = []
    stride = 1
    for a, b in reversed(list(zip(w.lo, w.hi))):
        strides.insert(0, stride)
        stride *= b - a + 1 + 2 * pad
    base = sum((pad - a) * s for a, s in zip(w.lo, strides))

    def num(z):
        return base + sum(map(mul, z, strides))

    offsets = [num(v) - base for v in members]
    alive = {num(z) for z in safe}
    for z in alive:
        for off in offsets:
            if z + off not in alive and z - off not in alive:
                return False
    removed = {num(z): rnd for z, (rnd, _v) in rank.items()}
    for z, (rnd, v) in rank.items():
        k = num(z)
        off = num(v) - base
        for u in (k + off, k - off):
            # window = safe + removed, so anything else lies outside it
            if u in alive or removed.get(u, 0) >= rnd:
                return False
    return True


def vclosed_ok(points, members):
    """Plain-set V-closure test of an explicit point set."""
    pts = frozenset(points)
    return all(_vadd(z, v) in pts or _vsub(z, v) in pts
               for z in pts for v in members)


def cert_fingerprint(cert):
    # order-free hashes of the safe set and the rank table, built without
    # copying them, so that checking leaves peak_rss_mb alone
    return hash(cert.safe.points), sum(map(hash, cert.rank.items()))


def random_family(rng, dim, size):
    """A strict family of `size` pairwise non-parallel nonzero vectors
    with entries in {-1, 0, 1}."""
    members = []
    while len(members) < size:
        v = tuple(rng.randint(-1, 1) for _ in range(dim))
        if any(v) and not any(core.is_parallel(v, u) for u in members):
            members.append(v)
    return members


class Workload:
    name = ""
    sizes = {}
    cycle_blocks = 5

    def __init__(self, seed, size="full"):
        self.seed = seed
        self.cfg = self.sizes[size]
        self.rng = random.Random("%s:%d" % (self.name, seed))

    def setup(self):
        """The library's one-time work; timed as setup_s."""

    def setup_results(self):
        """[(label, ok, digest dict)] for what setup() produced."""
        return []

    def prelude(self):
        """Operations run once, before the first block."""
        return []

    def block(self, b):
        raise NotImplementedError


# --- translate witnesses, part of the solve workload --------------------

class Witnesses:
    """Translate witnesses for the solve workload.  Setup closes sparse
    explicit point sets (random_vclosed) and finds their extreme points;
    each timed operation is one translate_witness call.

    `cfg` maps each kind to its |T| buckets, (sets, certificates per
    block) each.  Bucket k holds sets of exactly k|P(V)| points.  A
    certificate's cost grows steeply with |T|, so fixed quotas per bucket
    give every seed the same mix of costs, and several sets per bucket
    keep any one set's cost from setting a class's median."""

    def __init__(self, seed, cfg):
        self.cfg = cfg
        self.rng = random.Random("witness:%d" % seed)
        f3 = core.canonical_family(3)
        self.families = {"2d": core.canonical_family(2),
                         "sub3": core.VectorFamily(3, f3.members[:3],
                                                   label="sub3"),
                         "3d": f3}
        self.kinds = [k for k in ("2d", "sub3", "3d") if k in self.cfg]
        self.psum_size = {k: len(core.enumerate_psum(self.families[k]))
                          for k in self.kinds}
        self.set_seeds = {k: self.rng.randrange(2 ** 32) for k in self.kinds}
        self.pool_seeds = {k: self.rng.randrange(2 ** 32)
                           for k in self.kinds}

    def setup(self):
        self.sets = {}  # (kind, bucket) -> [(seed, T, extreme points)]
        for kind in self.kinds:
            f = self.families[kind]
            quota = [sets for sets, _per_block in self.cfg[kind]]
            stream = random.Random(self.set_seeds[kind])
            for b in range(len(quota)):
                self.sets[kind, b] = []
            while any(quota):
                s = stream.randrange(10 ** 6)
                t = witness.random_vclosed(f, s)
                b, rest = divmod(len(t), self.psum_size[kind])
                b -= 1
                if not rest and b < len(quota) and quota[b]:
                    quota[b] -= 1
                    self.sets[kind, b].append(
                        (s, t, witness.extreme_points(t)))
        self.pools = {}
        for key, sets in self.sets.items():
            pool = [(t, x) for _s, t, ext in sets for x in ext]
            random.Random("%d:%s:%d" % ((self.pool_seeds[key[0]],) + key)
                          ).shuffle(pool)
            self.pools[key] = pool

    def setup_results(self):
        out = []
        for (kind, _b), sets in self.sets.items():
            f = self.families[kind]
            for s, t, ext in sets:
                ok = (vclosed_ok(t.points, f.members) and bool(ext)
                      and set(ext) <= t.points)
                out.append(("set-%s-%d" % (kind, s), ok,
                            {"family": f.label, "seed": s, "T_size": len(t),
                             "extreme": [list(x) for x in ext]}))
        return out

    def _witness_op(self, cls, f, t, x):
        def call():
            try:
                return witness.translate_witness(t, f, x)
            except witness.NotApplicableError:
                return None  # extreme but not exposed: the CLI's "skipped"

        def check(cert):
            return cert is None or (cert.verified and cert.x == tuple(x)
                                    and cert.t_set is t and cert.replay())

        def describe(cert):
            if cert is None:
                return {"x": list(x), "skipped": "no strict normal"}
            return cert.as_dict()

        def fingerprint(cert):
            # replay() reads only the certificate's fields and its set
            return cert is None or cert.t_set is t, repr(describe(cert))

        return Op(cls, call, check, describe, key=(id(t), x),
                  fingerprint=fingerprint)

    def ops(self, b):
        """Block b's certificates; later blocks walk on through the
        pools, so repeats of a certificate are spread over the run."""
        ops = []
        for kind in self.kinds:
            for bucket, (_sets, per_block) in enumerate(self.cfg[kind]):
                pool = self.pools[kind, bucket]
                for j in range(b * per_block, (b + 1) * per_block):
                    t, x = pool[j % len(pool)]
                    ops.append(self._witness_op(
                        "witness-%s-b%d" % (kind, bucket + 1),
                        self.families[kind], t, x))
        return ops


# --- solve: the exact answers -------------------------------------------

class Solve(Workload):
    """The deletion-operator solver and translate witnesses.  Canonical
    verdicts swept around critical_M, random strict families with default
    windows (verdict) and explicit windows (the `maximal` CLI), a
    rank-Pusher game after every verdict Pusher wins, and translate
    witnesses for sparse explicit V-closed sets (Witnesses)."""

    name = "solve"
    # canonical: n -> sweep values per block, cycling through the sweep of
    # M around critical_M(n).  random: dim -> (family size, default-window
    # verdicts Pusher wins, ones Chooser wins, explicit windows, window
    # edge).  Fixing the winners fixes the number of follow-up games, and
    # so the class shares, for every seed.  witness: see Witnesses.
    # Explicit-window costs vary least between families; the counts put
    # p50 at the middle of the 3-D windows and p90 at the middle of the
    # first sub3 witness bucket, the exact LP path (README.md).
    sizes = {
        "full": {"canonical": {2: 2, 3: 2, 4: 1}, "margin": 2,
                 "random": {2: (3, 1, 1, 2, 16), 3: (4, 1, 1, 45, 14),
                            4: (5, 0, 0, 6, 9)},
                 "witness": {"2d": ((6, 6), (5, 9), (4, 4)),
                             "sub3": ((12, 12), (2, 2)), "3d": ((2, 1),)}},
        "tiny": {"canonical": {2: 2, 3: 1}, "margin": 1,
                 "random": {2: (3, 1, 1, 1, 8), 3: (4, 1, 0, 1, 6)},
                 "witness": {"2d": ((2, 2), (2, 1)), "sub3": ((1, 1),)}},
    }

    def __init__(self, seed, size="full"):
        super().__init__(seed, size)
        self.sweeps = {}
        for n in self.cfg["canonical"]:
            mc = threshold.critical_M(n).m_crit
            lo = max(0, mc - self.cfg["margin"])
            self.sweeps[n] = list(range(lo, mc + self.cfg["margin"] + 1))
        # family files as the `maximal` CLI reads them, with their regions
        # or windows, block by block
        self.inputs = []
        for _b in range(self.cycle_blocks):
            rows = []
            for dim, (size, n_pusher, n_chooser, n_window, edge) in \
                    sorted(self.cfg["random"].items()):
                want = {"pusher": n_pusher, "chooser": n_chooser}
                while any(want.values()):
                    members = random_family(self.rng, dim, size)
                    upper = tuple(self.rng.randint(0, 2) for _ in range(dim))
                    winner = game.verdict(
                        game.GameRegion(dim, upper),
                        core.VectorFamily(dim, tuple(members))).winner
                    if want[winner]:
                        want[winner] -= 1
                        rows.append((dim, True, members, upper))
                for _ in range(n_window):
                    members = random_family(self.rng, dim, size)
                    lo = tuple(self.rng.randint(-edge + 1, 0)
                               for _ in range(dim))
                    rows.append((dim, False, members,
                                 (lo, tuple(a + edge - 1 for a in lo))))
            self.inputs.append([
                (dim, is_verdict, "dim %d\n" % dim + "".join(
                    ",".join(map(str, v)) + "\n" for v in members), shape)
                for dim, is_verdict, members, shape in rows])
        self.game_seeds = [self.rng.randrange(2 ** 32)
                           for _ in range(self.cycle_blocks)]
        self.order_seeds = [self.rng.randrange(2 ** 32)
                            for _ in range(self.cycle_blocks)]
        self.witnesses = Witnesses(seed, self.cfg["witness"])

    def setup(self):
        self.canonical = {n: core.canonical_family(n) for n in self.sweeps}
        self.m_crit = {n: threshold.critical_M(n).m_crit
                       for n in self.sweeps}
        self.families = [[core.parse_family(text, label="random(%d)" % b)
                          for _dim, _v, text, _s in rows]
                         for b, rows in enumerate(self.inputs)]
        self.witnesses.setup()

    def setup_results(self):
        return self.witnesses.setup_results()

    def _verdict_op(self, cls, key, f, region, expect, game_seed):
        def then(res):
            if res.winner != "pusher":
                return []
            return [self._game_op(res, f, region, game_seed,
                                  canonical=expect is not None)]

        def check(res):
            ok = (closure_ok(res.certificate, f.members)
                  and (res.winner == "chooser")
                  == (core.zero(f.dim) in res.certificate.safe.points))
            if expect is not None:
                ok = ok and res.winner == expect
            return ok

        def describe(res):
            doc = res.as_dict()
            doc["input"] = {"family": [list(v) for v in f],
                            "M": list(region.upper_bounds)}
            return doc

        return Op(cls, lambda: game.verdict(region, f), check, describe, then,
                  key, lambda res: (res.winner,
                                    cert_fingerprint(res.certificate)))

    def _window_op(self, cls, key, f, window):
        def describe(cert):
            doc = cert.as_dict()
            doc["origin_safe"] = core.zero(f.dim) in cert.safe
            doc["input"] = {"family": [list(v) for v in f]}
            return doc

        return Op(cls, lambda: game.maximal_vclosed_subset(window, f),
                  lambda cert: closure_ok(cert, f.members), describe,
                  key=key, fingerprint=cert_fingerprint)

    def _game_op(self, res, f, region, seed, canonical):
        cert = res.certificate
        origin_round = res.origin_rank[0]

        def call():
            rng = random.Random(seed)
            return game.simulate(region, f,
                                 lambda v, z: rng.choice((-1, 1)),
                                 game.PusherEngine(cert, region),
                                 origin_round + 1)

        def check(tr):
            if tr.outcome not in (("escaped",) if canonical
                                  else ("escaped", "left_window")):
                return False
            z = tr.initial
            for v, eps, after in tr.rounds:
                if z not in cert.rank or cert.rank[z][1] != v:
                    return False
                nxt = tuple(a + eps * b for a, b in zip(z, v))
                if nxt != after or (after in cert.rank
                                    and cert.rank[after][0]
                                    >= cert.rank[z][0]):
                    return False
                z = after
            if tr.outcome == "escaped":
                return not region.contains(z)
            return region.contains(z) and not cert.window.contains(z)

        def describe(tr):
            return {"game": "rank-pusher", "seed": seed,
                    "outcome": tr.outcome, "rounds": len(tr.rounds),
                    "final": list(tr.final)}

        cls = "game-canonical" if canonical else "game-random"
        return Op(cls, call, check, describe)

    def block(self, b):
        c = b % self.cycle_blocks
        rng = random.Random(self.game_seeds[c])
        ops = []
        for n, sweep in self.sweeps.items():
            per_block = self.cfg["canonical"][n]
            for j in range(b * per_block, (b + 1) * per_block):
                m = sweep[j % len(sweep)]
                expect = "chooser" if m >= self.m_crit[n] else "pusher"
                ops.append(self._verdict_op(
                    "canonical-n%d" % n, ("canonical", n, m),
                    self.canonical[n], game.GameRegion(n, (m,) * n), expect,
                    rng.randrange(2 ** 32)))
        for i, ((dim, is_verdict, _text, shape), f) in enumerate(
                zip(self.inputs[c], self.families[c])):
            if is_verdict:
                ops.append(self._verdict_op(
                    "verdict-%dd" % dim, ("random", c, i), f,
                    game.GameRegion(dim, shape), None,
                    rng.randrange(2 ** 32)))
            else:
                ops.append(self._window_op(
                    "window-%dd" % dim, ("random", c, i), f,
                    game.Window(*shape)))
        ops += self.witnesses.ops(b)
        random.Random(self.order_seeds[c]).shuffle(ops)
        return ops


# --- play: Chooser strategy construction, then games --------------------

class Play(Workload):
    """Setup builds Chooser's translate for each n (backtracking search
    for n <= 12, the partial-coloring pipeline for n = 14) and the m-set
    colorings; each timed operation is one game of a fresh ChooserEngine
    against a seeded RandomPusher."""

    name = "play"
    sizes = {
        "full": {"translate": (8, 12, 14), "coloring": (4, 6, 7),
                 # (n, rounds, games per block)
                 "games": ((8, 2000, 13), (12, 1000, 6), (14, 500, 1)),
                 "long": (8, 10 ** 5)},
        "tiny": {"translate": (4, 6, 8), "coloring": (2, 3),
                 "games": ((4, 200, 3), (6, 200, 2), (8, 100, 1)),
                 "long": (4, 2000)},
    }

    def __init__(self, seed, size="full"):
        super().__init__(seed, size)
        self.block_seeds = [self.rng.randrange(2 ** 32)
                            for _ in range(self.cycle_blocks)]
        self.long_seed = self.rng.randrange(2 ** 32)
        self.families = {n: core.canonical_family(n)
                         for n in self.cfg["translate"]}
        self.member_sets = {n: frozenset(f) for n, f in self.families.items()}

    def setup(self):
        self.translates = {}
        self.middle = {}
        for n in self.cfg["translate"]:
            self.translates[n] = balance.chooser_translate(n)
            # cached by chooser_translate; kept for the signed-sum gate
            self.middle[n] = balance.balance_middle_cached(n)
        self.colorings = {}
        for m in self.cfg["coloring"]:
            c = coloring.color_msets(m)
            self.colorings[m] = (c, coloring.verify_coloring(c))

    def setup_results(self):
        out = []
        for n, (t, s0, m) in sorted(self.translates.items()):
            f = self.families[n]
            pos = list(t)
            for v in s0:
                pos = [a + b for a, b in zip(pos, v)]
            peaks = [t[i] + sum(v[i] for v in f if v[i] > 0)
                     for i in range(n)]
            ok = (all(a == 0 for a in pos) and all(p <= m for p in peaks)
                  and m == threshold.critical_M(n).m_crit
                  and set(s0) <= self.member_sets[n])
            out.append(("translate-n%d" % n, ok,
                        {"translate": n, "M": m, "t": [str(a) for a in t],
                         "s0_size": len(s0)}))
        for n, (sa, defect) in sorted(self.middle.items()):
            total = [0] * n
            for v, s in zip(sa.family.members, sa.signs):
                total = [a + s * b for a, b in zip(total, v)]
            table = fixtures.format_sign_table(
                list(zip(sa.signs, sa.family.members)))
            out.append(("signs-n%d" % n, tuple(total) == tuple(defect),
                        {"signs": n, "defect": list(defect),
                         "table_sha256": _sha(table)}))
        for m, (c, rep) in sorted(self.colorings.items()):
            out.append(("coloring-m%d" % m, rep["ok"],
                        {"coloring": m, "defect": list(rep["defect"]),
                         "defect_class": rep["defect_class"],
                         "design_sha256": _sha(coloring.format_design(c))}))
        return out

    def _game_op(self, n, rounds, seed):
        f = self.families[n]
        t, s0, m = self.translates[n]
        region = game.GameRegion(n, (m,) * n)
        members = self.member_sets[n]

        def call():
            return game.simulate(region, f, game.ChooserEngine(f, t, s0),
                                 game.RandomPusher(f, seed=seed), rounds)

        def check(tr):
            if tr.outcome != "survived" or len(tr.rounds) != rounds:
                return False
            z = tr.initial
            for v, eps, after in tr.rounds:
                if v not in members or eps not in (-1, 1):
                    return False
                z = tuple(a + eps * b for a, b in zip(z, v))
                if z != after or max(z) > m:
                    return False
            return True

        def describe(tr):
            return {"n": n, "M": m, "seed": seed,
                    "rounds_played": len(tr.rounds), "outcome": tr.outcome,
                    "final": list(tr.final)}

        return Op("game-n%d" % n, call, check, describe)

    def prelude(self):
        n, rounds = self.cfg["long"]
        op = self._game_op(n, rounds, self.long_seed)
        op.cls = "long-game-n%d" % n
        return [op]

    def block(self, b):
        rng = random.Random(self.block_seeds[b % self.cycle_blocks])
        ops = [self._game_op(n, rounds, rng.randrange(2 ** 32))
               for n, rounds, count in self.cfg["games"]
               for _ in range(count)]
        rng.shuffle(ops)
        return ops


WORKLOADS = {w.name: w for w in (Solve, Play)}
