import hashlib
import json
import random
from itertools import product

import pytest

from balgame import game
from balgame.balance import chooser_translate
from balgame.cli import main
from balgame.core import (DimensionError, PointSet, VectorFamily,
                          canonical_family, enumerate_psum, vadd, vsub, zero)
from balgame.game import (ChooserEngine, GameRegion, NoWinningMoveError,
                          PusherEngine, RandomPusher, Window, is_vclosed,
                          maximal_vclosed_subset, simulate, verdict)
from balgame.threshold import critical_M


def test_is_vclosed_psum():
    f = canonical_family(2)
    ok, viol = is_vclosed(enumerate_psum(f), f)
    assert ok and viol is None


def test_is_vclosed_singleton():
    f = canonical_family(2)
    ok, viol = is_vclosed(PointSet(2, frozenset({(0, 0)})), f)
    assert not ok
    assert viol == ((0, 0), (1, 1))


def test_is_vclosed_strip():
    # lattice strip 0 <= y - x <= 1 truncated to |k| <= 3: only boundary
    # points can violate closure under {e1, e2}
    f = VectorFamily(2, ((1, 0), (0, 1)), label="axes")
    pts = set()
    for k in range(-3, 4):
        pts.add((k, k))
        pts.add((k, k + 1))
    ok, viol = is_vclosed(PointSet(2, frozenset(pts)), f)
    assert not ok
    z, _v = viol
    assert max(abs(c) for c in z) >= 3
    # interior points satisfy the condition
    for z in pts:
        if max(abs(c) for c in z) < 3:
            for v in f.members:
                assert vadd(z, v) in pts or vsub(z, v) in pts


def test_maximal_vclosed_windows():
    f = canonical_family(2)
    cert1 = maximal_vclosed_subset(Window((-6, -6), (1, 1)), f)
    assert (0, 0) in cert1.safe
    cert0 = maximal_vclosed_subset(Window((-6, -6), (0, 0)), f)
    assert (0, 0) not in cert0.safe
    assert (0, 0) in cert0.rank


def test_maximal_vclosed_single_point():
    f = canonical_family(2)
    cert = maximal_vclosed_subset(Window((0, 0), (0, 0)), f)
    assert len(cert.safe) == 0


def test_safe_set_is_vclosed_within_window():
    f = canonical_family(2)
    cert = maximal_vclosed_subset(Window((-8, -8), (2, 2)), f)
    ok, _ = is_vclosed(cert.safe, f)
    assert ok


def test_fixed_point_maximality():
    # putting any deleted point back creates a violation
    f = canonical_family(2)
    cert = maximal_vclosed_subset(Window((-6, -6), (1, 1)), f)
    removed = sorted(cert.rank)[:100]
    for z in removed:
        again = cert.safe.points | {z}
        ok, viol = is_vclosed(PointSet(2, again), f)
        assert not ok


def test_window_monotonicity():
    f = canonical_family(2)
    small = maximal_vclosed_subset(Window((-5, -5), (1, 1)), f)
    big = maximal_vclosed_subset(Window((-8, -8), (1, 1)), f)
    # interior of the small window (one-member margin)
    for z in small.safe:
        if all(-4 <= c <= 0 for c in z):
            assert z in big.safe


def test_rank_witness_property():
    f = canonical_family(2)
    w = Window((-6, -6), (0, 0))
    cert = maximal_vclosed_subset(w, f)

    def dead_rank(z):
        if not w.contains(z):
            return 0
        if z in cert.rank:
            return cert.rank[z][0]
        return None  # alive

    for z, (rnd, v) in cert.rank.items():
        up, dn = dead_rank(vadd(z, v)), dead_rank(vsub(z, v))
        assert up is not None and dn is not None
        assert up < rnd and dn < rnd


def test_verdict_flip_n3():
    f = canonical_family(3)
    assert verdict(GameRegion(3, (1, 1, 1)), f).winner == "chooser"
    assert verdict(GameRegion(3, (0, 0, 0)), f).winner == "pusher"


@pytest.mark.parametrize("n,ms", [(2, range(0, 12)), (3, range(0, 16)),
                                  (4, (16,))])
def test_verdict_large_M_matches_critical_M(n, ms):
    # a large M puts the region bound far above the origin; the window
    # must still reach down to every translate of P(V) through it
    f = canonical_family(n)
    m_crit = critical_M(n).m_crit
    for m in ms:
        want = "chooser" if m >= m_crit else "pusher"
        assert verdict(GameRegion(n, (m,) * n), f).winner == want, (n, m)


def test_verdict_requires_origin():
    with pytest.raises(ValueError):
        verdict(GameRegion(2, (-1, -1)), canonical_family(2))


def test_verdict_document():
    v = verdict(GameRegion(2, (0, 0)), canonical_family(2))
    doc = v.as_dict()
    assert doc["verdict"] == "pusher"
    assert doc["origin_rank"] >= 1
    assert doc["strategy_sample"]


def test_chooser_engine_toggling():
    f = canonical_family(2)
    eng = ChooserEngine(f, (0, 0), ())
    v = (1, 1)
    assert eng.respond(v) == 1
    assert eng.subset == {v}
    assert eng.respond(v) == -1
    assert eng.subset == set()
    with pytest.raises(ValueError, match="subset member"):
        ChooserEngine(f, (0, 0), [(1, 1), (-1, -1)])


@pytest.mark.parametrize("s0", [(), ((1, 1),), ((1, 1), (1, -1))])
def test_chooser_engine_rejects_non_member(s0):
    # S is looked up first, so the family check must still run for a
    # vector outside S, whatever S holds
    f = canonical_family(2)
    eng = ChooserEngine(f, (0, 0), s0)
    for v in ((5, 5), (-1, -1), (1, 1, 1)):
        with pytest.raises(ValueError, match="not in family"):
            eng.respond(v)
        assert eng.subset == set(s0)


def test_chooser_engine_soundness():
    # every reachable position equals t + sum of the tracked subset
    n = 4
    f = canonical_family(n)
    t, s0, m = chooser_translate(n)
    eng = ChooserEngine(f, t, s0)
    region = GameRegion(n, (m,) * n)
    pu = RandomPusher(f, seed=7)
    z = zero(n)
    for _ in range(2000):
        v = pu.offer(z)
        eps = eng.respond(v)
        z = tuple(a + eps * b for a, b in zip(z, v))
        assert eng.position() == z
        assert region.contains(z)


def test_pusher_engine():
    f = canonical_family(2)
    region = GameRegion(2, (0, 0))
    res = verdict(region, f)
    eng = PusherEngine(res.certificate, region)
    v = eng.offer((0, 0))
    assert v in f.members
    safe_pt = next(iter(res.certificate.safe)) if res.certificate.safe else None
    if safe_pt is not None:
        with pytest.raises(NoWinningMoveError):
            eng.offer(safe_pt)
    assert eng.offer((5, 5)) is None  # already outside the region


def test_simulate_chooser_survives():
    n = 4
    f = canonical_family(n)
    t, s0, m = chooser_translate(n)
    tr = simulate(GameRegion(n, (m,) * n), f,
                  ChooserEngine(f, t, s0), RandomPusher(f, seed=3), 10 ** 4)
    assert tr.outcome == "survived"
    assert len(tr.rounds) == 10 ** 4


def test_simulate_pusher_drives_out():
    f = canonical_family(2)
    region = GameRegion(2, (0, 0))
    res = verdict(region, f)
    pu = PusherEngine(res.certificate, region)
    for chooser in (lambda v, z: 1, lambda v, z: -1):
        tr = simulate(region, f, chooser, pu, 200)
        assert tr.outcome in ("escaped", "left_window")


@pytest.mark.parametrize("eps", [0, 2, -2])
def test_simulate_rejects_other_answers(eps):
    f = canonical_family(2)
    with pytest.raises(ValueError, match="-1 or \\+1"):
        simulate(GameRegion(2, (1, 1)), f, lambda v, z: eps,
                 RandomPusher(f), 5)


def test_simulate_zero_rounds():
    f = canonical_family(2)
    tr = simulate(GameRegion(2, (1, 1)), f, lambda v, z: 1,
                  RandomPusher(f), 0)
    assert tr.rounds == []
    assert tr.final == (0, 0)


def test_transcript_consistency():
    f = canonical_family(3)
    t, s0, m = chooser_translate(3)
    tr = simulate(GameRegion(3, (m,) * 3), f, ChooserEngine(f, t, s0),
                  RandomPusher(f, seed=1), 500)
    z = tr.initial
    for v, eps, z_after in tr.rounds:
        z = vadd(z, tuple(eps * a for a in v))
        assert z == z_after


def test_volume_limit(monkeypatch):
    f = canonical_family(2)
    monkeypatch.setattr(game, "WINDOW_VOLUME_LIMIT", 100)
    with pytest.raises(game.SizeLimitError):
        maximal_vclosed_subset(Window((-10, -10), (10, 10)), f)


def test_work_limit(monkeypatch):
    # a 5 x 2 window padded by 2 to 9 x 6 cells: every cell is removed
    # in rounds 1-3, and round 4, which removes nothing, is the last
    f = VectorFamily(2, ((-2, 0), (0, 1), (-2, -1)))
    w = Window((0, 0), (4, 1))
    monkeypatch.setattr(game, "WORK_LIMIT", 4 * 54)
    assert len(maximal_vclosed_subset(w, f).rank) == 10
    monkeypatch.setattr(game, "WORK_LIMIT", 4 * 54 - 1)
    with pytest.raises(game.SizeLimitError, match="round 4 over 54 padded"):
        maximal_vclosed_subset(w, f)


def test_window_rejects_unequal_corners():
    with pytest.raises(DimensionError,
                       match="^window corners have dimensions 2 and 1$"):
        Window((0, 0), (1,))


def test_region_rejects_wrong_bound_count():
    with pytest.raises(DimensionError,
                       match="^region of dimension 3 has 2 upper bounds$"):
        GameRegion(3, (1, 1))


def test_window_family_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        maximal_vclosed_subset(Window((0, 0, 0), (1, 1, 1)),
                               canonical_family(2))


# longest window side per dimension for the reference comparisons
REFERENCE_SIDE = {1: 15, 2: 8, 3: 5, 4: 3}


def reference_rounds(window, f):
    """Naive synchronous fixed point on tuples: each round removes every
    live cell z that has a member v with z+v and z-v both dead at the
    start of the round, recording the first such v in family order."""
    alive = set(product(*(range(a, b + 1)
                          for a, b in zip(window.lo, window.hi))))
    rank = {}
    rnd = 0
    while True:
        rnd += 1
        gone = {}
        for z in alive:
            for v in f.members:
                if vadd(z, v) not in alive and vsub(z, v) not in alive:
                    gone[z] = (rnd, v)
                    break
        if not gone:
            return alive, rank
        alive -= gone.keys()
        rank.update(gone)


def assert_rank_order(cert):
    keys = [(rnd, cert.family.index(v), z)
            for z, (rnd, v) in cert.rank.items()]
    assert keys == sorted(keys)


def random_cases(seed, count):
    """Random windows of dimension 1 to 4 with up to four members of
    entries -2..2, as (family, window) pairs."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        members = []
        while len(members) < k:
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(v) and v not in members:
                members.append(v)
        f = VectorFamily(n, tuple(members), strict=False)
        lo = tuple(rng.randint(-3, 1) for _ in range(n))
        hi = tuple(a + rng.randint(0, REFERENCE_SIDE[n]) for a in lo)
        yield f, Window(lo, hi)


def assert_matches_reference(window, f):
    cert = maximal_vclosed_subset(window, f)
    safe, rank = reference_rounds(window, f)
    assert cert.safe.points == safe
    assert cert.rank == rank
    assert_rank_order(cert)
    return cert


def test_rank_table_decoded_on_first_read():
    f = canonical_family(3)
    res = verdict(GameRegion(3, (0, 0, 0)), f)
    cert = res.certificate
    assert res.winner == "pusher"
    window = maximal_vclosed_subset(Window((-6, -6), (1, 1)),
                                    canonical_family(2))
    for c in (cert, window):
        doc = c.as_dict()
        origin_safe = zero(c.window.dim) in c.safe
        size = len(c.safe)
        assert "rank" not in c.__dict__ and c.codes is not None
        rank = c.rank
        assert c.codes is None and c.rank is rank
        assert origin_safe == (c is window)
        assert doc["removed"] == len(rank) == c.window.volume() - size
    # the table is a plain dict, and a write to it persists
    z = next(iter(cert.rank))
    cert.rank[z] = (0, None)
    assert cert.rank[z] == (0, None)


def test_certificate_rounds():
    # the rounds that removed a cell, counted without decoding the table
    cases = list(random_cases(11, 60))
    cases.append((VectorFamily(2, ()), Window((0, 0), (2, 2))))
    for f, w in cases:
        cert = maximal_vclosed_subset(w, f)
        rounds = cert.rounds
        assert "rank" not in cert.__dict__
        assert rounds == max((r for r, _ in cert.rank.values()), default=0)
    assert rounds == 0 and len(cert.safe) == 9


@pytest.mark.parametrize("n", [2, 3, 4])
def test_removal_rounds_symmetric_under_coordinate_swaps(n):
    # the canonical family and the verdict cube are invariant under
    # permutations of the coordinates, so each cell's removal round is;
    # its member, the first in family order, need not be
    f = canonical_family(n)
    m_crit = critical_M(n).m_crit
    for m in (m_crit - 1, m_crit):
        cert = verdict(GameRegion(n, (m,) * n), f).certificate
        rounds = {z: r for z, (r, _v) in cert.rank.items()}
        assert rounds
        for i in range(n - 1):
            swapped = {z[:i] + (z[i + 1], z[i]) + z[i + 2:]: r
                       for z, r in rounds.items()}
            assert swapped == rounds


def test_kernel_matches_reference_fixed_point():
    for f, w in random_cases(2024, 200):
        assert_matches_reference(w, f)


@pytest.mark.parametrize("lane", game.LANES,
                         ids=["%d-bit" % lane[0] for lane in game.LANES])
def test_kernel_every_lane_width(monkeypatch, lane):
    # each lane width decodes the same codes, also where they need fewer
    # bits than the lane holds
    monkeypatch.setattr(game, "LANES", (lane,))
    for f, w in random_cases(7, 60):
        assert_matches_reference(w, f)


def test_kernel_two_byte_lanes():
    # 90 rounds of three members: codes up to 268 need two-byte lanes.
    # Digests recorded with the row-wise decoder.
    f = VectorFamily(2, ((-2, 0), (0, 1), (-2, -1)))
    cert = assert_matches_reference(Window((0, 0), (4, 89)), f)
    assert max((rnd - 1) * len(f) + f.index(v) + 1
               for rnd, v in cert.rank.values()) == 268
    assert (len(cert.safe), len(cert.rank)) == (268, 182)
    doc = json.dumps(cert.as_dict(), sort_keys=True)
    rank = repr(list(cert.rank.items()))
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "a8e805ef3b99ce2da241c544a12d0c351c10c4ab94e4951613e4ba2caf579e2b")
    assert hashlib.sha256(rank.encode()).hexdigest() == (
        "7d6b3534a0511c42a90c3dd03d176e8fe61b1193878d3009cd3ba908cbc4f831")


def test_kernel_matches_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @st.composite
    def cases(draw):
        n = draw(st.integers(1, 4))
        members = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n),
                                max_size=4, unique=True))
        lo = draw(st.tuples(*[st.integers(-3, 1)] * n))
        hi = tuple(a + draw(st.integers(0, REFERENCE_SIDE[n])) for a in lo)
        return members, lo, hi

    @hypothesis.settings(max_examples=200, deadline=None,
                         derandomize=True, database=None)
    @hypothesis.given(cases())
    # the decoder's edges: a 1-D window, a window one cell wide in the
    # innermost coordinate, an empty family (the whole window is safe),
    # a zero member, and entries of 3 (padding 3)
    @hypothesis.example(([(1,), (3,)], (-2,), (9,)))
    @hypothesis.example(([(1, 1, 0), (0, 1, 1), (1, 0, -1)],
                         (-1, -2, 0), (3, 2, 0)))
    @hypothesis.example(([], (-1, 0), (2, 3)))
    @hypothesis.example(([(0, 0), (1, -1), (1, 1)], (-3, -3), (2, 1)))
    @hypothesis.example(([(3, -2, 1), (-1, 3, 0)], (-2, -2, -2), (3, 3, 2)))
    def check(case):
        members, lo, hi = case
        w = Window(lo, hi)
        cert = assert_matches_reference(
            w, VectorFamily(len(lo), tuple(members), strict=False))
        if not members:
            assert len(cert.safe) == w.volume()

    check()


# sha256 of kernel output recorded with the per-cell decoder: the bytes
# `maximal` prints, and per canonical verdict its as_dict() JSON and its
# rank table in insertion order
PINNED_MAXIMAL = [
    ("dim 2\n1,1\n1,-1\n", "-6:0;-6:0", "--json",
     "85930c268db90ba2360d4671276710fc21039982f12b8a53e10267a9810e331d"),
    ("dim 2\n1,1\n1,-1\n", "-6:0;-6:0", "--dump",
     "c48da6b766d7a2b82476c1ede4397e6ff0ca78f71646e5fb74c50a259729d4cc"),
    ("dim 3\n1,0,1\n0,1,-1\n1,-1,1\n2,1,0\n", "-5:3;-4:4;-3:5", "--json",
     "de199b9e39ea8ba05564d456a7a49dae487f23b1d1cbd73a9acfe52a00b2ec83"),
    ("dim 3\n1,0,1\n0,1,-1\n1,-1,1\n2,1,0\n", "-5:3;-4:4;-3:5", "--dump",
     "b4bfce401d95bd86efc035cdc2036fae934f6ac78786e01d21ba44720c520f86"),
    ("dim 4\n1,0,1,-1\n0,1,1,1\n1,1,0,0\n1,-1,0,1\n",
     "-3:4;-4:3;-3:3;-2:4", "--json",
     "a5d890ad85cee4603a2b464df400e09b60731e5a45647753a73c833d4b30b879"),
    ("dim 4\n1,0,1,-1\n0,1,1,1\n1,1,0,0\n1,-1,0,1\n",
     "-3:4;-4:3;-3:3;-2:4", "--dump",
     "788b77d4f55cb2bfc920a7de0f4aeb00d875c3d3853c5713d929cd4a86fb5a3b"),
]

PINNED_VERDICTS = [
    (2, -1, "c17343d4586d24c02bd2ec79922d9929e1715e7f7da2373c5e76b5a7789b1f21",
     "566be3671b9b9936ad638923343eec96bb21368ed0a114be672b8e7bf7ccff35"),
    (2, 0, "fd0c5b5aab9ecdcae10f3c5caa4a05f7971bb9b28d701ac76e9a82f099a9a059",
     "9f2e3fdf35ed3b85293d7af4084cf19093af9e35ef58f65d3e966cb87672c311"),
    (3, -1, "2e181ef41a0eda06b31932f311721198799050c42a0c61bb646573dcfa00591b",
     "28b0fa50fea01a264847ce8030ada34ecaa61c429ff6f216175fda45744e5402"),
    (3, 0, "b07fd65263e397e74808ba10a2897631cb123fd060f2852770c33047bb5627be",
     "93181d521dc92e9e0fb9f1f2683486f3404b11e368760661b32a7ca1da9ec185"),
    (4, -1, "2bd5b5e6d7317b939871ead3144de7db0eb1007800de5109573b45ce4d81828e",
     "349187199f6bca5b0acdcf5678da7d29afe4390ce553001fedfc9fa292f2c4be"),
    (4, 0, "02180b56a9a3652ce8258d9b8a01f1f7517a64a172e344c83c927525d0f91d7c",
     "14c9a5065103c09dab5f435e1f488d624041ef20a7d488732587f6e163cddfad"),
]


@pytest.mark.parametrize("family,window,flag,digest", PINNED_MAXIMAL,
                         ids=["%dd%s" % (len(w.split(";")), flag)
                              for _, w, flag, _ in PINNED_MAXIMAL])
def test_maximal_output_pinned(capsys, tmp_path, family, window, flag,
                               digest):
    fam_path = tmp_path / "fam.txt"
    fam_path.write_text(family)
    assert main(["maximal", "--family", str(fam_path),
                 "--window=" + window, flag]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("n,dm,doc_digest,rank_digest", PINNED_VERDICTS,
                         ids=["n%d-M%+d" % (n, dm)
                              for n, dm, _, _ in PINNED_VERDICTS])
def test_verdict_output_pinned(n, dm, doc_digest, rank_digest):
    m = critical_M(n).m_crit + dm
    res = verdict(GameRegion(n, (m,) * n), canonical_family(n))
    doc = json.dumps(res.as_dict(), sort_keys=True)
    rank = repr(list(res.certificate.rank.items()))
    assert hashlib.sha256(doc.encode()).hexdigest() == doc_digest
    assert hashlib.sha256(rank.encode()).hexdigest() == rank_digest


def transcript_digest(tr):
    return hashlib.sha256((repr(tr.rounds) + tr.outcome).encode()).hexdigest()


# sha256 of repr(tr.rounds) + tr.outcome, recorded with the per-round
# generator loop: ChooserEngine on Chooser's translate against a seeded
# RandomPusher at M_crit, (n, seed, rounds, digest)
PINNED_CHOOSER_GAMES = [
    (3, 1, 2000,
     "2d71b990ef861988058aa20c2e7832954bcb6a9322140c22ef046e668d7a132f"),
    (3, 2, 2000,
     "7fc13419a87351214d7d7c5347bbc9b1f62eb04b739847c4e2953473c5e5530b"),
    (4, 1, 2000,
     "ae1806c93f1a7901c5b69739f0444dd8d4bbf8b56987ec0fd3e93597b2a22e11"),
    (4, 2, 2000,
     "00d4382cede41599ce7edc9cc0271cd4f5ee900a3c66769700752eeb6f558ba2"),
    (8, 1, 1000,
     "1f717309b90d49e8e57a35472452bf90070cf440d20c4cb36b84b097707f5043"),
    (8, 2, 1000,
     "0198dc37640fe3813f9c341f1c5d93a1aeb19022a21cacd3785fba586c2ede48"),
    (12, 1, 500,
     "9b54ef84d702dae407fb3bb17614165078c273f6dc49414d9631390e7d66e4be"),
    (12, 2, 500,
     "6b9707aac87aa5d0a11f7991e5ecbadf5d810d824b82631b6e4bc61a124914f9"),
]

# the rank Pusher at M_crit - 1 against a chooser answering +1, -1, or
# +1 exactly when z + v stays in the region: (n, chooser, rounds
# played, outcome, digest)
PINNED_PUSHER_GAMES = [
    (2, "+1", 1, "escaped",
     "8aaf5a319b6c0d8cdd15c221218b84c9d6ead7815a18d6e8dfd1e4ed126bbdae"),
    (2, "-1", 1, "escaped",
     "4693eb832760ba3484e931b0e6669d869d9fc6089bee4c5ee324e648d4893cb4"),
    (3, "+1", 1, "escaped",
     "4e2846d281179a32fd4ec33904f0781ec608688652932e536f8799457ed520a0"),
    (3, "-1", 1, "escaped",
     "291bf75ee13ee675ca01c3279f39b03b48fc9978ee16c7278a93c75a1d389f7b"),
    (4, "stay", 5, "escaped",
     "53ac6e42d1ec7f616149156b06430f008a4ee6c09260bbf91b1d9db216310798"),
]


@pytest.mark.parametrize("n,seed,rounds,digest", PINNED_CHOOSER_GAMES,
                         ids=["n%d-seed%d" % (n, seed)
                              for n, seed, _, _ in PINNED_CHOOSER_GAMES])
def test_chooser_game_pinned(n, seed, rounds, digest):
    f = canonical_family(n)
    t, s0, m = chooser_translate(n)
    tr = simulate(GameRegion(n, (m,) * n), f, ChooserEngine(f, t, s0),
                  RandomPusher(f, seed=seed), rounds)
    assert tr.outcome == "survived" and len(tr.rounds) == rounds
    assert transcript_digest(tr) == digest


@pytest.mark.parametrize("n,answer,played,outcome,digest",
                         PINNED_PUSHER_GAMES,
                         ids=["n%d-%s" % (n, a)
                              for n, a, _, _, _ in PINNED_PUSHER_GAMES])
def test_pusher_game_pinned(n, answer, played, outcome, digest):
    f = canonical_family(n)
    m = critical_M(n).m_crit - 1
    region = GameRegion(n, (m,) * n)
    choosers = {
        "+1": lambda v, z: 1,
        "-1": lambda v, z: -1,
        "stay": lambda v, z: 1 if region.contains(vadd(z, v)) else -1,
    }
    tr = simulate(region, f, choosers[answer],
                  PusherEngine(verdict(region, f).certificate, region), 200)
    assert (len(tr.rounds), tr.outcome) == (played, outcome)
    assert transcript_digest(tr) == digest
