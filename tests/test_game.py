import random
from itertools import product

import pytest

from balgame import game
from balgame.balance import chooser_translate
from balgame.core import (PointSet, VectorFamily, canonical_family,
                          enumerate_psum, vadd, vsub, zero)
from balgame.game import (ChooserEngine, GameRegion, NoWinningMoveError,
                          PusherEngine, RandomPusher, Window, is_vclosed,
                          maximal_vclosed_subset, simulate, verdict)


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
    with pytest.raises(ValueError):
        eng.respond((5, 5))
    with pytest.raises(ValueError):
        ChooserEngine(f, (0, 0), [(1, 1), (-1, -1)])


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


def test_volume_limit():
    f = canonical_family(2)
    with pytest.raises(game.SizeLimitError):
        maximal_vclosed_subset(Window((-10, -10), (10, 10)), f,
                               volume_limit=100)


def test_window_family_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        maximal_vclosed_subset(Window((0, 0, 0), (1, 1, 1)),
                               canonical_family(2))


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


def test_kernel_matches_reference_fixed_point():
    rng = random.Random(2024)
    side = {1: 15, 2: 8, 3: 5, 4: 3}
    for _ in range(200):
        n = rng.randint(1, 4)
        k = rng.randint(1, 4)
        members = []
        while len(members) < k:
            v = tuple(rng.randint(-2, 2) for _ in range(n))
            if any(v) and v not in members:
                members.append(v)
        f = VectorFamily(n, tuple(members), strict=False)
        lo = tuple(rng.randint(-3, 1) for _ in range(n))
        hi = tuple(a + rng.randint(0, side[n]) for a in lo)
        cert = maximal_vclosed_subset(Window(lo, hi), f)
        safe, rank = reference_rounds(Window(lo, hi), f)
        assert cert.safe.points == safe
        assert cert.rank == rank
