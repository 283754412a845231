import hashlib
import json
import random
from fractions import Fraction
from itertools import product

import pytest

from balgame.core import (PointSet, VectorFamily, canonical_family,
                          enumerate_psum, vadd, vdot, vsub)
from balgame import lp, witness
from balgame.game import is_vclosed
from balgame.witness import (T_SIZE_LIMIT, NotApplicableError,
                             NotVClosedError, TheoremContradictionError,
                             exposed_normal, extreme_points,
                             in_convex_hull, random_vclosed,
                             translate_witness)

SUB3 = VectorFamily(3, canonical_family(3).members[:3], label="sub3")


def test_in_convex_hull_2d():
    sq = [(0, 0), (2, 0), (0, 2), (2, 2)]
    assert in_convex_hull(sq, (1, 1))
    assert in_convex_hull(sq, (2, 2))
    assert not in_convex_hull(sq, (3, 1))
    assert in_convex_hull(sq, (Fraction(1, 2), Fraction(3, 2)))


def test_in_convex_hull_lp_path():
    cube = [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    assert in_convex_hull(cube, (Fraction(1, 2),) * 3)
    assert not in_convex_hull(cube, (1, 1, 2))
    # degenerate: a segment in 3-space
    seg = [(0, 0, 0), (2, 2, 2)]
    assert in_convex_hull(seg, (1, 1, 1))
    assert not in_convex_hull(seg, (1, 1, 0))


def test_extreme_points_2d():
    ps = PointSet(2, frozenset({(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)}))
    assert extreme_points(ps) == [(0, 0), (0, 2), (2, 0), (2, 2)]


def test_extreme_points_lp_path():
    pts = {(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0)}
    ps = PointSet(3, frozenset(pts))
    got = extreme_points(ps)
    assert (1, 1, 0) not in got
    assert len(got) == 4


def test_exposed_normal():
    ps = PointSet(2, frozenset({(0, 0), (2, 0), (0, 2), (2, 2)}))
    a = exposed_normal(ps, (2, 2))
    assert a is not None
    for y in ps.points:
        if y != (2, 2):
            assert vdot(a, vsub((2, 2), y)) > 0
    with pytest.raises(ValueError):
        exposed_normal(ps, (5, 5))
    big = PointSet(1, frozenset((a,) for a in range(T_SIZE_LIMIT + 1)))
    with pytest.raises(ValueError, match="too large"):
        exposed_normal(big, (0,))


def test_exposed_normal_rejects_non_extreme():
    grid = PointSet(2, frozenset((a, b) for a in range(3) for b in range(3)))
    for x in ((1, 1), (1, 0), (0, 1)):  # interior, then two edge midpoints
        with pytest.raises(ValueError, match="not an extreme point"):
            exposed_normal(grid, x)
    assert exposed_normal(grid, (0, 0)) == (Fraction(-1), Fraction(-1))
    # agrees with the phase-one extremality test on every point
    t = random_vclosed(canonical_family(3), 2)
    extreme = set(extreme_points(t))
    for x in sorted(t.points):
        try:
            exposed_normal(t, x)
            got = True
        except ValueError:
            got = False
        assert got == (x in extreme), x


def test_exposed_normal_singleton():
    ps = PointSet(2, frozenset({(3, 4)}))
    assert exposed_normal(ps, (3, 4)) is not None


def test_translate_witness_psum():
    # T = P(V) itself: every extreme point admits a witness
    for n in (2, 3):
        f = canonical_family(n)
        t = enumerate_psum(f)
        for x in extreme_points(t):
            cert = translate_witness(t, f, x)
            assert cert.verified
            assert cert.replay()
            assert vadd(cert.translate, cert.vertex) == tuple(x)


def test_translate_witness_rejects_open_sets():
    f = canonical_family(2)
    bad = PointSet(2, frozenset({(0, 0), (1, 1)}))
    with pytest.raises(NotVClosedError):
        translate_witness(bad, f, (1, 1))


def test_translate_witness_shifted_union():
    f = canonical_family(2)
    base = enumerate_psum(f).points
    pts = set(base) | {vadd((3, 1), p) for p in base}
    ok, _ = is_vclosed(pts, f)
    assert ok
    t = PointSet(2, frozenset(pts))
    for x in extreme_points(t):
        cert = translate_witness(t, f, x)
        assert cert.verified


def test_translate_witness_noncanonical_family():
    f = VectorFamily(2, ((1, 0), (0, 1)), label="axes")
    t = enumerate_psum(f)
    for x in extreme_points(t):
        cert = translate_witness(t, f, x)
        assert cert.verified


def test_certificate_document():
    f = canonical_family(2)
    t = enumerate_psum(f)
    x = extreme_points(t)[0]
    doc = translate_witness(t, f, x).as_dict()
    assert doc["verified"]
    assert doc["x"] == list(x)
    assert doc["T_size"] == len(t)


def test_replay_detects_tampering():
    f = canonical_family(2)
    t = enumerate_psum(f)
    cert = translate_witness(t, f, extreme_points(t)[0])
    cert.translate = vadd(cert.translate, (1, 0))
    assert not cert.replay()


def count_hull_calls(monkeypatch):
    """Record the query point of every witness.in_convex_hull call."""
    calls = []
    orig = witness.in_convex_hull

    def counting(points, q):
        calls.append(tuple(q))
        return orig(points, q)

    monkeypatch.setattr(witness, "in_convex_hull", counting)
    return calls


def test_translate_witness_answers_points_of_t_without_lp(monkeypatch):
    # on a union of translates of P(V) every translate point is in T
    calls = count_hull_calls(monkeypatch)
    certs = 0
    for f, seeds in ((canonical_family(2), range(4)), (SUB3, range(3)),
                     (canonical_family(3), range(2))):
        for seed in seeds:
            t = random_vclosed(f, seed)
            for x in extreme_points(t):
                cert = translate_witness(t, f, x)
                assert cert.verified
                certs += 1
    assert certs > 50
    assert calls == []


def test_translate_witness_lp_runs_for_points_outside_t(monkeypatch):
    # a shifted vertex moves the translate off T: the LP then decides
    # exactly the translate points outside T, and one outside conv T
    # still contradicts the theorem
    calls = count_hull_calls(monkeypatch)
    orig_vertex = witness.zonotope_vertex
    outcomes = set()
    f2 = canonical_family(2)
    base = enumerate_psum(f2).points
    pair = PointSet(2, base | {vadd((2, 0), p) for p in base})
    for f, t in ((f2, pair), (SUB3, random_vclosed(SUB3, 1))):
        hull_pts = sorted(t.points)
        for x in extreme_points(t):
            for shift in product(range(-2, 3), repeat=f.dim):
                monkeypatch.setattr(
                    witness, "zonotope_vertex",
                    lambda f, a, s=shift: vadd(orig_vertex(f, a), s))
                p = vadd(orig_vertex(f, exposed_normal(t, x)), shift)
                outside = {vadd(vsub(x, p), u) for u in enumerate_psum(f)
                           if vadd(vsub(x, p), u) not in t.points}
                del calls[:]
                try:
                    translate_witness(t, f, x)
                    escaped = False
                except TheoremContradictionError:
                    escaped = True
                # no point of T goes to the LP, and no point twice
                assert len(set(calls)) == len(calls)
                assert set(calls) <= outside
                inside = [lp.feasible_combination(hull_pts, q) is not None
                          for q in calls]
                if escaped:
                    assert inside == [True] * (len(calls) - 1) + [False]
                    outcomes.add("escaped")
                else:
                    assert set(calls) == outside and all(inside)
                    outcomes.add("inside" if outside else "in T")
    assert outcomes == {"escaped", "inside", "in T"}


def test_replay_runs_its_own_lp(monkeypatch):
    f = canonical_family(3)
    t = random_vclosed(f, 0)
    cert = translate_witness(t, f, extreme_points(t)[0])
    calls = count_hull_calls(monkeypatch)
    assert cert.replay()
    psum = enumerate_psum(f)
    assert len(calls) == len(psum)
    assert set(calls) == {vadd(cert.translate, u) for u in psum}


def test_random_vclosed_properties():
    f = canonical_family(2)
    for seed in range(10):
        t = random_vclosed(f, seed)
        ok, _ = is_vclosed(t, f)
        assert ok
        assert len(t) >= len(enumerate_psum(f))


def test_random_vclosed_reproducible():
    f = canonical_family(3)
    assert random_vclosed(f, 5).points == random_vclosed(f, 5).points


def test_witness_sweep_seeded():
    # the exposed normal is strict for every member with no perturbation
    for f, seeds in ((canonical_family(2), range(5)), (SUB3, range(3)),
                     (canonical_family(3), range(2))):
        for seed in seeds:
            t = random_vclosed(f, seed)
            for x in extreme_points(t):
                a = exposed_normal(t, x)
                assert a is not None
                assert all(vdot(a, v) != 0 for v in f), (f.label, seed, x)


def test_translate_witness_zero_member_not_applicable():
    f = VectorFamily(2, ((1, 1), (1, -1), (0, 0)), label="zero",
                     strict=False)
    t = enumerate_psum(f)
    for x in extreme_points(t):
        with pytest.raises(NotApplicableError):
            translate_witness(t, f, x)


# sha256 of the sorted-key JSON list of as_dict() over extreme_points(T),
# T = random_vclosed(family, seed); recorded with the earlier hull code
# (planar monotone chain, paired-inequality LP, perturbed normals)
PINNED_CERTIFICATES = [
    (canonical_family(2), 0,
     "a68859babca6643705d038402fa24ec8007721655989c4178092ee44df4b845e"),
    (canonical_family(2), 5,
     "62660c5ecb341917bde98e0efe2f5f443cdaa51dcd84ca83c8221db5fb1b4204"),
    (SUB3, 0,
     "dc5e97d528690a8870de06d18c0cb179254779785cd5a95ffb9fdacfb21f92a5"),
    (SUB3, 1,
     "352ea33d1ef0ddb561c634a6a94dfc2c4fde1324bebfab4294d6818b6c204eda"),
    (canonical_family(3), 1,
     "c4449e2d01c5a53a7f82f4c2da30d625ed7d750f346b56de677924cc84b278c9"),
]


@pytest.mark.parametrize("f,seed,digest", PINNED_CERTIFICATES,
                         ids=["%s-%d" % (f.label, seed)
                              for f, seed, _ in PINNED_CERTIFICATES])
def test_certificates_pinned(f, seed, digest):
    t = random_vclosed(f, seed)
    docs = [translate_witness(t, f, x).as_dict() for x in extreme_points(t)]
    got = hashlib.sha256(json.dumps(docs, sort_keys=True).encode())
    assert got.hexdigest() == digest


def reference_maximal_vclosed_in(points, f):
    """Greatest V-closed subset of an explicit finite point set, by
    sequential sweeps in sorted order until nothing changes."""
    alive = set(points)
    changed = True
    while changed:
        changed = False
        for z in sorted(alive):
            if any(vadd(z, v) not in alive and vsub(z, v) not in alive
                   for v in f):
                alive.discard(z)
                changed = True
    return alive


def translate_union(f, seed):
    """The union of translates of P(V) that random_vclosed(f, seed)
    starts from."""
    rng = random.Random(seed)
    base = sorted(enumerate_psum(f).points)
    pts = set()
    for _ in range(rng.randint(1, 3)):
        off = tuple(rng.randint(-4, 4) for _ in range(f.dim))
        pts.update(vadd(off, p) for p in base)
    return pts


FAMILIES = [canonical_family(2), canonical_family(3),
            VectorFamily(2, ((1, 0), (0, 1), (1, 2)), label="skew"),
            # sparse: 8 points spread over a box of about 10^9 cells
            VectorFamily(3, ((500, 0, 0), (0, 500, 0), (0, 0, 500)),
                         label="sparse")]


def test_random_vclosed_matches_reference():
    for f in FAMILIES:
        for seed in range(20):
            want = reference_maximal_vclosed_in(translate_union(f, seed), f)
            assert random_vclosed(f, seed).points == want

