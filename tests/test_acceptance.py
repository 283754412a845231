"""Acceptance gate: one pass/fail line per criterion, run with -s to
see them.  Each criterion carries its own runtime budget, asserted."""

import time

from balgame.balance import balance_middle_cached, chooser_translate
from balgame.coloring import color_msets, verify_coloring
from balgame.core import (canonical_family, enumerate_psum, smul, vadd,
                          zero, VectorFamily)
from balgame.game import ChooserEngine, GameRegion, RandomPusher, simulate
from balgame.threshold import (critical_M, cross_validate,
                               half_central_parity, is_power_of_two,
                               r_direct, r_value)
from balgame.witness import (NotApplicableError, extreme_points,
                             random_vclosed, translate_witness)

from sign_tables import TABLE_W, fixture_rows


def report(num, name, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print("criterion %2d %-28s %s  (%.1fs / budget %ds)"
          % (num, name, status, elapsed, budget))
    assert ok, "criterion %d (%s) failed" % (num, name)
    assert elapsed < budget, "criterion %d over budget: %.1fs" % (num, elapsed)


def test_criterion_01_thresholds():
    t0 = time.monotonic()
    want = {2: 1, 3: 1, 4: 3, 5: 5, 6: 11, 7: 22, 8: 47, 10: 193}
    ok = all(critical_M(n).m_crit == m for n, m in want.items())
    report(1, "threshold formulas", ok, time.monotonic() - t0, 1)


def test_criterion_02_verdict_flip():
    t0 = time.monotonic()
    ok = all(cross_validate(n, margin=2)["flip_exact"] for n in (2, 3, 4))
    report(2, "brute-force determinacy", ok, time.monotonic() - t0, 60)


def test_criterion_03_r_identity():
    t0 = time.monotonic()
    ok = (r_value(3) == 5 and r_value(4) == 10
          and all(r_value(n) == r_direct(canonical_family(n))
                  for n in range(2, 13)))
    report(3, "r-identity", ok, time.monotonic() - t0, 1)


def test_criterion_04_parity():
    t0 = time.monotonic()
    ok = all(half_central_parity(n)
             == ("odd" if is_power_of_two(n) else "even")
             for n in range(2, 2049, 2))
    report(4, "half-binomial parity", ok, time.monotonic() - t0, 1)


def test_criterion_05_middle_balance():
    t0 = time.monotonic()
    ok = True
    for n in (4, 6, 8, 10, 12):
        sa, defect = balance_middle_cached(n)
        if is_power_of_two(n):
            ok = (ok and sorted(defect).count(3) == n // 4
                  and sorted(defect).count(-1) == 3 * n // 4)
        else:
            ok = ok and defect == zero(n)
        ok = ok and sa.signed_sum() == defect
    small_elapsed = time.monotonic() - t0
    for n in (14, 16):
        sa, defect = balance_middle_cached(n)
        if is_power_of_two(n):
            ok = (ok and sorted(defect).count(3) == n // 4
                  and sorted(defect).count(-1) == 3 * n // 4)
        else:
            ok = ok and defect == zero(n)
        ok = ok and sa.signed_sum() == defect
    ok = ok and small_elapsed < 10
    report(5, "middle-layer balance", ok, time.monotonic() - t0, 300)


def test_criterion_06_fixture_regression():
    t0 = time.monotonic()
    ok = True
    for n in (4, 6, 8, 10, 12):
        rows = fixture_rows(n)
        total = zero(n)
        for s, v in rows:
            total = vadd(total, smul(s, v))
        want = smul(2, TABLE_W[n]) if n in TABLE_W else zero(n)
        ok = ok and total == want
        table = {v: s for s, v in rows}
        ok = ok and all(table[tuple(-a for a in v)] == -s
                        for v, s in table.items())
    report(6, "bundled table regression", ok, time.monotonic() - t0, 10)


def test_criterion_07_chooser_construction():
    t0 = time.monotonic()
    ok = True
    for n in range(2, 13):
        t, s0, m = chooser_translate(n)
        pos = t
        for v in s0:
            pos = vadd(pos, v)
        ok = ok and all(a == 0 for a in pos)
        f = canonical_family(n)
        if n <= 5:
            ok = ok and all(
                all(a <= m for a in vadd(t, u)) for u in enumerate_psum(f))
        else:
            peaks = [t[i] + sum(v[i] for v in f if v[i] > 0)
                     for i in range(n)]
            ok = ok and all(p <= m for p in peaks)
    report(7, "chooser translate", ok, time.monotonic() - t0, 120)


def test_criterion_08_survival():
    t0 = time.monotonic()
    ok = True
    for n in (4, 8, 12, 16):
        f = canonical_family(n)
        t, s0, m = chooser_translate(n)
        tr = simulate(GameRegion(n, (m,) * n), f, ChooserEngine(f, t, s0),
                      RandomPusher(f, seed=n), 10 ** 5)
        ok = ok and tr.outcome == "survived" and len(tr.rounds) == 10 ** 5
    report(8, "survival simulation", ok, time.monotonic() - t0, 120)


def test_criterion_09_witness_suite():
    t0 = time.monotonic()
    f2 = canonical_family(2)
    f3 = canonical_family(3)
    f3sub = VectorFamily(3, f3.members[:3], label="sub3")
    plan = [(f2, range(60)), (f3sub, range(20)), (f3, range(20))]
    instances = 0
    verified = 0
    contradictions = 0
    for fam, seeds in plan:
        for seed in seeds:
            t = random_vclosed(fam, seed)
            instances += 1
            for x in extreme_points(t):
                try:
                    cert = translate_witness(t, fam, x)
                except NotApplicableError:
                    continue
                except AssertionError:
                    contradictions += 1
                    continue
                if cert.verified:
                    verified += 1
    ok = instances == 100 and contradictions == 0 and verified > 0
    report(9, "translate witness suite", ok, time.monotonic() - t0, 300)


def test_criterion_10_colorings():
    t0 = time.monotonic()
    ok = True
    for m in range(2, 9):
        rep = verify_coloring(color_msets(m))
        ok = ok and rep["ok"] and rep["mod4_constant"]
        want = "power-of-2 pattern" if m in (2, 4, 8) else "balanced"
        ok = ok and rep["defect_class"] == want
    report(10, "m-set colorings", ok, time.monotonic() - t0, 300)
