"""Self-checks of the benchmark, on tiny inputs:

    PYTHONPATH=src python -m pytest -q benchmarks
"""

import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from balgame import core, game  # noqa: E402
from balgame.core import SignAssignment  # noqa: E402

NAMES = sorted(workloads.WORKLOADS)


def tiny(name, seed=1):
    w = workloads.WORKLOADS[name](seed, "tiny")
    w.setup()
    return w


def bench(name, trace, env=None):
    """A tiny run in a fresh interpreter: (result line, meta record)."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        capture_output=True, text=True, check=True, cwd=ROOT,
        env=dict(os.environ, **(env or {})), timeout=120)
    lines = out.stdout.splitlines()
    meta = next(ln for ln in lines if ln.startswith("meta "))
    return json.loads(lines[-1]), json.loads(meta[5:])


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_passes_gate(name):
    w = tiny(name)
    r = run.Runner(w)
    for label, ok, doc in w.setup_results():
        r.gate(label, ok, doc)
    r.timed_phase(0, after_block=lambda busy: None)
    assert r.failures == []
    assert len(r.latencies) >= w.cycle_blocks


def test_dropped_safe_point_is_a_failure():
    w = tiny("solve")
    op = next(op for op in w.block(0) if op.cls.startswith("canonical"))
    good = op.call
    assert op.check(good())

    def corrupted():
        res = good()
        cert = res.certificate
        pts = set(cert.safe.points)
        pts.discard(max(pts))
        cert.safe = core.PointSet(cert.safe.dim, frozenset(pts))
        return res

    op.call = corrupted
    r = run.Runner(w)
    r.run_op(op, record=True)
    assert (r.attempted, r.failed) == (1, 1)


def test_flipped_sign_is_a_failure():
    w = tiny("play")
    assert all(ok for _label, ok, _doc in w.setup_results())
    n = max(w.middle)
    sa, defect = w.middle[n]
    signs = list(sa.signs)
    signs[0] = -signs[0]
    w.middle[n] = (SignAssignment(sa.family, tuple(signs)), defect)
    r = run.Runner(w)
    for label, ok, doc in w.setup_results():
        r.gate(label, ok, doc)
    assert r.failures == ["signs-n%d" % n]


def test_escaping_game_is_a_failure():
    w = tiny("play")
    op = w.block(0)[0]
    tr = op.call()
    assert op.check(tr)
    v, eps, after = tr.rounds[-1]
    tr.rounds[-1] = (v, -eps, after)
    assert not op.check(tr)


def test_tampered_witness_is_a_failure():
    w = tiny("solve")
    op = next(op for op in w.block(0) if op.cls.startswith("witness"))
    cert = op.call()
    assert op.check(cert)
    cert.translate = tuple(a + 1 for a in cert.translate)
    assert not op.check(cert)


def test_closure_gate_rejects_a_wrong_rank_record():
    f = core.canonical_family(3)
    cert = game.verdict(game.GameRegion(3, (0, 0, 0)), f).certificate
    assert workloads.closure_ok(cert, f.members)
    z, (rnd, v) = max(cert.rank.items(), key=lambda kv: kv[1][0])
    cert.rank[z] = (1, v)
    assert not workloads.closure_ok(cert, f.members)


@pytest.mark.parametrize("name", NAMES)
def test_traced_digest_equals_untraced(name):
    plain, plain_meta = bench(name, 0)
    traced, traced_meta = bench(name, 1)
    assert plain["correct"] and traced["correct"]
    assert plain_meta["digest_sha256"] == traced_meta["digest_sha256"]


@pytest.mark.parametrize("name", NAMES)
def test_traced_counts_repeat_across_hash_seeds(name):
    units = dict(spans.LAYER_METRICS)
    counts = []
    for hashseed in ("0", "1"):
        res, _meta = bench(name, 1, {"PYTHONHASHSEED": hashseed})
        assert res["correct"]
        assert set(res["metrics"]) == set(units)
        counts.append({k: m["value"] for k, m in res["metrics"].items()
                       if units[k] in ("count", "frac")
                       and k != "trace.overhead_frac"})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        spans.LAYER_METRICS
    assert sorted(w["name"] for w in spec["workloads"]) == NAMES
    w = tiny("solve")
    args = SimpleNamespace(trace=0, seconds=0, size="tiny",
                           workload="solve", seed=1)
    res = run.run(w, args)
    assert {(k, m["unit"]) for k, m in res["metrics"].items()} == \
        {(m["name"], m["unit"]) for m in spec["end_to_end"]}


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "solve",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
