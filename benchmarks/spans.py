"""In-memory span tracer for the balgame benchmark's traced run.

`Tracer.installed()` replaces each public library function listed in
TARGETS by a wrapper, in every balgame module that binds it by name, and
each listed method on its class; leaving the block restores the
originals.  A span is (name, start, end, parent span, operation id),
kept in compact arrays and written out by `write()`.  `metrics()` turns
the spans and the per-call counts into the per-layer metrics.

Self time is a span's duration minus the durations of its child spans;
the benchmark is single-threaded, so children never overlap.
"""

import gzip
import sys
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

from balgame import balance


def _maximal(args, kwargs, res):
    rounds = max((r for r, _v in res.rank.values()), default=0)
    return {"cells": args[0].volume(), "deleted": len(res.rank),
            "rounds": rounds}


def _simplex(args, kwargs, res):
    # constraint rows plus objective, by structural + slack columns + rhs
    c, a_ub = args[0], args[1]
    return {"tableau_cells": (len(a_ub) + 1) * (len(c) + len(a_ub) + 1)}


# (span name, module, attribute path, counts from (args, kwargs, result))
TARGETS = [
    ("game.maximal_vclosed_subset", "balgame.game", "maximal_vclosed_subset",
     _maximal),
    ("game.verdict", "balgame.game", "verdict", None),
    ("game.PusherEngine.offer", "balgame.game", "PusherEngine.offer", None),
    ("game.is_vclosed", "balgame.game", "is_vclosed",
     lambda a, k, r: {"points": len(a[0])}),
    ("game.ChooserEngine.init", "balgame.game", "ChooserEngine.__init__",
     None),
    ("game.ChooserEngine.respond", "balgame.game", "ChooserEngine.respond",
     None),
    ("game.RandomPusher.offer", "balgame.game", "RandomPusher.offer", None),
    ("game.simulate", "balgame.game", "simulate",
     lambda a, k, r: {"rounds": len(r.rounds)}),
    ("balance.chooser_translate", "balgame.balance", "chooser_translate",
     None),
    ("balance.balance_middle", "balgame.balance", "balance_middle", None),
    ("balance.search_signs", "balgame.balance", "search_signs", None),
    ("balance.partial_color", "balgame.balance", "partial_color",
     lambda a, k, r: {"vectors": len(a[0])}),
    ("balance.greedy_pairs", "balgame.balance", "greedy_pairs", None),
    ("balance.express_in_pairs", "balgame.balance", "express_in_pairs", None),
    ("coloring.color_msets", "balgame.coloring", "color_msets", None),
    ("coloring.verify_coloring", "balgame.coloring", "verify_coloring", None),
    ("witness.random_vclosed", "balgame.witness", "random_vclosed", None),
    ("witness.extreme_points", "balgame.witness", "extreme_points", None),
    ("witness.translate_witness", "balgame.witness", "translate_witness",
     lambda a, k, r: {"verified": int(r.verified)}),
    ("witness.exposed_normal", "balgame.witness", "exposed_normal", None),
    ("witness.in_convex_hull", "balgame.witness", "in_convex_hull", None),
    ("lp.simplex_max", "balgame.lp", "simplex_max", _simplex),
    ("lp.feasible_combination", "balgame.lp", "feasible_combination",
     lambda a, k, r: {"feasible": int(r is not None)}),
    ("core.enumerate_psum", "balgame.core", "enumerate_psum",
     lambda a, k, r: {"points": len(r)}),
    ("core.zonotope_vertex", "balgame.core", "zonotope_vertex", None),
]

# (metric name, unit); the per_layer list of BENCHMARK.json
LAYER_METRICS = [
    ("game.maximal_vclosed_subset.calls", "count"),
    ("game.maximal_vclosed_subset.cells", "count"),
    ("game.maximal_vclosed_subset.deleted", "count"),
    ("game.maximal_vclosed_subset.rounds", "count"),
    ("game.maximal_vclosed_subset.self_s", "s"),
    ("game.maximal_vclosed_subset.cells_per_s", "1/s"),
    ("game.verdict.calls", "count"),
    ("game.verdict.self_s", "s"),
    ("game.PusherEngine.offer.calls", "count"),
    ("game.PusherEngine.offer.self_s", "s"),
    ("game.is_vclosed.calls", "count"),
    ("game.is_vclosed.points", "count"),
    ("game.is_vclosed.self_s", "s"),
    ("game.ChooserEngine.init.calls", "count"),
    ("game.ChooserEngine.init.self_s", "s"),
    ("game.ChooserEngine.respond.calls", "count"),
    ("game.ChooserEngine.respond.self_s", "s"),
    ("game.RandomPusher.offer.self_s", "s"),
    ("game.simulate.calls", "count"),
    ("game.simulate.rounds", "count"),
    ("game.simulate.self_s", "s"),
    ("balance.chooser_translate.self_s", "s"),
    ("balance.balance_middle.calls", "count"),
    ("balance.balance_middle.self_s", "s"),
    ("balance.search_signs.calls", "count"),
    ("balance.search_signs.failed", "count"),
    ("balance.search_signs.self_s", "s"),
    ("balance.partial_color.calls", "count"),
    ("balance.partial_color.vectors", "count"),
    ("balance.partial_color.self_s", "s"),
    ("balance.greedy_pairs.self_s", "s"),
    ("balance.express_in_pairs.self_s", "s"),
    ("coloring.color_msets.self_s", "s"),
    ("coloring.verify_coloring.self_s", "s"),
    ("witness.random_vclosed.self_s", "s"),
    ("witness.extreme_points.calls", "count"),
    ("witness.extreme_points.self_s", "s"),
    ("witness.translate_witness.calls", "count"),
    ("witness.translate_witness.verified_frac", "frac"),
    ("witness.translate_witness.self_s", "s"),
    ("witness.exposed_normal.calls", "count"),
    ("witness.exposed_normal.self_s", "s"),
    ("witness.in_convex_hull.planar_calls", "count"),
    ("witness.in_convex_hull.lp_calls", "count"),
    ("witness.in_convex_hull.self_s", "s"),
    ("lp.simplex_max.calls", "count"),
    ("lp.simplex_max.tableau_cells", "count"),
    ("lp.simplex_max.self_s", "s"),
    ("lp.feasible_combination.calls", "count"),
    ("lp.feasible_combination.feasible_frac", "frac"),
    ("core.enumerate_psum.calls", "count"),
    ("core.enumerate_psum.points", "count"),
    ("core.enumerate_psum.self_s", "s"),
    ("core.zonotope_vertex.self_s", "s"),
    ("trace.overhead_frac", "frac"),
]


class Tracer:
    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.op_id = -1
        self.counts = defaultdict(int)  # (span name, quantity) -> total
        self.t0 = time.perf_counter()

    def _wrap(self, nid, fn, count):
        name = self.names[nid]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.op.append(self.op_id)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                res = fn(*args, **kwargs)
            except balance.UnsatisfiableError:
                self.counts[name, "failed"] += 1
                raise
            finally:
                self.end[idx] = clock()
                self.stack.pop()
                self.counts[name, "calls"] += 1
            if count is not None:
                for key, val in count(args, kwargs, res).items():
                    self.counts[name, key] += val
            return res

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        mods = [m for k, m in sorted(sys.modules.items())
                if k == "balgame" or k.startswith("balgame.")]
        try:
            for nid, (_name, modname, path, count) in enumerate(TARGETS):
                owner = sys.modules[modname]
                *cls_path, attr = path.split(".")
                for part in cls_path:
                    owner = getattr(owner, part)
                orig = getattr(owner, attr)
                wrapper = self._wrap(nid, orig, count)
                holders = [owner] if cls_path else \
                    [m for m in mods if getattr(m, attr, None) is orig]
                for h in holders:
                    saved.append((h, attr, orig))
                    setattr(h, attr, wrapper)
            yield self
        finally:
            for h, attr, orig in reversed(saved):
                setattr(h, attr, orig)

    def self_times(self):
        """Per span name: total self time in seconds."""
        child = [0.0] * len(self.start)
        lp_child = set()
        lp_id = self.names.index("lp.feasible_combination")
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
                if self.name_id[i] == lp_id:
                    lp_child.add(p)
        out = defaultdict(float)
        for i, nid in enumerate(self.name_id):
            out[self.names[nid]] += self.end[i] - self.start[i] - child[i]
        return out, lp_child

    def metrics(self, overhead_frac):
        """The per-layer metrics, every name of LAYER_METRICS."""
        selfs, lp_child = self.self_times()
        hull_id = self.names.index("witness.in_convex_hull")
        hull = [i for i, nid in enumerate(self.name_id) if nid == hull_id]
        lp_calls = sum(1 for i in hull if i in lp_child)
        derived = {
            "witness.in_convex_hull.lp_calls": lp_calls,
            "witness.in_convex_hull.planar_calls": len(hull) - lp_calls,
            "trace.overhead_frac": overhead_frac,
        }
        out = {}
        for metric, unit in LAYER_METRICS:
            span, quantity = metric.rsplit(".", 1)
            calls = self.counts.get((span, "calls"), 0)
            if metric in derived:
                value = derived[metric]
            elif quantity == "self_s":
                value = selfs.get(span, 0.0)
            elif quantity == "cells_per_s":
                s = selfs.get(span, 0.0)
                value = self.counts.get((span, "cells"), 0) / s if s else 0.0
            elif quantity.endswith("_frac"):
                hits = self.counts.get((span, quantity[:-5]), 0)
                value = hits / calls if calls else 0.0
            else:
                value = self.counts.get((span, quantity), 0)
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path):
        """Spans as gzip'd TSV: name, start, end (s since the tracer was
        made), parent span index, operation id (-1 for setup)."""
        with gzip.open(path, "wt") as fh:
            fh.write("span\tname\tstart\tend\tparent\top\n")
            for i, nid in enumerate(self.name_id):
                fh.write("%d\t%s\t%.9f\t%.9f\t%d\t%d\n"
                         % (i, self.names[nid], self.start[i] - self.t0,
                            self.end[i] - self.t0, self.parent[i],
                            self.op[i]))
