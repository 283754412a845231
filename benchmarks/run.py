"""Closed-loop benchmark for balgame: one client, one thread, one process.

    python3 benchmarks/run.py --workload solve|play --seed N \
        --seconds S --trace 0|1 [--size full|tiny]

Run it from the repository root; it imports the library from `src/`.
Each run starts in a fresh interpreter, so module caches
(`balance._BALANCE_CACHE`, `witness._EXTREME_CACHE`) and peak memory never
carry over from an earlier run.

--trace 0 measures the end-to-end metrics.  Setup runs once here and,
cold, in child processes (SETUP_SAMPLES); setup_s is the median.
Then blocks of operations run, each operation started only when the
previous one has finished, until the operations have taken --seconds
seconds and at least one full cycle of blocks has run.

--trace 1 gives the per-layer metrics instead: setup runs traced, then
one cycle runs untraced and the same cycle traced, block by block in
turn; the traced counts therefore repeat exactly, and
trace.overhead_frac compares the two passes.

Every operation's result is checked outside the timed region.  The last
line of standard output is the result as one JSON object; a digest of
the results users see, the run metadata and (traced) the spans are
written under benchmarks/out/.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
# setup_s is the median of 3 to 9 cold setups, enough to add up to about
# SETUP_SAMPLE_S: one in this process and the rest in child processes,
# spread over the timed phase so that they meet the machine in the same
# mix of states as the operations do
SETUP_SAMPLES = (3, 9)
SETUP_SAMPLE_S = 1.0


def git_sha():
    """HEAD's commit from .git, or None outside a git checkout."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


class Runner:
    """Runs operations in a closed loop, timing only `Op.call`, then
    gating and digesting each result."""

    def __init__(self, workload):
        self.w = workload
        self.tracer = None        # a spans.Tracer while tracing
        self.latencies = []       # seconds, one per timed operation
        self.classes = []         # operation class, parallel to latencies
        self.block_times = []     # (operations, busy seconds) per block
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.digest = []          # JSON lines, first cycle only
        self.verified = {}        # Op.key -> fingerprint of a checked result

    def gate(self, label, ok, doc=None, record=True):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(label)
        if record and doc is not None:
            self.digest.append(json.dumps(doc, sort_keys=True))

    def run_op(self, op, record):
        """Time one operation, then check it; returns its follow-ups."""
        tr = self.tracer
        if tr is not None:
            tr.op_id = len(self.latencies)
        with tr.installed() if tr is not None else nullcontext():
            t0 = time.perf_counter()
            try:
                res = op.call()
            except Exception as exc:  # a raising operation counts as failed
                res = exc
            self.latencies.append(time.perf_counter() - t0)
        self.classes.append(op.cls)
        if isinstance(res, Exception):
            self.gate("%s raised %r" % (op.cls, res), False)
            return []
        if op.key is not None and op.key in self.verified:
            ok = op.fingerprint(res) == self.verified[op.key]
        else:
            ok = bool(op.check(res))
            if ok and op.key is not None:
                self.verified[op.key] = op.fingerprint(res)
        self.gate(op.cls, ok, {"class": op.cls, **op.describe(res)}, record)
        return op.then(res) if ok and op.then else []

    def run_ops(self, ops, record):
        pending = list(ops)
        while pending:
            pending[:0] = self.run_op(pending.pop(0), record)

    def timed_phase(self, seconds, after_block):
        """Prelude, then blocks until `seconds` of operation time and at
        least one cycle; `after_block(busy seconds)` runs between blocks."""
        cycle = self.w.cycle_blocks
        self.run_ops(self.w.prelude(), record=True)
        b = 0
        while b < cycle or sum(self.latencies) < seconds:
            first = len(self.latencies)
            self.run_ops(self.w.block(b), record=b < cycle)
            lat = self.latencies[first:]
            self.block_times.append((len(lat), sum(lat)))
            b += 1
            after_block(sum(self.latencies))
        return b


def time_setup(workload):
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0


def probe_setup(args):
    """Cold setup time in a fresh child process."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--setup-probe"]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=150)
    return float(out.stdout.split()[-1])


def quantile_ms(lat, q):
    return statistics.quantiles(lat, n=100)[q - 1] * 1000


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: small inputs for quick self-checks")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import workloads
    except ImportError as exc:
        print("error: cannot import the balgame library from %s: %s"
              % (os.path.join(ROOT, "src"), exc), file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)),
              file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload](args.seed, args.size)

    if args.setup_probe:
        print("%.9f" % time_setup(w))
        return 0

    result = run(w, args)
    print(json.dumps(result))
    return 0


def run(w, args):
    """One benchmark run; prints the report and returns the result line."""
    tracer = None
    setup_samples = []
    if args.trace:
        import spans
        tracer = spans.Tracer()
        with tracer.installed():
            w.setup()
    else:
        setup_samples = [probe_setup(args), time_setup(w)]
    r = Runner(w)
    for label, ok, doc in w.setup_results():
        r.gate(label, ok, doc)
    setup_digest, r.digest = r.digest, []
    if args.trace:
        # one cycle untraced and the same cycle traced, block by block in
        # turn, so that drift in machine speed reaches both alike
        plain = Runner(w)
        r.tracer = tracer
        blocks = w.cycle_blocks
        for ops in [w.prelude] + [lambda b=b: w.block(b)
                                  for b in range(blocks)]:
            plain.run_ops(ops(), record=True)
            r.run_ops(ops(), record=True)
        overhead = sum(r.latencies) / sum(plain.latencies) - 1
        r.gate("traced digest equals untraced digest",
               r.digest == plain.digest)
        r.attempted += plain.attempted
        r.failed += plain.failed
        r.failures += plain.failures
    else:
        lo, hi = SETUP_SAMPLES
        wanted = min(max(lo, math.ceil(SETUP_SAMPLE_S / setup_samples[0])),
                     hi)
        due = [args.seconds * (i + 1) / (wanted - 1)
               for i in range(wanted - len(setup_samples))]

        def probe_when_due(busy):
            while due and busy >= due[0]:
                due.pop(0)
                setup_samples.append(probe_setup(args))

        blocks = r.timed_phase(args.seconds, after_block=probe_when_due)
        probe_when_due(float("inf"))
    digest_lines = setup_digest + r.digest

    lat = r.latencies
    busy = sum(lat)
    p90 = quantile_ms(lat, 90)
    beyond = sum(1 for x in lat if x * 1000 > p90)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    error_rate = r.failed / r.attempted
    os.makedirs(OUT, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (w.name, w.seed, args.trace)
    digest_text = "\n".join(digest_lines) + "\n"
    digest_sha = hashlib.sha256(digest_text.encode()).hexdigest()
    with open(os.path.join(OUT, "digest-%s.jsonl" % tag), "w") as fh:
        fh.write(digest_text)

    if args.trace:
        metrics = tracer.metrics(overhead)
        tracer.write(os.path.join(OUT, "spans-%s.tsv.gz" % tag))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_samples),
                        "unit": "s"},
            "throughput_ops_s": {"value": len(lat) / busy, "unit": "1/s"},
            "op_p50_ms": {"value": quantile_ms(lat, 50), "unit": "ms"},
            "op_p90_ms": {"value": p90, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    per_class = {}
    for cls in sorted(set(r.classes)):
        xs = [x for x, c in zip(lat, r.classes) if c == cls]
        per_class[cls] = {"ops": len(xs),
                          "median_ms": statistics.median(xs) * 1000,
                          "total_s": sum(xs)}
    meta = {
        "workload": w.name, "seed": w.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds, "blocks": blocks,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "git_sha": git_sha(), "attempted": r.attempted, "failed": r.failed,
        "error_rate": error_rate, "p90_samples": len(lat),
        "p90_beyond": beyond,
        "setup_samples_s": setup_samples, "digest_sha256": digest_sha,
        "digest_lines": len(digest_lines), "failures": r.failures[:20],
        "classes": per_class, "block_times": r.block_times,
    }
    with open(os.path.join(OUT, "result-%s.json" % tag), "w") as fh:
        json.dump({"meta": meta, "metrics": metrics}, fh, indent=2,
                  sort_keys=True)

    print_report(r, metrics, meta)
    return {"correct": r.failed == 0, "attempted": r.attempted,
            "failed": r.failed, "metrics": metrics}


def print_report(r, metrics, meta):
    lat = r.latencies
    print("workload %s  seed %d  trace %d  blocks %d  timed ops %d"
          % (meta["workload"], meta["seed"], meta["trace"], meta["blocks"],
             len(lat)))
    for name, m in metrics.items():
        extra = ""
        if name == "op_p90_ms":
            extra = "  (%d samples, %d beyond p90)" % (len(lat),
                                                       meta["p90_beyond"])
        print("  %-44s %14.6g %s%s" % (name, m["value"], m["unit"], extra))
    print("  %-44s %14.6g %s  (%d of %d failed)"
          % ("error_rate", meta["error_rate"], "frac", r.failed,
             r.attempted))
    for cls, c in meta["classes"].items():
        print("  class %-20s ops %5d  median %10.3f ms  total %8.3f s"
              % (cls, c["ops"], c["median_ms"], c["total_s"]))
    print("  digest sha256 %s (%d lines)"
          % (meta["digest_sha256"], meta["digest_lines"]))
    for label in r.failures[:20]:
        print("  FAILED %s" % label)
    print("meta " + json.dumps(meta, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
