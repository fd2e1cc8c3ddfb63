"""Benchmark worker: builds one workload from the seed, then measures it.

run.py starts it with the benchmark's explicit environment.  The worker is
the single closed-loop client: one op in flight, the next sent when the
previous returns.  Protocol: the worker prints ``ready`` on stdout once set
up, then reads ``go`` or ``quit`` from stdin; after ``go`` it prints one JSON
line with the measured figures and exits.
"""

import resource
import sys
import time

_t0 = time.perf_counter_ns()
import stabdyn.cli  # noqa: E402,F401  timed: the import every `stabdyn` call pays

IMPORT_NS = time.perf_counter_ns() - _t0
IMPORT_KB = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

MAX_REASONS = 10
MIN_OPS = 100  # so that at least ten ops lie beyond p90


class Tally:
    """Answers per op key: the first is checked in full after the timed
    loop, every repeat must have the same digest."""

    def __init__(self):
        self.first = {}  # key -> (op, result, digest)
        self.same = {}  # key -> executions whose answer equals the first
        self.failed = 0
        self.reasons = []

    def fail(self, key, why, k=1):
        self.failed += k
        if len(self.reasons) < MAX_REASONS:
            self.reasons.append("%s: %s" % (key, why))

    def record(self, op, result):
        digest = repr(result)
        if op.key not in self.first:
            self.first[op.key] = (op, result, digest)
            self.same[op.key] = 1
        elif digest == self.first[op.key][2]:
            self.same[op.key] += 1
        else:
            self.fail(op.key, "answer differs from the first run of this op")

    def check_all(self):
        for key, (op, result, _) in self.first.items():
            try:
                why = op.check(result)
            except Exception as exc:  # a malformed answer is a wrong answer
                why = "check raised %s: %s" % (type(exc).__name__, exc)
            if why:
                self.fail(key, why, self.same[key])


def run_passes(wl, budget_s, tally, rec=None, min_ops=0):
    """Replay whole passes of the deck.  Another pass starts if a pass as
    long as the last one still fits in the budget, or if fewer than
    ``min_ops`` ops have run."""
    lat_ns = []
    passes = 0
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for op in wl.ops:
            t0 = time.perf_counter_ns()
            try:
                if rec is None:
                    result = op.run()
                else:
                    rec.op_id = len(lat_ns)
                    with rec.span("op"):
                        result = op.traced(rec)
            except Exception as exc:  # an op that raises is a failed op
                lat_ns.append(time.perf_counter_ns() - t0)
                tally.fail(op.key, "%s: %s" % (type(exc).__name__, exc))
                continue
            lat_ns.append(time.perf_counter_ns() - t0)
            tally.record(op, result)
        passes += 1
        now = time.perf_counter()
        if (now - start) + (now - pass_start) > budget_s and len(lat_ns) >= min_ops:
            return lat_ns, passes, now - start


def summarize(lat_ns):
    """Throughput counts op time only, not the loop's bookkeeping between ops."""
    ms = [x / 1e6 for x in lat_ns]
    p90 = statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0]
    return {
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": p90,
        "samples": len(ms),
        "beyond_p90": sum(x > p90 for x in ms),
    }


def blas_threads():
    """OpenBLAS's own thread count, read from the library numpy loaded."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(args, wl):
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "deck_ops": len(wl.ops),
        "bytecode_cache": "prefix " + os.environ.get("PYTHONPYCACHEPREFIX", "unset"),
        "dont_write_bytecode": bool(sys.dont_write_bytecode),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def layer_totals(rec, per):
    out = {}
    for name, (ns, calls) in rec.totals().items():
        if name != "op":  # the root span of each op carries only loop overhead
            out[name + ".ms"] = ns / 1e6 / per
            out[name + ".calls"] = calls / per
    for name, k in rec.counters.items():
        out[name] = k / per
    return out


def measure(args, wl, setup_rec, cache_dir):
    tally = Tally()
    if not args.trace:
        lat, passes, elapsed = run_passes(wl, args.seconds, tally, min_ops=MIN_OPS)
        out = summarize(lat)
    else:
        # half the budget untraced, half traced: the gap is the overhead
        lat, passes, elapsed = run_passes(wl, args.seconds / 2.0, tally)
        out = summarize(lat)
        rec = spans.SpanRecorder()
        t_lat, t_passes, t_elapsed = run_passes(wl, args.seconds / 2.0, tally, rec)
        traced = summarize(t_lat)
        elapsed += t_elapsed
        wl.extra_metrics.update({
            "cli.import.ms": IMPORT_NS / 1e6,
            "cli.import.peak_rss_mb": IMPORT_KB / 1024.0,
        })
        layers = layer_totals(setup_rec, 1)
        layers.update(layer_totals(rec, t_passes))
        layers.update(wl.layer_metrics())
        layers["trace.overhead_ratio"] = 1.0 - traced["ops_per_s"] / out["ops_per_s"]
        out["per_layer"] = layers
        out["traced_ops_per_s"] = traced["ops_per_s"]
        out["traced_passes"] = t_passes
        rec.dump(os.path.join(cache_dir, "spans-%s-%d.jsonl" % (args.workload, args.seed)))
    tally.check_all()
    out.update({
        "attempted": out["samples"] if not args.trace else out["samples"] + len(t_lat),
        "failed": tally.failed,
        "reasons": tally.reasons,
        "passes": passes,
        "measured_s": elapsed,
    })
    if isinstance(wl, workloads.CliWorkload):
        out["child_peak_rss_mb"] = wl.peak_child_kb / 1024.0
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--cache-dir", required=True)
    args = parser.parse_args()

    run_dir = os.path.join(args.cache_dir, "run-%d" % os.getpid())
    os.makedirs(run_dir)
    wl = None
    try:
        setup_rec = spans.SpanRecorder()
        wl = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed), setup_rec, run_dir)
        sys.stdout.write("ready\n")
        sys.stdout.flush()
        if sys.stdin.readline().strip() != "go":
            return 0
        out = measure(args, wl, setup_rec, args.cache_dir)
        out["env"] = environment(args, wl)
        sys.stdout.write(json.dumps(out) + "\n")
        sys.stdout.flush()
        return 0
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
