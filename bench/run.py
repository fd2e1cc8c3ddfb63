#!/usr/bin/env python3
"""stabdyn benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload lattice-exact --seed 1 --seconds 40 --trace 0

Run it from the root of a stabdyn checkout; it imports stabdyn from
``src/``.  Each run sets the worker up several times (``setup_s`` is the
median), then measures for ``--seconds``.  The last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: with
``--trace 0`` the end-to-end metrics of BENCHMARK.json, with ``--trace 1``
its per-layer metrics.  The line before it records the environment and the
sample counts.  bench/README.md describes the workloads and metrics.
"""

import sys

sys.dont_write_bytecode = True  # keep the benchmark's own directory clean

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CACHE_DIR = ROOT / ".bench_cache"
SETUPS = 3
DEADLINE_S = 170.0


def bench_env():
    """The explicit environment of the worker and of every cold child.

    Bytecode goes to a cache the benchmark owns, so ``src/`` stays clean and
    cold starts do not recompile stabdyn; BLAS and OpenMP run one thread.
    """
    return {
        "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONPYCACHEPREFIX": str(CACHE_DIR / "pycache"),
        "PYTHONHASHSEED": "0",
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


class Worker:
    def __init__(self, args):
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "bench" / "worker.py"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--cache-dir", str(CACHE_DIR)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=bench_env(), cwd=str(ROOT),
            text=True)

    def readline(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("worker exited without answering")
        return line

    def send(self, word):
        self.proc.stdin.write(word + "\n")
        self.proc.stdin.close()

    def finish(self):
        """Reap the worker; returns its resource usage (peak RSS included)."""
        self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        if self.proc.returncode != 0:
            raise RuntimeError("worker exited with code %d" % self.proc.returncode)
        return usage

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()


def run(args, spec):
    setup_s = []
    current = []
    watchdog = threading.Timer(DEADLINE_S, lambda: [w.kill() for w in current])
    watchdog.start()
    try:
        for i in range(SETUPS):
            t0 = time.perf_counter()
            worker = Worker(args)
            current[:] = [worker]
            if worker.readline().strip() != "ready":
                raise RuntimeError("worker did not get ready")
            setup_s.append(time.perf_counter() - t0)
            if i < SETUPS - 1:
                worker.send("quit")
                worker.finish()
        worker.send("go")
        res = json.loads(worker.readline())
        usage = worker.finish()
    finally:
        watchdog.cancel()
        for w in current:
            w.kill()

    attempted, failed = res["attempted"], res["failed"]
    info = {
        "workload": args.workload,
        "trace": args.trace,
        "samples": res["samples"],
        "beyond_p90": res["beyond_p90"],
        "passes": res["passes"],
        "measured_s": res["measured_s"],
        "failed_ratio": failed / attempted,
        "failures": res["reasons"],
        "setup_runs_s": setup_s,
        "env": res["env"],
    }
    if args.trace:
        layers = res["per_layer"]
        unknown = sorted(set(layers) - {m["name"] for m in spec["per_layer"]})
        if unknown:
            raise RuntimeError("per-layer metrics missing from BENCHMARK.json: %s" % unknown)
        info["untraced_ops_per_s"] = res["ops_per_s"]
        info["traced_ops_per_s"] = res["traced_ops_per_s"]
        values = {m["name"]: layers.get(m["name"], 0.0) for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        peak_mb = res.get("child_peak_rss_mb") or usage.ru_maxrss / 1024.0
        values = {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": res["ops_per_s"],
            "op_p50_ms": res["op_p50_ms"],
            "op_p90_ms": res["op_p90_ms"],
            "peak_rss_mb": peak_mb,
            "success_ratio": 1.0 - failed / attempted,
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        if set(values) != set(units):
            raise RuntimeError("end-to-end metrics differ from BENCHMARK.json")
    metrics = {name: {"value": float(values[name]), "unit": units[name]} for name in units}
    print(json.dumps(info))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def main(argv=None):
    parser = argparse.ArgumentParser(description="stabdyn benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stabdyn" / "__init__.py").is_file():
        print("bench: no stabdyn sources at %s; run from a stabdyn checkout"
              % (ROOT / "src" / "stabdyn"), file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print("bench: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    CACHE_DIR.mkdir(exist_ok=True)
    try:
        run(args, spec)
    except (RuntimeError, ValueError, KeyError) as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
