"""Self-test of the benchmark's output checks: planted wrong answers must be
counted as failed ops, and the untouched ops beside them must pass.

    PYTHONPATH=src python3 bench/selftest.py

Each workload's deck is cut to its cheap ops; a few of them get a wrapper
that corrupts the answer before it reaches the check, one gets an answer
that changes between repeats.  The loop, tally and checks are the ones the
benchmark runs.  Exits 0 when every planted fault, and nothing else, is
counted.
"""

import dataclasses
import sys
import tempfile
from pathlib import Path

import numpy as np

import spans
import worker
import workloads
from stabdyn.lattice import IntMatrix

PASSES = 2


def _bump_last(coeffs):
    return list(coeffs[:-1]) + [coeffs[-1] + 1]


def _inverse_off_by_one(inv):
    rows = [list(r) for r in inv.entries]
    rows[0][0] += 1
    return IntMatrix(tuple(map(tuple, rows)))


def _mass_off(reports):
    i = workloads.growth.DEFAULT_T_GRID.index(0.0)
    out = list(reports)
    out[i] = dataclasses.replace(out[i], exp_rate=out[i].exp_rate + 2e-3)
    return out


LATTICE_PLANTS = {
    "spectral_data.dense.4": lambda d: dataclasses.replace(d, char_poly=tuple(_bump_last(d.char_poly))),
    "spectral_data.block.parabolic.4": lambda d: dataclasses.replace(d, rho=d.rho * (1 + 1e-2)),
    "min_poly.dense.4": lambda r: (_bump_last(r[0]), r[1]),
    "min_poly_root_transfer.elliptic.4": lambda r: dataclasses.replace(r, vanishes=False),
    "inverse_unimodular.hyperbolic.4": _inverse_off_by_one,
    "volume.4": lambda v: v * (1 + 1e-6),
}
ORBIT_PLANTS = {
    "mass_growth.hyperbolic.2.0": _mass_off,
    "stable_translation_length.parabolic.2.0":
        lambda r: dataclasses.replace(r, estimate=r.estimate + 0.1),
    "linearity_check.elliptic.2.0": lambda r: dataclasses.replace(r, line_slope=r.line_slope + 0.01),
}


def _cli_plants(ops):
    """Wrong exit code on one command, garbled stdout on another."""
    by_sub = {}
    for op in ops:
        by_sub.setdefault(op.key.split(".")[1], op.key)
    return {
        by_sub["spectral"]: lambda r: (r[0], r[1].replace(b'"s":', b'"s":1')),
        by_sub["check-triple"]: lambda r: (r[0] + 1, r[1]),
    }


def _run(name, wl, plants, drifting=None):
    """Run the planted deck for two passes; True when exactly the planted
    faults were counted."""
    for op in wl.ops:
        if op.key in plants:
            op.run = (lambda real, bad: lambda: bad(real()))(op.run, plants[op.key])
    if drifting is not None:
        calls = iter(range(10**6))
        op = next(o for o in wl.ops if o.key == drifting)
        op.run = (lambda real: lambda: (real(), next(calls)))(op.run)
        op.check = (lambda check: lambda result: check(result[0]))(op.check)
    tally = worker.Tally()
    for _ in range(PASSES):
        worker.run_passes(wl, 0.0, tally)  # a zero budget runs exactly one pass
    tally.check_all()
    expected = PASSES * len(plants) + (PASSES - 1 if drifting else 0)
    planted = set(plants) | ({drifting} if drifting else set())
    stray = [r for r in tally.reasons if r.split(":")[0] not in planted]
    ok = tally.failed == expected and not stray
    print("%-15s %s: %d failed of %d ops, %d planted%s" % (
        name, "ok" if ok else "FAIL", tally.failed, PASSES * len(wl.ops), expected,
        "; unexpected: %s" % stray if stray else ""))
    return ok


def main():
    rng = np.random.default_rng(0)
    rec = spans.SpanRecorder()
    results = []

    wl = workloads.lattice_exact(rng, rec)
    wl.ops = [op for op in wl.ops if op.key.endswith(".4")]
    results.append(_run("lattice-exact", wl, LATTICE_PLANTS, drifting="spectral_data.block.hyperbolic.4"))

    wl = workloads.orbit_dynamics(rng, rec)
    wl.ops = [op for op in wl.ops if op.key.endswith(".2.0") and not op.key.startswith("yomdin")]
    results.append(_run("orbit-dynamics", wl, ORBIT_PLANTS))

    cache = Path(__file__).resolve().parent.parent / ".bench_cache"
    cache.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=cache) as run_dir:
        wl = workloads.cli_cold(rng, rec, run_dir)
        try:
            wl.ops = [op for op in wl.ops if op.key.split(".")[1] in ("spectral", "check-triple")]
            results.append(_run("cli-cold", wl, _cli_plants(wl.ops)))
        finally:
            wl.close()
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
