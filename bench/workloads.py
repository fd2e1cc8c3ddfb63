"""The three stabdyn benchmark workloads.

A workload is a deck of ops built from the seed at set-up and replayed pass
after pass.  An op has:

- ``run()``: the user's call, timed in the untraced run;
- ``traced(rec)``: the same answer reached through the public stage calls,
  one span per stage, for the per-layer metrics;
- ``check(result)``: ``None`` or the reason the answer is wrong, computed
  without the float code under test (see checks.py).

Repeats of an op must return answers with identical ``repr``.
"""

import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
from stabdyn import cli, cover, families, growth, lattice, metric, scenarios, stability, volume
from stabdyn.errors import DegenerateSpectrum, RootFindingDiverged
from stabdyn.lattice import IntMatrix

KINDS = ("hyperbolic", "parabolic", "elliptic")
JORDAN_S = {"hyperbolic": 0, "parabolic": 1, "elliptic": 0}


class Op:
    def __init__(self, key, run, traced, check):
        self.key = key
        self.run = run
        self.traced = traced
        self.check = check


class Workload:
    """A deck of ops plus the per-layer figures the spans cannot carry."""

    def __init__(self, ops):
        self.ops = ops
        self.extra_metrics = {}

    def layer_metrics(self):
        return dict(self.extra_metrics)

    def close(self):
        pass


def _int_rows(m):
    return [list(row) for row in m.entries]


def _shift(rng):
    return int(rng.integers(-2, 3))


# ---------------------------------------------------------------------------
# lattice-exact: the exact layer, whose cost grows faster than linearly

SPECTRAL_RANKS = (4, 8, 12, 16, 20, 24, 28, 32)
MIN_POLY_RANKS = (4, 8, 12, 16, 20, 24)
BLOCK_RANKS = (4, 8, 12, 16, 20)
PAIRING_RANKS = (4, 8, 12, 16, 20)


def _dense(rng, n):
    return IntMatrix(tuple(map(tuple, rng.integers(-3, 4, size=(n, n)).tolist())))


def _spectral_traced(A, rec):
    with rec.span("lattice.char_poly"):
        chi = lattice.char_poly(A)
    with rec.span("lattice.squarefree_decomposition"):
        lattice.squarefree_decomposition(chi)
    try:
        with rec.span("lattice.spectral_data"):
            return lattice.spectral_data(A)
    except (DegenerateSpectrum, RootFindingDiverged):
        rec.count("lattice.spectral_data.failed")
        raise


def _spectral_check(A, expected_s):
    def check(data):
        rows = _int_rows(A)
        chi = list(data.char_poly)
        if not checks.is_char_poly(rows, chi):
            return "char_poly differs from det(kI - A)"
        prod = [1]
        for f, i in lattice.squarefree_decomposition(chi):
            for _ in range(i):
                prod = checks.poly_mul(prod, f)
        if prod != chi:
            return "product of f_i^i differs from char_poly"
        if sum(ev.multiplicity for ev in data.eigenvalues) != A.dim:
            return "multiplicities do not sum to n"
        if any(sum(ev.block_sizes) != ev.multiplicity for ev in data.eigenvalues):
            return "Jordan block sizes do not sum to the multiplicity"
        Af = A.to_float()
        ref = float(np.max(np.abs(np.linalg.eigvals(Af))))
        if abs(data.rho - ref) > checks.rho_tolerance(Af, data.s) * max(ref, 1.0):
            return "rho %.17g differs from eigvals %.17g" % (data.rho, ref)
        if expected_s is not None and data.s != expected_s:
            return "s = %d, closed form %d" % (data.s, expected_s)
        return None

    return check


def _min_poly_traced(A, rec):
    with rec.span("lattice.char_poly"):
        lattice.char_poly(A)
    with rec.span("lattice.min_poly"):
        return lattice.min_poly(A)


def _min_poly_check(A):
    def check(result):
        mu, used_char = result
        rows = _int_rows(A)
        if used_char or mu[0] != 1:
            return "minimal polynomial is not a monic min_poly result"
        if any(x != 0 for row in checks.poly_at_matrix(mu, rows) for x in row):
            return "mu(A) != 0"
        chi = lattice.char_poly(A)
        if not checks.is_char_poly(rows, chi):
            return "char_poly differs from det(kI - A)"
        if any(checks.poly_rem_monic(chi, mu)):
            return "mu does not divide chi"
        return None

    return check


def _transfer_traced(P, M, rec):
    with rec.span("lattice.min_poly"):
        lattice.min_poly(P)
    with rec.span("lattice.min_poly_root_transfer"):
        return lattice.min_poly_root_transfer(P, M)


def _transfer_check(res):
    # the family intertwines P with the matrix part, so mu_P(M) = 0 exactly
    if not res.vanishes or res.used_char_poly or res.residual > 1e-9:
        return "root transfer did not vanish: %r" % (res,)
    return None


def _inverse_traced(P, rec):
    with rec.span("lattice.det_exact"):
        lattice.det_exact(P)
    with rec.span("lattice.inverse_unimodular"):
        return lattice.inverse_unimodular(P)


def _inverse_check(P):
    def check(inv):
        if checks.matmul(_int_rows(P), _int_rows(inv)) != checks.identity(P.dim):
            return "P * inverse_unimodular(P) != I"
        return None

    return check


def _volume_traced(Z, pairing, rec):
    with rec.span("lattice.det_exact"):
        lattice.det_exact(pairing.chi)
    with rec.span("volume.volume"):
        return volume.volume(Z, pairing)


def _volume_check(chi_rows, charges):
    ref, scale = checks.volume_reference(chi_rows, charges)

    def check(vol):
        if abs(vol - ref) > 1e-9 * ref:
            return "volume %.17g differs from the float-inverse value %.17g" % (vol, ref)
        return None

    return check, ref, scale


def _pairing(rng, rec, n):
    """A random pairing and charge whose float-inverse reference is sound:
    cond(chi) <= 1e6 and no cancellation below 1e-3 of the term sum."""
    while True:
        with rec.span("families.random_antisymmetric_pairing"):
            chi = families.random_antisymmetric_pairing(rng, n)
        z = rng.normal(size=(2, n))
        charges = z[0] + 1j * z[1]
        rows = _int_rows(chi)
        if np.linalg.cond(np.array(rows, dtype=float)) > 1e6:
            continue
        check, ref, scale = _volume_check(rows, charges)
        if ref >= 1e-3 * scale:
            Z = stability.CentralCharge(tuple(map(tuple, z.tolist())))
            return Z, volume.EulerPairing(chi=chi, cy_parity=3), check


def lattice_exact(rng, rec):
    ops = []
    for n in SPECTRAL_RANKS:
        A = _dense(rng, n)
        ops.append(Op("spectral_data.dense.%d" % n, lambda A=A: lattice.spectral_data(A),
                      lambda rec, A=A: _spectral_traced(A, rec), _spectral_check(A, None)))
    for n in MIN_POLY_RANKS:
        A = _dense(rng, n)
        ops.append(Op("min_poly.dense.%d" % n, lambda A=A: lattice.min_poly(A),
                      lambda rec, A=A: _min_poly_traced(A, rec), _min_poly_check(A)))
    for n in BLOCK_RANKS:
        for kind in KINDS:
            with rec.span("families.compatible_triple"):
                t = families.compatible_triple(rng, rank=n, kind=kind, shift=_shift(rng))
            P, M = t.auto.P, t.g.matrix
            tag = "%s.%d" % (kind, n)
            ops.append(Op("spectral_data.block." + tag, lambda P=P: lattice.spectral_data(P),
                          lambda rec, P=P: _spectral_traced(P, rec),
                          _spectral_check(P, JORDAN_S[kind])))
            ops.append(Op("min_poly_root_transfer." + tag,
                          lambda P=P, M=M: lattice.min_poly_root_transfer(P, M),
                          lambda rec, P=P, M=M: _transfer_traced(P, M, rec), _transfer_check))
            ops.append(Op("inverse_unimodular." + tag, lambda P=P: lattice.inverse_unimodular(P),
                          lambda rec, P=P: _inverse_traced(P, rec), _inverse_check(P)))
    for n in PAIRING_RANKS:
        Z, pairing, check = _pairing(rng, rec, n)
        ops.append(Op("volume.%d" % n, lambda Z=Z, p=pairing: volume.volume(Z, p),
                      lambda rec, Z=Z, p=pairing: _volume_traced(Z, p, rec), check))
    # interleave so that any stretch of the deck mixes cheap and costly ops
    order = rng.permutation(len(ops))
    return Workload([ops[i] for i in order])


# ---------------------------------------------------------------------------
# orbit-dynamics: cover, growth and metric layers on verified triples

ORBIT_RANKS = (2, 3, 4, 5, 6)
ORBIT_REPLICAS = 2
GROWTH_N_MAX = 2**20
TRANSLATION_N_MAX = 4096
SHIFT_N_MAX = 2**14  # the n_max yomdin_suite and linearity_check use inside
GRID_POINTS = 1024  # metric's grid for the displacement sup


def _doublings(n_max):
    ns, k = [], 1
    while k < n_max:
        ns.append(k)
        k *= 2
    return ns + [n_max]


class OrbitWorkload(Workload):
    def __init__(self, ops):
        super().__init__(ops)
        self.reports_fitted = 0
        self.reports_periodic = 0

    def layer_metrics(self):
        out = dict(self.extra_metrics)
        if self.reports_fitted:
            out["growth.periodic_hit_ratio"] = self.reports_periodic / self.reports_fitted
        return out


def _verify(t, rec):
    with rec.span("stability.verify_triple"):
        v = stability.verify_triple(t.auto, t.sigma, t.g)
    if not v.verified:
        rec.count("stability.verify_triple.rejected")


def _mass_reports(t, seed):
    stream = growth.MassStream(t, seed, n_max=GROWTH_N_MAX)
    return [growth.mass_growth(t, seed, t=x, stream=stream) for x in growth.DEFAULT_T_GRID]


def _mass_traced(t, seed, wl, rec):
    _verify(t, rec)
    with rec.span("cover.renormalized_power_table"):
        table = cover.renormalized_power_table(t.g, GROWTH_N_MAX.bit_length())
    # MassStream reads the phases from the table beyond its sequential prefix
    sched = [n for n in lattice.geometric_schedule(GROWTH_N_MAX) if n > growth.SEQ_PREFIX]
    phases = [d.phase for d in seed.factors]
    with rec.span("cover.power_phase.seed", calls=len(phases) * len(sched)):
        for phi in phases:
            for n in sched:
                cover.power_phase(table, phi, n)
    with rec.span("growth.MassStream"):
        stream = growth.MassStream(t, seed, n_max=GROWTH_N_MAX)
    reports = []
    for x in growth.DEFAULT_T_GRID:
        with rec.span("growth.mass_growth"):
            reports.append(growth.mass_growth(t, seed, t=x, stream=stream))
    wl.reports_fitted += len(reports)
    wl.reports_periodic += sum(r.diagnostics.get("structure") == "linear_plus_periodic"
                               for r in reports)
    return reports


def _mass_check(log_rho):
    def check(reports):
        rate = reports[growth.DEFAULT_T_GRID.index(0.0)].exp_rate
        if abs(rate - log_rho) > 1e-3:
            return "exp rate %.6g at t=0, closed form log rho %.6g" % (rate, log_rho)
        return None

    return check


def _pol_shift_traced(t, seed, rec):
    _verify(t, rec)
    with rec.span("cover.translation_number"):
        cover.translation_number(t.g, SHIFT_N_MAX)
    with rec.span("growth.shifting_numbers"):
        growth.shifting_numbers(t, seed)
    with rec.span("growth.pol_shifting_numbers"):
        return growth.pol_shifting_numbers(t, seed)


def _pol_shift_check(tau):
    def check(rep):
        if not (math.isfinite(rep.nu_upper) and math.isfinite(rep.nu_lower)):
            return "polynomial shifting numbers are not finite"
        if abs(rep.translation - tau) > 2e-3:
            return "translation %.6g, closed form %.6g" % (rep.translation, tau)
        return None

    return check


def _yomdin_traced(t, seed, rec):
    _verify(t, rec)
    with rec.span("growth.MassStream"):
        growth.MassStream(t, seed, n_max=4096)
    with rec.span("growth.shifting_numbers"):
        growth.shifting_numbers(t, seed, n_max=SHIFT_N_MAX)
    with rec.span("growth.yomdin_suite"):
        return growth.yomdin_suite(t, seed)


def _yomdin_check(rep):
    if not rep.all_passed:
        bad = [(r.name, r.t, r.slack) for r in rep.rows if not r.passed]
        return "inequality rows failed: %s" % (bad[:3],)
    return None


def _linearity_traced(t, seed, rec):
    _verify(t, rec)
    with rec.span("growth.shifting_numbers"):
        growth.shifting_numbers(t, seed, n_max=SHIFT_N_MAX)
    with rec.span("growth.linearity_check"):
        return growth.linearity_check(t, seed)


def _linearity_check(tau):
    def check(rep):
        if rep.max_deviation > 5e-2:
            return "linearity deviation %.3g > 5e-2" % rep.max_deviation
        if abs(rep.line_slope - tau) > 2e-3:
            return "line slope %.6g, translation number %.6g" % (rep.line_slope, tau)
        return None

    return check


def _translation_traced(t, rec):
    _verify(t, rec)
    pts = list(t.sigma.phases()) + list(np.linspace(0.0, 1.0, GRID_POINTS, endpoint=False))
    for n in _doublings(TRANSLATION_N_MAX):
        with rec.span("cover.renormalized_power_table"):
            table = cover.renormalized_power_table(t.g, max(1, n.bit_length()))
        with rec.span("cover.power_phase.grid", calls=len(pts)):
            for p in pts:
                cover.power_phase(table, p, n)
        with rec.span("cover.inverse"):
            cover.inverse(t.g)
        with rec.span("metric.quotient_distance"):
            metric.quotient_distance(t, n)
    with rec.span("metric.stable_translation_length"):
        return metric.stable_translation_length(t, n_max=TRANSLATION_N_MAX)


def _translation_check(length):
    def check(rep):
        if abs(rep.estimate - length) > 5e-2:
            return "translation length %.6g, closed form %.6g" % (rep.estimate, length)
        return None

    return check


def _scenario_traced(name, rec):
    with rec.span("scenarios." + name):
        return scenarios.run_scenario(name)


def _scenario_check(rep):
    if not rep.all_passed:
        return "scenario %s has failing claims" % rep.name
    return None


def orbit_dynamics(rng, rec):
    ops = []
    wl = OrbitWorkload(ops)
    for rep in range(ORBIT_REPLICAS):
        for n in ORBIT_RANKS:
            for kind in KINDS:
                shift = _shift(rng)
                with rec.span("families.compatible_triple"):
                    t = families.compatible_triple(rng, rank=n, kind=kind, shift=shift)
                seed = families.seed_object(t)
                log_rho = checks.log_rho_2x2(t.g.m)
                tau = checks.translation_number(kind, shift, t.g.m)
                tag = "%s.%d.%d" % (kind, n, rep)
                ops += [
                    Op("mass_growth." + tag, lambda t=t, s=seed: _mass_reports(t, s),
                       lambda rec, t=t, s=seed: _mass_traced(t, s, wl, rec), _mass_check(log_rho)),
                    Op("pol_shifting_numbers." + tag,
                       lambda t=t, s=seed: growth.pol_shifting_numbers(t, s),
                       lambda rec, t=t, s=seed: _pol_shift_traced(t, s, rec), _pol_shift_check(tau)),
                    Op("yomdin_suite." + tag, lambda t=t, s=seed: growth.yomdin_suite(t, s),
                       lambda rec, t=t, s=seed: _yomdin_traced(t, s, rec), _yomdin_check),
                    Op("linearity_check." + tag, lambda t=t, s=seed: growth.linearity_check(t, s),
                       lambda rec, t=t, s=seed: _linearity_traced(t, s, rec), _linearity_check(tau)),
                    Op("stable_translation_length." + tag,
                       lambda t=t: metric.stable_translation_length(t, n_max=TRANSLATION_N_MAX),
                       lambda rec, t=t: _translation_traced(t, rec),
                       _translation_check(checks.translation_length(t.g.m))),
                ]
    for name in scenarios.SCENARIOS:
        ops.append(Op("scenario." + name, lambda name=name: scenarios.run_scenario(name),
                      lambda rec, name=name: _scenario_traced(name, rec), _scenario_check))
    order = rng.permutation(len(ops))
    wl.ops = [ops[i] for i in order]
    return wl


# ---------------------------------------------------------------------------
# cli-cold: one cold `stabdyn` process per op, mostly interpreter and import

BOOT = "import sys; from stabdyn.cli import main; sys.exit(main())"
# the traced child also reports, on stderr before main runs, how long
# `import stabdyn.cli` took and its peak RSS right after the import
TRACED_BOOT = (
    "import resource, sys, time\n"
    "t = time.perf_counter_ns()\n"
    "import stabdyn.cli\n"
    "t = time.perf_counter_ns() - t\n"
    "kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
    "sys.stderr.write('bench-import %d %d\\n' % (t, kb))\n"
    "sys.stderr.flush()\n"
    "sys.exit(stabdyn.cli.main())\n"
)
CLI_GROWTH_N_MAX = 1048576
CLI_TRANSLATION_N_MAX = 4096


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _triple_file(path, t, images=None):
    obj = {"auto": t.auto.to_json(), "sigma": t.sigma.to_json(), "g": t.g.to_json()}
    if images is not None:
        obj["images"] = images
    return _write_json(path, obj)


class CliWorkload(Workload):
    """Cold `stabdyn` children, one per op, on inputs written at set-up."""

    def __init__(self, rng, rec, run_dir):
        super().__init__([])
        self.out_path = os.path.join(run_dir, "child.stdout")
        self.err_path = os.path.join(run_dir, "child.stderr")
        self.launcher = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.peak_child_kb = 0
        self.cold_ms, self.warm_ms, self.rss_kb = {}, {}, {}
        self.import_ms, self.import_kb = [], []
        triples = {}
        for name, rank, kind in (("a", 4, "hyperbolic"), ("b", 3, "parabolic")):
            with rec.span("families.compatible_triple"):
                t = families.compatible_triple(rng, rank=rank, kind=kind, shift=_shift(rng))
            triples[name] = (t, kind)
            _triple_file(os.path.join(run_dir, name + ".json"), t)
            _write_json(os.path.join(run_dir, "p%s.json" % name), t.auto.P.to_json())
        ta = triples["a"][0]
        # category-level images whose first class is not P v: verification
        # must reject the triple with exit code 4
        images = [{"v": list(ta.auto.P.apply(d.v)), "phase": d.phase} for d in ta.sigma.semistables]
        images[0]["v"] = [-x for x in images[0]["v"]]
        bad = _triple_file(os.path.join(run_dir, "bad.json"), ta, images)
        bad_triple = (ta.auto, ta.sigma, ta.g, tuple(
            stability.SemistableDatum(tuple(d["v"]), d["phase"]) for d in images))

        def path(name):
            return os.path.join(run_dir, name)

        log_rho_a = checks.log_rho_2x2(ta.g.m)
        for name in ("a", "b"):
            t, kind = triples[name]
            self._add("spectral", ["spectral", path("p%s.json" % name)],
                      _spectral_json_check(checks.log_rho_2x2(t.g.m), JORDAN_S[kind]))
            self._add("check-triple", ["check-triple", path(name + ".json")],
                      _check_triple_json_check(True), verify=(t.auto, t.sigma, t.g, None))
        self._add("check-triple", ["check-triple", bad], _check_triple_json_check(False),
                  verify=bad_triple, expected_rc=4)
        self._add("growth", ["growth", path("a.json"), "--n-max", str(CLI_GROWTH_N_MAX)],
                  _growth_json_check(log_rho_a), verify=(ta.auto, ta.sigma, ta.g, None))
        self._add("translation",
                  ["translation", path("a.json"), "--n-max", str(CLI_TRANSLATION_N_MAX)],
                  _translation_json_check(checks.translation_length(ta.g.m)),
                  verify=(ta.auto, ta.sigma, ta.g, None))
        for name in ("curve", "pseudo-anosov"):
            self._add("scenario-" + name, ["scenario", name], _scenario_json_check)
        order = rng.permutation(len(self.ops))
        self.ops = [self.ops[i] for i in order]
        # fill the bytecode cache for the subcommand paths as well
        self._child(["spectral", path("pa.json")], BOOT)

    def _add(self, sub, argv, check, verify=None, expected_rc=0):
        """One op: `stabdyn <argv>`; ``verify`` holds the verify_triple
        arguments of the triple file, for the traced stage call."""

        def run():
            return self._child(argv, BOOT)

        def traced(rec):
            if verify is not None:
                auto, sigma, g, images = verify
                with rec.span("stability.verify_triple"):
                    v = stability.verify_triple(auto, sigma, g, images=images)
                if not v.verified:
                    rec.count("stability.verify_triple.rejected")
            rc, out = self._child(argv, TRACED_BOOT, sub)
            buf = io.StringIO()
            t0 = time.perf_counter_ns()
            with contextlib.redirect_stdout(buf):
                warm_rc = cli.main(list(argv))
            self.warm_ms.setdefault(sub, []).append((time.perf_counter_ns() - t0) / 1e6)
            if (warm_rc, buf.getvalue().encode()) != (rc, out):
                raise AssertionError("in-process output differs from the cold child's")
            return rc, out

        def full_check(result):
            rc, out = result
            if rc != expected_rc:
                return "exit code %d, expected %d" % (rc, expected_rc)
            try:
                doc = json.loads(out)
            except ValueError:
                return "stdout is not JSON"
            return check(doc)

        self.ops.append(Op("cli.%s.%d" % (sub, len(self.ops)), run, traced, full_check))

    def _child(self, argv, boot, sub=None):
        """Run one cold child through the launcher; returns (exit code, stdout)."""
        req = {"argv": [sys.executable, "-c", boot, *argv],
               "stdout": self.out_path, "stderr": self.err_path}
        self.launcher.stdin.write(json.dumps(req) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the child launcher exited")
        reply = json.loads(reply)
        with open(self.out_path, "rb") as fh:
            out = fh.read()
        self.peak_child_kb = max(self.peak_child_kb, reply["maxrss_kb"])
        if sub is not None:
            self.cold_ms.setdefault(sub, []).append(reply["wall_ns"] / 1e6)
            self.rss_kb[sub] = max(self.rss_kb.get(sub, 0), reply["maxrss_kb"])
            with open(self.err_path, "rb") as fh:
                for line in fh.read().decode(errors="replace").splitlines():
                    if line.startswith("bench-import "):
                        ns, kb = line.split()[1:]
                        self.import_ms.append(int(ns) / 1e6)
                        self.import_kb.append(int(kb))
        return reply["rc"], out

    def layer_metrics(self):
        out = dict(self.extra_metrics)
        if self.import_ms:
            out["cli.import.ms"] = statistics.median(self.import_ms)
            out["cli.import.peak_rss_mb"] = max(self.import_kb) / 1024.0
        for sub, vals in self.cold_ms.items():
            out["cli.%s.cold_ms" % sub] = statistics.median(vals)
            out["cli.%s.warm_ms" % sub] = statistics.median(self.warm_ms[sub])
            out["cli.%s.peak_rss_mb" % sub] = self.rss_kb[sub] / 1024.0
        return out

    def close(self):
        self.launcher.stdin.close()
        self.launcher.stdout.close()
        self.launcher.wait()


def _spectral_json_check(log_rho, s):
    def check(doc):
        if abs(math.log(doc["rho"]) - log_rho) > 1e-10:
            return "rho %r, closed form exp(%r)" % (doc["rho"], log_rho)
        if doc["s"] != s:
            return "s = %r, closed form %d" % (doc["s"], s)
        return None

    return check


def _check_triple_json_check(verified):
    def check(doc):
        if doc["verified"] is not verified:
            return "verified = %r, expected %r" % (doc["verified"], verified)
        if not verified and doc["failure"]["kind"] != "image_class":
            return "rejected for %r, expected image_class" % (doc["failure"]["kind"],)
        return None

    return check


def _growth_json_check(log_rho):
    def check(doc):
        rate = doc["reports"][doc["t_grid"].index(0.0)]["exp_rate"]
        if abs(rate - log_rho) > 1e-3:
            return "exp rate %r at t=0, closed form log rho %r" % (rate, log_rho)
        return None

    return check


def _translation_json_check(length):
    def check(doc):
        if abs(doc["estimate"] - length) > 5e-2:
            return "estimate %r, closed form %r" % (doc["estimate"], length)
        if abs(doc["closed_form"] - length) > 1e-9 * max(1.0, length):
            return "closed_form %r, expected %r" % (doc["closed_form"], length)
        return None

    return check


def _scenario_json_check(doc):
    return None if doc["all_passed"] is True else "scenario %s has failing claims" % doc["name"]


def cli_cold(rng, rec, run_dir):
    return CliWorkload(rng, rec, run_dir)


WORKLOADS = {
    "lattice-exact": lambda rng, rec, run_dir: lattice_exact(rng, rec),
    "orbit-dynamics": lambda rng, rec, run_dir: orbit_dynamics(rng, rec),
    "cli-cold": cli_cold,
}
