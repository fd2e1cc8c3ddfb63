"""Dynamical growth invariants of verified triples and Hom tables.

Masses along the iteration are tracked factor-by-factor in log scale: a
factor's charge is stored as a unit vector plus log-modulus and updated
through the 2x2 matrix part, so schedules reach n = 2^20 without overflow.
The stages of one public call share one power table of g and one sequential
phase orbit per distinct starting phase (_Shared); nothing outlives the call.

Rate extraction runs in two stages.  A sequential prefix of the stream is
scanned for exact linear-plus-periodic structure (finite-order matrix parts
produce exactly periodic deviations, whose bounded wobble would otherwise
bias any log n slope fit); when found, the linear rate is read off exactly
and the polynomial rate is zero.  Otherwise rates come from least-squares /
Theil-Sen fits over the declared geometric tail window.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import cover, stability
from ._fit import (
    geometric_schedule,
    joint_rate_fit,
    log_slope_fit,
    tail_indices,
    theil_sen_slope,
)
from .errors import EmptyTable
from .lattice import poly_growth_rate as _lattice_poly_growth_rate
from .lattice import spectral_radius as _lattice_spectral_radius

SEQ_PREFIX = 512  # sequential samples used for structure detection
DETECT_MAX_PERIOD = 48
DETECT_TOL = 1e-9


# ---------------------------------------------------------------------------
# report containers


@dataclass(frozen=True)
class GrowthReport:
    samples: tuple  # ((n, value), ...)
    exp_rate: float
    poly_rate: float
    closed_form: object = None  # (expected exp_rate, expected poly_rate) or None
    diagnostics: dict = field(default_factory=dict)

    def to_json(self):
        out = {
            "samples": [[int(n), v] for n, v in self.samples],
            "exp_rate": self.exp_rate,
            "poly_rate": self.poly_rate,
            "diagnostics": dict(self.diagnostics),
        }
        if self.closed_form is not None:
            out["closed_form"] = list(self.closed_form)
        return out


@dataclass(frozen=True)
class HomTable:
    """dim Hom(G, Phi^n G'[k]) indexed by (n >= 1, k in Z), finite support."""

    entries: dict
    n_max: int = 0

    def __post_init__(self):
        cleaned = {}
        by_row = {}
        nmax = 0
        for (n, k), dim in self.entries.items():
            n = int(n)
            k = int(k)
            dim = int(dim)
            if n < 1:
                raise ValueError("table rows start at n = 1")
            if dim < 0:
                raise ValueError("dimensions are nonnegative")
            if dim > 0:
                cleaned[(n, k)] = dim
                by_row.setdefault(n, {})[k] = dim
                nmax = max(nmax, n)
        if not cleaned:
            raise EmptyTable("no nonzero table entries")
        object.__setattr__(self, "entries", cleaned)
        object.__setattr__(self, "_by_row", by_row)
        object.__setattr__(self, "n_max", nmax if self.n_max == 0 else int(self.n_max))

    def rows(self):
        return sorted(self._by_row)

    def row(self, n):
        return dict(self._by_row.get(n, {}))


# ---------------------------------------------------------------------------
# structure detection and rate fitting


def _detect_linear_periodic(ns, ys, max_period=DETECT_MAX_PERIOD, tol=DETECT_TOL):
    """(rate, period) when y(n+q) - y(n) is constant on a consecutive window.

    Requires a consecutive integer block inside the schedule; returns None
    when no exact period is found (e.g. genuine log n growth).  All periods
    are tested on one difference array; the rate keeps the type of ys."""
    # locate the longest consecutive run ending anywhere in the schedule
    best = (0, 0)
    start = 0
    for i in range(1, len(ns)):
        if ns[i] != ns[i - 1] + 1:
            if i - start > best[1] - best[0]:
                best = (start, i)
            start = i
    if len(ns) - start > best[1] - best[0]:
        best = (start, len(ns))
    lo, hi = best
    if hi - lo < 2 * max_period + 64:
        return None
    window = min(160, (hi - lo) // 2)
    block = np.asarray(ys[lo:hi], dtype=float)
    cols = np.arange(hi - lo - window, hi - lo)  # row q-1 of diffs: y(n) - y(n-q)
    diffs = block[cols] - block[cols - np.arange(1, max_period + 1)[:, None]]
    ref = diffs[:, -1:]
    passed = np.all(np.abs(diffs - ref) <= tol * np.maximum(1.0, np.abs(ref)), axis=1)
    if not passed.any():
        return None
    q = int(np.argmax(passed)) + 1
    return (ys[hi - 1] - ys[hi - 1 - q]) / q, q


def _fit_stream(ns, ys):
    """(exp_rate, poly_rate, diagnostics) for a growth stream.

    Detection first; otherwise joint least squares for the linear rate and a
    Theil-Sen log n slope (with a max-of-suffix-windows diagnostic) for the
    polynomial rate.
    """
    detected = _detect_linear_periodic(ns, ys)
    if detected is not None:
        rate, q = detected
        # deviations are exactly periodic, so the log n rate is zero
        tail = tail_indices(ns)
        dev = [ys[i] - rate * ns[i] for i in tail]
        ratio = (max(dev) - min(dev)) / math.log(ns[tail[-1]])
        return rate, 0.0, {
            "structure": "linear_plus_periodic",
            "period": q,
            "deviation_ratio_bound": ratio,
            "window": (float(ns[tail[0]]), float(ns[tail[-1]])),
        }
    a, _, _, rms, window = joint_rate_fit(ns, ys)
    slope, win2, max_slope = _poly_rate_about(ns, ys, a)
    return a, slope, {
        "structure": "fit",
        "fit_residual": rms,
        "window": window,
        "poly_window": win2,
        "poly_max_window_slope": max_slope,
    }


def _poly_rate_about(ns, ys, rate):
    """Theil-Sen log n slope of the stream after removing a given linear rate."""
    return log_slope_fit(ns, [y - rate * n for n, y in zip(ns, ys)])


def fit_growth_report(samples, closed_form=None):
    """GrowthReport from an externally computed (n, value) stream.

    For actions whose masses cannot be derived from lattice data alone,
    callers may measure log-mass values elsewhere and still get the same
    rate extraction as the built-in streams.
    """
    pairs = sorted((int(n), float(v)) for n, v in samples)
    if len(pairs) < 2:
        raise ValueError("need at least two samples")
    ns = [n for n, _ in pairs]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError("sample indices must be strictly increasing")
    ys = [v for _, v in pairs]
    exp_rate, poly_rate, diag = _fit_stream(ns, ys)
    return GrowthReport(
        samples=tuple(pairs),
        exp_rate=float(exp_rate),
        poly_rate=float(poly_rate),
        closed_form=closed_form,
        diagnostics=diag,
    )


def _rho_s_of_2x2(M):
    """(log rho, s) of a real 2x2 matrix in closed form."""
    M = np.asarray(M, dtype=float)
    tr = M[0, 0] + M[1, 1]
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    scale = max(tr * tr, abs(det), 1e-30)
    disc = tr * tr - 4.0 * det
    if disc > 1e-12 * scale:
        lam = max(abs(tr + math.sqrt(disc)), abs(tr - math.sqrt(disc))) / 2.0
        return math.log(lam), 0
    if disc < -1e-12 * scale:
        return 0.5 * math.log(det), 0
    lam = tr / 2.0
    off = max(abs(M[0, 1]), abs(M[1, 0]), abs(M[0, 0] - lam), abs(M[1, 1] - lam))
    s = 0 if off <= 1e-9 * max(1.0, abs(lam)) else 1
    return math.log(abs(lam)), s


# ---------------------------------------------------------------------------
# mass streams


class _Shared:
    """What the stages of one public call share: the power table of g for
    exponents up to top_n (max(1024, n_max) covers the shifting numbers at
    n_max and their translation number) and the seq-step orbit of each phase."""

    def __init__(self, g, top_n, seq=SEQ_PREFIX):
        self.g = g
        self.seq = seq
        self.table = cover.renormalized_power_table(g, int(top_n).bit_length())
        self._orbits = {}

    def orbit(self, phi):
        """[phi, f(phi), ..., f^seq(phi)], walked once per phase."""
        if phi not in self._orbits:
            self._orbits[phi] = cover.orbit(self.g, phi, self.seq)
        return self._orbits[phi]


class MassStream:
    """Per-factor log-moduli and phases of the iterated seed object."""

    def __init__(self, triple, seed, n_max=4096, schedule=None):
        self._fill(triple, seed, n_max, schedule, None)

    def _fill(self, triple, seed, n_max, schedule, shared):
        triple.require_verified()
        self.triple = triple
        self.seed = seed
        if schedule is None:
            ns = sorted(set(range(1, min(SEQ_PREFIX, n_max) + 1)) | set(geometric_schedule(n_max)))
        else:
            ns = sorted({int(n) for n in schedule})
            if not ns or ns[0] < 1:
                raise ValueError("schedule entries must be >= 1")
        self.ns = ns
        g = triple.g
        Z = triple.sigma.Z
        factors = []
        for d in seed.factors:
            z = stability.charge_of(Z, d.v)
            w = np.array([z.real, z.imag])
            if np.linalg.norm(w) == 0.0:
                continue  # weak data: exactly zero mass contribution
            factors.append((w, d.phase))
        if not factors:
            raise ValueError("seed has no factors with nonzero charge")
        seq_top = min(SEQ_PREFIX, n_max) if schedule is None else 0
        shared = shared or _Shared(g, ns[-1], seq_top)
        table = shared.table
        self.logs = np.zeros((len(factors), len(ns)))
        self.phis = np.zeros((len(factors), len(ns)))
        Mg = np.array(g.m)
        # ns is sorted and starts with 1..seq_top; the phases beyond that
        # prefix, for every distinct seed phase, come from one batched walk
        geo_ns = ns[seq_top:]
        distinct = list(dict.fromkeys(phi0 for _, phi0 in factors))
        walked = cover.power_phase(
            table, np.repeat(distinct, len(geo_ns)), np.tile(geo_ns, len(distinct))
        ).reshape(len(distinct), len(geo_ns))
        phis_of = {
            phi0: (shared.orbit(phi0)[1 : seq_top + 1] if seq_top else []) + row.tolist()
            for phi0, row in zip(distinct, walked)
        }
        for i, (w, phi0) in enumerate(factors):
            # sequential prefix: renormalized direct iteration, |v| = sqrt(v.v)
            v = w.copy()
            nv = math.sqrt(v.dot(v))
            acc = math.log(nv)
            v /= nv
            seq_logs = []
            for _ in range(seq_top):
                v = Mg @ v
                nv = math.sqrt(v.dot(v))
                acc += math.log(nv)
                v /= nv
                seq_logs.append(acc)
            self.logs[i] = seq_logs + [cover.power_charge_log(table, w, n)[0] for n in geo_ns]
            self.phis[i] = phis_of[phi0]

    def log_mass(self, t=0.0):
        """log m_{sigma,t}(Phi^n seed) for every schedule point."""
        x = self.logs + t * self.phis
        top = np.max(x, axis=0)
        return top + np.log(np.sum(np.exp(x - top[None, :]), axis=0))


def mass_growth(triple, seed, t=0.0, n_max=4096, schedule=None, stream=None):
    """Exponential rate of log mass along the iteration."""
    stream = stream or MassStream(triple, seed, n_max=n_max, schedule=schedule)
    ys = stream.log_mass(t)
    exp_rate, poly_rate, diag = _fit_stream(stream.ns, ys)
    closed = None
    if triple.spanning:
        log_rho, s = _rho_s_of_2x2(triple.g.matrix)
        closed = (log_rho, float(s))
    return GrowthReport(
        samples=tuple(zip(stream.ns, ys)),
        exp_rate=float(exp_rate),
        poly_rate=float(poly_rate),
        closed_form=closed,
        diagnostics=dict(diag, t=t),
    )


def pol_mass_growth(triple, seed, t=0.0, n_max=2**20, schedule=None, stream=None):
    """Log n rate of log mass after removing the linear term.

    The linear term is the closed-form log rho(M_g) when the image spans
    (flagged in the diagnostics), otherwise the fitted rate.
    """
    stream = stream or MassStream(triple, seed, n_max=n_max, schedule=schedule)
    ys = stream.log_mass(t)
    exp_rate, _, diag = _fit_stream(stream.ns, ys)
    closed = None
    if triple.spanning and t == 0.0:
        log_rho, s = _rho_s_of_2x2(triple.g.matrix)
        closed = (log_rho, float(s))
        rate_used = log_rho
        source = "closed_form"
    else:
        rate_used = exp_rate
        source = "fitted"
    if diag.get("structure") == "linear_plus_periodic" and abs(rate_used - exp_rate) < 1e-9:
        poly = 0.0
        window, max_slope = diag.get("window"), 0.0
    else:
        poly, window, max_slope = _poly_rate_about(stream.ns, ys, rate_used)
    return GrowthReport(
        samples=tuple(zip(stream.ns, ys)),
        exp_rate=float(exp_rate),
        poly_rate=float(poly),
        closed_form=closed,
        diagnostics={
            "t": t,
            "rate_subtracted": rate_used,
            "rate_source": source,
            "poly_window": window,
            "poly_max_window_slope": max_slope,
            "structure": diag.get("structure"),
        },
    )


# ---------------------------------------------------------------------------
# shifting numbers


@dataclass(frozen=True)
class ShiftingNumbers:
    nu_upper: float
    nu_lower: float
    translation: float
    diagnostics: dict

    def to_json(self):
        return {
            "nu_upper": self.nu_upper,
            "nu_lower": self.nu_lower,
            "translation": self.translation,
            "diagnostics": dict(self.diagnostics),
        }


def _nu_estimate(shared, phi, n_max):
    """(nu, structure) for the orbit of one phase."""
    detected = _detect_linear_periodic(range(SEQ_PREFIX + 1), shared.orbit(phi))
    if detected is not None:
        return detected[0], {"structure": "linear_plus_periodic", "period": detected[1]}
    nu, _ = cover._two_scale(shared.table, phi, n_max)
    return nu, {"structure": "two_scale", "n_max": n_max}


def shifting_numbers(triple, seed, n_max=2**16):
    """Linear phase drift of the extreme factor phases of the seed."""
    triple.require_verified()
    return _shifts(_Shared(triple.g, max(1024, n_max)), seed, n_max)


def _shifts(shared, seed, n_max):
    """shifting_numbers on the work shared within one call."""
    top, bottom = stability.phases(seed)
    nu_up, d_up = _nu_estimate(shared, top, n_max)
    nu_lo, d_lo = _nu_estimate(shared, bottom, n_max)
    tau, _ = cover._two_scale(shared.table, 0.0, max(1024, min(int(n_max), 2**14)))
    return ShiftingNumbers(
        nu_upper=float(nu_up),
        nu_lower=float(nu_lo),
        translation=float(tau),
        diagnostics={
            "upper": d_up,
            "lower": d_lo,
            "upper_vs_translation": abs(nu_up - tau),
            "spread": abs(nu_up - nu_lo),
        },
    )


def pol_shifting_numbers(triple, seed, n_max=2**16):
    """Log n rates of the phase deviations, plus the sublinearity check."""
    triple.require_verified()
    shared = _Shared(triple.g, max(1024, n_max))
    return _pol_shifts(shared, seed, n_max, _shifts(shared, seed, n_max))


def _pol_shifts(shared, seed, n_max, base):
    """pol_shifting_numbers from the already computed linear ones, base."""
    top, bottom = stability.phases(seed)
    ns = sorted(set(range(1, SEQ_PREFIX + 1)) | set(geometric_schedule(n_max)))
    geo_ns = ns[SEQ_PREFIX:]
    walked = cover.power_phase(
        shared.table, np.repeat([top, bottom], len(geo_ns)), np.tile(geo_ns, 2)
    ).tolist()
    ys_top = shared.orbit(top)[1:] + walked[: len(geo_ns)]
    ys_bot = shared.orbit(bottom)[1:] + walked[len(geo_ns) :]

    def pol_of(ys, nu, diag):
        if diag.get("structure") == "linear_plus_periodic":
            return 0.0
        return _poly_rate_about(ns, ys, nu)[0]

    nu_pol_up = pol_of(ys_top, base.nu_upper, base.diagnostics["upper"])
    nu_pol_lo = pol_of(ys_bot, base.nu_lower, base.diagnostics["lower"])
    sublinearity = (ys_top[-1] - ys_bot[-1] - (top - bottom)) / math.log(ns[-1])
    return ShiftingNumbers(
        nu_upper=float(nu_pol_up),
        nu_lower=float(nu_pol_lo),
        translation=base.translation,
        diagnostics={
            "linear": base.to_json(),
            "sublinearity": sublinearity,
        },
    )


# ---------------------------------------------------------------------------
# Hom-table estimators


def _table_log_eps(table, t):
    ns = table.rows()
    ys = []
    for n in ns:
        row = table.row(n)
        vals = [math.log(d) - k * t for k, d in row.items()]
        top = max(vals)
        ys.append(top + math.log(sum(math.exp(v - top) for v in vals)))
    return ns, ys


def entropy_from_hom(table, t=0.0):
    """Growth rate of the weighted Hom sums along the table rows."""
    ns, ys = _table_log_eps(table, t)
    exp_rate, poly_rate, diag = _fit_stream(ns, ys)
    return GrowthReport(
        samples=tuple(zip(ns, ys)),
        exp_rate=float(exp_rate),
        poly_rate=float(poly_rate),
        diagnostics=dict(diag, t=t),
    )


def pol_entropy_from_hom(table, t=0.0):
    """Log n rate of the weighted Hom sums after removing the linear term."""
    ns, ys = _table_log_eps(table, t)
    exp_rate, _, diag = _fit_stream(ns, ys)
    if diag.get("structure") == "linear_plus_periodic":
        poly, window, max_slope = 0.0, diag.get("window"), 0.0
    else:
        poly, window, max_slope = _poly_rate_about(ns, ys, exp_rate)
    return GrowthReport(
        samples=tuple(zip(ns, ys)),
        exp_rate=float(exp_rate),
        poly_rate=float(poly),
        diagnostics={
            "t": t,
            "rate_subtracted": exp_rate,
            "poly_window": window,
            "poly_max_window_slope": max_slope,
        },
    )


@dataclass(frozen=True)
class EpsilonBounds:
    ns: tuple
    eps_plus: tuple
    eps_minus: tuple
    nu_upper: float
    nu_lower: float

    def to_json(self):
        return {
            "ns": list(self.ns),
            "eps_plus": list(self.eps_plus),
            "eps_minus": list(self.eps_minus),
            "nu_upper": self.nu_upper,
            "nu_lower": self.nu_lower,
        }


def epsilon_bounds_from_hom(table):
    """Extremal nonzero shifts per row and their linear drifts.

    Sign convention: a nonzero entry at shift k means Hom(G, Phi^n G'[-(-k)])
    is nonzero, so the upper extremal degree for row n is -min k and the
    lower one is -max k.
    """
    ns = table.rows()
    eps_plus = []
    eps_minus = []
    for n in ns:
        ks = sorted(table.row(n))
        eps_plus.append(-ks[0])
        eps_minus.append(-ks[-1])
    nu_up = theil_sen_slope(ns, eps_plus) if len(ns) > 1 else 0.0
    nu_lo = theil_sen_slope(ns, eps_minus) if len(ns) > 1 else 0.0
    return EpsilonBounds(
        ns=tuple(ns),
        eps_plus=tuple(eps_plus),
        eps_minus=tuple(eps_minus),
        nu_upper=float(nu_up),
        nu_lower=float(nu_lo),
    )


# ---------------------------------------------------------------------------
# inequality suite and linearity law


@dataclass(frozen=True)
class InequalityRow:
    name: str
    t: object  # float or None
    lhs: float
    rhs: float
    slack: float
    passed: bool

    def to_json(self):
        return {
            "name": self.name,
            "t": self.t,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class InequalityReport:
    rows: tuple
    all_passed: bool
    values: dict

    def to_json(self):
        return {
            "rows": [r.to_json() for r in self.rows],
            "all_passed": self.all_passed,
            "values": dict(self.values),
        }


DEFAULT_T_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)


def _mass_rates(shared, triple, seed, t_grid, n_max):
    """h_{sigma,t} and its polynomial companion for every t, one stream pass."""
    stream = MassStream.__new__(MassStream)
    stream._fill(triple, seed, n_max, None, shared)
    rates = {}
    for t in t_grid:
        ys = stream.log_mass(t)
        exp_rate, poly_rate, diag = _fit_stream(stream.ns, ys)
        rates[t] = (float(exp_rate), float(poly_rate), diag)
    return stream, rates


def yomdin_suite(triple, seed, hom_table=None, t_grid=DEFAULT_T_GRID, n_max=4096, tol=5e-2):
    """Every applicable growth inequality evaluated on fitted values.

    These are theorems for verified triples: a failure beyond tolerance
    indicates an implementation bug, never new mathematics.
    """
    triple.require_verified()
    t_grid = tuple(sorted(set(float(t) for t in t_grid) | {0.0}))
    n_shift = max(n_max, 2**14)
    shared = _Shared(triple.g, max(1024, n_shift))  # n_shift >= n_max
    _, rates = _mass_rates(shared, triple, seed, t_grid, n_max)
    h_sigma = rates[0.0][0]
    h_sigma_pol = rates[0.0][1]
    shifts = _shifts(shared, seed, n_shift)
    pol_shifts = _pol_shifts(shared, seed, n_shift, shifts)
    nu_up, nu_lo = shifts.nu_upper, shifts.nu_lower
    nup_up, nup_lo = pol_shifts.nu_upper, pol_shifts.nu_lower

    log_rho = math.log(_lattice_spectral_radius(triple.auto.P))
    s_lattice = float(_lattice_poly_growth_rate(triple.auto.P))

    rows = []

    def add(name, t, lhs, rhs):
        slack = rhs - lhs
        rows.append(
            InequalityRow(
                name=name, t=t, lhs=float(lhs), rhs=float(rhs),
                slack=float(slack), passed=bool(slack >= -tol),
            )
        )

    # mass growth dominates the lattice spectral radius
    add("mass_growth_ge_log_rho", None, log_rho, h_sigma)
    if abs(h_sigma - log_rho) <= tol:
        add("pol_mass_growth_ge_lattice_s", None, s_lattice, h_sigma_pol)

    pol_applicable = abs(h_sigma) <= tol
    for t in t_grid:
        h_t = rates[t][0]
        hp_t = rates[t][1]
        if t >= 0.0:
            add("shift_lower_times_t_le_mass", t, nu_up * t, h_t)
            add("mass_le_h_sigma_plus_shift_t", t, h_t, h_sigma + nu_up * t)
            add("mass_ge_h_sigma_plus_lower_shift_t", t, h_sigma + nu_lo * t, h_t)
            if pol_applicable:
                add("pol_shift_t_le_pol_mass", t, nup_up * t, hp_t)
                add("pol_mass_le_pol_sigma_plus_shift_t", t, hp_t, h_sigma_pol + nup_up * t)
                add("pol_mass_ge_pol_sigma_plus_lower_shift_t", t, h_sigma_pol + nup_lo * t, hp_t)
        if t <= 0.0:
            add("shift_lower_times_t_le_mass_neg", t, nu_lo * t, h_t)
            add("mass_le_h_sigma_plus_lower_shift_t_neg", t, h_t, h_sigma + nu_lo * t)
            add("mass_ge_h_sigma_plus_shift_t_neg", t, h_sigma + nu_up * t, h_t)
            if pol_applicable:
                add("pol_shift_t_le_pol_mass_neg", t, nup_lo * t, hp_t)
                add("pol_mass_le_pol_sigma_plus_lower_shift_t_neg", t, hp_t, h_sigma_pol + nup_lo * t)
                add("pol_mass_ge_pol_sigma_plus_shift_t_neg", t, h_sigma_pol + nup_up * t, hp_t)

    values = {
        "h_sigma": h_sigma,
        "h_sigma_pol": h_sigma_pol,
        "nu_upper": nu_up,
        "nu_lower": nu_lo,
        "nu_pol_upper": nup_up,
        "nu_pol_lower": nup_lo,
        "log_rho_lattice": log_rho,
        "s_lattice": s_lattice,
    }

    if hom_table is not None:
        h_cat = entropy_from_hom(hom_table, 0.0).exp_rate
        for t in t_grid:
            ent = entropy_from_hom(hom_table, t)
            h_t = rates[t][0]
            add("mass_le_entropy", t, h_t, ent.exp_rate)
            if t >= 0.0:
                add("shift_t_le_entropy", t, nu_up * t, ent.exp_rate)
                add("entropy_le_hcat_plus_shift_t", t, ent.exp_rate, h_cat + nu_up * t)

    return InequalityReport(
        rows=tuple(rows),
        all_passed=all(r.passed for r in rows),
        values=values,
    )


@dataclass(frozen=True)
class LinearityReport:
    t_grid: tuple
    mass_rates: tuple
    line_intercept: float
    line_slope: float
    max_deviation: float
    entropy_rates: object = None  # tuple aligned with t_grid, or None
    max_entropy_gap: object = None

    def to_json(self):
        out = {
            "t_grid": list(self.t_grid),
            "mass_rates": list(self.mass_rates),
            "line_intercept": self.line_intercept,
            "line_slope": self.line_slope,
            "max_deviation": self.max_deviation,
        }
        if self.entropy_rates is not None:
            out["entropy_rates"] = list(self.entropy_rates)
            out["max_entropy_gap"] = self.max_entropy_gap
        return out


def linearity_check(triple, seed, t_grid=DEFAULT_T_GRID, n_max=4096, hom_table=None):
    """Affinity of the mass growth in t against the shifting-number line."""
    triple.require_verified()
    t_grid = tuple(sorted(set(float(t) for t in t_grid) | {0.0}))
    n_shift = max(n_max, 2**14)
    shared = _Shared(triple.g, max(1024, n_shift))  # n_shift >= n_max
    _, rates = _mass_rates(shared, triple, seed, t_grid, n_max)
    h_sigma = rates[0.0][0]
    shifts = _shifts(shared, seed, n_shift)
    nu = shifts.nu_upper
    fitted = tuple(rates[t][0] for t in t_grid)
    deviations = [abs(h - (h_sigma + nu * t)) for t, h in zip(t_grid, fitted)]
    ent = None
    gap = None
    if hom_table is not None:
        ent = tuple(entropy_from_hom(hom_table, t).exp_rate for t in t_grid)
        gap = max(abs(e - h) for e, h in zip(ent, fitted))
    return LinearityReport(
        t_grid=t_grid,
        mass_rates=fitted,
        line_intercept=float(h_sigma),
        line_slope=float(nu),
        max_deviation=float(max(deviations)),
        entropy_rates=ent,
        max_entropy_gap=gap,
    )


__all__ = [
    "GrowthReport",
    "fit_growth_report",
    "HomTable",
    "MassStream",
    "ShiftingNumbers",
    "EpsilonBounds",
    "InequalityRow",
    "InequalityReport",
    "LinearityReport",
    "mass_growth",
    "pol_mass_growth",
    "shifting_numbers",
    "pol_shifting_numbers",
    "entropy_from_hom",
    "pol_entropy_from_hom",
    "epsilon_bounds_from_hom",
    "yomdin_suite",
    "linearity_check",
    "DEFAULT_T_GRID",
]
