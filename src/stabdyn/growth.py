"""Dynamical growth invariants of verified triples and Hom tables.

Masses along the iteration are tracked factor-by-factor in log scale: the
log-modulus of every factor's charge at every schedule point, and the phase
of every factor, come from one vectorized call on the closed-form power
record of g (cover.PowerRecord), so schedules reach n = 2^20 and beyond
without overflow and without drift.  The stages of one public call share
that record; nothing outlives the call.

Rate extraction runs in two stages.  The dense prefix 1..SEQ_PREFIX of the
default schedule is scanned for exact linear-plus-periodic structure
(finite-order matrix parts produce exactly periodic deviations, whose
bounded wobble would otherwise bias any log n slope fit); when found, the
linear rate is read off exactly and the polynomial rate is zero.  Otherwise
rates come from least-squares / Theil-Sen fits over the declared geometric
tail window.  Every stage runs once over all the streams that share a
schedule, such as the t grid of one mass stream.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import cover, stability
from ._fit import (
    geometric_schedule,
    joint_rate_fit,
    log_slope_fit,
    tail_indices,
    theil_sen_slope,
)
from .errors import EmptyTable
from .lattice import spectral_data as _lattice_spectral_data

SEQ_PREFIX = 512  # dense schedule prefix scanned for structure
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


def _consecutive_run(ns):
    """(lo, hi) of the longest run of consecutive integers ns[lo:hi], the first on a tie."""
    edges = np.concatenate(([0], np.flatnonzero(ns[1:] != ns[:-1] + 1) + 1, [len(ns)]))
    k = int(np.argmax(edges[1:] - edges[:-1]))
    return int(edges[k]), int(edges[k + 1])


def _detect_linear_periodic(ns, rows, max_period=DETECT_MAX_PERIOD, tol=DETECT_TOL):
    """Per row, (rate, period) when y(n+q) - y(n) is constant on a consecutive window.

    Requires a consecutive integer block inside the schedule; a row gets None
    when no exact period is found (e.g. genuine log n growth).  rows is a 2-D
    array or a list of rows.  Every period of every row is screened on the
    first window point; then each row's smallest open period is checked on
    the whole window until one passes.  Each rate is read off its row, so it
    keeps the row's type."""
    lo, hi = _consecutive_run(np.asarray(ns, dtype=float))
    if hi - lo < 2 * max_period + 64:
        return [None] * len(rows)
    window = min(160, (hi - lo) // 2)
    block = np.asarray(rows, dtype=float)[:, hi - window - max_period : hi]
    now = block[:, max_period:]  # y(n) on the window
    lags = sliding_window_view(block, window, axis=1)  # [r, max_period - q] = y(n - q)
    ref = now[:, -1:] - lags[:, -2::-1, -1]  # [r, q - 1]: y(n) - y(n - q) at the last point
    bound = tol * np.maximum(1.0, np.abs(ref))
    open_ = np.abs(now[:, :1] - lags[:, -2::-1, 0] - ref) <= bound
    periods = np.zeros(len(block), dtype=int)
    while open_.any():
        r = np.flatnonzero(open_.any(axis=1))
        q = np.argmax(open_[r], axis=1)
        diffs = now[r] - lags[r, max_period - 1 - q]
        ok = np.all(np.abs(diffs - ref[r, q, None]) <= bound[r, q, None], axis=1)
        periods[r[ok]] = q[ok] + 1
        open_[r[ok]] = False
        open_[r[~ok], q[~ok]] = False
    return [((ys[hi - 1] - ys[hi - 1 - p]) / p, p) if p else None
            for ys, p in zip(rows, periods.tolist())]


def _fit_streams(ns, Y):
    """[(exp_rate, poly_rate, diagnostics)] for the rows of Y, all on schedule ns.

    Detection first; otherwise joint least squares for the linear rate and a
    Theil-Sen log n slope (with a max-of-suffix-windows diagnostic) for the
    polynomial rate.  Each stage runs once over all rows.  Y is a 2-D array
    or a list of rows; the periodic numbers read off a row keep its type.
    """
    ns = np.asarray(ns, dtype=float)
    detected = _detect_linear_periodic(ns, Y)
    Y = np.asarray(Y, dtype=float)
    out = [None] * len(Y)
    periodic = [r for r, d in enumerate(detected) if d is not None]
    if periodic:
        # deviations are exactly periodic, so the log n rate is zero
        tail = tail_indices(ns)
        rates = np.array([detected[r][0] for r in periodic])
        spans = np.ptp(Y[periodic][:, tail] - rates[:, None] * ns[tail], axis=1)
        spans /= math.log(ns[tail[-1]])
        window = (float(ns[tail[0]]), float(ns[tail[-1]]))
        for r, ratio in zip(periodic, spans):
            rate, q = detected[r]
            out[r] = (rate, 0.0, {
                "structure": "linear_plus_periodic",
                "period": q,
                "deviation_ratio_bound": type(rate)(ratio),
                "window": window,
            })
    fitted = [r for r, d in enumerate(detected) if d is None]
    if fitted:
        rates, rms, window = joint_rate_fit(ns, Y[fitted])
        slopes, win2, max_slopes = _poly_rate_about(ns, Y[fitted], rates)
        for i, r in enumerate(fitted):
            out[r] = (rates[i], slopes[i], {
                "structure": "fit",
                "fit_residual": rms[i],
                "window": window,
                "poly_window": win2,
                "poly_max_window_slope": max_slopes[i],
            })
    return out


def _fit_stream(ns, ys):
    """(exp_rate, poly_rate, diagnostics) for one growth stream: a batch of one."""
    return _fit_streams(ns, [ys])[0]


def _poly_rate_about(ns, Y, rates):
    """Theil-Sen log n slopes of the rows of Y after removing each row's linear
    rate; ns is a float array.  Returns log_slope_fit's (slopes, window, maxima)."""
    return log_slope_fit(ns, Y - np.asarray(rates, dtype=float)[:, None] * ns)


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


def default_schedule(n_max):
    """The dense prefix 1..SEQ_PREFIX (capped at n_max) joined with the
    geometric schedule to n_max, as a new list."""
    return list(_default_schedule(n_max))


@functools.lru_cache(maxsize=64)
def _default_schedule(n_max):
    return tuple(sorted(set(range(1, min(SEQ_PREFIX, n_max) + 1)) | set(geometric_schedule(n_max))))


# ---------------------------------------------------------------------------
# mass streams


class MassStream:
    """Per-factor log-moduli and phases of the iterated seed object."""

    def __init__(self, triple, seed, n_max=4096, schedule=None):
        self._fill(triple, seed, n_max, schedule, None)

    def _fill(self, triple, seed, n_max, schedule, record):
        triple.require_verified()
        self.triple = triple
        self.seed = seed
        if schedule is None:
            ns = default_schedule(n_max)
        else:
            ns = sorted({int(n) for n in schedule})
            if not ns or ns[0] < 1:
                raise ValueError("schedule entries must be >= 1")
        self.ns = ns
        Z = triple.sigma.Z
        charges, phases = [], []
        for d in seed.factors:
            z = stability.charge_of(Z, d.v)
            if z == 0:
                continue  # weak data: exactly zero mass contribution
            charges.append((z.real, z.imag))
            phases.append(d.phase)
        if not charges:
            raise ValueError("seed has no factors with nonzero charge")
        record = record or cover.power_record(triple.g)
        w = np.array(charges)
        n = np.array(ns)[None, :]
        self.logs = record.log_charge(w[:, :1], w[:, 1:], n)
        self.phis = record.phase(np.array(phases)[:, None], n)

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
        record = cover.power_record(triple.g)
        closed = (record.log_rho, float(record.jordan))
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
    ns = np.asarray(stream.ns, dtype=float)
    exp_rate, _, diag = _fit_stream(ns, ys)
    closed = None
    if triple.spanning and t == 0.0:
        record = cover.power_record(triple.g)
        closed = (record.log_rho, float(record.jordan))
        rate_used = record.log_rho
        source = "closed_form"
    else:
        rate_used = exp_rate
        source = "fitted"
    if diag.get("structure") == "linear_plus_periodic" and abs(rate_used - exp_rate) < 1e-9:
        poly = 0.0
        window, max_slope = diag.get("window"), 0.0
    else:
        (poly,), window, (max_slope,) = _poly_rate_about(ns, ys[None], [rate_used])
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


def _nu_estimates(phis, n_max):
    """[(nu, structure)] for the rows of phis, the phases of orbits at
    n = 0..SEQ_PREFIX, n_max // 2 and n_max; one detector pass for all rows."""
    out = []
    detected = _detect_linear_periodic(np.arange(SEQ_PREFIX + 1.0), phis[:, : SEQ_PREFIX + 1])
    for row, d in zip(phis, detected):
        if d is not None:
            out.append((d[0], {"structure": "linear_plus_periodic", "period": d[1]}))
        else:
            nu = (row[-1] - row[-2]) / (n_max - n_max // 2)
            out.append((nu, {"structure": "two_scale", "n_max": n_max}))
    return out


def shifting_numbers(triple, seed, n_max=2**16):
    """Linear phase drift of the extreme factor phases of the seed."""
    triple.require_verified()
    return _shifts(cover.power_record(triple.g), seed, n_max)


def _shifts(record, seed, n_max):
    """shifting_numbers from the power record of g."""
    top, bottom = stability.phases(seed)
    ns = list(range(SEQ_PREFIX + 1)) + [n_max // 2, n_max]
    phis = record.phase(np.array([[top], [bottom]]), np.array(ns)[None, :])
    (nu_up, d_up), (nu_lo, d_lo) = _nu_estimates(phis, n_max)
    tau = record.tau
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
    record = cover.power_record(triple.g)
    return _pol_shifts(record, seed, n_max, _shifts(record, seed, n_max))


def _pol_shifts(record, seed, n_max, base):
    """pol_shifting_numbers from the already computed linear ones, base."""
    top, bottom = stability.phases(seed)
    ns = np.array(_default_schedule(n_max), dtype=float)
    phis = record.phase(np.array([[top], [bottom]]), ns[None, :])
    nus = [base.nu_upper, base.nu_lower]
    fitted = [r for r, side in enumerate(("upper", "lower"))
              if base.diagnostics[side].get("structure") != "linear_plus_periodic"]
    pols = [0.0, 0.0]
    if fitted:
        slopes = _poly_rate_about(ns, phis[fitted], [nus[r] for r in fitted])[0]
        for r, slope in zip(fitted, slopes):
            pols[r] = slope
    nu_pol_up, nu_pol_lo = pols
    top_n, bottom_n = phis[:, -1].tolist()
    sublinearity = (top_n - bottom_n - (top - bottom)) / math.log(ns[-1])
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
        (poly,), window, (max_slope,) = _poly_rate_about(
            np.asarray(ns, dtype=float), np.array([ys]), [exp_rate])
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
    nu_up, nu_lo = theil_sen_slope(ns, [eps_plus, eps_minus]) if len(ns) > 1 else (0.0, 0.0)
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


def _mass_rates(record, triple, seed, t_grid, n_max):
    """h_{sigma,t} and its polynomial companion for every t: one stream pass,
    and one batched fit of the whole grid."""
    stream = MassStream.__new__(MassStream)
    stream._fill(triple, seed, n_max, None, record)
    fits = _fit_streams(stream.ns, np.array([stream.log_mass(t) for t in t_grid]))
    rates = {t: (float(e), float(p), diag) for t, (e, p, diag) in zip(t_grid, fits)}
    return stream, rates


def yomdin_suite(triple, seed, hom_table=None, t_grid=DEFAULT_T_GRID, n_max=4096, tol=5e-2):
    """Every applicable growth inequality evaluated on fitted values.

    These are theorems for verified triples: a failure beyond tolerance
    indicates an implementation bug, never new mathematics.
    """
    triple.require_verified()
    t_grid = tuple(sorted(set(float(t) for t in t_grid) | {0.0}))
    n_shift = max(n_max, 2**14)
    record = cover.power_record(triple.g)
    _, rates = _mass_rates(record, triple, seed, t_grid, n_max)
    h_sigma = rates[0.0][0]
    h_sigma_pol = rates[0.0][1]
    shifts = _shifts(record, seed, n_shift)
    pol_shifts = _pol_shifts(record, seed, n_shift, shifts)
    nu_up, nu_lo = shifts.nu_upper, shifts.nu_lower
    nup_up, nup_lo = pol_shifts.nu_upper, pol_shifts.nu_lower

    lattice_data = _lattice_spectral_data(triple.auto.P)
    log_rho = math.log(lattice_data.rho)
    s_lattice = float(lattice_data.s)

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
    record = cover.power_record(triple.g)
    _, rates = _mass_rates(record, triple, seed, t_grid, n_max)
    h_sigma = rates[0.0][0]
    shifts = _shifts(record, seed, n_shift)
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
    "default_schedule",
]
