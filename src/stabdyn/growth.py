"""Dynamical growth invariants of verified triples and Hom tables.

Masses along the iteration are tracked factor-by-factor in log scale: the
log-modulus of every factor's charge at every schedule point, and the phase
of every factor, come from one vectorized call on the closed-form power
record of g (cover.PowerRecord), so schedules reach n = 2^20 and beyond
without overflow and without drift.  The stages of one public call share
that record; yomdin_suite and linearity_check share one evaluation of it.
Mass streams and Hom tables are both growth streams: a log row per weight t
on a schedule, and one fits(ts) that fits the missing rows in one batch and
keeps every fit, so a t grid asked of one stream is fitted once.  The
shifting numbers are two more rows of the same fit: the extreme phases of
the seed on the default schedule, whose rates are nu+- and whose polynomial
rates are nu_pol+-, each side with its row's diagnostics.

Rate extraction runs in two stages.  The dense prefix 1..SEQ_PREFIX of the
default schedule is scanned for exact linear-plus-periodic structure
(finite-order matrix parts produce exactly periodic deviations, whose
bounded wobble would otherwise bias any log n slope fit); when found, the
linear rate is read off exactly and the polynomial rate is zero.  Otherwise
the linear rate and a d/n term come from a least-squares fit over the
declared geometric tail window, and the polynomial rate from a Theil-Sen
log n slope of what they leave.  Every stage runs once over all the rows
that share a schedule, such as the t grid of one mass stream, and reads the
schedule's constants from its _fit.FitPlan, built once per schedule.
"""

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import cover, stability
from ._fit import (
    DETECT_MAX_PERIOD,
    fit_plan,
    geometric_schedule,
    joint_rate_fit,
    log_slope_fit,
    slope_pairs,
    theil_sen_slope,
)
from ._report import Report
from .errors import EmptyTable
from .lattice import spectral_data as _lattice_spectral_data

SEQ_PREFIX = 512  # dense schedule prefix scanned for structure
DETECT_TOL = 1e-9
_LAGS = np.arange(1, DETECT_MAX_PERIOD + 1)  # the periods the detector tries
SHIFT_N_MIN = 2**14  # yomdin_suite and linearity_check fit shifting numbers to at least this n
WEIGHT_TOL = 1e-10  # the rate error a weight's rounding may cause (MassStream.log_rows)
DEFAULT_T_GRID = (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)


# ---------------------------------------------------------------------------
# report containers


@dataclass(frozen=True)
class GrowthReport(Report):
    samples: tuple  # ((n, value), ...)
    exp_rate: float
    poly_rate: float
    closed_form: object = None  # (expected exp_rate, expected poly_rate) or None
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# structure detection and rate fitting


def _detect_linear_periodic(plan, rows):
    """Per row, (rate, period) when y(n+q) - y(n) is constant on a consecutive window.

    The window is plan.detector, inside a consecutive integer block of the
    schedule; a row gets None when no exact period is found (e.g. genuine
    log n growth).  rows is a 2-D array or a list of rows.  Every period of
    every row is screened on the first window point; then each row's
    smallest open period is checked on the whole window until one passes.
    Each rate is read off its row, so it keeps the row's type."""
    if plan.detector is None:
        return [None] * len(rows)
    first, hi, behind = plan.detector
    Y = np.asarray(rows, dtype=float)
    now = Y[:, first:hi]  # y(n) on the window
    ref = Y[:, hi - 1 : hi] - Y[:, hi - 1 - _LAGS]  # [r, q - 1]: y(n) - y(n - q) at the last point
    bound = DETECT_TOL * np.maximum(1.0, np.abs(ref))
    open_ = np.abs(Y[:, first : first + 1] - Y[:, first - _LAGS] - ref) <= bound
    periods = np.zeros(len(Y), dtype=int)
    while open_.any():
        r = np.flatnonzero(open_.any(axis=1))
        q = np.argmax(open_[r], axis=1)
        diffs = now[r] - Y[r[:, None], behind - q[:, None]]  # y(n) - y(n - q - 1)
        ok = np.all(np.abs(diffs - ref[r, q, None]) <= bound[r, q, None], axis=1)
        periods[r[ok]] = q[ok] + 1
        open_[r[ok]] = False
        open_[r[~ok], q[~ok]] = False
    return [((ys[hi - 1] - ys[hi - 1 - p]) / p, p) if p else None
            for ys, p in zip(rows, periods.tolist())]


def _fit_streams(ns, Y):
    """([(exp_rate, poly_rate, diagnostics)], [d]) for the rows of Y, all on schedule ns.

    Detection first; otherwise joint least squares for the linear rate and
    the d/n coefficient d (None on a periodic row), and a Theil-Sen log n slope
    of y - d/n - rate n (with a max-of-suffix-windows diagnostic) for the
    polynomial rate.  Each stage runs once over all rows, on the FitPlan of
    ns.  Y is a 2-D array or a list of rows; the periodic numbers read off a
    row keep its type.
    """
    plan = fit_plan(ns)
    ns = plan.ns
    detected = _detect_linear_periodic(plan, Y)
    Y = np.asarray(Y, dtype=float)
    out, ds = [None] * len(Y), [None] * len(Y)
    periodic = [r for r, d in enumerate(detected) if d is not None]
    if periodic:
        # deviations are exactly periodic, so the log n rate is zero
        tail = plan.tail
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
        rates, inv, rms, window = joint_rate_fit(plan, Y[fitted])
        slopes, win2, max_slopes = log_slope_fit(
            plan, Y[fitted] - np.outer(inv, 1.0 / ns) - np.array(rates)[:, None] * ns)
        for i, r in enumerate(fitted):
            ds[r] = inv[i]
            out[r] = (rates[i], slopes[i], {
                "structure": "fit",
                "fit_residual": rms[i],
                "window": window,
                "poly_window": win2,
                "poly_max_window_slope": max_slopes[i],
            })
    return out, ds


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
    exp_rate, poly_rate, diag = _fit_streams(ns, [ys])[0][0]
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
    if n_max >= 2**63:
        raise ValueError("n_max = %d is not below 2^63, the range of the power exponents" % n_max)
    return tuple(sorted(set(range(1, min(SEQ_PREFIX, n_max) + 1)) | set(geometric_schedule(n_max))))


@functools.lru_cache(maxsize=64)
def _stream_schedule(n_max):
    """(the join of default_schedule(n_max) and the shifting numbers'
    default_schedule(max(n_max, SHIFT_N_MIN)) as an int64 array, the
    positions of each in it)."""
    own, shift = _default_schedule(n_max), _default_schedule(max(n_max, SHIFT_N_MIN))
    both = np.array(sorted(set(own).union(shift)), dtype=np.int64)
    return both, np.searchsorted(both, own), np.searchsorted(both, shift)


# ---------------------------------------------------------------------------
# growth streams


class _Stream:
    """A log row on the schedule ns for every weight t, and the fits so far.

    A subclass supplies ns, log_rows(ts) (one log row per t) and _fits = {};
    _grid holds the ts a miss fits along."""

    _grid = ()

    def fits(self, ts):
        """[(log row of t, (exp_rate, poly_rate, diagnostics))] for each t of ts.
        On a miss, every t of _grid and ts not fitted yet is fitted in one
        _fit_streams batch and kept; the fit stages are row-wise, so a row's
        fit does not depend on its batch."""
        ts = [float(t) for t in ts]
        todo = [t for t in dict.fromkeys(self._grid + tuple(ts)) if t not in self._fits]
        if any(t in todo for t in ts):
            rows = self.log_rows(todo)
            self._fits.update(zip(todo, zip(rows, _fit_streams(self.ns, rows)[0])))
        return [self._fits[t] for t in ts]

    def report(self, t, closed_form=None):
        """GrowthReport of the fit of weight t, with its samples and the given
        closed_form."""
        ((ys, (exp_rate, poly_rate, diag)),) = self.fits([t])
        return GrowthReport(
            samples=tuple(zip(self.ns, np.asarray(ys).tolist())),
            exp_rate=float(exp_rate),
            poly_rate=float(poly_rate),
            closed_form=closed_form,
            diagnostics=dict(diag, t=t),
        )


class MassStream(_Stream):
    """Per-factor log-moduli and phases of the iterated seed object, and its fits so far.

    One record evaluation also gives the phases of the top and bottom factors
    on the schedule of _grid_rates' shifting numbers, when both have charge."""

    _grid = DEFAULT_T_GRID  # callers ask for one t at a time; the grid is one batch

    def __init__(self, triple, seed, n_max=4096):
        triple.require_verified()
        self.triple = triple
        self.ns = default_schedule(n_max)
        both, own, shift = _stream_schedule(n_max)
        Z = triple.sigma.Z
        zs = [stability.charge_of(Z, d.v) for d in seed.factors]
        # weak data: a factor of zero charge adds exactly zero mass
        charged = [(z.real, z.imag, d.phase) for z, d in zip(zs, seed.factors) if z != 0]
        if not charged:
            raise ValueError("seed has no factors with nonzero charge")
        w = np.array(charged)
        self.record = cover.power_record(triple.g)
        logs, phis = self.record.log_charge_and_phase(
            w[:, :1], w[:, 1:2], w[:, 2:], both[None, :])
        self.logs, self.phis = logs.take(own, axis=1), phis.take(own, axis=1)
        self._shift_rows = phis[[0, -1]].take(shift, axis=1) if zs[0] != 0 and zs[-1] != 0 else None
        self._fits = {}

    def log_rows(self, ts):
        """log m_{sigma,t}(Phi^n seed) at every schedule point, one row per t
        of ts: one log-sum-exp over (t, factor, n).

        t phi is rounded to half the spacing of |t| max|phi|, and a rate, a
        slope over n up to n_max, moves by about that over n_max (1.0 and 3.3
        times it on README's triple at n_max 4096, t = -1e12 and 3e11).  So a
        weight with spacing(|t| max|phi|) > WEIGHT_TOL n_max is refused
        (ValueError): it would round the log masses away.  Phases of drift
        tau reach |tau| n_max, so |t| < WEIGHT_TOL 2^52 / |tau| always passes."""
        ts = np.asarray(ts, dtype=float)
        reach = np.abs(ts) * np.max(np.abs(self.phis))
        bound = WEIGHT_TOL * self.ns[-1]
        refused = np.flatnonzero(~(np.spacing(reach) <= bound))  # nan (t phi overflows) too
        if len(refused):
            t, r = ts[refused[0]], reach[refused[0]]
            raise ValueError("weight t = %.12g is too large for this stream: |t| max|phi| = %.6g "
                             "is resolved only to %.3g, beyond %g n_max = %.3g"
                             % (t, r, np.spacing(r), WEIGHT_TOL, bound))
        x = self.logs + ts[:, None, None] * self.phis
        top = np.max(x, axis=1)
        return top + np.log(np.sum(np.exp(x - top[:, None, :]), axis=1))

    def log_mass(self, t=0.0):
        """log m_{sigma,t}(Phi^n seed) for every schedule point."""
        return self.log_rows([t])[0]


@dataclass(frozen=True)
class HomTable(_Stream):
    """dim Hom(G, Phi^n G'[k]) indexed by (n >= 1, k in Z), finite support.

    A growth stream on its rows ns: the log row of a weight t is each row's
    log sum of dim e^(-k t)."""

    entries: dict

    def __post_init__(self):
        cleaned = {}
        for (n, k), dim in self.entries.items():
            n, k, dim = int(n), int(k), int(dim)
            if n < 1:
                raise ValueError("table rows start at n = 1")
            if dim < 0:
                raise ValueError("dimensions are nonnegative")
            if dim > 0:
                cleaned[(n, k)] = dim
        if not cleaned:
            raise EmptyTable("no nonzero table entries")
        # entries by row, in insertion order within a row (a stable sort)
        order = sorted(cleaned, key=lambda nk: nk[0])
        n_of = np.fromiter((n for n, _ in order), np.int64, len(order))
        new_row = np.diff(n_of, prepend=0) != 0
        starts = np.flatnonzero(new_row)
        self.__dict__.update(
            entries=cleaned, ns=n_of[starts].tolist(), _fits={}, _starts=starts,
            _row_of=np.cumsum(new_row) - 1,
            _ks=np.fromiter((k for _, k in order), np.int64, len(order)),
            _log_dims=np.fromiter((math.log(cleaned[nk]) for nk in order), float, len(order)))

    def log_rows(self, ts):
        """The log of each row's sum of dim e^(-k t) (a log-sum-exp), a list
        of floats per t of ts."""
        vals = self._log_dims - np.asarray(ts, dtype=float)[:, None] * self._ks
        top = np.maximum.reduceat(vals, self._starts, axis=1)
        sums = np.add.reduceat(np.exp(vals - top[:, self._row_of]), self._starts, axis=1)
        return (top + np.log(sums)).tolist()


def mass_growth(triple, seed, t=0.0, n_max=4096, stream=None):
    """Exponential rate of log mass along the iteration."""
    stream = stream or MassStream(triple, seed, n_max=n_max)
    record = stream.record if stream.triple is triple else cover.power_record(triple.g)
    # every factor's phase drifts by tau per step, so h_t = log rho + t tau
    closed = (record.log_rho + t * record.tau, float(record.jordan)) if triple.spanning else None
    return stream.report(t, closed)


def pol_mass_growth(triple, seed, t=0.0, n_max=2**20):
    """Log n rate of log mass after removing the linear term.

    The linear term is the closed-form log rho(M_g) when the image spans
    (flagged in the diagnostics), otherwise the fitted rate.  The d/n term
    of _fit_streams goes too (fitted here on a periodic row, which has none)."""
    stream = MassStream(triple, seed, n_max=n_max)
    ys = stream.log_mass(t)
    plan = fit_plan(stream.ns)
    ns = plan.ns
    ((exp_rate, _, diag),), (d,) = _fit_streams(stream.ns, [ys])
    closed = None
    if triple.spanning and t == 0.0:
        closed = (stream.record.log_rho, float(stream.record.jordan))
        rate_used = stream.record.log_rho
        source = "closed_form"
    else:
        rate_used = exp_rate
        source = "fitted"
    if diag.get("structure") == "linear_plus_periodic" and abs(rate_used - exp_rate) < 1e-9:
        poly, window, max_slope = 0.0, diag.get("window"), 0.0
    else:
        # the d/n term goes first, so a Jordan block reads its rate
        d = joint_rate_fit(plan, ys[None])[1][0] if d is None else d
        (poly,), window, (max_slope,) = log_slope_fit(plan, (ys - d / ns)[None] - rate_used * ns)
    return GrowthReport(
        samples=tuple(zip(stream.ns, ys.tolist())),
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
class ShiftingNumbers(Report):
    nu_upper: float
    nu_lower: float
    translation: float
    diagnostics: dict


def shifting_numbers(triple, seed, n_max=2**16):
    """Linear phase drift of the extreme factor phases of the seed."""
    triple.require_verified()
    return _shifts(cover.power_record(triple.g), seed, n_max)[0]


def pol_shifting_numbers(triple, seed, n_max=2**16):
    """Log n rates of the phase deviations, plus the sublinearity check."""
    triple.require_verified()
    return _shifts(cover.power_record(triple.g), seed, n_max)[1]


def _shifts(record, seed, n_max, phis=None):
    """(shifting_numbers, pol_shifting_numbers) from the power record of g.

    phis, the phases of the seed's top and bottom factors on
    default_schedule(n_max) (one record.phase call when None), are two growth
    rows fitted in one _fit_streams batch: nu+- are their rates, nu_pol+-
    their polynomial rates, and each side carries its row's diagnostics."""
    top, bottom = stability.phases(seed)
    ns = _default_schedule(n_max)
    if phis is None:
        phis = record.phase(np.array([[top], [bottom]]), np.array(ns)[None, :])
    (up, lo), _ = _fit_streams(ns, phis)
    tau = record.tau
    base = ShiftingNumbers(
        nu_upper=float(up[0]), nu_lower=float(lo[0]), translation=float(tau),
        diagnostics={"upper": up[2], "lower": lo[2], "upper_vs_translation": abs(up[0] - tau),
                     "spread": abs(up[0] - lo[0])})
    top_n, bottom_n = phis[:, -1].tolist()
    sublinearity = (top_n - bottom_n - (top - bottom)) / math.log(ns[-1])
    return base, ShiftingNumbers(
        nu_upper=float(up[1]), nu_lower=float(lo[1]), translation=base.translation,
        diagnostics={"linear": base, "sublinearity": sublinearity})


# ---------------------------------------------------------------------------
# Hom-table estimators


def entropy_from_hom(table, t=0.0):
    """Growth rate of the weighted Hom sums along the table rows."""
    return table.report(t)


def pol_entropy_from_hom(table, t=0.0):
    """Log n rate of the weighted Hom sums after removing the linear and d/n
    terms: entropy_from_hom's own poly rate, with the polynomial diagnostics."""
    rep = entropy_from_hom(table, t)
    diag = rep.diagnostics
    return replace(rep, diagnostics={
        "t": t,
        "rate_subtracted": rep.exp_rate,
        "poly_window": diag.get("poly_window", diag["window"]),
        "poly_max_window_slope": diag.get("poly_max_window_slope", 0.0),
    })


@dataclass(frozen=True)
class EpsilonBounds(Report):
    ns: tuple
    eps_plus: tuple
    eps_minus: tuple
    nu_upper: float
    nu_lower: float


def epsilon_bounds_from_hom(table):
    """Extremal nonzero shifts per row and their linear drifts.

    Sign convention: a nonzero entry at shift k means Hom(G, Phi^n G'[-(-k)])
    is nonzero, so the upper extremal degree for row n is -min k and the
    lower one is -max k.
    """
    ns = table.ns
    eps_plus = (-np.minimum.reduceat(table._ks, table._starts)).tolist()
    eps_minus = (-np.maximum.reduceat(table._ks, table._starts)).tolist()
    nu_up, nu_lo = (theil_sen_slope(slope_pairs(ns), [eps_plus, eps_minus]) if len(ns) > 1
                    else (0.0, 0.0))
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
class InequalityRow(Report):
    name: str
    t: object  # float or None
    lhs: float
    rhs: float
    slack: float
    passed: bool


@dataclass(frozen=True)
class InequalityReport(Report):
    rows: tuple
    all_passed: bool
    values: dict


def _grid_rates(triple, seed, t_grid, n_max):
    """(the t grid with 0 added, sorted; {t: (h_t, its polynomial rate)};
    _shifts at max(n_max, SHIFT_N_MIN)): one mass stream, so one record
    evaluation, and one batched fit for each."""
    stream = MassStream(triple, seed, n_max=n_max)
    t_grid = tuple(sorted(set(float(t) for t in t_grid) | {0.0}))
    rates = {t: (float(e), float(p)) for t, (_, (e, p, _)) in zip(t_grid, stream.fits(t_grid))}
    return t_grid, rates, _shifts(stream.record, seed, max(n_max, SHIFT_N_MIN), stream._shift_rows)


def _table_rates(table, t_grid):
    """{t: exp_rate of the weighted Hom sums} for the grid: one batched fit."""
    return {t: float(e) for t, (_, (e, _, _)) in zip(t_grid, table.fits(t_grid))}


def yomdin_suite(triple, seed, hom_table=None, t_grid=DEFAULT_T_GRID, n_max=4096, tol=5e-2):
    """Every applicable growth inequality evaluated on fitted values.

    These are theorems for verified triples: a failure beyond tolerance
    indicates an implementation bug, never new mathematics.
    """
    t_grid, rates, (shifts, pol_shifts) = _grid_rates(triple, seed, t_grid, n_max)
    h_sigma = rates[0.0][0]
    h_sigma_pol = rates[0.0][1]
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
        ents = _table_rates(hom_table, t_grid)
        for t in t_grid:
            add("mass_le_entropy", t, rates[t][0], ents[t])
            if t >= 0.0:
                add("shift_t_le_entropy", t, nu_up * t, ents[t])
                add("entropy_le_hcat_plus_shift_t", t, ents[t], ents[0.0] + nu_up * t)

    return InequalityReport(
        rows=tuple(rows),
        all_passed=all(r.passed for r in rows),
        values=values,
    )


@dataclass(frozen=True)
class LinearityReport(Report):
    t_grid: tuple
    mass_rates: tuple
    line_intercept: float
    line_slope: float
    max_deviation: float
    entropy_rates: object = None  # tuple aligned with t_grid, or None
    max_entropy_gap: object = None


def linearity_check(triple, seed, t_grid=DEFAULT_T_GRID, n_max=4096, hom_table=None):
    """Affinity of the mass growth in t against the shifting-number line."""
    t_grid, rates, (shifts, _) = _grid_rates(triple, seed, t_grid, n_max)
    h_sigma = rates[0.0][0]
    nu = shifts.nu_upper
    fitted = tuple(rates[t][0] for t in t_grid)
    deviations = [abs(h - (h_sigma + nu * t)) for t, h in zip(t_grid, fitted)]
    ent = None
    gap = None
    if hom_table is not None:
        ent = tuple(_table_rates(hom_table, t_grid).values())
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
