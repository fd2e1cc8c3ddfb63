"""The row-batched fit layer against the loops it replaced.

The references below are the per-pair Theil-Sen loop, the per-target argmin
thinning and the per-suffix np.polyfit, and the fits as they were before
the fit plan, which built every schedule constant on each call; they live
here only.
"""

import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from stabdyn import _fit, cover, families, growth, scenarios
from stabdyn._fit import (
    fit_plan,
    joint_rate_fit,
    log_slope_fit,
    slope_pairs,
    suffix_slopes,
    suffix_sums,
    tail_indices,
    theil_sen_slope,
    thin,
)
from stabdyn.growth import (
    DEFAULT_T_GRID,
    MassStream,
    _detect_linear_periodic,
    _fit_streams,
    default_schedule,
)
from stabdyn.stability import HNObject, SemistableDatum, charge_of


def _pairwise_theil_sen(xs, ys):
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    slopes = []
    for i in range(len(xs)):
        dx = xs[i + 1 :] - xs[i]
        dy = ys[i + 1 :] - ys[i]
        keep = np.abs(dx) > 1e-12
        slopes.extend((dy[keep] / dx[keep]).tolist())
    if not slopes:
        return 0.0
    return float(np.median(slopes))


def _argmin_thin(idx, ns, max_points=64):
    if len(idx) <= max_points:
        return idx
    targets = np.geomspace(ns[idx[0]], ns[idx[-1]], max_points)
    chosen = sorted({int(idx[np.argmin(np.abs(ns[idx] - t))]) for t in targets})
    return np.array(chosen)


def _polyfit_suffix_slopes(x, y):
    out = []
    for start in range(0, max(1, len(x) - 2)):
        xs, yw = x[start:], y[start:]
        if len(xs) < 3 or xs[-1] - xs[0] < 1e-9:
            break
        out.append(float(np.polyfit(xs, yw, 1)[0]))
    return out


def _family_streams(n_max):
    """log-mass rows of family triples of every kind at every t of the grid."""
    rng = np.random.default_rng(71)
    rows, ns = [], None
    for kind in ("hyperbolic", "parabolic", "elliptic"):
        for rank, shift in ((2, 0), (3, 1), (4, -2)):
            t = families.compatible_triple(rng, rank=rank, kind=kind, shift=shift)
            stream = MassStream(t, families.seed_object(t), n_max=n_max)
            ns = stream.ns
            rows += [stream.log_mass(x) for x in DEFAULT_T_GRID]
    return np.asarray(ns, dtype=float), np.array(rows)


def _random_rows(rng, k, m):
    x = np.sort(rng.uniform(0.0, 5.0, m))
    return x, rng.normal(size=(k, m)) + rng.normal(size=(k, 1)) * x


def test_theil_sen_equals_the_pairwise_loop():
    rng = np.random.default_rng(3)
    cases = [_random_rows(rng, 5, m) for m in (2, 3, 17, 64)]
    # repeated abscissae (dropped pairs) and integer data with tied slopes
    xs = np.repeat(np.arange(12.0), 3)
    cases.append((xs, rng.integers(-3, 4, size=(4, len(xs))).astype(float)))
    cases.append((np.arange(1.0, 64.0), np.array([-np.arange(1.0, 64.0), np.zeros(63)])))
    for xs, Y in cases:
        got = theil_sen_slope(slope_pairs(xs), Y)
        assert got.tolist() == [_pairwise_theil_sen(xs, y) for y in Y]
    assert theil_sen_slope(slope_pairs([1.0, 1.0]), [[0.0, 5.0], [1.0, 2.0]]).tolist() == [0.0, 0.0]


def test_thinning_equals_the_argmin_loop():
    schedules = [np.asarray(default_schedule(n), dtype=float)
                 for n in (64, 4096, 5000, 2**16, 2**20)]
    # a consecutive tail of 7169 points, thinned to 64
    schedules.append(np.arange(1.0, 8193.0))
    for ns in schedules:
        for fraction in (8, 64):
            idx = tail_indices(ns, fraction)
            got, want = thin(idx, ns), _argmin_thin(idx, ns)
            assert got.tolist() == want.tolist()
    assert len(tail_indices(schedules[-1])) == 7169
    # every target exactly halfway between two samples: the lower one wins
    targets = np.geomspace(1.0, 1000.0, 64)
    gap = 4 * np.spacing(targets[1:-1])
    ns = np.sort(np.concatenate(([1.0, 1000.0], targets[1:-1] - gap, targets[1:-1] + gap)))
    idx = np.arange(len(ns))
    assert ns[0] == 1.0 and ns[-1] == 1000.0
    got, want = thin(idx, ns), _argmin_thin(idx, ns)
    assert got.tolist() == want.tolist()
    assert np.all(np.isin(ns[got[1:-1]], targets[1:-1] - gap))


def _close(got, want, x, y, rel=1e-12):
    """Within rel of want; a slope at rounding level (a constant row) is
    compared on the scale max|y| / (x span) of the data instead."""
    got, want = np.asarray(got), np.asarray(want)
    scale = np.maximum(np.abs(want), np.max(np.abs(y)) / (x[-1] - x[0]))
    return got.shape == want.shape and np.all(np.abs(got - want) <= rel * scale)


def test_suffix_slopes_match_polyfit():
    rng = np.random.default_rng(5)
    ns, Y = _family_streams(4096)
    idx = thin(tail_indices(ns), ns)
    cases = [(np.log(ns[idx]), Y[:, idx])]
    cases += [_random_rows(rng, 4, m) for m in (3, 4, 10, 64)]
    # a suffix spanning less than 1e-9 ends the scan
    x = np.array([0.0, 1.0, 2.0, 3.0, 3.0 + 1e-10, 3.0 + 2e-10])
    cases.append((x, rng.normal(size=(2, 6))))
    for x, Y in cases:
        got = suffix_slopes(suffix_sums(x), Y)
        for row, y in zip(got, Y):
            assert _close(row, _polyfit_suffix_slopes(x, y), x, y)
    assert suffix_slopes(suffix_sums(np.array([0.0, 1.0])), np.zeros((3, 2))).shape == (3, 0)
    assert suffix_slopes(suffix_sums(cases[-1][0]), cases[-1][1]).shape == (2, 3)


def test_log_slope_fit_matches_the_reference_fit():
    for n_max in (4096, 2**20):
        ns, Y = _family_streams(n_max)
        slopes, window, maxima = log_slope_fit(fit_plan(ns), Y)
        idx = _argmin_thin(tail_indices(ns), ns)
        x = np.log(ns[idx])
        assert window == (float(ns[idx[0]]), float(ns[idx[-1]]))
        for y, slope, top in zip(Y[:, idx], slopes, maxima):
            assert slope == _pairwise_theil_sen(x, y)
            assert _close(top, max(_polyfit_suffix_slopes(x, y)), x, y)


@pytest.mark.parametrize("n_max", [4096, 2**20])
def test_batched_fit_equals_each_row_alone(n_max):
    ns, Y = _family_streams(n_max)
    batch, _ = _fit_streams(ns, Y)
    structures = {diag["structure"] for _, _, diag in batch}
    assert structures == {"linear_plus_periodic", "fit"}
    for row, got in zip(Y, batch):
        want = _fit_streams(ns, [row])[0][0]
        assert repr(got) == repr(want)
    # a list-of-lists batch reads its periodic numbers as Python floats
    listed, _ = _fit_streams(ns.astype(int).tolist(), Y.tolist())
    for got, want in zip(listed, batch):
        assert got == want and type(got[0]) is float
        assert all(type(v) is not np.float64 for v in got[2].values())


def _lstsq_coefs(ns, Y, columns):
    """Least-squares coefficients of each row of Y on the tail window."""
    idx = tail_indices(ns)
    n = ns[idx]
    design = np.column_stack([n, np.log(n), np.ones_like(n), 1.0 / n])[:, :columns]
    return np.array([np.linalg.lstsq(design, y, rcond=None)[0] for y in Y[:, idx]])


def test_one_over_n_column_takes_a_jordan_tail():
    # s log n + c + d/n: the 1/n term would bias a log n slope fit on y - a n
    ns = np.asarray(default_schedule(4096), dtype=float)
    Y = np.array([2.0 * np.log(ns) + 0.3 + 40.0 / ns, 0.5 * ns + np.log(ns) - 25.0 / ns])
    rates, inv, _, _ = joint_rate_fit(fit_plan(ns), Y)
    assert rates == pytest.approx([0.0, 0.5], abs=1e-12)
    assert inv == pytest.approx([40.0, -25.0], rel=1e-9)
    ((_, poly, _), (_, poly2, _)), _ = _fit_streams(ns, Y)
    assert poly == pytest.approx(2.0, abs=1e-9) and poly2 == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n_max", [4096, 2**20])
def test_one_over_n_column_cannot_absorb_an_irrational_rotation(n_max):
    """log |M^n z| for M an irrational rotation conjugated by a shear and a
    scale: a bounded wobble with no 1/n term.  The fit leaves the 1/n column
    out, so the rates are those of the three-column fit."""
    rng = np.random.default_rng(29)
    ns = np.asarray(default_schedule(n_max), dtype=float)
    rows = []
    for _ in range(40):
        theta = math.pi * rng.uniform(0.05, 0.95)
        A = np.array([[1.0, rng.uniform(-3.0, 3.0)], [0.0, math.exp(rng.uniform(-1.5, 1.5))]])
        R = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
        M = A @ R @ np.linalg.inv(A)
        record = cover.power_record(cover.lift_from(M, math.atan2(M[1, 0], M[0, 0]) / math.pi))
        z = rng.normal(size=2)
        rows.append(record.log_charge(z[0], z[1], ns.astype(np.int64)))
    Y = np.array(rows)
    idx = tail_indices(ns)
    wobble = np.ptp(Y[:, idx], axis=1)
    rates, inv, _, _ = joint_rate_fit(fit_plan(ns), Y)
    assert inv == [0.0] * len(Y)
    assert rates == pytest.approx(_lstsq_coefs(ns, Y, 3)[:, 0].tolist(), rel=1e-9, abs=1e-15)
    # a four-column fit would turn the wobble into a 1/n term larger than itself
    d = _lstsq_coefs(ns, Y, 4)[:, 3]
    assert np.median(np.abs(d) * (1.0 / ns[idx[0]] - 1.0 / ns[idx[-1]]) / wobble) > 1.0


# --- the fits before the fit plan, verbatim, as references ----------------------------


def _ref_joint_rate_fit(ns, Y, fraction=8):
    """joint_rate_fit one row at a time, building the design, its
    pseudo-inverse and the rounding floor on every call."""
    idx = tail_indices(ns, fraction)
    n = ns[idx]
    window = (float(n[0]), float(n[-1]))
    zeros = [0.0] * len(Y)
    if len(n) < 3:
        # under-determined: fall back to a plain slope
        rates = [0.0 if len(n) < 2 else float((y[-1] - y[0]) / (n[-1] - n[0]))
                 for y in Y[:, idx]]
        return rates, zeros, zeros, window
    columns = np.array([n, np.log(n), np.ones_like(n), 1.0 / n])[: 3 + (len(n) > 4)]
    # n and 1/n differ by 2 log10(n) decades; each column is monotone in n
    scale = np.abs(columns[:, [0, -1]]).max(axis=1)
    columns /= scale[:, None]
    design = columns.T
    pinv = np.linalg.pinv(design)
    floor = (np.linalg.cond(design) * np.finfo(float).eps) ** 2
    if len(columns) == 4:
        # dropping a row's 1/n coefficient d adds d^2 gap to its residual
        # sum of squares and d move to its other coefficients
        move, (gap,), *_ = np.linalg.lstsq(design[:, :3], design[:, 3], rcond=None)
    rates, inv, rms = [], [], []
    for y in Y[:, idx]:
        y = np.ascontiguousarray(y[None])
        coef = np.einsum("ij,kj->ki", pinv, y)[0]
        resid = y[0] - np.einsum("ij,kj->ki", design, coef[None])[0]
        rss = np.einsum("ij,ij->i", resid[None], resid[None])[0]
        if len(coef) == 4 and coef[3] ** 2 * gap < 9.0 * (rss - floor * np.einsum("ij,ij->i", y, y)[0]):
            rss += coef[3] ** 2 * gap
            coef = np.append(coef[:3] + np.outer(coef[3:], move)[0], 0.0)
        coef /= scale[: len(coef)]
        rates.append(float(coef[0]))
        inv.append(float(coef[3]) if len(coef) == 4 else 0.0)
        rms.append(float(np.sqrt(rss / len(y[0]))))
    return rates, inv, rms, window


def _ref_theil_sen_slope(xs, Y):
    xs = np.asarray(xs, dtype=float)
    Y = np.asarray(Y, dtype=float)
    i, j = np.nonzero(np.arange(len(xs))[:, None] < np.arange(len(xs)))  # pairs i < j
    dx = xs[j] - xs[i]
    keep = np.abs(dx) > 1e-12
    if not keep.any():
        return np.zeros(len(Y))
    slopes = Y[:, j[keep]]
    slopes -= Y[:, i[keep]]
    slopes /= dx[keep]
    return np.median(slopes, axis=1, overwrite_input=True)


def _ref_suffix_slopes(x, Y):
    starts = np.arange(max(len(x) - 2, 0))
    short = np.flatnonzero(x[-1] - x[starts] < 1e-9)
    count = int(short[0]) if len(short) else len(starts)
    dx = x - x[-1]
    dy = Y - Y[:, -1:]

    def suffix_sums(a):
        return np.cumsum(a[..., ::-1], axis=-1)[..., ::-1][..., :count]

    npts = (len(x) - starts)[:count]
    sx = suffix_sums(dx)
    sy = suffix_sums(dy)
    return (suffix_sums(dx * dy) - sx * sy / npts) / (suffix_sums(dx * dx) - sx * sx / npts)


def _ref_log_slope_fit(ns, Y):
    """log_slope_fit as it was, thinning and pairing on every call."""
    idx = thin(tail_indices(ns), ns)
    x = np.log(ns[idx])
    Y = Y[:, idx]
    slopes = _ref_theil_sen_slope(x, Y)
    windows = _ref_suffix_slopes(x, Y)
    max_slopes = windows.max(axis=1) if windows.shape[1] else slopes
    max_slopes = np.where(np.isfinite(max_slopes), max_slopes, slopes)
    return slopes.tolist(), (float(ns[idx[0]]), float(ns[idx[-1]])), max_slopes.tolist()


def _ref_consecutive_run(ns):
    edges = np.concatenate(([0], np.flatnonzero(ns[1:] != ns[:-1] + 1) + 1, [len(ns)]))
    k = int(np.argmax(edges[1:] - edges[:-1]))
    return int(edges[k]), int(edges[k + 1])


def _ref_detect_linear_periodic(ns, rows, max_period=48, tol=1e-9):
    """_detect_linear_periodic as it was, finding its window on every call."""
    lo, hi = _ref_consecutive_run(np.asarray(ns, dtype=float))
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


def _hom_rows():
    table = scenarios.p1_hom_table(4096)
    return np.asarray(table.ns, dtype=float), table.log_rows(DEFAULT_T_GRID)


def _assert_planned_fits_equal_the_references(ns, rows):
    plan = fit_plan(ns)
    Y = np.asarray(rows, dtype=float)
    for arg in (rows, Y):
        want = _ref_detect_linear_periodic(ns, arg)
        assert repr(_detect_linear_periodic(plan, arg)) == repr(want)
    for fraction in (8, 64):
        got = joint_rate_fit(plan, Y, fraction)
        assert repr(got) == repr(_ref_joint_rate_fit(ns, Y, fraction))
    rates, inv, _, _ = got
    for Z in (Y, Y - np.outer(inv, 1.0 / ns) - np.array(rates)[:, None] * ns):
        assert repr(log_slope_fit(plan, Z)) == repr(_ref_log_slope_fit(ns, Z))


@pytest.mark.parametrize("n_max", [160, 4096, 2**14, 2**20])
def test_planned_fits_equal_the_per_call_fits(n_max, monkeypatch):
    # every kind of family stream: periodic rows, Jordan tails, shifted phases
    ns, Y = _family_streams(n_max)
    _assert_planned_fits_equal_the_references(ns, Y)
    # and the whole stream fit, against one made of the references
    want = []
    with monkeypatch.context() as m:
        m.setattr(growth, "_detect_linear_periodic",
                  lambda plan, rows: _ref_detect_linear_periodic(plan.ns, rows))
        m.setattr(growth, "joint_rate_fit", lambda plan, Y: _ref_joint_rate_fit(plan.ns, Y))
        m.setattr(growth, "log_slope_fit", lambda plan, Y: _ref_log_slope_fit(plan.ns, Y))
        want = _fit_streams(ns, Y)
    assert repr(_fit_streams(ns, Y)) == repr(want)


def test_planned_fits_equal_the_per_call_fits_on_a_hom_table():
    ns, rows = _hom_rows()
    _assert_planned_fits_equal_the_references(ns, rows)


def _count_evaluations_and_plans(monkeypatch, call):
    """(power-record coefficient evaluations, fit plans built) during call()."""
    counts = [0, 0]
    coeffs, plan = cover.PowerRecord._coeffs, _fit.FitPlan

    def counting_coeffs(self, n):
        counts[0] += 1
        return coeffs(self, n)

    class CountingPlan(plan):
        def __init__(self, ns):
            counts[1] += 1
            super().__init__(ns)

    with monkeypatch.context() as m:
        m.setattr(cover.PowerRecord, "_coeffs", counting_coeffs)
        m.setattr(_fit, "FitPlan", CountingPlan)
        call()
    return counts


@pytest.mark.parametrize("suite", [growth.yomdin_suite, growth.linearity_check],
                         ids=["yomdin", "linearity"])
def test_a_suite_call_evaluates_the_record_once_and_a_second_builds_no_plan(monkeypatch, suite):
    rng = np.random.default_rng(83)
    triples = [families.compatible_triple(rng, rank=3, kind=k, shift=1)
               for k in ("hyperbolic", "parabolic", "elliptic")]
    for n_max in (1024, 4096, 5000):  # the shift schedule holds n_max, or does not
        _fit._plan.cache_clear()
        for i, t in enumerate(triples):
            call = lambda: suite(t, families.seed_object(t), n_max=n_max)  # noqa: E731
            evaluations, plans = _count_evaluations_and_plans(monkeypatch, call)
            assert evaluations == 1
            # the mass stream's schedule and the shifting numbers' one
            assert plans == (2 if i == 0 else 0)
    # a top factor of zero charge has no row in the stream: its phases take
    # a record.phase call of their own
    triple = scenarios.run_scenario("weak", intersection_number=0.0).triple
    top = HNObject((SemistableDatum((0, 1), 1.0), SemistableDatum((1, 0), 0.5)))
    assert charge_of(triple.sigma.Z, (0, 1)) == 0 and charge_of(triple.sigma.Z, (1, 0)) != 0
    evaluations, _ = _count_evaluations_and_plans(monkeypatch, lambda: suite(triple, top))
    assert evaluations == 2
    shifts = growth.shifting_numbers(triple, top, n_max=growth.SHIFT_N_MIN)
    assert repr(suite(triple, top)) == repr(suite(triple, top))
    if suite is growth.yomdin_suite:
        values = suite(triple, top).values
        assert (values["nu_upper"], values["nu_lower"]) == (shifts.nu_upper, shifts.nu_lower)
    else:
        assert suite(triple, top).line_slope == shifts.nu_upper


def _parabolic_probe_rows():
    rng = np.random.default_rng(5)
    rows = []
    for i in range(60):
        t = families.compatible_triple(rng, rank=2 + i % 5, kind="parabolic", shift=int(rng.integers(-2, 3)))
        rows.append(growth.MassStream(t, families.seed_object(t), n_max=2**20).log_rows(DEFAULT_T_GRID))
    return np.asarray(growth.default_schedule(2**20), dtype=float), np.concatenate(rows)


def test_the_one_over_n_choice_does_not_depend_on_the_solver():
    """A pseudo-inverse solve and a QR solve of the same design keep the 1/n
    column on the same rows: only an rss beyond the rounding floor counts."""
    ns, Y = _parabolic_probe_rows()
    idx, _, design, _, _, floor, _, gap = fit_plan(ns).design
    W = Y[:, idx]
    q, r = np.linalg.qr(design)
    choices = []
    for coef in (W @ np.linalg.pinv(design).T, np.linalg.solve(r, q.T @ W.T).T):
        resid = W - coef @ design.T
        rss = np.sum(resid * resid, axis=1)
        choices.append(coef[:, 3] ** 2 * gap >= 9.0 * (rss - floor * np.sum(W * W, axis=1)))
    assert np.array_equal(choices[0], choices[1])
    rates, inv, _, _ = joint_rate_fit(fit_plan(ns), Y)
    assert np.array_equal(np.asarray(inv) != 0.0, choices[0])


def test_a_row_alone_fits_as_in_a_batch_of_seven():
    ns, Y = _parabolic_probe_rows()
    plan = fit_plan(ns)
    batch = joint_rate_fit(plan, Y[7:14])
    for k in range(7):
        alone = joint_rate_fit(plan, Y[7 + k : 8 + k])
        assert [v[k] for v in batch[:3]] == [v[0] for v in alone[:3]]
