"""Slope-fitting helpers shared by the growth estimators.

Every fit is row-batched: the rows of a (k, m) array are k streams sampled
on one schedule ns.  What depends on the schedule alone (the period
detector's window, the tail window, the scaled design and its
pseudo-inverse, the log-spaced thinning, the Theil-Sen pairs and the suffix
sums) is built once per schedule, in the FitPlan that fit_plan(ns) keeps, so
a batch's least squares is one product.  A single stream is a batch of one,
and fits as it would in any batch.  All estimators work on a declared tail
window of the schedule; the window is returned so reports can document it.
"""

import functools

import numpy as np

THIN_POINTS = 64  # Theil-Sen is quadratic in the points of its window
DETECT_MAX_PERIOD = 48  # the longest period the detector looks for


def tail_indices(ns, fraction=8):
    """Indices of the geometric tail {n >= n_max/fraction} of a sorted schedule, at least 3."""
    ns = np.asarray(ns, dtype=float)
    cut = ns[-1] / fraction
    idx = np.nonzero(ns >= cut)[0]
    if len(idx) < 3:
        idx = np.arange(max(0, len(ns) - 3), len(ns))
    return idx


class FitPlan:
    """The constants of every fit on the increasing float schedule ns, none
    larger than ns itself: the period detector's window ns[first:hi] at the
    end of the longest consecutive run (None when the run is too short for
    it), the tail window's indices, and, built on first use (a schedule of
    periodic rows never needs them), joint_rate_fit's design and
    log_slope_fit's thinned points, pairs and suffix sums on the tail."""

    def __init__(self, ns):
        self.ns = ns
        edges = np.concatenate(([0], np.flatnonzero(ns[1:] != ns[:-1] + 1) + 1, [len(ns)]))
        k = int(np.argmax(edges[1:] - edges[:-1]))
        lo, hi = int(edges[k]), int(edges[k + 1])
        first = hi - min(160, (hi - lo) // 2)
        self.detector = None
        if hi - lo >= 2 * DETECT_MAX_PERIOD + 64:
            self.detector = first, hi, np.arange(first - 1, hi - 1)
        self.tail = tail_indices(ns)

    @functools.cached_property
    def design(self):
        return _design(self.ns, self.tail)

    @functools.cached_property
    def slopes(self):
        idx = thin(self.tail, self.ns)
        x = np.log(self.ns[idx])
        return idx, (float(self.ns[idx[0]]), float(self.ns[idx[-1]])), slope_pairs(x), suffix_sums(x)


def fit_plan(ns):
    """The FitPlan of the schedule ns (a sequence or an array), built once."""
    return _plan(tuple(ns.tolist() if isinstance(ns, np.ndarray) else ns))


@functools.lru_cache(maxsize=64)
def _plan(ns):
    return FitPlan(np.asarray(ns, dtype=float))


def _design(ns, idx):
    """(idx, window, design, scale, pinv, floor, move, gap) of joint_rate_fit
    on the window ns[idx]: design is None below three points, move and gap
    None without the 1/n column."""
    n = ns[idx]
    design = scale = pinv = floor = move = gap = None
    if len(n) >= 3:
        columns = np.array([n, np.log(n), np.ones_like(n), 1.0 / n])[: 3 + (len(n) > 4)]
        # n and 1/n differ by 2 log10(n) decades; each column is monotone in n
        scale = np.abs(columns[:, [0, -1]]).max(axis=1)
        columns /= scale[:, None]
        design = columns.T
        pinv, floor = np.linalg.pinv(design), (np.linalg.cond(design) * np.finfo(float).eps) ** 2
        if len(columns) == 4:
            # dropping a row's 1/n coefficient d adds d^2 gap to its residual
            # sum of squares and d move to its other coefficients
            move, (gap,), *_ = np.linalg.lstsq(design[:, :3], design[:, 3], rcond=None)
    return idx, (float(n[0]), float(n[-1])), design, scale, pinv, floor, move, gap


def joint_rate_fit(plan, Y, fraction=8):
    """Least-squares fit y ~ a*n + b*log n + c + d/n on the tail window, per row of Y.

    The log n column keeps the linear rate `a` clean when the stream carries
    a polynomial factor (e.g. ||A^n|| ~ n^s rho^n); the 1/n column takes the
    next term of a Jordan block's log mass, which a log n slope fit on
    y - a*n would otherwise absorb.  Windows of at most four points fit
    three columns.  The rows of Y lie on the schedule of plan.  Returns (a,
    d, rms_residual, window): a list of each per row, and window = (n_lo,
    n_hi).  A batch's coefficients are one product with the design's pseudo-inverse
    P, kept in the plan, and its residuals one more: np.einsum sums over the
    window of C-ordered rows, in an order that does not depend on the number
    of rows (a BLAS product's does), so a row fits the same in any batch.
    A row drops the 1/n column when d^2 gap, the residual it removes, is
    below nine times the rss left beyond the solve's rounding; the bounded
    wobble of an irrational rotation leaves a large rss, and its d is 0.
    The rounding: P and the product err by about eps |P| |y|, which the
    design X turns into fitted values off by up to cond(X) eps |y| (cond(X)
    = |X| |P|), so an exactly fitted row reads rss up to (cond(X) eps)^2
    |y|^2.  Only the rss beyond that floor counts, and every backward-stable
    solve makes the same choice.
    """
    ns = plan.ns
    idx, window, design, scale, pinv, floor, move, gap = (
        plan.design if fraction == 8 else _design(ns, tail_indices(ns, fraction)))
    if design is None:
        # under-determined: fall back to a plain slope
        n = ns[idx]
        rates = [0.0 if len(n) < 2 else float((y[-1] - y[0]) / (n[-1] - n[0]))
                 for y in Y[:, idx]]
        return rates, [0.0] * len(Y), [0.0] * len(Y), window
    W = np.ascontiguousarray(Y[:, idx])  # the sums' order follows the memory layout
    coef = np.einsum("ij,kj->ki", pinv, W)
    resid = W - np.einsum("ij,kj->ki", design, coef)
    rss = np.einsum("ij,ij->i", resid, resid)
    if gap is not None:
        dd_gap = coef[:, 3] ** 2 * gap
        drop = dd_gap < 9.0 * (rss - floor * np.einsum("ij,ij->i", W, W))
        rss[drop] += dd_gap[drop]
        coef[drop, :3] += np.outer(coef[drop, 3], move)
        coef[drop, 3] = 0.0
    coef /= scale
    inv = coef[:, 3].tolist() if gap is not None else [0.0] * len(Y)
    return coef[:, 0].tolist(), inv, np.sqrt(rss / len(idx)).tolist(), window


def slope_pairs(xs):
    """(i, j, xs[j] - xs[i]) over the pairs i < j of theil_sen_slope, those with |dx| > 1e-12."""
    xs = np.asarray(xs, dtype=float)
    i, j = np.nonzero(np.arange(len(xs))[:, None] < np.arange(len(xs)))  # pairs i < j
    dx = xs[j] - xs[i]
    keep = np.abs(dx) > 1e-12
    return i[keep], j[keep], dx[keep]


def theil_sen_slope(pairs, Y):
    """Median of the pairwise slopes of each row of Y against the shared xs,
    for pairs = slope_pairs(xs).

    Robust against bounded periodic wobble.  A row with no pair has slope 0.
    """
    i, j, dx = pairs
    Y = np.asarray(Y, dtype=float)
    if not len(dx):
        return np.zeros(len(Y))
    slopes = Y[:, j]
    slopes -= Y[:, i]
    slopes /= dx
    return np.median(slopes, axis=1, overwrite_input=True)


def thin(idx, ns, spacing=np.geomspace):
    """Subset of indices roughly uniform in log n (spacing np.geomspace) or
    in n (np.linspace).

    Each of THIN_POINTS targets spacing(first, last, THIN_POINTS) picks its
    nearest sample, the lower one on a tie."""
    if len(idx) <= THIN_POINTS:
        return idx
    v = ns[idx]
    targets = spacing(v[0], v[-1], THIN_POINTS)
    hi = np.minimum(np.searchsorted(v, targets), len(v) - 1)
    lo = np.maximum(hi - 1, 0)
    pick = np.where(np.abs(v[lo] - targets) <= np.abs(v[hi] - targets), lo, hi)
    return idx[np.unique(pick)]


def _suffix_sum(a, count):
    return np.cumsum(a[..., ::-1], axis=-1)[..., ::-1][..., :count]


def suffix_sums(x):
    """(count, points, dx, sx, sxx) of suffix_slopes on the abscissae x: the
    suffixes x[s:] with at least 3 points, up to the first spanning less
    than 1e-9, their sizes, dx = x - x[-1] (the point all share), and per
    suffix the sum and centred sum of squares of dx."""
    starts = np.arange(max(len(x) - 2, 0))
    short = np.flatnonzero(x[-1] - x[starts] < 1e-9)
    count = int(short[0]) if len(short) else len(starts)
    dx = x - x[-1]
    points = (len(x) - starts)[:count]
    sx = _suffix_sum(dx, count)
    return count, points, dx, sx, _suffix_sum(dx * dx, count) - sx * sx / points


def suffix_slopes(sums, Y):
    """Least-squares slope of each row of Y against x on every suffix x[s:]
    of sums = suffix_sums(x), from reversed cumulative sums.  Returns a (k,
    number of suffixes) array."""
    count, points, dx, sx, sxx = sums
    dy = Y - Y[:, -1:]
    return (_suffix_sum(dx * dy, count) - sx * _suffix_sum(dy, count) / points) / sxx


def log_slope_fit(plan, Y):
    """Slope of each row of Y against log n over the tail window (Theil-Sen).

    Used for polynomial rates, where least squares against log n is easily
    thrown off by bounded oscillation sampled at geometric points.  The rows
    of Y lie on the schedule of plan.  Returns (slopes, window,
    max_window_slopes) with one float per row in each list.
    max_window_slopes holds the largest suffix-window least-squares slope,
    kept as a limsup-flavoured diagnostic (the Theil-Sen slope when there is
    no suffix).
    """
    idx, window, pairs, sums = plan.slopes
    Y = Y[:, idx]
    slopes = theil_sen_slope(pairs, Y)
    windows = suffix_slopes(sums, Y)
    max_slopes = windows.max(axis=1) if windows.shape[1] else slopes
    max_slopes = np.where(np.isfinite(max_slopes), max_slopes, slopes)
    return slopes.tolist(), window, max_slopes.tolist()


def geometric_schedule(n_max, points_per_octave=4):
    """Sorted integer schedule ~ uniformly spaced in log n from 1 to n_max."""
    if n_max < 1:
        raise ValueError("n_max below 1")
    out = set()
    k = 0
    while True:
        base = 2.0**k
        if base > n_max:
            break
        for j in range(points_per_octave):
            n = int(round(base * 2.0 ** (j / points_per_octave)))
            if n <= n_max:
                out.add(n)
        k += 1
    out.add(int(n_max))
    return sorted(out)
