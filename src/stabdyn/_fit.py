"""Slope-fitting helpers shared by the growth estimators.

Every fit is row-batched: the rows of a (k, m) array are k streams sampled
on one schedule ns (a float array), so the tail window, its log-spaced
thinning and the Theil-Sen pair set are built once and shared by all rows.
A single stream is a batch of one.  All estimators work on a declared tail
window of the schedule; the window is returned so reports can document it.
"""

import numpy as np

THIN_POINTS = 64  # Theil-Sen is quadratic in the points of its window


def tail_indices(ns, fraction=8):
    """Indices of the geometric tail {n >= n_max/fraction} of a sorted schedule, at least 3."""
    ns = np.asarray(ns, dtype=float)
    cut = ns[-1] / fraction
    idx = np.nonzero(ns >= cut)[0]
    if len(idx) < 3:
        idx = np.arange(max(0, len(ns) - 3), len(ns))
    return idx


def joint_rate_fit(ns, Y, fraction=8):
    """Least-squares fit y ~ a*n + b*log n + c + d/n on the tail window, per row of Y.

    The log n column keeps the linear rate `a` clean when the stream carries
    a polynomial factor (e.g. ||A^n|| ~ n^s rho^n); the 1/n column takes the
    next term of a Jordan block's log mass, which a log n slope fit on
    y - a*n would otherwise absorb.  A row keeps the 1/n column only when it
    removes at least nine tenths of the residual sum of squares the other
    three leave; the bounded wobble of an irrational rotation does not, and
    its d is 0.  Windows of at most four points fit three columns.  Returns
    (a, d, rms_residual, window): a list of each per row, and window =
    (n_lo, n_hi).  Each row is its own lstsq call, so a row's answer does
    not depend on the batch it came in.
    """
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
    if len(columns) == 4:
        # dropping a row's 1/n coefficient d adds d^2 gap to its residual
        # sum of squares and d move to its other coefficients
        move, (gap,), *_ = np.linalg.lstsq(design[:, :3], design[:, 3], rcond=None)
    rates, inv, rms = [], [], []
    for y in Y[:, idx]:
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ coef
        rss = resid @ resid
        if len(coef) == 4 and coef[3] ** 2 * gap < 9.0 * rss:
            rss += coef[3] ** 2 * gap
            coef = coef[:3] + move * coef[3]
        coef /= scale[: len(coef)]
        rates.append(float(coef[0]))
        inv.append(float(coef[3]) if len(coef) == 4 else 0.0)
        rms.append(float(np.sqrt(rss / len(y))))
    return rates, inv, rms, window


def theil_sen_slope(xs, Y):
    """Median of the pairwise slopes of each row of Y against the shared xs.

    Robust against bounded periodic wobble.  The pairs with |dx| > 1e-12 are
    taken once for all rows; a row with no such pair has slope 0.
    """
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


def _thin_logspaced(idx, ns):
    """Subset of indices roughly uniform in log n.

    Each of THIN_POINTS log-spaced targets picks its nearest sample, the
    lower one on a tie."""
    if len(idx) <= THIN_POINTS:
        return idx
    v = ns[idx]
    targets = np.geomspace(v[0], v[-1], THIN_POINTS)
    hi = np.minimum(np.searchsorted(v, targets), len(v) - 1)
    lo = np.maximum(hi - 1, 0)
    pick = np.where(np.abs(v[lo] - targets) <= np.abs(v[hi] - targets), lo, hi)
    return idx[np.unique(pick)]


def suffix_slopes(x, Y):
    """Least-squares slope of each row of Y against x on every suffix x[s:].

    Suffixes have at least 3 points and stop at the first one spanning less
    than 1e-9 in x.  The sums come from reversed cumulative sums of the
    samples taken relative to the last point, which every suffix shares.
    Returns a (k, number of suffixes) array.
    """
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


def log_slope_fit(ns, Y):
    """Slope of each row of Y against log n over the tail window (Theil-Sen).

    Used for polynomial rates, where least squares against log n is easily
    thrown off by bounded oscillation sampled at geometric points.  Returns
    (slopes, window, max_window_slopes) with one float per row in each list.
    max_window_slopes holds the largest suffix-window least-squares slope,
    kept as a limsup-flavoured diagnostic (the Theil-Sen slope when there is
    no suffix).
    """
    idx = _thin_logspaced(tail_indices(ns), ns)
    x = np.log(ns[idx])
    Y = Y[:, idx]
    slopes = theil_sen_slope(x, Y)
    windows = suffix_slopes(x, Y)
    max_slopes = windows.max(axis=1) if windows.shape[1] else slopes
    max_slopes = np.where(np.isfinite(max_slopes), max_slopes, slopes)
    return slopes.tolist(), (float(ns[idx[0]]), float(ns[idx[-1]])), max_slopes.tolist()


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
