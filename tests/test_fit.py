"""The row-batched fit layer against the loops it replaced.

The references below are the per-pair Theil-Sen loop, the per-target argmin
thinning and the per-suffix np.polyfit; they live here only.
"""

import math

import numpy as np
import pytest

from stabdyn import cover, families
from stabdyn._fit import (
    _thin_logspaced,
    joint_rate_fit,
    log_slope_fit,
    suffix_slopes,
    tail_indices,
    theil_sen_slope,
)
from stabdyn.growth import (
    DEFAULT_T_GRID,
    MassStream,
    _fit_streams,
    default_schedule,
)


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
        got = theil_sen_slope(xs, Y)
        assert got.tolist() == [_pairwise_theil_sen(xs, y) for y in Y]
    assert theil_sen_slope([1.0, 1.0], [[0.0, 5.0], [1.0, 2.0]]).tolist() == [0.0, 0.0]


def test_thinning_equals_the_argmin_loop():
    schedules = [np.asarray(default_schedule(n), dtype=float)
                 for n in (64, 4096, 5000, 2**16, 2**20)]
    # a consecutive tail of 7169 points, thinned to 64
    schedules.append(np.arange(1.0, 8193.0))
    for ns in schedules:
        for fraction in (8, 64):
            idx = tail_indices(ns, fraction)
            got, want = _thin_logspaced(idx, ns), _argmin_thin(idx, ns)
            assert got.tolist() == want.tolist()
    assert len(tail_indices(schedules[-1])) == 7169
    # every target exactly halfway between two samples: the lower one wins
    targets = np.geomspace(1.0, 1000.0, 64)
    gap = 4 * np.spacing(targets[1:-1])
    ns = np.sort(np.concatenate(([1.0, 1000.0], targets[1:-1] - gap, targets[1:-1] + gap)))
    idx = np.arange(len(ns))
    assert ns[0] == 1.0 and ns[-1] == 1000.0
    got, want = _thin_logspaced(idx, ns), _argmin_thin(idx, ns)
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
    idx = _thin_logspaced(tail_indices(ns), ns)
    cases = [(np.log(ns[idx]), Y[:, idx])]
    cases += [_random_rows(rng, 4, m) for m in (3, 4, 10, 64)]
    # a suffix spanning less than 1e-9 ends the scan
    x = np.array([0.0, 1.0, 2.0, 3.0, 3.0 + 1e-10, 3.0 + 2e-10])
    cases.append((x, rng.normal(size=(2, 6))))
    for x, Y in cases:
        got = suffix_slopes(x, Y)
        for row, y in zip(got, Y):
            assert _close(row, _polyfit_suffix_slopes(x, y), x, y)
    assert suffix_slopes(np.array([0.0, 1.0]), np.zeros((3, 2))).shape == (3, 0)
    assert suffix_slopes(cases[-1][0], cases[-1][1]).shape == (2, 3)


def test_log_slope_fit_matches_the_reference_fit():
    for n_max in (4096, 2**20):
        ns, Y = _family_streams(n_max)
        slopes, window, maxima = log_slope_fit(ns, Y)
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
    rates, inv, _, _ = joint_rate_fit(ns, Y)
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
    rates, inv, _, _ = joint_rate_fit(ns, Y)
    assert inv == [0.0] * len(Y)
    assert rates == pytest.approx(_lstsq_coefs(ns, Y, 3)[:, 0].tolist(), rel=1e-9, abs=1e-15)
    # a four-column fit would turn the wobble into a 1/n term larger than itself
    d = _lstsq_coefs(ns, Y, 4)[:, 3]
    assert np.median(np.abs(d) * (1.0 / ns[idx[0]] - 1.0 / ns[idx[-1]]) / wobble) > 1.0
