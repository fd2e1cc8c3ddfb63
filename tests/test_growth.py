import math

import numpy as np
import pytest

from stabdyn import _fit, cover, families, growth, lattice, stability
from stabdyn.errors import EmptyTable, UnverifiedTriple
from stabdyn._fit import geometric_schedule
from stabdyn.growth import (
    DEFAULT_T_GRID,
    SEQ_PREFIX,
    HomTable,
    _detect_linear_periodic,
    MassStream,
    default_schedule,
    entropy_from_hom,
    epsilon_bounds_from_hom,
    linearity_check,
    mass_growth,
    pol_entropy_from_hom,
    pol_mass_growth,
    pol_shifting_numbers,
    shifting_numbers,
    yomdin_suite,
)
from stabdyn.lattice import IntMatrix
from stabdyn.stability import (
    AutoequivalenceData,
    CentralCharge,
    HNObject,
    SemistableDatum,
    StabilityData,
    charge_of,
    triple_power,
    verify_triple,
)

GOLDEN2 = (3.0 + math.sqrt(5.0)) / 2.0


def identity_triple():
    sigma = StabilityData(
        Z=CentralCharge(((1.0, 0.0), (0.0, 1.0))),
        semistables=(SemistableDatum((1, 0), 0.0), SemistableDatum((0, 1), 0.5)),
    )
    return verify_triple(
        AutoequivalenceData(P=IntMatrix.identity(2)), sigma, cover.identity_elem()
    )


def hyperbolic_triple():
    """Plane charge, lattice map equal to the matrix part."""
    P = IntMatrix(((2, 1), (1, 1)))
    sigma = StabilityData(
        Z=CentralCharge(((1.0, 0.0), (0.0, 1.0))),
        semistables=(
            SemistableDatum((1, 0), 0.0),
            SemistableDatum((0, 1), 0.5),
            SemistableDatum((1, 1), 0.25),
        ),
    )
    g = cover.lift_from(P.to_float(), math.atan2(1.0, 2.0) / math.pi)
    return verify_triple(AutoequivalenceData(P=P), sigma, g)


def curve_triple(deg_l=3, m=0):
    Z = CentralCharge(((0.0, -1.0), (1.0, 0.0)))
    sigma = StabilityData(
        Z=Z,
        semistables=(
            SemistableDatum((1, 0), 0.5),
            SemistableDatum((0, 1), 1.0),
            SemistableDatum((1, 1), math.atan2(1.0, -1.0) / math.pi),
        ),
    )
    sign = (-1) ** m
    P = IntMatrix(((sign, 0), (sign * deg_l, sign)))
    g = cover.lift_from(np.array([[1.0, -float(deg_l)], [0.0, 1.0]]), 0.0)
    if m:
        g = cover.compose(cover.from_complex(float(m)), g)
    return verify_triple(AutoequivalenceData(P=P), sigma, g)


def shift_triple(m):
    sigma = StabilityData(
        Z=CentralCharge(((1.0, 0.0), (0.0, 1.0))),
        semistables=(SemistableDatum((1, 0), 0.0), SemistableDatum((0, 1), 0.5)),
    )
    sign = (-1) ** m
    auto = AutoequivalenceData(P=IntMatrix(((sign, 0), (0, sign))))
    return verify_triple(auto, sigma, cover.from_complex(float(m)))


def seed_of(triple):
    return families.seed_object(triple)


# --- mass growth ------------------------------------------------------------


def test_mass_growth_identity():
    t = identity_triple()
    rep = mass_growth(t, seed_of(t), t=0.0, n_max=512)
    assert rep.exp_rate == pytest.approx(0.0, abs=1e-12)
    assert rep.poly_rate == pytest.approx(0.0, abs=1e-9)


def test_mass_growth_hyperbolic_matches_top_eigenvalue():
    t = hyperbolic_triple()
    rep = mass_growth(t, seed_of(t), t=0.0, n_max=2048)
    assert abs(rep.exp_rate - math.log(GOLDEN2)) <= 1e-3
    assert rep.closed_form[0] == pytest.approx(math.log(GOLDEN2), abs=1e-12)


def test_mass_stream_against_exact_lattice_iteration():
    # independent oracle: exact integer powers of the lattice map
    t = hyperbolic_triple()
    seed = seed_of(t)
    stream = MassStream(t, seed, n_max=64)
    ys = stream.log_mass(0.0)
    lookup = dict(zip(stream.ns, ys))
    P = t.auto.P
    for n in (1, 2, 5, 9, 17, 33, 64):
        Pn = P.power(n)
        exact = sum(abs(charge_of(t.sigma.Z, Pn.apply(d.v))) for d in seed.factors)
        assert lookup[n] == pytest.approx(math.log(exact), rel=1e-10)


def test_mass_growth_curve_unipotent():
    t = curve_triple(3)
    rep = mass_growth(t, seed_of(t), t=0.0, n_max=4096)
    assert abs(rep.exp_rate) <= 1e-3
    pol = pol_mass_growth(t, seed_of(t), t=0.0, n_max=2**20)
    assert pol.poly_rate == pytest.approx(1.0, abs=0.15)
    assert pol.diagnostics["rate_source"] == "closed_form"
    assert pol.closed_form == (0.0, 1.0)


def test_pol_mass_growth_identity():
    t = identity_triple()
    rep = pol_mass_growth(t, seed_of(t), n_max=4096)
    assert rep.poly_rate == pytest.approx(0.0, abs=1e-9)


def test_pol_mass_growth_hyperbolic_is_zero():
    t = hyperbolic_triple()
    rep = pol_mass_growth(t, seed_of(t), n_max=2**16)
    assert rep.poly_rate == pytest.approx(0.0, abs=0.05)


def test_mass_growth_requires_verified():
    sigma = StabilityData(
        Z=CentralCharge(((1.0, 0.0), (0.0, 1.0))),
        semistables=(SemistableDatum((1, 0), 0.0),),
    )
    bad = verify_triple(
        AutoequivalenceData(P=IntMatrix(((1, 1), (0, 1)))), sigma, cover.identity_elem()
    )
    assert not bad.verified
    with pytest.raises(UnverifiedTriple):
        mass_growth(bad, HNObject((SemistableDatum((1, 0), 0.0),)))


def test_mass_growth_power_law():
    t = hyperbolic_triple()
    seed = seed_of(t)
    base = mass_growth(t, seed, n_max=2048).exp_rate
    for k in (2, 3, 4):
        tk = triple_power(t, k)
        rep = mass_growth(tk, seed, n_max=2048)
        assert rep.exp_rate == pytest.approx(k * base, abs=3e-3)


# --- shifting numbers ----------------------------------------------------------


def test_shifting_numbers_shift_triple():
    for m in (-2, 1, 3):
        t = shift_triple(m)
        sh = shifting_numbers(t, seed_of(t))
        assert sh.nu_upper == pytest.approx(float(m), abs=1e-9)
        assert sh.nu_lower == pytest.approx(float(m), abs=1e-9)
        assert sh.translation == pytest.approx(float(m), abs=1e-9)


def test_shifting_numbers_hyperbolic_zero():
    t = hyperbolic_triple()
    sh = shifting_numbers(t, seed_of(t))
    assert sh.nu_upper == pytest.approx(0.0, abs=1e-9)
    assert sh.nu_lower == pytest.approx(0.0, abs=1e-9)


def test_shifting_numbers_match_translation_number():
    rng = np.random.default_rng(31)
    for kind in ("hyperbolic", "parabolic", "elliptic"):
        t = families.compatible_triple(rng, rank=2, kind=kind, shift=int(rng.integers(-2, 3)))
        sh = shifting_numbers(t, families.seed_object(t))
        assert abs(sh.nu_upper - sh.translation) <= 2e-3
        assert abs(sh.nu_lower - sh.translation) <= 2e-3


def test_pol_shifting_numbers_vanish():
    cases = [
        shift_triple(2),
        hyperbolic_triple(),
        curve_triple(3, m=1),
    ]
    for t in cases:
        pol = pol_shifting_numbers(t, seed_of(t))
        assert pol.nu_upper == pytest.approx(0.0, abs=0.05)
        assert pol.nu_lower == pytest.approx(0.0, abs=0.05)
        assert abs(pol.diagnostics["sublinearity"]) <= 0.05


# --- Hom tables -------------------------------------------------------------------


def p1_table(n_max=4096):
    return HomTable({(n, 0): n + 1 for n in range(1, n_max + 1)})


def test_entropy_from_hom_constant_table():
    table = HomTable({(n, 0): 1 for n in range(1, 400)})
    rep = entropy_from_hom(table, t=0.7)
    assert rep.exp_rate == pytest.approx(0.0, abs=1e-9)


def test_entropy_from_hom_p1_table():
    for t in (-1.0, 0.0, 2.0):
        rep = entropy_from_hom(p1_table(), t=t)
        assert rep.exp_rate == pytest.approx(0.0, abs=1e-3)


def test_entropy_from_hom_geometric():
    table = HomTable({(n, 0): 2**n for n in range(1, 320)})
    rep = entropy_from_hom(table)
    assert rep.exp_rate == pytest.approx(math.log(2.0), abs=1e-9)


def test_pol_entropy_from_hom_p1():
    rep = pol_entropy_from_hom(p1_table(2**16))
    assert rep.poly_rate == pytest.approx(1.0, abs=0.15)


def test_pol_entropy_from_hom_quadratic():
    table = HomTable({(n, 0): n * n + 1 for n in range(1, 4097)})
    rep = pol_entropy_from_hom(table)
    assert rep.poly_rate == pytest.approx(2.0, abs=0.15)


def test_pol_entropy_from_hom_constant():
    table = HomTable({(n, 0): 5 for n in range(1, 400)})
    rep = pol_entropy_from_hom(table)
    assert rep.poly_rate == pytest.approx(0.0, abs=1e-9)


def test_entropy_monotone_under_domination():
    base = HomTable({(n, 0): n + 1 for n in range(1, 600)})
    bigger = HomTable({(n, k): (n + 1) * (2 if k == 0 else 1) for n in range(1, 600) for k in (0, -1)})
    for t in (-1.0, 0.0, 1.0):
        lo = entropy_from_hom(base, t).exp_rate
        hi = entropy_from_hom(bigger, t).exp_rate
        assert hi >= lo - 1e-9


def test_empty_table_rejected():
    with pytest.raises(EmptyTable):
        HomTable({})
    with pytest.raises(EmptyTable):
        HomTable({(3, 0): 0})


def test_epsilon_bounds_support_at_zero():
    table = HomTable({(n, 0): 1 for n in range(1, 64)})
    eb = epsilon_bounds_from_hom(table)
    assert eb.nu_upper == pytest.approx(0.0, abs=1e-12)
    assert eb.nu_lower == pytest.approx(0.0, abs=1e-12)


def test_epsilon_bounds_linear_support():
    # support at k in {-n, 0}: upper drift 1, lower drift 0
    entries = {}
    for n in range(1, 64):
        entries[(n, -n)] = 1
        entries[(n, 0)] = 1
    eb = epsilon_bounds_from_hom(HomTable(entries))
    assert eb.nu_upper == pytest.approx(1.0, abs=1e-12)
    assert eb.nu_lower == pytest.approx(0.0, abs=1e-12)


def test_fit_growth_report_on_raw_sequence():
    from stabdyn.growth import fit_growth_report

    ns = sorted(set(list(range(1, 513)) + [2**k for k in range(9, 15)]))
    rep = fit_growth_report([(n, 0.5 * n + math.log(n) + 1.0) for n in ns])
    assert rep.exp_rate == pytest.approx(0.5, abs=1e-6)
    assert rep.poly_rate == pytest.approx(1.0, abs=0.1)
    with pytest.raises(ValueError):
        fit_growth_report([(1, 0.0)])
    with pytest.raises(ValueError):
        fit_growth_report([(2, 0.0), (2, 1.0)])


def test_epsilon_bounds_shift_equivariance():
    m = 2
    base = {}
    shifted = {}
    for n in range(1, 64):
        base[(n, -n)] = 1
        base[(n, 0)] = 1
        shifted[(n, -n - m * n)] = 1
        shifted[(n, 0 - m * n)] = 1
    eb0 = epsilon_bounds_from_hom(HomTable(base))
    eb1 = epsilon_bounds_from_hom(HomTable(shifted))
    assert eb1.nu_upper == pytest.approx(eb0.nu_upper + m, abs=1e-12)
    assert eb1.nu_lower == pytest.approx(eb0.nu_lower + m, abs=1e-12)


# --- inequality suite ---------------------------------------------------------------


def test_yomdin_identity_triple():
    t = identity_triple()
    rep = yomdin_suite(t, seed_of(t), n_max=1024)
    assert rep.all_passed
    assert all(abs(r.slack) <= 1e-6 or r.slack >= 0 for r in rep.rows)


def test_yomdin_hyperbolic_equality():
    t = hyperbolic_triple()
    rep = yomdin_suite(t, seed_of(t), n_max=2048)
    assert rep.all_passed
    assert rep.values["h_sigma"] == pytest.approx(math.log(GOLDEN2), abs=1e-3)
    assert rep.values["log_rho_lattice"] == pytest.approx(math.log(GOLDEN2), abs=1e-9)


def test_yomdin_curve_triple():
    t = curve_triple(3, m=0)
    rep = yomdin_suite(t, seed_of(t), n_max=2**14)
    assert rep.all_passed
    assert rep.values["h_sigma"] == pytest.approx(0.0, abs=1e-3)
    assert rep.values["s_lattice"] == 1.0


def test_yomdin_random_families():
    rng = np.random.default_rng(41)
    for kind in ("hyperbolic", "parabolic", "elliptic"):
        for rank in (2, 3, 5):
            t = families.compatible_triple(
                rng, rank=rank, kind=kind, shift=int(rng.integers(-1, 2))
            )
            rep = yomdin_suite(t, families.seed_object(t), n_max=4096)
            bad = [r for r in rep.rows if not r.passed]
            assert not bad, "violations: %s" % [(r.name, r.t, r.slack) for r in bad]


def test_yomdin_with_hom_table():
    t = curve_triple(1, m=0)
    rep = yomdin_suite(t, seed_of(t), hom_table=p1_table(512), n_max=2048)
    assert rep.all_passed


# --- linearity -------------------------------------------------------------------------


def test_linearity_identity():
    t = identity_triple()
    rep = linearity_check(t, seed_of(t), n_max=1024)
    assert rep.line_intercept == pytest.approx(0.0, abs=1e-9)
    assert rep.line_slope == pytest.approx(0.0, abs=1e-9)
    assert rep.max_deviation <= 1e-9


def test_linearity_shift_triple():
    m = 2
    t = shift_triple(m)
    rep = linearity_check(t, seed_of(t), n_max=1024)
    assert rep.line_slope == pytest.approx(float(m), abs=1e-9)
    assert rep.line_intercept == pytest.approx(0.0, abs=1e-9)
    assert rep.max_deviation <= 1e-6


def test_linearity_curve_triple_with_shift():
    t = curve_triple(3, m=1)
    rep = linearity_check(t, seed_of(t), n_max=2**14)
    assert rep.line_slope == pytest.approx(1.0, abs=2e-3)
    assert rep.line_intercept == pytest.approx(0.0, abs=1e-3)
    assert rep.max_deviation <= 5e-2


def test_linearity_with_hom_table_matches():
    t = curve_triple(1, m=0)
    rep = linearity_check(t, seed_of(t), n_max=4096, hom_table=p1_table(2048))
    assert rep.max_entropy_gap <= 5e-2


# --- kernels and shared work -------------------------------------------------------------


def _list_detect(ns, ys, max_period=48, tol=1e-9):
    """Reference: the period detector as one Python list per period."""
    best, start = (0, 0), 0
    for i in range(1, len(ns)):
        if ns[i] != ns[i - 1] + 1:
            if i - start > best[1] - best[0]:
                best = (start, i)
            start = i
    if len(ns) - start > best[1] - best[0]:
        best = (start, len(ns))
    lo, hi = best
    block = ys[lo:hi]
    if hi - lo < 2 * max_period + 64:
        return None
    window = min(160, (hi - lo) // 2)
    for q in range(1, max_period + 1):
        diffs = [block[i + q] - block[i] for i in range(hi - lo - q - window, hi - lo - q)]
        ref = diffs[-1]
        if all(abs(d - ref) <= tol * max(1.0, abs(ref)) for d in diffs):
            return ref / q, q
    return None


def test_period_detector_matches_the_list_loop():
    rng = np.random.default_rng(53)
    ns = list(range(0, 513))
    streams = [[0.1 * n for n in ns], [math.log(1 + n) for n in ns]]
    for q in (1, 2, 5, 17, 47, 48, 49, 60):
        wobble = rng.normal(size=q)
        streams.append([0.37 * n + wobble[n % q] for n in ns])
        streams.append([-1.5 * n + wobble[n % q] + 1e-12 * n * n for n in ns])
    streams.append(list(cover.orbit(shift_triple(1).g, 0.3, 512)))
    streams.append(list(cover.orbit(curve_triple(3).g, 0.3, 512)))
    geo = sorted(set(range(1, 400)) | {512, 1024, 4096})
    cases = [(ns, ys) for ys in streams]
    cases += [(geo, [0.25 * n + (n % 7) for n in geo]), (ns[:159], streams[3][:159])]
    cases += [(ns[:160], streams[3][:160])]
    found = 0
    for ns_, ys in cases:
        for arg in (ys, np.asarray(ys)):
            (got,), want = _detect_linear_periodic(ns_, [arg]), _list_detect(ns_, arg)
            assert got == want
            if want is not None:
                found += 1
                assert type(got[0]) is type(want[0]) and type(got[1]) is int
    assert _detect_linear_periodic(ns[:159], [streams[3][:159]]) == [None]
    assert found >= 20
    # one batch of every full-length stream gives each row's own answer
    batch = _detect_linear_periodic(ns, np.array(streams))
    assert batch == [_list_detect(ns, np.asarray(ys)) for ys in streams]


def test_period_detector_takes_the_first_of_equal_runs():
    # two consecutive runs of 200 points: a line, then a period-5 wobble
    ns = list(range(200)) + list(range(300, 500))
    ys = [0.1 * n if n < 250 else 0.2 * n + (n % 5) for n in ns]
    assert _list_detect(ns, ys)[1] == 1
    assert _detect_linear_periodic(ns, [ys]) == [_list_detect(ns, ys)]
    assert _detect_linear_periodic(ns[200:], [ys[200:]]) == [_list_detect(ns[200:], ys[200:])]


def _count_shared_work(monkeypatch, call):
    counts = {"record": 0, "orbit": 0}
    build, walk = cover.power_record, cover.orbit

    def counting_build(g):
        counts["record"] += 1
        return build(g)

    def counting_orbit(g, phi, n):
        counts["orbit"] += 1
        return walk(g, phi, n)

    with monkeypatch.context() as m:
        m.setattr(cover, "power_record", counting_build)
        m.setattr(cover, "orbit", counting_orbit)
        call()
    return counts


@pytest.mark.parametrize(
    "call",
    [
        lambda t, s: yomdin_suite(t, s, n_max=1024),
        lambda t, s: linearity_check(t, s, n_max=1024),
        lambda t, s: pol_shifting_numbers(t, s, n_max=4096),
        lambda t, s: MassStream(t, s, n_max=64),
    ],
    ids=["yomdin_suite", "linearity_check", "pol_shifting_numbers", "mass_stream"],
)
def test_growth_calls_build_one_power_record_and_walk_no_orbit(monkeypatch, call):
    rng = np.random.default_rng(59)
    triples = [hyperbolic_triple(), curve_triple(3, m=1), shift_triple(2)]
    triples += [families.compatible_triple(rng, rank=3, kind="parabolic", shift=1)]
    for t in triples:
        seed = seed_of(t)
        assert _count_shared_work(monkeypatch, lambda: call(t, seed)) == {"record": 1, "orbit": 0}


@pytest.mark.parametrize("suite", [yomdin_suite, linearity_check], ids=["yomdin", "linearity"])
@pytest.mark.parametrize("t_grid", [DEFAULT_T_GRID, (0.0, 1.0)], ids=["grid7", "grid2"])
def test_a_t_grid_is_fitted_in_one_batch(monkeypatch, suite, t_grid):
    # the period detector runs once over the t grid and once over the two
    # extreme phases; the suffix-slope pass at most once for each of them
    rows = {"detect": [], "suffix": []}
    detect, suffixes = growth._detect_linear_periodic, _fit.suffix_slopes

    def counting_detect(ns, ys, *args):
        rows["detect"].append(len(ys))
        return detect(ns, ys, *args)

    def counting_suffixes(x, Y):
        rows["suffix"].append(len(Y))
        return suffixes(x, Y)

    rng = np.random.default_rng(67)
    triples = [hyperbolic_triple(), curve_triple(3, m=1), shift_triple(2)]
    triples += [families.compatible_triple(rng, rank=3, kind=k, shift=1)
                for k in ("hyperbolic", "parabolic", "elliptic")]
    whole_grids = 0
    for t in triples:
        rows["detect"].clear()
        rows["suffix"].clear()
        with monkeypatch.context() as m:
            m.setattr(growth, "_detect_linear_periodic", counting_detect)
            m.setattr(_fit, "suffix_slopes", counting_suffixes)
            suite(t, seed_of(t), t_grid=t_grid, n_max=1024)
        assert sorted(rows["detect"]) == sorted([len(t_grid), 2])
        assert len(rows["suffix"]) <= (2 if suite is yomdin_suite else 1)
        assert all(k <= len(t_grid) for k in rows["suffix"])
        whole_grids += len(t_grid) in rows["suffix"]
    assert whole_grids >= 2  # the parabolic triples fit every t in one suffix pass


def test_no_fit_reaches_polyfit(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.polyfit called")

    monkeypatch.setattr(np, "polyfit", refuse)
    rng = np.random.default_rng(73)
    for kind in ("hyperbolic", "parabolic", "elliptic"):
        t = families.compatible_triple(rng, rank=3, kind=kind, shift=1)
        seed = seed_of(t)
        mass_growth(t, seed, n_max=4096)
        pol_mass_growth(t, seed, n_max=2**16)
        yomdin_suite(t, seed, n_max=1024)
        linearity_check(t, seed, n_max=1024)
        lattice.growth_rate_estimate(t.auto.P)


def test_yomdin_reads_the_lattice_pair_off_one_spectral_record():
    # log rho and s from one spectral_data equal the former
    # spectral_radius / poly_growth_rate pair
    rng = np.random.default_rng(79)
    for kind in ("hyperbolic", "parabolic", "elliptic"):
        for rank in (2, 4, 6):
            t = families.compatible_triple(rng, rank=rank, kind=kind, shift=0)
            values = yomdin_suite(t, seed_of(t), n_max=256).values
            assert values["log_rho_lattice"] == math.log(lattice.spectral_radius(t.auto.P))
            assert values["s_lattice"] == float(lattice.poly_growth_rate(t.auto.P))


def test_default_schedule_is_the_dense_prefix_and_the_geometric_tail():
    assert default_schedule(64) == list(range(1, 65))
    ns = default_schedule(2**20)
    assert ns[:SEQ_PREFIX] == list(range(1, SEQ_PREFIX + 1))
    assert ns[SEQ_PREFIX:] == [n for n in geometric_schedule(2**20) if n > SEQ_PREFIX]
    t = curve_triple(3, m=1)
    assert MassStream(t, seed_of(t), n_max=5000).ns == default_schedule(5000)


def test_default_schedule_hands_out_a_fresh_list():
    first = default_schedule(4096)
    expected = list(first)
    first.append(10**9)
    first[0] = -1
    t = curve_triple(3, m=1)
    MassStream(t, seed_of(t), n_max=4096).ns.clear()
    assert default_schedule(4096) == expected
    assert default_schedule(4096) is not default_schedule(4096)


def test_mass_stream_matches_the_sequential_orbit():
    # the closed-form phases of every factor against the cover.orbit walk
    rng = np.random.default_rng(61)
    for kind in ("hyperbolic", "parabolic", "elliptic"):
        t = families.compatible_triple(rng, rank=3, kind=kind, shift=1)
        seed = seed_of(t)
        stream = MassStream(t, seed, n_max=512)
        for d, phis in zip(seed.factors, stream.phis):
            assert np.max(np.abs(phis - cover.orbit(t.g, d.phase, 512)[1:])) <= 1e-9


def test_pol_mass_growth_has_no_parabolic_drift_at_two_to_the_twenty():
    # renormalized repeated squaring lost the Jordan structure of these
    # elements: 13 of the 60 rates drifted beyond 0.2 at n_max = 2^20
    rng = np.random.default_rng(123)
    for _ in range(60):
        t = families.compatible_triple(rng, rank=2, kind="parabolic")
        rep = pol_mass_growth(t, families.seed_object(t), n_max=2**20)
        assert rep.closed_form == (0.0, 1.0)
        assert abs(rep.poly_rate - 1.0) <= 0.2, (t.g.m, rep.poly_rate)
