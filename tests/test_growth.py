import math
from dataclasses import replace

import numpy as np
import pytest

from stabdyn import _fit, cover, families, growth, lattice, metric, scenarios, stability
from stabdyn.errors import EmptyTable, UnverifiedTriple
from stabdyn._fit import fit_plan, geometric_schedule
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

from test_cover import exact_orbit_phases

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


def test_closed_form_states_the_rate_at_every_t():
    # h_t = log rho + t tau: every factor's phase drifts by tau per step
    rng = np.random.default_rng(5)
    for kind in ("hyperbolic", "parabolic", "elliptic"):
        for shift in (1, -2):
            t = families.compatible_triple(rng, rank=3, kind=kind, shift=shift)
            record = cover.power_record(t.g)
            assert t.spanning and record.tau != 0.0
            stream = MassStream(t, seed_of(t), n_max=4096)
            for x in (-2.0, -0.5, 1.0, 2.0):
                rep = mass_growth(t, seed_of(t), t=x, stream=stream)
                rate = record.log_rho + x * record.tau
                assert rep.closed_form == (rate, float(record.jordan))
                assert abs(rep.exp_rate - rate) <= 1e-4, (kind, shift, x, rep.exp_rate, rate)
                assert all(type(v) is float for _, v in rep.samples)
            pol = pol_mass_growth(t, seed_of(t), n_max=4096)
            assert all(type(v) is float for _, v in pol.samples)


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


def test_parabolic_shifting_numbers_take_out_the_1_over_n_term():
    # a parabolic phase row is n tau + c - 1/(kappa n) + ...; the fit's 1/n
    # column removes the last term, which would otherwise bias nu and nu_pol
    for i in range(10):
        rng = np.random.default_rng(i)
        for rank in range(2, 7):
            t = families.compatible_triple(rng, rank=rank, kind="parabolic",
                                           shift=int(rng.integers(-2, 3)))
            for n_max in (2**14, 2**16):
                pol = pol_shifting_numbers(t, families.seed_object(t), n_max=n_max)
                base = pol.diagnostics["linear"]
                assert abs(base.nu_upper - base.translation) <= 1e-10
                assert abs(base.nu_lower - base.translation) <= 1e-10
                assert abs(pol.nu_upper) <= 1e-6
                assert abs(pol.nu_lower) <= 1e-6


def test_shifting_numbers_state_their_branch_and_window():
    t = shift_triple(2)
    periodic = shifting_numbers(t, seed_of(t))
    rng = np.random.default_rng(3)
    t = families.compatible_triple(rng, rank=2, kind="parabolic", shift=1)
    fitted = shifting_numbers(t, seed_of(t))
    for side in ("upper", "lower"):
        diag = periodic.diagnostics[side]
        assert diag["structure"] == "linear_plus_periodic"
        assert diag["period"] >= 1
        assert diag["window"] == (8192.0, 65536.0)
    sides = [fitted.diagnostics[side] for side in ("upper", "lower")]
    assert "fit" in [diag["structure"] for diag in sides]
    for diag in sides:
        assert diag["window"] == (8192.0, 65536.0)
        if diag["structure"] == "fit":
            assert diag["fit_residual"] >= 0.0
            assert diag["poly_window"][1] == 65536.0


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


def test_pol_entropy_from_hom_takes_the_stream_fit_poly_rate():
    # the stream fit removes the d/n term as well as the linear rate; the
    # polynomial entropy reads its poly rate instead of refitting without it
    table = scenarios.p1_hom_table(4096)
    pol, ent = pol_entropy_from_hom(table), entropy_from_hom(table)
    assert pol.poly_rate == ent.poly_rate
    assert pol.poly_rate == pytest.approx(1.0, abs=1e-5)
    assert pol.diagnostics["poly_window"] == ent.diagnostics["poly_window"]
    assert pol.diagnostics["poly_max_window_slope"] == ent.diagnostics["poly_max_window_slope"]
    constant = HomTable({(n, 0): 5 for n in range(1, 400)})  # the periodic branch
    pol, ent = pol_entropy_from_hom(constant), entropy_from_hom(constant)
    assert ent.diagnostics["structure"] == "linear_plus_periodic"
    assert pol.diagnostics["poly_window"] == ent.diagnostics["window"]
    assert pol.diagnostics["poly_max_window_slope"] == 0.0 == pol.poly_rate


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


def test_fit_growth_report_on_two_and_three_samples():
    from stabdyn.growth import fit_growth_report

    # two points: too few for the design, so the rate is the plain slope
    rep = fit_growth_report([(1, 0.0), (2, 1.0)])
    assert (rep.exp_rate, rep.poly_rate) == (1.0, 0.0)
    assert rep.diagnostics["window"] == (1.0, 2.0)
    # the tail n >= 64/8 holds one point, so the window falls back to the
    # last three, which fit y = a n + b log n + c exactly
    rep = fit_growth_report([(n, 0.5 * n + math.log(n) + 1.0) for n in (1, 2, 64)])
    assert rep.diagnostics["window"] == (1.0, 64.0)
    assert rep.exp_rate == pytest.approx(0.5, abs=1e-12)
    assert rep.poly_rate == pytest.approx(1.0, abs=1e-12)


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


def test_yomdin_parabolic_jordan_tail_passes():
    # at the default n_max the 1/n term of this rank-5 parabolic triple's log
    # mass put pol_mass_ge_pol_sigma_plus_lower_shift_t at t = 2 at slack -0.083
    t = families.compatible_triple(np.random.default_rng(70), rank=5, kind="parabolic")
    rep = yomdin_suite(t, families.seed_object(t))
    assert rep.all_passed
    assert min(r.slack for r in rep.rows) > -1e-2


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
    for g in (shift_triple(1).g, curve_triple(3).g):
        streams.append(cover.power_record(g).phase(0.3, np.arange(513)).tolist())
    geo = sorted(set(range(1, 400)) | {512, 1024, 4096})
    cases = [(ns, ys) for ys in streams]
    cases += [(geo, [0.25 * n + (n % 7) for n in geo]), (ns[:159], streams[3][:159])]
    cases += [(ns[:160], streams[3][:160])]
    found = 0
    for ns_, ys in cases:
        for arg in (ys, np.asarray(ys)):
            (got,), want = _detect_linear_periodic(fit_plan(ns_), [arg]), _list_detect(ns_, arg)
            assert got == want
            if want is not None:
                found += 1
                assert type(got[0]) is type(want[0]) and type(got[1]) is int
    assert _detect_linear_periodic(fit_plan(ns[:159]), [streams[3][:159]]) == [None]
    assert found >= 20
    # one batch of every full-length stream gives each row's own answer
    batch = _detect_linear_periodic(fit_plan(ns), np.array(streams))
    assert batch == [_list_detect(ns, np.asarray(ys)) for ys in streams]


def test_period_detector_takes_the_first_of_equal_runs():
    # two consecutive runs of 200 points: a line, then a period-5 wobble
    ns = list(range(200)) + list(range(300, 500))
    ys = [0.1 * n if n < 250 else 0.2 * n + (n % 5) for n in ns]
    assert _list_detect(ns, ys)[1] == 1
    assert _detect_linear_periodic(fit_plan(ns), [ys]) == [_list_detect(ns, ys)]
    tail = ns[200:], ys[200:]
    assert _detect_linear_periodic(fit_plan(tail[0]), [tail[1]]) == [_list_detect(*tail)]


def _count_records(monkeypatch, call):
    count, build = [0], cover.power_record

    def counting_build(g):
        count[0] += 1
        return build(g)

    with monkeypatch.context() as m:
        m.setattr(cover, "power_record", counting_build)
        call()
    return count[0]


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
        assert _count_records(monkeypatch, lambda: call(t, seed)) == 1


@pytest.mark.parametrize("suite", [yomdin_suite, linearity_check], ids=["yomdin", "linearity"])
@pytest.mark.parametrize("t_grid", [DEFAULT_T_GRID, (0.0, 1.0)], ids=["grid7", "grid2"])
def test_a_t_grid_is_fitted_in_one_batch(monkeypatch, suite, t_grid):
    # the period detector runs once over the t grid (with the default grid)
    # and once over the two extreme phases; the suffix-slope pass at most
    # once for each of them
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
        batch = len(set(t_grid) | set(DEFAULT_T_GRID))  # a stream fits the default grid along
        assert sorted(rows["detect"]) == sorted([batch, 2])
        assert len(rows["suffix"]) <= 2
        assert all(k <= batch for k in rows["suffix"])
        whole_grids += batch in rows["suffix"]
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
    # the closed-form phases of every factor against exact integer powers
    rng = np.random.default_rng(61)
    for kind in ("hyperbolic", "parabolic", "elliptic"):
        t = families.compatible_triple(rng, rank=3, kind=kind, shift=1)
        seed = seed_of(t)
        stream = MassStream(t, seed, n_max=512)
        for d, phis in zip(seed.factors, stream.phis):
            exact = np.array(exact_orbit_phases(t.g, d.phase, 512)[1:])
            assert np.max(np.abs(phis - exact) / np.maximum(1.0, np.abs(exact))) <= 1e-12


def test_pol_mass_growth_removes_the_one_over_n_term():
    # without the d/n term of the joint fit the first triple read 1 - 7.4e-4
    rng = np.random.default_rng(11)
    triples = [families.compatible_triple(rng, rank=r, kind="parabolic")
               for r in (2, 2, 3, 3, 4, 4)] + [curve_triple(3, m=1)]
    for t in triples:
        for n_max in (2**12, 2**14):
            rep = pol_mass_growth(t, families.seed_object(t), n_max=n_max)
            assert rep.closed_form == (0.0, 1.0)
            assert abs(rep.poly_rate - 1.0) <= 1e-6, (t.g.m, n_max, rep.poly_rate)


def test_pol_mass_growth_fits_its_row_once(monkeypatch):
    # the d/n coefficient comes with the stream fit, not from a second joint fit
    calls = []
    fit = growth.joint_rate_fit

    def counting(ns, Y, *args):
        calls.append(len(Y))
        return fit(ns, Y, *args)

    monkeypatch.setattr(growth, "joint_rate_fit", counting)
    rng = np.random.default_rng(11)
    triples = [families.compatible_triple(rng, rank=r, kind="parabolic") for r in (2, 3, 4)]
    for t in triples + [curve_triple(3, m=1)]:
        for x in (0.0, 1.0):
            calls.clear()
            rep = pol_mass_growth(t, families.seed_object(t), t=x, n_max=2**14)
            assert rep.diagnostics["structure"] == "fit"
            assert calls == [1]


def test_pol_mass_growth_fits_the_d_term_of_a_periodic_row_about_another_rate(monkeypatch):
    # a periodic row whose closed form differs from its detected rate gets its
    # d/n coefficient from a joint fit of its own: _fit_streams fits none there
    calls = []
    fit = growth.joint_rate_fit

    def counting(ns, Y, *args):
        calls.append(len(Y))
        return fit(ns, Y, *args)

    class OffRate(MassStream):
        # the masses as computed, under a closed form 1e-6 off their rate
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.record = replace(self.record, log_rho=self.record.log_rho + 1e-6)

    monkeypatch.setattr(growth, "joint_rate_fit", counting)
    monkeypatch.setattr(growth, "MassStream", OffRate)
    rng = np.random.default_rng(700)
    for rank in (2, 3, 4):
        t = families.compatible_triple(rng, rank=rank, kind="hyperbolic")
        calls.clear()
        rep = pol_mass_growth(t, families.seed_object(t), n_max=2**14)
        assert t.spanning and rep.diagnostics["structure"] == "linear_plus_periodic"
        assert calls == [1]
        stream = OffRate(t, families.seed_object(t), n_max=2**14)
        ys, ns = stream.log_mass(0.0), np.array(stream.ns, dtype=float)
        _, (d,), _, _ = fit(fit_plan(ns), ys[None])
        rate = rep.diagnostics["rate_subtracted"]
        assert rate == stream.record.log_rho and abs(rate - rep.exp_rate) > 9e-7
        (want,), window, _ = _fit.log_slope_fit(fit_plan(ns), (ys - d / ns)[None] - rate * ns)
        assert (rep.poly_rate, rep.diagnostics["poly_window"]) == (want, window)


def test_pol_mass_growth_has_no_parabolic_drift_at_two_to_the_twenty():
    # renormalized repeated squaring lost the Jordan structure of these
    # elements: 13 of the 60 rates drifted beyond 0.2 at n_max = 2^20
    rng = np.random.default_rng(123)
    for _ in range(60):
        t = families.compatible_triple(rng, rank=2, kind="parabolic")
        rep = pol_mass_growth(t, families.seed_object(t), n_max=2**20)
        assert rep.closed_form == (0.0, 1.0)
        assert abs(rep.poly_rate - 1.0) <= 0.2, (t.g.m, rep.poly_rate)


def _growth_triples(rng):
    triples = [hyperbolic_triple(), curve_triple(3, m=1), shift_triple(2)]
    return triples + [families.compatible_triple(rng, rank=3, kind=k, shift=1)
                      for k in ("hyperbolic", "parabolic", "elliptic")]


def test_mass_growth_through_a_shared_stream_equals_a_private_stream():
    # a stream fits the default grid in one batch; every report must equal
    # the one of a private stream and the single-row fit of the same row
    for t in _growth_triples(np.random.default_rng(97)):
        seed = seed_of(t)
        stream = MassStream(t, seed, n_max=4096)
        for x in DEFAULT_T_GRID + (0.25,):
            shared = mass_growth(t, seed, t=x, stream=stream)
            assert repr(shared) == repr(mass_growth(t, seed, t=x, n_max=4096))
            row = stream.log_mass(x)
            assert [v for _, v in shared.samples] == row.tolist()
            want = growth._fit_streams(stream.ns, [row])[0][0]
            assert repr((shared.exp_rate, shared.poly_rate)) == repr((float(want[0]), float(want[1])))
            assert repr(shared.diagnostics) == repr(dict(want[2], t=x))


def test_a_stream_fits_its_grid_in_one_batch_and_keeps_the_fits(monkeypatch):
    batches = []
    fit = growth._fit_streams

    def counting(ns, Y):
        batches.append(len(Y))
        return fit(ns, Y)

    monkeypatch.setattr(growth, "_fit_streams", counting)
    t = hyperbolic_triple()
    seed = seed_of(t)
    stream = MassStream(t, seed, n_max=4096)
    first = [repr(mass_growth(t, seed, t=x, stream=stream)) for x in DEFAULT_T_GRID]
    assert batches == [len(DEFAULT_T_GRID)]
    assert [repr(mass_growth(t, seed, t=x, stream=stream)) for x in DEFAULT_T_GRID] == first
    assert batches == [len(DEFAULT_T_GRID)]  # repeat calls fit nothing
    mass_growth(t, seed, t=0.25, stream=stream)
    mass_growth(t, seed, t=0.25, stream=stream)
    assert batches == [len(DEFAULT_T_GRID), 1]
    # a fresh stream asked for one t outside the grid fits the grid along
    stream = MassStream(t, seed, n_max=4096)
    assert len(stream.fits([0.25, 3.0])) == 2
    assert batches[2:] == [len(DEFAULT_T_GRID) + 2]
    for x in (0.0, 3.0):
        mass_growth(t, seed, t=x, stream=stream)
    assert len(batches) == 3


def _counting_fits(monkeypatch):
    """A list that gets (len(ns), rows) of every _fit_streams batch from now on."""
    batches = []
    fit = growth._fit_streams

    def counting(ns, Y):
        batches.append((len(ns), len(Y)))
        return fit(ns, Y)

    monkeypatch.setattr(growth, "_fit_streams", counting)
    return batches


def test_a_table_fits_only_the_asked_ts_and_a_mass_stream_the_grid_along(monkeypatch):
    batches = _counting_fits(monkeypatch)
    table = p1_table(1024)
    assert len(table.fits([0.25, 1.0])) == 2
    assert batches == [(1024, 2)]  # no grid along
    entropy_from_hom(table, 1.0)
    rep = entropy_from_hom(table, 0)
    assert pol_entropy_from_hom(table).poly_rate == rep.poly_rate
    assert batches == [(1024, 2), (1024, 1)]  # 1.0 is kept; 0 is fitted once for both reports
    assert table.fits([0.0, 0.25, 3.0])[:2] == table.fits([0.0, 0.25])
    assert batches[2:] == [(1024, 1)]  # only 3.0 is new
    t = hyperbolic_triple()
    stream = MassStream(t, seed_of(t), n_max=4096)
    stream.fits([0.25])
    assert batches[3:] == [(len(stream.ns), len(DEFAULT_T_GRID) + 1)]


@pytest.mark.parametrize("t_grid", [DEFAULT_T_GRID, (0.25, -1.0)], ids=["grid7", "grid2"])
def test_a_table_grid_is_fitted_in_one_batch(monkeypatch, t_grid):
    # with a table, the mass stream and the table each fit the grid in one
    # batch (the parent ran 9 and 8 batches on the default grid), the two
    # extreme phases are one batch between them, and every entropy is that
    # of entropy_from_hom on a fresh table
    grid = sorted(set(t_grid) | {0.0})
    sizes = [len(set(grid) | set(DEFAULT_T_GRID)), 2, len(grid)]
    want = [entropy_from_hom(p1_table(2048), x).exp_rate for x in grid]
    rng = np.random.default_rng(107)
    triples = [curve_triple(1, m=0), families.compatible_triple(rng, rank=2, kind="parabolic")]
    batches = _counting_fits(monkeypatch)
    for t in triples:
        batches.clear()
        rep = yomdin_suite(t, seed_of(t), hom_table=p1_table(2048), t_grid=t_grid)
        assert [k for _, k in batches] == sizes
        assert [r.rhs for r in rep.rows if r.name == "mass_le_entropy"] == want
        assert [r.name for r in rep.rows].count("entropy_le_hcat_plus_shift_t") == sum(
            x >= 0.0 for x in grid)
        batches.clear()
        lin = linearity_check(t, seed_of(t), hom_table=p1_table(2048), t_grid=t_grid)
        assert [k for _, k in batches] == sizes
        assert lin.entropy_rates == tuple(want)


def _row_loop_log_eps(table, t):
    """The former per-row loop of the table's log sums, rebuilt from its entries."""
    rows = {}
    for (n, k), d in table.entries.items():
        rows.setdefault(n, []).append(math.log(d) - k * t)
    ns = sorted(rows)
    ys = []
    for n in ns:
        top = max(rows[n])
        ys.append(top + math.log(sum(math.exp(v - top) for v in rows[n])))
    return ns, ys


def test_table_log_eps_matches_the_row_loop():
    single = [p1_table(4096), HomTable({(n, 0): 2**n for n in range(1, 320)}),
              HomTable({(n, (n % 5) - 2): n * n + 1 for n in range(1, 700)})]
    rng = np.random.default_rng(101)
    multi = []
    for _ in range(4):
        entries = {}
        for n in rng.permutation(np.arange(1, 300)).tolist():  # rows out of order
            for k in rng.choice(np.arange(-6, 7), size=rng.integers(1, 12), replace=False):
                entries[(n, int(k))] = int(rng.integers(1, 10**6))
        multi.append(HomTable(entries))
    for t in DEFAULT_T_GRID + (0.25,):
        for table in single:  # one entry per row: bit-identical, Python floats
            (ys,) = table.log_rows([t])
            assert (table.ns, ys) == _row_loop_log_eps(table, t)
            assert all(type(y) is float for y in ys)
        for table in multi:  # summation order may move the last bit
            want_ns, want = _row_loop_log_eps(table, t)
            assert table.ns == want_ns
            assert table.log_rows([t])[0] == pytest.approx(want, rel=1e-15, abs=1e-15)
    for table in single[1:] + multi:  # the extremal shifts read the same arrays
        eb = epsilon_bounds_from_hom(table)
        rows = {}
        for n, k in table.entries:
            rows.setdefault(n, []).append(k)
        assert eb.ns == tuple(sorted(rows))
        assert eb.eps_plus == tuple(-min(rows[n]) for n in eb.ns)
        assert eb.eps_minus == tuple(-max(rows[n]) for n in eb.ns)


def test_curve_scenario_builds_the_table_arrays_once(monkeypatch):
    builds = []
    post_init = HomTable.__post_init__

    def counting(self):
        builds.append(len(self.entries))
        post_init(self)

    monkeypatch.setattr(HomTable, "__post_init__", counting)
    batches = _counting_fits(monkeypatch)
    scenarios._p1_entropy_reports.cache_clear()  # an earlier call may hold the reports
    scenarios.curve_scenario()
    scenarios.curve_scenario()
    assert builds == [4096]  # the table's reports are shared per n_max: one build for both calls
    assert [b for b in batches if b[0] == 4096] == [(4096, 1)]  # both reports read one fit


def test_both_shifting_numbers_come_from_one_phase_evaluation(monkeypatch):
    calls = []
    phase = cover.PowerRecord.phase

    def counting(self, phi, n):
        calls.append(np.size(n))
        return phase(self, phi, n)

    monkeypatch.setattr(cover.PowerRecord, "phase", counting)
    for t in _growth_triples(np.random.default_rng(103)):
        seed = seed_of(t)
        record = cover.power_record(t.g)
        top_bottom = np.array(stability.phases(seed))[:, None]
        for n_max in (64, 1000, 4096, 2**16):
            calls.clear()
            pol = pol_shifting_numbers(t, seed, n_max=n_max)
            assert len(calls) == 1
            base = pol.diagnostics["linear"]
            assert repr(base) == repr(shifting_numbers(t, seed, n_max=n_max))
            # the same numbers from a separate evaluation on the default schedule
            ns = np.array(default_schedule(n_max))
            ref = phase(record, top_bottom, ns[None, :])
            want = growth._fit_streams(ns, ref)[0]
            for side, (rate, poly, diag) in zip(("upper", "lower"), want):
                assert getattr(base, "nu_" + side) == rate
                assert getattr(pol, "nu_" + side) == poly
                assert base.diagnostics[side] == diag
            top_n, bottom_n = ref[:, -1].tolist()
            spread = top_bottom[0, 0] - top_bottom[1, 0]
            assert pol.diagnostics["sublinearity"] == (top_n - bottom_n - spread) / math.log(n_max)


# --- one record evaluation per stream, and its limits -------------------------------------


def _log_sum_exp(logs, phis, t):
    """The log mass of one weight as one log-sum-exp over the factors."""
    x = logs + t * phis
    top = np.max(x, axis=0)
    return top + np.log(np.sum(np.exp(x - top[None, :]), axis=0))


@pytest.mark.parametrize("n_max", [64, 1024, 4096, 5000, 2**14, 2**16])
def test_a_stream_keeps_the_bits_of_its_own_evaluation(n_max):
    # the stream evaluates the record once on its schedule joined with the
    # shifting numbers' one; each part must equal an evaluation of its own
    rng = np.random.default_rng(89)
    for kind in ("hyperbolic", "parabolic", "elliptic"):
        t = families.compatible_triple(rng, rank=3, kind=kind, shift=-2)
        seed = seed_of(t)
        stream = MassStream(t, seed, n_max=n_max)
        record = cover.power_record(t.g)
        zs = [charge_of(t.sigma.Z, d.v) for d in seed.factors]
        logs, phis = record.log_charge_and_phase(
            np.array([[z.real] for z in zs]), np.array([[z.imag] for z in zs]),
            np.array([[d.phase] for d in seed.factors]), np.array(default_schedule(n_max))[None, :])
        assert np.array_equal(stream.logs, logs) and np.array_equal(stream.phis, phis)
        shift_ns = default_schedule(max(n_max, growth.SHIFT_N_MIN))
        top, bottom = stability.phases(seed)
        want = record.phase(np.array([[top], [bottom]]), np.array(shift_ns)[None, :])
        assert np.array_equal(stream._shift_rows, want)
        rows = stream.log_rows(DEFAULT_T_GRID)
        for row, x in zip(rows, DEFAULT_T_GRID):
            assert np.array_equal(row, _log_sum_exp(logs, phis, x))


def readme_triple():
    """README's sample triple and its seed: hyperbolic, drift 0, h_t = log rho."""
    seed = HNObject((SemistableDatum((0, 1), 0.5), SemistableDatum((1, 0), 0.0)))
    return hyperbolic_triple(), seed


def test_a_weight_that_rounds_the_log_masses_away_is_refused():
    t, seed = readme_triple()
    stream = MassStream(t, seed, n_max=4096)
    # accepted weights up to the bound, about 8.6e9 here, read the closed form
    for x in np.geomspace(1e-3, 8.5e9, 45):
        for w in (x, -x):
            rep = mass_growth(t, seed, t=w, stream=stream)
            assert abs(rep.exp_rate - rep.closed_form[0]) <= 1e-9, (w, rep.exp_rate)
    for w in (1e10, -1e12, 1e19, -1e100):
        with pytest.raises(ValueError) as err:
            mass_growth(t, seed, t=w, stream=stream)
        assert str(err.value).startswith("weight t = %.12g is too large for this stream" % w)
        with pytest.raises(ValueError, match="is too large for this stream"):
            MassStream(t, seed, n_max=4096).fits([0.0, w])
    # the bound grows with n_max
    assert mass_growth(t, seed, t=1e11, n_max=2**20).exp_rate == pytest.approx(
        0.962423650119, abs=1e-9)


def test_every_weight_up_to_three_passes_at_the_largest_drift():
    # family phases drift by up to 2 per step, so they reach 2^21 at n_max 2^20
    rng = np.random.default_rng(97)
    for shift in (-2, 2):
        t = families.compatible_triple(rng, rank=2, kind="hyperbolic", shift=shift)
        stream = MassStream(t, seed_of(t), n_max=2**20)
        assert np.max(np.abs(stream.phis)) > 2**21 - 10
        for (_, (rate, _, _)), w in zip(stream.fits([-3.0, 3.0]), (-3.0, 3.0)):
            assert rate == pytest.approx(stream.record.log_rho + w * stream.record.tau, abs=1e-8)


@pytest.mark.parametrize("n_max", [2**63, 10**20])
def test_an_n_max_beyond_int64_names_n_max(n_max):
    t = hyperbolic_triple()
    seed = seed_of(t)
    message = "n_max = %d is not below 2\\^63" % n_max
    for call in (lambda: MassStream(t, seed, n_max=n_max),
                 lambda: mass_growth(t, seed, n_max=n_max),
                 lambda: shifting_numbers(t, seed, n_max=n_max),
                 lambda: pol_shifting_numbers(t, seed, n_max=n_max),
                 lambda: metric.stable_translation_length(t, n_max=n_max)):
        with pytest.raises(ValueError, match=message):
            call()
