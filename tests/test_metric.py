import math

import numpy as np
import pytest

from stabdyn import cover, families, stability
from stabdyn.errors import NonSpanningSet, UnverifiedTriple
from stabdyn.lattice import IntMatrix
from stabdyn.metric import (
    A_functional,
    B_functional,
    csv_rows,
    dB_over_set,
    quotient_distance,
    stable_translation_length,
)
from stabdyn.stability import (
    AutoequivalenceData,
    CentralCharge,
    SemistableDatum,
    StabilityData,
    act_on_stability,
    verify_triple,
)

GOLDEN2 = (3.0 + math.sqrt(5.0)) / 2.0


def plane_sigma():
    return StabilityData(
        Z=CentralCharge(((1.0, 0.0), (0.0, 1.0))),
        semistables=(
            SemistableDatum((1, 0), 0.0),
            SemistableDatum((0, 1), 0.5),
            SemistableDatum((1, 1), 0.25),
        ),
    )


def hyperbolic_triple():
    P = IntMatrix(((2, 1), (1, 1)))
    g = cover.lift_from(P.to_float(), math.atan2(1.0, 2.0) / math.pi)
    return verify_triple(AutoequivalenceData(P=P), plane_sigma(), g)


def gepner_triple():
    P = IntMatrix(((0, -1), (1, 0)))
    return verify_triple(AutoequivalenceData(P=P), plane_sigma(), cover.from_complex(0.5))


def identity_triple():
    return verify_triple(
        AutoequivalenceData(P=IntMatrix.identity(2)), plane_sigma(), cover.identity_elem()
    )


# --- the sup-over-objects distance -----------------------------------------


def test_dB_same_data_is_zero():
    sigma = plane_sigma()
    assert dB_over_set(sigma, sigma) == 0.0


def test_dB_pure_scaling_gives_mass_term():
    sigma = plane_sigma()
    tau = act_on_stability(sigma, cover.from_complex(1j))
    assert dB_over_set(sigma, tau) == pytest.approx(math.pi, abs=1e-9)


def test_dB_pure_rotation_gives_phase_term():
    sigma = plane_sigma()
    tau = act_on_stability(sigma, cover.from_complex(0.5))
    assert dB_over_set(sigma, tau) == pytest.approx(0.5, abs=1e-9)


# --- A functional -------------------------------------------------------------


def test_A_identity_zero_alpha():
    g = cover.identity_elem()
    assert A_functional(g, 5, 0.0, phases=(0.0, 0.3)) == pytest.approx(0.0, abs=1e-12)


def test_A_identity_real_alpha():
    g = cover.identity_elem()
    for c in (-1.3, 0.4, 2.0):
        assert A_functional(g, 3, c, phases=(0.1,)) == pytest.approx(abs(c), abs=1e-12)


def test_A_recentered_below_one():
    t = hyperbolic_triple()
    for n in (1, 4, 16, 64):
        f_n0 = cover.power(t.g, n).f0
        val = A_functional(t.g, n, -f_n0, phases=t.sigma.phases())
        assert val < 1.0


# --- B functional -------------------------------------------------------------


def test_B_identity():
    assert B_functional(cover.identity_elem(), 7, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_B_hyperbolic_operator_norm():
    t = hyperbolic_triple()
    n = 12
    Mn = np.linalg.matrix_power(t.g.matrix, n)
    top_sv = np.linalg.svd(Mn, compute_uv=False)[0]
    assert B_functional(t.g, n, 0.0) == pytest.approx(math.log(top_sv), rel=1e-9)


def test_B_balanced_at_det_compensation():
    # scaled hyperbolic: det != 1, balancing removes the determinant drift
    M = 2.0 * np.array([[2.0, 1.0], [1.0, 1.0]])
    g = cover.lift_from(M, math.atan2(M[1, 0], M[0, 0]) / math.pi)
    n = 8
    det = np.linalg.det(M)
    im_star = math.log(det ** (n / 2.0)) / math.pi
    Mp = M / math.sqrt(det)
    ref = max(
        math.log(np.linalg.svd(np.linalg.matrix_power(Mp, n), compute_uv=False)[0]),
        math.log(np.linalg.svd(np.linalg.matrix_power(np.linalg.inv(Mp), n), compute_uv=False)[0]),
    )
    assert B_functional(g, n, complex(0.0, im_star)) == pytest.approx(ref, rel=1e-9)


def test_B_s_mode_requires_spanning():
    t = hyperbolic_triple()
    with pytest.raises(NonSpanningSet):
        B_functional(t.g, 4, 0.0, S=[(1.0, 0.0), (2.0, 0.0)])


def test_B_s_mode_matches_operator_rate():
    t = hyperbolic_triple()
    n = 64
    S = [(z.real, z.imag) for z in t.sigma.charges()]
    b_s = B_functional(t.g, n, 0.0, S=S)
    b_op = B_functional(t.g, n, 0.0)
    assert abs(b_s - b_op) / n <= 1e-2


# --- quotient distance -----------------------------------------------------------


def test_quotient_distance_identity():
    t = identity_triple()
    for n in (1, 5, 32):
        s = quotient_distance(t, n)
        assert s.distance == pytest.approx(0.0, abs=1e-9)
        assert abs(s.alpha_opt) <= 1e-9


def test_quotient_distance_gepner_orbit():
    t = gepner_triple()
    for n in (1, 8, 64):
        s = quotient_distance(t, n)
        assert s.distance <= 1e-9
        assert s.alpha_opt.real == pytest.approx(-0.5 * n, abs=1e-9)


def test_quotient_distance_hyperbolic():
    t = hyperbolic_triple()
    n = 64
    s = quotient_distance(t, n)
    assert s.distance == pytest.approx(n * math.log(GOLDEN2), rel=0.05)
    assert s.distance == pytest.approx(max(s.A_value, s.B_value), abs=1e-9)


def test_quotient_distance_below_seed_value():
    t = hyperbolic_triple()
    n = 16
    det = float(np.linalg.det(t.g.matrix))
    seed = complex(-cover.power(t.g, n).f0, math.log(det ** (n / 2.0)) / math.pi)
    upper = max(
        A_functional(t.g, n, seed, phases=t.sigma.phases()),
        B_functional(t.g, n, seed),
    )
    assert quotient_distance(t, n).distance <= upper + 1e-9


def test_quotient_distance_subadditive():
    t = hyperbolic_triple()
    d = {n: quotient_distance(t, n).distance for n in (3, 5, 8, 16, 21)}
    assert d[8] <= d[3] + d[5] + 1e-6
    assert d[21] <= d[16] + d[5] + 1e-6


def test_quotient_distance_requires_verified():
    sigma = plane_sigma()
    bad = verify_triple(
        AutoequivalenceData(P=IntMatrix(((1, 1), (0, 1)))), sigma, cover.identity_elem()
    )
    with pytest.raises(UnverifiedTriple):
        quotient_distance(bad, 4)


def test_closed_form_minimizers_are_not_improved_by_local_moves():
    # moves of the size a coordinate pattern search would try, accepted only
    # if they lower max(A, B) by more than 1e-15
    rng = np.random.default_rng(59)
    triples = [hyperbolic_triple(), gepner_triple()] + [
        families.compatible_triple(rng, rank=2, kind=kind)
        for kind in ("hyperbolic", "parabolic", "elliptic")
    ]
    for t in triples:
        for n in (1, 5, 64, 4096):
            s = quotient_distance(t, n)
            re, im = s.alpha_opt.real, s.alpha_opt.imag
            assert A_functional(t.g, n, re, phases=t.sigma.phases()) == s.A_value
            assert B_functional(t.g, n, 1j * im) == s.B_value
            for step in (1e-3, -1e-3, 1e-7, -1e-7):
                moved_re = A_functional(t.g, n, re + step, phases=t.sigma.phases())
                moved_im = B_functional(t.g, n, 1j * (im + step))
                assert max(moved_re, s.B_value) >= s.distance - 1e-15
                assert max(s.A_value, moved_im) >= s.distance - 1e-15


# --- stable translation length ------------------------------------------------------


def test_translation_length_identity():
    rep = stable_translation_length(identity_triple(), n_max=32)
    assert rep.estimate == pytest.approx(0.0, abs=1e-9)
    assert rep.closed_form == 0.0


def test_translation_length_hyperbolic():
    rep = stable_translation_length(hyperbolic_triple(), n_max=64)
    assert rep.closed_form == pytest.approx(math.log(GOLDEN2), abs=1e-12)
    assert abs(rep.estimate - rep.closed_form) <= 0.05


def test_translation_length_gepner_zero():
    rep = stable_translation_length(gepner_triple(), n_max=64)
    assert rep.closed_form == pytest.approx(0.0, abs=1e-12)
    assert rep.estimate <= 1e-6


def test_translation_length_closed_form_scaling():
    g = cover.from_complex(0.3 + 0.7j)
    record = cover.power_record(g)
    assert record.log_rho - 0.5 * record.log_det == pytest.approx(0.0, abs=1e-12)


def test_one_step_distance_dominates_stable_length():
    for t in (hyperbolic_triple(), gepner_triple(), identity_triple()):
        rep = stable_translation_length(t, n_max=32)
        d1 = quotient_distance(t, 1).distance
        assert d1 >= rep.estimate - 1e-9
        assert rep.fekete_min <= d1 + 1e-12


def test_translation_length_family_det_one():
    # bounded-orbit kinds converge like (log n)/n, so they get a longer run
    rng = np.random.default_rng(53)
    for kind, n_max in (("hyperbolic", 64), ("elliptic", 512), ("parabolic", 512)):
        t = families.compatible_triple(rng, rank=2, kind=kind)
        rep = stable_translation_length(t, n_max=n_max)
        assert abs(rep.estimate - rep.closed_form) <= 0.05, (kind, rep.estimate, rep.closed_form)


def test_translation_length_rejects_n_max_below_one():
    for n_max in (0, -3):
        with pytest.raises(ValueError):
            stable_translation_length(hyperbolic_triple(), n_max=n_max)


def test_translation_length_builds_one_record_and_no_inverse(monkeypatch):
    calls = {"record": 0, "inverse": 0}
    build, invert = cover.power_record, cover.inverse

    def counting_build(g):
        calls["record"] += 1
        return build(g)

    def counting_inverse(g):
        calls["inverse"] += 1
        return invert(g)

    t = hyperbolic_triple()
    monkeypatch.setattr(cover, "power_record", counting_build)
    monkeypatch.setattr(cover, "inverse", counting_inverse)
    rep = stable_translation_length(t, n_max=100)
    assert calls == {"record": 1, "inverse": 0}
    # the one vectorized pass reproduces the per-n quotient distances
    ns = (1, 2, 4, 8, 16, 32, 64, 100)
    for got, want in zip(rep.samples, (quotient_distance(t, n) for n in ns)):
        assert got.n == want.n
        assert got.distance == pytest.approx(want.distance, rel=1e-14, abs=1e-14)
        assert got.alpha_opt == pytest.approx(want.alpha_opt, rel=1e-14, abs=1e-14)


def test_csv_rows_format():
    t = hyperbolic_triple()
    rep = stable_translation_length(t, n_max=8)
    text = csv_rows(rep.samples)
    lines = text.strip().split("\n")
    assert lines[0] == "n,distance,A,B,re_alpha,im_alpha"
    assert len(lines) == len(rep.samples) + 1


# --- the closed-form displacement extremes ----------------------------------------

DOUBLINGS = np.array([2**k for k in range(13)])  # exponents 1 ... 4096


def test_extremes_contain_a_fine_phase_grid():
    grid = np.linspace(0.0, 1.0, 2**16, endpoint=False)
    for seed in range(60):
        for kind in ("hyperbolic", "parabolic", "elliptic"):
            if (seed, kind) == (47, "hyperbolic"):
                continue  # record.phase itself is not monotone there (cancelled Putzer step)
            t = families.compatible_triple(np.random.default_rng(seed), rank=(2, 4, 6)[seed % 3], kind=kind)
            record = cover.power_record(t.g)
            lo, hi, _, _ = record.extremes(DOUBLINGS)
            disp = record.phase(grid, DOUBLINGS[:, None]) - grid
            assert np.all(disp.max(axis=1) <= hi + 1e-9), (seed, kind)
            assert np.all(disp.min(axis=1) >= lo - 1e-9), (seed, kind)


def test_A_never_exceeds_one_half_on_hyperbolic_triples():
    # the grid sup read 0.687 on seed 47; a circle-map lift moves by less than 1
    for seed in range(200):
        for rank in (2, 4):
            t = families.compatible_triple(np.random.default_rng(seed), rank=rank, kind="hyperbolic", shift=1)
            rep = stable_translation_length(t, n_max=64)
            assert max(s.A_value for s in rep.samples) <= 0.5 + 1e-12, (seed, rank)


def test_A_is_invariant_under_the_plane_action():
    rng = np.random.default_rng(71)
    for seed in range(60):
        for kind in ("hyperbolic", "parabolic", "elliptic"):
            g = families.compatible_triple(np.random.default_rng(seed), rank=(2, 4, 6)[seed % 3], kind=kind).g
            h = cover.from_complex(complex(rng.uniform(-1.5, 1.5), rng.uniform(-0.5, 0.5)))
            moved = cover.compose(cover.compose(h, g), cover.inverse(h))
            for n in (1, 64, 4096):
                lo, hi, _, _ = cover.power_record(g).extremes(n)
                lo2, hi2, _, _ = cover.power_record(moved).extremes(n)
                assert (hi2 - lo2) / 2 == pytest.approx((hi - lo) / 2, abs=1e-9)
                assert A_functional(moved, n, -(hi2 + lo2) / 2) == pytest.approx(
                    A_functional(g, n, -(hi + lo) / 2), abs=1e-9)
