import cmath
import math

import numpy as np
import pytest

from stabdyn import cover
from stabdyn.errors import (
    DimensionMismatch,
    PreconditionViolated,
    SingularMatrix,
    UnverifiedTriple,
)
from stabdyn.lattice import IntMatrix, min_poly_root_transfer
from stabdyn.stability import (
    AutoequivalenceData,
    CentralCharge,
    HNObject,
    SemistableDatum,
    StabilityData,
    act_by_auto,
    act_on_stability,
    apply_auto,
    auto_from_json,
    charge_of,
    check_charge_intertwine,
    check_heart_window,
    ginzburg_infeasibility,
    mass,
    phases,
    same_stability_data,
    spanning_image,
    stability_from_json,
    triple_power,
    verify_triple,
)

CURVE_Z = CentralCharge(((0.0, -1.0), (1.0, 0.0)))  # (rk, deg) -> -deg + i rk


def curve_sigma():
    return StabilityData(
        Z=CURVE_Z,
        semistables=(
            SemistableDatum((1, 0), 0.5),
            SemistableDatum((0, 1), 1.0),
            SemistableDatum((1, 1), math.atan2(1.0, -1.0) / math.pi),
            SemistableDatum((1, -1), 0.25),
        ),
        support_C=2.0,
    )


def curve_triple(deg_l=3):
    """Tensoring by a degree-d line bundle on the rank/degree lattice."""
    auto = AutoequivalenceData(P=IntMatrix(((1, 0), (deg_l, 1))), label="tensor")
    M = np.array([[1.0, -float(deg_l)], [0.0, 1.0]])
    g = cover.lift_from(M, 0.0)
    return verify_triple(auto, curve_sigma(), g)


def identity_triple(sigma=None):
    sigma = sigma or curve_sigma()
    auto = AutoequivalenceData(P=IntMatrix.identity(sigma.rank), label="id")
    return verify_triple(auto, sigma, cover.identity_elem())


# --- charges and masses -----------------------------------------------------


def test_charge_of_zero_vector():
    assert charge_of(CURVE_Z, (0, 0)) == 0


def test_charge_of_curve_basis():
    assert charge_of(CURVE_Z, (1, 0)) == pytest.approx(1j)
    assert charge_of(CURVE_Z, (0, 1)) == pytest.approx(-1.0)


def test_charge_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        charge_of(CURVE_Z, (1, 2, 3))


def test_mass_single_unit_factor():
    E = HNObject((SemistableDatum((0, 1), 1.0),))
    Z = CentralCharge(((1.0, -1.0), (0.0, 0.0)))  # Z(0,1) = -1, phase 1
    for t in (-2.0, 0.0, 0.7):
        assert mass(E, Z, t) == pytest.approx(math.exp(t))


def test_mass_two_factors():
    Z = CentralCharge(((1.0, -1.0), (0.0, 0.0)))  # Z(1,0)=1 phase 0, Z(0,1)=-1 phase 1
    E = HNObject((SemistableDatum((0, 1), 1.0), SemistableDatum((1, 0), 0.0)))
    assert mass(E, Z, 0.0) == pytest.approx(2.0)
    assert mass(E, Z, 1.0) == pytest.approx(math.e + 1.0)


def test_phases_single_and_shifted():
    single = HNObject((SemistableDatum((1, 0), 0.3),))
    assert phases(single) == (0.3, 0.3)
    double = HNObject((SemistableDatum((1, 0), 0.9), SemistableDatum((0, 1), 0.2)))
    assert phases(double) == (0.9, 0.2)
    shifted = HNObject(tuple(SemistableDatum(d.v, d.phase + 1.0) for d in double.factors))
    assert phases(shifted) == (1.9, 1.2)


def test_hn_object_requires_strict_descent():
    with pytest.raises(ValueError):
        HNObject((SemistableDatum((1, 0), 0.5), SemistableDatum((0, 1), 0.5)))


# --- spanning ----------------------------------------------------------------


def test_spanning_image_true_for_orthogonal_charges():
    sigma = StabilityData(
        Z=CentralCharge(((1.0, 0.0), (0.0, 1.0))),
        semistables=(SemistableDatum((1, 0), 0.0), SemistableDatum((0, 1), 0.5)),
    )
    assert spanning_image(sigma)


def test_spanning_image_false_for_collinear_charges():
    sigma = StabilityData(
        Z=CentralCharge(((1.0, 2.0, -3.0), (0.0, 0.0, 0.0))),
        semistables=(
            SemistableDatum((1, 0, 0), 0.0),
            SemistableDatum((0, 1, 0), 0.0),
            SemistableDatum((0, 0, 1), 1.0),
        ),
    )
    assert not spanning_image(sigma)


def test_spanning_image_curve():
    assert spanning_image(curve_sigma())


# --- charge intertwine --------------------------------------------------------


def test_intertwine_identity():
    rep = check_charge_intertwine(
        CURVE_Z, AutoequivalenceData(P=IntMatrix.identity(2)), np.eye(2)
    )
    assert rep.passed
    assert rep.residual == 0.0


def test_intertwine_curve_tensor():
    deg_l = 3
    rep = check_charge_intertwine(
        CURVE_Z,
        AutoequivalenceData(P=IntMatrix(((1, 0), (deg_l, 1)))),
        np.array([[1.0, -float(deg_l)], [0.0, 1.0]]),
    )
    assert rep.passed


def test_intertwine_a2_twist():
    z1 = cmath.exp(1j * math.pi * 0.3)
    z2 = cmath.exp(1j * math.pi * 0.6)
    Z = CentralCharge(((z1.real, z2.real), (z1.imag, z2.imag)))
    P = AutoequivalenceData(P=IntMatrix(((1, 1), (0, 1))))
    B = np.array([[z1.real, z2.real], [z1.imag, z2.imag]])
    Bp = np.array([[z1.real, z1.real + z2.real], [z1.imag, z1.imag + z2.imag]])
    M = Bp @ np.linalg.inv(B)
    rep = check_charge_intertwine(Z, P, M, tol=1e-12)
    assert rep.passed
    assert rep.residual <= 1e-12


# --- heart window ---------------------------------------------------------------


def test_heart_window_basic():
    inside = [SemistableDatum((1, 0), 0.5), SemistableDatum((0, 1), 1.0)]
    assert check_heart_window(inside, 0.0)
    outside = [SemistableDatum((1, 0), 0.5), SemistableDatum((0, 1), 1.7)]
    assert not check_heart_window(outside, 0.0)


def test_heart_window_shift():
    m = 3
    shifted = [SemistableDatum((1, 0), 0.5 + m), SemistableDatum((0, 1), 1.0 + m)]
    assert check_heart_window(shifted, float(m))


# --- verify_triple ---------------------------------------------------------------


def test_verify_identity_triple():
    t = identity_triple()
    assert t.verified
    assert t.spanning
    assert t.failure is None


def test_verify_curve_tensor_triple():
    t = curve_triple(3)
    assert t.verified
    # transported structure-sheaf class
    img = dict(zip([d.v for d in t.sigma.semistables], t.images))
    assert img[(1, 0)].v == (1, 3)
    assert img[(1, 0)].phase == pytest.approx(math.atan2(1.0, -3.0) / math.pi)


def test_verify_shift_triple():
    for m in (-1, 1, 2):
        sigma = curve_sigma()
        auto = AutoequivalenceData(P=IntMatrix((((-1) ** m, 0), (0, (-1) ** m))))
        t = verify_triple(auto, sigma, cover.from_complex(float(m)))
        assert t.verified


def test_verify_triple_monotone_in_tol():
    t_tight = curve_triple(3)
    sigma = curve_sigma()
    auto = AutoequivalenceData(P=IntMatrix(((1, 0), (3, 1))))
    g = cover.lift_from(np.array([[1.0, -3.0], [0.0, 1.0]]), 0.0)
    t_loose = verify_triple(auto, sigma, g, tol=1e-3)
    assert t_tight.verified and t_loose.verified


def test_verify_fails_on_wrong_matrix():
    sigma = curve_sigma()
    auto = AutoequivalenceData(P=IntMatrix(((1, 0), (3, 1))))
    g = cover.lift_from(np.array([[1.0, 3.0], [0.0, 1.0]]), 0.0)  # wrong sign
    t = verify_triple(auto, sigma, g)
    assert not t.verified
    assert t.failure.kind == "charge_intertwine"


def test_verify_a2_twist_fails_heart_window():
    z1 = cmath.exp(1j * math.pi * 0.3)
    z2 = cmath.exp(1j * math.pi * 0.6)
    d = 3
    Z = CentralCharge(((z1.real, z2.real), (z1.imag, z2.imag)))
    sigma = StabilityData(
        Z=Z,
        semistables=(SemistableDatum((1, 0), 0.3), SemistableDatum((0, 1), 0.6)),
    )
    auto = AutoequivalenceData(P=IntMatrix(((1, 1), (0, 1))))
    B = np.array([[z1.real, z2.real], [z1.imag, z2.imag]])
    Bp = np.array([[z1.real, z1.real + z2.real], [z1.imag, z1.imag + z2.imag]])
    M = Bp @ np.linalg.inv(B)
    g = cover.lift_from(M, math.atan2(M[1, 0], M[0, 0]) / math.pi)
    z12 = z1 + z2
    images = (
        SemistableDatum((1, 0), 0.3 + 1 - d),
        SemistableDatum((1, 1), math.atan2(z12.imag, z12.real) / math.pi),
    )
    t = verify_triple(auto, sigma, g, images=images)
    assert t.intertwine.passed
    assert not t.verified
    assert t.failure.kind == "heart_window"


# --- apply_auto -------------------------------------------------------------------


def test_apply_auto_identity():
    t = identity_triple()
    E = HNObject((SemistableDatum((1, 0), 0.5), SemistableDatum((0, 1), -1.0)))
    out = apply_auto(E, t)
    assert out == E


def test_apply_auto_shift():
    m = 2
    sigma = curve_sigma()
    auto = AutoequivalenceData(P=IntMatrix.identity(2))
    t = verify_triple(auto, sigma, cover.from_complex(float(m)))
    E = HNObject((SemistableDatum((1, 0), 0.5),))
    out = apply_auto(E, t)
    assert out.factors[0].phase == pytest.approx(0.5 + m, abs=1e-12)


def test_apply_auto_requires_verified():
    sigma = curve_sigma()
    auto = AutoequivalenceData(P=IntMatrix(((1, 0), (3, 1))))
    g = cover.lift_from(np.array([[1.0, 3.0], [0.0, 1.0]]), 0.0)
    bad = verify_triple(auto, sigma, g)
    with pytest.raises(UnverifiedTriple):
        apply_auto(HNObject((SemistableDatum((1, 0), 0.5),)), bad)


def test_apply_auto_preserves_mass_transport():
    t = curve_triple(3)
    E = HNObject(
        (SemistableDatum((0, 1), 1.0), SemistableDatum((1, 1), math.atan2(1, -1) / math.pi))
    )
    out = apply_auto(E, t)
    expected = sum(
        np.linalg.norm(t.g.matrix @ np.array([charge_of(t.sigma.Z, d.v).real,
                                              charge_of(t.sigma.Z, d.v).imag]))
        for d in E.factors
    )
    assert mass(out, t.sigma.Z) == pytest.approx(expected, rel=1e-9)


def test_apply_auto_preserves_phase_descent():
    t = curve_triple(5)
    E = HNObject(
        (
            SemistableDatum((0, 1), 1.0),
            SemistableDatum((1, 1), math.atan2(1, -1) / math.pi),
            SemistableDatum((1, 0), 0.5),
        )
    )
    out = apply_auto(E, t)
    ph = [d.phase for d in out.factors]
    assert all(a > b for a, b in zip(ph, ph[1:]))


def test_triple_power_verifies():
    t = curve_triple(2)
    for k in (0, 1, 3):
        assert triple_power(t, k).verified


# --- actions ------------------------------------------------------------------------


def test_act_on_stability_identity():
    sigma = curve_sigma()
    out = act_on_stability(sigma, cover.identity_elem())
    assert same_stability_data(sigma, out)


def test_act_on_stability_complex_scales_charge():
    sigma = curve_sigma()
    alpha = 0.4 + 0.3j
    out = act_on_stability(sigma, cover.from_complex(alpha))
    scale = cmath.exp(-1j * math.pi * alpha)
    for v in [(1, 0), (0, 1), (2, -3)]:
        assert charge_of(out.Z, v) == pytest.approx(scale * charge_of(sigma.Z, v), rel=1e-9)


def test_act_on_stability_round_trip():
    sigma = curve_sigma()
    rng = np.random.default_rng(1)
    M = rng.normal(size=(2, 2))
    if np.linalg.det(M) < 0:
        M[0] = -M[0]
    g = cover.lift_from(M, math.atan2(M[1, 0], M[0, 0]) / math.pi)
    back = act_on_stability(act_on_stability(sigma, g), cover.inverse(g))
    assert np.allclose(back.Z.array, sigma.Z.array, atol=1e-9)
    for d0, d1 in zip(sigma.semistables, back.semistables):
        assert d0.v == d1.v
        assert d1.phase == pytest.approx(d0.phase, abs=1e-9)


def test_left_action_matches_right_action_for_compatible_triple():
    t = curve_triple(3)
    left = act_by_auto(t.sigma, t.auto)
    right = act_on_stability(t.sigma, t.g)
    assert same_stability_data(left, right, tol=1e-9)


def test_left_action_matches_right_action_for_shift():
    m = 2
    sigma = curve_sigma()
    auto = AutoequivalenceData(P=IntMatrix.identity(2))
    t = verify_triple(auto, sigma, cover.from_complex(float(m)))
    assert t.verified
    left = act_by_auto(t.sigma, t.auto)
    right = act_on_stability(t.sigma, t.g)
    assert same_stability_data(left, right, tol=1e-9)


def test_left_action_by_nonunimodular_map_inverts_the_map():
    sigma = curve_sigma()
    auto = AutoequivalenceData(P=IntMatrix(((2, 1), (1, 3))), allow_nonunimodular=True)
    left = act_by_auto(sigma, auto)
    assert np.allclose(left.Z.array @ auto.P.to_float(), sigma.Z.array, atol=1e-15, rtol=0.0)


def test_left_action_by_singular_map_raises_typed_error():
    auto = AutoequivalenceData(P=IntMatrix(((1, 1), (1, 1))), allow_nonunimodular=True)
    with pytest.raises(SingularMatrix):
        act_by_auto(curve_sigma(), auto)


def test_min_poly_transfer_for_verified_spanning_triple():
    t = curve_triple(4)
    assert t.spanning
    assert min_poly_root_transfer(t.auto.P, t.g.matrix, tol=1e-9)


# --- JSON round trip -----------------------------------------------------------------


@pytest.mark.parametrize("norm", ["max", "euclid"])
def test_stability_json_round_trip_keeps_the_norm(norm):
    sigma = StabilityData(Z=CURVE_Z, semistables=curve_sigma().semistables, support_C=2.0,
                          norm=norm)
    obj = sigma.to_json()
    assert ("norm" in obj) == (norm != "max")  # the default norm is not written
    assert stability_from_json(obj) == sigma


@pytest.mark.parametrize("det", [1, 2])
def test_auto_json_round_trip_keeps_the_unimodular_opt_out(det):
    auto = AutoequivalenceData(P=IntMatrix(((1, 0), (0, det))), label="scale",
                               allow_nonunimodular=det != 1)
    obj = auto.to_json()
    assert ("allow_nonunimodular" in obj) == (det != 1)  # written only when true
    assert auto_from_json(obj) == auto


# --- weak data -----------------------------------------------------------------------


def test_weak_flag_allows_zero_charge_at_integer_phase():
    Z = CentralCharge(((0.0, 0.0), (1.0, 0.0)))  # Z(0,1) = 0
    sigma = StabilityData(
        Z=Z,
        semistables=(SemistableDatum((1, 0), 0.5), SemistableDatum((0, 1), 1.0)),
        weak=True,
    )
    assert sigma.weak


def test_weak_zero_charge_rejected_without_flag():
    Z = CentralCharge(((0.0, 0.0), (1.0, 0.0)))
    with pytest.raises(ValueError):
        StabilityData(
            Z=Z,
            semistables=(SemistableDatum((1, 0), 0.5), SemistableDatum((0, 1), 1.0)),
        )


def test_weak_zero_charge_rejected_at_noninteger_phase():
    Z = CentralCharge(((0.0, 0.0), (1.0, 0.0)))
    with pytest.raises(ValueError):
        StabilityData(
            Z=Z,
            semistables=(SemistableDatum((1, 0), 0.5), SemistableDatum((0, 1), 0.25)),
            weak=True,
        )


# --- the twist obstruction -------------------------------------------------------------


def test_ginzburg_infeasibility_d3():
    cert = ginzburg_infeasibility(
        cmath.exp(1j * math.pi * 0.3), cmath.exp(1j * math.pi * 0.6), 3
    )
    assert not cert.feasible
    assert cert.gap == -2
    assert cert.spread > 1.0
    assert cert.psi_must_be_at_least > cert.psi_must_be_below


def test_ginzburg_infeasibility_d5():
    cert = ginzburg_infeasibility(
        cmath.exp(1j * math.pi * 0.1), cmath.exp(1j * math.pi * 0.9), 5
    )
    assert not cert.feasible
    assert cert.gap == -4


def test_ginzburg_guards():
    z1 = cmath.exp(1j * math.pi * 0.3)
    z2 = cmath.exp(1j * math.pi * 0.6)
    with pytest.raises(PreconditionViolated):
        ginzburg_infeasibility(z1, z2, 1)
    with pytest.raises(PreconditionViolated):
        ginzburg_infeasibility(z2, z1, 3)  # arguments out of order
    with pytest.raises(PreconditionViolated):
        ginzburg_infeasibility(-z1, z2, 3)  # first charge not in upper half plane
