import math

import pytest

from stabdyn.errors import NonIntegralAction, PreconditionViolated
from stabdyn.scenarios import (
    coh1_scenario,
    curve_scenario,
    ginzburg_scenario,
    pseudo_anosov_scenario,
    run_scenario,
    weak_stability_scenario,
)

GOLDEN2 = (3.0 + math.sqrt(5.0)) / 2.0


# --- curve ------------------------------------------------------------------


def test_curve_trivial_twist_all_rates_zero():
    rep = curve_scenario(deg_L=0, m=0, n_max=1024, pol_n_max=4096)
    assert rep.triple.verified
    assert rep.all_passed
    lin = rep.extras["linearity"]
    assert lin.line_slope == pytest.approx(0.0, abs=1e-9)
    assert lin.line_intercept == pytest.approx(0.0, abs=1e-9)


def test_curve_twist_and_shift():
    rep = curve_scenario(deg_L=3, m=1, n_max=2048, pol_n_max=2**16)
    assert rep.triple.verified
    assert rep.all_passed
    assert rep.extras["linearity"].line_slope == pytest.approx(1.0, abs=5e-3)
    assert rep.extras["polynomial"].poly_rate == pytest.approx(1.0, abs=0.15)


def test_curve_degree_one_table_cross_check():
    rep = curve_scenario(deg_L=1, m=0, n_max=2048, pol_n_max=2**16)
    assert rep.all_passed
    assert rep.extras["table_entropy"].exp_rate == pytest.approx(0.0, abs=1e-3)
    assert rep.extras["table_polynomial_entropy"].poly_rate == pytest.approx(1.0, abs=0.15)


# --- quotient category -------------------------------------------------------


def test_coh1_unit_eigenvalue():
    rep = coh1_scenario(lam=1, m=0, n_max=1024)
    assert rep.all_passed
    assert not rep.inputs["synthetic"]


def test_coh1_synthetic_eigenvalue_two():
    rep = coh1_scenario(lam=2, m=0, n_max=2048)
    assert rep.all_passed
    assert rep.inputs["synthetic"]
    growth_claim = rep.claims[0]
    assert growth_claim.value == pytest.approx(math.log(2.0), abs=1e-3)


def test_coh1_shift_adds_translation():
    rep = coh1_scenario(lam=2, m=1, n_max=2048)
    assert rep.all_passed
    assert rep.claims[1].value == pytest.approx(1.0, abs=2e-3)


def test_coh1_rejects_non_integer():
    with pytest.raises(NonIntegralAction):
        coh1_scenario(lam=1.5)


# --- weak stability ------------------------------------------------------------


def test_weak_zero_intersection():
    rep = weak_stability_scenario(intersection_number=0.0, m=0, n_max=4096)
    assert rep.all_passed
    assert rep.extras["polynomial"].poly_rate == pytest.approx(0.0, abs=0.15)


def test_weak_nonzero_intersection():
    rep = weak_stability_scenario(intersection_number=1.0, m=0, n_max=2**16)
    assert rep.all_passed
    assert rep.extras["mass_growth"].exp_rate == pytest.approx(0.0, abs=1e-3)
    assert rep.extras["polynomial"].poly_rate == pytest.approx(1.0, abs=0.15)


def test_weak_with_shift():
    rep = weak_stability_scenario(intersection_number=1.0, m=2, n_max=2**16)
    assert rep.all_passed
    assert rep.extras["shifting"].nu_upper == pytest.approx(2.0, abs=2e-3)


# --- twist obstruction ------------------------------------------------------------


def test_ginzburg_standard_instance():
    rep = ginzburg_scenario(phase1=0.3, phase2=0.6, d=3)
    assert rep.all_passed
    assert rep.extras["intertwine"].residual <= 1e-12
    assert not rep.triple.verified
    assert rep.triple.failure.kind == "heart_window"
    assert rep.extras["certificate"].gap == -2
    row = rep.claims[-1]
    assert row.claim == "extension phase lies strictly between the simples"
    assert row.passed is (0.3 < row.value < 0.6)
    # unit charges: the extension bisects, at the centre of the interval
    assert row.expected == pytest.approx(0.45) and row.tolerance == pytest.approx(0.15)
    assert row.value == pytest.approx(row.expected, abs=1e-12)


def test_ginzburg_second_instance():
    rep = ginzburg_scenario(phase1=0.1, phase2=0.9, d=5)
    assert rep.all_passed
    assert rep.extras["certificate"].gap == -4


def test_ginzburg_guards():
    with pytest.raises(PreconditionViolated):
        ginzburg_scenario(phase1=0.6, phase2=0.3, d=3)
    with pytest.raises(PreconditionViolated):
        ginzburg_scenario(phase1=0.3, phase2=0.6, d=1)


# --- stretch action -------------------------------------------------------------


def test_pseudo_anosov_standard_matrix():
    rep = pseudo_anosov_scenario(matrix=((2, 1), (1, 1)), n_max=64)
    assert rep.all_passed
    assert rep.claims[0].value == pytest.approx(math.log(GOLDEN2), abs=1e-3)
    assert rep.extras["classification"].pseudo_anosov_conjugate


def test_pseudo_anosov_conjugate_matrix_same_value():
    rep = pseudo_anosov_scenario(matrix=((1, 1), (1, 2)), n_max=64)
    assert rep.all_passed
    assert rep.claims[0].value == pytest.approx(math.log(GOLDEN2), abs=1e-3)


def test_pseudo_anosov_identity():
    rep = pseudo_anosov_scenario(matrix=((1, 0), (0, 1)), n_max=32)
    assert rep.all_passed
    for c in rep.claims:
        assert c.expected == pytest.approx(0.0, abs=1e-12)


def test_pseudo_anosov_rejects_det_not_one():
    with pytest.raises(PreconditionViolated):
        pseudo_anosov_scenario(matrix=((2, 0), (0, 1)))


# --- registry and determinism -------------------------------------------------------


def test_run_scenario_dispatch():
    rep = run_scenario("ginzburg", phase1=0.3, phase2=0.6, d=3)
    assert rep.name == "ginzburg"
    with pytest.raises(KeyError):
        run_scenario("unknown")


def test_scenario_reports_are_deterministic():
    a = curve_scenario(deg_L=2, m=1, n_max=1024, pol_n_max=4096).to_json()
    b = curve_scenario(deg_L=2, m=1, n_max=1024, pol_n_max=4096).to_json()
    assert a == b


def test_every_claim_row_carries_a_reference():
    reports = [
        curve_scenario(deg_L=1, m=0, n_max=1024, pol_n_max=4096),
        coh1_scenario(lam=1, m=1, n_max=1024),
        weak_stability_scenario(intersection_number=1.0, m=0, n_max=4096),
        ginzburg_scenario(),
        pseudo_anosov_scenario(n_max=16),
    ]
    for rep in reports:
        assert rep.claims
        for c in rep.claims:
            assert isinstance(c.reference, str) and c.reference
