import math

import numpy as np
import pytest

from stabdyn import cover, families
from stabdyn.errors import NotOddCY, SingularPairing
from stabdyn.lattice import IntMatrix
from stabdyn.stability import (
    AutoequivalenceData,
    CentralCharge,
    CompatibleTriple,
    IntertwineReport,
    SemistableDatum,
    StabilityData,
    verify_triple,
)
from stabdyn.volume import (
    EulerPairing,
    charge_conjugation_split,
    det_one_necessity,
    isotropy_defect,
    vol_transform_check,
    volume,
)

GOLDEN2 = (3.0 + math.sqrt(5.0)) / 2.0

J2 = EulerPairing(chi=IntMatrix(((0, 1), (-1, 0))), cy_parity=3)


def rank4_invariant_pairing():
    # block pairing invariant under blockdiag(F, F) for any F in SL2
    return EulerPairing(
        chi=IntMatrix(((0, 0, 0, 1), (0, 0, -1, 0), (0, 1, 0, 0), (-1, 0, 0, 0))),
        cy_parity=3,
    )


def test_volume_zero_charge():
    Z = CentralCharge(((0.0, 0.0), (0.0, 0.0)))
    assert volume(Z, J2) == 0.0


def test_volume_hand_computed():
    # Z(e1) = 1, Z(e2) = i: inverse pairing [[0,-1],[1,0]] gives modulus 2
    Z = CentralCharge(((1.0, 0.0), (0.0, 1.0)))
    assert volume(Z, J2) == pytest.approx(2.0, abs=1e-12)


def test_volume_basis_invariance():
    rng = np.random.default_rng(61)
    for _ in range(10):
        r = 4
        chi = families.random_antisymmetric_pairing(rng, r)
        pairing = EulerPairing(chi=chi, cy_parity=3)
        Zm = rng.normal(size=(2, r))
        Z = CentralCharge(tuple(map(tuple, Zm.tolist())))
        P = families.random_unimodular(rng, r)
        chi_new = P.transpose() @ chi @ P
        Z_new = CentralCharge(tuple(map(tuple, (Zm @ P.to_float()).tolist())))
        v0 = volume(Z, pairing)
        v1 = volume(Z_new, EulerPairing(chi=chi_new, cy_parity=3))
        assert v1 == pytest.approx(v0, rel=1e-9, abs=1e-9)


def test_isotropy_identity_for_antisymmetric():
    rng = np.random.default_rng(67)
    for _ in range(20):
        chi = families.random_antisymmetric_pairing(rng, 4)
        Z = CentralCharge(tuple(map(tuple, rng.normal(size=(2, 4)).tolist())))
        assert isotropy_defect(Z, EulerPairing(chi=chi, cy_parity=3)) <= 1e-10


def test_pairing_antisymmetry_enforced():
    with pytest.raises(NotOddCY):
        EulerPairing(chi=IntMatrix(((0, 1), (1, 0))), cy_parity=3)
    with pytest.raises(NotOddCY):
        EulerPairing(chi=IntMatrix(((0, 1), (-1, 0))), cy_parity=2)


def test_singular_pairing_rejected():
    Z = CentralCharge(((1.0, 0.0), (0.0, 1.0)))
    with pytest.raises(SingularPairing):
        volume(Z, EulerPairing(chi=IntMatrix(((0, 0), (0, 0))), cy_parity=None))


def test_rank_mismatch_rejected_by_volume_and_isotropy_defect():
    Z = CentralCharge(((1.0, 0.0), (0.0, 1.0)))
    for functional in (volume, isotropy_defect):
        with pytest.raises(SingularPairing):
            functional(Z, rank4_invariant_pairing())


def test_conjugation_split_identity():
    rng = np.random.default_rng(71)
    for _ in range(20):
        Minv = rng.normal(size=(2, 2))
        alpha, beta = charge_conjugation_split(Minv)
        for _ in range(4):
            w = complex(rng.normal(), rng.normal())
            direct = Minv @ np.array([w.real, w.imag])
            via = alpha * w + beta * w.conjugate()
            assert complex(direct[0], direct[1]) == pytest.approx(via, abs=1e-12)


def test_vol_transform_identity_element():
    Z = CentralCharge(((1.0, 0.0), (0.0, 1.0)))
    rep = vol_transform_check(Z, J2, cover.identity_elem())
    assert rep.passed
    assert rep.lhs == pytest.approx(rep.rhs, abs=1e-15)


def test_vol_transform_pure_scaling():
    Z = CentralCharge(((1.0, 0.0), (0.0, 1.0)))
    g = cover.from_complex(1j)  # matrix e^{-pi} I, det e^{-2pi}
    rep = vol_transform_check(Z, J2, g)
    assert rep.passed
    assert rep.lhs == pytest.approx(math.exp(2.0 * math.pi) * volume(Z, J2), rel=1e-9)


def test_vol_transform_random():
    rng = np.random.default_rng(73)
    for _ in range(100):
        chi = families.random_antisymmetric_pairing(rng, 4)
        pairing = EulerPairing(chi=chi, cy_parity=3)
        Z = CentralCharge(tuple(map(tuple, rng.normal(size=(2, 4)).tolist())))
        if volume(Z, pairing) < 1e-6:
            continue
        g = families.random_cover_element(rng)
        rep = vol_transform_check(Z, pairing, g, tol=1e-10)
        assert rep.passed, rep


def test_vol_transform_composition():
    rng = np.random.default_rng(79)
    chi = families.random_antisymmetric_pairing(rng, 4)
    pairing = EulerPairing(chi=chi, cy_parity=3)
    Z = CentralCharge(tuple(map(tuple, rng.normal(size=(2, 4)).tolist())))
    g1 = families.random_cover_element(rng)
    g2 = families.random_cover_element(rng)
    g12 = cover.compose(g1, g2)
    M12 = np.asarray(g12.m, dtype=float)
    Znew = CentralCharge(tuple(map(tuple, (np.linalg.inv(M12) @ Z.array).tolist())))
    lhs = volume(Znew, pairing)
    rhs = volume(Z, pairing) / float(np.linalg.det(M12))
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_det_one_on_verified_unimodular_triple():
    rng = np.random.default_rng(83)
    t = families.compatible_triple(rng, rank=4, kind="hyperbolic")
    pairing = rank4_invariant_pairing()
    rep = det_one_necessity(t, pairing)
    assert rep.passed
    if rep.constrained:
        assert abs(rep.det - 1.0) <= 1e-9


def synthetic_scaling_triple():
    """Verified triple whose matrix part is the scalar with det != 1.

    The charge rows are left eigenvectors of the block map, so the matrix
    part is lambda * Id with lambda the top eigenvalue.
    """
    lam = GOLDEN2
    F = IntMatrix(((2, 1), (1, 1)))
    P = IntMatrix(
        ((2, 1, 0, 0), (1, 1, 0, 0), (0, 0, 2, 1), (0, 0, 1, 1))
    )
    Z = CentralCharge(((1.0, lam - 2.0, 0.0, 0.0), (0.0, 0.0, 1.0, lam - 2.0)))
    sigma = StabilityData(
        Z=Z,
        semistables=(
            SemistableDatum((1, 0, 0, 0), 0.0),
            SemistableDatum((0, 0, 1, 0), 0.5),
        ),
    )
    g = cover.lift_from(np.diag([lam, lam]), 0.0)
    del F
    return verify_triple(AutoequivalenceData(P=P), sigma, g)


def test_scaling_triple_forces_vanishing_volume():
    t = synthetic_scaling_triple()
    assert t.verified
    det = float(np.linalg.det(np.asarray(t.g.m)))
    assert det == pytest.approx(GOLDEN2**2, rel=1e-12)
    pairing = rank4_invariant_pairing()
    # compatibility with det != 1 is only possible because the volume vanishes
    assert volume(t.sigma.Z, pairing) <= 1e-9
    rep = det_one_necessity(t, pairing)
    assert rep.passed
    assert not rep.constrained


def test_fabricated_contradiction_is_flagged():
    # hand-built record claiming verification with det != 1 and volume > 0
    t = synthetic_scaling_triple()
    Z = CentralCharge(((1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 1.0)))
    fake_sigma = StabilityData(
        Z=Z,
        semistables=(
            SemistableDatum((1, 0, 0, 0), 0.0),
            SemistableDatum((0, 0, 0, 1), 0.5),
        ),
    )
    fake = CompatibleTriple(
        auto=t.auto,
        sigma=fake_sigma,
        g=t.g,
        verified=True,
        spanning=True,
        intertwine=IntertwineReport(passed=True, residual=0.0, tol=1e-9),
    )
    rep = det_one_necessity(fake, rank4_invariant_pairing())
    assert rep.constrained
    assert not rep.passed
