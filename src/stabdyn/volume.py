"""Pairing-based volume of a stability datum and its transformation law.

The volume is |sum chi^{ij} Z(v_i) conj(Z(v_j))| over the standard lattice
basis, with chi^{ij} = N_ij / d the exact inverse of the integer pairing
(stabdyn.lattice.rational_inverse: fraction-free below rank 16, CRT of
images mod primes from 16; each entry is rounded to float once).  For an
odd-parity antisymmetric pairing the plane action scales the volume by the
inverse determinant of the matrix part, which forces det = 1 for any
compatible action with nonvanishing volume.
"""

from dataclasses import dataclass

import numpy as np

from ._report import Report
from .errors import NotOddCY, SingularMatrix, SingularPairing
from .lattice import IntMatrix, rational_inverse
from .stability import CentralCharge


@dataclass(frozen=True)
class EulerPairing(Report):
    """Integer pairing matrix, optionally carrying an odd parity.

    An odd parity asserts antisymmetry chi(v, w) = -chi(w, v), which is
    validated exactly.
    """

    chi: IntMatrix
    cy_parity: object = None  # odd integer or None

    def __post_init__(self):
        if self.cy_parity is not None:
            d = int(self.cy_parity)
            object.__setattr__(self, "cy_parity", d)
            if d % 2 == 0:
                raise NotOddCY("parity must be odd")
            for i in range(self.chi.dim):
                for j in range(self.chi.dim):
                    if self.chi.entries[i][j] != -self.chi.entries[j][i]:
                        raise NotOddCY("pairing is not antisymmetric")

    @property
    def rank(self):
        return self.chi.dim


def _charges(Z):
    return [complex(Z.matrix[0][j], Z.matrix[1][j]) for j in range(Z.rank)]


def _pairing_sum(Z, pairing, conjugate_second=True):
    if Z.rank != pairing.rank:
        raise SingularPairing("pairing size does not match the charge rank")
    try:
        N, d = rational_inverse(pairing.chi)
    except SingularMatrix:
        raise SingularPairing("pairing matrix is singular") from None
    zs = _charges(Z)
    total = 0j
    for i, zi in enumerate(zs):
        for j, zj in enumerate(zs):
            w = zj.conjugate() if conjugate_second else zj
            total += (N[i][j] / d) * zi * w
    return total


def volume(Z, pairing):
    """|sum chi^{ij} Z(v_i) conj(Z(v_j))| over the standard basis."""
    return float(abs(_pairing_sum(Z, pairing, conjugate_second=True)))


def isotropy_defect(Z, pairing):
    """|sum chi^{ij} Z(v_i) Z(v_j)| without conjugation.

    Vanishes identically for an antisymmetric pairing; kept as a cheap
    self-check of the sign conventions.
    """
    return float(abs(_pairing_sum(Z, pairing, conjugate_second=False)))


def charge_conjugation_split(Minv):
    """(alpha, beta) with M^{-1} w = alpha w + beta conj(w) on the plane.

    Convention: for M^{-1} = [[a, b], [c, d]], alpha = (a+d+i(-b+c))/2 and
    beta = (a-d+i(b+c))/2; any other identification of the plane with the
    complex line breaks the sign tests.
    """
    a, b = float(Minv[0][0]), float(Minv[0][1])
    c, d = float(Minv[1][0]), float(Minv[1][1])
    alpha = complex(a + d, -b + c) / 2.0
    beta = complex(a - d, b + c) / 2.0
    return alpha, beta


@dataclass(frozen=True)
class VolumeTransformReport(Report):
    lhs: float
    rhs: float
    relative_discrepancy: float
    passed: bool


def vol_transform_check(Z, pairing, g, tol=1e-10):
    """Check volume(g-translate) = det(M^{-1}) volume against each other."""
    if pairing.cy_parity is None:
        raise NotOddCY("transformation law needs an odd-parity pairing")
    M = np.asarray(g.m, dtype=float)
    Minv = np.linalg.inv(M)
    Znew = CentralCharge(tuple(map(tuple, (Minv @ Z.array).tolist())))
    lhs = volume(Znew, pairing)
    rhs = float(np.linalg.det(Minv)) * volume(Z, pairing)
    scale = max(abs(rhs), abs(lhs), 1e-300)
    rel = abs(lhs - rhs) / scale
    return VolumeTransformReport(
        lhs=lhs, rhs=rhs, relative_discrepancy=float(rel), passed=bool(rel <= tol)
    )


@dataclass(frozen=True)
class DetOneReport(Report):
    volume: float
    det: float
    constrained: bool
    passed: bool
    note: str


def det_one_necessity(triple, pairing, tol=1e-9):
    """Nonvanishing volume forces determinant one for a compatible action."""
    triple.require_verified()
    if pairing.cy_parity is None:
        raise NotOddCY("the necessity statement needs an odd-parity pairing")
    vol = volume(triple.sigma.Z, pairing)
    det = float(np.linalg.det(np.asarray(triple.g.m, dtype=float)))
    if vol <= tol:
        return DetOneReport(
            volume=vol,
            det=det,
            constrained=False,
            passed=True,
            note="no constraint (volume vanishes)",
        )
    ok = abs(det - 1.0) <= tol
    return DetOneReport(
        volume=vol,
        det=det,
        constrained=True,
        passed=bool(ok),
        note="det must equal 1" if ok else "contradiction: det != 1 with positive volume",
    )


__all__ = [
    "EulerPairing",
    "VolumeTransformReport",
    "DetOneReport",
    "volume",
    "isotropy_defect",
    "charge_conjugation_split",
    "vol_transform_check",
    "det_one_necessity",
]
