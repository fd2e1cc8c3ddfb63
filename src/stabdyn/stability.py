"""Stability-condition data at lattice level.

A stability condition is represented by finite test data: a central charge
matrix on the lattice plus a list of semistable (class, phase) pairs.  Every
supremum in the metric and growth computations ranges over this list, which
is exact for orbit comparisons (the semistable reduction) and a lower bound
otherwise.  The compatibility of a lattice automorphism, stability datum and
cover element is decided by three finite checks: the charge intertwine, phase
transport of every listed semistable, and the heart-window criterion.
"""

import json
import math
from dataclasses import dataclass

import numpy as np

from . import cover
from ._report import Report
from .errors import DimensionMismatch, PreconditionViolated, UnverifiedTriple
from .lattice import IntMatrix, det_exact, rational_inverse

# Relative tolerance for |Z(v)| e^{i pi phase} against the charge value.
DEFAULT_PHASE_TOL = 1e-9


def _phase_tol(tol):
    return DEFAULT_PHASE_TOL if tol is None else tol


# ---------------------------------------------------------------------------
# central charges and semistable data


@dataclass(frozen=True)
class CentralCharge:
    """Group homomorphism lattice -> C, stored as a real 2 x rank matrix."""

    matrix: tuple  # ((re row), (im row))

    def __post_init__(self):
        m = tuple(tuple(float(x) for x in row) for row in self.matrix)
        if len(m) != 2 or len(m[0]) != len(m[1]) or len(m[0]) == 0:
            raise ValueError("charge matrix must be 2 x rank")
        if not all(math.isfinite(x) for row in m for x in row):
            raise ValueError("charge entries must be finite")
        object.__setattr__(self, "matrix", m)

    @property
    def rank(self):
        return len(self.matrix[0])

    @property
    def array(self):
        return np.array(self.matrix, dtype=float)

    def to_json(self):
        return {"rank": self.rank, "Z": [list(self.matrix[0]), list(self.matrix[1])]}


def charge_of(Z, v):
    """Charge of a lattice class as a complex number."""
    if len(v) != Z.rank:
        raise DimensionMismatch("class has length %d, charge rank is %d" % (len(v), Z.rank))
    re = sum(Z.matrix[0][i] * v[i] for i in range(len(v)))
    im = sum(Z.matrix[1][i] * v[i] for i in range(len(v)))
    return complex(re, im)


@dataclass(frozen=True)
class SemistableDatum(Report):
    v: tuple
    phase: float

    def __post_init__(self):
        object.__setattr__(self, "v", tuple(int(x) for x in self.v))
        object.__setattr__(self, "phase", float(self.phase))


def check_semistable(Z, datum, tol=None, weak=False):
    """Whether Z(v) = |Z(v)| e^{i pi phase} holds at relative tolerance.

    In weak mode a vanishing charge is accepted exactly at integer phases.
    """
    tol = _phase_tol(tol)
    z = charge_of(Z, datum.v)
    r = abs(z)
    if r == 0.0:
        return bool(weak) and abs(datum.phase - round(datum.phase)) <= tol
    target = r * complex(math.cos(math.pi * datum.phase), math.sin(math.pi * datum.phase))
    return abs(z - target) <= tol * r


@dataclass(frozen=True)
class StabilityData:
    """Central charge plus a finite semistable test set.

    support_C, when given, asserts the support bound ||v|| <= C |Z(v)| for
    every listed semistable (max-norm by default).  weak relaxes |Z| > 0 to
    >= 0 at integer phases only.
    """

    Z: CentralCharge
    semistables: tuple
    support_C: object = None  # positive float or None
    norm: str = "max"
    weak: bool = False

    def __post_init__(self):
        sems = tuple(
            d if isinstance(d, SemistableDatum) else SemistableDatum(d[0], d[1])
            for d in self.semistables
        )
        if not sems:
            raise ValueError("at least one semistable datum is required")
        object.__setattr__(self, "semistables", sems)
        if self.norm not in ("max", "euclid"):
            raise ValueError("norm must be 'max' or 'euclid'")
        for d in sems:
            if len(d.v) != self.Z.rank:
                raise DimensionMismatch("semistable class length != charge rank")
            if not check_semistable(self.Z, d, weak=self.weak):
                raise ValueError(
                    "semistable datum %s inconsistent with the charge" % (d,)
                )
        if self.support_C is not None:
            C = float(self.support_C)
            if not 0.0 < C < math.inf:
                raise ValueError("support constant C = %r must be finite and positive" % C)
            for d in sems:
                z = abs(charge_of(self.Z, d.v))
                if self._class_norm(d.v) > C * z + 1e-12:
                    raise ValueError("support bound violated by %s" % (d,))

    def _class_norm(self, v):
        if self.norm == "max":
            return float(max(abs(x) for x in v))
        return float(math.sqrt(sum(x * x for x in v)))

    @property
    def rank(self):
        return self.Z.rank

    def phases(self):
        return [d.phase for d in self.semistables]

    def charges(self):
        return [charge_of(self.Z, d.v) for d in self.semistables]

    def to_json(self):
        out = {
            "rank": self.rank,
            "Z": [list(self.Z.matrix[0]), list(self.Z.matrix[1])],
            "semistables": [d.to_json() for d in self.semistables],
            "weak": self.weak,
        }
        if self.support_C is not None:
            out["C"] = float(self.support_C)
        if self.norm != "max":
            out["norm"] = self.norm
        return out


def json_int(x, what):
    """x when it is a JSON integer; a float or a boolean is an input error."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError("%s entry %s is not an integer" % (what, json.dumps(x)))
    return x


def json_number(x, what):
    """x when it is a JSON number; a string or a boolean is an input error."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        raise ValueError("%s entry %s is not a number" % (what, json.dumps(x)))
    return x


def _json_flag(obj, key):
    flag = obj.get(key, False)
    if not isinstance(flag, bool):
        raise ValueError("%s = %s is not a JSON boolean" % (key, json.dumps(flag)))
    return flag


def datum_from_json(d, what, rank):
    v = tuple(json_int(x, what + " v") for x in d["v"])
    if len(v) != rank:
        raise ValueError("%s v has length %d, charge rank is %d" % (what, len(v), rank))
    return SemistableDatum(v, json_number(d["phase"], what + " phase"))


def stability_from_json(obj):
    Z = CentralCharge(tuple(tuple(json_number(x, "Z") for x in row) for row in obj["Z"]))
    if "rank" in obj and json_int(obj["rank"], "rank") != Z.rank:
        raise DimensionMismatch("declared rank does not match the charge matrix")
    C = obj.get("C")
    return StabilityData(
        Z=Z,
        semistables=tuple(datum_from_json(d, "semistable", Z.rank) for d in obj["semistables"]),
        support_C=None if C is None else json_number(C, "C"),
        norm=obj.get("norm", "max"),
        weak=_json_flag(obj, "weak"),
    )


# ---------------------------------------------------------------------------
# filtered objects


@dataclass(frozen=True)
class HNObject(Report):
    """Ordered semistable factors with strictly decreasing phases."""

    factors: tuple

    def __post_init__(self):
        fac = tuple(
            d if isinstance(d, SemistableDatum) else SemistableDatum(d[0], d[1])
            for d in self.factors
        )
        if not fac:
            raise ValueError("an object needs at least one factor")
        for a, b in zip(fac, fac[1:]):
            if not a.phase > b.phase:
                raise ValueError("factor phases must be strictly decreasing")
        object.__setattr__(self, "factors", fac)


def mass(E, Z, t=0.0):
    """Sum of |Z(factor)| e^{phase * t} over the factors."""
    return float(
        sum(abs(charge_of(Z, d.v)) * math.exp(d.phase * t) for d in E.factors)
    )


def phases(E):
    """(largest, smallest) factor phase."""
    return (E.factors[0].phase, E.factors[-1].phase)


# ---------------------------------------------------------------------------
# lattice automorphisms and compatibility


@dataclass(frozen=True)
class AutoequivalenceData:
    """Integer lattice map induced by an autoequivalence.

    Lattice automorphisms have determinant +-1; synthetic endomorphism-style
    actions (used by some worked examples) may opt out of that check and are
    flagged by their label.
    """

    P: IntMatrix
    label: str = ""
    allow_nonunimodular: bool = False

    def __post_init__(self):
        d = det_exact(self.P)
        if not self.allow_nonunimodular and d not in (1, -1):
            raise ValueError("lattice map must have determinant +-1, got %d" % d)

    @property
    def det(self):
        return det_exact(self.P)

    def to_json(self):
        out = {"p": self.P.to_json(), "label": self.label}
        if self.allow_nonunimodular:
            out["allow_nonunimodular"] = True
        return out


def auto_from_json(obj):
    return AutoequivalenceData(
        P=IntMatrix(tuple(tuple(json_int(x, "auto.p") for x in row) for row in obj["p"])),
        label=obj.get("label", ""),
        allow_nonunimodular=_json_flag(obj, "allow_nonunimodular"),
    )


def spanning_image(sigma):
    """Whether the listed semistable charges span the plane (rank 2)."""
    charges = sigma.charges()
    m = np.array([[z.real for z in charges], [z.imag for z in charges]])
    sv = np.linalg.svd(m, compute_uv=False)
    return bool(sv.size == 2 and sv[0] > 0.0 and sv[1] > 1e-9 * sv[0])


@dataclass(frozen=True)
class IntertwineReport(Report):
    passed: bool
    residual: float
    tol: float


def check_charge_intertwine(Z, auto, M, tol=None):
    """Residual of Z o P = M . Z over the standard lattice basis."""
    tol = _phase_tol(tol)
    if auto.P.dim != Z.rank:
        raise DimensionMismatch("lattice map size != charge rank")
    M = np.asarray(M, dtype=float)
    Zm = Z.array
    passed = True
    worst = 0.0
    for j in range(Z.rank):
        e = [0] * Z.rank
        e[j] = 1
        pv = auto.P.apply(e)
        lhs = np.array([charge_of(Z, pv).real, charge_of(Z, pv).imag])
        rhs = M @ Zm[:, j]
        r = float(np.max(np.abs(lhs - rhs)))
        worst = max(worst, r)
        if r > tol * (1.0 + float(np.linalg.norm(Zm[:, j]))):
            passed = False
    return IntertwineReport(passed=passed, residual=worst, tol=tol)


def check_heart_window(images, psi, tol=None):
    """Whether every image phase lies in the window (psi, psi + 1]."""
    tol = _phase_tol(tol)
    return all(psi - tol < d.phase <= psi + 1.0 + tol for d in images)


@dataclass(frozen=True)
class TripleFailure(Report):
    kind: str  # charge_intertwine | image_class | phase_transport | heart_window
    detail: str


@dataclass(frozen=True)
class CompatibleTriple(Report):
    auto: AutoequivalenceData
    sigma: StabilityData
    g: cover.GL2TildeElem
    verified: bool
    spanning: bool
    intertwine: IntertwineReport
    images: tuple = ()
    failure: object = None  # TripleFailure or None

    def require_verified(self):
        if not self.verified:
            raise UnverifiedTriple(
                "triple failed verification: %s" % (self.failure.kind if self.failure else "?")
            )


def verify_triple(auto, sigma, g, tol=None, images=None):
    """Decide compatibility of (auto, sigma, g) on the finite test data.

    Checks, in order: the charge intertwine with the matrix part; charge
    consistency of every transported semistable (class P v at the lifted
    phase); and the heart-window criterion at psi = f_g(0).  By default the
    transported data are (P v, f_g(phase)); callers with category-level
    knowledge may pass explicit image data instead (the images argument,
    aligned with sigma.semistables), which is how genuinely incompatible
    actions are detected.

    Mathematical failure is reported in the returned record, never raised.
    """
    tol = _phase_tol(tol)
    if auto.P.dim != sigma.rank:
        raise DimensionMismatch("lattice map size != charge rank")
    if images is not None and len(images) != len(sigma.semistables):
        raise ValueError(
            "images must align with the semistable list (%d vs %d entries)"
            % (len(images), len(sigma.semistables))
        )

    report = check_charge_intertwine(sigma.Z, auto, g.matrix, tol)

    def fail(kind, detail):
        return CompatibleTriple(
            auto=auto,
            sigma=sigma,
            g=g,
            verified=False,
            spanning=spanning_image(sigma),
            intertwine=report,
            images=tuple(images) if images else (),
            failure=TripleFailure(kind=kind, detail=detail),
        )

    if not report.passed:
        return fail("charge_intertwine", "residual %.3e above tolerance" % report.residual)

    transported = []
    for idx, d in enumerate(sigma.semistables):
        pv = auto.P.apply(d.v)
        if images is not None:
            img = images[idx]
            img = img if isinstance(img, SemistableDatum) else SemistableDatum(img[0], img[1])
            if tuple(img.v) != tuple(pv):
                return fail(
                    "image_class",
                    "image class %s of entry %d is not P v = %s" % (img.v, idx, pv),
                )
        else:
            img = SemistableDatum(pv, cover.evaluate(g, d.phase))
        transported.append(img)

    for idx, img in enumerate(transported):
        if not check_semistable(sigma.Z, img, tol=tol, weak=sigma.weak):
            return fail(
                "phase_transport",
                "transported entry %d has phase %.12g inconsistent with its charge"
                % (idx, img.phase),
            )

    psi = cover.evaluate(g, 0.0)
    window_images = []
    for d, img in zip(sigma.semistables, transported):
        shift = math.ceil(d.phase) - 1  # source reduced into (0, 1]
        window_images.append(SemistableDatum(img.v, img.phase - shift))
    if not check_heart_window(window_images, psi, tol=max(tol, 1e-9)):
        bad = [x.phase for x in window_images]
        return fail(
            "heart_window",
            "image phases %s do not fit in (%.12g, %.12g]" % (bad, psi, psi + 1.0),
        )

    return CompatibleTriple(
        auto=auto,
        sigma=sigma,
        g=g,
        verified=True,
        spanning=spanning_image(sigma),
        intertwine=report,
        images=tuple(transported),
    )


def apply_auto(E, triple):
    """Transport an object along a verified triple: classes by P, phases by f_g."""
    triple.require_verified()
    factors = tuple(
        SemistableDatum(triple.auto.P.apply(d.v), cover.evaluate(triple.g, d.phase))
        for d in E.factors
    )
    return HNObject(factors)


def triple_power(triple, k):
    """The verified triple for the k-th iterate (P^k, sigma, g^k)."""
    triple.require_verified()
    k = int(k)
    if k < 0:
        raise ValueError("negative iterates are not supported")
    auto = AutoequivalenceData(
        P=triple.auto.P.power(k),
        label=triple.auto.label + ("^%d" % k),
        allow_nonunimodular=triple.auto.allow_nonunimodular,
    )
    return verify_triple(auto, triple.sigma, cover.power(triple.g, k))


# ---------------------------------------------------------------------------
# group actions on stability data


def act_on_stability(sigma, g):
    """Right action: charge M^{-1} Z, semistable phases pulled back by f^{-1}."""
    M = g.matrix
    ginv = cover.inverse(g)
    Znew = CentralCharge(tuple(map(tuple, (ginv.matrix @ sigma.Z.array).tolist())))
    sems = tuple(
        SemistableDatum(d.v, cover.evaluate(ginv, d.phase)) for d in sigma.semistables
    )
    C = None
    if sigma.support_C is not None:
        C = float(sigma.support_C) * float(np.linalg.norm(M, 2))
    return StabilityData(Z=Znew, semistables=sems, support_C=C, norm=sigma.norm, weak=sigma.weak)


def act_by_auto(sigma, auto):
    """Left action: charge Z o P^{-1}, classes pushed forward, phases kept.

    P^{-1} comes from the exact inverse for every lattice map, so a singular
    map raises SingularMatrix.  The induced phases are re-derived from the
    new charge, which fixes them.
    """
    if auto.P.dim != sigma.rank:
        raise DimensionMismatch("lattice map size != charge rank")
    N, den = rational_inverse(auto.P)
    Pinv = np.array(N, dtype=float) / den
    Znew = CentralCharge(tuple(map(tuple, (sigma.Z.array @ Pinv).tolist())))
    sems = []
    for d in sigma.semistables:
        pv = auto.P.apply(d.v)
        z = charge_of(Znew, pv)
        if abs(z) == 0.0:
            sems.append(SemistableDatum(pv, d.phase))
            continue
        raw = math.atan2(z.imag, z.real) / math.pi
        offset = raw - d.phase
        k = 2.0 * round(offset / 2.0)
        sems.append(SemistableDatum(pv, raw - k))
    C = None
    if sigma.support_C is not None:
        ord_ = np.inf if sigma.norm == "max" else 2
        C = float(sigma.support_C) * float(np.linalg.norm(auto.P.to_float(), ord_))
    return StabilityData(
        Z=Znew,
        semistables=tuple(sems),
        support_C=C,
        norm=sigma.norm,
        weak=sigma.weak,
    )


def same_stability_data(a, b, tol=1e-9):
    """Whether two data sets describe the same stability condition.

    Charges must agree entrywise; every semistable entry of each side must be
    charge-consistent for the other side (phases compare through the common
    charge, so representation choices such as deck shifts are respected).
    """
    if a.rank != b.rank:
        return False
    if not np.allclose(a.Z.array, b.Z.array, atol=tol, rtol=0.0):
        return False
    for d in a.semistables:
        if not check_semistable(b.Z, d, tol=max(tol, 1e-7), weak=a.weak or b.weak):
            return False
    for d in b.semistables:
        if not check_semistable(a.Z, d, tol=max(tol, 1e-7), weak=a.weak or b.weak):
            return False
    return True


# ---------------------------------------------------------------------------
# the rank-2 twist obstruction


@dataclass(frozen=True)
class InfeasibilityCertificate(Report):
    feasible: bool
    gap: int
    image_phase_1: float
    image_phase_2: float
    spread: float
    psi_must_be_below: float
    psi_must_be_at_least: float
    detail: str


def ginzburg_infeasibility(z1, z2, d):
    """Certificate that no heart window fits the rank-2 spherical twist.

    The twist sends the first simple object to its (1-d)-fold shift, so its
    image phase is arg(z1)/pi + 1 - d, while the second simple's image is the
    extension with charge z1 + z2, which stays in the heart.  A single window
    of length one cannot contain phases more than 1 apart; the certificate
    reports the empty window interval.
    """
    d = int(d)
    if d < 3 or d % 2 == 0:
        raise PreconditionViolated("the construction needs an odd shift parameter >= 3")
    z1 = complex(z1)
    z2 = complex(z2)
    phi1 = math.atan2(z1.imag, z1.real) / math.pi
    phi2 = math.atan2(z2.imag, z2.real) / math.pi
    if not (0.0 < phi1 < 1.0 and 0.0 < phi2 < 1.0):
        raise PreconditionViolated("both charges must lie in the open upper half-plane")
    if not phi2 > phi1:
        raise PreconditionViolated("the second charge must have the larger argument")

    image1 = phi1 + 1 - d
    z12 = z1 + z2
    image2 = math.atan2(z12.imag, z12.real) / math.pi
    spread = image2 - image1
    # window (psi, psi+1] must contain image1 (forces psi < image1) and
    # image2 (forces psi >= image2 - 1): empty because spread > 1
    return InfeasibilityCertificate(
        feasible=False,
        gap=1 - d,
        image_phase_1=image1,
        image_phase_2=image2,
        spread=spread,
        psi_must_be_below=image1,
        psi_must_be_at_least=image2 - 1.0,
        detail=(
            "window needs psi < %.6g and psi >= %.6g simultaneously; "
            "image phases are %.6g apart" % (image1, image2 - 1.0, spread)
        ),
    )


__all__ = [
    "CentralCharge",
    "SemistableDatum",
    "StabilityData",
    "HNObject",
    "AutoequivalenceData",
    "CompatibleTriple",
    "IntertwineReport",
    "TripleFailure",
    "InfeasibilityCertificate",
    "charge_of",
    "check_semistable",
    "mass",
    "phases",
    "spanning_image",
    "check_charge_intertwine",
    "check_heart_window",
    "verify_triple",
    "apply_auto",
    "triple_power",
    "act_on_stability",
    "act_by_auto",
    "same_stability_data",
    "ginzburg_infeasibility",
    "stability_from_json",
    "auto_from_json",
    "DEFAULT_PHASE_TOL",
]
