"""Self-contained worked examples combining the core modules.

Each scenario builds its lattice data from scratch, verifies the triple,
runs the relevant estimators and returns a report whose claim rows each
carry a human-readable label of the law being exercised, the measured and
expected values, and the tolerance used.
"""

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import cover, growth, metric, stability
from ._report import Report
from .errors import NonIntegralAction, PreconditionViolated
from .lattice import IntMatrix

CURVE_CHARGE = stability.CentralCharge(((0.0, -1.0), (1.0, 0.0)))  # -deg + i rk
# the semistables of the rank/degree lattice that the curve and coh1 share
_CURVE_SEMISTABLES = (
    stability.SemistableDatum((1, 0), 0.5),
    stability.SemistableDatum((0, 1), 1.0),
    stability.SemistableDatum((1, 1), math.atan2(1.0, -1.0) / math.pi),
)
# a point and O, (rk, deg) = (0, 1) and (1, 0): the seed object of the curve and coh1
_CURVE_SEED = stability.HNObject(
    (stability.SemistableDatum((0, 1), 1.0), stability.SemistableDatum((1, 0), 0.5)))


@dataclass(frozen=True)
class ClaimRow(Report):
    claim: str
    reference: str
    value: float
    expected: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class ScenarioReport(Report):
    name: str
    inputs: dict
    triple: object  # CompatibleTriple or None
    claims: tuple
    extras: dict

    @property
    def all_passed(self):
        return all(c.passed for c in self.claims)

    def to_json(self):
        return dict(super().to_json(), all_passed=self.all_passed)

    def text_lines(self):
        lines = ["scenario %s" % self.name]
        for k, v in sorted(self.inputs.items()):
            lines.append("  input %s = %s" % (k, v))
        if self.triple is not None:
            lines.append("  triple verified = %s" % self.triple.verified)
        for c in self.claims:
            lines.append(
                "  [%s] %s: value %.6g expected %.6g (tol %.2g) -- %s"
                % ("PASS" if c.passed else "FAIL", c.claim, c.value, c.expected,
                   c.tolerance, c.reference)
            )
        lines.append("  overall: %s" % ("PASS" if self.all_passed else "FAIL"))
        return lines


def _claim(claims, label, reference, value, expected, tol, passed=None):
    """Append a ClaimRow; passed, when given, is the row's verdict (a strict
    inequality), else the row passes when |value - expected| <= tol."""
    claims.append(
        ClaimRow(
            claim=label,
            reference=reference,
            value=float(value),
            expected=float(expected),
            tolerance=float(tol),
            passed=bool(abs(value - expected) <= tol if passed is None else passed),
        )
    )


def _shifted(g, m):
    """g followed by the plane shift by m (g itself when m is 0)."""
    return cover.compose(cover.from_complex(float(m)), g) if m else g


def p1_hom_table(n_max=4096):
    """Global sections of the n-th twist on the line: dimension n + 1."""
    return growth.HomTable({(n, 0): n + 1 for n in range(1, n_max + 1)})


@functools.lru_cache(maxsize=8)
def _p1_entropy_reports(n_max):
    """(entropy, polynomial entropy) of p1_hom_table(n_max), shared per n_max."""
    table = p1_hom_table(n_max)
    return growth.entropy_from_hom(table), growth.pol_entropy_from_hom(table)


def curve_scenario(deg_L=3, m=1, t_grid=growth.DEFAULT_T_GRID, n_max=4096, pol_n_max=2**18):
    """Tensor-and-shift autoequivalence on the rank/degree lattice of a curve.

    The charge-twist matrix is unipotent, so the mass growth is the pure
    line m*t with polynomial intercept one once the twist degree is nonzero.
    The sections table of the degree-one twist cross-checks the vanishing
    entropy and its polynomial rate against the lattice prediction.
    """
    deg_L = int(deg_L)
    m = int(m)
    sign = (-1) ** m
    sigma = stability.StabilityData(
        Z=CURVE_CHARGE,
        semistables=_CURVE_SEMISTABLES + (stability.SemistableDatum((1, -1), 0.25),),
        support_C=2.0,
    )
    P = IntMatrix(((sign, 0), (sign * deg_L, sign)))
    g = _shifted(cover.lift_from(np.array([[1.0, -float(deg_L)], [0.0, 1.0]]), 0.0), m)
    triple = stability.verify_triple(stability.AutoequivalenceData(P=P, label="tensor+shift"),
                                     sigma, g)
    claims = []
    extras = {}
    lin = growth.linearity_check(triple, _CURVE_SEED, t_grid=t_grid, n_max=n_max)
    extras["linearity"] = lin
    _claim(claims, "mass growth line has slope m", "translation slope of the growth line",
           lin.line_slope, float(m), 5e-2)
    _claim(claims, "mass growth line has zero intercept",
           "unipotent twist has zero exponential growth",
           lin.line_intercept, 0.0, 5e-2)
    _claim(claims, "mass growth is affine in the weight",
           "growth linearity for compatible actions",
           lin.max_deviation, 0.0, 5e-2)
    if deg_L != 0:
        pol = growth.pol_mass_growth(triple, _CURVE_SEED, n_max=pol_n_max)
        extras["polynomial"] = pol
        _claim(claims, "polynomial growth intercept is one",
               "single shear block forces log-scale slope one",
               pol.poly_rate, 1.0, 0.15)
    ent, pol_ent = _p1_entropy_reports(min(n_max, 4096))
    extras["table_entropy"] = ent
    extras["table_polynomial_entropy"] = pol_ent
    _claim(claims, "sections-table entropy vanishes",
           "polynomially growing Hom dimensions",
           ent.exp_rate, 0.0, 1e-3)
    _claim(claims, "sections-table polynomial entropy is one",
           "dimension n+1 grows one power of n",
           pol_ent.poly_rate, 1.0, 0.15)
    return ScenarioReport(
        name="curve",
        inputs={"deg_L": deg_L, "m": m, "t_grid": list(t_grid), "n_max": n_max},
        triple=triple,
        claims=tuple(claims),
        extras=extras,
    )


def coh1_scenario(lam=1, m=0, n_max=4096):
    """Pullback-and-shift on the rank + divisor-class lattice of the
    codimension-one quotient category, Picard rank one.

    In rank one the pullback acts on divisor classes by a unit, so lam = 1
    is the faithful case; integer lam > 1 is offered as a synthetic
    extension through a non-unimodular lattice action, and is labeled so.
    """
    if abs(float(lam) - round(float(lam))) > 1e-12 or round(float(lam)) < 1:
        raise NonIntegralAction(
            "the divisor eigenvalue must be a positive integer: "
            "rescaling coordinates cannot make a non-integer eigenvalue integral"
        )
    lam = int(round(float(lam)))
    m = int(m)
    sign = (-1) ** m
    sigma = stability.StabilityData(Z=CURVE_CHARGE, semistables=_CURVE_SEMISTABLES)
    P = IntMatrix(((sign, 0), (0, sign * lam)))
    g = _shifted(cover.lift_from(np.array([[float(lam), 0.0], [0.0, 1.0]]), 0.0), m)
    label = "pullback+shift" if lam == 1 else "pullback+shift (synthetic, non-unimodular)"
    auto = stability.AutoequivalenceData(P=P, label=label, allow_nonunimodular=lam != 1)
    triple = stability.verify_triple(auto, sigma, g)
    rep = growth.mass_growth(triple, _CURVE_SEED, n_max=max(n_max, 2048))
    shifts = growth.shifting_numbers(triple, _CURVE_SEED)
    claims = []
    _claim(claims, "mass growth equals log of the divisor eigenvalue",
           "growth equals top-eigenvalue log for spanning actions",
           rep.exp_rate, math.log(lam), 1e-3)
    _claim(claims, "shift slope equals the shift amount",
           "translation part counts the shift",
           shifts.nu_upper, float(m), 2e-3)
    return ScenarioReport(
        name="coh1",
        inputs={"lambda": lam, "m": m, "n_max": n_max,
                "synthetic": lam != 1},
        triple=triple,
        claims=tuple(claims),
        extras={"mass_growth": rep, "shifting": shifts},
    )


def weak_stability_scenario(intersection_number=1.0, m=0, n_max=2**16):
    """Leading Hilbert-coefficient charge with the weak positivity convention.

    The twist matrix is the unipotent shear by the intersection ratio; the
    mass growth vanishes together with the spectral radius log, and the
    polynomial rate is one exactly when the ratio is nonzero.
    """
    c = float(intersection_number)
    m = int(m)
    sign = (-1) ** m
    Z = stability.CentralCharge(((0.0, -c), (1.0, 0.0)))
    sems = [stability.SemistableDatum((1, 0), 0.5)]
    if c > 0:
        sems.append(stability.SemistableDatum((0, 1), 1.0))
    elif c < 0:
        sems.append(stability.SemistableDatum((0, 1), 0.0))
    else:
        sems.append(stability.SemistableDatum((0, 1), 1.0))  # zero charge, weak
    sigma = stability.StabilityData(Z=Z, semistables=tuple(sems), weak=True)
    P = IntMatrix(((sign, 0), (sign, sign)))
    g = _shifted(cover.lift_from(np.array([[1.0, -c], [0.0, 1.0]]), 0.0), m)
    triple = stability.verify_triple(stability.AutoequivalenceData(P=P, label="weak twist"),
                                     sigma, g)
    seed_factors = [stability.SemistableDatum((1, 0), 0.5)]
    if c != 0:
        if sems[1].phase > 0.5:
            seed_factors.insert(0, sems[1])
        else:
            seed_factors.append(sems[1])
    seed = stability.HNObject(tuple(seed_factors))
    rep = growth.mass_growth(triple, seed, n_max=4096)
    pol = growth.pol_mass_growth(triple, seed, n_max=n_max)
    shifts = growth.shifting_numbers(triple, seed)
    claims = []
    _claim(claims, "mass growth vanishes",
           "unipotent twist has spectral radius one",
           rep.exp_rate, 0.0, 1e-3)
    _claim(claims, "polynomial rate matches the shear",
           "shear block size sets the log-scale slope",
           pol.poly_rate, 1.0 if c != 0 else 0.0, 0.15)
    _claim(claims, "shift slope equals the shift amount",
           "translation part counts the shift",
           shifts.nu_upper, float(m), 2e-3)
    return ScenarioReport(
        name="weak_stability",
        inputs={"intersection_number": c, "m": m, "n_max": n_max},
        triple=triple,
        claims=tuple(claims),
        extras={"mass_growth": rep, "polynomial": pol, "shifting": shifts},
    )


def ginzburg_scenario(phase1=0.3, phase2=0.6, d=3):
    """Rank-two spherical twist: the charge intertwine passes while the
    heart-window criterion rules out any compatible cover element."""
    p1 = float(phase1)
    p2 = float(phase2)
    d = int(d)
    if not (0.0 < p1 < 1.0 and 0.0 < p2 < 1.0 and p2 > p1):
        raise PreconditionViolated(
            "phases must satisfy 0 < phase1 < phase2 < 1"
        )
    z1 = cmath.exp(1j * math.pi * p1)
    z2 = cmath.exp(1j * math.pi * p2)
    cert = stability.ginzburg_infeasibility(z1, z2, d)

    Z = stability.CentralCharge(((z1.real, z2.real), (z1.imag, z2.imag)))
    sigma = stability.StabilityData(
        Z=Z,
        semistables=(
            stability.SemistableDatum((1, 0), p1),
            stability.SemistableDatum((0, 1), p2),
        ),
    )
    auto = stability.AutoequivalenceData(P=IntMatrix(((1, 1), (0, 1))), label="twist")
    B = np.array([[z1.real, z2.real], [z1.imag, z2.imag]])
    Bp = np.array([[z1.real, z1.real + z2.real], [z1.imag, z1.imag + z2.imag]])
    M = Bp @ np.linalg.inv(B)
    intertwine = stability.check_charge_intertwine(Z, auto, M, tol=1e-12)
    g = cover.lift_from(M, math.atan2(M[1, 0], M[0, 0]) / math.pi)
    mid = cert.image_phase_2  # the phase of the extension z1 + z2 of the simples
    images = (
        stability.SemistableDatum((1, 0), p1 + 1 - d),
        stability.SemistableDatum((1, 1), mid),
    )
    triple = stability.verify_triple(auto, sigma, g, images=images)

    claims = []
    _claim(claims, "charge intertwine residual vanishes",
           "the twist acts linearly on charges",
           intertwine.residual, 0.0, 1e-12)
    window_fails = not triple.verified and triple.failure.kind == "heart_window"
    _claim(claims, "compatibility fails at the heart window",
           "images of the simples cannot share a length-one window",
           0.0 if window_fails else 1.0, 0.0, 0.0)
    _claim(claims, "window gap equals one minus the sphere shift",
           "the first simple drops d-1 phase units",
           cert.gap, 1 - d, 0.0)
    # the extension's phase lies strictly between the simples': the claim
    # holds when p1 < mid < p2, the open interval centred at (p1 + p2) / 2
    # with half-width (p2 - p1) / 2
    _claim(claims, "extension phase lies strictly between the simples",
           "the twisted extension sits strictly between the simples",
           mid, (p1 + p2) / 2.0, (p2 - p1) / 2.0, passed=p1 < mid < p2)
    return ScenarioReport(
        name="ginzburg",
        inputs={"phase1": p1, "phase2": p2, "d": d},
        triple=triple,
        claims=tuple(claims),
        extras={"certificate": cert, "intertwine": intertwine},
    )


def pseudo_anosov_scenario(matrix=((2, 1), (1, 1)), n_max=64):
    """Stretch-type action: growth, lattice radius and translation length
    agree three ways."""
    P = IntMatrix(tuple(tuple(int(x) for x in row) for row in matrix))
    if P.dim != 2:
        raise ValueError("the action matrix must be 2x2")
    from .lattice import det_exact, spectral_radius

    if det_exact(P) != 1:
        raise PreconditionViolated("the action matrix must have determinant one")
    sigma = stability.StabilityData(
        Z=stability.CentralCharge(((1.0, 0.0), (0.0, 1.0))),
        semistables=(
            stability.SemistableDatum((1, 0), 0.0),
            stability.SemistableDatum((0, 1), 0.5),
            stability.SemistableDatum((1, 1), 0.25),
        ),
    )
    Mf = P.to_float()
    g = cover.lift_from(Mf, math.atan2(Mf[1, 0], Mf[0, 0]) / math.pi)
    triple = stability.verify_triple(stability.AutoequivalenceData(P=P, label="stretch"),
                                     sigma, g)
    seed = stability.HNObject(
        (stability.SemistableDatum((0, 1), 0.5), stability.SemistableDatum((1, 0), 0.0))
    )
    log_rho = math.log(spectral_radius(P))
    mass = growth.mass_growth(triple, seed, n_max=2048)
    trans = metric.stable_translation_length(triple, n_max=n_max)
    record = cover.classify(g)
    claims = []
    _claim(claims, "mass growth equals the lattice radius log",
           "growth equals top-eigenvalue log for spanning actions",
           mass.exp_rate, log_rho, 1e-3)
    _claim(claims, "translation length equals the lattice radius log",
           "displacement per step of the determinant-one stretch",
           trans.estimate, log_rho, 5e-2)
    _claim(claims, "closed form agrees with the lattice radius log",
           "determinant-one normalization leaves the radius",
           trans.closed_form, log_rho, 1e-9)
    return ScenarioReport(
        name="pseudo_anosov",
        inputs={"matrix": [list(r) for r in P.entries], "n_max": n_max},
        triple=triple,
        claims=tuple(claims),
        extras={"mass_growth": mass, "translation": trans,
                "classification": record},
    )


SCENARIOS = {
    "curve": curve_scenario,
    "coh1": coh1_scenario,
    "weak": weak_stability_scenario,
    "ginzburg": ginzburg_scenario,
    "pseudo-anosov": pseudo_anosov_scenario,
}


def run_scenario(name, **params):
    if name not in SCENARIOS:
        raise KeyError("unknown scenario %r; choices: %s" % (name, sorted(SCENARIOS)))
    return SCENARIOS[name](**params)


__all__ = [
    "ClaimRow",
    "ScenarioReport",
    "curve_scenario",
    "coh1_scenario",
    "weak_stability_scenario",
    "ginzburg_scenario",
    "pseudo_anosov_scenario",
    "p1_hom_table",
    "run_scenario",
    "SCENARIOS",
]
