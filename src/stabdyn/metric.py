"""Orbit distances on stability data and translation-length estimation.

The distance between two stability data is the supremum, over a supplied
object set, of the phase displacements and the log mass ratio.  For an orbit
comparison (sigma against sigma acted by a cover element) the supremum over
the listed semistables is exact; for unrelated data it is a lower bound.

The quotient distance modulo the plane action minimizes max(A, B) over the
acting complex number: A depends only on its real part (phase displacement)
and B only on its imaginary part (log mass ratio), and both coordinate
problems are solved exactly in closed form: the midrange of the phase
displacements minimizes A, and the imaginary part that balances the two
branches of the log mass ratio minimizes B.  Nothing is searched.

Both functionals read the closed-form cover.PowerRecord of the acting
element: phases for all (phase, n) pairs in one call, and the norms of M^n
and M^-n from the singular values of M^n (sigma_max sigma_min = det^n).
"""

import math
from dataclasses import dataclass

import numpy as np

from . import cover, stability
from ._report import Report
from .errors import DimensionMismatch, NonSpanningSet

GRID_POINTS = 1024  # phase grid added to every displacement sup


@dataclass(frozen=True)
class MetricSample:
    n: int
    alpha_opt: complex
    distance: float
    A_value: float
    B_value: float

    def to_json(self):
        return {
            "n": self.n,
            "alpha_opt": {"re": self.alpha_opt.real, "im": self.alpha_opt.imag},
            "distance": self.distance,
            "A": self.A_value,
            "B": self.B_value,
        }


def csv_rows(samples):
    """Fixed-column CSV (n, distance, A, B, Re alpha, Im alpha)."""
    lines = ["n,distance,A,B,re_alpha,im_alpha"]
    for s in samples:
        lines.append(
            "%d,%.12g,%.12g,%.12g,%.12g,%.12g"
            % (s.n, s.distance, s.A_value, s.B_value, s.alpha_opt.real, s.alpha_opt.imag)
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the sup-over-objects distance


def _tau_phase(tau, lookup, v, sigma_phase):
    """Phase of the class v on the tau side: listed value if present, else
    the mod-2 representative of its charge argument nearest the sigma phase."""
    if v in lookup:
        return lookup[v]
    z = stability.charge_of(tau.Z, v)
    if abs(z) == 0.0:
        return sigma_phase
    raw = math.atan2(z.imag, z.real) / math.pi
    return raw + 2.0 * round((sigma_phase - raw) / 2.0)


def dB_over_set(sigma, tau, objects=None):
    """Sup over the objects of phase displacements and log mass ratio.

    Exact for sigma against a cover translate of sigma; a lower bound for
    unrelated pairs (the full supremum is not computable from finite data).
    """
    if sigma.rank != tau.rank:
        raise DimensionMismatch("stability data live on different lattices")
    if not objects:
        objects = [stability.HNObject((d,)) for d in sigma.semistables]
    lookup = {d.v: d.phase for d in tau.semistables}
    worst = 0.0
    for E in objects:
        m_sigma = 0.0
        m_tau = 0.0
        tau_phases = []
        for d in E.factors:
            m_sigma += abs(stability.charge_of(sigma.Z, d.v))
            m_tau += abs(stability.charge_of(tau.Z, d.v))
            tau_phases.append(_tau_phase(tau, lookup, d.v, d.phase))
        top, bottom = stability.phases(E)
        worst = max(
            worst,
            abs(max(tau_phases) - top),
            abs(min(tau_phases) - bottom),
            abs(math.log(m_tau / m_sigma)) if m_sigma > 0 and m_tau > 0 else math.inf,
        )
    return float(worst)


# ---------------------------------------------------------------------------
# the two functionals of the orbit distance


def _displacements(record, ns, phases):
    """f_{g^n}(phi) - phi over the phases and the phase grid; one row per
    exponent in ns."""
    pts = np.concatenate([np.asarray(phases, dtype=float),
                          np.linspace(0.0, 1.0, GRID_POINTS, endpoint=False)])
    return record.phase(pts[None, :], np.asarray(ns)[:, None]) - pts


def A_functional(g, n, alpha, phases=()):
    """Sup of |f_{g^n}(phi) + Re alpha - phi| over the phases and the grid."""
    alpha = complex(alpha)
    disp = _displacements(cover.power_record(g), [n], phases)
    return float(np.max(np.abs(disp + alpha.real)))


def B_functional(g, n, alpha, S=None):
    """max(log norm, log inverse norm) of the alpha-twisted n-th power.

    Operator-norm mode when S is None; otherwise the S-restricted norm
    sup |M v| / |v| with the inverse handled through the reciprocal-infimum
    identity (valid because the matrix acts bijectively on the charge rays).
    """
    alpha = complex(alpha)
    record = cover.power_record(g)
    if S is None:
        log_fwd, log_inv = record.log_norms(int(n))
        return float(
            max(log_fwd - math.pi * alpha.imag, log_inv + math.pi * alpha.imag)
        )
    vecs = [np.asarray(v, dtype=float) for v in S]
    m = np.array(vecs).T
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size < 2 or sv[1] <= 1e-9 * sv[0]:
        raise NonSpanningSet("the charge set does not span the plane")
    w = np.array([v for v in vecs if v.any()])
    twisted = w @ cover.from_complex(alpha).matrix.T
    ratios = record.log_charge(twisted[:, 0], twisted[:, 1], int(n)) - np.log(
        np.hypot(w[:, 0], w[:, 1])
    )
    return float(max(ratios.max(), -ratios.min()))


# ---------------------------------------------------------------------------
# quotient distance and translation length


def quotient_distance(triple, n):
    """Distance from the base point to its n-th translate, minimized over
    the plane action.

    Uses the grid phase functional and the operator-norm mass functional:
    over a finite lattice test set no class lies exactly on the irrational
    contracting ray, so the restricted mass branch could be compensated away
    entirely by the plane action; the operator norm is what carries the
    spectral rate, matching the two-sided estimate behind the closed form.
    """
    triple.require_verified()
    record = cover.power_record(triple.g)
    return _quotient_distances(triple.sigma.phases(), record, [n])[0]


def _quotient_distances(phases, record, ns):
    """quotient_distance for every n in ns, from the power record of g."""
    disp = _displacements(record, ns, phases)
    log_fwd, log_inv = record.log_norms(ns)
    samples = []
    for n, row, fwd, inv in zip(ns, disp, log_fwd.tolist(), log_inv.tolist()):
        c_lo, c_hi = float(row.min()), float(row.max())
        # A(re) = max |c + re| is attained at an extreme c (rounding is
        # monotone), and the midrange balances the two
        re_opt = -(c_hi + c_lo) / 2.0
        A_val = max(abs(c_hi + re_opt), abs(c_lo + re_opt))
        # branches of the log mass ratio: fwd - pi im and inv + pi im
        im_opt = (fwd - inv) / (2.0 * math.pi)
        B_val = max(fwd - math.pi * im_opt, inv + math.pi * im_opt)
        samples.append(
            MetricSample(
                n=int(n),
                alpha_opt=complex(re_opt, im_opt),
                distance=float(max(A_val, B_val)),
                A_value=float(A_val),
                B_value=float(B_val),
            )
        )
    return samples


@dataclass(frozen=True)
class TranslationLengthReport(Report):
    estimate: float
    closed_form: float
    fekete_min: float
    samples: tuple


def stable_translation_length(triple, n_max=64):
    """Displacement-per-step estimate with the infimum-over-n diagnostic.

    The per-step distances are subadditive, so the sequence d_n / n
    decreases to the limit; the minimum over the computed sample is reported
    alongside the endpoint estimate.
    """
    triple.require_verified()
    n_max = int(n_max)
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    if n_max >= 2**63:
        raise ValueError("n_max = %d is not below 2^63, the range of the power exponents" % n_max)
    ns = []
    k = 1
    while k < n_max:
        ns.append(k)
        k *= 2
    ns.append(n_max)
    record = cover.power_record(triple.g)
    samples = tuple(_quotient_distances(triple.sigma.phases(), record, ns))
    estimate = samples[-1].distance / samples[-1].n
    fekete = min(s.distance / s.n for s in samples)
    return TranslationLengthReport(
        estimate=float(estimate),
        closed_form=float(record.log_rho - 0.5 * record.log_det),
        fekete_min=float(fekete),
        samples=samples,
    )


__all__ = [
    "MetricSample",
    "TranslationLengthReport",
    "dB_over_set",
    "A_functional",
    "B_functional",
    "quotient_distance",
    "stable_translation_length",
    "csv_rows",
]
