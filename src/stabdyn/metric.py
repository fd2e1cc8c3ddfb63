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
"""

import math
from dataclasses import dataclass

import numpy as np

from . import cover, stability
from .errors import DimensionMismatch, NonSpanningSet

GRID_POINTS = 1024  # phase grid used by the grid-mode displacement sup


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


def _displacements(table, n, phases, grid):
    """f_{g^n}(phi) - phi over the phases and, with grid, the phase grid."""
    pts = np.asarray(phases, dtype=float)
    if grid:
        pts = np.concatenate([pts, np.linspace(0.0, 1.0, GRID_POINTS, endpoint=False)])
    if not pts.size:
        raise ValueError("no phases to evaluate")
    return cover.power_phase(table, pts, n) - pts


def _power_table(g, n):
    return cover.renormalized_power_table(g, max(1, int(n).bit_length()))


def A_functional(g, n, alpha, phases=(), grid=True):
    """Sup of |f_{g^n}(phi) + Re alpha - phi| over the phase set."""
    alpha = complex(alpha)
    disp = _displacements(_power_table(g, n), n, phases, grid)
    return float(np.max(np.abs(disp + alpha.real)))


def _log_opnorm_power(table, n):
    """log of the spectral norm of M_g^n from g's renormalized power table."""
    M = np.eye(2)
    logscale = 0.0
    bit = 0
    k = int(n)
    while k:
        if k & 1:
            mj, lj, _ = table[bit]
            M = np.array(mj) @ M
            logscale += lj
            s = float(np.max(np.abs(M)))
            M /= s
            logscale += math.log(s)
        bit += 1
        k >>= 1
    sv = np.linalg.svd(M, compute_uv=False)
    return logscale + math.log(sv[0])


def B_functional(g, n, alpha, S=None):
    """max(log norm, log inverse norm) of the alpha-twisted n-th power.

    Operator-norm mode when S is None; otherwise the S-restricted norm
    sup |M v| / |v| with the inverse handled through the reciprocal-infimum
    identity (valid because the matrix acts bijectively on the charge rays).
    """
    alpha = complex(alpha)
    if S is None:
        # the inverse norm comes from powers of the inverse element: reading
        # it off the smallest singular value of the forward power would drown
        # in the float noise floor once the conditioning passes 1e16
        log_fwd = _log_opnorm_power(_power_table(g, n), n)
        log_inv = _log_opnorm_power(_power_table(cover.inverse(g), n), n)
        return float(
            max(log_fwd - math.pi * alpha.imag, log_inv + math.pi * alpha.imag)
        )
    vecs = [np.asarray(v, dtype=float) for v in S]
    m = np.array(vecs).T
    sv = np.linalg.svd(m, compute_uv=False)
    if sv.size < 2 or sv[1] <= 1e-9 * sv[0]:
        raise NonSpanningSet("the charge set does not span the plane")
    Ma = cover.from_complex(alpha).matrix
    table = _power_table(g, n)
    ratios = []
    for v in vecs:
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            continue
        logimg, _ = cover.power_charge_log(table, Ma @ v, n)
        ratios.append(logimg - math.log(norm))
    return float(max(max(ratios), -min(ratios)))


# ---------------------------------------------------------------------------
# quotient distance and translation length


def quotient_distance(triple, n, use_grid=True):
    """Distance from the base point to its n-th translate, minimized over
    the plane action.

    Uses the grid phase functional and the operator-norm mass functional:
    over a finite lattice test set no class lies exactly on the irrational
    contracting ray, so the restricted mass branch could be compensated away
    entirely by the plane action; the operator norm is what carries the
    spectral rate, matching the two-sided estimate behind the closed form.
    """
    triple.require_verified()
    g = triple.g
    return _quotient_distance(
        triple.sigma.phases(), _power_table(g, n), _power_table(cover.inverse(g), n), n, use_grid
    )


def _quotient_distance(phases, table, inv_table, n, use_grid):
    """quotient_distance from power tables of g and of its inverse that
    reach the bits of n."""
    disp = _displacements(table, n, phases, use_grid)
    c_lo, c_hi = float(disp.min()), float(disp.max())
    # A(re) = max |c + re| is attained at an extreme c (rounding is
    # monotone), and the midrange balances the two
    re_opt = -(c_hi + c_lo) / 2.0
    A_val = max(abs(c_hi + re_opt), abs(c_lo + re_opt))

    log_fwd = _log_opnorm_power(table, n)
    log_inv = _log_opnorm_power(inv_table, n)
    # branches of the log mass ratio: log_fwd - pi im and log_inv + pi im
    im_opt = (log_fwd - log_inv) / (2.0 * math.pi)
    B_val = max(log_fwd - math.pi * im_opt, log_inv + math.pi * im_opt)
    return MetricSample(
        n=int(n),
        alpha_opt=complex(re_opt, im_opt),
        distance=float(max(A_val, B_val)),
        A_value=float(A_val),
        B_value=float(B_val),
    )


@dataclass(frozen=True)
class TranslationLengthReport:
    estimate: float
    closed_form: float
    fekete_min: float
    samples: tuple

    def to_json(self):
        return {
            "estimate": self.estimate,
            "closed_form": self.closed_form,
            "fekete_min": self.fekete_min,
            "samples": [s.to_json() for s in self.samples],
        }


def closed_form_translation_length(g):
    """log of the spectral radius of the determinant-normalized matrix part."""
    (a, b), (c, d) = g.m
    det = a * d - b * c  # direct product form stays exact on integer input
    tr = a + d
    disc = tr * tr - 4.0 * det
    if disc <= 0.0:
        rho = math.sqrt(det)
    else:
        rho = max(abs(tr + math.sqrt(disc)), abs(tr - math.sqrt(disc))) / 2.0
    return float(math.log(rho / math.sqrt(det)))


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
    ns = []
    k = 1
    while k < n_max:
        ns.append(k)
        k *= 2
    ns.append(n_max)
    g = triple.g
    # entry j of a power table does not depend on its length, so one table
    # per side serves every n
    table = cover.renormalized_power_table(g, n_max.bit_length())
    inv_table = cover.renormalized_power_table(cover.inverse(g), n_max.bit_length())
    phases = triple.sigma.phases()
    samples = tuple(_quotient_distance(phases, table, inv_table, n, True) for n in ns)
    estimate = samples[-1].distance / samples[-1].n
    fekete = min(s.distance / s.n for s in samples)
    return TranslationLengthReport(
        estimate=float(estimate),
        closed_form=closed_form_translation_length(triple.g),
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
    "closed_form_translation_length",
    "csv_rows",
]
