"""Arithmetic in the universal cover of GL+(2,R).

An element is a pair (M, f0): M a positive-determinant 2x2 matrix and f0 the
value at 0 of the induced increasing lift f satisfying f(phi+1) = f(phi)+1
and M e^{i pi phi} in R_{>0} e^{i pi f(phi)}.  The phase convention is that
the vector (cos pi*phi, sin pi*phi) has phase phi, so one full turn of the
plane is a phase step of 2, and f is determined by M up to even integers.

Evaluation uses the closed-form continuous lift: over phi in [0,1) the lift
increases by less than 1 (monotone equivariance), so the increment is the
unique mod-2 representative of the principal-angle difference lying in [0,1).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidLift, NonPositiveDeterminant, SingularMatrix

LIFT_TOL = 1e-9


def _principal_phase(x, y):
    """Phase in (-1, 1] of the vector (x, y)."""
    return math.atan2(y, x) / math.pi


def _cossin_pi(x):
    """(cos pi x, sin pi x) for x in [0, 1), exact on the axes."""
    if x <= 0.25:
        return math.cos(math.pi * x), math.sin(math.pi * x)
    if x <= 0.75:
        t = 0.5 - x
        return math.sin(math.pi * t), math.cos(math.pi * t)
    t = 1.0 - x
    return -math.cos(math.pi * t), math.sin(math.pi * t)


def _base_phase(m):
    """Phase of M*(1,0)^T, the principal representative of f(0)."""
    return _principal_phase(m[0][0], m[1][0])


def _walk(m, f0, phi, n, out=None):
    """f^n(phi) for the closed-form continuous lift (m, f0), m a 2x2 nested
    sequence; each iterate is appended to out when given.  The base phase is
    computed once for all n steps."""
    (a, b), (c, d) = m
    theta0 = _base_phase(m)
    for _ in range(n):
        k = math.floor(phi)
        cs, sn = _cossin_pi(phi - k)
        inc = (math.atan2(c * cs + d * sn, a * cs + b * sn) / math.pi - theta0) % 2.0
        if inc > 1.5:  # wobble just below 0 wrapped around
            inc -= 2.0
        phi = f0 + k + (0.0 if inc < 0.0 else inc)
        if out is not None:
            out.append(phi)
    return phi


def _lift_eval(m, f0, phi):
    """One step of the lift (m, f0) at phi."""
    return _walk(m, f0, phi, 1)


@dataclass(frozen=True)
class GL2TildeElem:
    """Element (M, f) of the cover, f stored through its value f(0)."""

    m: tuple  # ((a, b), (c, d))
    f0: float

    def __post_init__(self):
        m = tuple(tuple(float(x) for x in row) for row in self.m)
        if len(m) != 2 or any(len(r) != 2 for r in m):
            raise ValueError("m must be 2x2")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "f0", float(self.f0))

    @property
    def matrix(self):
        return np.array(self.m, dtype=float)

    @property
    def det(self):
        (a, b), (c, d) = self.m
        return a * d - b * c

    def to_json(self):
        return {"m": [list(self.m[0]), list(self.m[1])], "f0": self.f0}


def lift_from(M, f0):
    """Validated cover element; f0 must match the matrix phase mod 2."""
    M = np.asarray(M, dtype=float)
    if M.shape != (2, 2):
        raise ValueError("M must be 2x2")
    for name, x in (("m", M), ("f0", f0)):
        if not np.isfinite(x).all():
            raise ValueError("%s = %s is not finite" % (name, np.asarray(x).tolist()))
    det = float(np.linalg.det(M))
    if det <= 0.0:
        raise NonPositiveDeterminant("det(M) = %.6g is not positive" % det)
    base = _principal_phase(M[0, 0], M[1, 0])
    offset = f0 - base
    nearest_even = 2.0 * round(offset / 2.0)
    if abs(offset - nearest_even) > LIFT_TOL:
        raise InvalidLift(
            "f0 = %.12g is not congruent mod 2 to the matrix phase %.12g" % (f0, base)
        )
    # snap so deck translations are exact
    return GL2TildeElem(m=tuple(map(tuple, M.tolist())), f0=base + nearest_even)


def identity_elem():
    return GL2TildeElem(m=((1.0, 0.0), (0.0, 1.0)), f0=0.0)


def _cossin_pi_any(x):
    """(cos pi x, sin pi x) for any real x, exact on half-integer multiples."""
    k = math.floor(x)
    c, s = _cossin_pi(x - k)
    if k % 2:
        return -c, -s
    return c, s


def from_complex(alpha):
    """Image of alpha in the cover: scaling e^{-pi Im} and rotation by pi Re."""
    alpha = complex(alpha)
    r = math.exp(-math.pi * alpha.imag)
    c, s = _cossin_pi_any(alpha.real)
    return GL2TildeElem(m=((r * c, -r * s), (r * s, r * c)), f0=alpha.real)


def evaluate(g, phi):
    """f_g(phi) by continuous argument lifting, exactly equivariant."""
    return _lift_eval(g.m, g.f0, float(phi))


def orbit(g, phi, n):
    """[phi, f(phi), ..., f^n(phi)] in one _walk."""
    out = [float(phi)]
    _walk(g.m, g.f0, out[0], n, out)
    return out


def compose(g1, g2):
    """Group law: matrices multiply, lifts compose (f = f1 o f2)."""
    m = tuple(map(tuple, (g1.matrix @ g2.matrix).tolist()))
    f0 = _lift_eval(g1.m, g1.f0, g2.f0)
    return GL2TildeElem(m=m, f0=f0)


def inverse(g):
    """Inverse element; f0 is f^{-1}(0), found by monotone bisection."""
    M = g.matrix
    det = float(np.linalg.det(M))
    if det <= 0.0 or np.linalg.cond(M) > 1e12:
        raise SingularMatrix("matrix part is numerically singular")
    minv = tuple(map(tuple, np.linalg.inv(M).tolist()))
    lo, hi = -g.f0 - 1.0, -g.f0 + 1.0
    # widen until the bracket is valid (f is increasing)
    while _lift_eval(g.m, g.f0, lo) > 0.0:
        lo -= 1.0
    while _lift_eval(g.m, g.f0, hi) < 0.0:
        hi += 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _lift_eval(g.m, g.f0, mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return GL2TildeElem(m=minv, f0=0.5 * (lo + hi))


def power(g, n):
    """g^n with the lift re-derived by path continuation in n.

    The matrix part is the direct matrix power; f0 of g^n is f_g iterated n
    times at 0, which keeps the deck count exact instead of compounding
    composition error.
    """
    n = int(n)
    if n == 0:
        return identity_elem()
    if n < 0:
        return power(inverse(g), -n)
    Mn = np.linalg.matrix_power(g.matrix, n)
    return GL2TildeElem(m=tuple(map(tuple, Mn.tolist())), f0=_walk(g.m, g.f0, g.f0, n - 1))


# ---------------------------------------------------------------------------
# renormalized power streams (internal; safe far beyond float overflow)


def renormalized_power_table(g, max_bit):
    """[(m_j, logscale_j, f0_j)] representing g^(2^j) with m_j renormalized.

    m_j * exp(logscale_j) = M^(2^j); the lift value f0_j is exact because a
    positive rescaling does not change the circle map; f0_{j+1} is the scalar
    _entry_apply of entry j to f0_j.  Entry j does not depend on max_bit, so
    one table built at the largest bit serves every smaller exponent.
    """
    table = []
    m = [list(row) for row in g.m]
    logscale = 0.0
    f0 = g.f0
    for j in range(max_bit + 1):
        table.append((tuple(map(tuple, m)), logscale, f0))
        mm = np.array(m) @ np.array(m)
        s = float(np.max(np.abs(mm)))
        if s == 0.0:
            raise SingularMatrix("matrix power collapsed to zero")
        # f_{g^(2^(j+1))}(0) = f_{g^(2^j)}(f0_j)
        f0 = _entry_apply(table, j, f0)
        m = (mm / s).tolist()
        logscale = 2.0 * logscale + math.log(s)
    return table


def _cossin_pi_array(x):
    """_cossin_pi elementwise on an array of x in [0, 1)."""
    low = x <= 0.25
    high = x > 0.75
    t = np.where(low, x, np.where(high, 1.0 - x, 0.5 - x))
    a = np.cos(math.pi * t)
    b = np.sin(math.pi * t)
    return np.where(low, a, np.where(high, -a, b)), np.where(low | high, b, a)


def _entry_apply(table, j, phi):
    """_table_apply of entry j on one phase, with the same half-split."""
    m, _, f0 = table[j]
    c, s = _cossin_pi(phi - math.floor(phi))
    if j and m[0][0] * c + m[0][1] * s == 0.0 and m[1][0] * c + m[1][1] * s == 0.0:
        return _entry_apply(table, j - 1, _entry_apply(table, j - 1, phi))
    return _lift_eval(m, f0, phi)


def _table_apply(table, j, phi):
    """_lift_eval of entry j on a 1-D array of phases, splitting into half
    powers where the renormalized matrix has lost the contracted direction to
    float underflow (an exact eigen-phase would otherwise map to atan2(0, 0)),
    in the scalar _entry_apply.  atan2 is libm's: numpy's may differ."""
    m, _, f0 = table[j]
    k = np.floor(phi)
    c, s = _cossin_pi_array(phi - k)
    vx = m[0][0] * c + m[0][1] * s
    vy = m[1][0] * c + m[1][1] * s
    theta = np.fromiter(map(math.atan2, vy.tolist(), vx.tolist()), float, len(phi))
    inc = (theta / math.pi - _base_phase(m)) % 2.0
    inc = np.where(inc > 1.5, inc - 2.0, inc)  # wobble just below 0 wrapped around
    out = f0 + k + np.where(inc < 0.0, 0.0, inc)
    lost = (vx == 0.0) & (vy == 0.0)
    if j and lost.any():
        out[lost] = [_entry_apply(table, j, p) for p in phi[lost].tolist()]
    return out


def power_phase(table, phi, n):
    """f_{g^n}(phi) using a renormalized power table (powers commute).

    phi and n may be scalars or 1-D arrays, broadcast against each other:
    one call evaluates many phases, many exponents, or (phase, exponent)
    pairs, walking the bits of n once.  Exponents lie in [0, 2^len(table)).
    Two scalars give a float, anything else a float array.
    """
    scalar = np.ndim(phi) == 0 and np.ndim(n) == 0
    val, n = np.broadcast_arrays(
        np.atleast_1d(np.asarray(phi, dtype=float)), np.atleast_1d(np.asarray(n, dtype=np.int64))
    )
    val = val.copy()
    if (n < 0).any():
        raise ValueError("exponents must be non-negative")
    bits = int(np.bitwise_or.reduce(n, initial=0))  # bits set in some exponent
    for bit in range(bits.bit_length()):
        if bits >> bit & 1:
            sel = (n >> bit) & 1 == 1
            val[sel] = _table_apply(table, bit, val[sel])
    return float(val[0]) if scalar else val


def power_charge_log(table, w, n):
    """(log |M^n w|, unit direction of M^n w) via the renormalized table;
    |v| is sqrt(v.v), as np.linalg.norm computes it, minus its dispatch."""
    v = np.asarray(w, dtype=float)
    norm = math.sqrt(v.dot(v))
    if norm == 0.0:
        return -math.inf, v
    acc = math.log(norm)
    v = v / norm
    bit = 0
    k = int(n)
    while k:
        if k & 1:
            m, logscale, _ = table[bit]
            v = np.array(m) @ v
            norm = math.sqrt(v.dot(v))
            if norm == 0.0:
                return -math.inf, v
            acc += logscale + math.log(norm)
            v = v / norm
        bit += 1
        k >>= 1
    return acc, v


# ---------------------------------------------------------------------------
# translation number and conjugacy classification


def _two_scale(table, phi, n):
    """((f^n(phi) - f^h(phi)) / (n - h), f^n(phi)) with h = n // 2."""
    half = n // 2
    phi_half, phi_full = power_phase(table, phi, [half, n]).tolist()
    return (phi_full - phi_half) / (n - half), phi_full


def translation_number(g, n_max=4096, details=False):
    """Estimate of lim f^n(0)/n with two-scale averaging.

    The tail difference (f^n(0) - f^{n/2}(0)) / (n/2) cancels the bounded
    deviation of the orbit, so the error is O(1/n) with a small constant.
    """
    n_max = int(n_max)
    if n_max < 16:
        raise ValueError("n_max must be at least 16")
    table = renormalized_power_table(g, n_max.bit_length())
    estimate, phi_full = _two_scale(table, 0.0, n_max)
    if not details:
        return estimate
    crude = phi_full / n_max
    return {
        "estimate": estimate,
        "crude": crude,
        "last_increment": estimate - crude,
        "n_max": n_max,
    }


@dataclass(frozen=True)
class CoverClassification:
    conjugacy_type: str  # elliptic | parabolic | hyperbolic
    pseudo_anosov_literal: bool
    pseudo_anosov_conjugate: bool
    stretch: object  # float, or None when there is no stretch factor
    gepner: bool

    def to_json(self):
        return {
            "conjugacy_type": self.conjugacy_type,
            "pseudo_anosov_literal": self.pseudo_anosov_literal,
            "pseudo_anosov_conjugate": self.pseudo_anosov_conjugate,
            "stretch": self.stretch,
            "gepner": self.gepner,
        }


def classify(g, tol=1e-9):
    """Conjugacy type of M/sqrt(det), plus shape flags.

    Two stretch-map readings are reported: the literal one (M is exactly
    diag(lambda^{+-1}, lambda^{-+1}) with |lambda| > 1) and the conjugacy
    -invariant one (det 1 and |trace| > 2).  The scalar-times-rotation shape
    is flagged separately.
    """
    (a, b), (c, d) = g.m
    det = a * d - b * c
    scale = math.sqrt(det)
    tr = (a + d) / scale
    if abs(tr) > 2.0 + tol:
        conj = "hyperbolic"
    elif abs(tr) >= 2.0 - tol:
        conj = "parabolic"
    else:
        conj = "elliptic"

    size = max(abs(a), abs(b), abs(c), abs(d))
    off_zero = abs(b) <= tol * size and abs(c) <= tol * size
    literal = False
    stretch = None
    if off_zero and abs(a * d - 1.0) <= tol * max(1.0, abs(a * d)):
        lam = a if abs(a) > abs(d) else d
        if abs(lam) > 1.0 + tol:
            literal = True
            stretch = float(lam)

    conjugate_variant = abs(det - 1.0) <= tol * max(1.0, det) and abs(tr) > 2.0 + tol
    if conjugate_variant and stretch is None:
        half = abs(a + d) / 2.0
        stretch = float(half + math.sqrt(max(half * half - 1.0, 0.0)))

    gepner = abs(a - d) <= tol * size and abs(b + c) <= tol * size

    return CoverClassification(
        conjugacy_type=conj,
        pseudo_anosov_literal=literal,
        pseudo_anosov_conjugate=conjugate_variant,
        stretch=stretch,
        gepner=gepner,
    )


__all__ = [
    "GL2TildeElem",
    "CoverClassification",
    "lift_from",
    "identity_elem",
    "from_complex",
    "evaluate",
    "compose",
    "inverse",
    "power",
    "translation_number",
    "orbit",
    "classify",
    "renormalized_power_table",
    "power_phase",
    "power_charge_log",
]
