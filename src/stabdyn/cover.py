"""Arithmetic in the universal cover of GL+(2,R).

An element is a pair (M, f0): M a positive-determinant 2x2 matrix and f0 the
value at 0 of the induced increasing lift f satisfying f(phi+1) = f(phi)+1
and M e^{i pi phi} in R_{>0} e^{i pi f(phi)}.  The phase convention is that
the vector (cos pi*phi, sin pi*phi) has phase phi, so one full turn of the
plane is a phase step of 2, and f is determined by M up to even integers.

Evaluation uses the closed-form continuous lift: over phi in [0,1) the lift
increases by less than 1 (monotone equivariance), so the increment is the
unique mod-2 representative of the principal-angle difference lying in [0,1).

Powers g^n come in closed form from one PowerRecord built from g (Putzer's
formula for 2x2 matrices): phases, log charges and spectral norms of g^n for
any n, elementwise over numpy arrays, and power(g, n) itself.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._report import Report
from .errors import InvalidLift, NonPositiveDeterminant, PowerOverflow, SingularMatrix

LIFT_TOL = 1e-9
_LOG_MAX = math.log(np.finfo(float).max)


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


def _lift_eval(m, f0, phi):
    """f(phi) for the closed-form continuous lift (m, f0), m a 2x2 nested
    sequence."""
    (a, b), (c, d) = m
    k = math.floor(phi)
    cs, sn = _cossin_pi(phi - k)
    inc = (math.atan2(c * cs + d * sn, a * cs + b * sn) / math.pi - _base_phase(m)) % 2.0
    if inc > 1.5:  # wobble just below 0 wrapped around
        inc -= 2.0
    return f0 + k + (0.0 if inc < 0.0 else inc)


@dataclass(frozen=True)
class GL2TildeElem(Report):
    """Element (M, f) of the cover, f stored through its value f(0)."""

    m: tuple  # ((a, b), (c, d))
    f0: float

    def __post_init__(self):
        m = tuple(tuple(float(x) for x in row) for row in self.m)
        if len(m) != 2 or any(len(r) != 2 for r in m):
            raise ValueError("m must be 2x2")
        if not all(map(math.isfinite, m[0] + m[1])):
            raise ValueError("m = %s is not finite" % [list(r) for r in m])
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "f0", float(self.f0))
        if not math.isfinite(self.f0):
            raise ValueError("f0 = %r is not finite" % self.f0)

    @property
    def matrix(self):
        return np.array(self.m, dtype=float)

    @property
    def det(self):
        (a, b), (c, d) = self.m
        return a * d - b * c


def lift_from(M, f0):
    """Validated cover element; f0 must match the matrix phase mod 2."""
    M = np.asarray(M, dtype=float)
    if M.shape != (2, 2):
        raise ValueError("M must be 2x2")
    (a, b), (c, d) = GL2TildeElem(m=M.tolist(), f0=f0).m  # finite entries and f0
    det = a * d - b * c  # Python floats: overflow gives inf, not a numpy warning
    if not math.isfinite(det):
        raise ValueError("det(M) = %r is not finite" % det)
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


def compose(g1, g2):
    """Group law: matrices multiply, lifts compose (f = f1 o f2)."""
    m = tuple(map(tuple, (g1.matrix @ g2.matrix).tolist()))
    f0 = _lift_eval(g1.m, g1.f0, g2.f0)
    return GL2TildeElem(m=m, f0=f0)


def inverse(g):
    """Inverse element in closed form: f^{-1}(0) has the phase of M^{-1} e1
    mod 2 and lies in (-f0 - 1, -f0 + 1), because |f(x) - x - f(0)| < 1."""
    M = g.matrix
    det = float(np.linalg.det(M))
    if det <= 0.0 or np.linalg.cond(M) > 1e12:
        raise SingularMatrix("matrix part is numerically singular")
    minv = tuple(map(tuple, np.linalg.inv(M).tolist()))
    base = _base_phase(minv)
    return GL2TildeElem(m=minv, f0=base + 2.0 * round((-g.f0 - base) / 2.0))


def power(g, n):
    """g^n from power_record(g): f0 is its phase at 0, and the columns of the
    matrix part are e^(log c_n) (alpha_n I + beta_n (m - mu I)) applied to e1
    and e2.  PowerOverflow when an entry may leave the float range."""
    n = int(n)
    if n == 0:
        return identity_elem()
    if n < 0:
        return power(inverse(g), -n)
    record, k = power_record(g), np.asarray(n, dtype=np.int64)
    log_c, X, Y = record._apply(np.array([1.0, 0.0]), np.array([0.0, 1.0]), k, record._coeffs(k))
    # decided in log scale, so neither e^(log c_n) nor the product overflows
    if np.max(log_c + np.log(np.maximum(1.0, np.maximum(abs(X), abs(Y))))) > _LOG_MAX:
        raise PowerOverflow("an entry of M^%d leaves the float range" % n)
    Mn = np.exp(log_c) * np.array([X, Y])
    return GL2TildeElem(m=tuple(map(tuple, Mn.tolist())), f0=record.phase(0.0, n))


# ---------------------------------------------------------------------------
# closed-form powers (safe far beyond float overflow)


def _cossin_pi_array(x):
    """_cossin_pi elementwise on an array of x in [0, 1)."""
    low = x <= 0.25
    high = x > 0.75
    t = np.where(low, x, np.where(high, 1.0 - x, 0.5 - x))
    a = np.cos(math.pi * t)
    b = np.sin(math.pi * t)
    return np.where(low, a, np.where(high, -a, b)), np.where(low | high, b, a)


@dataclass(frozen=True)
class PowerRecord:
    """Closed form of the powers of a cover element g, built by power_record.

    m is the matrix part times 2^-exponent (exact), largest entry in [1, 2).
    kind is the sign of disc = (a-d)^2 + 4bc: "hyperbolic", "parabolic"
    (double root) or "elliptic".  roots is (u, s), the eigenvalues of m with
    |u| >= |s|, or (r, theta, theta_lo) for r e^(+-i theta), theta_lo holding
    the bits of the angle a double drops.  log_rho and log_det are the logs
    of the spectral radius and determinant of the matrix part, jordan the
    size minus one of its largest Jordan block, tau the translation number.

    Putzer: m^n = s^n I + [u, s]^n (m - s I), [u, s]^n = (u^n - s^n)/(u - s),
    written c_n (alpha_n I + beta_n (m - mu I)) with bounded coefficients:
    real roots c_n = u^(n-1), mu = s, alpha_n = s rho^(n-1),
    beta_n = (1 - rho^n)/(1 - rho) for rho = s/u (log1p/expm1), n at a double
    root; complex roots c_n = r^(n-1), mu = (a + d)/2, alpha_n = r cos(n theta),
    beta_n = sin(n theta)/sin(theta).  All tend to n lambda^(n-1) as disc goes
    to 0, so no tolerance decides the kind.
    """

    kind: str
    m: tuple
    exponent: int  # e
    disc: float
    roots: tuple
    log_rho: float
    jordan: int
    tau: float
    log_det: float

    def _coeffs(self, n):
        """(log c_n, sign of c_n, alpha_n, beta_n, mu), elementwise in n >= 0,
        for the powers of 2^e m: log c_n = (n - 1) log_rho + e log 2."""
        if (n < 0).any():
            raise ValueError("exponents must be non-negative")
        log_c = (n - 1) * self.log_rho + self.exponent * math.log(2.0)
        (a, _), (_, d) = self.m
        if self.kind == "elliptic":
            r, theta, theta_lo = self.roots
            # n theta as n t1 + n t2 with n t1 exact for n < 2^27
            t1 = math.ldexp(round(math.ldexp(theta, 24)), -24)
            a1, a2 = n * t1, n * ((theta - t1) + theta_lo)
            cos = np.cos(a1) * np.cos(a2) - np.sin(a1) * np.sin(a2)
            sin = np.sin(a1) * np.cos(a2) + np.cos(a1) * np.sin(a2)
            return log_c, 1.0, r * cos, sin * (2.0 * r / math.sqrt(-self.disc)), 0.5 * (a + d)
        u, s = self.roots
        if s / u < 0.5:
            log_ratio = math.log(s / u)
        else:  # near a double root 1 - rho = sqrt(disc) / |u| has no cancellation
            log_ratio = math.log1p(-math.sqrt(self.disc) / abs(u))
        alpha = s * np.exp((n - 1) * log_ratio)
        beta = n if log_ratio == 0.0 else np.expm1(n * log_ratio) / math.expm1(log_ratio)
        sign = np.where((n - 1) % 2 == 1, math.copysign(1.0, u), 1.0)
        return log_c, sign, alpha, beta, s

    def _apply(self, x, y, n, coeffs):
        """(log scale, X, Y) with M^n (x, y) = e^scale (X, Y) for coeffs = _coeffs(n)."""
        (a, b), (c, d) = self.m
        log_c, sign, alpha, beta, mu = coeffs
        kx = (a - mu) * x + b * y
        ky = c * x + (d - mu) * y
        X = sign * (alpha * x + beta * kx)
        Y = sign * (alpha * y + beta * ky)
        if self.kind != "elliptic":
            # an exact eigenvector of s, whose s rho^(n-1) term may underflow
            eigen = (kx == 0.0) & (ky == 0.0)
            if eigen.any():
                s = self.roots[1]
                flip = np.where(n % 2 == 1, math.copysign(1.0, s), 1.0)
                X = np.where(eigen, flip * x, X)
                Y = np.where(eigen, flip * y, Y)
                log_c = np.where(eigen, n * math.log(abs(math.ldexp(s, self.exponent))), log_c)
        return log_c, X, Y

    def phase(self, phi, n):
        """f_{g^n}(phi), elementwise over phi and n >= 0 broadcast together.

        The value is the representative of arg(M^n v(phi)) / pi mod 2 in
        (phi + n tau - 1, phi + n tau + 1): every degree-one lift F of a
        circle map satisfies |F^n(x) - x - n tau| < 1.  The coefficients of
        M^n run on the shape of n, v(phi) on the shape of phi, and only
        M^n v(phi), its angle and the rounding on the broadcast shape.  Two
        scalars give a float, anything else a float array.
        """
        n = np.asarray(n, dtype=np.int64)
        val = self._phase(np.asarray(phi, dtype=float), n, self._coeffs(n))
        return float(val) if val.ndim == 0 else val

    def _phase(self, phi, n, coeffs):
        k = np.floor(phi)
        cs, sn = _cossin_pi_array(phi - k)
        _, x, y = self._apply(cs, sn, n, coeffs)
        turn = np.arctan2(y, x) / math.pi + k  # v(phi) = (-1)^k v(phi - k)
        val = turn + 2.0 * np.round((phi + n * self.tau - turn) / 2.0)
        return np.where(n == 0, phi, val)

    def log_charge(self, x, y, n):
        """log |M^n (x, y)|, elementwise over x, y and n >= 0 broadcast."""
        return self.log_charge_and_phase(x, y, None, n)[0]

    def log_charge_and_phase(self, x, y, phi, n):
        """(log_charge(x, y, n), phase(phi, n) as an array, None for phi None)
        from one evaluation of the power coefficients at n."""
        n = np.asarray(n, dtype=np.int64)
        coeffs = self._coeffs(n)
        log_c, X, Y = self._apply(np.asarray(x, dtype=float), np.asarray(y, dtype=float), n, coeffs)
        phis = None if phi is None else self._phase(np.asarray(phi, dtype=float), n, coeffs)
        return log_c + np.log(np.hypot(X, Y)), phis

    def log_norms(self, n):
        """(log ||M^n||, log ||M^-n||) in the spectral norm, elementwise in n.

        For N = [[p, q], [r, t]], sigma_max = (|(p + t, r - q)| + |(p - t, r + q)|) / 2,
        from ||N||_F^2 +- 2 det N; sigma_max sigma_min = det^n gives the
        inverse norm log sigma_max - n log det.
        """
        n = np.asarray(n, dtype=np.int64)
        (a, b), (c, d) = self.m
        log_c, _, alpha, beta, mu = self._coeffs(n)
        sigma = 0.5 * (
            np.hypot(2.0 * alpha + beta * (a + d - 2.0 * mu), beta * (c - b))
            + np.abs(beta) * math.hypot(a - d, b + c)
        )
        fwd = log_c + np.log(sigma)
        return fwd, fwd - n * self.log_det


def _theta_lo(x, y2, theta):
    """atan2(sqrt(y2), x) - theta for a double theta in (0, pi) near it, to
    about 2^-120 relative, in fixed point with 2^-p a 2^-128 fraction of
    theta: n theta at large n needs more bits than a double holds."""
    p = 128 - math.frexp(theta)[1]
    one = 1 << p
    t = int(math.ldexp(theta, p))  # exact
    cs, term, k = [0, 0], one, 0
    while term:  # Taylor series of cos theta and sin theta
        cs[k % 2] += term if k % 4 < 2 else -term
        k += 1
        term = term * t // (one * k)
    y = math.isqrt(int(math.ldexp(y2, 2 * p)))
    # sin(atan2(y, x) - theta) = (y cos theta - x sin theta) / |(x, y)|
    resid = y * cs[0] - int(math.ldexp(x, p)) * cs[1]
    return math.ldexp(resid, -2 * p) / math.hypot(x, math.sqrt(y2))


def power_record(g):
    """The PowerRecord of g, from the entries of its matrix part.

    The discriminant is (a-d)^2 + 4bc rather than tr^2 - 4 det: exact on
    integer entries, and free of cancellation near a parabolic element.
    """
    (a, b), (c, d) = g.m
    e = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1] - 1
    a, b, c, d = (math.ldexp(x, -e) for x in (a, b, c, d))
    m = ((a, b), (c, d))
    det = a * d - b * c
    log_det = math.log(math.ldexp(det, 2 * e))
    delta = a - d
    disc = delta * delta + 4.0 * b * c
    tr = a + d
    if disc < 0.0:
        r, theta = math.sqrt(det), math.atan2(math.sqrt(-disc), tr)
        # rotation sense: the sign of e1 x M e1, constant without real eigenvectors
        tau = math.copysign(theta / math.pi, c)
        tau += 2.0 * round((g.f0 - tau) / 2.0)  # |f(0) - tau| < 1
        roots = (r, theta, _theta_lo(tr, -disc, theta))
        return PowerRecord("elliptic", m, e, disc, roots, 0.5 * log_det, 0, tau, log_det)
    # u is a or d plus a correction free of cancellation: exact when m is triangular
    sign = math.copysign(1.0, tr)
    root = math.sqrt(disc) + abs(delta)
    u = (a if sign * delta >= 0.0 else d) + (sign * 2.0 * b * c / root if root else 0.0)
    s = det / u
    # the columns of m - s I span the eigenline of u, which f moves by the
    # integer tau; a scalar matrix fixes every phase
    ex, ey = max(((a - s, c), (b, d - s)), key=lambda v: abs(v[0]) + abs(v[1]))
    phi_e = _principal_phase(ex, ey)
    tau = float(round(_lift_eval(g.m, g.f0, phi_e) - phi_e))
    kind = "hyperbolic" if disc > 0.0 else "parabolic"
    jordan = int(disc == 0.0 and (b != 0.0 or c != 0.0))
    log_rho = math.log(abs(math.ldexp(u, e)))
    return PowerRecord(kind, m, e, disc, (u, s), log_rho, jordan, tau, log_det)


def renormalized_power_table(g, max_bit):
    """power_record(g); max_bit is ignored.  The name stays only for the
    benchmark's per-layer spans."""
    return power_record(g)


def power_phase(record, phi, n):
    """record.phase(phi, n).  The name stays only for the benchmark's
    per-layer spans."""
    return record.phase(phi, n)


# ---------------------------------------------------------------------------
# translation number and conjugacy classification


def translation_number(g, n_max=4096):
    """Estimate of lim f^n(0)/n with two-scale averaging.

    The tail difference (f^n(0) - f^{n/2}(0)) / (n/2) cancels the bounded
    deviation of the orbit, so the error is O(1/n) with a small constant.
    The exact value is power_record(g).tau.
    """
    n_max = int(n_max)
    if n_max < 16:
        raise ValueError("n_max must be at least 16")
    half = n_max // 2
    phi_half, phi_full = power_record(g).phase(0.0, [half, n_max]).tolist()
    return (phi_full - phi_half) / (n_max - half)


@dataclass(frozen=True)
class CoverClassification(Report):
    conjugacy_type: str  # elliptic | parabolic | hyperbolic
    pseudo_anosov_literal: bool
    pseudo_anosov_conjugate: bool
    stretch: object  # float, or None when there is no stretch factor
    gepner: bool


def classify(g, tol=1e-9):
    """Conjugacy type of M/sqrt(det), plus shape flags.

    The type is power_record(g).kind, the sign of the exact discriminant, so
    it always agrees with the closed form of the powers; tol only sets the
    shape flags.  Two stretch-map readings are reported: the literal one (M
    is exactly diag(lambda^{+-1}, lambda^{-+1}) with |lambda| > 1) and the
    conjugacy-invariant one (det 1 and |trace| > 2).  The
    scalar-times-rotation shape is flagged separately.
    """
    conj = power_record(g).kind
    (a, b), (c, d) = g.m
    det = a * d - b * c
    tr = (a + d) / math.sqrt(det)

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
    "classify",
    "PowerRecord",
    "power_record",
    "renormalized_power_table",
    "power_phase",
]
