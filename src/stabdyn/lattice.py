"""Exact and numerical linear algebra over a finite-rank integer lattice.

The exact layer (characteristic/minimal polynomials, square-free splitting,
determinants, inverses) runs on Python integers only, so nothing is rounded
before the final root extraction.  One fraction-free Gaussian eliminator
(one-step Bareiss) backs all of it: each pivot step reduces only the rows
no pivot has taken yet, and a fraction-free back-substitution on the
triangular pivot block reads the coordinates of a dependent column.  The
determinant is the last pivot; inverses feed the columns of A, then solve
for each e_j scaled by |det A|.  The characteristic and minimal polynomials
feed Krylov chains e_j, A e_j, A^2 e_j, ... (Keller-Gehrig 1985): the
dependence that ends a chain, solved for the chain's own coordinates, gives
a monic integer factor of the characteristic polynomial, chains sharing one
eliminator multiply to it, and chains from fresh eliminators have the
minimal polynomial as their lcm.  The square-free split first checks that
p and p' are coprime mod the prime 2^31 - 1, which certifies a square-free
p; otherwise Yun's loop runs on primitive-PRS gcds with exact division by
monic factors.  The numerical layer (root polishing, Jordan chain ranks,
norm-growth estimation) is plain numpy float64 with the thresholds stated in
the docstrings, so every test is reproducible.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from ._fit import geometric_schedule, joint_rate_fit, log_slope_fit
from .errors import DegenerateSpectrum, RootFindingDiverged, SingularMatrix

# Relative width of the top-modulus eigenvalue cluster (see poly_growth_rate).
DEFAULT_CLUSTER_TOL = 1e-7
# Singular values below this times the largest count as zero in rank chains.
DEFAULT_RANK_RTOL = 1e-8


# ---------------------------------------------------------------------------
# integer matrices


@dataclass(frozen=True)
class IntMatrix:
    """Square matrix with arbitrary-precision integer entries."""

    entries: tuple

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in row) for row in self.entries)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("entries must form a nonempty square matrix")
        object.__setattr__(self, "entries", rows)

    @property
    def dim(self):
        return len(self.entries)

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def transpose(self):
        return IntMatrix(tuple(zip(*self.entries)))

    def __matmul__(self, other):
        if isinstance(other, IntMatrix):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch")
            b = other.entries
            return IntMatrix(
                tuple(
                    tuple(sum(ra[k] * b[k][j] for k in range(self.dim)) for j in range(self.dim))
                    for ra in self.entries
                )
            )
        return NotImplemented

    def apply(self, v):
        """Exact integer matrix-vector product."""
        v = [int(x) for x in v]
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        return tuple(sum(map(operator.mul, row, v)) for row in self.entries)

    def power(self, k):
        if k < 0:
            raise ValueError("negative power of an integer matrix")
        result = IntMatrix.identity(self.dim)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base
            k >>= 1
        return result

    def to_float(self):
        return np.array(self.entries, dtype=float)

    def to_json(self):
        return [list(row) for row in self.entries]


class _Bareiss:
    """Column-at-a-time one-step fraction-free Gaussian elimination (Bareiss 1968).

    Integer columns of one common length are fed in turn.  Pivot step s, with
    pivot row r_s, pivot p_s and the pivot p_{s-1} before it (p_0 = 1),
    reduces a fed column x on the rows that are still untaken after it:
    x_i <- (p_s x_i - c_i x_{r_s}) // p_{s-1}, c being the pivot column as it
    was when chosen.  Row r_s keeps x_{r_s}, the minor it held when step s
    ran, and no later step touches it.  Every entry is a minor of the fed
    columns, so every division is exact (checked).  On the pivot rows the
    pivot columns form an upper triangular block with diagonal p_1 ... p_k;
    `solve` back-substitutes a dependent column on it.
    """

    def __init__(self):
        self.free = None  # rows no pivot has taken, ascending
        self.steps = []  # (index of r_s in free, p_s, pivot column on the rows still free)
        self.upper = []  # pivot column t on the rows r_1 .. r_{t-1}
        self.rows = []
        self.pivot = 1

    def feed(self, x):
        """Reduce x; make it the next pivot column (None) or return its
        entries on the pivot rows r_1 .. r_k, the right-hand side of `solve`."""
        v = list(x)
        if self.free is None:
            self.free = list(range(len(v)))
        kept = []
        prev = 1
        for j, p, c in self.steps:
            b = v.pop(j)
            kept.append(b)
            if b:
                num = [p * a - ci * b for a, ci in zip(v, c)]
            elif p == prev:
                continue  # the step would leave v as it is
            else:
                num = [p * a for a in v]
            if prev == 1:
                v = num
            else:
                v = [a // prev for a in num]
                # floor remainders share the divisor's sign: they all vanish iff their sum does
                if sum(v) * prev != sum(num):
                    raise ArithmeticError("Bareiss division was not exact")
            prev = p
        j = next((i for i, a in enumerate(v) if a), None)
        if j is None:
            return kept
        p = v.pop(j)
        self.steps.append((j, p, v))
        self.upper.append(kept)
        self.rows.append(self.free.pop(j))
        self.pivot = p
        return None

    def solve(self, y, start=0, scale=1):
        """scale * (a_start, ..., a_{k-1}) for the dependence x = sum_t a_t x_t
        over the pivot columns, y being what feed returned for x.

        Fraction-free back-substitution from the last unknown: it reads only
        pivot columns start .. k-1, and every division is checked, so the
        scaled unknowns must be integers (by Cramer's rule they are for
        scale = p_k).
        """
        rhs = [scale * b for b in y[start:]]
        out = []
        for t in range(len(self.rows) - 1, start - 1, -1):
            a, rem = divmod(rhs.pop(), self.steps[t][1])
            if rem:
                raise ArithmeticError("back-substitution was not exact")
            out.append(a)
            if a:
                rhs = [r - u * a for r, u in zip(rhs, self.upper[t][start:])]
        out.reverse()
        return out


def det_exact(A):
    """Determinant of an IntMatrix by fraction-free elimination of its columns.

    The last pivot is the determinant of A with its rows in pivot order.
    """
    elim = _Bareiss()
    for col in zip(*A.entries):
        if elim.feed(col) is not None:
            return 0
    rows = elim.rows
    inversions = sum(a > b for i, a in enumerate(rows) for b in rows[i + 1 :])
    return (-1) ** inversions * elim.pivot


def rational_inverse(A):
    """Exact inverse A^-1 = N / d as (N, d), with d = |det A| > 0.

    Feeds the columns of A, then those of I, through one elimination; column
    j of N is the solution for e_j scaled by d, so N is the adjugate of A up
    to the sign of det A.  Raises SingularMatrix when det A = 0.
    """
    elim = _Bareiss()
    for col in zip(*A.entries):
        if elim.feed(col) is not None:
            raise SingularMatrix("matrix is singular")
    d = abs(elim.pivot)
    N = [elim.solve(elim.feed(e), 0, d) for e in IntMatrix.identity(A.dim).entries]
    return tuple(zip(*N)), d


def inverse_unimodular(P):
    """Exact inverse of a matrix with determinant +-1."""
    try:
        N, d = rational_inverse(P)
    except SingularMatrix:
        d = 0
    if d != 1:
        raise ValueError("matrix is not unimodular")
    return IntMatrix(N)


# ---------------------------------------------------------------------------
# exact polynomial helpers (integer coefficients descending, index 0 = leading)


def _poly_trim(c):
    i = 0
    while i < len(c) - 1 and c[i] == 0:
        i += 1
    return list(c[i:])


def _poly_sub(a, b):
    n = max(len(a), len(b))
    a = [0] * (n - len(a)) + list(a)
    b = [0] * (n - len(b)) + list(b)
    return _poly_trim([x - y for x, y in zip(a, b)])


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_derivative(c):
    n = len(c) - 1
    if n == 0:
        return [0]
    return [c[i] * (n - i) for i in range(n)]


def _poly_div_monic(a, b):
    """Quotient a / b for a monic b that divides a exactly (checked)."""
    a = list(a)
    n = len(b) - 1
    for i in range(len(a) - n):
        if a[i]:
            for j in range(1, len(b)):
                a[i + j] -= a[i] * b[j]
    if any(a[max(0, len(a) - n) :]):
        raise ArithmeticError("division by a factor was not exact")
    return a[: max(0, len(a) - n)] or [0]


def _primitive(c):
    g = math.gcd(*c)
    return [x // g for x in c] if g > 1 else c


def _poly_gcd(a, b):
    """gcd by the primitive PRS (Collins 1967), with a positive leading term.

    A primitive divisor of a monic integer polynomial is monic, so this is
    the monic gcd whenever a is monic.
    """
    a, b = _primitive(_poly_trim(a)), _primitive(_poly_trim(b))
    while b != [0]:
        r, b0, tail = a, b[0], b[1:]
        while len(r) >= len(b) and r != [0]:
            # b0 r - r0 x^k b, whose leading term cancels
            r0 = r[0]
            r = _poly_trim([b0 * x - r0 * y for x, y in zip(r[1:], tail)]
                           + [b0 * x for x in r[len(b) :]]) or [0]
        a, b = b, _primitive(r)
    return a if a[0] > 0 else [-x for x in a]


_CERTIFICATE_PRIME = 2**31 - 1  # the modulus of the square-free certificate


def _coprime_mod(a, b):
    """Whether a mod q and b mod q are coprime in GF(q)[x], q the certificate
    prime (Euclid on monic remainders; a nonzero constant is coprime to
    anything)."""
    q = _CERTIFICATE_PRIME
    a = _poly_trim([c % q for c in a])
    b = _poly_trim([c % q for c in b])
    if b == [0]:
        return len(a) == 1 and a != [0]
    while len(b) > 1:
        inv = pow(b[0], -1, q)
        b = [c * inv % q for c in b]
        tail = b[1:]
        while len(a) >= len(b):
            f = a[0]
            a = [(x - f * y) % q for x, y in zip(a[1:], tail)] + a[len(b) :]
            while a and not a[0]:
                del a[0]
        if not a:
            return False  # b divides a: their gcd is b, of positive degree
        a, b = b, a
    return True


def squarefree_decomposition(coeffs):
    """Yun decomposition p = prod f_i^i of a monic integer polynomial.

    Returns a list of (f_i coefficients, i) with every f_i monic integral.
    A square factor f^2 | p over Q has a monic integral f (Gauss's lemma),
    which divides p' as well and survives reduction mod q = 2^31 - 1; so a p
    coprime to p' mod q is square-free and returned as is.  Otherwise Yun's
    loop runs on primitive-PRS gcds; every gcd is monic, so all divisions
    stay exact over the integers.
    """
    p = [int(c) for c in coeffs]
    dp = _poly_derivative(p)
    if _coprime_mod(p, dp):
        return [(p, 1)]
    g = _poly_gcd(p, dp)
    if len(g) == 1:
        return [(p, 1)]
    w = _poly_div_monic(p, g)
    y = _poly_div_monic(dp, g)
    out = []
    i = 1
    while len(w) > 1:
        z = _poly_sub(y, _poly_derivative(w))
        f = _poly_gcd(w, z)  # gcd(w, 0) = w handles the final factor
        if len(f) > 1:
            out.append((f, i))
            w = _poly_div_monic(w, f)
            z = _poly_div_monic(z, f)
        y = z
        i += 1
    return out


def _poly_eval(coeffs, x):
    acc = 0.0 + 0.0j if isinstance(x, complex) else 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


# ---------------------------------------------------------------------------
# characteristic and minimal polynomials (Krylov chains, Keller-Gehrig 1985)


def _krylov_chain(A, j, elim):
    """Feed e_j, A e_j, A^2 e_j, ... into elim until one is dependent.

    Returns the monic polynomial of the chain, read off the dependence
    coordinates of the chain's own pivot columns, the last unknowns of
    elim.solve: A^k e_j = sum_i c_i A^i e_j modulo the columns elim held
    before, so x^k - sum_i c_i x^i.  Over the basis of all chains fed so far
    A is block upper triangular with companion blocks, so the chain
    polynomial is a monic rational factor of char_poly(A), integral by
    Gauss's lemma; an inexact division raises ArithmeticError.  A chain
    whose e_j is already dependent returns [1].
    """
    start = len(elim.rows)
    v = [int(i == j) for i in range(A.dim)]
    while True:
        y = elim.feed(v)
        if y is not None:
            break
        v = A.apply(v)
    return [1] + [-c for c in reversed(elim.solve(y, start))]


def char_poly(A):
    """Monic characteristic polynomial as a product of Krylov chain polynomials.

    Chains from e_0, e_1, ... are fed into one fraction-free elimination
    until it holds n pivots; the chains then form a basis in which A is
    block upper triangular with one companion block per chain.  A dense
    (cyclic) matrix needs one chain, a derogatory one several.  Exact over
    the integers; coefficients are returned descending (leading 1 first).
    """
    elim = _Bareiss()
    coeffs = [1]
    for j in range(A.dim):
        coeffs = _poly_mul(coeffs, _krylov_chain(A, j, elim))
        if len(elim.rows) == A.dim:
            break
    return coeffs


def _annihilates(A, coeffs, j):
    """Whether coeffs(A) e_j = 0, by a Horner matrix-vector product."""
    acc = [0] * A.dim
    for c in coeffs:
        acc = list(A.apply(acc))
        acc[j] += c
    return not any(acc)


def min_poly(A):
    """Exact monic minimal polynomial as the lcm of Krylov chain polynomials.

    The chain from e_0 in a fresh elimination gives mu_{e_0}, the monic
    generator of the polynomials that kill e_0.  If it has degree n it is
    char_poly(A), hence mu.  Otherwise mu = lcm_j mu_{e_j}, each from a
    fresh elimination; an e_j the lcm so far already kills is skipped.
    Every mu_{e_j} divides char_poly(A) in Z[x], so the lcm (through the
    monic gcd) stays integral.  Returns (coefficients descending,
    used_char_poly=False).
    """
    mu = _krylov_chain(A, 0, _Bareiss())
    for j in range(1, A.dim):
        if len(mu) == A.dim + 1:
            break
        if not _annihilates(A, mu, j):
            mu_j = _krylov_chain(A, j, _Bareiss())
            mu = _poly_mul(mu, _poly_div_monic(mu_j, _poly_gcd(mu, mu_j)))
    return mu, False


# ---------------------------------------------------------------------------
# eigenvalues and Jordan structure


def _certified_roots(coeffs, tol):
    """Roots of a monic integer polynomial with per-root residual bounds.

    Square-free factors are split off exactly first, so repeated eigenvalues
    never degrade the root accuracy of the simple ones.  Returns a list of
    (root, multiplicity, residual).
    """
    out = []
    norm = max(abs(c) for c in coeffs)
    deg_total = len(coeffs) - 1
    for factor, mult in squarefree_decomposition(coeffs):
        roots = np.roots(np.array(factor, dtype=float))
        dfactor = [c * (len(factor) - 1 - i) for i, c in enumerate(factor[:-1])]
        for r in roots:
            z = complex(r)
            for _ in range(3):
                pv = _poly_eval(factor, z)
                dv = _poly_eval(dfactor, z)
                if abs(dv) < 1e-300:
                    break
                z -= pv / dv
            if abs(z.imag) < 1e-12 * max(1.0, abs(z.real)):
                z = complex(z.real, 0.0)
            pv = abs(_poly_eval(coeffs, z))
            scale = norm * max(1.0, abs(z)) ** deg_total
            residual = pv / scale
            if residual > tol:
                raise RootFindingDiverged(
                    "root residual %.3e above tolerance %.3e" % (residual, tol)
                )
            out.append((z, mult, residual))
    return out


def _rank(M, rtol):
    sv = np.linalg.svd(M, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rtol * sv[0]))


def _jordan_blocks(A_float, lam, mult, rtol):
    """Block sizes of the eigenvalue lam from ranks of (A - lam I)^k."""
    n = A_float.shape[0]
    B = A_float.astype(complex) - lam * np.eye(n)
    ranks = [n]
    P = np.eye(n, dtype=complex)
    for _ in range(mult):
        P = P @ B
        ranks.append(_rank(P, rtol))
    counts = []
    for k in range(1, mult + 1):
        geq_k = ranks[k - 1] - ranks[k]
        geq_k1 = ranks[k] - ranks[k + 1] if k + 1 < len(ranks) else 0
        counts.append(geq_k - geq_k1)
    sizes = []
    for size, cnt in enumerate(counts, start=1):
        sizes.extend([size] * max(0, cnt))
    if sum(sizes) != mult:
        # rank thresholds disagreed with the exact multiplicity
        raise DegenerateSpectrum(
            "Jordan chain ranks inconsistent with multiplicity %d at %s" % (mult, lam)
        )
    return sorted(sizes, reverse=True)


@dataclass(frozen=True)
class EigenvalueData:
    value: complex
    multiplicity: int
    residual: float
    block_sizes: tuple


@dataclass(frozen=True)
class SpectralData:
    """Exact characteristic polynomial plus certified spectral structure."""

    char_poly: tuple
    eigenvalues: tuple  # of EigenvalueData
    rho: float
    s: int

    def to_json(self):
        return {
            "char_poly": [str(c) for c in self.char_poly],
            "eigenvalues": [
                {
                    "re": ev.value.real,
                    "im": ev.value.imag,
                    "multiplicity": ev.multiplicity,
                    "residual": ev.residual,
                    "block_sizes": list(ev.block_sizes),
                }
                for ev in self.eigenvalues
            ],
            "rho": self.rho,
            "s": self.s,
        }


def _top_cluster(eigs, cluster_tol):
    """Eigenvalues with |lambda| within cluster_tol*rho of rho.

    Raises DegenerateSpectrum when some modulus falls in the guard band
    (cluster_tol, 10*cluster_tol] * rho below rho, i.e. is neither clearly
    on the top circle nor clearly below it.
    """
    moduli = sorted({abs(ev.value) for ev in eigs}, reverse=True)
    rho = moduli[0]
    if rho == 0.0:
        return [], 0.0
    top = [ev for ev in eigs if rho - abs(ev.value) <= cluster_tol * rho]
    for m in moduli[1:]:
        gap = rho - m
        if cluster_tol * rho < gap <= 10 * cluster_tol * rho:
            raise DegenerateSpectrum(
                "moduli %.17g and %.17g are too close to separate at relative "
                "tolerance %.1e" % (rho, m, cluster_tol),
                moduli=(rho, m),
            )
    return top, rho


def spectral_data(A, tol=1e-9, cluster_tol=DEFAULT_CLUSTER_TOL, rank_rtol=DEFAULT_RANK_RTOL):
    """Full spectral record of an integer matrix.

    tol certifies root residuals; cluster_tol (relative) delimits the
    top-modulus class; rank_rtol is the singular-value cutoff for the
    Jordan chain ranks.
    """
    coeffs = char_poly(A)
    roots = _certified_roots(coeffs, tol)
    Af = A.to_float()
    eigs = []
    for z, mult, residual in roots:
        if mult == 1:
            blocks = (1,)
        else:
            blocks = tuple(_jordan_blocks(Af, z, mult, rank_rtol))
        eigs.append(EigenvalueData(z, mult, residual, blocks))
    eigs_sorted = tuple(sorted(eigs, key=lambda e: (-abs(e.value), e.value.real, e.value.imag)))
    rho = max(abs(e.value) for e in eigs_sorted)
    if rho > 0.0:
        top, rho = _top_cluster(eigs_sorted, cluster_tol)
        s = max(max(e.block_sizes) for e in top) - 1
    else:
        s = 0
    return SpectralData(tuple(coeffs), eigs_sorted, float(rho), int(s))


def spectral_radius(A, tol=1e-9):
    """Largest eigenvalue modulus, each root certified to residual <= tol."""
    coeffs = char_poly(A)
    roots = _certified_roots(coeffs, tol)
    return float(max(abs(z) for z, _, _ in roots))


def poly_growth_rate(A, tol=1e-9, cluster_tol=DEFAULT_CLUSTER_TOL, rank_rtol=DEFAULT_RANK_RTOL):
    """One less than the longest Jordan chain among top-modulus eigenvalues."""
    data = spectral_data(A, tol=tol, cluster_tol=cluster_tol, rank_rtol=rank_rtol)
    if data.rho == 0.0:
        raise ValueError("polynomial growth rate requires a positive spectral radius")
    return data.s


# ---------------------------------------------------------------------------
# norm-growth estimation (the defining limits, used as an independent oracle)


def _renormalized_squares(A_float, max_bit):
    """[(A^(2^j) / scale_j, log scale_j)] for j = 0..max_bit."""
    out = []
    M = A_float.copy()
    logscale = 0.0
    for _ in range(max_bit + 1):
        out.append((M.copy(), logscale))
        M = M @ M
        logscale *= 2.0
        s = np.max(np.abs(M))
        if s == 0.0:
            out.extend([(M.copy(), -np.inf)] * (max_bit + 1 - len(out)))
            break
        M /= s
        logscale += float(np.log(s))
    return out


def log_norm_of_power(A_float, n, squares=None):
    """log of the Frobenius norm of A^n, via renormalized repeated squaring."""
    if n == 0:
        return 0.5 * float(np.log(A_float.shape[0]))
    if squares is None:
        squares = _renormalized_squares(A_float, int(n).bit_length() - 1)
    M = None
    logscale = 0.0
    bit = 0
    k = n
    while k:
        if k & 1:
            Mj, lj = squares[bit]
            if M is None:
                M, logscale = Mj.copy(), lj
            else:
                M = M @ Mj
                logscale += lj
                s = np.max(np.abs(M))
                if s == 0.0:
                    return -np.inf
                M /= s
                logscale += float(np.log(s))
        bit += 1
        k >>= 1
    norm = float(np.linalg.norm(M))
    if norm == 0.0:
        return -np.inf
    return logscale + float(np.log(norm))


@dataclass(frozen=True)
class GrowthEstimate:
    rho_est: float
    s_est: float
    residual: float
    window: tuple
    samples: tuple

    def to_json(self):
        return {
            "rho_est": self.rho_est,
            "s_est": self.s_est,
            "residual": self.residual,
            "window": list(self.window),
            "samples": [[int(n), v] for n, v in self.samples],
        }


def growth_rate_estimate(A, schedule=None):
    """Fit rho and the polynomial rate from log||A^n|| along a schedule.

    rho_est is exp of the n-slope of log||A^n|| (a log n regressor is carried
    so Jordan growth does not bias it); s_est is the log n slope of the
    remainder after removing n*log rho_est.
    """
    if schedule is None:
        # several points per octave so bounded norm oscillation (complex
        # eigenvalue pairs) averages out of the slope fit
        schedule = geometric_schedule(2**20, points_per_octave=6)
    schedule = [int(n) for n in schedule]
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be strictly increasing")
    Af = A.to_float()
    squares = _renormalized_squares(Af, max(int(n).bit_length() for n in schedule))
    ys = [log_norm_of_power(Af, n, squares) for n in schedule]
    ns, Y = np.array(schedule, dtype=float), np.array([ys])
    (a,), (rms,), window = joint_rate_fit(ns, Y, fraction=64)
    (s_est,), _, _ = log_slope_fit(ns, Y - a * ns)
    return GrowthEstimate(
        rho_est=float(np.exp(a)),
        s_est=float(s_est),
        residual=rms,
        window=window,
        samples=tuple(zip(schedule, ys)),
    )


# ---------------------------------------------------------------------------
# minimal-polynomial root transfer


@dataclass(frozen=True)
class MinPolyTransfer:
    vanishes: bool
    residual: float
    used_char_poly: bool

    def __bool__(self):
        return self.vanishes


def min_poly_root_transfer(A, M, tol=1e-9):
    """Whether mu_A(M) = 0 within tol, so every eigenvalue of M is one of A.

    mu_A is the exact minimal polynomial; if its computation fails the exact
    characteristic polynomial is substituted and flagged (the divides
    relation is preserved, only sharpness is lost).
    """
    try:
        coeffs, used_char = min_poly(A)
    except ArithmeticError:
        coeffs, used_char = char_poly(A), True
    M = np.asarray(M, dtype=float)
    acc = np.zeros_like(M)
    for c in coeffs:
        acc = acc @ M + c * np.eye(M.shape[0])
    norm_m = float(np.linalg.norm(M, 2))
    scale = 1.0 + sum(abs(c) * max(1.0, norm_m) ** (len(coeffs) - 1 - i) for i, c in enumerate(coeffs))
    residual = float(np.max(np.abs(acc))) / scale
    return MinPolyTransfer(vanishes=residual <= tol, residual=residual, used_char_poly=used_char)


__all__ = [
    "IntMatrix",
    "SpectralData",
    "EigenvalueData",
    "GrowthEstimate",
    "MinPolyTransfer",
    "char_poly",
    "min_poly",
    "det_exact",
    "inverse_unimodular",
    "rational_inverse",
    "squarefree_decomposition",
    "spectral_data",
    "spectral_radius",
    "poly_growth_rate",
    "growth_rate_estimate",
    "log_norm_of_power",
    "min_poly_root_transfer",
    "geometric_schedule",
]
