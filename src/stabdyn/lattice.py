"""Exact and numerical linear algebra over a finite-rank integer lattice.

The exact layer (characteristic/minimal polynomials, square-free splitting,
determinants, inverses) runs in exact integer arithmetic, so no answer is
rounded before the final root extraction.  One fraction-free Gaussian
eliminator (one-step Bareiss) backs determinants, inverses and Krylov
chains: each pivot step reduces only the rows no pivot has taken yet, and a
fraction-free back-substitution on the triangular pivot block reads the
coordinates of a dependent column.  The determinant is the last pivot;
inverses feed the columns of A, then solve for each e_j scaled by |det A|.
Krylov chains e_j, A e_j, A^2 e_j, ... (Keller-Gehrig 1985) end in a
dependence whose own coordinates give a monic integer factor of the
characteristic polynomial: chains sharing one eliminator multiply to it
below rank 16 (_CROSSOVER), and chains from fresh eliminators have the
minimal polynomial as their lcm.  From rank 16 to 2047 three answers run in
int64 mod primes below 2^26, each with a certificate that makes it exact.
chi is a Hessenberg reduction (Cohen 1993, Alg. 2.2.9; Dumas, Pernet and Wan
2005) and A^-1 a Gauss-Jordan sweep on [A | I], both mod a batch of primes
joined by CRT, whose product exceeds 4x a Hadamard bound on what CRT returns
(a prime dividing det A hands A^-1 to the eliminator).  mu starts from e_0's
chain mod one prime (Wiedemann 1986), never longer than over Q: length n
proves mu = chi, a shorter one lifts to a candidate kept only if it kills
e_0 exactly.  The square-free split first checks that p and p' are coprime
mod the prime 2^31 - 1, which certifies a square-free p; otherwise Yun's
loop runs on primitive-PRS gcds with exact division by monic factors.
Jordan data is exact: one elimination of the columns of f(A)^k, f a Yun
factor, gives a kernel basis, whose Krylov chains tell apart roots of f with
different blocks.  Two kernels run on int64 numpy arrays under a bound that
proves no entry wraps: f(A) X, for the minimal polynomial's tests on the
unit columns and for the columns of f(A)^k, is Horner on int64 products
while each step acc -> A acc + c X keeps n max|A| max|acc| + |c| max|X| <
2^63, and goes on in Python ints from the first step where it fails; a
unimodular inverse is the rounded float64 inverse N when P N = I holds
exactly in int64 (entries of P below 2^53, n max|P| max|N| < 2^63), and
comes from rational_inverse otherwise.  Root polishing and norm-growth
estimation are plain numpy float64 with the thresholds stated in the
docstrings, so every test is reproducible.
"""

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np

from ._fit import fit_plan, geometric_schedule, joint_rate_fit, log_slope_fit
from ._report import Report
from .errors import DegenerateSpectrum, RootFindingDiverged, SingularMatrix

# Relative width of the top-modulus eigenvalue cluster (see poly_growth_rate).
DEFAULT_CLUSTER_TOL = 1e-7


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
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        columns = tuple(zip(*other.entries))
        return IntMatrix(tuple(tuple(_apply(columns, row)) for row in self.entries))

    def apply(self, v):
        """Exact integer matrix-vector product."""
        v = [int(x) for x in v]
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        return tuple(_apply(self.entries, v))

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


def _apply(rows, v):
    """Row-dot products of v, an int list of the right length (unchecked)."""
    return [sum(map(operator.mul, row, v)) for row in rows]


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

    From rank _CROSSOVER on _modular_inverse answers, unless a prime divides
    det A; else the columns of A, then of I, feed one elimination: column j
    of N solves for e_j scaled by d, so N is the adjugate of A up to the sign
    of det A.  Raises SingularMatrix when det A = 0.
    """
    found = _CROSSOVER <= A.dim < _MODULAR_DIM_LIMIT and _modular_inverse(A)
    if found:
        return found
    elim = _Bareiss()
    for col in zip(*A.entries):
        if elim.feed(col) is not None:
            raise SingularMatrix("matrix is singular")
    d = abs(elim.pivot)
    N = [elim.solve(elim.feed(e), 0, d) for e in IntMatrix.identity(A.dim).entries]
    return tuple(zip(*N)), d


def _int_array(rows):
    """rows as an int64 array, or as Python ints (dtype object) beyond int64."""
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)


def _max_abs(a):
    """max |a_ij| of an integer array as a Python int (exact at -2^63 too)."""
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _float_inverse(P):
    """The rounded float64 inverse N of P when P N = I holds exactly, else None.

    P is converted exactly (entries below 2^53), and n max|P| max|N| < 2^63
    bounds every partial sum of the int64 product, so the check cannot wrap.
    An integer N with P N = I is the inverse, and P is unimodular.
    """
    a = _int_array(P.entries)
    amax = _max_abs(a)
    if amax >= 2**53:
        return None
    try:
        inv = np.linalg.inv(a.astype(float))
    except np.linalg.LinAlgError:
        return None
    if not np.max(np.abs(inv)) < 2.0**62:  # also false for nan
        return None
    N = np.rint(inv).astype(np.int64)
    if P.dim * amax * _max_abs(N) >= 2**63:
        return None
    return N if np.array_equal(a @ N, np.eye(P.dim, dtype=np.int64)) else None


def inverse_unimodular(P):
    """Exact inverse of a matrix with determinant +-1.

    A rounded float64 inverse answers when an exact int64 product certifies
    it (_float_inverse); otherwise rational_inverse decides.
    """
    N = _float_inverse(P)
    if N is not None:
        return IntMatrix(N.tolist())
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


def _krylov_chain(A, v, elim):
    """Feed v, A v, A^2 v, ... into elim until one is dependent; return the
    chain's monic polynomial, [1] if v itself is dependent.

    A^k v = sum_i c_i A^i v modulo the columns elim held before, the c_i
    being the last unknowns of elim.solve, so x^k - sum_i c_i x^i.  Over the
    basis of all chains fed so far A is block upper triangular with
    companion blocks, so this is a monic factor of char_poly(A), integral by
    Gauss's lemma (an inexact division raises ArithmeticError).
    """
    start = len(elim.rows)
    while True:
        y = elim.feed(v)
        if y is not None:
            break
        v = _apply(A.entries, v)
    return [1] + [-c for c in reversed(elim.solve(y, start))]


def _chain_product(A, starts):
    """Characteristic polynomial of A on the A-invariant span of the
    independent integer vectors starts: their chains, fed into one
    elimination until it holds len(starts) pivots, form a basis in which A
    is block upper triangular with one companion block per chain."""
    elim = _Bareiss()
    coeffs = [1]
    for v in starts:
        coeffs = _poly_mul(coeffs, _krylov_chain(A, v, elim))
        if len(elim.rows) == len(starts):
            break
    return coeffs


def _krylov_char_poly(A):
    """Monic characteristic polynomial: the chain product from e_0, e_1, ..."""
    return _chain_product(A, np.eye(A.dim, dtype=int).tolist())


def _poly_at(a, coeffs, X):
    """coeffs(a) X by Horner's rule, a an n x n array from _int_array,
    coefficients descending, X an n x k integer matrix; returns an n x k array.

    A step acc -> a acc + c X stays on int64 while n max|a| max|acc| +
    |c| max|X| < 2^63, which bounds every entry and partial sum it forms.
    max|acc| is carried as that bound and measured only where the bound
    fails; from the first step where the measured maximum fails it too, the
    loop goes on in Python ints (dtype object).
    """
    x = _int_array(X).reshape(len(a), -1)
    step, xmax = len(a) * _max_abs(a), max(_max_abs(x), 1)
    acc, bound = None, 0
    for c in coeffs:
        bound = step * bound + abs(c) * xmax
        if bound >= 2**63 and acc is not None and acc.dtype != object:
            bound = step * _max_abs(acc) + abs(c) * xmax
        if bound >= 2**63 and x.dtype != object:
            a, x = a.astype(object), x.astype(object)
            acc = None if acc is None else acc.astype(object)
        acc = c * x if acc is None else a @ acc + c * x
    return acc


def min_poly(A):
    """Exact monic minimal polynomial as the lcm of Krylov chain polynomials.

    The chain from e_0 in a fresh elimination gives mu_{e_0}, the monic
    generator of the polynomials that kill e_0.  If it has degree n it is
    char_poly(A), hence mu.  Otherwise mu = lcm_j mu_{e_j}, each from a
    fresh elimination, in the order of j.  One evaluation of the lcm so far
    on the unit columns still open (_poly_at) drops every e_j it kills; it
    is repeated only after the lcm grows.  Every mu_{e_j} divides
    char_poly(A) in Z[x], so the lcm (through the monic gcd) stays integral.

    From rank _CROSSOVER on, e_0's chain runs mod one prime (_modular_chain):
    length n gives char_poly(A); mu_{e_0} divides a shorter chain's candidate
    that kills e_0 and has at least its degree, so they are equal.
    Returns (coefficients descending, used_char_poly=False).
    """
    n, modular = A.dim, _CROSSOVER <= A.dim < _MODULAR_DIM_LIMIT
    a, units = _int_array(A.entries), np.eye(n, dtype=np.int64)
    mu = _modular_chain(a) if modular else _krylov_chain(A, units[0].tolist(), _Bareiss())
    if mu is None:
        return char_poly(A), False
    rest = list(range(0 if modular else 1, n))  # the e_j the lcm may not kill yet
    while rest and len(mu) < n + 1:
        alive = (_poly_at(a, mu, units[:, rest]) != 0).any(axis=0)
        rest = [j for j, live in zip(rest, alive.tolist()) if live]
        if rest and rest[0] == 0:  # the lifted candidate is not mu_{e_0}: start over exactly
            mu, rest = _krylov_chain(A, units[0].tolist(), _Bareiss()), list(range(1, n))
        elif rest:
            mu_j = _krylov_chain(A, units[rest.pop(0)].tolist(), _Bareiss())
            mu = _poly_mul(mu, _poly_div_monic(mu_j, _poly_gcd(mu, mu_j)))
    return mu, False


# ---------------------------------------------------------------------------
# characteristic polynomial mod a batch of primes (Cohen 1993, Alg. 2.2.9)

_CROSSOVER = 16  # the smallest rank on the modular path; the two paths tie near 16-18
_PRIME_BITS = 26  # every prime is below 2^26, so a product of two residues is below 2^52
_MODULAR_DIM_LIMIT = 2 ** (63 - 2 * _PRIME_BITS)  # a sum of n such products fits int64 below it
_PRIMES = []  # the largest primes below 2^26, descending, found on first use


def _is_prime(q):
    """Deterministic Miller-Rabin for odd q < 4759123141 (bases 2, 7, 61)."""
    d, s = q - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in (2, 7, 61):
        x = pow(a, d, q)
        if x in (0, 1, q - 1):
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def _primes_above(bits):
    """The fewest of the largest primes below 2^26 whose product exceeds 2^bits."""
    k = 0
    while bits >= 0:
        if k == len(_PRIMES):
            start = _PRIMES[-1] - 2 if _PRIMES else 2**_PRIME_BITS - 1
            _PRIMES.append(next(q for q in range(start, 2, -2) if _is_prime(q)))
        bits -= math.log2(_PRIMES[k])
        k += 1
    return _PRIMES[:k]


def _row_norm_bits(A):
    """log2 of the row 2-norms of A, largest first (-inf for a zero row)."""
    squares = [sum(map(operator.mul, row, row)) for row in A.entries]
    return sorted((0.5 * math.log2(q) if q else -math.inf for q in squares), reverse=True)


def _coefficient_bits(A):
    """log2 of a bound on every coefficient of char_poly(A).

    c_k is a signed sum of the C(n, k) principal k x k minors, and Hadamard's
    inequality bounds each by the product of the k largest row 2-norms.
    """
    n, sums = A.dim, itertools.accumulate(_row_norm_bits(A))
    return max([0.0] + [math.log2(math.comb(n, k)) + acc for k, acc in enumerate(sums, 1)])


def _minor_bits(A):
    """log2 of Hadamard's bound on |det A| and every (n-1)-minor of A."""
    return sum(max(b, 0.0) for b in _row_norm_bits(A))


def _modular_char_poly(A):
    """char_poly(A) from its images mod k primes below 2^26, joined by CRT.

    All k images run in one (k, n, n) int64 array.  A Hessenberg similarity
    clears column c below row c + 1, a prime swapping in a lower row only
    where it divides the pivot.  Hessenberg's recurrence p_m = (x - h_mm)
    p_{m-1} - sum_{i<m} h_im (h_{i+1,i} ... h_{m,m-1}) p_{i-1} then carries
    the subdiagonal products as one running (k, n) vector.  A product of
    residues is below 2^52 and no sum has 2^11 of them, so nothing wraps.
    The primes multiply to more than 4 B, B the coefficient bound (the
    factor 2 beyond CRT's covers rounding in the logarithms).
    """
    n = A.dim
    plist = _primes_above(_coefficient_bits(A) + 2)
    p = np.array(plist, dtype=np.int64)[:, None]
    p3 = p[:, :, None]
    H = (_int_array(A.entries) % p3).astype(np.int64)  # beyond int64, reduce as Python ints
    for c in range(n - 2):
        piv = H[:, c + 1, c].tolist()
        if 0 in piv:
            for q in (q for q, t in enumerate(piv) if t == 0):
                below = np.flatnonzero(H[q, c + 2 :, c])
                if below.size:  # swap rows and columns c + 1 and i of this image only
                    i = [c + 1, c + 2 + int(below[0])]
                    H[q, i] = H[q, i[::-1]]
                    H[q, :, i] = H[q, :, i[::-1]]
            piv = H[:, c + 1, c].tolist()
            if not any(piv):  # column c is reduced in every image already
                continue
        inv = [pow(t, -1, q) if t else 0 for t, q in zip(piv, plist)]
        u = H[:, c + 2 :, c, None] * np.array(inv, dtype=np.int64)[:, None, None] % p3
        rows = H[:, c + 2 :, c:]  # row_i -= u_i row_{c+1}, then col_{c+1} += sum_i u_i col_i
        rows -= u * H[:, c + 1, None, c:]
        rows %= p3
        col = H[:, :, c + 1]
        col += np.matmul(H[:, :, c + 2 :], u)[:, :, 0]
        col %= p
    P = np.zeros((len(plist), n + 1, n + 1), dtype=np.int64)  # P[:, m, j]: [x^j] p_m
    P[:, 0, 0] = 1
    S = np.ones((len(plist), n), dtype=np.int64)  # S[:, i]: h_{i+1,i} ... h_{m,m-1} at step m
    for m in range(n):
        w = H[:, None, :m, m] * S[:, None, :m] % p3
        pm = P[:, m + 1]
        pm[:, 1:] = P[:, m, :-1]
        pm -= H[:, m, m, None] * P[:, m] + np.matmul(w, P[:, :m])[:, 0]
        pm %= p
        if m + 1 < n:
            sub = S[:, : m + 1]
            sub *= H[:, m + 1, m, None]
            sub %= p
    return _crt(plist, P[:, n, ::-1])


def _crt(plist, residues):
    """The x with |x| < M / 2, M = prod(plist), and x = residues[i, j] mod
    plist[i], for each column j of the (k, m) array."""
    M = math.prod(plist)
    es = np.array([M // q * pow(M // q % q, -1, q) for q in plist], dtype=object)
    return [x - M if 2 * x > M else x for x in (es @ residues.astype(object) % M).tolist()]


def _modular_inverse(A):
    """rational_inverse(A) by Gauss-Jordan on [A | I] mod primes whose product
    exceeds 4x _minor_bits, so CRT gives det A and N = |det A| A^-1 exactly;
    None when a prime divides det A.  Each image swaps rows only where its
    pivot vanishes, and carries det A as its pivots' product and swap signs.
    """
    n, plist = A.dim, _primes_above(_minor_bits(A) + 2)
    p = np.array(plist, dtype=np.int64)[:, None]
    H = np.zeros((len(plist), n, 2 * n), dtype=np.int64)
    H[:, :, :n] = _int_array(A.entries) % p[:, :, None]  # beyond int64, reduce as Python ints
    H[:, range(n), range(n, 2 * n)] = 1
    det = [1] * len(plist)
    for c in range(n):
        piv = H[:, c, c].tolist()
        for i in (i for i, t in enumerate(piv) if t == 0):
            below = np.flatnonzero(H[i, c + 1 :, c])
            if not below.size:
                return None  # plist[i] divides det A
            r = [c, c + 1 + int(below[0])]
            H[i, r] = H[i, r[::-1]]
            det[i], piv[i] = -det[i], int(H[i, c, c])
        det = [d * t % q for d, t, q in zip(det, piv, plist)]
        row = H[:, c, c:] * np.array([pow(t, -1, q) for t, q in zip(piv, plist)])[:, None] % p
        H[:, :, c:] = (H[:, :, c:] - H[:, :, c, None] * row[:, None, :]) % p[:, :, None]
        H[:, c, c:] = row  # the update left row c at 0 mod p
    d = abs(_crt(plist, np.array([det]).T)[0])
    N = _crt(plist, H[:, :, n:].reshape(len(plist), -1) * np.array([[d % q] for q in plist]) % p)
    return tuple(tuple(N[i : i + n]) for i in range(0, n * n, n)), d


def _modular_chain(a):
    """e_0's Krylov chain mod q, the first prime, for the n x n array a: None
    at length n, else its ending dependence lifted to symmetric residues.  It
    is kept in reduced echelon form beside each row's coordinates over e_0,
    A e_0, ...; residues below 2^26 and n < 2048 keep every sum in int64."""
    n, q = len(a), _primes_above(0)[0]
    aq = (a % q).astype(np.int64)
    rc = np.zeros((n, 2 * n + 1), dtype=np.int64)  # echelon rows | their chain coordinates
    rc[0, 0] = rc[0, n] = 1
    piv, v = np.zeros(n, dtype=np.intp), rc[0, :n]
    for k in range(1, n):
        v = aq @ v % q
        x = rc[k]
        x[:n], x[n + k] = v, 1
        x[:] = (x - x[piv[:k]] @ rc[:k]) % q
        j = x[:n].argmax()  # a nonzero entry, if there is one
        if not x[j]:
            return [1] + [c - q if 2 * c > q else c for c in x[n : n + k][::-1].tolist()]
        x[:] = x * pow(int(x[j]), -1, q) % q
        rc[:k] = (rc[:k] - rc[:k, j, None] * x) % q
        piv[k] = j
    return None


def char_poly(A):
    """Monic characteristic polynomial, exact over the integers.

    Ranks below _CROSSOVER = 16 multiply Krylov chain polynomials
    (_krylov_char_poly).  Ranks from 16 to 2047 reduce A mod a batch of
    primes below 2^26 whose product exceeds four times the bound
    |c_k| <= C(n, k) * (product of the k largest row 2-norms), and join the
    Hessenberg images by CRT (_modular_char_poly); larger ranks would wrap
    int64 and take the Krylov path.  Coefficients are returned descending
    (leading 1 first).
    """
    if _CROSSOVER <= A.dim < _MODULAR_DIM_LIMIT:
        return _modular_char_poly(A)
    return _krylov_char_poly(A)


# ---------------------------------------------------------------------------
# eigenvalues and Jordan structure


def _kernel(cols):
    """Integer kernel basis of the matrix with these columns, from one
    elimination: a dependent column j = sum_t a_t (pivot column c_t) gives
    p e_j - sum_t p a_t e_(c_t), p the last pivot (Cramer's rule)."""
    elim, pivots, basis = _Bareiss(), [], []
    for j, col in enumerate(cols):
        y = elim.feed(col)
        if y is None:
            pivots.append(j)
            continue
        v = [0] * len(cols)
        v[j] = p = elim.pivot
        for i, a in zip(pivots, elim.solve(y, 0, p)):
            v[i] = -a
        basis.append(v)
    return basis


def _jordan_pieces(A, coeffs):
    """(piece, multiplicity, Jordan block sizes) covering the roots of coeffs = chi_A.

    A Yun factor f of multiplicity m splits into pieces whose roots lam share
    d_k = dim ker (A - lam)^k for every k; lam has d_k - d_(k-1) blocks of
    size >= k.  ker f(A)^k has dimension sum_lam d_k(lam): m deg f ends the
    loop (every d_k is m), and for a linear f it is d_k.  Otherwise the
    Krylov chains of a kernel basis multiply to prod_lam (x - lam)^d_k(lam),
    and gcds with its Yun factors split the pieces.
    """
    out, units, a = [], np.eye(A.dim, dtype=int).tolist(), _int_array(A.entries)
    for f, m in squarefree_decomposition(coeffs):
        pieces, cols = [(f, [0])], units
        while m > 1:
            cols = _poly_at(a, f, list(zip(*cols))).T.tolist()
            if len(f) == 2:  # f is linear: only the rank counts, so keep a basis of im f(A)^k
                elim = _Bareiss()
                cols = [c for c in cols if elim.feed(c) is None]
                nullity = A.dim - len(cols)
            else:
                basis = _kernel(cols)
                nullity = len(basis)
            if nullity == m * (len(f) - 1):
                break
            split = [(f, nullity)] if len(f) == 2 else squarefree_decomposition(
                _chain_product(A, basis))
            pieces = [(h, ds + [j]) for q, ds in pieces for g, j in split
                      for h in [_poly_gcd(q, g)] if len(h) > 1]
        for q, ds in pieces:
            at_least = [b - a for a, b in zip(ds, ds[1:] + [m])]  # blocks of size >= k
            out.append((q, m, tuple(sum(c >= i for c in at_least)
                                    for i in range(1, at_least[0] + 1))))
    return out


def _certified_roots(coeffs, pieces, tol):
    """(root, residual bound, *data) for each root of each piece (factor, *data),
    the square-free factors of the monic integer polynomial coeffs.  Each
    root is found and polished on its own piece, so repeated eigenvalues
    never degrade the root accuracy of the simple ones."""
    out = []
    norm = max(abs(c) for c in coeffs)
    deg_total = len(coeffs) - 1
    for factor, *data in pieces:
        dfactor = _poly_derivative(factor)
        for r in np.roots(np.array(factor, dtype=float)):
            z = complex(r)
            for _ in range(3):
                pv = _poly_eval(factor, z)
                dv = _poly_eval(dfactor, z)
                if abs(dv) < 1e-300:
                    break
                z -= pv / dv
            if abs(z.imag) < 1e-12 * max(1.0, abs(z.real)):
                z = complex(z.real, 0.0)
            residual = abs(_poly_eval(coeffs, z)) / (norm * max(1.0, abs(z)) ** deg_total)
            if residual > tol:
                raise RootFindingDiverged(
                    "root residual %.3e above tolerance %.3e" % (residual, tol))
            out.append((z, residual, *data))
    return out


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


def spectral_data(A, tol=1e-9, cluster_tol=DEFAULT_CLUSTER_TOL):
    """Full spectral record of an integer matrix.

    tol certifies root residuals; cluster_tol (relative) delimits the
    top-modulus class.  Multiplicities and Jordan block sizes are exact.
    """
    coeffs = char_poly(A)
    roots = _certified_roots(coeffs, _jordan_pieces(A, coeffs), tol)
    eigs_sorted = tuple(sorted((EigenvalueData(z, m, r, b) for z, r, m, b in roots),
                               key=lambda e: (-abs(e.value), e.value.real, e.value.imag)))
    rho = max(abs(e.value) for e in eigs_sorted)
    if rho > 0.0:
        top, rho = _top_cluster(eigs_sorted, cluster_tol)
        s = max(max(e.block_sizes) for e in top) - 1
    else:
        s = 0
    return SpectralData(tuple(coeffs), eigs_sorted, float(rho), int(s))


def spectral_radius(A, tol=1e-9):
    """Largest modulus of the roots of char_poly(A), each certified to
    residual <= tol: the rho of spectral_data(A, tol=tol).  The cluster guard
    band decides only s, so a modulus inside it does not stop rho."""
    coeffs = char_poly(A)
    return float(max(abs(z) for z, *_ in _certified_roots(coeffs, _jordan_pieces(A, coeffs), tol)))


def poly_growth_rate(A, tol=1e-9, cluster_tol=DEFAULT_CLUSTER_TOL):
    """One less than the longest Jordan chain among top-modulus eigenvalues."""
    data = spectral_data(A, tol=tol, cluster_tol=cluster_tol)
    if data.rho == 0.0:
        raise ValueError("polynomial growth rate requires a positive spectral radius")
    return data.s


# ---------------------------------------------------------------------------
# norm-growth estimation (the defining limits, used as an independent oracle)


def _log_norms_of_powers(A_float, ns):
    """[log ||A^n||_F for n in ns] in one renormalized squaring pass: A^n is
    the product of the squares A^(2^j) over the set bits j of n, lowest
    first, and each square and each product is scaled to max entry 1."""
    acc = [None] * len(ns)  # (scaled product, log scale) over the bits so far
    M, logscale = A_float, 0.0
    for j in range(max(ns).bit_length()):
        for i, n in enumerate(ns):
            if not n >> j & 1:
                continue
            if acc[i] is None:
                acc[i] = (M, logscale)
                continue
            P = acc[i][0] @ M
            s = np.max(np.abs(P))
            acc[i] = (P / s, acc[i][1] + logscale + float(np.log(s))) if s else (P, -np.inf)
        M = M @ M
        s = np.max(np.abs(M))
        M, logscale = (M / s, 2.0 * logscale + float(np.log(s))) if s else (M, -np.inf)
    out = []
    for a in acc:
        if a is None:  # n = 0
            out.append(0.5 * float(np.log(A_float.shape[0])))
        else:
            norm = float(np.linalg.norm(a[0]))
            out.append(a[1] + float(np.log(norm)) if norm else -np.inf)
    return out


def log_norm_of_power(A_float, n):
    """log of the Frobenius norm of A^n, via renormalized repeated squaring."""
    return _log_norms_of_powers(A_float, [int(n)])[0]


@dataclass(frozen=True)
class GrowthEstimate(Report):
    rho_est: float
    s_est: float
    residual: float
    window: tuple
    samples: tuple


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
    ys = _log_norms_of_powers(A.to_float(), schedule)
    plan, Y = fit_plan(schedule), np.array([ys])
    (a,), _, (rms,), window = joint_rate_fit(plan, Y, fraction=64)
    (s_est,), _, _ = log_slope_fit(plan, Y - a * plan.ns)
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

    mu_A is the exact minimal polynomial, so used_char_poly is always False.
    """
    coeffs, used_char = min_poly(A)
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
