"""Reference computations for the output checks.

They share no code with stabdyn's float paths: integer matrices are lists of
Python ints and every exact check runs in integer arithmetic; the 2x2
invariants come from closed forms of the matrix entries.
"""

import math

import numpy as np

EPS = float(np.finfo(float).eps)


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def det(m):
    """Determinant of an integer matrix by Bareiss elimination."""
    m = [list(row) for row in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def poly_eval(c, x):
    acc = 0
    for coef in c:
        acc = acc * x + coef
    return acc


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_rem_monic(a, b):
    """Remainder of a by the monic integer polynomial b (descending)."""
    r = list(a)
    for i in range(len(a) - len(b) + 1):
        q = r[i]
        if q:
            for j, y in enumerate(b):
                r[i + j] -= q * y
    return r[len(a) - len(b) + 1:]


def is_char_poly(a, c):
    """Whether c (descending, monic, degree n) is det(xI - A).

    Two monic polynomials of degree n that agree at n points are equal, so
    the check compares c(k) with det(kI - A) for k = 0..n-1.
    """
    n = len(a)
    if len(c) != n + 1 or c[0] != 1:
        return False
    for k in range(n):
        shifted = [[(k if i == j else 0) - a[i][j] for j in range(n)] for i in range(n)]
        if det(shifted) != poly_eval(c, k):
            return False
    return True


def poly_at_matrix(c, a):
    """c(A) by Horner's rule in integer arithmetic."""
    n = len(a)
    acc = [[0] * n for _ in range(n)]
    for coef in c:
        acc = matmul(acc, a)
        for i in range(n):
            acc[i][i] += coef
    return acc


def rho_tolerance(a_float, s):
    """Relative error allowed between rho and the largest |eigvals(A)|.

    A Jordan block of size s+1 spreads a float eigenvalue by about
    (eps * ||A||)^(1/(s+1)); the factor 1e3 covers eigenvector conditioning.
    """
    scale = EPS * max(1.0, float(np.linalg.norm(a_float)))
    return 1e3 * scale ** (1.0 / (s + 1))


def log_rho_2x2(m):
    """log of the spectral radius of a real 2x2 matrix, from trace and det."""
    (a, b), (c, d) = m
    tr, dt = a + d, a * d - b * c
    disc = tr * tr - 4.0 * dt
    if disc <= 0.0:
        return 0.5 * math.log(dt)
    return math.log(max(abs(tr + math.sqrt(disc)), abs(tr - math.sqrt(disc))) / 2.0)


def translation_length(m):
    """log(rho / sqrt(det)) of the matrix part: the stable translation length."""
    (a, b), (c, d) = m
    return log_rho_2x2(m) - 0.5 * math.log(a * d - b * c)


def translation_number(kind, shift, m):
    """Translation number of a family triple's cover element.

    The family composes the standard lift of an SL2 matrix B with the deck
    shift, so g.m = (-1)^shift B.  Hyperbolic and parabolic B fix a ray, so
    the standard lift has translation number 0; an elliptic B rotates by
    arccos(tr B / 2), in the sense of the sign of its lower-left entry.
    """
    if kind != "elliptic":
        return float(shift)
    sign = -1.0 if shift % 2 else 1.0
    (a, _), (c, d) = m
    tr_b, c_b = sign * (a + d), sign * c
    return shift + math.copysign(math.acos(tr_b / 2.0) / math.pi, c_b)


def volume_reference(chi, charges):
    """(|sum chi^{ij} z_i conj(z_j)|, sum of the term moduli) from a float inverse."""
    inv = np.linalg.inv(np.array(chi, dtype=float))
    z = np.asarray(charges, dtype=complex)
    terms = inv * np.outer(z, z.conj())
    return float(abs(terms.sum())), float(np.abs(terms).sum())
