"""Property tests of the fraction-free exact layer: inverse, determinant,
minimal polynomial and square-free split, against exact integer identities."""

from fractions import Fraction

import numpy as np
import pytest

from stabdyn.errors import SingularMatrix, SingularPairing
from stabdyn.families import random_unimodular
from stabdyn.lattice import (
    IntMatrix,
    char_poly,
    det_exact,
    inverse_unimodular,
    min_poly,
    rational_inverse,
    squarefree_decomposition,
)
from stabdyn.stability import CentralCharge
from stabdyn.volume import EulerPairing, isotropy_defect, volume

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

EXACT = hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def int_matrices(draw, max_n=5, bound=4):
    n = draw(st.integers(1, max_n))
    rows = draw(
        st.lists(
            st.lists(st.integers(-bound, bound), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    return IntMatrix(tuple(map(tuple, rows)))


def scalar_times(c, A):
    return tuple(tuple(c * x for x in row) for row in A.entries)


def poly_at(coeffs, A):
    """Exact Horner evaluation of a descending integer polynomial at A."""
    acc = IntMatrix(scalar_times(0, A))
    for c in coeffs:
        acc = IntMatrix(
            tuple(
                tuple(x + (c if i == j else 0) for j, x in enumerate(row))
                for i, row in enumerate((acc @ A).entries)
            )
        )
    return acc.entries


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_divmod(a, b):
    """Reference long division over the rationals (descending coefficients)."""
    r = [Fraction(x) for x in a]
    q = []
    while len(r) >= len(b):
        c = r[0] / b[0]
        q.append(c)
        r = [x - c * y for x, y in zip(r, list(b) + [0] * (len(r) - len(b)))][1:]
    return q, r


def rational_gcd_degree(a, b):
    while any(b):
        _, r = poly_divmod(a, b)
        while r and r[0] == 0:
            r = r[1:]
        a, b = b, r
    return len(a) - 1


def derivative(c):
    n = len(c) - 1
    return [c[i] * (n - i) for i in range(n)]


def is_zero(rows):
    return all(x == 0 for row in rows for x in row)


@EXACT
@hypothesis.given(int_matrices())
def test_rational_inverse_is_adjugate_over_det(A):
    det = det_exact(A)
    assert det == round(np.linalg.det(A.to_float()))
    if det == 0:
        with pytest.raises(SingularMatrix):
            rational_inverse(A)
        return
    N, d = rational_inverse(A)
    assert d == abs(det)
    assert (A @ IntMatrix(N)).entries == scalar_times(d, IntMatrix.identity(A.dim))


@EXACT
@hypothesis.given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_inverse_unimodular_roundtrip(n, seed):
    P = random_unimodular(np.random.default_rng(seed), n)
    Pi = inverse_unimodular(P)
    assert (P @ Pi).entries == IntMatrix.identity(n).entries
    assert (Pi @ P).entries == IntMatrix.identity(n).entries


@EXACT
@hypothesis.given(int_matrices())
def test_min_poly_is_the_minimal_annihilator(A):
    mu, used_char = min_poly(A)
    assert not used_char and mu[0] == 1
    assert is_zero(poly_at(mu, A))
    _, rem = poly_divmod(char_poly(A), mu)
    assert not any(rem)
    for f, _ in squarefree_decomposition(mu):
        quotient, rem = poly_divmod(mu, f)
        assert not any(rem)
        assert not is_zero(poly_at([int(c) for c in quotient], A))


@EXACT
@hypothesis.given(int_matrices())
def test_squarefree_split_rebuilds_char_poly(A):
    chi = char_poly(A)
    prod = [1]
    for f, i in squarefree_decomposition(chi):
        assert f[0] == 1 and len(f) > 1
        assert rational_gcd_degree(f, derivative(f)) == 0
        for _ in range(i):
            prod = poly_mul(prod, f)
    assert prod == chi


def test_one_by_one():
    A = IntMatrix(((-3,),))
    assert det_exact(A) == -3
    assert rational_inverse(A) == (((-1,),), 3)
    assert min_poly(A) == ([1, 3], False)
    assert squarefree_decomposition(char_poly(A)) == [([1, 3], 1)]


@pytest.mark.parametrize("n", [1, 2, 5])
def test_zero_matrix(n):
    A = IntMatrix(((0,) * n,) * n)
    assert det_exact(A) == 0
    with pytest.raises(SingularMatrix):
        rational_inverse(A)
    with pytest.raises(ValueError):
        inverse_unimodular(A)
    assert min_poly(A) == ([1, 0], False)
    assert squarefree_decomposition(char_poly(A)) == [([1, 0], n)]


@pytest.mark.parametrize("n", [2, 4, 7])
def test_nilpotent_jordan_block(n):
    J = IntMatrix(tuple(tuple(1 if j == i + 1 else 0 for j in range(n)) for i in range(n)))
    assert det_exact(J) == 0
    assert min_poly(J) == ([1] + [0] * n, False)
    assert squarefree_decomposition(char_poly(J)) == [([1, 0], n)]


@pytest.mark.parametrize("c", [-2, 1, 3])
def test_scalar_matrix(c):
    n = 4
    A = IntMatrix(scalar_times(c, IntMatrix.identity(n)))
    assert det_exact(A) == c**n
    N, d = rational_inverse(A)
    assert d == abs(c) ** n
    assert N == scalar_times(c ** (n - 1) * (1 if c**n > 0 else -1), IntMatrix.identity(n))
    assert min_poly(A) == ([1, -c], False)
    assert squarefree_decomposition(char_poly(A)) == [([1, -c], n)]


def test_singular_pairing_raises():
    chi = IntMatrix(((0, 1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)))
    pairing = EulerPairing(chi=chi, cy_parity=3)
    Z = CentralCharge(((1.0, 0.0, 0.5, 0.0), (0.0, 1.0, 0.0, 0.5)))
    with pytest.raises(SingularPairing):
        volume(Z, pairing)
    with pytest.raises(SingularPairing):
        isotropy_defect(Z, pairing)
