"""Property tests of the fraction-free exact layer: inverse, determinant,
characteristic and minimal polynomials and square-free split, against exact
integer identities and two independent references (the Faddeev-LeVerrier
recursion for the characteristic polynomial, the first rational dependence
of vec(I), vec(A), vec(A^2), ... for the minimal polynomial)."""

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


def faddeev_leverrier(A):
    """Reference characteristic polynomial: M_k = A (M_{k-1} + c_{k-1} I),
    c_k = -tr(M_k) / k, every division exact over the integers."""
    n = A.dim
    coeffs = [1]
    M = A
    for k in range(1, n + 1):
        if k > 1:
            M = A @ IntMatrix(
                tuple(
                    tuple(x + (coeffs[-1] if i == j else 0) for j, x in enumerate(row))
                    for i, row in enumerate(M.entries)
                )
            )
        q, r = divmod(-sum(M.entries[i][i] for i in range(n)), k)
        assert r == 0
        coeffs.append(q)
    return coeffs


def reference_min_poly(A):
    """First dependence of vec(I), vec(A), vec(A^2), ... over the rationals."""
    n = A.dim
    reduced = []  # (pivot, vector, its combination of the powers)
    P = IntMatrix.identity(n)
    for k in range(n + 1):
        v = [Fraction(x) for row in P.entries for x in row]
        comb = [Fraction(int(i == k)) for i in range(n + 1)]
        for pivot, w, cw in reduced:
            f = v[pivot] / w[pivot]
            v = [a - f * b for a, b in zip(v, w)]
            comb = [a - f * b for a, b in zip(comb, cw)]
        pivot = next((i for i, x in enumerate(v) if x), None)
        if pivot is None:
            assert all(c.denominator == 1 for c in comb)
            return [int(c) for c in reversed(comb[: k + 1])]
        reduced.append((pivot, v, comb))
        P = P @ A
    raise AssertionError("no dependence among the first n + 1 powers")


def direct_sum(*blocks):
    n = sum(len(b) for b in blocks)
    rows = []
    offset = 0
    for b in blocks:
        for row in b:
            rows.append((0,) * offset + tuple(row) + (0,) * (n - offset - len(row)))
        offset += len(b)
    return rows


def jordan_block(lam, n):
    return [[lam if j == i else int(j == i + 1) for j in range(n)] for i in range(n)]


@st.composite
def derogatory_matrices(draw):
    """U D U^-1 for a derogatory D: a direct sum with a repeated block, a
    scalar matrix, or J_n(lam) + J_m(lam); U is a random unimodular matrix."""
    shape = draw(st.sampled_from(["repeated", "scalar", "jordan"]))
    if shape == "repeated":
        B = draw(int_matrices(max_n=3, bound=3)).entries
        C = draw(int_matrices(max_n=2, bound=3)).entries
        D = direct_sum(B, B, *([C] if draw(st.booleans()) else []))
    elif shape == "scalar":
        c, n = draw(st.integers(-3, 3)), draw(st.integers(2, 6))
        D = [[c * int(i == j) for j in range(n)] for i in range(n)]
    else:
        lam = draw(st.integers(-2, 2))
        D = direct_sum(jordan_block(lam, draw(st.integers(1, 4))),
                       jordan_block(lam, draw(st.integers(1, 4))))
    U = random_unimodular(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), len(D),
                          steps=8, bound=1)
    return U @ IntMatrix(tuple(map(tuple, D))) @ inverse_unimodular(U)


def assert_minimal_polynomial(A, mu):
    """mu(A) = 0, mu | chi, and mu / f kills A for no Yun factor f of mu."""
    assert mu[0] == 1
    assert is_zero(poly_at(mu, A))
    _, rem = poly_divmod(char_poly(A), mu)
    assert not any(rem)
    for f, _ in squarefree_decomposition(mu):
        quotient, rem = poly_divmod(mu, f)
        assert not any(rem)
        assert not is_zero(poly_at([int(c) for c in quotient], A))


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
    assert not used_char
    assert_minimal_polynomial(A, mu)
    assert mu == reference_min_poly(A)


@EXACT
@hypothesis.given(int_matrices(max_n=7))
def test_char_poly_matches_faddeev_leverrier(A):
    assert char_poly(A) == faddeev_leverrier(A)


@EXACT
@hypothesis.given(int_matrices(max_n=7))
def test_char_poly_is_det_of_k_minus_a(A):
    chi = char_poly(A)
    n = A.dim
    for k in range(n + 1):
        kI_minus_A = tuple(
            tuple(k * int(i == j) - x for j, x in enumerate(row)) for i, row in enumerate(A.entries)
        )
        value = 0
        for c in chi:
            value = value * k + c
        assert value == det_exact(IntMatrix(kI_minus_A))


@EXACT
@hypothesis.given(derogatory_matrices())
def test_derogatory_chains_and_lcm(A):
    assert char_poly(A) == faddeev_leverrier(A)
    mu, used_char = min_poly(A)
    assert not used_char
    assert_minimal_polynomial(A, mu)
    assert mu == reference_min_poly(A)
    assert len(mu) < len(char_poly(A))  # derogatory: mu is a proper divisor


def test_lcm_of_chain_polynomials():
    # mu_{e_0} = x - 1 already kills e_1; e_2 adds the factor x - 2
    A = IntMatrix(((1, 0, 0), (0, 1, 0), (0, 0, 2)))
    assert min_poly(A) == ([1, -3, 2], False)
    assert char_poly(A) == [1, -4, 5, -2]


@pytest.mark.parametrize("n", [6, 16])
def test_min_poly_of_cyclic_matrix_is_char_poly(n):
    A = IntMatrix(tuple(map(tuple, np.random.default_rng(n).integers(-3, 4, size=(n, n)).tolist())))
    chi = char_poly(A)
    assert squarefree_decomposition(chi) == [(chi, 1)]  # square-free, so cyclic
    assert min_poly(A) == (chi, False)


def test_min_poly_of_cyclic_matrix_with_repeated_roots():
    chi = poly_mul([1, -3, 3, -1], [1, 4, 4])  # (x - 1)^3 (x + 2)^2
    companion = [[int(j == i - 1) for j in range(4)] + [-chi[5 - i]] for i in range(5)]
    U = random_unimodular(np.random.default_rng(5), 5)
    C = U @ IntMatrix(tuple(map(tuple, companion))) @ inverse_unimodular(U)
    assert char_poly(C) == chi
    assert min_poly(C) == (chi, False)


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
