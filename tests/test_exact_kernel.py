"""Property tests of the fraction-free exact layer: inverse, determinant,
characteristic and minimal polynomials and square-free split, against exact
integer identities and two independent references (the Faddeev-LeVerrier
recursion for the characteristic polynomial, the first rational dependence
of vec(I), vec(A), vec(A^2), ... for the minimal polynomial), plus the work
and exactness guarantees of the Gaussian Bareiss sweep itself and of the
bounded int64 kernels (the matrix-polynomial evaluation against a Python-int
Horner reference, the certified float inverse against rational_inverse)."""

import operator
from fractions import Fraction

import numpy as np
import pytest

from stabdyn import lattice
from stabdyn.errors import SingularMatrix, SingularPairing
from stabdyn.families import random_unimodular
from stabdyn.lattice import (
    IntMatrix,
    _Bareiss,
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


# ---------------------------------------------------------------------------
# the Gaussian sweep: work, minors and exactness


class Counted(int):
    """An int that counts the products it takes part in; arithmetic on it
    stays Counted, so every product inside the eliminator is seen."""

    products = 0

    def __mul__(self, other):
        Counted.products += 1
        return Counted(int(self) * int(other))

    __rmul__ = __mul__


def _counted_op(op):
    return lambda self, other: Counted(op(int(self), int(other)))


for _name, _op in [("add", operator.add), ("sub", operator.sub), ("floordiv", operator.floordiv)]:
    setattr(Counted, "__%s__" % _name, _counted_op(_op))
    setattr(Counted, "__r%s__" % _name, _counted_op(lambda a, b, op=_op: op(b, a)))


def dense(n, seed, bound=3):
    rng = np.random.default_rng(seed)
    return IntMatrix(tuple(map(tuple, rng.integers(-bound, bound + 1, size=(n, n)).tolist())))


def reference_det(rows):
    """det by the Faddeev-LeVerrier constant term, chi(0) = (-1)^n det."""
    M = IntMatrix(tuple(map(tuple, rows)))
    return (-1) ** M.dim * faddeev_leverrier(M)[-1]


def minor(columns, rows):
    return reference_det([[col[r] for col in columns] for r in rows])


def test_pivot_rows_keep_the_minor_they_held_when_taken():
    n = 7
    A = dense(n, 11)
    cols = [list(c) for c in zip(*A.entries)]
    elim = _Bareiss()
    for col in cols:
        assert elim.feed(col) is None
    r = elim.rows
    for t in range(n):
        assert elim.steps[t][1] == minor(cols[: t + 1], r[: t + 1])
        # pivot column t on the rows taken before it: the minor of each row
        # at the step that took it, never rewritten by the steps after
        for s in range(t):
            assert elim.upper[t][s] == minor(cols[:s] + [cols[t]], r[: s + 1])


def test_feed_reduces_only_the_untaken_rows():
    n = 9
    A = dense(n, 3)
    elim = _Bareiss()
    Counted.products = 0
    for k, col in enumerate(zip(*A.entries)):
        before = Counted.products
        assert elim.feed([Counted(x) for x in col]) is None
        work = Counted.products - before
        # step s (1-based) updates the n - s rows still untaken after it:
        # two products per row, plus at most one for the exactness check
        untaken = sum(n - s for s in range(1, k + 1))
        assert 2 * untaken <= work <= 2 * untaken + k
        assert k == 0 or work < 2 * n * k  # a Gauss-Jordan step rewrites all n rows
    for s, (_, _, column) in enumerate(elim.steps, start=1):
        assert len(column) == n - s
    assert sorted(elim.rows) == list(range(n))


def test_inexact_division_raises_in_feed():
    elim = _Bareiss()
    assert elim.feed((2, 1, 1)) is None
    assert elim.feed((0, 1, 0)) is None
    j, p, column = elim.steps[1]
    elim.steps[1] = (j, p, [column[0] + 1])  # plant a wrong entry
    with pytest.raises(ArithmeticError):
        elim.feed((1, 0, 1))


def test_inexact_division_raises_in_solve():
    elim = _Bareiss()
    assert elim.feed((2, 1)) is None
    assert elim.feed((0, 1)) is None
    y = elim.feed((1, 0))  # = (1/2) x_0 - (1/2) x_1
    with pytest.raises(ArithmeticError):
        elim.solve(y)
    assert elim.solve(y, 0, elim.pivot) == [1, -1]
    with pytest.raises(ArithmeticError):
        elim.solve(y, 1)


def derogatory(n, seed):
    """U (B + B + B + B + J_2(1) + J_2(1)) U^-1 with a random integer block B."""
    rng = np.random.default_rng(seed)
    k = (n - 4) // 4
    B = rng.integers(-2, 3, size=(k, k)).tolist()
    D = direct_sum(B, B, B, B, jordan_block(1, 2), jordan_block(1, 2))
    U = random_unimodular(rng, n, steps=3 * n, bound=1)
    return U @ IntMatrix(tuple(map(tuple, D))) @ inverse_unimodular(U)


@pytest.mark.parametrize("n", [32, 48])
@pytest.mark.parametrize("shape", ["dense", "derogatory"])
def test_large_matrices_match_the_references(n, shape):
    A = dense(n, n) if shape == "dense" else derogatory(n, n)
    chi = faddeev_leverrier(A)
    assert char_poly(A) == chi
    det = (-1) ** n * chi[-1]
    assert det_exact(A) == det != 0
    N, d = rational_inverse(A)
    assert d == abs(det)
    assert (A @ IntMatrix(N)).entries == scalar_times(d, IntMatrix.identity(n))
    mu, used_char = min_poly(A)
    assert not used_char
    if shape == "dense":
        assert squarefree_decomposition(chi) == [(chi, 1)]  # square-free, so mu = chi
        assert mu == chi
    else:
        assert len(mu) < len(chi)
        assert mu == reference_min_poly(A)


# ---------------------------------------------------------------------------
# the square-free certificate mod 2^31 - 1


def _count_prs(monkeypatch):
    calls = []
    prs = lattice._poly_gcd

    def counted(a, b):
        calls.append((a, b))
        return prs(a, b)

    monkeypatch.setattr(lattice, "_poly_gcd", counted)
    return calls


@pytest.mark.parametrize(
    "p, split",
    [
        # square-free over Q, but x^2 mod q
        ([1, 0, 2**31 - 1], [([1, 0, 2**31 - 1], 1)]),
        # (x - 1)^2 (x + 2)
        ([1, 0, -3, 2], [([1, 2], 1), ([1, -1], 2)]),
    ],
)
def test_certificate_falls_through_to_the_prs(monkeypatch, p, split):
    calls = _count_prs(monkeypatch)
    assert squarefree_decomposition(p) == split
    assert calls


def test_certificate_settles_a_square_free_char_poly(monkeypatch):
    chi = char_poly(dense(16, 16))
    calls = _count_prs(monkeypatch)
    assert squarefree_decomposition(chi) == [(chi, 1)]
    assert not calls
    assert rational_gcd_degree(chi, derivative(chi)) == 0


# ---------------------------------------------------------------------------
# random_unimodular against its dense-product definition


def reference_unimodular(rng, n, steps=14, bound=2):
    """The product of shears I + c e_i e_j^T as dense matrix products."""
    P = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        E = [[int(a == b) for b in range(n)] for a in range(n)]
        E[int(i)][int(j)] = int(rng.integers(-bound, bound + 1))
        P = [[sum(P[a][k] * E[k][b] for k in range(n)) for b in range(n)] for a in range(n)]
    return P


@pytest.mark.parametrize("n", range(2, 21))
def test_random_unimodular_matches_the_dense_products(n):
    for seed in range(10):
        for steps, bound in [(14, 2), (n + 6, 1)]:
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            P = random_unimodular(rng, n, steps=steps, bound=bound)
            assert [list(row) for row in P.entries] == reference_unimodular(ref_rng, n, steps, bound)
            assert rng.integers(0, 2**62) == ref_rng.integers(0, 2**62)  # same draws


# ---------------------------------------------------------------------------
# int64 kernels under a bound: _poly_at and the certified unimodular inverse


def poly_apply(A, coeffs, v):
    """coeffs(A) v by Horner's rule from c_0 v in Python ints, one vector at
    a time: the reference for lattice._poly_at."""
    acc = [coeffs[0] * x for x in v]
    for c in coeffs[1:]:
        acc = [sum(map(operator.mul, row, acc)) + c * x for row, x in zip(A.entries, v)]
    return acc


# entry sizes: small; near 2^31, where Horner leaves int64 after a few steps;
# near 2^62, where the first product already would wrap; beyond int64
SCALES = (4, 2**31, 2**62, 2**64)


@st.composite
def scaled_ints(draw, scale):
    if scale == 4:
        return draw(st.integers(-4, 4))
    return draw(st.sampled_from((-1, 1))) * (scale + draw(st.integers(-4, 4)))


@st.composite
def poly_at_cases(draw):
    n, k = draw(st.integers(1, 5)), draw(st.integers(0, 4))
    a_scale = draw(st.sampled_from(SCALES))
    x_scale, c_scale = (draw(st.sampled_from((4, 4) + SCALES[1:])) for _ in range(2))
    A = IntMatrix(tuple(tuple(draw(scaled_ints(a_scale)) for _ in range(n)) for _ in range(n)))
    X = [[draw(scaled_ints(x_scale)) for _ in range(k)] for _ in range(n)]
    coeffs = draw(st.lists(scaled_ints(c_scale), min_size=1, max_size=7))
    return A, coeffs, X


@EXACT
@hypothesis.given(poly_at_cases())
def test_poly_at_matches_the_python_int_reference(case):
    A, coeffs, X = case
    got = lattice._poly_at(lattice._int_array(A.entries), coeffs, X).T.tolist()
    want = [poly_apply(A, coeffs, col) for col in zip(*X)]
    assert got == want
    assert all(type(x) is int for col in got for x in col)


@pytest.mark.parametrize(
    "coeffs, X, wide",
    [
        ([1, 0, 0], [[1]], False),  # 2^62 still fits
        ([1, 0, 0, 0], [[1]], True),  # the third product would reach 2^93
        ([2**62, 1], [[2]], True),  # c_0 X alone would wrap
    ],
)
def test_poly_at_leaves_int64_at_the_first_step_the_bound_fails(coeffs, X, wide):
    A = IntMatrix(((2**31,),))
    got = lattice._poly_at(lattice._int_array(A.entries), coeffs, X)
    assert (got.dtype == object) == wide
    assert got.tolist() == [poly_apply(A, coeffs, [X[0][0]])]


def test_min_poly_and_jordan_data_of_a_block_map_beyond_int64():
    # entries near 2^40: the coefficients of (x - 2^40)^2 pass 2^63, so the
    # lcm is tested on Python ints
    J = jordan_block(2**40, 2)
    A = IntMatrix(direct_sum(J, J, ((2**40 + 1,),)))
    mu, _ = min_poly(A)
    assert mu == poly_mul(poly_mul([1, -(2**40)], [1, -(2**40)]), [1, -(2**40 + 1)])
    assert_minimal_polynomial(A, mu)
    pieces = lattice._jordan_pieces(A, char_poly(A))
    assert sorted(pieces) == [([1, -(2**40 + 1)], 1, (1,)), ([1, -(2**40)], 4, (2, 2))]


@EXACT
@hypothesis.given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_inverse_unimodular_equals_rational_inverse(n, seed, bound):
    P = random_unimodular(np.random.default_rng(seed), n, steps=3 * n, bound=bound)
    assert inverse_unimodular(P).entries == rational_inverse(P)[0]


def test_certified_float_inverse_answers_small_unimodular_maps():
    P = IntMatrix(((2, 1), (1, 1)))
    assert lattice._float_inverse(P).tolist() == [[1, -1], [-1, 2]]


def test_inverse_beyond_two_to_the_53_takes_the_bareiss_route(monkeypatch):
    # (I - 3S)^-1 = sum_k 3^k S^k: 3^35 has no float64, so the rounded
    # candidate fails P N = I (the int64 bound 36 * 3 * 3^35 < 2^63 holds)
    n = 36
    P = IntMatrix(tuple(tuple(1 if i == j else -3 if j == i + 1 else 0 for j in range(n))
                        for i in range(n)))
    N, d = rational_inverse(P)
    assert d == 1 and max(abs(x) for row in N for x in row) == 3**35 > 2**53
    assert n * 3 * 3**35 < 2**63
    assert lattice._float_inverse(P) is None
    calls = []
    monkeypatch.setattr(lattice, "rational_inverse",
                        lambda A: calls.append(A) or rational_inverse(A))
    assert inverse_unimodular(P).entries == N
    assert calls == [P]


@pytest.mark.parametrize("a, guard", [(2**53, 0), (2**40, 1), (2**21, 2)],
                         ids=["entries", "float-inverse", "product"])
def test_each_float_inverse_guard_hands_over_to_rational_inverse(monkeypatch, a, guard):
    # P = I + a S on rank 3 has inverse I - a S + a^2 S^2.  Entries of 2^53
    # have no exact float64; at 2^40 the float inverse reaches a^2 = 2^80,
    # past 2^62; at 2^21 it stays below, but 3 a a^2 = 3 2^63 could wrap the
    # int64 check P N = I
    P = IntMatrix(((1, a, 0), (0, 1, a), (0, 0, 1)))
    assert [a >= 2**53, a * a >= 2**62, 3 * a * a * a >= 2**63].index(True) == guard
    assert lattice._float_inverse(P) is None
    calls = []
    monkeypatch.setattr(lattice, "rational_inverse",
                        lambda A: calls.append(A) or rational_inverse(A))
    assert inverse_unimodular(P).entries == ((1, -a, a * a), (0, 1, -a), (0, 0, 1))
    assert calls == [P]


@pytest.mark.parametrize("rows", [((2, 0), (0, 1)), ((1, 2), (1, 4)), ((1, 1), (1, 1))])
def test_inverse_unimodular_rejects_a_non_unimodular_map(rows):
    with pytest.raises(ValueError, match="not unimodular"):
        inverse_unimodular(IntMatrix(rows))
