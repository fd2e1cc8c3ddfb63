import math

import numpy as np
import pytest

from stabdyn import families, lattice
from stabdyn.errors import DegenerateSpectrum
from stabdyn.lattice import (
    IntMatrix,
    char_poly,
    det_exact,
    growth_rate_estimate,
    inverse_unimodular,
    log_norm_of_power,
    min_poly,
    min_poly_root_transfer,
    poly_growth_rate,
    spectral_data,
    spectral_radius,
    squarefree_decomposition,
)

GOLDEN2 = (3.0 + math.sqrt(5.0)) / 2.0  # larger root of x^2 - 3x + 1


def M(rows):
    return IntMatrix(tuple(tuple(r) for r in rows))


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


# --- characteristic polynomial ------------------------------------------------


def test_char_poly_identity():
    assert char_poly(M([[1, 0], [0, 1]])) == [1, -2, 1]


def test_char_poly_fibonacci_like():
    # det(xI - A) expanded by hand: (x-2)(x-1) - 1 = x^2 - 3x + 1
    assert char_poly(M([[2, 1], [1, 1]])) == [1, -3, 1]


def test_char_poly_upper_triangular():
    # upper-triangular determinant: (x-1)^2
    assert char_poly(M([[1, 3], [0, 1]])) == [1, -2, 1]


def test_char_poly_transpose_invariant():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        A = M(rng.integers(-4, 5, size=(n, n)).tolist())
        assert char_poly(A) == char_poly(A.transpose())


def test_char_poly_block_diagonal_multiplies():
    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.integers(-3, 4, size=(2, 2)).tolist()
        b = rng.integers(-3, 4, size=(3, 3)).tolist()
        block = [[0] * 5 for _ in range(5)]
        for i in range(2):
            for j in range(2):
                block[i][j] = int(a[i][j])
        for i in range(3):
            for j in range(3):
                block[2 + i][2 + j] = int(b[i][j])
        assert char_poly(M(block)) == poly_mul(char_poly(M(a)), char_poly(M(b)))


def test_char_poly_matches_numpy_roots_product():
    A = M([[0, -1, 2], [1, 1, 0], [3, 0, 1]])
    coeffs = char_poly(A)
    roots = np.roots(np.array(coeffs, dtype=float))
    rebuilt = np.poly(roots)
    assert np.allclose(rebuilt, np.array(coeffs, dtype=float), atol=1e-8)


def test_min_poly_divides_and_detects_multiplicity():
    # diag blocks J2(1) + J1(1): char = (x-1)^3, min = (x-1)^2
    A = M([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    coeffs, used_char = min_poly(A)
    assert coeffs == [1, -2, 1]
    assert not used_char
    assert char_poly(A) == [1, -3, 3, -1]


def test_squarefree_decomposition():
    # (x-1)^2 (x-2)
    p = poly_mul(poly_mul([1, -1], [1, -1]), [1, -2])
    parts = squarefree_decomposition(p)
    assert ([1, -2], 1) in parts
    assert ([1, -1], 2) in parts


# --- spectral radius ----------------------------------------------------------


def test_spectral_radius_identity():
    assert spectral_radius(M([[1, 0], [0, 1]])) == pytest.approx(1.0, abs=1e-12)


def test_spectral_radius_unipotent_any_shear():
    for d in (-5, -1, 1, 3, 17):
        assert spectral_radius(M([[1, d], [0, 1]])) == pytest.approx(1.0, abs=1e-9)


def test_spectral_radius_hyperbolic():
    assert spectral_radius(M([[2, 1], [1, 1]])) == pytest.approx(GOLDEN2, abs=1e-10)


def test_spectral_radius_power_compatibility():
    A = M([[2, 1], [1, 1]])
    rho = spectral_radius(A)
    for k in range(1, 6):
        assert spectral_radius(A.power(k)) == pytest.approx(rho**k, rel=1e-9)


# --- Jordan growth ------------------------------------------------------------


def test_poly_growth_rate_identity():
    assert poly_growth_rate(M([[1, 0], [0, 1]])) == 0


def test_poly_growth_rate_single_jordan_block():
    assert poly_growth_rate(M([[1, 3], [0, 1]])) == 1


def test_poly_growth_rate_diagonal():
    assert poly_growth_rate(M([[2, 0], [0, 1]])) == 0


def test_poly_growth_rate_big_block():
    # J3(2) + J1(2): s = 2
    A = M([[2, 1, 0, 0], [0, 2, 1, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
    assert poly_growth_rate(A) == 2
    data = spectral_data(A)
    assert data.eigenvalues[0].block_sizes == (3, 1)


def test_poly_growth_rate_only_counts_top_modulus():
    # J2(1) below a simple eigenvalue 3: s = 0
    A = M([[3, 0, 0], [0, 1, 1], [0, 0, 1]])
    assert poly_growth_rate(A) == 0


def test_jordan_profile_sums_to_dim():
    rng = np.random.default_rng(3)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        A = M(rng.integers(-3, 4, size=(n, n)).tolist())
        data = spectral_data(A)
        assert sum(ev.multiplicity for ev in data.eigenvalues) == n
        assert all(sum(ev.block_sizes) == ev.multiplicity for ev in data.eigenvalues)


def test_eigenvalue_product_reconstructs_char_poly():
    rng = np.random.default_rng(19)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        A = M(rng.integers(-3, 4, size=(n, n)).tolist())
        data = spectral_data(A)
        roots = []
        for ev in data.eigenvalues:
            roots.extend([ev.value] * ev.multiplicity)
        rebuilt = np.poly(np.array(roots))
        coeffs = np.array(data.char_poly, dtype=float)
        scale = max(1.0, float(np.max(np.abs(coeffs))))
        assert np.max(np.abs(rebuilt - coeffs)) <= 1e-8 * scale


def test_similarity_invariance_under_unimodular_conjugation():
    rng = np.random.default_rng(5)
    A = M([[1, 3, 0], [0, 1, 0], [0, 0, 2]])
    s_ref = poly_growth_rate(A)
    for _ in range(8):
        P = random_unimodular(rng, 3)
        Pi = inverse_unimodular(P)
        B = P @ A @ Pi
        assert poly_growth_rate(B) == s_ref
        assert char_poly(B) == char_poly(A)


def random_unimodular(rng, n, steps=12):
    P = IntMatrix.identity(n)
    for _ in range(steps):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        c = int(rng.integers(-2, 3))
        E = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        E[int(i)][int(j)] = c
        P = P @ M(E)
    return P


def test_degenerate_spectrum_reports_moduli():
    # moduli 1000001/1000000 vs 1: relative gap 1e-6 falls in the guard band
    A = M([[1000001, 0], [0, 1000000]])
    with pytest.raises(DegenerateSpectrum) as err:
        spectral_data(A, cluster_tol=2e-7)
    assert len(err.value.moduli) == 2


def test_nilpotent_matrix_has_radius_zero_and_no_polynomial_rate():
    A = M([[0, 1], [0, 0]])
    data = spectral_data(A)
    assert (data.rho, data.s, [ev.block_sizes for ev in data.eigenvalues]) == (0.0, 0, [(2,)])
    assert spectral_radius(A) == 0.0
    with pytest.raises(ValueError, match="requires a positive spectral radius"):
        poly_growth_rate(A)


def test_spectral_radius_answers_in_the_cluster_guard_band():
    # the default cluster_tol 1e-7 puts a relative gap of 1e-6 inside the
    # guard band; the band decides s, which spectral_data still refuses, but
    # rho is the largest certified modulus either way
    A = M([[1000001, 0], [0, 1000000]])
    assert spectral_radius(A) == 1000001.0
    with pytest.raises(DegenerateSpectrum):
        spectral_data(A)


# --- norm growth estimation ---------------------------------------------------


def test_log_norm_of_power_matches_direct():
    A = M([[2, 1], [1, 1]])
    Af = A.to_float()
    for n in (1, 2, 3, 7, 12):
        direct = math.log(np.linalg.norm(np.linalg.matrix_power(Af, n)))
        assert log_norm_of_power(Af, n) == pytest.approx(direct, rel=1e-12)


def test_growth_rate_estimate_identity():
    est = growth_rate_estimate(M([[1, 0], [0, 1]]))
    assert est.rho_est == pytest.approx(1.0, abs=1e-9)
    assert est.s_est == pytest.approx(0.0, abs=1e-6)


def test_growth_rate_estimate_identity_dyadic_schedule():
    est = growth_rate_estimate(M([[1, 0], [0, 1]]), schedule=[2**k for k in range(21)])
    assert est.rho_est == pytest.approx(1.0, abs=1e-9)
    assert est.s_est == pytest.approx(0.0, abs=1e-6)


def test_growth_rate_estimate_rejects_bad_schedule():
    with pytest.raises(ValueError):
        growth_rate_estimate(M([[1, 0], [0, 1]]), schedule=[4, 2, 8])


def test_growth_rate_estimate_unipotent():
    est = growth_rate_estimate(M([[1, 3], [0, 1]]))
    assert est.rho_est == pytest.approx(1.0, abs=1e-6)
    assert est.s_est == pytest.approx(1.0, abs=0.1)


def test_growth_rate_estimate_hyperbolic():
    est = growth_rate_estimate(M([[2, 1], [1, 1]]))
    assert est.rho_est == pytest.approx(GOLDEN2, abs=1e-6)
    assert est.s_est == pytest.approx(0.0, abs=0.05)


def test_estimates_agree_with_exact_spectrum():
    rng = np.random.default_rng(17)
    checked = 0
    while checked < 30:
        n = int(rng.integers(2, 7))
        A = M(rng.integers(-3, 4, size=(n, n)).tolist())
        rho = spectral_radius(A)
        if rho == 0.0:
            continue
        est = growth_rate_estimate(A)
        assert abs(rho - est.rho_est) <= 1e-5
        if est.residual < 0.05:
            assert round(est.s_est) == poly_growth_rate(A)
        checked += 1


# --- minimal polynomial transfer ----------------------------------------------


def test_min_poly_transfer_identity():
    res = min_poly_root_transfer(M([[1, 0], [0, 1]]), np.eye(2))
    assert bool(res)
    assert not res.used_char_poly


def test_min_poly_transfer_unipotent():
    A = M([[1, 1], [0, 1]])
    res = min_poly_root_transfer(A, np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert bool(res)


def test_min_poly_transfer_rejects_foreign_eigenvalues():
    A = M([[2, 0], [0, 3]])
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])  # eigenvalues +-i
    assert not min_poly_root_transfer(A, rot)


def test_det_exact_matches_numpy():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        A = M(rng.integers(-4, 5, size=(n, n)).tolist())
        assert det_exact(A) == pytest.approx(np.linalg.det(A.to_float()), abs=1e-6)


def test_inverse_unimodular_roundtrip():
    rng = np.random.default_rng(29)
    for _ in range(10):
        P = random_unimodular(rng, 4)
        Pi = inverse_unimodular(P)
        assert (P @ Pi).entries == IntMatrix.identity(4).entries


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("rank", [15, 17, 19, 21])
def test_odd_rank_hyperbolic_block_map_has_jordan_data(rank, seed):
    # verified hyperbolic block maps of odd rank: B + ... + B + [1] conjugated,
    # B hyperbolic, so every eigenvalue is semisimple (the eigenvalues of B
    # have multiplicity (rank - 1) / 2 each)
    triple = families.compatible_triple(np.random.default_rng(seed), rank=rank, kind="hyperbolic")
    data = spectral_data(triple.auto.P)
    assert sorted(ev.multiplicity for ev in data.eigenvalues) == [1] + [(rank - 1) // 2] * 2
    assert all(ev.block_sizes == (1,) * ev.multiplicity for ev in data.eigenvalues)
    assert data.s == 0


# --- exact Jordan profiles ------------------------------------------------------

I_ROT = [[0, -1], [1, 0]]  # companion of x^2 + 1
GOLDEN = [[0, 1], [1, 1]]  # companion of x^2 - x - 1
PHI = (1.0 + math.sqrt(5.0)) / 2.0


def jordan_sum(blocks):
    """Direct sum of block Jordan blocks: (C, k) puts C k times on the
    diagonal with identities above it, so each root of C's (square-free)
    characteristic polynomial gets one Jordan block of size k."""
    n = sum(len(C) * k for C, k in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for C, k in blocks:
        d = len(C)
        for b in range(k):
            for i in range(d):
                rows[at + i][at : at + d] = C[i]
                if b + 1 < k:
                    rows[at + i][at + d + i] = 1
            at += d
    return M(rows)


def expected_profile(blocks):
    """{root: sorted block sizes} of jordan_sum(blocks)."""
    out = {}
    for C, k in blocks:
        roots = (1j, -1j) if C is I_ROT else (PHI, 1.0 - PHI) if C is GOLDEN else (C[0][0],)
        for r in roots:
            out.setdefault(complex(r), []).append(k)
    return {r: tuple(sorted(ks, reverse=True)) for r, ks in out.items()}


JORDAN_SUMS = [
    # (blocks, s): s is one less than the largest block on the top circle
    # J2(1)^2 + J2(2) + J1(2)^2: chi = (x^2 - 3x + 2)^4, one Yun factor whose
    # roots have the profiles (2, 2) and (2, 1, 1)
    ([([[1]], 2), ([[1]], 2), ([[2]], 2), ([[2]], 1), ([[2]], 1)], 1),
    ([([[2]], 3), ([[2]], 1), ([[-1]], 2)], 2),
    ([([[1]], 1), ([[1]], 1), ([[2]], 1), ([[2]], 3)], 2),  # (x-1)^2 (x-2)^4 after Yun
    ([([[1]], 3), ([[-1]], 1), ([[-1]], 1), ([[-1]], 1)], 2),  # one factor x^2 - 1, mixed
    ([([[0]], 2), ([[0]], 1), ([[1]], 1)], 0),
    ([(I_ROT, 2), (I_ROT, 1)], 1),
    ([(I_ROT, 1), (I_ROT, 1), (I_ROT, 1)], 0),
    ([(I_ROT, 2), ([[1]], 1), ([[1]], 1)], 1),  # (x^2 + 1)(x - 1) squared, mixed
    ([(I_ROT, 2), ([[-1]], 2), ([[2]], 1)], 0),
    ([(GOLDEN, 3), (GOLDEN, 1), (GOLDEN, 1)], 2),
    ([(GOLDEN, 2), (I_ROT, 2), ([[1]], 3)], 1),  # the 3-block of 1 is below the top
    ([(GOLDEN, 1), (GOLDEN, 2), ([[-1]], 1), ([[-1]], 2)], 1),
    ([(GOLDEN, 1), ([[-1]], 2), ([[-1]], 1)], 0),
]


@pytest.mark.parametrize("blocks, s", JORDAN_SUMS)
def test_jordan_profiles_of_unimodular_conjugates_are_exact(blocks, s):
    J = jordan_sum(blocks)
    want = expected_profile(blocks)
    rng = np.random.default_rng(len(blocks) * 7 + s)
    for P in [IntMatrix.identity(J.dim)] + [random_unimodular(rng, J.dim) for _ in range(3)]:
        data = spectral_data(P @ J @ inverse_unimodular(P))
        got = {}
        for ev in data.eigenvalues:
            root = min(want, key=lambda r: abs(r - ev.value))
            assert abs(root - ev.value) < 1e-9
            assert root not in got
            got[root] = ev.block_sizes
            assert ev.multiplicity == sum(ev.block_sizes)
        assert got == want
        assert data.s == s


def test_kernel_vectors_are_killed_exactly():
    rng = np.random.default_rng(31)
    for _ in range(40):
        n = int(rng.integers(1, 8))
        r = int(rng.integers(0, n + 1))
        B = rng.integers(-4, 5, size=(n, r)) @ rng.integers(-4, 5, size=(r, n))  # rank <= r
        cols = B.T.tolist()
        basis = lattice._kernel(cols)
        assert len(basis) == n - np.linalg.matrix_rank(B)
        for v in basis:
            assert any(v)
            assert [sum(col[i] * x for col, x in zip(cols, v)) for i in range(n)] == [0] * n
    # entries far beyond float precision stay exact
    big = 10**30
    cols = [[big, 3 * big], [2 * big, 6 * big + 1], [3 * big, 9 * big + 1]]
    (v,) = lattice._kernel(cols)
    assert [sum(col[i] * x for col, x in zip(cols, v)) for i in range(2)] == [0, 0]


def test_min_poly_failure_propagates_out_of_the_transfer(monkeypatch):
    def broken(A):
        raise ArithmeticError("Bareiss division was not exact")

    monkeypatch.setattr(lattice, "min_poly", broken)
    with pytest.raises(ArithmeticError):
        min_poly_root_transfer(M([[2, 1], [1, 1]]), np.eye(2))
