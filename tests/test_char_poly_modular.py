"""The multi-modular characteristic polynomial (a Hessenberg reduction over a
batch of primes plus CRT) against the Krylov chain product it replaces from
rank _CROSSOVER on, the coefficient bound that picks the primes, the
dispatch between the two paths and the lazily built prime list."""

import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest

from stabdyn import families, lattice
from stabdyn.families import random_unimodular
from stabdyn.lattice import IntMatrix, char_poly, inverse_unimodular

C = lattice._CROSSOVER


def M(rows):
    return IntMatrix(tuple(map(tuple, rows)))


def dense(n, seed, bound=3):
    rng = np.random.default_rng(seed)
    return M(rng.integers(-bound, bound + 1, size=(n, n)).tolist())


def assert_paths_agree(A):
    chi = lattice._modular_char_poly(A)
    assert chi == lattice._krylov_char_poly(A)
    assert all(type(c) is int for c in chi)
    return chi


def small_primes(limit=1000):
    return [q for q in range(3, limit, 2) if all(q % d for d in range(3, math.isqrt(q) + 1, 2))]


@pytest.mark.parametrize("n", list(range(2, 41)) + [48, 64])
def test_dense_matrices_match_the_krylov_product(n):
    assert_paths_agree(dense(n, 1000 + n))


@pytest.mark.parametrize("rank", [16, 20, 24])
@pytest.mark.parametrize("kind", ["hyperbolic", "parabolic", "elliptic"])
def test_block_maps_match_the_krylov_product(kind, rank):
    rng = np.random.default_rng(rank)
    for shift in (0, 1, -2):
        t = families.compatible_triple(rng, rank=rank, kind=kind, shift=shift)
        assert_paths_agree(t.auto.P)


def shift_matrix(n):
    return [[int(j == i + 1) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("n", [C, C + 4])
def test_structured_matrices(n):
    rng = np.random.default_rng(n)
    hessenberg = rng.integers(-3, 4, size=(n, n))
    hessenberg[np.tril_indices(n, -2)] = 0
    hessenberg[5, 4] = 0  # a subdiagonal zero splits it into two blocks
    upper = np.triu(rng.integers(-3, 4, size=(n, n)))
    diag = np.diag(rng.integers(-3, 4, size=n))
    for rows in (hessenberg, upper, diag):
        chi = assert_paths_agree(M(rows.tolist()))
        assert char_poly(M(rows.T.tolist())) == chi
    for rows in (upper, diag):
        linear = [1]
        for d in np.diag(rows).tolist():
            linear = lattice._poly_mul(linear, [1, -d])
        assert char_poly(M(rows.tolist())) == linear
    x_n = [1] + [0] * n
    assert assert_paths_agree(M(np.zeros((n, n), dtype=int).tolist())) == x_n
    assert assert_paths_agree(IntMatrix.identity(n)) == [math.comb(n, k) * (-1) ** k
                                                         for k in range(n + 1)]
    N = M(shift_matrix(n))
    assert assert_paths_agree(N) == x_n
    U = random_unimodular(rng, n, steps=3 * n, bound=1)
    assert assert_paths_agree(U @ N @ inverse_unimodular(U)) == x_n  # dense and nilpotent


def test_a_prime_dividing_the_first_pivot_swaps_in_that_image_only(monkeypatch):
    rows = dense(C, 7).entries
    p0 = lattice._primes_above(1)[0]
    rows = [list(r) for r in rows]
    rows[1][0] = p0  # h_10 = 0 mod p0 only
    A = M(rows)
    primes = lattice._primes_above(lattice._coefficient_bits(A) + 2)
    assert primes[0] == p0 and len(primes) > 1
    assert [rows[1][0] % q == 0 for q in primes] == [True] + [False] * (len(primes) - 1)
    searched = []
    flatnonzero = np.flatnonzero

    def spy(a):
        searched.append(a.copy())
        return flatnonzero(a)

    monkeypatch.setattr(np, "flatnonzero", spy)
    assert_paths_agree(A)
    # one search, in column 0 of the p0 image, below the dead pivot
    assert len(searched) == 1
    assert searched[0].tolist() == [r[0] % p0 for r in rows[2:]]


def test_tiny_primes_kill_pivots_in_every_column(monkeypatch):
    # with the primes 3, 5, 7, ... a pivot vanishes mod some prime in most
    # columns, and often the whole column below it does as well
    monkeypatch.setattr(lattice, "_PRIMES", small_primes())
    rng = np.random.default_rng(3)
    for _ in range(150):
        n = int(rng.integers(3, 10))
        A = M(rng.integers(-2, 3, size=(n, n)).tolist())
        assert_paths_agree(A)
    for n in (C, C + 1):
        assert_paths_agree(dense(n, n, bound=1))


@pytest.mark.parametrize("n", [C, C + 3])
def test_entries_beyond_int64_reduce_as_python_ints(n):
    rng = np.random.default_rng(n)
    rows = [[int(a) * 10**30 + int(b) for a, b in zip(ra, rb)]
            for ra, rb in zip(rng.integers(-3, 4, size=(n, n)).tolist(),
                              rng.integers(-9, 10, size=(n, n)).tolist())]
    A = M(rows)
    with pytest.raises(OverflowError):
        np.array(rows, dtype=np.int64)
    k_big = len(lattice._primes_above(lattice._coefficient_bits(A) + 2))
    k_small = len(lattice._primes_above(lattice._coefficient_bits(dense(n, n)) + 2))
    assert k_big > k_small + n * 3  # each row norm adds about 100 bits
    assert char_poly(A) == assert_paths_agree(A)


def sylvester_hadamard(n):
    H = np.array([[1]])
    while H.shape[0] < n:
        H = np.block([[H, H], [H, -H]])
    return H


def test_coefficient_bound_holds_and_is_tight_at_a_hadamard_matrix():
    H = M(sylvester_hadamard(C).tolist())
    chi = assert_paths_agree(H)
    # |det H| = n^(n/2) is the product of the row norms, the bound at k = n
    assert abs(chi[-1]) == C ** (C // 2) == 2**32
    assert lattice._coefficient_bits(H) >= 32
    for A in [H, dense(24, 1), dense(C, 2, bound=50), IntMatrix.identity(C)]:
        bits = lattice._coefficient_bits(A)
        assert all(abs(c) <= 2**bits for c in char_poly(A))
    assert lattice._coefficient_bits(M(np.zeros((C, C), dtype=int).tolist())) == 0.0


def counting_paths(monkeypatch):
    calls = []
    for name in ("_krylov_char_poly", "_modular_char_poly"):
        monkeypatch.setattr(lattice, name, lambda A, name=name: calls.append(name) or [1])
    return calls


def test_the_crossover_is_pinned(monkeypatch):
    assert C == 16
    calls = counting_paths(monkeypatch)
    char_poly(dense(C - 1, 1))
    char_poly(dense(C, 1))
    char_poly(dense(C + 1, 1))
    assert calls == ["_krylov_char_poly", "_modular_char_poly", "_modular_char_poly"]


def test_int64_headroom_keeps_large_ranks_on_the_krylov_path(monkeypatch):
    # every residue is below 2^26, so a product of two is below 2^52; the
    # largest sum of products the modular path forms has n of them plus a
    # residue (the recurrence), which stays below 2^63 for n < 2048
    limit = lattice._MODULAR_DIM_LIMIT
    assert limit == 2048
    top = 2**lattice._PRIME_BITS - 1
    assert (limit - 1) * top**2 + top < 2**63
    assert all(q <= top for q in lattice._primes_above(5000))
    calls = counting_paths(monkeypatch)
    for n in (limit - 1, limit, 10**6):
        char_poly(types.SimpleNamespace(dim=n))  # the dispatch reads only the rank
    assert calls == ["_modular_char_poly", "_krylov_char_poly", "_krylov_char_poly"]


def test_the_prime_list_is_the_largest_primes_below_2_26():
    primes = lattice._primes_above(5000)
    assert len(primes) == 193
    lo, hi = primes[-1], 2**26
    sieve = bytearray([1]) * (hi - lo)
    for d in range(2, math.isqrt(hi) + 1):
        start = max(d * d, (lo + d - 1) // d * d)
        sieve[start - lo :: d] = bytearray(len(sieve[start - lo :: d]))
    assert primes == [lo + i for i in range(hi - lo - 1, -1, -1) if sieve[i]]


@pytest.mark.parametrize("bits", [0, 1, 26, 52, 100, 1000, 5200])
def test_primes_above_returns_the_fewest_that_suffice(bits):
    primes = lattice._primes_above(bits)
    assert math.prod(primes) > 2**bits
    assert math.prod(primes[:-1]) <= 2**bits
    assert lattice._PRIMES[: len(primes)] == primes


def test_importing_the_cli_builds_no_primes():
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = ("import stabdyn.cli; from stabdyn import lattice; print(len(lattice._PRIMES)); "
            "lattice.char_poly(lattice.IntMatrix.identity(%d)); "
            "print(len(lattice._PRIMES) > 0)" % C)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "True"]
