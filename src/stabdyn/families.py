"""Generators for verified compatible triples and related random test data.

The construction: pick a 2x2 integer matrix B with det 1 and a unimodular
change of basis U on the rank-r lattice.  The lattice map is U (B + ... + B
+ [1]) U^{-1} (block diagonal, one trivial block when r is odd) and the
charge matrix is [I2 | I2 | ... | 0] U^{-1}, so the intertwine Z P = B Z
holds exactly and the listed semistable charges are plain integer vectors.
An optional deck shift composes the cover element with an integer translation
and flips the lattice map sign accordingly.
"""

import math

import numpy as np

from . import cover, stability
from .lattice import IntMatrix, det_exact, inverse_unimodular


def random_unimodular(rng, n, steps=14, bound=2):
    """Product of random integer shears and permutation signs; det +-1."""
    P = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        c = int(rng.integers(-bound, bound + 1))
        for row in P:  # P (I + c e_i e_j^T): column j gains c times column i
            row[j] += c * row[i]
    return IntMatrix(tuple(tuple(row) for row in P))


ELLIPTIC_SEEDS = (
    ((0, -1), (1, 0)),  # order 4
    ((0, -1), (1, -1)),  # order 3
    ((1, -1), (1, 0)),  # order 6
)


def random_sl2(rng, kind):
    """Integer SL2 matrix of the requested conjugacy kind."""
    if kind == "identity":
        return IntMatrix(((1, 0), (0, 1)))
    V = random_unimodular(rng, 2, steps=6, bound=1)
    if det_exact(V) == -1:
        # keep the conjugator in SL2 so orientation data stays clean
        V = V @ IntMatrix(((0, 1), (1, 0)))
    Vi = inverse_unimodular(V)
    if kind == "hyperbolic":
        a = int(rng.integers(1, 4))
        b = int(rng.integers(1, 4))
        core = IntMatrix(((1, a), (0, 1))) @ IntMatrix(((1, 0), (b, 1)))
    elif kind == "parabolic":
        d = int(rng.integers(1, 4)) * int(rng.choice([-1, 1]))
        core = IntMatrix(((1, d), (0, 1)))
    elif kind == "elliptic":
        core = IntMatrix(ELLIPTIC_SEEDS[int(rng.integers(0, len(ELLIPTIC_SEEDS)))])
    else:
        raise ValueError("unknown kind %r" % (kind,))
    return V @ core @ Vi


BLOCK_CHARGES = ((1, 0), (0, 1), (1, 1), (2, -1), (-1, 2), (1, -2))
SUPPORT_MARGIN = 2.0  # the support constant C over the tightest C the semistables allow
SEED_FACTORS = 3  # the most factors seed_object takes
DECK_RANGE = 2  # random_cover_element's deck translations are 2k, |k| <= DECK_RANGE


def compatible_triple(rng, rank=2, kind="hyperbolic", shift=0):
    """A verified compatible triple on a rank-r lattice.

    kind picks the conjugacy class of the 2x2 matrix part; shift composes
    with the integer translation by `shift`, which flips the lattice map by
    its sign and adds `shift` to every transported phase.
    """
    if rank < 2:
        raise ValueError("rank must be at least 2")
    B = random_sl2(rng, kind)
    nblocks = rank // 2
    odd = rank % 2 == 1

    bd = [[0] * rank for _ in range(rank)]
    for blk in range(nblocks):
        for i in range(2):
            for j in range(2):
                bd[2 * blk + i][2 * blk + j] = B.entries[i][j]
    if odd:
        bd[rank - 1][rank - 1] = 1
    BD = IntMatrix(tuple(tuple(row) for row in bd))

    U = random_unimodular(rng, rank)
    Ui = inverse_unimodular(U)
    P = U @ BD @ Ui

    z0 = np.zeros((2, rank))
    for blk in range(nblocks):
        z0[:, 2 * blk : 2 * blk + 2] = np.eye(2)
    Z = stability.CentralCharge(tuple(map(tuple, (z0 @ Ui.to_float()).tolist())))

    sems = []
    for idx, w in enumerate(BLOCK_CHARGES[: max(3, min(len(BLOCK_CHARGES), rank + 1))]):
        blk = idx % nblocks
        coords = [0] * rank
        coords[2 * blk] = w[0]
        coords[2 * blk + 1] = w[1]
        v = U.apply(coords)
        phase = math.atan2(w[1], w[0]) / math.pi
        if idx >= 4:
            v = tuple(-x for x in v)
            phase += 1.0  # the odd-shift representative of the same ray
        sems.append(stability.SemistableDatum(v, phase))

    C = SUPPORT_MARGIN * max(
        max(abs(x) for x in d.v) / abs(stability.charge_of(Z, d.v)) for d in sems
    )
    sigma = stability.StabilityData(Z=Z, semistables=tuple(sems), support_C=C)

    Mf = B.to_float()
    g = cover.lift_from(Mf, math.atan2(Mf[1, 0], Mf[0, 0]) / math.pi)
    shift = int(shift)
    if shift != 0:
        g = cover.compose(cover.from_complex(float(shift)), g)
        sign = (-1) ** shift
        P = IntMatrix(tuple(tuple(sign * x for x in row) for row in P.entries))

    auto = stability.AutoequivalenceData(P=P, label="%s block action" % kind)
    triple = stability.verify_triple(auto, sigma, g)
    if not triple.verified:
        raise AssertionError(
            "family construction must verify, failed: %s" % (triple.failure,)
        )
    return triple


def seed_object(triple):
    """An HN object assembled from the triple's own semistable list: up to
    SEED_FACTORS entries of distinct phases, largest first, skipping entries
    of zero charge (they carry no mass)."""
    ordered = sorted(triple.sigma.semistables, key=lambda d: -d.phase)
    factors = []
    for d in ordered:
        if stability.charge_of(triple.sigma.Z, d.v) == 0:
            continue
        if not factors or d.phase < factors[-1].phase - 1e-9:
            factors.append(d)
        if len(factors) == SEED_FACTORS:
            break
    return stability.HNObject(tuple(factors))


def random_cover_element(rng):
    """Random cover element: positive-determinant matrix, standard lift,
    composed with a random even deck translation."""
    while True:
        M = rng.normal(size=(2, 2))
        if np.linalg.det(M) > 0.05:
            break
    base = math.atan2(M[1, 0], M[0, 0]) / math.pi
    deck = 2.0 * int(rng.integers(-DECK_RANGE, DECK_RANGE + 1))
    return cover.lift_from(M, base + deck)


def random_antisymmetric_pairing(rng, r, bound=4):
    """Random invertible antisymmetric integer matrix (even rank)."""
    if r % 2 != 0:
        raise ValueError("antisymmetric invertible pairings need even rank")
    while True:
        upper = rng.integers(-bound, bound + 1, size=(r, r))
        chi = np.triu(upper, 1)
        chi = chi - chi.T
        m = IntMatrix(tuple(map(tuple, chi.astype(int).tolist())))
        if det_exact(m) != 0:
            return m


__all__ = [
    "random_unimodular",
    "random_sl2",
    "compatible_triple",
    "seed_object",
    "random_cover_element",
    "random_antisymmetric_pairing",
]
