import math

import numpy as np
import pytest

from stabdyn import cover, families
from stabdyn.cover import (
    GL2TildeElem,
    classify,
    compose,
    evaluate,
    from_complex,
    identity_elem,
    inverse,
    lift_from,
    power,
    power_charge_log,
    power_phase,
    renormalized_power_table,
    translation_number,
)
from stabdyn.errors import InvalidLift, NonPositiveDeterminant


def hyperbolic(lam=2.0, deck=0.0):
    return lift_from([[lam, 0.0], [0.0, 1.0 / lam]], deck)


def random_elem(rng):
    while True:
        M = rng.normal(size=(2, 2))
        if np.linalg.det(M) > 0.05:
            break
    base = math.atan2(M[1, 0], M[0, 0]) / math.pi
    deck = 2.0 * int(rng.integers(-2, 3))
    return lift_from(M, base + deck)


# --- construction ---------------------------------------------------------


def test_lift_identity_valid():
    g = lift_from(np.eye(2), 0.0)
    assert g.f0 == 0.0


def test_lift_deck_translation_distinct():
    g = lift_from(np.eye(2), 2.0)
    assert g.f0 == 2.0
    assert evaluate(g, 0.25) == pytest.approx(2.25, abs=1e-12)


def test_lift_rejects_wrong_parity():
    with pytest.raises(InvalidLift):
        lift_from(np.eye(2), 1.0)


def test_lift_rejects_negative_det():
    with pytest.raises(NonPositiveDeterminant):
        lift_from([[1.0, 0.0], [0.0, -1.0]], 0.0)


def test_from_complex_zero_is_identity():
    g = from_complex(0.0)
    assert np.allclose(g.matrix, np.eye(2))
    assert g.f0 == 0.0


def test_from_complex_integer_is_deck_shift():
    for m in (-3, -1, 0, 1, 2, 5):
        g = from_complex(m)
        assert np.allclose(g.matrix, ((-1.0) ** m) * np.eye(2), atol=1e-12)
        assert g.f0 == pytest.approx(float(m), abs=1e-12)


def test_from_complex_imaginary_is_scaling():
    g = from_complex(1j)
    assert np.allclose(g.matrix, math.exp(-math.pi) * np.eye(2), atol=1e-15)
    assert g.f0 == 0.0


# --- evaluation -----------------------------------------------------------


def test_evaluate_identity_fixes_phases():
    g = identity_elem()
    for phi in (-3.4, -1.0, 0.0, 0.3, 0.99, 1.0, 7.25):
        assert evaluate(g, phi) == pytest.approx(phi, abs=1e-12)


def test_evaluate_quarter_rotation():
    assert evaluate(from_complex(0.5), 0.0) == pytest.approx(0.5, abs=1e-12)


def test_evaluate_hyperbolic_fixes_eigen_phases():
    g = hyperbolic(3.0)
    assert evaluate(g, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert evaluate(g, 0.5) == pytest.approx(0.5, abs=1e-12)
    assert evaluate(g, 1.0) == pytest.approx(1.0, abs=1e-12)
    # intermediate phases attracted toward the expanding axis
    assert 0.0 < evaluate(g, 0.25) < 0.25


def test_evaluate_equivariance_grid():
    rng = np.random.default_rng(2)
    for _ in range(12):
        g = random_elem(rng)
        grid = np.linspace(-1.0, 1.0, 1000)
        vals = np.array([evaluate(g, p) for p in grid])
        vals_shift = np.array([evaluate(g, p + 1.0) for p in grid])
        assert np.max(np.abs(vals_shift - vals - 1.0)) <= 1e-9


def test_evaluate_strictly_increasing_grid():
    rng = np.random.default_rng(4)
    for _ in range(12):
        g = random_elem(rng)
        grid = np.linspace(0.0, 1.0, 1000)
        vals = np.array([evaluate(g, p) for p in grid])
        assert np.all(np.diff(vals) > 1e-12)


# --- group structure ------------------------------------------------------


def test_compose_with_inverse_is_identity():
    rng = np.random.default_rng(6)
    for _ in range(10):
        g = random_elem(rng)
        e = compose(g, inverse(g))
        assert np.allclose(e.matrix, np.eye(2), atol=1e-9)
        assert abs(e.f0) <= 1e-9


def test_power_of_quarter_rotation_is_deck_shift():
    g4 = power(from_complex(0.5), 4)
    ref = from_complex(2.0)
    assert np.allclose(g4.matrix, ref.matrix, atol=1e-12)
    assert g4.f0 == pytest.approx(2.0, abs=1e-12)


def test_from_complex_homomorphism():
    rng = np.random.default_rng(8)
    for _ in range(10):
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        lhs = compose(from_complex(a), from_complex(b))
        rhs = from_complex(a + b)
        assert np.allclose(lhs.matrix, rhs.matrix, atol=1e-9)
        assert lhs.f0 == pytest.approx(rhs.f0, abs=1e-9)


def test_associativity_random_triples():
    rng = np.random.default_rng(10)
    for _ in range(10):
        g1, g2, g3 = (random_elem(rng) for _ in range(3))
        lhs = compose(compose(g1, g2), g3)
        rhs = compose(g1, compose(g2, g3))
        assert np.allclose(lhs.matrix, rhs.matrix, atol=1e-9)
        assert lhs.f0 == pytest.approx(rhs.f0, abs=1e-9)


def test_power_matches_repeated_compose():
    rng = np.random.default_rng(12)
    g = random_elem(rng)
    acc = identity_elem()
    for k in range(1, 6):
        acc = compose(g, acc)
        p = power(g, k)
        assert np.allclose(p.matrix, acc.matrix, atol=1e-8)
        assert p.f0 == pytest.approx(acc.f0, abs=1e-8)


def test_negative_power():
    rng = np.random.default_rng(14)
    g = random_elem(rng)
    e = compose(power(g, -3), power(g, 3))
    assert np.allclose(e.matrix, np.eye(2), atol=1e-8)
    assert abs(e.f0) <= 1e-8


# --- renormalized power streams --------------------------------------------


def test_power_table_matches_direct_power():
    rng = np.random.default_rng(16)
    g = random_elem(rng)
    table = renormalized_power_table(g, 8)
    for n in (1, 2, 3, 5, 8, 13, 21):
        direct = power(g, n)
        assert power_phase(table, 0.0, n) == pytest.approx(direct.f0, abs=1e-8)
        logn, _ = power_charge_log(table, (1.0, 0.0), n)
        assert logn == pytest.approx(
            math.log(np.linalg.norm(direct.matrix @ np.array([1.0, 0.0]))), abs=1e-8
        )


def test_power_table_survives_huge_exponents():
    g = hyperbolic(2.0)
    table = renormalized_power_table(g, 21)
    n = 2**20
    logn, _ = power_charge_log(table, (1.0, 0.0), n)
    assert logn == pytest.approx(n * math.log(2.0), rel=1e-9)
    assert power_phase(table, 0.5, n) == pytest.approx(0.5, abs=1e-9)


def _loop_power_phase(table, phi, n):
    """Reference walk: one phase, one exponent, scalar lift per table entry."""

    def apply(j, x):
        m, _, f0 = table[j]
        c, s = cover._cossin_pi(x - math.floor(x))
        if j and m[0][0] * c + m[0][1] * s == 0.0 and m[1][0] * c + m[1][1] * s == 0.0:
            return apply(j - 1, apply(j - 1, x))
        return cover._lift_eval(m, f0, x)

    val = float(phi)
    for bit in range(int(n).bit_length()):
        if n >> bit & 1:
            val = apply(bit, val)
    return val


def _assert_batch_matches_scalars(table, phis, ns):
    batch = power_phase(table, phis, ns)
    pairs = np.broadcast_arrays(np.asarray(phis, dtype=float), np.asarray(ns))
    pairs = list(zip(pairs[0].tolist(), pairs[1].tolist()))
    assert isinstance(batch, np.ndarray) and batch.shape == (len(pairs),)
    scalars = [power_phase(table, p, n) for p, n in pairs]
    assert all(type(x) is float for x in scalars)
    assert batch.tolist() == scalars
    assert scalars == [_loop_power_phase(table, p, n) for p, n in pairs]


def test_batched_walk_over_phases_equals_scalar_calls():
    rng = np.random.default_rng(23)
    special = [0.0, 0.25, 0.5, 0.75, 1.0, -0.5, 1.0 - 2.0**-53, -(2.0**-60)]
    for _ in range(8):
        table = renormalized_power_table(random_elem(rng), 13)
        phis = rng.uniform(-3.0, 3.0, size=40).tolist() + special
        for n in (0, 1, 6, 1023, 4096, 12345):
            _assert_batch_matches_scalars(table, phis, n)


def test_batched_walk_over_exponents_equals_scalar_calls():
    rng = np.random.default_rng(29)
    for _ in range(4):
        table = renormalized_power_table(random_elem(rng), 13)
        ns = list(range(0, 70)) + [511, 512, 4095, 8191, 16383]
        _assert_batch_matches_scalars(table, float(rng.uniform(-2.0, 2.0)), ns)
        _assert_batch_matches_scalars(table, rng.uniform(-2.0, 2.0, size=len(ns)), ns)


def test_batched_walk_keeps_the_underflow_half_split():
    # M^(2^20) renormalized is diag(1, 0): phase 0.5 maps to atan2(0, 0)
    # unless the entry is split into half powers
    table = renormalized_power_table(lift_from([[2.0, 0.0], [0.0, 0.5]], 0.0), 21)
    phis = [0.1, -0.7, 0.5, 0.3, 1.25, 2.9]
    for n in (2**20, 2**20 + 12345):
        _assert_batch_matches_scalars(table, phis, n)
        assert power_phase(table, phis, n)[2] == pytest.approx(0.5, abs=1e-9)


def test_orbit_equals_iterated_evaluate():
    rng = np.random.default_rng(37)
    # at phase 2^-54 this matrix rounds the image phase just below f(0)
    elems = [lift_from([[0.4, 0.5], [0.6, 0.9]], math.atan2(0.6, 0.4) / math.pi)]
    elems += [random_elem(rng) for _ in range(6)]
    for kind in ("hyperbolic", "parabolic", "elliptic"):
        for shift in (-1, 0, 2):
            elems.append(families.compatible_triple(rng, rank=2, kind=kind, shift=shift).g)
    special = [0.0, 0.5, -0.25, 2.0**-54, 1.0 - 2.0**-53]
    for g in elems:
        for phi in special + rng.uniform(-3.0, 3.0, size=4).tolist():
            orbit = cover.orbit(g, phi, 300)
            expected = [phi]
            for _ in range(300):
                expected.append(evaluate(g, expected[-1]))
            assert orbit == expected
            assert all(type(x) is float for x in orbit)
        # power keeps only the last iterate of the same walk
        assert cover.power(g, 40).f0 == cover.orbit(g, g.f0, 39)[-1]
    assert cover.orbit(hyperbolic(), 0.3, 0) == [0.3]


def test_power_table_entries_equal_the_array_apply():
    # f0_{j+1} comes from the scalar _entry_apply, which must give the bits
    # of the batched array apply on a one-element array
    rng = np.random.default_rng(41)
    elems = [random_elem(rng) for _ in range(20)] + [lift_from([[2.0, 0.0], [0.0, 0.5]], 0.0)]
    for g in elems:
        table = renormalized_power_table(g, 21)
        for j in range(21):
            f0 = float(cover._table_apply(table, j, np.array([table[j][2]]))[0])
            assert table[j + 1][2] == f0


def test_half_split_enters_the_array_apply_once_per_set_bit(monkeypatch):
    table = renormalized_power_table(lift_from([[2.0, 0.0], [0.0, 0.5]], 0.0), 21)
    calls = []
    apply = cover._table_apply

    def counting_apply(table, j, phi):
        calls.append(j)
        return apply(table, j, phi)

    monkeypatch.setattr(cover, "_table_apply", counting_apply)
    for n in (2**20, 2**20 + 12345):
        calls.clear()
        assert power_phase(table, 0.5, n) == _loop_power_phase(table, 0.5, n)
        assert len(calls) <= bin(n).count("1")


def test_lift_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="f0 = nan is not finite"):
        lift_from([[1.0, 0.0], [0.0, 1.0]], float("nan"))
    with pytest.raises(ValueError, match="m = .*inf.* is not finite"):
        lift_from([[math.inf, 0.0], [0.0, 1.0]], 0.0)
    with pytest.raises(ValueError, match="m = .*nan.* is not finite"):
        lift_from([[1.0, float("nan")], [0.0, 1.0]], 0.0)


def test_power_phase_rejects_negative_exponents():
    table = renormalized_power_table(hyperbolic(2.0), 4)
    with pytest.raises(ValueError):
        power_phase(table, 0.0, -1)
    with pytest.raises(ValueError):
        power_phase(table, [0.0, 0.5], [3, -2])


# --- translation number -----------------------------------------------------


def test_translation_number_of_complex_elements():
    for alpha in (0.0, 1.0 / 3.0, -0.7 + 0.4j, 2.5):
        g = from_complex(alpha)
        assert translation_number(g, 256) == pytest.approx(
            complex(alpha).real, abs=1e-12
        )


def test_translation_number_hyperbolic_is_zero():
    assert translation_number(hyperbolic(2.0), 1024) == pytest.approx(0.0, abs=1e-9)


def test_translation_number_deck_shifted_hyperbolic():
    g = compose(from_complex(1.0), hyperbolic(2.0))
    assert translation_number(g, 1024) == pytest.approx(1.0, abs=2e-3)


def test_translation_number_power_scaling():
    rng = np.random.default_rng(18)
    g = random_elem(rng)
    tau = translation_number(g, 8192)
    for k in range(1, 9):
        assert translation_number(power(g, k), 8192) == pytest.approx(
            k * tau, abs=2e-3
        )


def test_translation_number_requires_min_iterations():
    with pytest.raises(ValueError):
        translation_number(identity_elem(), 8)


# --- classification ---------------------------------------------------------


def test_classify_gepner_shape():
    for alpha in (0.3, 1j, -0.5 + 0.2j):
        rec = classify(from_complex(alpha))
        assert rec.gepner


def test_classify_literal_stretch():
    rec = classify(hyperbolic(2.0))
    assert rec.pseudo_anosov_literal
    assert rec.pseudo_anosov_conjugate
    assert rec.stretch == pytest.approx(2.0)
    assert rec.conjugacy_type == "hyperbolic"


def test_classify_negative_stretch():
    g = lift_from([[-2.0, 0.0], [0.0, -0.5]], 1.0)
    rec = classify(g)
    assert rec.pseudo_anosov_literal
    assert rec.stretch == pytest.approx(-2.0)


def test_classify_unipotent():
    g = lift_from([[1.0, 1.0], [0.0, 1.0]], 0.0)
    rec = classify(g)
    assert rec.conjugacy_type == "parabolic"
    assert not rec.pseudo_anosov_literal
    assert not rec.pseudo_anosov_conjugate
    assert not rec.gepner


def test_classify_conjugated_stretch_not_literal():
    S = np.array([[1.0, 1.0], [0.0, 1.0]])
    Mh = S @ np.diag([2.0, 0.5]) @ np.linalg.inv(S)
    base = math.atan2(Mh[1, 0], Mh[0, 0]) / math.pi
    rec = classify(lift_from(Mh, base))
    assert not rec.pseudo_anosov_literal
    assert rec.pseudo_anosov_conjugate
    assert rec.stretch == pytest.approx(2.0, rel=1e-9)


def test_classify_elliptic():
    g = lift_from([[0.0, -1.0], [1.0, 0.0]], 0.5)
    assert classify(g).conjugacy_type == "elliptic"
