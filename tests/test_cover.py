import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from stabdyn import cover, families, stability
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
    power_phase,
    power_record,
    renormalized_power_table,
    translation_number,
)
from stabdyn.errors import InvalidLift, NonPositiveDeterminant, PowerOverflow


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


def _bisection_inverse_f0(g):
    """f^{-1}(0) by monotone bisection on the lift: the reference for the
    closed form of inverse."""
    lo, hi = -g.f0 - 1.0, -g.f0 + 1.0
    while evaluate(g, lo) > 0.0:
        lo -= 1.0
    while evaluate(g, hi) < 0.0:
        hi += 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if evaluate(g, mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-15:
            break
    return 0.5 * (lo + hi)


def test_inverse_equals_the_bisection_reference():
    # decks up to +-100, stretches up to 1e5, shears up to 1e3
    rng = np.random.default_rng(11)

    def rot(t):
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])

    for _ in range(500):
        s = 10.0 ** rng.uniform(0.0, 5.0)
        h = rng.uniform(-1e3, 1e3)
        M = math.exp(rng.normal()) * rot(rng.uniform(0.0, 2 * math.pi)) @ np.diag([s, 1 / s]) \
            @ np.array([[1.0, h], [0.0, 1.0]]) @ rot(rng.uniform(0.0, 2 * math.pi))
        if np.linalg.cond(M) > 1e12:
            continue
        g = lift_from(M, math.atan2(M[1, 0], M[0, 0]) / math.pi + 2 * int(rng.integers(-50, 51)))
        # the bisection decides on float values of f, which move its root by
        # up to about cond(M) ulps where f is flat
        assert inverse(g).f0 == pytest.approx(_bisection_inverse_f0(g), abs=1e-11)


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


# --- closed-form powers ------------------------------------------------------


def test_power_table_matches_direct_power():
    rng = np.random.default_rng(16)
    g = random_elem(rng)
    table = renormalized_power_table(g, 8)  # the benchmark's name for power_record
    assert table == power_record(g)
    for n in (1, 2, 3, 5, 8, 13, 21):
        direct = power(g, n)
        assert power_phase(table, 0.0, n) == pytest.approx(direct.f0, abs=1e-8)
        logn = table.log_charge(1.0, 0.0, n)
        assert logn == pytest.approx(
            math.log(np.linalg.norm(direct.matrix @ np.array([1.0, 0.0]))), abs=1e-8
        )


def test_power_table_survives_huge_exponents():
    g = hyperbolic(2.0)
    table = renormalized_power_table(g, 21)
    n = 2**20
    assert table.log_charge(1.0, 0.0, n) == pytest.approx(n * math.log(2.0), rel=1e-9)
    assert power_phase(table, 0.5, n) == pytest.approx(0.5, abs=1e-9)


def _assert_batch_matches_scalars(record, phis, ns):
    batch = power_phase(record, phis, ns)
    pairs = np.broadcast_arrays(np.asarray(phis, dtype=float), np.asarray(ns))
    pairs = list(zip(pairs[0].tolist(), pairs[1].tolist()))
    assert isinstance(batch, np.ndarray) and batch.shape == (len(pairs),)
    scalars = [power_phase(record, p, n) for p, n in pairs]
    assert all(type(x) is float for x in scalars)
    assert batch.tolist() == pytest.approx(scalars, rel=1e-15, abs=1e-15)


def test_batched_walk_over_phases_equals_scalar_calls():
    rng = np.random.default_rng(23)
    special = [0.0, 0.25, 0.5, 0.75, 1.0, -0.5, 1.0 - 2.0**-53, -(2.0**-60)]
    for _ in range(8):
        record = power_record(random_elem(rng))
        phis = rng.uniform(-3.0, 3.0, size=40).tolist() + special
        for n in (0, 1, 6, 1023, 4096, 12345):
            _assert_batch_matches_scalars(record, phis, n)


def test_batched_walk_over_exponents_equals_scalar_calls():
    rng = np.random.default_rng(29)
    for _ in range(4):
        record = power_record(random_elem(rng))
        ns = list(range(0, 70)) + [511, 512, 4095, 8191, 16383]
        _assert_batch_matches_scalars(record, float(rng.uniform(-2.0, 2.0)), ns)
        _assert_batch_matches_scalars(record, rng.uniform(-2.0, 2.0, size=len(ns)), ns)


def test_exact_eigen_phase_survives_underflow():
    # s^n rho^(n-1) underflows for diag(2, 0.5): phase 0.5 would map to
    # atan2(0, 0) without the exact-eigenvector rule
    record = power_record(lift_from([[2.0, 0.0], [0.0, 0.5]], 0.0))
    phis = [0.1, -0.7, 0.5, 0.3, 1.25, 2.9]
    for n in (2**20, 2**20 + 12345):
        _assert_batch_matches_scalars(record, phis, n)
        assert power_phase(record, phis, n)[2] == 0.5


def walk_orbit(g, phi, n):
    """[phi, f(phi), ..., f^n(phi)] by the sequential walk: the base phase
    computed once, then n steps of the closed-form lift.  The reference the
    one-step cover._lift_eval is pinned to."""
    (a, b), (c, d) = g.m
    theta0 = cover._base_phase(g.m)
    out = [float(phi)]
    for _ in range(n):
        k = math.floor(out[-1])
        cs, sn = cover._cossin_pi(out[-1] - k)
        inc = (math.atan2(c * cs + d * sn, a * cs + b * sn) / math.pi - theta0) % 2.0
        if inc > 1.5:
            inc -= 2.0
        out.append(g.f0 + k + (0.0 if inc < 0.0 else inc))
    return out


def _int_turn(x, y):
    """atan2(y, x) / pi for integers of any size."""
    shift = max(max(abs(x), abs(y)).bit_length() - 64, 0)
    return math.atan2(y >> shift, x >> shift) / math.pi


def exact_orbit_phases(g, phi, n_max):
    """f_{g^n}(phi) for n = 0..n_max from exact powers of the float matrix of
    g: the argument of M^n v(phi) mod 2, lifted one step at a time into
    (L + f0 - 1, L + f0 + 1), where |f(x) - x - f(0)| < 1 puts f(L)."""
    scale = max(Fraction(x).denominator for row in g.m for x in row)
    (a, b), (c, d) = ((int(Fraction(x) * scale) for x in row) for row in g.m)
    k = math.floor(phi)
    v = [Fraction(x) for x in cover._cossin_pi(phi - k)]
    den = max(x.denominator for x in v)
    x, y = (int(t * den) for t in v)
    out = [phi]
    for _ in range(n_max):
        x, y = a * x + b * y, c * x + d * y
        turn = _int_turn(x, y) + k  # v(phi) = (-1)^k v(phi - k)
        out.append(turn + 2.0 * round((out[-1] + g.f0 - turn) / 2.0))
    return out


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
        record = power_record(g)
        for phi in special + rng.uniform(-3.0, 3.0, size=4).tolist():
            orbit = walk_orbit(g, phi, 300)
            expected = [phi]
            for _ in range(300):
                expected.append(evaluate(g, expected[-1]))
            assert orbit == expected
            assert all(type(x) is float for x in orbit)
        assert cover.power(g, 40).f0 == record.phase(0.0, 40)
    assert power(hyperbolic(), 0) == identity_elem()


@pytest.mark.parametrize("seed", [37, 43])
def test_closed_form_phases_match_exact_powers_along_the_orbit(seed):
    # the sequential walk drifts up to 8.6e-9 from these on the seed-43 set
    rng = np.random.default_rng(seed)
    elems = [lift_from([[0.4, 0.5], [0.6, 0.9]], math.atan2(0.6, 0.4) / math.pi)]
    elems += [random_elem(rng) for _ in range(6)]
    for kind in ("hyperbolic", "parabolic", "elliptic"):
        for shift in (-1, 0, 2):
            elems.append(families.compatible_triple(rng, rank=2, kind=kind, shift=shift).g)
    # an ill-conditioned order-3 family element
    elems.append(_lifted(((-10, 13), (-7, 9))))
    special = [0.0, 0.5, -0.25, 2.0**-54, 1.0 - 2.0**-53, -0.3268]
    for g in elems:
        record = power_record(g)
        for phi in special + rng.uniform(-3.0, 3.0, size=3).tolist():
            exact = np.array(exact_orbit_phases(g, phi, 512))
            got = record.phase(phi, np.arange(513))
            assert np.max(np.abs(got - exact) / np.maximum(1.0, np.abs(exact))) <= 1e-12


def _exact_power(m, n):
    """m^n for a 2x2 integer matrix, by repeated squaring."""

    def mul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)] for i in range(2)]

    out, sq = [[1, 0], [0, 1]], m
    while n:
        if n & 1:
            out = mul(out, sq)
        n >>= 1
        if n:
            sq = mul(sq, sq)
    return out


def _exact_log_charge(p, w, scale=1):
    """log(|p w| / scale) for an integer matrix p and integer scale."""
    x, y = (p[i][0] * w[0] + p[i][1] * w[1] for i in range(2))
    v, s2 = x * x + y * y, scale * scale
    if v < s2 << 1000:
        return 0.5 * math.log1p((v - s2) / s2)
    return 0.5 * (math.log(v) - math.log(s2))


def _lifted(m):
    return lift_from(m, math.atan2(m[1][0], m[0][0]) / math.pi)


@pytest.mark.parametrize(
    "m, ns",
    [
        # parabolic: integer powers grow linearly, so 2^40 stays cheap
        (((0, -1), (1, 2)), (2**14, 2**20, 2**40)),
        (((-11, -8), (18, 13)), (2**14, 2**20, 2**40)),
        (((2, 1), (1, 1)), (2**14, 2**20)),
        (((0, -1), (1, 1)), (2**14, 2**20)),
    ],
    ids=["parabolic", "parabolic-scan-worst", "hyperbolic", "elliptic"],
)
def test_log_charge_matches_exact_integer_powers(m, ns):
    record = power_record(_lifted(m))
    for n in ns:
        p = _exact_power(m, n)
        for w in ((1, 0), (0, 1), (3, -2)):
            value, exact = record.log_charge(w[0], w[1], n), _exact_log_charge(p, w)
            assert abs(value - exact) <= 1e-12 * max(1.0, abs(exact)), (n, w, value, exact)


def test_log_charge_near_parabolic_matches_rational_powers():
    a = 1.0 + 1e-8
    record = power_record(lift_from([[a, 1.0], [0.0, 1.0]], 0.0))
    assert record.kind == "hyperbolic"
    # the exact rational powers of the float matrix, as (den M)^n / den^n
    num, den = a.as_integer_ratio()
    p = _exact_power([[num, den], [0, den]], 8192)
    for w in ((1, 0), (0, 1), (1, 1)):
        exact = _exact_log_charge(p, w, den**8192)
        assert abs(record.log_charge(w[0], w[1], 8192) - exact) <= 1e-12 * abs(exact)


def test_contracting_eigen_charge_is_exact():
    record = power_record(lift_from([[2.0, 0.0], [0.0, 0.5]], 0.0))
    assert record.log_charge(0.0, 1.0, 4096) == -4096 * math.log(2.0)
    # eigenvalues -2.5 and -1, and (1, 2) is an eigenvector of -1
    record = power_record(_lifted(((-3.0, 1.0), (-1.0, -0.5))))
    logs = record.log_charge(1.0, 2.0, np.array([1, 4096, 2**20]))
    assert logs.tolist() == pytest.approx([0.5 * math.log(5.0)] * 3, rel=1e-15)


def test_log_norms_match_the_singular_values_of_the_power():
    rng = np.random.default_rng(47)
    elems = [random_elem(rng) for _ in range(10)] + [from_complex(0.3 + 0.2j), hyperbolic(3.0)]
    elems += [lift_from([[1.0, 1.0], [0.0, 1.0]], 0.0), lift_from([[2.0, 1.0], [0.0, 2.0]], 0.0)]
    ns = np.arange(0, 25)
    for g in elems:
        fwd, inv = power_record(g).log_norms(ns)
        for n, f, i in zip(ns, fwd, inv):
            for value, m in ((f, g.matrix), (i, np.linalg.inv(g.matrix))):
                norm = np.linalg.norm(np.linalg.matrix_power(m, int(n)), 2)
                assert value == pytest.approx(math.log(norm), abs=1e-9)


def test_phases_match_exact_integer_powers():
    # the argument of the exact M^n v(phi), lifted next to the closed form
    rng = np.random.default_rng(43)
    for kind in ("hyperbolic", "parabolic", "elliptic"):
        for shift in (-1, 0, 2):
            g = families.compatible_triple(rng, rank=2, kind=kind, shift=shift).g
            m = [[int(x) for x in row] for row in g.m]
            record = power_record(g)
            for phi in (0.0, 0.5, -0.25, 2.0**-54, 1.0 - 2.0**-53, 0.3):
                k = math.floor(phi)
                c, s = cover._cossin_pi(phi - k)
                ns = [0, 1, 2, 3, 7, 64, 255, 512, 4096]
                got = record.phase(phi, ns)
                for n, value in zip(ns, got.tolist()):
                    p = _exact_power(m, n)
                    x = p[0][0] * Fraction(c) + p[0][1] * Fraction(s)
                    y = p[1][0] * Fraction(c) + p[1][1] * Fraction(s)
                    h = max(abs(x), abs(y))
                    turn = math.atan2(float(y / h), float(x / h)) / math.pi + k
                    assert abs((value - turn) / 2.0 - round((value - turn) / 2.0)) <= 1e-12
            # the lift: f_{g^n}(0) - n tau stays in (-1, 1), and tau is exact
            assert abs(record.phase(0.0, 2**30) - 2**30 * record.tau) < 1.0


def test_power_matrices_match_exact_integer_powers():
    rng = np.random.default_rng(71)
    for kind in ("hyperbolic", "parabolic", "elliptic"):
        for shift in (-2, 0, 1):
            g = families.compatible_triple(rng, rank=2, kind=kind, shift=shift).g
            m = [[int(x) for x in row] for row in g.m]
            record = power_record(g)
            for n in range(65):
                exact = np.array(_exact_power(m, n), dtype=float)
                p = power(g, n)
                assert np.max(np.abs(p.matrix - exact)) <= 1e-12 * np.max(np.abs(exact)), (m, n)
                assert p.f0 == record.phase(0.0, n)


def test_power_beyond_the_float_range_raises_a_typed_error():
    t = families.compatible_triple(np.random.default_rng(2), rank=2, kind="hyperbolic", shift=1)
    assert t.g.m == ((-7.0, -2.0), (11.0, 3.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: power(t.g, 800), lambda: stability.triple_power(t, 800)):
            with pytest.raises(PowerOverflow, match="an entry of M\\^800 leaves the float range"):
                call()
        assert np.isfinite(power(t.g, 500).matrix).all()
    # a parabolic element grows linearly, so 10^5 stays in range
    g = families.compatible_triple(np.random.default_rng(5), rank=2, kind="parabolic", shift=1).g
    assert power(g, 10**5).f0 == power_record(g).phase(0.0, 10**5)


def test_translation_number_is_read_off_the_record():
    rng = np.random.default_rng(19)
    for kind in ("hyperbolic", "parabolic", "elliptic"):
        for shift in (-1, 0, 2):
            g = families.compatible_triple(rng, rank=2, kind=kind, shift=shift).g
            tau = power_record(g).tau
            assert translation_number(g, 2**16) == pytest.approx(tau, abs=1e-4)
            if kind != "elliptic":
                assert tau == shift
    for alpha in (0.3, -0.7 + 0.4j, 2.5, 1.0 / 3.0):
        assert power_record(from_complex(alpha)).tau == pytest.approx(
            complex(alpha).real, abs=1e-15
        )


def test_lift_rejects_non_finite_entries():
    with pytest.raises(ValueError, match="f0 = nan is not finite"):
        lift_from([[1.0, 0.0], [0.0, 1.0]], float("nan"))
    with pytest.raises(ValueError, match="m = .*inf.* is not finite"):
        lift_from([[math.inf, 0.0], [0.0, 1.0]], 0.0)
    with pytest.raises(ValueError, match="m = .*nan.* is not finite"):
        lift_from([[1.0, float("nan")], [0.0, 1.0]], 0.0)


@pytest.mark.parametrize(
    "m, f0, message",
    [
        (((math.inf, 0.0), (0.0, 1.0)), 0.0, "m = [[inf, 0.0], [0.0, 1.0]] is not finite"),
        (((1.0, 0.0), (float("nan"), 1.0)), 0.0, "m = [[1.0, 0.0], [nan, 1.0]] is not finite"),
        (((1.0, 0.0), (0.0, 1.0)), math.inf, "f0 = inf is not finite"),
        (((1.0, 0.0), (0.0, 1.0)), float("nan"), "f0 = nan is not finite"),
    ],
)
def test_cover_element_rejects_non_finite_entries(m, f0, message):
    # an infinite entry used to reach power() and fail there on a NaN-to-int conversion
    with pytest.raises(ValueError) as err:
        GL2TildeElem(m=m, f0=f0)
    assert str(err.value) == message


def test_lift_rejects_a_non_finite_determinant():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"det\(M\) = inf is not finite"):
            lift_from([[1e300, 0.0], [1e300, 1e300]], 0.25)
        with pytest.raises(ValueError, match=r"det\(M\) = nan is not finite"):
            lift_from([[1e300, 1e300], [1e300, 1e300]], 0.25)


def test_power_phase_rejects_negative_exponents():
    record = power_record(hyperbolic(2.0))
    with pytest.raises(ValueError):
        power_phase(record, 0.0, -1)
    with pytest.raises(ValueError):
        power_phase(record, [0.0, 0.5], [3, -2])
    with pytest.raises(ValueError):
        record.log_charge(1.0, 0.0, [3, -2])


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


def test_translation_number_of_a_parabolic_element_has_no_drift():
    g = lift_from([[-11.0, -8.0], [18.0, 13.0]], math.atan2(18.0, -11.0) / math.pi - 2.0)
    assert power_record(g).tau == -2.0
    assert abs(translation_number(g, 2**20) + 2.0) <= 1e-9


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


def test_classify_kind_agrees_with_power_record():
    near_parabolic = lift_from([[1.0 + 1e-8, 1.0], [0.0, 1.0]], 0.0)
    assert classify(near_parabolic).conjugacy_type == "hyperbolic"
    assert power_record(near_parabolic).kind == "hyperbolic"
    rng = np.random.default_rng(61)
    for kind in ("hyperbolic", "parabolic", "elliptic"):
        for shift in (-1, 0, 1):
            g = families.compatible_triple(rng, rank=2, kind=kind, shift=shift).g
            assert classify(g).conjugacy_type == power_record(g).kind == kind
    for _ in range(20):
        g = families.random_cover_element(rng)
        assert classify(g).conjugacy_type == power_record(g).kind


@pytest.mark.parametrize("kind", ["hyperbolic", "parabolic", "elliptic"])
def test_phase_on_an_outer_grid_equals_scalar_calls_exactly(kind):
    # the coefficients of M^n run on the exponents' own shape and v(phi) on
    # the phases' own shape; every entry of the broadcast grid must still be
    # bit-identical to its scalar call, in both orientations
    rng = np.random.default_rng(83)
    phis = rng.uniform(-3.0, 3.0, size=10).tolist()
    phis += [0.0, 0.25, 0.5, -0.5, 1.0, -2.0, 3.0, 1.0 - 2.0**-53, -(2.0**-60)]
    ns = [0, 1, 2, 7, 512, 4097, 2**20]
    for shift in (-1, 0, 2):
        record = power_record(families.compatible_triple(rng, rank=2, kind=kind, shift=shift).g)
        assert record.kind == kind
        grid = record.phase(np.array(phis)[None, :], np.array(ns)[:, None])
        assert grid.shape == (len(ns), len(phis))
        for row, n in zip(grid.tolist(), ns):
            assert row == [record.phase(phi, n) for phi in phis]
        assert grid[0].tolist() == phis  # the n = 0 row is the identity
        assert (record.phase(np.array(phis)[:, None], np.array(ns)[None, :]) == grid.T).all()


def test_outer_grid_keeps_the_underflowing_exact_eigenvector():
    # s^n rho^(n-1) underflows for diag(2, 0.5) at n = 2^20; the phases +-0.5
    # are exact eigenvectors and must keep their phase on a 2-D grid too
    record = power_record(lift_from([[2.0, 0.0], [0.0, 0.5]], 0.0))
    phis = [0.1, -0.7, 0.5, -0.5, 1.5, 0.3, 2.0, 0.0]
    ns = [0, 1, 2**20, 2**20 + 1]
    grid = record.phase(np.array(phis)[None, :], np.array(ns)[:, None])
    for row, n in zip(grid.tolist(), ns):
        assert row == [record.phase(phi, n) for phi in phis]
    assert grid[2:, 2].tolist() == [0.5, 0.5] and grid[2:, 3].tolist() == [-0.5, -0.5]


def test_log_charge_and_phase_evaluate_the_coefficients_once(monkeypatch):
    rng = np.random.default_rng(89)
    calls = []
    coeffs = cover.PowerRecord._coeffs

    def counting(self, n):
        calls.append(np.shape(n))
        return coeffs(self, n)

    monkeypatch.setattr(cover.PowerRecord, "_coeffs", counting)
    ns = np.array([1, 2, 3, 100, 4096, 2**20])[None, :]
    w = rng.normal(size=(3, 2))
    phis = rng.uniform(-2.0, 2.0, size=(3, 1))
    for kind in ("hyperbolic", "parabolic", "elliptic"):
        record = power_record(families.compatible_triple(rng, rank=2, kind=kind).g)
        calls.clear()
        logs, phases = record.log_charge_and_phase(w[:, :1], w[:, 1:], phis, ns)
        assert calls == [ns.shape]
        assert (logs == record.log_charge(w[:, :1], w[:, 1:], ns)).all()
        assert (phases == record.phase(phis, ns)).all()
        assert record.log_charge_and_phase(1.0, 0.0, None, 5)[1] is None
