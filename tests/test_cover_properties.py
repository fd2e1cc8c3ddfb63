"""Property tests of the cover group law and of the single power path.

Elements are integer matrices of positive determinant with a lift shifted by
a deck translation, so parabolic and finite-order elliptic elements turn up
as often as hyperbolic ones.
"""

import math

import numpy as np
import pytest

from stabdyn.cover import compose, evaluate, identity_elem, inverse, lift_from, power, power_record
from stabdyn.errors import PowerOverflow

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

COVER = hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)


@st.composite
def elements(draw, bound=5):
    a, b, c, d = draw(st.lists(st.integers(-bound, bound), min_size=4, max_size=4))
    hypothesis.assume(a * d != b * c)
    if a * d < b * c:  # a negated first column flips the sign of det
        a, c = -a, -c
    deck = 2.0 * draw(st.integers(-1, 1))
    return lift_from([[a, b], [c, d]], math.atan2(c, a) / math.pi + deck)


def assert_close(g, h, tol=1e-9):
    scale = max(1.0, np.max(np.abs(h.matrix)))
    assert np.max(np.abs(g.matrix - h.matrix)) <= tol * scale
    assert g.f0 == pytest.approx(h.f0, abs=tol)


@COVER
@hypothesis.given(elements(), st.integers(0, 12), st.integers(0, 12))
def test_power_is_a_homomorphism_in_the_exponent(g, m, n):
    assert_close(compose(power(g, m), power(g, n)), power(g, m + n))


@COVER
@hypothesis.given(elements(), st.integers(0, 2000))
def test_power_reads_its_lift_off_the_record(g, n):
    record = power_record(g)
    try:
        p = power(g, n)
    except PowerOverflow:
        assert n * record.log_rho > 650.0
        return
    assert np.isfinite(p.matrix).all()
    assert p.f0 == record.phase(0.0, n)


@COVER
@hypothesis.given(elements(), st.floats(-4.0, 4.0))
def test_evaluate_commutes_with_the_unit_translation(g, phi):
    assert evaluate(g, phi + 1.0) == pytest.approx(evaluate(g, phi) + 1.0, abs=1e-10)


@COVER
@hypothesis.given(elements(), elements(), elements())
def test_compose_is_associative(g1, g2, g3):
    assert_close(compose(compose(g1, g2), g3), compose(g1, compose(g2, g3)))


@COVER
@hypothesis.given(elements())
def test_inverse_is_a_two_sided_inverse(g):
    for e in (compose(g, inverse(g)), compose(inverse(g), g)):
        assert_close(e, identity_elem())
    assert_close(power(g, -3), power(inverse(g), 3), tol=0.0)
