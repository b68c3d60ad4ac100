"""Recurrence tables checked against closed forms and slow reference code."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import jacobi_one_ref
from spdkernels import circle_table, gegenbauer_table, jacobi_table
from spdkernels.orthopoly import _ratio_table


# --- reference implementations, deliberately slow and direct ---------------

def legendre_ref(n, x):
    """Bonnet recursion for plain Legendre polynomials."""
    if n == 0:
        return 1.0
    prev, cur = 1.0, x
    for i in range(2, n + 1):
        prev, cur = cur, ((2 * i - 1) * x * cur - (i - 1) * prev) / i
    return cur if n >= 1 else prev


def ratio_table(nmax, m, t):
    """Ultraspherical rows divided by their value at t = 1."""
    return gegenbauer_table(nmax, m, t) / gegenbauer_table(nmax, m, [1.0])


# --- frozen spot values -----------------------------------------------------

def test_circle_low_degrees():
    t = 0.3
    row = circle_table(2, [t])[:, 0]
    assert row[0] == 1.0
    assert row[1] == pytest.approx(2 * t)
    # degree 2: (2/2) cos(2 theta) = 2 t^2 - 1
    assert row[2] == pytest.approx(2 * t * t - 1)


def test_circle_trig_identity():
    # (2/k) cos(k arccos t) at t = cos(pi/4), k = 4: cos(pi) = -1 so value -1/2
    t = math.cos(math.pi / 4)
    assert circle_table(4, [t])[4, 0] == pytest.approx(-0.5, abs=1e-12)


def test_circle_table_matches_cosines():
    theta = np.linspace(0.0, math.pi, 31)
    t = np.cos(theta)
    table = circle_table(12, t)
    assert np.allclose(table[0], 1.0)
    for k in range(1, 13):
        expect = (2.0 / k) * np.cos(k * theta)
        assert np.allclose(table[k], expect, atol=1e-10), k


def test_gegenbauer_frozen_values():
    # normalization P_n(1) = C(n + m - 2, n)
    assert gegenbauer_table(2, 3, [1.0])[2, 0] == pytest.approx(3.0)
    assert gegenbauer_table(4, 4, [1.0])[4, 0] == pytest.approx(math.comb(6, 4))
    # m = 2 the ratio r_n is the Legendre polynomial itself: r_2(0.5) = -0.125
    assert ratio_table(2, 2, [0.5])[2, 0] == pytest.approx(legendre_ref(2, 0.5))
    assert gegenbauer_table(2, 2, [0.5])[2, 0] == pytest.approx(-0.125)
    assert ratio_table(2, 2, [0.0])[2, 0] == pytest.approx(-0.5)
    # odd degree at the left endpoint flips sign
    assert ratio_table(5, 4, [-1.0])[5, 0] == pytest.approx(-1.0)


def test_gegenbauer_m2_is_legendre():
    x = np.linspace(-1, 1, 17)
    table = ratio_table(10, 2, x)
    for n in range(11):
        for j, xv in enumerate(x):
            assert table[n, j] == pytest.approx(legendre_ref(n, float(xv)), abs=1e-12)


def test_gegenbauer_norm_increments():
    for m in (2, 3, 5, 8):
        at_one = gegenbauer_table(11, m, [1.0])[:, 0]
        for n in range(12):
            assert at_one[n] == pytest.approx(math.comb(n + m - 2, n))


def test_jacobi_frozen_values():
    assert jacobi_table(1, 1.0, 0.0, [0.0])[1, 0] == pytest.approx(0.5)
    assert jacobi_table(3, 0.5, 0.0, [1.0])[3, 0] == pytest.approx(2.1875)
    # binom(3.5, 3) = 3.5 * 2.5 * 1.5 / 3!
    assert jacobi_one_ref(3, 0.5) == pytest.approx(2.1875)


def test_jacobi_degree_one_closed_form():
    # P_1 = (alpha + 1) + (alpha + beta + 2)(x - 1)/2
    x = np.linspace(-1, 1, 7)
    for alpha, beta in [(0.0, -0.5), (0.0, 0.0), (1.0, 1.0), (7.0, 3.0)]:
        row = jacobi_table(1, alpha, beta, x)[1]
        for j, xv in enumerate(x):
            expect = (alpha + 1) + (alpha + beta + 2) * (xv - 1) / 2
            assert row[j] == pytest.approx(expect, abs=1e-12)


def test_jacobi_endpoint_normalization():
    for alpha in (0.0, 0.5, 1.0, 3.0, 7.0):
        for beta in (-0.5, 0.0, 1.0, 3.0):
            table = jacobi_table(8, alpha, beta, np.array([1.0]))
            for l in range(9):
                assert table[l, 0] == pytest.approx(jacobi_one_ref(l, alpha), rel=1e-12)


def test_jacobi_legendre_special_case():
    # alpha = beta = 0 reduces to Legendre
    x = np.linspace(-1, 1, 11)
    table = jacobi_table(9, 0.0, 0.0, x)
    for l in range(10):
        for j, xv in enumerate(x):
            assert table[l, j] == pytest.approx(legendre_ref(l, float(xv)), abs=1e-11)


# --- structural invariants ---------------------------------------------------

@given(
    n=st.integers(0, 40),
    m=st.integers(2, 9),
    x=st.floats(-1.0, 1.0, allow_nan=False),
)
@settings(max_examples=120, deadline=None)
def test_ratio_bounded_and_parity(n, m, x):
    val, mirrored = ratio_table(n, m, [x, -x])[n]
    assert abs(val) <= 1.0 + 1e-9
    expect = val if n % 2 == 0 else -val
    assert mirrored == pytest.approx(expect, abs=1e-9)


@given(k=st.integers(1, 64), x=st.floats(-1.0, 1.0, allow_nan=False))
@settings(max_examples=120, deadline=None)
def test_circle_bounded(k, x):
    assert abs(circle_table(k, [x])[k, 0]) <= 2.0 / k + 1e-9


def test_ratio_at_one_is_one():
    # the recurrence behind gegenbauer_table runs on values divided by the
    # value at 1, so every row of it passes through 1 there
    for m in (2, 3, 6):
        ratios = _ratio_table(30, m, np.array([1.0]))
        for n in (0, 1, 7, 30):
            assert ratios[n, 0] == pytest.approx(1.0, abs=1e-12)


# --- argument validation ------------------------------------------------------

def test_rejects_out_of_range_argument():
    with pytest.raises(ValueError, match="outside"):
        circle_table(3, [1.5])
    with pytest.raises(ValueError, match="outside"):
        gegenbauer_table(3, 2, [-1.1])


def test_clamps_roundoff_overshoot():
    assert circle_table(2, [1.0 + 5e-13])[2, 0] == pytest.approx(1.0)


def test_rejects_bad_dimension_and_degree():
    with pytest.raises(ValueError, match="dimension"):
        gegenbauer_table(2, 1, [0.5])
    with pytest.raises(ValueError, match="degree"):
        circle_table(10_001, np.array([0.0]))
    with pytest.raises(ValueError):
        jacobi_table(2, -1.0, 0.0, [0.5])


# --- interior decay -----------------------------------------------------------

def test_normalized_values_decay_away_from_endpoint():
    # away from t = +/-1 the normalized values P_n(t)/P_n(1) shrink as the
    # degree grows; compare a high-degree band against an early band
    for m in (2, 3, 5):
        for t in (0.0, 0.5, -0.5, 0.9, -0.9):
            ratios = np.abs(ratio_table(120, m, [t])[:, 0])
            early = ratios[5:21].max()
            late = ratios[80:121].max()
            assert late < early, f"m={m} t={t}: {late} >= {early}"
