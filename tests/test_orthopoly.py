"""Recurrence tables checked against closed forms and slow reference code."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import jacobi_one_ref
from spdkernels import circle_table, gegenbauer_table, jacobi_table
from spdkernels.orthopoly import (
    _gegenbauer_on_chebyshev,
    _halved_coefficients,
    _halved_table,
    _ratio_table,
    _recombine,
    chebyshev_table,
)


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


def test_chebyshev_table_matches_cosines_and_the_circle_rows():
    theta = np.linspace(0.0, math.pi, 31)
    table = chebyshev_table(12, np.cos(theta))
    for k in range(13):
        assert np.allclose(table[k], np.cos(k * theta), atol=1e-12), k
    scaled = table * np.r_[1.0, 2.0 / np.arange(1, 13)][:, None]
    assert np.array_equal(circle_table(12, np.cos(theta)), scaled)


def szego_ref(f, m):
    """Coefficients on T_j of sum_n f_n C_n^lam, lam = (m - 1)/2, by a
    double loop over Szego (4.9.19): C_n = sum_k g_k g_{n-k} cos((n - 2k) theta)."""
    lam = (m - 1) / 2.0
    g = [1.0]
    for k in range(1, len(f)):
        g.append(g[-1] * (lam + k - 1) / k)
    beta = [0.0] * len(f)
    for n, fn in enumerate(f):
        for k in range(n + 1):
            beta[abs(n - 2 * k)] += g[k] * g[n - k] * fn
    return np.array(beta)


@pytest.mark.parametrize("m", [2, 3, 4, 7])
@pytest.mark.parametrize("lmax", [0, 1, 2, 7, 30])
def test_gegenbauer_rows_fold_onto_chebyshev_rows(m, lmax):
    rng = np.random.default_rng(lmax * 10 + m)
    f = rng.uniform(0.0, 1.0, (3, lmax + 1))
    f[1, ::2] = 0.0  # one parity alone
    beta = _gegenbauer_on_chebyshev(f, m)
    assert beta.shape == f.shape and np.all(beta >= 0.0)
    for row, got in zip(f, beta):
        want = szego_ref(list(row), m)
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)
    x = np.cos(np.linspace(0.0, math.pi, 41))
    family = f @ gegenbauer_table(lmax, m, x)
    assert np.allclose(beta @ chebyshev_table(lmax, x), family, rtol=0.0, atol=1e-13 * np.max(family))


@st.composite
def coefficient_rows(draw):
    """r = 1..3 nonnegative rows on T_0..T_L, L = 0..130: scheme values (a
    constant or a geometric rate) on a progression base mod step, parity-pure
    at step 2, or uniform draws."""
    r, degree = draw(st.integers(1, 3)), draw(st.integers(0, 130))
    k = np.arange(degree + 1)
    rows = []
    for _ in range(r):
        if draw(st.booleans()):
            step = draw(st.integers(1, 4))
            base = draw(st.integers(0, step - 1))
            rate = draw(st.sampled_from([1.0, 0.99, 0.9, 0.5]))
            rows.append(np.where(k % step == base, rate**k, 0.0))
        else:
            rows.append(np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.0, 1.0, degree + 1))
    return np.array(rows)


def halving_arguments(seed):
    """+/-1 and 0, arguments within 1e-4 of +/-1 and 1e-2 of 0, arguments near
    +/-cos(pi / 2^j), j = 2..4, where the halved arguments meet +/-1, and
    uniform ones."""
    rng = np.random.default_rng(seed)
    near = 10.0 ** -rng.uniform(4.0, 16.0, 20)
    theta = np.pi / np.repeat([4.0, 8.0, 16.0], 10)
    x = np.concatenate([
        [1.0, -1.0, 0.0],
        1.0 - near[:10], near[10:] - 1.0,
        rng.uniform(-1e-2, 1e-2, 10),
        np.cos(theta + rng.choice([-1.0, 1.0], 30) * 10.0 ** -rng.uniform(3.0, 12.0, 30)),
        -np.cos(theta[::3]),
        rng.uniform(-1.0, 1.0, 40),
    ])
    return np.clip(x, -1.0, 1.0)


def long_double_chebyshev_sums(beta, x):
    """beta @ [T_0..T_L](x) by the Chebyshev recurrence in long double."""
    x = x.astype(np.longdouble)
    prev, cur = np.ones_like(x), x
    total = np.outer(beta[:, 0], prev)
    for k in range(1, beta.shape[1]):
        if k > 1:
            prev, cur = cur, 2 * x * cur - prev
        total += np.outer(beta[:, k], cur)
    return total


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is no wider than double"
)
@settings(max_examples=80, deadline=None)
@given(beta=coefficient_rows(), depth=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_halved_sums_agree_with_the_chebyshev_rows(beta, depth, seed):
    # degrees below 2^h included: the halvings then leave one row.  The
    # sums over the Chebyshev rows are taken in long double: in float64,
    # beta @ chebyshev_table itself strays up to 1.3 times the bound within
    # 1e-4 of +/-1, where T_k moves k^2 times as fast as its argument
    x = halving_arguments(seed)
    levels = np.empty((depth + 3, len(x)))
    table = _halved_table(beta.shape[1] - 1, depth, x, levels=levels)
    halved = _halved_coefficients(beta, depth)
    assert table.shape == ((beta.shape[1] - 1 >> depth) + 1, len(x))
    assert halved.shape == (len(beta) << depth, table.shape[0])
    got = _recombine(halved @ table, levels, depth)
    want = long_double_chebyshev_sums(beta, x)
    # single_bound of the decimal tests, 2 (L + 2) eps f(1), f(1) a row's sum
    bound = 2 * (beta.shape[1] + 1) * np.finfo(float).eps * beta.sum(axis=1)
    assert np.all(np.abs(got - want).max(axis=1) <= bound)


def test_halved_table_is_the_chebyshev_table_at_the_halved_argument():
    x = halving_arguments(0)
    levels = np.empty((5, len(x)))
    table = _halved_table(43, 2, x, levels=levels)
    assert np.array_equal(levels[0], x)
    u2 = 2.0 * (2.0 * x * x - 1.0) ** 2 - 1.0
    assert np.allclose(levels[2], u2, rtol=0.0, atol=1e-15)
    assert np.allclose(table, chebyshev_table(10, u2), rtol=0.0, atol=1e-12)
    with pytest.raises(ValueError, match="outside"):
        _halved_table(43, 2, [1.5])


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
