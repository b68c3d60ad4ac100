"""The in-place polynomial recurrences, the streamed Gram matrix, the
screened duplicate check, the batched sampler and the tensored witness
assembly against the code they replaced.

``reference_*`` below are verbatim copies of the earlier code: recurrences
that allocate fresh arrays for every degree, a contraction that multiplies
into a new array in slices of 16 384 pairs, a Gram matrix that takes the
cosine of all n^2 angle differences, a block scan of every pair for
duplicates, and the points and coefficients of three separate witness
functions.  The library must return the same floats bit for bit
(``np.array_equal``), the same sampled points and resample counts, the same
first duplicate pair, and the same witness points and coefficients.  Only
``reference_geodesic_assembly`` is no earlier code: it writes the geodesic
factor that replaced the earlier sampled sphere factor from its definition.

Kernel values and Grams with a circle slot are the exceptions to the bits.
The library contracts a product through the factors of its coefficient
matrix, where the earlier code took the dense product, and it contracts
circle and sphere factors with the Chebyshev rows T_k, where the earlier
code took the family tables; the two round differently.
Product values of both must lie within (K + L + 2) eps f(1, 1) of a
long-double contraction of the same float64 tables, and single-space values
within 2 (K + L + 2) eps f(1), the absent axis at degree 0, of a 40-digit
decimal evaluation of the truncated expansion.  The earlier assembly of
sphere Grams is still pinned bit for bit, over the library's contraction of
the same pairs.  A Gram's factored circle slot takes its rows from the
points' Fourier features (cos k theta, sin k theta) and one matrix product a
chunk, not from cos(theta_i - theta_j): circle and circle x sphere Gram
entries, of the library and of the earlier assembly, must lie within
(2 pi (K + 1) + 2 (K + L + 2)) eps f(1, 1) of a 40-digit decimal evaluation
at the points' exact angle differences, L = 0 on a circle, and the Gram
must equal its transpose bit for bit.  Sphere and circle x sphere Gram
entries must lie within that contraction term plus the rounding of the dot
product s times a Lipschitz bound in s (``sphere_bound``) of a 40-digit
decimal evaluation at the exact dot products of the float coordinates.
"""

import logging
import math
import re
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    NOT_SPD_PRODUCT_SUPPORTS_G0, SPD_PRODUCT_SUPPORTS, antipode, axis_table, battery_1d, battery_2d,
    enhanced_points,
)
from spdkernels import (
    CirclePoint,
    KernelSpec,
    ProgressionWitness,
    SpherePoint,
    SupportSet1D,
    SupportSet2D,
    certify_circle_sphere,
    circle_space,
    circle_sphere_space,
    circle_tph_space,
    constant_scheme,
    eval_kernel,
    geometric_scheme,
    gram_matrix,
    jacobi_table,
    kernel_values,
    one,
    prog,
    sample_config,
    sphere_space,
    witness_parity_sphere,
    witness_product,
    witness_progression_circle,
)
from spdkernels import geometry
from spdkernels.geometry import TWO_PI
from spdkernels.gram import _POINT_CLASSES, _split_points
from spdkernels.gram import _check_duplicates as _check_slots
from spdkernels.kernels import BETA_BY_FAMILY, CHUNK_PAIRS
from spdkernels.orthopoly import (
    _checked_argument,
    _checked_degree,
    _checked_dimension,
    _norm_vector,
    _ratio_table,
    circle_table,
    gegenbauer_table,
)
from test_geometry import _pointwise_sample_config, _sampled_resamples
from test_gram import LATE_ODD_L1


# --- the earlier implementations ----------------------------------------------

# The contraction slice of the earlier code; the library's CHUNK_PAIRS is
# half of it, and the values must not follow the slice.
REFERENCE_CHUNK = 16_384


def reference_circle_table(kmax, t):
    kmax = _checked_degree(kmax)
    x = _checked_argument(t)
    out = np.empty((kmax + 1, x.size))
    out[0] = 1.0
    if kmax == 0:
        return out
    prev = np.ones_like(x)
    cur = x.copy()
    out[1] = 2.0 * cur
    for k in range(2, kmax + 1):
        prev, cur = cur, 2.0 * x * cur - prev
        out[k] = (2.0 / k) * cur
    return out


def reference_ratio_table(nmax, m, x):
    out = np.empty((nmax + 1, x.size))
    out[0] = 1.0
    if nmax == 0:
        return out
    out[1] = x
    for n in range(2, nmax + 1):
        out[n] = ((2 * n + m - 3) * x * out[n - 1] - (n - 1) * out[n - 2]) / (n + m - 2)
    return out


def reference_gegenbauer_table(nmax, m, t):
    nmax = _checked_degree(nmax)
    m = _checked_dimension(m)
    x = _checked_argument(t)
    return reference_ratio_table(nmax, m, x) * _norm_vector(nmax, m)[:, None]


def reference_jacobi_table(lmax, alpha, beta, t):
    lmax = _checked_degree(lmax)
    alpha = float(alpha)
    beta = float(beta)
    if alpha <= -1.0 or beta <= -1.0:
        raise ValueError(f"jacobi parameters must exceed -1, got alpha={alpha}, beta={beta}")
    x = _checked_argument(t)
    out = np.empty((lmax + 1, x.size))
    out[0] = 1.0
    if lmax == 0:
        return out
    out[1] = (alpha + 1.0) + (alpha + beta + 2.0) * (x - 1.0) / 2.0
    ab = alpha + beta
    for n in range(2, lmax + 1):
        c0 = 2.0 * n * (n + ab) * (2.0 * n + ab - 2.0)
        c1 = (2.0 * n + ab - 1.0) * (2.0 * n + ab) * (2.0 * n + ab - 2.0)
        c2 = (2.0 * n + ab - 1.0) * (alpha * alpha - beta * beta)
        c3 = 2.0 * (n + alpha - 1.0) * (n + beta - 1.0) * (2.0 * n + ab)
        out[n] = ((c1 * x + c2) * out[n - 1] - c3 * out[n - 2]) / c0
    return out


def reference_sphere_axis_table(spec, s):
    if spec.space.kind == "circle_sphere":
        return reference_gegenbauer_table(spec.lmax, spec.space.m, s)
    return reference_jacobi_table(spec.lmax, spec.space.alpha, spec.space.beta, s)


def reference_contract(spec, t, s):
    if s is not None:
        marginals = spec.coefficient_matrix.T @ reference_circle_table(spec.kmax, t)
        return (marginals * reference_sphere_axis_table(spec, s)).sum(axis=0)
    table = (
        reference_circle_table(spec.axis_cap, t)
        if spec.space.kind == "circle"
        else reference_gegenbauer_table(spec.axis_cap, spec.space.m, t)
    )
    return spec.coefficient_matrix @ table


def reference_kernel_values(spec, t, s=None):
    out = np.empty(t.shape)
    for lo in range(0, len(t), REFERENCE_CHUNK):
        hi = lo + REFERENCE_CHUNK
        out[lo:hi] = reference_contract(spec, t[lo:hi], None if s is None else s[lo:hi])
    return out


def _check_duplicates(thetas, zs):
    """The library's screen on a circle slot's angles and a sphere slot's
    rows, None for an empty slot."""
    _check_slots([_POINT_CLASSES["circle"], _POINT_CLASSES["sphere"]], (thetas, zs))


def reference_dot_matrices(thetas, zs):
    t = s = None
    if thetas is not None:
        t = np.cos(thetas[:, None] - thetas[None, :])
    if zs is not None:
        s = np.clip(zs @ zs.T, -1.0, 1.0)
    return t, s


def reference_gram_matrix(spec, points):
    """The earlier assembly; its pairs go through the library's contraction,
    whose round-off the oracle tests bound."""
    thetas, zs = _split_points(spec, points)
    _check_duplicates(thetas, zs)
    t, s = reference_dot_matrices(thetas, zs)
    n = len(points)
    iu = np.triu_indices(n)
    if spec.space.is_product:
        vals = kernel_values(spec, t[iu], s[iu])
    else:
        vals = kernel_values(spec, t[iu] if t is not None else s[iu])
    a = np.empty((n, n))
    a[iu] = vals
    a.T[iu] = vals
    return a


def reference_check_duplicates(thetas, zs):
    n = len(thetas) if thetas is not None else len(zs)
    rows = max(1, REFERENCE_CHUNK // n)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        same = np.triu(np.ones((hi - lo, n - lo), dtype=bool), k=1)
        if thetas is not None:
            d = np.abs(thetas[lo:hi, None] - thetas[None, lo:]) % TWO_PI
            same &= np.minimum(d, TWO_PI - d) <= 1e-12
        if zs is not None and same.any():
            same &= np.linalg.norm(zs[lo:hi, None, :] - zs[None, lo:, :], axis=-1) <= 1e-12
        if same.any():
            i, j = np.unravel_index(np.argmax(same), same.shape)
            raise ValueError(f"invalid configuration: points {lo + i} and {lo + j} coincide")


# --- polynomial tables and the contraction --------------------------------------

@st.composite
def arguments(draw):
    """Arguments in [-1, 1]: hypothesis values for one or two, a seeded
    uniform array one longer than the earlier contraction slice otherwise (a
    lone last pair in both slicings); the first entries may be planted at the
    endpoints +/-1."""
    n = draw(st.sampled_from([1, 2, REFERENCE_CHUNK + 1]))
    if n <= 2:
        x = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    else:
        x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, n)
    ends = draw(st.lists(st.sampled_from([-1.0, 1.0]), max_size=n))
    x[: len(ends)] = ends
    return x


degrees = st.integers(0, 120)
dimensions = st.integers(2, 8)
jacobi_parameters = st.floats(-0.999, 8.0)


@settings(max_examples=40, deadline=None)
@given(kmax=degrees, m=dimensions, x=arguments())
def test_tables_are_bit_identical(kmax, m, x):
    assert np.array_equal(circle_table(kmax, x), reference_circle_table(kmax, x))
    assert np.array_equal(_ratio_table(kmax, m, x), reference_ratio_table(kmax, m, x))
    assert np.array_equal(gegenbauer_table(kmax, m, x), reference_gegenbauer_table(kmax, m, x))


@settings(max_examples=40, deadline=None)
@given(lmax=degrees, alpha=jacobi_parameters, beta=jacobi_parameters, x=arguments())
def test_jacobi_table_is_bit_identical(lmax, alpha, beta, x):
    assert np.array_equal(jacobi_table(lmax, alpha, beta, x), reference_jacobi_table(lmax, alpha, beta, x))


_PRODUCT_SPACES = [circle_sphere_space(m) for m in range(2, 9)] + [
    circle_tph_space(family, d)
    for family, d in [("real_proj", 2), ("real_proj", 5), ("complex_proj", 4), ("quat_proj", 8), ("cayley", 16)]
]
assert {s.family for s in _PRODUCT_SPACES if s.family} == set(BETA_BY_FAMILY)


ONE = np.ones(1)


def oracle_product_values(spec, t, s):
    """sum_{k,l} a_{k,l} P_k(t) P_l(s) in long double, over the library's
    float64 coefficients and tables."""
    circ = circle_table(spec.kmax, t).astype(np.longdouble)
    sph = axis_table(spec, 1, s).astype(np.longdouble)
    return ((spec.coefficient_matrix.astype(np.longdouble).T @ circ) * sph).sum(axis=0)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is no wider than double"
)
@pytest.mark.filterwarnings("ignore:degenerate kernel spec")
@settings(max_examples=30, deadline=None)
@given(
    space=st.sampled_from(_PRODUCT_SPACES),
    support=st.sampled_from(SPD_PRODUCT_SUPPORTS + battery_2d(8, 20)),
    kmax=degrees,
    lmax=degrees,
    rates=st.one_of(st.none(), st.tuples(st.floats(0.05, 0.99), st.floats(0.05, 0.99))),
    t=arguments(),
    seed=st.integers(0, 2**32 - 1),
)
def test_product_contraction_lies_within_the_oracle_bound(space, support, kmax, lmax, rates, t, seed):
    scheme = constant_scheme(1.5) if rates is None else geometric_scheme(*rates)
    spec = KernelSpec(space, support, scheme, (kmax, lmax))
    s = np.random.default_rng(seed).uniform(-1.0, 1.0, t.size)
    s[: t.size // 2] = t[: t.size // 2]  # the planted endpoints on both axes
    # the oracle at the planted pairs, every 16th pair and the last
    sample = np.unique(np.r_[: min(t.size, 64), : t.size : 16, t.size - 1])
    oracle = oracle_product_values(spec, t[sample], s[sample])
    bound = (kmax + lmax + 2) * np.finfo(float).eps * float(oracle_product_values(spec, ONE, ONE)[0])
    # the library's factors and the earlier dense product, one chunk or three
    for values in (kernel_values(spec, t, s), reference_kernel_values(spec, t, s)):
        assert np.max(np.abs(values[sample] - oracle)) <= bound


def decimal_rows(cap, m, arg):
    """P_0..P_cap at the Decimal arg, at the context's precision: P_n = (2/n)
    T_n on the circle (m None, P_0 = 1), the Gegenbauer polynomial
    C_n^((m - 1)/2) on S^m, each by its three-term recurrence."""
    rows = [Decimal(1)]
    prev, cur = Decimal(1), arg if m is None else (m - 1) * arg  # degrees 0 and 1
    for n in range(1, cap + 1):
        if n > 1:
            if m is None:
                prev, cur = cur, 2 * arg * cur - prev
            else:
                prev, cur = cur, ((2 * n + m - 3) * arg * cur - (n + m - 3) * prev) / n
        rows.append(cur * 2 / n if m is None else cur)
    return rows


def decimal_values(spec, x):
    """sum_n a_n P_n(x) of a single-space spec in 40-digit decimal
    arithmetic, over its float64 coefficients and at the float arguments x
    (``decimal_rows``)."""
    a = spec.coefficient_matrix
    nonzero = np.flatnonzero(a)
    if not len(nonzero):
        return np.zeros(len(x))
    a = [Decimal(float(v)) for v in a[: nonzero[-1] + 1]]
    with localcontext() as ctx:
        ctx.prec = 40
        return np.array([
            float(sum(c * p for c, p in zip(a, decimal_rows(len(a) - 1, spec.space.m, Decimal(float(arg))))))
            for arg in x
        ])


def decimal_cos(x):
    """cos x of a Decimal x, |x| < 2 pi, by its Taylor series at the context's precision."""
    term = total = Decimal(1)
    tiny = Decimal(10) ** -(getcontext().prec + 2)
    n = 0
    while abs(term) > tiny:
        n += 2
        term = -term * x * x / (n * (n - 1))
        total += term
    return total


def exact_dot(y, z):
    """y . z of float coordinates in Decimal, exact at the context's 40
    digits (each product of two doubles has at most 106 bits), clipped to
    [-1, 1] as the library clips its float dot products."""
    dot = sum((Decimal(float(a)) * Decimal(float(b)) for a, b in zip(y, z)), Decimal(0))
    return min(max(dot, Decimal(-1)), Decimal(1))


def decimal_gram_entries(spec, points, pairs, exact_dots=False):
    """Gram entries (i, j) in 40-digit decimal arithmetic, over the spec's
    float64 coefficients: a circle slot at the points' exact angle
    difference theta_i - theta_j, a sphere slot at the library's float dot
    product z_i . z_j, clipped, or with ``exact_dots`` at ``exact_dot`` of
    the float coordinates."""
    thetas, zs = _split_points(spec, points)
    _, s = reference_dot_matrices(None, zs)
    # (K + 1) x (L + 1): one column on a circle, one row on a sphere
    a = spec.coefficient_matrix.reshape(spec.kmax + 1 if thetas is not None else 1, -1)
    terms = [(k, [(l, Decimal(float(a[k, l]))) for l in np.flatnonzero(a[k])]) for k in range(len(a))]
    terms = [(k, row) for k, row in terms if row]
    out = []
    with localcontext() as ctx:
        ctx.prec = 40
        for i, j in pairs:
            circ = [Decimal(1)] if thetas is None else decimal_rows(
                spec.kmax, None, decimal_cos(Decimal(float(thetas[i])) - Decimal(float(thetas[j])))
            )
            if s is None:
                sph = [Decimal(1)]
            else:
                dot = exact_dot(zs[i], zs[j]) if exact_dots else Decimal(float(s[i, j]))
                sph = decimal_rows(spec.lmax, spec.space.m, dot)
            out.append(float(sum((circ[k] * sum(c * sph[l] for l, c in row) for k, row in terms), Decimal(0))))
    return np.array(out)


def angle_bound(spec):
    """(2 pi (K + 1) + 2 (K + L + 2)) eps f(1, 1) for a spec with a circle
    slot, L = 0 on a circle: the first term bounds the rounding of k theta
    (or of theta_i - theta_j, where the circle slot takes its table), the
    second the sums."""
    lmax = spec.lmax if spec.space.is_product else 0
    return (2 * math.pi * (spec.kmax + 1) + 2 * (spec.kmax + lmax + 2)) * np.finfo(float).eps * spec.value_at_one


def sphere_bound(spec):
    """The contraction term, ``angle_bound`` with a circle slot and
    ``single_bound`` without one, plus (m + 1) eps, which bounds the
    rounding of a float dot product of two unit (m + 1)-vectors, times the
    Lipschitz bound in s: sum f_l l (l + m - 1)/m <= f(1) L (L + m - 1)/m,
    since |P_l'| <= P_l'(1) = P_l(1) l (l + m - 1)/m on [-1, 1]."""
    m, lmax = spec.space.m, spec.lmax
    contraction = angle_bound(spec) if spec.space.is_product else single_bound(spec)
    return contraction + (m + 1) * np.finfo(float).eps * spec.value_at_one * lmax * (lmax + m - 1) / m


def single_bound(spec):
    """2 (K + L + 2) eps f(1) for a single-space spec, its one axis's cap as K + L."""
    return 2 * (spec.axis_cap + 2) * np.finfo(float).eps * float(decimal_values(spec, ONE)[0])


def assert_within_the_decimal_bound(spec, x, *routes):
    """Each route's values at the arguments x lie within ``single_bound`` of the decimal ones."""
    want = decimal_values(spec, x)
    bound = single_bound(spec)
    for got in routes:
        assert np.max(np.abs(got - want), initial=0.0) <= bound


@pytest.mark.filterwarnings("ignore:degenerate kernel spec")
@settings(max_examples=30, deadline=None)
@given(
    space=st.sampled_from([circle_space()] + [sphere_space(m) for m in range(2, 9)]),
    support=st.sampled_from(battery_1d(7, 20)),
    cap=degrees,
    rate=st.floats(0.05, 0.99),
    t=arguments(),
)
def test_single_contraction_lies_within_the_decimal_bound(space, support, cap, rate, t):
    spec = KernelSpec(space, support, geometric_scheme(rate, rate), (cap, cap))
    # the planted endpoints, every 256th argument and the last
    sample = np.unique(np.r_[: min(t.size, 64), : t.size : 256, t.size - 1])
    library, earlier = kernel_values(spec, t), reference_kernel_values(spec, t)
    assert_within_the_decimal_bound(spec, t[sample], library[sample], earlier[sample])


def endpoint_arguments(seed):
    """Arguments within 1e-4 of +/-1 and within 1e-2 of 0, and near
    +/-cos(pi/4), +/-cos(pi/8) and +/-cos(pi/16), where the arguments halved
    two, three and four times meet +/-1; +/-1 and 0 themselves among them."""
    rng = np.random.default_rng(seed)
    near = 10.0 ** -rng.uniform(4.0, 16.0, 24)
    theta = np.pi / np.repeat([4.0, 8.0, 16.0], 8)
    nudged = np.cos(theta + rng.choice([-1.0, 1.0], 24) * 10.0 ** -rng.uniform(3.0, 12.0, 24))
    return np.clip(np.concatenate([
        [1.0, -1.0, 0.0], 1.0 - near[:12], near[12:] - 1.0, rng.uniform(-1e-2, 1e-2, 12), nudged, -nudged,
    ]), -1.0, 1.0)


@pytest.mark.parametrize("scheme", [constant_scheme(1.5), geometric_scheme(0.99, 0.99)], ids=["constant", "geometric"])
@pytest.mark.parametrize("space", [circle_space(), sphere_space(2), sphere_space(5)], ids=str)
@pytest.mark.parametrize("cap", [60, 120])
def test_folded_values_next_to_the_endpoints_lie_within_the_decimal_bound(space, scheme, cap):
    # the folded route at the arguments where rounding them moves T_k the
    # most, and where the halved arguments meet their endpoints: all at once
    # and each alone, as the eval command takes it
    spec = KernelSpec(space, SupportSet1D((prog(0, 1),)), scheme, (cap, cap))
    x = endpoint_arguments(cap)
    alone = np.array([eval_kernel(spec, v) for v in x])
    assert_within_the_decimal_bound(spec, x, kernel_values(spec, x), alone)


def fraction_gegenbauer_sum(coefficients, m, t):
    """sum_l a_l C_l^((m - 1)/2)(t) in exact rationals, over the float
    coefficients a_l and at the float t, by the three-term recurrence."""
    t = Fraction(t)
    rows = [Fraction(1), (m - 1) * t]
    for n in range(2, len(coefficients)):
        rows.append(((2 * n + m - 3) * t * rows[-1] - (n + m - 3) * rows[-2]) / n)
    return sum(Fraction(float(a)) * p for a, p in zip(coefficients, rows))


@pytest.mark.xfail(
    strict=True,
    reason="the folded route keeps an absolute bound, 2 (K + L + 2) eps f(1): on S^100 a value "
    "23 orders of magnitude below f(1) loses every digit and its sign",
)
def test_eval_on_a_high_dimensional_sphere_keeps_its_digits():
    spec = KernelSpec(sphere_space(100), SupportSet1D((prog(0, 2),)), geometric_scheme(0.9, 0.9), (0, 60))
    exact = float(fraction_gegenbauer_sum(spec.coefficient_matrix, 100, 0.3))
    assert exact == pytest.approx(5.1886e18, rel=1e-4)
    assert eval_kernel(spec, 0.3) == pytest.approx(exact, rel=1e-10)


# --- Gram matrices ----------------------------------------------------------------

def _sampled_entries(spec, points, a, count=160, seed=0):
    """The arguments and the library's values at ``count`` upper-triangle
    entries of a single-space Gram a (its first and last among them), with
    the earlier contraction's values at the same arguments."""
    thetas, zs = _split_points(spec, points)
    t, s = reference_dot_matrices(thetas, zs)
    x = (t if t is not None else s)[np.triu_indices(len(points))]
    pick = np.unique(np.r_[0, np.random.default_rng(seed).integers(0, len(x), count), len(x) - 1])
    return x[pick], a[np.triu_indices(len(points))][pick], reference_kernel_values(spec, x)[pick]


GRAM_CASES = [(1, 40, 0), (2, 0, 1), (37, 120, 2), (190, 60, 3), (200, 20, 4), (260, 120, 5), (280, 60, 6)]


@pytest.mark.filterwarnings("ignore:degenerate kernel spec")
@pytest.mark.parametrize("kind", ["sphere"])
@pytest.mark.parametrize("n, trunc, seed", GRAM_CASES)
def test_gram_matrix_is_bit_identical(kind, n, trunc, seed):
    # 190, 200, 260 and 280 points give 18 145, 20 100, 33 930 and 39 340
    # upper-triangle pairs: three to five chunks here, two or three before;
    # every earlier slice is cut into whole chunks and a last chunk that
    # starts where the earlier last slice did.  The values, of the library
    # and of the earlier contraction, lie within the decimal bound.
    spec, points = _gram_case(kind, n, trunc, seed)
    a = gram_matrix(spec, points)
    assert np.array_equal(a, reference_gram_matrix(spec, points))
    assert_within_the_decimal_bound(spec, *_sampled_entries(spec, points, a, seed=seed))


def assert_circle_gram_within_the_angle_bound(spec, points, a, count=160, seed=0):
    """The Gram a is symmetric bit for bit, and at ``count`` upper-triangle
    entries (its first and last among them) a and the earlier assembly over
    the library's contraction at cos(theta_i - theta_j) lie within
    ``angle_bound`` of ``decimal_gram_entries``."""
    assert np.array_equal(a, a.T)
    i, j = np.triu_indices(len(points))
    pick = np.unique(np.r_[0, np.random.default_rng(seed).integers(0, len(i), count), len(i) - 1])
    want = decimal_gram_entries(spec, points, zip(i[pick], j[pick]))
    bound = angle_bound(spec)
    for got in (a, reference_gram_matrix(spec, points)):
        assert np.max(np.abs(got[i[pick], j[pick]] - want)) <= bound


@pytest.mark.filterwarnings("ignore:degenerate kernel spec")
@pytest.mark.parametrize(
    "kind, n, trunc, seed",
    [(kind, *case) for kind in ("circle", "circle_sphere") for case in GRAM_CASES]
    # the circle cases whose earlier last slice was wider than a chunk
    + [("circle", 129, 120, 1), ("circle", 134, 60, 1), ("circle", 300, 60, 1), ("circle", 300, 120, 4)],
)
def test_circle_gram_matrix_lies_within_the_angle_bound(kind, n, trunc, seed):
    # the circle slot takes its rows from the points' features: every entry
    # moves at round-off against the earlier assembly, and both lie within
    # the bound of the exact angle differences
    spec, points = _gram_case(kind, n, trunc, seed)
    assert_circle_gram_within_the_angle_bound(spec, points, gram_matrix(spec, points), seed=seed)


def _gram_case(kind, n, trunc, seed):
    m = 2 + seed
    xs, zs = sample_config(m, n, n, seed)
    if kind == "circle":
        return KernelSpec(circle_space(), battery_1d(seed, 1)[0], geometric_scheme(), (trunc, 0)), xs
    if kind == "sphere":
        return KernelSpec(sphere_space(m), battery_1d(seed, 1)[0], geometric_scheme(), (0, trunc)), zs
    support = SPD_PRODUCT_SUPPORTS[seed]
    return KernelSpec(circle_sphere_space(m), support, geometric_scheme(), (trunc, trunc)), list(zip(xs, zs))


@pytest.mark.parametrize("kind", ["sphere"])
@pytest.mark.parametrize("n, trunc, seed", [(129, 120, 1), (134, 60, 1), (300, 60, 1), (300, 120, 4)])
def test_gram_matrix_where_the_earlier_last_slice_was_wider_than_a_chunk(kind, n, trunc, seed):
    # 8385, 9045 and 45 150 pairs leave an earlier last slice of 8385, 9045
    # and 12 382 pairs, which is now cut in two.  BLAS may round a few of its
    # columns differently at another width (a threaded gemv splits the slice
    # between threads and takes the columns before each split apart), and
    # the library contracts on other tables: the entries of that slice, from
    # the library and from the earlier contraction, lie within the decimal
    # bound, as every other entry does.
    spec, points = _gram_case(kind, n, trunc, seed)
    iu = np.triu_indices(n)
    a = gram_matrix(spec, points)
    assert np.array_equal(a, reference_gram_matrix(spec, points))
    pairs = len(iu[0])
    last = pairs - pairs % REFERENCE_CHUNK
    assert pairs - last > CHUNK_PAIRS
    x, got, earlier = _sampled_entries(spec, points, a, seed=seed)
    assert_within_the_decimal_bound(spec, x, got, earlier)
    thetas, zs = _split_points(spec, points)
    t, s = reference_dot_matrices(thetas, zs)
    tail = np.r_[last : pairs : 97, pairs - 1]
    x = (t if t is not None else s)[iu][tail]
    assert_within_the_decimal_bound(spec, x, a[iu][tail], reference_kernel_values(spec, x))


@pytest.mark.parametrize("kind", ["sphere"])
def test_single_space_gram_is_bit_identical_at_degree_500(kind):
    _, zs = sample_config(3, 200, 200, seed=7)
    spec = KernelSpec(sphere_space(3), battery_1d(8, 1)[0], geometric_scheme(), (0, 500))
    a = gram_matrix(spec, zs)
    assert np.array_equal(a, reference_gram_matrix(spec, zs))
    assert_within_the_decimal_bound(spec, *_sampled_entries(spec, zs, a, count=60))


@pytest.mark.parametrize("kmax", [500, 2000])
def test_circle_gram_matrix_lies_within_the_angle_bound_at_high_degree(kmax):
    # 200 points: features at K = 500, the table in narrowed slices at K = 2000
    xs, _ = sample_config(3, 200, 200, seed=7)
    spec = KernelSpec(circle_space(), battery_1d(8, 1)[0], geometric_scheme(0.999), (kmax, 0))
    assert_circle_gram_within_the_angle_bound(spec, xs, gram_matrix(spec, xs), count=60)


def _sphere_gram_case(m, lmax, product):
    xs, zs = sample_config(m, 200, 200, seed=lmax + m)
    scheme = geometric_scheme(0.99, 0.99)
    if product:
        return KernelSpec(circle_sphere_space(m), SPD_PRODUCT_SUPPORTS[0], scheme, (lmax, lmax)), list(zip(xs, zs))
    return KernelSpec(sphere_space(m), SupportSet1D((prog(0, 1),)), scheme, (0, lmax)), zs


@pytest.mark.parametrize(
    "m, lmax, product", [(m, lmax, False) for m in (2, 3, 5) for lmax in (20, 60, 120)] + [(2, 60, True)]
)
def test_sphere_gram_lies_within_the_sphere_bound_at_exact_dot_products(m, lmax, product):
    # the bound is fixed from the spec alone, before the Gram is built
    spec, points = _sphere_gram_case(m, lmax, product)
    bound = sphere_bound(spec)
    a = gram_matrix(spec, points)
    i, j = np.triu_indices(len(points))
    pick = np.unique(np.r_[0, np.random.default_rng(m).integers(0, len(i), 160), len(i) - 1])
    want = decimal_gram_entries(spec, points, zip(i[pick], j[pick]), exact_dots=True)
    assert np.max(np.abs(a[i[pick], j[pick]] - want)) <= bound


# --- the duplicate screen -------------------------------------------------------------

def _fault(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _plant(thetas, zs, i, j, angle_shift=0.0, coord_shift=0.0):
    """Point j moved onto point i, then nudged by the shifts."""
    if thetas is not None:
        thetas[j] = (thetas[i] + angle_shift) % TWO_PI
    if zs is not None:
        zs[j] = zs[i]
        zs[j, 1] += coord_shift


@pytest.mark.parametrize("kind", ["circle", "sphere", "circle_sphere"])
def test_duplicate_screen_keeps_the_block_scans_message(kind):
    n = 300  # rows of one block: 27 now, 54 before
    rng = np.random.default_rng(21)
    thetas = None if kind == "sphere" else rng.uniform(0.0, TWO_PI, n)
    zs = None
    if kind != "circle":
        zs = rng.standard_normal((n, 3))
        zs /= np.linalg.norm(zs, axis=1, keepdims=True)
    assert _fault(_check_duplicates, thetas, zs) is None
    rows = CHUNK_PAIRS // n
    placements = [
        [(0, 1)],  # the first pair
        [(0, n - 1)],  # the first row's last column
        [(n - 2, n - 1)],  # the last pair
        [(rows - 1, rows)],  # across a block boundary
        [(rows, 2 * rows + 3), (rows - 1, n - 1)],  # last row of block one wins
        [(5, 250), (5, 40)],  # the first column of a row wins
        [(120, 250), (130, 140)],  # row order, not column order
        [(3, 4, 1e-12), (7, 9)],  # a gap at the tolerance, in the margin
        [(3, 4, 2e-12)],  # a gap past it: no fault
    ]
    for faults in placements:
        th = None if thetas is None else thetas.copy()
        z = None if zs is None else zs.copy()
        for i, j, *shift in faults:
            _plant(th, z, i, j, *shift, *shift)
        want = _fault(reference_check_duplicates, th, z)
        assert _fault(_check_duplicates, th, z) == want
    assert want is None
    if thetas is not None:
        # straddling zero: just above 0 and just below 2pi
        th = thetas.copy()
        th[17], th[250] = 4e-13, TWO_PI - 5e-13
        z = None if zs is None else zs.copy()
        if z is not None:
            z[250] = z[17]
        want = _fault(reference_check_duplicates, th, z)
        assert want == "invalid configuration: points 17 and 250 coincide"
        assert _fault(_check_duplicates, th, z) == want
    if zs is not None:
        # equal keys of distinct points: the screen passes them to the scan
        z = zs.copy()
        if thetas is None:
            z[200] = z[100] * np.array([1.0, -1.0, -1.0])  # same first coordinate
        th = None if thetas is None else thetas.copy()
        if th is not None:
            th[200] = th[100]
        assert _fault(reference_check_duplicates, th, z) is None
        assert _fault(_check_duplicates, th, z) is None


# --- the batched sampler ------------------------------------------------------------

def _sampler_counts(caplog):
    (record,) = [r for r in caplog.records if r.name == "spdkernels.geometry"]
    found = re.search(r" used (\d+) resamples, (\d+) batches, (\d+) pointwise$", record.getMessage())
    return tuple(int(v) for v in found.groups())


@pytest.mark.parametrize(
    "m, n_circle, n_sphere, seed, min_gap, fallback",
    [
        (2, 800, 800, 11, 1e-9, False),  # one batch a phase, every candidate accepted
        (2, 800, 0, 12, 1e-3, True),  # about 100 near circle pairs
        (2, 0, 800, 13, 0.01, True),  # about 16 near sphere pairs
    ],
)
def test_batched_sampler_matches_pointwise_reference_at_800(
    caplog, monkeypatch, m, n_circle, n_sphere, seed, min_gap, fallback
):
    caplog.set_level(logging.DEBUG, logger="spdkernels.geometry")
    monkeypatch.setattr(geometry, "_SAMPLING_GAP", min_gap)
    xs, zs = sample_config(m, n_circle, n_sphere, seed)
    thetas, coords, resamples = _pointwise_sample_config(m, n_circle, n_sphere, seed, min_gap)
    assert [x.theta for x in xs] == thetas
    assert [z.coords for z in zs] == coords
    assert _sampled_resamples(caplog) == resamples
    used, batches, pointwise = _sampler_counts(caplog)
    assert used == resamples
    if fallback:
        assert resamples > 0 and pointwise > 0 and batches > 1
    else:
        assert (resamples, batches, pointwise) == (0, 2, 0)


# --- the witness assembly -----------------------------------------------------------

def reference_first_basis_point(m):
    return SpherePoint((1.0,) + (0.0,) * m)


def reference_roots_of_unity_weights(n, j):
    thetas = [CirclePoint(2.0 * math.pi * mu / n) for mu in range(n)]
    d = np.array([math.cos(2.0 * math.pi * j * mu / n) for mu in range(n)])
    return thetas, d


def reference_parity_assembly(spec):
    """Points and coefficients of the earlier parity witness (parity-pure
    sphere-axis supports only)."""
    terms = spec.support.l_terms() if spec.space.is_product else list(spec.support.terms)
    parity_even = terms[0].base % 2 == 0
    z = reference_first_basis_point(spec.space.m)
    if spec.space.is_product:
        x = CirclePoint(0.0)
        points = ((x, z), (x, antipode(z)))
    else:
        points = (z, antipode(z))
    c = np.array([1.0, -1.0]) if parity_even else np.array([1.0, 1.0])
    return points, c


def reference_progression_assembly(witness):
    """Points and coefficients of the earlier progression witness on a circle spec."""
    xs, d = reference_roots_of_unity_weights(witness.modulus, witness.residue)
    return tuple(xs), d


def reference_composed_assembly(spec, failure):
    """Points and coefficients of the earlier product witness at gamma = 0:
    the roots of unity crossed with e0 and its antipode."""
    n, j = failure.witness.modulus, failure.witness.residue
    xs, d = reference_roots_of_unity_weights(n, j)
    points = enhanced_points(xs, [reference_first_basis_point(spec.space.m)])
    c = np.concatenate([d, d if failure.parity == "even" else -d])
    return points, c


def reference_geodesic_assembly(spec, failure):
    """Points and coefficients of the geodesic product witness when a, the
    least integer >= gamma of the failing parity, is at least 2: the great
    circle points pi mu / a, the last a written as the negations of the
    first a, weighted (-1)^mu, outer to the roots of unity."""
    n, j = failure.witness.modulus, failure.witness.residue
    a = failure.gamma + (failure.gamma % 2 != (failure.parity == "odd"))
    xs, d = reference_roots_of_unity_weights(n, j)
    rest = (0.0,) * (spec.space.m - 1)
    half = [(math.cos(math.pi * mu / a), math.sin(math.pi * mu / a)) + rest for mu in range(a)]
    zs = [SpherePoint(z) for z in half] + [SpherePoint(tuple(-x for x in z)) for z in half]
    w = np.array([(-1.0) ** mu for mu in range(2 * a)])
    return tuple((x, z) for z in zs for x in xs), np.kron(w, d)


def _assert_same_witness(spec, w, points, c):
    assert w.points == points
    assert w.coefficients == tuple(c)
    # single-space Grams may round with the BLAS thread count, so the form is
    # compared at round-off rather than by bits
    residual = float(c @ gram_matrix(spec, list(points)) @ c)
    assert abs(w.residual - residual) <= 1e-12 * w.scale


PARITY_PURE_SPHERE = [
    SupportSet1D((prog(0, 2),)),
    SupportSet1D((prog(1, 2),)),
    SupportSet1D((prog(0, 4), one(2), one(6))),
    SupportSet1D((one(1), prog(3, 2), prog(5, 4))),
    SupportSet1D((one(0),)),
]


@pytest.mark.parametrize("support", PARITY_PURE_SPHERE)
@pytest.mark.parametrize("m", [2, 3, 5])
def test_parity_witness_matches_the_earlier_code(support, m):
    spec = KernelSpec(sphere_space(m), support, geometric_scheme(), (0, 30))
    _assert_same_witness(spec, witness_parity_sphere(spec), *reference_parity_assembly(spec))


@pytest.mark.parametrize("l_terms", [(prog(0, 2),), (prog(1, 2), one(3))])
def test_product_parity_witness_matches_the_earlier_code(l_terms):
    spec = KernelSpec(
        circle_sphere_space(2), SupportSet2D(tuple((prog(0, 1), lt) for lt in l_terms)),
        geometric_scheme(), (20, 20),
    )
    _assert_same_witness(spec, witness_parity_sphere(spec), *reference_parity_assembly(spec))


@pytest.mark.parametrize("n", range(2, 13))
def test_progression_witness_matches_the_earlier_code(n):
    # multiples of n avoid every class j != 0 mod n
    spec = KernelSpec(circle_space(), SupportSet1D((prog(0, n),)), geometric_scheme(), (40, 0))
    for j in range(1, n):
        witness = ProgressionWitness(n, j)
        w = witness_progression_circle(spec, witness)
        _assert_same_witness(spec, w, *reference_progression_assembly(witness))


@pytest.mark.parametrize(
    "support, m",
    [(support, m) for support, _ in NOT_SPD_PRODUCT_SUPPORTS_G0 for m in (2, 5)]
    + [(support, m) for support in LATE_ODD_L1 for m in (2, 3)],
)
def test_composed_witness_matches_the_earlier_code(support, m):
    # gamma-0 witnesses are those of the earlier code; the late ones, whose
    # l = 1 sits over the missed class, take the geodesic factor a = 3
    spec = KernelSpec(circle_sphere_space(m), support, geometric_scheme(), (30, 30))
    cert = certify_circle_sphere(support, m)
    failure = cert.counterexample
    reference = reference_composed_assembly if failure.gamma == 0 else reference_geodesic_assembly
    _assert_same_witness(spec, witness_product(spec, cert), *reference(spec, failure))
