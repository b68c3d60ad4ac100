"""The in-place polynomial recurrences, the upper-triangle Gram matrix, the
blocked circle check and the batched sampler against the code they replaced.

``reference_*`` below are verbatim copies of the earlier code: recurrences
that allocate fresh arrays for every degree, a contraction that multiplies
into a new array, a Gram matrix that takes the cosine of all n^2 angle
differences, and a double loop over circle points.  The library must return
the same floats bit for bit (``np.array_equal``), the same sampled points and
resample counts, and the same first faulty pair.
"""

import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SPD_PRODUCT_SUPPORTS, battery_1d
from spdkernels import (
    CirclePoint,
    KernelSpec,
    circle_space,
    circle_sphere_space,
    circle_tph_space,
    geometric_scheme,
    gram_matrix,
    jacobi_table,
    kernel_values,
    sample_config,
    sphere_space,
)
from spdkernels.geometry import TWO_PI, _check_circle_distinct
from spdkernels.gram import _check_duplicates, _split_points
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


# --- the earlier implementations ----------------------------------------------

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
    for lo in range(0, len(t), CHUNK_PAIRS):
        hi = lo + CHUNK_PAIRS
        out[lo:hi] = reference_contract(spec, t[lo:hi], None if s is None else s[lo:hi])
    return out


def reference_dot_matrices(thetas, zs):
    t = s = None
    if thetas is not None:
        t = np.cos(thetas[:, None] - thetas[None, :])
    if zs is not None:
        s = np.clip(zs @ zs.T, -1.0, 1.0)
    return t, s


def reference_gram_matrix(spec, points):
    thetas, zs = _split_points(spec, points)
    _check_duplicates(thetas, zs)
    t, s = reference_dot_matrices(thetas, zs)
    n = len(points)
    iu = np.triu_indices(n)
    if spec.space.is_product:
        vals = reference_kernel_values(spec, t[iu], s[iu])
    else:
        vals = reference_kernel_values(spec, t[iu] if t is not None else s[iu])
    a = np.empty((n, n))
    a[iu] = vals
    a.T[iu] = vals
    return a


def reference_check_circle_distinct(xs, tol):
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            if xs[i].gap(xs[j]) <= tol:
                raise ValueError(f"circle points {i} and {j} coincide within {tol}")


# --- polynomial tables and the contraction --------------------------------------

@st.composite
def arguments(draw):
    """Arguments in [-1, 1]: hypothesis values for one or two, a seeded
    uniform array one longer than a contraction chunk otherwise; the first
    entries may be planted at the endpoints +/-1."""
    n = draw(st.sampled_from([1, 2, CHUNK_PAIRS + 1]))
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


@pytest.mark.filterwarnings("ignore:degenerate kernel spec")
@settings(max_examples=30, deadline=None)
@given(
    space=st.sampled_from(_PRODUCT_SPACES),
    support=st.sampled_from(SPD_PRODUCT_SUPPORTS),
    kmax=degrees,
    lmax=degrees,
    rates=st.tuples(st.floats(0.05, 0.99), st.floats(0.05, 0.99)),
    t=arguments(),
    seed=st.integers(0, 2**32 - 1),
)
def test_product_contraction_is_bit_identical(space, support, kmax, lmax, rates, t, seed):
    spec = KernelSpec(space, support, geometric_scheme(*rates), (kmax, lmax))
    s = np.random.default_rng(seed).uniform(-1.0, 1.0, t.size)
    s[: t.size // 2] = t[: t.size // 2]  # the planted endpoints on both axes
    # one contraction chunk, or two
    assert np.array_equal(kernel_values(spec, t, s), reference_kernel_values(spec, t, s))


@pytest.mark.filterwarnings("ignore:degenerate kernel spec")
@settings(max_examples=30, deadline=None)
@given(
    space=st.sampled_from([circle_space()] + [sphere_space(m) for m in range(2, 9)]),
    support=st.sampled_from(battery_1d(7, 20)),
    cap=degrees,
    rate=st.floats(0.05, 0.99),
    t=arguments(),
)
def test_single_contraction_is_bit_identical(space, support, cap, rate, t):
    spec = KernelSpec(space, support, geometric_scheme(rate, rate), (cap, cap))
    assert np.array_equal(kernel_values(spec, t), reference_kernel_values(spec, t))


# --- Gram matrices ----------------------------------------------------------------

@pytest.mark.filterwarnings("ignore:degenerate kernel spec")
@pytest.mark.parametrize("kind", ["circle", "sphere", "circle_sphere"])
@pytest.mark.parametrize("n, trunc, seed", [(1, 40, 0), (2, 0, 1), (37, 120, 2), (190, 60, 3)])
def test_gram_matrix_is_bit_identical(kind, n, trunc, seed):
    # 190 points give 18 145 upper-triangle pairs: two contraction chunks
    m = 2 + seed
    xs, zs = sample_config(m, n, n, seed)
    if kind == "circle":
        spec, points = KernelSpec(circle_space(), battery_1d(seed, 1)[0], geometric_scheme(), (trunc, 0)), xs
    elif kind == "sphere":
        spec, points = KernelSpec(sphere_space(m), battery_1d(seed, 1)[0], geometric_scheme(), (0, trunc)), zs
    else:
        support = SPD_PRODUCT_SUPPORTS[seed]
        spec, points = KernelSpec(circle_sphere_space(m), support, geometric_scheme(), (trunc, trunc)), list(zip(xs, zs))
    assert np.array_equal(gram_matrix(spec, points), reference_gram_matrix(spec, points))


# --- the blocked circle check --------------------------------------------------------

def _circle_fault(check, xs, tol):
    try:
        check(xs, tol)
    except ValueError as exc:
        return str(exc)
    return None


def test_first_circle_fault_across_row_blocks():
    n = 200
    rows = CHUNK_PAIRS // n  # the rows of one block
    base, _ = sample_config(2, n, 0, seed=6)
    assert _circle_fault(_check_circle_distinct, base, 1e-12) is None
    placements = [
        [(rows + 5, rows + 6), (rows - 1, n - 1)],  # last row of block one
        [(rows, rows + 1), (2 * rows + 3, n - 2)],  # first row of block two
        [(n - 2, n - 1)],  # the last pair of all
        [(2, n - 50), (10, 60)],  # row order, not column order
        [(3, 2 * rows + 1), (3, rows + 1)],  # two faults in one row
    ]
    for faults in placements:
        xs = list(base)
        for i, j in faults:
            xs[j] = xs[i]  # exact coincidence
        want = _circle_fault(reference_check_circle_distinct, xs, 1e-12)
        assert _circle_fault(_check_circle_distinct, xs, 1e-12) == want
    assert want == f"circle points 3 and {rows + 1} coincide within 1e-12"


@pytest.mark.parametrize("offset, coincide", [(4e-13, True), (6e-13, False)])
def test_circle_pair_straddling_zero(offset, coincide):
    base, _ = sample_config(2, 300, 0, seed=8)
    xs = list(base)
    xs[17], xs[250] = CirclePoint(offset), CirclePoint(-offset)  # the second sits just below 2pi
    assert xs[250].theta > 6.28
    want = _circle_fault(reference_check_circle_distinct, xs, 1e-12)
    assert _circle_fault(_check_circle_distinct, xs, 1e-12) == want
    assert (want == "circle points 17 and 250 coincide within 1e-12") == coincide


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 300),
    seed=st.integers(0, 2**16),
    pairs=st.lists(st.tuples(st.integers(0, 299), st.integers(0, 299), st.floats(-3e-12, 3e-12)), max_size=4),
    straddle=st.booleans(),
)
def test_circle_check_matches_the_double_loop(n, seed, pairs, straddle):
    thetas = np.random.default_rng(seed).uniform(0.0, TWO_PI, n)
    if straddle:
        thetas[0], thetas[-1] = 1e-13, TWO_PI - 1e-13
    for i, j, shift in pairs:
        if i < n and j < n and i != j:
            thetas[j] = thetas[i] + shift
    xs = [CirclePoint(float(t)) for t in thetas]
    gaps = [xs[i].gap(xs[j]) for i, j, _ in pairs if i < n and j < n and i != j]
    for tol in [1e-12] + [g for gap in gaps for g in (math.nextafter(gap, 0.0), gap)]:
        want = _circle_fault(reference_check_circle_distinct, xs, tol)
        assert _circle_fault(_check_circle_distinct, xs, tol) == want


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
    caplog, m, n_circle, n_sphere, seed, min_gap, fallback
):
    caplog.set_level(logging.DEBUG, logger="spdkernels.geometry")
    xs, zs = sample_config(m, n_circle, n_sphere, seed, min_gap=min_gap)
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
