"""The in-place polynomial recurrences, the streamed Gram matrix, the chunked
layer matrix, the screened duplicate checks, the batched sampler and the
tensored witness assembly against the code they replaced.

``reference_*`` below are verbatim copies of the earlier code: recurrences
that allocate fresh arrays for every degree, a contraction that multiplies
into a new array in slices of 16 384 pairs, a Gram matrix that takes the
cosine of all n^2 angle differences, a layer matrix built in one piece, a
block scan of every pair for duplicates, a double loop over circle
points, and the points and coefficients of three separate witness functions.
The library must return the same floats bit for bit (``np.array_equal``),
the same sampled points and resample counts, the same first faulty pair,
and the same witness points and coefficients.
"""

import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NOT_SPD_PRODUCT_SUPPORTS_G0, SPD_PRODUCT_SUPPORTS, battery_1d
from spdkernels import (
    CirclePoint,
    KernelSpec,
    ProgressionWitness,
    SpherePoint,
    SupportSet1D,
    SupportSet2D,
    build_enhanced,
    certify_circle_sphere,
    circle_space,
    circle_sphere_space,
    circle_tph_space,
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
from spdkernels.geometry import TWO_PI, _check_circle_distinct
from spdkernels.gram import (
    _check_duplicates, _dot_matrices, _layer_matrix, _low_layers, _null_weights, _split_points,
)
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


def reference_layer_matrix(spec, enhanced, degree):
    thetas, zs = _split_points(spec, enhanced.points)
    t, s = _dot_matrices(thetas, zs)
    column = spec.coefficient_matrix[:, degree, None]
    marg = (column * circle_table(spec.kmax, t.ravel())).sum(axis=0)
    sph = gegenbauer_table(degree, spec.space.m, s.ravel())[degree]
    return (marg * sph).reshape(t.shape)


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


def reference_check_circle_distinct(xs, tol):
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            if xs[i].gap(xs[j]) <= tol:
                raise ValueError(f"circle points {i} and {j} coincide within {tol}")


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
    # one contraction chunk, or three
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
@pytest.mark.parametrize(
    "n, trunc, seed",
    [(1, 40, 0), (2, 0, 1), (37, 120, 2), (190, 60, 3), (200, 20, 4), (260, 120, 5), (280, 60, 6)],
)
def test_gram_matrix_is_bit_identical(kind, n, trunc, seed):
    # 190, 200, 260 and 280 points give 18 145, 20 100, 33 930 and 39 340
    # upper-triangle pairs: three to five chunks here, two or three before;
    # every earlier slice is cut into whole chunks and a last chunk that
    # starts where the earlier last slice did
    spec, points = _gram_case(kind, n, trunc, seed)
    assert np.array_equal(gram_matrix(spec, points), reference_gram_matrix(spec, points))


def _gram_case(kind, n, trunc, seed):
    m = 2 + seed
    xs, zs = sample_config(m, n, n, seed)
    if kind == "circle":
        return KernelSpec(circle_space(), battery_1d(seed, 1)[0], geometric_scheme(), (trunc, 0)), xs
    if kind == "sphere":
        return KernelSpec(sphere_space(m), battery_1d(seed, 1)[0], geometric_scheme(), (0, trunc)), zs
    support = SPD_PRODUCT_SUPPORTS[seed]
    return KernelSpec(circle_sphere_space(m), support, geometric_scheme(), (trunc, trunc)), list(zip(xs, zs))


@pytest.mark.parametrize("kind", ["circle", "sphere", "circle_sphere"])
@pytest.mark.parametrize("n, trunc, seed", [(129, 120, 1), (134, 60, 1), (300, 60, 1), (300, 120, 4)])
def test_gram_matrix_where_the_earlier_last_slice_was_wider_than_a_chunk(kind, n, trunc, seed):
    # 8385, 9045 and 45 150 pairs leave an earlier last slice of 8385, 9045
    # and 12 382 pairs, which is now cut in two.  BLAS may round a few of its
    # columns differently at another width (a threaded gemv splits the slice
    # between threads and takes the columns before each split apart): those
    # entries move by round-off, every other entry keeps its bits.
    spec, points = _gram_case(kind, n, trunc, seed)
    iu = np.triu_indices(n)
    got, want = gram_matrix(spec, points)[iu], reference_gram_matrix(spec, points)[iu]
    last = len(want) - len(want) % REFERENCE_CHUNK
    assert len(want) - last > CHUNK_PAIRS
    assert np.array_equal(got[:last], want[:last])
    moved = got[last:] != want[last:]
    assert np.count_nonzero(moved) <= 8
    assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * spec.value_at_one


@pytest.mark.parametrize("kind", ["circle", "sphere"])
def test_single_space_gram_is_bit_identical_at_degree_500(kind):
    xs, zs = sample_config(3, 200, 200, seed=7)
    support = battery_1d(8, 1)[0]
    if kind == "circle":
        spec, points = KernelSpec(circle_space(), support, geometric_scheme(), (500, 0)), xs
    else:
        spec, points = KernelSpec(sphere_space(3), support, geometric_scheme(), (0, 500)), zs
    assert np.array_equal(gram_matrix(spec, points), reference_gram_matrix(spec, points))


@pytest.mark.parametrize("p, q", [(8, 6), (10, 10)])  # 9 216 and 40 000 pairs
def test_layer_matrix_is_bit_identical(p, q):
    xs, zs = sample_config(2, p, q, seed=p)
    enhanced = build_enhanced(xs, zs)
    spec = KernelSpec(circle_sphere_space(2), SPD_PRODUCT_SUPPORTS[0], geometric_scheme(), (40, 30))
    for degree in (0, 1, 2, 5, 30):
        assert np.array_equal(_layer_matrix(spec, enhanced, degree), reference_layer_matrix(spec, enhanced, degree))


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
        points = ((x, z), (x, z.antipode()))
    else:
        points = (z, z.antipode())
    c = np.array([1.0, -1.0]) if parity_even else np.array([1.0, 1.0])
    return points, c


def reference_progression_assembly(witness):
    """Points and coefficients of the earlier progression witness on a circle spec."""
    xs, d = reference_roots_of_unity_weights(witness.modulus, witness.residue)
    return tuple(xs), d


def reference_composed_assembly(spec, failure):
    """Points and coefficients of the earlier product witness."""
    m = spec.space.m
    n, j = failure.witness.modulus, failure.witness.residue
    low = _low_layers(spec, failure)
    q = 1 + sum(math.comb(l + m, m) - math.comb(l + m - 2, m) for l in low)  # dim H_l(S^m)
    xs, d = reference_roots_of_unity_weights(n, j)
    zs = [reference_first_basis_point(m)] + sample_config(m, 0, q - 1, seed=0)[1]
    enhanced = build_enhanced(xs, zs)
    plain = np.kron(_null_weights(m, zs, low), d)
    c = np.concatenate([plain, plain if failure.parity == "even" else -plain])
    return enhanced.points, c


def _assert_same_witness(spec, w, points, c):
    assert w.points == points
    assert w.coefficients == tuple(c)
    # single-space Grams may round with the BLAS thread count, so the form is
    # compared at round-off rather than by bits
    residual = float(c @ gram_matrix(spec, list(points)) @ c)
    assert abs(w.residual - residual) <= 1e-12 * w.scale


PARITY_PURE_SPHERE = [
    SupportSet1D.of(prog(0, 2)),
    SupportSet1D.of(prog(1, 2)),
    SupportSet1D.of(prog(0, 4), one(2), one(6)),
    SupportSet1D.of(one(1), prog(3, 2), prog(5, 4)),
    SupportSet1D.of(one(0)),
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
    spec = KernelSpec(circle_space(), SupportSet1D.of(prog(0, n)), geometric_scheme(), (40, 0))
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
    spec = KernelSpec(circle_sphere_space(m), support, geometric_scheme(), (30, 30))
    cert = certify_circle_sphere(support, m)
    w = witness_product(spec, cert)
    _assert_same_witness(spec, w, *reference_composed_assembly(spec, cert.counterexample))
