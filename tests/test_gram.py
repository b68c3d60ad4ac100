"""Gram assembly, positive-definiteness checks and degeneracy witnesses."""

import dataclasses
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import (
    LATE_FAILURES, NOT_SPD_PRODUCT_SUPPORTS_G0, SPD_PRODUCT_SUPPORTS, antipode, battery_1d, battery_2d,
    block_deviations, circle_dot, enhanced_points, layer_matrix_ref, per_degree_forms_ref,
    record_halved_tables, sphere_dot,
)
from spdkernels import (
    CirclePoint,
    KernelSpec,
    NotApplicableError,
    NumericalError,
    SpherePoint,
    SupportSet1D,
    SupportSet2D,
    Verdict,
    certify_circle,
    certify_circle_sphere,
    certify_sphere,
    check_pd,
    circle_space,
    circle_sphere_space,
    circle_tph_space,
    constant_scheme,
    eval_kernel,
    geometric_scheme,
    gram_matrix,
    kernel_values,
    one,
    prog,
    sample_config,
    sphere_space,
    witness_parity_sphere,
    witness_product,
    witness_progression_circle,
)
from spdkernels.gram import _POINT_CLASSES, _check_duplicates
from spdkernels.kernels import _SLICE_VECTORS, _WORKSPACE, CHUNK_PAIRS, _depth

FULL_2D = SupportSet2D(((prog(0, 1), prog(0, 1)),))


def product_spec(support=FULL_2D, trunc=(30, 30), scheme=None, m=2):
    return KernelSpec(circle_sphere_space(m), support, scheme or geometric_scheme(), trunc)


def product_points(n, seed=0, m=2):
    xs, zs = sample_config(m, n, n, seed)
    return list(zip(xs, zs))


# --- gram assembly -----------------------------------------------------------------

def test_gram_symmetric_exactly():
    spec = product_spec()
    a = gram_matrix(spec, product_points(12, seed=4))
    assert np.array_equal(a, a.T)
    assert a.shape == (12, 12)


def test_gram_diagonal_is_value_at_one():
    spec = product_spec()
    a = gram_matrix(spec, product_points(6, seed=5))
    assert np.allclose(np.diag(a), spec.value_at_one, atol=1e-12)


def test_gram_entries_match_eval():
    spec = product_spec(trunc=(12, 12))
    pts = product_points(5, seed=6)
    a = gram_matrix(spec, pts)
    for i in range(5):
        for j in range(5):
            t = circle_dot(pts[i][0], pts[j][0])
            s = sphere_dot(pts[i][1], pts[j][1])
            assert a[i, j] == pytest.approx(eval_kernel(spec, t, s), abs=1e-12)


def test_gram_full_support_positive_definite():
    spec = product_spec()
    a = gram_matrix(spec, product_points(15, seed=7))
    ok, lam = check_pd(a)
    assert ok and lam > 0


def test_gram_rejects_duplicates():
    spec = product_spec()
    x = CirclePoint(0.5)
    z = SpherePoint((0.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="invalid configuration"):
        gram_matrix(spec, [(x, z), (x, z)])


def test_gram_rejects_mismatched_points():
    spec = product_spec()
    with pytest.raises(ValueError, match="pairs"):
        gram_matrix(spec, [CirclePoint(0.1), CirclePoint(0.7)])
    circ = KernelSpec(circle_space(), SupportSet1D((prog(0, 1),)), geometric_scheme(), (10, 0))
    a = gram_matrix(circ, [CirclePoint(0.1), CirclePoint(0.7)])
    assert a.shape == (2, 2)


def test_gram_rejects_wrong_sphere_dimension():
    spec = product_spec(m=3)
    with pytest.raises(ValueError):
        gram_matrix(spec, product_points(3, seed=1, m=2))


def test_gram_unavailable_for_tph():
    space = circle_tph_space("real_proj", 2)
    spec = KernelSpec(space, FULL_2D, geometric_scheme(), (10, 10))
    with pytest.raises(NotApplicableError, match="no geometric point model for circle_tph"):
        gram_matrix(spec, product_points(3, seed=2))
    with pytest.raises(NotApplicableError, match="no geometric point model for circle_tph"):
        witness_parity_sphere(spec)


# --- check_pd ---------------------------------------------------------------------------

def test_check_pd_basics():
    ok, lam = check_pd(np.eye(4))
    assert ok and lam == pytest.approx(1.0)
    bad = np.diag([1.0, -0.5])
    ok, lam = check_pd(bad)
    assert not ok and lam == pytest.approx(-0.5)


def test_check_pd_relative_threshold():
    # lambda_min must clear tol * max(1, largest diagonal)
    a = np.diag([1e8, 1e-4])
    ok, _ = check_pd(a, tol=1e-10)
    assert not ok
    ok, _ = check_pd(a, tol=1e-13)
    assert ok


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
def test_check_pd_refuses_a_tolerance_that_decides_nothing(tol):
    with pytest.raises(ValueError, match=f"^{tol} must be a finite number >= 0$"):
        check_pd(np.eye(3), tol)


def test_check_pd_accepts_a_zero_tolerance():
    assert check_pd(np.eye(3), 0.0) == (True, 1.0)


def test_check_pd_requires_symmetry():
    a = np.array([[1.0, 0.2], [0.1, 1.0]])
    with pytest.raises(ValueError):
        check_pd(a)


# --- per-degree decomposition -------------------------------------------------------------

def test_per_degree_forms_reconstruct_quadratic_form():
    spec = product_spec(trunc=(20, 20))
    pts = product_points(8, seed=11)
    rng = np.random.default_rng(2)
    c = rng.normal(size=8)
    a = gram_matrix(spec, pts)
    total, layers = per_degree_forms_ref(spec, pts, c)
    assert layers.shape == (21,)
    assert total == pytest.approx(float(c @ a @ c), abs=1e-11 * spec.value_at_one)
    assert layers.sum() == pytest.approx(total, abs=1e-11 * spec.value_at_one)


def test_per_degree_layers_nonnegative():
    spec = product_spec(trunc=(15, 15))
    pts = product_points(7, seed=13)
    c = np.linspace(-1, 1, 7)
    _, layers = per_degree_forms_ref(spec, pts, c)
    assert (layers > -1e-12 * spec.value_at_one).all()


@pytest.mark.parametrize("p, q", [(8, 6), (10, 10)])  # 4 656 and 20 100 upper-triangle pairs
def test_gram_matrix_matches_the_one_piece_layer_matrices(p, q):
    # the chunked, folded Gram over the enhanced points against the sum of
    # each sphere degree's layer matrix built in one piece from the family
    # tables
    xs, zs = sample_config(2, p, q, seed=p)
    points = enhanced_points(xs, zs)
    spec = product_spec(SPD_PRODUCT_SUPPORTS[0], trunc=(40, 30))
    a = gram_matrix(spec, list(points))
    expected = sum(layer_matrix_ref(spec, points, degree) for degree in range(31))
    assert np.max(np.abs(a - expected)) <= 1e-13 * spec.value_at_one


def test_gram_matrix_walks_the_upper_triangle_in_chunks(monkeypatch):
    calls = record_halved_tables(monkeypatch)
    spec = product_spec(trunc=(6, 6))
    pts = product_points(200, seed=3)  # 20 100 upper-triangle pairs
    a = gram_matrix(spec, pts)
    # the sphere slot folds onto T_k, halved once: its 4-row table is
    # tabulated once a chunk; the circle slot's rows come from its features
    depth = spec._slot_plan[1].depth
    assert (depth, spec._slot_plan[1].table_rows) == (1, 4)
    assert [call[:3] for call in calls] == [
        (6, depth, CHUNK_PAIRS), (6, depth, CHUNK_PAIRS), (6, depth, 200 * 201 // 2 - 2 * CHUNK_PAIRS)
    ]
    assert np.array_equal(a, a.T)
    for i, j in [(0, 0), (0, 199), (40, 41), (41, 199), (199, 199)]:  # row starts and ends
        t, s = circle_dot(pts[i][0], pts[j][0]), sphere_dot(pts[i][1], pts[j][1])
        assert a[i, j] == pytest.approx(eval_kernel(spec, t, s), abs=1e-12 * spec.value_at_one)


def test_the_feature_route_reads_only_the_circle_slots_beta():
    # a circle slot on features takes beta alone: its halved rows are never
    # made, while the sphere slot, tabulated, makes its own
    xs, zs = sample_config(2, 30, 30, seed=4)
    circle = KernelSpec(circle_space(), SupportSet1D((prog(0, 1),)), geometric_scheme(), (40, 0))
    product = product_spec(trunc=(40, 20))
    assert len(product._factors[0]) == 1
    gram_matrix(circle, xs)
    gram_matrix(product, list(zip(xs, zs)))
    for spec in (circle, product):
        assert tuple(spec._slot_plan) == spec._slots
        assert "beta" in vars(spec._slot_plan[0]) and "halved" not in vars(spec._slot_plan[0])
    assert "halved" in vars(product._slot_plan[1])


def _record_calls(monkeypatch, names):
    """Record (degree cap, width) of every call the contraction makes of each named table."""
    import spdkernels.kernels as kernels_mod

    calls = {name: [] for name in names}

    def recorder(name, table):
        def recording(cap, *args, out=None):
            calls[name].append((cap, np.size(args[-1])))
            return table(cap, *args, out=out)
        return recording

    for name in names:
        monkeypatch.setattr(kernels_mod, name, recorder(name, getattr(kernels_mod, name)))
    return calls


def test_a_factored_circle_slot_takes_its_rows_from_features(monkeypatch):
    calls = _record_calls(monkeypatch, ("circle_table",))
    halved = record_halved_tables(monkeypatch)
    xs, zs = sample_config(2, 60, 60, seed=8)
    pairs = 60 * 61 // 2
    # a circle spec and a product off the dense route (r = 1): no circle rows
    circle = KernelSpec(circle_space(), SupportSet1D((prog(0, 1),)), geometric_scheme(), (120, 0))
    gram_matrix(circle, xs)
    product = product_spec(trunc=(120, 40))
    gram_matrix(product, list(zip(xs, zs)))
    assert [call[:3] for call in halved] == [(40, _depth(40, 1), pairs)] and calls == {"circle_table": []}
    # the dense route's identity circle slot keeps its family table
    dense = product_spec(SupportSet2D(tuple((one(k), one(k)) for k in range(6))), trunc=(5, 5))
    assert dense._factors[0] is None
    halved.clear()
    gram_matrix(dense, list(zip(xs, zs)))
    assert [call[:3] for call in halved] == [(5, _depth(5, 6), pairs)] and calls == {"circle_table": [(5, pairs)]}
    # past the workspace, 100 x (2K + 1) > _WORKSPACE, the circle slot
    # tabulates T_j at halved arguments, in slices whose halved table,
    # level and product rows and vectors keep within _WORKSPACE: 4328 pairs
    halved.clear()
    calls["circle_table"].clear()
    xs, _ = sample_config(2, 100, 0, seed=8)
    pairs = 100 * 101 // 2
    wide = KernelSpec(circle_space(), SupportSet1D((prog(0, 1),)), geometric_scheme(), (8_500, 0))
    a = gram_matrix(wide, xs)
    depth = _depth(8_500, 1)
    width = _WORKSPACE // ((8_500 >> depth) + 1 + depth + 3 + (1 << depth) + _SLICE_VECTORS)
    assert calls["circle_table"] == []
    assert width == 4_328 < pairs
    assert [call[:3] for call in halved] == [(8_500, depth, width)] * (pairs // width) + [(8_500, depth, pairs % width)]
    i, j = 3, 41
    assert a[i, j] == pytest.approx(eval_kernel(wide, circle_dot(xs[i], xs[j])), abs=1e-12 * wide.value_at_one)


@pytest.mark.parametrize("n", [30, 60])
def test_a_circle_gram_past_degree_120_stays_within_the_workspace(n):
    # K = 10 000: 30 points take the features, 5.0 MiB, and 60 points the
    # halved table, their 1830 pairs in one slice (at most 4112 pairs),
    # 3.4 MiB; one family-table slice of all the pairs took 35.7 and 140 MiB
    spec = KernelSpec(circle_space(), SupportSet1D((prog(0, 1),)), geometric_scheme(0.999), (10_000, 0))
    xs, _ = sample_config(2, n, 0, seed=5)
    tracemalloc.start()
    try:
        gram_matrix(spec, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20


@pytest.mark.parametrize("trunc", [(20, 2_000), (2_000, 20)])
def test_every_table_past_degree_120_stays_within_the_workspace(monkeypatch, trunc):
    names = ("circle_table", "gegenbauer_table", "jacobi_table")
    calls = _record_calls(monkeypatch, names)
    halved = record_halved_tables(monkeypatch)
    spec = product_spec(trunc=trunc)
    pts = product_points(40, seed=6)
    gram_matrix(spec, pts)
    # a folded slot's buffers: the halved table, its levels (one argument
    # per level, d and D) and the 2^h r product rows, each and together
    assert halved
    for call in halved:
        products = len(spec._slot_plan[trunc.index(call.cap)].halved) * call.width
        assert call.out.size == ((call.cap >> call.depth) + 1) * call.width
        assert call.levels.size == (call.depth + 3) * call.width
        assert max(call.out.base.size, call.levels.base.size, products) <= _WORKSPACE
        assert call.out.base.size + call.levels.base.size + products <= _WORKSPACE
    # no factor slot keeps its family table, so here the one past degree 120
    # is the tph axis's: 2001 rows, and a slice holds 495 of the 820 pairs
    tph = KernelSpec(circle_tph_space("quat_proj", 8), FULL_2D, geometric_scheme(), trunc)
    t, s = np.random.default_rng(6).uniform(-1.0, 1.0, (2, 820))
    kernel_values(tph, t, s)
    made = [call for name in names for call in calls[name]]
    assert {cap for cap, _ in made} == {trunc[1]}
    assert all((cap + 1) * width <= _WORKSPACE for cap, width in made)


def test_gram_matrix_memory_follows_one_chunk():
    # n = 800 at K = L = 60: the matrix, written over the sphere dot
    # products, takes 5.1 MB, one chunk's table 4 MB and its two factor
    # rows 0.1 MB; building every upper-triangle pair's arguments and
    # values took 32.7 MB
    spec = product_spec(trunc=(60, 60))
    pts = product_points(800, seed=5)
    tracemalloc.start()
    try:
        gram_matrix(spec, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20


def test_sphere_gram_is_written_over_its_dot_products():
    # one n x n array holds the dot products and then the Gram; a copy of the
    # dot products beside it would take n^2 doubles more
    n = 1500
    _, zs = sample_config(2, 0, n, seed=4)
    spec = KernelSpec(sphere_space(2), SupportSet1D((prog(0, 1),)), geometric_scheme(), (0, 4))
    tracemalloc.start()
    try:
        gram_matrix(spec, zs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    workspace = 2**21  # one chunk's table, indices and values at L = 4: under 1 MB
    assert peak <= 1.5 * n * n * 8 + workspace


def test_dot_products_are_the_clipped_sphere_dot_products():
    _, zs = sample_config(3, 0, 40, seed=9)
    coords = np.array([z.coords for z in zs])
    coords = np.vstack([coords, coords[:1], -coords[:1]])  # a repeat and an antipode
    s = _POINT_CLASSES["sphere"].argument(coords)
    assert s.shape == (42, 42)
    assert np.array_equal(s, np.clip(coords @ coords.T, -1.0, 1.0))
    assert np.all(np.abs(s) <= 1.0)


def _overflowing(space):
    """61 coefficients of 1e308, on the circle at sphere degree 0 or on the
    sphere alone: their sum at 1 is past float64."""
    if space == "circle":
        return KernelSpec(circle_space(), SupportSet1D((prog(0, 1),)), constant_scheme(1e308), (60, 0))
    if space == "sphere":
        return KernelSpec(sphere_space(2), SupportSet1D((prog(0, 1),)), constant_scheme(1e308), (0, 60))
    return product_spec(trunc=(60, 0), scheme=constant_scheme(1e308))


@pytest.mark.parametrize(
    "space, call",
    [
        ("circle", lambda spec, pts: eval_kernel(spec, 1.0)),
        ("circle", lambda spec, pts: gram_matrix(spec, pts)),
        ("sphere", lambda spec, pts: eval_kernel(spec, 1.0)),
        ("sphere", lambda spec, pts: gram_matrix(spec, pts)),
        ("product", lambda spec, pts: eval_kernel(spec, 1.0, 1.0)),
        ("product", lambda spec, pts: gram_matrix(spec, pts)),
    ],
    ids=["circle-eval", "circle-gram", "sphere-eval", "sphere-gram", "product-eval", "product-gram"],
)
def test_non_finite_kernel_values_raise_numerical_error(space, call):
    # both branches of the contraction refuse a slice that overflows, where
    # they passed inf and NaN on to the caller
    spec = _overflowing(space)
    if space == "circle":
        pts = sample_config(2, 5, 0, seed=1)[0]
    elif space == "sphere":
        pts = sample_config(2, 0, 5, seed=1)[1]
    else:
        pts = product_points(3, seed=1)
    with pytest.raises(NumericalError, match="not finite"):
        call(spec, pts)


# --- enhanced block structure ----------------------------------------------------------------

def test_enhanced_blocks_exact():
    spec = product_spec(trunc=(25, 25))
    xs, zs = sample_config(2, 3, 3, seed=17)
    points = enhanced_points(xs, zs)
    for degree in (0, 1, 2, 7):
        assert block_deviations(spec, points, degree) == (0.0, 0.0)


# --- parity witness -----------------------------------------------------------------------------

def test_parity_witness_even_only_sphere():
    spec = KernelSpec(
        sphere_space(2), SupportSet1D((prog(0, 2),)), geometric_scheme(), (0, 40)
    )
    w = witness_parity_sphere(spec)
    assert w.kind == "parity"
    assert w.residual == 0.0
    assert list(w.coefficients) == [1.0, -1.0]
    assert float(np.linalg.norm(w.coefficients)) >= 1.0
    assert len(w.points) == 2
    # the quadratic form the witness reports really is c^T A c
    a = gram_matrix(spec, list(w.points))
    c = np.array(w.coefficients)
    assert float(c @ a @ c) == pytest.approx(w.residual, abs=1e-12)


def test_parity_witness_odd_only_uses_plus_plus():
    spec = KernelSpec(
        sphere_space(2), SupportSet1D((prog(1, 2),)), geometric_scheme(), (0, 40)
    )
    w = witness_parity_sphere(spec)
    assert list(w.coefficients) == [1.0, 1.0]
    assert w.residual == 0.0


def test_parity_witness_on_product():
    spec = product_spec(SupportSet2D(((prog(0, 1), prog(0, 2)),)))
    w = witness_parity_sphere(spec)
    assert w.residual == 0.0
    a = gram_matrix(spec, list(w.points))
    c = np.array(w.coefficients)
    assert float(c @ a @ c) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.filterwarnings("ignore:degenerate kernel spec")
def test_parity_witness_serves_mixed_and_empty_supports():
    # evens plus {3}: finitely many odd degrees, so the geodesic factor a = 5,
    # 10 great-circle points, cancels the odd layer 3 and every even one
    spec = KernelSpec(
        sphere_space(2), SupportSet1D((prog(0, 2), one(3))), geometric_scheme(), (0, 40)
    )
    w = witness_parity_sphere(spec)
    assert w.kind == "parity" and len(w.points) == len(w.coefficients) == 10
    assert abs(w.residual) <= 1e-10 * w.scale
    c = np.array(w.coefficients)
    assert float(c @ gram_matrix(spec, list(w.points)) @ c) == pytest.approx(w.residual, abs=1e-12 * w.scale)
    # an empty support keeps no degree of either parity: a = 0, so e0 and -e0
    # weighted (1, 1), as for an odd support
    empty = KernelSpec(sphere_space(2), SupportSet1D(()), geometric_scheme(), (0, 40))
    w = witness_parity_sphere(empty)
    assert w.kind == "parity" and w.coefficients == (1.0, 1.0)
    assert w.points == (SpherePoint((1.0, 0.0, 0.0)), SpherePoint((-1.0, -0.0, -0.0)))
    assert w.residual == 0.0 and w.scale == 0.0


def test_parity_witness_refuses_both_parities_infinite():
    for terms in ([prog(0, 1)], [prog(0, 2), prog(5, 4)], [one(1), prog(2, 3)]):
        spec = KernelSpec(sphere_space(3), SupportSet1D(tuple(terms)), geometric_scheme(), (0, 20))
        with pytest.raises(NotApplicableError, match="infinitely many degrees of each parity"):
            witness_parity_sphere(spec)


def test_parity_witness_keeps_the_parity_with_fewer_points():
    # {1, 3, 4} is finite in both parities: keeping odd takes a = 5, 10 points,
    # the antipodes signed -1 as a is odd (keeping even would take a = 6)
    spec = KernelSpec(sphere_space(2), SupportSet1D((one(1), one(3), one(4))), geometric_scheme(), (0, 20))
    w = witness_parity_sphere(spec)
    assert len(w.points) == 10
    assert w.points[5:] == tuple(map(antipode, w.points[:5]))
    assert w.coefficients[5:] == tuple(-c for c in w.coefficients[:5])
    assert abs(w.residual) <= 1e-10 * w.scale
    # {2, 5, 7} on S^5: keeping even takes a = 4, 8 points, the antipodes
    # signed +1 (keeping odd would take a = 9)
    spec = KernelSpec(sphere_space(5), SupportSet1D((one(2), one(5), one(7))), geometric_scheme(), (0, 20))
    w = witness_parity_sphere(spec)
    assert len(w.points) == 8
    assert w.points[4:] == tuple(map(antipode, w.points[:4]))
    assert w.coefficients[4:] == w.coefficients[:4]
    assert abs(w.residual) <= 1e-10 * w.scale


def test_parity_witness_on_mixed_product():
    # the sphere axis holds the even degrees and l = 1, over every k: one circle
    # point crossed with the geodesic factor a = 3, six great-circle points
    support = SupportSet2D(((prog(0, 1), prog(0, 2)), (prog(0, 2), one(1))))
    spec = product_spec(support, trunc=(20, 20), m=3)
    w = witness_parity_sphere(spec)
    assert len(w.points) == 6
    assert {x for x, _ in w.points} == {CirclePoint(0.0)}
    total, layers = per_degree_forms_ref(spec, list(w.points), w.coefficients)
    assert np.max(np.abs(layers)) <= 1e-10 * w.scale
    assert abs(w.residual) <= 1e-10 * w.scale


def test_parity_witness_past_the_point_limit_is_refused():
    # evens plus {3, 5001} on S^2: a = 5003 takes 10 006 points, wherever L is
    spec = KernelSpec(
        sphere_space(2), SupportSet1D((prog(0, 2), one(3), one(5001))), geometric_scheme(), (0, 20)
    )
    with pytest.raises(
        NotApplicableError,
        match="parity witness needs 10006 points to cancel degree 5001, past the limit of 2048",
    ):
        witness_parity_sphere(spec)


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from([2, 3, 5]),
    lmax=st.sampled_from([20, 40]),
    keep=st.sampled_from([0, 1]),
    start=st.integers(0, 6),
    step=st.sampled_from([2, 4]),
    singles=st.sets(st.integers(0, 61), max_size=3),
    rate=st.floats(0.5, 0.95),
)
def test_parity_witness_on_finite_deficit_supports(m, lmax, keep, start, step, singles, rate):
    # a progression of the other parity keeps that parity infinite; the kept
    # parity is the singletons of its residue, below L or past it
    base = 2 * start + 1 - keep
    spec = KernelSpec(
        sphere_space(m), SupportSet1D((prog(base, step), *map(one, sorted(singles)))),
        geometric_scheme(rate, rate), (0, lmax),
    )
    top = max((v for v in singles if v % 2 == keep), default=-1)
    event("kept degree past L" if top > lmax else "kept degrees within L")
    w = witness_parity_sphere(spec)
    assert len(w.points) == 2 * max(top + 2 if top >= 0 else keep, 1)
    assert abs(w.residual) <= 1e-10 * w.scale
    # the form vanishes past the largest declared degree too
    past = dataclasses.replace(spec, truncation=(0, max(lmax, top + 1)))
    assert abs(_relative_form(past, w)) <= 1e-10


# --- progression witness ---------------------------------------------------------------------------

def test_progression_witness_circle():
    support = SupportSet1D((prog(0, 2),))
    spec = KernelSpec(circle_space(), support, geometric_scheme(), (40, 0))
    cert = certify_circle(support)
    w = witness_progression_circle(spec, cert.counterexample)
    assert w.kind == "progression"
    assert w.residual == 0.0
    assert float(np.linalg.norm(w.coefficients)) >= 1.0
    assert len(w.points) == cert.counterexample.modulus
    a = gram_matrix(spec, list(w.points))
    c = np.array(w.coefficients)
    assert float(c @ a @ c) == pytest.approx(0.0, abs=1e-12 * w.scale)


def test_progression_witness_modulus_six():
    support = SupportSet1D((one(0), prog(1, 3)))
    spec = KernelSpec(circle_space(), support, geometric_scheme(), (50, 0))
    cert = certify_circle(support)
    w = witness_progression_circle(spec, cert.counterexample)
    assert len(w.points) == 6
    assert float(np.linalg.norm(w.coefficients)) >= 1.0
    a = gram_matrix(spec, list(w.points))
    c = np.array(w.coefficients)
    assert abs(float(c @ a @ c)) < 1e-10 * w.scale


def test_progression_witness_refuses_covered_class():
    from spdkernels import ProgressionWitness

    spec = KernelSpec(circle_space(), SupportSet1D((prog(0, 1),)), geometric_scheme(), (40, 0))
    with pytest.raises(NotApplicableError):
        witness_progression_circle(spec, ProgressionWitness(3, 1))


# --- product witnesses ---------------------------------------------------------------------------------

def test_product_witness_composed_at_gamma_zero():
    for support, parity in NOT_SPD_PRODUCT_SUPPORTS_G0[:4]:
        spec = product_spec(support, trunc=(40, 40))
        cert = certify_circle_sphere(support, 2)
        w = witness_product(spec, cert)
        assert w.kind == "composed", (support, parity)
        assert abs(w.residual) <= 1e-10 * w.scale
        assert math.fsum(np.abs(w.coefficients) ** 2) >= 1.0


# Both fail first at (gamma 2, odd) and carry odd l = 1 over the frequencies
# the witness class j mod n selects, so the geodesic factor is a = 3.
# The first misses 1 mod 2; the second misses 1 mod 3, and its l = 1 sits
# over k = 2 = -1 (mod 3) only, so that layer is hit through -j alone.
LATE_ODD_L1 = [
    SupportSet2D(((prog(0, 1), one(1)), (prog(0, 1), prog(0, 2)), (prog(0, 2), prog(1, 2)))),
    SupportSet2D(((prog(0, 1), prog(0, 2)), (prog(0, 3), prog(1, 2)), (prog(2, 3), one(1)))),
]


@pytest.mark.parametrize("support", LATE_ODD_L1)
@pytest.mark.parametrize("m", [2, 3])
def test_product_witness_exact_at_gamma_positive(support, m):
    spec = product_spec(support, trunc=(40, 40), m=m)
    cert = certify_circle_sphere(support, m)
    failure = cert.counterexample
    assert (failure.gamma, failure.parity) == (2, "odd")
    w = witness_product(spec, cert)
    assert w.kind == "composed"
    assert len(w.points) == len(w.coefficients) == 2 * 3 * failure.witness.modulus
    assert abs(w.residual) <= 1e-10 * w.scale
    # every sphere-degree layer vanishes on its own, not just their sum
    total, layers = per_degree_forms_ref(spec, list(w.points), w.coefficients)
    assert np.max(np.abs(layers)) <= 1e-10 * w.scale
    assert total == pytest.approx(w.residual, abs=1e-10 * w.scale)


def test_gamma_zero_witness_is_the_composed_construction():
    # no layer is low at gamma 0: the roots of unity crossed with e0 and its
    # antipode, coefficients (d, d) or (d, -d), bit for bit
    for support, parity in NOT_SPD_PRODUCT_SUPPORTS_G0:
        for m in (2, 5):
            cert = certify_circle_sphere(support, m)
            failure = cert.counterexample
            assert failure.gamma == 0
            n, j = failure.witness.modulus, failure.witness.residue
            roots = [CirclePoint(2.0 * math.pi * mu / n) for mu in range(n)]
            d = np.array([math.cos(2.0 * math.pi * j * mu / n) for mu in range(n)])
            e0 = SpherePoint((1.0,) + (0.0,) * m)
            c = np.concatenate([d, d if failure.parity == "even" else -d])
            w = witness_product(product_spec(support, trunc=(20, 20), m=m), cert)
            assert w.points == enhanced_points(roots, [e0])
            assert w.coefficients == tuple(c)


def _late_odd_singleton(v):
    """Odd l over odd k only at the singleton v: the first failure is gamma
    v + 1, odd, class 1 mod 2."""
    return SupportSet2D(((prog(0, 1), one(v)), (prog(0, 1), prog(0, 2)), (prog(0, 2), prog(3, 2))))


def test_witness_past_the_point_limit_is_refused():
    # the singleton 1101 needs a = 1103: 2 * 2 * 1103 = 4412 points on any sphere
    support = _late_odd_singleton(1101)
    cert = certify_circle_sphere(support, 6)
    assert (cert.counterexample.gamma, cert.counterexample.parity) == (1102, "odd")
    with pytest.raises(NotApplicableError, match="needs 4412 points to cancel degree 1101, past the limit of 2048"):
        witness_product(product_spec(support, trunc=(20, 20), m=6), cert)
    # the singleton 11 needs a = 13, 2 * 2 * 13 = 52 points, on S^6 as on S^2
    for m in (2, 6):
        support = _late_odd_singleton(11)
        small = witness_product(product_spec(support, trunc=(20, 20), m=m), certify_circle_sphere(support, m))
        assert len(small.points) == 52 and abs(small.residual) <= 1e-10 * small.scale


def test_progression_witness_takes_circle_specs_only():
    from spdkernels import ProgressionWitness

    spec = product_spec(SupportSet2D(((prog(0, 2), prog(0, 1)),)))
    with pytest.raises(NotApplicableError, match="progression witnesses need a circle spec"):
        witness_progression_circle(spec, ProgressionWitness(2, 1))


def test_progression_witness_past_the_point_limit_is_refused():
    from spdkernels import ProgressionWitness

    spec = KernelSpec(circle_space(), SupportSet1D((prog(0, 2049),)), geometric_scheme(), (40, 0))
    with pytest.raises(NotApplicableError, match="needs 2049 points, past the limit of 2048"):
        witness_progression_circle(spec, ProgressionWitness(2049, 1))


def test_product_witness_requires_refuted_product():
    spec = product_spec(SPD_PRODUCT_SUPPORTS[0])
    cert = certify_circle_sphere(SPD_PRODUCT_SUPPORTS[0], 2)
    with pytest.raises(NotApplicableError):
        witness_product(spec, cert)


def test_witness_reports_are_verbatim():
    # residuals are stored as computed, never clamped to zero
    support = SupportSet2D(((prog(0, 1), prog(0, 2)),))
    spec = product_spec(support, trunc=(30, 30))
    cert = certify_circle_sphere(support, 2)
    w = witness_product(spec, cert)
    assert isinstance(w.residual, float)
    pts = list(w.points)
    a = gram_matrix(spec, pts)
    c = np.array(w.coefficients)
    assert float(c @ a @ c) == pytest.approx(w.residual, abs=1e-12 * max(1.0, w.scale))


# --- witnesses past the truncation -------------------------------------------------------------

def _form(spec, w):
    """c' G c of a witness under another spec, such as a wider truncation."""
    c = np.array(w.coefficients)
    return float(c @ gram_matrix(spec, list(w.points)) @ c)


def _declared_top(support):
    """The largest base of any term on either axis: past it, a truncation
    holds every declared singleton and the start of every progression."""
    terms = [t for pair in support.terms for t in pair] if isinstance(support, SupportSet2D) else support.terms
    return max(t.base for t in terms)


def _relative_form(spec, w):
    """c' G c under spec over that spec's scale f(1, 1) * c' c."""
    return _form(spec, w) / (spec.value_at_one * math.fsum(np.square(w.coefficients)))


def _assert_exact_at_and_past_the_truncation(spec, w):
    assert abs(w.residual) <= 1e-10 * w.scale
    assert abs(_form(spec, w) - w.residual) <= 1e-12 * w.scale
    wide = _declared_top(spec.support) + 12
    past = dataclasses.replace(spec, truncation=(wide if spec.space.is_product else 0, wide))
    assert abs(_relative_form(past, w)) <= 1e-10


@pytest.mark.filterwarnings("ignore:degenerate kernel spec")
@pytest.mark.parametrize("seed, m", [(100, 2), (101, 3), (102, 5)])
def test_every_battery_refutation_has_a_witness_past_the_truncation(seed, m):
    # a box of 6 x 6 leaves many declared degrees (bases up to 10) past it:
    # the witness must cancel them all the same
    refuted = 0
    for support in battery_2d(seed=seed, count=150) + [s for s, _, _ in LATE_FAILURES]:
        cert = certify_circle_sphere(support, m)
        if cert.verdict is not Verdict.NOT_SPD:
            continue
        spec = product_spec(support, trunc=(6, 6), m=m)
        _assert_exact_at_and_past_the_truncation(spec, witness_product(spec, cert))
        refuted += 1
    for support in battery_1d(seed=seed, count=150):
        if certify_sphere(support, m).verdict is not Verdict.NOT_SPD:
            continue
        spec = KernelSpec(sphere_space(m), support, geometric_scheme(), (0, 6))
        _assert_exact_at_and_past_the_truncation(spec, witness_parity_sphere(spec))
        refuted += 1
    assert refuted >= 150


def test_late_singleton_over_the_missed_class_is_cancelled_at_every_truncation():
    # fails at gamma 2, odd, class 1 mod 2; l = 1 sits over k = 61 + 2i, which
    # the missed class selects, so a = 3 cancels it: 2 * 6 = 12 points
    support = SupportSet2D((
        (prog(0, 1), prog(0, 2)), (prog(0, 2), one(1)), (prog(61, 2), one(1)), (prog(0, 2), prog(1, 2)),
    ))
    spec = product_spec(support, trunc=(60, 60))
    w = witness_product(spec, certify_circle_sphere(support, 2))
    assert len(w.points) == 12
    for trunc in [(20, 20), (60, 60), (200, 200)]:
        assert abs(_relative_form(product_spec(support, trunc=trunc), w)) <= 1e-10


def test_parity_witness_cancels_a_kept_degree_past_the_truncation():
    # evens plus {3, 25} on S^2 at L = 20: the odd degree 25 lies past L, and
    # a = 27 cancels it, 54 points
    support = SupportSet1D((prog(0, 2), one(3), one(25)))
    spec = KernelSpec(sphere_space(2), support, geometric_scheme(), (0, 20))
    w = witness_parity_sphere(spec)
    assert len(w.points) == 54
    for lmax in (20, 60, 200):
        past = KernelSpec(sphere_space(2), support, geometric_scheme(), (0, lmax))
        assert abs(_relative_form(past, w)) <= 1e-10


# --- blocked duplicate check ------------------------------------------------------------------

def _pairwise_duplicate(thetas, zs):
    """First coinciding pair (i, j) of the row-by-row double loop, or None."""
    n = len(thetas) if thetas is not None else len(zs)
    for i in range(n):
        for j in range(i + 1, n):
            same = True
            if thetas is not None:
                d = abs(thetas[i] - thetas[j]) % (2 * math.pi)
                same = min(d, 2 * math.pi - d) <= 1e-12
            if same and zs is not None:
                same = float(np.linalg.norm(zs[i] - zs[j])) <= 1e-12
            if same:
                return i, j
    return None


def _reported_pair(thetas, zs):
    try:
        _check_duplicates([_POINT_CLASSES["circle"], _POINT_CLASSES["sphere"]], (thetas, zs))
    except ValueError as exc:
        words = str(exc).split()
        return int(words[-4]), int(words[-2])
    return None


def test_duplicate_check_wraps_around_the_circle():
    circ = KernelSpec(circle_space(), SupportSet1D((prog(0, 1),)), geometric_scheme(), (10, 0))
    points = [CirclePoint(0.0), CirclePoint(1.0), CirclePoint(2.0 * math.pi - 1e-13)]
    with pytest.raises(ValueError, match="points 0 and 2 coincide"):
        gram_matrix(circ, points)
    spec = product_spec()
    z = SpherePoint((0.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="points 0 and 1 coincide"):
        gram_matrix(spec, [(points[0], z), (points[2], z)])


def test_duplicate_check_on_sphere_points_alone():
    spec = KernelSpec(sphere_space(2), SupportSet1D((prog(0, 1),)), geometric_scheme(), (0, 10))
    _, zs = sample_config(2, 0, 6, seed=3)
    with pytest.raises(ValueError, match="points 1 and 5 coincide"):
        gram_matrix(spec, zs[:5] + [zs[1]])
    # an antipode is not a duplicate
    gram_matrix(spec, [zs[0], antipode(zs[0])])


def test_duplicate_check_reports_the_double_loops_first_pair():
    rng = np.random.default_rng(11)
    n = 300  # several row blocks
    thetas = rng.uniform(0.0, 2.0 * math.pi, n)
    zs = rng.standard_normal((n, 3))
    zs /= np.linalg.norm(zs, axis=1, keepdims=True)
    assert _reported_pair(thetas, zs) is None
    cases = [
        [(120, 250), (130, 140)],  # later row, earlier column loses
        [(7, 299), (7, 8)],  # same row: the first column wins
        [(0, 1)],
        [(298, 299)],
    ]
    for pairs in cases:
        th, z = thetas.copy(), zs.copy()
        for i, j in pairs:
            th[j] = th[i]
            z[j] = z[i]
        assert _reported_pair(th, z) == _pairwise_duplicate(th, z) == min(pairs)
        assert _reported_pair(th, None) == _pairwise_duplicate(th, None)
        assert _reported_pair(None, z) == _pairwise_duplicate(None, z)
    # equal angles with different sphere points do not coincide as pairs
    th = thetas.copy()
    th[200] = th[100]
    assert _reported_pair(th, zs) is None
    assert _reported_pair(th, None) == (100, 200)


# --- observability -------------------------------------------------------------------------------

def test_gram_matrix_logs_its_size_at_debug(caplog):
    caplog.set_level(logging.DEBUG, logger="spdkernels.gram")
    gram_matrix(product_spec(trunc=(4, 4)), product_points(200, seed=2))
    (record,) = [r for r in caplog.records if r.name == "spdkernels.gram"]
    assert record.levelno == logging.DEBUG
    assert record.getMessage() == "gram_matrix: 200 points, 20100 pairs, 3 contraction chunks, circle features"
