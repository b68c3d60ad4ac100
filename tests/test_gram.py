"""Gram assembly, positive-definiteness checks and degeneracy witnesses."""

import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from conftest import NOT_SPD_PRODUCT_SUPPORTS_G0, SPD_PRODUCT_SUPPORTS, marginal_ref
from spdkernels import (
    CirclePoint,
    EnhancedSet,
    KernelSpec,
    NotApplicableError,
    SpherePoint,
    SupportSet1D,
    SupportSet2D,
    Verdict,
    build_enhanced,
    certify_circle,
    certify_circle_sphere,
    check_pd,
    circle_table,
    circle_space,
    circle_sphere_space,
    circle_tph_space,
    constant_scheme,
    enhanced_block_check,
    eval_kernel,
    geometric_scheme,
    gram_matrix,
    one,
    per_degree_forms,
    prog,
    sample_config,
    sphere_space,
    witness_parity_sphere,
    witness_product,
    witness_progression_circle,
)
from spdkernels.gram import MAX_POINTS, _check_duplicates, _pair_layers
from spdkernels.kernels import CHUNK_PAIRS

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
            t = pts[i][0].dot(pts[j][0])
            s = pts[i][1].dot(pts[j][1])
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
    circ = KernelSpec(circle_space(), SupportSet1D.of(prog(0, 1)), geometric_scheme(), (10, 0))
    a = gram_matrix(circ, [CirclePoint(0.1), CirclePoint(0.7)])
    assert a.shape == (2, 2)


def test_gram_rejects_wrong_sphere_dimension():
    spec = product_spec(m=3)
    with pytest.raises(ValueError):
        gram_matrix(spec, product_points(3, seed=1, m=2))


def test_gram_unavailable_for_tph():
    space = circle_tph_space("real_proj", 2)
    spec = KernelSpec(space, FULL_2D, geometric_scheme(), (10, 10))
    with pytest.raises(NotApplicableError):
        gram_matrix(spec, product_points(3, seed=2))


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
    total, layers = per_degree_forms(spec, pts, c)
    assert layers.shape == (21,)
    assert total == pytest.approx(float(c @ a @ c), abs=1e-11 * spec.value_at_one)
    assert layers.sum() == pytest.approx(total, abs=1e-11 * spec.value_at_one)


def test_per_degree_layers_nonnegative():
    spec = product_spec(trunc=(15, 15))
    pts = product_points(7, seed=13)
    c = np.linspace(-1, 1, 7)
    _, layers = per_degree_forms(spec, pts, c)
    assert (layers > -1e-12 * spec.value_at_one).all()


@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_chunked_layers_match_the_one_piece_tables(offset):
    spec = product_spec(
        SupportSet2D(((prog(0, 2), prog(0, 1)), (one(3), prog(1, 2)))), trunc=(11, 9), m=3
    )
    pairs = 1 if offset is None else CHUNK_PAIRS + offset
    rng = np.random.default_rng(pairs)
    t = np.cos(rng.uniform(0.0, 2.0 * math.pi, pairs))
    s = rng.uniform(-1.0, 1.0, pairs)
    w = rng.normal(size=pairs)
    expected = (marginal_ref(spec, t) * spec.sphere_axis_table(s)) @ w
    got = _pair_layers(spec, t, s, w)
    assert got.shape == (spec.lmax + 1,)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def _record_circle_tables(monkeypatch):
    import spdkernels.kernels as kernels_mod

    widths = []

    def recording_circle_table(kmax, t, out=None):
        widths.append(np.size(t))
        return circle_table(kmax, t, out=out)

    monkeypatch.setattr(kernels_mod, "circle_table", recording_circle_table)
    return widths


def test_per_degree_forms_walk_the_pairs_in_chunks(monkeypatch):
    widths = _record_circle_tables(monkeypatch)
    spec = product_spec(trunc=(6, 6))
    pts = product_points(130, seed=3)  # 16 900 pairs
    per_degree_forms(spec, pts, np.ones(130))
    assert widths == [CHUNK_PAIRS, CHUNK_PAIRS, 130 * 130 - 2 * CHUNK_PAIRS]


def test_gram_matrix_walks_the_upper_triangle_in_chunks(monkeypatch):
    widths = _record_circle_tables(monkeypatch)
    spec = product_spec(trunc=(6, 6))
    pts = product_points(200, seed=3)  # 20 100 upper-triangle pairs
    a = gram_matrix(spec, pts)
    assert widths == [CHUNK_PAIRS, CHUNK_PAIRS, 200 * 201 // 2 - 2 * CHUNK_PAIRS]
    assert np.array_equal(a, a.T)
    for i, j in [(0, 0), (0, 199), (40, 41), (41, 199), (199, 199)]:  # row starts and ends
        t, s = pts[i][0].dot(pts[j][0]), pts[i][1].dot(pts[j][1])
        assert a[i, j] == pytest.approx(eval_kernel(spec, t, s), abs=1e-12 * spec.value_at_one)


def test_gram_matrix_memory_follows_one_chunk():
    # n = 800 at K = L = 60: the matrix and the sphere dot products take
    # 2 x 5.1 MB, one chunk's table and marginals 2 x 4 MB; building every
    # upper-triangle pair's arguments and values took 32.7 MB
    spec = product_spec(trunc=(60, 60))
    pts = product_points(800, seed=5)
    tracemalloc.start()
    try:
        gram_matrix(spec, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20


# --- enhanced block structure ----------------------------------------------------------------

def test_enhanced_blocks_exact():
    spec = product_spec(trunc=(25, 25))
    xs, zs = sample_config(2, 3, 3, seed=17)
    enh = build_enhanced(xs, zs)
    for degree in (0, 1, 2, 7):
        report = enhanced_block_check(spec, enh, degree)
        assert report.max_abs_m22_minus_m11 == 0.0
        assert report.max_abs_m12_minus_signed_m11 == 0.0
        assert report.scale > 0


# --- parity witness -----------------------------------------------------------------------------

def test_parity_witness_even_only_sphere():
    spec = KernelSpec(
        sphere_space(2), SupportSet1D.of(prog(0, 2)), geometric_scheme(), (0, 40)
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
        sphere_space(2), SupportSet1D.of(prog(1, 2)), geometric_scheme(), (0, 40)
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


def test_parity_witness_serves_mixed_support_and_refuses_empty():
    # evens plus {3}: finitely many odd degrees, so the odd layer 3 is cancelled
    # by weights on 1 + dim H_3(S^2) = 8 sphere points, and their antipodes
    spec = KernelSpec(
        sphere_space(2), SupportSet1D.of(prog(0, 2), one(3)), geometric_scheme(), (0, 40)
    )
    w = witness_parity_sphere(spec)
    assert w.kind == "parity" and len(w.points) == len(w.coefficients) == 16
    assert abs(w.residual) <= 1e-10 * w.scale
    c = np.array(w.coefficients)
    assert float(c @ gram_matrix(spec, list(w.points)) @ c) == pytest.approx(w.residual, abs=1e-12 * w.scale)
    empty = KernelSpec(sphere_space(2), SupportSet1D(()), geometric_scheme(), (0, 40))
    with pytest.raises(NotApplicableError, match="empty sphere-axis support has no parity class"):
        witness_parity_sphere(empty)


def test_parity_witness_refuses_both_parities_infinite():
    for terms in ([prog(0, 1)], [prog(0, 2), prog(5, 4)], [one(1), prog(2, 3)]):
        spec = KernelSpec(sphere_space(3), SupportSet1D.of(*terms), geometric_scheme(), (0, 20))
        with pytest.raises(NotApplicableError, match="infinitely many degrees of each parity"):
            witness_parity_sphere(spec)


def test_parity_witness_keeps_the_parity_with_fewer_points():
    # {1, 3, 4} is finite in both parities: keeping even cancels layer 4 alone,
    # 1 + dim H_4(S^2) = 10 points and their antipodes, signed +eta (keeping
    # odd would take 1 + 3 + 7 = 11)
    spec = KernelSpec(sphere_space(2), SupportSet1D.of(one(1), one(3), one(4)), geometric_scheme(), (0, 20))
    w = witness_parity_sphere(spec)
    assert len(w.points) == 20
    assert w.points[10:] == tuple(z.antipode() for z in w.points[:10])
    assert w.coefficients[10:] == w.coefficients[:10]
    assert abs(w.residual) <= 1e-10 * w.scale
    # {1, 3, 12} on S^5: keeping odd cancels two degrees, 1 + 6 + 50 = 57 points
    # and their antipodes signed -eta; keeping even, the one degree 12 alone
    # would take 1 + 3185 and pass the point limit
    spec = KernelSpec(sphere_space(5), SupportSet1D.of(one(1), one(3), one(12)), geometric_scheme(), (0, 20))
    w = witness_parity_sphere(spec)
    assert len(w.points) == 114
    assert w.points[57:] == tuple(z.antipode() for z in w.points[:57])
    assert w.coefficients[57:] == tuple(-c for c in w.coefficients[:57])
    assert abs(w.residual) <= 1e-10 * w.scale


def test_parity_witness_on_mixed_product():
    # the sphere axis holds the even degrees and l = 1, over every k: one circle
    # point crossed with 1 + dim H_1(S^3) = 5 sphere points and their antipodes
    support = SupportSet2D(((prog(0, 1), prog(0, 2)), (prog(0, 2), one(1))))
    spec = product_spec(support, trunc=(20, 20), m=3)
    w = witness_parity_sphere(spec)
    assert len(w.points) == 10
    assert {x for x, _ in w.points} == {CirclePoint(0.0)}
    total, layers = per_degree_forms(spec, list(w.points), w.coefficients)
    assert np.max(np.abs(layers)) <= 1e-10 * w.scale
    assert abs(w.residual) <= 1e-10 * w.scale


def test_parity_witness_past_the_point_limit_is_refused():
    # evens plus {11} on S^5: 2 * (1 + dim H_11(S^5)) = 4734 points
    spec = KernelSpec(sphere_space(5), SupportSet1D.of(prog(0, 2), one(11)), geometric_scheme(), (0, 20))
    with pytest.raises(NotApplicableError, match="parity witness needs 4734 points, past the limit of 2048"):
        witness_parity_sphere(spec)


def _harmonic_dimension(m, l):
    """Homogeneous polynomials of degree l in m variables plus those of degree
    l - 1: the harmonics of degree l in m + 1 variables."""
    return math.comb(l + m - 1, m - 1) + (math.comb(l + m - 2, m - 1) if l else 0)


@settings(max_examples=60, deadline=None)
@given(
    m=st.sampled_from([2, 3, 5]),
    lmax=st.sampled_from([20, 40]),
    keep=st.sampled_from([0, 1]),
    start=st.integers(0, 6),
    step=st.sampled_from([2, 4]),
    singles=st.sets(st.integers(0, 13), max_size=3),
    rate=st.floats(0.5, 0.95),
)
def test_parity_witness_on_finite_deficit_supports(m, lmax, keep, start, step, singles, rate):
    # a progression of the other parity keeps that parity infinite; the kept
    # parity is the singletons of its residue, all below L with a coefficient
    base = 2 * start + 1 - keep
    spec = KernelSpec(
        sphere_space(m), SupportSet1D.of(prog(base, step), *map(one, sorted(singles))),
        geometric_scheme(rate, rate), (0, lmax),
    )
    q = 1 + sum(_harmonic_dimension(m, l) for l in singles if l % 2 == keep)
    event("refused" if 2 * q > MAX_POINTS else "built")
    if 2 * q > MAX_POINTS:
        with pytest.raises(NotApplicableError, match=f"parity witness needs {2 * q} points"):
            witness_parity_sphere(spec)
        return
    w = witness_parity_sphere(spec)
    assert len(w.points) == 2 * q
    assert abs(w.residual) <= 1e-10 * w.scale


# --- progression witness ---------------------------------------------------------------------------

def test_progression_witness_circle():
    support = SupportSet1D.of(prog(0, 2))
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
    support = SupportSet1D.of(one(0), prog(1, 3))
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

    spec = KernelSpec(circle_space(), SupportSet1D.of(prog(0, 1)), geometric_scheme(), (40, 0))
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
# the witness class j mod n selects, so q = 1 + dim H_1(S^m) = m + 2.
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
    assert len(w.points) == len(w.coefficients) == 2 * failure.witness.modulus * (m + 2)
    assert abs(w.residual) <= 1e-10 * w.scale
    # every sphere-degree layer vanishes on its own, not just their sum
    total, layers = per_degree_forms(spec, list(w.points), w.coefficients)
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
            assert w.points == build_enhanced(roots, [e0]).points
            assert w.coefficients == tuple(c)


def test_witness_past_the_point_limit_is_refused():
    # odd l over odd k only at the singleton 11: the first failure is gamma 12,
    # and cancelling layer 11 on S^6 needs 1 + dim H_11(S^6) = 7372 sphere points
    support = SupportSet2D(((prog(0, 1), one(11)), (prog(0, 1), prog(0, 2)), (prog(0, 2), prog(3, 2))))
    spec = product_spec(support, trunc=(20, 20), m=6)
    cert = certify_circle_sphere(support, 6)
    assert (cert.counterexample.gamma, cert.counterexample.parity) == (12, "odd")
    with pytest.raises(NotApplicableError, match="needs 29488 points, past the limit of 2048"):
        witness_product(spec, cert)
    # the same support on S^2 needs 2 * 2 * (1 + 23) = 96 points and is built
    small = witness_product(product_spec(support, trunc=(20, 20)), certify_circle_sphere(support, 2))
    assert len(small.points) == 96 and abs(small.residual) <= 1e-10 * small.scale


def test_progression_witness_takes_circle_specs_only():
    from spdkernels import ProgressionWitness

    spec = product_spec(SupportSet2D(((prog(0, 2), prog(0, 1)),)))
    with pytest.raises(NotApplicableError, match="progression witnesses need a circle spec"):
        witness_progression_circle(spec, ProgressionWitness(2, 1))


def test_progression_witness_past_the_point_limit_is_refused():
    from spdkernels import ProgressionWitness

    spec = KernelSpec(circle_space(), SupportSet1D.of(prog(0, 2049)), geometric_scheme(), (40, 0))
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
        _check_duplicates(thetas, zs)
    except ValueError as exc:
        words = str(exc).split()
        return int(words[-4]), int(words[-2])
    return None


def test_duplicate_check_wraps_around_the_circle():
    circ = KernelSpec(circle_space(), SupportSet1D.of(prog(0, 1)), geometric_scheme(), (10, 0))
    points = [CirclePoint(0.0), CirclePoint(1.0), CirclePoint(2.0 * math.pi - 1e-13)]
    with pytest.raises(ValueError, match="points 0 and 2 coincide"):
        gram_matrix(circ, points)
    spec = product_spec()
    z = SpherePoint((0.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="points 0 and 1 coincide"):
        gram_matrix(spec, [(points[0], z), (points[2], z)])


def test_duplicate_check_on_sphere_points_alone():
    spec = KernelSpec(sphere_space(2), SupportSet1D.of(prog(0, 1)), geometric_scheme(), (0, 10))
    _, zs = sample_config(2, 0, 6, seed=3)
    with pytest.raises(ValueError, match="points 1 and 5 coincide"):
        gram_matrix(spec, zs[:5] + [zs[1]])
    # an antipode is not a duplicate
    gram_matrix(spec, [zs[0], zs[0].antipode()])


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


# --- one-degree layer matrix --------------------------------------------------------------------

def _full_table_block_check(spec, enhanced, degree):
    """Block deviations with the layer matrix cut from the full tables."""
    thetas = np.array([x.theta for x, _ in enhanced.points])
    zs = np.array([z.coords for _, z in enhanced.points])
    t = np.cos(thetas[:, None] - thetas[None, :])
    s = np.clip(zs @ zs.T, -1.0, 1.0)
    mat = (
        marginal_ref(spec, t.ravel())[degree] * spec.sphere_axis_table(s.ravel())[degree]
    ).reshape(t.shape)
    half = enhanced.p * enhanced.q
    m11, m22 = mat[:half, :half], mat[half:, half:]
    m12, m21 = mat[:half, half:], mat[half:, :half]
    sign = -1.0 if degree % 2 else 1.0
    dev_off = max(np.max(np.abs(m12 - sign * m11)), np.max(np.abs(m21 - sign * m11)))
    return float(np.max(np.abs(m22 - m11))), float(dev_off), float(np.max(np.abs(mat)))


def test_block_check_matches_the_full_table_layer():
    spec = product_spec(
        SupportSet2D(((prog(0, 2), prog(0, 1)), (one(3), prog(1, 2)))), trunc=(18, 14), m=3
    )
    xs, zs = sample_config(3, 3, 2, seed=8)
    enhanced = build_enhanced(xs, zs)
    # mirrored blocks that are no antipodes give nonzero deviations to compare
    _, others = sample_config(3, 0, 4, seed=9)
    skewed = EnhancedSet(
        enhanced.xs, enhanced.zs,
        enhanced.points[:6] + tuple((x, others[i // 3]) for i, (x, _) in enumerate(enhanced.points[6:])),
    )
    for config in (enhanced, skewed):
        for degree in (0, 1, 2, 5, 14):
            got = enhanced_block_check(spec, config, degree)
            dev_diag, dev_off, size = _full_table_block_check(spec, config, degree)
            assert abs(got.max_abs_m22_minus_m11 - dev_diag) <= 1e-12 * size
            assert abs(got.max_abs_m12_minus_signed_m11 - dev_off) <= 1e-12 * size
            if config is skewed and degree:
                assert dev_diag > 1e-6 * size


# --- observability -------------------------------------------------------------------------------

def test_gram_matrix_logs_its_size_at_debug(caplog):
    caplog.set_level(logging.DEBUG, logger="spdkernels.gram")
    gram_matrix(product_spec(trunc=(4, 4)), product_points(200, seed=2))
    (record,) = [r for r in caplog.records if r.name == "spdkernels.gram"]
    assert record.levelno == logging.DEBUG
    assert record.getMessage() == "gram_matrix: 200 points, 20100 pairs, 3 contraction chunks"
