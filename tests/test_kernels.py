"""Kernel spec assembly and truncated expansion evaluation."""

import math
import warnings

import numpy as np
import pytest

from conftest import SPACE_EXAMPLES, jacobi_one_ref, marginal_ref
from hypothesis import given, settings
from hypothesis import strategies as st
from spdkernels import (
    CoefficientScheme,
    KernelSpec,
    NotApplicableError,
    SpaceDescriptor,
    SupportSet1D,
    SupportSet2D,
    Term1D,
    circle_space,
    circle_sphere_space,
    circle_tph_space,
    constant_scheme,
    eval_kernel,
    geometric_scheme,
    kernel_values,
    one,
    prog,
    sphere_space,
)
from spdkernels.kernels import _SPACE_PARAMS, CHUNK_PAIRS
from spdkernels.orthopoly import circle_table, gegenbauer_table

FULL_2D = SupportSet2D(((prog(0, 1), prog(0, 1)),))


def product_spec(support=FULL_2D, scheme=None, trunc=(30, 30), m=2):
    return KernelSpec(
        circle_sphere_space(m),
        support,
        scheme or geometric_scheme(),
        trunc,
    )


# --- spaces -------------------------------------------------------------------

def test_space_validation():
    assert circle_space().kind == "circle"
    assert sphere_space(5).m == 5
    with pytest.raises(ValueError):
        sphere_space(1)
    with pytest.raises(ValueError):
        SpaceDescriptor("circle", m=3)


def test_tph_dimension_rules():
    assert circle_tph_space("real_proj", 2).beta == -0.5
    assert circle_tph_space("complex_proj", 4).beta == 0.0
    assert circle_tph_space("quat_proj", 8).beta == 1.0
    assert circle_tph_space("cayley", 16).beta == 3.0
    with pytest.raises(ValueError):
        circle_tph_space("complex_proj", 5)  # must be even
    with pytest.raises(ValueError):
        circle_tph_space("quat_proj", 6)  # must be a multiple of 4
    with pytest.raises(ValueError):
        circle_tph_space("cayley", 8)  # fixed dimension
    with pytest.raises(ValueError):
        circle_tph_space("real_proj", 1)
    assert circle_tph_space("real_proj", 3).alpha == pytest.approx(0.5)


def test_space_examples_follow_the_table():
    assert {kind: list(params) for kind, params in SPACE_EXAMPLES.items()} == {
        kind: list(params) for kind, params in _SPACE_PARAMS.items()
    }
    for kind, params in _SPACE_PARAMS.items():
        space = SpaceDescriptor(kind, **SPACE_EXAMPLES[kind])
        assert all(type(getattr(space, name)) is typ for name, typ in params.items())


# a valid value for each parameter of some kind
ANY_PARAMETER = {"m": 3, "family": "real_proj", "d": 4}


@pytest.mark.parametrize("kind", list(_SPACE_PARAMS))
def test_space_refuses_parameters_its_kind_does_not_take(kind):
    params = SPACE_EXAMPLES[kind]
    others = [name for name in ANY_PARAMETER if name not in params]
    assert others
    for name in others:
        with pytest.raises(ValueError, match=f"^{kind} takes no parameter '{name}'$"):
            SpaceDescriptor(kind, **params, **{name: ANY_PARAMETER[name]})


@pytest.mark.parametrize("kind", list(_SPACE_PARAMS))
def test_space_refuses_a_missing_parameter(kind):
    params = SPACE_EXAMPLES[kind]
    for name in params:
        with pytest.raises(ValueError, match=f"{name}=None|family None"):
            SpaceDescriptor(kind, **{k: v for k, v in params.items() if k != name})


def test_space_refuses_an_unknown_kind():
    with pytest.raises(ValueError, match="unknown space kind 'moebius'; expected one of"):
        SpaceDescriptor("moebius")


# --- coefficient schemes --------------------------------------------------------

def test_scheme_values():
    c = product_spec(FULL_2D, constant_scheme(2.0), trunc=(4, 9))
    assert c.coefficient_matrix[4, 9] == 2.0
    g = product_spec(FULL_2D, geometric_scheme(r_k=0.5, r_l=0.25, scale=3.0), trunc=(2, 1))
    assert g.coefficient_matrix[2, 1] == pytest.approx(3.0 * 0.25 * 0.25)
    with pytest.raises(ValueError):
        CoefficientScheme("geometric", r_k=1.5)
    with pytest.raises(ValueError):
        constant_scheme(-1.0)


def test_coefficient_matrix_union_not_double_counted():
    # the same (k, l) cell reachable through two terms still gets one coefficient
    support = SupportSet2D(((prog(0, 2), prog(0, 2)), (prog(0, 4), prog(0, 4))))
    spec = product_spec(support, constant_scheme(1.0), trunc=(8, 8))
    mat = spec.coefficient_matrix
    assert mat[0, 0] == 1.0
    assert mat[4, 4] == 1.0
    assert mat[1, 1] == 0.0


def test_coefficient_matrix_rates():
    spec = product_spec(FULL_2D, geometric_scheme(r_k=0.5, r_l=0.5), trunc=(4, 4))
    assert spec.coefficient_matrix[2, 3] == pytest.approx(0.5**5)


def coefficients_by_member(spec):
    """The coefficients marked member by member (``members_upto``), with each
    single-space value a Python float ``scale * rate**j``."""
    scheme = spec.scheme
    if spec.space.is_product:
        mask = np.zeros((spec.kmax + 1, spec.lmax + 1), dtype=bool)
        for kt, lt in spec.support.terms:
            ks, ls = list(kt.members_upto(spec.kmax)), list(lt.members_upto(spec.lmax))
            if ks and ls:
                mask[np.ix_(ks, ls)] = True
        if scheme.kind == "constant":
            return np.where(mask, np.full(mask.shape, scheme.scale), 0.0)
        values = scheme.scale * np.outer(
            scheme.r_k ** np.arange(spec.kmax + 1), scheme.r_l ** np.arange(spec.lmax + 1)
        )
        return np.where(mask, values, 0.0)
    rate = scheme.r_k if spec.space.kind == "circle" else scheme.r_l
    coeffs = np.zeros(spec.axis_cap + 1)
    for term in spec.support.terms:
        for j in term.members_upto(spec.axis_cap):
            coeffs[j] = scheme.scale if scheme.kind == "constant" else scheme.scale * rate**j
    return coeffs


def assert_same_bits(got, expected):
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


HUGE = 10**30
_bases = st.one_of(st.integers(0, 40), st.sampled_from([HUGE, HUGE + 1]))
_steps = st.one_of(st.sampled_from([0, 0, 1, 2, 3, 4, HUGE]), st.integers(5, 50))
_terms = st.builds(Term1D, _bases, _steps)
_schemes = st.one_of(
    st.builds(constant_scheme, st.floats(0.01, 100.0)),
    st.builds(
        geometric_scheme,
        st.floats(0.01, 0.99), st.floats(0.01, 0.99), st.floats(0.01, 100.0),
    ),
)
_single_spaces = st.sampled_from([circle_space(), sphere_space(3)])
_product_spaces = st.sampled_from([circle_sphere_space(2), circle_tph_space("quat_proj", 8)])
_truncations = st.tuples(st.integers(0, 30), st.integers(0, 30))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.builds(
            KernelSpec, _single_spaces,
            st.builds(SupportSet1D, st.lists(_terms, max_size=6).map(tuple)),
            _schemes, _truncations,
        ),
        st.builds(
            KernelSpec, _product_spaces,
            st.builds(SupportSet2D, st.lists(st.tuples(_terms, _terms), max_size=6).map(tuple)),
            _schemes, _truncations,
        ),
    )
)
def test_coefficient_matrix_matches_marking_member_by_member(spec):
    assert_same_bits(spec.coefficient_matrix, coefficients_by_member(spec))


@pytest.mark.parametrize("space", [circle_space(), sphere_space(2)])
@pytest.mark.parametrize("scheme", [constant_scheme(1.5), geometric_scheme(0.83, 0.61, 2.5)])
def test_single_coefficients_past_the_box_and_huge(space, scheme):
    # singletons at and past the cap, a base and a step of 10**30, and
    # progressions that overlap each other and a singleton
    support = SupportSet1D.of(
        one(12), one(13), one(HUGE), prog(HUGE, 1), prog(5, HUGE),
        prog(0, 2), prog(2, 4), one(4), prog(3, 3),
    )
    spec = KernelSpec(space, support, scheme, (12, 12))
    expected = coefficients_by_member(spec)
    assert_same_bits(spec.coefficient_matrix, expected)
    assert sorted(np.flatnonzero(expected)) == [0, 2, 3, 4, 5, 6, 8, 9, 10, 12]


@pytest.mark.parametrize("scheme", [constant_scheme(1.5), geometric_scheme(0.83, 0.61, 2.5)])
def test_product_coefficients_past_the_box_and_huge(scheme):
    support = SupportSet2D((
        (one(9), prog(0, 1)), (one(10), prog(0, 1)), (prog(0, 1), one(HUGE)),
        (prog(HUGE, 2), prog(0, 1)), (prog(1, HUGE), prog(2, HUGE)),
        (prog(0, 2), prog(1, 2)), (prog(0, 4), prog(1, 4)), (prog(3, 3), one(5)),
    ))
    spec = product_spec(support, scheme, trunc=(9, 7))
    expected = coefficients_by_member(spec)
    assert_same_bits(spec.coefficient_matrix, expected)
    # k = 9 by every l, (1, 2), even k by odd l, and (3, 5); the rest lies
    # past the box or inside these
    assert np.count_nonzero(expected) == 8 + 1 + 20 + 1


# --- evaluation -----------------------------------------------------------------

def test_eval_single_cell():
    # a_{1,1} = 1 gives f(t, s) = 2 t s on the circle x S^2 product
    support = SupportSet2D(((one(1), one(1)),))
    spec = product_spec(support, constant_scheme(1.0), trunc=(4, 4))
    assert eval_kernel(spec, 0.5, 0.5) == pytest.approx(0.5)
    assert eval_kernel(spec, 0.25, -1.0) == pytest.approx(-0.5)


def test_eval_matches_direct_sum():
    spec = product_spec(trunc=(12, 12))
    rng = np.random.default_rng(5)
    for t, s in rng.uniform(-1, 1, size=(10, 2)):
        circ = circle_table(12, [t])[:, 0]
        # on S^2 every degree's value at 1 is 1: the rows are Legendre values
        legendre = gegenbauer_table(12, 2, [s])[:, 0]
        direct = 0.0
        for k in range(13):
            for l in range(13):
                a = spec.coefficient_matrix[k, l]
                if a:
                    direct += a * circ[k] * legendre[l]
        assert eval_kernel(spec, float(t), float(s)) == pytest.approx(direct, abs=1e-10)


def test_kernel_values_vectorized_matches_scalar():
    spec = product_spec(trunc=(15, 15))
    t = np.linspace(-1, 1, 9)
    s = np.linspace(-1, 1, 9)
    vals = kernel_values(spec, t, s)
    for j in range(9):
        assert vals[j] == pytest.approx(eval_kernel(spec, float(t[j]), float(s[j])))


def test_eval_circle_only():
    spec = KernelSpec(circle_space(), SupportSet1D.of(prog(0, 1)), geometric_scheme(), (20, 0))
    val = eval_kernel(spec, 1.0)
    # sum of (2/k) 0.9^k for k >= 1 plus 1
    expect = 1.0 + sum((2.0 / k) * 0.9**k for k in range(1, 21))
    assert val == pytest.approx(expect)
    with pytest.raises(ValueError):
        eval_kernel(spec, 0.5, 0.5)


@pytest.mark.parametrize("evaluate", [eval_kernel, kernel_values])
def test_one_argument_rule(evaluate):
    single = KernelSpec(circle_space(), SupportSet1D.of(prog(0, 1)), geometric_scheme(), (4, 0))
    with pytest.raises(ValueError, match="^single spaces take one argument; drop s$"):
        evaluate(single, 0.5, 0.5)
    with pytest.raises(ValueError, match="^product spaces need both arguments t and s$"):
        evaluate(product_spec(trunc=(4, 4)), 0.5)


def test_value_at_one_is_coefficient_mass():
    spec = product_spec(trunc=(10, 10))
    # circle endpoint values are 2/k past degree zero; S^2 factors are all 1
    circ_norms = np.array([1.0] + [2.0 / k for k in range(1, 11)])
    expect = float((spec.coefficient_matrix * circ_norms[:, None]).sum())
    assert spec.value_at_one == pytest.approx(expect)
    assert eval_kernel(spec, 1.0, 1.0) == pytest.approx(spec.value_at_one)


def test_tph_value_at_one_uses_jacobi_norms():
    space = circle_tph_space("quat_proj", 8)
    support = SupportSet2D(((one(0), one(2)),))
    spec = KernelSpec(space, support, constant_scheme(1.0), (4, 4))
    assert spec.value_at_one == pytest.approx(jacobi_one_ref(2, space.alpha))


# --- marginals ----------------------------------------------------------------------

def test_marginal_definition():
    spec = product_spec(trunc=(8, 8))
    t = 0.3
    circ = circle_table(8, [t])[:, 0]
    marginals = marginal_ref(spec, [t])[:, 0]
    for l in (0, 3, 8):
        expect = sum(spec.coefficient_matrix[k, l] * circ[k] for k in range(9))
        assert marginals[l] == pytest.approx(expect)


def test_marginal_matrix_shape_and_rows():
    spec = product_spec(trunc=(6, 9))
    t = np.linspace(-1, 1, 5)
    mat = marginal_ref(spec, t)
    assert mat.shape == (10, 5)
    for j in range(5):
        assert mat[4, j] == pytest.approx(marginal_ref(spec, [t[j]])[4, 0])


def test_parity_sums_reconstruct_slice():
    # on circle x S^2 every sphere factor at s = 1 equals 1, so the even and
    # odd marginals together add up to the kernel value at (t, 1)
    spec = product_spec(trunc=(14, 14))
    for t in (-0.7, 0.0, 0.42, 1.0):
        marginals = marginal_ref(spec, [t])[:, 0]
        total = marginals[0::2].sum() + marginals[1::2].sum()
        assert total == pytest.approx(eval_kernel(spec, t, 1.0), abs=1e-10)


def test_empty_effective_support_warns():
    support = SupportSet2D(((one(50), one(50)),))
    spec = product_spec(support, constant_scheme(1.0), trunc=(10, 10))
    assert spec.is_effectively_empty
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        val = eval_kernel(spec, 0.5, 0.5)
    assert val == 0.0
    assert any("degenerate" in str(w.message) for w in caught)


# --- nonnegative coefficients force positive semidefinite evaluations ----------

def _pairwise_inputs(rng, space, n):
    """Random point configuration, returned as (t, s) argument matrices."""
    if space.kind in ("circle", "circle_sphere", "circle_tph"):
        thetas = rng.uniform(0.0, 2.0 * math.pi, size=n)
        t = np.cos(thetas[:, None] - thetas[None, :])
    else:
        t = None
    if space.kind == "circle":
        return t, None
    dim = space.m + 1 if space.kind in ("sphere", "circle_sphere") else space.d + 1
    vecs = rng.standard_normal((n, dim))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    s = np.clip(vecs @ vecs.T, -1.0, 1.0)
    if space.kind == "sphere":
        return s, None
    return t, s


def test_gram_of_random_specs_is_near_psd():
    from conftest import battery_1d, battery_2d

    rng = np.random.default_rng(20240811)
    spaces = [
        circle_space(),
        sphere_space(2),
        sphere_space(3),
        circle_sphere_space(2),
        circle_sphere_space(5),
        circle_tph_space("complex_proj", 4),
    ]
    supports_1d = battery_1d(seed=77, count=6)
    supports_2d = battery_2d(seed=78, count=6)
    for i, space in enumerate(spaces):
        support = supports_2d[i % 6] if space.is_product else supports_1d[i % 6]
        scheme = geometric_scheme(0.8, 0.7) if i % 2 else constant_scheme(0.5)
        spec = KernelSpec(space, support, scheme, truncation=(25, 25))
        if spec.is_effectively_empty:
            continue
        n = int(rng.integers(5, 31))
        t, s = _pairwise_inputs(rng, space, n)
        if s is not None:
            gram = kernel_values(spec, t.ravel(), s.ravel()).reshape(n, n)
        else:
            gram = kernel_values(spec, t.ravel()).reshape(n, n)
        lam = float(np.linalg.eigvalsh(gram)[0])
        assert lam >= -1e-10 * spec.value_at_one, f"{space.kind}: {lam}"


def test_marginal_grams_are_near_psd():
    spec = product_spec(
        SupportSet2D(((prog(0, 2), prog(0, 1)), (one(3), prog(1, 2)))),
        scheme=geometric_scheme(0.85, 0.9),
        trunc=(20, 12),
    )
    rng = np.random.default_rng(5)
    p = 8
    thetas = rng.uniform(0.0, 2.0 * math.pi, size=p)
    t = np.cos(thetas[:, None] - thetas[None, :])
    values = marginal_ref(spec, t.ravel())
    at_one = marginal_ref(spec, np.array([1.0]))[:, 0]
    for l in range(spec.lmax + 1):
        gram = values[l].reshape(p, p)
        lam = float(np.linalg.eigvalsh(gram)[0])
        assert lam >= -1e-10 * max(at_one[l], 1e-30), f"l={l}: {lam}"


def test_truncation_validated_at_construction():
    from spdkernels.orthopoly import MAX_DEGREE

    cap = MAX_DEGREE + 1
    for trunc in ((cap, cap), (cap, 0), (0, cap), (True, 4), (4.0, 4), (-1, 4)):
        with pytest.raises(ValueError, match="truncation"):
            KernelSpec(circle_sphere_space(2), FULL_2D, geometric_scheme(), trunc)
    spec = KernelSpec(circle_sphere_space(2), FULL_2D, geometric_scheme(), (MAX_DEGREE, 0))
    assert spec.kmax == MAX_DEGREE


def test_truncation_box_is_bounded_for_products():
    from spdkernels.kernels import MAX_TRUNCATION_BOX

    side = math.isqrt(MAX_TRUNCATION_BOX) - 1  # (side + 1) ** 2 entries: at the limit
    assert (side + 1) ** 2 <= MAX_TRUNCATION_BOX < (side + 2) ** 2
    long = MAX_TRUNCATION_BOX // 100 - 1  # (long + 1) * 100 entries: at the limit
    for trunc in ((side, side), (120, 120), (long, 99), (99, long)):
        KernelSpec(circle_sphere_space(2), FULL_2D, geometric_scheme(), trunc)
    for trunc in ((side + 1, side), (10_000, 10_000), (long, 100), (100, long)):
        with pytest.raises(ValueError, match="truncation box"):
            KernelSpec(circle_sphere_space(2), FULL_2D, geometric_scheme(), trunc)
    # single spaces hold one axis of at most MAX_DEGREE + 1 coefficients
    spec = KernelSpec(circle_space(), SupportSet1D.of(prog(0, 1)), geometric_scheme(), (10_000, 10_000))
    assert spec.coefficient_matrix.shape == (10_001,)


# --- chunked contraction ------------------------------------------------------------

CHUNK_SPECS = {
    "circle": KernelSpec(circle_space(), SupportSet1D.of(prog(1, 2), one(4)), geometric_scheme(), (14, 9)),
    "sphere": KernelSpec(sphere_space(3), SupportSet1D.of(prog(0, 1)), geometric_scheme(0.8, 0.7), (6, 12)),
    "circle_sphere": product_spec(
        SupportSet2D(((prog(0, 2), prog(0, 1)), (one(3), prog(1, 2)))), geometric_scheme(0.85, 0.9), (11, 9)
    ),
    "circle_tph": KernelSpec(
        circle_tph_space("quat_proj", 8), FULL_2D, constant_scheme(0.5), (8, 10)
    ),
}


def _unchunked_kernel_values(spec, t, s=None):
    """The whole-array evaluation: one table per axis over every pair."""
    a = spec.coefficient_matrix
    if spec.space.is_product:
        return np.einsum("kp,kl,lp->p", circle_table(spec.kmax, t), a, spec.sphere_axis_table(s))
    if spec.space.kind == "circle":
        return a @ circle_table(spec.axis_cap, t)
    return a @ gegenbauer_table(spec.axis_cap, spec.space.m, t)


@pytest.mark.parametrize("kind", sorted(CHUNK_SPECS))
@pytest.mark.parametrize("offset", [None, -1, 0, 1])
def test_chunked_values_match_the_unchunked_contraction(kind, offset):
    spec = CHUNK_SPECS[kind]
    pairs = 1 if offset is None else CHUNK_PAIRS + offset
    rng = np.random.default_rng(pairs)
    t = np.cos(rng.uniform(0.0, 2.0 * math.pi, pairs))
    t[0] = 1.0
    s = rng.uniform(-1.0, 1.0, pairs) if spec.space.is_product else None
    got = kernel_values(spec, t, s)
    expected = _unchunked_kernel_values(spec, t, s)
    assert got.shape == (pairs,)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_tables_are_built_one_chunk_at_a_time(monkeypatch):
    import spdkernels.kernels as kernels_mod

    widths, buffers = [], []

    def recording_circle_table(kmax, t, out=None):
        widths.append(np.size(t))
        buffers.append(out.base)
        return circle_table(kmax, t, out=out)

    monkeypatch.setattr(kernels_mod, "circle_table", recording_circle_table)
    pairs = 2 * CHUNK_PAIRS + 5
    spec = CHUNK_SPECS["circle_sphere"]
    kernel_values(spec, np.zeros(pairs), np.zeros(pairs))
    assert widths == [CHUNK_PAIRS, CHUNK_PAIRS, 5]
    # one workspace, refilled for every chunk
    assert all(b is buffers[0] for b in buffers)
    assert buffers[0].size == (max(spec.kmax, spec.lmax) + 1) * CHUNK_PAIRS
    assert kernel_values(spec, np.zeros(0), np.zeros(0)).shape == (0,)
