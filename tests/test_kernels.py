"""Kernel spec assembly and truncated expansion evaluation."""

import math
import runpy
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    SPACE_EXAMPLES, SPD_PRODUCT_SUPPORTS, axis_table, jacobi_one_ref, marginal_ref, record_halved_tables,
    term_members,
)
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
from spdkernels.cli import _support_from_list
from spdkernels.kernels import _SLICE_VECTORS, _SPACE_KINDS, _WORKSPACE, CHUNK_PAIRS, _depth, _fold_map, _slice_width
from spdkernels.orthopoly import _halved_coefficients, _halved_table, _recombine, circle_table, gegenbauer_table, jacobi_table

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
        kind: list(row.params) for kind, row in _SPACE_KINDS.items()
    }
    for kind, row in _SPACE_KINDS.items():
        space = SpaceDescriptor(kind, **SPACE_EXAMPLES[kind])
        assert all(type(getattr(space, name)) is typ for name, typ in row.params.items())


# a valid value for each parameter of some kind
ANY_PARAMETER = {"m": 3, "family": "real_proj", "d": 4}


@pytest.mark.parametrize("kind", list(_SPACE_KINDS))
def test_space_refuses_parameters_its_kind_does_not_take(kind):
    params = SPACE_EXAMPLES[kind]
    others = [name for name in ANY_PARAMETER if name not in params]
    assert others
    for name in others:
        with pytest.raises(ValueError, match=f"^{kind} takes no parameter '{name}'$"):
            SpaceDescriptor(kind, **params, **{name: ANY_PARAMETER[name]})


@pytest.mark.parametrize("kind", list(_SPACE_KINDS))
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
    """The coefficients marked member by member (``term_members``), with each
    single-space value a Python float ``scale * rate**j``."""
    scheme = spec.scheme
    if spec.space.is_product:
        mask = np.zeros((spec.kmax + 1, spec.lmax + 1), dtype=bool)
        for kt, lt in spec.support.terms:
            ks, ls = list(term_members(kt, spec.kmax)), list(term_members(lt, spec.lmax))
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
        for j in term_members(term, spec.axis_cap):
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
    support = SupportSet1D((
        one(12), one(13), one(HUGE), prog(HUGE, 1), prog(5, HUGE),
        prog(0, 2), prog(2, 4), one(4), prog(3, 3),
    ))
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


# --- the factored product coefficients -------------------------------------------

EPS = np.finfo(float).eps


def assert_factors_rebuild_the_coefficients(spec):
    """U.T @ V has the pattern of coefficient_matrix and its values within
    2 eps relative; r is the number of distinct nonzero l-masks, unless r
    factor rows would cost as much as the dense product (U is None)."""
    u, v = spec._factors
    a = spec.coefficient_matrix
    product = v if u is None else u.T if v is None else u.T @ v
    assert np.array_equal(product != 0, a != 0)
    assert np.all(np.abs(product - a) <= 2 * EPS * a)
    mask = coefficients_by_member(spec) != 0
    r = len({row.tobytes() for row in mask if row.any()})
    k_len, l_len = a.shape
    dense = r * (k_len + l_len) >= k_len * l_len
    if dense:  # the identity on the axis with fewer degrees
        assert (u is None, v is None) == (k_len <= l_len, k_len > l_len)
    else:
        assert u.shape == (r, k_len) and v.shape == (r, l_len)
    return u, v


# mostly inside the box, so that most supports keep some rows
_box_terms = st.builds(Term1D, st.one_of(st.integers(0, 12), _bases), _steps)


@settings(max_examples=300, deadline=None)
@given(
    st.builds(
        KernelSpec, _product_spaces,
        st.builds(SupportSet2D, st.lists(st.tuples(_box_terms, _box_terms), max_size=8).map(tuple)),
        _schemes, _truncations,
    )
)
def test_product_factors_rebuild_the_coefficients(spec):
    # both schemes, singletons and bases past the box, overlapping terms
    assert_factors_rebuild_the_coefficients(spec)


def bench_spd_product_supports():
    """The SPD product supports the benchmark's Gram items sample, decoded
    as a spec file's support would be."""
    workloads = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "workloads.py"))
    return [_support_from_list(support, True) for support in workloads["_SPD_PRODUCT"]]


@pytest.mark.parametrize("trunc", [20, 60, 120])
def test_sampled_spd_supports_have_one_factor_row(trunc):
    bench_supports = bench_spd_product_supports()
    assert bench_supports
    for support in SPD_PRODUCT_SUPPORTS + bench_supports:
        spec = product_spec(support, trunc=(trunc, trunc))
        u, v = assert_factors_rebuild_the_coefficients(spec)
        assert u is not None and len(u) == 1


def test_a_support_past_a_small_box_has_no_factor_rows():
    specs = [product_spec(support, trunc=(5, 5)) for support in SPD_PRODUCT_SUPPORTS]
    empty = [spec for spec in specs if spec.is_effectively_empty]
    assert len(empty) == 1  # the variant whose bases start at 8 and 9
    (spec,) = empty
    u, v = assert_factors_rebuild_the_coefficients(spec)
    assert u.shape == v.shape == (0, 6)
    with pytest.warns(UserWarning, match="degenerate kernel spec"):
        values = kernel_values(spec, np.array([1.0, 0.3]), np.array([1.0, -0.2]))
    assert np.array_equal(values, np.zeros(2))


@pytest.mark.parametrize("trunc", [(0, 0), (6, 6), (20, 60), (60, 60), (120, 20)])
def test_a_support_whose_rows_all_differ_takes_the_dense_route(trunc):
    # row k holds the degrees l whose bit is set in k + 1, so the K + 1
    # rows all differ
    kmax, lmax = trunc
    support = SupportSet2D(tuple(
        (one(k), one(l)) for k in range(kmax + 1) for l in range(lmax + 1) if (k + 1) >> l & 1
    ))
    spec = product_spec(support, geometric_scheme(0.8, 0.7), trunc)
    u, v = assert_factors_rebuild_the_coefficients(spec)
    assert u is None or v is None
    t, s = np.linspace(-1.0, 1.0, 7), np.linspace(1.0, -1.0, 7)
    expected = (marginal_ref(spec, t) * axis_table(spec, 1, s)).sum(axis=0)
    bound = (sum(trunc) + 2) * EPS * spec.value_at_one
    assert np.max(np.abs(kernel_values(spec, t, s) - expected)) <= bound


# --- the Chebyshev fold -----------------------------------------------------------

def _record(monkeypatch, name):
    """Record the width of every call of the kernels module's ``name`` table."""
    import spdkernels.kernels as kernels_mod

    widths = []
    table = getattr(kernels_mod, name)

    def recording(*args, out=None):
        widths.append(np.size(args[-1]))
        return table(*args, out=out)

    monkeypatch.setattr(kernels_mod, name, recording)
    return widths


def _family_contraction(spec, t, s=None):
    """sum_g (U @ circle)_g (V @ P)_g over the family tables; f @ table for a single space."""
    tables = {0: lambda x: circle_table(spec.kmax, x), 1: lambda x: gegenbauer_table(spec.lmax, spec.space.m, x)}
    args = dict(zip(spec._slots, (t, s)))
    sides = [tables[slot](args[slot]) if f is None else f @ tables[slot](args[slot])
             for slot, f in zip(spec._slots, spec._factors)]
    return np.prod(sides, axis=0).sum(axis=0)


def _halved_slots(spec):
    """The slots whose halved rows were made, sorted."""
    return [slot for slot, plan in spec._slot_plan.items() if "halved" in vars(plan)]


def _fold_bound(spec):
    """2 (K + L + 2) eps f(1, 1), the absent axis of a single space at degree 0."""
    degrees = sum(spec.truncation[slot] for slot in spec._slots)
    return 2 * (degrees + 2) * EPS * spec.value_at_one


def _fold_arguments(pairs, seed):
    rng = np.random.default_rng(seed)
    t, s = rng.uniform(-1.0, 1.0, pairs), rng.uniform(-1.0, 1.0, pairs)
    t[:4], s[:4] = [1.0, -1.0, 1.0, -1.0], [1.0, 1.0, -1.0, -1.0]
    return t, s


FOLD_SUPPORTS = {  # r distinct nonzero l-masks
    1: FULL_2D,
    2: SupportSet2D(((prog(0, 2), prog(0, 1)), (prog(1, 2), prog(0, 2)))),
    3: SupportSet2D(((prog(0, 3), prog(0, 1)), (prog(1, 3), prog(0, 2)), (prog(2, 3), prog(1, 2)))),
}
FOLD_SCHEMES = [constant_scheme(1.5), geometric_scheme(0.9, 0.8)]


@pytest.mark.parametrize("scheme", FOLD_SCHEMES, ids=["constant", "geometric"])
@pytest.mark.parametrize("space", [circle_space()] + [sphere_space(m) for m in range(2, 8)], ids=str)
@pytest.mark.parametrize("cap", [20, 120])
def test_folded_single_contraction_agrees_with_the_family_table(space, scheme, cap):
    support = SupportSet1D((prog(1, 3), one(4), prog(cap - 6, 2)))
    spec = KernelSpec(space, support, scheme, (cap, cap))
    t, _ = _fold_arguments(400, cap)
    got = kernel_values(spec, t)
    assert spec._slots[0] in _halved_slots(spec)
    assert np.max(np.abs(got - _family_contraction(spec, t))) <= _fold_bound(spec)


@pytest.mark.parametrize("scheme", FOLD_SCHEMES, ids=["constant", "geometric"])
@pytest.mark.parametrize("r", sorted(FOLD_SUPPORTS))
@pytest.mark.parametrize("m", range(2, 8))
@pytest.mark.parametrize("trunc", [(60, 60), (120, 20)])
def test_folded_product_contraction_agrees_with_the_family_tables(m, r, scheme, trunc):
    spec = product_spec(FOLD_SUPPORTS[r], scheme, trunc, m)
    assert len(spec._factors[0]) == r
    t, s = _fold_arguments(400, m + r)
    got = kernel_values(spec, t, s)
    assert _halved_slots(spec) == [0, 1]
    assert np.max(np.abs(got - _family_contraction(spec, t, s))) <= _fold_bound(spec)


@pytest.mark.parametrize("trunc", [(20, 60), (60, 20)])
def test_the_dense_routes_identity_keeps_its_family_rows(monkeypatch, trunc):
    kmax, lmax = trunc
    support = SupportSet2D(tuple(
        (one(k), one(l)) for k in range(kmax + 1) for l in range(lmax + 1) if (k + 1) >> l & 1
    ))
    spec = product_spec(support, geometric_scheme(0.8, 0.7), trunc, m=3)
    identity = int(spec._factors[1] is None)  # the axis with fewer degrees
    assert spec._factors[identity] is None
    folded = 1 - identity
    t, s = _fold_arguments(400, kmax)
    family = {0: "circle_table", 1: "gegenbauer_table"}
    widths = {name: _record(monkeypatch, name) for name in family.values()}
    halved = record_halved_tables(monkeypatch)
    got = kernel_values(spec, t, s)
    # the folded slot tabulates T_j at its halved arguments, the identity
    # its family, once each
    fold = spec._slot_plan[folded]
    assert [call[:3] for call in halved] == [(max(trunc), fold.depth, 400)]
    assert widths == {family[identity]: [400], family[folded]: []}
    args = (t, s)
    rows = axis_table(spec, identity, args[identity])
    levels = np.empty((fold.depth + 3, 400))
    table = _halved_table(spec.truncation[folded], fold.depth, args[folded], levels=levels)
    expected = _recombine(fold.halved @ table, levels, fold.depth) * rows
    assert np.array_equal(got, expected.sum(axis=0))
    assert np.max(np.abs(got - _family_contraction(spec, t, s))) <= _fold_bound(spec)


def test_one_pair_folds_as_a_gram_does(monkeypatch):
    # a one-pair call sums the halved table a Gram sums, one column of it
    from spdkernels import gram_matrix, sample_config

    calls = record_halved_tables(monkeypatch)
    spec = KernelSpec(sphere_space(2), SupportSet1D((prog(0, 1),)), geometric_scheme(0.9, 0.999), (0, 10_000))
    value = kernel_values(spec, np.array([0.3]))
    assert [call[:3] for call in calls] == [(10_000, 7, 1)]
    assert spec.value_at_one > value[0] > 0.0
    calls.clear()
    _, zs = sample_config(2, 1, 100, seed=3)
    a = gram_matrix(spec, zs)
    # past degree 120 the slice keeps the halved table, the level and product
    # rows and the slice's vectors within the workspace: 7 halvings leave
    # 79 table rows and 128 product rows, 4112 pairs a slice
    depth = _depth(10_000, 1)
    rows = (10_000 >> depth) + 1 + depth + 3 + (1 << depth) + _SLICE_VECTORS
    width = _WORKSPACE // rows
    pairs = 100 * 101 // 2
    assert (depth, rows, width) == (7, 241, 4112)
    assert [call[:3] for call in calls] == [(10_000, depth, width)] * (pairs // width) + [(10_000, depth, pairs % width)]
    assert a[0, 0] == pytest.approx(spec.value_at_one, rel=1e-12)


ONE_PAIR_SPECS = {
    "circle": KernelSpec(circle_space(), SupportSet1D((prog(0, 1),)), geometric_scheme(0.999), (10_000, 0)),
    "S2": KernelSpec(sphere_space(2), SupportSet1D((prog(1, 2),)), constant_scheme(1.5), (0, 1_000)),
    "circle_S3": product_spec(FOLD_SUPPORTS[2], geometric_scheme(0.99, 0.98), (400, 400), m=3),
}


@pytest.mark.parametrize("kind", sorted(ONE_PAIR_SPECS))
def test_each_pair_alone_folds_every_factor_slot(monkeypatch, kind):
    # the route is the spec's alone: each pair evaluated on its own tabulates
    # every factor slot at halved arguments, one column wide, and its value
    # is its column of the many-pair call
    spec = ONE_PAIR_SPECS[kind]
    t, s = _fold_arguments(400, 11)
    s = s if spec.space.is_product else None
    many = kernel_values(spec, t, s)
    slots = [slot for slot, plan in spec._slot_plan.items() if plan.factor is not None]
    assert _halved_slots(spec) == sorted(slots)
    bound = _fold_bound(spec)
    calls = record_halved_tables(monkeypatch)
    for i in (0, 1, 2, 3, 200):
        alone = eval_kernel(spec, t[i], None if s is None else s[i])
        assert abs(alone - many[i]) <= bound
    folds = [(spec.truncation[slot], spec._slot_plan[slot].depth, 1) for slot in slots]
    assert [call[:3] for call in calls] == folds * 5


def test_a_fold_that_is_not_halved_is_sized_as_its_family_table():
    # every circle row differs, so the dense route folds the sphere slot's
    # 121 rows; a halving would double them past the family table's 121
    # rows, so the fold keeps depth 0 and its slices CHUNK_PAIRS, as the
    # family table did
    support = SupportSet2D(tuple((one(k), prog(k, 121)) for k in range(121)))
    spec = product_spec(support, trunc=(120, 120))
    assert spec._factors[0] is None and spec._slot_plan[1].folds and spec._slot_plan[1].depth == 0
    assert _slice_width(spec, 10 * CHUNK_PAIRS) == CHUNK_PAIRS


@pytest.mark.parametrize("space", [circle_space(), sphere_space(3)], ids=["circle", "S3"])
@pytest.mark.parametrize("cap", [20, 120, 121])
def test_fresh_specs_share_the_fold_map_up_to_degree_120(space, cap):
    def fold():
        spec = KernelSpec(space, SupportSet1D((prog(0, 1),)), geometric_scheme(0.99), (cap, cap))
        return spec._slot_plan[1 - space._axes.index(None)]

    first = fold()
    first.halved
    hits = _fold_map.cache_info().hits
    second = fold()
    second.halved
    assert _fold_map.cache_info().hits == hits + (cap <= 120)
    # the map's product and the halving of the folded rows agree to round-off
    expected = _halved_coefficients(first.beta, first.depth)
    assert np.max(np.abs(first.halved - expected)) <= 4 * cap * np.finfo(float).eps * first.beta.sum()
    assert np.array_equal(first.halved, second.halved)


def test_the_slot_plan_folds_all_but_the_dense_identity_and_the_tph_axis():
    # one record per occupied slot; every factor on a circle or sphere axis
    # folds, and only the dense route's identity and the tph axis keep
    # their family tables
    dense = [
        product_spec(SupportSet2D(tuple(
            (one(k), one(l)) for k in range(kmax + 1) for l in range(lmax + 1) if (k + 1) >> l & 1
        )), geometric_scheme(0.8, 0.7), (kmax, lmax), m=3)
        for kmax, lmax in [(20, 60), (60, 20)]
    ]
    kept = []
    for spec in [*CHUNK_SPECS.values(), *ONE_PAIR_SPECS.values(), *dense]:
        assert tuple(spec._slot_plan) == spec._slots
        kept += [(spec.space.kind, slot, record.factor is None)
                 for slot, record in spec._slot_plan.items() if not record.folds]
    assert kept == [("circle_tph", 1, False), ("circle_sphere", 0, True), ("circle_sphere", 1, True)]


def test_the_tph_axis_never_folds(monkeypatch):
    widths = _record(monkeypatch, "jacobi_table")
    spec = CHUNK_SPECS["circle_tph"]
    pairs = CHUNK_PAIRS + 3
    t, s = _fold_arguments(pairs, 0)
    kernel_values(spec, t, s)
    assert widths == [CHUNK_PAIRS, 3]
    kernel_values(spec, t[:1], s[:1])  # one pair takes the same route
    assert widths[2:] == [1]
    assert not spec._slot_plan[1].folds


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
    spec = KernelSpec(circle_space(), SupportSet1D((prog(0, 1),)), geometric_scheme(), (20, 0))
    val = eval_kernel(spec, 1.0)
    # sum of (2/k) 0.9^k for k >= 1 plus 1
    expect = 1.0 + sum((2.0 / k) * 0.9**k for k in range(1, 21))
    assert val == pytest.approx(expect)
    with pytest.raises(ValueError):
        eval_kernel(spec, 0.5, 0.5)


@pytest.mark.parametrize("evaluate", [eval_kernel, kernel_values])
def test_one_argument_rule(evaluate):
    single = KernelSpec(circle_space(), SupportSet1D((prog(0, 1),)), geometric_scheme(), (4, 0))
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
    spec = KernelSpec(circle_space(), SupportSet1D((prog(0, 1),)), geometric_scheme(), (10_000, 10_000))
    assert spec.coefficient_matrix.shape == (10_001,)


# --- chunked contraction ------------------------------------------------------------

CHUNK_SPECS = {
    "circle": KernelSpec(circle_space(), SupportSet1D((prog(1, 2), one(4))), geometric_scheme(), (14, 9)),
    "sphere": KernelSpec(sphere_space(3), SupportSet1D((prog(0, 1),)), geometric_scheme(0.8, 0.7), (6, 12)),
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
        return np.einsum("kp,kl,lp->p", circle_table(spec.kmax, t), a, axis_table(spec, 1, s))
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
    calls = record_halved_tables(monkeypatch)
    pairs = 2 * CHUNK_PAIRS + 5
    spec = CHUNK_SPECS["circle_sphere"]
    kernel_values(spec, np.zeros(pairs), np.zeros(pairs))
    # both slots fold, so each chunk tabulates T_j at halved arguments twice
    assert [call.width for call in calls] == [CHUNK_PAIRS] * 4 + [5, 5]
    # one table and one level workspace, refilled for every chunk
    assert all(call.out.base is calls[0].out.base for call in calls)
    assert all(call.levels.base is calls[0].levels.base for call in calls)
    folds = [spec._slot_plan[slot] for slot in (0, 1)]
    assert calls[0].out.base.size == max(fold.table_rows for fold in folds) * CHUNK_PAIRS
    assert calls[0].levels.base.size == max(fold.depth + 3 for fold in folds) * CHUNK_PAIRS
    assert kernel_values(spec, np.zeros(0), np.zeros(0)).shape == (0,)


@pytest.mark.parametrize("trunc, workspace", [((60, 60), 4 * 2**20), ((400, 400), 2 * 8 * _WORKSPACE)])
def test_kernel_values_memory_follows_one_slice(trunc, workspace):
    # 200 000 pairs: the values take 1.5 MiB, one slice's tables, levels and
    # products 1.9 MiB at K = L = 60 and 5.4 MiB at 400, within _WORKSPACE
    # entries a slot; one table per axis over every pair takes 98 MiB at 60
    spec = product_spec(trunc=trunc)
    t, s = np.random.default_rng(0).uniform(-1.0, 1.0, (2, 200_000))
    spec.value_at_one  # the folds, made once a spec
    tracemalloc.start()
    try:
        kernel_values(spec, t, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= t[0].nbytes + workspace
