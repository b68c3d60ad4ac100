"""Exact combinatorial certifiers and agreement between the two product routes."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    LATE_FAILURES,
    NOT_SPD_PRODUCT_SUPPORTS_G0,
    SPD_BUT_INCONCLUSIVE,
    SPD_PRODUCT_SUPPORTS,
    battery_2d,
    contains_2d,
    oracle_witness_sound,
)
from spdkernels import (
    GammaFailure,
    NotApplicableError,
    ParityDeficit,
    ProgressionWitness,
    QuadrantDeficit,
    SupportSet1D,
    SupportSet2D,
    Verdict,
    certify_circle,
    certify_circle_sphere,
    certify_circle_sphere_gamma_loop,
    certify_circle_tph,
    certify_sphere,
    certify_two_spheres,
    circle_tph_space,
    derived_parity_tail_set,
    gegenbauer_table,
    meets_every_progression,
    one,
    prog,
    stabilization_bound,
    sufficient_product,
    witness_avoids_window,
)
from spdkernels.certify import _LOOP_LABEL, _loop_tail_set, _sweep
from test_acceptance import ALL_FIXED_2D


# --- circle ---------------------------------------------------------------------

def test_circle_accepts_full_line():
    cert = certify_circle(SupportSet1D((prog(0, 1),)))
    assert cert.verdict is Verdict.SPD
    assert cert.method == "circle-residue-classes"
    assert cert.counterexample is None


def test_circle_rejects_even_support():
    cert = certify_circle(SupportSet1D((prog(0, 2),)))
    assert cert.verdict is Verdict.NOT_SPD
    assert cert.counterexample == ProgressionWitness(2, 1)


def test_circle_mixed_example():
    support = SupportSet1D((one(0), prog(1, 3)))
    cert = certify_circle(support)
    assert cert.verdict is Verdict.NOT_SPD
    assert oracle_witness_sound(support, cert.counterexample)


# --- sphere ---------------------------------------------------------------------

def test_sphere_needs_both_parities():
    both = SupportSet1D((prog(0, 2), prog(1, 2)))
    assert certify_sphere(both, 2).verdict is Verdict.SPD
    assert certify_sphere(both, 9).verdict is Verdict.SPD

    evens = SupportSet1D((prog(0, 2),))
    cert = certify_sphere(evens, 3)
    assert cert.verdict is Verdict.NOT_SPD
    assert cert.counterexample == ParityDeficit("odd")

    odds = SupportSet1D((prog(1, 2),))
    cert = certify_sphere(odds, 3)
    assert cert.counterexample == ParityDeficit("even")


def test_sphere_finite_extras_do_not_help():
    cert = certify_sphere(SupportSet1D((prog(0, 2), one(3), one(11))), 2)
    assert cert.verdict is Verdict.NOT_SPD
    assert cert.counterexample == ParityDeficit("odd")


def test_sphere_odd_step_gives_both():
    cert = certify_sphere(SupportSet1D((prog(0, 3),)), 4)
    assert cert.verdict is Verdict.SPD


def test_sphere_dimension_validated():
    with pytest.raises(ValueError):
        certify_sphere(SupportSet1D((prog(0, 1),)), 1)


# --- product: the two independent routes ------------------------------------------

def test_product_battery_expected_verdicts():
    for support in SPD_PRODUCT_SUPPORTS:
        cert = certify_circle_sphere(support, 2)
        assert cert.verdict is Verdict.SPD, (support, cert.counterexample)
    for support, parity in NOT_SPD_PRODUCT_SUPPORTS_G0:
        cert = certify_circle_sphere(support, 2)
        assert cert.verdict is Verdict.NOT_SPD
        failure = cert.counterexample
        assert isinstance(failure, GammaFailure)
        assert failure.gamma == 0
        assert failure.parity == parity
        if not failure.empty:
            tail = derived_parity_tail_set(support, 0, parity)
            assert oracle_witness_sound(tail, failure.witness)


def test_product_late_failures():
    for support, gamma, parity in LATE_FAILURES:
        cert = certify_circle_sphere(support, 2)
        failure = cert.counterexample
        assert (failure.gamma, failure.parity) == (gamma, parity), support


def test_product_routes_agree_on_fixed_battery():
    entries = (
        list(SPD_PRODUCT_SUPPORTS)
        + [s for s, _ in NOT_SPD_PRODUCT_SUPPORTS_G0]
        + [s for s, _, _ in LATE_FAILURES]
        + list(SPD_BUT_INCONCLUSIVE)
    )
    for support in entries:
        a = certify_circle_sphere(support, 2)
        b = certify_circle_sphere_gamma_loop(support, 2, None)
        assert a.verdict == b.verdict, support
        if a.verdict is Verdict.NOT_SPD:
            fa, fb = a.counterexample, b.counterexample
            assert (fa.gamma, fa.parity) == (fb.gamma, fb.parity), support


def test_product_routes_agree_on_random_battery():
    for support in battery_2d(seed=404, count=80):
        a = certify_circle_sphere(support, 2)
        b = certify_circle_sphere_gamma_loop(support, 2, None)
        assert a.verdict == b.verdict, support
        if a.verdict is Verdict.NOT_SPD:
            fa, fb = a.counterexample, b.counterexample
            assert (fa.gamma, fa.parity) == (fb.gamma, fb.parity), support


# bases and singletons up to 10^12, past every window the gamma loop once read
huge_term = st.one_of(
    st.integers(0, 10**12).map(one),
    st.tuples(st.integers(0, 10**12), st.integers(1, 12)).map(lambda p: prog(*p)),
    st.integers(0, 6).map(one),
    st.tuples(st.integers(0, 6), st.integers(1, 4)).map(lambda p: prog(*p)),
)


def _outcomes(cert):
    return [(e.outcome, e.gamma) for e in cert.trace]


def _assert_loop_matches(loop, tail_sets, support):
    assert loop.verdict == tail_sets.verdict
    assert _outcomes(loop) == _outcomes(tail_sets)
    assert loop.counterexample == tail_sets.counterexample
    if loop.verdict is Verdict.NOT_SPD:
        fl = loop.counterexample
        assert witness_avoids_window(derived_parity_tail_set(support, fl.gamma, fl.parity), fl.witness)


def _tph_loop(support, gamma_max=None):
    """The gamma loop with parity "any": the route that ``certify_circle_tph``
    must agree with, certificate for certificate."""
    return _sweep(support, "circle_tph", "tph-tail-sets", ("any",), gamma_max, _loop_tail_set, _LOOP_LABEL)


@given(pairs=st.lists(st.tuples(huge_term, huge_term), min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_loops_match_the_tail_sets_past_every_window(pairs):
    support = SupportSet2D(tuple(pairs))
    _assert_loop_matches(
        certify_circle_sphere_gamma_loop(support, 2), certify_circle_sphere(support, 2), support
    )
    # verdict, method, trace and counterexample alike
    assert certify_circle_tph(support, circle_tph_space("real_proj", 2)) == _tph_loop(support)


def test_gamma_max_extends_the_sweep():
    support = SPD_PRODUCT_SUPPORTS[0]
    cert = certify_circle_sphere(support, 2, gamma_max=25)
    assert cert.verdict is Verdict.SPD
    gammas = {entry.gamma for entry in cert.trace if entry.gamma is not None}
    assert max(gammas) >= 25


@pytest.mark.parametrize(
    "certifier",
    [certify_circle_sphere, certify_circle_sphere_gamma_loop,
     lambda support, m, gamma_max: certify_circle_tph(support, circle_tph_space("real_proj", 2), gamma_max)],
)
def test_negative_gamma_max_is_refused(certifier):
    with pytest.raises(ValueError, match="gamma_max must be >= 0"):
        certifier(SPD_PRODUCT_SUPPORTS[0], 2, -1)


def test_sphere_specialization_of_product():
    # a support constant in k reduces to the sphere parity test
    for l_terms, expected in [
        ((prog(0, 2), prog(1, 2)), Verdict.SPD),
        ((prog(0, 2),), Verdict.NOT_SPD),
    ]:
        pairs = tuple((prog(0, 1), lt) for lt in l_terms)
        cert = certify_circle_sphere(SupportSet2D(pairs), 2)
        assert cert.verdict is expected


# --- product with a projective-style second factor ---------------------------------

def test_tph_drops_the_parity_split():
    space = circle_tph_space("real_proj", 2)
    ok = SupportSet2D(((prog(0, 1), prog(0, 2)),))
    cert = certify_circle_tph(ok, space, None)
    assert cert.verdict is Verdict.SPD
    assert cert.method == "tph-tail-sets"

    bad = SupportSet2D(((prog(0, 2), prog(0, 1)),))
    cert = certify_circle_tph(bad, space, None)
    assert cert.verdict is Verdict.NOT_SPD
    assert cert.counterexample.witness == ProgressionWitness(2, 1)
    assert cert.counterexample.parity == "any"


def test_tph_singleton_tails_still_expire():
    space = circle_tph_space("complex_proj", 4)
    support = SupportSet2D((
        (prog(0, 1), one(2)),
        (prog(0, 2), prog(0, 1)),
    ))
    cert = certify_circle_tph(support, space, None)
    assert cert.verdict is Verdict.NOT_SPD
    assert cert.counterexample.gamma == 3


def test_tph_rejects_wrong_space():
    from spdkernels import circle_sphere_space

    with pytest.raises(NotApplicableError):
        certify_circle_tph(SupportSet2D(((prog(0, 1), prog(0, 1)),)), circle_sphere_space(2), None)


# --- two spheres ---------------------------------------------------------------------

def test_two_spheres_needs_all_quadrants():
    full = SupportSet2D((
        (prog(0, 2), prog(0, 2)), (prog(1, 2), prog(1, 2)),
        (prog(0, 2), prog(1, 2)), (prog(1, 2), prog(0, 2)),
    ))
    cert = certify_two_spheres(full, 2, 4)
    assert cert.verdict is Verdict.SPD
    assert cert.method == "two-spheres-quadrants"
    assert "projection" in cert.trace[0].condition

    diag = SupportSet2D(((prog(0, 2), prog(0, 2)), (prog(1, 2), prog(1, 2))))
    cert = certify_two_spheres(diag, 2, 2)
    assert cert.verdict is Verdict.NOT_SPD
    assert isinstance(cert.counterexample, QuadrantDeficit)


def test_two_spheres_odd_steps_fill_quadrants():
    cert = certify_two_spheres(SupportSet2D(((prog(0, 3), prog(0, 3)),)), 5, 3)
    assert cert.verdict is Verdict.SPD


def test_two_spheres_bounded_projection_fails():
    # odd k appears only against singleton l, so one quadrant has a bounded l-side
    support = SupportSet2D((
        (prog(0, 2), prog(0, 1)),
        (prog(1, 2), one(1)),
        (prog(1, 2), one(2)),
    ))
    cert = certify_two_spheres(support, 2, 2)
    assert cert.verdict is Verdict.NOT_SPD
    deficit = cert.counterexample
    assert deficit.k_parity == "odd"
    assert deficit.axis == "l"


# --- sufficient one-axis tests ----------------------------------------------------------

def test_sufficient_full_grid_both_axes():
    support = SPD_PRODUCT_SUPPORTS[1]  # the four-block parity grid
    for axis in ("circle-outer", "sphere-outer"):
        cert = sufficient_product(support, 2, axis)
        assert cert.verdict is Verdict.SUFFICIENT_ONLY, axis
        assert cert.method == f"sufficient-{axis}"


def test_sufficient_never_refutes():
    for support, _ in NOT_SPD_PRODUCT_SUPPORTS_G0:
        for axis in ("circle-outer", "sphere-outer"):
            cert = sufficient_product(support, 2, axis)
            assert cert.verdict in (Verdict.SUFFICIENT_ONLY, Verdict.INCONCLUSIVE)


def test_sufficient_only_implies_spd():
    # across the random battery a positive sufficient answer must agree with
    # the full characterization
    hits = 0
    for support in battery_2d(seed=505, count=80):
        for axis in ("circle-outer", "sphere-outer"):
            cert = sufficient_product(support, 2, axis)
            if cert.verdict is Verdict.SUFFICIENT_ONLY:
                hits += 1
                full = certify_circle_sphere(support, 2)
                assert full.verdict is Verdict.SPD, (support, axis)
    assert hits > 0


def test_spd_yet_inconclusive_examples():
    for support in SPD_BUT_INCONCLUSIVE:
        assert certify_circle_sphere(support, 2).verdict is Verdict.SPD
        for axis in ("circle-outer", "sphere-outer"):
            assert sufficient_product(support, 2, axis).verdict is Verdict.INCONCLUSIVE


# an outer singleton of 10^6 or 3 * 10^7 beside small steps: past any window
# limit, yet each reader takes two classes or one
BIG_OUTER_SINGLETONS = [
    SupportSet2D(((prog(0, 1), prog(0, 2)), (prog(0, 1), prog(1, 2)), (prog(1, 3), one(10**6)))),
    SupportSet2D(((prog(0, 1), prog(0, 1)), (one(30_000_000), prog(0, 1)))),
]


def test_every_route_decides_big_outer_singletons():
    space = circle_tph_space("real_proj", 2)
    for support in BIG_OUTER_SINGLETONS:
        for axis in ("circle-outer", "sphere-outer"):
            cert = sufficient_product(support, 2, axis)
            assert cert.verdict is Verdict.SUFFICIENT_ONLY, (support, axis)
        assert certify_circle_sphere(support, 2).verdict is Verdict.SPD
        assert certify_circle_sphere_gamma_loop(support, 2).verdict is Verdict.SPD
        assert certify_circle_tph(support, space).verdict is Verdict.SPD


def test_circle_outer_test_walks_no_divisors(monkeypatch):
    import spdkernels.supportsets as supportsets_mod

    def refuse(*args):
        raise AssertionError("the circle-outer test walked divisors or searched a witness")

    monkeypatch.setattr(supportsets_mod, "_divisors", refuse)
    monkeypatch.setattr(supportsets_mod, "_search_witness", refuse)
    # outer steps 2^6 and 5^5 give 200000 classes; the flagged ones, 3 mod 64
    # and 7 mod 3125, and their negatives miss most classes
    support = SupportSet2D((
        (prog(0, 1), prog(0, 2)), (prog(3, 64), prog(1, 2)), (prog(7, 3125), prog(1, 2)),
    ))
    cert = sufficient_product(support, 2, "circle-outer")
    assert cert.verdict is Verdict.INCONCLUSIVE
    assert [e.outcome for e in cert.trace] == [True, False]


def test_sufficient_rejects_unknown_axis():
    with pytest.raises(ValueError):
        sufficient_product(SPD_PRODUCT_SUPPORTS[0], 2, "diagonal")


# --- certificates ------------------------------------------------------------------------

def test_certificate_traces_are_populated():
    cert = certify_circle_sphere(SPD_PRODUCT_SUPPORTS[0], 2)
    assert len(cert.trace) >= 2
    assert all(isinstance(entry.outcome, bool) for entry in cert.trace)
    assert cert.space == "circle_sphere"


# --- enlarging the support never destroys a positive verdict -------------------

def test_adding_terms_preserves_spd():
    bases = battery_2d(seed=606, count=60)
    extras = battery_2d(seed=607, count=60)
    flips = 0
    for base, donor in zip(bases, extras):
        before = certify_circle_sphere(base, m=2)
        if before.verdict is not Verdict.SPD:
            continue
        enlarged = SupportSet2D(base.terms + donor.terms[:1])
        after = certify_circle_sphere(enlarged, m=2)
        if after.verdict is Verdict.NOT_SPD:
            flips += 1
    assert flips == 0


# --- a full-line-by-parity support passes both routes in one step --------------

def test_full_line_times_parity_classes():
    # k unrestricted, paired once with the evens and once with the odds:
    # the one-axis test already suffices and the exact certifier agrees
    support = SupportSet2D(((prog(0, 1), prog(0, 2)), (prog(0, 1), prog(1, 2))))
    for axis in ("circle-outer", "sphere-outer"):
        quick = sufficient_product(support, m=2, axis=axis)
        assert quick.verdict is Verdict.SUFFICIENT_ONLY
    exact = certify_circle_sphere(support, m=2)
    assert exact.verdict is Verdict.SPD


# --- the checkpointed sweep against a per-integer walk ---------------------------------

def _derived_check(support, gamma, parity):
    derived = derived_parity_tail_set(support, gamma, parity)
    ok, witness = meets_every_progression(derived)
    return ok, witness, derived.is_empty


def per_integer_reference(support, parities, gamma_max):
    """Walk every integer gamma up to the sweep's upper end, one at a time.

    Returns None when every tail set passes, else the first failing
    (gamma, parity, witness, empty)."""
    upper = stabilization_bound(support)
    if gamma_max is not None:
        upper = max(upper, gamma_max)
    for gamma in range(upper + 1):
        for parity in parities:
            ok, witness, empty = _derived_check(support, gamma, parity)
            if not ok:
                return gamma, parity, witness, empty
    return None


def _failure(cert):
    ce = cert.counterexample
    if cert.verdict is Verdict.SPD:
        return None
    return ce.gamma, ce.parity, ce.witness, ce.empty


def test_sweep_matches_per_integer_reference():
    space = circle_tph_space("real_proj", 2)
    supports = list(ALL_FIXED_2D) + [s for s, _, _ in LATE_FAILURES] + battery_2d(seed=2024, count=80)
    failures = 0
    for support in supports:
        bound = stabilization_bound(support)
        for gamma_max in (None, bound // 2, bound, 3 * bound):
            want = per_integer_reference(support, ("odd", "even"), gamma_max)
            failures += want is not None
            assert _failure(certify_circle_sphere(support, 2, gamma_max)) == want, support
            # the loop's whole failure, witness included
            assert _failure(certify_circle_sphere_gamma_loop(support, 2, gamma_max)) == want, support

            want_any = per_integer_reference(support, ("any",), gamma_max)
            tph = certify_circle_tph(support, space, gamma_max)
            assert _failure(tph) == want_any, support
            assert tph == _tph_loop(support, gamma_max), support
    assert failures > 0


def test_gamma_loop_reads_the_step_lcm_of_the_tail_alone():
    # prog(0, 300000) holds no odd degree, so the odd tail at gamma 0 is
    # prog(0, 2) alone: classes mod 2 on both routes, not mod 300000
    support = SupportSet2D(((prog(0, 2), prog(1, 2)), (prog(0, 300_000), one(0))))
    failure = GammaFailure(0, "odd", ProgressionWitness(2, 1), empty=False)
    assert certify_circle_sphere(support, 2).counterexample == failure
    loop = certify_circle_sphere_gamma_loop(support, 2)
    assert loop.verdict is Verdict.NOT_SPD
    assert loop.counterexample == failure
    # a tail whose k-step lcm is past the limit is still refused
    wide = SupportSet2D(((prog(0, 2), prog(1, 2)), (prog(0, 300_000), prog(1, 2))))
    with pytest.raises(NotApplicableError, match="step lcm 300000 is past the limit"):
        certify_circle_sphere_gamma_loop(wide, 2)


def _deep_product_support(v, verdict, parity):
    """A complete core plus the l-singleton v: NotSPD supports first fail at
    (v + 1, parity), since only v completes that parity's tail."""
    extras = [(prog(1, 3), one(5)), (prog(2, 4), one(8))]
    if verdict == "SPD":
        core = [(prog(0, 1), prog(0, 2)), (prog(0, 1), prog(1, 2))]
    else:
        core = [
            (prog(0, 1), prog(int(parity == "even"), 2)),
            (prog(1, 2), prog(int(parity == "odd"), 2)),
        ]
    return SupportSet2D(tuple(core + extras + [(prog(0, 1), one(v))]))


def test_sweep_cost_follows_distinct_singletons():
    space = circle_tph_space("complex_proj", 4)
    v = 10**9 + 1
    for verdict in ("SPD", "NotSPD"):
        support = _deep_product_support(v, verdict, "odd")
        singles = {lt.base for _, lt in support.terms if not lt.is_progression}
        routes = (
            (lambda: certify_circle_sphere(support, 2), 2),
            (lambda: certify_circle_sphere_gamma_loop(support, 2), 2),
            (lambda: certify_circle_tph(support, space), 1),
        )
        for run, n_parities in routes:
            start = time.perf_counter()
            cert = run()
            assert time.perf_counter() - start < 1.0
            assert len(cert.trace) <= n_parities * (len(singles) + 2)
        sweep = certify_circle_sphere(support, 2)
        if verdict == "SPD":
            assert sweep.verdict is Verdict.SPD
        else:
            ce = sweep.counterexample
            assert (ce.gamma, ce.parity) == (v + 1, "odd")


# --- two spheres: one term must be unbounded on both axes -------------------------------

L_SHAPE = SupportSet2D((
    (prog(0, 1), one(0)), (prog(0, 1), one(1)),
    (one(0), prog(0, 1)), (one(1), prog(0, 1)),
))


def test_two_spheres_l_shape_is_not_spd():
    # both projections of every quadrant are unbounded, but through different terms
    cert = certify_two_spheres(L_SHAPE, 2, 2)
    assert cert.verdict is Verdict.NOT_SPD
    assert cert.counterexample == QuadrantDeficit("even", "even", "joint")


def _two_sphere_form(support, r=0.8, K=40, seed=11):
    """c'Gc and its scale c'diag(G)c on S^2 x S^2 for 16 signed points whose
    weights cancel degrees 0 and 1 on each axis."""
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(4, 3))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    xs = np.array([u[0], -u[0], u[1], -u[1]])
    ys = np.array([u[2], -u[2], u[3], -u[3]])
    sign = np.array([1.0, 1.0, -1.0, -1.0])
    px = np.repeat(xs, 4, axis=0)
    py = np.tile(ys, (4, 1))
    c = np.repeat(sign, 4) * np.tile(sign, 4)
    t = np.clip(px @ px.T, -1.0, 1.0).ravel()
    s = np.clip(py @ py.T, -1.0, 1.0).ravel()
    coeffs = np.array([
        [r ** (k + l) if contains_2d(support, k, l) else 0.0 for l in range(K + 1)]
        for k in range(K + 1)
    ])
    gram = np.einsum(
        "kp,kl,lp->p", gegenbauer_table(K, 2, t), coeffs, gegenbauer_table(K, 2, s)
    ).reshape(16, 16)
    return float(c @ gram @ c), float(c @ (np.diag(gram) * c))


def test_two_spheres_l_shape_has_a_null_vector():
    form, scale = _two_sphere_form(L_SHAPE)
    assert abs(form) <= 1e-10 * scale
    # the same points do not null the full support, so the zero is the support's
    full, full_scale = _two_sphere_form(SupportSet2D(((prog(0, 1), prog(0, 1)),)))
    assert full > 1e-3 * full_scale


# --- work logged at DEBUG -----------------------------------------------------------------

def test_the_loops_divisor_walk_is_logged(caplog):
    support = SupportSet2D(((prog(0, 1), prog(0, 2)), (prog(1, 6), prog(1, 2)), (prog(0, 4), prog(1, 2))))
    with caplog.at_level("DEBUG", logger="spdkernels"):
        certify_circle_sphere_gamma_loop(support, 2)
    # at gamma 0 only the two odd l-progressions have an odd tail member, so
    # the odd tail +-{1 mod 6} u {0 mod 4} misses 2 mod 4, at the fourth
    # divisor of 12; the loop itself logs nothing
    assert [(r.name, r.getMessage()) for r in caplog.records] == [
        ("spdkernels.supportsets", "step lcm 12: class 2 mod 4 missed, 4 of 6 divisors examined"),
    ]


def test_sufficient_tests_log_their_classes(caplog):
    support = SupportSet2D(((prog(0, 2), prog(0, 1)), (one(5), prog(0, 1))))
    evens = SupportSet2D(((prog(0, 2), prog(0, 2)), (one(5), prog(0, 1))))
    with caplog.at_level("DEBUG", logger="spdkernels.certify"):
        sufficient_product(support, 2, "circle-outer")
        sufficient_product(support.transpose(), 2, "sphere-outer")
        cert = sufficient_product(evens, 2, "circle-outer")
    assert [t.outcome for t in cert.trace] == [True, False]
    messages = [r.getMessage() for r in caplog.records if r.name == "spdkernels.certify"]
    # the outer progression prog(0, 2) makes two classes past the bound 6, and
    # its full inner term qualifies class 0; sphere-outer reads them through
    # the patterns (0,) and ().  With evens alone beside prog(0, 2) no class
    # qualifies, and the row of the singleton 5 is checked
    assert messages == [
        "classes mod 2 past bound 6: 1 qualify (two unions of slices), 0 singleton rows checked",
        "classes mod 2 past bound 6: 1 qualify (2 membership patterns), 0 singleton rows checked",
        "classes mod 2 past bound 6: 0 qualify (two unions of slices), 1 singleton rows checked",
    ]
