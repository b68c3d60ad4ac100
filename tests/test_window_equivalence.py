"""The whole-array residue scan, the tail sets of the gamma loop and the
sufficient tests against the per-integer versions they replaced.

``reference_*`` below are verbatim copies of the earlier per-integer code: a
residue scan that marks and lists classes one at a time, a window scan over
every member, and a periodic window that calls its predicate once per
integer.  The library must return the same decisions and the same missed
class.  The gamma loop's tail sets must equal the derived tail sets term for
term and decide as the reference window does.  The sufficient tests read
classes mod the outer step lcm instead of a window, so for them the first
trace entry and the verdict must match the emptiness of the exact
qualifying set of ``reference_qualifying_set`` and the outer certifier's
verdict on it.
"""

from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LATE_FAILURES, WINDOW, battery_1d, battery_2d, term_members
from spdkernels import (
    ProgressionWitness,
    SupportSet1D,
    SupportSet2D,
    certify_circle,
    certify_sphere,
    derived_parity_tail_set,
    meets_every_progression,
    one,
    prog,
    stabilization_bound,
    sufficient_product,
    witness_avoids_window,
)
import spdkernels.certify as certify_mod
from spdkernels.certify import (
    Verdict,
    _loop_tail_set,
    _qualifying_set,
    _section_terms_have_tail,
)
from spdkernels.supportsets import _divisors
from test_acceptance import ALL_FIXED_2D
from test_supportsets import support_strategy, term_strategy


# --- the per-integer reference implementations -------------------------------

def reference_uncovered_residues(progressions, d):
    covered = bytearray(d)
    for t in progressions:
        g = gcd(t.step, d)
        for r in (t.base % g, (-t.base) % g):
            for j in range(r, d, g):
                covered[j] = 1
    return [j for j in range(d) if not covered[j]]


def reference_witness_avoids_window(support, witness, window=WINDOW):
    n, j = witness.modulus, witness.residue
    for t in support.terms:
        for v in term_members(t, window):
            if v % n == j or (-v) % n == j:
                return False
    return True


def reference_search_witness(support, lcm_steps, d, j0, window):
    singles = support.singletons()
    cap = 2 * len(singles) + lcm_steps + 64
    p = 0
    while p <= cap:
        p += 1
        if gcd(p, lcm_steps) != 1:
            continue
        n = d * p
        banned = set()
        for v in singles:
            banned.add(v % n)
            banned.add((-v) % n)
        for t in range(p):
            j = (j0 + t * d) % n
            if j in banned:
                continue
            w = ProgressionWitness(n, j)
            if reference_witness_avoids_window(support, w, window):
                return w
    raise RuntimeError("witness search exhausted its bound")


def reference_meets_every_progression(support, window=WINDOW):
    progressions = [t for t in support.terms if t.is_progression]
    lcm_steps = 1
    for t in progressions:
        lcm_steps = lcm_steps * t.step // gcd(lcm_steps, t.step)
    for d in _divisors(lcm_steps):
        uncovered = reference_uncovered_residues(progressions, d)
        if uncovered:
            return False, reference_search_witness(support, lcm_steps, d, uncovered[0], window)
    return True, None


def reference_promote_periodic(axis_terms, predicate):
    bound = 1 + max((t.base for t in axis_terms), default=0)
    period = 1
    for t in axis_terms:
        if t.is_progression:
            period = period * t.step // gcd(period, t.step)
    flags = [predicate(v) for v in range(bound + 2 * period)]
    for v in range(bound, bound + period):
        if flags[v] != flags[v + period]:
            raise AssertionError(f"window outcome not periodic at {v} (period {period})")
    terms = [one(v) for v in range(bound) if flags[v]]
    terms += [prog(v, period) for v in range(bound, bound + period) if flags[v]]
    return SupportSet1D(tuple(terms))


def reference_tail_frequency_set(support, gamma, parity):
    """The window over the k-terms whose l-term has a tail member: their
    steps alone set the period, as on the tail-sets route."""
    k_parts = [kt for kt, lt in support.terms if _section_terms_have_tail(lt, gamma, parity)]

    def ok(k):
        return any(kt.contains(k) for kt in k_parts)

    return reference_promote_periodic(k_parts, ok)


def reference_qualifying_set(support, m, axis):
    working = support if axis == "circle-outer" else support.transpose()
    outer_parts = working.k_terms()
    inner_parts = working.l_terms()

    def inner_ok(v):
        section = SupportSet1D(tuple(t for i, t in enumerate(inner_parts) if outer_parts[i].contains(v)))
        if axis == "circle-outer":
            return certify_sphere(section, m).verdict is Verdict.SPD
        return certify_circle(section).verdict is Verdict.SPD

    return reference_promote_periodic(outer_parts, inner_ok)


# --- comparisons ----------------------------------------------------------------

def assert_same_decision(support):
    got = meets_every_progression(support)
    assert got == reference_meets_every_progression(support), support
    return got


def assert_same_terms(support, gamma, parity):
    """The gamma loop's tail set at (gamma, parity): the derived tail set term
    for term, and its check decides as the reference window does, missed
    class included."""
    freq, ok, witness = _loop_tail_set(support, gamma, parity)
    assert freq == derived_parity_tail_set(support, gamma, parity), (support, gamma, parity)
    want = reference_meets_every_progression(reference_tail_frequency_set(support, gamma, parity))
    assert (ok, witness) == want, (support, gamma, parity)


def assert_same_terms_at_checkpoints(support):
    """The gamma-loop window against the per-integer window at every
    checkpoint of the sweep: 0, v + 1 per l-singleton v, the upper end."""
    dropouts = {lt.base + 1 for _, lt in support.terms if not lt.is_progression}
    for gamma in sorted({0, stabilization_bound(support)} | dropouts):
        for parity in ("odd", "even", "any"):
            assert_same_terms(support, gamma, parity)


OUTER_CERTIFIERS = {"circle-outer": certify_circle, "sphere-outer": lambda s: certify_sphere(s, 2)}


def assert_outer_test_matches(support, axis):
    """The sufficient test's trace and verdict against the emptiness of the
    exact qualifying set and the outer certifier's verdict on it."""
    cert = sufficient_product(support, 2, axis)
    exact = reference_qualifying_set(support, 2, axis)
    passes = OUTER_CERTIFIERS[axis](exact).verdict is Verdict.SPD
    assert [e.outcome for e in cert.trace] == [not exact.is_empty, passes], (support, axis)
    assert cert.verdict is (Verdict.SUFFICIENT_ONLY if passes else Verdict.INCONCLUSIVE)


def assert_reader_matches(support):
    for axis in OUTER_CERTIFIERS:
        assert_outer_test_matches(support, axis)


def assert_routes_agree(support):
    """Both tail routes at every gamma up to one past the stabilization bound,
    and the reader on both sufficient axes."""
    for gamma in range(stabilization_bound(support) + 2):
        for parity in ("odd", "even", "any"):
            assert_same_decision(derived_parity_tail_set(support, gamma, parity))
            assert_same_terms(support, gamma, parity)
    assert_reader_matches(support)


PRODUCT_SUPPORTS = list(ALL_FIXED_2D) + [s for s, _, _ in LATE_FAILURES] + battery_2d(2024, 80)


def test_residue_scan_matches_on_the_one_axis_battery():
    refused = sum(not assert_same_decision(s)[0] for s in battery_1d(7, 300))
    assert 0 < refused < 300


@pytest.mark.parametrize("index", range(0, len(PRODUCT_SUPPORTS), 10))
def test_routes_match_on_the_product_batteries(index):
    for support in PRODUCT_SUPPORTS[index : index + 10]:
        assert_routes_agree(support)


@given(support=support_strategy)
@settings(max_examples=150, deadline=None)
def test_residue_scan_matches_on_random_supports(support):
    assert_same_decision(support)


@given(pairs=st.lists(st.tuples(term_strategy, term_strategy), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_routes_match_on_random_product_supports(pairs):
    assert_routes_agree(SupportSet2D(tuple(pairs)))


# bases up to 60 put singletons and progression bases past the step lcm
wide_term = st.one_of(
    st.integers(0, 60).map(one),
    st.tuples(st.integers(0, 60), st.integers(1, 12)).map(lambda p: prog(*p)),
)
small_term = st.one_of(
    st.integers(0, 10).map(one),
    st.tuples(st.integers(0, 10), st.integers(1, 8)).map(lambda p: prog(*p)),
)


@given(pairs=st.lists(st.tuples(wide_term, small_term), min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_routes_match_on_wide_product_supports(pairs):
    support = SupportSet2D(tuple(pairs))
    assert_same_terms_at_checkpoints(support)
    assert_reader_matches(support)


@pytest.mark.parametrize(
    "pairs, axis, flags",
    [
        # P = 1, its one class flagged and clear
        ([(prog(0, 1), prog(0, 1))], "circle-outer", [True]),
        ([(prog(0, 1), prog(0, 2))], "circle-outer", [False]),
        ([(prog(0, 1), prog(0, 1))], "sphere-outer", [True]),
        ([(prog(0, 2), prog(0, 1))], "sphere-outer", [False]),
        # odd P: 2 mod 3 is -1 mod 3, and 1 mod 3 holds both parities
        ([(prog(0, 3), prog(0, 1)), (prog(1, 3), prog(0, 1))], "circle-outer", [True, True, False]),
        ([(prog(0, 1), prog(1, 3))], "sphere-outer", [False, True, False]),
        # flagged classes of one parity only
        ([(prog(0, 2), prog(0, 1))], "circle-outer", [True, False]),
        ([(prog(0, 1), prog(1, 4))], "sphere-outer", [False, True, False, False]),
        # no flagged class, but the row of an outer singleton qualifies
        ([(prog(0, 2), prog(0, 2)), (one(5), prog(0, 1))], "circle-outer", [False, False]),
        ([(prog(0, 1), one(3)), (prog(0, 2), prog(0, 2))], "sphere-outer", [False, False]),
    ],
)
def test_outer_tests_on_the_flags_at_the_edges(pairs, axis, flags):
    support = SupportSet2D(tuple(pairs))
    assert _qualifying_set(support, axis)[0].tolist() == flags
    assert_outer_test_matches(support, axis)


@pytest.mark.parametrize(
    "support",
    [
        SupportSet1D(()),  # no progression: only d = 1 is examined, and it fails
        SupportSet1D((one(0), one(3))),
        SupportSet1D((prog(4, 1),)),  # step 1 covers d = 1
        SupportSet1D((prog(0, 5),)),  # +0 and -0: one residue
        SupportSet1D((prog(2, 4),)),  # +2 and -2 agree mod 4
        SupportSet1D((prog(1, 2), one(0))),  # +1 and -1 agree mod 2
        SupportSet1D((prog(0, 3), prog(1, 3))),  # covered only through -1
        SupportSet1D((prog(1, 6), prog(3, 6), one(2))),
        SupportSet1D((prog(0, 4), prog(1, 6), prog(5, 9))),
    ],
)
def test_residue_scan_edge_cases(support):
    assert_same_decision(support)


def test_covered_only_through_the_negative_residue():
    # 0 and 1 mod 3 leave 2 uncovered unless -1 = 2 mod 3 is marked
    assert meets_every_progression(SupportSet1D((prog(0, 3), prog(1, 3)))) == (True, None)
    ok, witness = meets_every_progression(SupportSet1D((prog(0, 4), prog(1, 4))))
    assert not ok and (witness.modulus, witness.residue) == (4, 2)


@pytest.mark.parametrize("terms", [[], [prog(0, 1)], [prog(0, 2), one(0)], [prog(0, 3), prog(0, 2)]])
def test_window_with_the_smallest_bound(terms):
    # The bound is 1 + the largest base, so the shortest windows have no
    # terms or only base-0 terms: the prefix below the bound is {0}.  At
    # gamma 1 an l-term prog(0, 1) puts every k-term in the tail, one(0) none.
    for lt in (prog(0, 1), one(0)):
        support = SupportSet2D(tuple((t, lt) for t in terms))
        assert_same_terms(support, 1, "any")
        assert _loop_tail_set(support, 1, "any")[0].is_empty is (lt.step == 0 or not terms)
        assert_routes_agree(support)


def _rows_certified(monkeypatch):
    """The rows the sphere-outer reader hands the circle certifier, in call
    order, each as the bases of its terms."""
    rows = []

    def recording(row):
        rows.append(tuple(t.base for t in row.terms))
        return certify_circle(row)

    monkeypatch.setattr(certify_mod, "certify_circle", recording)
    return rows


@pytest.mark.parametrize("count", [61, 62, 63, 130])
def test_window_past_one_code_word(count, monkeypatch):
    # as many k-terms as one int64 word of membership bits holds, and more
    k_terms = [prog(b % 7, 7 + b % 3) if b % 3 else one(b) for b in range(count)]
    support = SupportSet2D(tuple((kt, prog(i % 2, 2)) for i, kt in enumerate(k_terms)))
    assert_same_terms_at_checkpoints(support)
    assert_reader_matches(support)
    # read on the sphere-outer axis, with the inner term of index i
    # prog(i, 1), the circle certifier runs once per membership pattern of the
    # progressions over the classes mod their step lcm
    progressions = [(i, t) for i, t in enumerate(k_terms) if t.is_progression]
    period = lcm(*(t.step for _, t in progressions))
    per_class = [tuple(i for i, t in progressions if t.contains(period + c)) for c in range(period)]
    rows = _rows_certified(monkeypatch)
    flipped = SupportSet2D(tuple((prog(i, 1), kt) for i, kt in enumerate(k_terms)))
    flags, empty = _qualifying_set(flipped, "sphere-outer")
    assert sorted(rows) == sorted(set(per_class))
    # a row certifies when it holds any term; 7 mod 72 holds none
    assert flags.tolist() == [bool(pattern) for pattern in per_class]
    assert not empty and not flags[7]


def test_predicate_runs_once_per_pattern(monkeypatch):
    # classes mod 6 hold the patterns (0,), (1,), (0,), (), (0, 1) and ();
    # inner terms of evens alone never certify, so the singleton's row, (2,),
    # is checked last
    outer = [prog(0, 2), prog(1, 3), one(5)]
    support = SupportSet2D(tuple((prog(2 * i, 2), t) for i, t in enumerate(outer)))
    rows = _rows_certified(monkeypatch)
    flags, empty = _qualifying_set(support, "sphere-outer")
    assert sorted(tuple(b // 2 for b in row) for row in rows[:-1]) == [(), (0,), (0, 1), (1,)]
    assert rows[-1] == (4,)
    assert empty and not flags.any()
    assert_reader_matches(support)


@given(support=support_strategy, n=st.integers(1, 30), j=st.integers(0, 29))
@settings(max_examples=150, deadline=None)
def test_window_scan_matches(support, n, j):
    witness = ProgressionWitness(n, j % n)
    assert witness_avoids_window(support, witness) == reference_witness_avoids_window(
        support, witness
    )
