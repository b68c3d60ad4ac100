"""The whole-array residue scan and periodic window against the per-integer
versions they replaced.

``reference_*`` below are verbatim copies of the earlier per-integer code: a
residue scan that marks and lists classes one at a time, a window scan over
every member, and a periodic window that calls its predicate once per
integer.  The library must return the same decisions, the same missed
class and the same promoted terms.  ``pattern_tail_frequency_set`` and
``pattern_qualifying_set`` are the gamma-loop and circle-outer windows read
through membership patterns, as the sphere-outer test still reads its own;
the slice-union windows must match them bit for bit.
"""

from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LATE_FAILURES, WINDOW, battery_1d, battery_2d, expand_promoted, term_members
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
    witness_avoids_window,
)
from spdkernels.certify import (
    Verdict,
    _promote_periodic,
    _qualifying_set,
    _section_terms_have_tail,
    _tail_frequency_set,
)
from spdkernels.supportsets import PeriodicSet1D, _divisors
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
    l_ok = [_section_terms_have_tail(lt, gamma, parity) for _, lt in support.terms]
    k_parts = support.k_terms()

    def ok(k):
        return any(l_ok[i] and k_parts[i].contains(k) for i in range(len(k_parts)))

    return reference_promote_periodic(k_parts, ok)


def pattern_tail_frequency_set(support, gamma, parity):
    """The gamma-loop window as it was read before its flags became a union of
    term slices: one predicate call per membership pattern."""
    l_ok = [_section_terms_have_tail(lt, gamma, parity) for _, lt in support.terms]
    return _promote_periodic(support.k_terms(), lambda pattern: any(l_ok[i] for i in pattern))


def pattern_qualifying_set(support, m):
    """The circle-outer window as it was read before its flags became two
    unions of term slices: one sphere certifier call per membership pattern."""
    inner_parts = support.l_terms()

    def inner_ok(pattern):
        section = SupportSet1D(tuple(inner_parts[i] for i in pattern))
        return certify_sphere(section, m).verdict is Verdict.SPD

    return _promote_periodic(support.k_terms(), inner_ok)


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
    plain = expand_promoted(support) if isinstance(support, PeriodicSet1D) else support
    assert got == reference_meets_every_progression(plain), support
    return got


def assert_same_terms(got, want):
    assert expand_promoted(got).terms == want.terms
    assert all(type(v) is int for v in got.singletons())


def assert_same_flags(got, want):
    assert (got.bound, got.period) == (want.bound, want.period)
    assert got.flags.dtype == want.flags.dtype and np.array_equal(got.flags, want.flags)


def assert_same_flags_at_checkpoints(support):
    """The slice-union window against the pattern window, bit for bit, at
    every checkpoint of the sweep: 0, v + 1 per l-singleton v, the upper end."""
    dropouts = {lt.base + 1 for _, lt in support.terms if not lt.is_progression}
    for gamma in sorted({0, stabilization_bound(support)} | dropouts):
        for parity in ("odd", "even", "any"):
            assert_same_flags(
                _tail_frequency_set(support, gamma, parity),
                pattern_tail_frequency_set(support, gamma, parity),
            )


def assert_same_circle_outer_flags(support):
    """The two-union circle-outer window against the pattern window, bit for bit."""
    assert_same_flags(_qualifying_set(support, "circle-outer"), pattern_qualifying_set(support, 2))


def assert_routes_agree(support):
    """Both tail routes at every gamma up to one past the stabilization bound,
    and both sufficient axes."""
    assert_same_flags_at_checkpoints(support)
    for gamma in range(stabilization_bound(support) + 2):
        for parity in ("odd", "even", "any"):
            assert_same_decision(derived_parity_tail_set(support, gamma, parity))
            freq = _tail_frequency_set(support, gamma, parity)
            assert_same_terms(freq, reference_tail_frequency_set(support, gamma, parity))
            assert_same_decision(freq)
    assert_same_circle_outer_flags(support)
    for axis in ("circle-outer", "sphere-outer"):
        qualifying = _qualifying_set(support, axis)
        assert_same_terms(qualifying, reference_qualifying_set(support, 2, axis))
        assert_same_decision(qualifying)


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
    # terms or only base-0 terms: the prefix below the bound is {0}.
    support = SupportSet2D(tuple((t, prog(0, 1)) for t in terms))
    for predicate_true in (True, False):
        got = _promote_periodic(terms, lambda pattern: predicate_true and bool(pattern))
        want = reference_promote_periodic(terms, lambda v: predicate_true and any(t.contains(v) for t in terms))
        assert_same_terms(got, want)
    assert_routes_agree(support)


@pytest.mark.parametrize("count", [61, 62, 63, 130])
def test_window_past_one_code_word(count):
    # as many k-terms as one int64 word of membership bits holds, and more
    k_terms = [prog(b % 7, 7 + b % 3) if b % 3 else one(b) for b in range(count)]
    support = SupportSet2D(tuple((kt, prog(i % 2, 2)) for i, kt in enumerate(k_terms)))
    for parity in ("odd", "even"):
        freq = _tail_frequency_set(support, 0, parity)
        assert_same_terms(freq, reference_tail_frequency_set(support, 0, parity))
    assert_same_flags_at_checkpoints(support)
    assert_same_circle_outer_flags(support)
    length = 1 + max(t.base for t in k_terms) + 2 * 7 * 8 * 9  # bound + two periods
    patterns = {tuple(i for i, t in enumerate(k_terms) if t.contains(v)) for v in range(length)}
    calls = []
    freq = _promote_periodic(k_terms, lambda pattern: calls.append(pattern) or sum(pattern) % 3 == 0)
    assert sorted(calls) == sorted(patterns)
    want = reference_promote_periodic(
        k_terms, lambda v: sum(i for i, t in enumerate(k_terms) if t.contains(v)) % 3 == 0
    )
    assert_same_terms(freq, want)


def test_predicate_runs_once_per_pattern():
    k_terms = [prog(0, 2), prog(1, 3), one(5)]
    seen = []
    freq = _promote_periodic(k_terms, lambda pattern: seen.append(pattern) or 0 in pattern)
    assert sorted(seen) == [(), (0,), (0, 1), (1,), (2,)]
    assert_same_terms(freq, reference_promote_periodic(k_terms, lambda v: v % 2 == 0))


@given(support=support_strategy, n=st.integers(1, 30), j=st.integers(0, 29))
@settings(max_examples=150, deadline=None)
def test_window_scan_matches(support, n, j):
    witness = ProgressionWitness(n, j % n)
    assert witness_avoids_window(support, witness) == reference_witness_avoids_window(
        support, witness
    )
