"""Decision procedure on symbolic frequency sets, cross-examined by
brute-force window scans from conftest."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    battery_1d,
    battery_2d,
    gamma_parity_members,
    oracle_class_member,
    oracle_meets_all_small_moduli,
    oracle_witness_sound,
    window_members,
)
from spdkernels import (
    ProgressionWitness,
    SupportSet1D,
    SupportSet2D,
    Term1D,
    derived_parity_tail_set,
    has_infinitely_many,
    meets_every_progression,
    one,
    prog,
    stabilization_bound,
    witness_avoids_window,
)


# --- terms and containers ----------------------------------------------------

def test_term_membership():
    t = prog(2, 5)
    assert t.is_progression
    assert t.contains(2) and t.contains(7) and t.contains(52)
    assert not t.contains(3) and not t.contains(1)
    s = one(4)
    assert not s.is_progression
    assert s.contains(4) and not s.contains(9)


def test_term_validation():
    with pytest.raises(ValueError):
        Term1D(-1, 2)
    with pytest.raises(ValueError):
        Term1D(0, -3)


def test_members_upto():
    s = SupportSet1D.of(one(3), prog(1, 4))
    assert s.members_upto(13) == {3, 1, 5, 9, 13}
    assert s.contains(9) and not s.contains(2)


def test_support2d_sections():
    s = SupportSet2D(((prog(0, 2), one(5)), (one(4), prog(1, 3))))
    sec4 = s.section(4)
    assert sec4.contains(5) and sec4.contains(1) and sec4.contains(7)
    sec3 = s.section(3)
    assert sec3.is_empty
    flipped = s.transpose()
    assert flipped.section(5).contains(0) and flipped.section(5).contains(6)


# --- the residue-class test, frozen examples ---------------------------------

def test_full_support_passes():
    ok, w = meets_every_progression(SupportSet1D.of(prog(0, 1)))
    assert ok and w is None


def test_even_only_fails_at_odd_class():
    ok, w = meets_every_progression(SupportSet1D.of(prog(0, 2)))
    assert not ok
    assert w == ProgressionWitness(2, 1)
    assert oracle_witness_sound(SupportSet1D.of(prog(0, 2)), w)


def test_zero_plus_one_mod_three_fails():
    s = SupportSet1D.of(one(0), prog(1, 3))
    ok, w = meets_every_progression(s)
    assert not ok
    assert w == ProgressionWitness(6, 3)
    assert oracle_witness_sound(s, w)


def test_zero_plus_odds_fails():
    s = SupportSet1D.of(one(0), prog(1, 2))
    ok, w = meets_every_progression(s)
    assert not ok
    assert w == ProgressionWitness(6, 2)
    assert oracle_witness_sound(s, w)


def test_both_parities_pass():
    ok, _ = meets_every_progression(SupportSet1D.of(prog(0, 2), prog(1, 2)))
    assert ok


def test_finite_support_fails():
    s = SupportSet1D.of(one(0), one(5), one(12))
    ok, w = meets_every_progression(s)
    assert not ok
    assert oracle_witness_sound(s, w)


def test_empty_support_fails():
    ok, w = meets_every_progression(SupportSet1D(()))
    assert not ok
    assert w is not None and oracle_witness_sound(SupportSet1D(()), w)


def test_shifted_residues_pass():
    # 0,1,2 mod 5 with negatives reach every class of every modulus
    s = SupportSet1D.of(prog(0, 5), prog(1, 5), prog(2, 5))
    ok, _ = meets_every_progression(s)
    assert ok
    allok, missing = oracle_meets_all_small_moduli(s)
    assert allok, missing


def test_witness_avoids_window_agrees_with_oracle():
    s = SupportSet1D.of(one(0), prog(1, 3))
    assert witness_avoids_window(s, ProgressionWitness(6, 3))
    assert not witness_avoids_window(s, ProgressionWitness(3, 1))


# --- battery: soundness and completeness against the oracle -------------------

def test_battery_witnesses_sound():
    bad = 0
    for s in battery_1d(seed=101, count=200):
        ok, w = meets_every_progression(s)
        if ok:
            continue
        bad += 1
        assert oracle_witness_sound(s, w), (s, w)
    assert bad > 0  # the battery must exercise the refusal path


def test_battery_accepts_complete():
    accepted = 0
    for s in battery_1d(seed=202, count=120):
        ok, _ = meets_every_progression(s)
        if not ok:
            continue
        accepted += 1
        allok, missing = oracle_meets_all_small_moduli(s, max_modulus=48)
        assert allok, (s, missing)
    assert accepted > 0


# --- parity helpers ------------------------------------------------------------

def test_has_infinitely_many():
    assert has_infinitely_many(SupportSet1D.of(prog(0, 2)), "even")
    assert not has_infinitely_many(SupportSet1D.of(prog(0, 2)), "odd")
    assert has_infinitely_many(SupportSet1D.of(prog(0, 3)), "odd")
    assert not has_infinitely_many(SupportSet1D.of(one(7)), "odd")
    assert has_infinitely_many(SupportSet1D.of(one(7), prog(1, 2)), "odd")


def test_stabilization_bound():
    s = SupportSet2D(((prog(0, 1), one(4)), (prog(0, 2), prog(1, 2))))
    assert stabilization_bound(s) == 5
    s = SupportSet2D(((prog(0, 1), prog(0, 2)),))
    assert stabilization_bound(s) == 0


def test_derived_tail_set_drops_singletons():
    s = SupportSet2D((
        (prog(0, 2), one(3)),
        (prog(1, 2), prog(0, 2)),
    ))
    tail0 = derived_parity_tail_set(s, 0, "odd")
    assert tail0.members_upto(10) == {0, 2, 4, 6, 8, 10}
    tail4 = derived_parity_tail_set(s, 4, "odd")
    assert tail4.is_empty
    even_tail = derived_parity_tail_set(s, 100, "even")
    assert even_tail.members_upto(7) == {1, 3, 5, 7}


def test_derived_tail_matches_bruteforce():
    for s in battery_2d(seed=303, count=60):
        for gamma in (0, 1, 3, 7):
            for parity in ("even", "odd"):
                derived = derived_parity_tail_set(s, gamma, parity)
                got = derived.members_upto(150)
                want = gamma_parity_members(s, gamma, parity, kmax=150, lmax=400)
                assert got == want, (s, gamma, parity)


# --- property tests -------------------------------------------------------------

term_strategy = st.one_of(
    st.integers(0, 10).map(one),
    st.tuples(st.integers(0, 10), st.integers(1, 8)).map(lambda p: prog(*p)),
)
support_strategy = st.lists(term_strategy, min_size=1, max_size=4).map(
    lambda ts: SupportSet1D.of(*ts)
)


@given(support=support_strategy)
@settings(max_examples=80, deadline=None)
def test_refusals_always_carry_sound_witnesses(support):
    ok, w = meets_every_progression(support)
    if not ok:
        assert w is not None
        assert oracle_witness_sound(support, w)
    else:
        assert w is None


@given(support=support_strategy, n=st.integers(1, 24), j=st.integers(0, 23))
@settings(max_examples=80, deadline=None)
def test_accepts_cover_small_classes(support, n, j):
    ok, _ = meets_every_progression(support)
    if ok:
        assert oracle_class_member(support, n, j % n) is not None


@given(support=support_strategy, extra=term_strategy)
@settings(max_examples=60, deadline=None)
def test_acceptance_is_monotone(support, extra):
    # adding terms can never turn acceptance into refusal
    ok_before, _ = meets_every_progression(support)
    if ok_before:
        bigger = SupportSet1D(support.terms + (extra,))
        ok_after, _ = meets_every_progression(bigger)
        assert ok_after


@given(support=support_strategy, hi=st.integers(0, 300))
@settings(max_examples=60, deadline=None)
def test_members_match_contains(support, hi):
    members = support.members_upto(hi)
    assert members == window_members(support, hi)
    for v in range(0, min(hi, 60) + 1):
        assert support.contains(v) == (v in members)


# --- section / membership coherence -------------------------------------------

def test_section_agrees_with_contains_on_grid():
    for support in battery_2d(seed=808, count=6):
        for k in range(0, 201):
            sec = support.section(k)
            for l in range(0, 201):
                assert sec.contains(l) == support.contains(k, l)


def test_transpose_swaps_axes():
    for support in battery_2d(seed=809, count=12):
        flipped = support.transpose()
        for k in range(0, 40):
            for l in range(0, 40):
                assert flipped.contains(l, k) == support.contains(k, l)


# --- tail-set stabilization beyond the bound ----------------------------------

def test_tail_sets_stabilize_past_bound():
    for support in battery_2d(seed=810, count=40):
        bound = stabilization_bound(support)
        for parity in ("even", "odd"):
            at_bound = derived_parity_tail_set(support, bound, parity)
            hi = 10 * bound + 200
            frozen = at_bound.members_upto(hi)
            for gamma in (bound + 1, bound + 3, bound + 17):
                later = derived_parity_tail_set(support, gamma, parity)
                assert later.members_upto(hi) == frozen
                assert later.terms == at_bound.terms


# --- monotonicity of the infinite-parity check ---------------------------------

@given(st.integers(min_value=0, max_value=50_000))
@settings(max_examples=60, deadline=None)
def test_has_infinitely_many_monotone_under_union(seed):
    supports = battery_1d(seed=seed % 9973, count=2)
    if len(supports) < 2:
        return
    small, extra = supports
    merged = SupportSet1D(small.terms + extra.terms)
    for parity in ("even", "odd"):
        if has_infinitely_many(small, parity):
            assert has_infinitely_many(merged, parity)
