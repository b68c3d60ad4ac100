"""Coverage without a divisor walk, exact class avoidance and the witness search.

A covered set is proved in one scan; the exact avoidance check must agree
with a brute scan that reaches far past every period of the support; and the
witness search must stay fast and bounded however many singletons the missed
class holds.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import oracle_witness_sound
from spdkernels import (
    KernelSpec,
    NotApplicableError,
    ProgressionWitness,
    SupportSet1D,
    SupportSet2D,
    circle_space,
    geometric_scheme,
    meets_every_progression,
    one,
    prog,
    witness_avoids_window,
    witness_progression_circle,
)
from spdkernels.certify import _loop_tail_set
from spdkernels.supportsets import MAX_WITNESS_WORK
from test_window_equivalence import reference_meets_every_progression, wide_term


# --- coverage and the loop's tail set ------------------------------------------------------

def test_singletons_past_int64_stay_exact():
    big = 10**30
    support = SupportSet2D(((prog(0, 2), prog(0, 1)), (one(big + 1), prog(0, 1)), (one(big + 3), prog(0, 1))))
    freq, ok, witness = _loop_tail_set(support, 0, "any")
    assert freq.singletons() == [big + 1, big + 3]
    assert not ok and witness_avoids_window(freq, witness)
    # 10^30 + 1 = 1 mod 10 and its negative 9 mod 10 both meet the set
    assert not witness_avoids_window(freq, ProgressionWitness(10, 1))
    assert not witness_avoids_window(freq, ProgressionWitness(10, 9))
    assert witness_avoids_window(freq, ProgressionWitness(10, 5))


def test_coverage_is_proved_without_listing_divisors(monkeypatch, caplog):
    import spdkernels.supportsets as supportsets_mod

    def refuse(n):
        raise AssertionError(f"divisors of {n} listed for a covered set")

    monkeypatch.setattr(supportsets_mod, "_divisors", refuse)
    # steps 3 and 4: 0 and 1 mod 3 with their negatives cover every class mod 12
    terms = SupportSet1D((prog(0, 3), prog(1, 3), prog(2, 4)))
    with caplog.at_level("DEBUG", logger="spdkernels.supportsets"):
        assert meets_every_progression(terms) == (True, None)
    assert [r.getMessage() for r in caplog.records] == ["step lcm 12: every class covered in one scan"]


# --- exact class avoidance ----------------------------------------------------------------

def test_avoidance_sees_members_past_any_window():
    # prog(20002, 4) fills 2 mod 4 from 20002 on
    assert not witness_avoids_window(SupportSet1D((prog(0, 4), prog(20002, 4))), ProgressionWitness(4, 2))
    assert witness_avoids_window(SupportSet1D((prog(0, 4),)), ProgressionWitness(4, 2))
    assert not witness_avoids_window(SupportSet1D((one(10**30 + 1),)), ProgressionWitness(2, 1))


def test_progression_witness_refuses_a_class_hit_far_out():
    support = SupportSet1D((prog(0, 2), one(20001)))
    spec = KernelSpec(circle_space(), support, geometric_scheme(), (40, 0))
    with pytest.raises(NotApplicableError, match="class 1 mod 2 is hit by the declared support"):
        witness_progression_circle(spec, ProgressionWitness(2, 1))


@given(
    support=st.lists(wide_term, min_size=1, max_size=5).map(lambda ts: SupportSet1D(tuple(ts))),
    n=st.integers(1, 40),
    j=st.integers(0, 39),
)
@settings(max_examples=200, deadline=None)
def test_exact_avoidance_matches_a_brute_scan(support, n, j):
    # members reach every class they ever reach below 60 + 12 * 40, far
    # inside the scan of [-10^4, 10^4]
    witness = ProgressionWitness(n, j % n)
    assert witness_avoids_window(support, witness) == oracle_witness_sound(support, witness)


# --- the witness search -------------------------------------------------------------------

def odd_singletons_beside_evens(below):
    return SupportSet1D((prog(0, 2),) + tuple(one(v) for v in range(1, below, 2)))


@given(
    steps=st.lists(st.tuples(st.integers(0, 8), st.integers(1, 6)), min_size=1, max_size=2),
    singles=st.sets(st.integers(0, 80), max_size=60),
)
@settings(max_examples=150, deadline=None)
def test_witness_search_matches_the_reference_on_dense_singletons(steps, singles):
    # dense singletons make long runs of banned classes, which the search
    # skips without a trial
    support = SupportSet1D(tuple(prog(*s) for s in steps) + tuple(one(v) for v in sorted(singles)))
    assert meets_every_progression(support) == reference_meets_every_progression(support)


def test_witness_search_is_not_quadratic_in_python():
    support = odd_singletons_beside_evens(4000)
    meets_every_progression(odd_singletons_beside_evens(100))
    start = time.perf_counter()
    result = meets_every_progression(support)
    elapsed = time.perf_counter() - start
    assert result == (False, ProgressionWitness(8002, 4001))
    assert elapsed < 0.1


def _witness_trials(monkeypatch):
    """The factors p the witness search tries, in order: each trial
    allocates its ``banned`` flags with ``np.zeros(p, dtype=bool)``."""
    import spdkernels.supportsets as supportsets_mod

    trials = []

    class CountingNumpy:
        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def zeros(shape, dtype=float):
            if dtype is bool:
                trials.append(shape)
            return np.zeros(shape, dtype=dtype)

    monkeypatch.setattr(supportsets_mod, "np", CountingNumpy())
    return trials


def test_witness_search_past_the_work_limit_is_refused_at_once(monkeypatch):
    # 1, 3, ..., 9999 and their negatives ban q = -5000..4999, one run of
    # 10000, so every factor up to 10000 is ruled out before any trial
    assert 10_001 * 10_000 > MAX_WITNESS_WORK >= 9_999 * 9_998
    trials = _witness_trials(monkeypatch)
    support = odd_singletons_beside_evens(10_000)
    with pytest.raises(
        NotApplicableError,
        match=f"witness search at factor 10001 over 10000 singleton classes is past the limit of {MAX_WITNESS_WORK} steps",
    ):
        meets_every_progression(support)
    assert trials == []
    # one odd singleton fewer and the first trial fits the budget
    assert meets_every_progression(odd_singletons_beside_evens(9_998)) == (False, ProgressionWitness(19_998, 9_999))
    assert trials == [9_999]


def test_many_singletons_in_the_class_can_leave_a_small_factor():
    # every v = 1 mod 12 is 1 mod 6 and every -v is 5 mod 6, so 3 mod 6 is
    # free however many of them the missed class 1 mod 2 holds
    support = SupportSet1D((prog(0, 2),) + tuple(one(1 + 12 * k) for k in range(20_000)))
    start = time.perf_counter()
    assert meets_every_progression(support) == (False, ProgressionWitness(6, 3))
    assert time.perf_counter() - start < 0.1


def test_witness_search_without_a_long_run_stops_at_the_work_limit():
    # 1 + 4k and their negatives ban the even q = 0, 2, ... and the odd
    # q = -1, -3, ...: no run past 2, yet every odd factor up to about the
    # count is covered, so the search tries factors until p * 14200 passes
    # the budget
    support = SupportSet1D((prog(0, 2),) + tuple(one(1 + 4 * k) for k in range(7_100)))
    start = time.perf_counter()
    with pytest.raises(
        NotApplicableError,
        match=f"witness search at factor 7043 over 14200 singleton classes is past the limit of {MAX_WITNESS_WORK} steps",
    ):
        meets_every_progression(support)
    assert time.perf_counter() - start < 2.0
    support = SupportSet1D((prog(0, 2),) + tuple(one(1 + 4 * k) for k in range(1_000)))
    ok, witness = meets_every_progression(support)
    assert (ok, witness) == (False, ProgressionWitness(2670, 1331))
    assert witness_avoids_window(support, witness)


def test_singletons_outside_the_missed_class_cost_nothing():
    # even singletons cannot fall in 1 mod 2, so they never ban a class
    support = SupportSet1D((prog(0, 2),) + tuple(one(v) for v in range(0, 40_000, 2)))
    assert meets_every_progression(support) == (False, ProgressionWitness(2, 1))


def test_witness_search_takes_integers_past_int64():
    big = 10**30
    for count in (3, 100):
        support = SupportSet1D((prog(0, 2),) + tuple(one(big + 2 * i + 1) for i in range(count)))
        ok, witness = meets_every_progression(support)
        assert not ok and witness.modulus % 2 == 0
        assert witness_avoids_window(support, witness)
