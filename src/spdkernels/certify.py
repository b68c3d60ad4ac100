"""Exact certifiers for strict positive definiteness on declared supports.

Each certifier turns one characterization into a decision on the symbolic
coefficient support:

* circle: the symmetrized frequency set must meet every residue class of
  every modulus;
* sphere (m >= 2): the degree set must hold infinitely many even and
  infinitely many odd members;
* circle x sphere: for every tail cutoff gamma and each parity, the set of
  circle frequencies whose section holds a degree >= gamma of that parity
  must meet every residue class.  Two implementations are kept: one derives
  the frequency sets term by term (``certify_circle_sphere``); the other
  (``certify_circle_sphere_gamma_loop``) keeps the k-terms whose l-term
  lists a member >= gamma of the parity and hands them to the circle
  certifier.  Its per-term tail predicate, decided by listing members, is
  coded apart from the first route's;
* circle x projective space: the derived tail sets, with parity "any";
* sphere x sphere: each of the four parity quadrants must hold one support
  term with infinitely many members of the quadrant's parities on both axes;
* ``sufficient_product``: the one-axis-at-a-time sufficient test.  It can
  return SufficientOnly or Inconclusive but never refutes.

The sweep over gamma visits checkpoints only: 0, v + 1 for each l-singleton
v, and the stabilization bound (1 + the largest l-singleton), or
``gamma_max`` when that is larger.  A tail set changes only where a singleton
drops out, so one check per checkpoint decides every gamma up to the next
one, and past the bound no derived set changes.  The cost follows the number
of distinct l-singletons, not their size.

The sufficient tests read the classes mod the lcm P of the outer steps: past
the largest outer base, the row of an outer value depends only on its class
mod P, so each reads P classes, plus the rows at the outer singletons when no
class qualifies, and nothing reads the size of the bases.  The circle-outer
row predicate is the AND of two ORs over terms; the sphere-outer one, meeting
every residue class, is no union over terms, so the circle certifier runs
once per distinct membership pattern of the classes.  Both outer tests then
read the flags of the classes alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np

from .errors import NotApplicableError
from .kernels import SpaceDescriptor
from .supportsets import (
    Parity,
    ProgressionWitness,
    SupportSet1D,
    SupportSet2D,
    Term1D,
    _step_lcm,
    derived_parity_tail_set,
    has_infinitely_many,
    meets_every_progression,
    stabilization_bound,
    term_has_infinite_parity,
    term_has_parity_member,
)

__all__ = [
    "Verdict",
    "TraceEntry",
    "ParityDeficit",
    "QuadrantDeficit",
    "GammaFailure",
    "Certificate",
    "certify_circle",
    "certify_sphere",
    "certify_circle_sphere",
    "certify_circle_sphere_gamma_loop",
    "certify_circle_tph",
    "sufficient_product",
    "certify_two_spheres",
]


logger = logging.getLogger(__name__)


class Verdict(str, Enum):
    SPD = "SPD"
    NOT_SPD = "NotSPD"
    SUFFICIENT_ONLY = "SufficientOnly"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class TraceEntry:
    """One checked condition.  In a gamma sweep, ``gamma`` is a checkpoint and
    the entry covers every gamma from it up to the next checkpoint."""

    condition: str
    outcome: bool
    gamma: Optional[int] = None


@dataclass(frozen=True)
class ParityDeficit:
    """Only finitely many support members of this parity exist."""

    parity: str


@dataclass(frozen=True)
class QuadrantDeficit:
    """A parity quadrant with no term unbounded on both axes.

    ``axis`` names the bounded projection ("k" or "l"), or is "joint" when
    both projections are unbounded but through different terms.
    """

    k_parity: str
    l_parity: str
    axis: str


@dataclass(frozen=True)
class GammaFailure:
    """A tail cutoff and parity at which the derived frequency set fails."""

    gamma: int
    parity: str
    witness: Optional[ProgressionWitness]
    empty: bool = False


Counterexample = Union[ProgressionWitness, ParityDeficit, QuadrantDeficit, GammaFailure]


@dataclass(frozen=True)
class Certificate:
    """Outcome of a certifier run over a declared symbolic support."""

    space: str
    verdict: Verdict
    method: str
    trace: tuple[TraceEntry, ...] = ()
    counterexample: Optional[Counterexample] = None


def _check_dim(m: int, name: str = "m") -> None:
    if m < 2:
        raise ValueError(f"invalid dimension {name}={m}: need {name} >= 2")


def certify_circle(support: SupportSet1D) -> Certificate:
    """Strict positive definiteness on the circle: +/-S meets every class."""
    ok, witness = meets_every_progression(support)
    trace = (TraceEntry("symmetrized frequency set meets every residue class", ok),)
    if ok:
        return Certificate("circle", Verdict.SPD, "circle-residue-classes", trace)
    return Certificate("circle", Verdict.NOT_SPD, "circle-residue-classes", trace, witness)


def certify_sphere(support: SupportSet1D, m: int) -> Certificate:
    """Strict positive definiteness on S^m, m >= 2: infinitely many even and odd degrees."""
    _check_dim(m)
    trace = []
    for parity in ("even", "odd"):
        ok = has_infinitely_many(support, parity)
        trace.append(TraceEntry(f"infinitely many {parity} degrees", ok))
        if not ok:
            return Certificate(
                "sphere", Verdict.NOT_SPD, "sphere-parity-count", tuple(trace), ParityDeficit(parity)
            )
    return Certificate("sphere", Verdict.SPD, "sphere-parity-count", tuple(trace))


# (support, gamma, parity) -> (tail set, whether it meets every class, missed class)
TailCheck = Callable[
    [SupportSet2D, int, Parity], tuple[SupportSet1D, bool, Optional[ProgressionWitness]]
]

_LOOP_LABEL = "tail frequency set ({parity}) certifies on the circle"


def _gamma_upper(support: SupportSet2D, gamma_max: Optional[int]) -> int:
    upper = stabilization_bound(support)
    if gamma_max is not None:
        if gamma_max < 0:
            raise ValueError("gamma_max must be >= 0")
        upper = max(upper, gamma_max)
    return upper


def _sweep(
    support: SupportSet2D,
    space: str,
    method: str,
    parities: tuple[Parity, ...],
    gamma_max: Optional[int],
    tail_set: TailCheck,
    label: str,
) -> Certificate:
    """Run a tail-set check over the gamma checkpoints of the support.

    The checkpoints are 0, v + 1 for every l-singleton v, and the upper end of
    the sweep (the stabilization bound, or ``gamma_max`` past it).  A
    singleton drops out of the tail exactly when gamma passes its value and
    progressions contribute whatever gamma is, so each tail set is constant
    from one checkpoint up to the next: checking the checkpoint decides the
    whole interval, with the same witness.  The first failure met walking the
    checkpoints upwards (parities in the given order) is the first failing
    (gamma, parity) of the per-integer sweep.  Every v + 1 is at most the
    stabilization bound, so no checkpoint lies past the upper end.  Each trace
    entry covers gamma from its checkpoint up to the next one; ``label``
    formats its condition.
    """
    upper = _gamma_upper(support, gamma_max)
    dropouts = {lt.base + 1 for _, lt in support.terms if not lt.is_progression}
    trace = []
    for gamma in sorted({0, upper} | dropouts):
        for parity in parities:
            derived, ok, witness = tail_set(support, gamma, parity)
            trace.append(TraceEntry(label.format(parity=parity), ok, gamma))
            if not ok:
                return Certificate(
                    space,
                    Verdict.NOT_SPD,
                    method,
                    tuple(trace),
                    GammaFailure(gamma, parity, witness, empty=derived.is_empty),
                )
    return Certificate(space, Verdict.SPD, method, tuple(trace))


def certify_circle_sphere(
    support: SupportSet2D, m: int, gamma_max: Optional[int] = None
) -> Certificate:
    """Product characterization via term-by-term derived parity tail sets."""
    _check_dim(m)
    return _sweep(
        support, "circle_sphere", "product-parity-tail-sets", ("odd", "even"), gamma_max,
        _derived_tail_set, "derived {parity} tail set meets every residue class",
    )


def _derived_tail_set(support: SupportSet2D, gamma: int, parity: Parity):
    """Tail check of the tail-set route: frequencies derived term by term."""
    derived = derived_parity_tail_set(support, gamma, parity)
    ok, witness = meets_every_progression(derived)
    return derived, ok, witness


def _first_tail_member(term: Term1D, gamma: int) -> int:
    if not term.is_progression:
        return term.base
    if term.base >= gamma:
        return term.base
    steps = (gamma - term.base + term.step - 1) // term.step
    return term.base + steps * term.step


def _section_terms_have_tail(term: Term1D, gamma: int, parity: Parity) -> bool:
    """Does the l-term hold a member >= gamma of the parity?

    Decided by listing explicit members: for a progression the first two
    members at or past gamma settle every parity case (consecutive members
    either alternate parity or all share the base's).  Parity "any" serves
    the tests alone, as the loop that ``certify_circle_tph`` must match.
    """
    wanted = {"any": (0, 1), "even": (0,), "odd": (1,)}[parity]
    if term.is_progression:
        start = _first_tail_member(term, gamma)
        return start % 2 in wanted or (start + term.step) % 2 in wanted
    return term.base >= gamma and term.base % 2 in wanted


# Membership bits per int64 code word, clear of the sign bit.  Re-labelled
# codes stay below MAX_PERIOD ** 2, far inside int64 too.
_CODE_BITS = 62


def _membership_codes(slices: list[tuple[int, int]], length: int) -> np.ndarray:
    """One code per integer of [0, length): two integers share a code exactly
    when the same slices contain them.

    Each (start, step) slice sets its bit along ``start::step``; past
    _CODE_BITS slices the codes of each word of bits are re-labelled and
    combined.
    """
    codes = np.zeros(length, dtype=np.int64)
    for lo in range(0, len(slices), _CODE_BITS):
        word = np.zeros(length, dtype=np.int64)
        for bit, (start, step) in enumerate(slices[lo : lo + _CODE_BITS]):
            word[start::step] |= 1 << bit
        if lo:
            word = (
                np.unique(codes, return_inverse=True)[1] * length
                + np.unique(word, return_inverse=True)[1]
            )
        codes = word
    return codes


def _loop_tail_set(support: SupportSet2D, gamma: int, parity: Parity):
    """Tail check of the gamma-loop route: the k-terms whose l-term lists a
    tail member of the parity, decided by the circle certifier."""
    freq = SupportSet1D(
        tuple(kt for kt, lt in support.terms if _section_terms_have_tail(lt, gamma, parity))
    )
    sub = certify_circle(freq)
    return freq, sub.verdict is Verdict.SPD, sub.counterexample


def certify_circle_sphere_gamma_loop(
    support: SupportSet2D, m: int, gamma_max: Optional[int] = None
) -> Certificate:
    """Product characterization re-derived term by term: each tail frequency
    set holds the k-terms whose l-term lists a tail member of the parity
    (``_section_terms_have_tail``).

    That per-term tail predicate is coded apart from the one of
    ``certify_circle_sphere``, so the two can be cross-checked against each
    other.
    """
    _check_dim(m)
    return _sweep(
        support, "circle_sphere", "product-gamma-loop", ("odd", "even"), gamma_max,
        _loop_tail_set, _LOOP_LABEL,
    )


def certify_circle_tph(
    support: SupportSet2D, space: SpaceDescriptor, gamma_max: Optional[int] = None
) -> Certificate:
    """Circle x projective space: the derived tail sets, with parity "any"."""
    if space._axes[1] != "tph":
        raise NotApplicableError(
            f"wrong certifier for space kind {space.kind!r}; "
            "spheres keep the parity split, use the circle_sphere certifiers"
        )
    return _sweep(
        support, "circle_tph", "tph-tail-sets", ("any",), gamma_max,
        _derived_tail_set, _LOOP_LABEL,
    )


def _qualifying_set(support: SupportSet2D, axis: str) -> tuple[np.ndarray, bool]:
    """The outer values whose inner set certifies, as one flag per class mod
    the lcm P of the outer steps, and whether there are none.

    circle-outer: the frequencies whose section holds infinitely many even and
    infinitely many odd degrees, an AND of two unions of slices.  sphere-outer:
    the degrees whose row meets every residue class, decided once per
    membership pattern.  Past B = 1 + the largest outer base, the row of v
    holds the inner terms of the outer progressions whose slice
    ``base % step :: step`` holds v mod P.  So past B the qualifying set is
    the progressions of step P from the flagged classes, and below B it
    holds finitely many values, which decide neither outer test.  A row below
    B holds at most its class's progressions and the singletons at its value,
    and both predicates only gain from more terms, so when no class
    qualifies only the row of a singleton's value can.  A P past ``MAX_PERIOD`` raises
    ``NotApplicableError`` before anything is allocated.
    """
    outer = support if axis == "circle-outer" else support.transpose()
    slices = [(kt.base % kt.step, kt.step, lt) for kt, lt in outer.terms if kt.is_progression]
    period = _step_lcm(step for _, step, _ in slices)
    if axis == "circle-outer":

        def row_ok(row: list[Term1D]) -> bool:
            return all(any(term_has_infinite_parity(t, p) for t in row) for p in ("even", "odd"))

        flags = np.ones(period, dtype=bool)
        for parity in ("even", "odd"):
            union = np.zeros(period, dtype=bool)
            for start, step, lt in slices:
                if term_has_infinite_parity(lt, parity):
                    union[start::step] = True
            flags &= union
        detail = "two unions of slices"
    else:

        def row_ok(row: list[Term1D]) -> bool:
            return certify_circle(SupportSet1D(tuple(row))).verdict is Verdict.SPD

        codes = _membership_codes([(start, step) for start, step, _ in slices], period)
        _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        outcomes = [row_ok([lt for a, n, lt in slices if c % n == a]) for c in first.tolist()]
        flags = np.array(outcomes, dtype=bool)[inverse]
        detail = f"{len(outcomes)} membership patterns"
    empty, checked = not flags.any(), 0
    if empty:
        for v in sorted({kt.base for kt, _ in outer.terms if not kt.is_progression}):
            checked += 1
            if row_ok([lt for kt, lt in outer.terms if kt.contains(v)]):
                empty = False
                break
    logger.debug(
        "classes mod %d past bound %d: %d qualify (%s), %d singleton rows checked",
        period, 1 + max((kt.base for kt, _ in outer.terms), default=0),
        np.count_nonzero(flags), detail, checked,
    )
    return flags, empty


def sufficient_product(support: SupportSet2D, m: int, axis: str) -> Certificate:
    """One-axis-at-a-time sufficient test; never refutes.

    circle-outer: collect the frequencies whose section certifies on S^m and
    test that set on the circle.  sphere-outer: dually, collect the degrees
    whose row certifies on the circle and test the parity count.  SufficientOnly
    when the outer test passes, Inconclusive otherwise.

    Both outer tests read the flags of ``_qualifying_set``'s classes mod P,
    whose progressions of step P make up the qualifying set's.  The circle
    test passes when the flagged classes and their negatives cover every
    class mod P; the sphere test when a flagged class of each parity exists,
    or any flagged class when P is odd, since each class of an odd modulus
    holds both parities.
    """
    _check_dim(m)
    if axis not in ("circle-outer", "sphere-outer"):
        raise ValueError(f"axis must be 'circle-outer' or 'sphere-outer', got {axis!r}")

    flags, empty = _qualifying_set(support, axis)
    if axis == "circle-outer":
        # the flag of -c mod P at c: the flags reversed, then rolled by one
        passes = bool((flags | np.roll(flags[::-1], 1)).all())
        method = "sufficient-circle-outer"
        inner_desc = "sections certify on the sphere"
    else:
        if flags.size % 2:
            passes = bool(flags.any())
        else:
            passes = bool(flags[0::2].any() and flags[1::2].any())
        method = "sufficient-sphere-outer"
        inner_desc = "rows certify on the circle"
    trace = (
        TraceEntry(f"qualifying set where {inner_desc}", not empty),
        TraceEntry("qualifying set passes the outer test", passes),
    )
    verdict = Verdict.SUFFICIENT_ONLY if passes else Verdict.INCONCLUSIVE
    return Certificate("circle_sphere", verdict, method, trace)


def certify_two_spheres(support: SupportSet2D, m: int, big_m: int) -> Certificate:
    """S^m x S^M characterization over the four parity quadrants.

    A quadrant passes when one support term holds infinitely many members of
    the quadrant's parities on both axes, so that the support restricted to
    the quadrant holds a sequence with both coordinates going to infinity.
    Unbounded projections supplied by different terms are not enough: signed
    point sets that cancel the low degrees on each axis null such a form.
    A failing quadrant reports the bounded projection, or ``axis="joint"``
    when both projections are unbounded but no single term supplies both.
    """
    _check_dim(m)
    _check_dim(big_m, "M")
    trace = [TraceEntry("a single term has both projections unbounded in the quadrant", True)]
    for k_parity in ("even", "odd"):
        for l_parity in ("even", "odd"):
            joint = any(
                term_has_infinite_parity(kt, k_parity) and term_has_infinite_parity(lt, l_parity)
                for kt, lt in support.terms
            )
            trace.append(
                TraceEntry(
                    f"quadrant ({k_parity} k, {l_parity} l) has a term unbounded on both axes",
                    joint,
                )
            )
            if not joint:
                return Certificate(
                    "sphere_sphere",
                    Verdict.NOT_SPD,
                    "two-spheres-quadrants",
                    tuple(trace),
                    QuadrantDeficit(k_parity, l_parity, _bounded_axis(support, k_parity, l_parity)),
                )
    return Certificate("sphere_sphere", Verdict.SPD, "two-spheres-quadrants", tuple(trace))


def _bounded_axis(support: SupportSet2D, k_parity: Parity, l_parity: Parity) -> str:
    """Which projection of a failing quadrant stays bounded: "k", "l", or
    "joint" when both are unbounded through different terms."""
    k_unbounded = any(
        term_has_parity_member(lt, l_parity) and term_has_infinite_parity(kt, k_parity)
        for kt, lt in support.terms
    )
    if not k_unbounded:
        return "k"
    l_unbounded = any(
        term_has_parity_member(kt, k_parity) and term_has_infinite_parity(lt, l_parity)
        for kt, lt in support.terms
    )
    return "joint" if l_unbounded else "l"
