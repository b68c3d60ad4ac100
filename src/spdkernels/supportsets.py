"""Symbolic subsets of the nonnegative integers and their decision procedures.

A set is a finite union of terms, each a singleton {v} or a full arithmetic
progression {a, a + n, a + 2n, ...}.  Two-axis sets are finite unions of
products of such terms.  These are exactly the coefficient supports the
certifiers reason about, and all questions asked of them (membership of a
residue class, parity counting, tail extraction) are decided exactly with
integer arithmetic.

The central operation is ``meets_every_progression``: does the symmetrized
set +/-S intersect every residue class j mod n for every modulus n >= 1?
The members of {a + kn : k >= 0} modulo M are precisely the class of a
modulo gcd(n, M), each hit infinitely often, so coverage mod the lcm L of
the steps is coverage mod every n, and one O(L) scan proves it.  When that
scan misses a class, an ascending walk over the divisors of L names the least
missed one, and a concrete missed class is produced and checked exactly
against every term before being returned.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from math import gcd, lcm
from typing import Literal, Optional

import numpy as np

from .errors import NotApplicableError

__all__ = [
    "MAX_PERIOD",
    "MAX_WITNESS_WORK",
    "Parity",
    "Term1D",
    "one",
    "prog",
    "SupportSet1D",
    "SupportSet2D",
    "ProgressionWitness",
    "has_infinitely_many",
    "derived_parity_tail_set",
    "stabilization_bound",
    "meets_every_progression",
    "witness_avoids_window",
    "term_has_parity_member",
    "term_has_infinite_parity",
]

logger = logging.getLogger(__name__)

Parity = Literal["even", "odd", "any"]

# The largest step lcm P a residue scan or class set may span: the bytearray
# of P bytes in ``meets_every_progression`` (and one of d bytes per divisor d
# of P walked to name a missed class), and the P classes that the sufficient
# tests read (a few bool flags or an int64 membership code per class).  Larger input is refused with
# ``NotApplicableError`` before anything is allocated.  At the limit a residue
# scan takes milliseconds on two cores; the workloads' step lcms stay near
# 1e4.
MAX_PERIOD = 200_000

# The most work the witness search may do: a trial factor p over m distinct
# banning values costs about p + m, and the search stops with
# ``NotApplicableError`` before a trial whose p * m is past this bound.  A run
# of r consecutive banning values rules out every p <= r at once, so a
# support whose least p is large for that reason alone is refused before the
# first trial.  One stopped after its trials takes tenths of a second: 0.27 s
# for the singletons 1 + 4k, k < 7100, beside prog(0, 2), on two cores.
MAX_WITNESS_WORK = 10**8


def _check_parity(parity: str) -> None:
    if parity not in ("even", "odd", "any"):
        raise ValueError(f"parity must be 'even', 'odd' or 'any', got {parity!r}")


@dataclass(frozen=True)
class Term1D:
    """A singleton {base} (step == 0) or the progression {base, base+step, ...}."""

    base: int
    step: int

    def __post_init__(self) -> None:
        if not isinstance(self.base, int) or not isinstance(self.step, int):
            raise ValueError("term base and step must be integers")
        if self.base < 0:
            raise ValueError(f"term base must be >= 0, got {self.base}")
        if self.step < 0:
            raise ValueError(f"term step must be >= 0, got {self.step}")

    @property
    def is_progression(self) -> bool:
        return self.step >= 1

    def contains(self, v: int) -> bool:
        if not self.is_progression:
            return v == self.base
        return v >= self.base and (v - self.base) % self.step == 0


def one(value: int) -> Term1D:
    """Singleton term {value}."""
    return Term1D(value, 0)


def prog(base: int, step: int) -> Term1D:
    """Progression term {base, base + step, base + 2*step, ...}, step >= 1."""
    if step < 1:
        raise ValueError(f"progression step must be >= 1, got {step}")
    return Term1D(base, step)


@dataclass(frozen=True)
class SupportSet1D:
    """Union of Term1D over one index axis."""

    terms: tuple[Term1D, ...] = ()

    def __post_init__(self) -> None:
        if not all(isinstance(t, Term1D) for t in self.terms):
            raise ValueError("SupportSet1D takes Term1D members")

    @property
    def is_empty(self) -> bool:
        return not self.terms

    def singletons(self) -> list[int]:
        return [t.base for t in self.terms if not t.is_progression]


@dataclass(frozen=True)
class SupportSet2D:
    """Union of products (k-term) x (l-term) over two index axes."""

    terms: tuple[tuple[Term1D, Term1D], ...] = ()

    def __post_init__(self) -> None:
        for pair in self.terms:
            if len(pair) != 2 or not all(isinstance(t, Term1D) for t in pair):
                raise ValueError("SupportSet2D takes (Term1D, Term1D) pairs")

    def transpose(self) -> "SupportSet2D":
        return SupportSet2D(tuple((lt, kt) for kt, lt in self.terms))

    def k_terms(self) -> list[Term1D]:
        return [kt for kt, _ in self.terms]

    def l_terms(self) -> list[Term1D]:
        return [lt for _, lt in self.terms]


@dataclass(frozen=True)
class ProgressionWitness:
    """A residue class (modulus, residue) entirely missed by the symmetrized set."""

    modulus: int
    residue: int

    def __post_init__(self) -> None:
        if self.modulus < 1:
            raise ValueError("witness modulus must be >= 1")
        if not 0 <= self.residue < self.modulus:
            raise ValueError("witness residue must lie in [0, modulus)")


def term_has_parity_member(term: Term1D, parity: Parity) -> bool:
    """Does the term contain at least one member of the given parity?"""
    _check_parity(parity)
    if parity == "any":
        return True
    want_even = parity == "even"
    if not term.is_progression:
        return (term.base % 2 == 0) == want_even
    if term.step % 2 == 1:
        return True  # consecutive members alternate parity
    return (term.base % 2 == 0) == want_even


def term_has_infinite_parity(term: Term1D, parity: Parity) -> bool:
    """Does the term contain infinitely many members of the given parity?"""
    _check_parity(parity)
    if not term.is_progression:
        return False
    return term_has_parity_member(term, parity)


def has_infinitely_many(support: SupportSet1D, parity: Parity) -> bool:
    """Whether the union holds infinitely many members of the parity class.

    Singletons never contribute; an odd-step progression meets both parity
    classes infinitely often, an even-step one stays in the class of its base.
    """
    return any(term_has_infinite_parity(t, parity) for t in support.terms)


def _term_contributes_tail(lt: Term1D, gamma: int, parity: Parity) -> bool:
    # A progression contributes independently of gamma: if it has any member
    # of the parity it has unboundedly many.  Singletons must clear gamma.
    if lt.is_progression:
        return term_has_infinite_parity(lt, parity)
    if lt.base < gamma:
        return False
    return parity == "any" or term_has_parity_member(lt, parity)


def stabilization_bound(support: SupportSet2D) -> int:
    """1 + the largest l-axis singleton value (0 when there is none).

    Beyond this bound the derived tail sets no longer depend on gamma, since
    progressions contribute gamma-independently and every singleton has
    dropped out.
    """
    singles = [lt.base for _, lt in support.terms if not lt.is_progression]
    return 1 + max(singles) if singles else 0


def derived_parity_tail_set(support: SupportSet2D, gamma: int, parity: Parity) -> SupportSet1D:
    """Circle frequencies whose section holds an l >= gamma of the parity.

    Past ``stabilization_bound(support)`` the set no longer depends on gamma.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    _check_parity(parity)
    kept = tuple(
        kt for kt, lt in support.terms if _term_contributes_tail(lt, gamma, parity)
    )
    return SupportSet1D(kept)


def _step_lcm(steps) -> int:
    """The lcm of the steps, 1 when there are none.  One past ``MAX_PERIOD``
    raises ``NotApplicableError``, before any class of it is allocated."""
    period = lcm(*steps)
    if period > MAX_PERIOD:
        raise NotApplicableError(f"step lcm {period} is past the limit of {MAX_PERIOD}")
    return period


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def _first_uncovered(steps: dict[int, set[int]], d: int) -> int:
    """The least residue mod d missed by every symmetrized progression, or -1.

    ``steps`` maps each step n to the residues +/-base mod n of its
    progressions.  Such a progression covers the classes mod d of its
    residue mod g = gcd(n, d), so each distinct residue mod g marks one slice
    of ``covered``.
    """
    covered = bytearray(d)
    ones = memoryview(b"\x01" * d)
    for step, residues in steps.items():
        g = gcd(step, d)
        if g == 1:
            return -1
        if g < step:
            residues = {r % g for r in residues}
        if len(residues) == g:
            return -1
        for r in residues:
            covered[r::g] = ones[: (d - 1 - r) // g + 1]
    return covered.find(0)


def witness_avoids_window(support: SupportSet1D, witness: ProgressionWitness) -> bool:
    """Whether no member of +/-S lies in the class j mod n, decided exactly.

    A progression {a, a + s, ...} meets +/-j mod n iff a = +/-j mod gcd(s, n);
    a singleton v iff v = +/-j mod n.
    """
    n, j = witness.modulus, witness.residue
    for t in support.terms:
        g = gcd(t.step, n) if t.step else n
        if (t.base - j) % g == 0 or (t.base + j) % g == 0:
            return False
    return True


def _search_witness(support: SupportSet1D, lcm_steps: int, d: int, j0: int) -> ProgressionWitness:
    """Grow the modulus n = d * p (p coprime to the step lcm) until some class
    j = j0 + t * d mod n also avoids every singleton: the least such p, then
    the least t.

    No progression meets such a class: p is coprime to every step s, so
    gcd(s, n) = gcd(s, d), and j0 mod d is a class they all miss.  Only a
    singleton v = +/-j0 mod d can fall in it, so those are filtered once, and
    each p marks the t they ban in one numpy assignment.  A trial whose
    p * (distinct banning values) is past ``MAX_WITNESS_WORK`` raises
    ``NotApplicableError``.
    """
    near = [v for v in support.singletons() if v % d == j0 or -v % d == j0]
    # v = j0 + d * q (or -v = j0 + d * q) falls in the class j0 + t * d mod
    # d * p exactly when t = q mod p
    q = sorted({v // d for v in near if v % d == j0} | {-v // d for v in near if -v % d == j0})
    # r consecutive values of q ban every t of each p <= r; in sorted distinct
    # values, x - (its index) is constant along a run and nowhere else
    run = max(Counter(x - i for i, x in enumerate(q)).values(), default=0)
    try:
        q = np.array(q, dtype=np.int64)
    except OverflowError:  # values past int64 stay Python ints
        q = np.array(q, dtype=object)
    # any p > q.size bans fewer than p classes, and every lcm_steps
    # consecutive integers hold one coprime to lcm_steps
    for p in range(run + 1, q.size + lcm_steps + 2):
        if gcd(p, lcm_steps) != 1:
            continue
        if p * q.size > MAX_WITNESS_WORK:
            raise NotApplicableError(
                f"witness search at factor {p} over {q.size} singleton classes "
                f"is past the limit of {MAX_WITNESS_WORK} steps"
            )
        banned = np.zeros(p, dtype=bool)
        # q mod p; numpy divides by a scalar faster than it takes a remainder
        banned[(q - q // p * p).astype(np.intp, copy=False)] = True
        t = int(banned.argmin())
        if not banned[t]:
            return ProgressionWitness(d * p, j0 + t * d)
    raise RuntimeError("witness search exhausted its bound; this should be unreachable")


def meets_every_progression(support: SupportSet1D) -> tuple[bool, Optional[ProgressionWitness]]:
    """Decide whether +/-S meets every residue class of every modulus.

    Coverage by the progressions of a class mod n only depends on its class
    mod gcd(n, L), L the step lcm, so one scan mod L that misses no class
    proves SPD.  A scan that misses one walks the divisors of L in ascending
    order to the least missed class.  Singletons cover finitely many classes
    per modulus and therefore never rescue a missed class; they only
    constrain the returned witness, which is checked exactly against the
    support before being emitted.  A support with no progressions always
    fails.  An L past ``MAX_PERIOD`` raises ``NotApplicableError`` before
    anything is allocated.
    """
    steps: dict[int, set[int]] = {}
    for t in support.terms:
        if t.step:
            steps.setdefault(t.step, set()).update((t.base % t.step, -t.base % t.step))
    lcm_steps = _step_lcm(steps)
    if _first_uncovered(steps, lcm_steps) < 0:
        logger.debug("step lcm %d: every class covered in one scan", lcm_steps)
        return True, None
    # the walk ends at L at the latest, whose scan just missed a class
    divisors = _divisors(lcm_steps)
    for examined, d in enumerate(divisors, 1):
        j0 = _first_uncovered(steps, d)
        if j0 >= 0:
            break
    logger.debug(
        "step lcm %d: class %d mod %d missed, %d of %d divisors examined",
        lcm_steps, j0, d, examined, len(divisors),
    )
    witness = _search_witness(support, lcm_steps, d, j0)
    if not witness_avoids_window(support, witness):
        raise AssertionError(f"class {witness.residue} mod {witness.modulus} meets the support")
    return False, witness
