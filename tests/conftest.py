"""Shared fixtures: fixed support batteries and independent oracle helpers.

The oracles here re-derive expected answers from first principles (window
scans over integer ranges, modular arithmetic) without touching the
library's own decision procedures, so the tests cross-examine rather than
echo the implementation.
"""

import math

import numpy as np
import pytest

from spdkernels import SupportSet1D, SupportSet2D, circle_table, one, prog

WINDOW = 10_000


# ---------------------------------------------------------------------------
# fixed battery: product supports that satisfy the full characterization
# ---------------------------------------------------------------------------

SPD_PRODUCT_SUPPORTS = [
    # everything
    SupportSet2D(((prog(0, 1), prog(0, 1)),)),
    # parity grid: all four (k parity, l parity) blocks
    SupportSet2D((
        (prog(0, 2), prog(0, 2)),
        (prog(1, 2), prog(1, 2)),
        (prog(0, 2), prog(1, 2)),
        (prog(1, 2), prog(0, 2)),
    )),
    # full k-line against each l parity
    SupportSet2D(((prog(0, 1), prog(0, 2)), (prog(0, 1), prog(1, 2)))),
    # shifted residues mod 3 paired with both parities
    SupportSet2D((
        (prog(0, 3), prog(0, 2)), (prog(1, 3), prog(0, 2)), (prog(2, 3), prog(0, 2)),
        (prog(0, 3), prog(1, 2)), (prog(1, 3), prog(1, 2)), (prog(2, 3), prog(1, 2)),
    )),
    # coarse steps: +/- closure covers every class mod 5 with both l parities
    SupportSet2D((
        (prog(0, 5), prog(0, 2)), (prog(1, 5), prog(0, 2)), (prog(2, 5), prog(0, 2)),
        (prog(0, 5), prog(1, 2)), (prog(1, 5), prog(1, 2)), (prog(2, 5), prog(1, 2)),
    )),
    # mixed moduli on the circle axis
    SupportSet2D((
        (prog(0, 2), prog(0, 2)), (prog(1, 4), prog(0, 2)), (prog(3, 4), prog(0, 2)),
        (prog(0, 2), prog(1, 2)), (prog(1, 4), prog(1, 2)), (prog(3, 4), prog(1, 2)),
    )),
    # l-axis split across k-classes whose union still covers everything
    SupportSet2D((
        (prog(0, 2), prog(0, 4)), (prog(0, 2), prog(2, 4)),
        (prog(0, 2), prog(1, 4)), (prog(0, 2), prog(3, 4)),
        (prog(1, 2), prog(0, 2)), (prog(1, 2), prog(1, 2)),
    )),
    # singleton clutter on top of a complete core
    SupportSet2D((
        (prog(0, 1), prog(0, 2)), (prog(0, 1), prog(1, 2)),
        (one(3), one(0)), (one(7), one(5)),
    )),
    # both axes on step 3, +/- closure covering all classes, parities via step-3 pairs
    SupportSet2D((
        (prog(0, 3), prog(0, 3)), (prog(0, 3), prog(1, 3)), (prog(0, 3), prog(2, 3)),
        (prog(1, 3), prog(0, 3)), (prog(1, 3), prog(1, 3)), (prog(1, 3), prog(2, 3)),
    )),
    # step-6 cover: residues {0,1,2,3} and negatives give all of Z/6
    SupportSet2D((
        (prog(0, 6), prog(0, 2)), (prog(1, 6), prog(0, 2)),
        (prog(2, 6), prog(0, 2)), (prog(3, 6), prog(0, 2)),
        (prog(0, 6), prog(1, 2)), (prog(1, 6), prog(1, 2)),
        (prog(2, 6), prog(1, 2)), (prog(3, 6), prog(1, 2)),
    )),
    # variant with large bases: tails shift but classes persist
    SupportSet2D((
        (prog(9, 2), prog(8, 2)), (prog(10, 2), prog(9, 2)),
        (prog(9, 2), prog(9, 2)), (prog(10, 2), prog(8, 2)),
    )),
    # asymmetric steps 2 and 3 interleaved across parities
    SupportSet2D((
        (prog(0, 2), prog(0, 2)), (prog(1, 2), prog(0, 2)),
        (prog(0, 3), prog(1, 2)), (prog(1, 3), prog(1, 2)), (prog(2, 3), prog(1, 2)),
    )),
]

# product supports that already fail at gamma = 0, with the failing parity
NOT_SPD_PRODUCT_SUPPORTS_G0 = [
    # no odd l anywhere
    (SupportSet2D(((prog(0, 1), prog(0, 2)),)), "odd"),
    # no even l anywhere
    (SupportSet2D(((prog(0, 1), prog(1, 2)),)), "even"),
    # odd l exists only over even k
    (SupportSet2D(((prog(0, 1), prog(0, 2)), (prog(0, 2), prog(1, 2)))), "odd"),
    # even l exists only over k = 0 mod 3 (misses a class mod 6)
    (SupportSet2D(((prog(0, 1), prog(1, 2)), (prog(0, 3), prog(0, 2)))), "even"),
    # odd-l rows confined to a single residue 1 mod 4
    (SupportSet2D(((prog(0, 1), prog(0, 2)), (prog(1, 4), prog(1, 2)))), "odd"),
    # even-l rows are singletons only: finite set cannot cover
    (SupportSet2D(((prog(0, 1), prog(1, 2)), (one(2), prog(0, 2)), (one(5), prog(0, 2)))), "even"),
    # odd-l support misses class 2 mod 6 on the circle axis
    (SupportSet2D(((prog(0, 1), prog(0, 2)), (prog(0, 6), prog(1, 2)), (prog(1, 6), prog(1, 2)))), "odd"),
    # no odd l over any odd k and evens incomplete for odd tail
    (SupportSet2D(((prog(0, 2), prog(0, 1)), (prog(1, 2), prog(0, 2)))), "odd"),
    # empty odd tail built from even-only singleton l values
    (SupportSet2D(((prog(0, 1), one(0)), (prog(0, 1), one(2)), (prog(0, 1), one(4)))), "odd"),
    # even side only covers 0 mod 2 while odd side is full
    (SupportSet2D(((prog(0, 2), prog(0, 2)), (prog(0, 1), prog(1, 2)))), "even"),
    # odd-l columns stuck on k = 3 mod 5
    (SupportSet2D(((prog(0, 1), prog(0, 2)), (prog(3, 5), prog(1, 2)))), "odd"),
    # even tail lives on k multiples of 4 only
    (SupportSet2D(((prog(0, 4), prog(0, 2)), (prog(0, 1), prog(1, 2)))), "even"),
]

# supports that pass at gamma = 0 but fail once the cutoff removes singletons;
# entries are (support, expected gamma, expected parity)
LATE_FAILURES = [
    (
        SupportSet2D((
            (prog(0, 1), one(0)),
            (prog(0, 1), one(1)),
            (prog(0, 2), prog(2, 2)),
            (prog(0, 2), prog(3, 2)),
        )),
        1,
        "even",
    ),
    (
        SupportSet2D((
            (prog(0, 1), one(1)),
            (prog(0, 1), prog(0, 2)),
            (prog(0, 2), prog(1, 2)),
        )),
        2,
        "odd",
    ),
    (
        SupportSet2D((
            (prog(0, 1), one(2)),
            (prog(0, 1), prog(1, 2)),
            (prog(1, 2), prog(2, 2)),
        )),
        3,
        "even",
    ),
]

# SPD by the full test yet inconclusive for both one-axis sufficient tests
SPD_BUT_INCONCLUSIVE = [
    SupportSet2D((
        (prog(0, 3), prog(1, 4)),
        (prog(1, 3), prog(3, 4)),
        (prog(0, 3), prog(0, 4)),
        (prog(2, 3), prog(2, 4)),
    )),
    SupportSet2D((
        (prog(0, 5), prog(1, 4)),
        (prog(1, 5), prog(3, 4)),
        (prog(2, 5), prog(1, 4)),
        (prog(0, 5), prog(0, 4)),
        (prog(3, 5), prog(2, 4)),
        (prog(4, 5), prog(0, 4)),
    )),
    SupportSet2D((
        (prog(0, 3), prog(1, 4)),
        (prog(2, 3), prog(3, 4)),
        (prog(0, 3), prog(0, 4)),
        (prog(1, 3), prog(2, 4)),
    )),
]


# ---------------------------------------------------------------------------
# randomized batteries
# ---------------------------------------------------------------------------

def battery_1d(seed, count):
    """Random 1-axis supports: 1 to 4 terms, steps <= 8, bases <= 10."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        nterms = int(rng.integers(1, 5))
        terms = []
        for _ in range(nterms):
            base = int(rng.integers(0, 11))
            if rng.random() < 0.3:
                terms.append(one(base))
            else:
                terms.append(prog(base, int(rng.integers(1, 9))))
        out.append(SupportSet1D.of(*terms))
    return out


def battery_2d(seed, count):
    """Random product supports: 1 to 5 term pairs from the 1-axis battery rules."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        npairs = int(rng.integers(1, 6))
        pairs = []
        for _ in range(npairs):
            parts = []
            for _ in range(2):
                base = int(rng.integers(0, 11))
                if rng.random() < 0.3:
                    parts.append(one(base))
                else:
                    parts.append(prog(base, int(rng.integers(1, 9))))
            pairs.append(tuple(parts))
        out.append(SupportSet2D(tuple(pairs)))
    return out


# ---------------------------------------------------------------------------
# oracle helpers (independent of the library's decision procedures)
# ---------------------------------------------------------------------------

def window_members(support, hi=WINDOW):
    """All members of a 1-axis support in [0, hi], computed by brute force."""
    vals = set()
    for t in support.terms:
        if t.is_progression:
            vals.update(range(t.base, hi + 1, t.step))
        elif t.base <= hi:
            vals.add(t.base)
    return vals


def oracle_witness_sound(support, witness, window=WINDOW):
    """Scan [-window, window]: no support member may be congruent to
    +residue or -residue mod modulus."""
    n, j = witness.modulus, witness.residue
    members = window_members(support, window)
    arr = np.fromiter(members, dtype=np.int64) if members else np.empty(0, np.int64)
    hits = np.count_nonzero((arr % n == j % n) | ((-arr) % n == j % n))
    return hits == 0


def oracle_class_member(support, n, j, bound=100_000):
    """Exhibit a support member v with v or -v congruent to j mod n, or None.

    Solved per term by modular arithmetic so the search never scans the
    full window: for a progression base + step*x the class is reachable
    exactly when gcd(step, n) divides the residue gap.
    """
    for target in (j % n, (-j) % n):
        for t in support.terms:
            if not t.is_progression:
                if t.base % n == target and t.base <= bound:
                    return t.base if target == j % n else -t.base
                continue
            g = math.gcd(t.step, n)
            gap = (target - t.base) % n
            if gap % g != 0:
                continue
            step_r, n_r = t.step // g, n // g
            x0 = (gap // g * pow(step_r, -1, n_r)) % n_r
            v = t.base + t.step * x0
            if v <= bound:
                return v if target == j % n else -v
    return None


def oracle_meets_all_small_moduli(support, max_modulus=64):
    """True when +/- support hits every class of every modulus up to the cap."""
    for n in range(1, max_modulus + 1):
        for j in range(n):
            if oracle_class_member(support, n, j) is None:
                return False, (n, j)
    return True, None


def gamma_parity_members(support2d, gamma, parity, kmax=200, lmax=200):
    """Brute-force k-values whose section holds a degree >= gamma of the
    given parity, scanning an explicit (k, l) rectangle."""
    want = 0 if parity == "even" else 1
    ks = set()
    for kt, lt in support2d.terms:
        for l in lt.members_upto(lmax):
            if l >= gamma and l % 2 == want:
                ks.update(kt.members_upto(kmax))
                break
    return ks


# ---------------------------------------------------------------------------
# space kinds: valid parameters for each kind of kernels._SPACE_PARAMS, in
# the table's order (test_kernels checks that the two name the same kinds)
# ---------------------------------------------------------------------------

SPACE_EXAMPLES = {
    "circle": {},
    "sphere": {"m": 3},
    "circle_sphere": {"m": 2},
    "circle_tph": {"family": "quat_proj", "d": 8},
}


def marginal_ref(spec, t):
    """The marginals f_l(t) = sum_k a_{k,l} P_k(t), shape (lmax+1, len(t))."""
    return spec.coefficient_matrix.T @ circle_table(spec.kmax, np.atleast_1d(np.asarray(t, dtype=float)))


def jacobi_one_ref(l, alpha):
    """binom(l + alpha, l), the Jacobi value at t = 1, by log-gamma."""
    return math.exp(
        math.lgamma(l + alpha + 1) - math.lgamma(alpha + 1) - math.lgamma(l + 1)
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20260817)
