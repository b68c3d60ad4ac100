"""Seeded inputs for the benchmark workloads.

Each workload is a list of items, and each item is one spec file plus the
command-line operations run on it.  A round runs every item once, in an
order fixed by the seed, and a run repeats whole rounds.  The seed picks
the supports' bases and parities, the point seeds and the order; the sizes
and the mix of operation shapes in a round are fixed, so that runs with
different seeds measure the same kind of work.

* ``certify_deep``: only symbolic work.  Specs are SPD or NotSPD by
  construction, with a known first failing (gamma, parity).  The cost
  grows with the largest l-singleton (the gamma sweep) and with the lcm of
  the k-steps (the residue scan and the periodic window).
* ``gram_scaling``: numeric work.  ``gram`` on SPD supports, at point
  counts n up to 800 and truncations K = L from 20 to 120, so the working
  set runs from below the L2 cache to far past it; and ``witness`` on
  constructed refutations of every witness kind, four of them failing
  first at gamma > 0, so the searched witness runs four times a round.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

WORKLOADS = ("certify_deep", "gram_scaling")


@dataclass(frozen=True)
class Op:
    """One command-line call on an item's spec file."""

    command: str
    args: tuple[str, ...] = ()
    # Constructed outcome: "verdict", and for NotSPD "gamma" and "parity";
    # for gram, "pd".  None when only self-consistency can be checked.
    expect: Optional[dict] = None
    csv: bool = False
    label: str = ""


@dataclass
class Item:
    name: str
    spec: dict
    ops: list[Op] = field(default_factory=list)


def P(base: int, step: int) -> dict:
    return {"type": "prog", "base": base, "step": step}


def O(value: int) -> dict:
    return {"type": "one", "value": value}


def pair(k: dict, l: dict) -> dict:
    return {"k": k, "l": l}


def _cs(m: int, support: list, seed: int, trunc: int = 60) -> dict:
    return {
        "space": {"kind": "circle_sphere", "m": m},
        "support": support,
        "scheme": {"kind": "geometric", "r_k": 0.9, "r_l": 0.9, "scale": 1.0},
        "truncation": {"kmax": trunc, "lmax": trunc},
        "seed": seed,
    }


_TPH_SPACES = (
    ("real_proj", 2), ("real_proj", 3), ("complex_proj", 4), ("complex_proj", 6),
    ("quat_proj", 8), ("quat_proj", 12), ("cayley", 16),
)


def _tph(rng: random.Random, support: list, trunc: int = 60) -> dict:
    family, d = rng.choice(_TPH_SPACES)
    return {
        "space": {"kind": "circle_tph", "family": family, "d": d},
        "support": support,
        "scheme": {"kind": "geometric", "r_k": 0.9, "r_l": 0.9, "scale": 1.0},
        "truncation": {"kmax": trunc, "lmax": trunc},
        "seed": rng.randrange(2**31),
    }


def _with_parity(v: int, parity: str) -> int:
    return v if v % 2 == (parity == "odd") else v + 1


# ---------------------------------------------------------------------------
# certify_deep
# ---------------------------------------------------------------------------

# Coprime step pairs by lcm band; within a band the lcm varies by at most
# about 10%, so the band's cost does not depend on the seed.
_STEP_PAIRS = {
    100: ((7, 13), (9, 11), (4, 25), (5, 19), (3, 31), (8, 13)),
    1000: ((29, 31), (23, 41), (19, 53), (17, 59), (13, 73), (11, 89)),
    10000: ((89, 101), (89, 103), (89, 107), (89, 109), (97, 101), (97, 103)),
}


def _deep_support(rng, v: int, verdict: str, parity: str, product_parity: bool):
    """A complete core plus the l-singleton v.

    SPD: the core covers every class for every cutoff.  NotSPD: the
    ``parity`` tail is complete only through the singleton v (of that
    parity), so the sweep first fails at (v + 1, parity).  Extra singleton
    terms below v only add members and change nothing.
    """
    half = rng.randrange(2)
    # Fixed extra steps and small bases: the gamma-loop window is the
    # largest k-base plus twice the lcm of the k-steps, so random steps or
    # bases would make the cost depend on the seed.
    extras = [pair(P(rng.randrange(step), step), O(rng.randrange(v))) for step in (3, 4)]
    if not product_parity:
        if verdict == "SPD":
            core = [pair(P(0, 2), P(0, 1)), pair(P(1, 2), P(0, 1))]
        else:
            core = [pair(P(half, 2), P(0, 1))]
        return core + extras + [pair(P(0, 1), O(v))]
    if verdict == "SPD":
        core = [pair(P(0, 1), P(0, 2)), pair(P(0, 1), P(1, 2))]
    else:
        core = [
            pair(P(0, 1), P(int(parity == "even"), 2)),
            pair(P(half, 2), P(int(parity == "odd"), 2)),
        ]
    return core + extras + [pair(P(0, 1), O(v))]


def _wide_support(rng, steps, w: int, verdict: str, parity: str):
    """k-steps with a large lcm next to the l-singleton w.

    SPD: a step-1 core covers both parities and the wide terms ride along.
    NotSPD: the ``parity`` tail past w holds only the two wide
    progressions, which miss classes mod their steps, so the sweep first
    fails at (w + 1, parity).
    """
    p1, p2 = steps
    a, b = rng.randrange(p1), rng.randrange(p2)
    if verdict == "SPD":
        return [
            pair(P(0, 1), P(0, 2)), pair(P(0, 1), P(1, 2)),
            pair(P(a, p1), P(rng.randrange(2), 2)), pair(P(b, p2), O(w)),
        ]
    lp = int(parity == "odd")
    return [
        pair(P(0, 1), P(1 - lp, 2)),
        pair(P(a, p1), P(lp, 2)), pair(P(b, p2), P(lp, 2)),
        pair(P(0, 1), O(w)),
    ]


def _certify_ops(commands, expect) -> list[Op]:
    ops = []
    for cmd in commands:
        if isinstance(cmd, tuple):  # ("gamma-max", value)
            ops.append(Op("certify", ("--gamma-max", str(cmd[1])), expect, label="gamma-max"))
        elif cmd.startswith("sufficient"):
            ops.append(Op("certify", ("--method", cmd), expect, label=cmd))
        else:
            ops.append(Op(cmd, (), expect, label=cmd))
    return ops


def certify_deep(rng: random.Random) -> list[Item]:
    items = []

    def expect_for(verdict, gamma, parity):
        if verdict == "SPD":
            return {"verdict": "SPD"}
        return {"verdict": "NotSPD", "gamma": gamma, "parity": parity}

    # The gamma sweep: l-singletons from 10^3 to 2 * 10^4.  The per-rung
    # command lists keep a round near five seconds on two cores.
    ladder = (
        (1000, "SPD", ("certify", "crosscheck", "sufficient-circle-outer",
                       "sufficient-sphere-outer", ("gamma-max", 2))),
        (2000, "NotSPD", ("certify", "crosscheck", "sufficient-sphere-outer",
                          ("gamma-max", 2))),
        (5000, "SPD", ("certify", "sufficient-sphere-outer")),
        (10000, "NotSPD", ("certify",)),
        (20000, "SPD", ("certify",)),
    )
    for i, (size, verdict, commands) in enumerate(ladder):
        parity = rng.choice(("even", "odd"))
        v = _with_parity(size, parity)
        support = _deep_support(rng, v, verdict, parity, product_parity=True)
        expect = expect_for(verdict, v + 1, parity)
        commands = tuple(("gamma-max", c[1] * v) if isinstance(c, tuple) else c for c in commands)
        items.append(Item(f"deep-cs-{i}", _cs(rng.choice((2, 3)), support, rng.randrange(2**31)),
                          _certify_ops(commands, expect)))

    for i, (size, verdict) in enumerate(((1000, "SPD"), (3000, "NotSPD"))):
        v = size
        support = _deep_support(rng, v, verdict, "any", product_parity=False)
        items.append(Item(f"deep-tph-{i}", _tph(rng, support),
                          _certify_ops(("certify",), expect_for(verdict, v + 1, "any"))))

    # The residue scan and the periodic window: k-step lcm from 10^2 to
    # about 10^4, with few cutoffs, since the gamma-loop route of crosscheck
    # costs (cutoffs) x (lcm).  The cheap lcm-100 items put the median
    # operation inside a cluster of similar costs rather than between two.
    wide = (
        (100, "SPD", 8, ("certify", "crosscheck", "sufficient-circle-outer",
                         "sufficient-sphere-outer", ("gamma-max", 60))),
        (100, "NotSPD", 6, ("certify", "crosscheck", "sufficient-circle-outer", ("gamma-max", 60))),
        (100, "SPD", 3, ("certify", "sufficient-circle-outer", "sufficient-sphere-outer",
                         ("gamma-max", 60))),
        (100, "NotSPD", 4, ("certify", "sufficient-circle-outer", "sufficient-sphere-outer",
                            ("gamma-max", 60))),
        (100, "SPD", 5, ("certify", "sufficient-circle-outer", "sufficient-sphere-outer",
                         ("gamma-max", 60))),
        (1000, "SPD", 8, ("certify", "crosscheck", "sufficient-circle-outer", ("gamma-max", 60))),
        (1000, "NotSPD", 5, ("certify", "crosscheck", "sufficient-sphere-outer", ("gamma-max", 60))),
        (10000, "SPD", 0, ("certify", "crosscheck", "sufficient-circle-outer",
                           "sufficient-sphere-outer", ("gamma-max", 60))),
        (10000, "NotSPD", 1, ("certify", "crosscheck", "sufficient-sphere-outer", ("gamma-max", 60))),
    )
    for i, (band, verdict, w, commands) in enumerate(wide):
        steps = rng.choice(_STEP_PAIRS[band])
        parity = "odd" if w % 2 else "even"
        support = _wide_support(rng, steps, w, verdict, parity)
        items.append(Item(f"wide-cs-{i}", _cs(rng.choice((2, 3)), support, rng.randrange(2**31)),
                          _certify_ops(commands, expect_for(verdict, w + 1, parity))))

    steps = rng.choice(_STEP_PAIRS[1000])
    w = 6
    support = [pair(P(0, 1), P(0, 1)), pair(P(rng.randrange(steps[0]), steps[0]), P(1, 2)),
               pair(P(rng.randrange(steps[1]), steps[1]), O(w))]
    items.append(Item("wide-tph-0", _tph(rng, support), _certify_ops(("certify",), {"verdict": "SPD"})))
    return items


# ---------------------------------------------------------------------------
# gram_scaling
# ---------------------------------------------------------------------------

_SPD_PRODUCT = (
    [pair(P(0, 1), P(0, 1))],
    [pair(P(0, 2), P(0, 2)), pair(P(1, 2), P(1, 2)), pair(P(0, 2), P(1, 2)), pair(P(1, 2), P(0, 2))],
    [pair(P(0, 1), P(0, 2)), pair(P(0, 1), P(1, 2))],
    [pair(P(0, 3), P(0, 2)), pair(P(1, 3), P(0, 2)), pair(P(2, 3), P(0, 2)),
     pair(P(0, 3), P(1, 2)), pair(P(1, 3), P(1, 2)), pair(P(2, 3), P(1, 2))],
)

# (space, n, K, count per round, csv).  Circle Grams stay at n <= 20: the
# truncated circle kernel has rank 2K + 1, and at larger n some seeds
# sample two angles close enough that lambda_min falls below the CLI's
# 1e-10 tolerance (measured over 150 seeds: n = 30 at K = 60 failed once,
# n = 20 never).  Sphere Grams stay below the dimension of the truncated
# space.
_GRAM_SHAPES = (
    ("cs2", 800, 60, 1, False),
    ("cs2", 400, 60, 1, False),
    ("csM", 200, 120, 1, False),
    ("sphere", 400, 60, 1, False),
    ("sphere3", 400, 120, 1, False),
    ("cs2", 200, 60, 2, False),
    ("csM", 200, 60, 1, False),
    ("csM", 100, 40, 4, False),
    ("sphere", 100, 40, 4, False),
    ("circle", 20, 120, 2, False),
    ("circle", 20, 60, 4, False),
    ("cs2", 50, 20, 10, False),
    ("cs2", 50, 20, 2, True),
    ("csM", 50, 20, 6, False),
    ("sphere", 50, 20, 8, False),
    ("circle", 10, 20, 4, False),
)


def _late_failure(parity: str, v: int) -> list:
    """Passes at gamma = 0 and first fails at (v + 1, parity), v of that parity.

    The ``parity`` l-values over odd k exist only as the singleton v, so
    once the cutoff passes v that tail holds even k only.
    """
    lp = int(parity == "odd")
    return [pair(P(0, 1), O(v)), pair(P(0, 1), P(1 - lp, 2)), pair(P(0, 2), P(lp + 2, 2))]


# Refuted supports, two of each exact witness kind: (space, support,
# constructed first failure or None where the counterexample is not a
# gamma failure).  The circle_sphere supports miss a k-class in both
# parity tails at gamma 0, and the sweep tries odd before even.  Each
# witness takes a few milliseconds.
_EXACT_WITNESSES = (
    ({"kind": "circle"}, [P(0, 3)], None),  # progression, modulus 3
    ({"kind": "circle"}, [P(1, 4), O(2)], None),  # progression, modulus 4
    ({"kind": "sphere", "m": 2}, [P(0, 2)], None),  # parity, even
    ({"kind": "sphere", "m": 3}, [P(1, 2), O(3)], None),  # parity, odd
    ({"kind": "circle_sphere", "m": 2}, [pair(P(0, 2), P(0, 1))], (0, "odd")),  # composed
    ({"kind": "circle_sphere", "m": 3},
     [pair(P(0, 3), P(0, 1)), pair(P(1, 3), P(0, 2))], (0, "odd")),  # composed
)


def _witness_items(rng: random.Random) -> list[Item]:
    """Exact witnesses of every kind, and one late failure per gamma 1 to 4:
    the searched witness comes out exact at gamma 1 and 2 and inexact at
    gamma 3 and 4."""
    items = []
    for i, (space, support, failure) in enumerate(_EXACT_WITNESSES):
        expect = {"verdict": "NotSPD"}
        if failure is not None:
            expect.update(gamma=failure[0], parity=failure[1])
        spec = {
            "space": space,
            "support": support,
            "scheme": {"kind": "geometric", "r_k": 0.9, "r_l": 0.9, "scale": 1.0},
            "truncation": {"kmax": 20, "lmax": 20},
            "seed": rng.randrange(2**31),
        }
        items.append(Item(f"witness-{space['kind']}-{i}", spec,
                          [Op("witness", (), expect, label="witness")]))
    for i, (parity, v) in enumerate((("even", 0), ("odd", 1), ("even", 2), ("odd", 3))):
        expect = {"verdict": "NotSPD", "gamma": v + 1, "parity": parity}
        spec = _cs(2, _late_failure(parity, v), rng.randrange(2**31), 20)
        items.append(Item(f"witness-late-{i}", spec,
                          [Op("witness", (), expect, label="witness-late")]))
    return items


def gram_scaling(rng: random.Random) -> list[Item]:
    items = _witness_items(rng)
    for shape, n, k, count, csv in _GRAM_SHAPES:
        for j in range(count):
            seed = rng.randrange(2**31)
            if shape.startswith("cs"):
                m = 2 if shape == "cs2" else (4, 5, 6)[j % 3]
                spec = _cs(m, _SPD_PRODUCT[j % len(_SPD_PRODUCT)], seed, k)
            else:
                space = {"kind": "circle"} if shape == "circle" else {
                    "kind": "sphere", "m": 3 if shape == "sphere3" else 2}
                spec = {
                    "space": space,
                    "support": [P(0, 1)],
                    "scheme": {"kind": "geometric", "r_k": 0.9, "r_l": 0.9, "scale": 1.0},
                    "truncation": {"kmax": k, "lmax": k},
                    "seed": seed,
                }
            label = f"gram-{shape}-n{n}-K{k}"
            op = Op("gram", ("--points", str(n)), {"pd": True}, csv=csv, label=label)
            items.append(Item(f"{label}-{j}{'-csv' if csv else ''}", spec, [op]))
    return items


_BUILDERS = {"certify_deep": certify_deep, "gram_scaling": gram_scaling}


def build(workload: str, seed: int) -> list[Item]:
    """The workload's items in the round order fixed by the seed."""
    rng = random.Random(f"{workload}:{seed}")
    items = _BUILDERS[workload](rng)
    rng.shuffle(items)
    return items


def spec_text(spec: dict) -> str:
    return json.dumps(spec, indent=1, sort_keys=True) + "\n"


def write_specs(items: list[Item], directory: Path) -> dict[str, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for item in items:
        path = directory / f"{item.name}.json"
        path.write_text(spec_text(item.spec))
        paths[item.name] = path
    return paths
