"""Compare two trees on one benchmark workload, ten alternating pairs of runs.

    python tools/ab_pairs.py PARENT_TREE WORKLOAD FIRST_SEED

Run it from anywhere; it compares the tree that holds this script with
PARENT_TREE.  Pair i (i = 0 .. 9) runs ``bench/run.py --workload WORKLOAD
--seed FIRST_SEED+i --seconds 50 --trace 0`` once in each tree, the parent
first in even pairs and the tree first in odd ones; each run is a subprocess
started in its tree's root, one at a time, and writes no bytecode.  Every
run's metrics are printed as it ends, with the 1-minute load average read
just before it started and the ``OPENBLAS_NUM_THREADS`` it inherited
("unset" if none): a threaded BLAS call slows sharply while other jobs
load the machine, so a pair's spread can be read against its load.  Then,
for each end-to-end metric that ``BENCHMARK.json`` names, one markdown
table row gives each side's median [q1, q3] over its ten runs and the
pairs the tree won (better in the direction the benchmark declares; ties
count for neither side), with the change of the median, and two verdicts:

* gain: the tree won at least nine tenths of the pairs and its median is
  better than the parent's by more than the parent's q3 - q1;
* in bound: the tree's median is worse than the parent's by no more than
  the metric's ``bound`` in ``BENCHMARK.json``, a fraction of the parent's
  median.

``bench/`` is only run, never written.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
SECONDS = "50"


def run_once(tree: Path, workload: str, seed: int) -> dict:
    """The last line of ``bench/run.py``'s standard output, parsed."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"ab_pairs: {tree} seed {seed} failed:\n{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> str:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.4g} [{q1:.4g}, {q3:.4g}]"


def verdicts(parent: list[float], tree: list[float], better: str, bound: float) -> tuple[int, str, str]:
    """The pairs the tree won, and "yes" or "no" for a gain and for its
    median in bound, by the rules the docstring states."""
    sign = 1 if better == "higher" else -1
    won = sum(sign * (y - x) > 0 for x, y in zip(parent, tree))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    base = statistics.median(parent)
    lead = sign * (statistics.median(tree) - base)
    gain = won >= 0.9 * len(parent) and lead > q3 - q1
    return won, "yes" if gain else "no", "yes" if lead >= -bound * abs(base) else "no"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the tree to compare against")
    parser.add_argument("workload", help="a workload of bench/workloads.py")
    parser.add_argument("first_seed", type=int, help="seed of the first pair")
    args = parser.parse_args(argv)
    if not (args.parent / "bench" / "run.py").is_file():
        parser.error(f"{args.parent} holds no bench/run.py")
    trees = {"parent": args.parent.resolve(), "tree": Path(__file__).resolve().parents[1]}
    declared = json.loads((trees["tree"] / "BENCHMARK.json").read_text())["end_to_end"]

    runs: dict[str, list[dict]] = {"parent": [], "tree": []}
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    for i in range(PAIRS):
        seed = args.first_seed + i
        for side in ("parent", "tree") if i % 2 == 0 else ("tree", "parent"):
            load = os.getloadavg()[0]
            result = run_once(trees[side], args.workload, seed)
            runs[side].append(result)
            values = ", ".join(f"{k} {v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"pair {i} seed {seed} {side}: load {load:.2f}, OPENBLAS_NUM_THREADS {threads}; "
                  f"correct {result['correct']}, {result['failed']} of {result['attempted']} failed; "
                  f"{values}", flush=True)

    print(f"\n{args.workload}, seeds {args.first_seed}-{args.first_seed + PAIRS - 1}, "
          f"{SECONDS}-s runs; median [q1, q3]\n")
    print("| metric | parent | tree | tree better | gain | in bound |")
    print("|---|---|---|---|---|---|")
    for metric in declared:
        name = metric["name"]
        a = [r["metrics"][name]["value"] for r in runs["parent"]]
        b = [r["metrics"][name]["value"] for r in runs["tree"]]
        won, gain, in_bound = verdicts(a, b, metric["better"], metric["bound"])
        base = statistics.median(a)
        change = f" ({(statistics.median(b) - base) / base:+.1%})" if base else ""
        print(f"| `{name}` | {spread(a)} | {spread(b)} | {won}/{PAIRS}{change} | {gain} | {in_bound} |")
    print()
    for side, results in runs.items():
        correct = sum(r["correct"] for r in results)
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{side}: {correct} of {PAIRS} runs correct, {failed} of {attempted} ops failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
