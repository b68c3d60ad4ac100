"""Check that two trees give the command line's outputs byte for byte.

    python tools/same_reports.py PARENT_TREE

Run it from anywhere; it compares the tree that holds this script with
PARENT_TREE (to check another tree, run that tree's copy).  For each tree,
a subprocess started in that tree's root runs every op of the benchmark
workloads ``certify_deep`` and ``gram_scaling``, seeds 1-6,
through ``bench/run.py``'s ``Session.run_op``, and writes one record per op:
exit code, captured output (standard output and error), the text of the
``--no-timestamp --json`` report and the csv.  Both trees run in the same
scratch directory, one after the other, so spec paths in messages agree.
The records are compared in order; the script prints the op count, one
line per differing op (workload, seed, item, command and the fields that
differ) and their count, and exits 1 on any difference.  ``bench/`` is imported,
never written: the subprocesses write no bytecode.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("certify_deep", "gram_scaling")
SEEDS = "1,2,3,4,5,6"

# argv: scratch directory, records file, workloads, seeds (comma-separated)
_CHILD = r"""
import json, sys
from pathlib import Path

sys.path.insert(0, "bench")
import run

work, records = Path(sys.argv[1]), Path(sys.argv[2])
with records.open("w") as f:
    for workload in sys.argv[3].split(","):
        for seed in map(int, sys.argv[4].split(",")):
            session = run.Session(workload, seed, work / f"{workload}-{seed}")
            for item in session.items:
                for op in item.ops:
                    _, rc, out, _, csv_text = session.run_op(item, op)
                    report = session.report.read_text() if session.report.exists() else None
                    f.write(json.dumps({
                        "op": [workload, seed, item.name, op.command, *op.args],
                        "exit": rc, "output": out, "report": report, "csv": csv_text,
                    }) + "\n")
"""


def run_tree(tree: Path, scratch: Path) -> list[dict]:
    """Every op's record from ``tree``, in round order."""
    work, records = scratch / "work", scratch / "records.jsonl"
    shutil.rmtree(work, ignore_errors=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, str(work), str(records), ",".join(WORKLOADS), SEEDS],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"same_reports: {tree} failed:\n{proc.stderr.strip()[-2000:]}")
    return [json.loads(line) for line in records.read_text().splitlines()]


def differing_ops(parent: list[dict], tree: list[dict]) -> list[str]:
    """One line per op, taken in order, whose record differs."""
    out = []
    for i, (a, b) in enumerate(zip(parent, tree)):
        keys = [key for key in ("op", "exit", "output", "report", "csv") if a[key] != b[key]]
        if keys:
            out.append(f"op {i} {' '.join(map(str, a['op']))}: {', '.join(keys)} differ")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the tree to compare against")
    args = parser.parse_args(argv)
    if not (args.parent / "bench" / "run.py").is_file() or not (args.parent / "src" / "spdkernels").is_dir():
        parser.error(f"{args.parent} holds no bench/run.py and src/spdkernels")
    with tempfile.TemporaryDirectory(prefix="same_reports_") as tmp:
        parent = run_tree(args.parent.resolve(), Path(tmp))
        tree = run_tree(Path(__file__).resolve().parents[1], Path(tmp))
    found = differing_ops(parent, tree)
    print(f"{len(parent)} ops in the parent, {len(tree)} in the tree "
          f"({', '.join(WORKLOADS)}; seeds {SEEDS})")
    if found or len(parent) != len(tree):
        print("\n".join(found))
        print(f"{len(found)} of {min(len(parent), len(tree))} compared ops differ")
        return 1
    print("every op identical: exit code, output, --json report text and csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
