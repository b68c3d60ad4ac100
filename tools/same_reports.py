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
differ) and their count, and exits 1 on any difference.  Under each
differing op it lists every number that differs, by field, with the largest
relative difference |a - b| / max(|a|, |b|) of that field: report fields
by their JSON path (list indices written ``[]``), csv columns as
``csv[].column``, and the numbers of the output named by the word before
their ``=``.  A field that differs in more than its numbers is listed as
``differs``.  The largest
relative difference of each field over all differing ops ends the
listing.  ``bench/`` is imported, never written: the subprocesses write no
bytecode.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import re
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


_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")
_NAMED = re.compile(r"([A-Za-z_]\w*)\s*=\s*$")


def _merge(found: dict, field: str, rel) -> None:
    """Keep a field's largest relative difference; None, a difference that
    is not a number, outranks every number."""
    old = found.get(field, 0.0)
    found[field] = None if old is None or rel is None else max(old, rel)


def _note(found: dict, field: str, a, b) -> None:
    """Record a differing leaf: |a - b| / max(|a|, |b|) if both are numbers
    (bools are not), else None."""
    if all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b)):
        _merge(found, field, abs(a - b) / max(abs(a), abs(b)))
    else:
        _merge(found, field, None)


def _json_leaves(found: dict, path: str, a, b) -> None:
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        for key in a:
            _json_leaves(found, f"{path}.{key}", a[key], b[key])
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            _json_leaves(found, f"{path}[]", x, y)
    elif a != b:
        _note(found, path, a, b)


def _text_numbers(found: dict, path: str, a: str, b: str) -> None:
    """Numbers of two texts that differ only in their numbers, each named by
    the word before its ``=`` (else by its place); other texts differ as text."""
    if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
        found[path] = None
        return
    for i, (x, y) in enumerate(zip(_NUMBER.finditer(a), _NUMBER.finditer(b))):
        if x.group() != y.group():
            name = _NAMED.search(a, 0, x.start())
            _note(found, f"{path}.{name.group(1) if name else f'#{i}'}", float(x.group()), float(y.group()))


def _csv_rows(text: str) -> list[dict]:
    header, *rows = (line.split(",") for line in text.splitlines())
    return [{column: float(x) for column, x in zip(header, row)} for row in rows]


def field_differences(a: dict, b: dict) -> dict:
    """{field: largest relative difference, or None for a difference that
    is not a number} over the output, report and csv of two records."""
    found = {key: None for key in ("op", "exit") if a[key] != b[key]}
    if a["output"] != b["output"]:
        _text_numbers(found, "output", a["output"], b["output"])
    for key, parse in (("report", json.loads), ("csv", _csv_rows)):
        if a[key] == b[key]:
            continue
        try:
            _json_leaves(found, key, parse(a[key]), parse(b[key]))
        except (AttributeError, TypeError, ValueError):  # missing on one side, or not numbers
            found[key] = None
    return found


def _describe(fields: dict) -> str:
    return "\n".join(
        f"    {field}: " + ("differs" if rel is None else f"{rel:.3g}")
        for field, rel in sorted(fields.items())
    )


def differing_ops(parent: list[dict], tree: list[dict]) -> tuple[list[str], dict]:
    """One entry per op, taken in order, whose record differs, with its
    differing fields; and each field's largest difference over them."""
    out, largest = [], {}
    for i, (a, b) in enumerate(zip(parent, tree)):
        keys = [key for key in ("op", "exit", "output", "report", "csv") if a[key] != b[key]]
        if keys:
            fields = field_differences(a, b)
            for field, rel in fields.items():
                _merge(largest, field, rel)
            out.append(f"op {i} {' '.join(map(str, a['op']))}: {', '.join(keys)} differ\n{_describe(fields)}")
    return out, largest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the tree to compare against")
    args = parser.parse_args(argv)
    if not (args.parent / "bench" / "run.py").is_file() or not (args.parent / "src" / "spdkernels").is_dir():
        parser.error(f"{args.parent} holds no bench/run.py and src/spdkernels")
    with tempfile.TemporaryDirectory(prefix="same_reports_") as tmp:
        parent = run_tree(args.parent.resolve(), Path(tmp))
        tree = run_tree(Path(__file__).resolve().parents[1], Path(tmp))
    found, largest = differing_ops(parent, tree)
    print(f"{len(parent)} ops in the parent, {len(tree)} in the tree "
          f"({', '.join(WORKLOADS)}; seeds {SEEDS})")
    if found or len(parent) != len(tree):
        print("\n".join(found))
        print(f"{len(found)} of {min(len(parent), len(tree))} compared ops differ")
        if largest:
            print(f"largest relative difference of each field:\n{_describe(largest)}")
        return 1
    print("every op identical: exit code, output, --json report text and csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
