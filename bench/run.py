"""Closed-loop benchmark of the spdkernels command line.

    python3 bench/run.py --workload certify_deep --seed 1 --seconds 50 --trace 0

Run it from the repository root; it imports the library from ``src/``.
One client, no threads of its own: the spec files of the workload are
generated from the seed, and each operation calls ``spdkernels.cli.main``
in this process, so that interpreter, numpy and library start-up (0.1 to
0.25 s) is paid once and not per operation.  Operations run in rounds (every item of
the workload once, in the seed's order), and whole rounds repeat until
about ``--seconds`` have passed (give or take half a round) and at least
100 operations ran, so every run measures the same mix.  Every output is
checked (``checks.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds in which every layer is traced (``spans.py``)
for ``--seconds``, and prints the per-layer metrics per round.  The last
line of standard output is one JSON object.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import workloads  # noqa: E402
from checks import Checker  # noqa: E402
from spans import WITNESSES, Tracer  # noqa: E402

MIN_OPS = 100
HARD_CAP_S = 120.0
# Fresh processes that repeat the set-up, so setup_s is a median of
# SETUP_REPEATS + 1 samples.
SETUP_REPEATS = 6
WORK = Path(".bench_work")

# Tiny specs run once during warm-up so that every command's code path,
# and the first eigensolve, are loaded before the first timed operation.
_WARMUP_SPEC = {
    "space": {"kind": "circle_sphere", "m": 2},
    "support": [workloads.pair(workloads.P(0, 1), workloads.P(0, 2))],
    "truncation": {"kmax": 10, "lmax": 10},
    "seed": 0,
}
_WARMUP_OPS = (
    ("certify",), ("crosscheck",), ("gram", "--points", "10"), ("witness",),
)


@dataclass
class Pass:
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    # completed correct operations per second of operation time, per round
    round_rates: list[float] = field(default_factory=list)

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)


class Session:
    """The library, the workload's spec files and a scratch directory."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        src = Path("src")
        if not (src / "spdkernels" / "__init__.py").is_file():
            raise SystemExit("bench: run from the repository root; src/spdkernels is missing")
        sys.path.insert(0, str(src.resolve()))
        import numpy as np

        import spdkernels.cli

        self.np = np
        self.cli = spdkernels.cli
        self.workdir = workdir
        self.items = workloads.build(workload, seed)
        self.paths = workloads.write_specs(self.items, workdir / "specs")
        self.report = workdir / "report.json"
        self.csv = workdir / "out.csv"
        self._warm_up(seed)

    def _warm_up(self, seed: int) -> None:
        a = self.np.random.default_rng(seed).standard_normal((400, 400))
        self.np.linalg.eigvalsh(a @ a.T)
        path = self.workdir / "warmup.json"
        path.write_text(workloads.spec_text(_WARMUP_SPEC))
        for argv in _WARMUP_OPS:
            _, rc, out = self.call([argv[0], str(path), *argv[1:]])
            if rc not in (0, 1, 2):
                raise SystemExit(f"bench: warm-up {argv[0]} exited {rc}: {out.strip()[-300:]}")

    def call(self, argv: list[str]) -> tuple[float, int, str]:
        """One in-process CLI call: (seconds, exit code, captured output)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            start = perf_counter()
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 64
            except Exception:  # a traceback is a failed operation, not a crash of the run
                traceback.print_exc()
                rc = -1
            elapsed = perf_counter() - start
        return elapsed, rc, buf.getvalue()

    def run_op(self, item, op) -> tuple[float, int, str, dict | None, str | None]:
        for path in (self.report, self.csv):
            path.unlink(missing_ok=True)
        argv = [op.command, str(self.paths[item.name]), "--no-timestamp",
                "--json", str(self.report), *op.args]
        if op.csv:
            argv += ["--csv", str(self.csv)]
        elapsed, rc, out = self.call(argv)
        report = json.loads(self.report.read_text()) if self.report.exists() else None
        csv_text = self.csv.read_text() if self.csv.exists() else None
        return elapsed, rc, out, report, csv_text


def run_round(session: Session, checker: Checker, result: Pass, tracer: Tracer | None = None) -> None:
    """Run every item of the workload once, adding to ``result``."""
    first, failed = len(result.latencies), result.failed
    for item in session.items:
        for op in item.ops:
            if tracer is not None:
                tracer.op_id = result.attempted
            elapsed, rc, out, report, csv_text = session.run_op(item, op)
            problems = checker.check(item, op, rc, out, report, csv_text)
            result.attempted += 1
            result.latencies.append(elapsed)
            if problems:
                result.failed += 1
                print(f"FAILED {item.name} {op.command} {' '.join(op.args)}: "
                      f"{'; '.join(problems)}", file=sys.stderr)
    result.rounds += 1
    done = len(result.latencies) - first - (result.failed - failed)
    result.round_rates.append(done / sum(result.latencies[first:]))


def _time_is_up(wall: float, rounds: int, seconds: float) -> bool:
    """Stop when one more round would overshoot ``seconds`` by more than
    stopping now falls short of it, so a run lasts ``seconds`` give or take
    half a round."""
    return wall + wall / rounds / 2 >= seconds or wall >= HARD_CAP_S


def run_for(session: Session, checker: Checker, seconds: float, min_ops: int) -> Pass:
    """Whole rounds for about ``seconds``, and until ``min_ops`` operations ran."""
    result = Pass()
    start = perf_counter()
    while True:
        run_round(session, checker, result)
        wall = perf_counter() - start
        if _time_is_up(wall, result.rounds, seconds) and (
                result.attempted >= min_ops or wall >= HARD_CAP_S):
            return result


def run_traced(session: Session, checker: Checker, seconds: float,
               tracer: Tracer) -> tuple[Pass, Pass]:
    """Alternate untraced and traced rounds for about ``seconds``, so drift
    in machine speed falls on both sides of the overhead ratio."""
    untraced, traced = Pass(), Pass()
    start = perf_counter()
    while True:
        run_round(session, checker, untraced)
        tracer.install()
        try:
            run_round(session, checker, traced, tracer)
        finally:
            tracer.uninstall()
        if _time_is_up(perf_counter() - start, traced.rounds, seconds):
            return untraced, traced


def _quantile_ms(values: list[float], q: int) -> float:
    return 1e3 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def repeated_setup_s(workload: str, seed: int) -> list[float]:
    """Set-up times of fresh processes that do nothing else."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up process failed: {proc.stderr.strip()[-300:]}")
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def end_to_end(run: Pass, checker: Checker, setup: list[float]) -> dict:
    ok = run.attempted - run.failed
    witness = checker.witness_exact / checker.witness_ops if checker.witness_ops else 1.0
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (statistics.median(run.round_rates), "ops/s"),
        "op_p50_ms": (_quantile_ms(run.latencies, 50), "ms"),
        "op_p90_ms": (_quantile_ms(run.latencies, 90), "ms"),
        "pass_ratio": (ok / run.attempted, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "witness_exact_ratio": (witness, "1"),
    }


def per_layer(tracer: Tracer, traced: Pass, untraced: Pass) -> dict:
    r = traced.rounds
    layer_self = tracer.layer_self()
    counts = tracer.counts
    witness_s = sum(tracer.total[n] for n in WITNESSES)
    reports = counts["gram.witness_reports"]
    metrics = {
        "cli.load_spec_file.s": (tracer.total["cli.load_spec_file"] / r, "s/round"),
        "certify.certify_circle.calls": (tracer.calls["certify.certify_circle"] / r, "count/round"),
        "certify.trace_entries": (counts["certify.trace_entries"] / r, "count/round"),
        "supportsets.meets_every_progression.calls":
            (tracer.calls["supportsets.meets_every_progression"] / r, "count/round"),
        "supportsets.meets_every_progression.s":
            (tracer.total["supportsets.meets_every_progression"] / r, "s/round"),
        "supportsets.derived_parity_tail_set.calls":
            (tracer.calls["supportsets.derived_parity_tail_set"] / r, "count/round"),
        "orthopoly.circle_table.s": (tracer.total["orthopoly.circle_table"] / r, "s/round"),
        "orthopoly.gegenbauer_table.s": (tracer.total["orthopoly.gegenbauer_table"] / r, "s/round"),
        "orthopoly.jacobi_table.s": (tracer.total["orthopoly.jacobi_table"] / r, "s/round"),
        "orthopoly.table_entries": (counts["orthopoly.table_entries"] / r, "count/round"),
        "kernels.kernel_values.self_s": (tracer.self_time["kernels.kernel_values"] / r, "s/round"),
        "kernels.contraction_flops": (counts["kernels.contraction_flops"] / r, "calc-flop/round"),
        "gram.gram_matrix.self_s": (tracer.self_time["gram.gram_matrix"] / r, "s/round"),
        "gram.gram_entries": (counts["gram.gram_entries"] / r, "count/round"),
        "gram.check_pd.s": (tracer.total["gram.check_pd"] / r, "s/round"),
        "gram.witness.s": (witness_s / r, "s/round"),
        "gram.witness_gram_calls": (counts["gram.witness_gram_calls"] / r, "count/round"),
        "gram.witness_searched_ratio":
            (counts["gram.witness_searched"] / reports if reports else 0.0, "1"),
        "geometry.sample_config.s": (tracer.total["geometry.sample_config"] / r, "s/round"),
        "geometry.build_enhanced.s": (tracer.total["geometry.build_enhanced"] / r, "s/round"),
    }
    for layer, seconds in layer_self.items():
        metrics[f"{layer}.self_s"] = (seconds / r, "s/round")
    metrics["trace.op_s"] = (traced.busy_s / r, "s/round")
    metrics["trace.overhead_ratio"] = (traced.busy_s / untraced.busy_s, "1")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time the set-up alone and print it (the repeated set-up samples)")
    args = parser.parse_args(argv)

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        session = Session(args.workload, args.seed, workdir)
        setup_s = perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        checker = Checker()
        if args.trace:
            tracer = Tracer()
            untraced, traced = run_traced(session, checker, args.seconds, tracer)
            tracer.dump(WORK / f"trace-{args.workload}-seed{args.seed}.json")
            metrics = per_layer(tracer, traced, untraced)
            runs = (untraced, traced)
            layer_sum = sum(tracer.layer_self().values())
            print(f"{args.workload} seed {args.seed}: traced {traced.rounds} rounds, "
                  f"{traced.attempted} ops; layer self times sum to {layer_sum:.3f} s "
                  f"of {traced.busy_s:.3f} s op time; {len(tracer.spans)} spans kept, "
                  f"{tracer.dropped} dropped")
        else:
            setup = [setup_s, *repeated_setup_s(args.workload, args.seed)]
            run = run_for(session, checker, args.seconds, MIN_OPS)
            metrics = end_to_end(run, checker, setup)
            runs = (run,)
            print(f"{args.workload} seed {args.seed}: {run.attempted} ops in {run.rounds} rounds, "
                  f"{run.busy_s:.3f} s op time, {run.failed} failed, "
                  f"{checker.witness_ops} witnesses ({checker.witness_searched} searched)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
