"""Tests of the benchmark itself: seeded inputs, declared metrics, output
checks and trace accounting.  Run from the repository root with pytest."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def session_for(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)

    def make(workload, seed=3):
        return run.Session(workload, seed, tmp_path / workload)

    return make


def _declared(kind):
    return {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_spec_files(workload, tmp_path):
    first = workloads.write_specs(workloads.build(workload, 11), tmp_path / "a")
    again = workloads.write_specs(workloads.build(workload, 11), tmp_path / "b")
    other = workloads.write_specs(workloads.build(workload, 12), tmp_path / "c")
    assert list(first) == list(again)
    assert all(first[k].read_bytes() == again[k].read_bytes() for k in first)
    changed = [k for k in first if k in other and first[k].read_bytes() != other[k].read_bytes()]
    assert changed or list(first) != list(other)


def _cheap_gram_items(session):
    # every witness item and the small Grams: a round of well under a second
    return [item for item in session.items
            if item.name.startswith("witness") or "-n10-" in item.name or "-n20-K60" in item.name]


def test_printed_metrics_are_declared(session_for):
    session = session_for("gram_scaling")
    session.items = _cheap_gram_items(session)
    checker = checks.Checker()
    plain = run.run_for(session, checker, 0, 0)
    tracer = Tracer()
    untraced, traced = run.run_traced(session, checker, 0, tracer)
    e2e = run.end_to_end(plain, checker, [0.5])
    layers = run.per_layer(tracer, traced, untraced)
    assert {k: u for k, (_, u) in e2e.items()} == _declared("end_to_end")
    assert {k: u for k, (_, u) in layers.items()} == _declared("per_layer")
    assert plain.failed == untraced.failed == traced.failed == 0
    assert all(value != 0 for value, _ in e2e.values())


def test_layer_self_times_cover_traced_op_time(session_for):
    session = session_for("gram_scaling")
    session.items = _cheap_gram_items(session)
    tracer = Tracer()
    _, traced = run.run_traced(session, checks.Checker(), 0, tracer)
    layer_sum = sum(tracer.layer_self().values())
    assert 0.95 * traced.busy_s <= layer_sum <= traced.busy_s
    assert {tracer.names[s[0]] for s in tracer.spans if s[3] == -1} == {"cli.main"}
    assert len({s[4] for s in tracer.spans}) == traced.attempted


def test_tracer_restores_the_library(session_for):
    session_for("gram_scaling")
    import spdkernels.gram as gram_mod

    original = gram_mod.kernel_values
    tracer = Tracer()
    tracer.install()
    assert gram_mod.kernel_values is not original
    tracer.uninstall()
    assert gram_mod.kernel_values is original


def _cheap_deep_item(session):
    # the lcm-100 NotSPD item: a known first failure, a few milliseconds a call
    return next(i for i in session.items if i.name == "wide-cs-1")


def test_checks_catch_a_wrong_expected_verdict(session_for):
    session = session_for("certify_deep")
    item = _cheap_deep_item(session)
    op = item.ops[0]
    assert op.expect["verdict"] == "NotSPD"
    assert checks.Checker().check(item, op, *session.run_op(item, op)[1:]) == []
    for wrong in ({"verdict": "SPD"}, dict(op.expect, gamma=op.expect["gamma"] + 1),
                  dict(op.expect, parity="any")):
        bad = dataclasses.replace(op, expect=wrong)
        assert checks.Checker().check(item, bad, *session.run_op(item, bad)[1:])


def test_checks_catch_disagreeing_verdicts_and_exit_codes(session_for):
    session = session_for("certify_deep")
    item = _cheap_deep_item(session)
    op = item.ops[0]
    _, rc, out, report, csv_text = session.run_op(item, op)
    checker = checks.Checker()
    checker.verdicts[item.name] = "SPD"
    assert checker.check(item, op, rc, out, report, csv_text)
    assert checks.Checker().check(item, op, 0, out, report, csv_text)
    assert checks.Checker().check(item, op, 64, "spec error", None, None)


def test_missed_class_oracle():
    support = [workloads.pair(workloads.P(0, 1), workloads.O(4)),
               workloads.pair(workloads.P(1, 4), workloads.P(1, 2))]
    assert [t["base"] for t in checks.tail_k_terms(support, 5, "odd")] == [1]
    assert [t["base"] for t in checks.tail_k_terms(support, 4, "even")] == [0]
    assert checks.hits_class(workloads.P(1, 4), 4, 3)  # -1 = 3 mod 4
    assert not checks.hits_class(workloads.P(1, 4), 4, 2)
    assert checks.hits_class(workloads.O(7), 5, 3)  # -7 = 3 mod 5


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify_deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
