"""Output checks for every benchmark operation.

Each check reads the operation's exit code and its JSON report.  Constructed expectations (verdict, first failing gamma and
parity, PD) come from the workload generator; missed residue classes are
re-derived here with modular arithmetic, independent of the library.
Values that must repeat (verdicts, lambda_min, witness residuals) are
compared across every operation on the same spec.
"""

from __future__ import annotations

from math import gcd
from typing import Optional

EXIT = {"SPD": 0, "NotSPD": 1, "SufficientOnly": 2, "Inconclusive": 2}
PARTIAL = ("SufficientOnly", "Inconclusive")
WITNESS_TOL = 1e-10
EXACT_KINDS = ("parity", "progression", "composed")


def tail_k_terms(support: list, gamma: int, parity: str) -> list:
    """k-terms whose l-term holds a member >= gamma of the parity."""
    out = []
    for term in support:
        lt = term["l"]
        if lt["type"] == "prog":
            ok = parity == "any" or lt["step"] % 2 == 1 or lt["base"] % 2 == (parity == "odd")
        else:
            v = lt["value"]
            ok = v >= gamma and (parity == "any" or v % 2 == (parity == "odd"))
        if ok:
            out.append(term["k"])
    return out


def hits_class(term: dict, n: int, j: int) -> bool:
    """Whether +/- the term's members meet the class j mod n."""
    for target in (j % n, (-j) % n):
        if term["type"] == "one":
            if term["value"] % n == target:
                return True
        elif (target - term["base"]) % gcd(term["step"], n) == 0:
            return True
    return False


class Checker:
    """Checks each operation and keeps what later operations are compared with."""

    def __init__(self) -> None:
        self.verdicts: dict[str, str] = {}
        self.repeats: dict[tuple[str, str], object] = {}
        self.witness_ops = 0
        self.witness_exact = 0
        self.witness_searched = 0

    def refuted(self, item_name: str) -> bool:
        return self.verdicts.get(item_name) == "NotSPD"

    def check(self, item, op, rc: int, out: str, report: Optional[dict],
              csv_text: Optional[str]) -> list[str]:
        """Problems found in one operation's output; empty when it is correct."""
        if report is None:
            return [f"exit {rc} and no report: {out.strip()[-200:]}"]
        problems: list[str] = []
        getattr(self, "_" + op.command)(item, op, rc, out, report, csv_text, problems)
        return problems

    def _agree(self, item, verdict: str, problems: list[str]) -> None:
        seen = self.verdicts.setdefault(item.name, verdict)
        if seen != verdict:
            problems.append(f"verdict {verdict} differs from earlier {seen}")

    def _repeat(self, key: tuple[str, str], value, problems: list[str]) -> None:
        seen = self.repeats.setdefault(key, value)
        if seen != value:
            problems.append(f"{key[1]} {value!r} differs from earlier {seen!r}")

    def _exit(self, rc: int, verdict: str, problems: list[str]) -> None:
        if rc != EXIT[verdict]:
            problems.append(f"exit {rc} for verdict {verdict}")

    def _expected(self, item, cert: dict, expect: Optional[dict], problems: list[str]) -> None:
        if not expect or "verdict" not in expect:
            return
        if cert["verdict"] != expect["verdict"]:
            problems.append(f"verdict {cert['verdict']}, constructed {expect['verdict']}")
            return
        if expect["verdict"] != "NotSPD" or "gamma" not in expect:
            return
        ce = cert["counterexample"] or {}
        got = (ce.get("type"), ce.get("gamma"), ce.get("parity"))
        want = ("gamma-failure", expect["gamma"], expect["parity"])
        if got != want:
            problems.append(f"first failure {got}, constructed {want}")
            return
        w = ce.get("witness")
        if w is None:
            problems.append("gamma failure without a missed class")
            return
        terms = tail_k_terms(item.spec["support"], ce["gamma"], ce["parity"])
        hit = [t for t in terms if hits_class(t, w["modulus"], w["residue"])]
        if hit:
            problems.append(f"class {w['residue']} mod {w['modulus']} is hit by {hit[0]}")

    def _certify(self, item, op, rc, out, report, csv_text, problems) -> None:
        verdict = report["verdict"]
        self._exit(rc, verdict, problems)
        if "--method" in op.args:
            if verdict not in PARTIAL:
                problems.append(f"sufficient test returned {verdict}")
            refuted = (op.expect or {}).get("verdict") == "NotSPD" or self.refuted(item.name)
            if refuted and verdict != "Inconclusive":
                problems.append(f"sufficient test says {verdict} on a refuted support")
            return
        self._agree(item, verdict, problems)
        self._expected(item, report, op.expect, problems)

    def _crosscheck(self, item, op, rc, out, report, csv_text, problems) -> None:
        tail, loop = report["tail_sets"], report["gamma_loop"]
        if report["coherent"] is not True:
            problems.append("crosscheck reports incoherent certifiers")
            return
        if tail["verdict"] != loop["verdict"]:
            problems.append(f"tail sets {tail['verdict']} but gamma loop {loop['verdict']}")
        self._exit(rc, tail["verdict"], problems)
        self._agree(item, tail["verdict"], problems)
        self._expected(item, tail, op.expect, problems)
        self._expected(item, loop, op.expect, problems)
        for axis, cert in report["sufficient"].items():
            if cert["verdict"] not in PARTIAL:
                problems.append(f"sufficient {axis} returned {cert['verdict']}")

    def _gram(self, item, op, rc, out, report, csv_text, problems) -> None:
        pd, lam = report["positive_definite"], report["lambda_min"]
        if rc != (0 if pd else 1):
            problems.append(f"gram exit {rc} with positive_definite={pd}")
        if (op.expect or {}).get("pd") and not (pd and lam > 0):
            problems.append(f"gram not PD on an SPD support: lambda_min={lam}")
        self._repeat((item.name, op.label), lam, problems)
        if op.csv:
            rows = (csv_text or "").strip().splitlines()
            if len(rows) != report["points"] or rows[0] != "n,lambda_min":
                problems.append(f"csv has {len(rows)} lines for {report['points']} points")
            elif float(rows[-1].split(",")[1]) != lam:
                problems.append("csv last row differs from lambda_min")

    def _witness(self, item, op, rc, out, report, csv_text, problems) -> None:
        verdict = report["verdict"]
        self._exit(rc, verdict, problems)
        self._agree(item, verdict, problems)
        self._expected(item, report, op.expect, problems)
        w = report["witness"]
        if verdict != "NotSPD":
            return
        if w is None:
            problems.append("no witness for a refuted support")
            return
        exact = abs(w["residual"]) <= WITNESS_TOL * w["scale"]
        self.witness_ops += 1
        self.witness_exact += exact
        self.witness_searched += w["kind"] == "searched"
        if w["kind"] in EXACT_KINDS and not exact:
            problems.append(f"{w['kind']} witness residual {w['residual']:.3e} "
                            f"against scale {w['scale']:.3e}")
        self._repeat((item.name, op.label), w["residual"], problems)
