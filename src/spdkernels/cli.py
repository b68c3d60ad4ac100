"""Command-line front end: certify, eval, gram, witness, crosscheck.

Spec files are JSON with fields "space", "support", "scheme", "truncation"
and "seed"; support terms serialize as {"type": "prog", "base": a, "step": n}
or {"type": "one", "value": v}, paired under "k"/"l" on product spaces.
Reports are JSON with stable key order; timestamps are emitted unless
--no-timestamp is given, so identical inputs yield byte-identical reports
under that flag.

Exit codes: 0 SPD, 1 NotSPD, 2 SufficientOnly or Inconclusive, 64 spec-file
or usage error (an output path that cannot be written among them), 70
numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional

import numpy as np

from . import certify as cert_mod
from . import gram as gram_mod
from .certify import (
    Certificate,
    GammaFailure,
    ParityDeficit,
    QuadrantDeficit,
    Verdict,
)
from .errors import NotApplicableError, NumericalError, SamplingError, SpecFileError
from .geometry import sample_config
from .kernels import (
    _SPACE_KINDS,
    DEFAULT_TRUNCATION,
    CoefficientScheme,
    KernelSpec,
    SpaceDescriptor,
    eval_kernel,
    geometric_scheme,
)
from .supportsets import ProgressionWitness, SupportSet1D, SupportSet2D, Term1D

__all__ = ["main", "load_spec_file", "parse_spec_dict", "spec_file_to_dict", "SpecFile"]

EXIT_SPD = 0
EXIT_NOT_SPD = 1
EXIT_PARTIAL = 2
EXIT_SPEC_ERROR = 64
EXIT_NUMERICAL = 70

# Most points for `gram --csv`, which runs one eigensolve per leading block,
# O(n^4) in all: 512 points take a few seconds.
CSV_MAX_POINTS = 512


@dataclass(frozen=True)
class SpecFile:
    spec: KernelSpec
    seed: int


def _is_int(value) -> bool:
    """A JSON integer; JSON booleans load as Python bools, which are ints too."""
    return isinstance(value, int) and not isinstance(value, bool)


def _term_from_dict(data, where: str) -> Term1D:
    if not isinstance(data, dict) or "type" not in data:
        raise SpecFileError(where, "term must be an object with a 'type' field")
    kind = data["type"]
    if kind == "one":
        if set(data) != {"type", "value"}:
            raise SpecFileError(where, "singleton terms take exactly {'type', 'value'}")
        value = data["value"]
        if not _is_int(value) or value < 0:
            raise SpecFileError(f"{where}.value", "must be an integer >= 0")
        return Term1D(value, 0)
    if kind == "prog":
        if set(data) != {"type", "base", "step"}:
            raise SpecFileError(where, "progression terms take exactly {'type', 'base', 'step'}")
        base, step = data["base"], data["step"]
        if not _is_int(base) or base < 0:
            raise SpecFileError(f"{where}.base", "must be an integer >= 0")
        if not _is_int(step) or step < 1:
            raise SpecFileError(f"{where}.step", "must be an integer >= 1")
        return Term1D(base, step)
    raise SpecFileError(f"{where}.type", f"unknown term type {kind!r}")


def _term_to_dict(term: Term1D) -> dict:
    if term.is_progression:
        return {"type": "prog", "base": term.base, "step": term.step}
    return {"type": "one", "value": term.base}


# The numbers each scheme kind reads besides its kind, in the order they are
# checked; any other key is refused.  A missing number, and a missing scheme,
# take the library's default (``kernels.geometric_scheme``).  A space reads
# its kind and the kind's parameters in kernels._SPACE_KINDS, whose types a
# refusal names as _TYPE_NAMES says.
_SCHEME_FIELDS = {"constant": ("scale",), "geometric": ("scale", "r_k", "r_l")}
_DEFAULT_SCHEME = geometric_scheme()
_TYPE_NAMES = {int: "an integer", str: "a string"}


def _refuse_unknown_keys(data: dict, fields: set, where: str) -> None:
    unknown = sorted(set(data) - fields)
    if unknown:
        raise SpecFileError(f"{where}.{unknown[0]}", f"unknown field for a {data['kind']} {where}")


def _space_from_dict(data) -> SpaceDescriptor:
    if not isinstance(data, dict) or "kind" not in data:
        raise SpecFileError("space", "must be an object with a 'kind' field")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _SPACE_KINDS:
        raise SpecFileError("space.kind", f"unknown space kind {kind!r}")
    params = _SPACE_KINDS[kind].params
    _refuse_unknown_keys(data, {"kind", *params}, "space")
    for name in sorted(params):  # in name order, as unknown fields are named
        value = data.get(name)
        if name in data and (isinstance(value, bool) or not isinstance(value, params[name])):
            raise SpecFileError(f"space.{name}", f"must be {_TYPE_NAMES[params[name]]}")
    try:
        return SpaceDescriptor(kind, **{name: data.get(name) for name in params})
    except ValueError as exc:
        raise SpecFileError("space", str(exc)) from exc


def _space_to_dict(space: SpaceDescriptor) -> dict:
    params = _SPACE_KINDS[space.kind].params
    return {"kind": space.kind, **{name: getattr(space, name) for name in params}}


def _support_from_list(data, product: bool):
    if not isinstance(data, list):
        raise SpecFileError("support", "must be a list of terms")
    if product:
        pairs = []
        for i, entry in enumerate(data):
            if not isinstance(entry, dict) or set(entry) != {"k", "l"}:
                raise SpecFileError(f"support[{i}]", "product terms take exactly {'k', 'l'}")
            pairs.append(
                (_term_from_dict(entry["k"], f"support[{i}].k"),
                 _term_from_dict(entry["l"], f"support[{i}].l"))
            )
        return SupportSet2D(tuple(pairs))
    return SupportSet1D(tuple(_term_from_dict(e, f"support[{i}]") for i, e in enumerate(data)))


def _support_to_list(support) -> list:
    if isinstance(support, SupportSet2D):
        return [{"k": _term_to_dict(kt), "l": _term_to_dict(lt)} for kt, lt in support.terms]
    return [_term_to_dict(t) for t in support.terms]


def _scheme_number(data: dict, name: str) -> float:
    """A JSON number (not a boolean, not a string) as a float, the default
    scheme's when missing."""
    value = data.get(name, getattr(_DEFAULT_SCHEME, name))
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecFileError(f"scheme.{name}", "must be a number")
    try:
        return float(value)
    except OverflowError as exc:
        raise SpecFileError(f"scheme.{name}", "is too large for a float") from exc


def _scheme_from_dict(data) -> CoefficientScheme:
    if not isinstance(data, dict) or "kind" not in data:
        raise SpecFileError("scheme", "must be an object with a 'kind' field")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _SCHEME_FIELDS:
        raise SpecFileError("scheme.kind", f"unknown scheme kind {kind!r}")
    _refuse_unknown_keys(data, {"kind", *_SCHEME_FIELDS[kind]}, "scheme")
    numbers = {name: _scheme_number(data, name) for name in _SCHEME_FIELDS[kind]}
    try:
        return CoefficientScheme(kind, **numbers)
    except ValueError as exc:
        raise SpecFileError("scheme", str(exc)) from exc


def _scheme_to_dict(scheme: CoefficientScheme) -> dict:
    return {"kind": scheme.kind, **{name: getattr(scheme, name) for name in _SCHEME_FIELDS[scheme.kind]}}


def parse_spec_dict(data: dict) -> SpecFile:
    if not isinstance(data, dict):
        raise SpecFileError("$", "spec file must hold a JSON object")
    unknown = set(data) - {"space", "support", "scheme", "truncation", "seed"}
    if unknown:
        raise SpecFileError("$", f"unknown fields {sorted(unknown)}")
    for required in ("space", "support"):
        if required not in data:
            raise SpecFileError(required, "field is required")
    space = _space_from_dict(data["space"])
    support = _support_from_list(data["support"], space.is_product)
    scheme = _scheme_from_dict(data["scheme"]) if "scheme" in data else _DEFAULT_SCHEME
    trunc = data.get("truncation", {})
    if not isinstance(trunc, dict) or set(trunc) - {"kmax", "lmax"}:
        raise SpecFileError("truncation", "takes {'kmax', 'lmax'}")
    kmax, lmax = trunc.get("kmax", DEFAULT_TRUNCATION[0]), trunc.get("lmax", DEFAULT_TRUNCATION[1])
    for name, bound in (("kmax", kmax), ("lmax", lmax)):
        if not _is_int(bound) or bound < 0:
            raise SpecFileError(f"truncation.{name}", "must be an integer >= 0")
    seed = data.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise SpecFileError("seed", "must be an integer >= 0")
    try:
        spec = KernelSpec(space, support, scheme, (kmax, lmax))
    except ValueError as exc:
        raise SpecFileError("$", str(exc)) from exc
    return SpecFile(spec, seed)


def spec_file_to_dict(sf: SpecFile) -> dict:
    return {
        "space": _space_to_dict(sf.spec.space),
        "support": _support_to_list(sf.spec.support),
        "scheme": _scheme_to_dict(sf.spec.scheme),
        "truncation": {"kmax": sf.spec.kmax, "lmax": sf.spec.lmax},
        "seed": sf.seed,
    }


def load_spec_file(path: str) -> SpecFile:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SpecFileError(path, f"cannot read spec file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecFileError(path, f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return parse_spec_dict(data)


def parse_space_flag(text: str) -> SpaceDescriptor:
    """Compact space override: the kind, then ``:ARG`` for each of its
    parameters in order: circle | sphere:M | circle_sphere:M |
    circle_tph:FAMILY:D."""
    kind, *args = text.split(":")
    params = _SPACE_KINDS[kind].params if kind in _SPACE_KINDS else None
    if params is not None and len(args) == len(params):
        for (name, to), arg in zip(params.items(), args):
            if to is int and not (arg.isascii() and arg.isdigit()):
                raise SpecFileError("--space", f"{name} takes the digits 0-9 alone, got {arg!r}")
        try:
            return SpaceDescriptor(
                kind, **{name: to(arg) for (name, to), arg in zip(params.items(), args)}
            )
        except ValueError as exc:
            raise SpecFileError("--space", str(exc)) from exc
    forms = [":".join([k, *map(str.upper, row.params)]) for k, row in _SPACE_KINDS.items()]
    raise SpecFileError(
        "--space", f"cannot parse {text!r}; use {', '.join(forms[:-1])} or {forms[-1]}"
    )


def _apply_space_override(sf: SpecFile, flag: Optional[str]) -> SpecFile:
    if flag is None:
        return sf
    space = parse_space_flag(flag)
    if space.is_product != sf.spec.space.is_product:
        raise SpecFileError("--space", "override must keep the support's term shape")
    try:
        spec = dataclasses.replace(sf.spec, space=space)
    except ValueError as exc:
        raise SpecFileError("--space", str(exc)) from exc
    return SpecFile(spec, sf.seed)


# The "type" tag of each counterexample class in a report.
_COUNTEREXAMPLE_TYPES = {
    ProgressionWitness: "progression",
    ParityDeficit: "parity-deficit",
    QuadrantDeficit: "quadrant-deficit",
    GammaFailure: "gamma-failure",
}


def _counterexample_to_dict(ce) -> Optional[dict]:
    """A counterexample's "type" tag and its dataclass fields; a field that
    holds a counterexample (a gamma failure's witness) is encoded alike."""
    if ce is None:
        return None
    if type(ce) not in _COUNTEREXAMPLE_TYPES:
        raise TypeError(f"unknown counterexample type {type(ce)!r}")
    report = {"type": _COUNTEREXAMPLE_TYPES[type(ce)]}
    for f in dataclasses.fields(ce):
        value = getattr(ce, f.name)
        report[f.name] = _counterexample_to_dict(value) if type(value) in _COUNTEREXAMPLE_TYPES else value
    return report


def _certificate_to_dict(cert: Certificate) -> dict:
    return {
        "verdict": cert.verdict.value,
        "method": cert.method,
        "trace": [dict(vars(t)) for t in cert.trace],
        "counterexample": _counterexample_to_dict(cert.counterexample),
    }


def _witness_report_to_dict(spec: KernelSpec, w: gram_mod.WitnessReport) -> dict:
    """The report's points in their JSON forms (``geometry._PointModel``);
    a product point's holds one form a slot, keyed by the slot's axis kind."""
    axes = [axis for axis in spec.space._axes if axis]
    forms = [gram_mod._POINT_CLASSES[axis].jsonable for axis in axes]
    if len(axes) == 1:
        points = list(map(forms[0], w.points))
    else:
        points = [{axis: form(x) for axis, form, x in zip(axes, forms, p)} for p in w.points]
    return {
        "kind": w.kind,
        "points": points,
        "coefficients": list(w.coefficients),
        "residual": w.residual,
        "scale": w.scale,
    }


def _describe_counterexample(ce) -> str:
    if isinstance(ce, ProgressionWitness):
        return f"missed residue class {ce.residue} mod {ce.modulus}"
    if isinstance(ce, ParityDeficit):
        return f"only finitely many {ce.parity} degrees"
    if isinstance(ce, QuadrantDeficit):
        quadrant = f"quadrant ({ce.k_parity} k, {ce.l_parity} l)"
        if ce.axis == "joint":
            return f"{quadrant} has no term unbounded on both axes"
        return f"{quadrant} has a bounded {ce.axis}-projection"
    if isinstance(ce, GammaFailure):
        if ce.empty:
            return f"gamma={ce.gamma} {ce.parity}-set empty"
        w = ce.witness
        return f"gamma={ce.gamma} {ce.parity}-set misses class {w.residue} mod {w.modulus}"
    return ""


def _report_text(value, newline: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, in one
    pass: each container is one join, where ``json``'s indenting encoder runs
    in pure Python and yields every token from a generator.  ``newline`` is
    the line break and indent that precede the value's closing bracket.

    Dicts need ``str`` keys.  Floats print with ``float.__repr__``, so a
    numpy float64 prints as a float.  Anything else ``json`` would refuse
    (a numpy integer, say) raises ``TypeError``.
    """
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        # a key that is no str fails in sorted or in encode_basestring_ascii
        items = [
            encode_basestring_ascii(k) + ": " + _report_text(v, inner)
            for k, v in sorted(value.items())
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_report_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_outputs(outputs: list[tuple[str, str, str]]) -> None:
    """Write each (path, flag, text) in order; a path that cannot be written
    is a usage error.  The paths after the first are opened for appending,
    which truncates nothing, before the first is written, so one that cannot
    be opened leaves the others as they were; files this call created are
    removed.  A lone output costs one open, as an operation's report does."""
    created = []
    try:
        for path, flag, _ in outputs[1:]:
            if not os.path.lexists(path):
                created.append(path)
            open(path, "a").close()
        for path, flag, text in outputs:
            Path(path).write_text(text)
    except OSError as exc:
        for made in created:
            Path(made).unlink(missing_ok=True)
        raise SpecFileError(flag, f"cannot write {flag[2:]} file: {exc}") from exc


def _emit(report: dict, args, csv_text: Optional[str] = None) -> None:
    if not getattr(args, "no_timestamp", False):
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    outputs = []
    if getattr(args, "json", None):
        outputs.append((args.json, "--json", _report_text(report) + "\n"))
    if csv_text is not None:
        outputs.append((args.csv, "--csv", csv_text))
    _write_outputs(outputs)


def _verdict_exit(verdict: Verdict) -> int:
    if verdict is Verdict.SPD:
        return EXIT_SPD
    if verdict is Verdict.NOT_SPD:
        return EXIT_NOT_SPD
    return EXIT_PARTIAL


def _load(args) -> SpecFile:
    gamma_max = getattr(args, "gamma_max", None)
    if gamma_max is not None and gamma_max < 0:
        raise SpecFileError("--gamma-max", f"{gamma_max} must be an integer >= 0")
    return _apply_space_override(load_spec_file(args.specfile), args.space)


# Each space kind's certifier, given the spec and --gamma-max, and witness
# builder, given the spec and its NotSPD certificate (None: no witness).  They
# look the functions up when called, so a tracer that rebinds them sees them.
_BY_KIND = {
    "circle": (lambda spec, gmax: cert_mod.certify_circle(spec.support),
               lambda spec, cert: gram_mod.witness_progression_circle(spec, cert.counterexample)),
    "sphere": (lambda spec, gmax: cert_mod.certify_sphere(spec.support, spec.space.m),
               lambda spec, cert: gram_mod.witness_parity_sphere(spec)),
    "circle_sphere": (lambda spec, gmax: cert_mod.certify_circle_sphere(spec.support, spec.space.m, gmax),
                      lambda spec, cert: gram_mod.witness_product(spec, cert)),
    "circle_tph": (lambda spec, gmax: cert_mod.certify_circle_tph(spec.support, spec.space, gmax),
                   lambda spec, cert: None),
}


def _run_certifier(sf: SpecFile, args) -> Certificate:
    """The certificate ``certify`` and ``witness`` report.  ``--gamma-max``
    is refused where no tail-cutoff sweep reads it: a sufficient test, or a
    one-axis space."""
    spec = sf.spec
    method = getattr(args, "method", "auto")
    gamma_max = getattr(args, "gamma_max", None)
    if gamma_max is not None and (method != "auto" or not spec.space.is_product):
        unread = f"--method {method}" if method != "auto" else f"a {spec.space.kind} space"
        raise SpecFileError("--gamma-max", f"{unread} sweeps no tail cutoff")
    if method in ("sufficient-circle-outer", "sufficient-sphere-outer"):
        if spec.space._axes != ("circle", "sphere"):
            raise SpecFileError("space", "the sufficient test needs a circle_sphere space")
        axis = "circle-outer" if method.endswith("circle-outer") else "sphere-outer"
        return cert_mod.sufficient_product(spec.support, spec.space.m, axis)
    return _BY_KIND[spec.space.kind][0](spec, gamma_max)


def _cmd_certify(args) -> int:
    sf = _load(args)
    cert = _run_certifier(sf, args)
    report = {
        "space": _space_to_dict(sf.spec.space),
        "support": _support_to_list(sf.spec.support),
        **_certificate_to_dict(cert),
    }
    _emit(report, args)
    desc = _describe_counterexample(cert.counterexample)
    line = f"{cert.verdict.value} ({cert.method})"
    if desc:
        line += f": {desc}"
    print(line)
    return _verdict_exit(cert.verdict)


def _cmd_eval(args) -> int:
    sf = _load(args)
    value = eval_kernel(sf.spec, args.t, args.s)
    report = {"value": value, "t": args.t, "s": args.s}
    _emit(report, args)
    print(value)
    return EXIT_SPD


def _sample_points(spec: KernelSpec, n: int, seed: int):
    gram_mod._check_coordinates("gram", n, spec)  # refuses before any draw
    m = spec.space.m if spec.space.m is not None else 2
    # the circle angles are drawn first: a spec with no sphere slot skips the
    # sphere draws, and one with no circle slot still draws (and drops) them
    return gram_mod._join_points(spec, sample_config(m, n, n if spec.space._axes[1] else 0, seed))


def _check_gram_flags(args) -> None:
    """Refuse point counts below one or past the budgets, negative seeds and
    tolerances that decide nothing, before any spec is loaded or point
    sampled."""
    if args.points < 1:
        raise SpecFileError("--points", f"{args.points} must be an integer >= 1")
    if args.seed is not None and args.seed < 0:
        raise SpecFileError("--seed", f"{args.seed} must be an integer >= 0")
    if args.points > gram_mod.MAX_POINTS:
        raise SpecFileError("--points", f"{args.points} points is past the limit of {gram_mod.MAX_POINTS}")
    if args.csv and args.points > CSV_MAX_POINTS:
        raise SpecFileError(
            "--csv", f"{args.points} points is past the limit of {CSV_MAX_POINTS} for the per-block curve"
        )
    try:
        gram_mod._check_tol(args.tol)
    except ValueError as exc:
        raise SpecFileError("--tol", str(exc)) from None


def _cmd_gram(args) -> int:
    _check_gram_flags(args)
    sf = _load(args)
    spec = sf.spec
    if args.trunc is not None:
        spec = dataclasses.replace(spec, truncation=args.trunc)
    seed = args.seed if args.seed is not None else sf.seed
    points = _sample_points(spec, args.points, seed)
    a = gram_mod.gram_matrix(spec, points)
    ok, lam_min = gram_mod.check_pd(a, args.tol)
    report = {
        "points": args.points,
        "seed": seed,
        "tol": args.tol,
        "positive_definite": ok,
        "lambda_min": lam_min,
    }
    csv_text = None
    if args.csv:
        lines = ["n,lambda_min"]
        for n in range(2, args.points + 1):
            _, lam = gram_mod.check_pd(a[:n, :n], args.tol)
            lines.append(f"{n},{lam!r}")
        csv_text = "\n".join(lines) + "\n"
    _emit(report, args, csv_text)
    print(f"lambda_min = {lam_min:.6e} ({'PD' if ok else 'not PD'} at tol {args.tol})")
    return EXIT_SPD if ok else EXIT_NOT_SPD


def _cmd_witness(args) -> int:
    sf = _load(args)
    spec = sf.spec
    cert = _run_certifier(sf, args)
    report = {
        "space": _space_to_dict(spec.space),
        **_certificate_to_dict(cert),
        "witness": None,
    }
    if cert.verdict is Verdict.NOT_SPD:
        wr = _BY_KIND[spec.space.kind][1](spec, cert)
        if wr is not None:
            report["witness"] = _witness_report_to_dict(spec, wr)
            line = f"witness kind={wr.kind} residual={wr.residual:.3e} scale={wr.scale:.3e}"
        else:
            line = "no witness generator applies to this space"
    else:
        line = f"{cert.verdict.value}: no degeneracy witness to build"
    _emit(report, args)
    print(line)
    return _verdict_exit(cert.verdict)


def _cmd_crosscheck(args) -> int:
    sf = _load(args)
    spec = sf.spec
    if spec.space._axes != ("circle", "sphere"):
        raise SpecFileError("space", "crosscheck needs a circle_sphere space")
    gamma_max = getattr(args, "gamma_max", None)
    routes = {
        "tail-sets": (cert_mod.certify_circle_sphere, gamma_max),
        "gamma-loop": (cert_mod.certify_circle_sphere_gamma_loop, gamma_max),
        "circle-outer": (cert_mod.sufficient_product, "circle-outer"),
        "sphere-outer": (cert_mod.sufficient_product, "sphere-outer"),
    }
    certs = {}
    for name, (certifier, arg) in routes.items():
        try:
            certs[name] = certifier(spec.support, spec.space.m, arg)
        except NotApplicableError as exc:
            raise NotApplicableError(f"{exc}; the {name} route refused") from None
    first, second, *sufficient = certs.values()
    report = {
        "space": _space_to_dict(spec.space),
        "tail_sets": _certificate_to_dict(first),
        "gamma_loop": _certificate_to_dict(second),
        "sufficient": {k: _certificate_to_dict(certs[k]) for k in ("circle-outer", "sphere-outer")},
    }
    coherent = first.verdict == second.verdict
    for cert in sufficient:
        if cert.verdict is Verdict.SUFFICIENT_ONLY and first.verdict is not Verdict.SPD:
            coherent = False
    report["coherent"] = coherent
    _emit(report, args)
    print(" ".join(f"{name}={cert.verdict.value}" for name, cert in certs.items()))
    if not coherent:
        print("certifier implementations disagree", file=sys.stderr)
        return EXIT_NUMERICAL
    return _verdict_exit(first.verdict)


def _parse_trunc(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("truncation must look like K,L")
    try:
        kmax, lmax = int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise argparse.ArgumentTypeError("truncation bounds must be integers") from exc
    if kmax < 0 or lmax < 0:
        raise argparse.ArgumentTypeError("truncation bounds must be >= 0")
    return kmax, lmax


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 64, like spec-file errors, not argparse's 2, which
    would read as a partial verdict."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_SPEC_ERROR, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every ``main``
    call of the process (parsing leaves it unchanged)."""
    parser = _Parser(
        prog="spdkernels",
        description="certify strict positive definiteness of isotropic kernel supports",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("specfile", help="path to a JSON kernel spec")
        p.add_argument("--json", metavar="PATH", help="write a JSON report here")
        p.add_argument("--no-timestamp", action="store_true", help="omit the report timestamp")
        p.add_argument(
            "--space",
            default=None,
            metavar="KIND[:ARGS]",
            help="override the spec file space, e.g. sphere:3 or circle_tph:cayley:16",
        )

    p_cert = sub.add_parser("certify", help="run the certifier matching the space kind")
    common(p_cert)
    p_cert.add_argument("--gamma-max", type=int, default=None, help="raise the tail-cutoff bound")
    p_cert.add_argument(
        "--method",
        choices=["auto", "sufficient-circle-outer", "sufficient-sphere-outer"],
        default="auto",
        help="certifier selection; the sufficient tests may return partial verdicts",
    )

    p_eval = sub.add_parser("eval", help="evaluate the truncated kernel at (t, s)")
    common(p_eval)
    p_eval.add_argument(
        "--t", type=float, required=True,
        help="the circle argument cos(theta), or the dot product on a sphere spec",
    )
    p_eval.add_argument(
        "--s", type=float, default=None, help="the sphere dot product, for product specs only"
    )

    p_gram = sub.add_parser("gram", help="assemble a Gram matrix at sampled points and test it")
    common(p_gram)
    p_gram.add_argument("--seed", type=int, default=None, help="override the spec file seed")
    p_gram.add_argument("--points", type=int, default=20, help="number of sampled points")
    p_gram.add_argument("--trunc", type=_parse_trunc, default=None, metavar="K,L")
    p_gram.add_argument("--tol", type=float, default=1e-10)
    p_gram.add_argument("--csv", metavar="PATH", help="write (n, lambda_min) rows here")

    p_wit = sub.add_parser("witness", help="build a degeneracy witness for a refuted support")
    common(p_wit)
    p_wit.add_argument("--gamma-max", type=int, default=None)

    p_cross = sub.add_parser("crosscheck", help="run both product certifiers and the sufficient tests")
    common(p_cross)
    p_cross.add_argument("--gamma-max", type=int, default=None)

    return parser


_COMMANDS = {
    "certify": _cmd_certify,
    "eval": _cmd_eval,
    "gram": _cmd_gram,
    "witness": _cmd_witness,
    "crosscheck": _cmd_crosscheck,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # the library warns through ``warnings``, whose default display names
    # the source file and line; the command line prints each message once
    with warnings.catch_warnings(record=True) as caught:
        try:
            return _COMMANDS[args.command](args)
        except SpecFileError as exc:
            print(f"spec error: {exc}", file=sys.stderr)
            return EXIT_SPEC_ERROR
        except (NotApplicableError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_SPEC_ERROR
        except (NumericalError, SamplingError, np.linalg.LinAlgError) as exc:
            print(f"numerical error: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"warning: {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
