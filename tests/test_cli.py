"""Command-line interface: parsing, reports, exit codes."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from conftest import SPACE_EXAMPLES
from hypothesis import strategies as st

from spdkernels import (
    CirclePoint,
    KernelSpec,
    SpaceDescriptor,
    SpecFileError,
    SpherePoint,
    SupportSet1D,
    SupportSet2D,
    check_pd,
    gram_matrix,
    prog,
    sample_config,
)
from spdkernels.cli import (
    _report_text,
    load_spec_file,
    main,
    parse_space_flag,
    parse_spec_dict,
    spec_file_to_dict,
)
from spdkernels.kernels import _SPACE_KINDS

FULL_PRODUCT = {
    "space": {"kind": "circle_sphere", "m": 2},
    "support": [
        {"k": {"type": "prog", "base": 0, "step": 1},
         "l": {"type": "prog", "base": 0, "step": 1}}
    ],
    "scheme": {"kind": "geometric", "r_k": 0.9, "r_l": 0.9, "scale": 1.0},
    "truncation": {"kmax": 30, "lmax": 30},
    "seed": 5,
}

EVENS_CIRCLE = {
    "space": {"kind": "circle"},
    "support": [{"type": "prog", "base": 0, "step": 2}],
    "seed": 0,
}


def write_spec(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


# --- spec file parsing ---------------------------------------------------------

def test_round_trip():
    sf = parse_spec_dict(FULL_PRODUCT)
    assert sf.seed == 5
    assert sf.spec.space.m == 2
    assert sf.spec.kmax == 30
    assert spec_file_to_dict(sf) == FULL_PRODUCT


def test_defaults_fill_in():
    sf = parse_spec_dict(EVENS_CIRCLE)
    assert sf.spec.scheme.kind == "geometric"
    assert sf.spec.truncation == (60, 60)
    assert sf.spec.support.terms == (prog(0, 2),)


@pytest.mark.parametrize("kind", sorted(SPACE_EXAMPLES))
def test_a_spec_of_space_and_support_alone_takes_the_library_defaults(kind):
    space = SpaceDescriptor(kind, **SPACE_EXAMPLES[kind])
    if space.is_product:
        support = SupportSet2D(((prog(0, 1), prog(0, 2)),))
        terms = [{"k": {"type": "prog", "base": 0, "step": 1}, "l": {"type": "prog", "base": 0, "step": 2}}]
    else:
        support = SupportSet1D((prog(0, 2),))
        terms = [{"type": "prog", "base": 0, "step": 2}]
    sf = parse_spec_dict({"space": {"kind": kind, **SPACE_EXAMPLES[kind]}, "support": terms})
    assert sf.spec == KernelSpec(space, support)
    assert sf.seed == 0


def test_rejects_unknown_fields():
    data = dict(FULL_PRODUCT, extra=1)
    with pytest.raises(SpecFileError, match="unknown fields"):
        parse_spec_dict(data)


def test_rejects_bad_terms():
    data = dict(EVENS_CIRCLE, support=[{"type": "prog", "base": -1, "step": 2}])
    with pytest.raises(SpecFileError, match="base"):
        parse_spec_dict(data)
    data = dict(EVENS_CIRCLE, support=[{"type": "arc", "base": 0}])
    with pytest.raises(SpecFileError, match="unknown term type"):
        parse_spec_dict(data)


def test_rejects_mixed_support_shape():
    data = dict(FULL_PRODUCT, support=[{"type": "one", "value": 3}])
    with pytest.raises(SpecFileError):
        parse_spec_dict(data)


def test_load_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"space": }')
    with pytest.raises(SpecFileError, match="line 1"):
        load_spec_file(str(path))


def test_tph_space_round_trip():
    data = {
        "space": {"kind": "circle_tph", "family": "quat_proj", "d": 8},
        "support": [
            {"k": {"type": "prog", "base": 0, "step": 1},
             "l": {"type": "one", "value": 4}}
        ],
        "seed": 1,
    }
    sf = parse_spec_dict(data)
    assert sf.spec.space.family == "quat_proj"
    assert spec_file_to_dict(sf)["space"] == data["space"]


def _spec_for(kind):
    """A spec file, every field written out, on the example space of a kind."""
    space = {"kind": kind, **SPACE_EXAMPLES[kind]}
    if SpaceDescriptor(**space).is_product:
        return dict(FULL_PRODUCT, space=space)
    return dict(FULL_PRODUCT, space=space, support=[{"type": "prog", "base": 1, "step": 2}])


@pytest.mark.parametrize("kind", list(_SPACE_KINDS))
def test_every_space_kind_round_trips_through_a_spec_file(tmp_path, kind):
    data = _spec_for(kind)
    sf = load_spec_file(write_spec(tmp_path, data))
    assert sf.spec.space == SpaceDescriptor(kind, **SPACE_EXAMPLES[kind])
    written = spec_file_to_dict(sf)
    assert written == data
    assert list(written["space"]) == ["kind", *_SPACE_KINDS[kind].params]


SPACE_GRAMMAR = "use circle, sphere:M, circle_sphere:M or circle_tph:FAMILY:D"


@pytest.mark.parametrize("kind", list(_SPACE_KINDS))
def test_space_flag_takes_one_argument_per_parameter(tmp_path, capsys, kind):
    flag = ":".join([kind, *map(str, SPACE_EXAMPLES[kind].values())])
    space = SpaceDescriptor(kind, **SPACE_EXAMPLES[kind])
    assert parse_space_flag(flag) == space
    path = write_spec(tmp_path, _spec_for(kind))
    out = tmp_path / "r.json"
    argv = ["certify", path, "--space", flag, "--json", str(out), "--no-timestamp"]
    assert main(argv) in (0, 1, 2)
    assert json.loads(out.read_text())["space"] == {"kind": kind, **SPACE_EXAMPLES[kind]}
    capsys.readouterr()
    wrong = [flag + ":7"] + ([flag.rsplit(":", 1)[0]] if SPACE_EXAMPLES[kind] else [])
    for text in wrong:
        assert main(["certify", path, "--space", text]) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"spec error: --space: cannot parse {text!r}; {SPACE_GRAMMAR}\n"


# Each kind's example spec (``_spec_for``), the same spec with the support
# of the other verdict, and with no support, through certify, eval,
# gram --points 6 and witness: the exit code and the line printed, on
# stdout (stderr for an exit of 64).  Eval lines are numbers, compared to
# round-off; a witness residual of round-off size is written "~".
KIND_SUPPORTS = {
    "flipped": {
        False: [{"type": "prog", "base": 0, "step": 1}],
        True: [{"k": {"type": "prog", "base": 0, "step": 2}, "l": {"type": "prog", "base": 0, "step": 1}}],
    },
    "empty": {False: [], True: []},
}
NO_TPH_POINTS = (64, "error: no geometric point model for circle_tph")
SPD_WITNESS = (0, "SPD: no degeneracy witness to build")
KIND_COMMANDS = {
    ("circle", "example"): {
        "certify": (1, "NotSPD (circle-residue-classes): missed residue class 0 mod 2"),
        "eval": (0, 0.3080485606686151),
        "gram": (0, "lambda_min = 7.311792e-03 (PD at tol 1e-10)"),
        "witness": (1, "witness kind=progression residual=0.000e+00 scale=5.868e+00"),
    },
    ("circle", "flipped"): {
        "certify": (0, "SPD (circle-residue-classes)"),
        "eval": (0, 0.7626059604494098),
        "gram": (0, "lambda_min = 2.522974e-02 (PD at tol 1e-10)"),
        "witness": SPD_WITNESS,
    },
    ("circle", "empty"): {
        "certify": (1, "NotSPD (circle-residue-classes): missed residue class 0 mod 1"),
        "eval": (0, 0.0),
        "gram": (1, "lambda_min = 0.000000e+00 (not PD at tol 1e-10)"),
        "witness": (1, "witness kind=progression residual=0.000e+00 scale=0.000e+00"),
    },
    ("sphere", "example"): {
        "certify": (1, "NotSPD (sphere-parity-count): only finitely many even degrees"),
        "eval": (0, 0.17969236735822458),
        "gram": (0, "lambda_min = 3.506525e+01 (PD at tol 1e-10)"),
        "witness": (1, "witness kind=parity residual=0.000e+00 scale=8.345e+01"),
    },
    ("sphere", "flipped"): {
        "certify": (0, "SPD (sphere-parity-count)"),
        "eval": (0, 0.8056707971984046),
        "gram": (0, "lambda_min = 7.069461e+01 (PD at tol 1e-10)"),
        "witness": SPD_WITNESS,
    },
    ("sphere", "empty"): {
        "certify": (1, "NotSPD (sphere-parity-count): only finitely many even degrees"),
        "eval": (0, 0.0),
        "gram": (1, "lambda_min = 0.000000e+00 (not PD at tol 1e-10)"),
        "witness": (1, "witness kind=parity residual=0.000e+00 scale=0.000e+00"),
    },
    ("circle_sphere", "example"): {
        "certify": (0, "SPD (product-parity-tail-sets)"),
        "eval": (0, 0.6309248922657659),
        "gram": (0, "lambda_min = 5.051147e+01 (PD at tol 1e-10)"),
        "witness": SPD_WITNESS,
    },
    ("circle_sphere", "flipped"): {
        "certify": (1, "NotSPD (product-parity-tail-sets): gamma=0 odd-set misses class 1 mod 2"),
        "eval": (0, 0.3760678428428437),
        "gram": (0, "lambda_min = 2.107906e+01 (PD at tol 1e-10)"),
        "witness": (1, "witness kind=composed residual=~ scale=1.020e+02"),
    },
    ("circle_sphere", "empty"): {
        "certify": (1, "NotSPD (product-parity-tail-sets): gamma=0 odd-set empty"),
        "eval": (0, 0.0),
        "gram": (1, "lambda_min = 0.000000e+00 (not PD at tol 1e-10)"),
        "witness": (1, "witness kind=composed residual=0.000e+00 scale=0.000e+00"),
    },
    ("circle_tph", "example"): {
        "certify": (0, "SPD (tph-tail-sets)"),
        "eval": (0, 1.4867037632476847),
        "gram": NO_TPH_POINTS,
        "witness": SPD_WITNESS,
    },
    ("circle_tph", "flipped"): {
        "certify": (1, "NotSPD (tph-tail-sets): gamma=0 any-set misses class 1 mod 2"),
        "eval": (0, 0.8861617033099768),
        "gram": NO_TPH_POINTS,
        "witness": (1, "no witness generator applies to this space"),
    },
    ("circle_tph", "empty"): {
        "certify": (1, "NotSPD (tph-tail-sets): gamma=0 any-set empty"),
        "eval": (0, 0.0),
        "gram": NO_TPH_POINTS,
        "witness": (1, "no witness generator applies to this space"),
    },
}


DEGENERATE = "warning: degenerate kernel spec: effective support is empty, evaluating to 0\n"
# the commands that evaluate the kernel of an empty support, and say so on stderr
WARNS_WHEN_EMPTY = {
    ("circle", "eval"), ("circle", "witness"), ("circle", "gram"),
    ("sphere", "eval"), ("sphere", "witness"), ("sphere", "gram"),
    ("circle_sphere", "eval"), ("circle_sphere", "witness"), ("circle_sphere", "gram"),
    ("circle_tph", "eval"),
}


@pytest.mark.parametrize("support", ["example", "flipped", "empty"])
@pytest.mark.parametrize("kind", list(SPACE_EXAMPLES))
def test_every_space_kind_through_every_command(tmp_path, capsys, kind, support):
    data = _spec_for(kind)
    product = SpaceDescriptor(**data["space"]).is_product
    if support != "example":
        data = dict(data, support=KIND_SUPPORTS[support][product])
    path = write_spec(tmp_path, data)
    argvs = {
        "certify": ["certify", path],
        "eval": ["eval", path, "--t", "0.3", *(["--s", "0.2"] if product else [])],
        "gram": ["gram", path, "--points", "6"],
        "witness": ["witness", path],
    }
    for command, (code, line) in KIND_COMMANDS[kind, support].items():
        assert main(argvs[command]) == code, command
        captured = capsys.readouterr()
        out, quiet = (captured.err, captured.out) if code == 64 else (captured.out, captured.err)
        warned = support == "empty" and (kind, command) in WARNS_WHEN_EMPTY
        assert quiet == (DEGENERATE if warned else ""), command
        if command == "eval":
            assert float(out) == pytest.approx(line, rel=1e-13, abs=0.0)
        elif "residual=~" in line:
            prefix, rest = line.split("~")
            assert out.startswith(prefix) and out.endswith(rest + "\n"), out
            residual, scale = out[len(prefix) : -len(rest) - 1], float(rest.split("=")[1])
            assert abs(float(residual)) <= 1e-10 * scale
        else:
            assert out == line + "\n", command


@pytest.mark.parametrize("command", [["eval", "--t", "0.3"], ["witness"]])
def test_a_degenerate_spec_warns_in_one_line_that_names_no_source(tmp_path, capsys, command):
    path = write_spec(tmp_path, {"space": {"kind": "circle"}, "support": []})
    main([command[0], path, *command[1:]])
    err = capsys.readouterr().err
    assert err == DEGENERATE
    assert ".py:" not in err


@pytest.mark.filterwarnings("ignore:degenerate kernel spec")
def test_an_ignored_warning_prints_nothing(tmp_path, capsys):
    path = write_spec(tmp_path, {"space": {"kind": "circle"}, "support": []})
    assert main(["eval", path, "--t", "0.3"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "text, message",
    [
        ("sphere:1", "invalid dimension m=1 for sphere: need m >= 2"),
        ("circle_sphere:two", "m takes the digits 0-9 alone, got 'two'"),
        ("sphere:1_0", "m takes the digits 0-9 alone, got '1_0'"),
        ("sphere:+4", "m takes the digits 0-9 alone, got '+4'"),
        ("sphere: 3", "m takes the digits 0-9 alone, got ' 3'"),
        ("sphere:", "m takes the digits 0-9 alone, got ''"),
        ("circle_tph:cayley:1_6", "d takes the digits 0-9 alone, got '1_6'"),
        ("circle_sphere:\u0663", "m takes the digits 0-9 alone, got '\u0663'"),
        ("circle_tph:octonion:16", "unknown projective family 'octonion'; expected one of"),
        ("circle_tph:cayley:8", "invalid dimension d=8 for family 'cayley'"),
        ("torus:2", "cannot parse 'torus:2'; " + SPACE_GRAMMAR),
    ],
)
def test_space_flag_names_what_is_wrong(text, message):
    with pytest.raises(SpecFileError) as info:
        parse_space_flag(text)
    assert str(info.value).startswith(f"--space: {message}")


# --- command behavior --------------------------------------------------------------

def test_certify_spd_exit_zero(tmp_path, capsys):
    path = write_spec(tmp_path, FULL_PRODUCT)
    assert main(["certify", path]) == 0
    assert "SPD" in capsys.readouterr().out


def test_certify_refusal_exit_one(tmp_path, capsys):
    path = write_spec(tmp_path, EVENS_CIRCLE)
    assert main(["certify", path]) == 1
    out = capsys.readouterr().out
    assert "NotSPD" in out and "1 mod 2" in out


def test_certify_sufficient_exit_two(tmp_path):
    path = write_spec(tmp_path, FULL_PRODUCT)
    assert main(["certify", path, "--method", "sufficient-circle-outer"]) == 2


def test_certify_bad_spec_exit_sixtyfour(tmp_path, capsys):
    path = write_spec(tmp_path, {"space": {"kind": "moebius"}})
    assert main(["certify", path]) == 64
    assert "spec error" in capsys.readouterr().err


def test_certify_missing_file_exit_sixtyfour(tmp_path):
    assert main(["certify", str(tmp_path / "absent.json")]) == 64


@pytest.mark.parametrize(
    "command, flag",
    [
        (["certify"], "--json"),
        (["witness"], "--json"),
        (["crosscheck"], "--json"),
        (["eval", "--t", "0.5", "--s", "0.5"], "--json"),
        (["gram", "--points", "4"], "--json"),
        (["gram", "--points", "4"], "--csv"),
    ],
)
def test_unwritable_output_path_exit_sixtyfour(tmp_path, capsys, command, flag):
    path = write_spec(tmp_path, FULL_PRODUCT)
    target = tmp_path / "no" / "such" / "dir" / "out"
    assert main([command[0], path, *command[1:], flag, str(target)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""  # no result is printed for a command that failed
    err = captured.err
    assert err.startswith(f"spec error: {flag}: cannot write {flag[2:]} file: [Errno 2] ")
    assert str(target) in err


def test_witness_with_unwritable_report_prints_no_witness(tmp_path, capsys):
    path = write_spec(tmp_path, EVENS_CIRCLE)
    target = tmp_path / "no" / "such" / "dir" / "out"
    assert main(["witness", path, "--json", str(target)]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("spec error: --json: cannot write json file")


def test_gram_with_unwritable_csv_leaves_no_report(tmp_path, capsys):
    path = write_spec(tmp_path, FULL_PRODUCT)
    report = tmp_path / "r.json"
    target = tmp_path / "no" / "such" / "dir" / "c.csv"
    argv = ["gram", path, "--points", "4", "--json", str(report), "--csv", str(target)]
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("spec error: --csv: cannot write csv file")
    assert not report.exists()
    # a report written before the run survives byte for byte
    report.write_bytes(b'{"earlier": true}\n')
    assert main(argv) == 64
    assert report.read_bytes() == b'{"earlier": true}\n'


def test_gram_with_unwritable_report_leaves_no_csv(tmp_path, capsys):
    path = write_spec(tmp_path, FULL_PRODUCT)
    curve = tmp_path / "c.csv"
    target = tmp_path / "no" / "such" / "dir" / "r.json"
    argv = ["gram", path, "--points", "4", "--json", str(target), "--csv", str(curve)]
    assert main(argv) == 64
    assert capsys.readouterr().err.startswith("spec error: --json: cannot write json file")
    assert not curve.exists()
    curve.write_text("n,lambda_min\n")
    assert main(argv) == 64
    assert curve.read_text() == "n,lambda_min\n"


def test_certify_report_is_deterministic(tmp_path):
    path = write_spec(tmp_path, FULL_PRODUCT)
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["certify", path, "--json", str(out1), "--no-timestamp"]) == 0
    assert main(["certify", path, "--json", str(out2), "--no-timestamp"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    report = json.loads(out1.read_text())
    assert report["verdict"] == "SPD"
    assert report["method"] == "product-parity-tail-sets"
    assert "timestamp" not in report


def test_certify_report_carries_timestamp_by_default(tmp_path):
    path = write_spec(tmp_path, FULL_PRODUCT)
    out = tmp_path / "r.json"
    assert main(["certify", path, "--json", str(out)]) == 0
    assert "timestamp" in json.loads(out.read_text())


def test_eval_prints_value(tmp_path, capsys):
    path = write_spec(tmp_path, FULL_PRODUCT)
    assert main(["eval", path, "--t", "1.0", "--s", "1.0"]) == 0
    val = float(capsys.readouterr().out.strip())
    sf = load_spec_file(path)
    assert val == pytest.approx(sf.spec.value_at_one)


def test_eval_help_describes_both_arguments(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    assert "--t T the circle argument cos(theta), or the dot product on a sphere spec" in out
    assert "--s S the sphere dot product, for product specs only" in out


def test_eval_missing_s_on_product(tmp_path):
    path = write_spec(tmp_path, FULL_PRODUCT)
    assert main(["eval", path, "--t", "0.5"]) == 64


def test_gram_pd_and_csv(tmp_path, capsys):
    path = write_spec(tmp_path, FULL_PRODUCT)
    csv_path = tmp_path / "curve.csv"
    code = main(["gram", path, "--points", "8", "--csv", str(csv_path), "--no-timestamp"])
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "n,lambda_min"
    assert len(lines) == 8  # header plus n = 2..8
    for line in lines[1:]:
        n, lam = line.split(",")
        assert int(n) >= 2 and float(lam) > 0
    assert main(["gram", path, "--points", "1", "--csv", str(csv_path), "--no-timestamp"]) == 0
    assert csv_path.read_text() == "n,lambda_min\n"  # no block of two points


def test_gram_json_report(tmp_path):
    path = write_spec(tmp_path, FULL_PRODUCT)
    out = tmp_path / "g.json"
    assert main(["gram", path, "--points", "6", "--json", str(out), "--no-timestamp"]) == 0
    report = json.loads(out.read_text())
    assert report["positive_definite"] is True
    assert report["lambda_min"] > 0
    assert report["seed"] == 5


@pytest.mark.parametrize("kind", ["circle", "sphere", "circle_sphere"])
def test_gram_samples_the_points_of_sample_config(tmp_path, kind):
    # sample_config(m, n, n, seed) draws the n circle angles first: a circle
    # spec takes them, a sphere spec the sphere points drawn after them, and
    # a product spec the zipped pairs
    space = {"kind": kind, **SPACE_EXAMPLES[kind]}
    data = dict(FULL_PRODUCT, space=space)
    if not SpaceDescriptor(**space).is_product:
        data["support"] = [{"type": "prog", "base": 0, "step": 1}]
    path = write_spec(tmp_path, data)
    out = tmp_path / "g.json"
    assert main(["gram", path, "--points", "7", "--json", str(out), "--no-timestamp"]) in (0, 1)
    spec = load_spec_file(path).spec
    xs, zs = sample_config(spec.space.m or 2, 7, 7, 5)
    points = {"circle": xs, "sphere": zs, "circle_sphere": list(zip(xs, zs))}[kind]
    lam = json.loads(out.read_text())["lambda_min"]
    assert lam == check_pd(gram_matrix(spec, points))[1]
    if kind == "sphere":  # the dropped angles moved the sphere draws
        assert lam != check_pd(gram_matrix(spec, sample_config(spec.space.m, 0, 7, 5)[1]))[1]


def test_gram_refuses_a_space_with_no_point_model_before_any_draw(tmp_path, monkeypatch, capsys):
    def draw(*args):
        raise AssertionError("sampled")

    monkeypatch.setattr("spdkernels.cli.sample_config", draw)
    space = {"kind": "circle_tph", **SPACE_EXAMPLES["circle_tph"]}
    path = write_spec(tmp_path, dict(FULL_PRODUCT, space=space))
    assert main(["gram", path]) == 64
    assert capsys.readouterr().err == "error: no geometric point model for circle_tph\n"


def test_gram_seed_override_changes_nothing_structural(tmp_path):
    path = write_spec(tmp_path, FULL_PRODUCT)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["gram", path, "--points", "5", "--seed", "1", "--json", str(out1), "--no-timestamp"])
    main(["gram", path, "--points", "5", "--seed", "2", "--json", str(out2), "--no-timestamp"])
    r1, r2 = json.loads(out1.read_text()), json.loads(out2.read_text())
    assert r1["seed"] == 1 and r2["seed"] == 2
    assert r1["lambda_min"] != r2["lambda_min"]


def test_gram_refuses_tph(tmp_path):
    data = {
        "space": {"kind": "circle_tph", "family": "real_proj", "d": 2},
        "support": [
            {"k": {"type": "prog", "base": 0, "step": 1},
             "l": {"type": "prog", "base": 0, "step": 1}}
        ],
    }
    path = write_spec(tmp_path, data)
    assert main(["gram", path, "--points", "4"]) == 64


def test_gram_points_past_the_limit_exit_sixtyfour(tmp_path, capsys):
    from spdkernels.gram import MAX_POINTS

    path = write_spec(tmp_path, FULL_PRODUCT)
    assert _run_within_budget(["gram", path, "--points", str(MAX_POINTS + 1)]) == 64
    assert f"--points: {MAX_POINTS + 1} points is past the limit of {MAX_POINTS}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, least", [("--points", "0", 1), ("--points", "-3", 1), ("--seed", "-1", 0)])
def test_gram_refuses_a_flag_below_its_least_before_loading(tmp_path, capsys, flag, value, least):
    # the spec file does not exist: the flag is refused before it is read
    assert main(["gram", str(tmp_path / "missing.json"), flag, value]) == 64
    assert f"{flag}: {value} must be an integer >= {least}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["certify", "witness", "crosscheck"])
def test_negative_gamma_max_is_refused_before_loading(tmp_path, capsys, command):
    # the spec file does not exist: the flag is refused before it is read
    assert main([command, str(tmp_path / "missing.json"), "--gamma-max", "-1"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "spec error: --gamma-max: -1 must be an integer >= 0\n"


@pytest.mark.parametrize(
    "command", [["certify"], ["crosscheck"], ["eval", "--t", "0.3"], ["gram", "--points", "4"], ["witness"]]
)
def test_every_command_refuses_a_negative_spec_seed(tmp_path, capsys, command):
    path = write_spec(tmp_path, dict(EVENS_CIRCLE, seed=-5))
    assert main([command[0], path, *command[1:]]) == 64
    assert "seed: must be an integer >= 0" in capsys.readouterr().err


HUGE_M = 10**15
HUGE_M_SPECS = {
    "sphere": {"space": {"kind": "sphere", "m": HUGE_M}, "support": [{"type": "prog", "base": 0, "step": 2}]},
    "circle_sphere": {
        "space": {"kind": "circle_sphere", "m": HUGE_M},
        "support": [{"k": {"type": "prog", "base": 0, "step": 1}, "l": {"type": "prog", "base": 0, "step": 2}}],
    },
}


@pytest.mark.parametrize("kind, witness", [("sphere", "parity"), ("circle_sphere", "product")])
@pytest.mark.parametrize("command", ["gram", "witness"])
def test_points_on_a_huge_sphere_exit_sixtyfour(tmp_path, capsys, kind, witness, command):
    # refused before any point is built: gram samples 5 points and the
    # witness needs e0 and -e0, each with m + 1 coordinates
    from spdkernels.gram import MAX_POINTS

    path = write_spec(tmp_path, HUGE_M_SPECS[kind])
    argv, what, points = {"gram": (["--points", "5"], "gram", 5), "witness": ([], f"{witness} witness", 2)}[command]
    assert _run_within_budget([command, path, *argv]) == 64
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert (
        f"error: {what} needs {points} points on S^{HUGE_M}, {points * (HUGE_M + 1)} coordinates, "
        f"past the limit of {MAX_POINTS**2}"
    ) in err


@pytest.mark.parametrize("kind", sorted(HUGE_M_SPECS))
def test_certify_holds_no_points_on_a_huge_sphere(tmp_path, capsys, kind):
    path = write_spec(tmp_path, HUGE_M_SPECS[kind])
    assert _run_within_budget(["certify", path]) == 1
    assert capsys.readouterr().out.startswith("NotSPD")


def test_gram_csv_past_the_limit_exit_sixtyfour(tmp_path, capsys):
    from spdkernels.cli import CSV_MAX_POINTS

    path = write_spec(tmp_path, FULL_PRODUCT)
    csv_path = tmp_path / "curve.csv"
    argv = ["gram", path, "--points", str(CSV_MAX_POINTS + 1), "--csv", str(csv_path)]
    assert _run_within_budget(argv) == 64
    assert f"--csv: {CSV_MAX_POINTS + 1} points is past the limit of {CSV_MAX_POINTS}" in capsys.readouterr().err
    assert not csv_path.exists()
    # the same point count without the per-block curve is within budget
    assert main(["gram", path, "--points", str(CSV_MAX_POINTS + 1), "--trunc", "4,4"]) in (0, 1)
    # the benchmark's 50-point curve still runs
    assert main(["gram", path, "--points", "50", "--trunc", "20,20", "--csv", str(csv_path)]) == 0
    assert len(csv_path.read_text().strip().splitlines()) == 50  # header plus n = 2..50


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "-1e-300"])
def test_gram_refuses_a_tolerance_that_decides_nothing(tmp_path, capsys, tol):
    path = write_spec(tmp_path, FULL_PRODUCT)
    assert _run_within_budget(["gram", path, "--points", "5", f"--tol={tol}"]) == 64
    assert f"--tol: {float(tol)} must be a finite number >= 0" in capsys.readouterr().err


def test_gram_accepts_a_zero_tolerance(tmp_path, capsys):
    path = write_spec(tmp_path, FULL_PRODUCT)
    assert main(["gram", path, "--points", "5", "--tol", "0"]) == 0
    assert "PD at tol 0.0" in capsys.readouterr().out


def test_witness_on_refuted_circle(tmp_path, capsys):
    path = write_spec(tmp_path, EVENS_CIRCLE)
    out = tmp_path / "w.json"
    assert main(["witness", path, "--json", str(out), "--no-timestamp"]) == 1
    report = json.loads(out.read_text())
    assert report["witness"]["kind"] == "progression"
    assert report["witness"]["residual"] == 0.0
    assert len(report["witness"]["points"]) == 2


def test_witness_on_spd_support_reports_none(tmp_path, capsys):
    path = write_spec(tmp_path, FULL_PRODUCT)
    out = tmp_path / "w.json"
    assert main(["witness", path, "--json", str(out), "--no-timestamp"]) == 0
    assert json.loads(out.read_text())["witness"] is None


def test_witness_on_refuted_product(tmp_path):
    data = {
        "space": {"kind": "circle_sphere", "m": 2},
        "support": [
            {"k": {"type": "prog", "base": 0, "step": 1},
             "l": {"type": "prog", "base": 0, "step": 2}}
        ],
        "truncation": {"kmax": 30, "lmax": 30},
    }
    path = write_spec(tmp_path, data)
    out = tmp_path / "w.json"
    assert main(["witness", path, "--json", str(out), "--no-timestamp"]) == 1
    report = json.loads(out.read_text())
    assert report["witness"]["kind"] == "composed"
    assert abs(report["witness"]["residual"]) <= 1e-10 * report["witness"]["scale"]


def _points_from_json(points):
    """A witness report's points, read back from their JSON forms."""
    def one(form):
        return CirclePoint(form["theta"]) if "theta" in form else SpherePoint(tuple(form["coords"]))

    return [(one(p["circle"]), one(p["sphere"])) if "circle" in p else one(p) for p in points]


@pytest.mark.parametrize("data, kind", [
    (EVENS_CIRCLE, "progression"),
    ({"space": {"kind": "sphere", "m": 3}, "support": [{"type": "prog", "base": 0, "step": 2},
                                                     {"type": "one", "value": 3}]}, "parity"),
    (dict(FULL_PRODUCT, support=[{"k": {"type": "prog", "base": 0, "step": 1},
                                  "l": {"type": "prog", "base": 0, "step": 2}}]), "composed"),
])
def test_witness_json_points_give_back_the_residual(tmp_path, data, kind):
    path = write_spec(tmp_path, data)
    out = tmp_path / "w.json"
    assert main(["witness", path, "--json", str(out), "--no-timestamp"]) == 1
    witness = json.loads(out.read_text())["witness"]
    assert witness["kind"] == kind
    spec = load_spec_file(path).spec
    c = np.array(witness["coefficients"])
    assert float(c @ gram_matrix(spec, _points_from_json(witness["points"])) @ c) == witness["residual"]


def test_space_override_changes_certifier(tmp_path, capsys):
    # evens on the circle are refused, but on a sphere they fail differently;
    # overriding to sphere:3 must change the reported method
    path = write_spec(tmp_path, EVENS_CIRCLE)
    out = tmp_path / "r.json"
    assert main(["certify", path, "--space", "sphere:3", "--json", str(out), "--no-timestamp"]) == 1
    report = json.loads(out.read_text())
    assert report["method"] == "sphere-parity-count"
    assert report["space"] == {"kind": "sphere", "m": 3}


def test_space_override_rejects_shape_change(tmp_path):
    path = write_spec(tmp_path, EVENS_CIRCLE)
    assert main(["certify", path, "--space", "circle_sphere:2"]) == 64
    assert main(["certify", path, "--space", "dodecahedron"]) == 64


def test_eval_single_cell_example(tmp_path, capsys):
    data = {
        "space": {"kind": "circle_sphere", "m": 2},
        "support": [
            {"k": {"type": "one", "value": 1}, "l": {"type": "one", "value": 1}}
        ],
        "scheme": {"kind": "constant", "scale": 1.0},
        "truncation": {"kmax": 4, "lmax": 4},
    }
    path = write_spec(tmp_path, data)
    assert main(["eval", path, "--t", "0.5", "--s", "0.5"]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(0.5)


def test_witness_past_the_point_limit_exit_sixtyfour(tmp_path, capsys):
    # the first failure is gamma 1102 (odd); cancelling the singleton 1101
    # takes a = 1103, so 2 * 2 * 1103 = 4412 points
    def pair(k, l):
        return {"k": k, "l": l}

    data = {
        "space": {"kind": "circle_sphere", "m": 6},
        "support": [
            pair({"type": "prog", "base": 0, "step": 1}, {"type": "one", "value": 1101}),
            pair({"type": "prog", "base": 0, "step": 1}, {"type": "prog", "base": 0, "step": 2}),
            pair({"type": "prog", "base": 0, "step": 2}, {"type": "prog", "base": 3, "step": 2}),
        ],
        "truncation": {"kmax": 20, "lmax": 20},
    }
    path = write_spec(tmp_path, data)
    out = tmp_path / "w.json"
    assert main(["witness", path, "--json", str(out)]) == 64
    assert "needs 4412 points to cancel degree 1101, past the limit of 2048" in capsys.readouterr().err
    assert not out.exists()


def _sphere_evens_plus(m, *odd):
    return {
        "space": {"kind": "sphere", "m": m},
        "support": [{"type": "prog", "base": 0, "step": 2}]
        + [{"type": "one", "value": v} for v in odd],
        "truncation": {"kmax": 0, "lmax": 20},
    }


def test_witness_on_mixed_parity_sphere(tmp_path, capsys):
    # evens plus {3, 5} on S^2: the geodesic factor a = 7, 14 points, cancels
    # layers 3 and 5 and every even one
    path = write_spec(tmp_path, _sphere_evens_plus(2, 3, 5))
    out = tmp_path / "w.json"
    assert main(["witness", path, "--json", str(out), "--no-timestamp"]) == 1
    assert capsys.readouterr().out.startswith("witness kind=parity")
    witness = json.loads(out.read_text())["witness"]
    assert witness["kind"] == "parity"
    assert len(witness["points"]) == len(witness["coefficients"]) == 14
    assert abs(witness["residual"]) <= 1e-10 * witness["scale"]


def test_parity_witness_past_the_point_limit_exit_sixtyfour(tmp_path, capsys):
    # the point count follows the largest kept degree D alone: evens plus {11}
    # on S^5 take a = 13, 26 points; evens plus {3, 5001} on S^2 would take
    # 2 * 5003 and are refused, whatever L is
    path = write_spec(tmp_path, _sphere_evens_plus(5, 11))
    out = tmp_path / "w.json"
    assert main(["witness", path, "--json", str(out), "--no-timestamp"]) == 1
    witness = json.loads(out.read_text())["witness"]
    assert len(witness["points"]) == 26 and abs(witness["residual"]) <= 1e-10 * witness["scale"]
    capsys.readouterr()
    path = write_spec(tmp_path, _sphere_evens_plus(2, 3, 5001))
    assert main(["witness", path]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "parity witness needs 10006 points to cancel degree 5001, past the limit of 2048" in captured.err


def test_witness_empty_tail_message(tmp_path, capsys):
    # evens-only sphere degrees over a full circle axis: the odd tail is empty
    data = {
        "space": {"kind": "circle_sphere", "m": 2},
        "support": [
            {"k": {"type": "prog", "base": 0, "step": 1},
             "l": {"type": "prog", "base": 0, "step": 2}}
        ],
        "truncation": {"kmax": 20, "lmax": 20},
    }
    path = write_spec(tmp_path, data)
    assert main(["certify", path]) == 1
    assert "odd-set empty" in capsys.readouterr().out


def test_crosscheck_coherent(tmp_path, capsys):
    path = write_spec(tmp_path, FULL_PRODUCT)
    assert main(["crosscheck", path]) == 0
    out = capsys.readouterr().out
    assert "tail-sets=SPD" in out and "gamma-loop=SPD" in out


def test_crosscheck_needs_product_space(tmp_path):
    path = write_spec(tmp_path, EVENS_CIRCLE)
    assert main(["crosscheck", path]) == 64


def test_crosscheck_report_structure(tmp_path):
    data = {
        "space": {"kind": "circle_sphere", "m": 2},
        "support": [
            {"k": {"type": "prog", "base": 0, "step": 1},
             "l": {"type": "prog", "base": 1, "step": 2}}
        ],
    }
    path = write_spec(tmp_path, data)
    out = tmp_path / "c.json"
    assert main(["crosscheck", path, "--json", str(out), "--no-timestamp"]) == 1
    report = json.loads(out.read_text())
    assert report["coherent"] is True
    assert report["tail_sets"]["verdict"] == "NotSPD"
    assert report["gamma_loop"]["verdict"] == "NotSPD"
    assert set(report["sufficient"]) == {"circle-outer", "sphere-outer"}


def _overflowing_circle(step):
    """A circle spec whose 61 coefficients of 1e308 sum past float64 at t = 1."""
    return {
        "space": {"kind": "circle"},
        "support": [{"type": "prog", "base": 0, "step": step}],
        "scheme": {"kind": "constant", "scale": 1e308},
        "truncation": {"kmax": 60, "lmax": 0},
        "seed": 0,
    }


@pytest.mark.parametrize(
    "command, step",
    [(["eval", "--t", "1"], 1), (["gram", "--points", "5"], 1), (["witness"], 3)],
    ids=["eval", "gram", "witness"],
)
def test_non_finite_kernel_values_are_a_numerical_failure(tmp_path, capsys, command, step):
    # eval printed inf and exited 0, gram refused its NaN Gram as asymmetric
    # (64), and witness wrote "residual": NaN and "scale": Infinity (1)
    path = write_spec(tmp_path, _overflowing_circle(step))
    out = tmp_path / "r.json"
    assert main([command[0], path, *command[1:], "--json", str(out), "--no-timestamp"]) == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "numerical error: a kernel value is not finite" in captured.err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, step",
    [(["eval", "--t", "1"], 1), (["gram", "--points", "5"], 1), (["witness"], 3)],
    ids=["eval", "gram", "witness"],
)
def test_an_overflow_prints_one_message(tmp_path, capsys, command, step):
    # numpy's overflow and invalid-value warnings printed as "warning:" lines
    # after the error they led to, one or two of them
    path = write_spec(tmp_path, _overflowing_circle(step))
    assert main([command[0], path, *command[1:]]) == 70
    err = capsys.readouterr().err
    assert err.splitlines() == ["numerical error: a kernel value is not finite: the expansion overflows float64"]


# --- JSON booleans are not integers ----------------------------------------------------

@pytest.mark.parametrize(
    "changes, field",
    [
        ({"support": [{"type": "prog", "base": True, "step": True}]}, "support[0].base"),
        ({"support": [{"type": "prog", "base": 0, "step": True}]}, "support[0].step"),
        ({"support": [{"type": "one", "value": False}]}, "support[0].value"),
        ({"truncation": {"kmax": True, "lmax": 4}}, "truncation.kmax"),
        ({"truncation": {"kmax": 4, "lmax": False}}, "truncation.lmax"),
        ({"seed": False}, "seed"),
    ],
)
def test_json_booleans_are_refused(tmp_path, capsys, changes, field):
    path = write_spec(tmp_path, dict(EVENS_CIRCLE, **changes))
    assert main(["certify", path]) == 64
    assert f"spec error: {field}:" in capsys.readouterr().err


GEOMETRIC = FULL_PRODUCT["scheme"]
QUAT = {"kind": "circle_tph", "family": "quat_proj", "d": 8}


@pytest.mark.parametrize(
    "changes, field",
    [
        ({"space": {"kind": "circle", "m": 3}}, "space.m"),
        ({"space": {"kind": "circle", "family": "x"}}, "space.family"),
        ({"space": {"kind": "circle_sphere", "m": 2, "d": 4}}, "space.d"),
        ({"space": {"kind": "sphere", "m": 2, "dim": 2}}, "space.dim"),
        ({"space": dict(QUAT, m=2)}, "space.m"),
        ({"scheme": {"kind": "constant", "scale": 1, "r_k": "junk"}}, "scheme.r_k"),
        ({"scheme": {"kind": "constant", "scale": 1, "extra": [1]}}, "scheme.extra"),
        ({"scheme": dict(GEOMETRIC, r=0.5)}, "scheme.r"),
    ],
)
def test_unknown_space_and_scheme_keys_are_refused(tmp_path, capsys, changes, field):
    base = EVENS_CIRCLE if changes.get("space", {}).get("kind") == "circle" else FULL_PRODUCT
    path = write_spec(tmp_path, dict(base, **changes))
    assert main(["certify", path]) == 64
    err = capsys.readouterr().err
    assert f"spec error: {field}: unknown field" in err


@pytest.mark.parametrize(
    "changes, field",
    [
        ({"space": {"kind": "circle_sphere", "m": "3"}}, "space.m"),
        ({"space": {"kind": "circle_sphere", "m": 2.5}}, "space.m"),
        ({"space": {"kind": "circle_sphere", "m": 2.0}}, "space.m"),
        ({"space": {"kind": "circle_sphere", "m": True}}, "space.m"),
        ({"space": dict(QUAT, d="8")}, "space.d"),
        ({"space": dict(QUAT, d=8.0)}, "space.d"),
        ({"space": dict(QUAT, d=False)}, "space.d"),
        ({"space": dict(QUAT, family=["quat_proj"])}, "space.family"),
        ({"scheme": dict(GEOMETRIC, scale=True)}, "scheme.scale"),
        ({"scheme": {"kind": "constant", "scale": "2"}}, "scheme.scale"),
        ({"scheme": dict(GEOMETRIC, r_k="0.5")}, "scheme.r_k"),
        ({"scheme": dict(GEOMETRIC, r_l=False)}, "scheme.r_l"),
        ({"scheme": dict(GEOMETRIC, r_l=None)}, "scheme.r_l"),
        ({"scheme": dict(GEOMETRIC, scale=10**400)}, "scheme.scale"),
    ],
)
def test_spec_fields_are_type_checked_not_coerced(tmp_path, capsys, changes, field):
    path = write_spec(tmp_path, dict(FULL_PRODUCT, **changes))
    assert main(["certify", path]) == 64
    assert f"spec error: {field}:" in capsys.readouterr().err


SPHERE_EVENS = {"space": {"kind": "sphere", "m": 2}, "support": EVENS_CIRCLE["support"]}
PROG = {"type": "prog", "base": 0, "step": 1}


@pytest.mark.parametrize(
    "data, argv, field",
    [
        (dict(EVENS_CIRCLE, support=[5]), [], "support[0]"),
        (dict(EVENS_CIRCLE, support=[{"type": "one", "value": 1, "base": 1}]), [], "support[0]"),
        (dict(EVENS_CIRCLE, support=[dict(PROG, value=3)]), [], "support[0]"),
        (dict(EVENS_CIRCLE, space="circle"), [], "space"),
        (dict(EVENS_CIRCLE, space={"kind": "torus"}), [], "space.kind"),
        (dict(EVENS_CIRCLE, space={"kind": "sphere", "m": 1}), [], "space"),
        (dict(EVENS_CIRCLE, support=PROG), [], "support"),
        (dict(EVENS_CIRCLE, scheme="geometric"), [], "scheme"),
        (dict(EVENS_CIRCLE, scheme={"kind": "harmonic"}), [], "scheme.kind"),
        (dict(EVENS_CIRCLE, scheme=dict(GEOMETRIC, r_k=1.5)), [], "scheme"),
        ([EVENS_CIRCLE], [], "$"),
        (dict(EVENS_CIRCLE, truncation={"kmax": 4, "jmax": 4}), [], "truncation"),
        (FULL_PRODUCT, ["gram", "--trunc", "3"], "--trunc"),
        (FULL_PRODUCT, ["gram", "--trunc", "3,x"], "--trunc"),
        (FULL_PRODUCT, ["gram", "--trunc=-1,2"], "--trunc"),  # "--trunc -1,2" reads -1,2 as a flag
        (SPHERE_EVENS, ["certify", "--method", "sufficient-circle-outer"], "space"),
    ],
)
def test_malformed_input_is_refused_naming_its_field(tmp_path, capsys, data, argv, field):
    path = write_spec(tmp_path, data)
    command, *flags = argv or ["certify"]
    try:
        code = main([command, path, *flags])
    except SystemExit as exc:  # argparse refuses a flag by exiting
        code = exc.code
    assert code == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{field}: " in captured.err


def test_scheme_numbers_may_be_json_integers():
    sf = parse_spec_dict(dict(FULL_PRODUCT, scheme={"kind": "constant", "scale": 2}))
    assert sf.spec.scheme.scale == 2.0
    assert type(sf.spec.scheme.scale) is float


def test_truncation_past_the_degree_cap_exit_sixtyfour(tmp_path, capsys):
    from spdkernels.orthopoly import MAX_DEGREE

    cap = MAX_DEGREE + 1
    path = write_spec(tmp_path, dict(FULL_PRODUCT, truncation={"kmax": cap, "lmax": cap}))
    assert main(["certify", path]) == 64
    assert "truncation" in capsys.readouterr().err


# --- budgets and argument scope ------------------------------------------------

def _product_spec(pairs):
    def term(t):
        if isinstance(t, int):
            return {"type": "one", "value": t}
        return {"type": "prog", "base": t[0], "step": t[1]}

    return dict(FULL_PRODUCT, support=[{"k": term(k), "l": term(l)} for k, l in pairs])


BIG_K_SINGLETON = _product_spec([((0, 1), (0, 1)), (30_000_000, (0, 1))])
WIDE_K_STEPS = _product_spec([((b, p), (0, 1)) for b, p in enumerate((97, 89, 83, 79))])


def _run_within_budget(argv):
    """The exit code of ``main(argv)``, which must return within a second and
    20 MB of traced allocations."""
    import time
    import tracemalloc

    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(argv)
    finally:
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 20e6
    return code


# a k-base of 10^12 beside a full progression: the classes mod 2 of its step
BIG_K_BASE = _product_spec([((0, 1), (0, 1)), ((10**12, 2), (0, 1))])


@pytest.mark.parametrize("data", [BIG_K_SINGLETON, BIG_K_BASE])
def test_big_k_values_decide_on_every_route(tmp_path, capsys, data):
    # the gamma loop and the tph certifier read classes mod the k-step lcm
    # and the k-singletons' values, never a window up to the largest base
    path = write_spec(tmp_path, data)
    assert _run_within_budget(["crosscheck", path]) == 0
    assert capsys.readouterr().out == (
        "tail-sets=SPD gamma-loop=SPD circle-outer=SufficientOnly sphere-outer=SufficientOnly\n"
    )
    assert _run_within_budget(["certify", path, "--space", "circle_tph:real_proj:2"]) == 0
    assert capsys.readouterr().out == "SPD (tph-tail-sets)\n"


# an l-singleton of 10^6: the sphere-outer test once read a window of
# 10^6 + 5 integers, and now reads the two classes mod 2
BIG_L_SINGLETON = _product_spec([((0, 1), (0, 2)), ((0, 1), (1, 2)), ((1, 3), 1_000_000)])


@pytest.mark.parametrize("data", [BIG_K_SINGLETON, BIG_L_SINGLETON])
def test_sufficient_tests_decide_a_big_outer_singleton(tmp_path, capsys, data):
    path = write_spec(tmp_path, data)
    for method in ("sufficient-circle-outer", "sufficient-sphere-outer"):
        assert _run_within_budget(["certify", path, "--method", method]) == 2
        assert capsys.readouterr().out == f"SufficientOnly ({method})\n"


def test_crosscheck_answers_on_a_big_l_singleton(tmp_path, capsys):
    path = write_spec(tmp_path, BIG_L_SINGLETON)
    assert _run_within_budget(["crosscheck", path]) == 0
    assert capsys.readouterr().out == (
        "tail-sets=SPD gamma-loop=SPD circle-outer=SufficientOnly sphere-outer=SufficientOnly\n"
    )


# a k-step of 120000: the gamma loop once read a window of 1 + 2 * 120000
# integers, past the limit, and now reads the classes mod 120000
GAMMA_LOOP_WINDOW = _product_spec([((0, 1), (0, 1)), ((0, 120_000), (0, 2))])


def test_gamma_loop_answers_where_it_read_a_window_past_the_limit(tmp_path, capsys):
    path = write_spec(tmp_path, GAMMA_LOOP_WINDOW)
    assert _run_within_budget(["crosscheck", path]) == 0
    assert capsys.readouterr().out == (
        "tail-sets=SPD gamma-loop=SPD circle-outer=SufficientOnly sphere-outer=SufficientOnly\n"
    )


# the odd tail set of the tail-sets route is prog(0, 2) alone, refuted at
# gamma 0; the gamma loop reads the classes mod the k-step lcm 300000
ROUTE_REFUSED = _product_spec([((0, 2), (1, 2)), ((0, 300_000), 0)])


def test_crosscheck_names_the_route_that_refused(tmp_path, capsys):
    from spdkernels.supportsets import MAX_PERIOD

    path = write_spec(tmp_path, ROUTE_REFUSED)
    assert main(["certify", path]) == 1
    assert capsys.readouterr().out.startswith("NotSPD (product-parity-tail-sets): ")
    assert _run_within_budget(["crosscheck", path]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: step lcm 300000 is past the limit of {MAX_PERIOD}; the gamma-loop route refused\n"
    )


def test_big_k_singleton_still_certifies(tmp_path, capsys):
    # the tail-set route reads no window, so it answers
    path = write_spec(tmp_path, BIG_K_SINGLETON)
    assert _run_within_budget(["certify", path]) == 0
    assert capsys.readouterr().out.startswith("SPD")


@pytest.mark.parametrize(
    "command",
    [["certify"], ["crosscheck"], ["witness"], ["certify", "--method", "sufficient-sphere-outer"],
     ["certify", "--method", "sufficient-circle-outer"]],
)
def test_step_lcm_past_the_limit_exit_sixtyfour(tmp_path, capsys, command):
    from spdkernels.supportsets import MAX_PERIOD

    path = write_spec(tmp_path, WIDE_K_STEPS)
    assert _run_within_budget([command[0], path, *command[1:]]) == 64
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"past the limit of {MAX_PERIOD}" in err
    assert "step lcm 56606581" in err


def test_circle_step_lcm_past_the_limit_exit_sixtyfour(tmp_path, capsys):
    data = dict(EVENS_CIRCLE, support=[{"type": "prog", "base": b, "step": p}
                                       for b, p in enumerate((97, 89, 83, 79))])
    path = write_spec(tmp_path, data)
    assert _run_within_budget(["certify", path]) == 64
    assert "error: step lcm 56606581 is past the limit" in capsys.readouterr().err


TPH_PRODUCT = dict(FULL_PRODUCT, space={"kind": "circle_tph", "family": "real_proj", "d": 2})


@pytest.mark.parametrize(
    "data, argv, unread",
    [
        (EVENS_CIRCLE, ["certify"], "a circle space"),
        (EVENS_CIRCLE, ["witness"], "a circle space"),
        (SPHERE_EVENS, ["certify"], "a sphere space"),
        (SPHERE_EVENS, ["witness"], "a sphere space"),
        (FULL_PRODUCT, ["certify", "--method", "sufficient-circle-outer"], "--method sufficient-circle-outer"),
        (FULL_PRODUCT, ["certify", "--method", "sufficient-sphere-outer"], "--method sufficient-sphere-outer"),
    ],
)
def test_gamma_max_is_refused_where_no_sweep_reads_it(tmp_path, capsys, data, argv, unread):
    path = write_spec(tmp_path, data)
    assert main([argv[0], path, *argv[1:], "--gamma-max", "7"]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"spec error: --gamma-max: {unread} sweeps no tail cutoff\n"


@pytest.mark.parametrize("data", [FULL_PRODUCT, TPH_PRODUCT])
@pytest.mark.parametrize("command", ["certify", "witness"])
def test_gamma_max_is_read_by_the_product_sweeps(tmp_path, capsys, data, command):
    path = write_spec(tmp_path, data)
    out = tmp_path / "r.json"
    assert main([command, path, "--gamma-max", "7", "--json", str(out), "--no-timestamp"]) == 0
    # 7 is past the stabilization bound 0, so it is one more checkpoint
    assert [entry["gamma"] for entry in json.loads(out.read_text())["trace"]][-1] == 7


@pytest.mark.parametrize("command", [["certify"], ["eval", "--t", "0.5"], ["witness"], ["crosscheck"]])
def test_seed_is_a_gram_option_only(tmp_path, capsys, command):
    path = write_spec(tmp_path, FULL_PRODUCT)
    with pytest.raises(SystemExit) as exc:
        main([command[0], path, *command[1:], "--seed", "3"])
    assert exc.value.code == 64
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_gram_keeps_its_seed(tmp_path):
    path = write_spec(tmp_path, FULL_PRODUCT)
    out = tmp_path / "r.json"
    assert main(["gram", path, "--points", "5", "--seed", "3", "--json", str(out), "--no-timestamp"]) == 0
    assert json.loads(out.read_text())["seed"] == 3


def test_parser_is_built_once():
    from spdkernels.cli import _build_parser

    assert _build_parser() is _build_parser()


def test_truncation_box_past_the_limit_exit_sixtyfour(tmp_path, capsys):
    from spdkernels.kernels import MAX_TRUNCATION_BOX

    path = write_spec(tmp_path, dict(FULL_PRODUCT, truncation={"kmax": 10_000, "lmax": 10_000}))
    assert _run_within_budget(["certify", path]) == 64
    err = capsys.readouterr().err
    assert f"truncation box (10000, 10000) has 100020001 coefficients, past the limit of {MAX_TRUNCATION_BOX}" in err
    # the --trunc override of gram meets the same check
    path = write_spec(tmp_path, FULL_PRODUCT, name="small.json")
    assert main(["gram", path, "--points", "5", "--trunc", "2000,2000"]) == 64
    assert "truncation box" in capsys.readouterr().err


# k-steps 2^6 and 5^5, whose lcm is MAX_PERIOD itself
STEP_LCM_AT_THE_LIMIT = _product_spec([((0, 1), (0, 1)), ((1, 64), (0, 1)), ((2, 3125), (1, 2))])


def test_crosscheck_at_the_step_lcm_limit_is_fast(tmp_path, capsys):
    import time

    from spdkernels.supportsets import MAX_PERIOD

    assert 64 * 3125 == MAX_PERIOD
    path = write_spec(tmp_path, STEP_LCM_AT_THE_LIMIT)
    start = time.perf_counter()
    assert main(["crosscheck", path]) == 0
    assert time.perf_counter() - start < 0.25
    assert capsys.readouterr().out == (
        "tail-sets=SPD gamma-loop=SPD circle-outer=SufficientOnly sphere-outer=SufficientOnly\n"
    )


def test_witness_search_past_the_work_limit_exit_sixtyfour(tmp_path, capsys):
    from spdkernels.supportsets import MAX_WITNESS_WORK

    odd = [{"type": "one", "value": v} for v in range(1, 10_000, 2)]
    path = write_spec(tmp_path, dict(EVENS_CIRCLE, support=EVENS_CIRCLE["support"] + odd))
    for command in ("certify", "witness"):
        assert _run_within_budget([command, path]) == 64
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert (
            "error: witness search at factor 10001 over 10000 singleton classes "
            f"is past the limit of {MAX_WITNESS_WORK} steps"
        ) in err


def test_many_singletons_with_a_small_witness_are_refuted(tmp_path, capsys):
    # 5001 singletons 1 + 12k all lie in the missed class 1 mod 2, but none
    # in 3 mod 6
    ones = [{"type": "one", "value": 1 + 12 * k} for k in range(5001)]
    path = write_spec(tmp_path, dict(EVENS_CIRCLE, support=EVENS_CIRCLE["support"] + ones))
    assert main(["certify", path]) == 1
    assert capsys.readouterr().out == "NotSPD (circle-residue-classes): missed residue class 3 mod 6\n"
    assert main(["witness", path]) == 1
    assert capsys.readouterr().out.startswith("witness kind=progression")


# --- the report encoder ---------------------------------------------------------------------

_report_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**63, -(2**63) - 1, 10**40, -(10**40)]),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e308, float("nan"), float("inf"), float("-inf")]),
    st.floats().map(np.float64),
    st.text(),
    st.sampled_from(['"quoted"', "back\\slash", "\x00\x08\t\n\x1f\x7f", "é☃\u2028\U0001f600"]),
)
_reports = st.recursive(
    _report_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=30,
)


@given(report=_reports)
@settings(max_examples=300, deadline=None)
def test_report_text_is_json_dumps(report):
    assert _report_text(report) == json.dumps(report, indent=2, sort_keys=True)


@pytest.mark.parametrize("report", [{}, [], (), {"a": {}, "b": [], "c": ()}, [[[]], [{}]]])
def test_report_text_of_empty_containers(report):
    assert _report_text(report) == json.dumps(report, indent=2, sort_keys=True)


@pytest.mark.parametrize("report", [np.int64(3), {"points": [1, np.int64(2)]}])
def test_report_text_refuses_what_json_refuses(report):
    with pytest.raises(TypeError, match="int64 is not JSON serializable"):
        json.dumps(report, indent=2, sort_keys=True)
    with pytest.raises(TypeError, match="int64 is not JSON serializable"):
        _report_text(report)
