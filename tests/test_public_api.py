"""The public surface, pinned name by name.

Each module's ``__all__`` and each exported class's public members are
listed here.  A class's members are its dataclass fields and the names
without a leading underscore in its own ``__dict__``: methods, properties
and enum members.  A new export or member must be added to these lists on
purpose, so the API cannot grow back unnoticed.
"""

import dataclasses
import importlib
from pathlib import Path

import pytest

import spdkernels

README = Path(__file__).resolve().parents[1] / "README.md"

PACKAGE = {
    "Certificate", "CirclePoint", "CoefficientScheme", "GammaFailure", "KernelSpec",
    "NotApplicableError", "NumericalError", "ParityDeficit", "ProgressionWitness",
    "QuadrantDeficit", "SamplingError", "SpaceDescriptor", "SpecFileError", "SpherePoint",
    "SupportSet1D", "SupportSet2D", "Term1D", "TraceEntry", "Verdict", "WitnessReport",
    "certify_circle", "certify_circle_sphere", "certify_circle_sphere_gamma_loop",
    "certify_circle_tph", "certify_sphere", "certify_two_spheres", "check_pd", "circle_space",
    "circle_sphere_space", "circle_table", "circle_tph_space", "constant_scheme",
    "derived_parity_tail_set", "eval_kernel", "gegenbauer_table", "geometric_scheme",
    "gram_matrix", "has_infinitely_many", "jacobi_table", "kernel_values",
    "meets_every_progression", "one", "prog", "sample_config",
    "sphere_space", "stabilization_bound", "sufficient_product", "witness_avoids_window",
    "witness_parity_sphere", "witness_product", "witness_progression_circle",
}

MODULES = {
    "certify": {
        "Certificate", "GammaFailure", "ParityDeficit", "QuadrantDeficit", "TraceEntry",
        "Verdict", "certify_circle", "certify_circle_sphere",
        "certify_circle_sphere_gamma_loop", "certify_circle_tph", "certify_sphere",
        "certify_two_spheres", "sufficient_product",
    },
    "cli": {"SpecFile", "load_spec_file", "main", "parse_spec_dict", "spec_file_to_dict"},
    "geometry": {"CirclePoint", "SpherePoint", "sample_config"},
    "gram": {
        "MAX_POINTS", "WitnessReport", "check_pd", "gram_matrix", "witness_parity_sphere",
        "witness_product", "witness_progression_circle",
    },
    "kernels": {
        "BETA_BY_FAMILY", "CoefficientScheme", "DEFAULT_TRUNCATION", "DIMENSION_RULES",
        "KernelSpec", "MAX_TRUNCATION_BOX", "SpaceDescriptor", "circle_space",
        "circle_sphere_space", "circle_tph_space", "constant_scheme", "eval_kernel",
        "geometric_scheme", "kernel_values", "sphere_space",
    },
    "orthopoly": {"MAX_DEGREE", "chebyshev_table", "circle_table", "gegenbauer_table", "jacobi_table"},
    "supportsets": {
        "MAX_PERIOD", "MAX_WITNESS_WORK", "Parity", "ProgressionWitness",
        "SupportSet1D", "SupportSet2D", "Term1D", "derived_parity_tail_set",
        "has_infinitely_many", "meets_every_progression", "one", "prog",
        "stabilization_bound", "term_has_infinite_parity", "term_has_parity_member",
        "witness_avoids_window",
    },
}


def test_package_exports_are_pinned():
    assert len(spdkernels.__all__) == len(set(spdkernels.__all__))
    assert set(spdkernels.__all__) == PACKAGE
    for name in PACKAGE:
        assert hasattr(spdkernels, name), name


@pytest.mark.parametrize("module", sorted(MODULES))
def test_module_exports_are_pinned(module):
    mod = importlib.import_module(f"spdkernels.{module}")
    assert len(mod.__all__) == len(set(mod.__all__)), module
    assert set(mod.__all__) == MODULES[module]
    for name in MODULES[module]:
        assert hasattr(mod, name), f"{module}.{name}"


MEMBERS = {
    "Certificate": {"counterexample", "method", "space", "trace", "verdict"},
    "CirclePoint": {"theta"},
    "CoefficientScheme": {"kind", "r_k", "r_l", "scale"},
    "GammaFailure": {"empty", "gamma", "parity", "witness"},
    "KernelSpec": {
        "axis_cap", "coefficient_matrix", "is_effectively_empty", "kmax", "lmax", "scheme", "space",
        "support", "truncation", "value_at_one",
    },
    "NotApplicableError": set(),
    "NumericalError": set(),
    "ParityDeficit": {"parity"},
    "ProgressionWitness": {"modulus", "residue"},
    "QuadrantDeficit": {"axis", "k_parity", "l_parity"},
    "SamplingError": set(),
    "SpaceDescriptor": {"alpha", "beta", "d", "family", "is_product", "kind", "m"},
    "SpecFile": {"seed", "spec"},
    "SpecFileError": set(),
    "SpherePoint": {"coords"},
    "SupportSet1D": {"is_empty", "singletons", "terms"},
    "SupportSet2D": {"k_terms", "l_terms", "terms", "transpose"},
    "Term1D": {"base", "contains", "is_progression", "step"},
    "TraceEntry": {"condition", "gamma", "outcome"},
    "Verdict": {"INCONCLUSIVE", "NOT_SPD", "SPD", "SUFFICIENT_ONLY"},
    "WitnessReport": {"coefficients", "kind", "points", "residual", "scale"},
}


def exported_classes() -> dict:
    """Every class in the package's or a module's ``__all__``, by name."""
    classes = {}
    for module in ["spdkernels", *(f"spdkernels.{name}" for name in MODULES)]:
        mod = importlib.import_module(module)
        for name in mod.__all__:
            obj = getattr(mod, name)
            if isinstance(obj, type):
                assert classes.setdefault(name, obj) is obj, f"two exported classes named {name}"
    return classes


def public_members(cls: type) -> set:
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    return fields | {name for name in vars(cls) if not name.startswith("_")}


def test_every_exported_class_is_pinned():
    assert sorted(exported_classes()) == sorted(MEMBERS)


@pytest.mark.parametrize("name", sorted(MEMBERS))
def test_class_members_are_pinned(name):
    assert public_members(exported_classes()[name]) == MEMBERS[name]


def test_the_readme_library_sketch_runs(capsys):
    section = README.read_text().split("\n## Library sketch\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert capsys.readouterr().out == "Verdict.SPD\n"
    assert namespace["ok"] and namespace["lam_min"] > 0
