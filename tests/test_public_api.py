"""The public surface, pinned name by name.

Every name exported here is used by the command line, by another module of
the package, or by an acceptance criterion; a new export must be added to
these lists on purpose, so the API cannot grow back unnoticed.
"""

import importlib

import pytest

import spdkernels

PACKAGE = {
    "BlockCheck", "Certificate", "CirclePoint", "CoefficientScheme", "EnhancedSet",
    "GammaFailure", "KernelSpec", "NotApplicableError", "NumericalError", "ParityDeficit",
    "ProgressionWitness", "QuadrantDeficit", "S2HarmonicBasis", "SamplingError",
    "SpaceDescriptor", "SpecFileError", "SpherePoint", "SupportSet1D", "SupportSet2D",
    "Term1D", "TraceEntry", "Verdict", "WitnessReport", "build_enhanced", "certify_circle",
    "certify_circle_sphere", "certify_circle_sphere_gamma_loop", "certify_circle_tph",
    "certify_sphere", "certify_two_spheres", "check_pd", "circle_space",
    "circle_sphere_space", "circle_table", "circle_tph_space", "constant_scheme",
    "derived_parity_tail_set", "enhanced_block_check", "eval_kernel", "gegenbauer_table",
    "geometric_scheme", "gram_matrix", "has_infinitely_many", "jacobi_table",
    "kernel_values", "meets_every_progression", "one",
    "per_degree_forms", "prog", "s2_quadrature", "sample_config", "sph_basis_s2",
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
    "geometry": {
        "CirclePoint", "EnhancedSet", "S2HarmonicBasis", "SpherePoint", "build_enhanced",
        "s2_quadrature", "sample_config", "sph_basis_s2",
    },
    "gram": {
        "MAX_POINTS", "BlockCheck", "WitnessReport", "check_pd", "enhanced_block_check",
        "gram_matrix", "per_degree_forms", "witness_parity_sphere", "witness_product",
        "witness_progression_circle",
    },
    "kernels": {
        "BETA_BY_FAMILY", "CoefficientScheme", "DEFAULT_TRUNCATION", "DIMENSION_RULES",
        "KernelSpec", "MAX_TRUNCATION_BOX", "SpaceDescriptor", "circle_space",
        "circle_sphere_space", "circle_tph_space", "constant_scheme", "eval_kernel",
        "geometric_scheme", "kernel_values", "sphere_space",
    },
    "orthopoly": {"MAX_DEGREE", "circle_table", "gegenbauer_table", "jacobi_table"},
    "supportsets": {
        "MAX_PERIOD", "MAX_WITNESS_WORK", "Parity", "PeriodicSet1D", "ProgressionWitness",
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
