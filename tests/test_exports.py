"""Every exported name and every function the bench tracer wraps must resolve."""

import ast
import importlib
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

MODULES = ["pauligl", "pauligl.algebra", "pauligl.cli", "pauligl.composition",
           "pauligl.decomposition", "pauligl.fileio", "pauligl.indexing",
           "pauligl.symmetry", "pauligl.verify"]


# The package's public surface.  A name joins it by a decision, not by drift:
# whatever has only test callers and carries no paper behaviour lives in
# tests/reference.py instead.
PUBLIC = [
    "ANTISYMMETRIC_GL4_SUPPORT", "BlockCuts", "BlockLocal", "ClosedFormReport",
    "CoefficientTensor", "ComponentCheck", "DEFAULT_PRUNE_TOL",
    "DimensionError", "DomainError", "EPSILON", "FamilyCheck",
    "FileFormatError", "Half", "Phase", "QVector", "REALNESS_TOL",
    "ScaledMultiIndex", "SuiteResult", "SymmetryKind",
    "TABULATED_ANTISYM_COMPONENTS", "VerificationReport", "basis_element",
    "block_global_from_local", "block_local_from_global", "classify_basis",
    "coeff_distance", "coeffs_to_qvector", "compose", "compose_antisym_gl4",
    "compose_gl4", "decompose", "lex_global_from_local",
    "lex_local_from_global", "multi_product", "pauli_matrix", "project",
    "qvector_to_coeffs", "qvector_to_dense", "reconstruct",
    "run_verification", "single_product", "transpose_coeffs",
    "validate_multi_index", "verify_closed_forms",
]


def test_public_surface():
    import pauligl
    assert len(PUBLIC) == 44 and PUBLIC == sorted(PUBLIC)
    assert len(set(pauligl.__all__)) == len(pauligl.__all__)
    assert sorted(pauligl.__all__) == PUBLIC


@pytest.mark.parametrize("module", MODULES)
def test_all_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


def tracer_sites() -> list:
    """(module, attribute) of each SITES entry, read from the source text."""
    for node in ast.parse(TRACER.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SITES"]):
            return [(ast.literal_eval(site.elts[0]), ast.literal_eval(site.elts[1]))
                    for site in node.value.elts]
    raise AssertionError(f"no SITES assignment in {TRACER}")


@pytest.mark.parametrize("module,attr", tracer_sites())
def test_tracer_site_resolves(module, attr):
    owner = importlib.import_module(module)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    # the tracer patches a method found in the class's own __dict__
    target = vars(owner)[name] if classes else getattr(owner, name)
    assert callable(target)
