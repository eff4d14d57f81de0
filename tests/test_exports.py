"""Every exported name and every function the bench tracer wraps must resolve."""

import ast
import importlib
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

MODULES = ["pauligl", "pauligl.algebra", "pauligl.cli", "pauligl.composition",
           "pauligl.decomposition", "pauligl.fileio", "pauligl.indexing",
           "pauligl.symmetry", "pauligl.verify"]


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
