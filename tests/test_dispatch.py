"""The CLI, the field samplers and the spec format never branch on the kernel
family: family facts live on the kernel classes and in kernelspec's kind
table. Only the generic `isinstance(points, point_set_type(kernel))` check
of fields remains, and it names no family."""

import ast
from pathlib import Path

import pytest

import spherecov

FAMILY_NAMES = {"SchoenbergSequence", "SpaceTimeKernel", "ProductSphereKernel", "Separable", "NonSeparable"}
PACKAGE = Path(spherecov.__file__).parent


def _named_types(node):
    """Names of the classes in the second argument of an isinstance call."""
    if isinstance(node, ast.Tuple):
        return {name for elt in node.elts for name in _named_types(elt)}
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


@pytest.mark.parametrize("module", ["cli.py", "fields.py", "kernelspec.py"])
def test_no_family_isinstance(module):
    tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
    sites = [
        (node.lineno, sorted(_named_types(node.args[1]) & FAMILY_NAMES))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance"
        and len(node.args) == 2
        and _named_types(node.args[1]) & FAMILY_NAMES
    ]
    assert sites == []
