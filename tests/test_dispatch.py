"""The CLI, the field samplers and the spec format never branch on the kernel
family: family facts live on the kernel classes and in kernelspec's kind
table. Only the generic `isinstance(points, point_set_type(kernel))` check
of fields remains, and it names no family. Likewise no module branches on
the characteristic-function family: its facts live in spacetime's family
table."""

import ast
import inspect
from pathlib import Path

import pytest

import helpers
import spherecov
from spherecov import spacetime

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


CHARFN_CONSTANTS = {"GAUSSIAN", "EXPONENTIAL", "STABLE", "TRIANGLE_SINC", "POINT_MASS_AT_ZERO"}
CHARFN_NAMES = {getattr(spacetime, name) for name in CHARFN_CONSTANTS}


def _names_charfn_family(node):
    """Whether an expression is a family constant, a family-name string, or
    a tuple, list or set holding one."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_names_charfn_family(elt) for elt in node.elts)
    if isinstance(node, ast.Name):
        return node.id in CHARFN_CONSTANTS
    if isinstance(node, ast.Attribute):
        return node.attr in CHARFN_CONSTANTS
    return isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value in CHARFN_NAMES


def _charfn_family_comparisons(source):
    """Line numbers of comparisons and match cases against a family."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Compare) and any(map(_names_charfn_family, [node.left, *node.comparators])))
        or (isinstance(node, ast.MatchValue) and _names_charfn_family(node.value))
    ]


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_no_charfn_family_comparison(module):
    assert _charfn_family_comparisons((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_guard_flags_per_family_branches():
    source = inspect.getsource(helpers.charfn_eval_branches)
    assert len(_charfn_family_comparisons(source)) == 4
    assert _charfn_family_comparisons('ok = family in ("stable", "gaussian")') == [1]
    assert _charfn_family_comparisons("match family:\n    case spacetime.STABLE:\n        pass") == [2]
