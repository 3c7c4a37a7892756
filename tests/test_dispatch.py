"""The CLI, the field samplers and the spec format never branch on the kernel
family: family facts live on the kernel classes and in kernelspec's kind
table. Only the generic `isinstance(points, point_set_type(kernel))` check
of fields remains, and it names no family. Likewise no module branches on
the characteristic-function family: its facts live in spacetime's family
table. No point-set class writes a protocol member of its own: pointsets
writes them once, over each point set's factors. No kernel class writes its own
`dimensions`, `label`, `truncations` or weight intake: schoenberg's `_Kernel`
writes them once, over each kernel's weight and basis fields. Every integer
input is checked by gegenbauer's `_check_count`, and nothing else in the
package tests whether a value is an integer. Every real-number parameter is
checked by gegenbauer's `_check_real`, and only the owners named in
`REAL_CHECK_OWNERS` test a float for finiteness or a value for realness.
Every caller's array is converted to floats by gegenbauer's `_float_array`,
and only the owners named in `FLOAT_CONVERSION_OWNERS` convert other values.
Every float overflow that must end in an error goes through gegenbauer's
`_overflow`, the only code that sets numpy's error state to "raise" or
"call", and nothing names `FloatingPointError`; any other `np.errstate`
lets an inf through to a later check and sits in `OVERFLOW_OWNERS` with its
reason.
Every `functools.lru_cache` has an explicit int `maxsize`, so no cache in the
package grows without bound. Only gegenbauer's `_fill` runs the recurrence
step `_step`, so every degree table comes from one loop, and only its
`_newton_roots` runs the ratio recurrence `_ratio`, so every Gauss root that
is not in closed form comes from one loop too; `_ratio` itself steps through
its βs in one loop, for Newton and Sturm passes alike. `_newton_roots` and
`_christoffel_weights` each have one caller, the route of every Gauss rule
that is not in closed form, and `_gauss_rule` is the one caller of the
iteration-free λ = 1/2 rule `_legendre_rule`. The norm h_n, the Gram pair
order and the split of a seed into child seeds each have one definition
(`ONE_DEFINITION`). Each public name is written once, in its module's
`__all__`; the package root only joins those lists. Each module imports only
the modules before it in `MODULE_ORDER`, and only at its top."""

import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
import spherecov
from spherecov import (
    GegenbauerBasis,
    ProductSphereKernel,
    SpaceTimeKernel,
    make_ps_kernel,
    make_sequence,
    make_st_kernel,
    spacetime,
)
from spherecov.schoenberg import _Kernel

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


INTAKE_CALLS = {"array", "asarray", "setflags"}


def _post_init_intake(source):
    """(class, line) of each `np.array`, `np.asarray` or `.setflags` call in a
    `__post_init__`: stored arrays must be taken in by `_frozen_floats`."""
    sites = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if isinstance(method, ast.FunctionDef) and method.name == "__post_init__":
                sites += [
                    (cls.name, node.lineno)
                    for node in ast.walk(method)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in INTAKE_CALLS
                ]
    return sites


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_post_init_takes_arrays_through_one_helper(module):
    assert _post_init_intake((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_guard_flags_hand_written_intake():
    source = (
        "class A:\n"
        "    def __post_init__(self):\n"
        "        v = np.array(self.values, dtype=float)\n"
        "        v.setflags(write=False)\n"
        "class B:\n"
        "    def __post_init__(self):\n"
        "        w = numpy.asarray(self.w)\n"
        "    def other(self):\n"
        "        return np.array(self.w)\n"
    )
    assert _post_init_intake(source) == [("A", 3), ("A", 4), ("B", 7)]


PROTOCOL_MEMBERS = {"dimensions", "n_columns", "from_columns", "columns", "random"}
POINT_SET_CLASSES = {cls.__name__ for cls in spherecov.fields._POINT_SET_TYPES.values()}
KERNEL_MEMBERS = {"dimensions", "label", "truncations"}
KERNEL_CLASSES = {cls.__name__ for cls in _Kernel.__subclasses__()}


def _own_members(source, classes=POINT_SET_CLASSES, members=PROTOCOL_MEMBERS):
    """(class, member) of each of `members` that one of `classes` defines or
    assigns in its own body: the protocol is written once, in a shared base."""
    sites = []
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef) or cls.name not in classes:
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            sites += [(cls.name, name) for name in names if name in members]
    return sites


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_point_sets_share_one_protocol(module):
    assert _own_members((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_guard_flags_per_class_protocol_members():
    source = (
        "class SpherePointSet(Base):\n"
        "    @property\n"
        "    def dimensions(self):\n"
        "        return (self.dimension,)\n"
        "    def __len__(self):\n"
        "        return 1\n"
        "class ProductPointSet:\n"
        "    random = classmethod(draw)\n"
        "    columns: object = None\n"
        "class Elsewhere:\n"
        "    def pair_arguments(self, pairs):\n"
        "        return ()\n"
    )
    assert _own_members(source) == [
        ("SpherePointSet", "dimensions"), ("ProductPointSet", "random"), ("ProductPointSet", "columns"),
    ]


@pytest.mark.parametrize("cls", sorted(spherecov.fields._POINT_SET_TYPES.values(), key=lambda cls: cls.__name__))
def test_point_set_classes_inherit_the_protocol(cls):
    assert PROTOCOL_MEMBERS.isdisjoint(vars(cls))


def test_every_kernel_class_shares_the_kernel_protocol():
    assert KERNEL_CLASSES == {cls.__name__ for cls in spherecov.fields._POINT_SET_TYPES}


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_kernels_share_one_protocol(module):
    assert _own_members((PACKAGE / module).read_text(encoding="utf-8"), KERNEL_CLASSES, KERNEL_MEMBERS) == []


@pytest.mark.parametrize("cls", _Kernel.__subclasses__(), ids=lambda cls: cls.__name__)
def test_kernel_classes_inherit_the_protocol(cls):
    assert KERNEL_MEMBERS.isdisjoint(vars(cls))


def _calls(source, name):
    """Line numbers of the calls of `name`, bare or as an attribute."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]


def test_weights_are_stored_from_one_place():
    sites = [
        (path.name, line)
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _calls(path.read_text(encoding="utf-8"), "_stored_weights")
    ]
    assert [module for module, _ in sites] == ["schoenberg.py"]


def test_guard_flags_per_class_kernel_members_and_intake():
    source = (
        "class SpaceTimeKernel(_Kernel):\n"
        "    def __post_init__(self):\n"
        "        w = _stored_weights(self.weights, 1, 'weights', self.scale_c)\n"
        "    @property\n"
        "    def label(self):\n"
        "        return 'x'\n"
        "    def values(self, x, t):\n"
        "        return x\n"
        "class ProductSphereKernel(_Kernel):\n"
        "    truncations = property(lambda self: (0, 0))\n"
        "    def __post_init__(self):\n"
        "        schoenberg._stored_weights(self.coeff_matrix, 2, 'coeff_matrix', self.scale_c)\n"
    )
    assert _own_members(source, KERNEL_CLASSES, KERNEL_MEMBERS) == [
        ("SpaceTimeKernel", "label"), ("ProductSphereKernel", "truncations"),
    ]
    assert _calls(source, "_stored_weights") == [3, 12]


# The one integer rule, and the one real-valued integrality test: 2λ + 1 must
# be a whole number for λ to index a sphere.
INTEGER_CHECK_OWNERS = {"index": "_check_count", "integrality": "GegenbauerBasis.from_index"}


def _integer_checks(source):
    """(kind, scope, line) of each integer check outside its owner: a call of
    `operator.index` or `__index__` (kind "index"), and an `==`/`!=` comparison
    with an `int(...)` call or an `is_integer()` call (kind "integrality")."""
    sites = []

    def is_int_call(node):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "int"

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        kind = None
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            target = node.func
            if target.attr == "__index__" or (
                target.attr == "index" and isinstance(target.value, ast.Name) and target.value.id == "operator"
            ):
                kind = "index"
            elif target.attr == "is_integer":
                kind = "integrality"
        elif isinstance(node, ast.Compare) and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            if any(map(is_int_call, [node.left, *node.comparators])):
                kind = "integrality"
        if kind and scope != INTEGER_CHECK_OWNERS[kind]:
            sites.append((kind, scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return sites


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_integers_are_checked_by_one_rule(module):
    assert _integer_checks((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_guard_flags_hand_written_integer_checks():
    source = (
        "import operator\n"
        "def _check_count(value):\n"
        "    return operator.index(value)\n"
        "def degree(n):\n"
        "    if n != int(n):\n"
        "        raise ValueError\n"
        "    return operator.index(n) + n.__index__()\n"
        "class GegenbauerBasis:\n"
        "    def from_index(cls, lam):\n"
        "        return 2 * lam + 1 == int(round(2 * lam + 1))\n"
        "    def order(self, k):\n"
        "        return k.is_integer() and [k].index(k) == 0 and int(k) < 3\n"
    )
    assert _integer_checks(source) == [
        ("integrality", "degree", 5), ("index", "degree", 7), ("index", "degree", 7),
        ("integrality", "GegenbauerBasis.order", 12),
    ]


# Who may test a float for finiteness or a value for realness, and why.
REAL_CHECK_OWNERS = {
    "_check_real": "the one real-number rule",
    "_is_real": "its test of realness, which `_float_array` applies to each element of an object array",
    "_load_table_function": "the rows of a table file: data, not a parameter, each reported with its line number",
}
REAL_CHECKS = {("math", "isfinite"), ("math", "isnan"), ("math", "isinf"), ("numbers", "Real")}


def _real_checks(source):
    """(name, scope, line) of each `math.isfinite`, `math.isnan`, `math.isinf` or
    `numbers.Real`, used or imported by name, outside the function that owns it."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        found = []
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            found = [(node.value.id, node.attr)]
        elif isinstance(node, ast.ImportFrom):
            found = [(node.module, alias.name) for alias in node.names]
        for module, name in found:
            if (module, name) in REAL_CHECKS and scope not in REAL_CHECK_OWNERS:
                sites.append((f"{module}.{name}", scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return sites


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_reals_are_checked_by_one_rule(module):
    assert _real_checks((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_guard_flags_hand_written_real_checks():
    source = (
        "import math, numbers\n"
        "from math import isnan\n"
        "def _check_real(value):\n"
        "    return isinstance(value, numbers.Real) and math.isfinite(value)\n"
        "def tolerance(tol):\n"
        "    if not math.isfinite(tol) or math.isinf(tol):\n"
        "        raise ValueError\n"
        "    return isinstance(tol, numbers.Real) and math.exp(tol) > 0\n"
        "class Kernel:\n"
        "    def scale(self, c):\n"
        "        return math.isnan(c) or np.isfinite(c)\n"
    )
    assert _real_checks(source) == [
        ("math.isnan", "", 2), ("math.isfinite", "tolerance", 6), ("math.isinf", "tolerance", 6),
        ("numbers.Real", "tolerance", 8), ("math.isnan", "Kernel.scale", 11),
    ]


# Who may convert values to a float array, and why.
FLOAT_CONVERSION_OWNERS = {
    "_float_array": "the one conversion of caller data, where the number rule lives",
    "_evaluate": "a callback's results, which may be anything numpy casts, as pointwise ones may",
    "_pchip.interpolant": "a callback's input, the nodes that certify or recover passes in",
    "_norms": "Python floats that it computed itself",
}


# Where a float dtype can be passed without its keyword.
DTYPE_POSITION = {"array": 1, "asarray": 1, "astype": 0}


def _is_float(node):
    return (isinstance(node, ast.Name) and node.id == "float") or (
        isinstance(node, ast.Attribute) and node.attr == "float64"
    )


def _float_conversions(source):
    """(scope, line) of each `np.asarray` or `np.array` with a float dtype and
    each `.astype(float)`, outside the functions that own one."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in DTYPE_POSITION:
            position = DTYPE_POSITION[node.func.attr]
            dtypes = node.args[position : position + 1] + [k.value for k in node.keywords if k.arg == "dtype"]
            if any(map(_is_float, dtypes)) and scope not in FLOAT_CONVERSION_OWNERS:
                sites.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return sites


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_caller_arrays_are_converted_in_one_place(module):
    assert _float_conversions((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_guard_flags_a_second_float_conversion():
    source = (
        "def _float_array(values):\n"
        "    return np.asarray(values, dtype=float)\n"
        "def _frozen_floats(values):\n"
        "    return _immutable(np.asarray(values, dtype=float))\n"
        "def lags(t):\n"
        "    return np.array(t, float), numpy.asarray(t, dtype=np.float64), np.asarray(t)\n"
        "class PointSet:\n"
        "    def times(self):\n"
        "        return self.t.astype(float), self.t.astype(dtype=float), self.t.astype(int)\n"
        "def _pchip(xs):\n"
        "    def interpolant(x):\n"
        "        return np.asarray(x, dtype=float)\n"
        "    return np.asarray(xs, dtype=float)\n"
    )
    assert _float_conversions(source) == [
        ("_frozen_floats", 4), ("lags", 6), ("lags", 6), ("PointSet.times", 9), ("PointSet.times", 9), ("_pchip", 13),
    ]


# The one overflow rule, and who may let an inf or NaN through to a later
# check instead, and why.
OVERFLOW_RULE = ("gegenbauer.py", "_overflow")
OVERFLOW_OWNERS = {
    "_charfn_values": "at a huge lag the exponent overflows to inf, and exp(-inf) is exactly 0",
    "_positive_roots": "a zero Sturm ratio gives an infinite next one and a finite one after",
    "_recover": "its check names the first coefficient that overflows",
    "_pchip": "its check names the table whose slopes overflow",
    "_pchip.interpolant": "an overflowing value meets the callback check, which names the node",
    "_check_unit_norms": "an overflowing norm is inf and fails the unit-norm tolerance",
    "_evaluate": "a callback's value beyond float64 range casts to inf, which its finiteness check names",
}


def _overflow_faults(source, module):
    """(kind, scope, line) of each overflow site of `module` outside its owner:
    a `FloatingPointError`, or an `np.errstate` that raises or calls (a "raise"
    or "call" value or a `call` keyword), outside `OVERFLOW_RULE` (kind "raise"),
    and any other `np.errstate` outside it and `OVERFLOW_OWNERS` (kind "errstate")."""
    sites = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        kind = None
        if getattr(node, "id", getattr(node, "attr", None)) == "FloatingPointError":
            kind = "raise"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "errstate":
            raises = any(
                k.arg == "call" or (isinstance(k.value, ast.Constant) and k.value.value in ("raise", "call"))
                for k in node.keywords
            )
            kind = "raise" if raises else "errstate"
        in_rule = (module, scope.split(".")[0]) == OVERFLOW_RULE
        if kind and not in_rule and (kind == "raise" or scope not in OVERFLOW_OWNERS):
            sites.append((kind, scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return sites


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_overflows_follow_one_rule(module):
    assert _overflow_faults((PACKAGE / module).read_text(encoding="utf-8"), module) == []


def test_guard_flags_hand_written_overflow_checks():
    source = (
        "def _overflow(message):\n"
        "    def fail(kind, flag):\n"
        "        raise DomainError(message)\n"
        "    return np.errstate(call=fail, over='call', invalid='call')\n"
        "def _recover(g):\n"
        "    with np.errstate(over='ignore'):\n"
        "        return g()\n"
        "def scale(out, c):\n"
        "    try:\n"
        "        with np.errstate(all='raise'):\n"
        "            out *= c\n"
        "    except builtins.FloatingPointError:\n"
        "        pass\n"
        "    with np.errstate(call=print), np.errstate(over='ignore'):\n"
        "        return out.sum()\n"
    )
    planted = [("raise", "scale", 10), ("raise", "scale", 12), ("raise", "scale", 14), ("errstate", "scale", 14)]
    assert _overflow_faults(source, "gegenbauer.py") == planted
    assert _overflow_faults(source, "fields.py") == [("raise", "_overflow", 4)] + planted


def _unbounded_caches(source):
    """Lines of each `functools.cache`, and of each `functools.lru_cache` not
    called with an int literal as its maxsize, used as `functools.<name>` or
    imported by name."""
    tree = ast.parse(source)
    imported = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
    }

    def cache_name(node):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "functools":
            return node.attr
        return imported.get(node.id) if isinstance(node, ast.Name) else None

    bounded = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and cache_name(node.func) == "lru_cache":
            size = node.args[0] if node.args else next((k.value for k in node.keywords if k.arg == "maxsize"), None)
            if isinstance(size, ast.Constant) and type(size.value) is int:
                bounded.add(node.func)
    return sorted(
        node.lineno for node in ast.walk(tree) if cache_name(node) in {"lru_cache", "cache"} and node not in bounded
    )


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")))
def test_every_cache_has_an_explicit_bound(module):
    assert _unbounded_caches((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_guard_flags_unbounded_caches():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache as memo\n"
        "@functools.lru_cache(maxsize=64)\n"
        "def bounded(x): ...\n"
        "@functools.lru_cache\n"
        "def bare(x): ...\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def unbounded(x): ...\n"
        "@functools.cache\n"
        "def cached(x): ...\n"
        "@cache\n"
        "def imported(x): ...\n"
        "@memo()\n"
        "def default_size(x): ...\n"
        "@memo(16, typed=True)\n"
        "def positional(x): ...\n"
        "@functools.lru_cache(maxsize=SIZE)\n"
        "def named_size(x): ...\n"
        "table = functools.lru_cache()(len)\n"
    )
    assert _unbounded_caches(source) == [5, 7, 9, 11, 13, 17, 19]


def _uses(source, name):
    """(enclosing function, line) of each use of `name` other than its
    definition, bare or as an attribute: a call, or an alias that could call it."""
    uses = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Name) and node.id == name) or (
            isinstance(node, ast.Attribute) and node.attr == name
        ):
            uses.append((owner, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(source), "")
    return uses


def test_one_loop_runs_the_recurrence_step():
    sites = [
        (path.name, owner)
        for path in sorted(PACKAGE.glob("*.py"))
        for owner, _ in _uses(path.read_text(encoding="utf-8"), "_step")
    ]
    assert sites == [("gegenbauer.py", "_fill")]


def test_guard_flags_a_second_recurrence_loop():
    source = (
        "def _step(lam, n, x, last, before, out, scratch):\n"
        "    return out\n"
        "def _fill(lam, n_max, x, buffer):\n"
        "    _step(lam, 2, x, x, x, buffer[0], buffer[1])\n"
        "def _table(lam, n_max, x):\n"
        "    for n in range(2, n_max + 1):\n"
        "        gegenbauer._step(lam, n, x, x, x, x, x)\n"
        "step = _step\n"
    )
    assert _uses(source, "_step") == [("_fill", 4), ("_table", 7), ("", 8)]


def test_one_loop_finds_the_gauss_roots():
    source = (PACKAGE / "gegenbauer.py").read_text(encoding="utf-8")
    defined = {node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)}
    assert "_bisect" not in defined and "_newton_roots" in defined
    callers = {
        (path.name, owner)
        for path in sorted(PACKAGE.glob("*.py"))
        for owner, _ in _uses(path.read_text(encoding="utf-8"), "_ratio")
    }
    assert callers == {("gegenbauer.py", "_newton_roots")}


@pytest.mark.parametrize("name, owner", [("_newton_roots", "_positive_roots"), ("_christoffel_weights", "_gauss_rule")])
def test_one_caller_runs_the_recurrence_route(name, owner):
    # The closed-form Gauss–Chebyshev rules at λ = 0 and 1 take neither the
    # Newton roots nor the Christoffel weights; only the recurrence route does.
    sites = [
        (path.name, caller)
        for path in sorted(PACKAGE.glob("*.py"))
        for caller, _ in _uses(path.read_text(encoding="utf-8"), name)
    ]
    assert sites == [("gegenbauer.py", owner)]


def test_only_gauss_rule_takes_the_legendre_series():
    # The iteration-free λ = 1/2 rule is a route of `_gauss_rule`, so it is
    # built once per (lam, order), cached and checked like the others.
    sites = [
        (path.name, caller)
        for path in sorted(PACKAGE.glob("*.py"))
        for caller, _ in _uses(path.read_text(encoding="utf-8"), "_legendre_rule")
    ]
    assert sites == [("gegenbauer.py", "_gauss_rule")]


def test_guard_flags_a_second_root_route():
    source = (
        "def _ratio(betas, x, counts=None):\n"
        "    return x\n"
        "def _newton_roots(lam, order, betas):\n"
        "    _ratio(betas, x)\n"
        "def _bisect(betas, above):\n"
        "    gegenbauer._ratio(betas, above, counts)\n"
    )
    assert _uses(source, "_ratio") == [("_newton_roots", 4), ("_bisect", 6)]


# Nodes that run their body more than once.
_LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _reads_betas(node, top=True):
    """Whether `node` reads `betas` other than as `len(betas)`, without looking
    inside the loops nested in it."""
    if not top and isinstance(node, _LOOPS):
        return False
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "len":
        return False
    if isinstance(node, ast.Name) and node.id == "betas":
        return True
    return any(_reads_betas(child, False) for child in ast.iter_child_nodes(node))


def _beta_loops(source):
    """Lines of the loops of `_ratio` that step through its βs: a loop whose
    own header or body (not a nested loop's) reads `betas`. A loop over chunks
    that only reads `len(betas)` does not count."""
    function = next(
        node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef) and node.name == "_ratio"
    )
    assert function.args.args[0].arg == "betas"
    return sorted(node.lineno for node in ast.walk(function) if isinstance(node, _LOOPS) and _reads_betas(node))


def test_one_loop_runs_the_ratio_recurrence():
    # Newton and Sturm passes share it; they differ only in the rows they write.
    assert len(_beta_loops((PACKAGE / "gegenbauer.py").read_text(encoding="utf-8"))) == 1


def test_guard_flags_a_second_ratio_loop():
    source = (
        "def _ratio(betas, x, counts=None):\n"
        "    q = x\n"
        "    for start in range(0, len(betas), 4):\n"
        "        for beta in betas[start : start + 4]:\n"
        "            q = x - beta / q\n"
        "    if counts is not None:\n"
        "        i = 0\n"
        "        while i < len(betas):\n"
        "            q = x - betas[i] / q\n"
        "            i += 1\n"
        "    return [x - b for b in betas]\n"
        "def _newton_roots(lam, order, betas):\n"
        "    for beta in betas:\n"
        "        pass\n"
    )
    assert _beta_loops(source) == [4, 8, 11]


# Facts with one definition each, by the name only that definition may use:
# h_n (only `_log_norm_squared` takes a log-Gamma, and `_norms` reads it
# through `_norm_squared`), the Gram pair order of pointsets (the `_upper` mask,
# which `_trial_index` reads through `_mirror_rows`) and the split of a seed
# into child seeds (`_seed_states`). Values: the modules searched (None for
# all) and the allowed (module, enclosing function) pairs.
ONE_DEFINITION = {
    "lgamma": (["gegenbauer.py"], {("gegenbauer.py", "_log_norm_squared")}),
    "triu_indices": (["pointsets.py"], set()),
    "SeedSequence": (None, {("pointsets.py", "_seed_states")}),
}


@pytest.mark.parametrize("name", sorted(ONE_DEFINITION))
def test_each_fact_has_one_definition(name):
    modules, owners = ONE_DEFINITION[name]
    paths = sorted(PACKAGE.glob("*.py")) if modules is None else [PACKAGE / module for module in modules]
    sites = {(path.name, owner) for path in paths for owner, _ in _uses(path.read_text(encoding="utf-8"), name)}
    assert sites == owners


@pytest.mark.parametrize(
    "name, source, uses",
    [
        (
            "lgamma",
            "def _log_norm_squared(lam, n):\n"
            "    return math.lgamma(n + 1.0)\n"
            "def _norms(lam, count):\n"
            "    return _mapped(math.lgamma, np.arange(count) + 1.0)\n",
            [("_log_norm_squared", 2), ("_norms", 4)],
        ),
        (
            "triu_indices",
            "def _trial_index(n):\n"
            "    rows, cols = np.triu_indices(n)\n",
            [("_trial_index", 2)],
        ),
        (
            "SeedSequence",
            "def _seed_states(seed, count):\n"
            "    return np.random.SeedSequence(seed).generate_state(count)\n"
            "def _random_points(kernel, n, seed):\n"
            "    states = SeedSequence(seed).generate_state(2)\n",
            [("_seed_states", 2), ("_random_points", 4)],
        ),
    ],
)
def test_guard_flags_a_second_definition(name, source, uses):
    assert _uses(source, name) == uses


# The package's modules in import order: each imports only modules before it,
# and only at its top, so no module needs a function-level import to break a
# cycle. `__init__` and `__main__` come after all of them.
MODULE_ORDER = [
    "errors", "gegenbauer", "pointsets", "schoenberg", "spacetime", "product_spheres", "fields", "kernelspec", "cli",
]


def _imported_modules(node):
    """The package modules that an import statement names."""
    if isinstance(node, ast.Import):
        dotted = [alias.name for alias in node.names]
    else:
        module = ".".join(filter(None, ["spherecov" if node.level else "", node.module]))
        dotted = [f"{module}.{alias.name}" for alias in node.names] if module == "spherecov" else [module]
    return [name.split(".")[1] for name in dotted if name.startswith("spherecov.")]


def _import_faults(source, module):
    """(line, fault) of each import in `source`, the package module `module`,
    that sits inside a function ("nested"), and of each package module it
    imports that does not come before `module` in `MODULE_ORDER` (its name)."""
    earlier = MODULE_ORDER[: MODULE_ORDER.index(module)] if module in MODULE_ORDER else MODULE_ORDER
    faults = []

    def visit(node, nested):
        nested = nested or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if nested:
                faults.append((node.lineno, "nested"))
            faults.extend((node.lineno, name) for name in _imported_modules(node) if name not in earlier)
        for child in ast.iter_child_nodes(node):
            visit(child, nested)

    visit(ast.parse(source), False)
    return faults


def test_the_module_order_names_every_module():
    assert sorted(MODULE_ORDER) == sorted({path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__"})


@pytest.mark.parametrize("module", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_modules_import_only_earlier_modules_at_their_top(module):
    assert _import_faults((PACKAGE / f"{module}.py").read_text(encoding="utf-8"), module) == []


def test_guard_flags_nested_and_later_imports():
    source = (
        "import numpy as np\n"
        "from . import errors, fields\n"
        "from .gegenbauer import _check_count\n"
        "from spherecov.kernelspec import read_kernel_file\n"
        "import spherecov.cli\n"
        "def certify(g):\n"
        "    from .fields import _seed_states\n"
        "    import math\n"
    )
    assert _import_faults(source, "schoenberg") == [
        (2, "fields"), (4, "kernelspec"), (5, "cli"), (7, "nested"), (7, "fields"), (8, "nested"),
    ]
    assert _import_faults(source, "cli") == [(5, "cli"), (7, "nested"), (8, "nested")]
    assert _import_faults(source, "__init__") == [(7, "nested"), (8, "nested")]


# Each public name is written once, in the `__all__` of the module that
# defines it. The package root names none: it imports its library modules,
# star-imports each one, and joins their `__all__` lists in that order.


def _root_faults(source):
    """(line, statement) of each statement of a package root other than its
    docstring, `from . import <modules>`, `from .<module> import *`,
    `__version__ = ...`, `__all__ = []` and `__all__ += <module>.__all__`."""
    faults = []
    for i, node in enumerate(ast.parse(source).body):
        text = ast.unparse(node)
        allowed = (
            (i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))
            or (
                isinstance(node, ast.ImportFrom)
                and node.level == 1
                and all(alias.asname is None for alias in node.names)
                and (node.module is None or [alias.name for alias in node.names] == ["*"])
            )
            or text.startswith("__version__ = ")
            or text == "__all__ = []"
            or re.fullmatch(r"__all__ \+= \w+\.__all__", text)
        )
        if not allowed:
            faults.append((node.lineno, text.splitlines()[0]))
    return faults


def _star_imported(source):
    """The modules a package root star-imports, in order."""
    return [
        node.module
        for node in ast.parse(source).body
        if isinstance(node, ast.ImportFrom) and node.module and [alias.name for alias in node.names] == ["*"]
    ]


def _export_faults(source):
    """The names in a module's `__all__`, a literal list, that the module does
    not define at its top level (by def, class or assignment) or that are private."""
    defined, exported = set(), None
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [target.id for target in targets if isinstance(target, ast.Name)]
            if names == ["__all__"]:
                exported = ast.literal_eval(node.value)
            defined.update(names)
    assert isinstance(exported, list), "no literal __all__ list"
    return [name for name in exported if name not in defined or name.startswith("_")]


def _joined_faults(exported, lists):
    """Each name `exported` more than once, then a note if `exported` is not
    the `lists` joined in order."""
    faults = sorted({name for name in exported if exported.count(name) > 1})
    return faults + ([] if list(exported) == [name for names in lists for name in names] else ["not joined in order"])


ROOT = (PACKAGE / "__init__.py").read_text(encoding="utf-8")


def test_the_root_names_no_public_object():
    assert _root_faults(ROOT) == []


def test_every_library_module_but_the_cli_is_exported():
    library = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__", "__main__", "cli"}
    assert sorted(_star_imported(ROOT)) == sorted(library)


@pytest.mark.parametrize("module", _star_imported(ROOT))
def test_each_module_exports_only_its_own_public_names(module):
    assert _export_faults((PACKAGE / f"{module}.py").read_text(encoding="utf-8")) == []


def test_the_root_exports_the_module_lists_joined():
    modules = [getattr(spherecov, name) for name in _star_imported(ROOT)]
    assert _joined_faults(spherecov.__all__, [module.__all__ for module in modules]) == []
    namespace = {}
    exec("from spherecov import *", namespace)
    del namespace["__builtins__"]
    assert namespace == {name: getattr(module, name) for module in modules for name in module.__all__}


def test_guards_flag_a_name_listed_twice_or_in_the_wrong_place():
    root = (
        '"""Docs."""\n'
        "from . import errors, fields\n"
        "from .errors import *\n"
        "from .errors import DomainError\n"
        "from .fields import gram as gram\n"
        "__version__ = '0.1.0'\n"
        "__all__ = ['DomainError']\n"
        "__all__ += errors.__all__\n"
        "__all__ += ['gram']\n"
        "def helper():\n"
        "    pass\n"
    )
    assert [line for line, _ in _root_faults(root)] == [4, 5, 7, 9, 10]
    assert _star_imported(root) == ["errors"]
    module = (
        "from .gegenbauer import quadrature\n"
        "__all__ = ['quadrature', '_step', 'gram']\n"
        "def _step(): pass\n"
        "def gram(): pass\n"
    )
    assert _export_faults(module) == ["quadrature", "_step"]
    assert _joined_faults(["a", "b", "a"], [["a", "b"], ["a"]]) == ["a"]
    assert _joined_faults(["b", "a"], [["a"], ["b"]]) == ["not joined in order"]


class TestKernelProtocol:
    """The kernel protocol, written once over each kernel's weight and basis
    fields, gives the values and label bytes of the members each class once
    wrote itself (`helpers.REFERENCE_KERNEL_MEMBERS`)."""

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from(sorted(helpers.REFERENCE_KERNEL_MEMBERS, key=lambda cls: cls.__name__)),
        d1=st.integers(1, 4),
        d2=st.integers(1, 4),
        m=st.integers(0, 12),
        n=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_members_match_the_reference(self, kind, d1, d2, m, n, seed):
        rng = np.random.default_rng(seed)
        basis1, basis2 = GegenbauerBasis.from_dimension(d1), GegenbauerBasis.from_dimension(d2)
        if kind is ProductSphereKernel:
            kernel = make_ps_kernel(rng.uniform(0.05, 1.0, (m + 1, n + 1)), basis1, basis2, normalize=True)
        elif kind is SpaceTimeKernel:
            terms = [(a, helpers.random_charfn(rng)) for a in rng.uniform(0.05, 1.0, n + 1)]
            kernel = make_st_kernel(terms, basis1, normalize=True)
        else:
            kernel = make_sequence(rng.uniform(0.05, 1.0, n + 1), basis1, normalize=True)
        ref = helpers.REFERENCE_KERNEL_MEMBERS[kind]
        assert type(kernel) is kind
        assert kernel.label == ref.label(kernel)
        assert kernel.dimensions == ref.dimensions(kernel)
        assert all(type(d) is int for d in kernel.dimensions)
        if kind is ProductSphereKernel:
            assert kernel.truncations == ref.truncations(kernel) == (m, n)
            assert not hasattr(kernel, "truncation")
        else:
            assert kernel.truncations == (ref.truncation(kernel),) == (kernel.truncation,) == (n,)
