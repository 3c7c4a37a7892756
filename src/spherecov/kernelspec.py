"""On-disk kernel descriptions: a small JSON schema for the three families.

Top-level "kind" selects the family:

    {"kind": "sphere", "d": 2, "coeffs": [0.5, 0.5], "scale": 1.0}
    {"kind": "sphere_time", "d": 2, "scale": 1.0,
     "terms": [{"a": 1.0, "charfn": {"family": "gaussian", "params": {"sigma": 1.0}}}]}
    {"kind": "product_spheres", "d1": 2, "d2": 2, "matrix": [[1.0]], "scale": 1.0}

"scale" is optional (default 1) and multiplies the kernel; coefficient mass
is normalized away into the kernel's scale on load, so specs need not sum
to one. Unknown keys are rejected to catch typos early.
"""

import dataclasses
import json

from .errors import KernelSpecError, SphereCovError
from .gegenbauer import GegenbauerBasis, _check_count
from .product_spheres import make_ps_kernel
from .schoenberg import make_sequence
from .spacetime import make_charfn, make_st_kernel

__all__ = [
    "kernel_from_dict",
    "kernel_to_dict",
    "read_kernel_file",
    "write_kernel_file",
]


def _require_keys(doc: dict, required: tuple, optional: tuple, where: str):
    keys = set(doc)
    missing = [k for k in required if k not in keys]
    if missing:
        raise KernelSpecError(f"{where}: missing required key(s) {missing}")
    unknown = sorted(keys - set(required) - set(optional))
    if unknown:
        raise KernelSpecError(f"{where}: unknown key(s) {unknown}")


def _as_number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise KernelSpecError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise KernelSpecError(f"{name} is an integer too large for a float") from None


def _apply_scale(kernel, scale: float):
    if scale == 1.0:
        return kernel
    return dataclasses.replace(kernel, scale_c=kernel.scale_c * scale)


def _numbers(value, name: str):
    """`value`, once `_as_number` has passed every leaf of its nested JSON
    arrays; the kernel's intake then checks the shape. The walk keeps its own
    stack, so it takes any depth that `json` parsed."""
    stack = [(value, name)]
    while stack:
        item, path = stack.pop()
        if isinstance(item, list):
            stack.extend((item[i], f"{path}[{i}]") for i in reversed(range(len(item))))
        else:
            _as_number(item, path)
    return value


def _read_weights(make, key: str):
    """Reader of a payload that is the kernel's weight array: `make` (a
    `make_*`) normalizes the numbers and its intake checks their shape."""
    return lambda payload, bases: make(_numbers(payload, key), *bases, normalize=True)


def _read_terms(terms_doc, bases):
    if not isinstance(terms_doc, list) or not terms_doc:
        raise KernelSpecError("terms must be a nonempty array of objects")
    terms = []
    for i, term in enumerate(terms_doc):
        if not isinstance(term, dict):
            raise KernelSpecError(f"terms[{i}] must be an object")
        _require_keys(term, ("a", "charfn"), (), f"terms[{i}]")
        cf_doc = term["charfn"]
        if not isinstance(cf_doc, dict):
            raise KernelSpecError(f"terms[{i}].charfn must be an object")
        _require_keys(cf_doc, ("family",), ("params",), f"terms[{i}].charfn")
        params = cf_doc.get("params", {})
        if not isinstance(params, dict):
            raise KernelSpecError(f"terms[{i}].charfn.params must be an object")
        params = {k: _as_number(v, f"terms[{i}].charfn.params.{k}") for k, v in params.items()}
        cf = make_charfn(str(cf_doc["family"]), params)
        terms.append((_as_number(term["a"], f"terms[{i}].a"), cf))
    return make_st_kernel(terms, *bases, normalize=True)


def _write_terms(kernel) -> list:
    return [
        {"a": float(a), "charfn": {"family": cf.family, "params": cf.param_dict}}
        for a, cf in zip(kernel.weights, kernel.charfns)
    ]


# kind -> (dimension keys, payload key, payload -> kernel given the bases, kernel -> payload).
# A kernel class names its entry in its `kind` attribute.
_KINDS = {
    "sphere": (("d",), "coeffs", _read_weights(make_sequence, "coeffs"), lambda kernel: kernel.coeffs.tolist()),
    "sphere_time": (("d",), "terms", _read_terms, _write_terms),
    "product_spheres": (
        ("d1", "d2"), "matrix", _read_weights(make_ps_kernel, "matrix"), lambda kernel: kernel.coeff_matrix.tolist()
    ),
}
KINDS = tuple(_KINDS)


def kernel_from_dict(doc: dict):
    """Validate a parsed spec document into one of the three kernel types."""
    if not isinstance(doc, dict):
        raise KernelSpecError(f"kernel spec must be a JSON object, got {type(doc).__name__}")
    kind = doc.get("kind")
    if kind not in KINDS:
        raise KernelSpecError(f"kind must be one of {list(KINDS)}, got {kind!r}")
    dimension_keys, payload_key, read, _ = _KINDS[kind]
    try:
        _require_keys(doc, ("kind", *dimension_keys, payload_key), ("scale",), f"{kind} spec")
        dims = [_check_count(doc[key], key, 1, KernelSpecError) for key in dimension_keys]
        bases = [GegenbauerBasis.from_dimension(d) for d in dims]
        return _apply_scale(read(doc[payload_key], bases), _as_number(doc.get("scale", 1.0), "scale"))
    except KernelSpecError:
        raise
    except SphereCovError as exc:
        raise KernelSpecError(f"invalid {kind} spec: {exc}") from exc


def kernel_to_dict(kernel) -> dict:
    """Serialize a kernel back to the spec schema (normalized coefficients,
    total mass in "scale")."""
    kind = getattr(kernel, "kind", None)
    if kind not in KINDS:
        raise KernelSpecError(f"cannot serialize {type(kernel).__name__}")
    dimension_keys, payload_key, _, write = _KINDS[kind]
    return {
        "kind": kind,
        **dict(zip(dimension_keys, kernel.dimensions)),
        payload_key: write(kernel),
        "scale": kernel.scale_c,
    }


def read_kernel_file(path):
    """Load and validate a kernel-spec JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise KernelSpecError(f"cannot read spec file {path}: {exc}") from exc
    except RecursionError:
        raise KernelSpecError(f"spec file {path} nests too deeply to be read") from None
    except ValueError as exc:  # invalid JSON, or an integer too long to convert
        raise KernelSpecError(f"spec file {path} is not valid JSON: {exc}") from exc
    return kernel_from_dict(doc)


def write_kernel_file(kernel, path):
    """Serialize a kernel to a spec JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(kernel_to_dict(kernel), fh, indent=2)
        fh.write("\n")
