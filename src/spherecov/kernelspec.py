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

import numpy as np

from .errors import KernelSpecError, SphereCovError
from .gegenbauer import GegenbauerBasis
from .product_spheres import make_ps_kernel
from .schoenberg import make_sequence
from .spacetime import make_charfn, make_st_kernel


def _require_keys(doc: dict, required: tuple, optional: tuple, where: str):
    keys = set(doc)
    missing = [k for k in required if k not in keys]
    if missing:
        raise KernelSpecError(f"{where}: missing required key(s) {missing}")
    unknown = sorted(keys - set(required) - set(optional))
    if unknown:
        raise KernelSpecError(f"{where}: unknown key(s) {unknown}")


def _as_positive_int(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise KernelSpecError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise KernelSpecError(f"{name} must be >= 1, got {value}")
    return value


def _as_number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise KernelSpecError(f"{name} must be a number, got {value!r}")
    return float(value)


def _as_scale(doc: dict) -> float:
    scale = _as_number(doc.get("scale", 1.0), "scale")
    if not scale > 0:
        raise KernelSpecError(f"scale must be positive, got {scale}")
    return scale


def _apply_scale(kernel, scale: float):
    if scale == 1.0:
        return kernel
    return dataclasses.replace(kernel, scale_c=kernel.scale_c * scale)


def _read_coeffs(coeffs, bases):
    if not isinstance(coeffs, list) or not coeffs:
        raise KernelSpecError("coeffs must be a nonempty array of numbers")
    values = [_as_number(c, f"coeffs[{i}]") for i, c in enumerate(coeffs)]
    return make_sequence(values, *bases, normalize=True)


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


def _read_matrix(matrix_doc, bases):
    if not isinstance(matrix_doc, list) or not matrix_doc:
        raise KernelSpecError("matrix must be a nonempty array of rows")
    width = None
    rows = []
    for i, row in enumerate(matrix_doc):
        if not isinstance(row, list) or not row:
            raise KernelSpecError(f"matrix[{i}] must be a nonempty array of numbers")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise KernelSpecError(
                f"matrix rows must have equal length: row 0 has {width}, row {i} has {len(row)}"
            )
        rows.append([_as_number(v, f"matrix[{i}][{j}]") for j, v in enumerate(row)])
    return make_ps_kernel(np.array(rows), *bases, normalize=True)


# kind -> (dimension keys, payload key, payload -> kernel given the bases, kernel -> payload).
# A kernel class names its entry in its `kind` attribute.
_KINDS = {
    "sphere": (("d",), "coeffs", _read_coeffs, lambda kernel: kernel.coeffs.tolist()),
    "sphere_time": (("d",), "terms", _read_terms, _write_terms),
    "product_spheres": (("d1", "d2"), "matrix", _read_matrix, lambda kernel: kernel.coeff_matrix.tolist()),
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
        bases = [GegenbauerBasis.from_dimension(_as_positive_int(doc[key], key)) for key in dimension_keys]
        return _apply_scale(read(doc[payload_key], bases), _as_scale(doc))
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
    except json.JSONDecodeError as exc:
        raise KernelSpecError(f"spec file {path} is not valid JSON: {exc}") from exc
    return kernel_from_dict(doc)


def write_kernel_file(kernel, path):
    """Serialize a kernel to a spec JSON file."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(kernel_to_dict(kernel), fh, indent=2)
        fh.write("\n")
