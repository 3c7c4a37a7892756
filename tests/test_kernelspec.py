"""JSON kernel specs: parse, validate, serialize, round-trip."""

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import random_ps_kernel, random_sequence, random_st_kernel
from spherecov import (
    GegenbauerBasis,
    KernelSpecError,
    ProductSphereKernel,
    SchoenbergSequence,
    SpaceTimeKernel,
    kernel_from_dict,
    kernel_to_dict,
    read_kernel_file,
    write_kernel_file,
)

LEGENDRE = GegenbauerBasis.from_index(0.5)

# Keys of each kind between "kind" and "scale", in serialized order.
KEYS = {"sphere": ["d", "coeffs"], "sphere_time": ["d", "terms"], "product_spheres": ["d1", "d2", "matrix"]}


class TestSphereKind:
    def test_basic_parse(self):
        k = kernel_from_dict({"kind": "sphere", "d": 2, "coeffs": [0.5, 0.5]})
        assert isinstance(k, SchoenbergSequence)
        assert k.basis.dimension == 2
        assert_allclose(k.coeffs, [0.5, 0.5], rtol=0, atol=0)
        assert k.scale_c == 1.0

    def test_mass_moves_into_scale(self):
        k = kernel_from_dict({"kind": "sphere", "d": 3, "coeffs": [1.0, 3.0]})
        assert_allclose(k.coeffs, [0.25, 0.75], rtol=0, atol=0)
        assert k.scale_c == 4.0

    def test_scale_multiplies(self):
        k = kernel_from_dict({"kind": "sphere", "d": 2, "coeffs": [2.0], "scale": 3.0})
        assert k.scale_c == 6.0

    def test_integer_coeffs_accepted(self):
        k = kernel_from_dict({"kind": "sphere", "d": 2, "coeffs": [1, 1]})
        assert_allclose(k.coeffs, [0.5, 0.5], rtol=0, atol=0)

    def test_rejects_unknown_key(self):
        with pytest.raises(KernelSpecError):
            kernel_from_dict({"kind": "sphere", "d": 2, "coeffs": [1.0], "nmax": 3})

    def test_rejects_missing_key(self):
        with pytest.raises(KernelSpecError):
            kernel_from_dict({"kind": "sphere", "d": 2})

    def test_rejects_bad_dimension(self):
        for d in (0, -1, 2.0, True, "2"):
            with pytest.raises(KernelSpecError):
                kernel_from_dict({"kind": "sphere", "d": d, "coeffs": [1.0]})

    def test_rejects_bad_coeffs(self):
        for coeffs in ([], "not a list", [1.0, "x"], [True]):
            with pytest.raises(KernelSpecError):
                kernel_from_dict({"kind": "sphere", "d": 2, "coeffs": coeffs})

    def test_wraps_domain_failures(self):
        with pytest.raises(KernelSpecError):
            kernel_from_dict({"kind": "sphere", "d": 2, "coeffs": [1.0, -0.5]})
        with pytest.raises(KernelSpecError):
            kernel_from_dict({"kind": "sphere", "d": 2, "coeffs": [0.0]})

    def test_rejects_bad_scale(self):
        for scale in (0.0, -1.0, "big"):
            with pytest.raises(KernelSpecError):
                kernel_from_dict({"kind": "sphere", "d": 2, "coeffs": [1.0], "scale": scale})

    @pytest.mark.parametrize(
        "coeffs, scale", [([1], float("inf")), ([1e300, 1e300], 1e300)], ids=["inf", "overflowing-product"]
    )
    def test_infinite_scale_is_spec_error(self, coeffs, scale):
        with pytest.raises(KernelSpecError, match=r"^invalid sphere spec: scale_c must be a positive real, got inf$"):
            kernel_from_dict({"kind": "sphere", "d": 2, "coeffs": coeffs, "scale": scale})


class TestWeightPayloads:
    """Sphere coefficients and product matrices go through one walker that
    checks each JSON leaf is a number; the kernel's intake checks the shape
    and the constructor the scale."""

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"kind": "product_spheres", "d1": 2, "d2": 2, "matrix": [[1.0, 2.0], [2.0]]},
             "invalid product_spheres spec: coeff_matrix must be an array of numbers: "),
            ({"kind": "sphere", "d": 2, "coeffs": []},
             "invalid sphere spec: coeffs must be a nonempty 1-D array, got shape (0,)"),
            ({"kind": "product_spheres", "d1": 2, "d2": 2, "matrix": [[]]},
             "invalid product_spheres spec: coeff_matrix must be a nonempty 2-D array, got shape (1, 0)"),
            ({"kind": "sphere", "d": 2, "coeffs": [1.0], "scale": 0},
             "invalid sphere spec: scale_c must be a positive real, got 0.0"),
            ({"kind": "sphere", "d": 2, "coeffs": [1.0, "x", "y"]}, "coeffs[1] must be a number, got 'x'"),
            ({"kind": "product_spheres", "d1": 2, "d2": 2, "matrix": [[1.0, 2.0], [3.0, True]]},
             "matrix[1][1] must be a number, got True"),
            ({"kind": "sphere", "d": 2, "coeffs": [1.0, 10**400]}, "coeffs[1] is an integer too large for a float"),
            ({"kind": "sphere", "d": 2, "coeffs": [1.0], "scale": 10**400}, "scale is an integer too large for a float"),
        ],
        ids=["ragged", "empty", "empty-row", "zero-scale", "string", "bool", "huge-int", "huge-int-scale"],
    )
    def test_message(self, doc, message):
        with pytest.raises(KernelSpecError) as excinfo:
            kernel_from_dict(doc)
        assert str(excinfo.value).startswith(message)

    def test_nesting_deeper_than_the_recursion_limit(self):
        coeffs = [1.0]
        for _ in range(sys.getrecursionlimit() + 100):
            coeffs = [coeffs]
        with pytest.raises(KernelSpecError, match=r"^invalid sphere spec: coeffs must be an array of numbers: "):
            kernel_from_dict({"kind": "sphere", "d": 2, "coeffs": coeffs})


class TestSphereTimeKind:
    DOC = {
        "kind": "sphere_time",
        "d": 2,
        "terms": [
            {"a": 0.4, "charfn": {"family": "gaussian", "params": {"sigma": 1.0}}},
            {"a": 0.6, "charfn": {"family": "exponential", "params": {"rate": 2.0}}},
        ],
    }

    def test_basic_parse(self):
        k = kernel_from_dict(self.DOC)
        assert isinstance(k, SpaceTimeKernel)
        assert_allclose(k.weights, [0.4, 0.6], rtol=0, atol=0)
        assert k.charfns[0].family == "gaussian"
        assert k.charfns[1].param_dict == {"rate": 2.0}

    def test_params_default_empty(self):
        doc = {
            "kind": "sphere_time",
            "d": 2,
            "terms": [{"a": 1.0, "charfn": {"family": "point_mass_at_zero"}}],
        }
        k = kernel_from_dict(doc)
        assert k.charfns[0].params == ()

    def test_rejects_malformed_terms(self):
        for terms in ([], "x", [{"a": 1.0}], [{"charfn": {"family": "gaussian"}}], [[1.0]]):
            with pytest.raises(KernelSpecError):
                kernel_from_dict({"kind": "sphere_time", "d": 2, "terms": terms})

    def test_rejects_unknown_charfn_key(self):
        doc = {
            "kind": "sphere_time",
            "d": 2,
            "terms": [{"a": 1.0, "charfn": {"family": "gaussian", "sigma": 1.0}}],
        }
        with pytest.raises(KernelSpecError):
            kernel_from_dict(doc)

    def test_wraps_unknown_family(self):
        doc = {
            "kind": "sphere_time",
            "d": 2,
            "terms": [{"a": 1.0, "charfn": {"family": "cauchy", "params": {}}}],
        }
        with pytest.raises(KernelSpecError):
            kernel_from_dict(doc)


class TestProductSpheresKind:
    def test_basic_parse(self):
        doc = {"kind": "product_spheres", "d1": 2, "d2": 1, "matrix": [[1.0, 3.0]]}
        k = kernel_from_dict(doc)
        assert isinstance(k, ProductSphereKernel)
        assert k.basis1.dimension == 2
        assert k.basis2.dimension == 1
        assert_allclose(k.coeff_matrix, [[0.25, 0.75]], rtol=0, atol=0)
        assert k.scale_c == 4.0

    def test_rejects_ragged_matrix(self):
        doc = {"kind": "product_spheres", "d1": 2, "d2": 2, "matrix": [[1.0, 0.0], [1.0]]}
        with pytest.raises(KernelSpecError):
            kernel_from_dict(doc)

    def test_rejects_empty_rows(self):
        for matrix in ([], [[]], "x", [[1.0], "x"]):
            with pytest.raises(KernelSpecError):
                kernel_from_dict({"kind": "product_spheres", "d1": 2, "d2": 2, "matrix": matrix})

    def test_wraps_negative_entry(self):
        doc = {"kind": "product_spheres", "d1": 2, "d2": 2, "matrix": [[1.0, -0.5]]}
        with pytest.raises(KernelSpecError):
            kernel_from_dict(doc)


class TestTopLevel:
    def test_rejects_non_dict(self):
        with pytest.raises(KernelSpecError):
            kernel_from_dict([1, 2, 3])

    def test_rejects_unknown_kind(self):
        with pytest.raises(KernelSpecError):
            kernel_from_dict({"kind": "torus", "coeffs": [1.0]})

    def test_rejects_missing_kind(self):
        with pytest.raises(KernelSpecError):
            kernel_from_dict({"coeffs": [1.0]})


class TestRoundTrips:
    def test_sphere_round_trip(self):
        rng = np.random.default_rng(0)
        k = random_sequence(rng, LEGENDRE, 6)
        k2 = kernel_from_dict(kernel_to_dict(k))
        assert_allclose(k2.coeffs, k.coeffs, rtol=0, atol=1e-15)
        assert_allclose(k2.scale_c, k.scale_c, rtol=1e-15)
        assert k2.basis == k.basis

    def test_sphere_time_round_trip(self):
        rng = np.random.default_rng(1)
        k = random_st_kernel(rng, LEGENDRE, 4)
        k2 = kernel_from_dict(kernel_to_dict(k))
        assert_allclose(k2.weights, k.weights, rtol=0, atol=1e-15)
        assert k2.charfns == k.charfns

    def test_product_round_trip(self):
        rng = np.random.default_rng(2)
        k = random_ps_kernel(rng, LEGENDRE, GegenbauerBasis.from_index(1.0), 3, 2)
        k2 = kernel_from_dict(kernel_to_dict(k))
        assert_allclose(k2.coeff_matrix, k.coeff_matrix, rtol=0, atol=1e-15)
        assert k2.basis1 == k.basis1 and k2.basis2 == k.basis2

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["sphere", "sphere_time", "product_spheres"]),
        dims=st.tuples(st.integers(1, 6), st.integers(1, 6)),
        sizes=st.tuples(st.integers(0, 6), st.integers(0, 6)),
        scale=st.floats(1e-3, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_round_trip(self, kind, dims, sizes, scale, seed):
        rng = np.random.default_rng(seed)
        bases = [GegenbauerBasis.from_dimension(d) for d in dims]
        if kind == "sphere":
            k = random_sequence(rng, bases[0], sizes[0])
        elif kind == "sphere_time":
            k = random_st_kernel(rng, bases[0], sizes[0])
        else:
            k = random_ps_kernel(rng, *bases, *sizes)
        k = dataclasses.replace(k, scale_c=scale)
        doc = kernel_to_dict(k)
        assert list(doc) == ["kind", *KEYS[kind], "scale"]
        assert doc["kind"] == kind and doc["scale"] == scale
        k2 = kernel_from_dict(doc)
        assert type(k2) is type(k)
        assert k2.dimensions == k.dimensions
        assert_allclose(k2.scale_c, k.scale_c, rtol=1e-15)
        for name in ("coeffs", "weights", "coeff_matrix"):
            if hasattr(k, name):
                assert_allclose(getattr(k2, name), getattr(k, name), rtol=0, atol=1e-15)
        if kind == "sphere_time":
            assert k2.charfns == k.charfns

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        k = random_sequence(rng, GegenbauerBasis.from_index(1.0), 5)
        path = tmp_path / "kernel.json"
        write_kernel_file(k, path)
        k2 = read_kernel_file(path)
        assert kernel_to_dict(k2) == kernel_to_dict(k)

    def test_to_dict_rejects_unknown_type(self):
        with pytest.raises(KernelSpecError):
            kernel_to_dict("not a kernel")


class TestReadKernelFile:
    def test_missing_file(self, tmp_path):
        with pytest.raises(KernelSpecError):
            read_kernel_file(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(KernelSpecError):
            read_kernel_file(path)

    def test_nesting_json_cannot_parse(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"kind": "sphere", "d": 2, "coeffs": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
        with pytest.raises(KernelSpecError, match=r"nests too deeply to be read$"):
            read_kernel_file(path)

    def test_integer_too_long_to_parse(self, tmp_path):
        # Python 3.11 refuses integers of over 4300 digits with a ValueError
        # that is not a JSONDecodeError; older versions parse it, and the
        # dimension is then too large. Either way it is a spec error.
        path = tmp_path / "long.json"
        path.write_text('{"kind": "sphere", "d": 1' + "0" * 5000 + ', "coeffs": [1]}', encoding="utf-8")
        with pytest.raises(KernelSpecError):
            read_kernel_file(path)


WRITTEN = {
    "sphere": (
        {"kind": "sphere", "d": 3, "coeffs": [1.0, 0.0, 3.0], "scale": 0.5},
        """{
  "kind": "sphere",
  "d": 3,
  "coeffs": [
    0.25,
    0.0,
    0.75
  ],
  "scale": 2.0
}
""",
    ),
    "sphere_time": (
        {
            "kind": "sphere_time",
            "d": 1,
            "terms": [
                {"a": 1.0, "charfn": {"family": "stable", "params": {"scale": 2.0, "alpha": 1.5}}},
                {"a": 3.0, "charfn": {"family": "point_mass_at_zero"}},
            ],
        },
        """{
  "kind": "sphere_time",
  "d": 1,
  "terms": [
    {
      "a": 0.25,
      "charfn": {
        "family": "stable",
        "params": {
          "alpha": 1.5,
          "scale": 2.0
        }
      }
    },
    {
      "a": 0.75,
      "charfn": {
        "family": "point_mass_at_zero",
        "params": {}
      }
    }
  ],
  "scale": 4.0
}
""",
    ),
    "product_spheres": (
        {"kind": "product_spheres", "d1": 2, "d2": 3, "matrix": [[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]], "scale": 2},
        """{
  "kind": "product_spheres",
  "d1": 2,
  "d2": 3,
  "matrix": [
    [
      0.25,
      0.5,
      0.0
    ],
    [
      0.0,
      0.0,
      0.25
    ]
  ],
  "scale": 8.0
}
""",
    ),
}


@pytest.mark.parametrize("kind", sorted(WRITTEN))
def test_write_kernel_file_bytes(tmp_path, kind):
    doc, expected = WRITTEN[kind]
    path = tmp_path / "kernel.json"
    write_kernel_file(kernel_from_dict(doc), path)
    assert path.read_bytes() == expected.encode("utf-8")
