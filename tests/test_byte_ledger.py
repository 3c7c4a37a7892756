"""The byte ledger: one public call per case, with small fixed inputs, and the
sha256 of its output bytes, committed in `byte_ledger.json`.

The cases cover every kernel-sum path (the sphere's degree table and its
ring of three rows, sphere × time and the product), `gram` of the three
families, both samplers, `recover_coefficients` on its cached table and on
its streamed rows, a `certify` sweep over d in {1, 2, 3} with witnesses of
both kinds, `eval_normalized`, `real_spherical_harmonics`, random points and
a degree-1000 sphere sum over 20 000 points. The file names the BLAS build
and the thread counts the digests were recorded with: every digest is the
same at 1 and 2 OpenBLAS threads.

A change that keeps its bytes passes this module unedited. A change that
moves bytes edits the digest file in its diff and says why.

To print the digests of the code on the path, run

    PYTHONPATH=src python tests/test_byte_ledger.py
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from spherecov import (
    GegenbauerBasis,
    ProductPointSet,
    SpaceTimePointSet,
    certify,
    eval_normalized,
    exponential,
    gaussian,
    gram,
    kernel_eval,
    make_ps_kernel,
    make_sequence,
    make_st_kernel,
    multiquadric_kernel,
    ps_kernel_eval,
    real_spherical_harmonics,
    recover_coefficients,
    sample_factorized,
    sample_spectral_s2,
    st_kernel_eval,
    uniform_sphere_points,
)

LEDGER = json.loads((Path(__file__).with_name("byte_ledger.json")).read_text(encoding="utf-8"))

S1, S2, S3 = (GegenbauerBasis.from_dimension(d) for d in (1, 2, 3))


def _weights(shape, seed: int, plant: bool) -> np.ndarray:
    """Weights summing to 1 within rounding; with `plant`, the weight of degree
    1 (of (1, 1) for a table) is one ulp larger, still a valid kernel."""
    w = np.random.default_rng(seed).uniform(0.05, 1.0, shape)
    w /= w.sum()
    if plant:
        at = (1,) * w.ndim
        w[at] = np.nextafter(w[at], 2.0)
    return w


def _sphere(n_max: int, seed: int, plant: bool, basis=S2):
    return make_sequence(_weights(n_max + 1, seed, plant), basis)


def _sphere_time(plant: bool):
    charfns = [gaussian(1.0 + n) if n % 2 else exponential(0.5) for n in range(13)]
    return make_st_kernel(list(zip(_weights(13, 3, plant), charfns)), S2)


def _product(plant: bool):
    return make_ps_kernel(_weights((9, 6), 4, plant), S2, S1)


def _cosines(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-1.0, 1.0, n)


def _lags(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-2.0, 2.0, n)


def _st_points(n: int) -> SpaceTimePointSet:
    return SpaceTimePointSet(uniform_sphere_points(2, n, 5), np.random.default_rng(5).uniform(0.0, 2.0, n))


def _ps_points(n: int) -> ProductPointSet:
    return ProductPointSet(uniform_sphere_points(2, n, 6), uniform_sphere_points(1, n, 7))


def _certify_sweep() -> bytes:
    lines = []
    for basis in (S1, S2, S3):
        callbacks = {
            "pd": lambda x, basis=basis: kernel_eval(make_sequence([0.4, 0.3, 0.2, 0.1], basis), x),
            "pointwise": lambda x: math.exp(x - 1.0) if isinstance(x, float) else None,
            "coefficient_witness": lambda x: -x,
            "eigenvalue_witness": lambda x, basis=basis: -eval_normalized(basis, 50, x),
        }
        for name, g in callbacks.items():
            for seed in (0, 7):
                cert = certify(g, basis, n_max=12, seed=seed)
                lines.append(json.dumps({"case": name, **cert.to_dict()}))
    return "\n".join(lines).encode("utf-8")


def _eval_normalized() -> bytes:
    x = _cosines(500, 8)
    return b"".join(eval_normalized(basis, n, x).tobytes() for basis in (S1, S2, S3) for n in (0, 1, 7, 60))


# Case name -> function of `plant` giving the output bytes. The cases that
# take kernel weights read `plant`; the others ignore it.
CASES = {
    "points": lambda plant: uniform_sphere_points(3, 50, 9).points.tobytes(),
    "kernel_eval_table": lambda plant: kernel_eval(_sphere(12, 1, plant), _cosines(2000, 1)).tobytes(),
    "kernel_eval_ring": lambda plant: kernel_eval(_sphere(100, 2, plant), _cosines(2000, 2)).tobytes(),
    "kernel_eval_degree_1000": lambda plant: kernel_eval(_sphere(1000, 10, plant), _cosines(20_000, 10)).tobytes(),
    "st_kernel_eval": lambda plant: st_kernel_eval(_sphere_time(plant), _cosines(2000, 3), _lags(2000, 3)).tobytes(),
    "ps_kernel_eval": lambda plant: ps_kernel_eval(_product(plant), _cosines(2000, 4), _cosines(2000, 14)).tobytes(),
    "gram_sphere": lambda plant: gram(_sphere(100, 5, plant), uniform_sphere_points(2, 200, 4)).entries.tobytes(),
    "gram_sphere_time": lambda plant: gram(_sphere_time(plant), _st_points(120)).entries.tobytes(),
    "gram_product": lambda plant: gram(_product(plant), _ps_points(120)).entries.tobytes(),
    "sample_factorized": lambda plant: sample_factorized(
        _sphere(30, 6, plant), uniform_sphere_points(2, 80, 11), 4, 12
    ).values.tobytes(),
    "sample_spectral_s2": lambda plant: sample_spectral_s2(
        _sphere(20, 7, plant), uniform_sphere_points(2, 80, 13), 4, 14
    ).values.tobytes(),
    "recover_cached": lambda plant: recover_coefficients(
        lambda x: multiquadric_kernel(0.5, 0.5, x), S2, 40, 100
    ).tobytes(),
    "recover_streamed": lambda plant: recover_coefficients(
        lambda x: multiquadric_kernel(0.5, 0.5, x), S2, 1000, 2002
    ).tobytes(),
    "certify_sweep": lambda plant: _certify_sweep(),
    "eval_normalized": lambda plant: _eval_normalized(),
    "real_spherical_harmonics": lambda plant: real_spherical_harmonics(20, uniform_sphere_points(2, 60, 15)).tobytes(),
}
WEIGHTED = [
    "kernel_eval_table", "kernel_eval_ring", "kernel_eval_degree_1000", "st_kernel_eval", "ps_kernel_eval",
    "gram_sphere", "gram_sphere_time", "gram_product", "sample_factorized", "sample_spectral_s2",
]


def _digest(name: str, plant: bool = False) -> str:
    return hashlib.sha256(CASES[name](plant)).hexdigest()


def test_the_ledger_lists_every_case():
    assert sorted(LEDGER["cases"]) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_bytes_match_the_ledger(name):
    assert _digest(name) == LEDGER["cases"][name], f"{name}: the output bytes moved"


@pytest.mark.parametrize("name", WEIGHTED)
def test_a_one_ulp_weight_moves_the_bytes(name):
    assert _digest(name, plant=True) != LEDGER["cases"][name]


if __name__ == "__main__":
    print(json.dumps({name: _digest(name) for name in sorted(CASES)}, indent=2))
