"""The one real-number rule, `gegenbauer._check_real`: every public float
parameter takes a Python or numpy real number, an int or a Fraction, stores or
echoes it as a Python float, and rejects anything else with a typed error and
no warning. Evaluation arguments (cosines and time lags) that are not numbers,
or that do not broadcast, are typed errors too."""

import json
import math
import pickle
import warnings
from decimal import Decimal
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from spherecov import (
    DomainError,
    GegenbauerBasis,
    KernelSpecError,
    ProductSphereKernel,
    QuadratureRule,
    SchoenbergSequence,
    SpaceTimeKernel,
    certify,
    charfn_eval,
    eval_sequence,
    exponential,
    gaussian,
    geodesic_cosine,
    is_separable,
    kernel_eval,
    kernel_from_dict,
    kernel_to_dict,
    make_charfn,
    make_ps_kernel,
    make_sequence,
    make_st_kernel,
    multiquadric_kernel,
    multiquadric_sequence,
    ps_kernel_eval,
    quadrature,
    read_kernel_file,
    sample_factorized,
    schoenberg_functions_at,
    separability_test,
    st_kernel_eval,
    stable,
    triangle_sinc,
    uniform_sphere_points,
    write_kernel_file,
)

LEGENDRE = GegenbauerBasis.from_dimension(2)
SEQ = make_sequence([0.25, 0.75], LEGENDRE)
ST = make_st_kernel([(0.5, gaussian(1.0)), (0.5, exponential(2.0))], LEGENDRE)
PS = make_ps_kernel([[0.5, 0.1], [0.1, 0.3]], LEGENDRE, LEGENDRE, normalize=True)
XS = np.linspace(-1.0, 1.0, 9)
POINTS = uniform_sphere_points(2, 4, 3)
RULE = quadrature(0.5, 6)


def _square(x):
    return x * x


def _certify(**tolerances):
    return certify(_square, LEGENDRE, n_max=6, gram_trials=1, seed=5, **tolerances)


# parameter -> (a call with the value in the parameter's place, valid values as
# Python floats, exact in float32, and values just out of its interval).
PARAMETERS = {
    "GegenbauerBasis.lam": (lambda v: GegenbauerBasis(lam=v, dimension=3), [1.0], [-1.0]),
    "GegenbauerBasis.from_index": (GegenbauerBasis.from_index, [1.0, 1.5], [-1.0]),
    "quadrature.lam": (lambda v: quadrature(v, 8), [1.0, 0.25], [-0.5]),
    "QuadratureRule.lam": (lambda v: QuadratureRule(RULE.nodes, RULE.weights, v, RULE.order), [1.0, 0.25], [-0.5]),
    "multiquadric_kernel.delta": (lambda v: multiquadric_kernel(v, 1.5, XS), [0.5, 0.25], [0.0, 1.0]),
    "multiquadric_kernel.lam": (lambda v: multiquadric_kernel(0.5, v, XS), [2.0, 1.5], [-1.0]),
    "multiquadric_sequence.delta": (lambda v: multiquadric_sequence(v, LEGENDRE, 8), [0.5], [0.0, 1.0]),
    "certify.coeff_tol": (lambda v: _certify(coeff_tol=v), [1.0, 0.125], [0.0]),
    "certify.eig_tol": (lambda v: _certify(eig_tol=v), [1.0, 0.25], [0.0]),
    "separability_test.tol": (lambda v: separability_test(PS, v), [0.0, 0.5], [-1.0]),
    "ProductSphereKernel.separability": (lambda v: PS.separability(v), [1.0, 0.5], [-1.0]),
    "is_separable.tol": (lambda v: is_separable(ST, v), [0.0, 0.5], [-1.0]),
    "SpaceTimeKernel.separability": (lambda v: ST.separability(v), [1.0, 0.5], [-1.0]),
    "sample_factorized.jitter": (lambda v: sample_factorized(SEQ, POINTS, 2, 5, jitter=v), [0.0, 0.5], [-1.0]),
    "SchoenbergSequence.scale_c": (lambda v: SchoenbergSequence(SEQ.coeffs, v, LEGENDRE), [2.0, 0.5], [0.0]),
    "SpaceTimeKernel.scale_c": (lambda v: SpaceTimeKernel(ST.weights, ST.charfns, v, LEGENDRE), [2.0, 0.5], [0.0]),
    "ProductSphereKernel.scale_c": (
        lambda v: ProductSphereKernel(PS.coeff_matrix, v, LEGENDRE, LEGENDRE), [2.0, 0.5], [0.0]
    ),
    "gaussian.sigma": (gaussian, [2.0, 0.5], [0.0]),
    "exponential.rate": (exponential, [2.0, 0.5], [0.0]),
    "stable.scale": (lambda v: stable(v, 1.0), [2.0, 0.5], [0.0]),
    "stable.alpha": (lambda v: stable(1.0, v), [2.0, 1.5], [0.0, 2.5]),
    "triangle_sinc.width": (triangle_sinc, [2.0, 0.5], [0.0]),
    "make_charfn.params": (lambda v: make_charfn("exponential", {"rate": v}), [2.0, 0.5], [0.0]),
}

# Not a real number, an int too large for a float, or not finite.
JUNK = [
    True, False, "1.5", None, Decimal("1"), 1j, [1.0],
    10**400, -(10**400), Fraction(10**400), math.nan, math.inf, -math.inf, np.float64("nan"), np.float32("inf"),
]


def _real_types(value: float) -> list:
    """`value` as each accepted type that holds it exactly."""
    types = [np.float32, np.float64, Fraction] + ([int] if value.is_integer() else [])
    return [t(value) for t in types]


# None selects the default of these two.
NONE_IS_DEFAULT = {"certify.eig_tol", "sample_factorized.jitter"}
JUNK_CASES = [
    pytest.param(name, value, id=f"{name}-{type(value).__name__}:{value!r}"[:60])
    for name in sorted(PARAMETERS)
    for value in JUNK
    if not (value is None and name in NONE_IS_DEFAULT)
]


@pytest.mark.parametrize("name, value", JUNK_CASES)
def test_junk_is_a_domain_error(name, value):
    call = PARAMETERS[name][0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            call(value)


@pytest.mark.parametrize("name", sorted(PARAMETERS))
def test_out_of_range_is_a_domain_error(name):
    call, _, bad = PARAMETERS[name]
    for value in bad:
        for typed in [value, *_real_types(value)]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError):
                    call(typed)


@pytest.mark.parametrize("name", sorted(PARAMETERS))
def test_every_real_type_gives_the_float_result(name):
    """The pickled result, which holds the type of every stored number, equals
    the one made with the equal Python float."""
    call, valid, _ = PARAMETERS[name]
    for value in valid:
        want = pickle.dumps(call(value))
        for typed in _real_types(value):
            assert pickle.dumps(call(typed)) == want, (value, typed)


@pytest.mark.parametrize("value", _real_types(1.0) + _real_types(0.125), ids=repr)
def test_certificate_tolerances_are_stored_as_floats(value):
    for name in ("coeff_tol", "eig_tol"):
        doc = _certify(**{name: value}).to_dict()
        assert type(doc[name]) is float and doc[name] == float(value)
        json.dumps(doc)


def test_stored_parameters_are_floats():
    typed = np.float32(2.0)
    assert type(GegenbauerBasis(lam=np.float64(1.0), dimension=3).lam) is float
    assert type(SchoenbergSequence(SEQ.coeffs, typed, LEGENDRE).scale_c) is float
    assert type(make_charfn("stable", {"scale": typed, "alpha": Fraction(3, 2)}).params[0][1]) is float
    assert all(type(v) is float for v in stable(typed, 2).param_dict.values())


def _kernels(scale, param):
    return [
        SchoenbergSequence(SEQ.coeffs, scale, LEGENDRE),
        SpaceTimeKernel(ST.weights, (gaussian(param), stable(param, param)), scale, LEGENDRE),
        ProductSphereKernel(PS.coeff_matrix, scale, LEGENDRE, LEGENDRE),
    ]


@pytest.mark.parametrize("value", _real_types(2.0), ids=repr)
def test_kernels_round_trip_through_spec_files(tmp_path, value):
    for i, kernel in enumerate(_kernels(value, value)):
        path = tmp_path / f"k{i}.json"
        write_kernel_file(kernel, path)
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(kernel_to_dict(_kernels(2.0, 2.0)[i]), indent=2) + "\n"
        back = read_kernel_file(path)
        assert json.dumps(kernel_to_dict(back), indent=2) + "\n" == text
        assert type(back.scale_c) is type(kernel.scale_c) is float


def _st_doc(family, params):
    return {"kind": "sphere_time", "d": 2, "terms": [{"a": 1.0, "charfn": {"family": family, "params": params}}]}


# spec field -> the document with the value in its place, and values out of range.
SPEC_FIELDS = {
    "scale": (lambda v: {"kind": "sphere", "d": 2, "coeffs": [1.0], "scale": v}, [0.0, -1.0]),
    "sigma": (lambda v: _st_doc("gaussian", {"sigma": v}), [0.0, -1.0]),
    "alpha": (lambda v: _st_doc("stable", {"scale": 1.0, "alpha": v}), [0.0, 2.5]),
}
SPEC_CASES = [
    pytest.param(field, value, id=f"{field}-{type(value).__name__}:{value!r}"[:50])
    for field in sorted(SPEC_FIELDS)
    for value in JUNK + SPEC_FIELDS[field][1]
]


@pytest.mark.parametrize("field, value", SPEC_CASES)
def test_spec_junk_is_a_spec_error(field, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(KernelSpecError):
            kernel_from_dict(SPEC_FIELDS[field][0](value))


EVALUATION_ERRORS = {
    "kernel_eval text": lambda: kernel_eval(SEQ, "abc"),
    "eval_sequence text": lambda: eval_sequence(LEGENDRE, 3, "abc"),
    "st_kernel_eval shapes": lambda: st_kernel_eval(ST, [0.1, 0.2], [0.1, 0.2, 0.3]),
    "ps_kernel_eval shapes": lambda: ps_kernel_eval(PS, [0.1, 0.2], [0.1, 0.2, 0.3]),
    "st_kernel_eval text lag": lambda: st_kernel_eval(ST, 0.1, "a"),
    "st_kernel_eval huge lag": lambda: st_kernel_eval(ST, 0.1, 10**400),
    "charfn_eval text lag": lambda: charfn_eval(gaussian(1.0), "a"),
    "schoenberg_functions_at text lag": lambda: schoenberg_functions_at(ST, "a"),
    "schoenberg_functions_at two lags": lambda: schoenberg_functions_at(ST, [0.1, 0.2]),
    "geodesic_cosine nan": lambda: geodesic_cosine([math.nan, 0.0, 0.0], [1.0, 0.0, 0.0]),
    "geodesic_cosine nan q": lambda: geodesic_cosine([1.0, 0.0, 0.0], [0.0, math.nan, 1.0]),
    "integrate inf": lambda: quadrature(0.5, 4).integrate([1.0, 2.0, 3.0, math.inf]),
    "integrate nan": lambda: quadrature(0.5, 4).integrate(np.array([1.0, math.nan, 3.0, 4.0])),
    "integrate text": lambda: quadrature(0.5, 4).integrate(["a", 1, 2, 3]),
}


@pytest.mark.parametrize("name", sorted(EVALUATION_ERRORS))
def test_bad_evaluation_arguments_are_domain_errors(name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            EVALUATION_ERRORS[name]()


@pytest.mark.parametrize("lam", [0.0, 0.5, 3.0, 1e4, 1e6])
@pytest.mark.parametrize("delta", [0.1, 0.5, 0.9])
def test_multiquadric_kernel_at_any_index(lam, delta):
    """The closed form has no 0/0 or overflow at a large λ: it matches a
    50-digit evaluation within λ times the rounding error of the ratio
    (1−δ)²/(1−2δx+δ²), whose denominator cancels near x = 1."""
    xs = np.concatenate([np.linspace(-1.0, 1.0, 41), [1.0 - 1e-12]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = multiquadric_kernel(delta, lam, xs)
    with mpmath.workdps(50):
        d, lam_mp = mpmath.mpf(delta), mpmath.mpf(lam)
        want = np.array([float((1 - d) ** (2 * lam_mp) / (1 - 2 * d * mpmath.mpf(x) + d * d) ** lam_mp) for x in xs])
    condition = (1.0 + 2.0 * delta * np.abs(xs) + delta * delta) / (1.0 - 2.0 * delta * xs + delta * delta)
    assert np.all(np.abs(got - want) <= 4e-16 * (lam + 1.0) * condition * want + 1e-300)


def test_multiquadric_kernel_is_one_at_x_one_for_a_huge_index():
    # The former (1−δ)^{2λ} / (1−2δx+δ²)^λ was 0/0 here: NaN and a RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert multiquadric_kernel(0.5, 1e4, 1.0) == 1.0
