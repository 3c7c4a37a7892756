"""Schoenberg sequences: synthesis, recovery, certification, multiquadric."""

import dataclasses
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import random_sequence
from spherecov import (
    DomainError,
    EvaluationError,
    GegenbauerBasis,
    NegativeCoefficientError,
    NormalizationError,
    ProductSphereKernel,
    SchoenbergSequence,
    SpaceTimeKernel,
    ZeroMassError,
    certify,
    eval_normalized,
    eval_sequence,
    gaussian,
    kernel_eval,
    make_ps_kernel,
    make_sequence,
    make_st_kernel,
    multiquadric_kernel,
    multiquadric_sequence,
    norm_squared,
    quadrature,
    recover_coefficients,
)

LEGENDRE = GegenbauerBasis.from_index(0.5)
LAMBDA_ONE = GegenbauerBasis.from_index(1.0)


class TestMakeSequence:
    def test_constant(self):
        seq = make_sequence([1.0], LEGENDRE)
        assert seq.coeffs.tolist() == [1.0]
        assert seq.scale_c == 1.0
        assert seq.truncation == 0

    def test_normalize_stores_total(self):
        seq = make_sequence([2.0, 2.0], LEGENDRE, normalize=True)
        assert_allclose(seq.coeffs, [0.5, 0.5], rtol=0, atol=0)
        assert seq.scale_c == 4.0

    def test_negative_coefficient(self):
        with pytest.raises(NegativeCoefficientError) as info:
            make_sequence([0.5, -0.1], LEGENDRE)
        assert info.value.index == 1
        assert info.value.value == -0.1

    def test_zero_mass(self):
        with pytest.raises(ZeroMassError):
            make_sequence([0.0, 0.0], LEGENDRE, normalize=True)

    def test_unnormalized_requires_normalize_flag(self):
        with pytest.raises(NormalizationError):
            make_sequence([0.5, 0.4], LEGENDRE)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            make_sequence([0.5, np.inf], LEGENDRE, normalize=True)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            make_sequence([], LEGENDRE)

    def test_coeffs_are_read_only(self):
        seq = make_sequence([0.5, 0.5], LEGENDRE)
        with pytest.raises(ValueError):
            seq.coeffs[0] = 1.0


class TestOverflowingMass:
    """A total mass that overflows is named, with no numpy warning."""

    CASES = [
        (lambda normalize: make_sequence([1e308, 1e308], LEGENDRE, normalize=normalize), "coeffs"),
        (lambda normalize: make_st_kernel([(1e308, gaussian(1.0)), (1e308, gaussian(2.0))], LEGENDRE, normalize=normalize), "weights"),
        (lambda normalize: make_ps_kernel([[1e308, 0.0], [0.0, 1e308]], LEGENDRE, LEGENDRE, normalize=normalize), "coeff_matrix"),
    ]

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("build, name", CASES, ids=["make_sequence", "make_st_kernel", "make_ps_kernel"])
    def test_domain_error_names_the_mass(self, build, name, normalize):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=rf"^{name} must have a finite total, got inf$"):
                build(normalize)

    # The dataclasses themselves, built directly as a library caller may.
    DIRECT = [
        (lambda total: SchoenbergSequence(np.array([total, total]), 1.0, LEGENDRE), "coeffs"),
        (lambda total: SpaceTimeKernel(np.array([total, total]), (gaussian(1.0),) * 2, 1.0, LEGENDRE), "weights"),
        (lambda total: ProductSphereKernel(np.diag([total, total]), 1.0, LEGENDRE, LEGENDRE), "coeff_matrix"),
    ]
    DIRECT_IDS = ["SchoenbergSequence", "SpaceTimeKernel", "ProductSphereKernel"]

    @pytest.mark.parametrize("build, name", DIRECT, ids=DIRECT_IDS)
    def test_direct_construction_names_the_mass(self, build, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=rf"^{name} must have a finite total, got inf$"):
                build(1e308)

    @pytest.mark.parametrize("build, name", DIRECT, ids=DIRECT_IDS)
    def test_normalization_error_reports_a_plain_float(self, build, name):
        with pytest.raises(NormalizationError) as excinfo:
            build(0.2)
        assert str(excinfo.value) == f"stored {name} must sum to 1 within 1e-12, got 0.4"


class TestKernelEval:
    def test_constant_kernel(self):
        seq = make_sequence([1.0], LEGENDRE)
        assert kernel_eval(seq, -0.8) == 1.0

    def test_degree_one_is_identity(self):
        seq = make_sequence([0.0, 1.0], LEGENDRE)
        assert kernel_eval(seq, 0.3) == 0.3

    def test_value_at_one_is_scale(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            seq = make_sequence(rng.uniform(0.1, 1.0, 8), LEGENDRE, normalize=True)
            assert_allclose(kernel_eval(seq, 1.0), seq.scale_c, rtol=1e-14)

    def test_mixture_against_explicit_legendre(self):
        seq = make_sequence([0.25, 0.5, 0.25], LEGENDRE)
        x = 0.4
        expected = 0.25 + 0.5 * x + 0.25 * (3 * x * x - 1) / 2
        assert_allclose(kernel_eval(seq, x), expected, rtol=1e-15)

    def test_array_argument(self):
        seq = make_sequence([0.5, 0.5], LEGENDRE)
        x = np.linspace(-1, 1, 11)
        assert_allclose(kernel_eval(seq, x), 0.5 + 0.5 * x, rtol=1e-15)

    def test_bounded_by_scale(self):
        rng = np.random.default_rng(7)
        x = np.linspace(-1.0, 1.0, 301)
        for _ in range(10):
            seq = make_sequence(rng.uniform(0.0, 1.0, 12), LEGENDRE, normalize=True)
            assert np.max(np.abs(kernel_eval(seq, x))) <= seq.scale_c * (1 + 1e-12)

    def test_domain_error(self):
        seq = make_sequence([1.0], LEGENDRE)
        with pytest.raises(DomainError):
            kernel_eval(seq, 1.0001)


class TestRecoverCoefficients:
    def test_basis_element_projection(self):
        ahat = recover_coefficients(lambda x: eval_normalized(LAMBDA_ONE, 3, x), LAMBDA_ONE, 5, 16)
        assert_allclose(ahat, [0, 0, 0, 1, 0, 0], atol=1e-10)

    def test_x_squared_legendre_identity(self):
        ahat = recover_coefficients(lambda x: x * x, LEGENDRE, 4, 16)
        assert_allclose(ahat, [1 / 3, 0, 2 / 3, 0, 0], atol=1e-10)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_round_trip_random_sequences(self, d):
        rng = np.random.default_rng(42 + d)
        basis = GegenbauerBasis.from_dimension(d)
        for _ in range(10):
            seq = random_sequence(rng, basis, 30)
            ahat = recover_coefficients(lambda x: kernel_eval(seq, x), basis, 30, 64)
            assert np.max(np.abs(ahat - seq.coeffs)) <= 1e-8

    @pytest.mark.parametrize("alpha", [0.5, 2.0, 10.0])
    def test_scale_equivariance(self, alpha):
        rng = np.random.default_rng(11)
        seq = random_sequence(rng, LEGENDRE, 12)
        base = recover_coefficients(lambda x: kernel_eval(seq, x), LEGENDRE, 12, 32)
        scaled = recover_coefficients(lambda x: alpha * kernel_eval(seq, x), LEGENDRE, 12, 32)
        assert_allclose(scaled, alpha * base, rtol=0, atol=1e-12 * alpha)

    def test_quad_order_too_small(self):
        with pytest.raises(DomainError):
            recover_coefficients(lambda x: x, LEGENDRE, 10, 10)

    def test_propagates_failure_with_node(self):
        def g(x):
            raise RuntimeError("boom")

        with pytest.raises(EvaluationError) as info:
            recover_coefficients(g, LEGENDRE, 2, 8)
        assert -1.0 < info.value.point < 1.0

    def test_rejects_non_finite_values(self):
        with pytest.raises(EvaluationError):
            recover_coefficients(lambda x: float("nan"), LEGENDRE, 2, 8)

    def test_non_finite_batched_value_names_first_bad_node(self):
        nodes = quadrature(0.5, 8).nodes
        with pytest.raises(EvaluationError) as info:
            recover_coefficients(lambda x: np.where(x > nodes[4], np.inf, x), LEGENDRE, 2, 8)
        assert info.value.point == nodes[5]

    def test_fallback_names_the_failing_node(self):
        node = float(quadrature(0.5, 8).nodes[3])

        def g(x):
            if isinstance(x, np.ndarray):
                raise TypeError("scalars only")
            if x == node:
                raise RuntimeError("boom")
            return x

        with pytest.raises(EvaluationError) as info:
            recover_coefficients(g, LEGENDRE, 2, 8)
        assert info.value.point == node
        assert "boom" in str(info.value)

    def test_batched_call_sees_read_only_nodes(self):
        seen = []

        def g(x):
            seen.append(x)
            return x * x

        recover_coefficients(g, LEGENDRE, 4, 16)
        assert len(seen) == 1
        assert seen[0].shape == (16,) and not seen[0].flags.writeable

    def test_memory_does_not_grow_with_degree_times_order(self):
        # A degree x node table would take 34 MiB here.
        quadrature(0.5, 3002)  # the cached rule is built outside the measurement
        tracemalloc.start()
        try:
            ahat = recover_coefficients(lambda x: x, LEGENDRE, 1500, 3002)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert_allclose(ahat[:3], [0.0, 1.0, 0.0], atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 5]),
    st.integers(0, 400),
    st.integers(0, 64),
    st.floats(-20.0, 20.0),
    st.floats(0.0, 3.2),
)
def test_recovery_matches_table_formula(d, n_max, extra, frequency, phase):
    # Reference: each row of the degree x node table times the weighted
    # values, summed exactly, so only recover_coefficients' own rounding is
    # measured (a BLAS product of the table is itself up to 1.4e-15 off for
    # g = 1 on the circle). With |g| <= 1 the summed terms add up to at
    # most h_0 in magnitude.
    basis = GegenbauerBasis.from_dimension(d)
    quad_order = n_max + 1 + extra
    g = lambda x: np.cos(frequency * x + phase)
    rule = quadrature(basis.lam, quad_order)
    weighted = rule.weights * g(rule.nodes)
    norms = np.array([norm_squared(basis, n) for n in range(n_max + 1)])
    table = eval_sequence(basis, n_max, rule.nodes)
    reference = np.array([math.fsum(row * weighted) for row in table]) / norms
    ahat = recover_coefficients(g, basis, n_max, quad_order)
    assert np.max(np.abs(ahat - reference) * norms / norms[0]) <= 1e-15


class TestCertify:
    def test_pd_on_x(self):
        cert = certify(lambda x: x, LEGENDRE, n_max=10, seed=1)
        assert cert.verdict == "PD"
        assert cert.witness is None
        assert cert.min_gram_eigenvalue is not None
        assert_allclose(cert.coefficients[1], 1.0, rtol=1e-12)

    def test_not_pd_on_negx(self):
        cert = certify(lambda x: -x, LEGENDRE, n_max=10, seed=1)
        assert cert.verdict == "NotPD"
        assert cert.witness["kind"] == "coefficient"
        assert cert.witness["index"] == 1
        assert_allclose(cert.witness["value"], -1.0, rtol=1e-12)

    def test_pd_on_exp_shift(self):
        cert = certify(lambda x: np.exp(x - 1.0), LEGENDRE, n_max=30, seed=3)
        assert cert.verdict == "PD"

    def test_planted_negative_small_coefficient(self):
        g = lambda x: eval_normalized(LEGENDRE, 1, x) - 0.01 * eval_normalized(LEGENDRE, 2, x)
        cert = certify(g, LEGENDRE, n_max=10, seed=5)
        assert cert.verdict == "NotPD"
        assert cert.witness["index"] == 2
        assert_allclose(cert.witness["value"], -0.01, rtol=1e-9)

    def test_eigenvalue_witness_path(self):
        # All recovered coefficients up to n_max vanish, so only the Gram
        # oracle can expose this negated high-degree basis polynomial.
        g = lambda x: -eval_normalized(LEGENDRE, 50, x)
        cert = certify(g, LEGENDRE, n_max=10, seed=2)
        assert cert.verdict == "NotPD"
        assert cert.witness["kind"] == "eigenvalue"
        assert cert.witness["eigenvalue"] < -cert.eig_tol
        assert cert.min_coefficient >= -cert.coeff_tol

    def test_inconclusive_on_heavy_tail(self):
        cert = certify(lambda x: multiquadric_kernel(0.8, 0.5, x), LEGENDRE, n_max=10, seed=4)
        assert cert.verdict == "Inconclusive"
        assert cert.tail_mass > cert.coeff_tol
        assert cert.witness is None

    def test_deterministic_given_seed(self):
        c1 = certify(lambda x: x, LEGENDRE, n_max=5, seed=9)
        c2 = certify(lambda x: x, LEGENDRE, n_max=5, seed=9)
        assert c1.to_dict() == c2.to_dict()

    def test_certificate_is_json_ready(self):
        cert = certify(lambda x: x * x, LEGENDRE, n_max=6, seed=0)
        payload = json.loads(json.dumps(cert.to_dict()))
        assert payload["verdict"] == "PD"
        assert len(payload["coefficients"]) == 7

    def test_rejects_bad_tolerances(self):
        with pytest.raises(DomainError):
            certify(lambda x: x, LEGENDRE, coeff_tol=0.0)
        with pytest.raises(DomainError):
            certify(lambda x: x, LEGENDRE, eig_tol=-1.0)

    @pytest.mark.parametrize("name", ["coeff_tol", "eig_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_tolerances(self, name, value):
        # A NaN coeff_tol made every comparison False: x -> x came out Inconclusive.
        with pytest.raises(DomainError):
            certify(lambda x: x, LEGENDRE, **{name: value})

    def test_rejects_negative_gram_trials(self):
        with pytest.raises(DomainError):
            certify(lambda x: x, LEGENDRE, gram_trials=-2)

    def test_records_vectorized_path(self):
        calls = []

        def g(x):
            calls.append(np.shape(x))
            return x * x

        cert = certify(g, LEGENDRE, n_max=10, gram_trials=3, seed=0)
        assert calls == [(64,)] + [(325,)] * 3
        payload = cert.to_dict()
        assert (payload["quad_order"], payload["evaluations"], payload["callback_path"]) == (
            64,
            64 + 3 * 325,
            "vectorized",
        )

    def test_constant_scalar_callback_takes_pointwise_path(self):
        cert = certify(lambda x: 1.0, LEGENDRE, n_max=40, gram_trials=2, seed=0)
        assert cert.verdict == "PD"
        assert cert.callback_path == "pointwise"
        assert (cert.quad_order, cert.evaluations) == (82, 82 + 2 * 325)
        assert_allclose(cert.coefficients, np.eye(41)[0], rtol=0, atol=1e-14)

    def test_fallback_sees_unmodified_cosines(self):
        seen = []

        def g(x):
            if isinstance(x, np.ndarray):
                x *= 2
                raise TypeError("scalars only")
            seen.append(x)
            return x

        cert = certify(g, LEGENDRE, n_max=10, seed=1)
        assert cert.callback_path == "pointwise"
        assert len(seen) == cert.evaluations
        assert max(abs(x) for x in seen) <= 1.0

    def test_coefficient_witness_counts_only_quadrature_values(self):
        cert = certify(lambda x: -x, LEGENDRE, n_max=10, seed=1)
        assert (cert.evaluations, cert.callback_path) == (64, "vectorized")


@st.composite
def certify_cases(draw):
    """A random kernel_eval callback, sometimes minus a planted basis term.

    The planted degree may exceed n_max, where only the Gram oracle sees it.
    Values stay below 5 in magnitude, so the two paths' rounding moves the
    25x25 Gram eigenvalues by far less than 1e-12.
    """
    basis = GegenbauerBasis.from_dimension(draw(st.sampled_from([1, 2, 3])))
    n_max = draw(st.integers(0, 100))
    degree = draw(st.integers(0, 20))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=degree + 1, max_size=degree + 1))
    seq = make_sequence(np.array(raw) * draw(st.floats(0.5, 2.0)), basis, normalize=True)
    plant = draw(st.none() | st.tuples(st.integers(0, degree), st.floats(0.01, 1.5)))
    if plant is None:
        g = lambda x: kernel_eval(seq, x)
    else:
        k, weight = plant
        g = lambda x: kernel_eval(seq, x) - weight * seq.scale_c * eval_normalized(basis, k, x)
    return g, basis, n_max, seq.scale_c, draw(st.integers(0, 2**31 - 1))


def _outcome(cert):
    witness = cert.witness or {}
    return cert.verdict, witness.get("kind"), witness.get("index"), witness.get("trial")


@settings(max_examples=25, deadline=None)
@given(certify_cases())
def test_batched_and_pointwise_certify_agree(case):
    g, basis, n_max, scale, seed = case

    def scalar_only(x):
        if isinstance(x, np.ndarray):
            raise TypeError("scalars only")
        return g(x)

    batched = certify(g, basis, n_max=n_max, seed=seed)
    pointwise = certify(scalar_only, basis, n_max=n_max, seed=seed)
    assert (batched.callback_path, pointwise.callback_path) == ("vectorized", "pointwise")
    assert _outcome(batched) == _outcome(pointwise)
    assert np.max(np.abs(batched.coefficients - pointwise.coefficients)) <= 1e-14 * scale
    if batched.min_gram_eigenvalue is None:
        assert pointwise.min_gram_eigenvalue is None
    else:
        assert abs(batched.min_gram_eigenvalue - pointwise.min_gram_eigenvalue) <= 1e-12
    assert batched.evaluations == pointwise.evaluations


class TestMultiquadric:
    def test_delta_zero_limit(self):
        seq = multiquadric_sequence(1e-12, LEGENDRE, 10)
        assert_allclose(seq.coeffs[0], 1.0, rtol=1e-11)
        assert np.all(seq.coeffs[1:] < 1e-11)

    def test_normalization_at_one(self):
        seq = multiquadric_sequence(0.5, LEGENDRE, 60)
        assert seq.scale_c == 1.0
        assert_allclose(kernel_eval(seq, 1.0), 1.0, rtol=1e-9)

    def test_matches_closed_form(self):
        seq = multiquadric_sequence(0.4, LAMBDA_ONE, 80)
        x = np.linspace(-1.0, 1.0, 100)
        assert np.max(np.abs(kernel_eval(seq, x) - multiquadric_kernel(0.4, 1.0, x))) <= 1e-8

    def test_legendre_coefficients_are_geometric(self):
        # At lambda = 1/2 the terms are plain powers of delta.
        delta = 0.3
        seq = multiquadric_sequence(delta, LEGENDRE, 40)
        expected = delta ** np.arange(41)
        assert_allclose(seq.coeffs, expected / expected.sum(), rtol=1e-12)

    def test_recovery_matches_delta_law(self):
        delta = 0.5
        seq = multiquadric_sequence(delta, LEGENDRE, 60)
        ahat = recover_coefficients(lambda x: kernel_eval(seq, x), LEGENDRE, 20, 64)
        assert_allclose(ahat, seq.coeffs[:21], atol=1e-10)

    def test_rejects_delta_outside_unit_interval(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                multiquadric_sequence(bad, LEGENDRE, 10)

    def test_rejects_chebyshev_basis(self):
        with pytest.raises(DomainError):
            multiquadric_sequence(0.5, GegenbauerBasis.from_index(0.0), 10)


class TestSequenceDataclass:
    def test_replace_revalidates(self):
        seq = make_sequence([0.5, 0.5], LEGENDRE)
        with pytest.raises(DomainError):
            dataclasses.replace(seq, scale_c=-1.0)
