"""Schoenberg sequences: synthesis, recovery, certification, multiquadric."""

import contextlib
import dataclasses
import hashlib
import json
import math
import tracemalloc
import warnings
from decimal import Decimal
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import random_sequence
from spherecov import fields, gegenbauer, schoenberg
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
    uniform_sphere_points,
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

    @pytest.mark.parametrize("build, name", DIRECT, ids=DIRECT_IDS)
    def test_zero_total_is_zero_mass_on_every_path(self, build, name):
        with pytest.raises(ZeroMassError, match="^all coefficients are zero$"):
            build(0.0)


class TestOneWeightCheck:
    """Every weight array is checked by `_checked_weights`: once on a `make_*`
    call that does not normalize (in the constructor alone), and once more
    for the total when it does."""

    MAKERS = [
        lambda w, normalize: make_sequence(w, LEGENDRE, normalize=normalize),
        lambda w, normalize: make_st_kernel([(a, gaussian(1.0)) for a in w], LEGENDRE, normalize=normalize),
        lambda w, normalize: make_ps_kernel([w], LEGENDRE, LEGENDRE, normalize=normalize),
    ]

    @pytest.mark.parametrize("normalize, checks", [(False, 1), (True, 2)])
    @pytest.mark.parametrize("make", MAKERS, ids=["make_sequence", "make_st_kernel", "make_ps_kernel"])
    def test_check_count(self, monkeypatch, make, normalize, checks):
        checked, calls = schoenberg._checked_weights, []
        monkeypatch.setattr(schoenberg, "_checked_weights", lambda *args: calls.append(args) or checked(*args))
        make([0.5, 0.5], normalize)
        assert len(calls) == checks


class TestPrivateWeights:
    """A kernel keeps its own copy of a caller's read-only weight array: the
    caller could make that array writeable again and edit checked weights."""

    def test_the_caller_cannot_edit_checked_coefficients(self):
        c = np.array([0.5, 0.5])
        c.setflags(write=False)
        seq = make_sequence(c, GegenbauerBasis.from_dimension(2))
        c.setflags(write=True)
        c[:] = [-2, -0.5]
        assert kernel_eval(seq, 1.0) == 1.0

    BUILDERS = {
        "sphere": lambda w: SchoenbergSequence(coeffs=w, scale_c=1.0, basis=LEGENDRE),
        "sphere_time": lambda w: SpaceTimeKernel(weights=w, charfns=(gaussian(1.0),) * 2, scale_c=1.0, basis=LEGENDRE),
        "product": lambda w: ProductSphereKernel(coeff_matrix=w, scale_c=1.0, basis1=LEGENDRE, basis2=LEGENDRE),
    }

    @pytest.mark.parametrize("kind", sorted(BUILDERS))
    def test_every_family_stores_a_read_only_copy(self, kind):
        w = np.array([[0.25, 0.75]] if kind == "product" else [0.25, 0.75])
        w.setflags(write=False)
        kernel = self.BUILDERS[kind](w)
        stored = getattr(kernel, kernel.WEIGHTS)
        assert not np.shares_memory(stored, w) and not stored.flags.writeable
        w.setflags(write=True)
        w[...] = -1.0
        assert stored.reshape(-1).tolist() == [0.25, 0.75]


class TestKernelEval:
    def test_constant_kernel(self):
        seq = make_sequence([1.0], LEGENDRE)
        assert kernel_eval(seq, -0.8) == 1.0

    def test_degree_one_is_identity(self):
        seq = make_sequence([0.0, 1.0], LEGENDRE)
        assert kernel_eval(seq, 0.3) == 0.3

    def test_scale_that_overflows_is_a_domain_error(self):
        # Normalized, these weights sum to just over 1 in floating point, so
        # at x = 1 their total as the scale overflows; a numpy warning would
        # be an error under pytest.
        weights = [6.012757765148064e307, 2.018246789480117e305, 6.318982366233716e307, 2.475222761422376e306,
                   5.377486473204339e307]
        seq = make_sequence(weights, LEGENDRE, normalize=True)
        assert seq.scale_c == np.finfo(float).max
        assert math.isfinite(kernel_eval(seq, 0.3))
        with pytest.raises(DomainError, match=r"^kernel scale 1\.7976931348623157e\+308 is too large: the kernel values overflow$"):
            kernel_eval(seq, np.array([0.3, 1.0]))

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

    @pytest.mark.parametrize(
        "d, n_max, order, g, message",
        [
            (2, 4, 64, lambda x: np.full_like(x, 1e308), "coefficient 0 overflows"),
            (1, 4, 64, lambda x: np.where(x > 0, 1e308, -1e308), "coefficient 1 overflows"),
            (1, 1, 2, lambda x: np.where(x > 0, 1.7e308, -1.7e308), "coefficient 0 overflows"),
        ],
    )
    def test_overflowing_coefficient_is_a_domain_error(self, d, n_max, order, g, message):
        # The `error::RuntimeWarning` filter in pyproject.toml fails a numpy overflow warning too.
        with pytest.raises(DomainError, match=message):
            recover_coefficients(g, GegenbauerBasis.from_dimension(d), n_max, order)

    def test_certify_of_an_overflowing_function_is_a_domain_error(self):
        with pytest.raises(DomainError, match="coefficient 0 overflows"):
            certify(lambda x: np.full_like(x, 1e308), GegenbauerBasis.from_dimension(2))

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


def _scalar_only(g):
    def call(x):
        if isinstance(x, np.ndarray):
            raise TypeError("scalars only")
        return g(x)

    return call


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 5]),
    st.integers(0, 300),
    st.integers(0, 300),
    st.floats(-8.0, 8.0),
    st.booleans(),
)
@example(2, 256, 300, 1.5, False)  # both tables over the cap
@example(3, 10, 20, -2.0, True)  # both tables under it
def test_cached_table_path_equals_the_streamed_path(d, n_max, extra, frequency, pointwise):
    # Each call runs twice, cold and then warm, and must give the bytes of
    # the streamed path, which a cache cap of 0 forces for every table, in
    # chunks of two rows.
    basis = GegenbauerBasis.from_dimension(d)
    order = n_max + 1 + extra
    g = lambda x: np.cos(frequency * x + 0.25)
    if pointwise:
        g = _scalar_only(g)

    def run():
        coeffs = recover_coefficients(g, basis, n_max, order).tobytes()
        return coeffs, json.dumps(certify(g, basis, n_max=n_max, seed=n_max).to_dict())

    gegenbauer._degree_table.cache_clear()
    cold, warm = run(), run()
    if 8 * (n_max + 1) * order <= gegenbauer._TABLE_CACHE_BYTES:
        table = gegenbauer._degree_table(basis.lam, order, n_max)
        assert table.shape == (n_max + 1, order) and not table.flags.writeable
    with mock.patch.multiple(gegenbauer, _TABLE_CACHE_BYTES=0, _CHUNK_BYTES=0):
        before = gegenbauer._degree_table.cache_info()
        streamed = run()
        assert gegenbauer._degree_table.cache_info() == before
    assert cold == warm == streamed


def _loop_projection(g, basis, n_max, order, pointwise):
    """The coefficients by the per-degree loop `_recover` ran before its one
    `np.vecdot`: a dot product and a division for each row of the table."""
    rule = quadrature(basis.lam, order)
    if pointwise:
        values = np.array([g(x) for x in rule.nodes.tolist()])
    else:
        values = np.asarray(g(rule.nodes), dtype=float)
    weighted = rule.weights * values
    rows = eval_sequence(basis, n_max, rule.nodes)
    return np.array([p @ weighted / norm_squared(basis, n) for n, p in enumerate(rows)])


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([0.0, 0.5, 1.0, 1.5, 20.0]),
    st.integers(0, 300),
    st.integers(0, 300),
    st.floats(-8.0, 8.0),
    st.booleans(),
    st.booleans(),
)
@example(0.5, 255, 256, 1.5, False, False)  # the largest cached table: 255 + 1 rows of 512 nodes
@example(1.0, 255, 257, 1.5, False, False)  # one node more: streamed
@example(20.0, 150, 0, -3.0, True, False)
@example(0.0, 0, 0, 0.5, False, True)
def test_one_vecdot_equals_the_per_degree_loop(lam, n_max, extra, frequency, pointwise, no_cache):
    # Both sides of the cache cap, and with a cache cap of 0 every table
    # streams, in chunks of two rows.
    basis = GegenbauerBasis.from_index(lam)
    order = n_max + 1 + extra
    g = lambda x: np.cos(frequency * x + 0.25)
    if pointwise:
        g = _scalar_only(g)
    reference = _loop_projection(g, basis, n_max, order, pointwise)
    streamed = mock.patch.multiple(gegenbauer, _TABLE_CACHE_BYTES=0, _CHUNK_BYTES=0)
    with streamed if no_cache else contextlib.nullcontext():
        ahat, vectorized = schoenberg._recover(g, basis, n_max, order)
    assert vectorized is not pointwise
    assert ahat.shape == (n_max + 1,) and ahat.tobytes() == reference.tobytes()


def _old_pointwise(g, xs):
    """The point-by-point loop that `_evaluate` ran before its one `np.fromiter`."""
    values = np.empty(xs.size)
    for i, x in enumerate(xs.tolist()):
        try:
            values[i] = g(x)
        except Exception as exc:
            raise EvaluationError(x, exc) from exc
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise EvaluationError(float(xs[bad[0]]), "non-finite function value")
    return values


def _new_pointwise(g, xs):
    values, vectorized = schoenberg._evaluate(g, xs)
    assert not vectorized
    return values


def _outcome_of(run, g, xs):
    try:
        return "values", run(g, xs.copy()).tobytes()
    except EvaluationError as exc:
        return "error", str(exc), exc.point, type(exc.__cause__)


class TestPointwiseLoop:
    XS = np.linspace(-0.9, 0.9, 7)
    RETURNS = {
        "float": 2.5,
        "int": 3,
        "bool": True,
        "float32": np.float32(1.5),
        "0-d array": np.array(2.0),
        "list": [1.0],
        "None": None,
        "numeric string": "1.5",
        "string": "abc",
        "complex": 1 + 2j,
        "Decimal": Decimal("1.5"),
        "Fraction": Fraction(1, 3),
        "huge int": 10**400,
    }

    @pytest.mark.parametrize("value", RETURNS.values(), ids=RETURNS.keys())
    def test_matches_the_old_loop(self, value):
        # Points before the third return a float, so a failure must name the third.
        third = self.XS[2]
        g = _scalar_only(lambda x: 0.5 if x < third else value)
        assert _outcome_of(_new_pointwise, g, self.XS) == _outcome_of(_old_pointwise, g, self.XS)

    @pytest.mark.parametrize("error", [RuntimeError, StopIteration])
    @pytest.mark.parametrize("k", [0, 3, 6])
    def test_failure_at_point_k_makes_k_plus_one_calls(self, k, error):
        calls = []

        def g(x):
            calls.append(x)
            if len(calls) == k + 1:
                raise error("boom")
            return x

        with pytest.raises(EvaluationError) as info:
            _new_pointwise(_scalar_only(g), self.XS.copy())
        assert len(calls) == k + 1
        point = float(self.XS[k])
        assert type(info.value.point) is float and info.value.point == point
        assert isinstance(info.value.__cause__, error)
        assert str(info.value).startswith(f"function evaluation failed at x={point!r}:")


class TestCertify:
    @pytest.mark.parametrize("kwargs", [{"seed": -1}, {"seed": 1.5}, {"seed": "1"}, {"gram_trials": 2.5}], ids=repr)
    def test_bad_seed_or_trial_count_is_domain_error(self, kwargs):
        with pytest.raises(DomainError):
            certify(lambda x: x, LEGENDRE, n_max=4, **kwargs)

    def test_numpy_integer_seed_is_recorded_as_int(self):
        cert = certify(lambda x: x, LEGENDRE, n_max=4, seed=np.uint32(7))
        assert type(cert.seed) is int
        assert cert.to_dict() == certify(lambda x: x, LEGENDRE, n_max=4, seed=7).to_dict()

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


class TestTrialCache:
    """Gram trials read their cosines from `fields._trial_arguments`, cached by
    (d, 25, trial seed); a cold and a warm cache give the same certificate."""

    CALLBACKS = {
        "vector": lambda basis: lambda x: np.exp(x - 1.0),
        "scalar": lambda basis: _scalar_only(lambda x: math.exp(x - 1.0)),
        "indefinite": lambda basis: lambda x: -eval_normalized(basis, 50, x),
    }

    @settings(max_examples=40, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 3]),
        seed=st.integers(0, gegenbauer.MAX_SEED),
        trials=st.integers(0, 6),
        kind=st.sampled_from(sorted(CALLBACKS)),
    )
    def test_cold_and_warm_cache_give_the_same_certificate(self, d, seed, trials, kind):
        basis = GegenbauerBasis.from_dimension(d)
        g = self.CALLBACKS[kind](basis)

        def run():
            return json.dumps(certify(g, basis, n_max=10, gram_trials=trials, seed=seed).to_dict())

        fields._trial_arguments.cache_clear()
        cold, warm = run(), run()
        assert cold == warm
        cert = json.loads(cold)
        assert cert["callback_path"] == ("pointwise" if kind == "scalar" else "vectorized")
        if kind == "indefinite" and trials:
            assert cert["witness"]["kind"] == "eigenvalue" and cert["evaluations"] == 64 + 325
        else:
            assert cert["evaluations"] == 64 + 325 * trials

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 7, gegenbauer.MAX_SEED])
    def test_cached_vector_is_the_read_only_upper_triangle(self, d, seed):
        fields._trial_arguments.cache_clear()
        cached = fields._trial_arguments(d, 25, seed)
        (reference,) = fields._row_arguments(uniform_sphere_points(d, 25, seed)._row_factors(), slice(0, 25))
        assert cached.shape == (325,) and cached.tobytes() == reference.tobytes()
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached.setflags(write=True)
        assert fields._trial_arguments(d, 25, seed) is cached

    def test_a_callback_that_writes_cannot_change_a_later_certificate(self):
        attempts = []

        def vandal(x):
            if x.size == 325:  # a trial's cosines, not the quadrature nodes
                for attempt in (lambda: x.setflags(write=True), lambda: x.fill(0.0), lambda: np.negative(x, out=x)):
                    with pytest.raises(ValueError):
                        attempt()
                    attempts.append(attempt)
            return x * x

        fields._trial_arguments.cache_clear()
        before = json.dumps(certify(lambda x: x * x, LEGENDRE, n_max=10, seed=3).to_dict())
        assert certify(vandal, LEGENDRE, n_max=10, seed=3).verdict == "PD"
        assert len(attempts) == 3 * 5
        assert json.dumps(certify(lambda x: x * x, LEGENDRE, n_max=10, seed=3).to_dict()) == before

    def test_the_cache_keeps_at_most_64_trials(self):
        fields._trial_arguments.cache_clear()
        for seed in range(100):
            certify(lambda x: x * x, LEGENDRE, n_max=4, gram_trials=1, seed=seed)
        info = fields._trial_arguments.cache_info()
        assert info.maxsize == 64 and info.misses == 100 and info.currsize <= 64


def _reference_certificate(g, basis, n_max, gram_trials, seed):
    """The certificate of `certify` with each Gram trial built the way it was
    before the gather: `fields._mirror_rows` into an empty matrix, then
    `min_eigenvalue` of a `GramMatrix`, with all of its checks."""
    doc = certify(g, basis, n_max=n_max, gram_trials=0, seed=seed).to_dict()
    doc["gram_trials"] = gram_trials
    if doc["verdict"] == "NotPD":  # a coefficient witness: no trial runs
        return doc
    n = schoenberg.CERTIFY_GRAM_POINTS
    seeds = np.random.SeedSequence(seed).generate_state(max(gram_trials, 1))
    min_eig = math.inf
    for trial in range(gram_trials):
        values, batched = schoenberg._evaluate(g, fields._trial_arguments(basis.dimension, n, int(seeds[trial])))
        if not batched:
            doc["callback_path"] = "pointwise"
        doc["evaluations"] += values.size
        entries = np.empty((n, n))
        fields._mirror_rows(entries, slice(0, n), values)
        eig = fields.min_eigenvalue(fields.GramMatrix(entries=entries, provenance="reference"))
        min_eig = min(min_eig, eig)
        if eig < -doc["eig_tol"]:
            witness = {"kind": "eigenvalue", "gram_size": n, "eigenvalue": eig, "seed": int(seeds[trial]), "trial": trial}
            doc.update(verdict="NotPD", min_gram_eigenvalue=eig, witness=witness)
            return doc
    doc["min_gram_eigenvalue"] = min_eig if gram_trials else None
    return doc


class TestTrialGather:
    """Each Gram trial is `values[fields._trial_index(25)]`, handed to
    `eigvalsh` unchecked; its certificates equal those of the mirrored,
    checked route kept in `_reference_certificate`."""

    CALLBACKS = {
        "vector": lambda basis, amp: lambda x: kernel_eval(make_sequence([0.5, 0.3, 0.2], basis), x),
        "pointwise": lambda basis, amp: _scalar_only(lambda x: math.exp(x - 1.0)),
        # Coefficients up to n_max = 10 are those of the constant 1; only the
        # Gram trials can see the degree-11 term, indefinite for a large amp.
        "indefinite": lambda basis, amp: lambda x: 1.0 - amp * eval_normalized(basis, 11, x),
    }

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.sampled_from([1, 2, 3]),
        trials=st.integers(0, 6),
        kind=st.sampled_from(sorted(CALLBACKS)),
        amp=st.floats(0.0, 2.0),
        seed=st.integers(0, gegenbauer.MAX_SEED),
    )
    def test_certificate_equals_the_mirrored_route(self, d, trials, kind, amp, seed):
        basis = GegenbauerBasis.from_dimension(d)
        g = self.CALLBACKS[kind](basis, amp)
        got = json.dumps(certify(g, basis, n_max=10, gram_trials=trials, seed=seed).to_dict())
        assert got == json.dumps(_reference_certificate(g, basis, 10, trials, seed))

    def test_the_indefinite_callback_reaches_an_eigenvalue_witness(self):
        g = self.CALLBACKS["indefinite"](LEGENDRE, 2.0)
        cert = certify(g, LEGENDRE, n_max=10, seed=0)
        assert (cert.verdict, cert.witness["kind"]) == ("NotPD", "eigenvalue")
        assert cert.to_dict() == _reference_certificate(g, LEGENDRE, 10, 5, 0)

    @pytest.mark.parametrize("n", [1, 2, 25])
    def test_the_gather_is_the_mirrored_matrix(self, n):
        values = np.random.default_rng(n).standard_normal(n * (n + 1) // 2)
        mirrored = np.empty((n, n))
        fields._mirror_rows(mirrored, slice(0, n), values)
        gathered = values[fields._trial_index(n)]
        assert gathered.tobytes() == mirrored.tobytes() and (gathered == gathered.T).all()

    def test_the_index_is_cached_and_cannot_be_made_writeable(self):
        index = fields._trial_index(25)
        assert fields._trial_index(25) is index and not index.flags.writeable
        with pytest.raises(ValueError):
            index.setflags(write=True)

    def test_a_nan_on_a_trial_raises_evaluation_error(self):
        def g(x):
            values = np.exp(x - 1.0)
            if x.size == 325:  # a trial's cosines, not the 64 quadrature nodes
                values[7] = math.nan
            return values

        with pytest.raises(EvaluationError, match="non-finite function value") as info:
            certify(g, LEGENDRE, n_max=10, seed=0)
        seed = int(np.random.SeedSequence(0).generate_state(1)[0])
        assert info.value.point == float(fields._trial_arguments(2, 25, seed)[7])


class TestCertifyGoldenBytes:
    """The certificates of a fixed grid, one JSON document per line, pinned by
    one sha256 per dimension: d in {1, 2, 3}, n_max in {10, 40}, a
    `kernel_eval` callback (PD), a scalar-only `math.exp` callback (pointwise)
    and an indefinite one (an eigenvalue witness), all at seed 7. Recorded
    with OpenBLAS 0.3.31 on x86-64, 1 and 2 threads alike; a change that moves
    one bit of a coefficient, an eigenvalue or a witness changes the hash of
    its dimension, so a change to one Gauss rule family shows which d it
    moved."""

    CALLBACKS = {
        "vector": lambda basis: lambda x: kernel_eval(make_sequence([0.4, 0.3, 0.2, 0.1], basis), x),
        "scalar": lambda basis: _scalar_only(lambda x: math.exp(x - 1.0)),
        "indefinite": lambda basis: lambda x: -eval_normalized(basis, 50, x),
    }
    SHA256 = {
        1: "85d1d358fb463ce81ae6c95ec34e89138b0397328cb0e551b9432b3396a730a1",
        2: "319bf84fc4ede60be6e72ca3a1fdb303af2704eb0e587cadce1e225368a61385",
        3: "5be3e91be85ccc36496dbb0a234bcea8f67fffd0bbc051b8d52e2d7dd628e340",
    }

    def test_certificates(self):
        hashes = {}
        for d in (1, 2, 3):
            basis = GegenbauerBasis.from_dimension(d)
            lines = []
            for n_max in (10, 40):
                for kind in sorted(self.CALLBACKS):
                    cert = certify(self.CALLBACKS[kind](basis), basis, n_max=n_max, seed=7)
                    lines.append(json.dumps(cert.to_dict()))
            hashes[d] = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        assert hashes == self.SHA256


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

    @pytest.mark.parametrize("order", [512, 1024])
    @pytest.mark.parametrize("delta", [0.3, 0.5])
    def test_closed_form_recovery_on_the_three_sphere(self, delta, order):
        # The closed-form λ = 1 Gauss rule against the generating function.
        seq = multiquadric_sequence(delta, LAMBDA_ONE, 64)
        ahat = recover_coefficients(lambda x: multiquadric_kernel(delta, 1.0, x), LAMBDA_ONE, 64, order)
        assert_allclose(ahat, seq.coeffs * seq.scale_c, rtol=0, atol=1e-13)

    def test_large_index_keeps_the_ratio_law(self):
        # The running terms pass the float max here: they are rescaled, with no
        # warning, and each ratio a_n / a_{n-1} stays delta (n + 2 lambda - 1) / n.
        delta, basis = 0.5, GegenbauerBasis.from_dimension(20001)
        a = multiquadric_sequence(delta, basis, 9000).coeffs
        n = np.arange(1, a.size)
        normal = a[:-1] > 1e-280
        assert normal.sum() > 1000 and math.isclose(a.sum(), 1.0, rel_tol=1e-12)
        assert_allclose(a[1:][normal] / a[:-1][normal], (delta * (n + 2.0 * basis.lam - 1.0) / n)[normal], rtol=1e-12)

    @pytest.mark.parametrize("delta, d, n_max", [(0.3, 20001, 150), (0.7, 1500, 300), (0.99, 1001, 300)])
    def test_rescaled_terms_keep_the_bits_of_the_running_product(self, delta, d, n_max):
        # The largest term lies between 2^1000 and the float max: it is rescaled,
        # and the weights keep the bits of the plain product, normalized.
        lam, terms = (d - 1) / 2, [1.0]
        for n in range(1, n_max + 1):
            terms.append(terms[-1] * delta * (n + 2.0 * lam - 1.0) / n)
        assert 2.0**1000 < max(terms) < math.inf
        terms = np.array(terms)
        seq = multiquadric_sequence(delta, GegenbauerBasis.from_dimension(d), n_max)
        assert seq.coeffs.tobytes() == (terms / float(terms.sum())).tobytes()

    def test_rejects_delta_outside_unit_interval(self):
        for bad in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                multiquadric_sequence(bad, LEGENDRE, 10)

    def test_rejects_chebyshev_basis(self):
        with pytest.raises(DomainError):
            multiquadric_sequence(0.5, GegenbauerBasis.from_index(0.0), 10)

    @pytest.mark.parametrize("delta, x", [(0.5, 2.0), (0.5, -1.5), (0.5, math.nan), (1.5, 0.3), (0.0, 0.3), (1.0, 0.3)])
    def test_closed_form_rejects_out_of_domain_input(self, delta, x):
        with pytest.raises(DomainError):
            multiquadric_kernel(delta, 0.5, x)

    @pytest.mark.parametrize("n_max", [-1, 2.5, 10_001])
    def test_rejects_a_bad_truncation(self, n_max):
        with pytest.raises(DomainError):
            multiquadric_sequence(0.5, LEGENDRE, n_max)


class TestSequenceDataclass:
    def test_replace_revalidates(self):
        seq = make_sequence([0.5, 0.5], LEGENDRE)
        with pytest.raises(DomainError):
            dataclasses.replace(seq, scale_c=-1.0)
