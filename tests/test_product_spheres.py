"""Product-of-spheres kernels and rank-one separability analysis."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from helpers import random_higher_rank_matrix, random_rank_one_matrix, random_sequence
from spherecov import (
    DegenerateZeroError,
    DomainError,
    GegenbauerBasis,
    NegativeCoefficientError,
    NonSeparable,
    NormalizationError,
    ProductSphereKernel,
    Separable,
    ZeroMassError,
    eval_sequence,
    kernel_eval,
    make_ps_kernel,
    make_sequence,
    outer_product_kernel,
    ps_kernel_eval,
    separability_test,
)

LEGENDRE = GegenbauerBasis.from_index(0.5)
CHEBYSHEV = GegenbauerBasis.from_index(0.0)
LAMBDA_ONE = GegenbauerBasis.from_index(1.0)


class TestMakePsKernel:
    def test_constant(self):
        k = make_ps_kernel([[1.0]], LEGENDRE, LEGENDRE)
        assert k.truncations == (0, 0)
        assert ps_kernel_eval(k, 0.3, -0.9) == 1.0

    def test_row_vector_without_normalize(self):
        k = make_ps_kernel([[0.5, 0.5]], LEGENDRE, LEGENDRE)
        assert_allclose(k.coeff_matrix, [[0.5, 0.5]], rtol=0, atol=0)

    def test_negative_entry_reports_matrix_index(self):
        with pytest.raises(NegativeCoefficientError) as info:
            make_ps_kernel([[0.5, -0.5]], LEGENDRE, LEGENDRE)
        assert info.value.index == (0, 1)
        assert info.value.value == -0.5

    def test_zero_mass(self):
        with pytest.raises(ZeroMassError):
            make_ps_kernel([[0.0, 0.0]], LEGENDRE, LEGENDRE, normalize=True)

    def test_normalize_stores_total(self):
        k = make_ps_kernel([[1.0, 3.0]], LEGENDRE, LEGENDRE, normalize=True)
        assert_allclose(k.coeff_matrix, [[0.25, 0.75]], rtol=0, atol=0)
        assert k.scale_c == 4.0

    def test_unnormalized_sum_rejected(self):
        with pytest.raises(NormalizationError):
            make_ps_kernel([[0.9]], LEGENDRE, LEGENDRE)

    def test_rejects_non_matrix(self):
        with pytest.raises(DomainError):
            make_ps_kernel([1.0, 0.0], LEGENDRE, LEGENDRE)


class TestPsKernelEval:
    def test_legendre_product_spot_value(self):
        k = make_ps_kernel([[0.0, 0.0], [0.0, 1.0]], LEGENDRE, LEGENDRE)
        assert_allclose(ps_kernel_eval(k, 0.3, -0.4), -0.12, rtol=1e-14)

    def test_value_at_ones_is_scale(self):
        rng = np.random.default_rng(0)
        raw = rng.uniform(0.0, 1.0, (4, 3))
        k = make_ps_kernel(raw, LEGENDRE, LAMBDA_ONE, normalize=True)
        assert_allclose(ps_kernel_eval(k, 1.0, 1.0), k.scale_c, rtol=1e-14)

    def test_matches_direct_double_sum(self):
        rng = np.random.default_rng(1)
        raw = rng.uniform(0.0, 1.0, (3, 4))
        k = make_ps_kernel(raw / raw.sum(), LEGENDRE, CHEBYSHEV)
        x1, x2 = -0.7, 0.25
        v1 = eval_sequence(LEGENDRE, 2, np.asarray(x1))
        v2 = eval_sequence(CHEBYSHEV, 3, np.asarray(x2))
        expected = float(v1 @ k.coeff_matrix @ v2)
        assert_allclose(ps_kernel_eval(k, x1, x2), expected, rtol=1e-14)

    def test_broadcasting(self):
        k = make_ps_kernel([[1.0]], LEGENDRE, LEGENDRE)
        out = ps_kernel_eval(k, np.zeros((2, 1)), np.zeros((1, 5)))
        assert out.shape == (2, 5)

    def test_domain_errors(self):
        k = make_ps_kernel([[1.0]], LEGENDRE, LEGENDRE)
        with pytest.raises(DomainError):
            ps_kernel_eval(k, 1.5, 0.0)
        with pytest.raises(DomainError):
            ps_kernel_eval(k, 0.0, -1.5)
        # A degree over the cap is an error even where no pair is evaluated.
        for shape in [(10_002, 1), (1, 10_002)]:
            over = make_ps_kernel(np.ones(shape), LEGENDRE, LEGENDRE, normalize=True)
            with pytest.raises(DomainError, match="^degree 10001 exceeds the supported cap 10000$"):
                ps_kernel_eval(over, np.zeros(0), 0.0)


class TestSeparabilityTest:
    def test_rank_one_factorization(self):
        matrix = np.outer([0.2, 0.8], [0.5, 0.5])
        k = make_ps_kernel(matrix, LEGENDRE, LEGENDRE)
        result = separability_test(k)
        assert isinstance(result, Separable)
        assert_allclose(np.outer(result.row_factors, result.col_factors), matrix, atol=1e-15)
        assert np.all(result.row_factors >= 0)
        assert np.all(result.col_factors >= 0)

    def test_scaled_identity_minor(self):
        k = make_ps_kernel(np.eye(2) * 0.5, LEGENDRE, LEGENDRE)
        result = separability_test(k)
        assert isinstance(result, NonSeparable)
        assert result.minor == (0, 0, 1, 1)
        assert_allclose(result.value, 0.25, rtol=1e-15)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, -1e-9])
    def test_rejects_bad_tol(self, tol):
        # At NaN every minor comparison is False, which read as rank one.
        k = make_ps_kernel([[0.5, 0.1], [0.1, 0.3]], LEGENDRE, LEGENDRE, normalize=True)
        with pytest.raises(DomainError):
            separability_test(k, tol)
        with pytest.raises(DomainError):
            k.separability(tol)

    def test_separability_verdicts(self):
        outer = make_ps_kernel(np.outer([0.2, 0.8], [0.5, 0.5]), LEGENDRE, LEGENDRE)
        assert outer.separability() == {"separable": True, "row_factors": [0.1, 0.4], "col_factors": [1.0, 1.0]}
        diagonal = make_ps_kernel(np.eye(2) * 0.5, LEGENDRE, LEGENDRE)
        assert diagonal.separability() == {"separable": False, "minor": [0, 0, 1, 1], "value": 0.25}
        assert make_ps_kernel([[0.5, 0.5]], LEGENDRE, LEGENDRE).separability(0.0)["separable"] is True

    def test_noise_below_tolerance(self):
        rng = np.random.default_rng(2)
        matrix = random_rank_one_matrix(rng, 3, 4)
        noisy = matrix + rng.uniform(-1e-15, 1e-15, matrix.shape)
        noisy = np.clip(noisy, 0.0, None)
        noisy /= noisy.sum()
        k = make_ps_kernel(noisy, LEGENDRE, LEGENDRE)
        assert isinstance(separability_test(k, tol=1e-9), Separable)

    @pytest.mark.parametrize("shape", [(2, 2), (4, 3), (6, 6)])
    def test_constructed_rank_one_detected(self, shape):
        rng = np.random.default_rng(hash(shape) % (2**32))
        for _ in range(10):
            matrix = random_rank_one_matrix(rng, shape[0] - 1, shape[1] - 1)
            k = make_ps_kernel(matrix, LEGENDRE, LEGENDRE)
            assert isinstance(separability_test(k), Separable)

    @pytest.mark.parametrize("shape", [(2, 2), (4, 3), (6, 6)])
    def test_constructed_higher_rank_detected(self, shape):
        rng = np.random.default_rng(hash(shape) % (2**31))
        for _ in range(10):
            matrix = random_higher_rank_matrix(rng, shape[0] - 1, shape[1] - 1)
            k = make_ps_kernel(matrix, LEGENDRE, LEGENDRE)
            result = separability_test(k)
            assert isinstance(result, NonSeparable)
            m, n, m2, n2 = result.minor
            a = k.coeff_matrix
            recomputed = a[m, n] * a[m2, n2] - a[m, n2] * a[m2, n]
            assert result.value == recomputed
            assert abs(result.value) > 1e-9 * a.max() ** 2

    def test_degenerate_zero_guard(self):
        # The public constructors normalize mass, so reach the defensive
        # branch by bypassing validation.
        k = object.__new__(ProductSphereKernel)
        object.__setattr__(k, "coeff_matrix", np.zeros((2, 2)))
        object.__setattr__(k, "scale_c", 1.0)
        object.__setattr__(k, "basis1", LEGENDRE)
        object.__setattr__(k, "basis2", LEGENDRE)
        with pytest.raises(DegenerateZeroError):
            separability_test(k)

    def test_value_level_factorization(self):
        rng = np.random.default_rng(3)
        matrix = random_rank_one_matrix(rng, 4, 5)
        k = make_ps_kernel(matrix, LEGENDRE, LAMBDA_ONE)
        result = separability_test(k)
        assert isinstance(result, Separable)
        b, c = result.row_factors, result.col_factors
        xs = np.linspace(-1, 1, 30)
        t1 = eval_sequence(LEGENDRE, 4, xs)
        t2 = eval_sequence(LAMBDA_ONE, 5, xs)
        lhs = ps_kernel_eval(k, xs[:, None], xs[None, :]) * (b.sum() * c.sum())
        rhs = (b @ t1)[:, None] * (c @ t2)[None, :] * k.scale_c
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


class TestOuterProduct:
    def test_outer_product_matches_kernel_product(self):
        rng = np.random.default_rng(4)
        s1 = random_sequence(rng, LEGENDRE, 5)
        s2 = random_sequence(rng, LAMBDA_ONE, 3)
        k = outer_product_kernel(s1, s2)
        xs = np.linspace(-1, 1, 17)
        for x1 in xs[::4]:
            expected = kernel_eval(s1, x1) * kernel_eval(s2, xs)
            assert_allclose(ps_kernel_eval(k, x1, xs), expected, rtol=0, atol=1e-12)

    def test_outer_product_is_rank_one(self):
        rng = np.random.default_rng(5)
        s1 = random_sequence(rng, LEGENDRE, 4)
        s2 = random_sequence(rng, LEGENDRE, 4)
        assert isinstance(separability_test(outer_product_kernel(s1, s2)), Separable)

    def test_scales_multiply(self):
        s1 = make_sequence([2.0], LEGENDRE, normalize=True)
        s2 = make_sequence([3.0], LEGENDRE, normalize=True)
        assert outer_product_kernel(s1, s2).scale_c == 6.0
