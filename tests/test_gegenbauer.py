"""Gegenbauer evaluation and quadrature against closed-form oracles."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import gammaln

from spherecov import (
    DomainError,
    GegenbauerBasis,
    eval_normalized,
    eval_sequence,
    norm_squared,
    quadrature,
    recover_coefficients,
)
from spherecov.errors import ConvergenceError

LEGENDRE = GegenbauerBasis.from_index(0.5)
CHEBYSHEV = GegenbauerBasis.from_index(0.0)

# Explicit Legendre polynomials, the classical closed forms up to degree 5.
LEGENDRE_CLOSED = [
    lambda x: np.ones_like(x),
    lambda x: x,
    lambda x: (3 * x**2 - 1) / 2,
    lambda x: (5 * x**3 - 3 * x) / 2,
    lambda x: (35 * x**4 - 30 * x**2 + 3) / 8,
    lambda x: (63 * x**5 - 70 * x**3 + 15 * x) / 8,
]


class TestBasisConstruction:
    def test_from_dimension(self):
        assert GegenbauerBasis.from_dimension(1).lam == 0.0
        assert GegenbauerBasis.from_dimension(2).lam == 0.5
        assert GegenbauerBasis.from_dimension(4).lam == 1.5

    def test_from_index(self):
        assert GegenbauerBasis.from_index(1.0).dimension == 3

    def test_rejects_bad_dimension(self):
        with pytest.raises(DomainError):
            GegenbauerBasis.from_dimension(0)

    def test_rejects_non_half_integer_lam(self):
        with pytest.raises(DomainError):
            GegenbauerBasis.from_index(0.7)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_lam(self, lam):
        with pytest.raises(DomainError):
            GegenbauerBasis.from_index(lam)

    def test_rejects_mismatched_pair(self):
        with pytest.raises(DomainError):
            GegenbauerBasis(lam=1.0, dimension=2)


class TestEvaluation:
    @pytest.mark.parametrize("n", range(6))
    def test_legendre_closed_forms(self, n):
        x = np.linspace(-1.0, 1.0, 201)
        assert_allclose(eval_normalized(LEGENDRE, n, x), LEGENDRE_CLOSED[n](x), atol=1e-13)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 20])
    def test_chebyshev_closed_form(self, n):
        theta = np.linspace(0.0, np.pi, 101)
        assert_allclose(
            eval_normalized(CHEBYSHEV, n, np.cos(theta)), np.cos(n * theta), atol=1e-12
        )

    @pytest.mark.parametrize("lam", [1.0])
    @pytest.mark.parametrize("n", [1, 2, 5, 11])
    def test_lambda_one_is_normalized_chebyshev_u(self, lam, n):
        # C_n^1(cos t) = sin((n+1)t)/sin(t); normalized by C_n^1(1) = n+1.
        basis = GegenbauerBasis.from_index(lam)
        theta = np.linspace(0.05, np.pi - 0.05, 97)
        expected = np.sin((n + 1) * theta) / ((n + 1) * np.sin(theta))
        assert_allclose(eval_normalized(basis, n, np.cos(theta)), expected, atol=1e-12)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 1.5, 3.0])
    def test_value_one_at_right_endpoint_exactly(self, lam):
        basis = GegenbauerBasis.from_index(lam)
        values = eval_sequence(basis, 60, np.array(1.0))
        assert np.all(values == 1.0)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.5, 2.5])
    def test_parity(self, lam):
        basis = GegenbauerBasis.from_index(lam)
        x = np.linspace(0.0, 1.0, 50)
        table_pos = eval_sequence(basis, 15, x)
        table_neg = eval_sequence(basis, 15, -x)
        signs = (-1.0) ** np.arange(16)
        assert_allclose(table_neg, signs[:, None] * table_pos, atol=1e-14)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.5])
    def test_bounded_by_one(self, lam):
        basis = GegenbauerBasis.from_index(lam)
        x = np.linspace(-1.0, 1.0, 401)
        assert np.max(np.abs(eval_sequence(basis, 40, x))) <= 1.0 + 1e-12

    def test_scalar_in_float_out(self):
        value = eval_normalized(LEGENDRE, 1, 0.3)
        assert isinstance(value, float)
        assert value == 0.3

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            eval_normalized(LEGENDRE, 2, 1.5)

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            eval_normalized(LEGENDRE, 2, float("nan"))

    def test_rejects_negative_degree(self):
        with pytest.raises(DomainError):
            eval_normalized(LEGENDRE, -1, 0.0)

    def test_rejects_huge_degree(self):
        with pytest.raises(DomainError):
            eval_normalized(LEGENDRE, 10_001, 0.0)


class TestNorms:
    @pytest.mark.parametrize("n", range(12))
    def test_legendre_norm_closed_form(self, n):
        assert_allclose(norm_squared(LEGENDRE, n), 2.0 / (2 * n + 1), rtol=1e-12)

    @pytest.mark.parametrize("n", range(12))
    def test_lambda_one_norm_closed_form(self, n):
        basis = GegenbauerBasis.from_index(1.0)
        assert_allclose(norm_squared(basis, n), math.pi / (2 * (n + 1) ** 2), rtol=1e-12)

    def test_chebyshev_norms(self):
        assert_allclose(norm_squared(CHEBYSHEV, 0), math.pi, rtol=1e-14)
        for n in range(1, 8):
            assert_allclose(norm_squared(CHEBYSHEV, n), math.pi / 2, rtol=1e-14)


def _even_moment(lam, j):
    # m_{2j} = Gamma(j+1/2) Gamma(lam+1/2) / Gamma(j+lam+1) for weight (1-x^2)^{lam-1/2}.
    return math.exp(gammaln(j + 0.5) + gammaln(lam + 0.5) - gammaln(j + lam + 1.0))


class TestQuadrature:
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 1.5, 2.5])
    def test_moments_exact(self, lam):
        rule = quadrature(lam, 12)
        # Exact for polynomial degree <= 2*12 - 1 = 23.
        for j in range(12):
            assert_allclose(
                rule.integrate(rule.nodes ** (2 * j)), _even_moment(lam, j), rtol=1e-12, atol=1e-15
            )
        for k in range(1, 12):
            assert abs(rule.integrate(rule.nodes ** (2 * k - 1))) < 1e-14

    def test_chebyshev_closed_form_nodes(self):
        rule = quadrature(0.0, 8)
        expected = np.cos((2 * np.arange(8, 0, -1) - 1) * np.pi / 16)
        assert_allclose(rule.nodes, expected, atol=1e-15)
        assert_allclose(rule.weights, np.full(8, np.pi / 8), rtol=1e-15)

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.5])
    def test_orthogonality_via_quadrature(self, lam):
        basis = GegenbauerBasis.from_index(lam)
        rule = quadrature(lam, 41)
        table = eval_sequence(basis, 40, rule.nodes)
        gram = table @ (rule.weights[:, None] * table.T)
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) < 1e-12
        for n in range(41):
            assert_allclose(gram[n, n], norm_squared(basis, n), rtol=1e-11)

    def test_nodes_sorted_symmetric_weights_positive(self):
        rule = quadrature(1.5, 33)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert_allclose(rule.nodes, -rule.nodes[::-1], atol=1e-15)
        assert_allclose(rule.weights, rule.weights[::-1], rtol=1e-13)

    def test_large_order_converges(self):
        rule = quadrature(0.5, 512)
        assert rule.order == 512
        assert_allclose(rule.integrate(np.ones(512)), 2.0, rtol=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.5])
    def test_order_1024_moments(self, lam):
        rule = quadrature(lam, 1024)
        assert np.all(np.diff(rule.nodes) > 0) and np.max(np.abs(rule.nodes)) < 1
        for j in (0, 1, 5, 20):
            assert_allclose(rule.integrate(rule.nodes ** (2 * j)), _even_moment(lam, j), rtol=1e-12)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 2.0, 4.5])
    @pytest.mark.parametrize("order", [1, 2, 3, 16, 257, 1024])
    def test_weights_match_table_formula(self, lam, order):
        # Reference: Christoffel numbers from the whole degree x node table,
        # symmetrized as the rule is.
        rule = quadrature(lam, order)
        basis = GegenbauerBasis.from_index(lam)
        inv_norms = np.array([1.0 / norm_squared(basis, n) for n in range(order)])
        reference = 1.0 / (inv_norms @ eval_sequence(basis, order - 1, rule.nodes) ** 2)
        assert_allclose(rule.weights, 0.5 * (reference + reference[::-1]), rtol=1e-14, atol=0)

    def test_weight_memory_is_linear_in_order(self):
        # An order x order recurrence table and its square would take 137 MiB here.
        build = quadrature.__wrapped__
        build(0.5, 4)  # loads scipy.special outside the measurement
        tracemalloc.start()
        try:
            rule = build(0.5, 3000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert_allclose(rule.integrate(rule.nodes**2), 2.0 / 3.0, rtol=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            quadrature(-0.5, 8)
        with pytest.raises(DomainError):
            quadrature(0.5, 0)

    def test_order_cap(self):
        # λ = 0 is the closed-form Chebyshev rule, so these orders are cheap
        # even without the cap; a large order at λ > 0 would run for hours.
        assert quadrature(0.0, 20002).order == 20002
        with pytest.raises(DomainError, match=r"^order 20003 exceeds the supported cap 20002$"):
            quadrature(0.0, 20003)

    def test_integrate_checks_shape(self):
        rule = quadrature(0.5, 8)
        with pytest.raises(DomainError):
            rule.integrate(np.ones(7))


class TestQuadratureCache:
    def test_repeated_call_returns_same_rule(self):
        assert quadrature(1.5, 33) is quadrature(1.5, 33)
        assert quadrature(1.5, 34) is not quadrature(1.5, 33)

    def test_rule_arrays_are_read_only(self):
        rule = quadrature(1.5, 33)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0

    def test_in_place_callback_leaves_later_rules_unchanged(self):
        before = quadrature(0.5, 24).nodes.copy()

        def doubling(x):
            x *= 2
            return x

        coeffs = recover_coefficients(doubling, LEGENDRE, 3, 24)
        assert_allclose(coeffs, [0.0, 2.0, 0.0, 0.0], rtol=0, atol=1e-14)
        rule = quadrature(0.5, 24)
        assert_allclose(rule.nodes, before, rtol=0, atol=0)
        assert_allclose(rule.integrate(rule.nodes**2), 2.0 / 3.0, rtol=1e-14)


class TestRegressionValues:
    """Frozen spot values computed from the explicit closed forms."""

    def test_legendre_spot_values(self):
        assert_allclose(eval_normalized(LEGENDRE, 2, 0.0), -0.5, rtol=1e-15)
        assert_allclose(eval_normalized(LEGENDRE, 3, 0.5), -0.4375, rtol=1e-13)
        assert_allclose(eval_normalized(LEGENDRE, 4, -0.2), 0.232, rtol=1e-12)

    def test_gegenbauer_lambda_three_recurrence_spot(self):
        # First two normalized polynomials are 1 and x for every lambda.
        basis = GegenbauerBasis.from_index(3.0)
        assert_allclose(eval_normalized(basis, 1, -0.25), -0.25, rtol=1e-15)
        # Degree 2: (2(lam+1)x^2 - 1)/(2 lam + 1) at lam=3.
        x = 0.6
        assert_allclose(eval_normalized(basis, 2, x), (8 * x * x - 1) / 7, rtol=1e-13)
