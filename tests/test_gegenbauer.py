"""Gegenbauer evaluation and quadrature against closed-form oracles."""

import hashlib
import math
import sys
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.special import gammaln, roots_gegenbauer

from spherecov import (
    DomainError,
    GegenbauerBasis,
    certify,
    eval_normalized,
    eval_sequence,
    gaussian,
    kernel_eval,
    make_ps_kernel,
    make_sequence,
    multiquadric_sequence,
    norm_squared,
    quadrature,
    recover_coefficients,
    separability_test,
)
from spherecov import gegenbauer
from spherecov.errors import ConvergenceError, GeometryError
from spherecov.gegenbauer import QuadratureRule, _check_count, _frozen_floats, _shown

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

    @pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf, 2.5])
    def test_rejects_non_finite_dimension(self, d):
        with pytest.raises(DomainError):
            GegenbauerBasis.from_dimension(d)

    def test_rejects_mismatched_pair(self):
        with pytest.raises(DomainError):
            GegenbauerBasis(lam=1.0, dimension=2)

    @pytest.mark.parametrize("d", [2.0, True, "2", None], ids=["float", "bool", "str", "none"])
    def test_dimension_must_be_an_integer(self, d):
        with pytest.raises(DomainError, match=r"^sphere dimension must be an integer, got "):
            GegenbauerBasis.from_dimension(d)
        with pytest.raises(DomainError, match=r"^sphere dimension must be an integer, got "):
            GegenbauerBasis(lam=0.5, dimension=d)

    @pytest.mark.parametrize("d", [10**400, 2**1100], ids=["1e400", "2^1100"])
    def test_dimension_whose_index_overflows(self, d):
        with pytest.raises(DomainError, match=r"^sphere dimension is too large: \(d-1\)/2 must be a finite float$"):
            GegenbauerBasis.from_dimension(d)

    def test_numpy_integer_dimension_is_stored_as_int(self):
        basis = GegenbauerBasis.from_dimension(np.int64(3))
        assert type(basis.dimension) is int and basis.dimension == 3 and basis.lam == 1.0
        assert make_sequence([1.0], basis).label == "sphere(d=3, n_max=0)"


@pytest.mark.parametrize("value", [True, False, 2.0, "3", None])
def test_check_count_rejects_non_integers(value):
    """`_check_count`, the one typed check of counts, seeds and dimensions,
    takes no bool, although `operator.index` would."""
    with pytest.raises(DomainError, match=r"^n must be an integer, got "):
        _check_count(value, "n")


class TestFrozenFloats:
    """`_frozen_floats` is the one intake of every array a result stores."""

    def test_keeps_a_read_only_owned_float_array(self):
        arr = np.ones((2, 3))
        arr.setflags(write=False)
        assert _frozen_floats(arr, 2, "values") is arr

    @staticmethod
    def _read_only(arr):
        arr.setflags(write=False)
        return arr

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.ones((2, 3)),
            lambda: TestFrozenFloats._read_only(np.ones((4, 3)))[::2],
            lambda: TestFrozenFloats._read_only(np.ones((2, 3), dtype=np.float32)),
            lambda: np.ones((2, 3), dtype=int),
        ],
        ids=["writeable", "read-only-view", "read-only-float32", "int"],
    )
    def test_copies_anything_else(self, make):
        arr = make()
        writeable = arr.flags.writeable
        out = _frozen_floats(arr, 2, "values")
        assert not np.shares_memory(out, arr)
        assert out.dtype == np.float64 and not out.flags.writeable
        with pytest.raises(ValueError):
            out.setflags(write=True)
        assert arr.flags.writeable == writeable
        assert_array_equal(out, arr)

    def test_keeps_an_immutable_array(self):
        arr = gegenbauer._immutable(np.arange(6.0).reshape(2, 3))
        assert isinstance(arr.base, bytes) and not arr.flags.writeable
        assert _frozen_floats(arr, 2, "values") is arr

    def test_copies_a_read_only_view_of_a_mutable_buffer(self):
        buffer = bytearray(np.arange(6.0).tobytes())
        arr = np.frombuffer(buffer).reshape(2, 3)
        arr.setflags(write=False)
        out = _frozen_floats(arr, 2, "values")
        assert not np.shares_memory(out, arr)
        buffer[:8] = np.float64(5.0).tobytes()
        assert out[0, 0] == 0.0

    def test_a_later_write_to_the_input_does_not_reach_the_copy(self):
        arr = np.ones((2, 2))
        out = _frozen_floats(arr, 2, "values")
        arr[0, 0] = 5.0
        assert out[0, 0] == 1.0

    @pytest.mark.parametrize(
        "values, message",
        [
            ("abc", "must be an array of numbers"),
            ([[1.0], [1.0, 2.0]], "must be an array of numbers"),
            ([{"a": 1}], "must be an array of numbers"),
            ([1.0, 2.0], "must be a nonempty 2-D array, got shape \\(2,\\)"),
            (np.empty((0, 3)), "must be a nonempty 2-D array, got shape \\(0, 3\\)"),
            ([[1.0, math.nan]], "must be finite"),
            ([[None]], "must be finite"),
            ([[-math.inf]], "must be finite"),
            ([[10**400]], "must be an array of numbers"),
        ],
        ids=["string", "ragged", "dict", "1-D", "empty", "nan", "none", "inf", "huge-int"],
    )
    @pytest.mark.parametrize("error", [DomainError, GeometryError])
    def test_bad_input_raises_the_given_error(self, values, message, error):
        with pytest.raises(error, match=f"^values {message}"):
            _frozen_floats(values, 2, "values", error)


ARGUMENT_MESSAGE = r"^argument must lie in \[-1, 1\]$"


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-1.0, 1.0), max_size=8),
    st.sampled_from([math.nan, -math.nan, math.inf, -math.inf, 1.0000000000000002, -1.5, 1e300]),
    st.integers(0, 8),
)
def test_check_argument_rejects_nan_inf_and_beyond_one(inside, bad, where):
    # One pass of |x| <= 1 must reject what the NaN check and the |x| > 1
    # check rejected together, with the same message, wherever the value is.
    assert_array_equal(gegenbauer._check_argument(inside), np.array(inside, dtype=float))
    values = inside[:where] + [bad] + inside[where:]
    for x in (bad, values, np.array(values), np.array(values)[None, :]):
        with pytest.raises(DomainError, match=ARGUMENT_MESSAGE):
            gegenbauer._check_argument(x)
    with pytest.raises(DomainError, match=ARGUMENT_MESSAGE):
        eval_sequence(LEGENDRE, 2, values)


class TestQuadratureRuleChecks:
    @pytest.mark.parametrize(
        "nodes, weights",
        [
            ([0.0, 0.0], [1.0, 1.0]),
            ([-0.5, math.nan], [1.0, 1.0]),
            ([-1.0, 0.5], [1.0, 1.0]),
            ([-0.5, 0.5], [1.0, 0.0]),
            ([-0.5, 0.5], [1.0, None]),
            ([-0.5, 0.5, 0.7], [1.0, 1.0, 1.0]),
            ("ab", [1.0, 1.0]),
        ],
        ids=["repeated", "nan-node", "endpoint", "zero-weight", "none-weight", "length", "string"],
    )
    def test_bad_rule_is_a_domain_error(self, nodes, weights):
        with pytest.raises(DomainError):
            QuadratureRule(nodes=nodes, weights=weights, lam=0.5, order=2)


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


DEGREE_ENTRY_POINTS = {
    "eval_sequence": lambda n: eval_sequence(LEGENDRE, n, 0.5),
    "eval_normalized": lambda n: eval_normalized(LEGENDRE, n, 0.5),
    "multiquadric_sequence": lambda n: multiquadric_sequence(0.5, LEGENDRE, n),
    "norm_squared": lambda n: norm_squared(LEGENDRE, n),
}


@pytest.mark.parametrize("call", DEGREE_ENTRY_POINTS.values(), ids=DEGREE_ENTRY_POINTS.keys())
@pytest.mark.parametrize(
    "n, message",
    [
        (math.inf, "degree must be an integer, got inf"),
        (-math.inf, "degree must be an integer, got -inf"),
        (math.nan, "degree must be an integer, got nan"),
        (10**400, "degree 100000000000... (401 digits) exceeds the supported cap 10000"),
    ],
    ids=["inf", "-inf", "nan", "int-beyond-float"],
)
def test_degree_beyond_the_integers_is_a_domain_error(call, n, message):
    with pytest.raises(DomainError) as info:
        call(n)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "value, shown",
    [
        (10**39, str(10**39)),
        (-(10**39), str(-(10**39))),
        (10**40, "100000000000... (41 digits)"),
        (-(10**400) - 7, "-100000000000... (401 digits)"),
        (10**5000, "<int too long to print>"),
        (np.uint64(2**64 - 1), repr(np.uint64(2**64 - 1))),
        (True, "True"),
        (1e300, "1e+300"),
    ],
    ids=["40 digits", "-40 digits", "41 digits", "-401 digits", "beyond str", "uint64", "bool", "float"],
)
def test_shown_abbreviates_long_ints(value, shown):
    assert _shown(value) == shown


def test_messages_of_huge_ints_stay_short():
    kernel = make_ps_kernel([[0.5, 0.5]], LEGENDRE, CHEBYSHEV)
    for call in (lambda: gaussian(10**400), lambda: separability_test(kernel, 10**400)):
        with pytest.raises(DomainError, match=r"got 100000000000\.\.\. \(401 digits\)$") as info:
            call()
        assert len(str(info.value)) < 120


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
        # symmetrized as the rule is. The λ = 1 rule and the λ = 1/2 rule from
        # `_LEGENDRE_MIN_ORDER` on take their weights from formulas, so there
        # the Christoffel sums are checked at their nodes directly.
        rule = quadrature(lam, order)
        weights = _christoffel_rule_weights(lam, rule.nodes) if _formula_weights(lam, order) else rule.weights
        basis = GegenbauerBasis.from_index(lam)
        inv_norms = np.array([1.0 / norm_squared(basis, n) for n in range(order)])
        reference = 1.0 / (inv_norms @ eval_sequence(basis, order - 1, rule.nodes) ** 2)
        assert_allclose(weights, 0.5 * (reference + reference[::-1]), rtol=1e-14, atol=0)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 3.5, 20.0])
    def test_half_node_weights_equal_the_full_node_sum(self, lam):
        # Reference: the Christoffel sum over every node, in the order the
        # rule adds its terms, then symmetrized. Summing over the nonnegative
        # half and mirroring must give the same bytes. Where a formula gives
        # the weights (`_formula_weights`), the Christoffel sums at the rule's
        # nodes are checked directly.
        for order in (1, 2, 3, 4, 5, 64, 65, 255, 512, 1023, 1024):
            rule = quadrature(lam, order)
            weights = _christoffel_rule_weights(lam, rule.nodes) if _formula_weights(lam, order) else rule.weights
            total = np.zeros(order)
            values = eval_sequence(GegenbauerBasis.from_index(lam), order - 1, rule.nodes)
            for n in range(order):
                total += np.square(values[n]) / gegenbauer._norm_squared(lam, n)
            reference = 1.0 / total
            reference = 0.5 * (reference + reference[::-1])
            assert weights.tobytes() == reference.tobytes(), order

    def test_weight_memory_is_linear_in_order(self):
        # An order x order recurrence table and its square would take 137 MiB here.
        # The rounds of Newton and Sturm passes hold a few vectors of length
        # order; a dense order x order Jacobi matrix would take 69 MiB here.
        # λ = 1.5: the λ = 1/2 rule of this order runs no recurrence.
        build = gegenbauer._gauss_rule.__wrapped__
        build(1.5, 4)  # one-time first-call costs stay outside the measurement
        tracemalloc.start()
        try:
            rule = build(1.5, 3000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert_allclose(rule.integrate(rule.nodes**2), _even_moment(1.5, 1), rtol=1e-12)

    def test_cold_rule_memory_is_one_ring_plus_linear_in_order(self):
        """A cold Newton-route rule holds `_fill`'s ring of three rows of the
        nonnegative nodes and a few dozen floats per node (Newton and Sturm
        vectors, the norms and the list of 0-d βs, each about a dozen floats'
        worth): about 0.33 MB at order 2048, where one degree × node table of
        the nonnegative half would take 16 MiB. The build takes about 0.1 s."""
        build, order = gegenbauer._gauss_rule.__wrapped__, 2048
        build(1.5, 4)  # one-time first-call costs stay outside the measurement
        tracemalloc.start()
        try:
            build(1.5, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 8 * (order - order // 2) + 32 * 8 * order

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            quadrature(-0.5, 8)
        with pytest.raises(DomainError):
            quadrature(0.5, 0)

    @pytest.mark.parametrize("order", [math.inf, math.nan, 2.5], ids=str)
    def test_rejects_non_integer_orders(self, order):
        with pytest.raises(DomainError, match=r"^order must be an integer, got "):
            quadrature(0.5, order)

    @pytest.mark.parametrize("lam", [math.nan, math.inf, -0.5, 10**5000, "0.5", None, [0.5]], ids=_shown)
    def test_rejects_bad_lam_before_scipy(self, lam):
        # The name is kept from when scipy built the nodes; the node finder is
        # now `_positive_roots`, and a bad λ must not reach it.
        with mock.patch(
            "spherecov.gegenbauer._positive_roots", side_effect=AssertionError("the node finder was called")
        ):
            with pytest.raises(DomainError, match=r"^lam must be a finite nonnegative number, got "):
                quadrature(lam, 8)
            with pytest.raises(DomainError, match=r"^lam must be a finite nonnegative number, got "):
                GegenbauerBasis.from_index(lam)

    @pytest.mark.parametrize("valid, invalid", [(8, 8.0), (1, True), (2, np.float64(2.0))], ids=str)
    def test_cache_never_answers_an_unchecked_order(self, valid, invalid):
        quadrature(0.5, valid)
        with pytest.raises(DomainError, match=r"^order must be an integer, got "):
            quadrature(0.5, invalid)

    def test_order_beyond_float_range_hits_the_cap(self):
        with pytest.raises(DomainError, match=r"^order 100000000000\.\.\. \(401 digits\) exceeds the supported cap 20002$"):
            quadrature(0.5, 10**400)

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

    def test_a_sum_that_overflows_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"^the weighted sum of the values overflows$"):
            quadrature(0.5, 8).integrate(np.full(8, 1e308))


def _christoffel_rule_weights(lam, nodes):
    """Christoffel weights at every node of a rule: `_christoffel_weights` over
    the nonnegative half of `nodes`, mirrored as `_gauss_rule` mirrors a half."""
    order = nodes.size
    half = gegenbauer._christoffel_weights(lam, order, nodes[order // 2 :])
    return np.concatenate((half[order % 2 :][::-1], half))


def _formula_weights(lam, order):
    """Whether the (lam, order) rule takes its weights from a formula, not
    from Christoffel sums: λ = 0 and 1, and λ = 1/2 from `_LEGENDRE_MIN_ORDER` on."""
    return lam in (0.0, 1.0) or (lam == 0.5 and order >= gegenbauer._LEGENDRE_MIN_ORDER)


def _mp_node_and_weight(lam, order, x0):
    """40-digit Gauss node next to `x0` and its weight: two Newton steps on the
    monic recurrence p_n = x·p_{n−1} − β_{n−1}·p_{n−2} in mpmath, and
    w = ‖p_{N−1}‖² / (p_N′(x)·p_{N−1}(x)) from a third pass at the final
    iterate. At high order p_{N−1} has a root close to the largest node (within
    about 1e-12 at order 20002), so a weight taken at an earlier iterate would
    be off there by 1e-14. p_N′ comes from the monic form of DLMF 18.9.20,
    (1−x²)·p_N′ = (N+2λ−1)·N/(2(N+λ−1))·p_{N−1} − N·x·p_N."""
    lam = mpmath.mpf(lam)
    betas = [n * (n + 2 * lam - 1) / (4 * (n + lam) * (n + lam - 1)) for n in range(1, order)]
    slope = (order + 2 * lam - 1) * order / (2 * (order + lam - 1))
    x = mpmath.mpf(float(x0))
    for newton in (True, True, False):
        before, last = mpmath.mpf(1), x
        for beta in betas:
            before, last = last, x * last - beta * before
        derivative = (slope * before - order * x * last) / (1 - x * x)
        if newton:
            x -= last / derivative
    norm = mpmath.sqrt(mpmath.pi) * mpmath.gamma(lam + 0.5) / mpmath.gamma(lam + 1)
    for beta in betas:
        norm *= beta
    assert abs(last / derivative) < mpmath.mpf(10) ** -25
    return x, norm / (derivative * before)


def _mp_norm_squared(lam, n):
    """h_n = π·2^{1−2λ}·Γ(2λ)²·n!/((n+λ)·Γ(λ)²·Γ(n+2λ)) in mpmath, at the
    caller's precision; at λ = 0 its limit, π for n = 0 and π/2 after."""
    if lam == 0.0:
        return mpmath.pi if n == 0 else mpmath.pi / 2
    lam, gamma = mpmath.mpf(lam), mpmath.gamma
    top = mpmath.pi * 2 ** (1 - 2 * lam) * gamma(2 * lam) ** 2 * mpmath.factorial(n)
    return top / ((n + lam) * gamma(lam) ** 2 * gamma(n + 2 * lam))


def _reference_bisection(betas, above):
    """For each entry of `above`, the root of P̃_N in (0, 1) with exactly that
    many roots at or above it: bisection from (0, 1) on the Sturm counts of
    `gegenbauer._ratio`, vectorized over the roots, until each bracket is two
    adjacent floats. Run it under `np.errstate(all="ignore")`."""
    lo, hi = np.zeros(above.size), np.ones(above.size)
    active = np.arange(above.size)
    while True:
        mid = 0.5 * (lo[active] + hi[active])
        split = (lo[active] < mid) & (mid < hi[active])
        active, mid = active[split], mid[split]
        if not active.size:
            return 0.5 * (lo + hi)
        counts = np.zeros(active.size, dtype=np.int64)
        gegenbauer._ratio(betas, mid, counts)
        under = counts >= above[active]  # the root lies above mid
        lo[active[under]] = mid[under]
        hi[active[~under]] = mid[~under]


def _counted(build, lam, order):
    """`build(lam, order)` and its (Newton, Sturm) pass counts: the `_ratio`
    calls without and with Sturm counts."""
    passes = [0, 0]
    ratio = gegenbauer._ratio

    def spy(betas, x, counts=None):
        passes[counts is not None] += 1
        return ratio(betas, x, counts)

    with mock.patch.object(gegenbauer, "_ratio", spy):
        return build(lam, order), tuple(passes)


def _counted_build(lam, order):
    """`gegenbauer._gauss_rule.__wrapped__(lam, order)` and its (Newton, Sturm) pass counts."""
    return _counted(gegenbauer._gauss_rule.__wrapped__, lam, order)


class TestGaussNodes:
    """The numpy node finder: rounds of Newton passes from asymptotic guesses,
    each ending in a Sturm pass that proves each root alone and brackets the
    rest, checked against plain bisection on Sturm counts."""

    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 2.5, 5.0, 20.0])
    def test_no_further_from_mpmath_than_scipy(self, lam):
        # Sampled nodes (the two largest, where the nodes crowd, and two inner
        # ones) against a 40-digit reference. An error at the rounding floor
        # (2^-53 for a node in [-1, 1], 1e-14 relative for a weight) ties.
        with mpmath.workdps(40):
            for order in (8, 41, 1024):
                rule = quadrature(lam, order)
                nodes, weights = roots_gegenbauer(order, lam)
                ours, theirs = np.zeros(2), np.zeros(2)  # (node error, relative weight error)
                for i in sorted({order - 1, order - 2, (3 * order) // 4, order // 2 + 1}):
                    x, w = _mp_node_and_weight(lam, order, rule.nodes[i])
                    ours = np.maximum(ours, [abs(float(rule.nodes[i] - x)), abs(float(rule.weights[i] / w - 1))])
                    theirs = np.maximum(theirs, [abs(float(nodes[i] - x)), abs(float(weights[i] / w - 1))])
                assert np.all(ours <= np.maximum(theirs, [2.0**-53, 1e-14])), (order, ours, theirs)

    @settings(max_examples=25, deadline=None)
    @given(
        lam=st.sampled_from([0.25, 0.5, 1.0, 1.5, 3.0, 5.0, 7.5, 12.0, 20.0, 40.0, 200.0, 1e3, 1e4]),
        order=st.integers(2, 120),
    )
    @example(lam=20.0, order=41)
    @example(lam=40.0, order=120)
    @example(lam=1e4, order=2)
    @example(lam=1e4, order=120)
    def test_fast_path_agrees_with_bisection(self, lam, order):
        betas = gegenbauer._monic_betas(lam, order)
        with np.errstate(all="ignore"):
            fast, proven = gegenbauer._newton_roots(lam, order, betas)
            full = _reference_bisection(betas, np.arange(order // 2, 0, -1))
        roots, bisected = gegenbauer._positive_roots(lam, order)
        # Every root the first round proved is the one bisection finds; every
        # other root, and only those, is counted as bisected, and the later
        # rounds find it too.
        assert_allclose(fast[proven], full[proven], rtol=0, atol=2.0**-51)
        assert bisected == np.count_nonzero(~proven)
        assert_allclose(roots, full, rtol=0, atol=2.0**-51)
        assert np.all(np.diff(roots) > 0) and 0 < roots[0] and roots[-1] < 1

    @pytest.mark.parametrize("lam, order", [(0.5, 1024), (2.5, 1024), (5.0, 41), (10.0, 200)])
    def test_fast_path_proves_every_root_up_to_lambda_ten(self, lam, order):
        assert gegenbauer._positive_roots(lam, order)[1] == 0

    @pytest.mark.parametrize("lam, order", [(20.0, 41), (40.0, 64), (200.0, 64)])
    def test_fallback_runs_where_the_check_fails(self, lam, order):
        betas = gegenbauer._monic_betas(lam, order)
        with np.errstate(all="ignore"):
            proven = gegenbauer._newton_roots(lam, order, betas)[1]
            full = _reference_bisection(betas, np.arange(order // 2, 0, -1))
        assert not proven.all()
        roots, bisected = gegenbauer._positive_roots(lam, order)
        assert bisected == np.count_nonzero(~proven)
        assert_allclose(roots, full, rtol=0, atol=2.0**-51)
        sx = roots_gegenbauer(order, lam)[0]
        assert_allclose(quadrature(lam, order).nodes, sx, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("order", [8, 9])
    def test_exact_zero_ratios_keep_the_count(self, order):
        # At x = 0 every odd-degree ratio is exactly 0 and the next one infinite;
        # each such pair is still one sign change, so the count is the 4 roots
        # above 0 (at order 9, 0 itself is a root and its ratio is +0).
        counts = np.zeros(1, dtype=np.int64)
        with np.errstate(all="ignore"):
            gegenbauer._ratio(gegenbauer._monic_betas(0.5, order), np.zeros(1), counts)
        assert counts[0] == 4

    @pytest.mark.parametrize("lam", [20.0, 200.0, 1e10, 1e300], ids=str)
    def test_large_lambda_gets_a_rule_or_a_domain_error(self, lam):
        # One rule: a rule is built while λ <= 1e4 and every norm h_n, n < order,
        # keeps the Christoffel sums finite; otherwise DomainError says which.
        # pytest turns any RuntimeWarning into an error.
        basis = GegenbauerBasis.from_index(lam)
        for order in (8, 64, 1024):
            if lam > 1e4:
                with pytest.raises(DomainError, match=r"^Gauss rules need lam <= 10000, got lam="):
                    quadrature(basis.lam, order)
            elif lam == 200.0 and order == 1024:
                with pytest.raises(DomainError, match=r"^the order-1024 Gauss rule at lam=200.0 is beyond double"):
                    quadrature(basis.lam, order)
            else:
                rule = quadrature(basis.lam, order)
                assert np.all(np.diff(rule.nodes) > 0) and np.all(rule.weights > 0)
                assert_allclose(rule.integrate(np.ones(order)), math.exp(gegenbauer._log_norm_squared(lam, 0)), rtol=1e-12)
                for j in (1, 2):
                    assert_allclose(rule.integrate(rule.nodes ** (2 * j)), _even_moment(lam, j), rtol=1e-10)

    @pytest.mark.parametrize("lam", [5e-324, 1e-300, 1e-20], ids=str)
    def test_tiny_lambda_gets_the_chebyshev_limit(self, lam):
        # β_1 = 2λ/(4λ(1+λ)) must not cancel to 0/0; as λ → 0 the rule tends to
        # the Chebyshev rule (weights π/N at the roots of T_N).
        for order in (1, 2, 8, 64):
            rule = quadrature(lam, order)
            chebyshev = quadrature(0.0, order)
            assert_allclose(rule.nodes, chebyshev.nodes, rtol=0, atol=1e-14)
            assert_allclose(rule.weights, chebyshev.weights, rtol=1e-12)

    def test_largest_orders_at_the_cap_build(self):
        # Just inside the range rule: the smallest norm is near the double floor.
        for lam, order in ((200.0, 664), (1e4, 115)):
            rule = quadrature(lam, order)
            assert rule.order == order and np.all(rule.weights > 0)
            with pytest.raises(DomainError, match="beyond double range"):
                quadrature(lam, order + 1)


class TestRootRounds:
    """One loop finds every Gauss root that is not in closed form. Its first
    round is the Newton-and-proof path every rule up to λ = 10.5 takes, with
    the same bytes and passes; later rounds restart the roots it leaves
    unproven inside their Sturm brackets."""

    # Every route of `_gauss_rule` (closed form at λ = 0 and 1, the series at
    # λ = 1/2 from order 69, Newton–Sturm with Christoffel weights elsewhere),
    # at small, odd and even orders, both sides of `_LEGENDRE_MIN_ORDER` and
    # the largest orders the tests build.
    EVERY_ROUTE = [
        (lam, order)
        for lam in (0.0, 0.25, 0.5, 1.0, 1.5, 3.7, 20.0)
        for order in (1, 2, 3, 4, 5, 8, 9, 63, 64, 65, 68, 69, 70, 101, 257, 1024)
    ] + [(0.5, 2049), (1.0, 20002), (0.0, 20001)]

    @pytest.mark.parametrize(
        "lam, digest",
        [
            (2.5, "01e0c2647b93bb93fdf6897f0a2b3824c506fed31e030fc1fc27e6da3a5e7833"),
            (10.5, "2bdf14f18f62bc5712c546953acd13a2f25e1da6b3b51b79e56989609103d0fa"),
            pytest.param(None, "d7b78b01caae9d50f7b7ffdae988bd29b975c4f0c7fa023518b1016fe66121cc", id="every-route"),
        ],
    )
    def test_first_round_rule_bytes(self, lam, digest):
        # The order-1024 rule's nodes and weights at λ = 2.5 and 10.5; with no
        # λ, every rule of EVERY_ROUTE in turn, its nodes, weights and `bisected`.
        build = gegenbauer._gauss_rule.__wrapped__
        if lam is not None:
            rule = build(lam, 1024)
            assert hashlib.sha256(rule.nodes.tobytes() + rule.weights.tobytes()).hexdigest() == digest
            return
        sha = hashlib.sha256()
        for rule in (build(*key) for key in self.EVERY_ROUTE):
            sha.update(rule.nodes.tobytes() + rule.weights.tobytes() + rule.bisected.to_bytes(8, "little"))
        assert len(self.EVERY_ROUTE) == 115 and sha.hexdigest() == digest

    @pytest.mark.parametrize("lam, passes", [(0.5, (3, 1)), (10.5, (8, 1))])
    def test_first_round_passes(self, lam, passes):
        # (Newton passes, Sturm passes) of the order-1024 roots; a (0.5, 1024)
        # rule itself takes `_legendre_rule` and runs none.
        assert _counted(gegenbauer._positive_roots, lam, 1024)[1] == passes

    @pytest.mark.parametrize("lam, order, most", [(20.0, 41, 62), (200.0, 64, 67), (1e4, 40, 71)])
    def test_no_more_passes_than_bisection(self, lam, order, most):
        # `most` is what a first round plus bisection from (0, 1), about 60
        # Sturm passes, of every root it left unproven took.
        rule, passes = _counted_build(lam, order)
        assert rule.bisected > 0 and sum(passes) <= most

    @pytest.mark.parametrize(
        "lam, order, bisected",
        [
            (11.0, 1024, 1),
            (12.0, 100, 1),
            (20.0, 41, 3),
            (20.0, 120, 3),
            (40.0, 64, 11),
            (40.0, 120, 13),
            (200.0, 64, 31),
            (200.0, 600, 155),
            (1e3, 100, 49),
            (1e4, 8, 4),
            (1e4, 40, 20),
        ],
    )
    def test_later_rounds_find_the_bisection_roots(self, lam, order, bisected):
        # `bisected` is the count the first round leaves, as recorded when the
        # unproven roots went to plain bisection instead.
        rule = gegenbauer._gauss_rule.__wrapped__(lam, order)
        assert rule.bisected == bisected
        betas = gegenbauer._monic_betas(lam, order)
        with np.errstate(all="ignore"):
            full = _reference_bisection(betas, np.arange(order // 2, 0, -1))
        assert_allclose(rule.nodes[order - order // 2 :], full, rtol=0, atol=2.0**-51)

    def test_later_rounds_keep_newton_progress(self):
        # (Newton passes, Sturm passes) of the one root at (1e4, 2). An iterate
        # inside its bracket goes on from where it is; restarting it at its
        # spaced point every round took (40, 5).
        rule, passes = _counted_build(1e4, 2)
        assert rule.bisected == 1 and passes == (10, 2)

    @pytest.mark.parametrize("order", [2, 3])
    def test_one_root_is_bracketed_by_its_restart_points(self, order):
        # One positive root and no midpoint between iterates: only the counts
        # at the restart points bracket it. The build runs the mass check.
        rule = gegenbauer._gauss_rule.__wrapped__(1e4, order)
        assert rule.bisected == 1
        assert_allclose(rule.nodes, roots_gegenbauer(order, 1e4)[0], rtol=0, atol=1e-15)
        assert_allclose(rule.integrate(np.ones(order)), math.exp(gegenbauer._log_norm_squared(1e4, 0)), rtol=1e-9)


class TestRuleChecks:
    """Before it builds a rule, `_gauss_rule` checks the nodes, from the root
    loop or the closed-form Gauss–Chebyshev rule, and the mass of the weights;
    either failing is a ConvergenceError, not a rule."""

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 20.0])
    @pytest.mark.parametrize("fault", ["repeated", "at-one"])
    def test_nodes_must_be_distinct_and_inside(self, lam, fault):
        # At λ = 0 and 1 the closed-form rule gives the nodes, elsewhere the
        # root finder does; either way the fault is in the positive half.
        closed = lam in (0.0, 1.0)
        if closed:
            positive, weights = gegenbauer._chebyshev_rule(lam, 8)
        else:
            positive, bisected = gegenbauer._positive_roots(lam, 8)
        positive = positive.copy()
        if fault == "repeated":
            positive[1] = positive[0]
        else:
            positive[-1] = 1.0
        route, result = ("_chebyshev_rule", (positive, weights)) if closed else ("_positive_roots", (positive, bisected))
        with mock.patch.object(gegenbauer, route, return_value=result):
            with pytest.raises(ConvergenceError) as excinfo:
                gegenbauer._gauss_rule.__wrapped__(lam, 8)
        assert str(excinfo.value) == f"Gauss nodes (lam={lam}, order=8) are not distinct and inside (-1, 1)"

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 20.0])
    def test_weights_must_sum_to_the_mass(self, lam):
        # At λ = 0 and 1 the scaled weights are the closed-form rule's.
        if lam in (0.0, 1.0):
            nodes, weights = gegenbauer._chebyshev_rule(lam, 8)

            def scaled(factor):
                return mock.patch.object(gegenbauer, "_chebyshev_rule", return_value=(nodes, weights * factor))

        else:
            christoffel = gegenbauer._christoffel_weights

            def scaled(factor):
                return mock.patch.object(gegenbauer, "_christoffel_weights", lambda *args: christoffel(*args) * factor)

        with scaled(1.0 + 1e-6), pytest.raises(ConvergenceError, match=r"^Gauss weights \(lam=.*, order=8\) sum to "):
            gegenbauer._gauss_rule.__wrapped__(lam, 8)
        with scaled(1.0 + 1e-11):  # within the check's relative 1e-9
            assert gegenbauer._gauss_rule.__wrapped__(lam, 8).order == 8


class TestRuleHalves:
    """Each route of `_gauss_rule` gives only the nonnegative half of its rule,
    nodes ascending (0 first at odd order) with their weights, and
    `_gauss_rule` alone mirrors it into the rule."""

    @pytest.mark.parametrize("order", [1, 2, 3, 8, 9, 69, 70, 1024, 1025])
    @pytest.mark.parametrize("route", ["chebyshev-0", "chebyshev-1", "legendre", "christoffel"])
    def test_every_route_gives_the_nonnegative_half(self, route, order):
        lam = {"chebyshev-0": 0.0, "chebyshev-1": 1.0, "legendre": 0.5, "christoffel": 2.5}[route]
        if route == "legendre":
            nodes, weights = gegenbauer._legendre_rule(order)
        elif route == "christoffel":
            nodes = np.concatenate((np.zeros(order % 2), gegenbauer._positive_roots(lam, order)[0]))
            weights = gegenbauer._christoffel_weights(lam, order, nodes)
        else:
            nodes, weights = gegenbauer._chebyshev_rule(lam, order)
        assert nodes.shape == weights.shape == (order - order // 2,)
        assert np.all(np.diff(nodes) > 0) and np.all(nodes[order % 2 :] > 0) and np.all(weights > 0)
        assert order % 2 == 0 or nodes[:1].tobytes() == np.zeros(1).tobytes()
        if route != "legendre" or order >= gegenbauer._LEGENDRE_MIN_ORDER:  # the route the rule takes
            rule = gegenbauer._gauss_rule.__wrapped__(lam, order)
            assert rule.nodes[order // 2 :].tobytes() == nodes.tobytes()
            assert rule.weights[order // 2 :].tobytes() == weights.tobytes()
            assert rule.nodes.tobytes() == (-rule.nodes[::-1] + 0.0).tobytes()
            assert rule.weights.tobytes() == rule.weights[::-1].tobytes()


class TestChebyshevURoots:
    """At λ = 1 the rule is the closed-form Gauss–Chebyshev rule of the second
    kind: nodes cos(kπ/(N+1)), the roots of U_N, and weights
    π/(N+1)·sin²(kπ/(N+1)). Like the λ = 0 rule, it runs no recurrence."""

    @pytest.mark.parametrize("order", [1, 2, 3, 8, 1024])
    def test_nodes_are_the_closed_form_roots(self, order):
        rule = quadrature(1.0, order)
        expected = np.cos(np.arange(order, 0, -1) * np.pi / (order + 1))
        assert_allclose(rule.nodes, expected, rtol=0, atol=1e-15)
        # Exactly antisymmetric; + 0.0 turns the mirrored middle node -0.0 into 0.0.
        assert rule.nodes.tobytes() == (-rule.nodes[::-1] + 0.0).tobytes()
        assert rule.bisected == 0

    @pytest.mark.parametrize("order", [1, 2, 3, 8, 41, 1024, 20002])
    def test_weights_match_mpmath(self, order):
        # Against 40-digit weights; at order 20002 a sample of 301 nodes.
        rule = quadrature(1.0, order)
        picks = np.unique(np.linspace(0, order - 1, min(order, 301)).astype(int))
        with mpmath.workdps(40):
            exact = [mpmath.pi / (order + 1) * mpmath.sin((i + 1) * mpmath.pi / (order + 1)) ** 2 for i in picks]
            errors = [abs(mpmath.mpf(float(rule.weights[i])) / w - 1) for i, w in zip(picks, exact)]
        assert float(max(errors)) <= 2e-15
        assert rule.weights.tobytes() == rule.weights[::-1].tobytes()

    def test_no_recurrence_ratio_runs(self):
        # Neither closed-form rule runs a Newton or Sturm pass, a recurrence
        # row or a Christoffel sum.
        for lam in (0.0, 1.0):
            with (
                mock.patch.object(gegenbauer, "_ratio", side_effect=AssertionError("a Newton or Sturm pass ran")),
                mock.patch.object(gegenbauer, "_fill", side_effect=AssertionError("a recurrence row was filled")),
                mock.patch.object(gegenbauer, "_christoffel_weights", side_effect=AssertionError("a Christoffel sum ran")),
            ):
                rule = gegenbauer._gauss_rule.__wrapped__(lam, 1024)
            assert rule.order == 1024 and rule.bisected == 0

    @settings(max_examples=40, deadline=None)
    @given(order=st.integers(1, 400))
    @example(order=1)
    @example(order=400)
    def test_closed_form_agrees_with_the_newton_path(self, order):
        betas = gegenbauer._monic_betas(1.0, order)
        with np.errstate(all="ignore"):
            newton, proven = gegenbauer._newton_roots(1.0, order, betas)
            full = _reference_bisection(betas, np.arange(order // 2, 0, -1))
        roots = gegenbauer._chebyshev_rule(1.0, order)[0][order % 2 :]
        assert proven.all()
        assert roots.shape == (order // 2,)
        assert_allclose(roots, newton, rtol=0, atol=2.0**-51)
        assert_allclose(roots, full, rtol=0, atol=2.0**-51)


def _sampled(order):
    """Indices of the two largest nodes, the node at three quarters and the
    middle one (0 at odd orders, the smallest positive node at even ones)."""
    return sorted({order - 1, order - 2, (3 * order) // 4, order // 2})


def _recurrence_rule(order):
    """Nodes and weights of the λ = 1/2 rule by the recurrence route, which
    `_gauss_rule` takes below `_LEGENDRE_MIN_ORDER`: Newton–Sturm roots and
    Christoffel weights."""
    positive = gegenbauer._positive_roots(0.5, order)[0]
    nodes = np.concatenate((-positive[::-1], np.zeros(order % 2), positive))
    return nodes, _christoffel_rule_weights(0.5, nodes)


class TestLegendreRule:
    """From `_LEGENDRE_MIN_ORDER` on, the λ = 1/2 rule comes from Bogaert's
    iteration-free series (`_legendre_rule`): no recurrence, no Newton or
    Sturm pass and no Christoffel sum. Its gates: nodes within 4·2^-53 of a
    40-digit reference, weights within 1e-15 relative."""

    MIN = gegenbauer._LEGENDRE_MIN_ORDER

    @pytest.mark.parametrize("order", [MIN, MIN + 1, 202, 1024, 1025, 4097, 20002])
    def test_matches_mpmath(self, order):
        rule = quadrature(0.5, order)
        with mpmath.workdps(40):
            for i in _sampled(order):
                x, w = _mp_node_and_weight(0.5, order, rule.nodes[i])
                assert abs(float(rule.nodes[i] - x)) <= 4 * 2.0**-53, (order, i)
                assert abs(float(rule.weights[i] / w - 1)) <= 1e-15, (order, i)

    @pytest.mark.parametrize("order", [512, 1024])
    def test_weights_beat_the_christoffel_sums(self, order):
        rule = quadrature(0.5, order)
        nodes, weights = _recurrence_rule(order)
        ours, theirs = 0.0, 0.0
        with mpmath.workdps(40):
            for i in _sampled(order):
                w = _mp_node_and_weight(0.5, order, rule.nodes[i])[1]
                ours = max(ours, abs(float(rule.weights[i] / w - 1)))
                theirs = max(theirs, abs(float(weights[i] / w - 1)))
        assert ours < theirs, (ours, theirs)

    def test_tables_and_expansions_match_mpmath(self):
        # The 20 zeros and 21 values of J_1² are the doubles nearest their
        # 40-digit values; McMahon's expansions beyond them are within 4·2^-53.
        k, delta, bessel = gegenbauer._bessel_zeros(200)
        zeros = np.pi * (k - 0.25) + delta
        with mpmath.workdps(40):
            for i in range(200):
                j = mpmath.besseljzero(0, i + 1)
                j1 = mpmath.besselj(1, j) ** 2
                if i < gegenbauer._J0_ZEROS.size:
                    assert gegenbauer._J0_ZEROS[i] == zeros[i] == float(j), i
                else:
                    assert abs(float(zeros[i] / j - 1)) <= 4 * 2.0**-53, i
                if i < gegenbauer._J1_SQUARED.size:
                    assert gegenbauer._J1_SQUARED[i] == bessel[i] == float(j1), i
                else:
                    assert abs(float(bessel[i] / j1 - 1)) <= 4 * 2.0**-53, i
        assert gegenbauer._J0_ZEROS.size == 20 and gegenbauer._J1_SQUARED.size == 21

    @settings(max_examples=25, deadline=None)
    @given(order=st.integers(gegenbauer._LEGENDRE_MIN_ORDER, 1100))
    @example(order=gegenbauer._LEGENDRE_MIN_ORDER)
    @example(order=1099)
    @example(order=1100)
    def test_agrees_with_the_recurrence_route(self, order):
        # The Christoffel weights err by up to about 2e-17·N² (8.9e-13 below
        # order 200, 2.3e-11 at 800–1100, against the series' 5e-16), so the
        # weights are compared within 5e-17·N².
        nodes, weights = gegenbauer._legendre_rule(order)
        reference_nodes, reference_weights = (a[order // 2 :] for a in _recurrence_rule(order))
        assert_allclose(nodes, reference_nodes, rtol=0, atol=4 * 2.0**-53)
        assert_allclose(weights, reference_weights, rtol=5e-17 * order**2, atol=0)

    @pytest.mark.parametrize("order", [MIN, MIN + 1, 1024, 1025])
    def test_rule_is_exactly_symmetric(self, order):
        rule = quadrature(0.5, order)
        assert rule.nodes.tobytes() == (-rule.nodes[::-1] + 0.0).tobytes()
        assert rule.weights.tobytes() == rule.weights[::-1].tobytes()
        assert order % 2 == 0 or rule.nodes[order // 2] == 0.0
        assert rule.bisected == 0
        assert_allclose(rule.integrate(np.ones(order)), 2.0, rtol=4e-16)

    def test_no_recurrence_runs(self):
        with (
            mock.patch.object(gegenbauer, "_ratio", side_effect=AssertionError("a Newton or Sturm pass ran")),
            mock.patch.object(gegenbauer, "_fill", side_effect=AssertionError("a recurrence row was filled")),
            mock.patch.object(gegenbauer, "_christoffel_weights", side_effect=AssertionError("a Christoffel sum ran")),
        ):
            rule = gegenbauer._gauss_rule.__wrapped__(0.5, self.MIN)
        assert rule.order == self.MIN and rule.bisected == 0

    def test_recurrence_route_below_the_threshold(self):
        order = self.MIN - 1
        with mock.patch.object(gegenbauer, "_legendre_rule", side_effect=AssertionError("the series ran")):
            rule = gegenbauer._gauss_rule.__wrapped__(0.5, order)
        nodes, weights = _recurrence_rule(order)
        assert rule.nodes.tobytes() == nodes.tobytes() and rule.weights.tobytes() == weights.tobytes()

    @pytest.mark.parametrize("fault", ["repeated", "at-one", "heavy"])
    def test_route_runs_the_node_and_mass_checks(self, fault):
        nodes, weights = (a.copy() for a in gegenbauer._legendre_rule(self.MIN))
        if fault == "repeated":
            nodes[-2] = nodes[-1]
        elif fault == "at-one":
            nodes[-1] = 1.0
        else:
            weights *= 1.0 + 1e-6
        with mock.patch.object(gegenbauer, "_legendre_rule", return_value=(nodes, weights)):
            with pytest.raises(ConvergenceError, match=r"^Gauss (nodes|weights) \(lam=0\.5, order="):
                gegenbauer._gauss_rule.__wrapped__(0.5, self.MIN)


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

    @pytest.mark.parametrize("lam", [0.0, 0.5, 2.5])
    def test_rule_arrays_cannot_be_made_writeable(self, lam):
        rule = quadrature(lam, 64)
        for arr in (rule.nodes, rule.weights):
            assert isinstance(arr.base, bytes)
            with pytest.raises(ValueError):
                arr.setflags(write=True)

    def test_the_caller_cannot_edit_a_checked_rule(self):
        nodes = np.array([-0.5, 0.5])
        nodes.setflags(write=False)
        rule = QuadratureRule(nodes=nodes, weights=np.ones(2), lam=0.5, order=2)
        nodes.setflags(write=True)
        nodes[1] = 7.0
        assert rule.nodes.tolist() == [-0.5, 0.5]
        for arr in (rule.nodes, rule.weights):
            with pytest.raises(ValueError):
                arr.setflags(write=True)

    def test_a_rule_built_from_a_cached_one_shares_its_bytes(self):
        cached = quadrature(0.5, 64)
        rule = QuadratureRule(nodes=cached.nodes, weights=cached.weights, lam=0.5, order=64)
        assert rule.nodes is cached.nodes and rule.weights is cached.weights

    def test_a_callback_that_writes_to_the_nodes_leaves_the_rule_unchanged(self):
        rule = quadrature(0.5, 64)
        before = (rule.nodes.tobytes(), rule.weights.tobytes())
        attempts = []

        def vandal(x):
            if isinstance(x, np.ndarray) and x.size == 64:  # the nodes, not a trial's cosines
                for attempt in (lambda: x.setflags(write=True), lambda: x.fill(0.0), lambda: np.negative(x, out=x)):
                    with pytest.raises(ValueError):
                        attempt()
                    attempts.append(attempt)
            return x * x

        recover_coefficients(vandal, LEGENDRE, 10, 64)
        certify(vandal, LEGENDRE, n_max=31, gram_trials=1)  # its default Gauss order is 64
        assert len(attempts) == 2 * 3
        after = quadrature(0.5, 64)
        assert after is rule and (after.nodes.tobytes(), after.weights.tobytes()) == before

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


class TestDegreeTableCache:
    """Coefficient recovery's cached degree x node tables and norms."""

    CAP_SHAPES = ((128, 1024), (256, 512), (512, 256), (1024, 128))  # rows x order at the cap

    def test_table_is_cached_read_only_and_equals_the_recurrence(self):
        table = gegenbauer._degree_table(1.5, 40, 12)
        assert gegenbauer._degree_table(1.5, 40, 12) is table
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0
        expect = eval_sequence(GegenbauerBasis.from_index(1.5), 12, quadrature(1.5, 40).nodes)
        assert table.tobytes() == expect.tobytes()

    def test_table_cannot_be_made_writeable(self):
        table = gegenbauer._degree_table(0.5, 64, 20)
        assert isinstance(table.base, bytes) and table.shape == (21, 64)
        for arr in (table, table[3]):
            with pytest.raises(ValueError):
                arr.setflags(write=True)

    def test_norms_are_the_closed_form(self):
        for lam in (0.0, 0.5, 2.5):
            norms = gegenbauer._norms(lam, 30)
            assert isinstance(norms, np.ndarray) and gegenbauer._norms(lam, 30) is norms
            assert norms.dtype == np.float64 and isinstance(norms.base, bytes)
            with pytest.raises(ValueError):
                norms.setflags(write=True)
            assert norms.tolist() == [gegenbauer._norm_squared(lam, n) for n in range(30)]

    def test_cache_holds_at_most_sixteen_tables_at_the_cap(self):
        cap = gegenbauer._TABLE_CACHE_BYTES
        assert all(8 * rows * order == cap for rows, order in self.CAP_SHAPES)
        lams = (0.0, 0.5, 1.0, 1.5, 2.0)
        keys = [(lam, order, rows - 1) for lam in lams for rows, order in self.CAP_SHAPES]
        for lam, order, _ in keys:
            quadrature(lam, order)  # the rules are built outside the measurement
        weighted = {order: np.linspace(-1.0, 1.0, order) for _, order in self.CAP_SHAPES}
        gegenbauer._degree_table.cache_clear()
        tracemalloc.start()
        try:
            for key in keys:
                projected = gegenbauer._project(*key, weighted[key[1]])  # a miss that caches the table
                assert projected.tobytes() == np.vecdot(gegenbauer._degree_table(*key), weighted[key[1]]).tobytes()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        info = gegenbauer._degree_table.cache_info()
        assert (info.misses, info.hits, info.currsize) == (len(keys), len(keys), 16)
        with mock.patch.object(np, "vecdot", wraps=np.vecdot) as vecdot:
            gegenbauer._project(*key, weighted[key[1]])
        assert vecdot.call_args.args[0] is gegenbauer._degree_table(*key)  # the cached table itself
        # 16 tables of 1 MiB; at the peak a new table and its `tobytes` copy
        # exist before the oldest is dropped. The slack covers the norms and
        # the recurrence rows.
        assert current <= 16 * cap + 2**18
        assert peak <= 18 * cap + 2**18

    def test_table_over_the_cap_is_streamed_and_not_cached(self):
        order = 1024
        rows = gegenbauer._TABLE_CACHE_BYTES // (8 * order)
        rule = quadrature(0.5, order)
        weighted = rule.weights * np.cos(rule.nodes)
        before = gegenbauer._degree_table.cache_info()
        streamed = gegenbauer._project(0.5, order, rows, weighted)  # one row over the cap
        coeffs = recover_coefficients(lambda x: x, LEGENDRE, rows, order)
        assert gegenbauer._degree_table.cache_info() == before
        assert_allclose(coeffs[:3], [0.0, 1.0, 0.0], atol=1e-14)
        loop = np.array([p @ weighted for p in eval_sequence(LEGENDRE, rows, rule.nodes)])
        assert streamed.shape == (rows + 1,) and streamed.tobytes() == loop.tobytes()
        at_cap = gegenbauer._project(0.5, order, rows - 1, weighted)
        assert at_cap.tobytes() == np.vecdot(gegenbauer._degree_table(0.5, order, rows - 1), weighted).tobytes()
        assert at_cap.tobytes() == streamed[:rows].tobytes()

    def test_streamed_recovery_memory_is_a_few_rows_plus_linear_vectors(self):
        """A recovery at n_max = 1000 and order 2002, whose 16 MB table is over
        the cap, streams `_fill`'s ring of three rows: its `tracemalloc` peak
        is about five rows of the order (the ring, `_step`'s scratch row, the
        values and the weighted values) and a few floats per degree (the
        coefficients and the norms h_n), 106 412 bytes in all. One
        one-element `np.vecdot` result per degree, held in a list until they
        are joined, peaked at 227 672 bytes and is over the bound. It takes
        about 0.03 s."""
        n_max, order = 1000, 2002
        quadrature(0.5, order)  # the rule is built outside the measurement
        recover_coefficients(np.cos, LEGENDRE, 3, 8)  # and so are one-time first-call costs
        before = gegenbauer._degree_table.cache_info()
        tracemalloc.start()
        try:
            coeffs = recover_coefficients(np.cos, LEGENDRE, n_max, order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gegenbauer._degree_table.cache_info() == before
        assert peak < 6 * 8 * order + 32 * (n_max + 1)
        assert_allclose(coeffs[0], math.sin(1.0), rtol=1e-13)

    def test_certify_workload_recoveries_hit_the_cache(self):
        # The four (lambda, order) recoveries of the benchmark's `certify`
        # workload, at n_max = 64: tables of 266 240 and 532 480 bytes.
        cases = [(lam, order) for lam in (0.5, 1.0) for order in (512, 1024)]
        gegenbauer._degree_table.cache_clear()
        first = [recover_coefficients(np.exp, GegenbauerBasis.from_index(lam), 64, order) for lam, order in cases]
        again = [recover_coefficients(np.exp, GegenbauerBasis.from_index(lam), 64, order) for lam, order in cases]
        info = gegenbauer._degree_table.cache_info()
        assert (info.misses, info.hits) == (4, 4)
        assert [a.tobytes() for a in first] == [a.tobytes() for a in again]


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


def _reference_sequence(lam, n_max, x):
    """The recurrence as one expression per degree, a fresh array each: the
    operation order that `_step` must keep bit for bit."""
    before, last = np.ones(x.shape), x.copy()
    rows = [before, last][: n_max + 1]
    for n in range(2, n_max + 1):
        if lam == 0.0:
            before, last = last, 2.0 * x * last - before
        else:
            before, last = last, (2.0 * (n + lam - 1.0) * x * last - (n - 1.0) * before) / (n + 2.0 * lam - 1.0)
        rows.append(last)
    return np.stack(rows)


class TestTableBound:
    """`eval_sequence` checks its table against `_MAX_ARRAY_BYTES` before it
    allocates anything of the argument's size."""

    def test_an_oversized_table_raises_before_allocating(self, monkeypatch):
        x = np.linspace(-1.0, 1.0, 100_000)  # 800 KB; the table would be 7.45 GiB
        message = "^a degree table of 10001 x 100000 floats needs 8000800000 bytes, over the bound of 1073741824$"
        # Without the check the table builder would run; it fails the test instead of allocating.
        monkeypatch.setattr(gegenbauer, "_table", lambda *args: pytest.fail("the table was built"))
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=message):
                eval_sequence(GegenbauerBasis.from_dimension(2), 10_000, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10

    def test_a_table_of_exactly_the_bound_is_allowed(self, monkeypatch):
        monkeypatch.setattr(gegenbauer, "_MAX_ARRAY_BYTES", 8 * 3 * 64)
        assert eval_sequence(LEGENDRE, 2, np.zeros(64)).shape == (3, 64)
        with pytest.raises(DomainError):
            eval_sequence(LEGENDRE, 2, np.zeros(65))

    def test_a_kernel_sum_keeps_its_blocks_within_a_lower_bound(self, monkeypatch):
        seq = make_sequence([0.5, 0.3, 0.2], LEGENDRE)
        x = np.linspace(-1.0, 1.0, 1000)
        whole = kernel_eval(seq, x)
        monkeypatch.setattr(gegenbauer, "_MAX_ARRAY_BYTES", 8 * 3 * 64)
        assert kernel_eval(seq, x).tobytes() == whole.tobytes()


class TestInPlaceTable:
    """`_table` writes each degree into its row from the two before it; it and
    the expression-per-degree recurrence must have the same bytes, for every
    argument shape including a 0-d one."""

    @settings(max_examples=60, deadline=None)
    @given(
        lam=st.sampled_from([0.0, 0.5, 1.0, 20.0]),
        n_max=st.sampled_from([0, 1, 2, 100]),
        shape=st.sampled_from([(), (1,), (7,), (3, 4)]),
        data=st.data(),
    )
    def test_table_equals_the_stacked_sequence(self, lam, n_max, shape, data):
        size = math.prod(shape)
        values = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size))
        x = np.array(values, dtype=float).reshape(shape)
        table = gegenbauer._table(lam, n_max, x)
        reference = _reference_sequence(lam, n_max, x)
        assert table.shape == reference.shape == (n_max + 1,) + shape
        assert table.tobytes() == reference.tobytes()
        assert eval_sequence(GegenbauerBasis.from_index(lam), n_max, x).tobytes() == table.tobytes()
        last = eval_normalized(GegenbauerBasis.from_index(lam), n_max, x)
        assert np.asarray(last).tobytes() == reference[-1].tobytes()


class TestFill:
    """`_fill` is the one loop over `_step`. In a ring of three rows or a
    whole-table buffer, the row it yields for each degree must hold the
    expression-per-degree recurrence bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(
        lam=st.sampled_from([0.0, 0.5, 1.0, 20.0]),
        n_max=st.integers(0, 40),
        table=st.booleans(),
        shape=st.sampled_from([(), (7,), (3, 4)]),
        data=st.data(),
    )
    @example(lam=0.5, n_max=5, table=False, shape=(7,), data=None)
    @example(lam=0.0, n_max=0, table=True, shape=(), data=None)
    def test_rows_equal_the_reference_recurrence(self, lam, n_max, table, shape, data):
        size = math.prod(shape)
        if data is None:
            values = np.linspace(-1.0, 1.0, size).tolist()
        else:
            values = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=size, max_size=size))
        x = np.array(values, dtype=float).reshape(shape)
        reference = _reference_sequence(lam, n_max, x)
        buffer = np.empty((n_max + 1 if table else min(3, n_max + 1),) + shape)
        degrees = 0
        for n, row in enumerate(gegenbauer._fill(lam, n_max, x, buffer)):
            assert row.shape == shape and np.shares_memory(row, buffer[n % len(buffer), ...])
            assert row.tobytes() == reference[n].tobytes()
            degrees += 1
        assert degrees == n_max + 1
        if table:
            assert buffer.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("n_max", [0, 1, 2, 3, 4, 9])
    def test_default_ring_is_three_rows(self, n_max):
        """Degree n and degree n + 3 share a row of the default ring, and
        degrees n + 1 and n + 2 do not; from n_max = 2 down, every degree has
        its own row."""
        rows = list(gegenbauer._fill(0.5, n_max, np.linspace(-1.0, 1.0, 5)))
        assert len(rows) == n_max + 1
        for n, row in enumerate(rows):
            for k, later in enumerate(rows[n + 1 : n + 4], 1):
                assert np.shares_memory(row, later) is (k == 3)

    @pytest.mark.parametrize("lam", [0.0, 0.5])
    def test_a_ring_allocates_only_its_scratch_row(self, lam):
        """Over a caller's ring of three rows, 40 degrees allocate one scratch
        row of x's size and a few small objects, and no copy of any row."""
        x, ring = np.linspace(-1.0, 1.0, 1000), np.empty((3, 1000))
        for _ in gegenbauer._fill(lam, 40, x, ring):  # one-time first-call costs stay outside
            pass
        tracemalloc.start()
        try:
            for _ in gegenbauer._fill(lam, 40, x, ring):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * x.nbytes


def _reference_christoffel_weights(lam, order, x):
    """The Christoffel weights as one loop over degrees: `total += np.square(P̃_k) / h_k`
    at the nodes `x` for k < order, each h_k from `_norm_squared`."""
    total = np.zeros(x.size)
    for n, values in enumerate(_reference_sequence(lam, order - 1, x)):
        total += np.square(values) / gegenbauer._norm_squared(lam, n)
    return 1.0 / total


def _reference_ratio(betas, x, counts=None):
    """The ratio recurrence as one loop over β, the sign bits counted after each step."""
    q, quotient = x.copy(), np.empty_like(x)
    if counts is not None:
        counts += np.signbit(q)
    for beta in betas:
        np.divide(beta, q, out=quotient)
        np.subtract(x, quotient, out=q)
        if counts is not None:
            counts += np.signbit(q)
    return q


def _betas(lam, order):
    """`_monic_betas`, or at λ = 0 its limit, the monic Chebyshev β (1/2, then 1/4)."""
    if lam > 0.0:
        return gegenbauer._monic_betas(lam, order)
    return [0.5, *[0.25] * (order - 2)][: order - 1]


CHUNK_LAMS = [0.0, 0.25, 0.5, 1.0, 20.0, 1e4]
# Arguments with exact zeros: at x = 0 every odd-degree ratio is 0 and the next infinite.
CHUNK_POINTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1.0, 1.0))


class TestChunkedRuleBuild:
    """A cold Gauss rule sums its Christoffel terms over the rows of `_fill`'s
    ring and counts its Sturm signs one ratio at a time. Each must give the
    bits of the per-degree or per-β reference loop, the Christoffel sums at
    orders on both sides of the ring's three rows, where it holds every
    degree and where it wraps."""

    @settings(max_examples=80, deadline=None)
    @given(
        lam=st.sampled_from(CHUNK_LAMS),
        order=st.integers(1, 48),
        data=st.data(),
    )
    @example(lam=0.5, order=2, data=None)
    @example(lam=0.5, order=3, data=None)
    @example(lam=0.5, order=4, data=None)
    def test_christoffel_sums_match_the_per_degree_loop(self, lam, order, data):
        if data is None:
            nodes = quadrature(lam, order).nodes
        else:
            nodes = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=order, max_size=order)))
        got = gegenbauer._christoffel_weights(lam, order, nodes[order // 2 :])
        assert got.tobytes() == _reference_christoffel_weights(lam, order, nodes[order // 2 :]).tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        lam=st.sampled_from(CHUNK_LAMS),
        order=st.integers(1, 48),
        points=st.lists(CHUNK_POINTS, min_size=1, max_size=9),
    )
    @example(lam=0.5, order=8, points=[0.0, 0.5])
    @example(lam=0.5, order=2, points=[0.0])
    @example(lam=20.0, order=4, points=[-0.0, 0.25])
    @example(lam=0.5, order=4, points=[0.0, -0.5])
    @example(lam=0.5, order=1, points=[0.0, -0.5])
    def test_sturm_counts_match_the_per_beta_loop(self, lam, order, points):
        betas, x = _betas(lam, order), np.array(points)
        counts, expect = np.arange(x.size), np.arange(x.size)  # counts are added to
        with np.errstate(all="ignore"):
            q = gegenbauer._ratio(betas, x, counts)
            fast = gegenbauer._ratio(betas, x)
            want = _reference_ratio(betas, x, expect)
            assert fast.tobytes() == _reference_ratio(betas, x).tobytes() == want.tobytes()
        assert q.tobytes() == want.tobytes()
        assert counts.dtype == expect.dtype and np.array_equal(counts, expect)

    def test_norms_match_the_per_degree_closed_form(self):
        """`_norms` within 1e-10 relative of `_mp_norm_squared` wherever h_n is a
        normal double (below that range it reads 0.0, e.g. at λ = 200 from
        n = 1023). The largest error on this grid is 3.9e-11, at λ = 1e4."""
        degrees = [0, 1, 2, 7, 64, 1023, 3000, 20001]
        assert gegenbauer._norms.__wrapped__(0.5, 0).shape == (0,)
        for lam in [0.0, 1e-300, 0.5, 1.0, 1.5, 3.7, 10.5, 200.0, 1e4]:
            got = gegenbauer._norms.__wrapped__(lam, degrees[-1] + 1)
            assert isinstance(got, np.ndarray) and got.dtype == np.float64 and got.shape == (degrees[-1] + 1,)
            assert not got.flags.writeable
            with mpmath.workdps(40):
                for n in degrees:
                    want = _mp_norm_squared(lam, n)
                    if want >= sys.float_info.min:
                        assert abs(mpmath.mpf(float(got[n])) / want - 1) <= 1e-10, (lam, n)

    def test_bisection_path_matches_the_per_beta_loop(self):
        for lam, order in [(20.0, 41), (20.0, 120), (40.0, 64), (200.0, 64)]:
            with mock.patch.object(gegenbauer, "_ratio", _reference_ratio):
                want, want_bisected = gegenbauer._positive_roots(lam, order)
            got, bisected = gegenbauer._positive_roots(lam, order)
            assert bisected == want_bisected > 0
            assert got.tobytes() == want.tobytes()


class TestNodeRoute:
    """`QuadratureRule.bisected` records how many positive nodes the first
    Newton–Sturm round could not prove."""

    def test_a_bisected_rule_reports_its_count(self):
        rule = gegenbauer._gauss_rule.__wrapped__(20.0, 41)
        assert type(rule.bisected) is int
        assert rule.bisected == gegenbauer._positive_roots(20.0, 41)[1] > 0

    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 2.5, 10.0, 10.5])
    def test_rules_up_to_lambda_ten_report_none(self, lam):
        for order in (1, 2, 41, 200):
            assert quadrature(lam, order).bisected == 0

    @pytest.mark.parametrize("bisected", [-1, 1.5, True, "1", None], ids=str)
    def test_bisected_goes_through_the_integer_rule(self, bisected):
        with pytest.raises(DomainError, match=r"^bisected must be "):
            QuadratureRule(nodes=[-0.5, 0.5], weights=[1.0, 1.0], lam=0.5, order=2, bisected=bisected)

    def test_bisected_is_stored_as_an_int(self):
        rule = QuadratureRule(nodes=[-0.5, 0.5], weights=[1.0, 1.0], lam=0.5, order=2, bisected=np.int64(1))
        assert type(rule.bisected) is int and rule.bisected == 1
