"""Sphere-cross-line kernels: characteristic functions, evaluation, separability."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from helpers import charfn_eval_branches, random_charfn, random_st_kernel
from spherecov import (
    CharFn,
    DomainError,
    GegenbauerBasis,
    NegativeCoefficientError,
    NormalizationError,
    SpaceTimeKernel,
    ZeroMassError,
    charfn_eval,
    eval_sequence,
    is_separable,
    kernel_eval,
    make_charfn,
    make_st_kernel,
    schoenberg_functions_at,
    spatial_sequence,
    st_kernel_eval,
)
from spherecov.spacetime import (
    exponential,
    gaussian,
    point_mass_at_zero,
    stable,
    triangle_sinc,
)

LEGENDRE = GegenbauerBasis.from_index(0.5)

ALL_FAMILIES = [
    gaussian(1.0),
    exponential(1.0),
    stable(0.7, 1.3),
    triangle_sinc(2.0),
    point_mass_at_zero(),
]


class TestCharFnConstruction:
    def test_factories_round_trip_through_make(self):
        cf = make_charfn("stable", {"scale": 0.7, "alpha": 1.3})
        assert cf == stable(0.7, 1.3)

    def test_param_order_is_irrelevant(self):
        a = make_charfn("stable", {"alpha": 1.3, "scale": 0.7})
        assert a == stable(0.7, 1.3)

    @pytest.mark.parametrize(
        "factory,bad",
        [
            (gaussian, 0.0),
            (gaussian, -1.0),
            (exponential, 0.0),
            (triangle_sinc, -2.0),
        ],
    )
    def test_rejects_nonpositive_params(self, factory, bad):
        with pytest.raises(DomainError):
            factory(bad)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 2.0001, 3.0])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(DomainError):
            stable(1.0, alpha)

    def test_alpha_two_allowed(self):
        stable(1.0, 2.0)

    def test_rejects_unknown_family(self):
        with pytest.raises(DomainError):
            make_charfn("cauchy", {})

    def test_rejects_wrong_param_names(self):
        with pytest.raises(DomainError):
            make_charfn("gaussian", {"rate": 1.0})

    @pytest.mark.parametrize("params", [5, None, [1.0], "ab"], ids=["int", "none", "list", "str"])
    def test_rejects_params_that_are_not_a_mapping(self, params):
        with pytest.raises(DomainError, match="^gaussian parameters must be numbers: "):
            CharFn("gaussian", params)

    @pytest.mark.parametrize("bad", ["abc", None, [1.0]])
    def test_rejects_non_numeric_params(self, bad):
        with pytest.raises(DomainError, match="^gaussian parameters must be numbers: "):
            gaussian(bad)


KNOWN_FAMILIES = "['exponential', 'gaussian', 'point_mass_at_zero', 'stable', 'triangle_sinc']"
BAD_POSITIVE = [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (0.0, "0.0"), (-0.0, "-0.0"), (-1.0, "-1.0")]
BAD_ALPHA = [(0.0, "0.0"), (-0.5, "-0.5"), (2.0001, "2.0001"), (math.nan, "nan"), (math.inf, "inf")]

# (family, params, exact DomainError message) for every way CharFn rejects its input.
CHARFN_ERRORS = [
    ("cauchy", {}, f"unknown characteristic function family 'cauchy'; known: {KNOWN_FAMILIES}"),
    ("gaussian", {"rate": 1.0}, "family 'gaussian' takes parameters ['sigma'], got ['rate']"),
    ("gaussian", {"sigma": 1.0, "rate": 1.0}, "family 'gaussian' takes parameters ['sigma'], got ['rate', 'sigma']"),
    ("stable", {"scale": 1.0}, "family 'stable' takes parameters ['alpha', 'scale'], got ['scale']"),
    ("point_mass_at_zero", {"width": 1.0}, "family 'point_mass_at_zero' takes parameters [], got ['width']"),
    ("triangle_sinc", {}, "family 'triangle_sinc' takes parameters ['width'], got []"),
    *[
        (family, {**extra, name: bad}, f"{name} must be a positive real, got {text}")
        for family, name, extra in [
            ("gaussian", "sigma", {}),
            ("exponential", "rate", {}),
            ("stable", "scale", {"alpha": 1.0}),
            ("triangle_sinc", "width", {}),
        ]
        for bad, text in BAD_POSITIVE
    ],
    *[("stable", {"scale": 1.0, "alpha": bad}, f"alpha must lie in (0, 2], got {text}") for bad, text in BAD_ALPHA],
    # Both stable parameters bad: the positive parameter is reported first.
    ("stable", {"scale": -1.0, "alpha": 3.0}, "scale must be a positive real, got -1.0"),
    ("stable", {"scale": math.nan, "alpha": math.nan}, "scale must be a positive real, got nan"),
]


@pytest.mark.parametrize("family, params, message", CHARFN_ERRORS)
def test_charfn_error_messages(family, params, message):
    with pytest.raises(DomainError) as excinfo:
        make_charfn(family, params)
    assert str(excinfo.value) == message


POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
CHARFNS = st.one_of(
    st.builds(gaussian, POSITIVE),
    st.builds(exponential, POSITIVE),
    st.builds(stable, POSITIVE, st.floats(min_value=0.0, max_value=2.0, exclude_min=True)),
    st.builds(triangle_sinc, POSITIVE),
    st.just(point_mass_at_zero()),
)
LAGS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, 1e200, 1e300, -1e300]), st.floats(allow_nan=False))


@settings(max_examples=400, deadline=None)
@given(cf=CHARFNS, scalar=LAGS, lags=st.lists(LAGS, max_size=24))
def test_charfn_eval_matches_branch_reference_bit_for_bit(cf, scalar, lags):
    """The family table gives the bits of the one-branch-per-family code for
    scalar, list and 2-D lags, zero signs, subnormals and overflowing lags."""
    # Floating-point warnings are pinned by TestNoNumpyWarnings; here only values count.
    with np.errstate(all="ignore"):
        for t in (scalar, lags, np.array(lags).reshape(-1, 1)):
            got, want = charfn_eval(cf, t), charfn_eval_branches(cf, t)
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestCharFnEval:
    @pytest.mark.parametrize("cf", ALL_FAMILIES, ids=lambda c: c.family)
    def test_value_one_at_zero(self, cf):
        assert charfn_eval(cf, 0.0) == 1.0

    @pytest.mark.parametrize("cf", ALL_FAMILIES, ids=lambda c: c.family)
    def test_even_and_bounded(self, cf):
        t = np.linspace(-20.0, 20.0, 401)
        values = charfn_eval(cf, t)
        assert np.array_equal(values, charfn_eval(cf, -t))
        assert np.max(np.abs(values)) <= 1.0

    def test_gaussian_closed_form(self):
        assert_allclose(charfn_eval(gaussian(1.0), 1.0), math.exp(-0.5), rtol=1e-15)
        assert_allclose(charfn_eval(gaussian(2.0), 0.5), math.exp(-0.5), rtol=1e-15)

    def test_exponential_closed_form_and_evenness(self):
        assert_allclose(charfn_eval(exponential(1.0), -2.0), math.exp(-2.0), rtol=1e-15)
        assert charfn_eval(exponential(1.0), -2.0) == charfn_eval(exponential(1.0), 2.0)

    def test_stable_interpolates_known_families(self):
        t = np.linspace(-3, 3, 25)
        assert_allclose(
            charfn_eval(stable(1.5, 1.0), t), charfn_eval(exponential(1.5), t), rtol=1e-14
        )
        # alpha=2 with scale c equals a Gaussian with sigma^2 = 2c.
        assert_allclose(
            charfn_eval(stable(0.5, 2.0), t), charfn_eval(gaussian(1.0), t), rtol=1e-14
        )

    def test_triangle_sinc_closed_form(self):
        w = 2.0
        t = np.array([0.3, 1.0, 2.5])
        assert_allclose(charfn_eval(triangle_sinc(w), t), np.sin(w * t) / (w * t), rtol=1e-14)
        assert charfn_eval(triangle_sinc(math.pi), 1.0) == pytest.approx(0.0, abs=1e-16)

    def test_point_mass_is_identically_one(self):
        t = np.linspace(-100, 100, 7)
        assert np.all(charfn_eval(point_mass_at_zero(), t) == 1.0)


class TestNoNumpyWarnings:
    """Lags so large that σt, rate·|t| or |t|^α overflow give φ = exp(−inf) = 0
    without a numpy warning."""

    HUGE = np.array([1e200, -1e300, 0.0, 1e300])

    @pytest.mark.parametrize(
        "cf",
        [gaussian(1.0), gaussian(1e300), exponential(1e10), stable(1e10, 2.0), stable(1.0, 1.5)],
        ids=lambda c: c.family,
    )
    def test_charfn_eval(self, cf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert charfn_eval(cf, 1e200) == 0.0
            assert charfn_eval(cf, self.HUGE).tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_triangle_sinc_overflow_gives_the_limit_zero(self):
        # width·t overflows to ±inf; |sinc u| ≤ 1/|u| makes the limit 0.
        cf = triangle_sinc(1e10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert charfn_eval(cf, 1e299) == 0.0
            assert charfn_eval(cf, np.array([1e299, -1e300, 0.0, math.inf])).tolist() == [0.0, 0.0, 1.0, 0.0]

    def test_triangle_sinc_finite_values_keep_their_bits(self):
        t = np.concatenate([np.linspace(-50.0, 50.0, 1001), [1e200, -1e290, 5e-324, -0.0]])
        want = np.sinc(1e10 * t / np.pi)
        assert charfn_eval(triangle_sinc(1e10), t).tobytes() == want.tobytes()

    def test_st_kernel_eval(self):
        kernel = make_st_kernel([(0.4, gaussian(1.0)), (0.6, exponential(2.0))], LEGENDRE)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert st_kernel_eval(kernel, 0.5, 1e200) == 0.0
            assert schoenberg_functions_at(kernel, 1e300).tolist() == [0.0, 0.0]


@pytest.mark.parametrize("lag", [math.nan, np.float64("nan")], ids=["float", "numpy"])
def test_nan_lag_is_a_domain_error(lag):
    kernel = make_st_kernel([(0.4, gaussian(1.0)), (0.6, exponential(2.0))], LEGENDRE)
    for call in (lambda: schoenberg_functions_at(kernel, lag), lambda: st_kernel_eval(kernel, 0.5, lag)):
        with pytest.raises(DomainError, match=r"^time lag must not be NaN$"):
            call()


@pytest.mark.parametrize("cf", ALL_FAMILIES, ids=lambda c: c.family)
@pytest.mark.parametrize(
    "lag", [math.nan, [0.0, 1.0, math.nan], np.array([[0.0, math.nan], [1.0, 2.0]])], ids=["scalar", "list", "2-D"]
)
def test_charfn_eval_nan_lag_is_a_domain_error(cf, lag):
    with pytest.raises(DomainError, match=r"^time lag must not be NaN$"):
        charfn_eval(cf, lag)


class TestMakeStKernel:
    def test_single_term(self):
        k = make_st_kernel([(1.0, gaussian(1.0))], LEGENDRE)
        assert k.truncation == 0
        assert k.scale_c == 1.0

    def test_normalize_stores_total(self):
        k = make_st_kernel([(2.0, gaussian(1.0)), (6.0, exponential(1.0))], LEGENDRE, normalize=True)
        assert_allclose(k.weights, [0.25, 0.75], rtol=0, atol=0)
        assert k.scale_c == 8.0

    def test_negative_weight(self):
        with pytest.raises(NegativeCoefficientError):
            make_st_kernel([(0.5, gaussian(1.0)), (-0.1, gaussian(1.0))], LEGENDRE)

    def test_zero_mass(self):
        with pytest.raises(ZeroMassError):
            make_st_kernel([(0.0, gaussian(1.0))], LEGENDRE, normalize=True)

    def test_unnormalized_sum_rejected(self):
        with pytest.raises(NormalizationError):
            make_st_kernel([(0.5, gaussian(1.0)), (0.4, gaussian(1.0))], LEGENDRE)

    def test_rejects_non_charfn(self):
        with pytest.raises(DomainError):
            make_st_kernel([(1.0, "gaussian")], LEGENDRE)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            make_st_kernel([], LEGENDRE)

    @pytest.mark.parametrize("charfns", [(gaussian(1.0),), (gaussian(1.0),) * 3], ids=["fewer", "more"])
    def test_needs_one_charfn_per_weight(self, charfns):
        message = f"^need one characteristic function per weight: 2 weights, {len(charfns)} functions$"
        with pytest.raises(DomainError, match=message):
            SpaceTimeKernel(np.array([0.5, 0.5]), charfns, 1.0, LEGENDRE)

    @pytest.mark.parametrize(
        "terms",
        [[1.0], 5, [(1.0, gaussian(1.0), 0.0)], [(1.0,)], None],
        ids=["bare-weight", "number", "triple", "single", "none"],
    )
    def test_terms_must_be_pairs(self, terms):
        with pytest.raises(DomainError, match=r"^terms must be \(weight, CharFn\) pairs$"):
            make_st_kernel(terms, LEGENDRE)

    @pytest.mark.parametrize("bad", ["abc", None, [1.0, 2.0]])
    def test_rejects_non_numeric_weight(self, bad):
        with pytest.raises(DomainError):
            make_st_kernel([(bad, gaussian(1.0)), (1.0, gaussian(1.0))], LEGENDRE, normalize=True)

    @pytest.mark.filterwarnings("error")
    def test_infinite_weight_is_domain_error_without_warning(self):
        with pytest.raises(DomainError):
            make_st_kernel([(np.inf, gaussian(1.0)), (1.0, gaussian(1.0))], LEGENDRE, normalize=True)


class TestStKernelEval:
    def test_single_term_product(self):
        k = make_st_kernel([(1.0, gaussian(1.0))], LEGENDRE)
        assert_allclose(st_kernel_eval(k, 0.2, 1.0), math.exp(-0.5), rtol=1e-15)

    def test_reduction_at_time_zero(self):
        rng = np.random.default_rng(1)
        x = np.linspace(-1, 1, 41)
        for _ in range(20):
            k = random_st_kernel(rng, LEGENDRE, rng.integers(0, 12))
            spatial = spatial_sequence(k)
            assert_allclose(
                st_kernel_eval(k, x, 0.0), kernel_eval(spatial, x), rtol=0, atol=1e-12
            )

    def test_two_term_hand_value(self):
        k = make_st_kernel([(0.5, gaussian(1.0)), (0.5, exponential(2.0))], LEGENDRE)
        x, t = 0.4, 0.7
        expected = 0.5 * math.exp(-0.49 / 2) + 0.5 * math.exp(-2 * 0.7) * x
        assert_allclose(st_kernel_eval(k, x, t), expected, rtol=1e-14)

    def test_bound_by_scale(self):
        rng = np.random.default_rng(2)
        xs = np.linspace(-1, 1, 21)
        ts = np.linspace(-5, 5, 21)
        for _ in range(10):
            k = random_st_kernel(rng, LEGENDRE, 8)
            values = st_kernel_eval(k, xs[:, None], ts[None, :])
            assert np.max(np.abs(values)) <= k.scale_c * (1 + 1e-12)
            assert st_kernel_eval(k, 1.0, 0.0) == pytest.approx(k.scale_c, rel=1e-14)

    def test_broadcasting_shapes(self):
        k = make_st_kernel([(1.0, gaussian(1.0))], LEGENDRE)
        out = st_kernel_eval(k, np.zeros((3, 1)), np.zeros((1, 4)))
        assert out.shape == (3, 4)

    def test_nan_lag_is_domain_error(self):
        k = make_st_kernel([(0.5, gaussian(1.0)), (0.5, exponential(2.0))], LEGENDRE)
        for t in (math.nan, [0.0, math.nan]):
            with pytest.raises(DomainError, match="NaN"):
                st_kernel_eval(k, 0.1, t)

    def test_infinite_lag_gives_the_limit(self):
        k = make_st_kernel([(0.5, gaussian(1.0)), (0.5, exponential(2.0))], LEGENDRE)
        assert st_kernel_eval(k, 0.1, [math.inf, -math.inf]).tolist() == [0.0, 0.0]
        held = make_st_kernel([(0.5, gaussian(1.0)), (0.5, point_mass_at_zero())], LEGENDRE)
        assert st_kernel_eval(held, 0.1, math.inf) == 0.5 * 0.1

    def test_domain_error(self):
        k = make_st_kernel([(1.0, gaussian(1.0))], LEGENDRE)
        with pytest.raises(DomainError):
            st_kernel_eval(k, 1.2, 0.0)

    def test_memory_does_not_grow_with_degree_times_points(self):
        # A degree x point table would take 79 MiB here.
        rng = np.random.default_rng(5)
        k = random_st_kernel(rng, LEGENDRE, 100)
        x, t = rng.uniform(-1.0, 1.0, 100_000), rng.uniform(-2.0, 2.0, 100_000)
        tracemalloc.start()
        try:
            st_kernel_eval(k, x, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


def _table_st_kernel_eval(kernel, x, t):
    """Reference: the sum over a whole degree x point table, zero weights skipped."""
    x_b, t_b = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(t, dtype=float))
    table = eval_sequence(kernel.basis, kernel.truncation, x_b)
    acc = np.zeros(x_b.shape)
    for n, cf in enumerate(kernel.charfns):
        if kernel.weights[n] != 0.0:
            acc += kernel.weights[n] * charfn_eval(cf, t_b) * table[n]
    return kernel.scale_c * acc


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from([1, 2, 3, 5]),
    st.integers(0, 2000),
    st.integers(1, 40),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_st_kernel_eval_matches_table_sum_bit_for_bit(d, n_max, n_points, grid, seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 1.0, n_max + 1) * (rng.uniform(size=n_max + 1) < 0.7)
    if not raw.any():
        raw[0] = 1.0
    k = make_st_kernel(
        [(a, random_charfn(rng)) for a in raw], GegenbauerBasis.from_dimension(d), normalize=True
    )
    x = np.append(rng.uniform(-1.0, 1.0, n_points), [-1.0, 1.0])
    t = rng.uniform(-3.0, 3.0, x.size)
    if grid:
        x, t = x[:, None], t[None, :]
    assert np.array_equal(st_kernel_eval(k, x, t), _table_st_kernel_eval(k, x, t))


class TestSchoenbergFunctionsAt:
    def test_time_zero_returns_weights_exactly(self):
        rng = np.random.default_rng(3)
        k = random_st_kernel(rng, LEGENDRE, 9)
        assert np.array_equal(schoenberg_functions_at(k, 0.0), k.weights)

    def test_gaussian_ladder_closed_form(self):
        terms = [(0.25, gaussian(float(n + 1))) for n in range(4)]
        k = make_st_kernel(terms, LEGENDRE)
        got = schoenberg_functions_at(k, 1.0)
        expected = 0.25 * np.exp(-((np.arange(4) + 1.0) ** 2) / 2)
        assert_allclose(got, expected, rtol=1e-14)

    def test_entries_bounded_by_weights(self):
        rng = np.random.default_rng(4)
        k = random_st_kernel(rng, LEGENDRE, 7)
        for t in (0.1, 1.0, 10.0, 1e6):
            assert np.all(np.abs(schoenberg_functions_at(k, t)) <= k.weights + 1e-15)


class TestSeparability:
    def test_all_equal_is_separable(self):
        k = make_st_kernel([(0.3, exponential(1.0)), (0.7, exponential(1.0))], LEGENDRE)
        assert is_separable(k)

    def test_differing_families_not_separable(self):
        k = make_st_kernel([(0.3, gaussian(1.0)), (0.7, exponential(1.0))], LEGENDRE)
        assert not is_separable(k)

    def test_zero_weight_term_is_ignored(self):
        k = make_st_kernel(
            [(1.0, exponential(1.0)), (0.0, gaussian(5.0))], LEGENDRE
        )
        assert is_separable(k)

    def test_param_difference_beyond_tol(self):
        k = make_st_kernel([(0.5, gaussian(1.0)), (0.5, gaussian(1.1))], LEGENDRE)
        assert not is_separable(k)
        assert is_separable(k, tol=0.2)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-12])
    def test_rejects_bad_tol(self, tol):
        k = make_st_kernel([(0.5, gaussian(1.0)), (0.5, exponential(1.0))], LEGENDRE)
        with pytest.raises(DomainError):
            is_separable(k, tol)
        with pytest.raises(DomainError):
            k.separability(tol)

    def test_separability_verdict(self):
        mixed = make_st_kernel([(0.5, gaussian(1.0)), (0.5, exponential(1.0))], LEGENDRE)
        assert mixed.separability() == {"separable": False}
        # Above both weights no term is active, so the tolerance reaches is_separable.
        assert mixed.separability(tol=0.6) == {"separable": True}
        same = make_st_kernel([(0.5, gaussian(1.0)), (0.5, gaussian(1.0))], LEGENDRE)
        assert same.separability() == {"separable": True}

    def test_separable_kernel_factorizes_on_grid(self):
        phi = stable(0.8, 1.5)
        rng = np.random.default_rng(5)
        weights = rng.uniform(0.1, 1.0, 6)
        weights /= weights.sum()
        k = make_st_kernel([(w, phi) for w in weights], LEGENDRE)
        assert is_separable(k)
        xs = np.linspace(-1, 1, 50)
        ts = np.linspace(-2, 2, 50)
        grid = st_kernel_eval(k, xs[:, None], ts[None, :])
        factored = kernel_eval(spatial_sequence(k), xs)[:, None] * charfn_eval(phi, ts)[None, :]
        assert np.max(np.abs(grid - factored)) <= 1e-12
