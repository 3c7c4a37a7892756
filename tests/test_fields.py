"""Point sets, Gram matrices, the eigenvalue oracle, and field samplers."""

import json
import math
import subprocess
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from helpers import REFERENCE_POINT_SET_METHODS, cli_env, random_ps_kernel, random_sequence, random_st_kernel
from spherecov import (
    DomainError,
    FactorizationError,
    FieldSample,
    GegenbauerBasis,
    GeometryError,
    GramMatrix,
    ProductPointSet,
    SpherePointSet,
    SpaceTimePointSet,
    certify,
    empirical_covariance,
    eval_normalized,
    eval_sequence,
    gaussian,
    geodesic_cosine,
    gram,
    harmonic_dimension,
    kernel_eval,
    kernel_label,
    make_ps_kernel,
    make_sequence,
    make_st_kernel,
    min_eigenvalue,
    multiquadric_sequence,
    norm_squared,
    quadrature,
    real_spherical_harmonics,
    recover_coefficients,
    sample_factorized,
    sample_spectral_s2,
    schur_product,
    uniform_sphere_points,
)
from spherecov import fields, gegenbauer
from spherecov.gegenbauer import MAX_SEED
from spherecov.fields import _factor, _row_arguments, _sample_blocks

LEGENDRE = GegenbauerBasis.from_index(0.5)


def _sphere_set(points):
    points = np.asarray(points, dtype=float)
    return SpherePointSet(dimension=points.shape[1] - 1, points=points)


class TestPointSets:
    def test_sphere_set_accepts_unit_rows(self):
        s = _sphere_set([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        assert len(s) == 2
        assert s.points.flags.writeable is False

    def test_sphere_set_rejects_bad_norm(self):
        with pytest.raises(GeometryError):
            _sphere_set([[1.0, 0.0, 0.0], [0.0, 0.0, 1.1]])

    def test_sphere_set_rejects_bad_shape(self):
        with pytest.raises(GeometryError):
            SpherePointSet(dimension=2, points=[[1.0, 0.0]])
        with pytest.raises(GeometryError):
            SpherePointSet(dimension=2, points=np.empty((0, 3)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_sphere_set_rejects_non_finite_coordinates(self, bad):
        with pytest.raises(GeometryError, match="finite"):
            _sphere_set([[1.0, 0.0, 0.0], [bad, 0.0, 0.0]])

    def test_sphere_set_rejects_bad_dimension(self):
        with pytest.raises(GeometryError):
            SpherePointSet(dimension=0, points=[[1.0]])

    @pytest.mark.parametrize("dimension", ["2", None, 2.5], ids=["string", "none", "float"])
    def test_sphere_set_dimension_must_be_an_integer(self, dimension):
        with pytest.raises(GeometryError, match="^sphere dimension must be an integer, got "):
            SpherePointSet(dimension=dimension, points=np.eye(3))

    def test_spacetime_set_pairs_points_with_times(self):
        s = _sphere_set(np.eye(3))
        st = SpaceTimePointSet(space=s, times=[0.0, 1.0, -2.0])
        assert len(st) == 3

    def test_spacetime_set_rejects_length_mismatch(self):
        s = _sphere_set(np.eye(3))
        with pytest.raises(GeometryError):
            SpaceTimePointSet(space=s, times=[0.0, 1.0])

    def test_spacetime_set_rejects_nonfinite_times(self):
        s = _sphere_set(np.eye(3))
        with pytest.raises(GeometryError):
            SpaceTimePointSet(space=s, times=[0.0, np.inf, 1.0])

    def test_product_set_rejects_length_mismatch(self):
        a = _sphere_set(np.eye(3))
        b = _sphere_set(np.eye(3)[:2])
        with pytest.raises(GeometryError):
            ProductPointSet(first=a, second=b)


class TestGramMatrixType:
    def test_rejects_nonsquare(self):
        with pytest.raises(DomainError):
            GramMatrix(entries=np.ones((2, 3)), provenance="test")

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            GramMatrix(entries=[[1.0, 0.5], [0.0, 1.0]], provenance="test")

    def test_symmetry_tolerance_is_relative(self):
        big = 1e6 * np.ones((2, 2))
        big[0, 1] += 1e-7
        GramMatrix(entries=big, provenance="test")


def _symmetric_within_tolerance(m: np.ndarray) -> bool:
    """The tolerance-only test that GramMatrix ran before its exact-symmetry
    short cut: square, and no |m_ij - m_ji| over SYMMETRY_TOL · max(1, max |m_ij|)."""
    if m.shape[0] != m.shape[1]:
        return False
    scale = max(1.0, float(np.abs(m).max()))
    return float(np.abs(m - m.T).max()) <= fields.SYMMETRY_TOL * scale


@st.composite
def near_symmetric_matrices(draw):
    """A symmetric matrix with ±0.0 mixed across the diagonal, one entry of
    which is then moved by a multiple of the tolerance near 1, or a matrix
    with one column too many."""
    n = draw(st.integers(1, 5))
    entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-1e6, 1e6))
    m = np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n))).reshape(n, n)
    m = np.triu(m) + np.triu(m, 1).T
    lower = np.tril_indices(n, -1)
    flips = np.array(draw(st.lists(st.booleans(), min_size=lower[0].size, max_size=lower[0].size)), dtype=bool)
    m[lower] = np.where(flips & (m[lower] == 0.0), -m[lower], m[lower])
    if n > 1:
        i, j = draw(st.permutations(range(n)))[:2]
        factor = draw(st.sampled_from([0.0, 0.5, 1.0 - 2.0**-40, 1.0, 1.0 + 2.0**-40, 2.0, -1.0]))
        m[i, j] = m[j, i] + factor * fields.SYMMETRY_TOL * max(1.0, float(np.abs(m).max()))
    if draw(st.booleans()):
        m = np.hstack((m, m[:, :1]))
    return m


@settings(max_examples=200, deadline=None)
@given(near_symmetric_matrices())
@example(np.array([[1.0, 0.0], [1e-12, 1.0]]))  # asymmetry exactly at the tolerance
@example(np.array([[1.0, 0.0], [np.nextafter(1e-12, 1.0), 1.0]]))  # one ulp beyond it
@example(np.array([[2e6, -0.0], [0.0, 1.0]]))
@example(np.array([[1.0, 2e-6], [0.0, 2e6]]))  # at a tolerance scaled by the largest entry
@example(np.ones((2, 3)))
def test_exact_symmetry_short_cut_accepts_what_the_tolerance_test_accepts(entries):
    expect = _symmetric_within_tolerance(entries)
    try:
        GramMatrix(entries=entries, provenance="test")
    except DomainError:
        assert not expect
    else:
        assert expect


class TestFieldSampleType:
    def test_rejects_non_2d(self):
        with pytest.raises(DomainError):
            FieldSample(values=np.ones(5), seed=0, kernel_id="test")

    def test_shape_properties(self):
        s = FieldSample(values=np.ones((7, 3)), seed=0, kernel_id="test")
        assert s.n_samples == 7
        assert s.n_points == 3

    def test_keeps_a_read_only_owned_array(self):
        arr = np.ones((7, 3))
        arr.setflags(write=False)
        assert FieldSample(values=arr, seed=0, kernel_id="test").values is arr

    def test_copies_a_writeable_array(self):
        arr = np.ones((7, 3))
        s = FieldSample(values=arr, seed=0, kernel_id="test")
        arr[0, 0] = 5.0
        assert arr.flags.writeable
        assert s.values[0, 0] == 1.0


class TestTypedIntake:
    """Every stored or checked array goes through one intake: a non-numeric,
    ragged, empty or non-finite input is a typed error, never a NaN result."""

    @pytest.mark.parametrize(
        "call, error",
        [
            (lambda: min_eigenvalue([[math.nan, 0.0], [0.0, 1.0]]), DomainError),
            (lambda: min_eigenvalue(np.empty((0, 0))), DomainError),
            (lambda: min_eigenvalue("ab"), DomainError),
            (lambda: GramMatrix(entries=[[None]], provenance="test"), DomainError),
            (lambda: GramMatrix(entries=[[1.0, 0.0], [0.0]], provenance="test"), DomainError),
            (lambda: FieldSample(values=[[0.0, math.nan]], seed=0, kernel_id="test"), DomainError),
            (lambda: FieldSample(values="abc", seed=0, kernel_id="test"), DomainError),
            (lambda: FieldSample(values=[[1.0], [1.0, 2.0]], seed=0, kernel_id="test"), DomainError),
            (lambda: FieldSample(values=np.empty((0, 3)), seed=0, kernel_id="test"), DomainError),
            (lambda: SpherePointSet(dimension=2, points="abc"), GeometryError),
            (lambda: SpherePointSet(dimension=2, points=[[1.0, 0.0, 0.0], [1.0, 0.0]]), GeometryError),
            (lambda: SpaceTimePointSet(space=_sphere_set(np.eye(3)), times="abc"), GeometryError),
            (lambda: SpaceTimePointSet(space=_sphere_set(np.eye(3)), times=[[0.0, 1.0, 2.0]]), GeometryError),
        ],
        ids=[
            "min-eigenvalue-nan", "min-eigenvalue-empty", "min-eigenvalue-string", "gram-none", "gram-ragged",
            "sample-nan", "sample-string", "sample-ragged", "sample-empty", "points-string", "points-ragged",
            "times-string", "times-2-D",
        ],
    )
    def test_bad_array_is_a_typed_error(self, call, error):
        with pytest.raises(error):
            call()

    @pytest.mark.parametrize("values", ["abc", [[1.0], [1.0, 2.0]], [[1.0, math.nan]]])
    def test_bad_coefficients_are_domain_errors(self, values):
        with pytest.raises(DomainError):
            make_ps_kernel(values, LEGENDRE, LEGENDRE)
        with pytest.raises(DomainError):
            make_sequence(values, LEGENDRE)


class TestHandOver:
    """`gram` and the samplers hand their fresh output to the result instead
    of having it copied. Each bound sits between the peak with the hand-over
    and the peak with one more copy of the output."""

    @staticmethod
    def _peak(call) -> int:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_gram_holds_four_n_squared_arrays(self):
        # Upper-triangle indices (one n² array), its cosines and values (half
        # each) and the matrix; the kernel's block table is one more.
        n = 500
        seq = make_sequence([0.5, 0.5], LEGENDRE)
        pts = uniform_sphere_points(2, n, 3)
        assert self._peak(lambda: gram(seq, pts)) < 4.75 * 8 * n * n

    def test_gram_holds_the_matrix_the_cosines_and_one_block_table(self):
        # The matrix, the n × n cosine matrix and the (N+1)-row degree table of
        # one block of `_GRAM_BLOCK_ENTRIES` pairs, plus 1 MiB for the block's
        # arguments, mask and sums. A one-call triangle fill peaks at 32.2 MiB
        # here, over the bound.
        n, n_max = 1000, 100
        seq = random_sequence(np.random.default_rng(5), LEGENDRE, n_max)
        pts = uniform_sphere_points(2, n, 3)
        table = 8 * (n_max + 1) * fields._GRAM_BLOCK_ENTRIES
        assert self._peak(lambda: gram(seq, pts)) < 2 * 8 * n * n + table + 2**20

    @pytest.mark.parametrize("method, outputs", [("factorized", 2), ("spectral", 1)])
    def test_sampler_holds_its_output_once(self, method, outputs):
        # The factorized sampler also holds its normals, which are as large as
        # the output; the spectral one holds a 9-row table and a block of normals.
        n_points, n_samples = 100, 10_000
        seq = make_sequence([0.2, 0.5, 0.3], LEGENDRE)
        pts = uniform_sphere_points(2, n_points, 3)
        sampler = sample_factorized if method == "factorized" else sample_spectral_s2
        sample = sampler(seq, pts, n_samples, 4)
        assert not sample.values.flags.writeable
        peak = self._peak(lambda: sampler(seq, pts, n_samples, 4))
        assert peak < (outputs + 0.5) * 8 * n_points * n_samples

    @pytest.mark.parametrize("operation", ["schur_product", "empirical_covariance"])
    def test_fresh_matrix_is_handed_over(self, operation):
        # The result and the symmetry check's |G - G^T|; a copy would be a third.
        n = 1000
        if operation == "schur_product":
            g = gram(make_sequence([0.5, 0.5], LEGENDRE), uniform_sphere_points(2, n, 3))
            call = lambda: schur_product(g, g)  # noqa: E731
        else:
            s = FieldSample(values=np.random.default_rng(4).standard_normal((3, n)), seed=0, kernel_id="test")
            call = lambda: empirical_covariance(s)  # noqa: E731
        assert not call().entries.flags.writeable
        assert self._peak(call) < 2.2 * 8 * n * n


def _same_array(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestFactorProtocol:
    """The point-set protocol, written once over each point set's factors,
    gives the bytes of the members each class once wrote itself
    (`helpers.REFERENCE_POINT_SET_METHODS`)."""

    @settings(max_examples=100, deadline=None)
    @given(
        kind=st.sampled_from([SpherePointSet, SpaceTimePointSet, ProductPointSet]),
        d1=st.integers(1, 4),
        d2=st.integers(1, 4),
        n=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_members_match_the_reference(self, kind, d1, d2, n, seed):
        ref = REFERENCE_POINT_SET_METHODS[kind]
        dims = (d1, d2) if kind is ProductPointSet else (d1,)
        states = np.random.SeedSequence(seed).generate_state(2)
        pts, expected = kind.random(dims, n, states), ref.random(dims, n, states)
        assert type(pts) is kind and len(pts) == n
        assert _same_array(ref.columns(pts), ref.columns(expected))
        assert pts.dimensions == ref.dimensions(expected) == dims
        assert kind.n_columns(dims) == ref.n_columns(dims)
        data = ref.columns(expected)
        assert _same_array(pts.columns(), data)
        back = kind.from_columns(dims, data)
        assert type(back) is kind
        assert _same_array(ref.columns(back), ref.columns(ref.from_columns(dims, data)))
        # The kernel arguments `gram` reads, one block of all n rows: the
        # upper-triangle pairs in `np.triu_indices` order.
        got = _row_arguments(pts._row_factors(), slice(0, n))
        want = ref.pair_arguments(expected, np.triu_indices(n))
        assert len(got) == len(want)
        assert all(_same_array(g, w) for g, w in zip(got, want))

    @pytest.mark.parametrize("kind", [SpherePointSet, SpaceTimePointSet, ProductPointSet])
    @pytest.mark.parametrize("extra", [-1, 1])
    def test_from_columns_rejects_a_wrong_width(self, kind, extra):
        dims = (2, 1) if kind is ProductPointSet else (2,)
        data = kind.random(dims, 5, [1, 2]).columns()
        data = np.column_stack([data, data[:, :1]]) if extra > 0 else data[:, :-1]
        with pytest.raises(GeometryError):
            kind.from_columns(dims, data)


class TestUniformSpherePoints:
    def test_unit_norms(self):
        s = uniform_sphere_points(2, 5, seed=42)
        assert_allclose(np.linalg.norm(s.points, axis=1), 1.0, rtol=0, atol=1e-12)

    def test_mean_vector_shrinks(self):
        s = uniform_sphere_points(1, 10_000, seed=1)
        assert np.linalg.norm(s.points.mean(axis=0)) <= 0.05

    def test_deterministic(self):
        a = uniform_sphere_points(3, 50, seed=7)
        b = uniform_sphere_points(3, 50, seed=7)
        assert_array_equal(a.points, b.points)

    def test_different_seeds_differ(self):
        a = uniform_sphere_points(2, 10, seed=0)
        b = uniform_sphere_points(2, 10, seed=1)
        assert not np.array_equal(a.points, b.points)

    def test_redraws_a_zero_draw(self, monkeypatch):
        # A stub generator whose first draw has a zero row: that row alone is
        # drawn again, and the rest keep their first values.
        draws = iter([np.array([[3.0, 0.0, 4.0], [0.0, 0.0, 0.0], [0.0, 2.0, 0.0]]), np.array([[0.0, 0.0, -5.0]])])

        class Stub:
            def standard_normal(self, shape):
                draw = next(draws)
                assert draw.shape == shape
                return draw

        monkeypatch.setattr(np.random, "default_rng", lambda seed: Stub())
        s = uniform_sphere_points(2, 3, seed=0)
        assert_array_equal(s.points, [[0.6, 0.0, 0.8], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        assert next(draws, None) is None

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            uniform_sphere_points(0, 5, seed=0)
        with pytest.raises(DomainError):
            uniform_sphere_points(2, 0, seed=0)


def _square(x):
    return x * x


class TestIntegerArguments:
    """Counts, degrees, orders, dimensions and seeds must be integers (Python or
    numpy, not a float or a bool) in range; anything else is a DomainError."""

    POINTS = uniform_sphere_points(2, 4, 0)
    SEQ = make_sequence([0.5, 0.5], LEGENDRE)
    CALLS = {
        "points-d": lambda v: uniform_sphere_points(v, 3, 0),
        "points-n": lambda v: uniform_sphere_points(2, v, 0),
        "points-seed": lambda v: uniform_sphere_points(2, 3, v),
        "factorized-samples": lambda v: sample_factorized(TestIntegerArguments.SEQ, TestIntegerArguments.POINTS, v, 0),
        "factorized-seed": lambda v: sample_factorized(TestIntegerArguments.SEQ, TestIntegerArguments.POINTS, 2, v),
        "spectral-samples": lambda v: sample_spectral_s2(TestIntegerArguments.SEQ, TestIntegerArguments.POINTS, v, 0),
        "spectral-seed": lambda v: sample_spectral_s2(TestIntegerArguments.SEQ, TestIntegerArguments.POINTS, 2, v),
        "harmonic-d": lambda v: harmonic_dimension(v, 2),
        "harmonic-n": lambda v: harmonic_dimension(2, v),
        "harmonics-n_max": lambda v: real_spherical_harmonics(v, TestIntegerArguments.POINTS),
        "eval_sequence-n_max": lambda v: eval_sequence(LEGENDRE, v, 0.5),
        "eval_normalized-n": lambda v: eval_normalized(LEGENDRE, v, 0.5),
        "norm_squared-n": lambda v: norm_squared(LEGENDRE, v),
        "quadrature-order": lambda v: quadrature(0.5, v),
        "recover-n_max": lambda v: recover_coefficients(_square, LEGENDRE, v, 8),
        "recover-quad_order": lambda v: recover_coefficients(_square, LEGENDRE, 1, v),
        "certify-n_max": lambda v: certify(_square, LEGENDRE, n_max=v, gram_trials=1),
        "certify-gram_trials": lambda v: certify(_square, LEGENDRE, n_max=4, gram_trials=v),
        "certify-seed": lambda v: certify(_square, LEGENDRE, n_max=4, gram_trials=1, seed=v),
        "multiquadric-n_max": lambda v: multiquadric_sequence(0.5, LEGENDRE, v),
    }
    # Values with no cap, for which 10**5000 is a valid integer like any other.
    # Seeds have one (`MAX_SEED`, tested in `TestSeedCap`).
    UNCAPPED = {"harmonic-d", "harmonic-n"}

    @pytest.mark.parametrize(
        "value", [2.5, 2.0, -1, "2", None, True, [2], pytest.param(-(10**5000), id="-10**5000")], ids=repr
    )
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_bad_value_is_domain_error(self, call, value):
        with pytest.raises(DomainError):
            self.CALLS[call](value)

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_integer_beyond_str_is_over_the_cap_or_valid(self, call):
        # 10**5000 has too many digits for `str`, so no message may print it.
        if call in self.UNCAPPED:
            self.CALLS[call](10**5000)
        else:
            with pytest.raises(DomainError, match="<int too long to print>"):
                self.CALLS[call](10**5000)

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_numpy_integer_is_accepted(self, call):
        self.CALLS[call](np.uint32(2))

    @settings(max_examples=300, deadline=None)
    @given(
        value=st.integers() | st.integers(4300, 5000).map(lambda k: 10**k) | st.integers(4300, 5000).map(lambda k: -(10**k)),
        least=st.integers(-3, 3),
        most=st.none() | st.integers(-3, 10**6),
    )
    def test_check_count_returns_the_value_or_raises_domain_error(self, value, least, most):
        valid = least <= value and (most is None or value <= most)
        try:
            count = gegenbauer._check_count(value, "n", least, most=most)
        except DomainError as exc:
            assert not valid and len(str(exc)) < 200
        else:
            assert valid and type(count) is int and count == value


class TestSeedCap:
    """Every seed intake takes seeds up to MAX_SEED = 2**128 - 1 and no more."""

    SEQ = make_sequence([0.5, 0.5], LEGENDRE)
    POINTS = uniform_sphere_points(2, 4, 0)
    CALLS = {
        "points": lambda s: uniform_sphere_points(2, 3, s),
        "factorized": lambda s: sample_factorized(TestSeedCap.SEQ, TestSeedCap.POINTS, 2, s),
        "spectral": lambda s: sample_spectral_s2(TestSeedCap.SEQ, TestSeedCap.POINTS, 2, s),
        "certify": lambda s: certify(_square, LEGENDRE, n_max=4, gram_trials=1, seed=s),
    }

    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_cap_is_accepted_and_one_more_is_a_domain_error(self, call):
        assert MAX_SEED == 2**128 - 1
        self.CALLS[call](MAX_SEED)
        with pytest.raises(DomainError, match=rf"^seed {MAX_SEED + 1} exceeds the supported cap {MAX_SEED}$"):
            self.CALLS[call](MAX_SEED + 1)

    def test_certificate_at_the_cap_serializes(self):
        cert = certify(_square, LEGENDRE, n_max=4, gram_trials=1, seed=MAX_SEED)
        assert json.loads(json.dumps(cert.to_dict()))["seed"] == MAX_SEED


class TestGeodesicCosine:
    def test_same_point(self):
        p = np.array([0.6, 0.8, 0.0])
        assert geodesic_cosine(p, p) == 1.0

    def test_antipodal(self):
        p = np.array([0.6, 0.8, 0.0])
        assert geodesic_cosine(p, -p) == -1.0

    def test_orthonormal(self):
        assert geodesic_cosine([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_clamps_rounding(self):
        p = uniform_sphere_points(2, 1, seed=3).points[0]
        assert abs(geodesic_cosine(p, p)) <= 1.0

    @pytest.mark.parametrize(
        "p, q, message",
        [
            (1.0, [1.0, 0.0], "p must be a vector"),
            ([1.0, 0.0], [[1.0, 0.0]], "q must be a vector"),
            ([1.0, 0.0], [0.0, 0.0, 1.0], "p and q must have the same length"),
        ],
        ids=["scalar-p", "matrix-q", "unequal-lengths"],
    )
    def test_rejects_non_vectors_and_unequal_lengths(self, p, q, message):
        with pytest.raises(DomainError) as excinfo:
            geodesic_cosine(p, q)
        assert str(excinfo.value) == message

    def test_rejects_norm_violation(self):
        with pytest.raises(DomainError):
            geodesic_cosine([2.0, 0.0], [1.0, 0.0])


class TestGram:
    def test_constant_kernel_all_ones(self):
        seq = make_sequence([1.0], LEGENDRE)
        pts = uniform_sphere_points(2, 4, seed=0)
        g = gram(seq, pts)
        assert_allclose(g.entries, np.ones((4, 4)), rtol=0, atol=0)

    def test_degree_one_orthogonal_points(self):
        seq = make_sequence([0.0, 1.0], LEGENDRE)
        pts = _sphere_set([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        g = gram(seq, pts)
        assert_allclose(g.entries, np.eye(2), rtol=0, atol=1e-15)

    def test_diagonal_is_value_at_one(self):
        rng = np.random.default_rng(10)
        seq = random_sequence(rng, LEGENDRE, 6)
        pts = uniform_sphere_points(2, 8, seed=11)
        g = gram(seq, pts)
        assert_allclose(np.diag(g.entries), kernel_eval(seq, 1.0), rtol=1e-12)

    def test_random_kernel_is_psd(self):
        rng = np.random.default_rng(12)
        seq = random_sequence(rng, LEGENDRE, 8)
        pts = uniform_sphere_points(2, 25, seed=13)
        g = gram(seq, pts)
        norm = float(np.abs(g.entries).max())
        assert min_eigenvalue(g) >= -1e-9 * norm

    def test_spacetime_gram_uses_lags(self):
        k = make_st_kernel([(1.0, gaussian(1.0))], LEGENDRE)
        pts = SpaceTimePointSet(
            space=_sphere_set([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]]),
            times=[0.0, 2.0],
        )
        g = gram(k, pts)
        assert_allclose(g.entries[0, 1], math.exp(-2.0), rtol=1e-14)

    def test_product_gram_matches_direct_eval(self):
        rng = np.random.default_rng(14)
        k = random_ps_kernel(rng, LEGENDRE, LEGENDRE, 3, 2)
        pts = ProductPointSet(
            first=uniform_sphere_points(2, 6, seed=15),
            second=uniform_sphere_points(2, 6, seed=16),
        )
        g = gram(k, pts)
        assert_allclose(g.entries, g.entries.T, rtol=0, atol=0)
        assert min_eigenvalue(g) >= -1e-9

    def test_geometry_mismatch(self):
        seq = make_sequence([1.0], LEGENDRE)
        with pytest.raises(GeometryError):
            gram(seq, uniform_sphere_points(3, 4, seed=0))
        with pytest.raises(GeometryError):
            gram(seq, "not a point set")

    def test_kernel_label_round_trip(self):
        seq = make_sequence([0.5, 0.5], LEGENDRE)
        assert kernel_label(seq) == "sphere(d=2, n_max=1)"
        with pytest.raises(GeometryError):
            kernel_label("not a kernel")


CIRCLE = GegenbauerBasis.from_index(0.0)


def _triangle_gram(kernel, points) -> np.ndarray:
    """The fill `gram` used before row blocks: every upper-triangle pair of
    `np.triu_indices` in one kernel call, scattered to both triangles."""
    n = len(points)
    iu = np.triu_indices(n)
    values = kernel.values(*REFERENCE_POINT_SET_METHODS[type(points)].pair_arguments(points, iu))
    entries = np.empty((n, n))
    entries[iu] = values
    entries[iu[1], iu[0]] = values
    return entries


def _kernel_and_points(family, n, seed):
    rng = np.random.default_rng(seed)
    space = uniform_sphere_points(2, n, seed)
    if family == "sphere":
        return random_sequence(rng, LEGENDRE, 12), space
    if family == "sphere_time":
        return random_st_kernel(rng, LEGENDRE, 8), SpaceTimePointSet(space=space, times=rng.uniform(0.0, 2.0, n))
    second = uniform_sphere_points(1, n, seed + 1)
    return random_ps_kernel(rng, LEGENDRE, CIRCLE, 4, 3), ProductPointSet(first=space, second=second)


_FAMILIES = ["sphere", "sphere_time", "product"]


class TestGramRowBlocks:
    """`gram` evaluates the upper triangle one block of rows at a time and
    mirrors it; the matrix must have the bytes of the one-call triangle fill."""

    # The most points whose n(n+1)/2 pairs fit one block (180 for 16384 pairs).
    ONE_BLOCK = (math.isqrt(8 * fields._GRAM_BLOCK_ENTRIES + 1) - 1) // 2

    @pytest.mark.parametrize("family", _FAMILIES)
    @pytest.mark.parametrize("n", [1, 2, 3, ONE_BLOCK, ONE_BLOCK + 1])
    def test_bytes_match_the_triangle_fill(self, family, n):
        assert len(list(fields._row_blocks(n))) == (2 if n > self.ONE_BLOCK else 1)
        kernel, points = _kernel_and_points(family, n, 40 + n)
        assert gram(kernel, points).entries.tobytes() == _triangle_gram(kernel, points).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(_FAMILIES), n=st.integers(1, 40), budget=st.integers(1, 80), seed=st.integers(0, 2**16)
    )
    def test_bytes_do_not_depend_on_the_block_size(self, family, n, budget, seed):
        kernel, points = _kernel_and_points(family, n, seed)
        with mock.patch.object(fields, "_GRAM_BLOCK_ENTRIES", budget):
            entries = gram(kernel, points).entries
        assert entries.tobytes() == _triangle_gram(kernel, points).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 300), budget=st.integers(1, 2000))
    def test_blocks_are_the_fewest_within_the_budget(self, n, budget):
        with mock.patch.object(fields, "_GRAM_BLOCK_ENTRIES", budget):
            blocks = list(fields._row_blocks(n))
        assert [i for rows in blocks for i in range(n)[rows]] == list(range(n))
        for rows, after in zip(blocks, blocks[1:] + [None]):
            pairs = sum(n - i for i in range(rows.start, rows.stop))
            assert pairs <= budget or rows.stop - rows.start == 1
            # Taking the next row as well would go over the budget.
            assert after is None or pairs + n - rows.stop > budget


class TestMinEigenvalue:
    def test_identity(self):
        assert_allclose(min_eigenvalue(np.eye(3)), 1.0, rtol=1e-12)

    def test_all_ones(self):
        assert_allclose(min_eigenvalue(np.ones((5, 5))), 0.0, rtol=0, atol=1e-10 * 5)

    def test_indefinite_diagonal(self):
        assert_allclose(min_eigenvalue(np.diag([1.0, -0.5])), -0.5, rtol=1e-14)

    def test_accepts_gram_matrix(self):
        g = GramMatrix(entries=np.eye(2), provenance="test")
        assert min_eigenvalue(g) == 1.0

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            min_eigenvalue(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(DomainError):
            min_eigenvalue(np.ones((2, 3)))


class TestSchurProduct:
    def test_all_ones_is_identity_element(self):
        a = GramMatrix(entries=np.diag([1.0, 2.0]), provenance="a")
        ones = GramMatrix(entries=np.ones((2, 2)), provenance="ones")
        assert_array_equal(schur_product(a, ones).entries, a.entries)

    def test_diagonal_example(self):
        a = GramMatrix(entries=np.diag([1.0, 2.0]), provenance="a")
        b = GramMatrix(entries=np.diag([3.0, 4.0]), provenance="b")
        assert_array_equal(schur_product(a, b).entries, np.diag([3.0, 8.0]))

    def test_product_of_psd_grams_stays_psd(self):
        rng = np.random.default_rng(20)
        pts = uniform_sphere_points(2, 20, seed=21)
        g1 = gram(random_sequence(rng, LEGENDRE, 6), pts)
        g2 = gram(random_sequence(rng, LEGENDRE, 9), pts)
        prod = schur_product(g1, g2)
        norm = float(np.abs(prod.entries).max())
        assert min_eigenvalue(prod) >= -1e-10 * max(1.0, norm)

    def test_dimension_mismatch(self):
        a = GramMatrix(entries=np.eye(2), provenance="a")
        b = GramMatrix(entries=np.eye(3), provenance="b")
        with pytest.raises(DomainError):
            schur_product(a, b)


class TestFactor:
    def test_reconstructs_psd_matrix(self):
        rng = np.random.default_rng(30)
        a = rng.standard_normal((6, 6))
        m = a @ a.T
        f = _factor(m, 0.0)
        assert_allclose(f @ f.T, m, rtol=0, atol=1e-10)

    def test_rank_deficient_goes_through_eigen_route(self):
        m = np.ones((4, 4))
        f = _factor(m, 0.0)
        assert_allclose(f @ f.T, m, rtol=0, atol=1e-12)

    def test_indefinite_raises_with_min_eigenvalue(self):
        with pytest.raises(FactorizationError) as info:
            _factor(np.diag([1.0, -0.5]), 0.0)
        assert_allclose(info.value.min_eigenvalue, -0.5, rtol=1e-12)

    def test_eigen_failure_is_a_factorization_error(self, monkeypatch):
        # Cholesky fails on a rank-deficient matrix; then eigh fails too.
        def fail(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(FactorizationError) as excinfo:
            _factor(np.ones((3, 3)), 0.0)
        assert str(excinfo.value) == "eigen-decomposition failed: Eigenvalues did not converge"
        assert isinstance(excinfo.value.__cause__, np.linalg.LinAlgError)

    @pytest.mark.parametrize("family", _FAMILIES)
    @pytest.mark.parametrize("jitter", [None, 0.0, 1e-3])
    def test_jitter_on_the_diagonal_equals_adding_a_scaled_identity(self, family, jitter):
        # 200 points are more than the ranks of the sphere kernel (169) and the
        # product kernel (175), so jitter 0.0 takes the eigen route there; the
        # other cases take Cholesky.
        g = gram(*_kernel_and_points(family, 200, 7)).entries
        jitter = fields._default_jitter(g) if jitter is None else jitter
        m = g + jitter * np.eye(len(g))
        try:
            expected = np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            w, v = np.linalg.eigh(m)
            expected = v * np.sqrt(np.clip(w, 0.0, None))
        assert _factor(g, jitter).tobytes() == expected.tobytes()


class TestSampleFactorized:
    def test_constant_kernel_gives_constant_realizations(self):
        seq = make_sequence([1.0], LEGENDRE)
        pts = uniform_sphere_points(2, 3, seed=40)
        s = sample_factorized(seq, pts, n_samples=1000, seed=41, jitter=0.0)
        spread = s.values.max(axis=1) - s.values.min(axis=1)
        assert spread.max() <= 1e-12

    def test_empirical_covariance_converges(self):
        rng = np.random.default_rng(42)
        seq = random_sequence(rng, LEGENDRE, 5)
        pts = uniform_sphere_points(2, 10, seed=43)
        g = gram(seq, pts)
        s = sample_factorized(seq, pts, n_samples=10_000, seed=44)
        c = empirical_covariance(s)
        assert float(np.abs(c.entries - g.entries).max()) <= 4.0 / math.sqrt(10_000)

    def test_deterministic(self):
        seq = make_sequence([0.5, 0.5], LEGENDRE)
        pts = uniform_sphere_points(2, 4, seed=45)
        a = sample_factorized(seq, pts, n_samples=8, seed=46)
        b = sample_factorized(seq, pts, n_samples=8, seed=46)
        assert_array_equal(a.values, b.values)

    def test_works_for_spacetime_and_product_kernels(self):
        rng = np.random.default_rng(47)
        st = random_st_kernel(rng, LEGENDRE, 3)
        st_pts = SpaceTimePointSet(
            space=uniform_sphere_points(2, 5, seed=48),
            times=np.linspace(0.0, 1.0, 5),
        )
        assert sample_factorized(st, st_pts, n_samples=3, seed=49).n_points == 5
        ps = random_ps_kernel(rng, LEGENDRE, LEGENDRE, 2, 2)
        ps_pts = ProductPointSet(
            first=uniform_sphere_points(2, 5, seed=50),
            second=uniform_sphere_points(2, 5, seed=51),
        )
        assert sample_factorized(ps, ps_pts, n_samples=3, seed=52).n_points == 5

    def test_rejects_bad_arguments(self):
        seq = make_sequence([1.0], LEGENDRE)
        pts = uniform_sphere_points(2, 3, seed=53)
        with pytest.raises(DomainError):
            sample_factorized(seq, pts, n_samples=0, seed=0)
        with pytest.raises(DomainError):
            sample_factorized(seq, pts, n_samples=2, seed=0, jitter=-1.0)

    @pytest.mark.parametrize("jitter", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_jitter(self, jitter):
        seq = make_sequence([1.0], LEGENDRE)
        pts = uniform_sphere_points(2, 3, seed=53)
        with pytest.raises(DomainError):
            sample_factorized(seq, pts, n_samples=2, seed=0, jitter=jitter)


class TestHarmonicDimension:
    def test_two_sphere(self):
        assert harmonic_dimension(2, 3) == 7

    def test_degree_zero(self):
        for d in (1, 2, 3, 9):
            assert harmonic_dimension(d, 0) == 1

    def test_circle(self):
        assert harmonic_dimension(1, 5) == 2

    def test_three_sphere(self):
        # N(3, n) = (n+1)^2.
        assert [harmonic_dimension(3, n) for n in range(4)] == [1, 4, 9, 16]

    @pytest.mark.parametrize("d", range(1, 12))
    def test_matches_the_factorial_formula(self, d):
        # (2n + d − 1)(n + d − 2)! / (n! (d − 1)!) for n ≥ 1.
        for n in range(1, 300):
            expected = (2 * n + d - 1) * math.factorial(n + d - 2) // (math.factorial(n) * math.factorial(d - 1))
            assert harmonic_dimension(d, n) == expected

    def test_two_sphere_at_high_degree(self):
        assert harmonic_dimension(2, 4 * 10**5) == 8 * 10**5 + 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            harmonic_dimension(0, 1)
        with pytest.raises(DomainError):
            harmonic_dimension(2, -1)


def _reference_harmonics(n_max, points):
    """The triple-loop table that `real_spherical_harmonics` used to build:
    an (N+1) x (N+1) x n array of P̄_n^m, then one table row per (n, m)."""
    xyz = points.points
    npts = xyz.shape[0]
    cos_t = np.clip(xyz[:, 2], -1.0, 1.0)
    sin_t = np.hypot(xyz[:, 0], xyz[:, 1])
    phi = np.arctan2(xyz[:, 1], xyz[:, 0])
    legendre = np.zeros((n_max + 1, n_max + 1, npts))
    legendre[0, 0] = math.sqrt(1.0 / (4.0 * math.pi))
    for m in range(1, n_max + 1):
        legendre[m, m] = math.sqrt((2.0 * m + 1.0) / (2.0 * m)) * sin_t * legendre[m - 1, m - 1]
    for m in range(n_max):
        legendre[m + 1, m] = math.sqrt(2.0 * m + 3.0) * cos_t * legendre[m, m]
    for m in range(n_max + 1):
        for n in range(m + 2, n_max + 1):
            a = math.sqrt((2.0 * n - 1.0) * (2.0 * n + 1.0) / ((n - m) * (n + m)))
            b = math.sqrt(
                (2.0 * n + 1.0) * (n - 1.0 - m) * (n - 1.0 + m)
                / ((2.0 * n - 3.0) * (n - m) * (n + m))
            )
            legendre[n, m] = a * cos_t * legendre[n - 1, m] - b * legendre[n - 2, m]
    table = np.empty(((n_max + 1) ** 2, npts))
    sqrt2 = math.sqrt(2.0)
    for n in range(n_max + 1):
        base = n * n + n
        table[base] = legendre[n, 0]
        for m in range(1, n + 1):
            table[base + m] = sqrt2 * legendre[n, m] * np.cos(m * phi)
            table[base - m] = sqrt2 * legendre[n, m] * np.sin(m * phi)
    return table


def _reference_stds(seq):
    """Per-row standard deviations of the spectral sampler, one degree at a time."""
    n_trunc = seq.truncation
    stds = np.empty((n_trunc + 1) ** 2)
    for n in range(n_trunc + 1):
        amp = math.sqrt(seq.scale_c * seq.coeffs[n] * 4.0 * math.pi / (2.0 * n + 1.0))
        stds[n * n : (n + 1) ** 2] = amp
    return stds


_COORD = st.floats(-1.0, 1.0)
_DIRECTIONS = st.lists(
    st.tuples(_COORD, _COORD, _COORD).filter(lambda v: math.hypot(*v) > 1e-3), min_size=1, max_size=20
)
_S = math.sqrt(0.5)


class TestRealSphericalHarmonics:
    @settings(max_examples=80, deadline=None)
    @given(n_max=st.integers(0, 40), directions=_DIRECTIONS)
    @example(n_max=12, directions=[(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)])
    @example(n_max=40, directions=[(0.0, 0.0, 1.0), (0.0, 0.0, -1.0), (0.0, -0.0, 1.0), (-0.0, 0.0, -1.0)])
    @example(n_max=17, directions=[(0.6, 0.0, 0.8), (-0.6, -0.0, -0.8), (-1.0, 0.0, 0.0), (1.0, -0.0, 0.0)])
    @example(n_max=33, directions=[(_S, _S, 0.0), (-_S, -_S, 0.0), (0.0, 1.0, 0.0), (0.0, -1.0, 0.0)])
    @example(n_max=0, directions=[(0.3, -0.4, 0.5)])
    @example(n_max=1, directions=[(0.0, 0.0, -1.0)])
    def test_bytes_match_the_triple_loop_table(self, n_max, directions):
        v = np.array(directions, dtype=float)
        pts = SpherePointSet(dimension=2, points=v / np.linalg.norm(v, axis=1, keepdims=True))
        assert np.array_equal(real_spherical_harmonics(n_max, pts), _reference_harmonics(n_max, pts))

    @pytest.mark.parametrize("n_max", [0, 1, 2, 30])
    def test_bytes_match_the_triple_loop_table_on_random_points(self, n_max):
        pts = uniform_sphere_points(2, 200, seed=63)
        assert real_spherical_harmonics(n_max, pts).tobytes() == _reference_harmonics(n_max, pts).tobytes()

    def test_addition_theorem(self):
        n_max = 12
        pts = uniform_sphere_points(2, 6, seed=60)
        table = real_spherical_harmonics(n_max, pts)
        cos = np.clip(pts.points @ pts.points.T, -1.0, 1.0)
        for n in range(n_max + 1):
            block = table[n * n : (n + 1) ** 2]
            lhs = block.T @ block
            rhs = (2 * n + 1) / (4 * math.pi) * eval_sequence(LEGENDRE, n, cos)[n]
            assert_allclose(lhs, rhs, rtol=0, atol=1e-13)

    def test_orthonormality_by_quadrature(self):
        # Product rule: Gauss-Legendre in cos(theta), trapezoid in phi.
        # Exact for the trigonometric polynomials that harmonics are.
        n_max = 6
        rule = quadrature(0.5, n_max + 1)
        n_phi = 2 * n_max + 1
        phi = 2.0 * math.pi * np.arange(n_phi) / n_phi
        ct, st = rule.nodes, np.sqrt(1.0 - rule.nodes**2)
        grid = np.stack(
            [
                np.outer(st, np.cos(phi)).ravel(),
                np.outer(st, np.sin(phi)).ravel(),
                np.outer(ct, np.ones(n_phi)).ravel(),
            ],
            axis=1,
        )
        pts = SpherePointSet(dimension=2, points=grid / np.linalg.norm(grid, axis=1, keepdims=True))
        table = real_spherical_harmonics(n_max, pts)
        w = (np.outer(rule.weights, np.full(n_phi, 2.0 * math.pi / n_phi))).ravel()
        overlaps = (table * w) @ table.T
        assert_allclose(overlaps, np.eye((n_max + 1) ** 2), rtol=0, atol=1e-12)

    def test_row_index_convention(self):
        pole = _sphere_set([[0.0, 0.0, 1.0]])
        table = real_spherical_harmonics(2, pole)
        assert table.shape == (9, 1)
        # At the pole only m = 0 survives and Y_n0 = sqrt((2n+1)/4pi).
        for n in range(3):
            assert_allclose(table[n * n + n, 0], math.sqrt((2 * n + 1) / (4 * math.pi)), rtol=1e-14)
            for m in range(1, n + 1):
                assert abs(table[n * n + n + m, 0]) <= 1e-14
                assert abs(table[n * n + n - m, 0]) <= 1e-14

    def test_rejects_wrong_geometry(self):
        with pytest.raises(GeometryError):
            real_spherical_harmonics(2, uniform_sphere_points(3, 4, seed=61))
        with pytest.raises(DomainError):
            real_spherical_harmonics(-1, uniform_sphere_points(2, 4, seed=62))


class TestSampleSpectralS2:
    @pytest.mark.parametrize("n_max, n_points, n_samples", [(0, 3, 2), (7, 20, 5), (40, 60, 9)])
    def test_bytes_match_reference_table(self, n_max, n_points, n_samples):
        rng = np.random.default_rng(90 + n_max)
        seq = make_sequence(rng.uniform(0.05, 1.0, n_max + 1), LEGENDRE, normalize=True)
        pts = uniform_sphere_points(2, n_points, seed=91)
        z = np.random.default_rng(92).standard_normal((n_samples, (n_max + 1) ** 2))
        expected = (z * _reference_stds(seq)) @ _reference_harmonics(n_max, pts)
        s = sample_spectral_s2(seq, pts, n_samples=n_samples, seed=92)
        assert np.array_equal(s.values, expected)

    def test_constant_kernel_gives_constant_realizations(self):
        seq = make_sequence([1.0], LEGENDRE)
        pts = uniform_sphere_points(2, 6, seed=70)
        s = sample_spectral_s2(seq, pts, n_samples=100, seed=71)
        spread = s.values.max(axis=1) - s.values.min(axis=1)
        assert spread.max() <= 1e-12

    def test_degree_one_covariance_at_half(self):
        seq = make_sequence([0.0, 1.0], LEGENDRE)
        q = math.sqrt(1.0 - 0.5**2)
        pts = _sphere_set([[0.0, 0.0, 1.0], [q, 0.0, 0.5]])
        s = sample_spectral_s2(seq, pts, n_samples=10_000, seed=72)
        c = empirical_covariance(s)
        assert abs(c.entries[0, 1] - 0.5) <= 4.0 / math.sqrt(10_000)

    def test_agrees_with_factorized_sampler(self):
        rng = np.random.default_rng(73)
        seq = random_sequence(rng, LEGENDRE, 4)
        pts = uniform_sphere_points(2, 5, seed=74)
        n = 20_000
        c_spec = empirical_covariance(sample_spectral_s2(seq, pts, n, seed=75))
        c_fact = empirical_covariance(sample_factorized(seq, pts, n, seed=76))
        assert float(np.abs(c_spec.entries - c_fact.entries).max()) <= 8.0 / math.sqrt(n)

    def test_matches_gram_covariance(self):
        rng = np.random.default_rng(77)
        seq = random_sequence(rng, LEGENDRE, 6)
        pts = uniform_sphere_points(2, 4, seed=78)
        g = gram(seq, pts)
        c = empirical_covariance(sample_spectral_s2(seq, pts, 10_000, seed=79))
        assert float(np.abs(c.entries - g.entries).max()) <= 4.0 / math.sqrt(10_000)

    def test_deterministic(self):
        seq = make_sequence([0.3, 0.7], LEGENDRE)
        pts = uniform_sphere_points(2, 3, seed=80)
        a = sample_spectral_s2(seq, pts, n_samples=5, seed=81)
        b = sample_spectral_s2(seq, pts, n_samples=5, seed=81)
        assert_array_equal(a.values, b.values)

    def test_rejects_wrong_basis(self):
        seq = make_sequence([1.0], GegenbauerBasis.from_index(1.0))
        pts = uniform_sphere_points(2, 3, seed=82)
        with pytest.raises(GeometryError):
            sample_spectral_s2(seq, pts, n_samples=2, seed=0)

    def test_rejects_wrong_points(self):
        seq = make_sequence([1.0], LEGENDRE)
        with pytest.raises(GeometryError):
            sample_spectral_s2(seq, uniform_sphere_points(1, 3, seed=83), n_samples=2, seed=0)

    def test_rejects_other_kernel_families(self):
        st = make_st_kernel([(1.0, gaussian(1.0))], LEGENDRE)
        st_pts = SpaceTimePointSet(space=uniform_sphere_points(2, 3, seed=84), times=[0.0, 0.5, 1.0])
        with pytest.raises(GeometryError):
            sample_spectral_s2(st, st_pts, n_samples=2, seed=0)
        ps = make_ps_kernel([[1.0]], LEGENDRE, LEGENDRE)
        ps_pts = ProductPointSet(first=uniform_sphere_points(2, 3, seed=85), second=uniform_sphere_points(2, 3, seed=86))
        with pytest.raises(GeometryError):
            sample_spectral_s2(ps, ps_pts, n_samples=2, seed=0)


def _one_matmul_spectral(seq, points, n_samples, seed):
    """The spectral sample as one draw of every normal from the seed and one
    matmul with the harmonics table."""
    z = np.random.default_rng(seed).standard_normal((n_samples, (seq.truncation + 1) ** 2))
    return (z * _reference_stds(seq)) @ real_spherical_harmonics(seq.truncation, points)


# Each case: degree, points, samples, and the block step in normal rows
# (None keeps `gegenbauer._BLOCK_BYTES`, a step of 102 rows at degree 100).
# Fixed steps of 102 or 205 rows would leave a one-row block at 103, 205,
# 206 or 411 samples. On these shapes OpenBLAS 0.3.31 gives a product's rows
# the same bits at any row count of two or more; on others (300 points, say)
# it does not, so the bytes are pinned per BLAS build, like every sample.
_BLAS_ONE_THREAD = """
import numpy as np
from unittest import mock
from spherecov import GegenbauerBasis, gegenbauer, make_sequence, real_spherical_harmonics
from spherecov import sample_spectral_s2, uniform_sphere_points

cases = [(100, 150, n, None) for n in (1, 2, 101, 102, 103, 205, 206, 411)]
cases += [(n_max, 40, n, step) for n_max in (0, 3, 12) for step in (2, 3, 7) for n in (1, 2, step - 1, step, step + 1, 2 * step + 1, 50)]
for n_max, n_points, n_samples, step in cases:
    seq = make_sequence(np.random.default_rng(n_max).uniform(0.05, 1.0, n_max + 1), GegenbauerBasis.from_dimension(2), normalize=True)
    pts = uniform_sphere_points(2, n_points, 3)
    rows = (n_max + 1) ** 2
    budget = gegenbauer._BLOCK_BYTES if step is None else 16 * rows * step
    with mock.patch.object(gegenbauer, "_BLOCK_BYTES", budget):
        values = sample_spectral_s2(seq, pts, n_samples, 4).values
    degrees = np.arange(n_max + 1)
    stds = np.repeat(np.sqrt(seq.scale_c * seq.coeffs * 4.0 * np.pi / (2.0 * degrees + 1.0)), 2 * degrees + 1)
    z = np.random.default_rng(4).standard_normal((n_samples, rows))
    if not np.array_equal(values, (z * stds) @ real_spherical_harmonics(n_max, pts)):
        print("differs:", n_max, n_points, n_samples, step)
"""


class TestSpectralBlocks:
    """`sample_spectral_s2` draws and multiplies the normals in blocks of
    samples; it must give what one whole draw and one matmul give."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_max=st.integers(0, 12),
        n_points=st.integers(1, 30),
        step=st.integers(2, 9),
        pick=st.sampled_from(["1", "2", "step-1", "step", "step+1", "2step+1", "any"]),
        any_count=st.integers(1, 80),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_one_matmul_over_several_blocks(self, n_max, n_points, step, pick, any_count, seed):
        n_samples = {
            "1": 1, "2": 2, "step-1": step - 1, "step": step, "step+1": step + 1,
            "2step+1": 2 * step + 1, "any": any_count,
        }[pick]
        rng = np.random.default_rng(seed)
        seq = make_sequence(rng.uniform(0.05, 1.0, n_max + 1), LEGENDRE, normalize=True)
        pts = uniform_sphere_points(2, n_points, seed)
        with mock.patch.object(gegenbauer, "_BLOCK_BYTES", 16 * (n_max + 1) ** 2 * step):
            values = sample_spectral_s2(seq, pts, n_samples, seed).values
        expected = _one_matmul_spectral(seq, pts, n_samples, seed)
        assert_allclose(values, expected, rtol=1e-12, atol=1e-12 * float(np.abs(expected).max()))

    def test_bytes_match_one_matmul_at_one_blas_thread(self):
        env = dict(cli_env(), OPENBLAS_NUM_THREADS="1")
        result = subprocess.run([sys.executable, "-c", _BLAS_ONE_THREAD], capture_output=True, text=True, env=env)
        assert (result.returncode, result.stdout, result.stderr) == (0, "", "")

    @settings(max_examples=200, deadline=None)
    @given(n_samples=st.integers(1, 5000), row_bytes=st.integers(8, 2**25))
    def test_no_block_has_one_row_unless_there_is_one_sample(self, n_samples, row_bytes):
        sizes = np.diff(_sample_blocks(n_samples, row_bytes))
        assert sizes.sum() == n_samples
        assert sizes.min() >= min(2, n_samples)
        if row_bytes <= gegenbauer._BLOCK_BYTES // 4:
            assert sizes.max() * row_bytes <= gegenbauer._BLOCK_BYTES

    def test_step_is_half_the_budget(self):
        assert np.diff(_sample_blocks(1000, 8 * 101**2)).tolist() == [111] * 8 + [112]
        assert np.diff(_sample_blocks(101, 8 * 101**2)).tolist() == [101]

    def test_memory_is_the_table_the_output_and_one_block(self):
        n_max, n_points, n_samples = 40, 400, 3000
        seq = make_sequence(np.random.default_rng(5).uniform(0.05, 1.0, n_max + 1), LEGENDRE, normalize=True)
        pts = uniform_sphere_points(2, n_points, 6)
        table = 8 * (n_max + 1) ** 2 * n_points
        output = 8 * n_samples * n_points
        bound = table + output + gegenbauer._BLOCK_BYTES + 4 * 2**20
        # All the normals at once would not fit.
        assert table + output + 8 * n_samples * (n_max + 1) ** 2 > bound
        tracemalloc.start()
        try:
            sample_spectral_s2(seq, pts, n_samples, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound


class TestMemoryBound:
    """Requests over `gegenbauer._MAX_ARRAY_BYTES` raise DomainError before they
    allocate. The bound is patched down to 1 MiB and each request is a few
    MiB, so a missing guard costs megabytes, not the machine."""

    BOUND = 2**20

    @pytest.mark.parametrize(
        "case", ["point set", "Gram matrix", "factorized sample", "spectral sample", "harmonics table", "table alone"]
    )
    def test_over_the_bound_raises_before_allocating(self, monkeypatch, case):
        seq = make_sequence([0.5, 0.5], LEGENDRE)
        deep = make_sequence(np.ones(41), LEGENDRE, normalize=True)
        many, few = uniform_sphere_points(2, 1000, 1), uniform_sphere_points(2, 100, 2)
        what, call = {
            "point set": ("a point set of 50000 x 3", lambda: uniform_sphere_points(2, 50_000, 0)),
            "Gram matrix": ("a Gram matrix of 1000 x 1000", lambda: gram(seq, many)),
            "factorized sample": ("a sample of 2000 x 100", lambda: sample_factorized(seq, few, 2000, 0)),
            "spectral sample": ("a sample of 200 x 1000", lambda: sample_spectral_s2(seq, many, 200, 0)),
            "harmonics table": ("a harmonics table of 1681 x 100", lambda: sample_spectral_s2(deep, few, 1, 0)),
            "table alone": ("a harmonics table of 1681 x 100", lambda: real_spherical_harmonics(40, few)),
        }[case]
        monkeypatch.setattr(gegenbauer, "_MAX_ARRAY_BYTES", self.BOUND)
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=f"^{what} floats needs [0-9]+ bytes, over the bound of {self.BOUND}$"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.BOUND // 4

    def test_an_array_of_exactly_the_bound_is_allowed(self, monkeypatch):
        pts = uniform_sphere_points(2, 64, 3)
        seq = make_sequence([0.5, 0.5], LEGENDRE)
        monkeypatch.setattr(gegenbauer, "_MAX_ARRAY_BYTES", 8 * 64 * 64)
        assert gram(seq, pts).size == 64
        with pytest.raises(DomainError):
            gram(seq, uniform_sphere_points(2, 65, 3))


class TestEmpiricalCovariance:
    def test_constant_field(self):
        values = np.outer(np.random.default_rng(90).standard_normal(500), np.ones(4))
        c = empirical_covariance(FieldSample(values=values, seed=0, kernel_id="test"))
        assert float(np.abs(c.entries - c.entries[0, 0]).max()) <= 1e-12

    def test_iid_standard_gaussians(self):
        values = np.random.default_rng(91).standard_normal((10_000, 1))
        c = empirical_covariance(FieldSample(values=values, seed=0, kernel_id="test"))
        assert abs(c.entries[0, 0] - 1.0) <= 4.0 / math.sqrt(10_000)

    def test_unbiased_divisor(self):
        values = np.array([[0.0, 0.0], [2.0, 4.0]])
        c = empirical_covariance(FieldSample(values=values, seed=0, kernel_id="test"))
        assert_array_equal(c.entries, [[2.0, 4.0], [4.0, 8.0]])

    def test_rejects_single_sample(self):
        s = FieldSample(values=np.ones((1, 3)), seed=0, kernel_id="test")
        with pytest.raises(DomainError):
            empirical_covariance(s)
