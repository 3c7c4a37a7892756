"""Point sets, Gram matrices, the eigenvalue oracle, and field samplers."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from helpers import random_ps_kernel, random_sequence, random_st_kernel
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
    empirical_covariance,
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
    quadrature,
    real_spherical_harmonics,
    sample_factorized,
    sample_spectral_s2,
    schur_product,
    uniform_sphere_points,
)
from spherecov.fields import _factor

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

    def test_sphere_set_rejects_bad_dimension(self):
        with pytest.raises(GeometryError):
            SpherePointSet(dimension=0, points=[[1.0]])

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


class TestFieldSampleType:
    def test_rejects_non_2d(self):
        with pytest.raises(DomainError):
            FieldSample(values=np.ones(5), seed=0, kernel_id="test")

    def test_shape_properties(self):
        s = FieldSample(values=np.ones((7, 3)), seed=0, kernel_id="test")
        assert s.n_samples == 7
        assert s.n_points == 3


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

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            uniform_sphere_points(0, 5, seed=0)
        with pytest.raises(DomainError):
            uniform_sphere_points(2, 0, seed=0)


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

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            harmonic_dimension(0, 1)
        with pytest.raises(DomainError):
            harmonic_dimension(2, -1)


class TestRealSphericalHarmonics:
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
