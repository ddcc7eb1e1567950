import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthofit.errors import DegenerateInput, DimensionMismatch
from orthofit.geometry import ParametricLine, PointSet, line_distances_sq
from orthofit.oracle import cross_matrix, rejection_matrix
from orthofit.scatter import ScatterSummary, accumulate_scatter
from orthofit.solver import dominant_eigenpair

coord = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


def centered_cloud(seed: int, n: int, dim: int) -> PointSet:
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, (n, dim))
    return PointSet(pts - pts.mean(axis=0))


class TestCrossMatrix:
    def test_basis_vector(self):
        expected = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
        assert np.array_equal(cross_matrix(np.array([1.0, 0.0, 0.0])), expected)

    def test_zero_vector_gives_zero_matrix(self):
        assert np.array_equal(cross_matrix(np.zeros(3)), np.zeros((3, 3)))

    def test_skew_symmetric(self):
        t = cross_matrix(np.array([0.3, -1.7, 2.5]))
        assert np.array_equal(t, -t.T)

    def test_action_matches_cross_product(self):
        # The matvec route may fuse multiply-adds, so allow one rounding of
        # the intermediate products relative to the componentwise formula.
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.uniform(-10.0, 10.0, 3)
            s = rng.uniform(-10.0, 10.0, 3)
            scale = float(np.max(np.abs(a)) * np.max(np.abs(s)))
            diff = np.max(np.abs(cross_matrix(a) @ s - np.cross(a, s)))
            assert diff <= 1e-14 * max(scale, 1.0)

    def test_wrong_dimension_raises(self):
        with pytest.raises(DimensionMismatch):
            cross_matrix(np.array([1.0, 2.0]))
        with pytest.raises(DimensionMismatch):
            cross_matrix(np.ones(4))


class TestRejectionMatrix:
    def test_basis_vector(self):
        assert np.array_equal(
            rejection_matrix(np.array([1.0, 0.0, 0.0])), np.diag([0.0, 1.0, 1.0])
        )

    def test_diagonal_example(self):
        expected = np.array([[1.0, -1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
        assert np.array_equal(rejection_matrix(np.array([1.0, 1.0, 0.0])), expected)

    @settings(deadline=None, max_examples=200)
    @given(v=st.lists(coord, min_size=2, max_size=6))
    def test_annihilates_its_own_vector(self, v):
        x = np.array(v, dtype=np.float64)
        m = rejection_matrix(x)
        nx = float(np.linalg.norm(x))
        assert float(np.linalg.norm(m @ x)) <= 1e-12 * max(nx**3, 1.0)

    @settings(deadline=None, max_examples=200)
    @given(v=st.lists(coord, min_size=2, max_size=6))
    def test_symmetric_psd_with_expected_trace(self, v):
        x = np.array(v, dtype=np.float64)
        d = x.shape[0]
        m = rejection_matrix(x)
        assert np.array_equal(m, m.T)
        xx = float(x @ x)
        assert np.min(np.linalg.eigvalsh(m)) >= -1e-10 * max(xx, 1.0)
        assert abs(float(np.trace(m)) - (d - 1) * xx) <= 1e-12 * max(xx, 1.0)

    def test_factors_through_cross_matrix(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.uniform(-5.0, 5.0, 3)
            t = cross_matrix(x)
            diff = np.max(np.abs(t.T @ t - rejection_matrix(x)))
            assert diff <= 1e-12 * max(float(x @ x), 1.0)

    def test_quadratic_form_is_distance_to_origin_line(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            x = rng.uniform(-3.0, 3.0, (3, d))
            s = rng.standard_normal(d)
            s /= np.linalg.norm(s)
            line = ParametricLine(np.zeros(d), s)
            forms = [float(s @ (rejection_matrix(row) @ s)) for row in x]
            tol = 1e-10 * np.maximum(np.einsum("ij,ij->i", x, x), 1.0)
            assert np.all(np.abs(forms - line_distances_sq(PointSet(x), line)) <= tol)

    def test_rejects_one_dimensional_input(self):
        with pytest.raises(DimensionMismatch):
            rejection_matrix(np.array([2.0]))


class TestAccumulate:
    def test_two_point_example(self):
        ps = PointSet(np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]))
        summary = accumulate_scatter(ps)
        assert summary.total_sq_norm == 2.0
        assert np.array_equal(summary.scatter, np.diag([2.0, 0.0, 0.0]))
        assert np.array_equal(summary.complement, np.diag([0.0, 2.0, 2.0]))
        assert summary.n_points == 2

    def test_isotropic_cross(self):
        ps = PointSet(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))
        summary = accumulate_scatter(ps)
        assert summary.total_sq_norm == 4.0
        assert np.array_equal(summary.scatter, np.diag([2.0, 2.0]))
        assert np.array_equal(summary.complement, np.diag([2.0, 2.0]))

    def test_moments_are_about_the_origin(self):
        # An uncentered cloud is accepted; its moments are taken about 0.
        summary = accumulate_scatter(PointSet(np.array([[1.0, 0.0], [3.0, 0.0]])))
        assert summary.total_sq_norm == 10.0
        assert np.array_equal(summary.scatter, np.diag([10.0, 0.0]))

    def test_rejects_all_points_at_origin(self):
        with pytest.raises(DegenerateInput, match="all points coincide"):
            accumulate_scatter(PointSet(np.zeros((4, 3))))

    def test_scatter_matches_outer_product_recomputation(self):
        # Rebuild omega from the rejection-matrix complement, the other route.
        ps = centered_cloud(42, 50, 3)
        summary = accumulate_scatter(ps)
        rebuilt = sum(
            (float(x @ x) * np.eye(3) - rejection_matrix(x)) for x in ps.points
        )
        assert np.max(np.abs(summary.scatter - rebuilt)) <= 1e-12 * summary.total_sq_norm

    def test_complement_is_sum_of_rejection_matrices(self):
        for seed, dim in ((1, 2), (2, 3), (3, 5)):
            ps = centered_cloud(seed, 30, dim)
            summary = accumulate_scatter(ps)
            rebuilt = sum(rejection_matrix(x) for x in ps.points)
            assert (
                np.max(np.abs(summary.complement - rebuilt))
                <= 1e-12 * summary.total_sq_norm
            )

    def test_complement_is_sum_of_cross_factorizations(self):
        ps = centered_cloud(9, 40, 3)
        summary = accumulate_scatter(ps)
        rebuilt = sum(cross_matrix(x).T @ cross_matrix(x) for x in ps.points)
        assert (
            np.max(np.abs(summary.complement - rebuilt))
            <= 1e-10 * summary.total_sq_norm
        )

    def test_trace_identities(self):
        for seed, dim in ((21, 2), (22, 3), (23, 5)):
            ps = centered_cloud(seed, 25, dim)
            summary = accumulate_scatter(ps)
            xi = summary.total_sq_norm
            assert abs(float(np.trace(summary.scatter)) - xi) <= 1e-12 * xi
            assert abs(float(np.trace(summary.complement)) - (dim - 1) * xi) <= 1e-12 * xi

    def test_both_matrices_exactly_symmetric(self):
        ps = centered_cloud(33, 35, 4)
        summary = accumulate_scatter(ps)
        assert np.array_equal(summary.scatter, summary.scatter.T)
        assert np.array_equal(summary.complement, summary.complement.T)

    def test_both_matrices_psd_via_solver(self):
        for seed, dim in ((41, 2), (43, 3), (44, 5)):
            ps = centered_cloud(seed, 20, dim)
            summary = accumulate_scatter(ps)
            floor = -1e-10 * summary.total_sq_norm
            assert float(dominant_eigenpair(summary.scatter).spectrum[-1]) >= floor
            assert float(dominant_eigenpair(summary.complement).spectrum[-1]) >= floor

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(55)
        ps = centered_cloud(56, 30, 3)
        summary = accumulate_scatter(ps)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        rotated = accumulate_scatter(PointSet(ps.points @ q.T))
        expected = q @ summary.scatter @ q.T
        assert np.max(np.abs(rotated.scatter - expected)) <= 1e-10 * summary.total_sq_norm
        assert abs(rotated.total_sq_norm - summary.total_sq_norm) <= 1e-10 * summary.total_sq_norm

    def test_summary_matrices_immutable(self):
        summary = accumulate_scatter(centered_cloud(60, 10, 2))
        with pytest.raises(ValueError):
            summary.scatter[0, 0] = 1.0
        with pytest.raises(ValueError):
            summary.complement[0, 0] = 1.0
