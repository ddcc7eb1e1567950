import numpy as np
import pytest
from conftest import angle_between, line_cloud, random_rotation
from test_moments import sum_tol

from orthofit.errors import DegenerateInput, DimensionMismatch, RankDeficient
from orthofit.fit import (
    fit_lse_explicit,
    fit_tls_line,
    line_from_explicit,
    total_orthogonal_distance,
    vertical_residual_sq,
)
from orthofit.geometry import (
    ParametricLine,
    PointSet,
    canonical_direction,
    center,
    point_line_distance_sq,
)


def sq3():
    return float(np.sqrt(3.0))


class TestTlsFit:
    def test_collinear_recovery_is_exact(self):
        t = np.array([0.0, 1.0, 2.0])
        pts = PointSet(t[:, None] * np.ones(3))
        result = fit_tls_line(pts)
        assert np.max(np.abs(result.line.direction - 1.0 / sq3())) <= 1e-12
        assert np.array_equal(result.line.anchor, np.ones(3))
        xi = float(np.sum(result.eigen.spectrum))
        assert result.total_sq_distance <= 1e-18 * xi

    def test_anchor_is_centroid(self):
        rng = np.random.default_rng(1)
        pts = PointSet(rng.uniform(-3.0, 3.0, (25, 4)))
        result = fit_tls_line(pts)
        assert np.array_equal(result.line.anchor, center(pts)[1])

    def test_isotropic_cross_is_ambiguous_with_exact_objective(self):
        pts = PointSet(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))
        result = fit_tls_line(pts)
        assert result.eigen.ambiguous
        assert result.total_sq_distance == 2.0
        xi = float(np.sum(result.eigen.spectrum))
        assert result.total_sq_distance == xi - result.eigen.rayleigh

    def test_unambiguous_for_line_like_cloud(self):
        rng = np.random.default_rng(2)
        pts, _, _ = line_cloud(rng, 40, 3, sigma=0.05)
        assert not fit_tls_line(PointSet(pts)).eigen.ambiguous

    def test_objective_routes_agree(self):
        # Three ways to the same number: per-point sum, quadratic form at
        # the fitted direction, and total energy minus the Rayleigh value.
        from orthofit.geometry import center
        from orthofit.scatter import accumulate_scatter
        from orthofit.solver import quadratic_objective

        rng = np.random.default_rng(3)
        for trial in range(20):
            dim = (2, 3, 5)[trial % 3]
            pts = PointSet(rng.uniform(-2.0, 2.0, (int(rng.integers(5, 50)), dim)))
            result = fit_tls_line(pts)
            centered, _ = center(pts)
            summary = accumulate_scatter(centered)
            xi = summary.total_sq_norm
            routes = (
                result.total_sq_distance,
                quadratic_objective(summary, result.line.direction),
                xi - result.eigen.rayleigh,
            )
            spread = max(routes) - min(routes)
            assert spread <= 1e-9 * xi

    def test_per_point_values(self):
        rng = np.random.default_rng(4)
        pts, _, _ = line_cloud(rng, 30, 3)
        result = fit_tls_line(PointSet(pts))
        assert result.per_point_sq.shape == (30,)
        assert np.all(result.per_point_sq >= 0.0)
        assert result.n_points == 30
        for row, value in zip(pts, result.per_point_sq):
            direct = point_line_distance_sq(row, result.line)
            assert abs(value - direct) <= 1e-12 * max(direct, 1.0)
        assert result.total_sq_distance == float(np.sum(result.per_point_sq))
        total = 0.0
        for value in result.per_point_sq:
            total += float(value)
        tol = sum_tol(30, float(np.max(result.per_point_sq)))
        assert abs(result.total_sq_distance - total) <= tol

    def test_matches_svd_oracle(self):
        rng = np.random.default_rng(5)
        for trial in range(20):
            dim = (2, 3, 5)[trial % 3]
            pts, _, _ = line_cloud(rng, 50, dim, sigma=0.2)
            result = fit_tls_line(PointSet(pts))
            shifted = pts - pts.mean(axis=0)
            _, sing, vt = np.linalg.svd(shifted, full_matrices=False)
            assert angle_between(result.line.direction, vt[0]) <= 1e-9
            xi = float(np.sum(sing**2))
            expected_d = float(np.sum(sing[1:] ** 2))
            assert abs(result.total_sq_distance - expected_d) <= 1e-9 * xi

    def test_rotation_translation_equivariance(self):
        rng = np.random.default_rng(6)
        pts, _, _ = line_cloud(rng, 30, 3)
        base = fit_tls_line(PointSet(pts))
        q = random_rotation(rng, 3)
        shift = rng.uniform(-5.0, 5.0, 3)
        moved = fit_tls_line(PointSet(pts @ q.T + shift))
        expected_anchor = q @ base.line.anchor + shift
        scale = max(1.0, float(np.linalg.norm(expected_anchor)))
        assert np.linalg.norm(moved.line.anchor - expected_anchor) <= 1e-9 * scale
        expected_dir = canonical_direction(q @ base.line.direction)
        assert np.max(np.abs(moved.line.direction - expected_dir)) <= 1e-9
        xi = float(np.sum(base.eigen.spectrum))
        assert abs(moved.total_sq_distance - base.total_sq_distance) <= 1e-9 * xi

    def test_scaling_covariance(self):
        rng = np.random.default_rng(7)
        pts, _, _ = line_cloud(rng, 30, 2)
        base = fit_tls_line(PointSet(pts))
        c = 2.5
        scaled = fit_tls_line(PointSet(c * pts))
        assert np.max(np.abs(scaled.line.direction - base.line.direction)) <= 1e-9
        assert np.linalg.norm(scaled.line.anchor - c * base.line.anchor) <= 1e-9 * max(
            1.0, float(np.linalg.norm(base.line.anchor))
        )
        assert abs(scaled.total_sq_distance - c * c * base.total_sq_distance) <= (
            1e-9 * max(scaled.total_sq_distance, 1.0)
        )

    def test_beats_random_competitors(self):
        rng = np.random.default_rng(8)
        pts, _, _ = line_cloud(rng, 25, 3)
        ps = PointSet(pts)
        result = fit_tls_line(ps)
        xi = float(np.sum(result.eigen.spectrum))
        slack = 1e-12 * xi
        for _ in range(200):
            line = ParametricLine(
                result.line.anchor + rng.uniform(-1.0, 1.0, 3),
                rng.standard_normal(3),
            )
            assert total_orthogonal_distance(ps, line) >= result.total_sq_distance - slack

    def test_coincident_points_raise(self):
        with pytest.raises(DegenerateInput):
            fit_tls_line(PointSet(np.ones((5, 3))))

    def test_two_point_cloud(self):
        pts = PointSet(np.array([[0.0, 0.0], [2.0, 2.0]]))
        result = fit_tls_line(pts)
        assert np.max(np.abs(result.line.direction - np.sqrt(0.5))) <= 1e-12
        assert np.array_equal(result.line.anchor, np.array([1.0, 1.0]))
        assert result.total_sq_distance <= 1e-24


class TestExplicitFit:
    def test_exact_affine_data(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        pts = PointSet(np.column_stack([x, 2.0 * x + 1.0]))
        result = fit_lse_explicit(pts)
        assert abs(result.coefficients[0] - 2.0) <= 1e-12
        assert abs(result.offset - 1.0) <= 1e-12
        assert result.residual_sq <= 1e-24
        assert result.dependent_col == 1
        assert result.dim == 2

    def test_matches_lstsq_oracle(self):
        rng = np.random.default_rng(9)
        for trial in range(20):
            dim = (2, 3, 5)[trial % 3]
            pts, _, _ = line_cloud(rng, 40, dim, sigma=0.3)
            ps = PointSet(pts)
            result = fit_lse_explicit(ps)
            design = np.column_stack([pts[:, :-1], np.ones(40)])
            ref, _, _, _ = np.linalg.lstsq(design, pts[:, -1], rcond=None)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(result.coefficients - ref[:-1])) <= 1e-8 * scale
            assert abs(result.offset - ref[-1]) <= 1e-8 * scale
            ref_residual = float(np.sum((design @ ref - pts[:, -1]) ** 2))
            assert abs(result.residual_sq - ref_residual) <= 1e-8 * max(ref_residual, 1.0)

    def test_dependent_column_override(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        pts = PointSet(np.column_stack([x, 2.0 * x + 1.0]))
        result = fit_lse_explicit(pts, dependent_col=0)
        # x = 0.5 y - 0.5 when y = 2x + 1.
        assert abs(result.coefficients[0] - 0.5) <= 1e-10
        assert abs(result.offset + 0.5) <= 1e-10
        assert result.dependent_col == 0

    def test_vertical_data_is_rank_deficient(self):
        pts = PointSet(np.array([[2.0, 0.0], [2.0, 1.0], [2.0, 5.0]]))
        with pytest.raises(RankDeficient):
            fit_lse_explicit(pts)

    def test_collinear_3d_is_rank_deficient(self):
        # The independent columns t and 2t have rank 1, below d - 1 = 2.
        t = np.arange(-2.0, 5.0)
        pts = PointSet(t[:, None] * np.array([1.0, 2.0, 4.0]))
        with pytest.raises(RankDeficient):
            fit_lse_explicit(pts)

    def test_too_few_points_is_rank_deficient(self):
        pts = PointSet(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
        with pytest.raises(RankDeficient):
            fit_lse_explicit(pts)

    def test_bad_dependent_col_raises(self):
        pts = PointSet(np.zeros((4, 2)) + np.arange(8).reshape(4, 2))
        with pytest.raises(DimensionMismatch):
            fit_lse_explicit(pts, dependent_col=2)
        with pytest.raises(DimensionMismatch):
            fit_lse_explicit(pts, dependent_col=-3)


class TestLineFromExplicit:
    def test_two_dim_slope(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        pts = PointSet(np.column_stack([x, 2.0 * x + 1.0]))
        line = line_from_explicit(fit_lse_explicit(pts))
        assert np.array_equal(line.anchor, np.array([0.0, 1.0]))
        expected = np.array([1.0, 2.0]) / np.sqrt(5.0)
        assert np.max(np.abs(line.direction - expected)) <= 1e-12

    def test_flat_graph_uses_first_independent_axis(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        pts = PointSet(np.column_stack([x, np.full(4, 2.0)]))
        line = line_from_explicit(fit_lse_explicit(pts))
        assert np.max(np.abs(line.direction - np.array([1.0, 0.0]))) <= 1e-12
        assert abs(line.anchor[1] - 2.0) <= 1e-12

    def test_line_lies_in_graph_for_higher_dim(self):
        rng = np.random.default_rng(10)
        pts, _, _ = line_cloud(rng, 30, 4, sigma=0.2)
        result = fit_lse_explicit(PointSet(pts))
        line = line_from_explicit(result)
        for t in (-2.0, -0.5, 0.0, 1.0, 3.0):
            p = line.point_at(t)
            predicted = float(result.coefficients @ p[:-1]) + result.offset
            assert abs(p[-1] - predicted) <= 1e-9 * max(1.0, abs(predicted))

    def test_orthogonal_distance_never_beats_tls(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            dim = (2, 3)[trial % 2]
            pts, _, _ = line_cloud(rng, 30, dim, sigma=0.4)
            ps = PointSet(pts)
            tls = fit_tls_line(ps)
            line = line_from_explicit(fit_lse_explicit(ps))
            xi = float(np.sum(tls.eigen.spectrum))
            assert total_orthogonal_distance(ps, line) >= (
                tls.total_sq_distance - 1e-12 * xi
            )

    def test_steep_cloud_strongly_favors_tls(self):
        # Nearly vertical data: the vertical-residual fit tilts badly.
        rng = np.random.default_rng(7)
        direction = np.array([0.05, 1.0])
        direction /= np.linalg.norm(direction)
        t = rng.uniform(-1.0, 1.0, 50)
        pts = PointSet(t[:, None] * direction + 0.1 * rng.standard_normal((50, 2)))
        tls = fit_tls_line(pts)
        lse_line = line_from_explicit(fit_lse_explicit(pts))
        ratio = total_orthogonal_distance(pts, lse_line) / tls.total_sq_distance
        assert ratio > 1.5


class TestVerticalResidual:
    def test_matches_classical_formula_in_2d(self):
        rng = np.random.default_rng(12)
        pts, _, _ = line_cloud(rng, 25, 2, sigma=0.3)
        ps = PointSet(pts)
        result = fit_lse_explicit(ps)
        line = line_from_explicit(result)
        value = vertical_residual_sq(ps, line)
        manual = float(
            np.sum((pts[:, 1] - (result.coefficients[0] * pts[:, 0] + result.offset)) ** 2)
        )
        assert abs(value - manual) <= 1e-10 * max(manual, 1.0)

    def test_vertical_line_returns_none(self):
        ps = PointSet(np.array([[2.0, 0.0], [2.0, 1.0], [2.1, 5.0]]))
        line = ParametricLine(np.array([2.0, 0.0]), np.array([0.0, 1.0]))
        assert vertical_residual_sq(ps, line) is None

    def test_explicit_fit_minimizes_vertical_residual(self):
        rng = np.random.default_rng(13)
        pts, _, _ = line_cloud(rng, 30, 2, sigma=0.3)
        ps = PointSet(pts)
        lse_value = vertical_residual_sq(ps, line_from_explicit(fit_lse_explicit(ps)))
        tls_value = vertical_residual_sq(ps, fit_tls_line(ps).line)
        assert lse_value <= tls_value + 1e-9 * max(tls_value, 1.0)

    def test_dimension_check(self):
        ps = PointSet(np.zeros((3, 3)) + np.arange(9).reshape(3, 3))
        line = ParametricLine(np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(DimensionMismatch):
            vertical_residual_sq(ps, line)
