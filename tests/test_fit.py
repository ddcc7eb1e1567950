import dataclasses
import math
import warnings

import numpy as np
import pytest
from conftest import angle_between, line_cloud, random_rotation
from test_moments import sum_tol

from orthofit import cli, fit, oracle
from orthofit.errors import DegenerateInput, DimensionMismatch, NonFinite, RankDeficient
from orthofit.fit import (
    CheckRecord,
    check_fit,
    fit_lse_explicit,
    fit_tls_line,
    total_orthogonal_distance,
    vertical_residual_sq,
)
from orthofit.geometry import (
    ROUNDING_C,
    ParametricLine,
    PointSet,
    center,
    line_distances_sq,
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
        # Three ways to the same number: per-point sum, quadratic form of the
        # complement at the fitted direction, and total energy minus the
        # Rayleigh value. check runs the first and the last; the complement
        # form is held here, to objective-consistency's tolerance.
        from orthofit.scatter import accumulate_scatter
        from orthofit.solver import quadratic_objective

        rng = np.random.default_rng(3)
        for trial in range(20):
            dim = (2, 3, 5)[trial % 3]
            n = int(rng.integers(5, 50))
            pts = PointSet(rng.uniform(-2.0, 2.0, (n, dim)))
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
            assert spread <= (n + dim) * ROUNDING_C * math.ulp(1.0) * xi

    def test_per_point_values(self):
        rng = np.random.default_rng(4)
        pts, _, _ = line_cloud(rng, 30, 3)
        result = fit_tls_line(PointSet(pts))
        assert result.per_point_sq.shape == (30,)
        assert np.all(result.per_point_sq >= 0.0)
        assert result.n_points == 30
        direct = line_distances_sq(PointSet(pts), result.line)
        tol = 1e-12 * np.maximum(direct, 1.0)
        assert np.all(np.abs(result.per_point_sq - direct) <= tol)
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

    def test_eigen_and_line_directions_are_the_same_bytes(self):
        # The line is built from the solver's dominant column by the
        # normalization that gave eigen.direction, so a fit has one direction.
        for seed in range(1000):
            rng = np.random.default_rng(seed)
            pts, _, _ = line_cloud(rng, int(rng.integers(5, 60)), 2 + seed % 11)
            result = fit_tls_line(PointSet(pts))
            assert result.eigen.direction.tobytes() == result.line.direction.tobytes()

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

    @pytest.mark.parametrize(
        "rows, cause",
        [
            ([[1.0, 2.0], [1e200, 3.0], [4.0, 5.0]], "second moments"),
            ([[1.7e308, 1.0], [1.7e308, 2.0], [1.0, 3.0]], "centering"),
        ],
        ids=["moments", "centering"],
    )
    def test_overflow_is_non_finite(self, rows, cause):
        # Every coordinate is finite; the centering sum or the squares are
        # not. Run under the suite's error::RuntimeWarning filter, a warning
        # on the way would fail the test instead of the typed error.
        with pytest.raises(NonFinite, match=cause):
            fit_tls_line(PointSet(rows))


class TestExplicitFit:
    def test_exact_affine_data(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        pts = PointSet(np.column_stack([x, 2.0 * x + 1.0]))
        result = fit_lse_explicit(pts)
        assert abs(result.coefficients[0] - 2.0) <= 1e-12
        assert abs(result.offset - 1.0) <= 1e-12
        assert result.residual_sq <= 1e-24
        assert result.dependent_col == 1
        assert result.line.dim == 2

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

    def test_overflowing_residual_is_non_finite(self):
        # The coefficients of a cloud near 2**1000 are fine, but its squared
        # residuals leave float64: a typed error, not inf and a warning.
        rng = np.random.default_rng(14)
        pts, _, _ = line_cloud(rng, 50, 3, sigma=0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFinite):
                fit_lse_explicit(PointSet(np.ldexp(pts, 1000)))


class TestLineFromExplicit:
    def test_two_dim_slope(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        pts = PointSet(np.column_stack([x, 2.0 * x + 1.0]))
        line = fit_lse_explicit(pts).line
        assert np.array_equal(line.anchor, np.array([1.5, 4.0]))
        expected = np.array([1.0, 2.0]) / np.sqrt(5.0)
        assert np.max(np.abs(line.direction - expected)) <= 1e-12

    def test_flat_graph_uses_first_independent_axis(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        pts = PointSet(np.column_stack([x, np.full(4, 2.0)]))
        line = fit_lse_explicit(pts).line
        assert np.max(np.abs(line.direction - np.array([1.0, 0.0]))) <= 1e-12
        assert abs(line.anchor[1] - 2.0) <= 1e-12

    def test_line_lies_in_graph_for_higher_dim(self):
        rng = np.random.default_rng(10)
        pts, _, _ = line_cloud(rng, 30, 4, sigma=0.2)
        result = fit_lse_explicit(PointSet(pts))
        line = result.line
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
            line = fit_lse_explicit(ps).line
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
        lse_line = fit_lse_explicit(pts).line
        ratio = total_orthogonal_distance(pts, lse_line) / tls.total_sq_distance
        assert ratio > 1.5


class TestVerticalResidual:
    def test_matches_classical_formula_in_2d(self):
        rng = np.random.default_rng(12)
        pts, _, _ = line_cloud(rng, 25, 2, sigma=0.3)
        ps = PointSet(pts)
        result = fit_lse_explicit(ps)
        line = result.line
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
        lse_value = vertical_residual_sq(ps, fit_lse_explicit(ps).line)
        tls_value = vertical_residual_sq(ps, fit_tls_line(ps).line)
        assert lse_value <= tls_value + 1e-9 * max(tls_value, 1.0)

    def test_dimension_check(self):
        ps = PointSet(np.zeros((3, 3)) + np.arange(9).reshape(3, 3))
        line = ParametricLine(np.zeros(2), np.array([1.0, 0.0]))
        with pytest.raises(DimensionMismatch):
            vertical_residual_sq(ps, line)


CHECK_NAMES = ["decomposition", "objective-consistency", "grid-agreement"]


@pytest.fixture()
def seed4_cloud(tmp_path):
    """The cloud of `gen --n 100 --dim 3 --sigma 0.1 --seed 4`."""
    path = tmp_path / "cloud.csv"
    argv = ["gen", "--n", "100", "--dim", "3", "--sigma", "0.1", "--seed", "4"]
    assert cli.main([*argv, "--output", str(path)]) == 0
    with open(path) as fh:
        return cli.parse_points_text(fh)


def _by_name(report):
    assert [r.name for r in report] == CHECK_NAMES
    return {r.name: r for r in report}


class TestCheckFit:
    def test_clean_cloud_passes_every_check_in_report_order(self, seed4_cloud):
        report = check_fit(seed4_cloud, 0.5)
        assert isinstance(report, tuple)
        for record in _by_name(report).values():
            assert record.status == "PASS", record
            assert record.reason is None
            assert record.measured <= record.tol

    def test_high_dimension_skips_with_reasons(self):
        rng = np.random.default_rng(8)
        records = _by_name(check_fit(PointSet(rng.uniform(-1.0, 1.0, (30, 5))), 0.5))
        assert records["grid-agreement"] == CheckRecord(
            "grid-agreement", "SKIP", reason="grid oracle covers dim <= 3, input is 5"
        )
        assert [r.status for r in records.values()][:2] == ["PASS"] * 2

    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("resolution", [0.0, -1.0, 20.0, math.nan])
    def test_resolution_out_of_range_raises_before_fitting(self, monkeypatch, dim, resolution):
        def no_fit(points):
            raise AssertionError("check_fit fitted before validating resolution_deg")

        monkeypatch.setattr(fit, "fit_tls_line", no_fit)
        cloud = PointSet(np.random.default_rng(dim).uniform(-1.0, 1.0, (30, dim)))
        with pytest.raises(ValueError, match=r"^resolution_deg must be in \(0, 10\], got"):
            check_fit(cloud, resolution)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_cross_skips_the_ambiguous_direction(self, dim):
        # Unit points on each axis, both ways: every direction fits equally
        # well, so no record judges the direction itself; the grid reads a
        # gap a rounding below zero, which the verdict's lower end
        # (-1e-12 xi) accepts.
        axes = np.eye(dim)
        records = _by_name(check_fit(PointSet(np.concatenate([axes, -axes])), 0.5))
        agreement = records["grid-agreement"]
        assert agreement.status == "PASS"
        assert -1e-15 < agreement.measured < 0.0
        assert sum(r.status == "FAIL" for r in records.values()) == 0

    @pytest.mark.parametrize("gap", [1e-3, 1e-4, 1e-5, 1e-6, 1e-7])
    def test_close_top_eigenvalues_pass(self, gap):
        # Whitened 3-d clouds whose scatter has eigenvalues (1, 1 - gap,
        # 0.01) along random axes: the fit is correct, but the grid's best
        # node can lie anywhere on the near-circle of top directions, so no
        # record may judge the direction by the grid's.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            z = rng.standard_normal((50, 3))
            axes, _ = np.linalg.qr(z - z.mean(axis=0))
            rotation = random_rotation(rng, 3)
            cloud = PointSet((axes * np.sqrt([1.0, 1.0 - gap, 0.01])) @ rotation.T)
            report = check_fit(cloud, 0.5)
            assert [r for r in report if r.status == "FAIL"] == [], seed

    def test_grid_below_the_fit_fails(self, seed4_cloud, monkeypatch):
        # A grid node scoring below the orthogonal minimum is a broken fit.
        def zero_scoring(points, resolution_deg):
            grid = oracle.grid_search_direction(points, resolution_deg)
            return dataclasses.replace(grid, best_sq_distance=0.0)

        monkeypatch.setattr(fit, "grid_search_direction", zero_scoring)
        record = _by_name(check_fit(seed4_cloud, 0.5))["grid-agreement"]
        assert record.status == "FAIL"
        assert record.measured < 0.0 < record.tol
