import math
import tracemalloc

import numpy as np
import pytest
from conftest import C_EPS, angle_between, line_cloud

from orthofit.errors import DimensionMismatch, NotSymmetric, UnsupportedDimension
from orthofit.fit import fit_tls_line
from orthofit.geometry import PointSet, canonical_direction
from orthofit.oracle import cubic_eigenvalues, grid_search_direction
from orthofit.solver import dominant_eigenpair


def _grid_directions(dim: int, resolution_deg: float) -> np.ndarray:
    """Every node of grid_search_direction's grid, one row each, in scan order."""
    if dim == 2:
        theta = np.deg2rad(np.arange(0.0, 180.0, resolution_deg))
        return np.column_stack([np.cos(theta), np.sin(theta)])
    polar = np.deg2rad(np.arange(0.0, 90.0 + 1e-9, resolution_deg))
    azimuth = np.deg2rad(np.arange(0.0, 360.0, resolution_deg))
    sin_pol = np.sin(polar)[:, None]
    grid = np.empty((polar.size, azimuth.size, 3))
    grid[:, :, 0] = sin_pol * np.cos(azimuth)
    grid[:, :, 1] = sin_pol * np.sin(azimuth)
    grid[:, :, 2] = np.cos(polar)[:, None]
    return grid.reshape(-1, 3)


class TestGridSearch:
    def test_collinear_2d_hits_exact_grid_node(self):
        # The 45-degree direction lies on the 1-degree grid, so the best
        # objective is rounding-level, not merely quantization-level.
        t = np.linspace(-2.0, 2.0, 9)
        pts = PointSet(np.column_stack([t, t]))
        result = grid_search_direction(pts, 1.0)
        assert result.evaluated == 180
        assert angle_between(result.best_direction, np.array([1.0, 1.0])) <= math.radians(1.0)
        xi = float(np.sum(t**2) * 2)
        assert result.best_sq_distance <= 1e-12 * xi

    def test_evaluated_counts(self):
        pts2 = PointSet(np.array([[0.0, 0.0], [1.0, 1.0]]))
        assert grid_search_direction(pts2, 0.5).evaluated == 360
        rng = np.random.default_rng(1)
        pts3 = PointSet(rng.uniform(-1.0, 1.0, (5, 3)))
        # 91 polar rings (pole through equator inclusive) times 360 azimuths.
        assert grid_search_direction(pts3, 1.0).evaluated == 91 * 360

    def test_isotropic_cross_value(self):
        pts = PointSet(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))
        result = grid_search_direction(pts, 1.0)
        assert abs(result.best_sq_distance - 2.0) <= 1e-12

    def test_tie_break_is_lexicographic(self):
        # Two coincident points make every direction score exactly zero, so
        # the scan must fall back to the deterministic tie rule: the raw
        # grid vector that is lexicographically smallest (then the sign
        # canonicalization flips it to point positive).
        pts = PointSet(np.array([[1.0, 1.0], [1.0, 1.0]]))
        result = grid_search_direction(pts, 1.0)
        assert result.best_sq_distance == 0.0
        expected = np.array([math.cos(math.radians(1.0)), -math.sin(math.radians(1.0))])
        assert np.max(np.abs(result.best_direction - expected)) <= 1e-12

    def test_agrees_with_fitter_within_quantization(self):
        rng = np.random.default_rng(2)
        for dim in (2, 3):
            pts, _, _ = line_cloud(rng, 40, dim, sigma=0.5)
            ps = PointSet(pts)
            fit = fit_tls_line(ps)
            result = grid_search_direction(ps, 0.5)
            xi = float(np.sum(fit.eigen.spectrum))
            gap = result.best_sq_distance - fit.total_sq_distance
            spread = float(fit.eigen.spectrum[0] - fit.eigen.spectrum[-1])
            bound = spread * math.sin(math.radians(0.5)) ** 2
            assert gap >= -1e-12 * xi
            assert gap <= max(bound, 1e-4 * fit.total_sq_distance)
            assert angle_between(result.best_direction, fit.line.direction) <= math.radians(1.0)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        pts, _, _ = line_cloud(rng, 20, 3, sigma=0.3)
        ps = PointSet(pts)
        a = grid_search_direction(ps, 2.0)
        b = grid_search_direction(ps, 2.0)
        assert np.array_equal(a.best_direction, b.best_direction)
        assert a.best_sq_distance == b.best_sq_distance
        assert a.evaluated == b.evaluated

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_matches_brute_force_projection_scan(self, dim, offset):
        # The reference builds the grid, projects every point on every node
        # (a few thousand nodes at a time) and picks the smallest value,
        # ties to the lexicographically smallest node. At 2 degrees the
        # equator holds antipodal node pairs, azimuths p and p + 180 deg at
        # polar angle 90 deg, one line up to cos(90 deg), whose values
        # differ by rounding alone, so the two scans may pick either node of
        # such a pair; that is accepted only when both nodes' reference
        # values are the minimum to the scans' rounding, c n eps xi. Any
        # other node must be the reference's exactly.
        for res in (7.0, 2.0, 0.7):
            directions = _grid_directions(dim, res)
            for seed in range(75):
                rng = np.random.default_rng([seed, dim])
                pts = line_cloud(rng, int(rng.integers(3, 120)), dim, sigma=0.3)[0] + offset
                y = pts - pts.mean(axis=0)
                xi = float(np.sum(y * y))
                values = np.concatenate(
                    [
                        xi - np.sum((y @ directions[k : k + 4096].T) ** 2, axis=0)
                        for k in range(0, len(directions), 4096)
                    ]
                )
                best = values.min()
                node = min(tuple(d) for d in directions[values == best])
                result = grid_search_direction(PointSet(pts), res)
                assert result.evaluated == len(directions)
                if not np.array_equal(result.best_direction, canonical_direction(np.array(node))):
                    # The pair: the same polar row, the azimuth half a turn on.
                    assert dim == 3 and node[2] == np.cos(np.deg2rad(90.0)), (res, seed, node)
                    k = np.flatnonzero((directions == node).all(axis=1)).item()
                    turn = np.arange(0.0, 360.0, res).size
                    pair = k - k % turn + (k % turn + turn // 2) % turn
                    other = canonical_direction(directions[pair])
                    assert np.array_equal(result.best_direction, other), (res, seed)
                    assert values[pair] - best <= C_EPS * len(pts) * xi, (res, seed)
                assert abs(result.best_sq_distance - max(best, 0.0)) <= 1e-12 * xi

    def test_scan_peaks_at_two_scores_per_node(self):
        # No direction grid is built: the polar x azimuth scores and one
        # temporary of their size, 16 bytes a node, are the whole peak
        # beside the cloud's centered copy.
        rng = np.random.default_rng(9)
        ps = PointSet(line_cloud(rng, 1000, 3, sigma=0.3)[0])
        tracemalloc.start()
        try:
            result = grid_search_direction(ps, 0.25)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.evaluated == 361 * 1440
        assert peak <= 17 * result.evaluated

    def test_memory_small_for_large_cloud(self):
        # The scan keeps a d x d scatter and two scores per direction, so its
        # peak is the centered copy and the scores, not n x directions.
        rng = np.random.default_rng(8)
        ps = PointSet(line_cloud(rng, 50_000, 3, sigma=0.3)[0])
        tracemalloc.start()
        try:
            grid_search_direction(ps, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_memory_bounded_for_large_cloud(self):
        rng = np.random.default_rng(7)
        ps = PointSet(line_cloud(rng, 50_000, 3, sigma=0.3)[0])
        tracemalloc.start()
        try:
            grid_search_direction(ps, 5.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_result_invariants(self):
        rng = np.random.default_rng(4)
        for seed in range(5):
            pts, _, _ = line_cloud(np.random.default_rng(seed), 15, 2, sigma=0.2)
            result = grid_search_direction(PointSet(pts), 3.0)
            assert result.best_sq_distance >= 0.0
            assert result.evaluated == 60
            assert result.resolution_deg == 3.0
            assert abs(float(np.linalg.norm(result.best_direction)) - 1.0) <= 1e-12

    def test_unsupported_dimension(self):
        rng = np.random.default_rng(5)
        with pytest.raises(UnsupportedDimension):
            grid_search_direction(PointSet(rng.uniform(0, 1, (10, 5))), 1.0)

    def test_resolution_bounds(self):
        pts = PointSet(np.array([[0.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(ValueError):
            grid_search_direction(pts, 0.0)
        with pytest.raises(ValueError):
            grid_search_direction(pts, 10.5)
        with pytest.raises(ValueError):
            grid_search_direction(pts, -1.0)


class TestCubicEigenvalues:
    def test_diagonal_matrix(self):
        assert np.array_equal(
            cubic_eigenvalues(np.diag([3.0, 2.0, 1.0])), np.array([3.0, 2.0, 1.0])
        )
        assert np.array_equal(
            cubic_eigenvalues(np.diag([1.0, 3.0, 2.0])), np.array([3.0, 2.0, 1.0])
        )

    def test_identity(self):
        assert np.array_equal(cubic_eigenvalues(np.eye(3)), np.ones(3))

    def test_matches_lapack(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            m = rng.standard_normal((3, 3)) * float(10 ** rng.uniform(-2, 2))
            a = m + m.T
            got = cubic_eigenvalues(a)
            ref = np.linalg.eigvalsh(a)[::-1]
            fro = float(np.linalg.norm(a))
            assert np.max(np.abs(got - ref)) <= 1e-10 * max(fro, 1e-300)

    def test_matches_jacobi_on_scatter_matrix(self):
        rng = np.random.default_rng(42)
        pts = rng.uniform(0.0, 1.0, (50, 3))
        from orthofit.geometry import center
        from orthofit.scatter import accumulate_scatter

        centered, _ = center(PointSet(pts))
        summary = accumulate_scatter(centered)
        closed = cubic_eigenvalues(summary.scatter)
        iterated = dominant_eigenpair(summary.scatter).spectrum
        assert np.max(np.abs(closed - iterated)) <= 1e-9 * summary.total_sq_norm

    def test_trace_and_determinant_identities(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            m = rng.standard_normal((3, 3))
            a = m + m.T
            lam = cubic_eigenvalues(a)
            fro = float(np.linalg.norm(a))
            assert abs(float(np.sum(lam)) - float(np.trace(a))) <= 1e-10 * max(fro, 1e-300)
            det = float(np.linalg.det(a))
            prod = float(np.prod(lam))
            assert abs(prod - det) <= 1e-8 * max(fro**3, 1e-300)

    def test_sorted_descending(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            m = rng.standard_normal((3, 3))
            lam = cubic_eigenvalues(m + m.T)
            assert lam[0] >= lam[1] >= lam[2]

    def test_powers_of_two_scale_exactly(self):
        # The roots are found for the input scaled into [0.5, 1) by a power
        # of two, so 2^k A has exactly 2^k times the roots of A.
        for a in (
            np.array([[4.0, 1.0, -0.5], [1.0, 3.0, 0.25], [-0.5, 0.25, 1.0]]),
            np.diag([3.0, 1.0, 2.0]),
        ):
            base = cubic_eigenvalues(a)
            for k in range(-1000, 1001):
                got = cubic_eigenvalues(np.ldexp(a, k))
                assert got.tobytes() == np.ldexp(base, k).tobytes(), k

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            cubic_eigenvalues(np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))

    def test_rejects_wrong_size(self):
        with pytest.raises(DimensionMismatch):
            cubic_eigenvalues(np.eye(2))
        with pytest.raises(DimensionMismatch):
            cubic_eigenvalues(np.eye(4))

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatch, match="matrix is empty"):
            cubic_eigenvalues(np.zeros((0, 0)))
