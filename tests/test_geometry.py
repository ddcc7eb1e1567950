import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthofit.errors import DegenerateInput, DimensionMismatch, ZeroVector
from orthofit.geometry import (
    SIGN_EPS,
    ParametricLine,
    PointSet,
    _canonical_signs,
    canonical_direction,
    center,
    line_distances_sq,
    point_line_distance_sq,
)

finite_coord = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def seed42_cloud() -> PointSet:
    rng = np.random.default_rng(42)
    return PointSet(rng.uniform(0.0, 1.0, (50, 3)))


class TestCentroid:
    def test_midpoint_of_pair(self):
        ps = PointSet(np.array([[0.0, 0.0, 0.0], [2.0, 2.0, 2.0]]))
        assert np.array_equal(center(ps)[1], np.array([1.0, 1.0, 1.0]))

    def test_symmetric_cross_centers_at_origin(self):
        ps = PointSet(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))
        assert np.array_equal(center(ps)[1], np.zeros(2))

    def test_matches_compensated_sum(self):
        # math.fsum is the independent accumulation route here.
        ps = seed42_cloud()
        c = center(ps)[1]
        expected = np.array(
            [math.fsum(ps.points[:, j]) / len(ps) for j in range(ps.dim)]
        )
        scale = float(np.max(np.abs(ps.points)))
        assert np.max(np.abs(c - expected)) <= 1e-12 * scale


class TestCenter:
    def test_shifts_mean_to_zero(self):
        ps = PointSet(np.array([[1.0, 1.0], [3.0, 3.0]]))
        centered, c = center(ps)
        assert np.array_equal(c, np.array([2.0, 2.0]))
        assert np.array_equal(centered.points, np.array([[-1.0, -1.0], [1.0, 1.0]]))

    def test_already_centered_is_untouched(self):
        ps = PointSet(np.array([[-1.0, -2.0], [1.0, 2.0]]))
        centered, c = center(ps)
        assert np.array_equal(c, np.zeros(2))
        assert np.array_equal(centered.points, ps.points)

    @settings(deadline=None, max_examples=200)
    @given(
        rows=st.lists(
            st.tuples(finite_coord, finite_coord, finite_coord),
            min_size=2,
            max_size=12,
        )
    )
    def test_round_trip_within_rounding(self, rows):
        ps = PointSet(np.array(rows, dtype=np.float64))
        centered, c = center(ps)
        scale = max(1.0, float(np.max(np.abs(ps.points))))
        assert np.max(np.abs(centered.points + c - ps.points)) <= 1e-12 * scale


class TestDistance:
    def test_unit_offset_from_axis(self):
        line = ParametricLine(np.zeros(3), np.array([1.0, 0.0, 0.0]))
        assert point_line_distance_sq(np.array([0.0, 1.0, 0.0]), line) == 1.0

    def test_point_on_line_is_numerically_zero(self):
        line = ParametricLine(np.array([1.0, 2.0, 3.0]), np.array([2.0, -1.0, 0.5]))
        x = line.point_at(3.7)
        assert point_line_distance_sq(x, line) <= 1e-24 * float(x @ x)

    def test_three_dim_example_against_cross_product(self):
        line = ParametricLine(np.zeros(3), np.array([1.0, 0.0, 0.0]))
        assert point_line_distance_sq(np.array([1.0, 2.0, 2.0]), line) == 8.0

    def test_matches_cross_product_form(self):
        # |s x y|^2 for unit s is an independent route to the same quantity.
        rng = np.random.default_rng(7)
        line_dir = canonical_direction(rng.standard_normal(3))
        anchor = rng.uniform(-2.0, 2.0, 3)
        line = ParametricLine(anchor, line_dir)
        for _ in range(200):
            x = rng.uniform(-5.0, 5.0, 3)
            y = x - anchor
            expected = float(np.cross(line.direction, y) @ np.cross(line.direction, y))
            got = point_line_distance_sq(x, line)
            assert abs(got - expected) <= 1e-10 * max(float(y @ y), 1e-30)

    def test_translation_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            direction = rng.standard_normal(d)
            anchor = rng.uniform(-2.0, 2.0, d)
            x = rng.uniform(-5.0, 5.0, d)
            shift = rng.uniform(-100.0, 100.0, d)
            base = point_line_distance_sq(x, ParametricLine(anchor, direction))
            moved = point_line_distance_sq(
                x + shift, ParametricLine(anchor + shift, direction)
            )
            scale = max(base, float((x - anchor) @ (x - anchor)), 1.0)
            assert abs(base - moved) <= 1e-9 * scale

    def test_rotation_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            direction = rng.standard_normal(d)
            anchor = rng.uniform(-2.0, 2.0, d)
            x = rng.uniform(-5.0, 5.0, d)
            base = point_line_distance_sq(x, ParametricLine(anchor, direction))
            rotated = point_line_distance_sq(
                q @ x, ParametricLine(q @ anchor, q @ direction)
            )
            assert abs(base - rotated) <= 1e-10 * max(base, 1.0)

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(3)
        pts = PointSet(rng.uniform(-4.0, 4.0, (40, 4)))
        line = ParametricLine(rng.uniform(-1.0, 1.0, 4), rng.standard_normal(4))
        batched = line_distances_sq(pts, line)
        for row, value in zip(pts.points, batched):
            assert abs(value - point_line_distance_sq(row, line)) <= 1e-12 * max(
                value, 1.0
            )

    def test_dimension_mismatch_raises(self):
        line = ParametricLine(np.zeros(3), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(DimensionMismatch):
            point_line_distance_sq(np.array([1.0, 2.0]), line)
        with pytest.raises(DimensionMismatch):
            line_distances_sq(PointSet(np.zeros((3, 2)) + [[1, 2], [3, 4], [5, 6]]), line)


class TestCanonicalDirection:
    @settings(deadline=None, max_examples=300)
    @given(v=st.tuples(finite_coord, finite_coord, finite_coord))
    def test_sign_insensitive_and_unit(self, v):
        vec = np.array(v, dtype=np.float64)
        if float(np.linalg.norm(vec)) < 1e-6:
            return
        a = canonical_direction(vec)
        b = canonical_direction(-vec)
        assert np.array_equal(a, b)
        assert abs(float(np.linalg.norm(a)) - 1.0) <= 1e-12
        for component in a:
            if abs(component) > 1e-12:
                assert component > 0.0
                break

    def test_idempotent(self):
        v = canonical_direction(np.array([-3.0, 4.0]))
        assert np.array_equal(canonical_direction(v), v)

    def test_negligible_leading_component_is_skipped(self):
        v = canonical_direction(np.array([1e-13, -1.0]))
        assert v[1] > 0.0

    def test_zero_raises(self):
        with pytest.raises(ZeroVector):
            canonical_direction(np.zeros(3))

    def test_array_signs_match_column_loop(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            dim = int(rng.integers(2, 9))
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            q = q * rng.choice([-1.0, 1.0], dim)
            # Leading components at or below SIGN_EPS, of either sign, must
            # not decide the sign; with rows == dim a column has none left.
            rows = int(rng.integers(0, dim + 1))
            small = rng.choice([0.0, 1e-13, 0.5 * SIGN_EPS, SIGN_EPS], (rows, dim))
            q[:rows] = small * rng.choice([-1.0, 1.0], (rows, dim))
            expected = q.copy()
            for j in range(dim):
                for component in q[:, j]:
                    if abs(component) > SIGN_EPS:
                        if component < 0.0:
                            expected[:, j] = -q[:, j]
                        break
            assert np.array_equal(_canonical_signs(q), expected)


class TestTypes:
    def test_point_set_validates(self):
        with pytest.raises(DegenerateInput):
            PointSet(np.zeros((1, 3)))
        with pytest.raises(DimensionMismatch):
            PointSet(np.zeros((4, 1)))
        with pytest.raises(DimensionMismatch):
            PointSet(np.zeros(5))
        with pytest.raises(ValueError):
            PointSet(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_point_set_is_immutable(self):
        ps = PointSet(np.ones((3, 2)))
        with pytest.raises(ValueError):
            ps.points[0, 0] = 5.0

    def test_line_normalizes_and_canonicalizes(self):
        line = ParametricLine(np.zeros(2), np.array([-2.0, 2.0]))
        assert np.allclose(line.direction, [math.sqrt(0.5), -math.sqrt(0.5)])
        assert abs(float(np.linalg.norm(line.direction)) - 1.0) <= 1e-12

    def test_line_rejects_bad_input(self):
        with pytest.raises(ZeroVector):
            ParametricLine(np.zeros(3), np.zeros(3))
        with pytest.raises(DimensionMismatch):
            ParametricLine(np.zeros(3), np.array([1.0, 0.0]))

    def test_line_point_at(self):
        line = ParametricLine(np.array([1.0, 0.0]), np.array([0.0, 2.0]))
        assert np.array_equal(line.point_at(3.0), np.array([1.0, 3.0]))
