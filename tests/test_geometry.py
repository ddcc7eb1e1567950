import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orthofit
from orthofit.errors import DegenerateInput, DimensionMismatch, NonFinite, ZeroVector
from orthofit.fit import fit_tls_line
from orthofit.geometry import (
    _BLOCK_ROWS,
    SIGN_EPS,
    ParametricLine,
    PointSet,
    _lead_sign,
    _pow2_restored,
    _rejection_sq,
    _unit,
    canonical_direction,
    center,
    line_distances_sq,
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
        cloud = PointSet([[0.0, 1.0, 0.0], [5.0, 0.0, -1.0]])
        assert line_distances_sq(cloud, line).tolist() == [1.0, 1.0]

    def test_point_on_line_is_numerically_zero(self):
        line = ParametricLine(np.array([1.0, 2.0, 3.0]), np.array([2.0, -1.0, 0.5]))
        cloud = PointSet(np.stack([line.point_at(3.7), line.point_at(-1.2)]))
        norms_sq = np.einsum("ij,ij->i", cloud.points, cloud.points)
        assert np.all(line_distances_sq(cloud, line) <= 1e-24 * norms_sq)

    def test_three_dim_example_against_cross_product(self):
        line = ParametricLine(np.zeros(3), np.array([1.0, 0.0, 0.0]))
        cloud = PointSet([[1.0, 2.0, 2.0], [-3.0, 0.0, 0.0]])
        assert line_distances_sq(cloud, line).tolist() == [8.0, 0.0]

    def test_matches_cross_product_form(self):
        # |s x y|^2 for unit s is an independent route to the same quantity.
        rng = np.random.default_rng(7)
        line_dir = canonical_direction(rng.standard_normal(3))
        anchor = rng.uniform(-2.0, 2.0, 3)
        line = ParametricLine(anchor, line_dir)
        x = rng.uniform(-5.0, 5.0, (200, 3))
        y = x - anchor
        cross = np.cross(line.direction, y)
        expected = np.einsum("ij,ij->i", cross, cross)
        got = line_distances_sq(PointSet(x), line)
        tol = 1e-10 * np.maximum(np.einsum("ij,ij->i", y, y), 1e-30)
        assert np.all(np.abs(got - expected) <= tol)

    def test_translation_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            direction = rng.standard_normal(d)
            anchor = rng.uniform(-2.0, 2.0, d)
            x = rng.uniform(-5.0, 5.0, (4, d))
            shift = rng.uniform(-100.0, 100.0, d)
            base = line_distances_sq(PointSet(x), ParametricLine(anchor, direction))
            moved = line_distances_sq(
                PointSet(x + shift), ParametricLine(anchor + shift, direction)
            )
            offsets_sq = np.einsum("ij,ij->i", x - anchor, x - anchor)
            scale = np.maximum(np.maximum(base, offsets_sq), 1.0)
            assert np.all(np.abs(base - moved) <= 1e-9 * scale)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            d = int(rng.integers(2, 6))
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            direction = rng.standard_normal(d)
            anchor = rng.uniform(-2.0, 2.0, d)
            x = rng.uniform(-5.0, 5.0, (4, d))
            base = line_distances_sq(PointSet(x), ParametricLine(anchor, direction))
            rotated = line_distances_sq(
                PointSet(x @ q.T), ParametricLine(q @ anchor, q @ direction)
            )
            assert np.all(np.abs(base - rotated) <= 1e-10 * np.maximum(base, 1.0))

    def test_batched_matches_scalar(self):
        # A row's distance does not depend on the cloud it is measured in:
        # the whole cloud agrees with each row measured in a two-row cloud.
        rng = np.random.default_rng(3)
        pts = PointSet(rng.uniform(-4.0, 4.0, (40, 4)))
        line = ParametricLine(rng.uniform(-1.0, 1.0, 4), rng.standard_normal(4))
        batched = line_distances_sq(pts, line)
        for row, value in zip(pts.points, batched):
            alone = line_distances_sq(PointSet([row, line.anchor]), line)
            assert abs(value - alone[0]) <= 1e-12 * max(value, 1.0)
            assert alone[1] == 0.0

    def test_dimension_mismatch_raises(self):
        line = ParametricLine(np.zeros(3), np.array([1.0, 0.0, 0.0]))
        with pytest.raises(DimensionMismatch):
            line_distances_sq(PointSet(np.zeros((3, 2)) + [[1, 2], [3, 4], [5, 6]]), line)
        with pytest.raises(DimensionMismatch):
            line_distances_sq(PointSet(np.ones((2, 4))), line)


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _coordinate_order_rejections(y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """|y - (y.s)s|^2 per row, each sum over coordinates taken in order."""
    cols = [y[:, j] for j in range(y.shape[1])]
    dot = cols[0] * s[0]
    for col, sj in zip(cols[1:], s[1:]):
        dot = dot + col * sj
    sq = np.zeros(len(y))
    for col, sj in zip(cols, s):
        sq = sq + (col - dot * sj) ** 2
    return sq


class TestBlockedRejections:
    @pytest.mark.parametrize(
        "n", [_BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 7]
    )
    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_blocks_keep_the_one_shot_bytes(self, n, dim):
        # The reference sums in coordinate order over all rows at once, so
        # the blocks must leave no trace; neither may the input's layout.
        rng = np.random.default_rng([n, dim])
        x = rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(-3, 3, dim) + 1e3
        line = ParametricLine(x.mean(axis=0) + rng.normal(size=dim), rng.normal(size=dim))
        s, anchor = line.direction, line.anchor
        one_shot = _coordinate_order_rejections(x, s).tobytes()
        anchored = _coordinate_order_rejections(x - anchor, s).tobytes()
        strided = np.zeros((3 * n, 2 * dim))
        strided[::3, 1::2] = x
        for layout in (x, np.asfortranarray(x), strided[::3, 1::2]):
            assert _rejection_sq(layout, s).tobytes() == one_shot
            assert _rejection_sq(layout, s, anchor).tobytes() == anchored
            assert line_distances_sq(PointSet(layout), line).tobytes() == anchored

    def test_peaks_stay_near_the_cloud_size(self):
        # On a 1e6 x 3 cloud the fit holds the centered copy while it is
        # made (twice the cloud's bytes), and line_distances_sq only its
        # n-float output and one block's temporaries.
        rng = np.random.default_rng(11)
        t = rng.uniform(-5.0, 5.0, 10**6)
        x = np.outer(t, [1.0, 2.0, 3.0]) + rng.normal(0.0, 0.3, (10**6, 3))
        ps = PointSet(x)
        line = ParametricLine(x[0], [1.0, 2.0, 3.0])
        assert _traced_peak(fit_tls_line, ps) <= 2.2 * x.nbytes
        assert _traced_peak(line_distances_sq, ps, line) <= 0.5 * x.nbytes


# Fits two clouds above OpenBLAS's threading size and prints the sha256 of
# the per-point squares, the direction, line_distances_sq's output and the
# fitted line's vertical_residual_sq.
_THREAD_PROBE = """
import hashlib, json
import numpy as np
from orthofit.fit import fit_tls_line, vertical_residual_sq
from orthofit.geometry import PointSet, line_distances_sq
digests = []
for n, d in ((200001, 12), (70001, 50)):
    rng = np.random.default_rng([n, d])
    t = rng.uniform(-5.0, 5.0, (n, 1))
    x = t * rng.normal(size=d) + rng.normal(0.0, 0.3, (n, d)) + 1e3 * rng.normal(size=d)
    points = PointSet(x)
    result = fit_tls_line(points)
    vertical = np.float64(vertical_residual_sq(points, result.line))
    for out in (result.per_point_sq, result.line.direction, line_distances_sq(points, result.line),
                vertical):
        digests.append(hashlib.sha256(out.tobytes()).hexdigest())
print(json.dumps(digests))
"""


class TestBlasThreads:
    def test_distances_and_direction_keep_their_bytes_across_thread_counts(self):
        # No BLAS call runs over the points, so the thread count may not
        # move a byte, on clouds large enough for OpenBLAS to use threads.
        src = str(Path(orthofit.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2", "4"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": src}
            proc = subprocess.run(
                [sys.executable, "-c", _THREAD_PROBE], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(json.loads(proc.stdout))
        assert digests[0] == digests[1] == digests[2]


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

    def test_bytes_fixed_under_sign_and_powers_of_two(self):
        # The only rescalings promised to keep the bytes; 3v, or a unit
        # vector normalized again, agree to rounding but often not exactly.
        rng = np.random.default_rng(62)
        for _ in range(20):
            v = rng.standard_normal(int(rng.integers(2, 13)))
            a = canonical_direction(v)
            assert np.array_equal(canonical_direction(-v), a)
            assert np.array_equal(ParametricLine(np.zeros(v.shape), -v).direction, a)
            for k in range(-900, 901):
                assert np.array_equal(canonical_direction(np.ldexp(v, k)), a), k

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
            # Bytes, so that a -0.0 kept or negated is checked too.
            for j in range(dim):
                signed = q[:, j] * _lead_sign(q[:, j].tolist())
                assert signed.tobytes() == expected[:, j].tobytes()

    @pytest.mark.parametrize(
        "v, flipped",
        [
            ([SIGN_EPS, -0.5, 0.25], True),
            ([-SIGN_EPS, 0.5, -0.25], False),
            ([-SIGN_EPS, SIGN_EPS], False),
            ([-0.0, 0.0, -0.75], True),
            ([-0.0, 0.0, 0.75], False),
            ([0.0, -0.0, -SIGN_EPS], False),
        ],
    )
    def test_signs_at_the_threshold_and_of_negative_zero(self, v, flipped):
        # A component of magnitude exactly SIGN_EPS does not decide the
        # sign; a flip negates every entry (-0.0 to 0.0 and back), and a
        # vector left as is keeps its bytes. As columns, v and -v both map
        # to that result, unless no component decides, when both are kept.
        v = np.array(v)
        expected = -v if flipped else v
        assert (v * _lead_sign(v.tolist())).tobytes() == expected.tobytes()
        decided = bool(np.any(np.abs(v) > SIGN_EPS))
        pair = np.stack([v, -v], axis=1)
        expected_pair = np.stack([expected, expected if decided else -v], axis=1)
        signed = np.column_stack([c * _lead_sign(c.tolist()) for c in pair.T])
        assert signed.tobytes() == expected_pair.tobytes()


class TestScalarHelpers:
    def test_unit_is_the_division_by_numpy_norm(self):
        # _unit's math.sqrt(w.dot(w)) is np.linalg.norm's computation on a
        # 1-d float64 array: the same bytes, at every d and magnitude.
        rng = np.random.default_rng(63)
        for d in range(1, 301):
            for k in (-1000, 0, 1000):
                v = np.ldexp(rng.standard_normal(d), k)
                _, exp = math.frexp(float(np.abs(v).max()))
                w = np.ldexp(v, -exp)
                assert _unit(v).tobytes() == (w / np.linalg.norm(w)).tobytes(), (d, k)

    def test_pow2_restored_matches_np_ldexp(self):
        # Results that land subnormal round as np.ldexp rounds them; -0.0
        # and 0.0 keep their signs.
        values = [1.0, -0.75, 0.5 + 2.0**-52, -0.0, 0.0, 3.0 * 2.0**-30, 0.999]
        for exp in (-1074, -1060, -1030, -1022, -5, 0, 7, 1023):
            expected = np.ldexp(np.array(values), exp)
            assert np.array(_pow2_restored(values, exp)).tobytes() == expected.tobytes()
        assert 0.0 < _pow2_restored([0.5 + 2.0**-52], -1060)[0] < 2.0**-1022

    @pytest.mark.parametrize("values, exp", [([0.75, -0.5], 1025), ([-1.0], 1024), ([1.0], 5000)])
    def test_pow2_restored_overflow_is_typed(self, values, exp):
        with pytest.raises(NonFinite, match="exceed the float64 range"):
            _pow2_restored(values, exp)


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
        with pytest.raises(NonFinite):
            PointSet(np.array([[1.0, np.inf], [0.0, 1.0]]))
        with pytest.raises(NonFinite):
            ParametricLine(np.array([np.nan, 0.0]), np.array([1.0, 0.0]))

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
