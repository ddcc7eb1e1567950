"""The whole-array moments kernel against plain left-to-right loops.

The loops below are the reference: each one accumulates a single row or
value at a time, in input order. The kernel sums in another order (numpy's
reductions and a matrix product), so the two agree only up to rounding.
The tolerances come from float64's epsilon alone, fixed before any run: a
sum of n terms, each at most T in magnitude, carries at most about
n * eps * (n * T) of rounding in either order, and 4 covers both sides.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from orthofit.errors import DegenerateInput
from orthofit.fit import fit_tls_line
from orthofit.geometry import PointSet, center
from orthofit.scatter import accumulate_scatter, min_total_sq_norm

EPS = float(np.finfo(np.float64).eps)


def loop_centroid(pts: np.ndarray) -> np.ndarray:
    total = np.zeros(pts.shape[1], dtype=np.float64)
    for row in pts:
        total += row
    return total / pts.shape[0]


def loop_scatter(pts: np.ndarray) -> tuple[float, np.ndarray]:
    """(total_sq_norm, scatter) of a centered cloud, one row at a time."""
    d = pts.shape[1]
    total_sq_norm = 0.0
    omega = np.zeros((d, d), dtype=np.float64)
    for row in pts:
        total_sq_norm += float(row @ row)
        omega += np.outer(row, row)
    return total_sq_norm, 0.5 * (omega + omega.T)


def loop_sum(values) -> float:
    total = 0.0
    for value in values:
        total += float(value)
    return total


def sum_tol(n: int, term_bound: float) -> float:
    """Rounding allowance between two summation orders of n terms."""
    return 4.0 * n * EPS * (n * term_bound)


clouds = arrays(
    np.float64,
    shape=st.tuples(st.integers(2, 200), st.integers(2, 6)),
    elements=st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@settings(deadline=None, max_examples=300)
@given(pts=clouds)
def test_centroid_matches_loop(pts):
    # A mean divides the n-term sum by n, which leaves n * eps * max|x|.
    n = pts.shape[0]
    got = center(PointSet(pts))[1]
    tol = 4.0 * n * EPS * float(np.max(np.abs(pts)))
    assert np.max(np.abs(got - loop_centroid(pts))) <= tol


@settings(deadline=None, max_examples=300)
@given(pts=clouds)
def test_scatter_and_total_sq_norm_match_loop(pts):
    centered, _ = center(PointSet(pts))
    y = centered.points
    n = y.shape[0]
    total_sq_norm, omega = loop_scatter(y)
    row_sq_bound = float(np.max(np.sum(y * y, axis=1)))
    try:
        summary = accumulate_scatter(centered)
    except DegenerateInput:
        # The kernel's total is below min_total_sq_norm; the loop's must be
        # too, within rounding.
        assert total_sq_norm <= min_total_sq_norm(*y.shape) + sum_tol(n, row_sq_bound)
        return
    assert abs(summary.total_sq_norm - total_sq_norm) <= sum_tol(n, row_sq_bound)
    entry_bound = float(np.max(np.abs(y))) ** 2
    assert np.max(np.abs(summary.scatter - omega)) <= sum_tol(n, entry_bound)


@settings(deadline=None, max_examples=300)
@given(pts=clouds)
def test_total_sq_norm_is_the_scatter_trace(pts):
    # xi is the scatter's diagonal summed, not a second pass over the cloud.
    try:
        summary = accumulate_scatter(center(PointSet(pts))[0])
    except DegenerateInput:
        return
    assert summary.total_sq_norm == float(np.trace(summary.scatter))


@settings(deadline=None, max_examples=300)
@given(pts=clouds)
def test_total_sq_distance_matches_loop(pts):
    points = PointSet(pts)
    try:
        result = fit_tls_line(points)
    except DegenerateInput:
        return
    n = len(points)
    expected = loop_sum(result.per_point_sq)
    tol = sum_tol(n, float(np.max(result.per_point_sq)))
    assert abs(result.total_sq_distance - expected) <= tol


def test_coincident_cloud_is_degenerate():
    # A one-pass mean of n copies of a non-dyadic point can miss it by an
    # ulp; the second centering pass removes that, leaving exact zeros.
    for n in range(2, 300):
        with pytest.raises(DegenerateInput):
            fit_tls_line(PointSet(np.tile([0.1, 7.3, -2.9], (n, 1))))
