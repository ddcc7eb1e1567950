"""Correctness reference that shares no code with orthofit.

The reference direction comes from plain numpy: pre-scale by max |x|
(rounded to a power of two), center in two passes, form Y^T Y and take
eigh's top eigenvector. Scaling first keeps every cloud in range whatever
its magnitude, and the second centering pass removes what the first pass
lost to rounding at a large offset, so the reference is right on every
input the benchmark makes.
"""

from __future__ import annotations

import math

import numpy as np

# Loose against the ~1e-12 rad that a correct fit of these clouds reaches,
# tight against any real loss of accuracy.
ANGLE_TOL_RAD = 1e-8

DEGENERATE = "DegenerateInput"


def reference_direction(points) -> np.ndarray | None:
    """Unit direction of the best orthogonal-distance line, or None when
    all points coincide and no direction is defined."""
    x = np.asarray(points, dtype=np.float64)
    if np.all(x == x[0]):
        return None
    # A power-of-two scale is exact, so no coordinate is rounded before
    # centering; at offset 1e9 that rounding would be 1e-4 of a 1e-3 spread.
    _, exponent = np.frexp(np.max(np.abs(x)))
    y = np.ldexp(x, -exponent)
    y = y - y.mean(axis=0)
    y = y - y.mean(axis=0)
    _, vectors = np.linalg.eigh(y.T @ y)
    return vectors[:, -1]


def angle_rad(u, v) -> float:
    """Angle between the lines along u and v; the sign of either is ignored."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    dot = float(u @ v)
    if dot < 0.0:
        v, dot = -v, -dot
    return math.atan2(float(np.linalg.norm(u - dot * v)), dot)


def check_direction(expected: np.ndarray | None, direction, error: BaseException | None) -> bool:
    """Whether one fit's outcome is correct.

    With an expected direction, the fit must have returned a direction
    within ANGLE_TOL_RAD of it. With none (coincident points), the fit must
    have raised exactly DegenerateInput. Any other exception, or a
    non-finite or wrong direction, fails.
    """
    if expected is None:
        return error is not None and type(error).__name__ == DEGENERATE
    if error is not None or direction is None:
        return False
    direction = np.asarray(direction, dtype=np.float64)
    if direction.shape != expected.shape or not np.all(np.isfinite(direction)):
        return False
    return angle_rad(direction, expected) <= ANGLE_TOL_RAD
