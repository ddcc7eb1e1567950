"""Second-moment accumulation for centered clouds.

For a centered point set the fitting objective for a unit direction s is

    D(s) = sum_p |x_p|^2 - sum_p (x_p . s)^2 = s^T (xi I - Omega) s

where xi is the total squared norm of the cloud and Omega its scatter
(sum of outer products). This module builds those matrices; the solver
module turns them into a direction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, NotCentered
from .geometry import PointSet, _as_vector, _readonly

# |mean| may not exceed this fraction of the coordinate scale.
CENTERED_RTOL = 1e-6


def cross_matrix(a) -> np.ndarray:
    """Skew-symmetric 3x3 matrix T with T @ s == cross(a, s).

    Only defined for 3-vectors; raises DimensionMismatch otherwise.
    """
    a = _as_vector(a, "axis")
    if a.shape != (3,):
        raise DimensionMismatch(f"cross_matrix needs a 3-vector, got dimension {a.shape[0]}")
    ax, ay, az = a
    return np.array(
        [
            [0.0, -az, ay],
            [az, 0.0, -ax],
            [-ay, ax, 0.0],
        ]
    )


def rejection_matrix(x) -> np.ndarray:
    """Matrix of the map s -> (x.x) s - (x.s) x, i.e. (x.x) I - x x^T.

    Applied to a unit vector s, the quadratic form s^T M s is the squared
    orthogonal distance of x from the line through the origin along s. The
    matrix is symmetric positive semidefinite with x in its null space; in
    three dimensions it factors as cross_matrix(x).T @ cross_matrix(x).
    """
    x = _as_vector(x, "point")
    d = x.shape[0]
    if d < 2:
        raise DimensionMismatch(f"rejection_matrix needs dimension >= 2, got {d}")
    return (x @ x) * np.eye(d) - np.outer(x, x)


@dataclass(frozen=True)
class ScatterSummary:
    """Second moments of a centered cloud.

    Attributes:
        total_sq_norm: sum of |x_p|^2 over the cloud (the trace of scatter).
        scatter: sum of outer products x_p x_p^T, symmetric PSD.
        complement: total_sq_norm * I - scatter; the quadratic form whose
            value at a unit s is the summed squared orthogonal distance to
            the line through the origin along s.
        n_points: number of points accumulated.
    """

    total_sq_norm: float
    scatter: np.ndarray
    complement: np.ndarray
    n_points: int

    def __post_init__(self):
        object.__setattr__(self, "scatter", _readonly(np.array(self.scatter, dtype=np.float64)))
        object.__setattr__(
            self, "complement", _readonly(np.array(self.complement, dtype=np.float64))
        )

    @property
    def dim(self) -> int:
        return self.scatter.shape[0]


def accumulate_scatter(centered: PointSet) -> ScatterSummary:
    """Accumulate second moments of an already-centered cloud.

    The scatter is one matrix product and the total squared norm one numpy
    sum, both deterministic for a fixed array shape, so the result is
    reproducible for identical input. The scatter matrix is symmetrized
    afterwards to remove any rounding drift between the two triangles.

    Args:
        centered: point set whose centroid is (numerically) zero.

    Raises:
        NotCentered: if any centroid component exceeds CENTERED_RTOL times
            the largest coordinate magnitude.
        DegenerateInput: if all points sit at the origin, which leaves every
            direction equally good.
    """
    pts = centered.points
    n, d = pts.shape
    scale = float(np.max(np.abs(pts)))
    mean = pts.mean(axis=0)
    if float(np.max(np.abs(mean))) > CENTERED_RTOL * scale:
        raise NotCentered(
            f"cloud mean {mean} is not zero relative to coordinate scale {scale:g}; "
            "call geometry.center first"
        )

    total_sq_norm = float(np.sum(pts * pts))
    omega = pts.T @ pts
    omega = 0.5 * (omega + omega.T)

    if total_sq_norm <= 0.0:
        raise DegenerateInput("all points coincide; every direction fits equally well")

    complement = total_sq_norm * np.eye(d) - omega
    return ScatterSummary(
        total_sq_norm=total_sq_norm,
        scatter=omega,
        complement=complement,
        n_points=n,
    )
