"""Second-moment accumulation.

For a point set centered by geometry.center, the fitting objective for a
unit direction s is

    D(s) = sum_p |x_p|^2 - sum_p (x_p . s)^2 = s^T (xi I - Omega) s

where xi is the total squared norm of the cloud and Omega its scatter
(sum of outer products). This module builds those matrices; the solver
module turns them into a direction. Moments whose subnormal rounding could
move that direction by more than the fit's own rounding bound are refused:
the floor, min_total_sq_norm, grows with the cloud's size as n d^2 2^-1027.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, NonFinite
from .geometry import PointSet, _as_array, _freeze, _readonly


def min_total_sq_norm(n_points: int, dim: int) -> float:
    """The smallest total squared norm accumulate_scatter accepts for an
    (n_points, dim) cloud: n d^2 2^-1027.

    A product that lands below the normal range rounds by up to 2^-1075, so
    the subnormal rounding of the scatter is at most n d 2^-1075 in norm.
    It must stay under 16 eps lambda_1, the rounding the fit allows itself
    (16 eps / relgap on the direction, Davis-Kahan), and lambda_1 >= trace / d;
    that holds while the trace is at least n d^2 2^-1075 / (16 eps).
    """
    return math.ldexp(n_points * dim * dim, -1027)


def cross_matrix(a) -> np.ndarray:
    """Skew-symmetric 3x3 matrix T with T @ s == cross(a, s).

    Only defined for 3-vectors; raises DimensionMismatch otherwise.
    """
    a = _as_array(a, "axis")
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
    x = _as_array(x, "point")
    d = x.shape[0]
    if d < 2:
        raise DimensionMismatch(f"rejection_matrix needs dimension >= 2, got {d}")
    return (x @ x) * np.eye(d) - np.outer(x, x)


@dataclass(frozen=True, eq=False)
class ScatterSummary:
    """Second moments of a cloud about the origin.

    These are the central moments when the cloud came from geometry.center.

    Attributes:
        total_sq_norm: sum of |x_p|^2 over the cloud (the trace of scatter).
        scatter: sum of outer products x_p x_p^T, symmetric PSD.
        n_points: number of points accumulated.
    """

    total_sq_norm: float
    scatter: np.ndarray
    n_points: int

    def __post_init__(self):
        _freeze(self, "scatter")

    @property
    def dim(self) -> int:
        return self.scatter.shape[0]

    @property
    def complement(self) -> np.ndarray:
        """total_sq_norm * I - scatter, derived on each access.

        Its quadratic form at a unit s is the summed squared orthogonal
        distance to the line through the origin along s.
        """
        return _readonly(self.total_sq_norm * np.eye(self.dim) - self.scatter)


def accumulate_scatter(centered: PointSet) -> ScatterSummary:
    """Second moments of a cloud about the origin.

    Any cloud is accepted. Its moments are the central ones, which the fit
    needs, when `centered` comes from geometry.center; nothing here
    re-checks that. The scatter is one np.einsum("ij,ik->jk") reduction and
    the total squared norm one numpy sum, both summed in an order fixed by
    the array's shape and not by the BLAS thread count, so the result is
    reproducible for identical input on any number of threads. einsum forms
    entries (j, k) and (k, j) from the same products summed in the same
    order, so the scatter is exactly symmetric.

    Raises:
        NonFinite: if the moments overflow float64, as they do once the
            cloud's spread is near the square root of the float64 maximum.
        DegenerateInput: if the total squared norm is below
            min_total_sq_norm(n, d), n d^2 2^-1027: all points sit at the
            origin, which leaves every direction equally good, or so close
            to it that the moments' subnormal rounding could move the
            direction by more than the fit's rounding bound.
    """
    pts = centered.points
    with np.errstate(over="ignore", invalid="ignore"):
        total_sq_norm = float(np.sum(pts * pts))
        omega = np.einsum("ij,ik->jk", pts, pts)
    if not (np.isfinite(total_sq_norm) and np.isfinite(omega).all()):
        raise NonFinite("the second moments overflow float64")
    floor = min_total_sq_norm(*pts.shape)
    if total_sq_norm < floor:
        raise DegenerateInput(
            f"the points' total squared norm {total_sq_norm:g} is below n d^2 2^-1027 "
            f"= {floor:g}, too small for float64 to fix a direction"
            if total_sq_norm
            else "all points coincide; every direction fits equally well"
        )
    return ScatterSummary(total_sq_norm=total_sq_norm, scatter=omega, n_points=pts.shape[0])
