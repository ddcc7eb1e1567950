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

from .errors import DegenerateInput, NonFinite
from .geometry import ROUNDING_C, PointSet, _freeze, _readonly


def min_total_sq_norm(n_points: int, dim: int) -> float:
    """The smallest total squared norm accumulate_scatter accepts for an
    (n_points, dim) cloud: n d^2 2^-1027.

    A product that lands below the normal range rounds by up to 2^-1075, so
    the subnormal rounding of the scatter is at most n d 2^-1075 in norm.
    It must stay under c eps lambda_1 with c = geometry.ROUNDING_C = 16, the
    rounding the fit allows itself (c eps / relgap on the direction,
    Davis-Kahan), and lambda_1 >= trace / d; that holds while the trace is
    at least n d^2 2^-1075 / (c eps).
    """
    return math.ldexp(n_points * dim * dim / (ROUNDING_C * math.ulp(1.0)), -1075)


@dataclass(frozen=True, eq=False)
class ScatterSummary:
    """Second moments of a cloud about the origin.

    These are the central moments when the cloud came from geometry.center.

    Attributes:
        scatter: sum of outer products x_p x_p^T, symmetric PSD.
        n_points: number of points accumulated.

    The rest is read from scatter on each access: dim, total_sq_norm (xi,
    its trace) and complement.
    """

    scatter: np.ndarray
    n_points: int

    def __post_init__(self):
        _freeze(self, "scatter")

    @property
    def dim(self) -> int:
        return self.scatter.shape[0]

    @property
    def total_sq_norm(self) -> float:
        """xi, the sum of |x_p|^2 over the cloud: the scatter's trace, read
        from it on each access, so the two cannot disagree."""
        return float(self.scatter.trace())

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
    re-checks that. The scatter is one np.einsum("ij,ik->jk") reduction,
    summed in an order fixed by the array's shape and not by the BLAS
    thread count, so the result is reproducible for identical input on any
    number of threads. The total squared norm xi is the scatter's trace,
    the sum of its d diagonal entries, not a second pass over the cloud.
    einsum forms entries (j, k) and (k, j) from the same products summed in
    the same order, so the scatter is exactly symmetric.

    Raises:
        NonFinite: if the moments overflow float64, as they do once the
            cloud's spread is near the square root of the float64 maximum.
        DegenerateInput: if the total squared norm is below
            min_total_sq_norm(n, d), n d^2 2^-1027: all points sit at the
            origin, which leaves every direction equally good (the message
            says the points coincide), or so close to it that the moments'
            subnormal rounding could move the direction by more than the
            fit's rounding bound (the message gives the floor), as when
            distinct points' squares underflow to a zero total.
    """
    pts = centered.points
    with np.errstate(over="ignore", invalid="ignore"):
        summary = ScatterSummary(scatter=np.einsum("ij,ik->jk", pts, pts), n_points=len(pts))
        total_sq_norm = summary.total_sq_norm
    if not (math.isfinite(total_sq_norm) and np.isfinite(summary.scatter).all()):
        raise NonFinite("the second moments overflow float64")
    floor = min_total_sq_norm(*pts.shape)
    if total_sq_norm < floor:
        raise DegenerateInput(
            f"the points' total squared norm {total_sq_norm:g} is below n d^2 2^-1027 "
            f"= {floor:g}, too small for float64 to fix a direction"
            if pts.any()
            else "all points coincide; every direction fits equally well"
        )
    return summary
