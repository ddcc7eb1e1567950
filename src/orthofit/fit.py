"""High-level fitters.

fit_tls_line is the main entry point: it fits a line minimizing the summed
squared orthogonal distances (total least squares). fit_lse_explicit is the
classical baseline that minimizes vertical residuals of an explicit form
y = w . x + b, centered by geometry.center and solved by numpy.linalg.lstsq;
it exists so the two can be compared on the same data, where the orthogonal
fit is never worse and is often much better once the data is steep or
rotated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RankDeficient
from .geometry import (
    ParametricLine,
    PointSet,
    _readonly,
    _rejection_sq,
    center,
    line_distances_sq,
)
from .scatter import ScatterSummary, accumulate_scatter
from .solver import EigenSolution, dominant_eigenpair

@dataclass(frozen=True)
class LineFitResult:
    """Outcome of an orthogonal-distance line fit.

    Attributes:
        line: fitted line; anchor is the cloud centroid rounded to float64.
        total_sq_distance: sum of squared orthogonal distances, numpy's sum
            of the per-point values (deterministic for a fixed n).
        per_point_sq: squared orthogonal distance of each input point,
            measured on the centered cloud, not from the rounded anchor.
        eigen: the eigensolution behind the fit (spectrum, ambiguity flag).
        moments: the second moments of the centered cloud that the fit
            used; their scatter is the matrix eigen solved.
    """

    line: ParametricLine
    total_sq_distance: float
    per_point_sq: np.ndarray
    eigen: EigenSolution
    moments: ScatterSummary

    def __post_init__(self):
        object.__setattr__(
            self, "per_point_sq", _readonly(np.asarray(self.per_point_sq, dtype=np.float64))
        )

    @property
    def n_points(self) -> int:
        """Number of points fitted."""
        return self.moments.n_points


@dataclass(frozen=True)
class ExplicitFitResult:
    """Outcome of a classical explicit-form fit y = w . x + b.

    The dependent coordinate is points[:, dependent_col]; the remaining
    columns, in their original order, are the independent coordinates that
    w applies to.

    Attributes:
        coefficients: w, one weight per independent coordinate.
        offset: b.
        residual_sq: sum of squared vertical residuals (along the dependent
            axis only).
        dependent_col: resolved index of the dependent coordinate.
        dim: dimension of the input points.
    """

    coefficients: np.ndarray
    offset: float
    residual_sq: float
    dependent_col: int
    dim: int

    def __post_init__(self):
        object.__setattr__(
            self, "coefficients", _readonly(np.asarray(self.coefficients, dtype=np.float64))
        )


def fit_tls_line(points: PointSet) -> LineFitResult:
    """Fit a line minimizing the summed squared orthogonal distances.

    Centers the cloud on its centroid, accumulates the scatter matrix, and
    takes the dominant eigenvector as the direction; the optimal line always
    passes through the centroid, which becomes the anchor once rounded to
    float64. The distances are the rejections of the centered cloud from
    the direction, so they are measured from the centroid itself, not from
    the rounded anchor, whose rounding grows with the cloud's offset from
    the origin. The reported total is the sum of these per-point squares
    rather than the algebraically equal difference of large aggregates, so
    collinear data comes out at the rounding floor instead of cancellation
    noise. The fit takes no settings; the eigensolver's tolerance and sweep
    budget are the constants solver.JACOBI_TOL and solver.MAX_SWEEPS.

    Raises:
        DegenerateInput: if all points coincide.
        NoConvergence: if the eigensolver does not converge within
            solver.MAX_SWEEPS sweeps (propagated).
    """
    centered, centroid_vec = center(points)
    moments = accumulate_scatter(centered)
    eigen = dominant_eigenpair(moments.scatter)
    line = ParametricLine(anchor=centroid_vec, direction=eigen.direction)
    per_point = _rejection_sq(centered.points, line.direction)
    return LineFitResult(
        line=line,
        total_sq_distance=float(np.sum(per_point)),
        per_point_sq=per_point,
        eigen=eigen,
        moments=moments,
    )


def total_orthogonal_distance(points: PointSet, line: ParametricLine) -> float:
    """Summed squared orthogonal distance from a cloud to an arbitrary line.

    Measured from line.anchor. For the fitted line this matches
    LineFitResult.total_sq_distance up to the anchor's rounding to float64,
    not bit for bit: the fit measures from the centroid itself. For any
    other line it can only be larger (up to rounding).
    """
    return float(np.sum(line_distances_sq(points, line)))


def fit_lse_explicit(points: PointSet, dependent_col: int = -1) -> ExplicitFitResult:
    """Classical least squares for the explicit form y = w . x + b.

    Centers the cloud by geometry.center, the same rule the orthogonal fit
    uses, and solves for w by numpy.linalg.lstsq on the centered independent
    coordinates; the offset b then follows from the centroid. Minimizes
    only the vertical residual along the dependent axis, so it is not
    rotation invariant and degrades on steep data; that contrast with
    fit_tls_line is the point of keeping it around.

    Args:
        points: the cloud; needs at least dim points for a full-rank system.
        dependent_col: which coordinate plays the role of y. Negative
            indices count from the end; the default is the last column.

    Raises:
        RankDeficient: if the rank of the independent coordinates is below
            d - 1 (for example when they all coincide, i.e. a vertical
            line), or n < d.
        DimensionMismatch: if dependent_col is out of range.
    """
    n, d = points.points.shape
    if not (-d <= dependent_col < d):
        raise DimensionMismatch(
            f"dependent_col {dependent_col} out of range for dimension {d}"
        )
    dep = dependent_col % d
    if n < d:
        raise RankDeficient(f"need at least {d} points for an explicit fit, got {n}")

    keep = [j for j in range(d) if j != dep]
    centered, c = center(points)
    x = centered.points[:, keep]
    y = centered.points[:, dep]
    w, _, rank, _ = np.linalg.lstsq(x, y, rcond=None)
    if rank < d - 1:
        raise RankDeficient(f"independent coordinates have rank {rank}, need {d - 1}")

    residuals = x @ w - y
    return ExplicitFitResult(
        coefficients=w,
        offset=float(c[dep] - w @ c[keep]),
        residual_sq=float(np.sum(residuals * residuals)),
        dependent_col=dep,
        dim=d,
    )


def line_from_explicit(result: ExplicitFitResult) -> ParametricLine:
    """Convert an explicit fit to a parametric line for distance comparison.

    The explicit graph y = w . x + b is a line only when traversed along a
    single direction; we take the direction whose independent part is the
    unit vector along w (the graph's steepest traversal), which in two
    dimensions reproduces the classical fitted line exactly. When w is zero
    the graph is flat and the first independent axis is used. The anchor is
    the graph point at x = 0.
    """
    dep = result.dependent_col
    keep = [j for j in range(result.dim) if j != dep]
    w = result.coefficients
    wnorm = float(np.linalg.norm(w))
    if wnorm == 0.0:
        u = np.zeros(len(keep))
        u[0] = 1.0
    else:
        u = w / wnorm

    direction = np.zeros(result.dim)
    direction[keep] = u
    direction[dep] = float(w @ u)
    anchor = np.zeros(result.dim)
    anchor[dep] = result.offset
    return ParametricLine(anchor=anchor, direction=direction)


def vertical_residual_sq(
    points: PointSet, line: ParametricLine, dependent_col: int = -1
) -> float | None:
    """Summed squared residual along the dependent axis for any line.

    Each point is matched to the line parameter that best reproduces its
    independent coordinates; the residual is then the gap in the dependent
    coordinate alone. For a two-dimensional non-vertical line this is the
    classical vertical distance. Returns None when the line's independent
    part is zero (a vertical line predicts nothing).
    """
    d = points.dim
    if line.dim != d:
        raise DimensionMismatch(
            f"points have dimension {d}, line has dimension {line.dim}"
        )
    if not (-d <= dependent_col < d):
        raise DimensionMismatch(
            f"dependent_col {dependent_col} out of range for dimension {d}"
        )
    dep = dependent_col % d
    keep = [j for j in range(d) if j != dep]

    s_ind = line.direction[keep]
    denom = float(s_ind @ s_ind)
    if denom == 0.0:
        return None
    offsets = points.points[:, keep] - line.anchor[keep]
    t = (offsets @ s_ind) / denom
    predicted = line.anchor[dep] + t * line.direction[dep]
    gaps = points.points[:, dep] - predicted
    return float(np.sum(gaps * gaps))
