"""High-level fitters.

fit_tls_line is the main entry point: it fits a line minimizing the summed
squared orthogonal distances (total least squares). fit_lse_explicit is the
classical baseline that minimizes vertical residuals of an explicit form
y = w . x + b, centered by geometry.center and solved by numpy.linalg.lstsq,
the module's one BLAS or LAPACK call over the points: every projection of
the points on a vector (the distances, the explicit residuals,
vertical_residual_sq's line parameters) is geometry._row_dots's sum in
coordinate order, so its bytes do not depend on the BLAS thread count.
It carries its graph as a line through the same centroid the orthogonal fit
uses, so the two can be scored by the same metric on the same data, where
the orthogonal fit is never worse and is often much better once the data is
steep or rotated. check_fit fits a cloud and verifies the fit by routes
that share none of its code: the eigendecomposition's backward error, the
objective's values and the grid oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite, RankDeficient
from .geometry import (
    ROUNDING_C,
    ParametricLine,
    PointSet,
    _freeze,
    _pow2_scaled,
    _rejection_sq,
    _row_dots,
    _unit,
    center,
    line_distances_sq,
)
from .oracle import grid_search_direction
from .scatter import ScatterSummary, accumulate_scatter
from .solver import EigenSolution, dominant_eigenpair


@dataclass(frozen=True, eq=False)
class LineFitResult:
    """Outcome of an orthogonal-distance line fit.

    Attributes:
        line: fitted line; anchor is the cloud centroid rounded to float64,
            direction the fit's one direction.
        per_point_sq: squared orthogonal distance of each input point,
            measured on the centered cloud, not from the rounded anchor.
        eigen: the eigensolution behind the fit (spectrum, eigenvectors,
            ambiguity flag).
        moments: the second moments of the centered cloud that the fit
            used; their scatter is the matrix eigen solved.
    """

    line: ParametricLine
    per_point_sq: np.ndarray
    eigen: EigenSolution
    moments: ScatterSummary

    def __post_init__(self):
        _freeze(self, "per_point_sq")

    @property
    def n_points(self) -> int:
        """Number of points fitted."""
        return self.moments.n_points

    @property
    def total_sq_distance(self) -> float:
        """Sum of squared orthogonal distances: numpy's sum of per_point_sq
        (deterministic for a fixed n), taken on each access, so the two
        cannot disagree."""
        return float(self.per_point_sq.sum())


@dataclass(frozen=True, eq=False)
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
        line: the fitted graph as a line, so both fits can be scored by the
            same orthogonal metric. Its anchor is the cloud centroid, the
            same rounded centroid fit_tls_line reports; its direction is the
            graph's steepest traversal (see fit_lse_explicit).
    """

    coefficients: np.ndarray
    offset: float
    residual_sq: float
    dependent_col: int
    line: ParametricLine

    def __post_init__(self):
        _freeze(self, "coefficients")


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
    noise. The fit takes no settings: the eigensolver stops at float64's
    rounding floor, and its sweep budget is the constant solver.MAX_SWEEPS.
    The result stores what the fit measured: the line, built from the
    dominant column of eigen.eigenvectors, is the fit's one direction, and
    the total and moments.total_sq_norm are read from per_point_sq and the
    scatter on each access.

    Raises:
        DegenerateInput: if all points coincide.
        NoConvergence: if the eigensolver does not converge within
            solver.MAX_SWEEPS sweeps (propagated).
    """
    centered, centroid_vec = center(points)
    moments = accumulate_scatter(centered)
    eigen = dominant_eigenpair(moments.scatter)
    line = ParametricLine(anchor=centroid_vec, direction=eigen.eigenvectors[:, 0])
    per_point = _rejection_sq(centered.points, line.direction)
    return LineFitResult(line=line, per_point_sq=per_point, eigen=eigen, moments=moments)


def total_orthogonal_distance(points: PointSet, line: ParametricLine) -> float:
    """Summed squared orthogonal distance from a cloud to an arbitrary line.

    Measured from line.anchor. For the fitted line this matches
    LineFitResult.total_sq_distance up to the anchor's rounding to float64,
    not bit for bit: the fit measures from the centroid itself. For any
    other line it can only be larger (up to rounding).
    """
    return float(np.sum(line_distances_sq(points, line)))


def _dependent_index(d: int, col: int) -> int:
    """The dependent column col as an index into d coordinates; a negative
    col counts from the end.

    Raises:
        DimensionMismatch: if col is outside [-d, d).
    """
    if not (-d <= col < d):
        raise DimensionMismatch(f"dependent_col {col} out of range for dimension {d}")
    return col % d


def fit_lse_explicit(points: PointSet, dependent_col: int = -1) -> ExplicitFitResult:
    """Classical least squares for the explicit form y = w . x + b.

    Centers the cloud by geometry.center, the same rule the orthogonal fit
    uses, and solves for w by numpy.linalg.lstsq on the centered independent
    coordinates; the offset b then follows from the centroid. Minimizes
    only the vertical residual along the dependent axis, so it is not
    rotation invariant and degrades on steep data; that contrast with
    fit_tls_line is the point of keeping it around.

    The graph y = w . x + b is a line only when traversed along a single
    direction. The result's line runs through the centroid, which lies on
    the graph, along the direction whose independent part is the unit
    vector along w (the steepest traversal); in two dimensions that is the
    classical fitted line itself. When w is zero the graph is flat and the
    first independent axis is used. Both fits anchor at the centroid, so in
    any dimension the line moves with the cloud under translation.

    The rank of the centered independent coordinates is the smaller of
    lstsq's rank and the number of their singular values above
    eps * max|x| * sqrt(n (d - 1)), with max|x| taken over the stored
    independent coordinates: that is the norm of the rounding those
    coordinates carry, so an exactly collinear cloud stored far from the
    origin is rank deficient just as it is at the origin.

    Args:
        points: the cloud; needs at least dim points for a full-rank system.
        dependent_col: which coordinate plays the role of y. Negative
            indices count from the end; the default is the last column.

    Raises:
        RankDeficient: if that rank is below d - 1 (for example when the
            independent coordinates all coincide, i.e. a vertical line,
            when the cloud is exactly collinear in d >= 3, or when there
            are fewer than d points).
        DimensionMismatch: if dependent_col is out of range.
        NonFinite: if the residual or the offset overflows float64 (a cloud
            whose coordinates are near 2^1000, say).
    """
    d = points.dim
    dep = _dependent_index(d, dependent_col)

    keep = [j for j in range(d) if j != dep]
    centered, c = center(points)
    x = centered.points[:, keep]
    y = centered.points[:, dep]
    w, _, rank, sv = np.linalg.lstsq(x, y, rcond=None)
    # The stored independent coordinates are each rounded by up to
    # eps max|x|; singular values within that rounding's norm are not rank.
    floor = np.finfo(np.float64).eps * np.max(np.abs(points.points[:, keep]))
    rank = min(rank, int(np.count_nonzero(sv > floor * np.sqrt(x.size))))
    if rank < d - 1:
        raise RankDeficient(f"independent coordinates have rank {rank}, need {d - 1}")

    with np.errstate(over="ignore", invalid="ignore"):
        residuals = _row_dots(x, w) - y
        residual_sq = float(np.sum(residuals * residuals))
        offset = float(c[dep] - w @ c[keep])
    if not np.isfinite((residual_sq, offset)).all():
        raise NonFinite("the explicit fit's residual or offset overflows float64")
    u = _unit(w) if w.any() else np.eye(d - 1)[0]
    return ExplicitFitResult(
        coefficients=w,
        offset=offset,
        residual_sq=residual_sq,
        dependent_col=dep,
        line=ParametricLine(anchor=c, direction=np.insert(u, dep, w @ u)),
    )


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
    dep = _dependent_index(d, dependent_col)
    keep = [j for j in range(d) if j != dep]

    s_ind = line.direction[keep]
    denom = float(s_ind @ s_ind)
    if denom == 0.0:
        return None
    offsets = points.points[:, keep] - line.anchor[keep]
    t = _row_dots(offsets, s_ind) / denom
    predicted = line.anchor[dep] + t * line.direction[dep]
    gaps = points.points[:, dep] - predicted
    return float(np.sum(gaps * gaps))


@dataclass(frozen=True)
class CheckRecord:
    """One verdict of check_fit, one line of the `check` report.

    Attributes:
        name: the check, e.g. "grid-agreement".
        status: "PASS" when measured lies in the check's accepted range, at
            most tol (grid-agreement also needs at least -c n eps xi, see
            check_fit), "FAIL" when it does not or is NaN, "SKIP" when the
            check does not apply.
        measured: the value the check read; None for a SKIP.
        tol: the largest value that passes; None for a SKIP.
        reason: why the check was skipped; None otherwise.
    """

    name: str
    status: str
    measured: float | None = None
    tol: float | None = None
    reason: str | None = None


def _judged(name: str, measured: float, tol: float, lo: float = -math.inf) -> CheckRecord:
    """The one verdict rule: PASS when lo <= measured <= tol, else FAIL."""
    return CheckRecord(name, "PASS" if lo <= measured <= tol else "FAIL", measured, tol)


def check_fit(points: PointSet, resolution_deg: float) -> tuple[CheckRecord, ...]:
    """Fit the cloud and verify the fit by routes that share none of its code.

    The records come in report order: decomposition, objective-consistency
    and grid-agreement. decomposition is the backward error of the whole
    eigendecomposition, max(|Omega V - V Lambda|_F, |V^T V - I|_F |lam1|),
    LAPACK's test ratios for a symmetric eigensolver (xSYT21; Anderson et
    al., LAPACK Users' Guide, 3rd ed., SIAM 1999, sec. 4.7), on the fit's
    scatter Omega, with Lambda the spectrum and V the line's direction
    followed by the solver's other eigenvectors: a line built wrong from a
    right solve fails it. The first column of Omega V - V Lambda,
    Omega s - lam1 s, is at least the eigen-residual |Omega s - rho s|, as
    the Rayleigh quotient rho minimizes it over scalars.
    objective-consistency compares two values of the minimum objective
    xi - lam1 (the paper's D(s) = xi - s^T Omega s at the dominant
    eigenvector): the summed distances, total_sq_distance, which sums each
    point's squared rejection off the line's direction (per_point_sq), and
    xi less the spectrum's largest value, with xi the trace of the fit's
    scatter (moments.total_sq_norm). The grid check
    runs in dimensions 2 and 3 at resolution_deg, and is a SKIP elsewhere.

    Every tolerance is c = geometry.ROUNDING_C times a model of the rounding
    its route carries, for an (n, d) cloud of total squared norm xi, which
    bounds every eigenvalue, every matrix entry and |Omega|_F, and
    eps = math.ulp(1.0):

    * decomposition, c d sqrt(d) eps xi. The solver builds V by orthogonal
      transformations in O(d) stages, each of which rounds every row of V
      by a few eps of its norm (Higham 2002, Lemmas 19.3 and 19.8: the
      Jacobi's rotations fall into stages of disjoint pairs, about 2d per
      sweep; a Householder reduction takes d - 2 reflections). So each row
      of V drifts by up to about d eps from an orthonormal V0 that exactly
      diagonalizes some Omega + E, |E| of order d eps xi, and V - V0 is
      about d sqrt(d) eps in Frobenius norm. |V^T V - I|_F is at most
      twice that, and |Omega V - V Lambda|_F at most |E| plus 2 xi times
      it, with |lam1| <= xi. That order, not LAPACK's d eps, is what the
      Jacobi meets: on 1000-point line clouds with sigma 1e-3 the record
      reads about 0.06 of this tol at every d from 20 to 300, where a d eps
      tol fails from d = 300. The record's own d-term products round by
      about sqrt(d) eps xi and d eps xi (the probabilistic model of Higham
      and Mary, SIAM J. Sci. Comput. 41, 2019), well inside. The model
      reads nothing of how the solver stops, so it holds for eigh too.
    * objective-consistency, c (n + d) eps xi: gamma_n of the n-term sums
      and gamma_d of the d-term ones (Higham 2002, ch. 3), route by route.
      The summed distances are, in exact arithmetic on the centered cloud,
      xi - rho, with rho the Rayleigh quotient of Omega at the computed
      direction; each point's dot and squared rejection are d-term sums
      (gamma_d), and their total is np.sum's pairwise n-term sum. The
      direction is an exact eigenvector of some Omega + E, |E| of order
      d eps xi (the decomposition model above), so rho is that matrix's
      top eigenvalue up to |E|, at any spectral gap. On the other route xi
      is the sum of the scatter's d diagonal entries (gamma_d), so both
      xi and the spectrum inherit the scatter's rounding, and the
      spectrum's largest value is the scatter's lam1 up to the solver's
      backward error, of order d eps xi (Weyl's inequality). The scatter
      is where gamma_n, not a pairwise sum's log n bound, is the worst
      case: its einsum("ij,ik->jk") runs down two contiguous columns of
      the column-major cloud, in two interleaved sequential sums of about
      n / 2 products each, even rows and odd rows, which it adds at the
      end (numpy's two-lane loop; on a seeded 20000 x 3 cloud every entry
      equals that model bit for bit, and neither a single sequential sum
      nor np.sum of the same products does). So each entry, and each
      eigenvalue, rounds by at most gamma_(n/2 + 1) xi.
    * grid-agreement, accepted in [-c n eps xi, quantization + c n eps xi].
      The quantization (lam1 - lam_d) sin^2(resolution_deg) bounds how far
      the best grid node's objective may sit above the minimum; the oracle's
      own n-term sums round by gamma_n xi either way.

    Raises:
        ValueError: for a resolution_deg outside (0, 10], in every dimension
            and before anything is fitted.
        whatever fit_tls_line raises; MemoryError for a grid too large to
        allocate.
    """
    if not (0.0 < resolution_deg <= 10.0):
        raise ValueError(f"resolution_deg must be in (0, 10], got {resolution_deg}")
    result = fit_tls_line(points)
    moments, eigen = result.moments, result.eigen
    xi, n, d = moments.total_sq_norm, moments.n_points, points.dim
    total = result.total_sq_distance
    # The decomposition reads one copy of the scatter, scaled by the power
    # of two that brings its largest entry into [0.5, 1) (the solver's
    # rule), so none of its products or norms can overflow or underflow at
    # any cloud scale; the measured value is scaled back. The products are
    # einsum's, not BLAS calls.
    scatter, exp, _ = _pow2_scaled(moments.scatter)
    v = np.column_stack([result.line.direction, eigen.eigenvectors[:, 1:]])
    lam = np.ldexp(eigen.spectrum, -exp)
    r = np.einsum("ij,jk->ik", scatter, v) - v * lam
    g = np.einsum("ji,jk->ik", v, v) - np.eye(d)
    residual, orthogonality = (math.sqrt(np.einsum("ij,ij->", m, m)) for m in (r, g))
    decomposition = math.ldexp(max(residual, orthogonality * abs(lam[0])), exp)
    spectrum = eigen.spectrum.tolist()
    disagreement = abs(total - (xi - max(spectrum)))
    # Each tolerance is its rounding model (see above) in units of c eps xi,
    # which cannot overflow: every model is far below 1 / eps.
    unit = ROUNDING_C * math.ulp(1.0) * xi
    report = [
        _judged("decomposition", decomposition, d * math.sqrt(d) * unit),
        _judged("objective-consistency", disagreement, (n + d) * unit),
    ]

    if d <= 3:
        grid = grid_search_direction(points, resolution_deg)
        gap = grid.best_sq_distance - total
        quantization = (spectrum[0] - spectrum[-1]) * math.sin(math.radians(resolution_deg)) ** 2
        report.append(_judged("grid-agreement", gap, quantization + n * unit, lo=-n * unit))
    else:
        reason = f"grid oracle covers dim <= 3, input is {d}"
        report.append(CheckRecord("grid-agreement", "SKIP", reason=reason))
    return tuple(report)
