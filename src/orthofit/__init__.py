"""orthofit: fit lines to d-dimensional point clouds by orthogonal distance.

The fitted line minimizes the sum of squared orthogonal (perpendicular)
distances to the points, so the answer does not depend on which coordinate
is treated as dependent and is equivariant under rotations and translations
of the data. See fit_tls_line for the main entry point and the cli module
for the command-line front end.
"""

from .errors import (
    DegenerateInput,
    DimensionMismatch,
    InvariantViolation,
    NoConvergence,
    NonFinite,
    NotSymmetric,
    OrthofitError,
    ParseError,
    RankDeficient,
    UnsupportedDimension,
    ZeroVector,
)
from .fit import (
    ExplicitFitResult,
    LineFitResult,
    fit_lse_explicit,
    fit_tls_line,
    total_orthogonal_distance,
    vertical_residual_sq,
)
from .geometry import (
    ParametricLine,
    PointSet,
    canonical_direction,
    center,
    line_distances_sq,
)
from .oracle import GridSearchResult, cubic_eigenvalues, grid_search_direction
from .scatter import ScatterSummary, accumulate_scatter
from .solver import EigenSolution, dominant_eigenpair

__version__ = "0.1.0"

__all__ = [
    "DegenerateInput",
    "DimensionMismatch",
    "EigenSolution",
    "ExplicitFitResult",
    "GridSearchResult",
    "InvariantViolation",
    "LineFitResult",
    "NoConvergence",
    "NonFinite",
    "NotSymmetric",
    "OrthofitError",
    "ParametricLine",
    "ParseError",
    "PointSet",
    "RankDeficient",
    "ScatterSummary",
    "UnsupportedDimension",
    "ZeroVector",
    "accumulate_scatter",
    "canonical_direction",
    "center",
    "cubic_eigenvalues",
    "dominant_eigenpair",
    "fit_lse_explicit",
    "fit_tls_line",
    "grid_search_direction",
    "line_distances_sq",
    "total_orthogonal_distance",
    "vertical_residual_sq",
]
