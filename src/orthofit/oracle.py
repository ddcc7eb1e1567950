"""Independent cross-checks for the fitter.

Two deliberately different routes to the same answers live here:

* grid_search_direction scores a dense grid of candidate directions in
  one einsum over the cloud's own d x d scatter, with no eigensolver
  involved. The grid array dominates its memory.
* cubic_eigenvalues solves the 3x3 characteristic polynomial in closed
  trigonometric form, with no iteration involved.

Both are slower or narrower than the production path on purpose; they exist
so the fitter can be validated against something that shares none of its
code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, UnsupportedDimension
from .geometry import PointSet, _freeze, _pow2_restored, _symmetric_scaled, canonical_direction

@dataclass(frozen=True, eq=False)
class GridSearchResult:
    """Best direction found by brute-force scanning.

    Attributes:
        best_direction: sign-canonicalized unit vector of the best grid
            node. Exact ties are broken toward the lexicographically
            smallest raw grid vector, so results are deterministic.
        best_sq_distance: objective value at that node, clamped at zero.
        resolution_deg: grid spacing that was used.
        evaluated: number of candidate directions scanned.
    """

    best_direction: np.ndarray
    best_sq_distance: float
    resolution_deg: float
    evaluated: int

    def __post_init__(self):
        _freeze(self, "best_direction")


def _grid_directions(dim: int, resolution_deg: float) -> np.ndarray:
    if dim == 2:
        theta = np.deg2rad(np.arange(0.0, 180.0, resolution_deg))
        return np.column_stack([np.cos(theta), np.sin(theta)])
    # Hemisphere: polar angle from the +z pole down to the equator,
    # inclusive of the equator when the resolution divides 90 evenly.
    polar = np.deg2rad(np.arange(0.0, 90.0 + 1e-9, resolution_deg))
    azimuth = np.deg2rad(np.arange(0.0, 360.0, resolution_deg))
    # Filled in place by broadcasting, so the grid is the only
    # polar x azimuth array: no meshgrid, no trig on the full grid.
    sin_pol = np.sin(polar)[:, None]
    grid = np.empty((polar.size, azimuth.size, 3))
    np.multiply(sin_pol, np.cos(azimuth), out=grid[:, :, 0])
    np.multiply(sin_pol, np.sin(azimuth), out=grid[:, :, 1])
    grid[:, :, 2] = np.cos(polar)[:, None]
    return grid.reshape(-1, 3)


def grid_search_direction(points: PointSet, resolution_deg: float) -> GridSearchResult:
    """Scan directions on a dense angular grid, minimizing the objective.

    Covers a half-circle (2-d) or a hemisphere (3-d); opposite directions
    describe the same line, so scanning half the sphere is enough. The
    objective for each candidate s is sum |y|^2 - sum (y . s)^2 over the
    centered cloud y. It is scored as xi - s^T Omega s from the energy
    xi = sum |y|^2 and the d x d scatter Omega = sum y y^T, both formed once
    by einsum, so each direction costs O(d^2), independent of the number of
    points. One einsum scores the whole grid, and exact ties go to the
    lexicographically smallest raw grid vector. The returned value
    quantizes the true optimum: it can exceed it by roughly
    (lam1 - lam2) sin^2(delta) for a grid offset delta of at most about
    resolution_deg / sqrt(2).

    Args:
        points: the cloud; centered internally.
        resolution_deg: grid spacing in degrees, in (0, 10].

    Raises:
        UnsupportedDimension: for clouds that are not 2- or 3-dimensional.
        ValueError: for a resolution outside (0, 10].
    """
    if points.dim not in (2, 3):
        raise UnsupportedDimension(
            f"grid search covers dimensions 2 and 3, got {points.dim}"
        )
    if not (0.0 < resolution_deg <= 10.0):
        raise ValueError(f"resolution_deg must be in (0, 10], got {resolution_deg}")

    # Centered here, not by geometry.center, so the scan shares no code with
    # the fit it checks: subtract the mean, then the residual's mean.
    y = points.points - points.points.mean(axis=0)
    y -= y.mean(axis=0)
    total_sq = float(np.einsum("ij,ij->", y, y))
    # The scatter formula is the one accumulate_scatter uses; the oracle's
    # independence from the fit lies in its own centering above and in the
    # direction scan below, which needs no eigensolver.
    omega = np.einsum("ij,ik->jk", y, y)
    directions = _grid_directions(points.dim, resolution_deg)
    values = total_sq - np.einsum("ij,jk,ik->i", directions, omega, directions)
    best_value = float(values.min())
    best_raw = min(tuple(row) for row in directions[values == best_value])

    return GridSearchResult(
        best_direction=canonical_direction(np.array(best_raw)),
        best_sq_distance=max(best_value, 0.0),
        resolution_deg=resolution_deg,
        evaluated=directions.shape[0],
    )


def _det3(m: np.ndarray) -> float:
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def cubic_eigenvalues(matrix) -> np.ndarray:
    """Eigenvalues of a symmetric 3x3 matrix in closed form, descending.

    Solves the characteristic cubic through the standard trigonometric
    substitution: shift by the mean eigenvalue, scale by the deviation
    magnitude, and read the three roots off a third-angle cosine. No
    iteration, no factorization; this is the independent check for the
    Jacobi solver's spectrum.

    The input passes the Jacobi solver's gate, geometry._symmetric_scaled:
    validated, scaled by the power of two that brings its largest entry
    into [0.5, 1), checked for symmetry and symmetrized, in that order. The
    roots are found for that copy and scaled back, so the sums and squares
    they take can neither overflow nor underflow at any finite magnitude.
    The scaling is exact: for every power of two 2^k that keeps the entries
    and the roots normal floats, the roots of 2^k A are 2^k times those of
    A, bit for bit.

    Raises:
        NotSymmetric: if the matrix is not square or not symmetric.
        DimensionMismatch: if it is not a 3x3 array.
        NonFinite: if an entry is NaN or infinite, or if a root scaled
            back leaves the float64 range.
    """
    a, exp = _symmetric_scaled(matrix)
    if a.shape != (3, 3):
        raise DimensionMismatch(f"cubic_eigenvalues needs a 3x3 matrix, got {a.shape}")

    off_sq = a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2
    if off_sq == 0.0:
        return _pow2_restored(np.sort(np.diag(a))[::-1], exp)

    q = float(np.trace(a)) / 3.0
    p2 = (a[0, 0] - q) ** 2 + (a[1, 1] - q) ** 2 + (a[2, 2] - q) ** 2 + 2.0 * off_sq
    p = math.sqrt(p2 / 6.0)
    b = (a - q * np.eye(3)) / p
    r = _det3(b) / 2.0
    r = min(1.0, max(-1.0, r))
    phi = math.acos(r) / 3.0

    lam1 = q + 2.0 * p * math.cos(phi)
    lam3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    lam2 = 3.0 * q - lam1 - lam3
    return _pow2_restored(np.sort(np.array([lam1, lam2, lam3]))[::-1], exp)
