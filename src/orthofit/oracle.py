"""Independent cross-checks for the fitter.

Deliberately different routes to the same answers live here:

* grid_search_direction scores a dense grid of candidate directions from
  the cloud's own d x d scatter, in closed separable form over the grid's
  polar and azimuth angles, with no eigensolver involved and without
  building the grid: two float64 scores per node at most.
* cubic_eigenvalues solves the 3x3 characteristic polynomial in closed
  trigonometric form, with no iteration involved.
* cross_matrix and rejection_matrix give the paper's per-point form of the
  objective: the rejection matrix (x.x) I - x x^T, whose sum over a cloud
  is the complement xi I - Omega, and its 3-d factorization T^T T through
  the cross-product matrix T.

They are slower or narrower than the production path on purpose; they
exist so the fitter can be validated against something that shares none
of its code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, UnsupportedDimension
from .geometry import (
    PointSet,
    _as_array,
    _freeze,
    _pow2_restored,
    _symmetric_scaled,
    canonical_direction,
)

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


def grid_search_direction(points: PointSet, resolution_deg: float) -> GridSearchResult:
    """Scan directions on a dense angular grid, minimizing the objective.

    Covers a half-circle (2-d) or a hemisphere (3-d); opposite directions
    describe the same line, so scanning half the sphere is enough. The
    objective for each candidate s is sum |y|^2 - sum (y . s)^2 over the
    centered cloud y. It is scored as xi - s^T Omega s from the energy
    xi = sum |y|^2 and the d x d scatter Omega = sum y y^T, both formed once
    by einsum, so each direction costs O(1), independent of the number of
    points. The grid of directions is never built: for the node
    s = (sin t cos p, sin t sin p, cos t) at polar angle t and azimuth p,

        s^T Omega s = sin^2 t A(p) + sin t cos t B(p) + Omega_33 cos^2 t,
        A(p) = Omega_11 cos^2 p + 2 Omega_12 cos p sin p + Omega_22 sin^2 p,
        B(p) = 2 (Omega_13 cos p + Omega_23 sin p),

    so the polar x azimuth scores are outer products of three polar and two
    azimuth vectors, two float64 arrays of that size at most; in 2-d the
    node (cos p, sin p) is the equator's, and scores A(p). Only the nodes
    that tie at the minimum are formed, from the same sines and cosines,
    and exact ties go to the lexicographically smallest raw node. The
    returned value quantizes the true optimum: it can exceed it by roughly
    (lam1 - lam2) sin^2(delta) for a grid offset delta of at most about
    resolution_deg / sqrt(2).

    Args:
        points: the cloud; centered internally.
        resolution_deg: grid spacing in degrees, in (0, 10].

    Raises:
        UnsupportedDimension: for clouds that are not 2- or 3-dimensional.
        ValueError: for a resolution outside (0, 10].
        MemoryError: for a grid too large to allocate.
    """
    dim = points.dim
    if dim not in (2, 3):
        raise UnsupportedDimension(f"grid search covers dimensions 2 and 3, got {dim}")
    if not (0.0 < resolution_deg <= 10.0):
        raise ValueError(f"resolution_deg must be in (0, 10], got {resolution_deg}")

    # Centered here, not by geometry.center, so the scan shares no code with
    # the fit it checks: subtract the mean, then the residual's mean.
    y = points.points - points.points.mean(axis=0)
    y -= y.mean(axis=0)
    total_sq = float(np.einsum("ij,ij->", y, y))
    # The scatter formula is the one accumulate_scatter uses; the oracle's
    # independence from the fit lies in its own centering above and in the
    # direction scan below, which needs no eigensolver. In 2-d it is padded
    # with a zero z row and column (see the scan below).
    omega = np.zeros((3, 3))
    omega[:dim, :dim] = np.einsum("ij,ik->jk", y, y)
    # numpy refuses, with a ValueError, to size an array whose bytes an intp
    # cannot count. A grid whose nodes may take that many bytes (bounded at
    # 360 / resolution_deg nodes per angle, d floats a node) is refused
    # before any of it is scored, as the request too large to allocate that
    # it is.
    if math.prod([360.0 / resolution_deg] * (dim - 1)) * dim * 8 > np.iinfo(np.intp).max:
        raise MemoryError(f"a grid at resolution_deg {resolution_deg} is too large to allocate")
    # Azimuths cover the half-circle in 2-d and the full circle around the
    # +z pole in 3-d. Polar angles run from the pole down to the equator,
    # inclusive of the equator when the resolution divides 90 evenly. A 2-d
    # cloud is scanned as the equator alone (sin 90 deg is exactly 1) of a
    # 3-d cloud with a zero z column, whose nodes drop their z.
    azimuth = np.deg2rad(np.arange(0.0, 180.0 * (dim - 1), resolution_deg))
    polar = np.deg2rad(np.arange(90.0 * (3 - dim), 90.0 + 1e-9, resolution_deg))
    cos_az, sin_az = np.cos(azimuth), np.sin(azimuth)
    sin_pol, cos_pol = np.sin(polar), np.cos(polar)
    plane = omega[0, 0] * cos_az**2 + 2.0 * omega[0, 1] * cos_az * sin_az + omega[1, 1] * sin_az**2
    tilt = 2.0 * (omega[0, 2] * cos_az + omega[1, 2] * sin_az)
    values = np.multiply.outer(sin_pol**2, plane)
    values += np.multiply.outer(sin_pol * cos_pol, tilt)
    np.subtract((total_sq - omega[2, 2] * cos_pol**2)[:, None], values, out=values)
    best_value = float(values.min())
    pol, az = np.divmod(np.flatnonzero(values == best_value), azimuth.size)
    nodes = np.column_stack([sin_pol[pol] * cos_az[az], sin_pol[pol] * sin_az[az], cos_pol[pol]])
    best = canonical_direction(np.array(min(map(tuple, nodes[:, :dim]))))
    return GridSearchResult(best, max(best_value, 0.0), resolution_deg, values.size)


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
        return np.array(_pow2_restored(np.sort(np.diag(a))[::-1], exp))

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
    return np.array(_pow2_restored(np.sort(np.array([lam1, lam2, lam3]))[::-1], exp))


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
