"""Points, parametric lines, centering, and orthogonal point-to-line distance.

All vectors are float64 numpy arrays. A line is stored in parametric form
(anchor point plus unit direction); the direction's sign is canonicalized so
that directions from different fits can be compared directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, NonFinite, ZeroVector

# A component must exceed this magnitude to anchor the canonical sign choice.
SIGN_EPS = 1e-12


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _as_vector(x, name: str = "vector") -> np.ndarray:
    v = np.array(x, dtype=np.float64, copy=True)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be one-dimensional, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NonFinite(f"{name} contains non-finite values")
    return v


def _as_rows(x, name: str = "vectors") -> np.ndarray:
    """One vector (d,) or a stack (k, d) as a (k, d) float64 copy."""
    v = np.array(x, dtype=np.float64, copy=True)
    if v.ndim not in (1, 2):
        raise DimensionMismatch(f"{name} must be one- or two-dimensional, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NonFinite(f"{name} contains non-finite values")
    return np.atleast_2d(v)


def _canonical_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its first component above SIGN_EPS is positive.

    A column with no component above SIGN_EPS in magnitude is left as is.
    """
    lead = (np.abs(vectors) > SIGN_EPS).argmax(axis=0)
    first = vectors[lead, np.arange(vectors.shape[1])]
    return np.where(first < -SIGN_EPS, -vectors, vectors)


def _unit(v: np.ndarray, name: str = "direction") -> np.ndarray:
    """v divided by its Euclidean norm, at any finite magnitude.

    v is first scaled by the power of two of max|v| (frexp and ldexp),
    which puts its largest component in [0.5, 1): the squared norm can then
    neither overflow nor underflow. The scaling is exact, save for
    components some 2^1022 times smaller than the largest, and it commutes
    with the norm and the division, so for ordinary magnitudes the result
    is bit-identical to v / |v|.

    Raises:
        ZeroVector: if v is all zeros (or empty), naming it by name.
    """
    peak = float(np.max(np.abs(v), initial=0.0))
    if peak == 0.0:
        raise ZeroVector(f"{name} has zero length")
    w = np.ldexp(v, -math.frexp(peak)[1])
    return w / np.linalg.norm(w)


def canonical_direction(v) -> np.ndarray:
    """Normalize a direction vector and fix its sign.

    The returned vector has unit Euclidean norm and its first component with
    magnitude above SIGN_EPS is positive. v, -v and 2^k v map to the same
    bytes, for every k that keeps v's components normal floats: the power
    of two is removed exactly before the division. Any other multiple of v
    (3v, say) and the output itself, normalized again, agree with it only
    to rounding, a few ulps, and often not bit for bit. Any finite nonzero
    v works, from subnormal components to ones near the float64 maximum.

    Raises:
        ZeroVector: if v has zero norm.
    """
    return _canonical_signs(_unit(_as_vector(v, "direction"))[:, None])[:, 0]


@dataclass(frozen=True)
class PointSet:
    """An immutable (n, d) cloud of points in d-dimensional space.

    Requires at least two points and at least two coordinates per point;
    a lone point (or a 1-d "cloud") does not determine a line problem.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64, copy=True, order="C")
        if pts.ndim != 2:
            raise DimensionMismatch(f"points must be a 2-d array, got shape {pts.shape}")
        n, d = pts.shape
        if n < 2:
            raise DegenerateInput(f"need at least 2 points, got {n}")
        if d < 2:
            raise DimensionMismatch(f"points must have dimension >= 2, got {d}")
        if not np.all(np.isfinite(pts)):
            raise NonFinite("points contain non-finite values")
        object.__setattr__(self, "points", _readonly(pts))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class ParametricLine:
    """A line given by an anchor point and a unit direction.

    The direction is normalized and sign-canonicalized on construction by
    canonical_direction. Lines built from a direction vector, from its
    negative or from it scaled by a power of two get the same direction
    bytes; any other rescaling of the same geometry may move the last bits,
    so compare such lines with a tolerance.

    Raises:
        ZeroVector: if the direction has zero norm.
        DimensionMismatch: if anchor and direction lengths differ.
    """

    anchor: np.ndarray
    direction: np.ndarray

    def __post_init__(self):
        anchor = _as_vector(self.anchor, "anchor")
        direction = canonical_direction(self.direction)
        if anchor.shape != direction.shape:
            raise DimensionMismatch(
                f"anchor has dimension {anchor.shape[0]}, "
                f"direction has dimension {direction.shape[0]}"
            )
        object.__setattr__(self, "anchor", _readonly(anchor))
        object.__setattr__(self, "direction", _readonly(direction))

    @property
    def dim(self) -> int:
        return self.anchor.shape[0]

    def point_at(self, t: float) -> np.ndarray:
        """Point on the line at parameter t."""
        return self.anchor + t * self.direction


def center(points: PointSet) -> tuple[PointSet, np.ndarray]:
    """Shift a point set so its mean is at the origin, in two passes.

    The first pass subtracts numpy's column mean; the second subtracts the
    mean of what is left (the corrected two-pass rule of Chan, Golub and
    LeVeque, 1983). The residual mean is rounding from the first pass, so
    removing it leaves the centered cloud's mean at rounding level relative
    to its own spread, not to its offset. A cloud of identical points comes
    back as exactly zero. Every step is a numpy reduction or elementwise
    operation, deterministic for a fixed array shape.

    Returns:
        (centered, c): the centered point set and the centroid c, the sum of
        the two pass means. centered + c reproduces the input to rounding.
    """
    pts = points.points
    first = pts.mean(axis=0)
    y = pts - first
    shift = y.mean(axis=0)
    return PointSet(y - shift), first + shift


def _rejection_sq(y: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Squared norm of each row's rejection y - (y.s)s from the unit s.

    That is the squared orthogonal distance of each row of y from the line
    through the origin along s. point_line_distance_sq, line_distances_sq
    and fit_tls_line (on its centered cloud) all measure through it.
    """
    r = y - (y @ s)[:, None] * s
    return np.einsum("ij,ij->i", r, r)


def point_line_distance_sq(x, line: ParametricLine) -> float:
    """Squared orthogonal distance from a point to a line.

    Computed as the squared norm of the rejection y - (y.s)s of the offset
    y = x - anchor from the unit direction s. For unit s this equals
    |y|^2 - (y.s)^2, but the rejection form is evaluated without the
    subtraction of two nearly equal quantities, so points lying close to the
    line come out with full relative accuracy instead of cancellation noise.

    Raises:
        DimensionMismatch: if the point dimension differs from the line's.
    """
    p = _as_vector(x, "point")
    if p.shape != line.anchor.shape:
        raise DimensionMismatch(
            f"point has dimension {p.shape[0]}, line has dimension {line.dim}"
        )
    return float(_rejection_sq((p - line.anchor)[None, :], line.direction)[0])


def line_distances_sq(points: PointSet, line: ParametricLine) -> np.ndarray:
    """Squared orthogonal distance from each point to the line.

    Vectorized over the rows of the point set; entries agree with
    point_line_distance_sq on each row up to rounding in the dot products.
    """
    if points.dim != line.dim:
        raise DimensionMismatch(
            f"points have dimension {points.dim}, line has dimension {line.dim}"
        )
    return _rejection_sq(points.points - line.anchor, line.direction)
