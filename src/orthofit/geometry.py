"""Points, parametric lines, centering, and orthogonal point-to-line distance.

Also the library's array rules: one validator for arrays coming in, one
freeze for arrays going out, and one power-of-two scaling, which every
quadratic form passes before anything is squared or summed.

All vectors are float64 numpy arrays. A line is stored in parametric form
(anchor point plus unit direction); the direction's sign is canonicalized so
that directions from different fits can be compared directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, DimensionMismatch, NonFinite, NotSymmetric, ZeroVector

# A component must exceed this magnitude to anchor the canonical sign choice.
SIGN_EPS = 1e-12
# _symmetric_scaled accepts a matrix whose largest |A - A^T| is at most this
# fraction of its largest |A|.
SYMMETRY_RTOL = 1e-10
# The one rounding constant: each rounding bound (check's tolerances, the
# moments' floor, the tests' invariance bounds) is ROUNDING_C times a model
# of the rounding it covers, in units of eps = math.ulp(1.0).
ROUNDING_C = 16
# _rejection_sq takes this many rows at a time, so its temporaries are a
# block's size, not the cloud's.
_BLOCK_ROWS = 2**15


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _as_array(x, name: str, ndims: tuple[int, ...] = (1,), order: str = "C") -> np.ndarray:
    """x as a fresh float64 array in the given memory order ("C" or "F"):
    the one way arrays enter the library.

    The copy is the callee's own, so nothing done to it reaches the caller.

    Raises:
        DimensionMismatch: if x.ndim is not in ndims, naming x by name.
        NonFinite: if an entry is NaN or infinite.
    """
    a = np.array(x, dtype=np.float64, copy=True, order=order)
    if a.ndim not in ndims:
        kinds = "- or ".join(map(str, ndims))
        raise DimensionMismatch(f"{name} must be a {kinds}-d array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise NonFinite(f"non-finite values in {name}")
    return a


def _freeze(obj, *fields: str) -> None:
    """Set each named field of the frozen dataclass obj to a read-only
    float64 copy of its value: the one way result arrays leave the library.

    Copying leaves the arrays the caller passed in writable and unshared.
    """
    for field in fields:
        value = np.array(getattr(obj, field), dtype=np.float64)
        object.__setattr__(obj, field, _readonly(value))


def _lead_sign(values) -> float:
    """-1.0 if the first of values above SIGN_EPS in magnitude is negative,
    else 1.0 (also when none is above it): one Python scan, on floats.

    The one sign rule: canonical_direction and the eigensolver's columns
    multiply by it, which negates a vector or keeps its bytes."""
    for x in values:
        if abs(x) > SIGN_EPS:
            return -1.0 if x < 0.0 else 1.0
    return 1.0


def _pow2_scaled(a: np.ndarray) -> tuple[np.ndarray, int, float]:
    """a scaled into (-1, 1) by a power of two, that power's exponent, and
    the scaled array's largest magnitude.

    The power of two is the one that brings max|a| into [0.5, 1) (frexp
    and ldexp), so squares and sums of squares of the scaled entries can
    neither overflow nor underflow; an all-zero a keeps exponent 0 and has
    largest magnitude 0. The scaling is exact, save for entries some 2^1022
    times smaller than the largest, so a result computed from the scaled
    array and scaled back by ldexp with the exponent has, at ordinary
    magnitudes, the bits of the unscaled computation; the largest magnitude
    is frexp's mantissa, exactly that of the scaled array.
    """
    top, exp = math.frexp(float(np.abs(a).max(initial=0.0)))
    return np.ldexp(a, -exp), exp, top


def _symmetric_scaled(matrix) -> tuple[np.ndarray, int]:
    """A square symmetric matrix scaled by _pow2_scaled and symmetrized:
    the one gate every eigensolver's input passes.

    In order: the matrix is validated (_as_array, 2-d and finite, then
    square and not empty), scaled by the power of two that brings its
    largest entry into [0.5, 1), checked for
    max|A - A^T| <= SYMMETRY_RTOL * max|A| on the scaled copy, and
    symmetrized as (A + A^T) / 2. Nothing is added or squared before the
    scaling, so no step can overflow or underflow at any finite magnitude;
    the scaling is exact, so at ordinary magnitudes the result is the
    unscaled symmetrized matrix times the power of two.

    Returns:
        (a, exp): the scaled symmetric matrix and the exponent; the input's
        symmetric part is ldexp(a, exp).

    Raises:
        DimensionMismatch: if the input is not a 2-d array, or is 0 x 0.
        NonFinite: if an entry is NaN or infinite.
        NotSymmetric: if the input is not square or not symmetric; the
            message gives the unscaled max|A - A^T| and max|A|.
    """
    a = _as_array(matrix, "matrix", (2,))
    if a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    if a.size == 0:
        raise DimensionMismatch("matrix is empty")
    a, exp, scale = _pow2_scaled(a)
    skew = float(np.abs(a - a.T).max())
    if skew > SYMMETRY_RTOL * scale:
        with np.errstate(over="ignore"):
            skew, scale = np.ldexp([skew, scale], exp)
        raise NotSymmetric(
            f"matrix is not symmetric: max |A - A^T| = {skew:g} at scale {scale:g}"
        )
    return 0.5 * (a + a.T), exp


def _pow2_restored(values, exp: int) -> list[float]:
    """Eigenvalues found for a matrix from _symmetric_scaled, scaled back
    by 2^exp, as a list of Python floats (exact wherever the result is a
    normal float).

    Each value goes through math.ldexp, the C ldexp that np.ldexp calls
    too, so the bytes are np.ldexp's, subnormal results included.

    Raises:
        NonFinite: if a value leaves the float64 range, as the eigenvalues
            of a finite matrix with entries near the float64 maximum can.
    """
    try:
        return [math.ldexp(x, exp) for x in values]
    except OverflowError:
        raise NonFinite("the eigenvalues exceed the float64 range") from None


def _unit(v: np.ndarray, name: str = "direction") -> np.ndarray:
    """v divided by its Euclidean norm, at any finite magnitude.

    The norm is taken of v scaled by _pow2_scaled, which commutes with the
    norm and the division, so for ordinary magnitudes the result is
    bit-identical to v / |v|. The norm is math.sqrt(w.dot(w)), which is
    what np.linalg.norm computes for a 1-d float64 array, without its
    dispatch.

    Raises:
        ZeroVector: if v is all zeros (or empty), naming it by name.
    """
    w, _, top = _pow2_scaled(v)
    if top == 0.0:
        raise ZeroVector(f"{name} has zero length")
    return w / math.sqrt(w.dot(w))


def canonical_direction(v) -> np.ndarray:
    """Normalize a direction vector and fix its sign.

    The returned vector has unit Euclidean norm and its first component with
    magnitude above SIGN_EPS is positive (_lead_sign, applied after the
    division); a vector with no such component keeps the division's signs.
    The solver's eigenvector columns are signed by the same rule, so a line
    built from one points the column's way. v, -v and 2^k v map to the same
    bytes, for every k that keeps v's components normal floats: the power
    of two is removed exactly before the division. Any other multiple of v
    (3v, say) and the output itself, normalized again, agree with it only
    to rounding, a few ulps, and often not bit for bit. Any finite nonzero
    v works, from subnormal components to ones near the float64 maximum.

    Raises:
        ZeroVector: if v has zero norm.
    """
    u = _unit(_as_array(v, "direction"))
    return u * _lead_sign(u.tolist())


@dataclass(frozen=True, eq=False)
class PointSet:
    """An immutable (n, d) cloud of points in d-dimensional space.

    Requires at least two points and at least two coordinates per point;
    a lone point (or a 1-d "cloud") does not determine a line problem.
    The points are stored column-major (Fortran order), whatever the
    input's layout: a cloud is tall and narrow, so each per-coordinate
    pass of the fit (the centering means, the moments, the distances)
    runs down one contiguous column instead of striding across rows of
    two or three values.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = _as_array(self.points, "points", (2,), order="F")
        n, d = pts.shape
        if n < 2:
            raise DegenerateInput(f"need at least 2 points, got {n}")
        if d < 2:
            raise DimensionMismatch(f"points must have dimension >= 2, got {d}")
        object.__setattr__(self, "points", _readonly(pts))

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True, eq=False)
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
        anchor = _as_array(self.anchor, "anchor")
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

    The first pass subtracts the column means; the second subtracts the
    mean of what is left (the corrected two-pass rule of Chan, Golub and
    LeVeque, 1983). The residual mean is rounding from the first pass, so
    removing it leaves the centered cloud's mean at rounding level relative
    to its own spread, not to its offset. A cloud of identical points comes
    back as exactly zero. Each mean is np.add.reduce down the columns
    divided by n, the computation of numpy's own mean; every step is a
    numpy reduction or elementwise operation, deterministic for a fixed
    array shape.

    Returns:
        (centered, c): the centered point set and the centroid c, the sum of
        the two pass means. centered + c reproduces the input to rounding.

    Raises:
        NonFinite: if a pass overflows float64, as coordinates near the
            float64 maximum can, even though every input is finite.
    """
    pts = points.points
    n = len(pts)
    with np.errstate(over="ignore", invalid="ignore"):
        first = np.add.reduce(pts, axis=0) / n
        y = pts - first
        shift = np.add.reduce(y, axis=0) / n
        c = first + shift
    if not np.isfinite(c).all():
        raise NonFinite("centering the points overflows float64")
    return PointSet(np.subtract(y, shift, out=y)), c


def _row_dots(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Each row's dot product with s, sum_j x_j s_j, added in coordinate
    order: the one rule by which the library projects points on a vector.

    It is one elementwise numpy operation per coordinate down the column of
    every row at once; no BLAS call is made. So each row's value depends on
    its own coordinates alone, and its bytes not on the BLAS thread count,
    on x's memory layout, or on the rows around it, as a matrix-vector
    product's would. s must have at least one entry.
    """
    dot = x[:, 0] * s[0]
    for j in range(1, len(s)):
        dot += x[:, j] * s[j]
    return dot


def _rejection_sq(x: np.ndarray, s: np.ndarray, anchor: np.ndarray | None = None) -> np.ndarray:
    """Squared norm of each row's rejection y - (y.s)s from the unit s, for
    the rows y of x - anchor (of x itself when anchor is None).

    That is the squared orthogonal distance of each row of x from the line
    through anchor (or the origin) along s. line_distances_sq and
    fit_tls_line (on its centered cloud, with no anchor) both measure
    through it. For unit s this equals |y|^2 - (y.s)^2, but the rejection
    is formed without subtracting two nearly equal quantities, so points
    close to the line come out with full relative accuracy instead of
    cancellation noise.

    Both sums over coordinates, the dot y.s (_row_dots) and the squared
    norm sum_j r_j^2 of the rejection r = y - (y.s)s, are added in
    coordinate order, one elementwise numpy operation per coordinate down
    the column of every row at once; no BLAS call is made. The rejection
    itself is three whole-block operations, broadcast and in place, in the
    block's own memory order. So each row's value depends on its own
    coordinates alone, and its bytes not on the BLAS thread count, on x's
    memory layout, or on the rows around it. The rows are taken _BLOCK_ROWS
    at a time into one preallocated output, so the temporaries are a
    block's size, not the cloud's.
    """
    out = np.zeros(len(x))
    for start in range(0, len(x), _BLOCK_ROWS):
        y = x[start : start + _BLOCK_ROWS]
        if anchor is not None:
            y = y - anchor
        dot = _row_dots(y, s)
        r = np.multiply(dot[:, None], s, out=np.empty_like(y))
        np.subtract(y, r, out=r)
        np.multiply(r, r, out=r)
        sq = out[start : start + _BLOCK_ROWS]
        for j in range(len(s)):
            sq += r[:, j]
        # Freed before the next block's offsets are made.
        del y, dot, r
    return out


def line_distances_sq(points: PointSet, line: ParametricLine) -> np.ndarray:
    """Squared orthogonal distance from each point to the line.

    Each entry is the squared norm of the rejection y - (y.s)s of the
    offset y = x - anchor from the unit direction s.

    Raises:
        DimensionMismatch: if the points' dimension differs from the line's.
    """
    if points.dim != line.dim:
        raise DimensionMismatch(
            f"points have dimension {points.dim}, line has dimension {line.dim}"
        )
    return _rejection_sq(points.points, line.direction, line.anchor)
