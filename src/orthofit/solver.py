"""Symmetric eigensolver and objective diagnostics.

The fitted direction is the eigenvector of the scatter matrix with the
largest eigenvalue (equivalently, the smallest eigenvalue of the complement
matrix; the two share eigenvectors). We use a cyclic-by-rows Jacobi
iteration: it is deterministic, needs no external solver, and for the small
dense matrices produced here converges in a handful of sweeps. It stops at
float64's own rounding floor, with no tolerance to tune: a rotation is
skipped when its entry is at most one ulp of the matrix's largest entry
(Rutishauser, 1966), and the iteration ends after a sweep that skips every
pair.

Nothing here is configurable. The module constant MAX_SWEEPS fixes the
iteration's sweep budget, FD_STEP the finite-difference step, and
AMBIGUITY_GAP the ambiguity flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, ZeroVector
from .geometry import _as_array, _canonical_signs, _freeze, _pow2_restored, _symmetric_scaled
from .geometry import canonical_direction
from .scatter import ScatterSummary

# Relative gap (lam1 - lam2) / |lam1| below which the dominant eigenvector
# is flagged as ambiguous.
AMBIGUITY_GAP = 1e-8
# Jacobi gives up when its MAX_SWEEPS-th full cyclic sweep still rotates.
MAX_SWEEPS = 64
# Step of the central differences in finite_diff_gradient.
FD_STEP = 1e-5


@dataclass(frozen=True, eq=False)
class EigenSolution:
    """Full spectrum of a symmetric matrix plus the dominant direction.

    Attributes:
        direction: unit eigenvector for the largest eigenvalue, the
            first column of eigenvectors passed through
            geometry.canonical_direction, the normalization ParametricLine
            applies; a line built from that column has these bytes.
        rayleigh: Rayleigh quotient of direction with the input matrix.
        ambiguous: True when the top two eigenvalues are too close for the
            dominant eigenvector to be well determined.
        spectrum: all eigenvalues, descending.
        eigenvectors: matrix whose columns are unit eigenvectors aligned
            with spectrum, each sign canonicalized.
    """

    direction: np.ndarray
    rayleigh: float
    ambiguous: bool
    spectrum: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        _freeze(self, "direction", "spectrum", "eigenvectors")


def dominant_eigenpair(matrix) -> EigenSolution:
    """Full eigendecomposition of a symmetric matrix via cyclic Jacobi.

    Sweeps the strict upper triangle row by row, rotating away each
    off-diagonal entry; eigenvalues come back sorted descending with the
    dominant eigenvector first. The rotation angle is computed from the
    smaller root of the annihilation quadratic, which keeps every rotation
    below 45 degrees and the iteration unconditionally stable. The
    iteration has no settings. A pair is skipped when |a_pq| <= eps / 2,
    one ulp of the scaled matrix's largest entry, and the iteration
    ends after a sweep that skips every pair; it gives up when the
    MAX_SWEEPS-th sweep still rotates.

    The matrix and its eigenvectors are one (2d, d) array, the matrix on
    top and the accumulated rotations below, so a rotation turns columns p
    and q of both at once: two elementwise column updates, no matrix
    product and no loop over entries. Rows p and q of the matrix are then
    copied from its new columns, and the two diagonal entries and the
    annihilated pair set by the closed-form update.

    The input passes one gate, geometry._symmetric_scaled: validated,
    scaled by the power of two that brings its largest entry into [0.5, 1),
    checked for symmetry and symmetrized, in that order. Everything runs on
    that copy: the rotations, the skip test and the Rayleigh quotient. The
    scaling is exact, so at ordinary magnitudes the bits are those of the
    unscaled iteration, and the skip test's eps / 2 is relative to the
    input's largest entry at any magnitude. The spectrum and the Rayleigh
    quotient are scaled back by the same power of two
    (geometry._pow2_restored); the eigenvectors need no scaling back.

    Args:
        matrix: square symmetric array (checked to geometry.SYMMETRY_RTOL
            of its largest entry, then symmetrized exactly before
            iterating).

    Raises:
        DimensionMismatch: if the input is not a 2-d array, or is 0 x 0.
        NonFinite: if an entry is NaN or infinite, or if an eigenvalue or
            the Rayleigh quotient scaled back leaves the float64 range (a
            finite matrix with entries near the float64 maximum can have
            eigenvalues beyond it).
        NotSymmetric: if the input is not square or not symmetric.
        NoConvergence: if the MAX_SWEEPS-th sweep still rotates a pair.
    """
    a0, exp = _symmetric_scaled(matrix)
    d = a0.shape[0]
    av = np.concatenate([a0, np.eye(d)])
    a, v = av[:d], av[d:]

    for _ in range(MAX_SWEEPS):
        rotated = False
        for p in range(d - 1):
            for q in range(p + 1, d):
                # Scalars are read as Python floats (.item), whose
                # arithmetic is float64's, without numpy scalar overhead.
                apq = a.item(p, q)
                # Skip entries at most eps / 2: one ulp of the largest
                # entry, which _symmetric_scaled puts in [0.5, 1).
                if abs(apq) <= 2.0**-53:
                    continue
                rotated = True
                # t = sign(tau) / (|tau| + sqrt(tau^2 + 1)) with
                # tau = diff / (2 apq), multiplied through by 2 apq so that
                # neither tau nor tau^2 is formed.
                app, aqq = a.item(p, p), a.item(q, q)
                diff = aqq - app
                if diff == 0.0:
                    t = 1.0
                else:
                    two_apq = 2.0 * apq
                    denom = abs(diff) + math.hypot(diff, two_apq)
                    t = math.copysign(1.0, diff) * two_apq / denom
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c

                x, y = av[:, p], av[:, q]
                av[:, p], av[:, q] = c * x - s * y, s * x + c * y
                a[p], a[q] = a[:, p], a[:, q]
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = a[q, p] = 0.0
        if not rotated:
            break
    else:
        raise NoConvergence(f"the Jacobi iteration still rotates after {MAX_SWEEPS} sweeps")

    eigenvalues = np.diag(a).copy()
    order = np.argsort(-eigenvalues, kind="stable")
    spectrum = eigenvalues[order]
    vectors = _canonical_signs(v[:, order])

    direction = canonical_direction(vectors[:, 0])
    rayleigh = float(direction @ (a0 @ direction))
    top = max(abs(spectrum[0]), np.finfo(np.float64).tiny)
    ambiguous = d >= 2 and bool((spectrum[0] - spectrum[1]) / top < AMBIGUITY_GAP)

    scaled_back = _pow2_restored([rayleigh, *spectrum], exp)
    return EigenSolution(
        direction=direction,
        rayleigh=float(scaled_back[0]),
        ambiguous=ambiguous,
        spectrum=scaled_back[1:],
        eigenvectors=vectors,
    )


def _rows_and_norms(summary: ScatterSummary, s) -> tuple[np.ndarray, np.ndarray]:
    """Directions as (k, d) rows of summary's dimension and their squared
    norms, none of them zero."""
    vecs = np.atleast_2d(_as_array(s, "direction", (1, 2)))
    if vecs.shape[1] != summary.dim:
        raise DimensionMismatch(f"direction has dimension {vecs.shape[1]}, expected {summary.dim}")
    ss = np.einsum("ij,ij->i", vecs, vecs)
    if not np.all(ss > 0.0):
        raise ZeroVector("direction has zero length")
    return vecs, ss


def quadratic_objective(summary: ScatterSummary, s):
    """Summed squared orthogonal distance for the direction s, any scale.

    Evaluates the Rayleigh quotient s^T C s / s^T s of the complement
    matrix C, so s need not be unit; it must be nonzero. s is one
    direction (d,), giving a float, or a stack (k, d), giving a (k,) array
    with one value per row. The sums are np.einsum reductions, not BLAS
    calls, so a row's value does not depend on the stack it sits in or on
    the BLAS thread count.

    Raises:
        DimensionMismatch: if s's length is not summary.dim.
        ZeroVector: if s, or any row of it, has zero norm.
    """
    vecs, ss = _rows_and_norms(summary, s)
    values = np.einsum("ij,jk,ik->i", vecs, summary.complement, vecs) / ss
    return float(values[0]) if np.ndim(s) == 1 else values


def finite_diff_gradient(summary: ScatterSummary, s) -> np.ndarray:
    """Central finite-difference estimate of the objective gradient.

    The analytic gradient of D(s) = s^T C s / s^T s is
    (2 / (s^T s)^2) times the complement form of stationarity_forms; this
    estimate shares no formula with it and cross-checks it. One
    quadratic_objective call scores the 2d points s + h e_i and s - h e_i,
    with the fixed step h = FD_STEP.

    Raises:
        DimensionMismatch: if s's length is not summary.dim.
        ZeroVector: if a probe point has zero norm.
    """
    vec = _as_array(s, "direction")
    steps = FD_STEP * np.eye(vec.shape[0])
    values = quadratic_objective(summary, np.concatenate([vec + steps, vec - steps]))
    forward, backward = np.split(values, 2)
    return (forward - backward) / (2.0 * FD_STEP)


def stationarity_forms(summary: ScatterSummary, s) -> tuple[np.ndarray, np.ndarray]:
    """The stationarity field of the objective, computed two ways.

    Form one uses the complement matrix C: (s^T s) C s - (s^T C s) s.
    Form two uses the scatter matrix O:    (s^T O s) s - (s^T s) O s.
    Because C = xi I - O, the identity terms cancel and the two expressions
    are algebraically identical; comparing them exercises both accumulation
    routes. Either one times 2 / (s^T s)^2 is the gradient of
    quadratic_objective; both vanish exactly at eigenvectors.

    s is one direction (d,), giving two (d,) arrays, or a stack (k, d),
    giving two (k, d) arrays with one field per row. The products are
    np.einsum reductions, not BLAS calls, so a row's field does not depend
    on the stack it sits in or on the BLAS thread count.

    Raises:
        DimensionMismatch: if s's length is not summary.dim.
        ZeroVector: if s, or any row of it, has zero norm.
    """
    vecs, ss = _rows_and_norms(summary, s)
    cs = np.einsum("jk,ik->ij", summary.complement, vecs)
    os_ = np.einsum("jk,ik->ij", summary.scatter, vecs)
    scs = np.einsum("ij,ij->i", vecs, cs)
    sos = np.einsum("ij,ij->i", vecs, os_)
    form_complement = ss[:, None] * cs - scs[:, None] * vecs
    form_scatter = sos[:, None] * vecs - ss[:, None] * os_
    if np.ndim(s) == 1:
        return form_complement[0], form_scatter[0]
    return form_complement, form_scatter
