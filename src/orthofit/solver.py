"""Symmetric eigensolver and objective diagnostics.

The fitted direction is the eigenvector of the scatter matrix with the
largest eigenvalue (equivalently, the smallest eigenvalue of the complement
matrix; the two share eigenvectors). We use a cyclic-by-rows Jacobi
iteration: it is deterministic, needs no external solver, and for the small
dense matrices produced here converges in a handful of sweeps.

Nothing here is configurable. The module constants JACOBI_TOL and
MAX_SWEEPS fix the iteration's stopping rule and budget, FD_STEP the
finite-difference step, and AMBIGUITY_GAP the ambiguity flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotSymmetric, ZeroVector
from .geometry import _as_array, _canonical_signs, _freeze, _pow2_scaled
from .scatter import ScatterSummary

SYMMETRY_RTOL = 1e-10
# Relative gap (lam1 - lam2) / |lam1| below which the dominant eigenvector
# is flagged as ambiguous.
AMBIGUITY_GAP = 1e-8
# Jacobi stops once the off-diagonal Frobenius norm is at most JACOBI_TOL
# times the input's Frobenius norm, and gives up after MAX_SWEEPS full
# cyclic sweeps; on 1000 seeded clouds with d from 2 to 12, no fit needed
# more than 7.
JACOBI_TOL = 1e-12
MAX_SWEEPS = 64
# Step of the central differences in finite_diff_gradient.
FD_STEP = 1e-5


@dataclass(frozen=True)
class EigenSolution:
    """Full spectrum of a symmetric matrix plus the dominant direction.

    Attributes:
        direction: unit eigenvector for the largest eigenvalue, sign
            canonicalized.
        rayleigh: Rayleigh quotient of direction with the input matrix.
        stationarity_residual: |A s - rayleigh s| for the returned direction.
        ambiguous: True when the top two eigenvalues are too close for the
            dominant eigenvector to be well determined.
        spectrum: all eigenvalues, descending.
        eigenvectors: matrix whose columns are unit eigenvectors aligned
            with spectrum, each sign canonicalized.
    """

    direction: np.ndarray
    rayleigh: float
    stationarity_residual: float
    ambiguous: bool
    spectrum: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        _freeze(self, "direction", "spectrum", "eigenvectors")


def _check_symmetric(matrix) -> np.ndarray:
    a = _as_array(matrix, "matrix", (2,))
    if a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    scale = float(np.max(np.abs(a)))
    skew = float(np.max(np.abs(a - a.T)))
    if skew > SYMMETRY_RTOL * max(scale, np.finfo(np.float64).tiny):
        raise NotSymmetric(
            f"matrix is not symmetric: max |A - A^T| = {skew:g} at scale {scale:g}"
        )
    return 0.5 * (a + a.T)


def _off_diag_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def dominant_eigenpair(matrix) -> EigenSolution:
    """Full eigendecomposition of a symmetric matrix via cyclic Jacobi.

    Sweeps the strict upper triangle row by row, rotating away each
    off-diagonal entry; eigenvalues come back sorted descending with the
    dominant eigenvector first. The rotation angle is computed from the
    smaller root of the annihilation quadratic, which keeps every rotation
    below 45 degrees and the iteration unconditionally stable. The
    iteration has no settings: it stops at JACOBI_TOL and gives up after
    MAX_SWEEPS sweeps.

    The matrix and its eigenvectors are one (2d, d) array, the matrix on
    top and the accumulated rotations below, so a rotation turns columns p
    and q of both at once: two elementwise column updates, no matrix
    product and no loop over entries. Rows p and q of the matrix are then
    copied from its new columns, and the two diagonal entries and the
    annihilated pair set by the closed-form update.

    Everything runs on the input scaled by the power of two that brings its
    largest entry into [0.5, 1): the rotations, the stopping norms, the
    Rayleigh quotient and the residual. The scaling is exact, so at
    ordinary magnitudes the bits are those of the unscaled iteration. At
    any magnitude of a finite input the norms cannot overflow, and only
    entries far below JACOBI_TOL of the largest can underflow in them. The
    spectrum, the Rayleigh quotient and the residual are scaled back by the
    same power of two; the eigenvectors need no scaling back.

    Args:
        matrix: square symmetric array (checked to SYMMETRY_RTOL, then
            symmetrized exactly before iterating).

    Raises:
        DimensionMismatch: if the input is not a 2-d array.
        NonFinite: if an entry is NaN or infinite.
        NotSymmetric: if the input is not square or not symmetric.
        NoConvergence: if MAX_SWEEPS sweeps leave the off-diagonal norm
            above JACOBI_TOL relative to the input's Frobenius norm.
    """
    a0, exp = _pow2_scaled(_check_symmetric(matrix))
    d = a0.shape[0]
    av = np.concatenate([a0, np.eye(d)])
    a, v = av[:d], av[d:]
    threshold = JACOBI_TOL * float(np.linalg.norm(a0))

    for _ in range(MAX_SWEEPS):
        if _off_diag_norm(a) <= threshold:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                # t = sign(tau) / (|tau| + sqrt(tau^2 + 1)) with
                # tau = diff / (2 apq), multiplied through by 2 apq so that
                # neither tau nor tau^2 is formed: both overflow when apq is
                # tiny against diff.
                diff = a[q, q] - a[p, p]
                if diff == 0.0:
                    t = 1.0
                else:
                    two_apq = 2.0 * apq
                    denom = abs(diff) + math.hypot(diff, two_apq)
                    t = math.copysign(1.0, diff) * two_apq / denom
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c

                app, aqq = a[p, p], a[q, q]
                x, y = av[:, p], av[:, q]
                av[:, p], av[:, q] = c * x - s * y, s * x + c * y
                a[p], a[q] = a[:, p], a[:, q]
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = a[q, p] = 0.0
    if _off_diag_norm(a) > threshold:
        raise NoConvergence(
            f"off-diagonal norm {math.ldexp(_off_diag_norm(a), exp):g} still above "
            f"{math.ldexp(threshold, exp):g} after {MAX_SWEEPS} sweeps"
        )

    eigenvalues = np.diag(a).copy()
    order = np.argsort(-eigenvalues, kind="stable")
    spectrum = eigenvalues[order]
    vectors = _canonical_signs(v[:, order])

    direction = vectors[:, 0].copy()
    rayleigh = float(direction @ (a0 @ direction))
    residual = float(np.linalg.norm(a0 @ direction - rayleigh * direction))
    if d >= 2:
        tiny = np.finfo(np.float64).tiny
        rel_gap = (spectrum[0] - spectrum[1]) / max(abs(spectrum[0]), tiny)
        ambiguous = bool(rel_gap < AMBIGUITY_GAP)
    else:
        ambiguous = False

    return EigenSolution(
        direction=direction,
        rayleigh=math.ldexp(rayleigh, exp),
        stationarity_residual=math.ldexp(residual, exp),
        ambiguous=ambiguous,
        spectrum=np.ldexp(spectrum, exp),
        eigenvectors=vectors,
    )


def _rows_and_norms(s) -> tuple[np.ndarray, np.ndarray]:
    """Directions as (k, d) rows and their squared norms, none of them zero."""
    vecs = np.atleast_2d(_as_array(s, "direction", (1, 2)))
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
        ZeroVector: if s, or any row of it, has zero norm.
    """
    vecs, ss = _rows_and_norms(s)
    values = np.einsum("ij,jk,ik->i", vecs, summary.complement, vecs) / ss
    return float(values[0]) if np.ndim(s) == 1 else values


def finite_diff_gradient(summary: ScatterSummary, s) -> np.ndarray:
    """Central finite-difference estimate of the objective gradient.

    The analytic gradient of D(s) = s^T C s / s^T s is
    (2 / (s^T s)^2) times the complement form of stationarity_forms; this
    estimate shares no formula with it and cross-checks it. One
    quadratic_objective call scores the 2d points s + h e_i and s - h e_i,
    with the fixed step h = FD_STEP.
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
        ZeroVector: if s, or any row of it, has zero norm.
    """
    vecs, ss = _rows_and_norms(s)
    cs = np.einsum("jk,ik->ij", summary.complement, vecs)
    os_ = np.einsum("jk,ik->ij", summary.scatter, vecs)
    scs = np.einsum("ij,ij->i", vecs, cs)
    sos = np.einsum("ij,ij->i", vecs, os_)
    form_complement = ss[:, None] * cs - scs[:, None] * vecs
    form_scatter = sos[:, None] * vecs - ss[:, None] * os_
    if np.ndim(s) == 1:
        return form_complement[0], form_scatter[0]
    return form_complement, form_scatter
