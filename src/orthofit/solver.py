"""Symmetric eigensolver and objective diagnostics.

The fitted direction is the eigenvector of the scatter matrix with the
largest eigenvalue (equivalently, the smallest eigenvalue of the complement
matrix; the two share eigenvectors). Up to d = _SCALAR_MAX_DIM we use a
cyclic-by-rows Jacobi iteration on lists of Python floats: it is
deterministic, calls no BLAS, and for the small dense matrices produced
here converges in a handful of sweeps. It stops at float64's own rounding
floor, with no tolerance to tune: a rotation is skipped when its entry is
at most one ulp of the matrix's largest entry (Rutishauser, 1966), and the
iteration ends after a sweep that skips every pair. Above that dimension
LAPACK's symmetric eigensolver (np.linalg.eigh) runs, tens to hundreds of
times faster there. The d-sized work after either (the spectrum's order,
the eigenvectors' signs, the ambiguity flag, the scale-back) runs on
Python floats.

Nothing here is configurable. The module constant MAX_SWEEPS fixes the
Jacobi's sweep budget, FD_STEP the finite-difference step, and
AMBIGUITY_GAP the ambiguity flag; _SCALAR_MAX_DIM bounds the Jacobi's
domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, ZeroVector
from .geometry import _as_array, _freeze, _lead_sign, _pow2_restored, _symmetric_scaled
from .scatter import ScatterSummary

# Relative gap (lam1 - lam2) / |lam1| below which the dominant eigenvector
# is flagged as ambiguous.
AMBIGUITY_GAP = 1e-8
# Jacobi gives up when its MAX_SWEEPS-th full cyclic sweep still rotates.
MAX_SWEEPS = 64
# Step of the central differences in finite_diff_gradient.
FD_STEP = 1e-5
# The Jacobi's domain: dominant_eigenpair runs it up to this dimension and
# np.linalg.eigh above it. Every result at d <= 26 keeps the bytes it had
# when the Jacobi ran at every d; ROADMAP item 4 swaps in eigh throughout.
_SCALAR_MAX_DIM = 26


@dataclass(frozen=True, eq=False)
class EigenSolution:
    """Full spectrum and eigenvectors of a symmetric matrix: what the
    solve measured, nothing derived from it.

    Attributes:
        ambiguous: True when the top two eigenvalues are too close for the
            dominant eigenvector to be well determined.
        spectrum: all eigenvalues, descending.
        eigenvectors: matrix whose columns are unit eigenvectors aligned
            with spectrum, each signed by geometry._lead_sign, the rule
            canonical_direction applies. The first column is the dominant
            direction; canonical_direction of it is the direction a line
            built from it (LineFitResult.line, say) holds.
    """

    ambiguous: bool
    spectrum: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        _freeze(self, "spectrum", "eigenvectors")


def dominant_eigenpair(matrix) -> EigenSolution:
    """Full eigendecomposition of a symmetric matrix, dominant pair first.

    Up to d = _SCALAR_MAX_DIM, _scalar_jacobi runs a cyclic Jacobi
    iteration on lists of Python floats. It sweeps the strict upper
    triangle row by row, rotating away each off-diagonal entry. The
    rotation angle is computed from the smaller root of the annihilation
    quadratic, which keeps every rotation below 45 degrees and the
    iteration unconditionally stable. The iteration has no settings. A
    pair is skipped when |a_pq| <= eps / 2, one ulp of the scaled matrix's
    largest entry, and the iteration ends after a sweep that skips every
    pair; it gives up when the MAX_SWEEPS-th sweep still rotates. Each
    rotation updates every off-diagonal pair (k, p), (k, q) of the matrix
    once, writing it to both triangles, and the two diagonal entries and
    the annihilated pair take the closed-form update. Above
    _SCALAR_MAX_DIM, np.linalg.eigh (LAPACK's symmetric solver) runs
    instead.

    Both give a diagonal and the eigenvectors' rows as lists of Python
    floats, and the rest is scalar arithmetic on them: a stable descending
    sort of the diagonal (the order np.argsort(-x, kind="stable") gives),
    one gather of the eigenvectors' columns in that order with each
    column's sign (geometry._lead_sign) applied, and the ambiguity flag.
    The first column is the dominant direction.

    The input passes one gate, geometry._symmetric_scaled: validated,
    scaled by the power of two that brings its largest entry into [0.5, 1),
    checked for symmetry and symmetrized, in that order. Everything runs on
    that copy: the rotations and the skip test, or eigh. The scaling is
    exact, so at ordinary magnitudes the bits are those of the unscaled
    iteration, and the skip test's eps / 2 is relative to the input's
    largest entry at any magnitude. The spectrum is scaled back by the
    same power of two (geometry._pow2_restored); the eigenvectors need no
    scaling back. No value is formed from a matrix product: the dominant
    eigenvalue is spectrum[0], the diagonal entry the solver leaves.

    Args:
        matrix: square symmetric array (checked to geometry.SYMMETRY_RTOL
            of its largest entry, then symmetrized exactly before
            iterating).

    Raises:
        DimensionMismatch: if the input is not a 2-d array, or is 0 x 0.
        NonFinite: if an entry is NaN or infinite, or if an eigenvalue
            scaled back leaves the float64 range (a finite matrix with
            entries near the float64 maximum can have eigenvalues beyond
            it).
        NotSymmetric: if the input is not square or not symmetric.
        NoConvergence: up to d = _SCALAR_MAX_DIM, if the Jacobi's
            MAX_SWEEPS-th sweep still rotates a pair; above it, if LAPACK's
            eigh does not converge (np.linalg.LinAlgError).
    """
    a0, exp = _symmetric_scaled(matrix)
    d = a0.shape[0]
    if d <= _SCALAR_MAX_DIM:
        diagonal, rows = _scalar_jacobi(a0)
    else:
        try:
            w, v = np.linalg.eigh(a0)
        except np.linalg.LinAlgError as exc:
            raise NoConvergence(f"np.linalg.eigh: {exc}") from exc
        diagonal, rows = w.tolist(), v.tolist()

    # Descending, equal entries in index order: argsort(-x, kind="stable").
    order = sorted(range(d), key=diagonal.__getitem__, reverse=True)
    spectrum = [diagonal[i] for i in order]
    # The eigenvectors' columns in that order, each times its sign.
    columns = [[row[j] for row in rows] for j in order]
    columns = [[x * sign for x in col] for col, sign in zip(columns, map(_lead_sign, columns))]

    # The smallest normal float keeps an all-zero spectrum from dividing by 0.
    top = max(abs(spectrum[0]), 2.0**-1022)
    return EigenSolution(
        ambiguous=d >= 2 and (spectrum[0] - spectrum[1]) / top < AMBIGUITY_GAP,
        spectrum=_pow2_restored(spectrum, exp),
        eigenvectors=np.array(columns).T,
    )


def _scalar_jacobi(a0: np.ndarray) -> tuple[list[float], list[list[float]]]:
    """The cyclic Jacobi of a scaled symmetric (d, d) matrix on lists of
    Python floats: the diagonalized matrix's diagonal and its eigenvectors'
    d rows. Raises NoConvergence when the MAX_SWEEPS-th sweep still
    rotates."""
    d = a0.shape[0]
    a, v = a0.tolist(), np.eye(d).tolist()
    for _ in range(MAX_SWEEPS):
        rotated = False
        for p in range(d - 1):
            ap = a[p]
            for q in range(p + 1, d):
                apq = ap[q]
                # Rotate only entries above eps / 2, one ulp of the largest
                # entry, which _symmetric_scaled puts in [0.5, 1); a sweep
                # that rotates none ends the iteration.
                if abs(apq) > 2.0**-53:
                    rotated = True
                    aq = a[q]
                    app, aqq = ap[p], aq[q]
                    # t = sign(tau) / (|tau| + sqrt(tau^2 + 1)) with
                    # tau = diff / (2 apq), multiplied through by 2 apq so
                    # that neither tau nor tau^2 is formed.
                    diff = aqq - app
                    two_apq = 2.0 * apq
                    denom = abs(diff) + math.hypot(diff, two_apq)
                    t = math.copysign(1.0, diff) * two_apq / denom if diff != 0.0 else 1.0
                    c = 1.0 / math.sqrt(t * t + 1.0)
                    s = t * c
                    for k in range(d):
                        if k != p and k != q:
                            ak = a[k]
                            x, y = ak[p], ak[q]
                            ap[k] = ak[p] = c * x - s * y
                            aq[k] = ak[q] = s * x + c * y
                    ap[p], aq[q], ap[q], aq[p] = app - t * apq, aqq + t * apq, 0.0, 0.0
                    for row in v:
                        x, y = row[p], row[q]
                        row[p], row[q] = c * x - s * y, s * x + c * y
        if not rotated:
            return [a[i][i] for i in range(d)], v
    raise NoConvergence(f"the Jacobi iteration still rotates after {MAX_SWEEPS} sweeps")


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
