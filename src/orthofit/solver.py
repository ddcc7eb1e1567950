"""Symmetric eigensolver and objective diagnostics.

The fitted direction is the eigenvector of the scatter matrix with the
largest eigenvalue (equivalently, the smallest eigenvalue of the complement
matrix; the two share eigenvectors). We use a cyclic-by-rows Jacobi
iteration: it is deterministic, needs no external solver, and for the small
dense matrices produced here converges in a handful of sweeps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NonFinite, NotSymmetric, NotUnit, ZeroVector
from .geometry import _as_rows, _as_vector, _canonical_signs, _readonly
from .scatter import ScatterSummary

SYMMETRY_RTOL = 1e-10
# Relative gap (lam1 - lam2) / |lam1| below which the dominant eigenvector
# is flagged as ambiguous.
AMBIGUITY_GAP = 1e-8


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the Jacobi iteration.

    Attributes:
        tol: convergence threshold on the off-diagonal Frobenius norm,
            relative to the Frobenius norm of the input.
        max_sweeps: full cyclic sweeps allowed before giving up.
    """

    tol: float = 1e-12
    max_sweeps: int = 64

    def __post_init__(self):
        if not (self.tol > 0.0):
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be >= 1, got {self.max_sweeps}")


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
        object.__setattr__(self, "direction", _readonly(np.asarray(self.direction, dtype=np.float64)))
        object.__setattr__(self, "spectrum", _readonly(np.asarray(self.spectrum, dtype=np.float64)))
        object.__setattr__(
            self, "eigenvectors", _readonly(np.asarray(self.eigenvectors, dtype=np.float64))
        )


def _check_symmetric(matrix) -> np.ndarray:
    a = np.array(matrix, dtype=np.float64, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFinite("matrix contains non-finite values")
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


def dominant_eigenpair(matrix, config: SolverConfig | None = None) -> EigenSolution:
    """Full eigendecomposition of a symmetric matrix via cyclic Jacobi.

    Sweeps the strict upper triangle row by row, rotating away each
    off-diagonal entry; eigenvalues come back sorted descending with the
    dominant eigenvector first. The rotation angle is computed from the
    smaller root of the annihilation quadratic, which keeps every rotation
    below 45 degrees and the iteration unconditionally stable.

    Args:
        matrix: square symmetric array (checked to SYMMETRY_RTOL, then
            symmetrized exactly before iterating).
        config: solver knobs; defaults to SolverConfig().

    Raises:
        NotSymmetric: if the input is not square or not symmetric.
        NoConvergence: if max_sweeps sweeps leave the off-diagonal norm
            above tol relative to the input's Frobenius norm.
    """
    cfg = config if config is not None else SolverConfig()
    a0 = _check_symmetric(matrix)
    a = a0.copy()
    d = a.shape[0]
    v = np.eye(d)
    fro = float(np.linalg.norm(a))
    threshold = cfg.tol * fro

    for _ in range(cfg.max_sweeps):
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
                a[p, p] = app - t * apq
                a[q, q] = aqq + t * apq
                a[p, q] = a[q, p] = 0.0
                for k in range(d):
                    if k == p or k == q:
                        continue
                    akp, akq = a[k, p], a[k, q]
                    a[k, p] = a[p, k] = c * akp - s * akq
                    a[k, q] = a[q, k] = s * akp + c * akq
                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    if _off_diag_norm(a) > threshold:
        raise NoConvergence(
            f"off-diagonal norm {_off_diag_norm(a):g} still above {threshold:g} "
            f"after {cfg.max_sweeps} sweeps"
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
        rayleigh=rayleigh,
        stationarity_residual=residual,
        ambiguous=ambiguous,
        spectrum=spectrum,
        eigenvectors=vectors,
    )


def stationarity_residual(matrix, s) -> float:
    """Norm of the eigen-residual A s - (s^T A s) s for a unit vector s.

    Zero exactly when s is an eigenvector of A.

    Raises:
        NotUnit: if |s| deviates from 1 by more than 1e-9.
    """
    a = _check_symmetric(matrix)
    vec = _as_vector(s, "s")
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1.0) > 1e-9:
        raise NotUnit(f"expected a unit vector, got norm {norm!r}")
    lam = float(vec @ (a @ vec))
    return float(np.linalg.norm(a @ vec - lam * vec))


def _rows_and_norms(s) -> tuple[np.ndarray, np.ndarray]:
    """Directions as (k, d) rows and their squared norms, none of them zero."""
    vecs = _as_rows(s, "direction")
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


def objective_gradient(summary: ScatterSummary, s) -> np.ndarray:
    """Gradient of quadratic_objective with respect to s.

    For D(s) = s^T C s / s^T s the gradient is
    (2 / (s^T s)^2) * ((s^T s) C s - (s^T C s) s); it vanishes exactly at
    the eigenvectors of C.
    """
    vec = _as_vector(s, "direction")
    ss = float(vec @ vec)
    if ss == 0.0:
        raise ZeroVector("gradient direction has zero length")
    cs = summary.complement @ vec
    return (2.0 / ss**2) * (ss * cs - float(vec @ cs) * vec)


def finite_diff_gradient(summary: ScatterSummary, s, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference estimate of the objective gradient.

    Independent of objective_gradient's formula; used to cross-check it.
    One quadratic_objective call scores the 2d points s + h e_i and
    s - h e_i.

    Args:
        h: step size, must be positive.
    """
    if not (h > 0.0):
        raise ValueError(f"step size must be positive, got {h}")
    vec = _as_vector(s, "direction")
    steps = h * np.eye(vec.shape[0])
    values = quadratic_objective(summary, np.concatenate([vec + steps, vec - steps]))
    forward, backward = np.split(values, 2)
    return (forward - backward) / (2.0 * h)


def stationarity_forms(summary: ScatterSummary, s) -> tuple[np.ndarray, np.ndarray]:
    """The stationarity field of the objective, computed two ways.

    Form one uses the complement matrix C: (s^T s) C s - (s^T C s) s.
    Form two uses the scatter matrix O:    (s^T O s) s - (s^T s) O s.
    Because C = xi I - O, the identity terms cancel and the two expressions
    are algebraically identical; comparing them exercises both accumulation
    routes. Either one is the unnormalized objective gradient; both vanish
    exactly at eigenvectors.

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
