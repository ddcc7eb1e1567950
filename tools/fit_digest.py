"""One sha256 over a fixed, seeded set of orthofit library results.

Hashes, in a fixed order:

* fit_tls_line on 1200 clouds, with d from 2 to 12, n from d + 2 to 400,
  noise 1e-6 to 1 and offsets 1e-2 to 1e6 from the origin: every array of
  the result (its bytes, shape and C-contiguity) and every scalar (its
  repr): line.direction and line.anchor, total_sq_distance, per_point_sq,
  canonical_direction of eigen.eigenvectors' first column, eigen.ambiguous,
  eigen.spectrum, eigen.eigenvectors, moments.scatter, moments.total_sq_norm
  and n_points; then check_fit's records on the same cloud at 2 degrees,
  each record's name, status, measured, tol and reason, so the numbers
  `check` prints to 6 digits are pinned to the last bit;
* dominant_eigenpair on 300 symmetric matrices, with d from 1 to 40, each
  scaled by a power of two from 2^-600 to 2^600: canonical_direction of
  the first eigenvector, ambiguous, spectrum and eigenvectors.

A call that raises hashes its error's type and message instead. Case i is
drawn from its own seed, so a smaller count hashes a prefix of the same
cases. The orthofit imported is the first on the path, so the digests of
two trees are equal exactly when every one of these results has the same
bytes in both:

    PYTHONPATH=src python tools/fit_digest.py
    PYTHONPATH=/path/to/other/src python tools/fit_digest.py

Usage: python tools/fit_digest.py [fits [matrices]]
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from orthofit import PointSet, canonical_direction, dominant_eigenpair, fit_tls_line
from orthofit.fit import check_fit


def _cloud(i: int) -> np.ndarray:
    """The i-th cloud: points near a random line, far from the origin."""
    rng = np.random.default_rng([1, i])
    d = int(rng.integers(2, 13))
    n = int(rng.integers(d + 2, 401))
    direction = rng.standard_normal(d)
    offset = 10.0 ** rng.uniform(-2.0, 6.0) * rng.standard_normal(d)
    noise = 10.0 ** rng.uniform(-6.0, 0.0)
    t = rng.standard_normal(n)
    return offset + t[:, None] * direction + noise * rng.standard_normal((n, d))


def _matrix(i: int) -> np.ndarray:
    """The i-th symmetric matrix."""
    rng = np.random.default_rng([2, i])
    d = int(rng.integers(1, 41))
    m = rng.standard_normal((d, d))
    return np.ldexp(m + m.T, int(rng.integers(-600, 601)))


def _update(h, *values) -> None:
    for value in values:
        if isinstance(value, np.ndarray):
            h.update(repr((value.dtype.str, value.shape, value.flags.c_contiguous)).encode())
            h.update(value.tobytes())
        else:
            h.update(repr(value).encode())


def digest(fits: int = 1200, matrices: int = 300) -> str:
    """The sha256 over the first fits clouds' and matrices' results."""
    h = hashlib.sha256()
    for call, make, count in ((_fit, _cloud, fits), (_eigen, _matrix, matrices)):
        for i in range(count):
            try:
                call(h, make(i))
            except Exception as exc:  # a typed error is a result too
                _update(h, type(exc).__name__, str(exc))
    return h.hexdigest()


def _fit(h, x: np.ndarray) -> None:
    points = PointSet(x)
    r = fit_tls_line(points)
    _update(h, r.line.direction, r.line.anchor, r.total_sq_distance, r.per_point_sq)
    _update(h, r.moments.scatter, r.moments.total_sq_norm, r.n_points)
    _eigen_result(h, r.eigen)
    for record in check_fit(points, 2.0):
        _update(h, record.name, record.status, record.measured, record.tol, record.reason)


def _eigen(h, m: np.ndarray) -> None:
    _eigen_result(h, dominant_eigenpair(m))


def _eigen_result(h, sol) -> None:
    direction = canonical_direction(sol.eigenvectors[:, 0])
    _update(h, direction, sol.ambiguous, sol.spectrum, sol.eigenvectors)


if __name__ == "__main__":
    print(digest(*map(int, sys.argv[1:3])))
