"""Shared helpers for the test suite."""

import collections
import math

import numpy as np
import pytest

from orthofit.geometry import ROUNDING_C

# c eps with the library's c = 16: the rounding unit of every invariance gate.
C_EPS = ROUNDING_C * math.ulp(1.0)


def invariance_bounds(result, offset: float = 0.0) -> tuple[float, float, float]:
    """(direction, anchor, total) bounds on how far rounding the cloud of the
    fit `result`, at a distance offset from it, may move the fit.

    With relgap = (lam1 - lam2) / lam1 and spread = sqrt(lam1 / n), that
    rounding perturbs the scatter by about u lam1, u = c eps (1 + offset /
    spread), so the direction turns by at most u / relgap (Davis and Kahan
    1970), the anchor moves by at most u spread and the total by u xi."""
    lam1, lam2 = result.eigen.spectrum[:2]
    spread = math.sqrt(lam1 / result.n_points)
    unit = C_EPS * (1.0 + offset / spread)
    return unit * lam1 / (lam1 - lam2), unit * spread, unit * result.moments.total_sq_norm


def equivariance_ratio(base, moved, a, shift=0.0, scale: float = 1.0) -> float:
    """The worst of moved's direction, anchor and total errors over their
    invariance_bounds, moved fitting base's cloud mapped by x -> scale *
    (a @ x) + shift, a orthogonal, at |base anchor| + |shift| / scale."""
    offset = float(np.linalg.norm(base.line.anchor) + np.linalg.norm(shift) / scale)
    angle, anchor, total = invariance_bounds(base, offset)
    anchor_gap = moved.line.anchor - (scale * (a @ base.line.anchor) + shift)
    return max(
        angle_between(moved.line.direction, a @ base.line.direction) / angle,
        float(np.linalg.norm(anchor_gap)) / (scale * anchor),
        abs(moved.total_sq_distance - scale**2 * base.total_sq_distance) / (scale**2 * total),
    )


@pytest.fixture(scope="module")
def record():
    """record(case, ratio) returns ratio and keeps each case's worst ratio to
    its bound and its count, printed at the module's teardown."""
    worst = collections.defaultdict(lambda: [0.0, 0])

    def keep(case: str, ratio: float) -> float:
        worst[case][:] = max(worst[case][0], ratio), worst[case][1] + 1
        return ratio

    yield keep
    print(f"\n{'case':<44} {'worst ratio':>11} {'count':>6}")
    for case, (ratio, count) in worst.items():
        print(f"{case:<44} {ratio:11.3g} {count:6d}")


def scaled_bytes(moved, base, k) -> bool:
    """moved is base scaled by 2^k exactly."""
    return (
        moved.line.direction.tobytes() == base.line.direction.tobytes()
        and np.array_equal(moved.line.anchor, np.ldexp(base.line.anchor, k))
        and np.array_equal(moved.eigen.spectrum, np.ldexp(base.eigen.spectrum, 2 * k))
        and moved.eigen.rayleigh == math.ldexp(base.eigen.rayleigh, 2 * k)
    )


def angle_between(u, v) -> float:
    """Angle in radians between two directions, ignoring sign.

    Uses atan2 of the rejection norm against the absolute dot product, which
    stays accurate for angles far below the acos resolution floor.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    u = u / np.linalg.norm(u)
    v = v / np.linalg.norm(v)
    dot = float(u @ v)
    if dot < 0.0:
        v = -v
        dot = -dot
    rejection = u - dot * v
    return math.atan2(float(np.linalg.norm(rejection)), dot)


def random_rotation(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A uniformly random proper rotation matrix."""
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0.0:
        q[:, 0] = -q[:, 0]
    return q


def gapped_cloud(dim: int, digits: int, seed: int) -> np.ndarray:
    """10-99 points about the origin whose scatter has eigenvalues n times
    1, 1 - relgap, (1 - relgap) / 2, ... along random axes; relgap 10^-digits."""
    rng = np.random.default_rng([dim, seed, digits])
    relgap, n = 10.0**-digits, int(rng.integers(10, 100))
    z = rng.standard_normal((n, dim))
    u = np.linalg.qr(z - z.mean(axis=0))[0]
    lam = np.concatenate([[1.0], (1.0 - relgap) * 0.5 ** np.arange(dim - 1)])
    return (u * np.sqrt(n * lam)) @ random_rotation(rng, dim).T


def line_cloud(
    rng: np.random.Generator,
    n: int,
    dim: int,
    sigma: float = 0.1,
    t_spread: float = 2.0,
    anchor_scale: float = 1.0,
):
    """Points scattered around a random line.

    Returns (points, unit_direction, anchor). With sigma > 0 the dominant
    eigenvalue is well separated, so fits on these clouds are unambiguous.
    """
    direction = rng.standard_normal(dim)
    direction = direction / np.linalg.norm(direction)
    anchor = anchor_scale * rng.uniform(-1.0, 1.0, dim)
    t = rng.uniform(-t_spread, t_spread, n)
    points = anchor + t[:, None] * direction + sigma * rng.standard_normal((n, dim))
    return points, direction, anchor
