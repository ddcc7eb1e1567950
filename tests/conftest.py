"""Shared helpers for the test suite."""

import math

import numpy as np


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
