"""Fits do not depend on the cloud's magnitude.

The solver works on the scatter scaled by a power of two that brings its
largest entry into [0.5, 1), so its stopping norms, Rayleigh quotient and
residual neither underflow nor overflow. Scaling the points by 2^k is exact
and scales the moments by exactly 4^k while they stay normal floats, so the
fit of the scaled cloud must have the same direction bytes and a spectrum
and residual exactly 4^k times the unscaled ones. Scaling by 10^e rounds
each coordinate, so there the direction may move by rounding only.

The sweeps stop where the moments themselves leave the normal range: below
it the scatter is subnormal and loses digits, above it the squares
overflow. For the cloud here that is below e = -156 and above e = 152.
"""

import warnings

import numpy as np
import pytest
from conftest import angle_between

from orthofit.fit import fit_tls_line
from orthofit.geometry import PointSet


def axis_cloud() -> np.ndarray:
    """500 points along (1, 2, 3) with t in [-1, 1] and noise 0.1."""
    rng = np.random.default_rng(0)
    t = rng.uniform(-1.0, 1.0, 500)
    return t[:, None] * np.array([1.0, 2.0, 3.0]) + 0.1 * rng.standard_normal((500, 3))


@pytest.fixture(scope="module")
def unscaled():
    points = axis_cloud()
    return points, fit_tls_line(PointSet(points))


def test_decimal_scales_keep_the_direction(unscaled):
    points, base = unscaled
    for e in range(-156, 153):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fit_tls_line(PointSet(points * 10.0**e))
        assert angle_between(result.line.direction, base.line.direction) <= 1e-12, e


def test_power_of_two_scales_are_exact(unscaled):
    points, base = unscaled
    for k in range(-480, 481, 5):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = fit_tls_line(PointSet(np.ldexp(points, k)))
        assert result.line.direction.tobytes() == base.line.direction.tobytes(), k
        assert np.array_equal(result.eigen.spectrum, np.ldexp(base.eigen.spectrum, 2 * k)), k
        residual = np.ldexp(base.eigen.stationarity_residual, 2 * k)
        assert result.eigen.stationarity_residual == residual, k
