"""Fits do not depend on where the cloud sits.

Each cloud Q lies along a line with a spread of about 1, far from the
origin. Subtracting its offset o gives Q - o exactly (Sterbenz lemma: every
coordinate is within a factor of two of o's), so fit(Q) and fit(Q - o) see
the same geometry. Only the centering's rounding may separate them: the
directions by a few eps, the anchors by rounding at o's magnitude.
"""

import numpy as np
import pytest
from conftest import angle_between, line_cloud

from orthofit.fit import fit_tls_line
from orthofit.geometry import PointSet

OFFSETS = (1e3, 1e6, 1e9, 1e12)
CLOUDS_PER_OFFSET = 200


def offset_cloud(seed: int, offset: float) -> tuple[np.ndarray, np.ndarray]:
    """(Q, o): a cloud of 10-300 points in 2-6 dimensions and its offset."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 301))
    dim = int(rng.integers(2, 7))
    near, _, _ = line_cloud(rng, n, dim, sigma=0.05, t_spread=1.0)
    o = offset * rng.choice([-1.0, 1.0], dim)
    return near + o, o


@pytest.mark.parametrize("offset", OFFSETS)
def test_fit_is_translation_invariant(offset):
    for seed in range(CLOUDS_PER_OFFSET):
        q, o = offset_cloud(seed, offset)
        shifted = q - o
        assert np.array_equal(shifted + o, q)
        far = fit_tls_line(PointSet(q))
        near = fit_tls_line(PointSet(shifted))
        assert not far.eigen.ambiguous
        assert angle_between(far.line.direction, near.line.direction) <= 1e-12
        anchor_gap = np.abs(far.line.anchor - (near.line.anchor + o))
        assert np.all(anchor_gap <= np.spacing(offset))


def test_spread_of_one_ulp_at_large_offset():
    # The centered residuals are whole ulps of 1e6, so a one-pass mean
    # cannot land on zero; the second pass still finds the x axis.
    u = float(np.spacing(1e6))
    pts = PointSet(np.array([[1e6, 1e6], [1e6 + u, 1e6], [1e6 + u, 1e6]]))
    result = fit_tls_line(pts)
    assert np.array_equal(result.line.direction, np.array([1.0, 0.0]))
