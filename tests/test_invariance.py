"""The fit moves with the cloud: one metamorphic contract per transform.

Fitting a moved cloud must give the moved fit, up to rounding. A transform
that rounds the cloud or sums it in another order perturbs the scatter by
about eps lam1, and Davis and Kahan (1970) bound the direction's turn by
that over the gap lam1 - lam2. With one constant c = 16 and relgap =
(lam1 - lam2) / lam1 of the untransformed fit (conftest.invariance_bounds):

| transform | the fit keeps |
|---|---|
| coordinate sign flips | the bytes of direction, anchor and spectrum |
| 2^k scaling, abs(k) <= 480 | direction bytes; anchor, spectrum, Rayleigh quotient exactly scaled |
| rotations, row order, 10^e scaling | c eps / relgap |
| coordinate permutations | c eps / relgap, not bytes: the Jacobi sweeps in coordinate order |
| translations with Q and Q - o exact | c eps / relgap, and the anchor to an ulp of o |
| translations that round the cloud | c eps (1 + abs(o) / spread) / relgap, spread sqrt(lam1 / n) |

Anchors move by at most c eps (spread + offset) and totals by c eps (1 +
offset / spread) xi, offset being the cloud's distance from the origin.
This module runs every transform on 105 seeded clouds; test_translation.py
holds exact translations, and test_scale.py every 2^k with k in [-1100,
1100] and every finite 10^e, to the same bounds. With -s each module prints
each transform's worst error-to-bound ratio and cases.
"""

import numpy as np
import pytest
from conftest import equivariance_ratio, gapped_cloud, random_rotation, scaled_bytes

from orthofit.fit import fit_tls_line
from orthofit.geometry import PointSet, _canonical_signs

ROUNDING = ("rotations", "permutations", "row-order", "decimal-scales", "rounding-translations")


@pytest.fixture(scope="module")
def seeded():
    """(cloud, fit) for d = 2 to 8, relgap 1 to 1e-12 and three seeds."""
    clouds = [gapped_cloud(d, 3 * g, s) for d in range(2, 9) for g in range(5) for s in range(3)]
    return [(x, fit_tls_line(PointSet(x))) for x in clouds]


def test_sign_flips_and_powers_of_two_keep_the_bytes(seeded, record):
    for i, (x, base) in enumerate(seeded):
        rng = np.random.default_rng([i, 1])
        signs, k = rng.choice([-1.0, 1.0], x.shape[1]), int(rng.integers(-480, 481))
        moved = fit_tls_line(PointSet(x * signs))
        expected = _canonical_signs((base.line.direction * signs)[:, None])[:, 0]
        assert moved.line.direction.tobytes() == expected.tobytes(), i
        assert np.array_equal(moved.line.anchor, base.line.anchor * signs), i
        assert moved.eigen.spectrum.tobytes() == base.eigen.spectrum.tobytes(), i
        record("sign flips (bytes)", 0.0)
        assert scaled_bytes(fit_tls_line(PointSet(np.ldexp(x, k))), base, k), (i, k)
        record("2^k, abs(k) <= 480 (bytes)", 0.0)


@pytest.mark.parametrize("transform", ROUNDING)
def test_seeded_clouds_meet_the_bound(seeded, record, transform):
    for i, (x, base) in enumerate(seeded):
        rng = np.random.default_rng([i, 3])
        n, d = x.shape
        a, shift, scale, moved = np.eye(d), np.zeros(d), 1.0, x
        if transform == "rotations":
            a = random_rotation(rng, d)
        elif transform == "permutations":
            a = a[rng.permutation(d)]
        elif transform == "row-order":
            moved = x[rng.permutation(n)]
        elif transform == "decimal-scales":
            scale = 10.0 ** int(rng.integers(-150, 151))
        else:
            shift = 10.0 ** int(rng.integers(1, 7)) * rng.choice([-1.0, 1.0], d)
        moved = scale * (moved @ a.T) + shift
        ratio = equivariance_ratio(base, fit_tls_line(PointSet(moved)), a, shift, scale)
        assert record(transform, ratio) <= 1.0, i
