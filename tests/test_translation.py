"""Fits do not depend on where the cloud sits.

Each cloud Q lies along a line with a spread of about 1, far from the
origin. Subtracting its offset o gives Q - o exactly (Sterbenz lemma: every
coordinate is within a factor of two of o's), so fit(Q) and fit(Q - o) see
the same geometry. Only the centering's rounding may separate them: the
directions and totals by conftest.invariance_bounds, c eps / relgap and
c eps xi, the anchors by an ulp of o. The explicit baseline centers by the
same rule, so its coefficients hold to 1e-14, and scaling by a power of two,
which is exact, leaves them alone. The fit measures its distances on the
centered cloud, not from the rounded anchor, so its total and `check`'s
diagnostics hold at any offset too. With -s the module prints each
assertion's worst error-to-bound ratio and cases.
"""

import json
import warnings

import numpy as np
import pytest
from conftest import angle_between, invariance_bounds, line_cloud

from orthofit import cli
from orthofit.fit import fit_lse_explicit, fit_tls_line
from orthofit.geometry import PointSet, canonical_direction

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
def test_fit_is_translation_invariant(record, offset):
    for seed in range(CLOUDS_PER_OFFSET):
        q, o = offset_cloud(seed, offset)
        shifted = q - o
        assert np.array_equal(shifted + o, q)
        far = fit_tls_line(PointSet(q))
        near = fit_tls_line(PointSet(shifted))
        assert not far.eigen.ambiguous
        angle, _, total = invariance_bounds(near)
        turn = angle_between(far.line.direction, near.line.direction) / angle
        drift = abs(far.total_sq_distance - near.total_sq_distance) / total
        assert record("exact translations", max(turn, drift)) <= 1.0, seed
        anchor_gap = np.abs(far.line.anchor - (near.line.anchor + o))
        assert np.all(anchor_gap <= np.spacing(offset))


def test_spread_of_one_ulp_at_large_offset():
    # The centered residuals are whole ulps of 1e6, so a one-pass mean
    # cannot land on zero; the second pass still finds the x axis.
    u = float(np.spacing(1e6))
    pts = PointSet(np.array([[1e6, 1e6], [1e6 + u, 1e6], [1e6 + u, 1e6]]))
    assert np.array_equal(fit_tls_line(pts).line.direction, np.array([1.0, 0.0]))


@pytest.mark.parametrize("offset", OFFSETS)
def test_explicit_fit_is_translation_invariant(record, offset):
    for seed in range(CLOUDS_PER_OFFSET):
        q, o = offset_cloud(seed, offset)
        far = fit_lse_explicit(PointSet(q))
        near = fit_lse_explicit(PointSet(q - o))
        w = near.coefficients
        gap = np.linalg.norm(far.coefficients - w) / np.linalg.norm(w)
        assert record("explicit: translation", gap / 1e-14) <= 1.0, seed
        # y - o_dep = w . (x - o_keep) + b_near on the far cloud.
        expected = near.offset + o[-1] - w @ o[:-1]
        slack = 16.0 * np.spacing(offset) * (1.0 + np.sum(np.abs(w)))
        assert abs(far.offset - expected) <= slack


@pytest.mark.parametrize("k", (-500, -100, 100, 500))
def test_explicit_fit_is_scale_invariant(record, k):
    # Near 2**1000 the squared residuals leave float64; that is not tested here.
    for seed in range(CLOUDS_PER_OFFSET):
        q, o = offset_cloud(seed, OFFSETS[0])
        near = q - o
        w = fit_lse_explicit(PointSet(near)).coefficients
        scaled = fit_lse_explicit(PointSet(np.ldexp(near, k))).coefficients
        gap = np.linalg.norm(scaled - w) / np.linalg.norm(w)
        assert record("explicit: 2^k", gap / 1e-14) <= 1.0, seed


@pytest.mark.parametrize("offset", (*OFFSETS, 1e15))
def test_total_matches_energy_minus_top_eigenvalue(record, offset):
    # Taken on the centered cloud, the total is xi - lam1 at any offset.
    for seed in range(CLOUDS_PER_OFFSET):
        q, _ = offset_cloud(seed, offset)
        result = fit_tls_line(PointSet(q))
        xi = result.moments.total_sq_norm
        aggregate = abs(result.total_sq_distance - (xi - result.eigen.spectrum[0]))
        assert record("total = xi - lam1", aggregate / invariance_bounds(result)[2]) <= 1.0


def gen(path, *flags):
    assert cli.main(["gen", *flags, "--output", str(path)]) == 0


@pytest.mark.parametrize("offset", (1e12, 1e15))
@pytest.mark.parametrize("dim", (2, 3, 5, 8, 12))
def test_check_passes_far_from_origin(tmp_path, capsys, offset, dim):
    cloud = tmp_path / "cloud.csv"
    anchor = ",".join([repr(offset)] * dim)
    for seed in range(15):
        gen(cloud, "--n", "300", "--sigma", "0.1", "--dim", str(dim), "--seed", str(seed),
            "--anchor", anchor)
        code = cli.main(["check", "--resolution-deg", "2", "--input", str(cloud)])
        out = capsys.readouterr().out
        assert code == 0, out


@pytest.mark.parametrize("dim", (2, 3, 5, 8))
def test_compare_is_translation_invariant(tmp_path, capsys, dim):
    # Both of compare's lines pass through the same centroid, so the
    # explicit line moves with the cloud and so does its orthogonal score.
    cloud = tmp_path / "cloud.csv"
    for seed in range(10):
        docs = []
        for offset in (0.0, 1e3, 1e6):
            gen(cloud, "--n", "300", "--sigma", "1e-3", "--dim", str(dim), "--seed", str(seed),
                "--anchor", ",".join([repr(offset)] * dim))
            assert cli.main(["compare", "--format", "json", "--input", str(cloud)]) == 0
            docs.append(json.loads(capsys.readouterr().out))
        near = docs[0]["ratio_orthogonal"]
        for doc in docs:
            assert abs(doc["ratio_orthogonal"] - near) <= 1e-5 * near
            assert json.dumps(doc["lse"]["anchor"]) == json.dumps(doc["tls"]["anchor"])


EXTREME = ([1e-200, 1e-200], [1e-160, 1e-160], [1e200, 1e200], [1e300, -1e300], [5e-324, 0.0])


@pytest.mark.parametrize("raw", EXTREME, ids=lambda raw: ",".join(map(repr, raw)))
def test_extreme_direction_is_unit(raw, capsys):
    flag = ",".join(map(repr, raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        unit = canonical_direction(raw)
        assert cli.main(["gen", "--n", "5", "--dim", "2", "--direction", flag]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    header = next(line for line in captured.out.splitlines() if line.startswith("# direction:"))
    written = np.array([float(c) for c in header.split(":")[1].split(",")])
    expected = np.array(raw) / np.max(np.abs(raw))
    expected = expected / np.linalg.norm(expected)
    assert np.max(np.abs(unit - canonical_direction(expected))) <= 1e-15
    assert np.max(np.abs(written - expected)) <= 1e-15
    assert abs(float(np.linalg.norm(written)) - 1.0) <= 1e-15
