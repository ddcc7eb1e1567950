"""Fits do not depend on the cloud's magnitude.

The solver works on the scatter scaled by a power of two that brings its
largest entry into [0.5, 1), so its stopping norms, Rayleigh quotient and
residual neither underflow nor overflow. Scaling the points by 2^k is exact
and scales the moments by exactly 4^k while they stay normal floats, so the
fit of the scaled cloud must have the same direction bytes and a spectrum
and residual exactly 4^k times the unscaled ones. Scaling by 10^e rounds
each coordinate, so there the direction may move by rounding only.

The direction sweeps stop where the moments leave the normal range. Below
it the scatter is subnormal and loses digits: the fit still holds 1e-9 rad
at e = -158 (trace 2^-1038.5), and from a trace below 2^-1048 (e = -160
here) it raises DegenerateInput instead of fitting 2e-6 to 0.17 rad off.
Above it the squares overflow, from e = 154 here. The eigensolvers
themselves reach the top of float64: their input is scaled before it is
symmetrized, and eigenvalues that leave float64 raise NonFinite.
"""

import json
import math
import warnings

import numpy as np
import pytest
from conftest import angle_between

from orthofit import cli
from orthofit.errors import DegenerateInput, NonFinite
from orthofit.fit import check_fit, fit_tls_line
from orthofit.geometry import PointSet
from orthofit.oracle import cubic_eigenvalues
from orthofit.solver import dominant_eigenpair


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


def test_moments_below_the_floor_are_degenerate(unscaled, tmp_path, capsys):
    # At 10^-158 the trace is 2^-1038.5 and the direction still holds; at
    # 10^-160 and 10^-162 it is below 2^-1048, where the subnormal moments
    # would put the direction 2.4e-6 and 0.17 rad off.
    points, base = unscaled
    result = fit_tls_line(PointSet(points * 1e-158))
    assert angle_between(result.line.direction, base.line.direction) <= 1e-9
    cloud = tmp_path / "cloud.csv"
    for e in (-160, -162):
        scaled = points * 10.0**e
        with pytest.raises(DegenerateInput, match=r"below 2\^-1048"):
            fit_tls_line(PointSet(scaled))
        cloud.write_text("".join(",".join(map(repr, row)) + "\n" for row in scaled.tolist()))
        assert cli.main(["fit", "--input", str(cloud)]) == 2, e
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err


def radius_099_matrix() -> np.ndarray:
    """A seeded symmetric 3x3 matrix with spectral radius 0.99, so 2^1024
    times it is finite and so are its eigenvalues (largest entry 0.697)."""
    m = np.random.default_rng(3).standard_normal((3, 3))
    a = m + m.T
    return a * (0.99 / np.max(np.abs(np.linalg.eigvalsh(a))))


def test_eigensolvers_reach_the_top_of_float64():
    # The gate scales before it symmetrizes, so 2^1024 A (entries up to
    # 0.697 * 2^1024, whose sum A + A^T would overflow) solves exactly like A.
    a = radius_099_matrix()
    base, base_roots = dominant_eigenpair(a), cubic_eigenvalues(a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top = dominant_eigenpair(np.ldexp(a, 1024))
        top_roots = cubic_eigenvalues(np.ldexp(a, 1024))
    assert top.direction.tobytes() == base.direction.tobytes()
    assert top.spectrum.tobytes() == np.ldexp(base.spectrum, 1024).tobytes()
    assert top_roots.tobytes() == np.ldexp(base_roots, 1024).tobytes()


@pytest.mark.parametrize("solve", [dominant_eigenpair, cubic_eigenvalues])
def test_eigenvalues_beyond_float64_are_typed(solve):
    # Entries 0.95 * 2^1024 are finite; the spectral radius, 2.85 * 2^1024,
    # is not.
    with pytest.raises(NonFinite, match="eigenvalues exceed"):
        solve(np.ldexp(np.full((3, 3), 0.95), 1024))


def test_cli_holds_where_the_scatter_nears_the_float64_maximum(tmp_path, capsys):
    # The scatter's largest entry is 1.6e308, so A + A^T of the raw scatter
    # overflows; fit, compare and check must still agree with the same rows
    # divided by 1e153, exit 0 and print no warning and no Infinity.
    rows = np.array([[8.0, 2.4], [-8.0, -2.4], [4.0, 0.8], [-4.0, -0.8]])
    base = fit_tls_line(PointSet(rows)).line.direction
    cloud = tmp_path / "top.csv"
    cloud.write_text("8e153,2.4e153\n-8e153,-2.4e153\n4e153,0.8e153\n-4e153,-0.8e153\n")
    for command in (["fit", "--format", "json"], ["compare", "--format", "json"], ["check"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*command, "--input", str(cloud)]) == 0, command
        out = capsys.readouterr().out
        assert "Infinity" not in out and "NaN" not in out and "inf" not in out, out
        if command[0] != "check":
            doc = json.loads(out)
            direction = doc["direction"] if command[0] == "fit" else doc["tls"]["direction"]
            assert angle_between(direction, base) <= 1e-12, command


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


def test_check_holds_across_the_fit_scale_range(tmp_path, capsys):
    # Every check passes, with no floating-point warning, on one cloud
    # scaled by 2^k across the fit's range, up to k = 508, its top (2^509
    # overflows the moments); objective-consistency's disagreement, a
    # difference of squares, scales exactly by 4^k.
    base_file = tmp_path / "base.csv"
    gen = ["gen", "--n", "200", "--dim", "3", "--sigma", "0.1", "--seed", "1"]
    assert cli.main([*gen, "--output", str(base_file)]) == 0
    base = cli.parse_points_text(base_file.read_text().splitlines()).points
    cloud = tmp_path / "cloud.csv"
    disagreements = set()
    for k in [*range(-480, 481, 8), 507, 508]:
        rows = np.ldexp(base, k).tolist()
        cloud.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["check", "--input", str(cloud)]) == 0, k
            records = check_fit(PointSet(rows), 0.5)
        (consistency,) = [r for r in records if r.name == "objective-consistency"]
        disagreements.add(math.ldexp(consistency.measured, -2 * k))
    assert len(disagreements) == 1 and 0.0 not in disagreements, disagreements
