"""Fits do not depend on the cloud's magnitude.

The solver works on the scatter scaled by a power of two that brings its
largest entry into [0.5, 1), so its stopping norms and Rayleigh quotient
neither underflow nor overflow. Scaling the points by 2^k is exact and
scales the moments by exactly 4^k while they stay normal floats, so for
abs(k) <= 480 the fit of the scaled cloud has the same direction bytes and
an anchor, spectrum and Rayleigh quotient exactly 2^k and 4^k times the
unscaled ones. Scaling by 10^e rounds each coordinate, so there the direction may
move by conftest.invariance_bounds, c eps / relgap.

At every 2^k with k in [-1100, 1100] and every finite 10^e the fit meets
that bound, with no warning, or raises a typed error: DegenerateInput where
the moments fall under scatter.min_total_sq_norm, n d^2 2^-1027, below
which their subnormal rounding could turn the direction past the bound
(from 10^-155 on the 500 x 3 axis cloud), and NonFinite where the squares
overflow (from 10^153 there). The CLI holds across the same range, and the
eigensolvers reach the top of float64: their input is scaled before it is
symmetrized, and eigenvalues that leave float64 raise NonFinite. With -s
the module prints each sweep's worst error-to-bound ratio and cases.
"""

import contextlib
import json
import math
import warnings

import numpy as np
import pytest
from conftest import angle_between, gapped_cloud, invariance_bounds, scaled_bytes

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


def sweep_clouds():
    """The axis cloud and a d = 2 cloud of relgap 1e-6."""
    return axis_cloud(), gapped_cloud(2, 6, 0)


def sweep(record, transform, x, scale, exponents):
    """(base fit, {exponent: fit}) of x scaled by scale(x, exponent) at each
    exponent: each fit meets the direction bound with no warning, the rest
    raise typed."""
    base, fits = fit_tls_line(PointSet(x)), {}
    for exponent in exponents:
        with np.errstate(over="ignore"):
            scaled = scale(x, exponent)
        with warnings.catch_warnings(), contextlib.suppress(DegenerateInput, NonFinite):
            warnings.simplefilter("error")
            fits[exponent] = fit_tls_line(PointSet(scaled))
        if exponent in fits:
            angle = angle_between(fits[exponent].line.direction, base.line.direction)
            assert record(transform, angle / invariance_bounds(base)[0]) <= 1.0, exponent
    return base, fits


def test_power_of_two_scales_are_exact(record):
    # From k near -510 down the moments are subnormal; the fit must raise
    # there, not drift past the bound.
    for x in sweep_clouds():
        base, fits = sweep(record, "2^k, k in [-1100, 1100]", x, np.ldexp, range(-1100, 1101))
        for k in range(-480, 481):
            assert k in fits and scaled_bytes(fits[k], base, k), k


def decimal_scale(x, e):
    return x * 10.0**e


def test_decimal_scales_keep_the_direction(record):
    exponents = range(-323, 309)
    axis, d2 = sweep_clouds()
    sweep(record, "10^e, every finite e", d2, decimal_scale, exponents)
    base, fits = sweep(record, "10^e, every finite e", axis, decimal_scale, exponents)
    # Below 10^-154 the trace falls under n d^2 2^-1027 (2^-1014.9 here).
    assert sorted(fits) == list(range(-154, 153))
    for moved in fits.values():
        assert angle_between(moved.line.direction, base.line.direction) <= 1e-15


def write_cloud(path, rows):
    path.write_text("".join(",".join(map(repr, row)) + "\n" for row in rows))


def test_moments_below_the_floor_are_degenerate(tmp_path, capsys):
    # Under the floor `fit` raises, and the CLI exits 2 with one error line
    # that gives the floor. At 10^-200 the points are distinct but their
    # squares underflow to a zero total: that is below the floor too, not
    # coincident points.
    cloud = tmp_path / "cloud.csv"
    for e in (-155, -160, -162, -200):
        scaled = axis_cloud() * 10.0**e
        with pytest.raises(DegenerateInput, match=r"below n d\^2 2\^-1027"):
            fit_tls_line(PointSet(scaled))
        write_cloud(cloud, scaled.tolist())
        assert cli.main(["fit", "--input", str(cloud)]) == 2, e
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "below n d^2 2^-1027" in err[0], err


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


def test_cli_holds_where_the_scatter_nears_the_float64_maximum(tmp_path, capsys, record):
    # The scatter's largest entry is 1.6e308, so A + A^T of the raw scatter
    # overflows; fit, compare and check must still agree with the same rows
    # divided by 1e153, exit 0 and print no warning and no Infinity.
    rows = np.array([[8.0, 2.4], [-8.0, -2.4], [4.0, 0.8], [-4.0, -0.8]])
    base = fit_tls_line(PointSet(rows))
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
            angle = angle_between(direction, base.line.direction)
            assert record("CLI at 10^153", angle / invariance_bounds(base)[0]) <= 1.0, command


def test_check_holds_across_the_fit_scale_range(tmp_path, capsys):
    # Every check passes, with no floating-point warning, on one cloud
    # scaled by 2^k across the fit's range, up to k = 508, its top (2^509
    # overflows the moments); objective-consistency's disagreement, a
    # difference of squares, scales exactly by 4^k (the grid's resolution
    # does not enter it, so the library run uses a coarse one).
    cloud = tmp_path / "cloud.csv"
    gen = ["gen", "--n", "200", "--dim", "3", "--sigma", "0.1", "--seed", "1"]
    assert cli.main([*gen, "--output", str(cloud)]) == 0
    base = cli.parse_points_text(cloud.read_text().splitlines()).points
    disagreements = set()
    for k in [*range(-480, 481, 8), 507, 508]:
        rows = np.ldexp(base, k).tolist()
        write_cloud(cloud, rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["check", "--input", str(cloud)]) == 0, k
            records = check_fit(PointSet(rows), 10.0)
        (consistency,) = [r for r in records if r.name == "objective-consistency"]
        disagreements.add(math.ldexp(consistency.measured, -2 * k))
    assert len(disagreements) == 1 and 0.0 not in disagreements, disagreements
