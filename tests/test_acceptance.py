"""Acceptance gate: one test per shipped guarantee.

Each test prints a single summary line when its criterion holds, so running
pytest -s on this module yields a per-criterion PASS report. Tolerances are
part of the package contract and are not to be loosened casually.
"""

import io
import json
import math
import time
from contextlib import redirect_stdout

import numpy as np
import pytest
from conftest import angle_between, equivariance_ratio, line_cloud, random_rotation

from orthofit.cli import main
from orthofit.errors import DegenerateInput, RankDeficient
from orthofit.fit import (
    check_fit,
    fit_lse_explicit,
    fit_tls_line,
    total_orthogonal_distance,
)
from orthofit.geometry import ROUNDING_C, ParametricLine, PointSet, center
from orthofit.oracle import (
    cross_matrix,
    cubic_eigenvalues,
    grid_search_direction,
    rejection_matrix,
)
from orthofit.scatter import accumulate_scatter
from orthofit.solver import (
    FD_STEP,
    dominant_eigenpair,
    finite_diff_gradient,
    stationarity_forms,
)


def report(name: str, detail: str) -> None:
    print(f"[acceptance] {name}: PASS ({detail})")


def run_main(*args) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(args))
    return code, buf.getvalue()


def test_criterion_01_cross_factorization_identity():
    # T(a)^T T(a) must reproduce the rejection matrix entrywise to 1e-12
    # relative (at matrix scale) for 500 seeded vectors across magnitudes.
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(500):
        a = rng.standard_normal(3) * float(10 ** rng.uniform(-3.0, 3.0))
        t = cross_matrix(a)
        lhs = t.T @ t
        rhs = rejection_matrix(a)
        scale = max(float(np.max(np.abs(rhs))), 1e-300)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))) / scale)
    assert worst <= 1e-12
    report("criterion-01 cross-factorization", f"worst rel {worst:.3g} <= 1e-12")


def test_criterion_02_stationarity_forms_equivalence():
    # Complement-based and scatter-based stationarity fields agree
    # componentwise to 1e-9 relative over 200 seeded cloud/direction pairs.
    rng = np.random.default_rng(202)
    worst = 0.0
    for trial in range(200):
        dim = (2, 3, 5)[trial % 3]
        n = int(rng.integers(5, 60))
        pts, _, _ = line_cloud(rng, n, dim, sigma=float(rng.uniform(0.05, 1.0)))
        centered, _ = center(PointSet(pts))
        summary = accumulate_scatter(centered)
        s = rng.standard_normal(dim) * float(10 ** rng.uniform(-2.0, 2.0))
        form_a, form_b = stationarity_forms(summary, s)
        scale = max(float(np.max(np.abs(form_a))), float(np.max(np.abs(form_b))), 1e-300)
        worst = max(worst, float(np.max(np.abs(form_a - form_b))) / scale)
    assert worst <= 1e-9
    report("criterion-02 stationarity-forms", f"worst rel {worst:.3g} <= 1e-9")


def test_criterion_03_gradient_vanishes_at_fit():
    # At the fitted direction the finite-difference gradient norm stays
    # within c sqrt(d) (h^2 + eps / h) xi, with c = geometry.ROUNDING_C and
    # h = solver.FD_STEP: each central difference is off by its truncation,
    # h^2 times a third derivative of the objective (of size xi on the unit
    # sphere), plus the rounding of two objective values of size xi
    # divided by h, and the norm takes d of them. The eigen-residual, read
    # as check's decomposition record, whose first column bounds it, stays
    # within that record's tol, c d sqrt(d) eps xi. Across 100 seeded clouds in
    # dimensions 2, 3, and 5.
    rng = np.random.default_rng(303)
    eps = math.ulp(1.0)
    worst_grad = 0.0
    worst_resid = 0.0
    for trial in range(100):
        dim = (2, 3, 5)[trial % 3]
        n = int(rng.integers(5, 80))
        pts, _, _ = line_cloud(rng, n, dim, sigma=float(rng.uniform(0.05, 0.8)))
        result = fit_tls_line(PointSet(pts))
        centered, _ = center(PointSet(pts))
        summary = accumulate_scatter(centered)
        grad = float(np.linalg.norm(finite_diff_gradient(summary, result.line.direction)))
        xi = summary.total_sq_norm
        grad_tol = ROUNDING_C * math.sqrt(dim) * (FD_STEP**2 + eps / FD_STEP) * xi
        decomposition = next(r for r in check_fit(PointSet(pts), 10.0) if r.name == "decomposition")
        worst_grad = max(worst_grad, grad / grad_tol)
        worst_resid = max(worst_resid, decomposition.measured / decomposition.tol)
    assert worst_grad <= 1.0
    assert worst_resid <= 1.0
    report(
        "criterion-03 gradient-at-optimum",
        f"worst grad {worst_grad:.3g} <= 1, worst residual {worst_resid:.3g} <= 1 of the bound",
    )


def test_criterion_04_grid_oracle_agreement():
    # The eigensolver fit agrees with a 0.25-degree brute-force scan on 100
    # seeded 3-d clouds (5 to 200 points): objective within 1e-4 relative,
    # direction within 0.5 degrees, all within a two-minute budget.
    started = time.perf_counter()
    worst_rel = 0.0
    worst_angle = 0.0
    for i in range(100):
        rng = np.random.default_rng(5000 + i)
        n = int(rng.integers(5, 201))
        pts, _, _ = line_cloud(rng, n, 3, sigma=0.5)
        ps = PointSet(pts)
        fit = fit_tls_line(ps)
        grid = grid_search_direction(ps, 0.25)
        rel = abs(grid.best_sq_distance - fit.total_sq_distance) / fit.total_sq_distance
        angle = math.degrees(angle_between(fit.line.direction, grid.best_direction))
        worst_rel = max(worst_rel, rel)
        worst_angle = max(worst_angle, angle)
    elapsed = time.perf_counter() - started
    assert worst_rel <= 1e-4
    assert worst_angle <= 0.5
    assert elapsed < 120.0
    report(
        "criterion-04 grid-oracle",
        f"worst relD {worst_rel:.3g} <= 1e-4, worst angle {worst_angle:.3g} <= 0.5 deg, "
        f"{elapsed:.1f}s < 120s",
    )


def test_criterion_05_jacobi_matches_closed_form():
    # Jacobi spectra match the trigonometric closed form to 1e-8 of the
    # trace on 500 seeded symmetric PSD 3x3 matrices.
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(500):
        b = rng.standard_normal((3, 3)) * float(10 ** rng.uniform(-2.0, 2.0))
        a = b.T @ b
        trace = float(np.trace(a))
        diff = np.max(np.abs(dominant_eigenpair(a).spectrum - cubic_eigenvalues(a)))
        worst = max(worst, float(diff) / max(trace, 1e-300))
    assert worst <= 1e-8
    report("criterion-05 spectrum-cross-check", f"worst {worst:.3g} <= 1e-8 of trace")


def test_criterion_06_equivariance():
    # Rotating and translating, or scaling, the cloud transforms the fit the
    # same way over 50 seeded clouds, within conftest.invariance_bounds:
    # 16 eps (1 + offset / spread) / relgap on the direction, 16 eps (spread
    # + offset) on the anchor and 16 eps (1 + offset / spread) xi on the total.
    rng = np.random.default_rng(606)
    worst = 0.0
    for trial in range(50):
        dim = (2, 3, 5)[trial % 3]
        n = int(rng.integers(5, 60))
        pts, _, _ = line_cloud(rng, n, dim, sigma=float(rng.uniform(0.05, 0.6)))
        base = fit_tls_line(PointSet(pts))
        q, shift = random_rotation(rng, dim), rng.uniform(-5.0, 5.0, dim)
        moved = equivariance_ratio(base, fit_tls_line(PointSet(pts @ q.T + shift)), q, shift)
        c = float(rng.uniform(0.3, 3.0))
        scaled = equivariance_ratio(base, fit_tls_line(PointSet(c * pts)), np.eye(dim), scale=c)
        worst = max(worst, moved, scaled)
    assert worst <= 1.0
    report("criterion-06 equivariance", f"worst error {worst:.3g} of the derived bound <= 1")


def test_criterion_07_minimality():
    # No competitor line scores below the fit (beyond rounding slack) on
    # any test cloud: 1000 random and perturbed lines per cloud, plus the
    # classical explicit fit's line, which must lose strictly on steep data.
    rng = np.random.default_rng(707)
    clouds = []
    for trial in range(19):
        dim = (2, 3, 5)[trial % 3]
        n = int(rng.integers(5, 60))
        pts, _, _ = line_cloud(rng, n, dim, sigma=float(rng.uniform(0.1, 0.8)))
        clouds.append(pts)
    steep_rng = np.random.default_rng(7)
    steep_dir = np.array([0.05, 1.0]) / np.linalg.norm([0.05, 1.0])
    t = steep_rng.uniform(-1.0, 1.0, 50)
    steep = t[:, None] * steep_dir + 0.1 * steep_rng.standard_normal((50, 2))
    clouds.append(steep)

    for pts in clouds:
        ps = PointSet(pts)
        result = fit_tls_line(ps)
        xi = float(np.sum(result.eigen.spectrum))
        slack = 1e-12 * xi
        dim = ps.dim
        for k in range(1000):
            if k % 2 == 0:
                direction = rng.standard_normal(dim)
                anchor = result.line.anchor + rng.uniform(-2.0, 2.0, dim)
            else:
                direction = result.line.direction + rng.standard_normal(dim) * float(
                    10 ** rng.uniform(-4.0, -0.5)
                )
                anchor = result.line.anchor + rng.standard_normal(dim) * float(
                    10 ** rng.uniform(-4.0, 0.0)
                )
            competitor = ParametricLine(anchor, direction)
            assert (
                total_orthogonal_distance(ps, competitor)
                >= result.total_sq_distance - slack
            )
        try:
            lse_line = fit_lse_explicit(ps).line
        except RankDeficient:
            continue
        assert (
            total_orthogonal_distance(ps, lse_line)
            >= result.total_sq_distance - slack
        )

    steep_ps = PointSet(steep)
    steep_fit = fit_tls_line(steep_ps)
    steep_lse = total_orthogonal_distance(
        steep_ps, fit_lse_explicit(steep_ps).line
    )
    assert steep_lse > 1.5 * steep_fit.total_sq_distance
    report(
        "criterion-07 minimality",
        f"20 clouds x 1000 competitors all >= fit, steep ratio "
        f"{steep_lse / steep_fit.total_sq_distance:.2f} > 1.5",
    )


def test_criterion_08_exact_recovery_via_cli(tmp_path):
    # gen with zero noise followed by fit recovers the generating direction
    # to 1e-9 radians with an objective at the rounding floor, for 20
    # seeded parameter sets across dimensions 2, 3, and 5.
    started = time.perf_counter()
    cases = []
    for i in range(20):
        dim = (2, 3, 5)[i % 3]
        rng = np.random.default_rng(8000 + i)
        n = int(rng.integers(2, 60))
        direction = ",".join(repr(float(v)) for v in rng.uniform(-2.0, 2.0, dim))
        anchor = ",".join(repr(float(v)) for v in rng.uniform(-5.0, 5.0, dim))
        cases.append((i, dim, n, direction, anchor))

    worst_angle = 0.0
    worst_floor = 0.0
    for i, dim, n, direction, anchor in cases:
        cloud = tmp_path / f"case{i}.csv"
        code, _ = run_main(
            "gen", "--output", str(cloud),
            "--n", str(n), "--dim", str(dim), "--seed", str(9000 + i),
            "--sigma", "0", f"--direction={direction}", f"--anchor={anchor}",
        )
        assert code == 0
        true_direction = None
        for line in cloud.read_text().splitlines():
            if line.startswith("# direction:"):
                true_direction = np.array(
                    [float(v) for v in line.split(":", 1)[1].split(",")]
                )
        assert true_direction is not None
        code, out = run_main("fit", "--input", str(cloud), "--format", "json")
        assert code == 0
        doc = json.loads(out)
        angle = angle_between(doc["direction"], true_direction)
        xi = float(np.sum(doc["spectrum"]))
        worst_angle = max(worst_angle, angle)
        worst_floor = max(worst_floor, doc["total_sq_distance"] / xi)
    elapsed = time.perf_counter() - started
    assert worst_angle <= 1e-9
    assert worst_floor <= 1e-18
    assert elapsed < 60.0
    report(
        "criterion-08 exact-recovery",
        f"worst angle {worst_angle:.3g} <= 1e-9 rad, worst D/energy "
        f"{worst_floor:.3g} <= 1e-18",
    )


def test_criterion_09_degenerate_contracts(tmp_path):
    # Coincident clouds refuse to fit (API error and exit code 2); an
    # isotropic cross flags ambiguity with the objective equal to energy
    # minus the dominant eigenvalue exactly; vertical data breaks only the
    # explicit fit while the orthogonal fit returns the vertical axis.
    with pytest.raises(DegenerateInput):
        fit_tls_line(PointSet(np.full((4, 2), 3.0)))
    same = tmp_path / "same.csv"
    same.write_text("3,3\n3,3\n3,3\n3,3\n")
    code, _ = run_main("fit", "--input", str(same))
    assert code == 2

    cross = PointSet(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]))
    result = fit_tls_line(cross)
    assert result.eigen.ambiguous
    xi = result.moments.total_sq_norm
    assert result.total_sq_distance == xi - result.eigen.spectrum[0] == 2.0

    vertical = PointSet(np.array([[2.0, 0.0], [2.0, 1.0], [2.0, 5.0]]))
    with pytest.raises(RankDeficient):
        fit_lse_explicit(vertical)
    tls = fit_tls_line(vertical)
    assert np.array_equal(tls.line.direction, np.array([0.0, 1.0]))
    assert tls.total_sq_distance == 0.0
    vert_file = tmp_path / "vert.csv"
    vert_file.write_text("2,0\n2,1\n2,5\n")
    code, out = run_main("compare", "--input", str(vert_file), "--format", "json")
    assert code == 2
    assert "error" in json.loads(out)["lse"]

    report(
        "criterion-09 degenerate-contracts",
        "coincident raises + exits 2, isotropic cross ambiguous with exact "
        "objective, vertical data fails only the explicit fit",
    )


def test_criterion_10_byte_determinism(tmp_path):
    # Every subcommand, run twice with identical arguments, emits identical
    # bytes on stdout and in any file it writes.
    started = time.perf_counter()
    cloud = tmp_path / "cloud.csv"
    code, _ = run_main(
        "gen", "--output", str(cloud),
        "--n", "60", "--dim", "3", "--seed", "42", "--sigma", "0.05",
        "--direction", "1,2,3",
    )
    assert code == 0

    invocations = [
        ("fit", "--input", str(cloud), "--format", "table", "--per-point"),
        ("fit", "--input", str(cloud), "--format", "json"),
        ("fit", "--input", str(cloud), "--format", "csv"),
        ("gen", "--n", "25", "--dim", "4", "--seed", "11", "--sigma", "0.2"),
        ("compare", "--input", str(cloud), "--format", "json"),
        ("compare", "--input", str(cloud), "--format", "table"),
        ("check", "--input", str(cloud)),
    ]
    for argv in invocations:
        code_a, out_a = run_main(*argv)
        code_b, out_b = run_main(*argv)
        assert code_a == code_b == 0
        assert out_a.encode() == out_b.encode(), f"nondeterministic output: {argv}"

    file_a = tmp_path / "a.csv"
    file_b = tmp_path / "b.csv"
    for target in (file_a, file_b):
        code, _ = run_main(
            "gen", "--output", str(target), "--n", "40", "--dim", "2", "--seed", "3"
        )
        assert code == 0
    assert file_a.read_bytes() == file_b.read_bytes()
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(
        "criterion-10 byte-determinism",
        f"7 invocations x 2 runs identical, file outputs identical, {elapsed:.2f}s",
    )
