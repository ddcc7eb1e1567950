import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import angle_between

import orthofit
from orthofit import cli, solver
from orthofit.fit import fit_lse_explicit, fit_tls_line
from orthofit.geometry import PointSet, line_distances_sq


def run_cli(*args, stdin_text=None, env=None):
    return subprocess.run(
        [sys.executable, "-m", "orthofit", *args],
        capture_output=True,
        text=True,
        input=stdin_text,
        env=env,
    )


def write_collinear(path):
    rows = ["0,0,0", "1,1,1", "2,2,2"]
    path.write_text("\n".join(rows) + "\n")
    return path


@pytest.fixture()
def noisy_cloud(tmp_path):
    out = tmp_path / "cloud.csv"
    proc = run_cli(
        "gen",
        "--output", str(out),
        "--n", "60",
        "--dim", "3",
        "--seed", "42",
        "--sigma", "0.05",
        "--direction", "1,2,3",
    )
    assert proc.returncode == 0
    return out


def header_direction(path):
    for line in path.read_text().splitlines():
        if line.startswith("# direction:"):
            return np.array([float(v) for v in line.split(":", 1)[1].split(",")])
    raise AssertionError("no direction header in generated file")


class TestFitCommand:
    def test_collinear_table(self, tmp_path):
        cloud = write_collinear(tmp_path / "line.csv")
        proc = run_cli("fit", "--input", str(cloud))
        assert proc.returncode == 0
        assert "0.57735026919" in proc.stdout
        assert "direction" in proc.stdout
        assert "ambiguous          no" in proc.stdout

    def test_json_schema_and_roundtrip(self, noisy_cloud):
        proc = run_cli("fit", "--input", str(noisy_cloud), "--format", "json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert set(doc) == {
            "anchor",
            "direction",
            "total_sq_distance",
            "spectrum",
            "ambiguous",
        }
        assert len(doc["anchor"]) == 3
        assert len(doc["direction"]) == 3
        assert len(doc["spectrum"]) == 3
        assert isinstance(doc["ambiguous"], bool)
        assert json.loads(json.dumps(doc)) == doc
        assert abs(float(np.linalg.norm(doc["direction"])) - 1.0) <= 1e-12

    def test_json_per_point(self, noisy_cloud):
        proc = run_cli(
            "fit", "--input", str(noisy_cloud), "--format", "json", "--per-point"
        )
        doc = json.loads(proc.stdout)
        assert len(doc["per_point_sq"]) == 60
        total = 0.0
        for value in doc["per_point_sq"]:
            total += value
        assert abs(total - doc["total_sq_distance"]) <= 1e-12 * max(total, 1.0)

    def test_csv_residuals(self, noisy_cloud):
        proc = run_cli("fit", "--input", str(noisy_cloud), "--format", "csv")
        lines = proc.stdout.splitlines()
        comments = [l for l in lines if l.startswith("#")]
        assert any(l.startswith("# direction:") for l in comments)
        assert "index,sq_distance" in lines
        data = [l for l in lines if l and not l.startswith("#") and "," in l and "sq" not in l]
        assert len(data) == 60

    def test_output_file_matches_stdout(self, noisy_cloud, tmp_path):
        out = tmp_path / "fit.json"
        run_cli("fit", "--input", str(noisy_cloud), "--format", "json", "--output", str(out))
        proc = run_cli("fit", "--input", str(noisy_cloud), "--format", "json")
        assert out.read_text() == proc.stdout

    def test_stdin_input(self):
        proc = run_cli("fit", "--format", "json", stdin_text="0,0\n1,1\n2,2\n")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert abs(doc["direction"][0] - math.sqrt(0.5)) <= 1e-12

    def test_cloud_at_offset_1e9(self, tmp_path):
        direction = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
        rng = np.random.default_rng(9)
        # A spread of 1e-3 at 1e9 is about 1e4 ulps of the coordinates.
        near = 1e-3 * np.linspace(-1.0, 1.0, 50)[:, None] * direction
        near += 1e-6 * rng.standard_normal(near.shape)
        offset = np.array([1e9, -1e9, 1e9])
        far = near + offset
        path = tmp_path / "offset.csv"
        path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in far))
        proc = run_cli("fit", "--input", str(path), "--format", "json")
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)["direction"]
        # far - offset is exact, so the near-origin fit sees the same points.
        expected = fit_tls_line(PointSet(far - offset)).line.direction
        assert angle_between(got, expected) <= 1e-12
        assert angle_between(got, direction) <= 1e-2

    def test_deterministic_output(self, noisy_cloud):
        results = [
            run_cli("fit", "--input", str(noisy_cloud), "--format", fmt).stdout
            for fmt in ("table", "json", "csv")
        ]
        repeats = [
            run_cli("fit", "--input", str(noisy_cloud), "--format", fmt).stdout
            for fmt in ("table", "json", "csv")
        ]
        assert results == repeats


class TestFitErrors:
    def test_empty_input(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        proc = run_cli("fit", "--input", str(empty))
        assert proc.returncode == 3
        assert "no points" in proc.stderr

    def test_single_point(self, tmp_path):
        single = tmp_path / "one.csv"
        single.write_text("1,2,3\n")
        proc = run_cli("fit", "--input", str(single))
        assert proc.returncode == 2

    def test_coincident_points(self, tmp_path):
        same = tmp_path / "same.csv"
        same.write_text("1,2\n1,2\n1,2\n")
        proc = run_cli("fit", "--input", str(same))
        assert proc.returncode == 2
        assert "coincide" in proc.stderr

    def test_bad_token_reports_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n# fine\n3,oops\n")
        proc = run_cli("fit", "--input", str(bad))
        assert proc.returncode == 3
        assert "line 3" in proc.stderr

    def test_ragged_row_reports_line(self, tmp_path):
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("1,2,3\n4,5\n")
        proc = run_cli("fit", "--input", str(ragged))
        assert proc.returncode == 3
        assert "line 2" in proc.stderr

    def test_non_finite_rejected(self, tmp_path):
        bad = tmp_path / "inf.csv"
        bad.write_text("1,2\nnan,4\n")
        proc = run_cli("fit", "--input", str(bad))
        assert proc.returncode == 3

    def test_overflowing_scatter_is_a_typed_error(self):
        # 1e308 parses as finite, but its square overflows the scatter.
        proc = run_cli("fit", stdin_text="1,2\n1e308,3\n4,5\n")
        assert proc.returncode == 2
        assert "error: " in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command", ["fit", "compare", "check"])
    @pytest.mark.parametrize(
        "text, cause",
        [
            ("1,2\n1e200,3\n4,5\n", "second moments"),
            ("1.7e308,1\n1.7e308,2\n1,3\n", "centering"),
        ],
        ids=["moments", "centering"],
    )
    def test_overflow_is_one_error_line(self, command, text, cause):
        # Finite input whose centering or second moments overflow: exit 2
        # and a single error line naming the cause, with no RuntimeWarning.
        proc = run_cli(command, stdin_text=text)
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: ") and cause in lines[0]

    def test_missing_file(self):
        proc = run_cli("fit", "--input", "does-not-exist.csv")
        assert proc.returncode == 3

    def test_unknown_flag(self):
        proc = run_cli("fit", "--nope")
        assert proc.returncode == 3

    def test_no_convergence_exit_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(solver, "MAX_SWEEPS", 1)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1.0, 1.0, (20, 3))
        cloud = tmp_path / "c.csv"
        cloud.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in pts) + "\n")
        assert cli.main(["fit", "--input", str(cloud)]) == 4
        assert capsys.readouterr().err.startswith("error: ")

    def test_solver_flags_are_gone(self):
        proc = run_cli("fit", "--tol", "1e-12")
        assert proc.returncode == 3
        assert "unrecognized arguments: --tol" in proc.stderr

    @pytest.mark.parametrize(
        "argv",
        [["check", "--seed", "3"], ["gen", "--noise", "uniform"], ["gen", "--t-range", "0", "1"]],
        ids=["check_seed", "gen_noise", "gen_t_range"],
    )
    def test_constant_flags_are_gone(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: orthofit")
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in captured.err

    def test_help_exits_zero(self):
        assert run_cli("--help").returncode == 0
        assert run_cli("fit", "--help").returncode == 0


class TestGenCommand:
    def test_deterministic(self, tmp_path):
        a = run_cli("gen", "--n", "30", "--dim", "2", "--seed", "9").stdout
        b = run_cli("gen", "--n", "30", "--dim", "2", "--seed", "9").stdout
        assert a == b

    def test_seed_changes_output(self):
        a = run_cli("gen", "--n", "10", "--seed", "1").stdout
        b = run_cli("gen", "--n", "10", "--seed", "2").stdout
        assert a != b

    def test_shape_and_header(self, tmp_path):
        out = tmp_path / "g.csv"
        run_cli("gen", "--output", str(out), "--n", "17", "--dim", "4", "--seed", "3")
        direction = header_direction(out)
        assert direction.shape == (4,)
        assert abs(float(np.linalg.norm(direction)) - 1.0) <= 1e-12
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")]
        assert len(rows) == 17
        assert all(len(r.split(",")) == 4 for r in rows)

    def test_exact_recovery_when_noiseless(self, tmp_path):
        out = tmp_path / "exact.csv"
        run_cli(
            "gen", "--output", str(out),
            "--n", "25", "--dim", "3", "--seed", "11",
            "--sigma", "0", "--direction", "3,-1,4", "--anchor", "0.5,0.5,0.5",
        )
        true_direction = header_direction(out)
        proc = run_cli("fit", "--input", str(out), "--format", "json")
        doc = json.loads(proc.stdout)
        assert angle_between(doc["direction"], true_direction) <= 1e-9
        xi = float(np.sum(doc["spectrum"]))
        assert doc["total_sq_distance"] <= 1e-18 * xi

    def test_noisy_recovery_within_a_degree(self, noisy_cloud):
        true_direction = header_direction(noisy_cloud)
        doc = json.loads(run_cli("fit", "--input", str(noisy_cloud), "--format", "json").stdout)
        assert angle_between(doc["direction"], true_direction) <= math.radians(1.0)

    def test_noise_level_matches_sigma(self, tmp_path):
        out = tmp_path / "big.csv"
        run_cli(
            "gen", "--output", str(out),
            "--n", "2000", "--dim", "3", "--seed", "5", "--sigma", "0.1",
        )
        doc = json.loads(run_cli("fit", "--input", str(out), "--format", "json").stdout)
        # Orthogonal scatter has dim-1 = 2 noise components of variance
        # sigma^2 each, so the mean squared distance should sit near 0.02.
        mean_sq = doc["total_sq_distance"] / 2000.0
        assert abs(mean_sq - 0.02) <= 0.003

    def test_negative_seed_is_a_usage_error(self, capsys):
        assert cli.main(["gen", "--n", "5", "--seed", "-1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be nonnegative, got -1\n"

    def test_zero_direction_rejected(self):
        proc = run_cli("gen", "--direction", "0,0,0")
        assert proc.returncode == 2

    def test_bad_parameters_rejected(self):
        assert run_cli("gen", "--n", "1").returncode == 3
        assert run_cli("gen", "--dim", "1").returncode == 3
        assert run_cli("gen", "--sigma", "-0.5").returncode == 3
        assert run_cli("gen", "--sigma", "nan").returncode == 3
        assert run_cli("gen", "--sigma", "inf").returncode == 3
        assert run_cli("gen", "--direction", "1,2").returncode == 3  # dim mismatch
        # Flags that are each finite but overflow the coordinates together.
        proc = run_cli(
            "gen", "--anchor", "1.5e308,0,0", "--direction", "1,0,0", "--sigma", "1e308"
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--direction", "1,2"], "--direction has 2 components, --dim is 3"),
            (["--anchor", "1,2"], "--anchor has 2 components, --dim is 3"),
            (["--direction", "abc"], "--direction: could not parse 'abc' as numbers"),
            (["--anchor", "nan,0,0"], "--anchor: expected finite numbers, got 'nan,0,0'"),
        ],
    )
    def test_bad_vector_flag_is_one_error_line(self, capsys, flags, message):
        assert cli.main(["gen", *flags]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_unallocatable_request_is_one_error_line(self, capsys):
        # numpy refuses this 7.1 PiB request before it touches any memory.
        assert cli.main(["gen", "--n", "1000000000000000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("error: Unable to allocate")

    def test_overflowing_direction_is_normalized(self, capsys):
        assert cli.main(["gen", "--n", "5", "--direction", "1e308,1e308,0"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        direction = next(
            line for line in captured.out.splitlines() if line.startswith("# direction:")
        )
        unit = 1.0 / math.sqrt(2.0)
        assert direction == f"# direction: {unit!r},{unit!r},0.0"


class TestCompareCommand:
    def test_steep_cloud_favors_orthogonal(self, tmp_path):
        cloud = tmp_path / "steep.csv"
        run_cli(
            "gen", "--output", str(cloud),
            "--n", "50", "--dim", "2", "--seed", "7",
            "--sigma", "0.1", "--direction", "0.05,1",
        )
        proc = run_cli("compare", "--input", str(cloud), "--format", "json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        tls_d = doc["tls"]["total_sq_distance"]
        lse_d = doc["lse"]["orthogonal_sq_distance"]
        assert tls_d < lse_d
        assert doc["ratio_orthogonal"] > 1.0
        # And the classical fit must win on its own objective.
        assert doc["lse"]["vertical_residual_sq"] <= doc["tls"]["vertical_residual_sq"]

    def test_exact_line_far_from_the_origin_exits_0(self, tmp_path, capsys):
        # A sigma-0 cloud at offset 1e9: the explicit line's total, measured
        # from the rounded anchor, stays within compare's derived slack.
        cloud = tmp_path / "far.csv"
        gen = ["gen", "--n", "300", "--dim", "2", "--sigma", "0", "--anchor", "1e9,1e9"]
        assert cli.main([*gen, "--output", str(cloud)]) == 0
        for fmt in ("table", "json", "csv"):
            assert cli.main(["compare", "--input", str(cloud), "--format", fmt]) == 0
        assert capsys.readouterr().err == ""

    def test_axis_aligned_collinear_has_null_ratio(self, tmp_path):
        cloud = tmp_path / "axis.csv"
        cloud.write_text("0,0\n1,0\n2,0\n3,0\n")
        proc = run_cli("compare", "--input", str(cloud), "--format", "json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["tls"]["total_sq_distance"] == 0.0
        assert doc["ratio_orthogonal"] is None
        assert np.max(np.abs(np.array(doc["lse"]["direction"]) - [1.0, 0.0])) <= 1e-12

    def test_exactly_affine_data_agrees(self, tmp_path):
        cloud = tmp_path / "affine.csv"
        x = np.arange(6.0)
        rows = "\n".join(f"{float(v)!r},{float(2.0 * v + 1.0)!r}" for v in x)
        cloud.write_text(rows + "\n")
        doc = json.loads(
            run_cli("compare", "--input", str(cloud), "--format", "json").stdout
        )
        assert angle_between(doc["tls"]["direction"], doc["lse"]["direction"]) <= 1e-9

    def test_vertical_data_reports_lse_error(self, tmp_path):
        cloud = tmp_path / "vert.csv"
        cloud.write_text("2,0\n2,1\n2,5\n")
        proc = run_cli("compare", "--input", str(cloud), "--format", "json")
        assert proc.returncode == 2
        doc = json.loads(proc.stdout)
        assert "error" in doc["lse"]
        assert np.array_equal(doc["tls"]["direction"], [0.0, 1.0])
        assert doc["tls"]["total_sq_distance"] == 0.0

    def test_collinear_3d_reports_lse_error(self, tmp_path):
        cloud = tmp_path / "collinear.csv"
        cloud.write_text("".join(f"{t},{2 * t},{4 * t}\n" for t in range(-2, 5)))
        proc = run_cli("compare", "--input", str(cloud), "--format", "json")
        assert proc.returncode == 2
        doc = json.loads(proc.stdout)
        assert "error" in doc["lse"]
        assert doc["tls"]["total_sq_distance"] <= 1e-24

    @pytest.mark.parametrize("anchor", ["1e3", "1e6", "1e9"])
    def test_collinear_3d_far_from_origin_reports_lse_error(self, tmp_path, capsys, anchor):
        # The rounding of the stored coordinates must not pass for rank:
        # exactly collinear data is rank deficient wherever it lies.
        cloud = tmp_path / "collinear.csv"
        for seed in range(5):
            assert cli.main([
                "gen", "--output", str(cloud), "--n", "300", "--dim", "3", "--sigma", "0",
                "--seed", str(seed), "--anchor", ",".join([anchor] * 3),
            ]) == 0
            assert cli.main(["compare", "--input", str(cloud), "--format", "json"]) == 2
            doc = json.loads(capsys.readouterr().out)
            assert doc["lse"] == {"error": "independent coordinates have rank 1, need 2"}

    def test_cloud_at_offset_1e6(self, tmp_path, capsys):
        for seed in range(10):
            lse = []
            for anchor in ("0,0,0", "1e6,1e6,1e6"):
                cloud = tmp_path / f"cloud_{seed}_{len(lse)}.csv"
                assert cli.main([
                    "gen", "--output", str(cloud), "--n", "300", "--dim", "3",
                    "--seed", str(seed), "--anchor", anchor,
                ]) == 0
                code = cli.main(["compare", "--input", str(cloud), "--format", "json"])
                assert code == 0
                lse.append(json.loads(capsys.readouterr().out)["lse"])
            near, far = lse
            assert "error" not in far
            w = np.array(near["coefficients"])
            # The stored coordinates at 1e6 carry rounding of about 1e-10.
            gap = np.linalg.norm(np.array(far["coefficients"]) - w)
            assert gap <= 1e-8 * np.linalg.norm(w)

    def test_table_output(self, noisy_cloud):
        proc = run_cli("compare", "--input", str(noisy_cloud))
        assert proc.returncode == 0
        assert "orthogonal (total least squares):" in proc.stdout
        assert "explicit (vertical least squares):" in proc.stdout
        assert "ratio explicit/orthogonal" in proc.stdout

    def test_csv_output(self, noisy_cloud):
        proc = run_cli("compare", "--input", str(noisy_cloud), "--format", "csv")
        lines = proc.stdout.splitlines()
        assert "index,tls_sq,lse_sq" in lines
        data = [l for l in lines if l and not l.startswith("#") and not l.startswith("index")]
        assert len(data) == 60

    def test_dependent_col_flag(self, tmp_path):
        cloud = tmp_path / "dep.csv"
        x = np.arange(5.0)
        cloud.write_text("\n".join(f"{float(2.0 * v + 1.0)!r},{float(v)!r}" for v in x) + "\n")
        doc = json.loads(
            run_cli(
                "compare", "--input", str(cloud), "--format", "json",
                "--dependent-col", "0",
            ).stdout
        )
        assert doc["lse"]["dependent_col"] == 0
        assert abs(doc["lse"]["coefficients"][0] - 2.0) <= 1e-9

    @pytest.mark.parametrize(
        "col, code", [("3", 3), ("-4", 3), ("7", 3), ("-9", 3), ("-3", 0), ("2", 0)]
    )
    def test_dependent_col_range(self, noisy_cloud, capsys, col, code):
        # An out-of-range column is a bad flag, reported before any fit.
        argv = ["compare", "--input", str(noisy_cloud), "--dependent-col", col]
        assert cli.main(argv) == code
        err = capsys.readouterr().err
        if code == 3:
            assert err == f"error: dependent_col {col} out of range for dimension 3\n"
        else:
            assert err == ""

    def test_deterministic(self, noisy_cloud):
        a = run_cli("compare", "--input", str(noisy_cloud), "--format", "json").stdout
        b = run_cli("compare", "--input", str(noisy_cloud), "--format", "json").stdout
        assert a == b

    def test_line_below_minimum_is_invariant_violation(
        self, noisy_cloud, monkeypatch, capsys
    ):
        # Run in-process so the check is exercised as the library ships it,
        # independent of whether the interpreter strips asserts.
        monkeypatch.setattr(cli, "line_distances_sq", lambda points, line: np.zeros(len(points)))
        code = cli.main(["compare", "--input", str(noisy_cloud), "--format", "json"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ")
        assert "below the orthogonal minimum" in err
        assert "Traceback" not in err


class TestFormatting:
    """Per-point output against per-element repr and .12g references."""

    def test_fit_per_point_lines(self, noisy_cloud, capsys):
        with open(noisy_cloud, encoding="utf-8") as fh:
            per_point = fit_tls_line(cli.parse_points_text(fh)).per_point_sq
        assert cli.main(["fit", "--input", str(noisy_cloud), "--format", "csv"]) == 0
        csv_lines = capsys.readouterr().out.splitlines()
        start = csv_lines.index("index,sq_distance") + 1
        assert csv_lines[start:] == [f"{i},{repr(float(v))}" for i, v in enumerate(per_point)]
        assert cli.main(["fit", "--input", str(noisy_cloud), "--per-point"]) == 0
        table_lines = capsys.readouterr().out.splitlines()
        start = table_lines.index("index  sq-distance") + 1
        assert table_lines[start:] == [
            f"{i:>5}  {format(float(v), '.12g')}" for i, v in enumerate(per_point)
        ]

    def test_compare_csv_lines(self, noisy_cloud, capsys):
        with open(noisy_cloud, encoding="utf-8") as fh:
            points = cli.parse_points_text(fh)
        tls = fit_tls_line(points).per_point_sq
        lse = line_distances_sq(points, fit_lse_explicit(points).line)
        assert cli.main(["compare", "--input", str(noisy_cloud), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("index,tls_sq,lse_sq") + 1
        assert lines[start:] == [
            f"{i},{repr(float(a))},{repr(float(b))}" for i, (a, b) in enumerate(zip(tls, lse))
        ]

    def test_compare_csv_without_explicit_fit(self, tmp_path, capsys):
        cloud = tmp_path / "vert.csv"
        cloud.write_text("2,0\n2,1\n2,5\n")
        assert cli.main(["compare", "--input", str(cloud), "--format", "csv"]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == ["index,tls_sq", "0,0.0", "1,0.0", "2,0.0"]

    def test_fit_json_per_point_is_json_dumps(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        noisy = rng.standard_normal((50, 3)) * [4.0, 1.0, 0.25]
        clouds = {
            "zeros": np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [5.0, 0.0]]),
            "integral": np.array([[x, y] for x in (0.0, 10.0, 20.0) for y in (1.0, -1.0)]),
            "subnormal": np.array([[0.0, 0.0], [1.0, 1e-160], [2.0, -1e-160], [3.0, 0.0]]),
            "noisy": noisy,
            "noisy_x2^500": np.ldexp(noisy, 500),
        }
        seen = []
        for name, points in clouds.items():
            path = tmp_path / f"{name}.csv"
            path.write_text("".join(",".join(map(repr, row)) + "\n" for row in points.tolist()))
            assert cli.main(["fit", "--input", str(path), "--format", "json", "--per-point"]) == 0
            result = fit_tls_line(PointSet(points))
            values = result.per_point_sq.tolist()
            full_doc = {**cli._fit_document(result), "per_point_sq": values}
            assert capsys.readouterr().out == json.dumps(full_doc, indent=2) + "\n"
            seen += values
        assert 0.0 in seen
        assert any(0.0 < v < sys.float_info.min for v in seen)
        assert any(v > 0.0 and v.is_integer() for v in seen)
        assert max(seen) > 1e290

    @pytest.mark.parametrize("dim", [2, 3, 5, 12])
    def test_gen_rows_are_shortest_round_trip(self, capsys, dim):
        anchor = ",".join((["-0.0", "0", "1e6", "1e-300"] * 3)[:dim])
        args = ["gen", "--n", "500", "--dim", str(dim), "--seed", "3", f"--anchor={anchor}"]
        assert cli.main(args) == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if not l.startswith("#")]
        assert len(rows) == 500
        for row in rows:
            assert len(row.split(",")) == dim
            assert row == ",".join(repr(float(tok)) for tok in row.split(","))


class TestParserReuse:
    """The argument parser is built once per process; runs must not leak."""

    def test_sequential_runs_match_fresh_processes(self, noisy_cloud, capsys):
        fit = ["fit", "--input", str(noisy_cloud), "--format", "json"]
        gen = ["gen", "--n", "20"]
        for argv in ([*fit, "--per-point"], fit, [*gen, "--seed", "1"], [*gen, "--seed", "2"]):
            assert cli.main(argv) == 0
            assert capsys.readouterr().out == run_cli(*argv).stdout

    def test_help_twice_in_process(self, capsys):
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                cli.main(["--help"])
            assert exc.value.code == 0
            assert "usage: orthofit" in capsys.readouterr().out
        assert cli._build_parser() is cli._build_parser()


class TestBlasThreads:
    def test_output_independent_of_blas_thread_count(self, tmp_path):
        # Every sum over points is a numpy reduction or an einsum, so no
        # output may depend on how many threads the BLAS has. The wide
        # files are where a BLAS matrix product for the scatter would split
        # its sums over threads; d = 100 and 200 run LAPACK's eigh, whose
        # bytes README's Determinism section promises up to d = 200.
        cloud = tmp_path / "big.csv"
        assert cli.main(
            ["gen", "--output", str(cloud), "--n", "20000", "--dim", "3", "--seed", "5"]
        ) == 0
        wide = []
        for dim in ("12", "100", "200"):
            path = tmp_path / f"d{dim}.csv"
            argv = ["gen", "--output", str(path), "--n", "500", "--dim", dim, "--seed", "3"]
            assert cli.main([*argv, "--sigma", "0.3"]) == 0
            wide.append(path)
        outputs = []
        for threads in ("1", "2", "4"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            fit = run_cli("fit", "--input", str(cloud), "--format", "csv", env=env)
            cmp = run_cli("compare", "--input", str(cloud), "--format", "json", env=env)
            chk = run_cli("check", "--input", str(cloud), "--resolution-deg", "1", env=env)
            fits = [run_cli("fit", "--input", str(p), "--format", "json", env=env) for p in wide]
            procs = [fit, cmp, chk, *fits]
            assert all(proc.returncode == 0 for proc in procs)
            outputs.append([proc.stdout for proc in procs])
        assert outputs[0] == outputs[1] == outputs[2]


class TestCheckCommand:
    def test_clean_cloud_passes(self, noisy_cloud):
        proc = run_cli("check", "--input", str(noisy_cloud))
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert [l.split()[:2] for l in lines[:-1]] == [
            ["PASS", "decomposition"],
            ["PASS", "objective-consistency"],
            ["PASS", "grid-agreement"],
        ]
        assert lines[-1] == "checks: 3  failed: 0"

    def test_high_dimension_skips_narrow_oracles(self, tmp_path):
        cloud = tmp_path / "d5.csv"
        rng = np.random.default_rng(8)
        pts = rng.uniform(-1.0, 1.0, (30, 5))
        cloud.write_text("\n".join(",".join(repr(float(v)) for v in row) for row in pts) + "\n")
        proc = run_cli("check", "--input", str(cloud))
        assert proc.returncode == 0
        assert "SKIP grid-agreement" in proc.stdout
        assert "FAIL" not in proc.stdout
        assert proc.stdout.splitlines()[-1] == "checks: 3  failed: 0"

    def test_ambiguous_cloud_skips_direction_check(self, tmp_path):
        cloud = tmp_path / "cross.csv"
        cloud.write_text("1,0\n-1,0\n0,1\n0,-1\n")
        proc = run_cli("check", "--input", str(cloud))
        assert proc.returncode == 0

    def test_deterministic(self, noisy_cloud):
        a = run_cli("check", "--input", str(noisy_cloud))
        b = run_cli("check", "--input", str(noisy_cloud))
        assert a.returncode == b.returncode == 0
        assert a.stdout
        assert a.stdout == b.stdout

    def test_degenerate_input_propagates(self, tmp_path):
        cloud = tmp_path / "same.csv"
        cloud.write_text("1,1\n1,1\n")
        proc = run_cli("check", "--input", str(cloud))
        assert proc.returncode == 2

    @pytest.mark.parametrize("resolution", ["0", "-1", "20", "nan"])
    def test_resolution_out_of_range_is_a_usage_error(self, noisy_cloud, resolution):
        proc = run_cli("check", "--input", str(noisy_cloud), "--resolution-deg", resolution)
        assert proc.returncode == 3
        assert proc.stderr.startswith("error: --resolution-deg")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("resolution", ["1e-30", "1e-300"])
    @pytest.mark.parametrize(
        "text", ["1,2\n3,5\n4,4\n", "1,2,0\n3,5,1\n4,4,3\n"], ids=["2d", "3d"]
    )
    def test_grid_numpy_cannot_size_is_one_error_line(
        self, capsys, monkeypatch, text, resolution
    ):
        # numpy refuses to size these grids without allocating anything;
        # the refusal is the request too large to allocate that it is.
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert cli.main(["check", "--resolution-deg", resolution]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: a grid at resolution_deg {resolution} is too large to allocate\n"
        )


class TestReadmeMatchesParser:
    """The README's command-line examples and flags match the parser."""

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

    def test_example_commands_parse(self):
        blocks = re.findall(r"^```[a-z]*\n(.*?)^```", self.readme, re.M | re.S)
        commands = [
            shlex.split(line)
            for block in blocks
            for line in block.splitlines()
            if line.startswith("orthofit ")
        ]
        assert commands
        for words in commands:
            if ">" in words:
                words = words[: words.index(">")]
            cli._build_parser().parse_args(words[1:])

    def test_documented_flags_exist(self):
        section = self.readme.split("## Command line", 1)[1].split("## Testing", 1)[0]
        (subcommands,) = [
            action.choices
            for action in cli._build_parser()._actions
            if isinstance(action.choices, dict)
        ]
        options = {
            flag
            for sub in subcommands.values()
            for flag in sub._option_string_actions
            if flag.startswith("--") and flag != "--help"
        }
        documented = set(re.findall(r"--[a-z][a-z-]*", section))
        assert documented
        assert documented <= options, sorted(documented - options)
        assert options <= documented, sorted(options - documented)


class TestReadmeMatchesLibrary:
    """The README's library example runs and the names it cites exist."""

    readme = TestReadmeMatchesParser.readme

    def test_quick_start_runs(self, capsys):
        (block,) = re.findall(r"^```python\n(.*?)^```", self.readme, re.M | re.S)
        exec(compile(block, "README.md", "exec"), {})
        assert capsys.readouterr().out

    def test_cited_names_resolve(self):
        entry_points = self.readme.split("Other entry points:", 1)[1].split("\n## ", 1)[0]
        functions = re.findall(r"`(\w+)\(", entry_points)
        assert functions
        missing = [name for name in functions if not hasattr(orthofit, name)]
        attributes = re.findall(r"`(solver|geometry)\.(\w+)", self.readme)
        assert attributes
        missing += [
            f"{module}.{name}"
            for module, name in attributes
            if not hasattr(getattr(orthofit, module), name)
        ]
        assert not missing, missing
