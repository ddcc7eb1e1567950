"""Self-tests for the benchmark harness, on tiny inputs.

    python3 -m pytest -q bench/test_harness.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import orthofit  # noqa: E402
from orthofit.errors import DegenerateInput, NotCentered, OrthofitError  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
from reference import ANGLE_TOL_RAD, angle_rad, check_direction, reference_direction  # noqa: E402
from workloads import PASS_LENGTH, Op, Workload, check_cli_output  # noqa: E402

LINE = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)


def _cloud(scale=1.0, offset=0.0):
    t = np.linspace(-1.0, 1.0, 9)
    wobble = 0.01 * np.array([[1, -1, 0], [0, 1, -1], [-1, 0, 1]] * 3, dtype=float)
    return offset + scale * (t[:, None] * LINE + wobble)


def _rotated(v, radians):
    v = np.asarray(v, dtype=float) / np.linalg.norm(v)
    other = np.zeros_like(v)
    other[np.argmin(np.abs(v))] = 1.0
    other -= (other @ v) * v
    other /= np.linalg.norm(other)
    return math.cos(radians) * v + math.sin(radians) * other


# ---- correctness check ---------------------------------------------------


def test_reference_direction_holds_across_scale_and_offset():
    base = reference_direction(_cloud())
    for points in (_cloud(1e-150), _cloud(1e200)):
        assert angle_rad(reference_direction(points), base) < 1e-9
    # At offset 1e9 the stored coordinates are rounded; subtracting the
    # offset again is exact (Sterbenz), so it gives the cloud actually fitted.
    shifted = _cloud(1e-3, 1e9)
    assert angle_rad(reference_direction(shifted), reference_direction(shifted - 1e9)) < 1e-9


def test_reference_direction_is_none_for_coincident_points():
    assert reference_direction(np.tile([0.1, 0.2, 0.3], (5, 1))) is None


def test_check_accepts_the_right_direction_either_sign():
    expected = reference_direction(_cloud())
    assert check_direction(expected, expected, None)
    assert check_direction(expected, -expected, None)


def test_check_rejects_a_perturbed_direction():
    expected = reference_direction(_cloud())
    assert check_direction(expected, _rotated(expected, 0.5 * ANGLE_TOL_RAD), None)
    assert not check_direction(expected, _rotated(expected, 10 * ANGLE_TOL_RAD), None)
    assert not check_direction(expected, np.array([np.nan, 0.0, 1.0]), None)


def test_check_rejects_a_bare_value_error():
    expected = reference_direction(_cloud())
    assert not check_direction(expected, None, ValueError("matrix contains non-finite values"))
    assert not check_direction(None, None, ValueError("boom"))


def test_check_wants_exactly_degenerate_input_for_coincident_points():
    assert check_direction(None, None, DegenerateInput("all points coincide"))
    assert not check_direction(None, None, NotCentered("cloud mean is not zero"))
    assert not check_direction(None, None, OrthofitError("generic"))
    assert not check_direction(None, LINE, None)


def test_cli_output_checks(tmp_path):
    out = tmp_path / "out"
    out.write_text("n-points   3\ndirection  " + " ".join(map(str, LINE)) + "\n")
    assert check_cli_output("fit-table", out, LINE, 3)
    assert not check_cli_output("fit-table", out, LINE, 4)
    out.write_text(json.dumps({"direction": list(-LINE), "per_point_sq": [0.0, 0.0]}))
    assert check_cli_output("fit-json", out, LINE, 2)
    assert not check_cli_output("fit-json", out, _rotated(LINE, 1e-3), 2)
    out.write_text("PASS a  measured=0 tol=1\nchecks: 1  failed: 0\n")
    assert check_cli_output("check", out, None, 0)
    out.write_text("FAIL a  measured=2 tol=1\nchecks: 1  failed: 1\n")
    assert not check_cli_output("check", out, None, 0)
    out.write_text("# header\n1,2,3\n4,5,6\n")
    assert check_cli_output("gen", out, None, 2)
    assert not check_cli_output("gen", out, None, 3)


def _cli_workload(tmp_path):
    wl = Workload("cli", 1, tmp_path)
    wl.prepare_files(write=True)
    wl.import_library()
    return wl


def test_missing_or_malformed_cli_output_fails_the_op(tmp_path):
    wl = _cli_workload(tmp_path)
    op = wl.op(3)  # compare --format json
    assert op.kind == "compare"
    assert wl.check(op, wl.run(op), None)
    out = op.expected[1]
    out.write_text("{not json")
    assert not wl.check(op, 0, None)
    out.write_text(json.dumps({"tls": {}, "lse": {}}))
    assert not wl.check(op, 0, None)
    table = wl.op(0)
    table.expected[1].write_text("direction  0.1 x 0.3\nn-points   1000\n")
    assert not wl.check(table, 0, None)
    wl.clear_output(op)
    assert not out.exists()
    assert not wl.check(op, 0, None)


def test_usage_error_and_stale_output_fail_the_op(tmp_path, monkeypatch):
    wl = _cli_workload(tmp_path)
    good = wl.op(0)
    assert wl.check(good, wl.run(good), None)  # leaves a correct output behind
    # Exit 0 without writing: the earlier output must not make it pass.
    monkeypatch.setattr(wl, "op", lambda index: good)
    monkeypatch.setattr(wl, "run", lambda op: 0)
    assert run.run_loop(wl, count=1).failed == 1
    monkeypatch.undo()
    usage = Op(good.kind, ["fit", "--no-such-flag"], good.expected)
    monkeypatch.setattr(wl, "op", lambda index: usage)
    loop = run.run_loop(wl, count=2)
    assert (loop.failed, sum(loop.attempted.values())) == (2, 2)


def test_library_seed_code_outcomes_are_checked():
    wl = Workload("small", 1, Path("unused"))
    wl.import_library()
    op = wl.op(0)
    assert wl.check(op, wl.run(op), None)
    assert not wl.check(op, -_rotated(wl.run(op), 1e-4), None)


def test_inputs_depend_only_on_seed_and_index():
    a, b = Workload("tall", 3, Path("unused")), Workload("tall", 3, Path("unused"))
    assert np.array_equal(a.op(2).args, b.op(2).args)
    assert np.array_equal(a.op(2).args, a.op(2 + PASS_LENGTH["tall"]).args)
    assert not np.array_equal(a.op(2).args, Workload("tall", 4, Path("unused")).op(2).args)


# ---- spans and self time -------------------------------------------------


def test_self_time_on_a_nested_example():
    # a [0,10] holds b [1,4] (which holds c [2,3]) and d [5,7].
    nested = [
        spans.Span("a", 0.0, 10.0),
        spans.Span("b", 1.0, 4.0, parent=0),
        spans.Span("c", 2.0, 3.0, parent=1),
        spans.Span("d", 5.0, 7.0, parent=0),
    ]
    assert spans.self_times(nested) == [5.0, 2.0, 1.0, 2.0]


def test_wrapped_calls_record_nesting_and_errors():
    ticks = iter(range(100))
    tracer = spans.Tracer(typed_error=OrthofitError, clock=lambda: float(next(ticks)))

    def inner(kind):
        if kind == "typed":
            raise DegenerateInput("x")
        if kind == "untyped":
            raise ValueError("x")

    inner_t = tracer.wrap("geometry.center", inner)
    outer_t = tracer.wrap("fit.fit_tls_line", lambda kind: inner_t(kind))
    outer_t("ok")
    with pytest.raises(DegenerateInput):
        outer_t("typed")
    with pytest.raises(ValueError):
        outer_t("untyped")

    assert [s.parent for s in tracer.spans] == [-1, 0, -1, 2, -1, 4]
    # Each outer span lasts 3 ticks and its inner span 1.
    assert spans.self_times(tracer.spans) == [2.0, 1.0] * 3
    m = spans.layer_metrics(tracer.spans)
    assert m["geometry.center.calls"] == 3
    assert m["geometry.center.self_s"] == 3.0
    assert m["fit.fit_tls_line.self_s"] == 6.0
    assert (m["geometry.typed_errors"], m["geometry.untyped_errors"]) == (1, 1)
    assert (m["fit.typed_errors"], m["fit.untyped_errors"]) == (1, 1)


def test_install_traces_every_call_site_and_uninstall_restores():
    original = orthofit.fit.accumulate_scatter
    tracer = spans.Tracer(typed_error=OrthofitError)
    tracer.install()
    try:
        assert orthofit.fit.accumulate_scatter is not original
        assert orthofit.accumulate_scatter is orthofit.fit.accumulate_scatter
        orthofit.fit.fit_tls_line(orthofit.geometry.PointSet(_cloud()))
    finally:
        tracer.uninstall()
    assert orthofit.fit.accumulate_scatter is original
    assert tracer.absent == []
    m = spans.layer_metrics(tracer.spans)
    assert m["fit.fit_tls_line.calls"] == 1
    assert m["geometry.center.calls"] == 1
    assert m["scatter.accumulate_scatter.calls"] == 1
    assert m["solver.dominant_eigenpair.calls"] == 1
    assert m["geometry.PointSet.calls"] == 2  # the caller's cloud and the centered one
    assert m["scatter.accumulate_scatter.gb_per_s"] > 0.0


def test_missing_function_is_reported_absent():
    tracer = spans.Tracer()
    tracer.install(targets=(spans.Target("geometry.gone", "orthofit.geometry", "gone"),))
    tracer.uninstall()
    assert tracer.absent == ["geometry.gone"]


# ---- statistics and the metric list ----------------------------------------


def test_tail_keeps_ten_samples_beyond():
    latencies = [float(i) for i in range(1, 51)]
    value, percentile = run.tail(latencies)
    assert value == 40.0 and sum(t > value for t in latencies) == 10
    assert percentile == 80.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.E2E_UNITS
    layer = spans.layer_metrics([])
    layer["trace.overhead_frac"] = 0.0
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: spans.unit_of(k) for k in layer}
    assert [w["name"] for w in spec["workloads"]] == ["tall", "wide", "small", "cli"]
