"""Run one benchmark workload against the orthofit sources of this checkout.

    python3 bench/run.py --workload tall --seed 1 --seconds 10 --trace 0

Each run is one closed loop with a single caller in this fresh process:
make op i's input (clock stopped), time the call, check its outcome (clock
stopped), repeat. With --trace 0 the loop runs for --seconds and the run
reports the end-to-end metrics. With --trace 1 it runs TRACE_PASSES whole
passes twice, untraced and then traced, whatever --seconds is, and reports
the per-layer metrics and the tracing overhead. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics; the
line before it carries the run metadata. Both are also written to .bench_out/ at the checkout root.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools before numpy loads; the set-up probes inherit it.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import PASS_LENGTH, WORKLOAD_IDS, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 9
# Whole passes in each half of a traced run, so every input runs equally
# often and the .calls counts do not depend on --seconds.
TRACE_PASSES = 3
TAIL_BEYOND = 10

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "success_frac": "frac",
}


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with TAIL_BEYOND
    samples above it. With too few samples for that to lie above the
    median, the maximum (p100)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


class Loop:
    """Every op one closed loop ran: its latency, and its verdict by kind."""

    def __init__(self):
        self.latencies: list[float] = []
        self.passed = Counter()
        self.attempted = Counter()

    @property
    def failed(self) -> int:
        return sum(self.attempted.values()) - sum(self.passed.values())

    def ops_per_s(self) -> float:
        return len(self.latencies) / math.fsum(self.latencies)


def run_loop(wl: Workload, seconds: float | None = None, count: int | None = None,
             tracer: spans.Tracer | None = None, between_passes=None) -> Loop:
    """Run ops 0, 1, 2, ... one at a time.

    With count, run exactly that many. With seconds, run whole passes of
    PASS_LENGTH inputs until the ops and checks have taken `seconds`;
    between_passes(elapsed) runs after each pass, off the clock, with the
    seconds taken so far.
    """
    loop = Loop()
    clock = time.perf_counter
    pass_length = PASS_LENGTH[wl.name]
    gc.collect()
    start = clock()
    index = 0
    while index < count if count is not None else True:
        if count is None and index and index % pass_length == 0:
            if clock() - start >= seconds:
                break
            if between_passes is not None:
                paused = clock()
                between_passes(paused - start)
                start += clock() - paused
        op = wl.op(index)
        wl.clear_output(op)
        if tracer is not None:
            tracer.op = index
        error = None
        output = None
        t0 = clock()
        try:
            output = wl.run(op)
        # A failing op is an outcome to check, not a crash; argparse usage
        # errors in cli.main exit instead of raising.
        except (Exception, SystemExit) as exc:
            error = exc
        loop.latencies.append(clock() - t0)
        loop.attempted[op.kind] += 1
        loop.passed[op.kind] += wl.check(op, output, error)
        index += 1
    return loop


def time_setup(wl: Workload) -> float:
    """Seconds from before `import orthofit` to the end of one op."""
    op = wl.op(0)
    t0 = time.perf_counter()
    wl.import_library()
    wl.run(op)
    return time.perf_counter() - t0


def setup_sample(args, workdir: Path) -> float:
    """Set-up time of one fresh process running time_setup."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({done.returncode}): {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def host_metadata() -> dict:
    """Interpreter, numpy, BLAS, thread pinning and CPU facts for this run."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = {}
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache_dir)) if os.path.isdir(cache_dir) else []:
        if index.startswith("index"):
            level = _read(f"{cache_dir}/{index}/level")
            kind = _read(f"{cache_dir}/{index}/type")
            caches[f"L{level} {kind}"] = _read(f"{cache_dir}/{index}/size")
    model = next(
        (line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
         if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
    }


def end_to_end(loop: Loop, setup: list[float], pass_length: int) -> tuple[dict, dict]:
    """End-to-end metrics of a timed loop, over every op it ran.

    The run metadata adds the median and tail latency, ungated: in repeated
    runs on a shared host they spread beyond the largest bound allowed.
    """
    value, percentile = tail(loop.latencies)
    attempted = sum(loop.attempted.values())
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": loop.ops_per_s(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_frac": sum(loop.passed.values()) / attempted,
    }
    n = f"n={attempted} ops"
    notes = {
        "setup_s": f"median of {len(setup)} fresh processes",
        "ops_per_s": f"{n} / {math.fsum(loop.latencies):.3f} s in ops",
        "peak_rss_mb": "ru_maxrss of the run's process",
        "success_frac": f"{sum(loop.passed.values())}/{attempted} ops passed",
    }
    meta = {
        "samples": attempted,
        "inputs": pass_length,
        "passes": attempted // pass_length,
        "tail_percentile": percentile,
        "setup_samples": setup,
        "ungated": {
            "latency_p50_ms": {"value": 1e3 * statistics.median(loop.latencies), "unit": "ms"},
            "latency_tail_ms": {"value": 1e3 * value, "unit": "ms"},
        },
    }
    return {k: (v, E2E_UNITS[k], notes[k]) for k, v in metrics.items()}, meta


def traced_run(wl: Workload, typed_error: type) -> tuple[dict, list[Loop], dict]:
    """Untraced then traced run of the same TRACE_PASSES whole passes."""
    count = TRACE_PASSES * PASS_LENGTH[wl.name]
    plain = run_loop(wl, count=count)
    tracer = spans.Tracer(typed_error=typed_error)
    tracer.install()
    try:
        traced = run_loop(wl, count=count, tracer=tracer)
    finally:
        tracer.uninstall()
    layer = spans.layer_metrics(tracer.spans)
    layer["trace.overhead_frac"] = 1.0 - traced.ops_per_s() / plain.ops_per_s()
    metrics = {k: (v, spans.unit_of(k), "") for k, v in layer.items()}
    notes = {"ops_per_half": count, "absent": tracer.absent, "span_count": len(tracer.spans)}
    return metrics, [plain, traced], {"notes": notes, "records": tracer.records()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOAD_IDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "orthofit" / "__init__.py").is_file():
        print(f"error: no orthofit sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        wl = Workload(args.workload, args.seed, Path(args.workdir))
        wl.prepare_files(write=False)
        print(repr(time_setup(wl)))
        return 0

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    wl = Workload(args.workload, args.seed, workdir)
    try:
        wl.prepare_files(write=True)
        wl.import_library()
        wl.run(wl.op(0))  # untimed warm-up
        if args.trace == 0:
            # Set-up probes go between passes, evenly over the run, so they
            # meet the host in the states the passes meet.
            setup = [setup_sample(args, workdir)]

            def between_passes(elapsed):
                if len(setup) < SETUP_PROBES and elapsed >= len(setup) * args.seconds / SETUP_PROBES:
                    setup.append(setup_sample(args, workdir))

            loops = [run_loop(wl, seconds=args.seconds, between_passes=between_passes)]
            while len(setup) < SETUP_PROBES:
                setup.append(setup_sample(args, workdir))
            metrics, run_meta = end_to_end(loops[0], setup, PASS_LENGTH[wl.name])
            records = None
        else:
            typed = importlib.import_module("orthofit.errors").OrthofitError
            metrics, loops, traced = traced_run(wl, typed)
            run_meta, records = traced["notes"], traced["records"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(sum(loop.attempted.values()) for loop in loops)
    failed = sum(loop.failed for loop in loops)
    by_kind = Counter()
    passed = Counter()
    for loop in loops:
        by_kind.update(loop.attempted)
        passed.update(loop.passed)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "op_shape": wl.shape,
        "ops_by_kind": {k: {"attempted": by_kind[k], "passed": passed[k]} for k in sorted(by_kind)},
        **run_meta,
        "host": host_metadata(),
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }

    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{tag}.json").write_text(json.dumps({"meta": meta, "result": result}, indent=1))
    if records is not None:
        (OUT / f"spans-{tag}.json").write_text(json.dumps(records))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ({wl.shape})")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<9} {note}")
    for name, entry in meta.get("ungated", {}).items():
        print(f"  {name:<44} {entry['value']:>14.6g} {entry['unit']:<9} not gated")
    if "tail_percentile" in meta:
        print(f"  latency_tail_ms is p{meta['tail_percentile']:.2f} of {meta['samples']} ops")
    print(f"  ops: {attempted} attempted, {failed} failed")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
