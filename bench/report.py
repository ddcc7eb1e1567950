"""Run workloads over several seeds and report how repeatable each metric is.

    python3 bench/report.py                          # every workload once
    python3 bench/report.py --runs 10 --workloads cli

Each run is a fresh `bench/run.py` process; seeds go first-seed,
first-seed+1, ... and the workloads take turns within each seed, so slow
drift on the host spreads over all of them. For every end-to-end metric the
report gives the median, the quartiles (statistics.quantiles, n=4) and the
spread (Q3 - Q1) / median, next to the bound BENCHMARK.json fixes for that
metric. A spread under a third of its bound is `steady`; one over the bound
is `UNSTEADY`, and that metric or workload cannot gate a change as it is.
Figures a run reports but does not gate (its metadata's `ungated` entry)
are summarised the same way, without a bound. The hazards workload is run
once per seed and reported per class: it holds
the Baseline defect inputs, so its passes count fixed defects.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
OUT = ROOT / ".bench_out"


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    return json.loads(path.read_text()) if path.is_file() else {}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} failed ({done.returncode}):\n{done.stderr}")
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, Q1, Q3, (Q3 - Q1) / median) of the values."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def verdict(name: str, rel: float, bound: float | None) -> str:
    if bound is None:
        return ""
    if rel < bound / 3:
        return "steady"
    return "within bound" if rel <= bound else "UNSTEADY"


def main(argv=None) -> int:
    spec = load_spec()
    listed = [w["name"] for w in spec.get("workloads", [])] or ["tall", "wide", "small", "cli"]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=listed)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.get("run_seconds", 15))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    key = "end_to_end" if args.trace == 0 else "per_layer"
    bounds = {m["name"]: m.get("bound") for m in spec.get(key, [])}
    results: dict[str, list[tuple[dict, dict]]] = {w: [] for w in args.workloads}
    hazards: dict[str, list[int]] = {}
    started = time.time()
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for workload in args.workloads:
            meta, result = run_once(workload, seed, args.seconds, args.trace)
            results[workload].append((meta, result))
            print(
                f"{workload:<6} seed {seed:<4} attempted {result['attempted']:<6} "
                f"failed {result['failed']:<4} "
                + "  ".join(
                    f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                    if k in bounds or args.trace == 0
                ),
                flush=True,
            )
        meta, _ = run_once("hazards", seed, min(args.seconds, 5.0), 0)
        for cls, counts in meta["ops_by_kind"].items():
            acc = hazards.setdefault(cls, [0, 0])
            acc[0] += counts["passed"]
            acc[1] += counts["attempted"]

    summary = {}
    print(f"\n{args.runs} run(s) per workload, {args.seconds:g} s each, trace {args.trace}")
    for workload, runs in results.items():
        meta = runs[0][0]
        samples = [m.get("samples", 0) for m, _ in runs]
        print(f"\n{workload}: {meta['op_shape']}; samples per run {min(samples)}-{max(samples)}")
        if "tail_percentile" in meta:
            tails = [m["tail_percentile"] for m, _ in runs]
            print(f"  latency_tail_ms is p{min(tails):.1f}-p{max(tails):.1f}")
        failed = sum(r["failed"] for _, r in runs)
        print(f"  ops: {sum(r['attempted'] for _, r in runs)} attempted, {failed} failed")
        summary[workload] = {}
        for name, entry in {**runs[0][1]["metrics"], **meta.get("ungated", {})}.items():
            values = [{**r["metrics"], **m.get("ungated", {})}[name]["value"] for m, r in runs]
            med, q1, q3, rel = spread(values)
            bound = bounds.get(name)
            summary[workload][name] = {
                "unit": entry["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": rel, "bound": bound, "values": values,
            }
            print(
                f"  {name:<44} median {med:>12.6g} {entry['unit']:<9} "
                f"IQR [{q1:.6g}, {q3:.6g}] spread {100 * rel:6.2f}%"
                + (f"  bound {100 * bound:.0f}%  {verdict(name, rel, bound)}" if bound else "  not gated")
            )
    if hazards:
        print("\nhazards (Baseline defect inputs; a pass means the defect is fixed):")
        for cls, (passed, attempted) in sorted(hazards.items()):
            print(f"  {cls:<16} {passed}/{attempted} passed")
    print(f"\nwall time {time.time() - started:.0f} s")

    OUT.mkdir(exist_ok=True)
    out = OUT / f"report-trace{args.trace}-{int(started)}.json"
    out.write_text(json.dumps({"args": vars(args), "workloads": summary, "hazards": hazards}, indent=1))
    print(f"written to {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
