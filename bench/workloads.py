"""The benchmark's workloads: seeded inputs, the timed call, the check.

Every input comes from the benchmark's own numpy code, seeded by
(seed, workload, op index), so the same seed gives byte-identical inputs
on every commit and op i does not depend on how many ops ran before it.
The library is reached only through module attributes looked up at call
time, so a traced run sees the same calls as an untraced one.

tall, wide and small call fit_tls_line(PointSet(x)). cli calls
orthofit.cli.main(argv) in-process on files written before timing.
hazards holds the Baseline defect inputs; on the seed code every one of
its ops fails, so it is reported by bench/report.py and kept out of the
workloads the regression gate times, which must not fail.
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from reference import check_direction, reference_direction

SIGMA = 0.05
TALL_N = 1_000
WIDE_N, WIDE_D = 128, 12
CLI_N = 1_000
CHECK_N = 200
# A 2-degree grid keeps check's oracle scan in the same band as the other commands.
CHECK_RES = "2"
CLI_FILES = 10
CLI_COMMANDS = 6
WORKLOAD_IDS = {"tall": 1, "wide": 2, "small": 3, "cli": 4, "hazards": 5}
HAZARD_CLASSES = ("scale_1e-150", "scale_1e200", "offset_1e9", "coincident", "cli_offset_1e9")
# Distinct inputs per pass. A timed run repeats whole passes, so every run
# times the same mix of inputs, each as often as the others.
PASS_LENGTH = {
    "tall": 40,
    "wide": 40,
    "small": 500,
    "cli": CLI_COMMANDS * CLI_FILES,
    "hazards": len(HAZARD_CLASSES),
}


def cloud(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n points along a random line through a random anchor, with noise."""
    direction = rng.standard_normal(d)
    direction /= np.linalg.norm(direction)
    anchor = rng.standard_normal(d)
    t = rng.uniform(-1.0, 1.0, n)
    return anchor + t[:, None] * direction + SIGMA * rng.standard_normal((n, d))


def write_cloud(path: Path, points: np.ndarray) -> None:
    """CSV with a comment header; %.17g round-trips every float exactly."""
    np.savetxt(path, points, fmt="%.17g", delimiter=",", header="benchmark cloud")


@dataclass
class Op:
    """One op: what to run, and what a correct outcome is."""

    kind: str
    args: object  # points array for library ops, argv list for cli ops
    expected: object  # reference direction, None for coincident, or a cli check


class Workload:
    """Seeded op source for one workload.

    Args:
        name: workload name.
        seed: the benchmark's --seed.
        workdir: directory for cli input and output files.
    """

    def __init__(self, name: str, seed: int, workdir: Path):
        if name not in WORKLOAD_IDS:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self._fit = self._geometry = self._cli = None
        self._files: dict[str, tuple[Path, np.ndarray | None]] = {}

    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, WORKLOAD_IDS[self.name], index])

    @property
    def shape(self) -> str:
        return {
            "tall": f"fit_tls_line on n={TALL_N}, d=3",
            "wide": f"fit_tls_line on n={WIDE_N}, d={WIDE_D}",
            "small": "fit_tls_line on n~U[10,500], d~U[2,8]",
            "cli": f"{CLI_COMMANDS} in-process commands on {CLI_N} x 3 files (check on {CHECK_N} x 3), "
            f"{CLI_FILES} file sets",
            "hazards": "Baseline defect inputs, 5 classes in rotation",
        }[self.name]

    def prepare_files(self, write: bool) -> None:
        """Make the files cli ops read, writing them only if write is set.

        Must run before the first op. The run writes them once; its
        set-up probes, which share the directory, only rebuild the paths
        and reference directions.
        """
        if self.name not in ("cli", "hazards"):
            return
        self.workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([self.seed, WORKLOAD_IDS[self.name]])
        if self.name == "cli":
            specs = {}
            for j in range(CLI_FILES):
                specs[f"cloud-{j}"] = cloud(rng, CLI_N, 3)
                specs[f"check-{j}"] = cloud(rng, CHECK_N, 3)
        else:
            specs = {"offset": 1e9 + 1e-3 * cloud(rng, CLI_N, 3)}
        for key, points in specs.items():
            path = self.workdir / f"{key}.csv"
            if write:
                write_cloud(path, points)
            self._files[key] = (path, reference_direction(points))

    def import_library(self) -> None:
        """Import the orthofit modules the ops call; cli only where used."""
        self._fit = importlib.import_module("orthofit.fit")
        self._geometry = importlib.import_module("orthofit.geometry")
        if self.name in ("cli", "hazards"):
            self._cli = importlib.import_module("orthofit.cli")

    # ---- inputs -------------------------------------------------------

    def op(self, index: int) -> Op:
        """Input and expected outcome of op number index; ops a whole
        number of passes apart share their input."""
        index %= PASS_LENGTH[self.name]
        rng = self.rng(index)
        if self.name == "tall":
            return self._fit_op(cloud(rng, TALL_N, 3))
        if self.name == "wide":
            return self._fit_op(cloud(rng, WIDE_N, WIDE_D))
        if self.name == "small":
            n = int(rng.integers(10, 501))
            d = int(rng.integers(2, 9))
            return self._fit_op(cloud(rng, n, d))
        if self.name == "cli":
            return self._cli_op(index // CLI_COMMANDS, index % CLI_COMMANDS)
        return self._hazard_op(rng, index)

    def _fit_op(self, points: np.ndarray, kind: str = "fit") -> Op:
        return Op(kind, points, reference_direction(points))

    def _hazard_op(self, rng: np.random.Generator, cls: int) -> Op:
        kind = HAZARD_CLASSES[cls]
        n = int(rng.integers(10, 501))
        d = int(rng.integers(2, 9))
        if kind == "scale_1e-150":
            return self._fit_op(1e-150 * cloud(rng, n, d), kind)
        if kind == "scale_1e200":
            return self._fit_op(1e200 * cloud(rng, n, d), kind)
        if kind == "offset_1e9":
            return self._fit_op(1e9 + 1e-3 * cloud(rng, n, d), kind)
        if kind == "coincident":
            # Tenths are not dyadic, so the coordinates are not exact floats.
            point = np.floor(rng.uniform(-10.0, 10.0, d)) + 0.1
            return self._fit_op(np.tile(point, (n, 1)), kind)
        path, direction = self._files["offset"]
        out = self.workdir / "hazard-fit.json"
        argv = ["fit", "--input", str(path), "--format", "json", "--output", str(out)]
        return Op(kind, argv, ("fit-json", out, direction, CLI_N))

    def _cli_op(self, file: int, slot: int) -> Op:
        cloud_path, direction = self._files[f"cloud-{file}"]
        check_path, _ = self._files[f"check-{file}"]
        out = self.workdir / f"out-{slot}"
        src = ["--input", str(cloud_path), "--output", str(out)]
        commands = (
            ("fit", ["fit", *src], ("fit-table", out, direction, CLI_N)),
            ("fit-csv", ["fit", *src, "--format", "csv"], ("fit-csv", out, direction, CLI_N)),
            (
                "fit-json",
                ["fit", *src, "--format", "json", "--per-point"],
                ("fit-json", out, direction, CLI_N),
            ),
            (
                "compare",
                ["compare", *src, "--format", "json"],
                ("compare-json", out, direction, CLI_N),
            ),
            (
                "check",
                ["check", "--input", str(check_path), "--resolution-deg", CHECK_RES, "--output", str(out)],
                ("check", out, None, CHECK_N),
            ),
            (
                "gen",
                ["gen", "--n", str(CLI_N), "--dim", "3", "--seed", str(file), "--output", str(out)],
                ("gen", out, None, CLI_N),
            ),
        )
        return Op(*commands[slot])

    # ---- the timed call and its check -----------------------------------

    def clear_output(self, op: Op) -> None:
        """Delete a cli op's output file, so the check cannot pass on a file
        an earlier op left behind; called outside the timed span."""
        if isinstance(op.args, list):
            op.expected[1].unlink(missing_ok=True)

    def run(self, op: Op):
        """The timed call. Returns the fitted direction or the cli exit code."""
        if isinstance(op.args, list):
            return self._cli.main(op.args)
        return self._fit.fit_tls_line(self._geometry.PointSet(op.args)).line.direction.copy()

    def check(self, op: Op, output, error: BaseException | None) -> bool:
        """Whether the op's outcome is correct; called outside the timed span.
        A missing or malformed output file fails the op."""
        try:
            if not isinstance(op.args, list):
                return check_direction(op.expected, output, error)
            return error is None and output == 0 and check_cli_output(*op.expected)
        except Exception:
            return False


def _field(lines: list[str], prefix: str) -> str | None:
    for line in lines:
        if line.startswith(prefix):
            return line[len(prefix) :].strip()
    return None


def _vector(text: str | None, sep: str | None) -> np.ndarray | None:
    if text is None:
        return None
    return np.array([float(tok) for tok in text.split(sep)], dtype=np.float64)


def check_cli_output(form: str, path: Path, direction, n: int) -> bool:
    """Whether a cli output file holds the expected answer.

    fit and compare outputs must give a direction within the reference
    tolerance (and, where they list per-point values, one per input row);
    check must report `failed: 0`; gen must write n rows of 3 columns.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if form == "fit-table":
        found = _vector(_field(lines, "direction "), None)
        ok = _field(lines, "n-points ") == str(n)
    elif form == "fit-csv":
        found = _vector(_field(lines, "# direction:"), ",")
        ok = sum(1 for line in lines if line and line[0].isdigit()) == n
    elif form == "fit-json":
        doc = json.loads(text)
        found = np.array(doc["direction"], dtype=np.float64)
        ok = "per_point_sq" not in doc or len(doc["per_point_sq"]) == n
    elif form == "compare-json":
        doc = json.loads(text)
        found = np.array(doc["tls"]["direction"], dtype=np.float64)
        ok = "error" not in doc["lse"]
    elif form == "check":
        return bool(lines) and lines[-1].split("failed:")[-1].strip() == "0"
    elif form == "gen":
        rows = [line for line in lines if line and not line.startswith("#")]
        return len(rows) == n and all(len(row.split(",")) == 3 for row in rows)
    else:
        raise ValueError(f"unknown cli output form {form!r}")
    return ok and check_direction(direction, found, None)
