"""Byte census of the orthofit command line: one line per run.

Writes a fixed, seeded set of input files into a temporary directory:

* 63 `gen` files of 300 points: dimensions 2, 3, 4, 5, 8, 12 and 30,
  anchors 0, 1e3 and 1e9 (every component), sigma 0.1, 1e-3 and 0. The
  eigensolver turns lists of Python floats up to its crossover dimension
  (solver._SCALAR_MAX_DIM) and a numpy array above it; d = 30 puts the
  array kernel in the census;
* a copy of each scaled by 2^-500, 2^-300, 2^300 and 2^500, which is exact
  while the coordinates stay normal floats;
* malformed and edge files: a bad token, a short row, one column, `inf`, a
  single point, coincident points, a vertical cloud, a `,,,` row, and the
  2-d and 3-d crosses of unit points on each axis, whose dominant direction
  is ambiguous.

On every file it runs, in this process through orthofit.cli.main, `fit` as
table, csv and json with --per-point, `compare` as table, json and csv and
with --dependent-col 0, and `check` at --resolution-deg 2 and at 0.5.
Each run prints one line: the argv with the temporary directory
stripped, the exit code, and the sha256 of stdout and of stderr. The
runs on a `gen` file come after one line for the `gen` run that wrote it,
with the sha256 of the bytes written in place of stdout's. Warnings
count as stderr, by category and message; an exception that escapes main
counts as exit code "raised" with its type and message as stderr.

The orthofit imported is the first on the path, so a census of each of two
trees, diffed, lists every run whose bytes differ:

    PYTHONPATH=src python tools/census.py > after.txt
    PYTHONPATH=/path/to/other/src python tools/census.py > before.txt
    diff before.txt after.txt

Arguments, if any, keep only the files whose name contains one of them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import sys
import tempfile
import warnings
from pathlib import Path

from orthofit import cli

DIMS = (2, 3, 4, 5, 8, 12, 30)
ANCHORS = (("0", 0.0), ("1e3", 1e3), ("1e9", 1e9))
SIGMAS = ("0.1", "1e-3", "0")
SCALES = (-500, -300, 300, 500)
MALFORMED = {
    "bad_token": "1,2\n3,x\n5,6\n",
    "short_row": "1,2,3\n4,5\n6,7,8\n",
    "one_column": "1\n2\n3\n",
    "inf": "1,2\ninf,3\n4,5\n",
    "single_point": "1,2\n",
    "coincident": "1,2\n1,2\n1,2\n",
    "vertical": "1,0\n1,1\n1,2.5\n1,3\n",
    "commas": ",,,\n1,2\n3,4\n",
    "cross_2d": "1,0\n-1,0\n0,1\n0,-1\n",
    "cross_3d": "1,0,0\n-1,0,0\n0,1,0\n0,-1,0\n0,0,1\n0,0,-1\n",
}
COMMANDS = (
    ("fit", "--format", "table"),
    ("fit", "--format", "csv"),
    ("fit", "--format", "json", "--per-point"),
    ("compare", "--format", "table"),
    ("compare", "--format", "json"),
    ("compare", "--format", "csv"),
    ("compare", "--dependent-col", "0"),
    ("check", "--resolution-deg", "2"),
    ("check", "--resolution-deg", "0.5"),
)


def _scaled_text(text: str, k: int) -> str:
    """The data rows of a gen file with every coordinate times 2^k."""
    rows = [line for line in text.splitlines() if line and not line.startswith("#")]
    return "".join(
        ",".join(repr(math.ldexp(float(tok), k)) for tok in row.split(",")) + "\n"
        for row in rows
    )


def write_inputs(directory: Path) -> list[tuple[Path, str | None]]:
    """Write the census's input files into directory, in census order.

    Each file comes with the census line of the gen run that wrote it, or
    None for a file written here.
    """
    prefix = f"{directory}/"
    inputs: list[tuple[Path, str | None]] = []
    cases = itertools.product(DIMS, ANCHORS, SIGMAS)
    for seed, (dim, (anchor_name, anchor), sigma) in enumerate(cases):
        path = directory / f"gen_d{dim}_a{anchor_name}_s{sigma}.csv"
        argv = ["gen", "--n", "300", "--dim", str(dim), "--seed", str(seed)]
        argv += ["--sigma", sigma, "--anchor", ",".join([repr(anchor)] * dim)]
        argv += ["--output", str(path)]
        code, _, err = _run(argv)
        if code != "0":
            raise RuntimeError(f"gen failed: {argv}: {err}")
        inputs.append((path, _line(prefix, argv, code, path.read_bytes(), err)))
        for k in SCALES:
            copy = path.with_name(f"{path.stem}_x2^{k}.csv")
            copy.write_text(_scaled_text(path.read_text(), k))
            inputs.append((copy, None))
    for name, text in MALFORMED.items():
        path = directory / f"{name}.csv"
        path.write_text(text)
        inputs.append((path, None))
    return inputs


def _run(argv: list[str]) -> tuple[str, str, str]:
    """Run cli.main on argv in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = str(cli.main(argv))
            except SystemExit as exc:
                code = str(exc.code)
            except Exception as exc:  # recorded, so the census can go on
                code = "raised"
                err.write(f"{type(exc).__name__}: {exc}\n")
    for w in caught:
        err.write(f"{w.category.__name__}: {w.message}\n")
    return code, out.getvalue(), err.getvalue()


def _line(prefix: str, argv: list[str], code: str, out: bytes, err: str) -> str:
    """A census line: argv and err with prefix stripped, the exit code, and
    the sha256 of out and of err."""
    err_bytes = err.replace(prefix, "").encode()
    digests = (hashlib.sha256(data).hexdigest() for data in (out, err_bytes))
    return "  ".join([" ".join(argv).replace(prefix, ""), code, *digests])


def census(only: list[str] | None = None) -> list[str]:
    """One line per run: argv, exit code, sha256 of stdout (or of the file
    gen wrote) and of stderr.

    only, if given, keeps the files whose name contains one of its strings.
    """
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        prefix = tmp + "/"
        for path, gen_line in write_inputs(Path(tmp)):
            if only and not any(part in path.name for part in only):
                continue
            if gen_line is not None:
                lines.append(gen_line)
            for command in COMMANDS:
                argv = [command[0], "--input", str(path), *command[1:]]
                code, out, err = _run(argv)
                lines.append(_line(prefix, argv, code, out.replace(prefix, "").encode(), err))
    return lines


if __name__ == "__main__":
    print("\n".join(census(sys.argv[1:])))
