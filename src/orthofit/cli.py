"""Command-line interface.

Four subcommands:

* fit      read a point cloud, fit the orthogonal-distance line, print it
* gen      generate a synthetic cloud along a known line, write it as CSV
* compare  fit both the orthogonal line and the classical explicit form
* check    run the self-diagnostics (oracles and invariants) on an input

All output is deterministic: the same invocation on the same input produces
byte-identical bytes. Exit codes: 0 success, 1 a check reported FAIL or
an invariant of the fit was violated, 2 degenerate input, a non-finite
intermediate result or a rank-deficient explicit fit, 3 unreadable input
or a request too large to allocate, 4 solver non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import sys
from itertools import islice

import numpy as np

from .errors import (
    DegenerateInput,
    DimensionMismatch,
    InvariantViolation,
    NoConvergence,
    NonFinite,
    OrthofitError,
    ParseError,
)
from .fit import (
    _dependent_index,
    check_fit,
    fit_lse_explicit,
    fit_tls_line,
    vertical_residual_sq,
)
from .geometry import ROUNDING_C, PointSet, _unit, line_distances_sq

# Lines converted per block by parse_points_text: big enough that numpy's
# per-call cost vanishes, small enough that only one block's tokens are
# held as Python strings at a time.
_PARSE_BLOCK = 8192


def _repr_num(x: float) -> str:
    """Machine format: shortest representation that round-trips."""
    return repr(float(x))


def _repr_vec(v) -> str:
    return ",".join(_repr_num(c) for c in v)


def parse_points_text(lines) -> PointSet:
    """Parse point-cloud text: one point per line, commas or whitespace.

    Blank lines and lines starting with '#' are skipped. The dimension is
    set by the first data row; every later row must match it.

    The lines are read in blocks of _PARSE_BLOCK, and each block's kept
    lines are converted by one C-level call (see _convert_block). Every
    token is read with Python's own float() grammar, so the accepted tokens
    and their values are exactly those of a per-token float(). A block the
    C-level call does not take is walked line by line instead, so every
    message and line number is the same as a line-by-line parser's.

    Raises:
        ParseError: empty input, a bad token, a non-finite value, or a
            column-count mismatch, always with the offending line number.
        DegenerateInput: a single data row.
    """
    source = iter(lines)
    blocks: list[np.ndarray] = []
    dim: int | None = None
    first_lineno = 1
    while block := list(islice(source, _PARSE_BLOCK)):
        stripped = [raw.strip() for raw in block]
        kept = [s.replace(",", " ") for s in stripped if s and not s.startswith("#")]
        if kept:
            dim = dim or len(kept[0].split())
            blocks.append(_convert_block(kept, dim, stripped, first_lineno))
        first_lineno += len(block)
    n_rows = sum(len(b) for b in blocks)
    if n_rows == 0:
        raise ParseError("no points in input")
    if n_rows == 1:
        raise DegenerateInput("a single point does not determine a line")
    return PointSet(np.concatenate(blocks))


def _loadtxt_rows(kept: list[str]) -> np.ndarray:
    """numpy's C tokenizer and float parser. It splits on the same
    whitespace as str.split and accepts a subset of float()'s tokens with
    the same values, but it drops whitespace-only lines and rejects
    Unicode digits and underscores, which float() reads."""
    return np.loadtxt(kept, comments=None, ndmin=2)


def _convert_block(
    kept: list[str], width: int, stripped: list[str], first_lineno: int
) -> np.ndarray:
    """The kept lines, commas already spaces, as a (len(kept), width) array.

    _loadtxt_rows converts the block when width is at least 2 and no kept
    line is blank, and its result is taken only when its shape is exactly
    (len(kept), width) and every value is finite. A blank kept line is
    always an error, but loadtxt would drop it, and a line loadtxt splits
    in two could make up the count. Any other block is walked line by line
    with float() per token: the first error is raised with its line number
    in the whole input, and a block without one is returned as walked.
    """
    if width >= 2 and True not in map(str.isspace, kept):
        try:
            values = _loadtxt_rows(kept)
        except ValueError:
            pass
        else:
            if values.shape == (len(kept), width) and np.isfinite(values).all():
                return values
    rows = []
    for lineno, line in enumerate(stripped, start=first_lineno):
        if not line or line.startswith("#"):
            continue
        row = []
        for token in line.replace(",", " ").split():
            try:
                value = float(token)
            except ValueError:
                raise ParseError(f"line {lineno}: {token!r} is not a number") from None
            if not math.isfinite(value):
                raise ParseError(f"line {lineno}: non-finite value {token!r}")
            row.append(value)
        if len(row) != width:
            raise ParseError(f"line {lineno}: expected {width} coordinates, got {len(row)}")
        if width < 2:
            raise ParseError(
                f"line {lineno}: points need at least 2 coordinates, got {width}"
            )
        rows.append(row)
    return np.array(rows, dtype=np.float64)


def _read_points(path: str) -> PointSet:
    """Parse the points of a file, or of stdin for "-", decoded as UTF-8.

    A byte that is not UTF-8 decodes to a lone surrogate (surrogateescape),
    so it fails parsing as a bad token with its line number, or is skipped
    with the comment it sits in, instead of failing the decode. A stdin
    already replaced by a text stream (no byte layer) is read as it is.
    """
    if path == "-":
        if isinstance(sys.stdin, io.TextIOWrapper):
            sys.stdin.reconfigure(encoding="utf-8", errors="surrogateescape")
        return parse_points_text(sys.stdin)
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return parse_points_text(fh)


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _parse_vector_flag(text: str, name: str, dim: int) -> np.ndarray:
    try:
        values = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise ParseError(f"{name}: could not parse {text!r} as numbers") from None
    if not values or not all(math.isfinite(v) for v in values):
        raise ParseError(f"{name}: expected finite numbers, got {text!r}")
    if len(values) != dim:
        raise ParseError(f"{name} has {len(values)} components, --dim is {dim}")
    return np.array(values, dtype=np.float64)


def _fit_document(result) -> dict:
    """The fields every fit report carries, in report order.

    fit's json output is this document, fit's table and csv outputs render
    it, and compare's json and table outputs embed it.
    """
    return {
        "anchor": [float(c) for c in result.line.anchor],
        "direction": [float(c) for c in result.line.direction],
        "total_sq_distance": float(result.total_sq_distance),
        "spectrum": [float(v) for v in result.eigen.spectrum],
        "ambiguous": bool(result.eigen.ambiguous),
    }


def _human(value) -> str:
    """Table form of a document value; a float gets 12 significant digits."""
    if value is None:
        return "undefined"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (int, str)):
        return str(value)
    if isinstance(value, list):
        return " ".join(map(_human, value))
    return format(value, ".12g")


def _machine(value) -> str:
    """Csv header form of a document value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return _repr_vec(value)
    return _repr_num(value)


def cmd_fit(args) -> int:
    result = fit_tls_line(_read_points(args.input))
    doc = _fit_document(result)
    if args.format == "json":
        text = json.dumps(doc, indent=2)
        if args.per_point:
            # json.dumps(indent=2) of doc plus per_point_sq, spliced. Safe: each value
            # is at most moments.total_sq_norm, which accumulate_scatter checks is
            # finite, so repr never writes the inf that json would write as Infinity.
            values = ",\n    ".join(map(float.__repr__, result.per_point_sq.tolist()))
            text = f'{text[:-2]},\n  "per_point_sq": [\n    {values}\n  ]\n}}'
        lines = [text]
    elif args.format == "csv":
        lines = [f"# {key}: {_machine(value)}" for key, value in doc.items()]
        lines.append("index,sq_distance")
        lines.extend(f"{i},{v!r}" for i, v in enumerate(result.per_point_sq.tolist()))
    else:
        rows = {"n_points": result.n_points, "dim": result.line.dim, **doc}
        width = max(len(key) for key in rows)
        lines = [f"{key.replace('_', '-'):<{width}}  {_human(v)}" for key, v in rows.items()]
        if args.per_point:
            lines += ["", "index  sq-distance"]
            lines.extend(
                f"{i:>5}  {v:.12g}" for i, v in enumerate(result.per_point_sq.tolist())
            )
    _write_output(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_gen(args) -> int:
    if args.n < 2:
        raise ParseError(f"--n must be at least 2, got {args.n}")
    if args.dim < 2:
        raise ParseError(f"--dim must be at least 2, got {args.dim}")
    if not (0.0 <= args.sigma < math.inf):
        raise ParseError(f"--sigma must be finite and nonnegative, got {args.sigma}")
    if args.seed < 0:
        raise ParseError(f"--seed must be nonnegative, got {args.seed}")

    rng = np.random.default_rng(args.seed)
    if args.direction is not None:
        raw = _parse_vector_flag(args.direction, "--direction", args.dim)
    else:
        raw = rng.standard_normal(args.dim)
    direction = _unit(raw, "--direction")

    if args.anchor is not None:
        anchor = _parse_vector_flag(args.anchor, "--anchor", args.dim)
    else:
        anchor = np.zeros(args.dim)

    t = rng.uniform(-1.0, 1.0, args.n)
    # Large flags can overflow; the check below reports it as NonFinite.
    with np.errstate(over="ignore", invalid="ignore"):
        noise = rng.standard_normal((args.n, args.dim)) * args.sigma
        points = anchor + t[:, None] * direction + noise
    if not np.isfinite(points).all():
        raise NonFinite("generated coordinates overflow; reduce --anchor or --sigma")

    lines = [
        f"# generated cloud: n={args.n} dim={args.dim} seed={args.seed}"
        f" sigma={_repr_num(args.sigma)} noise=gaussian",
        f"# direction: {_repr_vec(direction)}",
        f"# anchor: {_repr_vec(anchor)}",
        "# t-range: -1.0,1.0",
    ]
    # One flat repr pass; zip over dim references to one iterator cuts it into rows.
    tokens = map(float.__repr__, points.ravel().tolist())
    lines.extend(map(",".join, zip(*[tokens] * args.dim)))
    _write_output(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_compare(args) -> int:
    points = _read_points(args.input)
    try:
        _dependent_index(points.dim, args.dependent_col)
    except DimensionMismatch as exc:
        raise ParseError(str(exc)) from None
    tls = fit_tls_line(points)
    tls_vertical = vertical_residual_sq(points, tls.line, args.dependent_col)
    doc: dict = {"tls": {**_fit_document(tls), "vertical_residual_sq": tls_vertical}}
    lse_line = lse_sq = None
    ratio = None
    try:
        lse = fit_lse_explicit(points, args.dependent_col)
    except OrthofitError as exc:
        doc["lse"] = {"error": str(exc)}
    else:
        lse_line = lse.line
        # One pass of the per-point distances serves the total here and the
        # csv's lse_sq column; the total is total_orthogonal_distance's sum.
        lse_sq = line_distances_sq(points, lse_line)
        lse_orth = float(np.sum(lse_sq))
        # The orthogonal fit minimizes exactly this quantity, so any other
        # line scoring better means the fitter is broken, not the data. In
        # exact arithmetic the explicit line cannot: an anchor moved off the
        # centroid by delta adds n |delta_perp|^2 to a line's total (the
        # centered cloud sums to zero), so the anchor's rounding can only
        # raise it. Only the two totals' own rounding can put it below. Both
        # sum squared rejections of differences, x - anchor here and the
        # centered cloud in the fit, and a difference of floats rounds
        # relative to its own size, not to the offset (it is exact where x
        # and the anchor are within a factor two). Those sizes are the
        # spread and |delta|, an ulp of the offset, whose n |delta|^2 is
        # (eps offset / spread)^2 of xi: nothing until the spread nears the
        # coordinates' own ulp. So each total rounds as at the origin,
        # within c eps xi (Invariance's total bound at offset 0).
        slack = ROUNDING_C * math.ulp(1.0) * tls.moments.total_sq_norm
        if lse_orth - tls.total_sq_distance < -slack:
            raise InvariantViolation(
                f"explicit-fit line scored {lse_orth!r}, below the orthogonal "
                f"minimum {tls.total_sq_distance!r}"
            )
        doc["lse"] = {
            "coefficients": [float(c) for c in lse.coefficients],
            "offset": float(lse.offset),
            "dependent_col": int(lse.dependent_col),
            "vertical_residual_sq": float(lse.residual_sq),
            "anchor": [float(c) for c in lse_line.anchor],
            "direction": [float(c) for c in lse_line.direction],
            "orthogonal_sq_distance": float(lse_orth),
        }
        if tls.total_sq_distance > 0.0:
            ratio = lse_orth / tls.total_sq_distance
    doc["ratio_orthogonal"] = ratio

    if args.format == "json":
        text = json.dumps(doc, indent=2) + "\n"
    elif args.format == "csv":
        text = _compare_csv(tls, lse_line, lse_sq)
    else:
        text = _compare_table(doc)
    _write_output(args.output, text)
    return 2 if "error" in doc["lse"] else 0


# The compare table: a heading per section of the compare document, then
# one (label, field) row per field that the section holds.
_COMPARE_ROWS = (
    ("orthogonal (total least squares):", "tls", (
        ("anchor", "anchor"), ("direction", "direction"),
        ("orthogonal-sq", "total_sq_distance"), ("vertical-sq", "vertical_residual_sq"),
        ("ambiguous", "ambiguous"),
    )),
    ("explicit (vertical least squares):", "lse", (
        ("error", "error"), ("coefficients", "coefficients"), ("offset", "offset"),
        ("vertical-sq", "vertical_residual_sq"), ("line-anchor", "anchor"),
        ("line-direction", "direction"), ("orthogonal-sq", "orthogonal_sq_distance"),
    )),
)


def _compare_table(doc: dict) -> str:
    lines = []
    for heading, section, rows in _COMPARE_ROWS:
        lines.append(heading)
        lines.extend(
            f"  {label:<18}{_human(doc[section][field])}"
            for label, field in rows
            if field in doc[section]
        )
    lines.append(f"ratio explicit/orthogonal  {_human(doc['ratio_orthogonal'])}")
    return "\n".join(lines) + "\n"


def _compare_csv(tls, lse_line, lse_sq) -> str:
    lines = [
        f"# tls_direction: {_repr_vec(tls.line.direction)}",
    ]
    if lse_line is not None:
        lines.append(f"# lse_direction: {_repr_vec(lse_line.direction)}")
        lines.append("index,tls_sq,lse_sq")
        lines.extend(
            f"{i},{a!r},{b!r}"
            for i, (a, b) in enumerate(zip(tls.per_point_sq.tolist(), lse_sq.tolist()))
        )
    else:
        lines.append("index,tls_sq")
        lines.extend(f"{i},{a!r}" for i, a in enumerate(tls.per_point_sq.tolist()))
    return "\n".join(lines) + "\n"


def cmd_check(args) -> int:
    """Run the built-in diagnostics (fit.check_fit) against an input cloud.

    Each line of the report is 'PASS name measured=... tol=...', or FAIL
    in the same shape, or 'SKIP name (reason)' for checks that do not apply
    to the input. Exit code is 1 when anything failed.
    """
    if not (0.0 < args.resolution_deg <= 10.0):
        raise ParseError(f"--resolution-deg must be in (0, 10], got {args.resolution_deg}")
    report = check_fit(_read_points(args.input), args.resolution_deg)
    lines = [
        f"{r.status} {r.name}  "
        + (f"({r.reason})" if r.reason else f"measured={r.measured:.6g} tol={r.tol:.6g}")
        for r in report
    ]
    failed = sum(r.status == "FAIL" for r in report)
    lines.append(f"checks: {len(report)}  failed: {failed}")
    _write_output(args.output, "\n".join(lines) + "\n")
    return 1 if failed else 0


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the input-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(3)


def _add_io_flags(sub, with_format: bool = True) -> None:
    sub.add_argument("--input", default="-", help="point file, or - for stdin")
    sub.add_argument("--output", default="-", help="output file, or - for stdout")
    if with_format:
        sub.add_argument(
            "--format",
            choices=("table", "json", "csv"),
            default="table",
            help="output style (default table)",
        )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it
    unchanged, so every main call can share it."""
    parser = _Parser(
        prog="orthofit",
        description="Fit lines to point clouds by minimizing orthogonal distances.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_fit = subparsers.add_parser("fit", help="fit a line to a point cloud")
    _add_io_flags(p_fit)
    p_fit.add_argument(
        "--per-point",
        action="store_true",
        help="include per-point squared distances in table/json output",
    )
    p_fit.set_defaults(func=cmd_fit)

    p_gen = subparsers.add_parser("gen", help="generate a synthetic cloud as CSV")
    p_gen.add_argument("--output", default="-", help="output file, or - for stdout")
    p_gen.add_argument("--n", type=int, default=100, help="number of points")
    p_gen.add_argument("--dim", type=int, default=3, help="dimension")
    p_gen.add_argument("--seed", type=int, default=0, help="random seed")
    p_gen.add_argument(
        "--sigma", type=float, default=0.1, help="noise scale (0 for exact collinear)"
    )
    p_gen.add_argument(
        "--direction",
        default=None,
        help="line direction, comma separated (default: random unit vector)",
    )
    p_gen.add_argument(
        "--anchor", default=None, help="line anchor, comma separated (default: origin)"
    )
    p_gen.set_defaults(func=cmd_gen)

    p_cmp = subparsers.add_parser(
        "compare", help="orthogonal fit vs. classical explicit fit"
    )
    _add_io_flags(p_cmp)
    p_cmp.add_argument(
        "--dependent-col",
        type=int,
        default=-1,
        help="dependent coordinate for the explicit fit (default: last)",
    )
    p_cmp.set_defaults(func=cmd_compare)

    p_chk = subparsers.add_parser("check", help="run self-diagnostics on an input")
    _add_io_flags(p_chk, with_format=False)
    p_chk.add_argument(
        "--resolution-deg",
        type=float,
        default=0.5,
        help="grid oracle resolution in degrees (default 0.5)",
    )
    p_chk.set_defaults(func=cmd_check)

    return parser


# Exit code of each error class, most specific first: the first class the
# error is an instance of gives the code.
_EXIT_CODES = (
    (ParseError, 3),
    (NoConvergence, 4),
    (InvariantViolation, 1),
    (OrthofitError, 2),
    (OSError, 3),
    (MemoryError, 3),
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OrthofitError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
