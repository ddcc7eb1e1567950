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
from itertools import chain, islice

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
    fit_lse_explicit,
    fit_tls_line,
    total_orthogonal_distance,
    vertical_residual_sq,
)
from .geometry import PointSet, _pow2_scaled, _rejection_sq, _unit, line_distances_sq
from .oracle import cubic_eigenvalues, grid_search_direction
from .scatter import ScatterSummary
from .solver import (
    finite_diff_gradient,
    quadratic_objective,
    stationarity_forms,
)

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

    The lines are read in blocks of _PARSE_BLOCK. Each block's kept lines
    are split into rows, checked against the dimension, and converted in
    one pass of Python's float() into a numpy array, so the accepted
    tokens and their values are exactly those of a per-token float().
    A block that fails any check is walked again line by line to raise
    the error, so every message and line number is the same as a
    line-by-line parser's.

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
        rows = [
            s.replace(",", " ").split() for s in stripped if s and not s.startswith("#")
        ]
        if rows:
            dim = dim or len(rows[0])
            blocks.append(_convert_block(rows, dim, stripped, first_lineno))
        first_lineno += len(block)
    n_rows = sum(len(b) for b in blocks)
    if n_rows == 0:
        raise ParseError("no points in input")
    if n_rows == 1:
        raise DegenerateInput("a single point does not determine a line")
    return PointSet(np.concatenate(blocks))


def _convert_block(
    rows: list[list[str]], width: int, stripped: list[str], first_lineno: int
) -> np.ndarray:
    """The rows as a (len(rows), width) array.

    When width is below 2, a row has another width, or a token is not a
    finite float, the block's stripped lines are walked instead, and the
    first error is raised with its line number in the whole input.
    """
    if width >= 2 and all(len(row) == width for row in rows):
        try:
            values = np.fromiter(
                map(float, chain.from_iterable(rows)), np.float64, len(rows) * width
            )
        except ValueError:
            pass
        else:
            if np.isfinite(values).all():
                return values.reshape(len(rows), width)
    for lineno, line in enumerate(stripped, start=first_lineno):
        if not line or line.startswith("#"):
            continue
        count = 0
        for token in line.replace(",", " ").split():
            try:
                value = float(token)
            except ValueError:
                raise ParseError(f"line {lineno}: {token!r} is not a number") from None
            if not math.isfinite(value):
                raise ParseError(f"line {lineno}: non-finite value {token!r}")
            count += 1
        if count != width:
            raise ParseError(f"line {lineno}: expected {width} coordinates, got {count}")
        if count < 2:
            raise ParseError(
                f"line {lineno}: points need at least 2 coordinates, got {count}"
            )
    raise AssertionError("a block failed conversion but every line parses")


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
    per_point = result.per_point_sq.tolist()
    if args.format == "json":
        if args.per_point:
            doc["per_point_sq"] = per_point
        lines = [json.dumps(doc, indent=2)]
    elif args.format == "csv":
        lines = [f"# {key}: {_machine(value)}" for key, value in doc.items()]
        lines.append("index,sq_distance")
        lines.extend(f"{i},{v!r}" for i, v in enumerate(per_point))
    else:
        rows = {"n_points": result.n_points, "dim": result.line.dim, **doc}
        width = max(len(key) for key in rows)
        lines = [f"{key.replace('_', '-'):<{width}}  {_human(v)}" for key, v in rows.items()]
        if args.per_point:
            lines += ["", "index  sq-distance"]
            lines.extend(f"{i:>5}  {v:.12g}" for i, v in enumerate(per_point))
    _write_output(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_gen(args) -> int:
    if args.n < 2:
        raise ParseError(f"--n must be at least 2, got {args.n}")
    if args.dim < 2:
        raise ParseError(f"--dim must be at least 2, got {args.dim}")
    if not (0.0 <= args.sigma < math.inf):
        raise ParseError(f"--sigma must be finite and nonnegative, got {args.sigma}")
    t_lo, t_hi = args.t_range
    # A finite span implies finite bounds; NaN fails the comparison.
    if not (t_lo < t_hi and math.isfinite(t_hi - t_lo)):
        raise ParseError(
            f"--t-range must be finite with MIN < MAX and a finite span, got {t_lo} {t_hi}"
        )

    rng = np.random.default_rng(args.seed)
    if args.direction is not None:
        raw = _parse_vector_flag(args.direction, "--direction", args.dim)
    else:
        raw = rng.standard_normal(args.dim)
        while not raw.any():
            raw = rng.standard_normal(args.dim)
    direction = _unit(raw, "--direction")

    if args.anchor is not None:
        anchor = _parse_vector_flag(args.anchor, "--anchor", args.dim)
    else:
        anchor = np.zeros(args.dim)

    t = rng.uniform(t_lo, t_hi, args.n)
    # Large flags can overflow; the check below reports it as NonFinite.
    with np.errstate(over="ignore", invalid="ignore"):
        if args.noise == "uniform":
            noise = rng.uniform(-1.0, 1.0, (args.n, args.dim)) * args.sigma
        else:
            noise = rng.standard_normal((args.n, args.dim)) * args.sigma
        points = anchor + t[:, None] * direction + noise
    if not np.isfinite(points).all():
        raise NonFinite("generated coordinates overflow; reduce --anchor, --t-range or --sigma")

    lines = [
        f"# generated cloud: n={args.n} dim={args.dim} seed={args.seed}"
        f" sigma={_repr_num(args.sigma)} noise={args.noise}",
        f"# direction: {_repr_vec(direction)}",
        f"# anchor: {_repr_vec(anchor)}",
        f"# t-range: {_repr_num(t_lo)},{_repr_num(t_hi)}",
    ]
    lines.extend(",".join(map(repr, row)) for row in points.tolist())
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
    lse_line = None
    ratio = None
    try:
        lse = fit_lse_explicit(points, args.dependent_col)
    except OrthofitError as exc:
        doc["lse"] = {"error": str(exc)}
    else:
        lse_line = lse.line
        lse_orth = total_orthogonal_distance(points, lse_line)
        # The orthogonal fit minimizes exactly this quantity, so any other
        # line scoring better means the fitter is broken, not the data.
        if lse_orth - tls.total_sq_distance < -1e-9 * tls.moments.total_sq_norm:
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
        text = _compare_csv(points, tls, lse_line)
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


def _compare_csv(points, tls, lse_line) -> str:
    lines = [
        f"# tls_direction: {_repr_vec(tls.line.direction)}",
    ]
    if lse_line is not None:
        lines.append(f"# lse_direction: {_repr_vec(lse_line.direction)}")
        lines.append("index,tls_sq,lse_sq")
        lse_per = line_distances_sq(points, lse_line).tolist()
        lines.extend(
            f"{i},{a!r},{b!r}"
            for i, (a, b) in enumerate(zip(tls.per_point_sq.tolist(), lse_per))
        )
    else:
        lines.append("index,tls_sq")
        lines.extend(f"{i},{a!r}" for i, a in enumerate(tls.per_point_sq.tolist()))
    return "\n".join(lines) + "\n"


def cmd_check(args) -> int:
    """Run the built-in diagnostics against an input cloud.

    Each line of the report is 'PASS name measured=... tol=...', or FAIL
    in the same shape, or 'SKIP name (reason)' for checks that do not apply
    to the input's dimension. Exit code is 1 when anything failed.
    """
    if not (0.0 < args.resolution_deg <= 10.0):
        raise ParseError(f"--resolution-deg must be in (0, 10], got {args.resolution_deg}")
    points = _read_points(args.input)
    result = fit_tls_line(points)
    moments = result.moments
    direction = result.line.direction
    cloud_scale = moments.total_sq_norm
    rng = np.random.default_rng(args.seed)
    # The diagnostics read one copy of the moments, scaled by the power of
    # two that brings the scatter's largest entry into [0.5, 1) (the
    # solver's rule), so none of their products or norms can overflow or
    # underflow at any cloud scale; measured values are scaled back.
    scatter, exp = _pow2_scaled(moments.scatter)
    scaled = ScatterSummary(math.ldexp(cloud_scale, -exp), scatter, moments.n_points)

    report: list[tuple[str, str, str]] = []

    measured = result.eigen.stationarity_residual
    tol = 1e-8 * cloud_scale
    report.append(_verdict("stationarity-residual", measured, tol))

    gradient = finite_diff_gradient(scaled, direction)
    measured = math.ldexp(float(np.linalg.norm(gradient)), exp)
    tol = 1e-6 * cloud_scale
    report.append(_verdict("gradient-norm", measured, tol))

    # Each probe's gap between the two forms is measured against the bound
    # xi |s|^3 that |C|, |O| <= xi put on both, not against the forms
    # themselves, which vanish near an eigenvector.
    probes = rng.standard_normal((50, points.dim))
    forms = np.stack(stationarity_forms(scaled, probes))
    bound = scaled.total_sq_norm * np.linalg.norm(probes, axis=1) ** 3
    worst = float(np.max(np.linalg.norm(forms[0] - forms[1], axis=1) / bound))
    report.append(_verdict("stationarity-forms", worst, 1e-9))

    routes = [
        result.total_sq_distance,
        math.ldexp(quadratic_objective(scaled, direction), exp),
        moments.total_sq_norm - result.eigen.rayleigh,
    ]
    measured = max(abs(a - b) for a in routes for b in routes)
    tol = 1e-9 * cloud_scale
    report.append(_verdict("objective-consistency", measured, tol))

    if points.dim <= 3:
        grid = grid_search_direction(points, args.resolution_deg)
        gap = grid.best_sq_distance - result.total_sq_distance
        res_rad = math.radians(args.resolution_deg)
        quantization = (
            float(result.eigen.spectrum[0] - result.eigen.spectrum[-1])
            * math.sin(res_rad) ** 2
        )
        tol = max(1e-4 * result.total_sq_distance, quantization, 1e-12 * cloud_scale)
        if gap < -1e-12 * cloud_scale:
            report.append(("FAIL", "grid-agreement", _measured_tol(gap, tol)))
        else:
            report.append(_verdict("grid-agreement", gap, tol))
        if result.eigen.ambiguous:
            report.append(
                ("SKIP", "grid-direction", "(dominant direction is ambiguous)")
            )
        else:
            rejection_sq = _rejection_sq(direction[None], grid.best_direction)[0]
            dot = abs(float(direction @ grid.best_direction))
            angle_deg = math.degrees(math.atan2(math.sqrt(rejection_sq), dot))
            tol_deg = max(0.5, 2.0 * args.resolution_deg)
            report.append(_verdict("grid-direction", angle_deg, tol_deg))
    else:
        reason = f"(grid oracle covers dim <= 3, input is {points.dim})"
        report.append(("SKIP", "grid-agreement", reason))
        report.append(("SKIP", "grid-direction", reason))

    if points.dim == 3:
        closed_form = cubic_eigenvalues(moments.scatter)
        measured = float(np.max(np.abs(result.eigen.spectrum - closed_form)))
        tol = 1e-8 * cloud_scale
        report.append(_verdict("spectrum-cubic", measured, tol))
    else:
        report.append(
            ("SKIP", "spectrum-cubic", f"(closed form covers dim 3, input is {points.dim})")
        )

    lines = [f"{status} {name}  {detail}" for status, name, detail in report]
    failed = sum(1 for status, _, _ in report if status == "FAIL")
    lines.append(f"checks: {len(report)}  failed: {failed}")
    _write_output(args.output, "\n".join(lines) + "\n")
    return 1 if failed else 0


def _measured_tol(measured: float, tol: float) -> str:
    return f"measured={measured:.6g} tol={tol:.6g}"


def _verdict(name: str, measured: float, tol: float) -> tuple[str, str, str]:
    status = "PASS" if measured <= tol else "FAIL"
    return status, name, _measured_tol(measured, tol)


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
    p_gen.add_argument(
        "--t-range",
        type=float,
        nargs=2,
        default=(-1.0, 1.0),
        metavar=("MIN", "MAX"),
        help="parameter range along the line (default -1 1)",
    )
    p_gen.add_argument(
        "--noise",
        choices=("gaussian", "uniform"),
        default="gaussian",
        help="noise model (default gaussian)",
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
    p_chk.add_argument("--seed", type=int, default=0, help="seed for probe directions")
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
