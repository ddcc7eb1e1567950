"""The block parser against a per-line reference parser.

The reference is the line-by-line parser the block parser replaced; every
accepted text must give the same bits and every rejected text the same
exception class and message, wherever the block boundaries fall.
"""

import math

import numpy as np
import pytest
from test_cli import run_cli

from orthofit import cli
from orthofit.errors import DegenerateInput, ParseError

BLOCK = cli._PARSE_BLOCK


def reference_parse(lines) -> np.ndarray:
    rows: list[list[float]] = []
    dim = None
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        values = []
        for token in stripped.replace(",", " ").split():
            try:
                value = float(token)
            except ValueError:
                raise ParseError(f"line {lineno}: {token!r} is not a number") from None
            if not math.isfinite(value):
                raise ParseError(f"line {lineno}: non-finite value {token!r}")
            values.append(value)
        if dim is None:
            if len(values) < 2:
                raise ParseError(
                    f"line {lineno}: points need at least 2 coordinates, got {len(values)}"
                )
            dim = len(values)
        elif len(values) != dim:
            raise ParseError(f"line {lineno}: expected {dim} coordinates, got {len(values)}")
        rows.append(values)
    if not rows:
        raise ParseError("no points in input")
    if len(rows) == 1:
        raise DegenerateInput("a single point does not determine a line")
    return np.array(rows, dtype=np.float64)


SEPARATORS = (",", ", ", " ,", "\t", " ", "  ", ",\t", "\t ")
SPECIAL = ("-0.0", "1e308", "1_0", "+.5", "7.", "-1E-300", "0", "5e-324")
FILLERS = ("", "   ", "\t", "# comment", "  # indented, 1, 2", "#")


def seeded_lines(seed: int, n_lines: int, dim: int, special=SPECIAL) -> list[str]:
    """Lines mixing every separator, blank and comment lines, CRLF and LF
    endings, edge whitespace and the special tokens."""
    rng = np.random.default_rng(seed)
    lines = []
    for _ in range(n_lines):
        if rng.random() < 0.1:
            body = FILLERS[rng.integers(len(FILLERS))]
        else:
            tokens = [
                special[rng.integers(len(special))]
                if rng.random() < 0.1
                else repr(float(rng.standard_normal() * 10.0 ** rng.integers(-5, 6)))
                for _ in range(dim)
            ]
            body = tokens[0]
            for token in tokens[1:]:
                body += SEPARATORS[rng.integers(len(SEPARATORS))] + token
            body = " " * int(rng.integers(3)) + body + "\t" * int(rng.integers(2))
        lines.append(body + ("\r\n" if rng.random() < 0.5 else "\n"))
    return lines


def assert_same_outcome(lines):
    try:
        expected = reference_parse(lines)
    except (ParseError, DegenerateInput) as exc:
        with pytest.raises(type(exc)) as got:
            cli.parse_points_text(lines)
        assert str(got.value) == str(exc)
        return str(exc)
    got = cli.parse_points_text(lines).points
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    return None


class TestAcceptedText:
    @pytest.mark.parametrize("seed", range(4))
    def test_multi_block_text_is_bit_identical(self, seed):
        dim = 2 + seed % 3
        lines = seeded_lines(seed, 2 * BLOCK + 3000, dim)
        assert assert_same_outcome(lines) is None
        assert len(cli.parse_points_text(lines)) > BLOCK

    def test_file_and_list_agree(self, tmp_path):
        lines = seeded_lines(11, BLOCK + 500, 3)
        path = tmp_path / "mixed.csv"
        path.write_text("".join(lines), newline="")
        with open(path, encoding="utf-8") as fh:
            from_file = cli.parse_points_text(fh).points
        assert from_file.tobytes() == reference_parse(lines).tobytes()

    def test_special_tokens_keep_their_bits(self):
        got = cli.parse_points_text(["-0.0,1e308", "1_0\t5e-324"]).points
        assert got.tobytes() == np.array([[-0.0, 1e308], [10.0, 5e-324]]).tobytes()

    def test_comment_only_blocks_are_skipped(self):
        lines = ["# c\n"] * BLOCK + ["", "1,2\n"] + ["\n"] * BLOCK + ["3,4\r\n"]
        assert assert_same_outcome(lines) is None

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_any_block_size_gives_the_same_result(self, monkeypatch, block):
        monkeypatch.setattr(cli, "_PARSE_BLOCK", block)
        for seed in range(20):
            lines = seeded_lines(100 + seed, 25, 2 + seed % 2)
            if seed % 4 == 0:
                lines[int(np.random.default_rng(seed).integers(25))] = "1,2,3,x\n"
            assert_same_outcome(lines)


def data_lines(n: int) -> list[str]:
    rng = np.random.default_rng(n)
    points = rng.standard_normal((n, 3))
    return [",".join(repr(float(v)) for v in row) + "\n" for row in points]


def with_error(kind: str, lineno: int, n_lines: int = 20_000) -> list[str]:
    """n_lines lines whose first error is of the given kind at lineno."""
    if kind in ("dim", "single", "empty"):
        lines = ["# nothing here\n" if i % 2 else "\n" for i in range(n_lines)]
        if kind != "empty":
            lines[lineno - 1] = "7\n" if kind == "dim" else "1,2,3\n"
        return lines
    lines = data_lines(n_lines)
    lines[lineno - 1] = {
        "token": "1.0,2.0,oops\n",
        "ragged": "1.0 2.0\n",
        "wide": "1,2,3,4\n",
        "nan": "1.0,nan,2.0\n",
        "inf": "-inf\t1\t2\n",
    }[kind]
    return lines


ERROR_LINES = (5, BLOCK + 1, 20_000)


class TestErrors:
    @pytest.mark.parametrize("lineno", ERROR_LINES)
    @pytest.mark.parametrize("kind", ["token", "ragged", "wide", "nan", "inf", "dim"])
    def test_parse_error_matches_reference(self, kind, lineno):
        message = assert_same_outcome(with_error(kind, lineno))
        assert message is not None and message.startswith(f"line {lineno}: ")

    @pytest.mark.parametrize("lineno", ERROR_LINES)
    def test_single_row(self, lineno):
        message = assert_same_outcome(with_error("single", lineno))
        assert message == "a single point does not determine a line"

    @pytest.mark.parametrize("n_lines", [0, 5, BLOCK + 1, 20_000])
    def test_empty_input(self, n_lines):
        assert assert_same_outcome(with_error("empty", 1, n_lines)) == "no points in input"

    def test_first_error_wins_across_blocks(self):
        lines = with_error("ragged", 20_000)
        lines[BLOCK] = "x,1,2\n"
        lines[BLOCK + 5] = "1,2\n"
        assert assert_same_outcome(lines) == f"line {BLOCK + 1}: 'x' is not a number"

    def test_bad_token_before_short_first_row(self):
        # The first data row's tokens are checked before its width.
        lines = ["\n", "#\n", "z\n", "1,2\n"]
        assert assert_same_outcome(lines) == "line 3: 'z' is not a number"


class TestStdin:
    def test_stdin_across_a_block_boundary(self, tmp_path):
        # Without 1e308, whose square overflows the fit itself.
        lines = seeded_lines(7, BLOCK + 100, 3, [t for t in SPECIAL if t != "1e308"])
        text = "".join(lines)
        path = tmp_path / "cloud.csv"
        path.write_text(text, newline="")
        piped = run_cli("fit", "--format", "csv", stdin_text=text)
        from_file = run_cli("fit", "--format", "csv", "--input", str(path))
        assert piped.returncode == 0, piped.stderr
        assert piped.stdout == from_file.stdout

    def test_stdin_error_in_second_block(self):
        lines = with_error("ragged", BLOCK + 1, BLOCK + 10)
        proc = run_cli("fit", stdin_text="".join(lines))
        assert proc.returncode == 3
        assert proc.stderr == f"error: line {BLOCK + 1}: expected 3 coordinates, got 2\n"
