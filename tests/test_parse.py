"""The block parser against a per-line reference parser.

The reference is the line-by-line parser the block parser replaced; every
accepted text must give the same bits and every rejected text the same
exception class and message, wherever the block boundaries fall.
"""

import math
import os
import subprocess
import sys
import warnings

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


# Text numpy.loadtxt, the parser's first conversion tier, reads otherwise
# than the reference: each case as a row of a 3-d cloud.
LOADTXT_CASES = {
    # loadtxt drops a whitespace-only line; the reference counts 0 coordinates.
    "separators_only": ",,,",
    "trailing_comment": "1,2,3 # note",
    "glued_comment": "1,2,3#note",
    "trailing_separator": "1,2,3,",
    "nbsp": "1\xa02\xa03",
    "en_quad": "1\u20002\u20003",
    "form_feed": "1\x0c2\x0c3",
    "file_separator": "1\x1c2\x1c3",
    # Valid input that loadtxt rejects; float() reads it.
    "arabic_digits": "\u0661\u0662,3,4",
    "underscore": "1_0,2,3",
}


class TestConversionTiers:
    """Each case alone, and inside a block of ordinary rows on either side
    of a block boundary, gives the reference's outcome."""

    @pytest.mark.parametrize("lineno", [5, BLOCK, BLOCK + 1])
    @pytest.mark.parametrize("case", LOADTXT_CASES)
    def test_inside_a_block(self, case, lineno):
        lines = data_lines(BLOCK + 50)
        lines[lineno - 1] = LOADTXT_CASES[case] + "\n"
        assert_same_outcome(lines)

    def test_each_case_alone(self):
        outcomes = {
            case: assert_same_outcome(["1,2,3\n", text + "\n", "4,5,6\n"])
            for case, text in LOADTXT_CASES.items()
        }
        assert outcomes == {
            "separators_only": "line 2: expected 3 coordinates, got 0",
            "trailing_comment": "line 2: '#' is not a number",
            "glued_comment": "line 2: '3#note' is not a number",
            "trailing_separator": None,
            "nbsp": None,
            "en_quad": None,
            "form_feed": None,
            "file_separator": None,
            "arabic_digits": None,
            "underscore": None,
        }

    @pytest.mark.parametrize("case", ["arabic_digits", "underscore"])
    def test_walk_reads_what_loadtxt_rejects(self, case):
        kept = [LOADTXT_CASES[case].replace(",", " "), "4 5 6"]
        with pytest.raises(ValueError):
            cli._loadtxt_rows(kept)
        assert cli._convert_block(kept, 3, kept, 1).tolist() == [
            [float(t) for t in line.split()] for line in kept
        ]

    def test_split_line_cannot_make_up_a_dropped_line(self, monkeypatch):
        # loadtxt drops the ',' row, and a tokenizer that ended a row at the
        # '\r' would read line 2 as two rows: the count would still match.
        lines = ["1,2\n", "3,4\r5,6\n", ",\n"]
        message = "line 2: expected 2 coordinates, got 4"
        assert assert_same_outcome(lines) == message
        proc = run_cli("fit", stdin_text="".join(lines))
        assert (proc.returncode, proc.stderr) == (3, f"error: {message}\n")
        loadtxt = cli._loadtxt_rows
        monkeypatch.setattr(
            cli,
            "_loadtxt_rows",
            lambda kept: loadtxt([row for line in kept for row in line.split("\r")]),
        )
        assert assert_same_outcome(lines) == message

    def test_separator_only_block_warns_nothing(self, monkeypatch):
        monkeypatch.setattr(cli, "_PARSE_BLOCK", 2)
        lines = ["1,2\n", "3,4\n", ",,\n", " , \n"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert assert_same_outcome(lines) == "line 3: expected 2 coordinates, got 0"
        assert caught == []


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


class TestNonUtf8:
    """A byte that is not UTF-8 is a bad token, or part of a skipped
    comment; it never ends the run in a decode traceback."""

    BAD_TOKEN = b"1,2\n3,4\xe9\n5,7\n"

    @pytest.mark.parametrize("command", ["fit", "compare", "check"])
    def test_file(self, tmp_path, capsys, command):
        path = tmp_path / "bad.csv"
        path.write_bytes(self.BAD_TOKEN)
        assert cli.main([command, "--input", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: line 2: ")
        assert "Traceback" not in err

    def test_stdin(self):
        proc = subprocess.run(
            [sys.executable, "-m", "orthofit", "fit"],
            input=self.BAD_TOKEN,
            capture_output=True,
            env={**os.environ, "PYTHONIOENCODING": "utf-8"},
        )
        assert proc.returncode == 3
        assert proc.stderr.startswith(b"error: line 2: ")
        assert b"Traceback" not in proc.stderr

    def test_byte_in_comment_is_skipped(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"# caf\xe9\n1,2\n3,4\n5,7\n")
        assert cli.main(["fit", "--input", str(path)]) == 0
        assert capsys.readouterr().err == ""
