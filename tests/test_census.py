import importlib.util
import tempfile
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "census.py"
_spec = importlib.util.spec_from_file_location("census", _TOOL)
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)

FILES = ["gen_d3_a1e3_s0.1.csv", "gen_d2_a0_s0_x2^500.csv", "coincident.csv", "bad_token.csv"]


def test_two_runs_print_the_same_lines():
    # Each run writes its files into a new temporary directory; with that
    # directory stripped, the lines must match byte for byte.
    first = census.census(FILES)
    assert first == census.census(FILES)
    assert len(first) == len(FILES) * len(census.COMMANDS)
    assert not any(tempfile.gettempdir() in line for line in first)
    codes = {}
    for line in first:
        argv, code, out_sha, err_sha = line.split("  ")
        assert len(out_sha) == len(err_sha) == 64
        codes.setdefault(argv.split()[2], set()).add(code)
    assert codes == {
        "gen_d3_a1e3_s0.1.csv": {"0"},
        "gen_d2_a0_s0_x2^500.csv": {"0"},
        "coincident.csv": {"2"},
        "bad_token.csv": {"3"},
    }
