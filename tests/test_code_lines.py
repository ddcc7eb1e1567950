import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Code lines are marked "# code"; everything else is a docstring, a
# comment or a blank line.
SNIPPET = '''"""Module docstring,
over two lines."""

import math  # code


class Shape:  # code
    """Class docstring."""

    sides = 0  # code

    def area(self):  # code
        """Method docstring,

        with a blank line inside it.
        """
        # A comment line.
        text = """not a
docstring"""  # code (both lines of this string)
        return (  # code
            math.pi  # code
        )  # code


async def wait():  # code
    """Async docstring."""
    return None  # code
'''


def test_counts_code_lines_of_a_snippet():
    assert code_lines.code_lines(SNIPPET) == 11


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# comment\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "    11  a.py",
        "     1  b.py",
        "    12  total",
    ]
