import importlib.util
from pathlib import Path

SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
)
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import math  # a comment on a code line


# a comment line
def f(x):
    """A function docstring."""
    "a string statement"
    text = """a string that is
    no docstring"""
    return math.sqrt(x) + len(text)
'''


def test_docstrings_comments_and_blank_lines_are_not_code():
    # import, def, the two lines of the assigned string, return
    assert code_lines.code_lines(SOURCE) == 5


def test_total_row_sums_the_files(capsys):
    assert code_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    files, total = rows[:-1], rows[-1]
    assert total[0] == "total"
    assert [int(total[1]), int(total[2])] == [sum(int(row[1]) for row in files), sum(int(row[2]) for row in files)]
    assert {row[0] for row in files} >= {"cli.py", "dynamics.py", "montecarlo.py"}
