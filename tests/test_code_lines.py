import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "code_lines", ROOT / "scripts" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 10 code lines: the numbered ones.  Blank lines, comment-only lines and the
# three docstrings do not count; a string that is not a first statement,
# a multi-line expression and a line with a trailing comment do.
SNIPPET = '''"""Module docstring,
over two lines."""
import math  # 1

# a comment


class Shape:  # 2
    """Class docstring."""

    sides = (  # 3
        3,  # 4
    )  # 5

    def area(self):  # 6
        """Method
        docstring.
        """
        "a string statement, not a docstring"  # 7
        text = """a string
over two lines"""  # 8, 9
        return math.pi  # 10
'''


def test_counts_code_lines_of_a_snippet():
    assert code_lines.code_lines(SNIPPET) == 10


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# note\ny = 2\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split() for line in lines] == [
        ["10", str(tmp_path / "a.py")], ["2", str(tmp_path / "pkg" / "b.py")],
        ["12", "total"]]
