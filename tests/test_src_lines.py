"""tools/src_lines.py counts code lines without blank lines, comments and docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line


class C:
    """Class docstring."""

    # a comment line
    def f(self):
        """Function docstring,

        over three lines."""
        text = """a string that is
        not a docstring"""
        return (text,
                os.sep)
'''


def test_code_lines_leave_out_blank_lines_comments_and_docstrings():
    # Code: the import, `class C:`, `def f`, the two lines of the assigned
    # string, and the two lines of the return.
    assert src_lines.counts(SOURCE) == (len(SOURCE.splitlines()), 7)


def test_counts_every_module_of_the_package():
    assert src_lines.main([]) == 0
