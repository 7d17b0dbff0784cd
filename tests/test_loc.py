"""``tools/loc.py``, the line count that measures the package's size."""

from __future__ import annotations

import importlib.util
from pathlib import Path

_REPO = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("loc", _REPO / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

# code lines: the import, the class and def lines, both lines of the string
# that is not a docstring and both lines of the continued return: 7 of 18
SNIPPET = '''"""Module docstring,
over two lines."""

import os  # a comment after code


# a comment line
class Box:
    """Class docstring."""

    def size(self):
        """Function
        docstring."""
        text = """not a
docstring"""
        return (len(text) +
                len(os.sep))
    # a trailing comment
'''


def test_code_lines_skip_docstrings_comments_and_blanks():
    assert len(SNIPPET.splitlines()) == 18
    assert loc.code_lines(SNIPPET) == 7


def test_main_prints_both_counts(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "box.py").write_text(SNIPPET, encoding="utf-8")
    (tmp_path / "one.py").write_text("x = 1\n\n", encoding="utf-8")
    assert loc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "total: 20\ncode-only: 8\n"
