import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parents[1] / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

_SAMPLE = '''"""Module docstring,
two lines."""

import os  # a trailing comment leaves the line code


class Box:
    """Class docstring."""

    # a comment line
    def size(self, a,
             b):
        """Function
        docstring."""
        total = (a +
                 b)
        text = """a string that is
not a docstring"""
        return total, text
'''


def test_code_lines_counts_tokens_outside_docstrings(tmp_path, capsys):
    # import, class, def (2 lines), total (2 lines), text (2 lines), return
    assert code_lines.code_lines(_SAMPLE) == 9
    (tmp_path / "a.py").write_text(_SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [row[:2] for row in rows] == [["9", "19"], ["1", "2"], ["10", "21"]]
    assert rows[-1][2] == "total"
