import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

FIXTURE = '''"""A module docstring
over two lines."""

import math  # a comment after code counts


class Point:
    """A class docstring."""

    # a comment line does not count
    def norm(self, x, y):
        """A function docstring."""
        return math.hypot(
            x,
            y,
        )


TEXT = """a string that is not a docstring
counts on every line"""
'''


def test_counts_tokens_outside_comments_blanks_and_docstrings():
    # import, class, def, the four lines of the call and the two lines of TEXT
    assert code_lines.code_lines(FIXTURE) == 9


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["9", "1", "10"]
    assert out[-1].split()[1] == "total"
