"""Count the code lines of Python modules: the size measure of the package's source.

    python3 tools/code_lines.py src

prints one ``<code lines>  <module>`` line per ``.py`` file under PATH (a
file or a directory, searched recursively), then the total.  A line counts
when it holds a token other than a comment, a newline or an indent, and is
not part of a module, class or function docstring.  So blank lines,
comment lines and docstrings do not count, and every line of a statement
that spans several lines does.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of the module ``source``."""
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/code_lines.py PATH", file=sys.stderr)
        return 2
    root = Path(argv[0])
    total = 0
    for path in [root] if root.is_file() else sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
