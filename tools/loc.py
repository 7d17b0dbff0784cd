"""Count the lines of the package source: in total, and code only.

    python3 tools/loc.py [DIR]

DIR defaults to ``src/``.  A code-only line holds at least one token that is
not a comment and not part of a docstring (the leading string of a module,
class or function); blank lines do not count.  Prints one line per count.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of lines of ``text`` that hold code."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src"
    texts = [path.read_text(encoding="utf-8") for path in sorted(root.rglob("*.py"))]
    print(f"total: {sum(len(text.splitlines()) for text in texts)}")
    print(f"code-only: {sum(code_lines(text) for text in texts)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
