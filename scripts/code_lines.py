#!/usr/bin/env python3
"""Count the lines of the package source: every physical line of the
`.py` files under `src/`, and the code lines among them.

A code line holds at least one token that is not a comment and not part
of a docstring; blank lines, comment lines and the lines of module,
class and function docstrings (found with `ast`) are not code lines.

    python3 scripts/code_lines.py            # src/ next to this script
    python3 scripts/code_lines.py path/to/src

Prints one line per file, then the totals.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers the docstrings of ``tree`` span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """Physical lines and code lines of one file's source."""
    skip = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1)
                        if n not in skip)
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else \
        Path(__file__).resolve().parent.parent / "src"
    total_lines = total_code = 0
    for path in sorted(root.rglob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_code += code
        print(f"{lines:6d} {code:6d}  {path.relative_to(root)}")
    print(f"{total_lines:6d} {total_code:6d}  total (lines, code lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
