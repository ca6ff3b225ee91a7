#!/usr/bin/env python3
"""List the function-body statements of `src/promptmt` that the test suite
never runs.

Runs the test suite in this process under a `sys.settrace` line tracer
that traces only frames whose code lives in `src/promptmt`, then prints
each statement inside a function body (methods and nested functions
included) that no traced line event reached, as `file:line  function`.
Docstrings and `global` declarations produce no line event and are
skipped; module and class bodies run at import and are not counted. A
statement counts as reached when any line of its header (the whole
statement, for a simple one) fired, so a statement spread over several
lines is not missed.

    python3 scripts/unreached_lines.py             # all of tests/
    python3 scripts/unreached_lines.py tests/test_text.py -k decode

Arguments go to pytest as they are. The exit status is 1 when a
statement is unreached or the tests fail, else 0.

The tracer is pure Python: on a 2-vCPU host the suite took 245-264 s
traced against about 110-135 s plain.
"""

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "promptmt"


def _header(stmt: ast.stmt) -> range:
    """The lines of a statement's header: up to the line before its first
    nested statement, or the whole statement when it nests none."""
    end = stmt.end_lineno
    for field in ("body", "orelse", "finalbody"):
        nested = getattr(stmt, field, None)
        if nested:
            end = min(end, nested[0].lineno - 1)
    first = min([d.lineno for d in getattr(stmt, "decorator_list", [])]
                + [stmt.lineno])
    return range(first, end + 1)


def _is_docstring(stmt: ast.stmt) -> bool:
    return (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str))


def body_statements(tree: ast.Module) -> list[tuple[str, int, range]]:
    """(function name, line, header lines) of every statement in a function
    body of ``tree``. A nested function's statements count as its own; a
    ``try`` counts through the statements it holds."""
    out = []

    def visit(stmts, func, docstring=False):
        for i, stmt in enumerate(stmts):
            if isinstance(stmt, (ast.Global, ast.Nonlocal)) or (
                    docstring and i == 0 and _is_docstring(stmt)):
                continue
            if not isinstance(stmt, ast.Try):
                out.append((func, stmt.lineno, _header(stmt)))
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(stmt.body, f"{func}.{stmt.name}", True)
            elif not isinstance(stmt, ast.ClassDef):
                for field in ("body", "orelse", "finalbody"):
                    visit(getattr(stmt, field, []), func)
                for handler in getattr(stmt, "handlers", []):
                    visit(handler.body, func)

    # module and class bodies run at import; their functions are counted
    for stmt in tree.body:
        methods = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
        for f in methods:
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = f"{stmt.name}." if f is not stmt else ""
                visit(f.body, owner + f.name, True)
    return out


def trace_tests(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest on ``pytest_args`` under the tracer; returns its exit
    code and the lines that fired, per file of the package."""
    import pytest

    prefix = str(PACKAGE) + "/"
    fired: dict[str, set[int]] = {}

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = fired.setdefault(filename, set())

        def local_trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local_trace
        return local_trace

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), fired


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    code, fired = trace_tests(argv[1:] or ["-q", "-p", "no:cacheprovider",
                                           str(ROOT / "tests")])
    unreached = []
    for path in sorted(PACKAGE.glob("*.py")):
        hit = fired.get(str(path), set())
        tree = ast.parse(path.read_text(encoding="utf-8"))
        unreached += [f"{path.relative_to(ROOT)}:{line}  {func}"
                      for func, line, header in body_statements(tree)
                      if hit.isdisjoint(header)]
    print(f"{len(unreached)} unreached function-body statement(s)")
    for where in unreached:
        print(where)
    return 1 if unreached or code else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
