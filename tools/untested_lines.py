"""The statements of polarmub that no test executes.

Usage, from the repository root:

    python3 tools/untested_lines.py [PYTEST ARGS ...]

Runs pytest in this process, `pytest.main` with the given arguments (by
default the Tier-1 ones, `-q --continue-on-collection-errors`), under a
`sys.settrace` line tracer that records only frames whose code lies in this
checkout's `src/polarmub`, which goes first on `sys.path`.  Then it prints,
per module, each statement that no test executed, as `path:line: source`,
and a total.  def, class and import statements and docstrings are not
listed.  A simple statement counts as executed when any of its lines ran; a
compound one (if, for, while, with, try) when its header or its first body
statement ran.  Code run in subprocesses, such as the test that starts
`python -m polarmub.cli`, is not traced, so its statements can be listed
though a test reaches them.  The exit status is pytest's.  Standard library
and pytest only.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "polarmub"
DOCUMENTED = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom)


def statements(tree: ast.Module) -> list[tuple[int, set[int]]]:
    """(first line, lines that show it ran) for each listed statement."""
    out = []
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if not isinstance(body, list):
            continue
        documented = isinstance(node, DOCUMENTED) and ast.get_docstring(node) is not None
        docstring = body[0] if documented else None
        for block in (body, getattr(node, "orelse", []), getattr(node, "finalbody", [])):
            for stmt in block:
                if stmt is docstring or isinstance(stmt, SKIPPED):
                    continue
                inner = getattr(stmt, "body", None)
                if isinstance(inner, list) and inner:
                    lines = set(range(stmt.lineno, max(stmt.lineno, inner[0].lineno - 1) + 1))
                    lines.add(inner[0].lineno)
                else:
                    lines = set(range(stmt.lineno, stmt.end_lineno + 1))
                out.append((stmt.lineno, lines))
    return sorted(out)


def main(argv: list[str]) -> int:
    import pytest

    sys.path.insert(0, str(PACKAGE.parent))
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        ran.setdefault(name, set()).add(frame.f_lineno)
        return local

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(argv or ["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        hit = ran.get(str(path), set())
        missed = [line for line, lines in statements(ast.parse(text)) if not lines & hit]
        source = text.splitlines()
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
        total += len(missed)
    print(f"{total} statements no test executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
