"""List the statements of src/fibspec that the tier-1 tests never run.

    python tools/statement_trace.py [pytest arguments]

Runs the test suite in this process under a ``sys.settrace`` line
trace, with the standard library alone (no coverage package).  A
statement is one that compiles to code and does something: not a
docstring or other bare constant, nor ``global`` or a bare annotation
in a function body.  It counts as run when a line event falls in its
lines; a compound statement's lines include its body.  Every statement
never run is printed as path:line and its first source line, then a
count.

Exits with pytest's code if the tests do not pass; else 1 if a
statement never run lies outside __main__.py, whose statements run
only under ``python -m fibspec``, in a subprocess out of the trace's
sight; else 0.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path
from types import CodeType

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fibspec"
OUT_OF_SIGHT = "__main__.py"  # runs only in a subprocess


def trace(run):
    """Call run() under a line trace: its result, and the lines hit in
    each file of PACKAGE, keyed by the file's resolved path."""
    hits: dict[Path, set[int]] = {}
    local_tracers = {}  # co_filename -> its local tracer, or None

    def local_tracer(filename: str):
        path = Path(filename).resolve()
        if path.parent != PACKAGE:
            return None
        add = hits.setdefault(path, set()).add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in local_tracers:
            local_tracers[filename] = local_tracer(filename)
        return local_tracers[filename]

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, hits


def _code_lines(code: CodeType) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> list[tuple[int, int]]:
    """(first, last) line of each statement of the file that compiles to
    code, a decorated definition starting at its first decorator."""
    source = path.read_text()
    code_lines = _code_lines(compile(source, str(path), "exec"))
    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.stmt) and not (
                isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)):
            first = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", [])])
            if code_lines.intersection(range(first, node.end_lineno + 1)):
                spans.append((first, node.end_lineno))
    return sorted(spans)


def never_run(hits: dict[Path, set[int]]) -> tuple[list[tuple[Path, int]], int]:
    """Each statement of PACKAGE that no hit reached, as (path, first
    line), and the number of statements."""
    missed, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        spans = statements(path)
        lines = hits.get(path, set())
        total += len(spans)
        missed += [(path, first) for first, last in spans
                   if not lines.intersection(range(first, last + 1))]
    return missed, total


def main(argv: list[str]) -> int:
    import pytest

    code, hits = trace(lambda: pytest.main(
        ["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv]))
    if code != 0:
        return int(code)
    fibspec = sys.modules.get("fibspec")
    if fibspec is None or Path(fibspec.__file__).resolve().parent != PACKAGE:
        print(f"statement_trace: the tests did not import fibspec from {PACKAGE}",
              file=sys.stderr)
        return 1
    missed, total = never_run(hits)
    for path, first in missed:
        line = path.read_text().splitlines()[first - 1].strip()
        print(f"{path.relative_to(ROOT)}:{first}: {line}")
    outside = sum(path.name != OUT_OF_SIGHT for path, _ in missed)
    print(f"{len(missed)} of {total} statements never run, {outside} outside "
          f"{OUT_OF_SIGHT}")
    return 1 if outside else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
