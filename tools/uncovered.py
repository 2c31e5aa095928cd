"""Executable lines of ``src/sse/`` that the tier-1 tests never run.

    python3 tools/uncovered.py

Run it from the repository root; it takes no arguments and needs only the
standard library and pytest.  It runs the tier-1 suite (``tests/``) in this
process under ``sys.settrace``, tracing only frames whose code comes from
``src/sse/``, and then prints, for each module with such lines, the line
numbers that a code object's ``co_lines`` lists but no traced frame ran.
Only the main thread is traced, and work done in worker processes
(``sse bench --jobs``) is not seen.  Expect
the run to take several times as long as the suite does untraced.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sse"


def executable_lines(path: Path) -> set:
    """Every line number that some code object compiled from ``path`` lists."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def traced_suite() -> tuple:
    """The suite's exit code, and the (file, line) pairs it ran in ``src/sse/``."""
    prefix = str(SRC) + "/"
    ran, ours = set(), {}

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            ours[name] = name.startswith(prefix)
        return local if ours[name] else None

    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
    return code, ran


if __name__ == "__main__":
    code, ran = traced_suite()
    for path in sorted(SRC.glob("*.py")):
        missed = sorted(line for line in executable_lines(path)
                        if (str(path), line) not in ran)
        if missed:
            print(f"{path.name}: {', '.join(map(str, missed))}")
    sys.exit(code)
