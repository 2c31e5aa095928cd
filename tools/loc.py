"""Line counts of the package: for each module of ``src/sse/`` and in total,
the ``wc -l`` count and the code lines, those outside docstrings, comments
and blank lines (docstrings found with ``ast``).

    python3 tools/loc.py
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sse"
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(path: Path) -> tuple:
    text = path.read_text()
    lines = text.splitlines()
    doc = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = sum(1 for number, line in enumerate(lines, 1)
               if number not in doc and line.strip() and not line.strip().startswith("#"))
    return len(lines), code


if __name__ == "__main__":
    total_lines = total_code = 0
    for path in sorted(SRC.glob("*.py")):
        lines, code = counts(path)
        total_lines, total_code = total_lines + lines, total_code + code
        print(f"{path.name:<16}{lines:>7}{code:>7}")
    print(f"{'total':<16}{total_lines:>7}{total_code:>7}")
