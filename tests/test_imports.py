"""Every library module other than the package's ``__init__`` uses each name
it imports, found by a scan of its syntax tree."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sse"
MODULES = sorted(path for path in SRC.glob("*.py") if path.name != "__init__.py")


def imported_names(tree):
    """(bound name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def test_scan_finds_the_modules():
    assert {"attacksim.py", "estimator.py", "linmodel.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in read]
    assert not unused, f"{path.name} imports names it never reads: {', '.join(unused)}"
