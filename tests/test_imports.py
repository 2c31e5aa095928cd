"""Every library module other than the package's ``__init__`` uses each name
it imports, and every private module-level helper and upper-case module
constant is read somewhere in the package, all found by scans of the syntax
trees."""

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


def package_trees():
    """(module name, syntax tree) for every module of the package, and the
    names the package reads: each loaded ``Name`` and each ``Attribute``."""
    trees = [(path.name, ast.parse(path.read_text())) for path in sorted(SRC.glob("*.py"))]
    read = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return trees, read


def test_every_private_helper_is_read():
    trees, read = package_trees()
    defined = [(module, node.name) for module, tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_")]
    assert len(defined) > 20
    dead = [f"{module}: {name}" for module, name in defined if name not in read]
    assert not dead, f"private helpers nothing in the package reads: {', '.join(dead)}"


def test_every_module_constant_is_read():
    # a knob left behind when the code that read it is deleted
    trees, read = package_trees()
    defined = [(module, target.id) for module, tree in trees for node in tree.body
               if isinstance(node, (ast.Assign, ast.AnnAssign))
               for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
               if isinstance(target, ast.Name) and target.id.isupper()]
    assert len(defined) > 20
    dead = [f"{module}: {name}" for module, name in defined if name not in read]
    assert not dead, f"constants nothing in the package reads: {', '.join(dead)}"
