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


# wordings of a document-key message: check_keys's own, and ones it replaced
KEY_MESSAGES = ("has unknown key", " lacks ", "missing field", "has the key")
# functions that take the model and read its stack themselves
MODEL_READERS = ("_solve", "t_check", "certificates", "certificate_conflict")


def test_document_keys_are_checked_in_one_place():
    # the messages for an unknown or a missing document key are written
    # only in linmodel.check_keys, which every document check calls
    trees, _ = package_trees()
    inside = {id(node) for module, tree in trees if module == "linmodel.py"
              for helper in tree.body
              if isinstance(helper, ast.FunctionDef) and helper.name == "check_keys"
              for node in ast.walk(helper)}
    copies = [f"{module}: line {node.lineno}" for module, tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in inside
              and any(marker in node.value for marker in KEY_MESSAGES)]
    assert not copies, f"document key messages outside check_keys: {', '.join(copies)}"


def test_solves_read_the_model_alone():
    # the least-squares layer reads the stack and noise bounds from the model:
    # no function below the entry points takes either from its caller
    trees, _ = package_trees()
    params = [(module, node.name, arg.arg) for module, tree in trees
              if module in ("theory.py", "estimator.py", "oracle.py")
              for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
              for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs]
    assert any(name == "t_check" for _, name, _ in params)
    passed = [f"{module}: {name}({arg})" for module, name, arg in params
              if arg == "noise_bounds" or (arg == "stack" and name in MODEL_READERS)]
    assert not passed, f"functions handed what the model holds: {', '.join(passed)}"


def test_stacks_are_built_in_one_place():
    # a stack built anywhere but linmodel.build_observability would skip the
    # model's own stack, and a check could answer for another model
    trees, _ = package_trees()
    inside = {id(node) for module, tree in trees if module == "linmodel.py"
              for helper in tree.body
              if isinstance(helper, ast.FunctionDef) and helper.name == "build_observability"
              for node in ast.walk(helper)}
    calls = [(module, node) for module, tree in trees for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ObservabilityStack"]
    assert any(id(node) in inside for _, node in calls)
    copies = [f"{module}: line {node.lineno}" for module, node in calls if id(node) not in inside]
    assert not copies, f"ObservabilityStack built outside build_observability: {', '.join(copies)}"


def test_numpys_private_linalg_is_read_in_theory_alone():
    # the least-squares check calls the gufunc below np.linalg.solve; a numpy
    # that moves it breaks one import, and the public wrapper stays off the
    # package's paths but for the vehicle's pole placement, once per set-up
    trees, _ = package_trees()
    readers = {module for module, tree in trees for node in ast.walk(tree)
               if (isinstance(node, ast.ImportFrom) and "_umath_linalg" in (node.module or ""))
               or (isinstance(node, (ast.Import, ast.ImportFrom))
                   and any("_umath_linalg" in alias.name for alias in node.names))
               or (isinstance(node, ast.Attribute) and node.attr == "_umath_linalg")
               or (isinstance(node, ast.Name) and node.id == "_umath_linalg")}
    assert readers == {"theory.py"}
    solves = [(module, getattr(top, "name", None), node.lineno)
              for module, tree in trees for top in tree.body for node in ast.walk(top)
              if (isinstance(node, ast.Attribute) and node.attr == "solve"
                  and getattr(node.value, "attr", None) == "linalg")
              or (isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg"
                  and any(alias.name == "solve" for alias in node.names))]
    assert ("attacksim.py", "place_feedback_gain") in {solve[:2] for solve in solves}
    others = [f"{module}: line {line}" for module, name, line in solves
              if (module, name) != ("attacksim.py", "place_feedback_gain")]
    assert not others, f"np.linalg.solve read in the package: {', '.join(others)}"
