"""The package imports SciPy only inside function bodies, and only where a
command needs it: ``scipy.special`` in :mod:`stackpmf.harness` (the normal
quantiles of ``qq``). :mod:`stackpmf.models` evaluates every family with
numpy alone. A top-level SciPy import would load it on ``import stackpmf``.
"""

import ast
from pathlib import Path

import stackpmf

PACKAGE = Path(stackpmf.__file__).resolve().parent

#: The SciPy modules each package module may import, in a function body.
ALLOWED = {"models": set(), "harness": {"scipy.special"}}


def scipy_imports(tree: ast.Module) -> list[tuple[str, bool]]:
    """Each SciPy module that ``tree`` imports, and whether the import sits
    in a function body."""
    in_function = {id(node) for func in ast.walk(tree) if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(func)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            names = [f"scipy.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        found += [(name, id(node) in in_function) for name in names if name.split(".")[0] == "scipy"]
    return found


def test_scipy_is_imported_only_in_function_bodies_and_only_where_allowed():
    offending = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, in_function in scipy_imports(ast.parse(path.read_text(encoding="utf-8"))):
            if not in_function or name not in ALLOWED.get(path.stem, set()):
                offending.append((path.name, name, "function body" if in_function else "top level"))
    assert offending == []


def test_the_check_sees_top_level_and_disallowed_imports():
    tree = ast.parse("import scipy\nfrom scipy import optimize\n"
                     "def f():\n    from scipy.special import ndtri\n    import numpy\n")
    assert scipy_imports(tree) == [("scipy", False), ("scipy.optimize", False), ("scipy.special", True)]
