"""The package's imports: each is used, and each is numpy's, the standard
library's or the package's own.

A name a module imports but never reads is left over from code that was
deleted or moved. The one exception is a ``noqa`` re-export that the
benchmark tracer (``perfbench/tracer.py``) patches through its
``PLAIN_PATCHES``: the tracer wraps the name where the caller looks it up,
so it must stay bound there. A re-export the tracer stops looking up is
reported like any other unused import.

numpy is the only runtime dependency, so every import anywhere in a
module, at top level or in a function body, names numpy, a standard
library module or the package itself, and ``pyproject.toml`` lists numpy
alone in ``[project].dependencies``. scipy and mpmath serve the tests only.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

import stackpmf
from test_tracer_lookups import _load_tracer

PACKAGE = Path(stackpmf.__file__).resolve().parent
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def unused_imports(source: str) -> list[tuple[str, bool]]:
    """Each name bound by a module-level import of ``source`` that the module
    never reads, and whether its import statement carries a ``noqa``.

    A name counts as read when it is loaded anywhere in the module or listed
    in ``__all__``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        noqa = "# noqa" in "\n".join(lines[node.lineno - 1 : node.end_lineno])
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append((name, noqa))
    return unused


def test_every_module_level_import_is_used():
    lookups = {(module, attr) for module, attr, _ in _load_tracer().PLAIN_PATCHES}
    offending = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = "stackpmf" if path.stem == "__init__" else f"stackpmf.{path.stem}"
        for name, noqa in unused_imports(path.read_text(encoding="utf-8")):
            if not (noqa and (module, name) in lookups):
                offending.append(f"{module}.{name}")
    assert offending == []


def test_an_unused_import_is_found():
    source = "import re\nimport os\nfrom math import inf, pi  # noqa: F401\n\nprint(os.sep, pi)\n"
    assert unused_imports(source) == [("re", False), ("inf", True)]


def foreign_imports(source: str) -> list[str]:
    """Each module that ``source`` imports, in any scope, that is neither
    numpy, nor in the standard library, nor the package itself."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    allowed = set(sys.stdlib_module_names) | {"numpy", "stackpmf"}
    return [name for name in names if name.split(".")[0] not in allowed]


def test_the_package_imports_only_numpy_and_the_standard_library():
    offending = []
    for path in sorted(PACKAGE.glob("*.py")):
        offending += [f"{path.name}: {name}" for name in foreign_imports(path.read_text(encoding="utf-8"))]
    assert offending == []


def test_a_foreign_import_is_found_in_any_scope():
    source = ("import scipy\nimport os.path, numpy as np\nfrom . import models\nfrom scipy import optimize\n"
              "def f():\n    from scipy.special import ndtri\n    import math, mpmath\n")
    assert foreign_imports(source) == ["scipy", "scipy", "scipy.special", "mpmath"]


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text(encoding="utf-8"))["project"]
    assert [re.match(r"[\w.-]+", spec).group() for spec in project["dependencies"]] == ["numpy"]
