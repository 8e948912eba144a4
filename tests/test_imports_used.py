"""Every module-level import in the package is used by its module.

A name a module imports but never reads is left over from code that was
deleted or moved. The one exception is a ``noqa`` re-export that the
benchmark tracer (``perfbench/tracer.py``) patches through its
``PLAIN_PATCHES``: the tracer wraps the name where the caller looks it up,
so it must stay bound there. A re-export the tracer stops looking up is
reported like any other unused import.
"""

import ast
from pathlib import Path

import stackpmf
from test_tracer_lookups import _load_tracer

PACKAGE = Path(stackpmf.__file__).resolve().parent


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
