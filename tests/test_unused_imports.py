"""Every module-level import in the package is used by its module.

No linter ships with the test dependencies, so this reads each module's
syntax tree: a name bound by a top-level import must appear as a name
somewhere else in the module.  `__init__.py` is skipped, since its imports
are the package's re-exports.
"""

import ast
from pathlib import Path

import isogate

_PACKAGE = Path(isogate.__file__).parent


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_detector_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport re\nfrom x import a, b as c\n"
              "os.path.join(a)\n")
    assert _unused_imports(source) == ["line 3: re", "line 4: c"]


def test_no_module_has_unused_imports():
    modules = sorted(p for p in _PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: _unused_imports(p.read_text()) for p in modules}
    assert {name: lines for name, lines in unused.items() if lines} == {}
