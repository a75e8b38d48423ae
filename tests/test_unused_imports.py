"""Every module-level import in the package is used by its module, and
every module-level private name is used somewhere in the package.

No linter ships with the test dependencies, so this reads each module's
syntax tree: a name bound by a top-level import must appear as a name
somewhere else in the module.  `__init__.py` is skipped, since its imports
are the package's re-exports.  A private function, class or constant
(one leading underscore) must be read somewhere in the package outside
its own definition, as a name or an attribute; a helper whose last caller
is gone fails here.  A function handed to one of the package's own private
decorators (a registration such as `claims._claim`) is read by it.
"""

import ast
from collections import Counter
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


def _private_definitions(tree) -> dict[str, ast.AST]:
    """The module-level private functions, classes and constants, with their nodes."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        out.update((name, node) for name in names
                   if name.startswith("_") and not name.startswith("__"))
    return out


def _reads(node) -> Counter:
    """How often each name is read in node, as a name or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if (isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store))
                   or isinstance(n, ast.Attribute))


def _registered(node) -> bool:
    """Whether a private decorator, bare or called, receives the definition."""
    for decorator in getattr(node, "decorator_list", ()):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id.startswith("_"):
            return True
    return False


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    dead = []
    for module, tree in sorted(trees.items()):
        for name, node in _private_definitions(tree).items():
            if reads[name] == _reads(node)[name] and not _registered(node):
                dead.append(f"{module}: {name}")
    return dead


def test_dead_name_detector_ignores_self_reference():
    sources = {
        "a.py": ("_LIMIT = 3\n_SEEN: set = set()\n"
                 "def _walk(n):\n    return _walk(n - 1) if n else _LIMIT\n"
                 "def _used():\n    pass\nclass _Box:\n    pass\n"),
        "b.py": "from a import _used\nimport a\n_used()\na._SEEN.add(1)\n",
    }
    assert _dead_private_names(sources) == ["a.py: _walk", "a.py: _Box"]


def test_dead_name_detector_counts_a_private_registration_only():
    # the private decorator receives _body; lru_cache is no registration,
    # so an unread cached helper is still dead
    sources = {
        "a.py": ("from functools import lru_cache\n"
                 "def _register(key):\n    return lambda f: f\n"
                 "@_register('body')\ndef _body():\n    pass\n"
                 "@lru_cache(maxsize=None)\ndef _cached():\n    pass\n"
                 "@lru_cache\ndef _bare():\n    pass\n"),
    }
    assert _dead_private_names(sources) == ["a.py: _cached", "a.py: _bare"]


def test_no_module_keeps_a_dead_private_name():
    sources = {p.name: p.read_text() for p in sorted(_PACKAGE.glob("*.py"))}
    assert _dead_private_names(sources) == []
