"""Every name an import binds in src/ and tests/ is read somewhere in its module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source):
    """``name (line n)`` for each imported name the module never reads.

    A name counts as read where it is loaded (``np.zeros`` reads ``np``) and,
    in a package's ``__init__``, where ``__all__`` lists it for re-export.
    """
    tree = ast.parse(source)
    bound, read = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            read.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return [f"{name} (line {line})" for name, line in bound if name not in read]


def test_the_check_finds_an_unused_import():
    source = ("import os\nimport numpy.linalg\nimport json as js\n"
              "from math import pi, tau\n__all__ = ['tau']\nprint(numpy, js)\n")
    assert unused_imports(source) == ["os (line 1)", "pi (line 4)"]


def test_no_unused_imports_in_src_and_tests():
    files = sorted(p for d in ("src", "tests") for p in (ROOT / d).rglob("*.py"))
    assert files
    found = {str(p.relative_to(ROOT)): unused_imports(p.read_text(encoding="utf-8"))
             for p in files}
    assert {path: names for path, names in found.items() if names} == {}


def unreferenced_privates(sources):
    """``module: name`` for each module-level private function or class never read.

    ``sources`` maps a module name to its text. A name counts as read where
    any top-level statement other than its own definition, in any of the
    modules, loads it, reads it as an attribute or imports it.
    """
    defined, read = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = None
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and stmt.name.startswith("_")
                    and not stmt.name.endswith("__")):  # a dunder is called implicitly
                own = stmt.name
                defined.append((module, own))
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != own:
                    read.add(name)
    return [f"{module}: {name}" for module, name in defined if name not in read]


def test_the_check_finds_an_unreferenced_private():
    sources = {"a": ("def _dead(x):\n    return _dead(x)\n\ndef _used():\n    pass\n\n"
                     "class _Kept:\n    pass\n\ndef __getattr__(name):\n    return _used\n"),
               "b": "from .a import _Kept\n"}
    assert unreferenced_privates(sources) == ["a: _dead"]


def test_every_private_definition_in_src_is_referenced():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src").rglob("*.py"))}
    assert sources
    assert unreferenced_privates(sources) == []
