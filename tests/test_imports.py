"""Every import in src/ and tests/ is read; every private or tape function has a reader."""

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


def unreferenced(sources, selects, counts):
    """``module: name`` for each module-level definition that ``selects`` picks and nothing reads.

    ``sources`` maps a module name to its text; ``selects(module, stmt)``
    picks top-level function and class definitions. A read is a loaded name,
    an attribute or an imported name in any top-level statement other than
    the definition itself, in any of the modules, that ``counts(module,
    node)`` accepts.
    """
    defined, read = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and selects(module, stmt):
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
                if name != own and counts(module, node):
                    read.add(name)
    return [f"{module}: {name}" for module, name in defined if name not in read]


def unreferenced_privates(sources):
    """``module: name`` for each module-level private function or class never read."""
    def private(module, stmt):
        return stmt.name.startswith("_") and not stmt.name.endswith("__")  # a dunder is implicit

    return unreferenced(sources, private, lambda module, node: True)


def unread_public_functions(sources, owner, alias):
    """``owner: name`` for each public module-level function of ``owner`` never called.

    A call counts as a bare name inside ``owner`` or as ``alias.name``
    elsewhere, the one way the package imports it; an attribute of another
    object (``np.log``) does not read ``owner``'s ``log``.
    """
    def public_function(module, stmt):
        return (module == owner and isinstance(stmt, ast.FunctionDef)
                and not stmt.name.startswith("_"))

    def counts(module, node):
        if module == owner:
            return isinstance(node, ast.Name)
        return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == alias)

    return unreferenced(sources, public_function, counts)


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


def test_the_check_finds_an_uncalled_public_function():
    sources = {"ops": ("def inner(x):\n    return x\n\ndef outer(x):\n    return inner(x)\n\n"
                       "def dead(x):\n    return dead(x)\n\ndef shadowed(x):\n    return x\n\n"
                       "def _helper():\n    pass\n\nclass Node:\n    pass\n"),
               "user": ("import numpy as np\nfrom . import ops as ad\n\n"
                        "def run(x):\n    return ad.outer(np.shadowed(x))\n")}
    assert unread_public_functions(sources, "ops", "ad") == ["ops: dead", "ops: shadowed"]


def test_every_public_autodiff_function_is_called_in_src():
    # a tape operation that no model code calls is dead weight on the engine
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
               for p in sorted((ROOT / "src").rglob("*.py"))}
    owner = "src/sswim/autodiff.py"
    assert owner in sources
    assert unread_public_functions(sources, owner, "ad") == []
