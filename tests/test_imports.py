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
