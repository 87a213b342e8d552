"""Source hygiene that needs no third-party linter: every module-level import
in the package is used by the module that makes it, and every private
function or method is referred to somewhere in the package."""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "smellscore"


def unused_imports(source: str) -> list[str]:
    """'<line>: <name>' for each module-level import the module never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                imported[alias.asname or alias.name.split(".")[0]] = stmt.lineno
        elif isinstance(stmt, ast.ImportFrom) and stmt.module != "__future__":
            for alias in stmt.names:
                imported[alias.asname or alias.name] = stmt.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for name, line in imported.items() if name not in used]


def test_package_has_no_unused_imports():
    # __init__.py files import names only to re-export them.
    sources = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
    assert sources
    unused = [
        f"{path.relative_to(PACKAGE)}:{entry}"
        for path in sources
        for entry in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def test_scan_finds_an_unused_import():
    source = "from __future__ import annotations\nimport json\nimport os.path\nfrom typing import Any\n\nx: Any = os.sep\n"
    assert unused_imports(source) == ["2: json"]


def orphaned_private_functions(sources: dict[str, str]) -> list[str]:
    """'<module>:<line>: <name>' for each private function or method (a '_name',
    not a dunder) whose name no module of the package reads."""
    defined: list[tuple[str, int, str]] = []
    used: set[str] = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    defined.append((module, node.lineno, name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return [f"{module}:{line}: {name}" for module, line, name in defined if name not in used]


def test_package_has_no_orphaned_private_functions():
    sources = {str(p.relative_to(PACKAGE)): p.read_text(encoding="utf-8") for p in sorted(PACKAGE.rglob("*.py"))}
    assert orphaned_private_functions(sources) == []


def test_scan_finds_an_orphaned_private_function():
    sources = {
        "a.py": "def _kept():\n    pass\n\ndef _orphan():\n    pass\n\nclass C:\n    def __init__(self):\n        self._m()\n\n    def _m(self):\n        pass\n",
        "b.py": "from a import _kept\n\n_kept()\n",
    }
    assert orphaned_private_functions(sources) == ["a.py:4: _orphan"]
