"""Source hygiene that needs no third-party linter: every module-level import
in the package is used by the module that makes it, no function imports
unless it is on the list of those that must, every private function or method
is referred to somewhere in the package, every public top-level function
is reached from the package's own code, or is on the list of those only tests
call, and so is every method and property of a package class."""

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


def function_local_imports(source: str) -> list[tuple[str, int]]:
    """(function, line) for each import statement inside a function body,
    named by the innermost function that holds it."""
    found: list[tuple[str, int]] = []
    todo: list[tuple[ast.AST, str | None]] = [(ast.parse(source), None)]
    while todo:
        node, function = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                todo.append((child, child.name))
            elif isinstance(child, (ast.Import, ast.ImportFrom)) and function is not None:
                found.append((function, child.lineno))
            else:
                todo.append((child, function))
    return sorted(found, key=lambda entry: entry[1])


# The functions that import inside their bodies, each with its reason.  A
# module the whole module needs is imported once, at the top.
LOCAL_IMPORTS = {
    ("cli.py", "_dispatch"): "generate, import-reports and diff load their modules only when run (VERB_ONLY_MODULES)",
    ("smell_engine.py", "detect_corpus"): "one worker needs no thread pool",
}


def test_package_imports_only_at_module_level():
    found = {
        (str(path.relative_to(PACKAGE)), function)
        for path in sorted(PACKAGE.rglob("*.py"))
        for function, _ in function_local_imports(path.read_text(encoding="utf-8"))
    }
    assert sorted(found) == sorted(LOCAL_IMPORTS)


def test_scan_finds_a_function_local_import():
    source = (
        "import os\n\n"
        "def f():\n    import json\n    return json\n\n"
        "class C:\n    def m(self):\n        def inner():\n            from os import path\n        return inner\n\n"
        "if os.sep:\n    import re\n"
    )
    assert function_local_imports(source) == [("f", 4), ("inner", 10)]


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


def unreached_public_functions(sources: dict[str, str], entry_points: frozenset[str] = frozenset()) -> list[str]:
    """'<module>:<line>: <name>' for each public top-level function that no code
    of the package reaches.  Code outside public top-level functions (classes,
    private helpers, module statements) runs, and so do the functions named in
    ``entry_points``; every function such code names is reached, and so on.
    Functions are matched by name."""
    defined: list[tuple[str, int, str]] = []
    calls: dict[str, set[str]] = {}
    roots = set(entry_points)
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            names = {
                node.id if isinstance(node, ast.Name) else node.attr
                for node in ast.walk(stmt)
                if isinstance(node, (ast.Name, ast.Attribute))
            }
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and not stmt.name.startswith("_"):
                defined.append((module, stmt.lineno, stmt.name))
                calls.setdefault(stmt.name, set()).update(names - {stmt.name})
            else:
                roots |= names
    reached: set[str] = set()
    todo = [name for name in calls if name in roots]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(calls[name] & calls.keys())
    return [f"{module}:{line}: {name}" for module, line, name in defined if name not in reached]


# Public functions that only tests call.  Give one a caller in the package, or
# delete it, and take it off this list; add none.
TEST_ONLY = {
    "cognitive_complexity", "compute_vs", "dispersion", "method_metrics", "multi_origin_rules", "pearson",
    "rank_topics", "rule_by_id",
}


def test_package_has_no_unreached_public_functions():
    from smellscore.smell_engine import _REGISTRY

    sources = {str(p.relative_to(PACKAGE)): p.read_text(encoding="utf-8") for p in sorted(PACKAGE.rglob("*.py"))}
    checkers = frozenset(fn.__name__ for fn in _REGISTRY.values())  # looked up by rule id, never named
    unreached = unreached_public_functions(sources, checkers)
    assert sorted(entry.rsplit(" ", 1)[1] for entry in unreached) == sorted(TEST_ONLY), unreached


def test_scan_finds_an_unreached_public_function():
    sources = {
        "a.py": (
            "def used():\n    helper()\n\n"
            "def helper():\n    pass\n\n"
            "def orphan():\n    leaf()\n\n"
            "def leaf():\n    pass\n\n"
            "def recursive():\n    recursive()\n\n"
            "def check_x():\n    pass\n\n"
            "class C:\n    def m(self):\n        return used()\n"
        ),
        "b.py": "from a import leaf\n\ndef _private():\n    return 1\n",
    }
    assert unreached_public_functions(sources, frozenset({"check_x"})) == [
        "a.py:7: orphan", "a.py:10: leaf", "a.py:13: recursive",
    ]


def unread_members(sources: dict[str, str]) -> list[str]:
    """'<module>:<line>: <Class>.<name>' for each method or property of a
    package class, dunders aside, whose name no module of the package reads
    as an attribute.  Members are matched by name."""
    defined: list[tuple[str, int, str, str]] = []
    read: set[str] = set()
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                defined += [
                    (module, stmt.lineno, node.name, stmt.name)
                    for stmt in node.body
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (stmt.name.startswith("__") and stmt.name.endswith("__"))
                ]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return [f"{module}:{line}: {cls}.{name}" for module, line, cls, name in defined if name not in read]


# Members that only tests read, each with the reason it stays.  Give one a
# reader in the package, or delete it, and take it off this list.
TEST_ONLY_MEMBERS = {
    "DiffSummary.is_empty": "acceptance criterion 10 checks that a report diffs empty against itself",
    "SmellRule.category": "derived from the smell type; tests pick a category's rules from the catalog by it",
}


def test_package_has_no_unread_members():
    sources = {str(p.relative_to(PACKAGE)): p.read_text(encoding="utf-8") for p in sorted(PACKAGE.rglob("*.py"))}
    unread = unread_members(sources)
    assert sorted(entry.rsplit(" ", 1)[1] for entry in unread) == sorted(TEST_ONLY_MEMBERS), unread


def test_scan_finds_an_unread_member():
    sources = {
        "a.py": (
            "class C:\n"
            "    def __init__(self):\n        self.used()\n\n"
            "    def used(self):\n        return self.size\n\n"
            "    @property\n    def size(self):\n        return 1\n\n"
            "    def orphan(self):\n        pass\n\n"
            "    def stored(self):\n        pass\n\n"
            "def free():\n    pass\n"
        ),
        "b.py": "from a import C\n\nc = C()\nc.stored = None\norphan = 1\n",
    }
    assert unread_members(sources) == ["a.py:12: C.orphan", "a.py:15: C.stored"]


def imported_modules(source: str) -> list[str]:
    """The dotted name of each module, or name in a module, that source imports
    anywhere, relative ones without their leading dots."""
    found: list[str] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found += [f"{node.module}.{alias.name}" if node.module else alias.name for alias in node.names]
    return found


def test_code_metrics_imports_nothing_from_the_rules():
    imported = imported_modules((PACKAGE / "code_metrics.py").read_text(encoding="utf-8"))
    assert imported
    assert [name for name in imported if name == "rules" or name.startswith(("rules.", "smellscore.rules"))] == []


def test_scoreboard_imports_nothing_from_the_catalog():
    """Scoring reads a rule set as its smell types, which rules/model.py lists."""
    imported = imported_modules((PACKAGE / "scoreboard.py").read_text(encoding="utf-8"))
    assert imported
    assert [name for name in imported if name.startswith(("rules.catalog", "smellscore.rules.catalog"))] == []


def test_scan_finds_imports_from_the_rules():
    source = (
        "from typing import TYPE_CHECKING\nfrom . import rules\n\n"
        "if TYPE_CHECKING:\n    from .rules.context import FileFacts\n    import smellscore.rules.model\n"
    )
    assert imported_modules(source) == [
        "typing.TYPE_CHECKING", "rules", "rules.context.FileFacts", "smellscore.rules.model",
    ]


def test_cli_renders_no_heat_map():
    """scoreboard.py renders heatmaps/ from scores/; the CLI only calls it."""
    imported = imported_modules((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert imported
    assert [name for name in imported if name.split(".")[0] in ("csv", "io")] == []


def string_literals(source: str, text: str) -> list[int]:
    """The line of each string literal in source that is exactly ``text``."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Constant) and node.value == text
    )


def test_only_the_scoreboard_names_the_heatmaps_directory():
    found = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.relative_to(PACKAGE).as_posix() != "scoreboard.py"
        for line in string_literals(path.read_text(encoding="utf-8"), "heatmaps")
    ]
    assert found == []
    assert string_literals((PACKAGE / "scoreboard.py").read_text(encoding="utf-8"), "heatmaps")


def test_scan_finds_a_string_literal():
    source = (
        'out = Path("out") / "heatmaps"\nname = f"heatmaps/{out}"\n'
        'counts = {"heatmaps_written": 0}\nfirst, *rest = ["heatmaps", "scores"]\n'
    )
    assert string_literals(source, "heatmaps") == [1, 4]


def line_end_literals(source: str) -> list[str]:
    """The innermost function ('<module>' outside any) around each string
    literal in source that is exactly a line end: LF, CR or CR LF."""
    functions = [
        node for node in ast.walk(ast.parse(source)) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    found = []
    for line in sorted(line for text in ("\n", "\r", "\r\n") for line in string_literals(source, text)):
        around = [f for f in functions if f.lineno <= line <= f.end_lineno]
        found.append(max(around, key=lambda f: f.lineno).name if around else "<module>")
    return found


# The modules that read Java text: the rules, and the three that take it in
# from a corpus, an imported report's --source or a model's reply.
JAVA_TEXT_READERS = (*sorted((PACKAGE / "rules").rglob("*.py")), *(
    PACKAGE / name for name in ("smell_engine.py", "tool_adapters.py", "llm_gateway.py")
))

# Line-end literals allowed in JAVA_TEXT_READERS, each with its reason.  Where
# a line ends is the lexer's LINE_END alone; rules read SourceFile.lines and
# spans, and a source file is read through SourceFile.read.
LINE_END_LITERALS = {
    ("rules/implementation.py", "check_copy_paste"): "a separator between lexemes: no lexeme of a parsed file holds a line end",
    ("tool_adapters.py", "to_csv"): "DiffSummary joins the rows of the CSV it writes",
    ("llm_gateway.py", "extract_code"): "LINE_END.sub turns every line end of a reply into LF, which the fences and the body strip then read",
    ("llm_gateway.py", "run_generation_batch"): "ends the generation.log.jsonl line and the solution file it writes",
}


def test_only_the_lexer_decides_where_a_line_ends():
    found = {
        (path.relative_to(PACKAGE).as_posix(), function)
        for path in JAVA_TEXT_READERS
        for function in line_end_literals(path.read_text(encoding="utf-8"))
    }
    assert sorted(found) == sorted(LINE_END_LITERALS)


def test_only_the_lexer_decodes_a_java_source():
    """The corpus and import-reports --source are read through SourceFile.read."""
    for name in ("smell_engine.py", "tool_adapters.py"):
        source = (PACKAGE / name).read_text(encoding="utf-8")
        assert "read_text" not in source and ".decode(" not in source, name


def test_scan_finds_a_line_end_literal():
    source = (
        'SEP = "\\r\\n"\n'
        'def f(text):\n    def g():\n        return text.split("\\n")\n    return g() + ["\\n\\n", "\\r"]\n'
    )
    assert line_end_literals(source) == ["<module>", "g", "f"]


def self_calling_functions(source: str) -> list[str]:
    """The dotted name (classes and functions that hold it, then its own) of
    each function whose body calls a function or method of its own name:
    recursion, or a call that only shares the name, such as ``x.to_json()``
    in a ``to_json``."""
    found: list[str] = []
    todo: list[tuple[ast.AST, str]] = [(ast.parse(source), "")]
    while todo:
        node, prefix = todo.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef) and any(
                    isinstance(call, ast.Call) and child.name in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
                    for call in ast.walk(child)
                ):
                    found.append(name)
                todo.append((child, name + "."))
            else:
                todo.append((child, prefix))
    return sorted(found)


# The functions that call their own name, each with the reason its depth is
# bounded.  A tree walk takes an explicit stack, so the tree's depth, which
# the parser does not bound for chains it reads in a loop, cannot exhaust
# the call stack.
SELF_CALLS = {
    ("java_syntax/parser.py", "_Parser.binary"): "a tighter operator's right operand: one call per precedence level",
    ("java_syntax/parser.py", "_Parser.unary"): "prefix operators and casts; parse records RecursionError as 'nesting too deep'",
    ("java_syntax/nodes.py", "TypeRef.referenced_names"): "type arguments, which the parser counts against _MAX_DEPTH",
    ("outputs.py", "check"): "as deep as the spec, which is a constant",
    ("outputs.py", "_emit"): "as deep as a document the program builds",
    ("java_syntax/lexer.py", "LexError.__init__"): "name only: calls super().__init__",
    ("java_syntax/parser.py", "_ParseError.__init__"): "name only: calls super().__init__",
    ("rules/model.py", "ViolationReport.to_json"): "name only: calls Violation.to_json",
    ("rules/model.py", "ViolationReport.from_json"): "name only: calls Violation.from_json",
}


def test_package_recurses_only_where_listed():
    found = {
        (str(path.relative_to(PACKAGE)), name)
        for path in sorted(PACKAGE.rglob("*.py"))
        for name in self_calling_functions(path.read_text(encoding="utf-8"))
    }
    assert sorted(found) == sorted(SELF_CALLS)


def test_scan_finds_a_function_that_calls_its_own_name():
    source = (
        "def walk(node):\n    for child in node:\n        walk(child)\n\n"
        "def flat(node):\n    return [node]\n\n"
        "class C:\n    def to_json(self):\n        return [x.to_json() for x in self.xs]\n\n"
        "    def m(self):\n        def inner():\n            return inner()\n        return inner\n"
    )
    assert self_calling_functions(source) == ["C.m.inner", "C.to_json", "walk"]


def compiling_checkers(source: str) -> list[str]:
    """The name of each ``check_*`` function whose body calls ``re.compile``
    (or a ``compile`` imported from ``re``), with the line of the call."""
    tree = ast.parse(source)
    local = {
        alias.asname or alias.name
        for stmt in tree.body
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "re"
        for alias in stmt.names
        if alias.name == "compile"
    }
    found: list[str] = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name.startswith("check_"):
            for call in ast.walk(stmt):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if (
                    isinstance(func, ast.Attribute) and func.attr == "compile"
                    and isinstance(func.value, ast.Name) and func.value.id == "re"
                ) or (isinstance(func, ast.Name) and func.id in local):
                    found.append(f"{stmt.name}:{call.lineno}")
    return found


def test_checkers_compile_no_pattern_per_call():
    """A checker runs once per file, so its patterns live at module level or
    are cached per threshold value."""
    found = [
        f"{path.relative_to(PACKAGE)}:{entry}"
        for path in sorted((PACKAGE / "rules").glob("*.py"))
        for entry in compiling_checkers(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_scan_finds_a_checker_that_compiles_a_pattern():
    source = (
        "import re\nfrom re import compile as c\n\n"
        "_P = re.compile('x')\n\n"
        "def _cached(p):\n    return re.compile(p)\n\n"
        "def check_a(ctx, rule):\n    return re.compile(rule.threshold('pattern'))\n\n"
        "def check_b(ctx, rule):\n    def inner():\n        return c('y')\n    return inner\n\n"
        "def check_c(ctx, rule):\n    return _cached(rule.threshold('pattern'))\n"
    )
    assert compiling_checkers(source) == ["check_a:10", "check_b:14"]


def token_constructions(source: str) -> list[int]:
    """The line of each call that constructs a ``Token``: ``Token(...)``, or
    ``<module>.Token(...)`` on an imported module."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Name) and node.func.id == "Token")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "Token")
        )
    )


def test_only_the_lexer_constructs_tokens():
    """The parser and the rules read the token table's columns; only the
    table builds a Token, on demand."""
    found = [
        f"{path.relative_to(PACKAGE)}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.relative_to(PACKAGE).as_posix() != "java_syntax/lexer.py"
        for line in token_constructions(path.read_text(encoding="utf-8"))
    ]
    assert found == []
    assert token_constructions((PACKAGE / "java_syntax" / "lexer.py").read_text(encoding="utf-8"))


def test_scan_finds_a_token_construction():
    source = (
        "from .lexer import Token, TokenKind, TokenTable\nfrom . import lexer\n\n"
        "def f(kind, span):\n    return Token(kind, 'x', span)\n\n"
        "def g(kind, span):\n    return [lexer.Token(kind, 'y', span)]\n\n"
        "def h(table: TokenTable) -> Token:\n    return table[0] if isinstance(table[0], Token) else TokenKind('x')\n"
    )
    assert token_constructions(source) == [5, 8]
