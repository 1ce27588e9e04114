"""Source hygiene without a lint tool: no file imports a name it never uses,
and the package defines no function, class or method that nothing names."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = sorted(p for d in ("src", "tests", "demos") for p in (ROOT / d).rglob("*.py"))
PACKAGE = sorted((ROOT / "src" / "hvfcast").rglob("*.py"))
# the benchmark patches and calls package names, so it counts as a user
USERS = SCANNED + sorted((ROOT / "perfbench").rglob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name that no `Name` node references;
    `from __future__` imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_scanner_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from json import dumps, loads\n"
        "np.zeros(loads('1'))\n"
    )
    assert unused_imports(source) == [(2, "os"), (4, "dumps")]


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_definitions(source: str, corpus: str) -> list[tuple[int, str]]:
    """(line, name) of every top-level function or class in `source`, and
    every method of a top-level class, whose name occurs as a word only once
    in `corpus` (which includes `source`): at its own definition.  Dunder
    methods are exempt; Python calls them."""
    tree = ast.parse(source)
    defs = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defs.append(node)
        if isinstance(node, ast.ClassDef):
            defs += [m for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
    return sorted(
        (d.lineno, d.name) for d in defs
        if not (d.name.startswith("__") and d.name.endswith("__"))
        and len(re.findall(rf"\b{re.escape(d.name)}\b", corpus)) < 2
    )


def test_dead_scanner_flags_unnamed_definitions():
    source = (
        "def used():\n    pass\n"
        "def unused():\n    pass\n"
        "class Box:\n"
        "    def __init__(self):\n        pass\n"
        "    def get(self):\n        return used()\n"
        "    def lost(self):\n        pass\n"
    )
    assert dead_definitions(source, source + "Box().get()\n") == [(3, "unused"), (10, "lost")]


def test_no_dead_definitions():
    corpus = "\n".join(p.read_text(encoding="utf-8") for p in USERS)
    dead = {
        str(path.relative_to(ROOT)): found
        for path in PACKAGE
        if (found := dead_definitions(path.read_text(encoding="utf-8"), corpus))
    }
    assert dead == {}


# The functions that may parse JSON: the one file reader and the two line
# readers, each checking what it parsed; the archetype table is package data.
JSON_READERS = {"read_json", "parse_record", "read_pairs"}
JSON_EXEMPT = {"_load_archetypes"}


def json_parses(source: str) -> list[tuple[int, str]]:
    """(line, enclosing function or `<module>`) of every `json.load`/`json.loads`
    call, and of every call of a `load`/`loads` imported from json."""
    tree = ast.parse(source)
    imported = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                and node.module == "json" for a in node.names if a.name in ("load", "loads")}
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            f = getattr(child, "func", None)
            if (isinstance(f, ast.Attribute) and f.attr in ("load", "loads")
                    and isinstance(f.value, ast.Name) and f.value.id == "json") or (
                    isinstance(f, ast.Name) and f.id in imported):
                found.append((child.lineno, owner))
            visit(child, owner)

    visit(tree, "<module>")
    return found


def test_json_scanner_finds_every_parse():
    source = (
        "import json\n"
        "from json import loads as parse\n"
        "def read_json(p):\n    return json.loads(p)\n"
        "def other(fh):\n    def inner():\n        return parse('1')\n    return json.load(fh)\n"
        "TABLE = json.loads('{}')\n"
        "json.dumps(1)\n"
    )
    assert json_parses(source) == [(4, "read_json"), (7, "inner"), (8, "other"), (9, "<module>")]


def test_json_is_parsed_only_by_the_readers():
    stray = {
        str(path.relative_to(ROOT)): found
        for path in PACKAGE
        if (found := [c for c in json_parses(path.read_text(encoding="utf-8"))
                      if c[1] not in JSON_READERS | JSON_EXEMPT])
    }
    assert stray == {}
