"""Source hygiene without a lint tool: no file imports a name it never uses,
the package defines no function, class or method that nothing names, and
it parses JSON, writes files, chooses exit codes and catches float faults
each in one place, with one exception class per failing exit path."""

import ast
import builtins
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


# The functions that may parse JSON: the file reader and the line parser under
# `read_json_lines` and `parse_record`, each checking what it parsed; the
# archetype table is package data.
JSON_READERS = {"read_json", "_parse_line"}
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


def owned_nodes(source: str) -> list[tuple[ast.AST, str]]:
    """(node, owner) for every node of `source`: the owner is the dotted name
    of the innermost enclosing function or class (`_Parser.error`), or
    `<module>`."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            found.append((child, owner))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if owner == "<module>" else f"{owner}.{child.name}")
            else:
                visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


# The one function that writes files and makes directories
WRITER = ("src/hvfcast/domain.py", "atomic_write")
WRITE_METHODS = {"write_text", "write_bytes", "writelines", "mkdir"}
_MODE = re.compile(r"[rwxabt+]+")


def file_writes(source: str) -> list[tuple[int, str]]:
    """(line, owner) of every `write_text`, `write_bytes`, `writelines` or
    `mkdir` call, and of every `open` call given a literal mode that writes
    (`w`, `a`, `x` or `+`) or a `mode=` that is not a literal."""
    found = []
    for node, owner in owned_nodes(source):
        f = getattr(node, "func", None)
        name = f.attr if isinstance(f, ast.Attribute) else f.id if isinstance(f, ast.Name) else None
        if name in WRITE_METHODS and isinstance(f, ast.Attribute):
            found.append((node.lineno, owner))
        elif name == "open":
            keyword = [k.value for k in node.keywords if k.arg == "mode"]
            literals = [a.value for a in (*node.args, *keyword) if isinstance(a, ast.Constant)]
            if any(not isinstance(k, ast.Constant) for k in keyword) or any(
                    isinstance(s, str) and _MODE.fullmatch(s) and set(s) & set("wax+") for s in literals):
                found.append((node.lineno, owner))
    return found


def test_write_scanner_finds_every_write():
    source = (
        "from pathlib import Path\n"
        "def atomic_write(p, data):\n    Path(p).write_bytes(data)\n"
        "def save(p, lines, m):\n"
        "    with open(p, 'w', encoding='utf-8') as fh:\n        fh.writelines(lines)\n"
        "    with open(p) as fh, open(p, 'rb') as raw, Path(p).open('r') as text:\n        fh.read()\n"
        "    open(p, mode='ab')\n"
        "    Path(p).open('r+')\n"
        "    Path(p).parent.mkdir(parents=True)\n"
        "class Store:\n    def put(self, p):\n        p.write_text('x')\n"
        "    def load(self, p, m):\n        return open(p, mode=m), open('w.txt')\n"
    )
    assert file_writes(source) == [(3, "atomic_write"), (5, "save"), (6, "save"), (9, "save"), (10, "save"),
                                   (11, "save"), (14, "Store.put"), (16, "Store.load")]


def test_files_are_written_only_by_the_writer():
    stray = {
        str(path.relative_to(ROOT)): found
        for path in PACKAGE
        if (found := [c for c in file_writes(path.read_text(encoding="utf-8"))
                      if (str(path.relative_to(ROOT)), c[1]) != WRITER])
    }
    assert stray == {}


# In cli.py only these choose an exit code or write to stderr: commands raise
EXIT_OWNERS = {"main", "_Parser.error"}
EXIT_NAMES = {"EXIT_USAGE", "EXIT_DATA", "EXIT_DIVERGED"}


def exit_uses(source: str) -> list[tuple[int, str]]:
    """(line, owner) of every read of EXIT_USAGE, EXIT_DATA or EXIT_DIVERGED,
    and of every `sys.stderr` (or `stderr` imported from sys)."""
    stderr = {a.asname or a.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ImportFrom)
              and node.module == "sys" for a in node.names if a.name == "stderr"}
    return [
        (node.lineno, owner) for node, owner in owned_nodes(source)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id in EXIT_NAMES | stderr)
        or (isinstance(node, ast.Attribute) and node.attr == "stderr"
            and isinstance(node.value, ast.Name) and node.value.id == "sys")
    ]


def test_exit_scanner_finds_every_use():
    source = (
        "import sys\n"
        "from sys import stderr as err\n"
        "EXIT_DATA = 2\n"
        "class _Parser:\n    def error(self, m):\n        print(m, file=sys.stderr)\n"
        "def main():\n    return EXIT_DATA\n"
        "def _cmd_x(args):\n    sys.stderr.write('x')\n    print(file=err)\n    return EXIT_USAGE\n"
        "CODES = {1: EXIT_DIVERGED, 0: EXIT_OK}\n"
    )
    assert exit_uses(source) == [(6, "_Parser.error"), (8, "main"), (10, "_cmd_x"), (11, "_cmd_x"),
                                 (12, "_cmd_x"), (13, "<module>")]


def test_only_main_chooses_exit_codes():
    source = (ROOT / "src" / "hvfcast" / "cli.py").read_text(encoding="utf-8")
    assert {owner for _, owner in exit_uses(source)} - EXIT_OWNERS == set()


# The one place a float fault is caught: `train_model` turns it into
# TrainingDiverged, the one divergence exception
FLOAT_FAULT_CATCHER = ("src/hvfcast/trainer.py", "train_model")
FLOAT_FAULTS = {"FloatingPointError", "ArithmeticError"}


def float_fault_handlers(source: str) -> list[tuple[int, str]]:
    """(line, owner) of every `except` clause that names FloatingPointError
    or its base ArithmeticError, alone or in a tuple."""
    found = []
    for node, owner in owned_nodes(source):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if {t.attr if isinstance(t, ast.Attribute) else getattr(t, "id", None) for t in types} & FLOAT_FAULTS:
                found.append((node.lineno, owner))
    return found


def divergence_classes(source: str) -> list[str]:
    """The name of every class defined in `source`, at any depth, that names divergence."""
    return [node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef) and "diverg" in node.name.lower()]


def test_float_fault_scanners_find_every_catch_and_class():
    source = (
        "import builtins\n"
        "class DivergenceError(RuntimeError):\n    pass\n"
        "def train_model():\n"
        "    try:\n        pass\n    except FloatingPointError:\n        pass\n"
        "def other():\n"
        "    try:\n        pass\n    except (ValueError, builtins.ArithmeticError) as e:\n        pass\n"
        "    except (OSError, *ERRORS):\n        pass\n"
        "class Step:\n    class TrainingDiverged(Exception):\n        pass\n"
    )
    assert float_fault_handlers(source) == [(7, "train_model"), (12, "other")]
    assert divergence_classes(source) == ["DivergenceError", "TrainingDiverged"]


def test_only_train_model_catches_float_faults():
    caught = {(str(path.relative_to(ROOT)), owner) for path in PACKAGE
              for _, owner in float_fault_handlers(path.read_text(encoding="utf-8"))}
    assert caught == {FLOAT_FAULT_CATCHER}


def test_training_diverged_is_the_one_divergence_exception():
    assert [name for path in PACKAGE for name in divergence_classes(path.read_text(encoding="utf-8"))] == [
        "TrainingDiverged"]


# One exception per failing exit path: bad input exits 2 and a diverged run
# exits 3; engine misuse is a bug, which `main` leaves to end in a traceback
EXCEPTIONS = {("src/hvfcast/domain.py", "DataError"), ("src/hvfcast/trainer.py", "TrainingDiverged"),
              ("src/hvfcast/autodiff.py", "EngineError")}
BUILTIN_EXCEPTIONS = {name for name, value in vars(builtins).items()
                      if isinstance(value, type) and issubclass(value, BaseException)}


def _base_name(node: ast.expr) -> str | None:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def exception_classes(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(file, name) of every class, at any depth in any of `sources`, with a
    base that is an exception: a builtin one, one named `*Error`,
    `*Exception` or `*Warning`, or such a class of `sources` itself."""
    classes = [(path, node.name, {_base_name(b) for b in node.bases})
               for path, source in sources.items()
               for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)]
    known = set(BUILTIN_EXCEPTIONS)
    for _ in classes:  # a subclass may come before its base: a pass per class reaches every one
        known |= {name for _, name, bases in classes
                  if any(b in known or (b or "").endswith(("Error", "Exception", "Warning")) for b in bases)}
    return {(path, name) for path, name, bases in classes if name in known}


def test_exception_scanner_finds_every_class():
    sources = {
        "a.py": (
            "import argparse\n"
            "class Late(Early):\n    pass\n"
            "class Early(ValueError):\n    pass\n"
            "class Spec:\n    pass\n"
            "class Usage(argparse.ArgumentTypeError):\n    pass\n"
            "def f():\n    class Inner(Exception):\n        pass\n"
        ),
        "b.py": "from a import Late\nclass Mixed(Spec, Late):\n    pass\nclass Plain(object):\n    pass\n",
    }
    assert exception_classes(sources) == {("a.py", "Late"), ("a.py", "Early"), ("a.py", "Usage"),
                                          ("a.py", "Inner"), ("b.py", "Mixed")}


def test_the_package_defines_three_exceptions():
    sources = {str(path.relative_to(ROOT)): path.read_text(encoding="utf-8") for path in PACKAGE}
    assert exception_classes(sources) == EXCEPTIONS


def caught_by(source: str, owner: str) -> list[tuple[str, ...]]:
    """The names each `except` clause of `owner` (a dotted function or method
    name) catches, in source order: `*NAME` for a starred tuple entry, and
    () for a bare `except`."""
    def named(node):
        return f"*{_base_name(node.value)}" if isinstance(node, ast.Starred) else _base_name(node)

    return [
        () if node.type is None else tuple(map(named, node.type.elts if isinstance(node.type, ast.Tuple)
                                               else [node.type]))
        for node, found in owned_nodes(source) if found == owner and isinstance(node, ast.ExceptHandler)
    ]


def test_catch_scanner_names_every_clause():
    source = (
        "import argparse\n"
        "def main():\n"
        "    try:\n        pass\n    except SystemExit:\n        pass\n"
        "    try:\n        pass\n    except (argparse.ArgumentTypeError, *ERRORS) as e:\n        pass\n"
        "    except:\n        pass\n"
        "    def inner():\n        try:\n            pass\n        except OSError:\n            pass\n"
    )
    assert caught_by(source, "main") == [("SystemExit",), ("ArgumentTypeError", "*ERRORS"), ()]
    assert caught_by(source, "main.inner") == [("OSError",)]


def test_main_catches_one_type_per_exit_code():
    """Around the parser, argparse's own exit; around the command, a usage
    error (exit 1), bad input or an unreadable or unwritable file (exit 2)
    and a diverged run (exit 3)."""
    source = (ROOT / "src" / "hvfcast" / "cli.py").read_text(encoding="utf-8")
    assert caught_by(source, "main") == [("SystemExit",),
                                         ("ArgumentTypeError", "TrainingDiverged", "DataError", "OSError")]


def class_parameters(source: str) -> list[tuple[int, str, str]]:
    """(line, owner, parameter) of every function parameter that takes a
    class: annotated `type[...]`, or named `error`."""
    found = []
    for node, owner in owned_nodes(source):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
                annotation = arg.annotation
                if arg.arg == "error" or (isinstance(annotation, ast.Subscript)
                                          and _base_name(annotation.value) == "type"):
                    found.append((arg.lineno, node.name if owner == "<module>" else f"{owner}.{node.name}",
                                  arg.arg))
    return found


def test_class_parameter_scanner_finds_every_one():
    source = (
        "def read(path, error: type[Exception], schema=None):\n    pass\n"
        "def parse(line, error, *, kind=int):\n    pass\n"
        "class Reader:\n    def error(self, message, cls: type = int):\n        pass\n"
        "    def load(self, path, *, factory: type[dict] = dict):\n        pass\n"
    )
    assert class_parameters(source) == [(1, "read", "error"), (3, "parse", "error"), (8, "Reader.load", "factory")]


def test_no_reader_takes_an_exception_class():
    """Every reader raises DataError itself; no caller picks the class."""
    found = {str(path.relative_to(ROOT)): params for path in PACKAGE
             if (params := class_parameters(path.read_text(encoding="utf-8")))}
    assert found == {}
