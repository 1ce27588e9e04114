"""The schemas against the files the pipeline writes, and a fuzz test of
every reader over one seeded run tree: a file mutated where its reader's
schema names it exits 2 naming the file, and no mutation exits 1 or
escapes as a traceback."""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvfcast import cli
from hvfcast.cli import _MATRIX_ROW, FEATURES_RESULT_SCHEMA, PHASE_WINNER_SCHEMA, REPORT_SCHEMA, SPLIT_RECORD_SCHEMA
from hvfcast.domain import NUMBER, RECORD_SCHEMA, expect, load_dataset, read_json
from hvfcast.models import MANIFEST_SCHEMA, SPEC_SCHEMA, load_weights
from hvfcast.pipeline import PAIR_SCHEMA, PLAN_SCHEMA, SplitPlan, read_pairs
from hvfcast.trainer import CHECKPOINT_SCHEMA, SERVED_ENTRY_SCHEMA, load_interval_models

TINY = ("--epochs", "1", "--widths", "2,3,4", "--fc-hidden", "8", "--seed", "3", "--workers", "2")


def run(*argv) -> tuple[int, str]:
    """Exit code and stderr of one CLI command, run in this process."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, err.getvalue()


def data_args(root: Path) -> list:
    return ["--data", root / "d.jsonl", "--pairs", root / "pairs.jsonl", "--split", root / "split.json"]


@pytest.fixture(scope="module")
def tree(tmp_path_factory) -> Path:
    """simulate, pairs, split, arch, features, a conv and a FullyConnected
    chain, evaluate, and three diverging runs: an `--lr 1e300` arch phase
    (every candidate loses a fold), an `--lr 1e300` chain (gap entries with
    no checkpoint) and an `--lr 1e150` arch phase whose result holds null
    cells and errors."""
    root = tmp_path_factory.mktemp("tree")
    data = data_args(root)
    for code, *argv in [
        (0, "simulate", "--patients", "24", "--tests-min", "5", "--tests-max", "5", "--seed", "3",
         "--out", root / "d.jsonl"),
        (0, "pairs", "--data", root / "d.jsonl", "--out", root / "pairs.jsonl"),
        (0, "split", "--data", root / "d.jsonl", "--seed", "3", "--out", root / "split.json"),
        (0, "train", "--phase", "arch", *data, "--out", root / "runs", *TINY),
        (0, "train", "--phase", "features", *data, "--out", root / "runs", "--arch", "FullyConnected", *TINY),
        (0, "train", "--phase", "intervals", *data, "--out", root / "runs", "--arch", "Cascade-1", "--combo", "age",
         *TINY),
        (0, "evaluate", *data, "--runs", root / "runs", "--bootstrap-n", "20", "--out", root / "report.json"),
        (0, "train", "--phase", "intervals", *data, "--out", root / "fc", "--arch", "FullyConnected",
         "--combo", "age", *TINY),
        (3, "train", "--phase", "arch", *data, "--out", root / "lr-arch", *TINY, "--lr", "1e300"),
        (3, "train", "--phase", "intervals", *data, "--out", root / "lr-chain", "--arch", "Cascade-1",
         "--combo", "age", *TINY, "--lr", "1e300"),
        (0, "train", "--phase", "arch", *data, "--out", root / "partial", *TINY, "--seed", "1", "--lr", "1e150"),
    ]:
        assert run(*argv)[0] == code, argv
    (root / "field.jsonl").write_text((root / "d.jsonl").read_text().splitlines()[0] + "\n")
    return root


def test_every_written_file_passes_its_readers_schema(tree):
    """Each shape a writer emits: FullyConnected's null depth_k, null fold
    cells and `errors`, and chain gaps with no checkpoint; every phase and
    chain result records the digest of the plan it trained on."""
    manifests = sorted(tree.rglob("manifest.json"))
    specs = [load_weights(path.parent).spec for path in manifests]
    assert {spec.depth_k is None for spec in specs} == {True, False}
    for path in sorted(tree.rglob("chain_result.json")):
        load_interval_models(path.parent.parent)
    entries = json.loads((tree / "lr-chain" / "intervals" / "chain_result.json").read_text())["entries"]
    assert any(e["error"] and "checkpoint" not in e for e in entries)
    results = sorted(tree.rglob("phase_result.json"))
    for path in results:
        result = read_json(path, PHASE_WINNER_SCHEMA)
        expect(result, FEATURES_RESULT_SCHEMA, path)
        for name, row in result["matrix"].items():
            expect(row, _MATRIX_ROW, path, ("matrix", name))
    partial = json.loads((tree / "partial" / "arch" / "phase_result.json").read_text())
    assert partial["errors"] and None in [v for row in partial["matrix"].values() for v in row]
    assert not (tree / "lr-arch" / "arch" / "phase_result.json").exists()
    read_json(tree / "report.json", REPORT_SCHEMA)
    fields = load_dataset(tree / "d.jsonl")
    assert sum(map(len, read_pairs(tree / "pairs.jsonl", fields).values())) > 0
    plan = SplitPlan.from_json_dict(read_json(tree / "split.json"), "split.json")
    for path in sorted(tree.rglob("chain_result.json")) + results:
        assert read_json(path, SPLIT_RECORD_SCHEMA)["split_sha256"] == plan.sha256(), path


def test_every_written_file_is_strict_json(tree):
    """No writer emits `NaN` or `Infinity`, the diverging runs included."""
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    files = sorted(tree.rglob("*.json")) + sorted(tree.rglob("*.jsonl"))
    diverging = {tree / "lr-chain" / "intervals" / "chain_result.json", tree / "partial" / "arch" / "phase_result.json"}
    assert diverging <= set(files)
    for path in files:
        text = path.read_text()
        for line in text.splitlines() if path.suffix == ".jsonl" else [text]:
            json.loads(line, parse_constant=reject)


# ---------------------------------------------------------------------------
# Fuzz: one mutation of one file, then the command that reads it


def _chain_schema(chain: dict) -> dict:
    """What `evaluate` requires of this chain_result.json: the plan's
    digest, every entry a numeric bin and a bool gap, and one that is no
    gap a checkpoint."""
    entries = [{"bin": NUMBER, **SERVED_ENTRY_SCHEMA, **(CHECKPOINT_SCHEMA if e.get("gap") is False else {})}
               for e in chain["entries"]]
    return {"combo": str, "spec": SPEC_SCHEMA, "entries": entries} | SPLIT_RECORD_SCHEMA


def _features_schema(result: dict) -> dict:
    """What a chain with `--chain-init features` and no `--combo` requires
    of the features phase_result.json: the winner, the winner's row, and
    the plan's digest."""
    return PHASE_WINNER_SCHEMA | {"matrix": {result["winner"]: _MATRIX_ROW}} | SPLIT_RECORD_SCHEMA


def _features_runs(tree: Path, tmp: Path) -> Path:
    """A runs dir holding the features result and the winner's checkpoints."""
    runs = tmp / "runs"
    winner = json.loads((tree / "runs" / "features" / "phase_result.json").read_text())["winner"]
    shutil.copytree(tree / "runs" / "features" / winner, runs / "features" / winner)
    shutil.copy(tree / "runs" / "features" / "phase_result.json", runs / "features")
    return runs


def _chain_from_features(tree: Path, runs: Path) -> list:
    return ["train", "--phase", "intervals", *data_args(tree), "--out", runs, "--arch", "FullyConnected",
            "--chain-init", "features", *TINY, "--epochs", "0"]


def _arch_runs(tree: Path, tmp: Path) -> Path:
    runs = tmp / "runs"
    (runs / "arch").mkdir(parents=True)
    shutil.copy(tree / "runs" / "arch" / "phase_result.json", runs / "arch")
    return runs


def _evaluate(tree: Path, tmp: Path) -> list:
    return ["evaluate", *data_args(tree), "--runs", tree / "runs", "--bootstrap-n", "5", "--out", tmp / "r.json"]


def _predict(tree: Path, tmp: Path) -> list:
    return ["predict", "--field", tree / "field.jsonl", "--interval", "1.0", "--runs", tree / "runs",
            "--out", tmp / "f.json"]


# file class -> (files it may mutate, whether it is JSON lines, the schema of
# a parsed document or line, the command that reads the file).  A class with
# its own runs dir copies the tree's inputs there; the others are mutated in
# place and restored.
CLASSES = {
    "dataset": (lambda tree, tmp: [tree / "d.jsonl"], True, lambda doc: RECORD_SCHEMA,
                lambda tree, tmp: ["pairs", "--data", tree / "d.jsonl", "--out", tmp / "p.jsonl"]),
    "pairs": (lambda tree, tmp: [tree / "pairs.jsonl"], True, lambda doc: PAIR_SCHEMA, _evaluate),
    "split": (lambda tree, tmp: [tree / "split.json"], False, lambda doc: PLAN_SCHEMA, _evaluate),
    "arch-result": (lambda tree, tmp: [_arch_runs(tree, tmp) / "arch" / "phase_result.json"], False,
                    lambda doc: PHASE_WINNER_SCHEMA,
                    lambda tree, tmp: ["train", "--phase", "intervals", *data_args(tree), "--out", tmp / "runs",
                                       "--combo", "none", *TINY, "--epochs", "0"]),
    "features-result": (lambda tree, tmp: [_features_runs(tree, tmp) / "features" / "phase_result.json"], False,
                        _features_schema, lambda tree, tmp: _chain_from_features(tree, tmp / "runs")),
    "features-manifest": (lambda tree, tmp: sorted(_features_runs(tree, tmp).rglob("manifest.json")), False,
                          lambda doc: MANIFEST_SCHEMA,
                          lambda tree, tmp: _chain_from_features(tree, tmp / "runs")),
    "interval-manifest": (lambda tree, tmp: sorted((tree / "runs" / "intervals" / "bin-1.0").rglob("manifest.json")),
                          False, lambda doc: MANIFEST_SCHEMA, _predict),
    "chain-result": (lambda tree, tmp: [tree / "runs" / "intervals" / "chain_result.json"], False, _chain_schema,
                     _evaluate),
    "report": (lambda tree, tmp: [tree / "report.json"], False, lambda doc: REPORT_SCHEMA,
               lambda tree, tmp: ["report", "--report", tree / "report.json", "--out-dir", tmp / "csv"]),
    "field-file": (lambda tree, tmp: [tree / "field.jsonl"], True, lambda doc: RECORD_SCHEMA, _predict),
}
# examples per class: the classes whose command trains take longest
EXAMPLES = {"arch-result": 12, "features-result": 12, "features-manifest": 12}

REPLACEMENTS = (None, True, 7, 2.5, "x", [], {})


def _alternatives(schema) -> list:
    return [type(None) if alt is None else alt for alt in (schema if type(schema) is tuple else (schema,))]


def _schema_at(schema, path):
    """The schema that names the value at `path`, or None."""
    for key in path:
        inner = None
        for alt in _alternatives(schema):
            if type(alt) is dict and type(key) is str:
                inner = alt.get(key, inner)
            elif type(alt) is list and type(key) is int:
                inner = alt[0] if len(alt) == 1 else alt[key] if key < len(alt) else inner
        if inner is None:
            return None
        schema = inner
    return schema


def _accepts(schema, value) -> bool:
    """Whether a value of `value`'s type may stand where `schema` names it."""
    return any(type(value) is (alt if isinstance(alt, type) else type(alt)) for alt in _alternatives(schema))


def _nodes(doc, path=()):
    """(path, value) of the document and every value inside it."""
    yield path, doc
    items = doc.items() if type(doc) is dict else enumerate(doc) if type(doc) is list else ()
    for key, value in items:
        yield from _nodes(value, (*path, key))


def _pattern(path) -> tuple:
    return tuple("*" if type(key) is int else key for key in path)


def _mutate(draw, kind, doc, schema):
    """One mutation of the parsed `doc`: (new document, whether the schema
    names what it broke).  Half the time the target is a value the schema
    names; the target's pattern (list indices as `*`) is drawn first, so a
    field of a long list is as likely as a top-level key."""
    nodes = list(_nodes(doc))
    targets = {
        "drop": [(*path, key) for path, value in nodes if type(value) is dict for key in value],
        "container": [path for path, value in nodes if type(value) in (list, dict)],
    }.get(kind) or [path for path, _ in nodes]
    named = [path for path in targets if _schema_at(schema, path) is not None]
    pool = named if named and draw(st.booleans()) else targets
    pattern = draw(st.sampled_from(sorted({_pattern(path) for path in pool})))
    path = draw(st.sampled_from([p for p in pool if _pattern(p) == pattern]))
    node, value = _schema_at(schema, path), _get(doc, path)
    if kind == "drop" and path:
        parent = _get(doc, path[:-1])
        return _replace(doc, path[:-1], {k: v for k, v in parent.items() if k != path[-1]}), node is not None
    if kind == "container" and type(value) in (list, dict):
        new = {str(i): v for i, v in enumerate(value)} if type(value) is list else list(value.values())
    else:
        new = draw(st.sampled_from([r for r in REPLACEMENTS if type(r) is not type(value)]))
    return _replace(doc, path, new), node is not None and not _accepts(node, new)


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _replace(doc, path, new):
    """A copy of `doc` with the value at `path` replaced by `new`."""
    if not path:
        return new
    copy = json.loads(json.dumps(doc))
    _get(copy, path[:-1])[path[-1]] = new
    return copy


@pytest.mark.parametrize("name", list(CLASSES))
def test_mutated_file_exits_2_naming_it_never_1(tree, name):
    files, lines, schema_of, command = CLASSES[name]

    @settings(max_examples=EXAMPLES.get(name, 30), deadline=None)
    @given(data=st.data())
    def example(data):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            path = data.draw(st.sampled_from(files(tree, tmp)), label="file")
            original = path.read_text()
            kind = data.draw(st.sampled_from(["truncate", "drop", "swap", "container"]), label="kind")
            if kind == "truncate":
                text = original[: data.draw(st.integers(0, len(original.rstrip()) - 1), label="cut")]
                # in a JSON-lines file only a cut inside a line leaves a broken line
                tail = text.split("\n")[-1] if lines else text
                broken = not _parses(tail) and (bool(tail.strip()) or not lines)
            else:
                rows = original.splitlines() if lines else [original]
                i = data.draw(st.integers(0, len(rows) - 1), label="line")
                doc, broken = _mutate(data.draw, kind, json.loads(rows[i]), schema_of(json.loads(rows[i])))
                rows[i] = json.dumps(doc)
                text = "\n".join(rows) + "\n"
            try:
                path.write_text(text)
                code, err = run(*command(tree, tmp))
            finally:
                path.write_text(original)
            assert code in (0, 2), err
            if broken:
                assert code == 2 and str(path) in err, err

    example()



@pytest.mark.parametrize("spell", [lambda d, i: float(d) if i % 2 == 0 else True if d == 1 else d,
                                   lambda d, i: float(d), lambda d, i: True if d == 1 else d],
                         ids=["mixed", "floats", "bool"])
def test_manifest_widths_of_equal_non_ints_exits_2_naming_the_field(tree, spell):
    """Widths spelled with floats or a bool equal the int widths in Python
    (`[2.0, True] == [2, 1]`), so only the schema tells them apart."""
    manifest = tree / "runs" / "intervals" / "bin-1.0" / "fold-0" / "manifest.json"
    original = manifest.read_text()
    doc = json.loads(original)
    widths = [1, *doc["spec"]["widths"][1:]]  # a width of 1, so that a bool can spell it
    doc["spec"]["widths"] = [spell(d, j) for j, d in enumerate(widths)]
    assert doc["spec"]["widths"] == widths
    bad = next(j for j, d in enumerate(doc["spec"]["widths"]) if type(d) is not int)
    try:
        manifest.write_text(json.dumps(doc))
        code, err = run(*_predict(tree, tree))
    finally:
        manifest.write_text(original)
    assert code == 2
    got = doc["spec"]["widths"][bad]
    assert err == f"error: {manifest}: spec.widths[{bad}] must be an int, got {got!r}\n"


def _parses(text: str) -> bool:
    try:
        json.loads(text)
    except ValueError:
        return False
    return True
