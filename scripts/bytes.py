"""Byte-identity harness: run one canonical seeded pipeline on a checkout,
record every byte it wrote and said, and diff two such records.

    python scripts/bytes.py run CHECKOUT OUT [--size full|small]
    python scripts/bytes.py diff A B

`run` drives the `hvfcast` CLI of CHECKOUT's `src` through one fixed
command list (`pipeline`), each command in a fresh Python, in the working
directory OUT/tree and with relative paths only, so no output names OUT.
It writes OUT/bytes.json: the size, each command's argv, exit code, stdout
and stderr, and `path -> sha256` for every file under OUT/tree apart from
the run manifests, which hold timestamps.  Children run with one BLAS
thread and without HVFCAST_SEED.

`diff` compares two records and names each differing file and, for a
JSON or JSON-lines file whose tree is still there, the first key path that
differs (`per_bin[3].mae`, `line 12: values[0]`); for any other file, the
first differing byte.  It exits 1 on any difference and 0 on none.

The full size simulates, pairs and splits the main cohort and three more
(no noise, an archetype mix, 1-15 tests per eye).  On the main one it runs
the selection phases, two chains, evaluate, report and predict at
`--workers 1` and `2`, and once: a zero-epoch arch phase and chain, a
diverging (`--lr 1e300`) chain, and the designed exit-2 cases of predict
and evaluate.  The small size runs the same commands at one worker count,
one epoch and narrower widths.  A record holds no digest to compare with
across hosts: the BLAS build may move the last bits of a float.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

RECORD = "bytes.json"
TREE = "tree"
SIZES = {
    "full": {"workers": (1, 2), "epochs": "2", "widths": "2,4,4", "fc_hidden": "8", "bootstrap_n": "100"},
    "small": {"workers": (1,), "epochs": "1", "widths": "2,2,2", "fc_hidden": "4", "bootstrap_n": "20"},
}
PATIENTS, SEED = "40", "11"
# further cohorts that are simulated, paired and split, but not trained on
COHORTS = {
    "no-noise": ["--no-noise"],
    "mix": ["--archetype", "normal=1", "--archetype", "diffuse=2"],
    "tests-1-15": ["--tests-min", "1", "--tests-max", "15"],
}
_MAIN = "import sys; from hvfcast.cli import main; sys.exit(main(sys.argv[1:]))"


def pipeline(size: str, tree: Path):
    """The canonical command list, as argv lists for `hvfcast`; between
    commands it prepares the inputs of the next ones in `tree`."""
    s = SIZES[size]
    data = ["--data", "data.jsonl", "--pairs", "pairs.jsonl", "--split", "split.json"]
    scale = ["--epochs", s["epochs"], "--widths", s["widths"], "--fc-hidden", s["fc_hidden"], "--seed", SEED]
    yield ["simulate", "--patients", PATIENTS, "--seed", SEED, "--out", "data.jsonl"]
    yield ["pairs", "--data", "data.jsonl", "--out", "pairs.jsonl"]
    yield ["split", "--data", "data.jsonl", "--seed", SEED, "--out", "split.json"]
    for name, options in COHORTS.items():
        yield ["simulate", "--patients", "20", "--seed", SEED, *options, "--out", f"cohorts/{name}.jsonl"]
        yield ["pairs", "--data", f"cohorts/{name}.jsonl", "--out", f"cohorts/{name}-pairs.jsonl"]
        yield ["split", "--data", f"cohorts/{name}.jsonl", "--seed", SEED, "--out", f"cohorts/{name}-split.json"]
    first = (tree / "data.jsonl").read_text().splitlines()[0]
    (tree / "field.jsonl").write_text(first + "\n")
    record = json.loads(first)
    by_record = ["--data", "data.jsonl", "--patient", record["patient_id"], "--eye", record["eye"]]

    def evaluate(runs, out):
        return ["evaluate", *data, "--runs", runs, "--bootstrap-seed", SEED, "--bootstrap-n", s["bootstrap_n"],
                "--out", out]

    for workers in s["workers"]:
        w = f"w{workers}"
        train = ["train", *data, *scale, "--workers", str(workers)]
        yield [*train, "--phase", "arch", "--out", f"{w}/runs"]
        yield [*train, "--phase", "features", "--out", f"{w}/runs"]
        yield [*train, "--phase", "intervals", "--chain-init", "features", "--out", f"{w}/runs"]
        yield [*train, "--phase", "intervals", "--arch", "Cascade-1", "--combo", "age", "--freeze", "last",
               "--out", f"{w}/last"]
        yield evaluate(f"{w}/runs", f"{w}/report.json")
        yield evaluate(f"{w}/last", f"{w}/report-last.json")
        yield ["report", "--report", f"{w}/report.json", "--out-dir", f"{w}/csv"]
        yield ["predict", *by_record, "--test-index", "1", "--interval", "2.0", "--runs", f"{w}/runs",
               "--out", f"{w}/predict.json"]
        yield ["predict", "--field", "field.jsonl", "--interval", "1.0", "--runs", f"{w}/runs",
               "--out", f"{w}/predict-field.json"]
        yield ["predict", "--field", "field.jsonl", "--interval", "3.0", "--runs", f"{w}/last",
               "--out", f"{w}/predict-last.json"]

    train = ["train", *data, *scale]
    yield [*train, "--phase", "arch", "--epochs", "0", "--out", "zero/runs"]
    yield [*train, "--phase", "intervals", "--arch", "Cascade-1", "--combo", "age", "--epochs", "0",
           "--out", "zero/chain"]
    yield [*train, "--phase", "intervals", "--arch", "Cascade-1", "--combo", "age", "--lr", "1e300",
           "--out", "diverged/runs"]
    # designed exit-2 cases: a missing record, and a bin with no model
    yield ["predict", *by_record, "--test-index", "999", "--interval", "2.0", "--runs", "w1/runs",
           "--out", "missing.json"]
    yield ["predict", "--field", "field.jsonl", "--interval", "1.0", "--runs", "diverged/runs",
           "--out", "no-model.json"]
    chain = json.loads((tree / "w1" / "runs" / "intervals" / "chain_result.json").read_text())
    served = {b: [e["checkpoint"] for e in chain["entries"] if e["bin"] == b and not e["gap"]] for b in (1.0, 2.0)}
    # two fold directories of bin 1.0 swapped
    runs = tree / "swapped" / "runs"
    shutil.copytree(tree / "w1" / "runs" / "intervals", runs / "intervals")
    a, b = (runs / checkpoint for checkpoint in served[1.0][:2])
    a.rename(a.with_name("swapping"))
    b.rename(a)
    a.with_name("swapping").rename(b)
    yield ["predict", "--field", "field.jsonl", "--interval", "1.0", "--runs", "swapped/runs",
           "--out", "swapped.json"]
    # bin 2.0's first served fold replaced by an arch checkpoint of another candidate
    runs = tree / "foreign" / "runs"
    shutil.copytree(tree / "w1" / "runs" / "intervals", runs / "intervals")
    winner = json.loads((tree / "w1" / "runs" / "arch" / "phase_result.json").read_text())["winner"]
    other = next(d for d in sorted((tree / "w1" / "runs" / "arch").iterdir()) if d.is_dir() and d.name != winner)
    for name in ("manifest.json", "weights.bin"):
        shutil.copy(other / "fold-0" / name, runs / served[2.0][0] / name)
    yield ["predict", "--field", "field.jsonl", "--interval", "2.0", "--runs", "foreign/runs",
           "--out", "foreign.json"]
    yield evaluate("foreign/runs", "foreign-report.json")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def files_of(tree: Path) -> dict[str, str]:
    """`path -> sha256` of every file under `tree` but the run manifests."""
    return {p.relative_to(tree).as_posix(): _sha256(p) for p in sorted(tree.rglob("*"))
            if p.is_file() and not p.name.endswith("run_manifest.json")}


def run(checkout: Path, out: Path, size: str) -> dict:
    """Run `pipeline` on `checkout` under `out` and write its record."""
    src = checkout.resolve() / "src"
    if not (src / "hvfcast" / "cli.py").is_file():
        raise SystemExit(f"{checkout}: no src/hvfcast/cli.py")
    tree = out / TREE
    if tree.exists():
        raise SystemExit(f"{tree} exists; give an OUT that holds no earlier run")
    tree.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k != "HVFCAST_SEED"}
    env |= {"PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    commands = []
    for argv in pipeline(size, tree):
        proc = subprocess.run([sys.executable, "-c", _MAIN, *argv], cwd=tree, env=env, capture_output=True,
                              text=True)
        commands.append({"argv": argv, "exit": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr})
    record = {"size": size, "commands": commands, "files": files_of(tree)}
    (out / RECORD).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def first_difference(a, b, path: str = "") -> str | None:
    """The key path of the first place where JSON values `a` and `b` differ,
    in sorted-key order, or None where they are equal."""
    if type(a) is not type(b):
        return path or "<root>"
    if isinstance(a, dict):
        for key in sorted(a.keys() | b.keys()):
            where = f"{path}.{key}" if path else key
            if key not in a or key not in b:
                return where
            found = first_difference(a[key], b[key], where)
            if found is not None:
                return found
        return None
    if isinstance(a, list):
        for i, (x, y) in enumerate(zip(a, b)):
            found = first_difference(x, y, f"{path}[{i}]")
            if found is not None:
                return found
        return None if len(a) == len(b) else f"{path}[{min(len(a), len(b))}]"
    return None if a == b else path or "<root>"


def describe(path: str, a: bytes, b: bytes) -> str:
    """Where the bytes `a` and `b` of the file at `path` first differ."""
    try:
        if path.endswith(".json"):
            found = first_difference(json.loads(a), json.loads(b))
            return f"key {found}" if found else "formatting"
        if path.endswith(".jsonl"):
            lines_a, lines_b = a.decode().splitlines(), b.decode().splitlines()
            for i, (x, y) in enumerate(zip(lines_a, lines_b), start=1):
                if x != y:
                    found = first_difference(json.loads(x), json.loads(y))
                    return f"line {i}: {found or 'formatting'}"
            return f"line {min(len(lines_a), len(lines_b)) + 1}"
    except (ValueError, UnicodeDecodeError):
        pass  # not valid JSON on one side: name the byte
    offset = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return f"byte {offset}"


def diff(a: Path, b: Path) -> list[str]:
    """One line per difference between the records under `a` and `b`."""
    ra, rb = (json.loads((d / RECORD).read_text()) for d in (a, b))
    out = []
    if ra["size"] != rb["size"]:
        out.append(f"size: {ra['size']} vs {rb['size']}")
    ca, cb = ra["commands"], rb["commands"]
    if len(ca) != len(cb):
        out.append(f"commands: {len(ca)} vs {len(cb)}")
    for i, (x, y) in enumerate(zip(ca, cb), start=1):
        name = f"{x['argv'][0]} -> {x['argv'][x['argv'].index('--out') + 1]}" if "--out" in x["argv"] else x["argv"][0]
        for key in ("argv", "exit", "stdout", "stderr"):
            if x[key] != y[key]:
                shown = f": {x[key]} vs {y[key]}" if key == "exit" else ""
                out.append(f"command {i} ({name}): {key} differs{shown}")
    fa, fb = ra["files"], rb["files"]
    for side, mine, theirs in ((a, fa, fb), (b, fb, fa)):
        for path, n in _only_in(mine, theirs).items():
            out.append(f"{path}: only in {side}" + (f" ({n} files)" if path.endswith("/") else ""))
    for path in sorted(fa.keys() & fb.keys()):
        if fa[path] != fb[path]:
            pa, pb = a / TREE / path, b / TREE / path
            where = describe(path, pa.read_bytes(), pb.read_bytes()) if pa.is_file() and pb.is_file() else "sha256"
            out.append(f"{path}: differs at {where}")
    return out


def _only_in(mine: dict, theirs: dict) -> dict[str, int]:
    """The files of `mine` missing from `theirs`, each named by its
    shallowest directory that holds no file of `theirs` (`dir/`, with its
    file count) or else by its own path."""
    held = {str(parent) for path in theirs for parent in Path(path).parents}
    found: dict[str, int] = {}
    for path in sorted(mine.keys() - theirs.keys()):
        parents = [str(d) for d in reversed(Path(path).parents) if str(d) != "."]
        top = next((d + "/" for d in parents if d not in held), path)
        found[top] = found.get(top, 0) + 1
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("run", help="run the canonical pipeline on a checkout and record it")
    p.add_argument("checkout", type=Path)
    p.add_argument("out", type=Path)
    p.add_argument("--size", choices=SIZES, default="full")
    p = sub.add_parser("diff", help="compare two records; exit 1 on any difference")
    p.add_argument("a", type=Path)
    p.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.mode == "run":
        record = run(args.checkout, args.out, args.size)
        failed = sum(1 for c in record["commands"] if c["exit"])
        print(f"{len(record['commands'])} commands ({failed} exited non-zero), "
              f"{len(record['files'])} files -> {args.out / RECORD}")
        return 0
    found = diff(args.a, args.b)
    print("\n".join(found) if found else f"identical: {args.a} and {args.b}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
