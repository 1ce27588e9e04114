"""scripts/bytes.py at its smallest size: two runs of this checkout record
the same bytes, and an edit to a copy is named where it is.  No digest is
compared with a stored one; the BLAS build may move a float's last bits."""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bytes.py"


def bytes_py(*argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, argv)], capture_output=True, text=True)


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("bytes")
    for name in ("a", "b"):
        proc = bytes_py("run", ROOT, root / name, "--size", "small")
        assert proc.returncode == 0, proc.stderr[-2000:]
    return root / "a", root / "b"


def test_two_runs_diff_empty(two_runs):
    a, b = two_runs
    proc = bytes_py("diff", a, b)
    assert (proc.returncode, proc.stdout) == (0, f"identical: {a} and {b}\n")
    record = json.loads((a / "bytes.json").read_text())
    # the pipeline ran: every command up to the zero-epoch arch phase exits 0,
    # then come the zero-epoch chain (0), the diverging chain (3) and the
    # designed exit-2 cases
    assert [c["exit"] for c in record["commands"]] == [0] * 22 + [2, 0, 3, 2, 2, 2, 2, 2]
    assert not any(path.endswith("run_manifest.json") for path in record["files"])
    report = (a / "tree" / "w1" / "report.json").read_bytes()
    assert record["files"]["w1/report.json"] == hashlib.sha256(report).hexdigest()


def test_one_byte_edits_are_named(two_runs, tmp_path):
    a, b = two_runs
    copy = tmp_path / "c"
    shutil.copytree(b, copy)
    record = json.loads((copy / "bytes.json").read_text())
    report = copy / "tree" / "w1" / "report.json"
    text = report.read_text()
    assert text.count('"seed": 11') == 1
    report.write_text(text.replace('"seed": 11', '"seed": 12'))
    weights = copy / "tree" / "w1" / "runs" / "intervals" / "bin-1.0" / "fold-0" / "weights.bin"
    blob = bytearray(weights.read_bytes())
    blob[17] ^= 1
    weights.write_bytes(bytes(blob))
    for path in (report, weights):
        name = path.relative_to(copy / "tree").as_posix()
        record["files"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
    record["commands"][1]["stdout"] += "!"
    (copy / "bytes.json").write_text(json.dumps(record))

    proc = bytes_py("diff", a, copy)
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        "command 2 (pairs -> pairs.jsonl): stdout differs",
        "w1/report.json: differs at key bootstrap.seed",
        "w1/runs/intervals/bin-1.0/fold-0/weights.bin: differs at byte 17",
    ]
