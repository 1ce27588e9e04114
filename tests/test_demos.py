"""Every demo script runs to completion against the current package."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo, tmp_path):
    # TMPDIR keeps demo 05's mkdtemp work tree inside the test's directory
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=tmp_path, env=child_env(TMPDIR=str(tmp_path)),
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
