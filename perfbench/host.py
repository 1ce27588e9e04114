"""Host facts recorded with every result, and the fresh-interpreter probes."""

from __future__ import annotations

import gc
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import IMPORT_MODULES

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# `python -m hvfcast.cli` would warn through runpy, so the probes call main.
_VERSION_CODE = "import sys; from hvfcast.cli import main; sys.exit(main(['--version']))"


def _cpu_model() -> str | None:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return platform.processor() or None
    match = re.search(r"^model name\s*:\s*(.+)$", text, re.MULTILINE)
    return match.group(1).strip() if match else None


def _git_commit(root: Path) -> str | None:
    """HEAD of a git checkout, read from .git without starting git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


def _openblas_version() -> str | None:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def host_facts(root: Path) -> dict:
    """Facts, not gated metrics: a line-count metric would fail every change that adds a line."""
    import numpy
    import scipy

    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((root / "src").rglob("*.py"))
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _openblas_version(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_ENV},
        "git_commit": _git_commit(root),
        "src_py_lines": src_lines,
    }


# The same code runs up to 1.8x faster or slower for minutes at a time on a
# shared KVM host.  A fixed kernel of the benchmark's own, which no change to
# src/ can speed up, is timed before every unit of a run; each timing is then
# scaled to the host speed at which the kernel takes REFERENCE_MS (see README).
REFERENCE_MS = 32.0


def speed_probe() -> float:
    """Wall ms of a fixed mix of interpreter-bound work (JSON, dicts) and BLAS-bound work (GEMM)."""
    import json

    import numpy as np

    rng = np.random.default_rng(0)
    lines = [json.dumps({"id": i, "values": [round(float(v), 2) for v in rng.uniform(0, 40, 54)]})
             for i in range(40)]
    w, cols = rng.normal(size=(24, 144)), rng.normal(size=(32, 144, 72))
    # the collector would charge the probe for garbage the previous unit left
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(16):
            for line in lines:
                json.loads(line)
        counts: dict[int, int] = {}
        for i in range(60000):
            counts[i % 97] = counts.get(i % 97, 0) + i
        for _ in range(40):
            np.matmul(w, cols)
        return (time.perf_counter() - start) * 1000.0
    finally:
        gc.enable()


def probe_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def cold_start(root: Path, expected: str) -> tuple[float, bool]:
    """Wall s of a fresh interpreter running `hvfcast --version`, and whether it printed `expected`."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _VERSION_CODE], env=probe_env(root), cwd=root,
        capture_output=True, text=True, timeout=60,
    )
    elapsed = time.perf_counter() - start
    return elapsed, proc.returncode == 0 and proc.stdout.strip() == expected


def import_ms(root: Path, repeats: int) -> dict[str, float]:
    """Median cumulative import ms per hvfcast module (and the package as `total`)."""
    samples: dict[str, list[float]] = {}
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import hvfcast.cli"],
            env=probe_env(root), cwd=root, capture_output=True, text=True, timeout=60, check=True,
        )
        for line in proc.stderr.splitlines():
            # "import time:  self [us] | cumulative | imported package"
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            name = parts[2].strip()
            if name == "hvfcast":
                key = "total"
            elif name.startswith("hvfcast.") and name[8:] in IMPORT_MODULES:
                key = name[8:]
            else:
                continue
            samples.setdefault(key, []).append(int(parts[1]) / 1000.0)
    return {key: statistics.median(values) for key, values in samples.items()}
