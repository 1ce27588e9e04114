"""Spans and counters recorded around the public functions of each hvfcast layer.

The tracer patches each function at the name its callers look it up by
(modules import ops by name, so `hvfcast.models.conv2d` and
`hvfcast.autodiff.conv2d` are different lookups).  A span is
`(id, parent, trace, name, start, end)`; ids are `"<pid>.<n>"` so spans
written by forked pool workers never collide with the parent's.  Spans and
counters are kept in memory; pool workers append theirs to one file per pid
after every job, and the parent merges those files when the pool returns.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
import os
import pickle
import time
from collections import defaultdict
from pathlib import Path

# (owner path, attribute, span name); the owner is a module or a class.
SPANNED = (
    ("hvfcast.models", "conv2d", "autodiff.conv2d"),
    ("hvfcast.models", "batch_norm", "autodiff.batch_norm"),
    ("hvfcast.models", "concat_channels", "autodiff.concat_channels"),
    ("hvfcast.models", "relu", "autodiff.relu"),
    ("hvfcast.autodiff", "relu", "autodiff.relu"),
    ("hvfcast.models", "dense", "autodiff.dense"),
    ("hvfcast.trainer", "masked_mae", "autodiff.masked_mae"),
    ("hvfcast.trainer", "adam_step", "autodiff.adam_step"),
    ("hvfcast.autodiff.Tensor", "backward", "autodiff.backward"),
    ("hvfcast.models.Model", "snapshot", "models.snapshot"),
    ("hvfcast.models", "build_model", "models.build_model"),
    ("hvfcast.trainer", "build_model", "models.build_model"),
    ("hvfcast.trainer", "train_model", "trainer.train_model"),
    ("hvfcast.trainer", "evaluate_masked_mae", "trainer.evaluate_masked_mae"),
    ("hvfcast.cli", "read_pairs", "pipeline.read_pairs"),
    ("hvfcast.cli", "encode_input", "pipeline.encode_input"),
    ("hvfcast.evaluation", "encode_input", "pipeline.encode_input"),
    ("hvfcast.cli", "evaluate_testset", "evaluation.evaluate_testset"),
    ("hvfcast.cli", "ensemble_predict", "evaluation.ensemble_predict"),
    ("hvfcast.evaluation", "ensemble_predict", "evaluation.ensemble_predict"),
    ("hvfcast.evaluation", "baseline_forecast", "evaluation.baseline_forecast"),
    ("hvfcast.cli", "generate_cohort", "synthsim.generate_cohort"),
)

CLI_COMMANDS = ("simulate", "pairs", "split", "train", "evaluate", "predict")
IMPORT_MODULES = (
    "autodiff", "cli", "domain", "evaluation", "models", "pipeline", "seeds", "synthsim", "trainer",
)

# Per-layer metric name -> unit; the traced run reports exactly these.
LAYER_UNITS: dict[str, str] = {}
for _op in ("conv2d", "batch_norm", "backward", "adam_step", "dense"):
    LAYER_UNITS[f"autodiff.{_op}.calls"] = "count"
    LAYER_UNITS[f"autodiff.{_op}.s"] = "s"
for _op in ("concat_channels", "relu", "masked_mae"):
    LAYER_UNITS[f"autodiff.{_op}.s"] = "s"
LAYER_UNITS.update({
    "autodiff.tensor.count": "count",
    "autodiff.tensor.grad_bytes": "B",
    "autodiff.graph.gc_collected": "count",
})
for _mode in ("train", "infer"):
    LAYER_UNITS[f"models.forward.{_mode}.calls"] = "count"
    LAYER_UNITS[f"models.forward.{_mode}.s"] = "s"
LAYER_UNITS["models.forward.infer.batch_mean"] = "count"
for _fn in ("load_weights", "save_weights"):
    LAYER_UNITS[f"models.{_fn}.calls"] = "count"
    LAYER_UNITS[f"models.{_fn}.s"] = "s"
    LAYER_UNITS[f"models.{_fn}.bytes"] = "B"
LAYER_UNITS["models.load_weights.used_ratio"] = "ratio"
for _name in ("models.build_model", "models.snapshot", "trainer.train_model",
              "trainer.evaluate_masked_mae", "pipeline.encode_pairs", "pipeline.encode_input",
              "evaluation.ensemble_predict", "evaluation.baseline_forecast", "domain.load_dataset"):
    LAYER_UNITS[f"{_name}.calls"] = "count"
    LAYER_UNITS[f"{_name}.s"] = "s"
LAYER_UNITS.update({
    "trainer.pool.jobs": "count",
    "trainer.pool.submit_bytes": "B",
    "trainer.pool.worker_busy_s": "s",
    "trainer.pool.utilization": "ratio",
    "pipeline.encode_pairs.rows": "count",
    "pipeline.encode_pairs.unique_ratio": "ratio",
    "pipeline.read_pairs.s": "s",
    "evaluation.evaluate_testset.s": "s",
    "evaluation.evaluate_testset.self_s": "s",
    "domain.load_dataset.records": "count",
    "synthsim.generate_cohort.s": "s",
})
for _cmd in CLI_COMMANDS:
    LAYER_UNITS[f"cli.main.{_cmd}.s"] = "s"
for _mod in IMPORT_MODULES + ("total",):
    LAYER_UNITS[f"cli.import_ms.{_mod}"] = "ms"


def _resolve(path: str):
    parts = path.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ImportError(path)


class Tracer:
    """In-memory spans and counters for one benchmark process and its forks."""

    def __init__(self, spill_dir: Path):
        self.pid = os.getpid()
        self.spill_dir = Path(spill_dir)
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[str] = []
        self._seq = 0
        self._trace: str | None = None
        self._patches: list[tuple] = []
        # per-command sets behind the unique/used ratios
        self._pair_keys: set = set()
        self._loaded: set[int] = set()
        self._used: set[int] = set()

    # -- spans ------------------------------------------------------------

    def _open(self) -> tuple[str, str | None, float]:
        self._seq += 1
        sid = f"{os.getpid()}.{self._seq}"
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter()

    def _close(self, name: str, sid: str, parent: str | None, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, self._trace, name, start, end))

    def call(self, name: str, fn, *args, **kwargs):
        sid, parent, start = self._open()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, sid, parent, start)

    def command(self, argv: list[str], fn):
        """Root span `cli.main.<command>`; one trace id per CLI command."""
        self._trace = f"{os.getpid()}.cmd{self._seq + 1}"
        try:
            return self.call(f"cli.main.{argv[0]}", fn, argv)
        finally:
            self.counters["pipeline.encode_pairs.distinct"] += len(self._pair_keys)
            self.counters["models.load_weights.loaded"] += len(self._loaded)
            self.counters["models.load_weights.used"] += len(self._loaded & self._used)
            self._pair_keys.clear()
            self._loaded.clear()
            self._used.clear()
            self._trace = None

    # -- patching ---------------------------------------------------------

    def _patch(self, owner_path: str, attr: str, make) -> None:
        owner = _resolve(owner_path)
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make(original))
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _spanned(self, name: str):
        def make(fn):
            def wrapper(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
            return wrapper
        return make

    def install(self) -> None:
        for owner, attr, name in SPANNED:
            self._patch(owner, attr, self._spanned(name))
        self._patch("hvfcast.autodiff.Tensor", "__init__", self._tensor_init)
        self._patch("hvfcast.models.Model", "forward", self._forward)
        for owner in ("hvfcast.cli", "hvfcast.trainer"):
            self._patch(owner, "load_weights", self._load_weights)
        self._patch("hvfcast.trainer", "save_weights", self._save_weights)
        self._patch("hvfcast.cli", "load_dataset", self._load_dataset)
        self._patch("hvfcast.trainer", "encode_pairs", self._encode_pairs)
        self._patch("hvfcast.trainer", "_run_jobs", self._run_jobs)
        for worker in ("_run_phase_job", "_run_chain_job"):
            self._patch("hvfcast.trainer", worker, self._job)
        gc.callbacks.append(self._gc)
        os.register_at_fork(after_in_child=self._forked)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        if self._gc in gc.callbacks:
            gc.callbacks.remove(self._gc)

    def _gc(self, phase: str, info: dict) -> None:
        if phase == "stop":
            self.counters["autodiff.graph.gc_collected"] += info["collected"]

    def _tensor_init(self, fn):
        def wrapper(tensor, *args, **kwargs):
            fn(tensor, *args, **kwargs)
            self.counters["autodiff.tensor.count"] += 1
            self.counters["autodiff.tensor.grad_bytes"] += tensor.grad.nbytes
        return wrapper

    def _forward(self, fn):
        def wrapper(model, x, mode="infer"):
            if mode == "infer":
                self.counters["models.forward.infer.rows"] += x.shape[0]
                self._used.add(id(model))
            return self.call(f"models.forward.{mode}", fn, model, x, mode)
        return wrapper

    def _load_weights(self, fn):
        def wrapper(dir_path):
            model = self.call("models.load_weights", fn, dir_path)
            self.counters["models.load_weights.bytes"] += (Path(dir_path) / "weights.bin").stat().st_size
            self._loaded.add(id(model))
            return model
        return wrapper

    def _save_weights(self, fn):
        def wrapper(model, dir_path, provenance=None):
            out = self.call("models.save_weights", fn, model, dir_path, provenance)
            self.counters["models.save_weights.bytes"] += (Path(out) / "weights.bin").stat().st_size
            return out
        return wrapper

    def _load_dataset(self, fn):
        def wrapper(path):
            fields = self.call("domain.load_dataset", fn, path)
            self.counters["domain.load_dataset.records"] += len(fields)
            return fields
        return wrapper

    def _encode_pairs(self, fn):
        def wrapper(pairs, combo):
            self.counters["pipeline.encode_pairs.rows"] += len(pairs)
            self._pair_keys.update(
                (p.input.patient_id, p.input.eye, p.input.test_index, p.target.test_index, combo.name)
                for p in pairs
            )
            return self.call("pipeline.encode_pairs", fn, pairs, combo)
        return wrapper

    # -- process pool -----------------------------------------------------

    def _run_jobs(self, fn):
        def wrapper(jobs, worker, workers):
            if workers <= 1:
                return fn(jobs, worker, workers)
            self.counters["trainer.pool.jobs"] += len(jobs)
            self.counters["trainer.pool.submit_bytes"] += sum(
                len(pickle.dumps(job, protocol=pickle.HIGHEST_PROTOCOL)) for job in jobs
            )
            start = time.perf_counter()
            try:
                return self.call("trainer.pool", fn, jobs, worker, workers)
            finally:
                self.counters["trainer.pool.slot_s"] += (time.perf_counter() - start) * workers
                self._merge_spills()
        return wrapper

    def _job(self, fn):
        # keeps fn's module and qualname, so the pool pickles it by reference
        # and a forked worker resolves it to this same wrapper
        def wrapper(job):
            result = self.call("trainer.job", fn, job)
            if os.getpid() != self.pid:
                self._spill()
            return result
        return wrapper

    def _forked(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def _spill(self) -> None:
        path = self.spill_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": self.spans, "counters": self.counters}) + "\n")
        self.spans.clear()
        self.counters.clear()

    def _merge_spills(self) -> None:
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                chunk = json.loads(line)
                self.spans.extend(tuple(s) for s in chunk["spans"])
                for key, value in chunk["counters"].items():
                    self.counters[key] += value
            path.unlink()

    # -- aggregation ------------------------------------------------------

    def layer_metrics(self, import_ms: dict[str, float]) -> dict[str, float]:
        return layer_metrics(self.spans, self.counters, self.pid, import_ms)


def self_times(spans) -> dict[str, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children may overlap (parallel pool jobs under one pool span); each
    child interval is clipped to its parent's before the union is taken.
    """
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _trace, _name, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _parent, _trace, _name, start, end in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[sid] = (end - start) - covered
    return out


def layer_metrics(spans, counters, root_pid: int, import_ms: dict[str, float]) -> dict[str, float]:
    """Fold spans and counters into the LAYER_UNITS metrics (absent ones are 0)."""
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    busy = 0.0
    for sid, _parent, _trace, name, start, end in spans:
        calls[name] += 1
        total[name] += end - start
        if name == "trainer.job" and not sid.startswith(f"{root_pid}."):
            busy += end - start
    selfs = self_times(spans)
    metrics = {name: 0.0 for name in LAYER_UNITS}
    for name in LAYER_UNITS:
        base, _, kind = name.rpartition(".")
        if kind == "calls":
            metrics[name] = float(calls[base])
        elif kind == "s" and base in total:
            metrics[name] = total[base]
    metrics["evaluation.evaluate_testset.self_s"] = sum(
        selfs[s[0]] for s in spans if s[3] == "evaluation.evaluate_testset"
    )
    for key in ("autodiff.tensor.count", "autodiff.tensor.grad_bytes", "autodiff.graph.gc_collected",
                "models.load_weights.bytes", "models.save_weights.bytes", "domain.load_dataset.records",
                "pipeline.encode_pairs.rows", "trainer.pool.jobs", "trainer.pool.submit_bytes"):
        metrics[key] = float(counters.get(key, 0.0))
    infer_calls = calls["models.forward.infer"]
    if infer_calls:
        metrics["models.forward.infer.batch_mean"] = counters.get("models.forward.infer.rows", 0.0) / infer_calls
    if counters.get("models.load_weights.loaded"):
        metrics["models.load_weights.used_ratio"] = (
            counters["models.load_weights.used"] / counters["models.load_weights.loaded"]
        )
    if counters.get("pipeline.encode_pairs.rows"):
        metrics["pipeline.encode_pairs.unique_ratio"] = (
            counters.get("pipeline.encode_pairs.distinct", 0.0) / counters["pipeline.encode_pairs.rows"]
        )
    metrics["trainer.pool.worker_busy_s"] = busy
    if counters.get("trainer.pool.slot_s"):
        metrics["trainer.pool.utilization"] = busy / counters["trainer.pool.slot_s"]
    for mod, ms in import_ms.items():
        metrics[f"cli.import_ms.{mod}"] = ms
    return metrics
