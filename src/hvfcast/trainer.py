"""Training harness: epoch loop, the two selection phases, and the interval chain.

Phase 1 trains nine candidate architectures on the 1.0-year bin, once per
cross-validation fold, and keeps the one with the lowest mean of per-fold
best validation MAEs.  Phase 2 repeats the protocol over the 16 clinical
feature combinations.  Phase 3 trains the winning configuration on all ten
horizon bins per fold, initializing each bin from the previous bin's frozen
weights (forward transfer), yielding up to 10 bins x 10 folds = 100
checkpointed models.  Each phase returns the dict it writes as its
`phase_result.json` or `chain_result.json`, as `train_model` returns the
record a job's `history.json` starts from.

Every training step derives its own RNG streams from (seed, phase,
candidate or bin label, fold), so results are bit-identical whether jobs
run sequentially or on a process pool.
"""

from __future__ import annotations

import functools
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, asdict, replace
from pathlib import Path

import numpy as np

from .autodiff import AdamState, adam_step, masked_mae
from .domain import NUMBER, DataError, expect, read_json, valid_mask_array, write_json
from .models import (
    MANIFEST_NAME,
    SPEC_SCHEMA,
    Model,
    ModelSpec,
    build_model,
    count_parameters_spec,
    load_weights,
    published_comparison,
    save_weights,
    weights_hash,
)
from .pipeline import BIN_CENTERS, FeatureCombo, FieldPair, SplitPlan, encode_pairs
from .seeds import derive_seed

PHASE_ARCH = "arch"
PHASE_FEATURES = "features"
PHASE_INTERVALS = "intervals"
PHASE_RESULT = "phase_result.json"
CHAIN_RESULT = "chain_result.json"

DESK_WIDTHS = (8, 16, 24)
DESK_EPOCHS = 60
FREEZE_MODES = ("best", "last")  # snapshot at the best validation epoch, or the final one
PAPER_EPOCHS = 1000


class TrainingDiverged(RuntimeError):
    """A job hit a float fault (see `train_model`) and carries the hash of
    its initial weights, or a phase lost every candidate to one."""

    def __init__(self, message: str, initial_hash: str | None = None):
        super().__init__(message)
        self.initial_hash = initial_hash


@dataclass(frozen=True)
class TrainConfig:
    """Desk-scale defaults, checked when built; paper-scale (1000 epochs,
    widths 64/128/256) stays behind an explicit flag."""

    epochs: int = DESK_EPOCHS
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0
    widths: tuple[int, int, int] = DESK_WIDTHS
    fc_hidden: int = 2048
    freeze: str = "best"  # one of FREEZE_MODES

    def __post_init__(self):
        if self.epochs < 0:
            raise DataError("epochs must be >= 0")
        if self.batch_size < 1:
            raise DataError("batch_size must be >= 1")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise DataError(f"lr must be finite and > 0, got {self.lr!r}")
        if self.freeze not in FREEZE_MODES:
            raise DataError(f"freeze must be 'best' or 'last', got {self.freeze!r}")

    def to_json_dict(self) -> dict:
        return asdict(self) | {"widths": list(self.widths)}


def evaluate_masked_mae(model: Model, xs: np.ndarray, ys: np.ndarray, batch_size: int = 32) -> float:
    """Masked MAE over a dataset in infer mode, fixed batch order."""
    mask = valid_mask_array()
    n = xs.shape[0]
    if n == 0:
        raise DataError("cannot evaluate on an empty set")
    total = 0.0
    n_mask = int(mask.sum())
    for start in range(0, n, batch_size):
        xb = xs[start : start + batch_size]
        yb = ys[start : start + batch_size]
        out = model.forward(xb, mode="infer")
        loss = masked_mae(out, yb, mask)
        total += float(loss.data) * xb.shape[0] * n_mask
    return total / (n * n_mask)


def train_model(
    model: Model,
    train_data: tuple[np.ndarray, np.ndarray],
    val_data: tuple[np.ndarray, np.ndarray],
    cfg: TrainConfig,
    shuffle_seed: int | None = None,
) -> dict:
    """Mini-batch Adam on the masked MAE loss; returns the history that a
    job's `history.json` starts from: the per-epoch `train_loss` and
    `val_mae`, `best_epoch` and `best_val_mae` (None with no epoch), and
    the `initial_weights_sha256` and `best_weights_sha256` of the weights.

    Validation MAE is measured in infer mode at the end of every epoch; the
    weights of the best epoch are snapshotted and restored into the model
    before returning (`cfg.freeze == "last"` keeps the final epoch instead).
    With epochs=0 the model is left untouched and the snapshot is the
    initial state.  Deterministic for a fixed (model seed, shuffle seed).

    Every float fault is a FloatingPointError, caught here once and raised
    as TrainingDiverged naming `epoch E, batch B` or `epoch E, validation`:
    numpy's own, under the error state set here inside the job so that pool
    workers have it too, and those of the finite checks of the epoch's loss
    sum, the gradients (`adam_step`) and the validation MAE, which a BLAS
    call on worker threads can make non-finite without any signal.
    """
    train_x, train_y = train_data
    val_x, val_y = val_data
    if cfg.epochs > 0 and (train_x.shape[0] == 0 or val_x.shape[0] == 0):
        raise DataError("training needs nonempty train and validation sets")
    mask = valid_mask_array()
    n_mask = int(mask.sum())
    n = train_x.shape[0]

    initial_hash = weights_hash(model)
    rng = np.random.default_rng(cfg.seed if shuffle_seed is None else shuffle_seed)
    adam = AdamState(lr=cfg.lr)
    train_losses: list[float] = []
    val_maes: list[float] = []
    best_epoch: int | None = None
    best_snap = model.snapshot()

    try:  # a diverging job stops at its first float fault, and numpy prints no warning
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for epoch in range(cfg.epochs):
                order = rng.permutation(n)
                epoch_abs = 0.0
                for batch, start in enumerate(range(0, n, cfg.batch_size)):
                    idx = order[start : start + cfg.batch_size]
                    where = f"epoch {epoch}, batch {batch}"
                    out = model.forward(train_x[idx], mode="train")
                    loss = masked_mae(out, train_y[idx], mask)
                    # Python floats, so the sum overflows without a signal: checking
                    # it checks this batch's loss and the epoch's loss in one
                    epoch_abs += float(loss.data) * idx.shape[0] * n_mask
                    if not np.isfinite(epoch_abs):
                        raise FloatingPointError("non-finite loss")
                    loss.backward()
                    adam_step(model.params, adam)
                train_losses.append(epoch_abs / (n * n_mask))

                where = f"epoch {epoch}, validation"
                val_mae = evaluate_masked_mae(model, val_x, val_y, cfg.batch_size)
                if not np.isfinite(val_mae):
                    raise FloatingPointError("non-finite validation MAE")
                val_maes.append(val_mae)
                if cfg.freeze == "last" or best_epoch is None or val_mae < val_maes[best_epoch]:
                    best_epoch = epoch
                    best_snap = model.snapshot()
    except FloatingPointError as e:
        raise TrainingDiverged(f"divergence: {e} at {where}", initial_hash) from e

    model.restore(best_snap)
    return {"train_loss": train_losses, "val_mae": val_maes, "best_epoch": best_epoch,
            "best_val_mae": None if best_epoch is None else val_maes[best_epoch],
            "initial_weights_sha256": initial_hash, "best_weights_sha256": weights_hash(model)}


# ---------------------------------------------------------------------------
# Fold plumbing


def fold_split(pairs: list[FieldPair], plan: SplitPlan, fold: int) -> tuple[list[FieldPair], list[FieldPair]]:
    """(train, validation) pairs for one fold; the held fold validates."""
    val_pids = set(plan.folds[fold])
    train_pids = set(plan.train_patients()) - val_pids
    train = [p for p in pairs if p.input.patient_id in train_pids]
    val = [p for p in pairs if p.input.patient_id in val_pids]
    return train, val


def bin_dir_name(center: float) -> str:
    return f"bin-{center:.1f}"


def checkpoint_dir(phase: str, label: str, fold: int) -> Path:
    """Where a step's checkpoint and history go, relative to the runs dir."""
    return Path(phase) / label / f"fold-{fold}"


# ---------------------------------------------------------------------------
# Jobs (top-level and picklable so a process pool can run them)


@dataclass
class _Job:
    """One fold of one candidate: a selection job has a single step labelled
    with the candidate, a chain job one step per bin labelled `bin-X.X`.

    A step is (label, bin center or None, train pairs, validation pairs)
    until `_encoded` turns its pairs into `combo`'s arrays:
    (label, center, train_x, train_y, val_x, val_y).
    """

    phase: str
    candidate: str
    fold: int
    spec: ModelSpec
    combo: FeatureCombo
    cfg: TrainConfig
    out_dir: str
    steps: list
    init_snapshot: np.ndarray | None = None


def _encoded(job: _Job) -> _Job:
    """`job` with every step's pairs encoded, built in the main process just
    before the job runs or is submitted, so that only the jobs in flight
    hold arrays."""
    steps = [(label, center, *encode_pairs(train, job.combo), *encode_pairs(val, job.combo))
             for label, center, train, val in job.steps]
    return replace(job, steps=steps)


def _fit(job: _Job, step: tuple, init: np.ndarray | None = None,
         extra: dict | None = None) -> tuple[Model | None, dict]:
    """Train one step of `job`, starting from the `init` snapshot when given.

    Seeds derive from (cfg.seed, phase, label, fold).  The frozen model and
    its history go under its `checkpoint_dir`.  Returns the model and the
    step's record: its best validation MAE, weight hashes and runs-relative
    checkpoint; or, when training diverged, no model and the error.
    """
    label, center, train_x, train_y, val_x, val_y = step
    cfg = job.cfg
    init_seed = derive_seed(cfg.seed, job.phase, label, job.fold, "init")
    shuffle_seed = derive_seed(cfg.seed, job.phase, label, job.fold, "shuffle")
    model = build_model(job.spec.replace(seed=init_seed))
    if init is not None:
        model.restore(init)
    try:
        history = train_model(model, (train_x, train_y), (val_x, val_y), cfg, shuffle_seed)
    except TrainingDiverged as e:
        return None, {"error": str(e), "initial_weights_sha256": e.initial_hash}
    # relative to the runs dir so output trees are location-independent
    rel = checkpoint_dir(job.phase, label, job.fold)
    out_dir = Path(job.out_dir) / rel
    provenance = {"phase": job.phase, "candidate": job.candidate, "fold": job.fold, "bin": center}
    save_weights(model, out_dir, provenance=provenance | {"epoch": history["best_epoch"]})
    write_json(
        out_dir / "history.json",
        history | provenance | {
            "config": cfg.to_json_dict(),
            "seeds": {"init": init_seed, "shuffle": shuffle_seed},
            "n_train_pairs": int(train_x.shape[0]),
            "n_val_pairs": int(val_x.shape[0]),
        } | (extra or {}),
    )
    kept = ("best_val_mae", "initial_weights_sha256", "best_weights_sha256")
    return model, {"gap": False, "checkpoint": str(rel)} | {key: history[key] for key in kept}


def _run_phase_job(job: _Job) -> dict:
    (step,) = job.steps
    return _fit(job, step)[1]


def _run_chain_job(job: _Job) -> list[dict]:
    prev_snapshot = job.init_snapshot
    prev_label = "seed" if job.init_snapshot is not None else None
    entries = []
    for step in job.steps:
        label, center, train_x, _, val_x, _ = step
        entry = {"bin": center, "fold": job.fold, "gap": True, "best_val_mae": None,
                 "error": None, "transferred_from": None}
        entries.append(entry)
        if train_x.shape[0] == 0 or val_x.shape[0] == 0:
            continue
        entry["transferred_from"] = prev_label
        model, record = _fit(job, step, prev_snapshot, {"transferred_from": prev_label})
        entry.update(record)
        if model is not None:
            prev_snapshot, prev_label = model.snapshot(), label
    return entries


# glibc mallopt(3) parameters, and the values `keep_freed_memory` sets:
# 32 MiB is the largest mmap threshold mallopt(3) documents on 64-bit
_ALLOCATOR_SETTING = {"mmap_threshold": (-3, 32 << 20), "trim_threshold": (-1, 256 << 20)}


@functools.cache
def keep_freed_memory() -> dict | None:
    """Raise glibc's mmap and trim thresholds, once per process; returns the
    thresholds libc accepted, or None where it has no `mallopt` or accepts
    neither.

    A training step frees its im2col `cols`, activations and grads when its
    backward ends.  Under glibc's dynamic thresholds those multi-MB buffers
    go back to the kernel by munmap or heap trim, and the next step faults
    the same pages in again; below these thresholds the process keeps them.
    ctypes is imported here, not at module level, so that commands that
    never train do not pay for it.
    """
    import ctypes

    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError):
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    accepted = {name: value for name, (param, value) in _ALLOCATOR_SETTING.items() if mallopt(param, value)}
    return accepted or None


def _run_jobs(jobs, worker, workers: int) -> list:
    """`worker`'s record of each encoded job, in job order.

    A pool holds at most 2 x `workers` jobs submitted and not yet collected:
    enough to keep every worker fed while the main process encodes the next
    job, and few enough that a phase's arrays are never all alive at once.
    """
    keep_freed_memory()
    # a fork-started pool forks all `max_workers` children at the first submit
    workers = min(workers, len(jobs))
    if workers <= 1:
        return [worker(_encoded(job)) for job in jobs]
    records = [None] * len(jobs)
    in_flight = {}  # future -> index of its job
    # forked workers inherit the setting; spawned and forkserver ones set it
    with ProcessPoolExecutor(max_workers=workers, initializer=keep_freed_memory) as pool:
        for i, job in enumerate(jobs):
            if len(in_flight) == 2 * workers:
                done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                for future in done:
                    records[in_flight.pop(future)] = future.result()
            in_flight[pool.submit(worker, _encoded(job))] = i
        for future, i in in_flight.items():
            records[i] = future.result()
    return records


def _run_phase(jobs, worker, workers: int, result_path: Path) -> list:
    """Run a phase's jobs with its result file deleted first.

    The jobs overwrite checkpoints in place, and later commands load the
    checkpoints a result file names, so a result from an earlier run into
    the same directory must not outlive them.
    """
    result_path.unlink(missing_ok=True)
    return _run_jobs(jobs, worker, workers)


# ---------------------------------------------------------------------------
# Phase results


def _pick_winner(matrix: dict[str, list[float | None]]) -> str:
    complete = {
        name: row for name, row in matrix.items() if all(v is not None for v in row)
    }
    if not complete:
        raise DataError("no candidate completed all folds")
    means = {name: float(np.mean(row)) for name, row in complete.items()}
    best = min(means.values())
    return min(name for name, m in means.items() if m == best)


def _run_selection_phase(
    phase: str,
    candidates: list[tuple[str, ModelSpec, FeatureCombo]],
    pairs: list[FieldPair],
    plan: SplitPlan,
    cfg: TrainConfig,
    runs_dir,
    workers: int,
    extra: dict,
) -> dict:
    """Train every (candidate, fold) job, pick the winner, and write and
    return `phase_result.json`: the phase, its candidates, the per-(candidate,
    fold) best validation MAE `matrix` (None where a job diverged), the
    `winner`, each candidate's divergence `errors`, the `config` echo, and
    `extra`."""
    n_folds = len(plan.folds)
    splits = [fold_split(pairs, plan, fold) for fold in range(n_folds)]
    for fold, (train, val) in enumerate(splits):
        if not train or not val:
            raise DataError(f"fold {fold} has no pairs for phase {phase!r}")
    if cfg.epochs == 0:
        raise DataError(f"phase {phase!r} picks its winner by validation MAE, so it needs at least one epoch")
    jobs = [
        _Job(phase, name, fold, spec, combo, cfg, str(runs_dir), [(name, None, *splits[fold])])
        for name, spec, combo in candidates
        for fold in range(n_folds)
    ]
    result_path = Path(runs_dir) / phase / PHASE_RESULT
    records = _run_phase(jobs, _run_phase_job, workers, result_path)
    matrix = {name: [None] * n_folds for name, _, _ in candidates}
    errors: dict[str, list[str]] = {}
    for job, record in zip(jobs, records):
        matrix[job.candidate][job.fold] = record.get("best_val_mae")
        if "error" in record:
            errors.setdefault(job.candidate, []).append(f"fold {job.fold}: {record['error']}")
    try:
        winner = _pick_winner(matrix)
    except DataError:
        if errors:
            raise TrainingDiverged(
                f"phase {phase!r}: every candidate lost at least one fold to "
                f"divergence ({sum(len(v) for v in errors.values())} aborted jobs)"
            ) from None
        raise
    result = {"phase": phase, "candidates": [name for name, _, _ in candidates], "matrix": matrix,
              "winner": winner, "errors": errors, "config": cfg.to_json_dict() | {"phase": phase}} | extra
    write_json(result_path, result)
    return result


def select_architecture(
    candidates: list[ModelSpec],
    bin1_pairs: list[FieldPair],
    plan: SplitPlan,
    cfg: TrainConfig,
    runs_dir,
    workers: int = 1,
) -> dict:
    """Train each candidate once per fold on the 1.0-year bin (field-only
    input); returns `phase_result.json`, whose extra keys are the
    `published_comparison` and `trained_parameters` tables."""
    combo = FeatureCombo()
    named = [(spec.name, spec, combo) for spec in candidates]
    # the comparison table always uses the canonical widths so its
    # parameter column lines up with the published clinical-scale counts
    extra = {
        "published_comparison": published_comparison(),
        "trained_parameters": {spec.name: count_parameters_spec(spec) for spec in candidates},
    }
    return _run_selection_phase(PHASE_ARCH, named, bin1_pairs, plan, cfg, runs_dir, workers, extra)


def select_features(
    arch_spec: ModelSpec,
    combos: list[FeatureCombo],
    bin1_pairs: list[FieldPair],
    plan: SplitPlan,
    cfg: TrainConfig,
    runs_dir,
    workers: int = 1,
) -> dict:
    """Train the winning architecture once per fold for each feature combo;
    returns `phase_result.json`, whose extra key is the `architecture`."""
    named = [
        (combo.name, arch_spec.replace(in_channels=combo.channels()), combo)
        for combo in combos
    ]
    extra = {"architecture": arch_spec.name}
    return _run_selection_phase(PHASE_FEATURES, named, bin1_pairs, plan, cfg, runs_dir, workers, extra)


def train_interval_chain(
    spec: ModelSpec,
    combo: FeatureCombo,
    binned_pairs: dict[float, list[FieldPair]],
    plan: SplitPlan,
    cfg: TrainConfig,
    runs_dir,
    workers: int = 1,
    init_snapshots: dict[int, np.ndarray] | None = None,
) -> dict:
    """Per fold: train bin 1.0 fresh, then transfer forward bin by bin.

    A (bin, fold) cell with no training or validation pairs is recorded as a
    gap; the chain then carries the last trained weights forward.  With
    `init_snapshots` (fold -> weight snapshot) a fold's first bin starts
    from those weights instead of a fresh initialization.  Writes and
    returns `chain_result.json`: the `combo`, one entry per (bin, fold) in
    that order, `n_checkpoints` (the entries that are no gap), the chain's
    `spec` and the `config` echo.
    """
    spec = spec.replace(in_channels=combo.channels())
    n_folds = len(plan.folds)

    jobs = [
        _Job(PHASE_INTERVALS, combo.name, fold, spec, combo, cfg, str(runs_dir),
             [(bin_dir_name(center), center, *fold_split(binned_pairs.get(center, []), plan, fold))
              for center in BIN_CENTERS],
             None if init_snapshots is None else init_snapshots.get(fold))
        for fold in range(n_folds)
    ]
    result_path = Path(runs_dir) / PHASE_INTERVALS / CHAIN_RESULT
    entries = [entry for job_entries in _run_phase(jobs, _run_chain_job, workers, result_path)
               for entry in job_entries]
    entries.sort(key=lambda e: (e["bin"], e["fold"]))
    result = {"combo": combo.name, "n_checkpoints": sum(1 for e in entries if not e["gap"]), "entries": entries,
              "spec": spec.to_dict(), "config": cfg.to_json_dict() | {"phase": PHASE_INTERVALS}}
    write_json(result_path, result)
    return result


# What `load_interval_models` reads: an entry of a requested bin also needs
# SERVED_ENTRY_SCHEMA, one that is no gap CHECKPOINT_SCHEMA, and the
# checkpoint it lists PROVENANCE_SCHEMA, as does every checkpoint read for
# its cell (the bin is null outside the intervals phase)
CHAIN_SCHEMA = {"combo": str, "spec": SPEC_SCHEMA, "entries": [{"bin": NUMBER}]}
SERVED_ENTRY_SCHEMA = {"gap": bool, "fold": int}
CHECKPOINT_SCHEMA = {"checkpoint": str}
PROVENANCE_SCHEMA = {"phase": str, "candidate": str, "bin": (*NUMBER, None), "fold": int}


def check_checkpoint(model: Model, where: str, spec: ModelSpec, cell: dict) -> None:
    """Raise DataError naming `where` unless the loaded `model` has the
    chain's `spec`, seed aside, and the provenance that `load_weights` kept
    on it names `cell`'s phase, candidate, bin and fold: `WHERE: provenance
    'fold' is 1, not 0`."""
    if model.spec.replace(seed=spec.seed) != spec:
        raise DataError(f"{where} holds spec {model.spec.to_dict()}, not the chain's {spec.to_dict()} (seed aside)")
    recorded = expect(model.provenance, PROVENANCE_SCHEMA, where, ("provenance",))
    for key, value in cell.items():
        if recorded[key] != value:
            raise DataError(f"{where}: provenance {key!r} is {recorded[key]!r}, not {value!r}")


def load_interval_models(runs_dir, bins=BIN_CENTERS) -> tuple[FeatureCombo, dict[float, list[Model]]]:
    """The combo and the frozen fold models per bin that a chain recorded,
    each bin's folds stacked on one model's axis (a list of that model).

    Exactly the checkpoints of the non-gap entries of `bins` (default: every
    bin) in `chain_result.json` are read, in its (bin, fold) order; no other
    file under the runs dir counts.  Every entry's bin must be one of
    BIN_CENTERS, and a (bin, fold) pair of `bins` may be listed once.  Each
    checkpoint must hold the chain's spec, seed aside, and its provenance
    must name the intervals phase, the chain's combo, and its entry's bin
    and fold.  A bin is served by its first fold's loaded model, extended
    by the others.
    """
    runs_dir = Path(runs_dir)
    path = runs_dir / PHASE_INTERVALS / CHAIN_RESULT
    if not path.is_file():
        raise DataError(f"{path} not found; run `train --phase intervals` to completion first")
    chain = read_json(path, CHAIN_SCHEMA)
    try:
        combo = FeatureCombo.parse(chain["combo"])
    except DataError as e:
        raise DataError(f"{path}: 'combo': {e}") from None
    try:
        spec = ModelSpec.from_dict(chain["spec"])
    except DataError as e:
        raise DataError(f"{path}: 'spec': {e}") from None
    wanted = set(bins)
    listed: dict[tuple, int] = {}  # (bin, fold) -> index of its entry
    out: dict[float, list[Model]] = {}
    for i, e in enumerate(chain["entries"]):
        if e["bin"] not in BIN_CENTERS:
            raise DataError(f"{path}: entries[{i}]: 'bin' must be one of {BIN_CENTERS}, got {e['bin']!r}")
        if e["bin"] not in wanted:
            continue
        expect(e, SERVED_ENTRY_SCHEMA, path, ("entries", i))
        first = listed.setdefault((e["bin"], e["fold"]), i)
        if first != i:
            raise DataError(f"{path}: entries[{i}]: bin {e['bin']} fold {e['fold']} is listed twice, "
                               f"first at entries[{first}]")
        if not e["gap"]:
            checkpoint = runs_dir / expect(e, CHECKPOINT_SCHEMA, path, ("entries", i))["checkpoint"]
            model = load_weights(checkpoint)
            where = f"{path}: entries[{i}]: {checkpoint / MANIFEST_NAME}"
            check_checkpoint(model, where, spec,
                             {"phase": PHASE_INTERVALS, "candidate": combo.name, "bin": e["bin"], "fold": e["fold"]})
            out.setdefault(e["bin"], []).append(model)
    for models in out.values():
        models[0].extend(models[1:])
        del models[1:]
    return combo, out
