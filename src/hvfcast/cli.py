"""Command-line pipeline with deterministic, file-based handoffs.

Subcommands: simulate -> pairs -> split -> train (arch | features |
intervals) -> evaluate / predict / report.  Every command writes a run
manifest (`run_manifest.json` or `<output>.run_manifest.json`) beside its
outputs; manifests carry timestamps, everything else is byte-reproducible
for a fixed seed.

Exit codes: 0 success, 1 usage error, 2 bad input or an unreadable or
unwritable file (DataError, OSError), 3 training divergence
(TrainingDiverged).  `HVFCAST_SEED` provides a global fallback seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import resource
import sys
from collections import Counter
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .domain import (
    DataError,
    EYE_FROM_WIRE,
    EYE_TO_WIRE,
    NUMBER,
    atomic_write,
    expect,
    find_record,
    load_dataset,
    read_json,
    save_dataset,
    valid_mask_array,
    write_json,
)
from .evaluation import N_BOOTSTRAP, ensemble_predict, evaluate_testset
from .models import (
    MANIFEST_NAME,
    PAPER_WIDTHS,
    ModelSpec,
    canonical_specs,
    load_weights,
    spec_from_name,
)
from .pipeline import (
    BIN_CENTERS,
    DELTA_MAX,
    DELTA_MIN,
    FeatureCombo,
    SPLIT_RATIO,
    SplitPlan,
    bin_pairs,
    assign_bin,
    encode_input,
    make_pairs,
    pairs_for_patients,
    read_pairs,
    split_patients,
    write_pairs,
)
from .synthsim import CohortConfig, generate_cohort
from .trainer import (
    CHAIN_RESULT,
    DESK_EPOCHS,
    DESK_WIDTHS,
    FREEZE_MODES,
    PAPER_EPOCHS,
    PHASE_ARCH,
    PHASE_FEATURES,
    PHASE_INTERVALS,
    PHASE_RESULT,
    TrainConfig,
    TrainingDiverged,
    check_provenance,
    check_spec,
    checkpoint_dir,
    keep_freed_memory,
    load_interval_models,
    select_architecture,
    select_features,
    train_interval_chain,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems exit 1 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _parse_seed(text: str) -> int:
    """The one rule for `--seed`, `--bootstrap-seed` and `HVFCAST_SEED`: a non-negative integer."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"a seed must be a non-negative integer, got {text!r}")
    return int(text)


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("HVFCAST_SEED")
    try:
        return _parse_seed(env) if env else 0
    except argparse.ArgumentTypeError as e:
        raise argparse.ArgumentTypeError(f"HVFCAST_SEED: {e}") from None


def _write_run_manifest(target, command: str, config: dict, inputs, outputs, started: str,
                        **facts) -> None:
    """`run_manifest.json` inside a directory target, else `<file>.run_manifest.json`;
    `facts` are further top-level keys."""
    target = Path(target)
    path = target / "run_manifest.json" if target.is_dir() else target.with_name(target.name + ".run_manifest.json")
    manifest = {
        "command": command,
        "config": config,
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "tool_version": __version__,
        "started_at": started,
        "finished_at": _utc_now(),
    } | facts
    write_json(path, manifest)


def _resource_usage() -> dict:
    """Peak RSS in MB (`ru_maxrss`, KiB on Linux) and CPU seconds (user +
    system) of this process (`self`) and of its reaped children, the pool
    workers (`children`, whose peak is that of the largest one)."""
    def usage(who: int) -> dict:
        ru = resource.getrusage(who)
        return {"peak_rss_mb": ru.ru_maxrss / 1024, "cpu_s": ru.ru_utime + ru.ru_stime}

    return {"self": usage(resource.RUSAGE_SELF), "children": usage(resource.RUSAGE_CHILDREN)}


def _parse_widths(text: str) -> tuple[int, int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3 or not all(p.isdecimal() for p in parts):
        raise argparse.ArgumentTypeError(f"widths must be three integers, got {text!r}")
    return tuple(int(p) for p in parts)  # type: ignore[return-value]


def _parse_mix(entries: list[str]) -> dict:
    mix = {}
    for entry in entries:
        name, _, weight = entry.partition("=")
        try:
            mix[name] = float(weight)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected NAME=WEIGHT, got {entry!r}") from None
    return mix


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_simulate(args) -> None:
    started = _utc_now()
    seed = _resolve_seed(args.seed)
    cfg = CohortConfig(
        patients=args.patients,
        tests_per_eye=(args.tests_min, args.tests_max),
        followup_years=(args.span_min, args.span_max),
        rate_range=(args.rate_min, args.rate_max),
        noise=args.noise,
        seed=seed,
        **({"archetype_mix": _parse_mix(args.archetype)} if args.archetype else {}),
    )
    fields, meta = generate_cohort(cfg)
    out = Path(args.out)
    save_dataset(fields, out)
    meta_path = out.parent / "cohort_meta.json"
    write_json(meta_path, meta)
    _write_run_manifest(out, "simulate", cfg.to_json_dict(), [], [out, meta_path], started)
    print(f"wrote {len(fields)} fields for {cfg.patients} patients to {out}")


def _cmd_pairs(args) -> None:
    started = _utc_now()
    fields = load_dataset(args.data)
    pairs = make_pairs(fields)
    binned, excluded = bin_pairs(pairs)
    out = Path(args.out)
    n = write_pairs(out, binned)
    _write_run_manifest(
        out,
        "pairs",
        {"data": str(args.data), "n_pairs": len(pairs), "n_binned": n, "n_excluded": len(excluded)},
        [args.data],
        [out],
        started,
    )
    print(f"{len(pairs)} pairs, {n} binned, {len(excluded)} excluded -> {out}")


def _cmd_split(args) -> None:
    started = _utc_now()
    seed = _resolve_seed(args.seed)
    fields = load_dataset(args.data)
    plan = split_patients({f.patient_id for f in fields}, ratio=args.ratio, seed=seed)
    out = Path(args.out)
    write_json(out, plan.to_json_dict())
    _write_run_manifest(out, "split", {"ratio": args.ratio, "seed": seed}, [args.data], [out], started)
    print(
        f"{len(plan.train_patients())} train+validation patients in {len(plan.folds)} folds, "
        f"{len(plan.test_patients)} test -> {out}"
    )


def _load_plan(path, fields) -> SplitPlan:
    """The split plan at `path`, which must plan each patient once and only
    patients of the loaded dataset `fields`."""
    plan = SplitPlan.from_json_dict(read_json(path), str(path))
    planned = Counter([*plan.train_patients(), *plan.test_patients])
    repeated = sorted(pid for pid, n in planned.items() if n > 1)
    if repeated:
        raise DataError(
            f"{path}: patients planned more than once (folds and test set must be disjoint): {repeated}"
        )
    absent = sorted(planned.keys() - {f.patient_id for f in fields})
    if absent:
        raise DataError(f"{path}: planned patients absent from the dataset: {absent}")
    return plan


# What a run given no --arch or --combo reads of that phase's phase_result.json
PHASE_WINNER_SCHEMA = {"winner": str}
# What --chain-init features reads of the features phase_result.json: the
# matrix, and in it the chain combo's row
FEATURES_RESULT_SCHEMA = {"matrix": dict}
_MATRIX_ROW = [(*NUMBER, None)]


def _phase_winner(runs_dir: Path, phase: str, flag: str, parse):
    """`parse` of the winner that `train --phase <phase>` recorded, for a
    run given no `--<flag>`."""
    result_path = runs_dir / phase / PHASE_RESULT
    if not result_path.is_file():
        raise DataError(
            f"no --{flag} given and {result_path} not found; run `train --phase {phase}` first"
        )
    winner = read_json(result_path, PHASE_WINNER_SCHEMA)["winner"]
    try:
        return parse(winner)
    except DataError as e:
        raise DataError(f"{result_path}: 'winner': {e}") from None


def _train_config(args, seed: int) -> TrainConfig:
    widths = args.widths or (PAPER_WIDTHS if args.paper_scale else DESK_WIDTHS)
    epochs = args.epochs if args.epochs is not None else (PAPER_EPOCHS if args.paper_scale else DESK_EPOCHS)
    return TrainConfig(
        epochs=epochs,
        batch_size=args.batch_size,
        lr=args.lr,
        seed=seed,
        widths=widths,
        fc_hidden=args.fc_hidden,
        freeze=args.freeze,
    )


def _cmd_train(args) -> None:
    started = _utc_now()
    if args.workers < 1:
        raise argparse.ArgumentTypeError("--workers must be >= 1")
    seed = _resolve_seed(args.seed)
    cfg = _train_config(args, seed)
    fields = load_dataset(args.data)
    binned = read_pairs(args.pairs, fields)
    plan = _load_plan(args.split, fields)
    runs_dir = Path(args.out)
    train_binned = pairs_for_patients(binned, plan.train_patients())

    diverged = 0
    if args.phase == PHASE_ARCH:
        bin1 = train_binned[BIN_CENTERS[0]]
        candidates = canonical_specs(widths=cfg.widths, fc_hidden=cfg.fc_hidden)
        result = select_architecture(candidates, bin1, plan, cfg, runs_dir, args.workers)
        print(f"architecture winner: {result.winner}")
    elif args.phase == PHASE_FEATURES:
        bin1 = train_binned[BIN_CENTERS[0]]
        arch_spec = _arch_spec(args.arch, runs_dir, cfg)
        result = select_features(arch_spec, FeatureCombo.all_combos(), bin1, plan, cfg, runs_dir, args.workers)
        print(f"feature-combination winner: {result.winner}")
    else:  # intervals
        spec = _arch_spec(args.arch, runs_dir, cfg)
        combo = (FeatureCombo.parse(args.combo) if args.combo
                 else _phase_winner(runs_dir, PHASE_FEATURES, "combo", FeatureCombo.parse))
        init_snapshots = None
        if args.chain_init == "features":
            init_snapshots = _features_snapshots(runs_dir, combo, spec, len(plan.folds))
        result = train_interval_chain(
            spec, combo, train_binned, plan, cfg, runs_dir, args.workers, init_snapshots
        )
        diverged = sum(1 for e in result.entries if e["error"])
        empty = sum(1 for e in result.entries if e["gap"]) - diverged
        print(
            f"interval chain: {result.n_checkpoints} checkpoints "
            f"({empty} empty-bin gaps, {diverged} diverged) under {runs_dir / PHASE_INTERVALS}"
        )

    # worker count is a scheduling knob with no effect on results; it is
    # recorded in the run manifest only, keeping result files byte-stable
    _write_run_manifest(
        runs_dir, f"train --phase {args.phase}",
        cfg.to_json_dict() | {"phase": args.phase, "workers": args.workers},
        [args.data, args.pairs, args.split], [runs_dir], started,
        allocator=keep_freed_memory(), resources=_resource_usage(),
    )
    if diverged:
        # chain_result.json is written: evaluate and predict serve the other cells
        raise TrainingDiverged(f"divergence in {diverged} interval chain cells; see the `error` fields of "
                               f"{runs_dir / PHASE_INTERVALS / CHAIN_RESULT}")


def _arch_spec(arch: str | None, runs_dir: Path, cfg: TrainConfig) -> ModelSpec:
    """The spec of `--arch`, or else of the arch phase's winner, at `cfg`'s widths."""
    def parse(name):
        return spec_from_name(name, widths=cfg.widths, fc_hidden=cfg.fc_hidden)

    return parse(arch) if arch else _phase_winner(runs_dir, PHASE_ARCH, "arch", parse)


def _features_snapshots(
    runs_dir: Path, combo: FeatureCombo, spec: ModelSpec, n_folds: int
) -> dict:
    """Fold -> weights of `combo`'s checkpoints from a complete features
    phase: its `phase_result.json` must hold a result for every fold, and
    each checkpoint must be the chain's `spec`, seed aside, with `combo`'s
    input channels, and its provenance must name the features phase,
    `combo` and its fold."""
    combo_name = combo.name
    spec = spec.replace(in_channels=combo.channels())
    result_path = runs_dir / PHASE_FEATURES / PHASE_RESULT
    if not result_path.is_file():
        raise DataError(
            f"--chain-init features: {result_path} not found; run `train --phase features` "
            "to completion first"
        )
    row = read_json(result_path, FEATURES_RESULT_SCHEMA)["matrix"].get(combo_name)
    if row is None:
        raise DataError(f"--chain-init features: combo {combo_name!r} is not in {result_path}")
    expect(row, _MATRIX_ROW, result_path, ("matrix", combo_name))
    missing = [fold for fold in range(n_folds) if fold >= len(row) or row[fold] is None]
    if missing:
        raise DataError(
            f"--chain-init features: combo {combo_name!r} has no result for folds {missing} "
            f"in {result_path}"
        )
    snapshots = {}
    for fold in range(n_folds):
        manifest = runs_dir / checkpoint_dir(PHASE_FEATURES, combo_name, fold) / MANIFEST_NAME
        model = load_weights(manifest.parent)
        check_spec(model, f"--chain-init features: {manifest}", spec)
        check_provenance(model, f"--chain-init features: {manifest}",
                         {"phase": PHASE_FEATURES, "candidate": combo_name, "bin": None, "fold": fold})
        snapshots[fold] = model.snapshot()
    return snapshots


def _served_models(args, bins=BIN_CENTERS):
    """The combo and fold models per bin that the chain under `--runs`
    recorded; `--combo`, when given, must name the same combo."""
    combo, models_by_bin = load_interval_models(args.runs, bins)
    if args.combo is not None and FeatureCombo.parse(args.combo) != combo:
        raise DataError(
            f"--combo {args.combo!r} is not {combo.name!r}, the combo the chain under {args.runs} was trained on"
        )
    return combo, models_by_bin


def _cmd_evaluate(args) -> None:
    started = _utc_now()
    bootstrap_seed = _resolve_seed(args.bootstrap_seed)
    fields = load_dataset(args.data)
    binned = read_pairs(args.pairs, fields)
    plan = _load_plan(args.split, fields)

    test_binned = pairs_for_patients(binned, plan.test_patients)
    if not any(test_binned.values()):
        raise DataError("no binned pairs for the held-out test patients")
    combo, models_by_bin = _served_models(args)
    if not models_by_bin:
        raise DataError(f"no interval checkpoints listed under {Path(args.runs) / PHASE_INTERVALS}")

    report = evaluate_testset(
        models_by_bin,
        test_binned,
        combo,
        fields=fields,
        bootstrap_seed=bootstrap_seed,
        n_bootstrap=args.bootstrap_n,
    )
    out = Path(args.out)
    write_json(out, report.to_json_dict())
    _write_run_manifest(
        out, "evaluate",
        {"combo": combo.name, "bootstrap_seed": bootstrap_seed, "bootstrap_n": args.bootstrap_n},
        [args.data, args.pairs, args.split, args.runs], [out], started,
    )
    print(
        f"evaluated {report.n_pairs} pairs ({report.n_skipped} skipped): "
        f"MAE {report.overall['mae']:.3f} dB, RMSE {report.overall['rmse']:.3f} dB -> {out}"
    )


def _cmd_predict(args) -> None:
    started = _utc_now()
    center = assign_bin(args.interval)
    if center is None:
        raise argparse.ArgumentTypeError(f"interval outside [{DELTA_MIN}, {DELTA_MAX}]")

    if args.field:
        fields = load_dataset(args.field)
        if len(fields) != 1:
            raise DataError(f"{args.field}: --field file must hold exactly one record, got {len(fields)}")
        field = fields[0]
    else:
        if args.test_index is not None and args.test_index < 1:
            raise argparse.ArgumentTypeError("--test-index must be >= 1")
        if not (args.data and args.patient and args.eye and args.test_index is not None):
            raise argparse.ArgumentTypeError("provide --field FILE or all of --data/--patient/--eye/--test-index")
        field = find_record(args.data, args.patient, EYE_FROM_WIRE[args.eye], args.test_index)
        if field is None:
            raise DataError(
                f"no record for patient {args.patient!r}, eye {args.eye!r}, "
                f"test_index {args.test_index}"
            )

    combo, models_by_bin = _served_models(args, bins=[center])
    models = models_by_bin.get(center, [])
    if not models:
        raise DataError(f"no trained models for bin {center}")

    forecast = ensemble_predict(models, encode_input(field, combo), bin_center=center)
    payload = {
        "interval_years": args.interval,
        "bin": center,
        "n_models": forecast.n_models,
        "combo": combo.name,
        "input": {
            "patient_id": field.patient_id,
            "eye": EYE_TO_WIRE[field.eye],
            "test_index": field.test_index,
        },
        "values": [round(float(v), 2) for v in forecast.exported_grid()[valid_mask_array()]],
    }
    out = Path(args.out)
    write_json(out, payload)
    _write_run_manifest(
        out, "predict", {"interval": args.interval, "combo": combo.name},
        [args.field or args.data, args.runs], [out], started,
    )
    print(f"forecast at +{args.interval} y (bin {center}, {forecast.n_models} models) -> {out}")


# What `report` reads of report.json; each row's keys are its CSV's columns
_MD_ROW = dict.fromkeys(["predicted_md", "actual_md", "input_md", "bin", "delta_years"], NUMBER)
_BA_ROW = dict.fromkeys(["mean_md", "difference_md", "bin"], NUMBER)
REPORT_SCHEMA = {
    "rows": {"md_scatter": [_MD_ROW], "bland_altman": [_BA_ROW]},
    "per_bin": [{"bin": NUMBER, "n_pairs": int, "mae": (*NUMBER, None), "mae_ci": ([NUMBER, NUMBER], None)}],
}


def _cmd_report(args) -> None:
    started = _utc_now()
    report = read_json(args.report, REPORT_SCHEMA)
    out_dir = Path(args.out_dir)

    tables = [
        ("report_md_scatter.csv", list(_MD_ROW), report["rows"]["md_scatter"]),
        ("report_bland_altman.csv", list(_BA_ROW), report["rows"]["bland_altman"]),
        ("report_bin_mae.csv", ["bin", "n_pairs", "mae", "mae_ci_low", "mae_ci_high"],
         [e | {"mae_ci_low": e["mae_ci"][0], "mae_ci_high": e["mae_ci"][1]}
          for e in report["per_bin"] if e["mae_ci"] is not None]),
    ]
    paths = []
    for name, header, records in tables:
        text = io.StringIO()
        csv.writer(text).writerows([header] + [[r[k] for k in header] for r in records])
        paths.append(out_dir / name)
        atomic_write(paths[-1], text.getvalue().encode())

    _write_run_manifest(
        out_dir, "report", {"report": str(args.report)}, [args.report], paths, started,
    )
    print(f"wrote {', '.join(p.name for p in paths)} under {out_dir}")


# ---------------------------------------------------------------------------
# Parser


_DATASET_SCHEMA = (
    'dataset: JSON lines, one field per line: {"patient_id", "eye": "OD"|"OS", '
    '"gender": "M"|"F", "age", "test_date": "YYYY-MM-DD", "test_index", '
    '"values": [54 dB, row-major over valid cells, 2 decimals]}'
)
_SERVED_COMBO = "optional check: the combo chain_result.json records (exit 2 if it differs)"


def _simulate_parser(sub) -> None:
    p = sub.add_parser(
        "simulate",
        help="generate a synthetic longitudinal cohort",
        epilog=f"writes the {_DATASET_SCHEMA}; plus a cohort_meta.json ground-truth sidecar",
    )
    p.add_argument("--patients", type=int, default=CohortConfig.patients)
    p.add_argument("--tests-min", type=int, default=CohortConfig.tests_per_eye[0])
    p.add_argument("--tests-max", type=int, default=CohortConfig.tests_per_eye[1])
    p.add_argument("--span-min", type=float, default=CohortConfig.followup_years[0])
    p.add_argument("--span-max", type=float, default=CohortConfig.followup_years[1])
    p.add_argument("--rate-min", type=float, default=CohortConfig.rate_range[0])
    p.add_argument("--rate-max", type=float, default=CohortConfig.rate_range[1])
    p.add_argument("--archetype", action="append", metavar="NAME=WEIGHT",
                   help="override the archetype mix (repeatable)")
    p.add_argument("--noise", action=argparse.BooleanOptionalAction, default=CohortConfig.noise)
    p.add_argument("--seed", type=_parse_seed, default=None)
    p.add_argument("--out", required=True, help="dataset JSONL path")
    p.set_defaults(func=_cmd_simulate)


def _pairs_parser(sub) -> None:
    p = sub.add_parser(
        "pairs",
        help="pair and bin a dataset into horizon bins",
        epilog='writes JSON lines {"bin": 1.0..5.5, "input_ref"/"target_ref": '
               '{"patient_id", "eye", "test_index"}, "delta": years}; '
               "gaps under 0.75 or over 5.5 years are excluded",
    )
    p.add_argument("--data", required=True, help=_DATASET_SCHEMA)
    p.add_argument("--out", required=True, help="pairs JSONL path")
    p.set_defaults(func=_cmd_pairs)


def _split_parser(sub) -> None:
    p = sub.add_parser(
        "split",
        help="patient-level train/test split with 10 folds",
        epilog='writes JSON {"seed", "ratio", "test_patients": [...], "folds": [10 lists]}',
    )
    p.add_argument("--data", required=True)
    p.add_argument("--ratio", type=float, default=SPLIT_RATIO)
    p.add_argument("--seed", type=_parse_seed, default=None)
    p.add_argument("--out", required=True, help="split-plan JSON path")
    p.set_defaults(func=_cmd_split)


def _train_parser(sub) -> None:
    p = sub.add_parser(
        "train",
        help="run one training phase",
        epilog="writes runs/<phase>/<candidate-or-bin>/fold-N/{manifest.json, weights.bin, "
               "history.json} plus phase_result.json or chain_result.json; weights.bin is "
               "little-endian float64 laid out by the manifest's spec",
    )
    p.add_argument("--phase", required=True, choices=[PHASE_ARCH, PHASE_FEATURES, PHASE_INTERVALS])
    p.add_argument("--data", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--out", required=True, help="runs directory")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=TrainConfig.lr)
    p.add_argument("--widths", type=_parse_widths, default=None, metavar="W0,W1,W2")
    p.add_argument("--fc-hidden", type=int, default=TrainConfig.fc_hidden)
    p.add_argument("--freeze", choices=FREEZE_MODES, default=TrainConfig.freeze)
    p.add_argument("--paper-scale", action="store_true",
                   help=f"{PAPER_EPOCHS} epochs and widths {','.join(map(str, PAPER_WIDTHS))}")
    p.add_argument("--seed", type=_parse_seed, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--arch", default=None, help="architecture name (default: arch-phase winner)")
    p.add_argument("--combo", default=None, help="feature combo (default: features-phase winner)")
    p.add_argument("--chain-init", choices=["fresh", "features"], default="fresh",
                   help="how the chain's first bin is initialized")
    p.set_defaults(func=_cmd_train)


def _evaluate_parser(sub) -> None:
    p = sub.add_parser(
        "evaluate",
        help="fold-ensemble evaluation on the held-out test set",
        epilog="writes report.json (overall MAE/RMSE with bootstrap CIs, MD scatter stats, "
               "Bland-Altman, per-bin MAE, baseline rows, row data); `hvfcast report` splits "
               "it into plot-ready CSVs. Serves the combo and checkpoints that "
               "intervals/chain_result.json records",
    )
    p.add_argument("--data", required=True)
    p.add_argument("--pairs", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--runs", required=True)
    p.add_argument("--combo", default=None, help=_SERVED_COMBO)
    p.add_argument("--bootstrap-seed", type=_parse_seed, default=None)
    p.add_argument("--bootstrap-n", type=int, default=N_BOOTSTRAP)
    p.add_argument("--out", required=True, help="report JSON path")
    p.set_defaults(func=_cmd_evaluate)


def _predict_parser(sub) -> None:
    p = sub.add_parser("predict", help="forecast one field at a horizon")
    p.add_argument("--field", default=None, help="single-record JSONL file")
    p.add_argument("--data", default=None)
    p.add_argument("--patient", default=None)
    p.add_argument("--eye", default=None, choices=EYE_FROM_WIRE, help="OD or OS")
    p.add_argument("--test-index", type=int, default=None)
    p.add_argument("--interval", type=float, required=True, help="forecast horizon in years")
    p.add_argument("--runs", required=True)
    p.add_argument("--combo", default=None, help=_SERVED_COMBO)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)


def _report_parser(sub) -> None:
    p = sub.add_parser("report", help="split a report JSON into plot-ready CSVs")
    p.add_argument("--report", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=_cmd_report)


# One builder per subcommand, in the order `hvfcast --help` lists them.
_SUBCOMMANDS = {
    "simulate": _simulate_parser,
    "pairs": _pairs_parser,
    "split": _split_parser,
    "train": _train_parser,
    "evaluate": _evaluate_parser,
    "predict": _predict_parser,
    "report": _report_parser,
}


def build_parser(command: str | None = None) -> _Parser:
    """The full parser, or with `command` one that parses only that
    subcommand (building all seven parsers takes milliseconds) and prints
    the same usage and errors for it."""
    parser = _Parser(prog="hvfcast", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"hvfcast {__version__}")
    # the full choice list, so a top-level usage line (printed for arguments
    # the subcommand does not know) reads as the full parser's does
    metavar = None if command is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, add in _SUBCOMMANDS.items():
        if command is None or name == command:
            add(sub)
    return parser


def main(argv=None) -> int:
    """Run one command; the one place a failure is printed and given its exit
    code.  Any other exception, such as an EngineError, is a bug: a traceback."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else EXIT_OK
    try:
        args.func(args)
    except (argparse.ArgumentTypeError, TrainingDiverged, DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return (EXIT_USAGE if isinstance(e, argparse.ArgumentTypeError)
                else EXIT_DIVERGED if isinstance(e, TrainingDiverged) else EXIT_DATA)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
