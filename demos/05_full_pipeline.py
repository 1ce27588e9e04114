"""End to end at toy scale: simulate, split, three training phases, evaluate.

The real flow is the CLI (each step a file handoff; identical commands give
identical bytes):

    hvfcast simulate --patients 200 --seed 7 --out d.jsonl
    hvfcast pairs    --data d.jsonl --out pairs.jsonl
    hvfcast split    --data d.jsonl --seed 7 --out split.json
    hvfcast train    --phase arch      --data d.jsonl --pairs pairs.jsonl --split split.json --out runs/
    hvfcast train    --phase features  ... (uses the arch winner)
    hvfcast train    --phase intervals ... (uses both winners; 10 bins x 10 folds)
    hvfcast evaluate --data d.jsonl --pairs pairs.jsonl --split split.json --runs runs/ --out report.json
    hvfcast predict  --data d.jsonl --patient P0001 --eye OD --test-index 1 --interval 2.0 --runs runs/ --out f.json

This script drives the same machinery through the library API with one
epoch everywhere so it finishes in about a minute; expect untrained-quality
forecasts, the point is the shape of the workflow.
"""

import json
import tempfile
from pathlib import Path

from hvfcast import evaluation, pipeline, synthsim, trainer
from hvfcast.models import canonical_specs, spec_from_name
from hvfcast.pipeline import FeatureCombo

workdir = Path(tempfile.mkdtemp(prefix="hvfcast-demo-"))
print(f"working under {workdir}\n")

print("=== simulate and pair ===")
cfg = synthsim.CohortConfig(patients=36, tests_per_eye=(3, 6), followup_years=(1.5, 5.4), seed=424242)
fields, _ = synthsim.generate_cohort(cfg)
binned, excluded = pipeline.bin_pairs(pipeline.make_pairs(fields))
plan = pipeline.split_patients({f.patient_id for f in fields}, seed=17)
print(f"{len(fields)} fields -> {sum(len(v) for v in binned.values())} binned pairs "
      f"({len(excluded)} excluded); {len(plan.test_patients)} held-out patients")

train_binned = pipeline.pairs_for_patients(binned, plan.train_patients())
test_binned = pipeline.pairs_for_patients(binned, plan.test_patients)
cfg1 = trainer.TrainConfig(epochs=1, widths=(4, 8, 12), fc_hidden=64, seed=23)
runs = workdir / "runs"

print("\n=== phase 1: architecture selection on the 1.0-year bin ===")
candidates = canonical_specs(widths=cfg1.widths, fc_hidden=cfg1.fc_hidden)
arch_result = trainer.select_architecture(candidates, train_binned[1.0], plan, cfg1, runs)
means = {name: sum(row) / len(row) for name, row in arch_result["matrix"].items()}
for name in arch_result["candidates"]:
    marker = "  <- winner" if name == arch_result["winner"] else ""
    print(f"  {name:16s} mean best val MAE {means[name]:7.3f} dB{marker}")

print("\n=== phase 2: clinical-feature selection (16 combos) ===")
arch_spec = spec_from_name(arch_result["winner"], widths=cfg1.widths, fc_hidden=cfg1.fc_hidden)
feat_result = trainer.select_features(arch_spec, FeatureCombo.all_combos(), train_binned[1.0], plan, cfg1, runs)
print(f"  winner: {feat_result['winner']}")

print("\n=== phase 3: the interval chain (10 bins x 10 folds, forward transfer) ===")
combo = FeatureCombo.parse(feat_result["winner"])
chain = trainer.train_interval_chain(arch_spec, combo, train_binned, plan, cfg1, runs)
gaps = [e for e in chain["entries"] if e["gap"]]
print(f"  {chain['n_checkpoints']} checkpoints, {len(gaps)} gaps "
      f"(bins without pairs for a fold are skipped and the chain carries weights forward)")
linked = sum(
    1 for e in chain["entries"]
    if not e["gap"] and e["transferred_from"] not in (None, "seed")
)
print(f"  {linked} models initialized from the previous bin's frozen weights")

print("\n=== evaluate the held-out patients with fold ensembles ===")
# the chain's combo comes back with its models, so they are fed what they were trained on
combo, models_by_bin = trainer.load_interval_models(runs)
report = evaluation.evaluate_testset(models_by_bin, test_binned, combo, fields=fields, n_bootstrap=200)
print(f"  {report['n_pairs']} pairs evaluated, {report['n_skipped']} skipped")
print(f"  MAE  {report['overall']['mae']:6.2f} dB  (95% CI {report['overall']['mae_ci'][0]:.2f}-{report['overall']['mae_ci'][1]:.2f})")
print(f"  RMSE {report['overall']['rmse']:6.2f} dB")
for row in report["baselines"]:
    if row["mae"] is not None:
        print(f"  baseline {row['method']:14s} MAE {row['mae']:6.2f} dB on {row['n_pairs']} pairs")
print("  (one epoch of training; see tests/test_acceptance.py for a run that beats the copy baseline)")

out = workdir / "report.json"
out.write_text(json.dumps(report, sort_keys=True, indent=2))
print(f"\nreport written to {out}")
