"""Benchmark entry point: one workload, one seed, one process.

    python3 perfbench/run.py --workload train-chain --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  `--trace 0` prints the end-to-end metrics;
`--trace 1` wraps every layer's public functions and prints the per-layer
metrics instead.  The last line of standard output is the result JSON; the
full record (host facts, per-repetition figures, tracing overhead) goes to
`.bench_work/results/<workload>-seed<seed>-trace<t>.json`.  The exit code is
1 when a correctness check fails and 2 when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

import host  # imports no numpy

# Pin BLAS before numpy is imported; this process and its pool workers only.
for _name in host.BLAS_ENV:
    os.environ[_name] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_pairs_per_s": "1/s",
    "eval_pairs_per_s": "1/s",
    "predict_ms_p50": "ms",
    "predict_ms_p90": "ms",
    "cold_start_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
}


def parse_args(argv=None):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "hvfcast" / "cli.py").is_file():
        print(f"error: no hvfcast sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads
    from tracing import LAYER_UNITS, Tracer

    workload = workloads.WORKLOADS[args.workload]
    seed = args.seed
    if args.smoke:
        workload, seed = workloads.smoke(workload), workloads.SMOKE_SEED
    tag = f"{args.workload}-seed{seed}-trace{args.trace}" + ("-smoke" if args.smoke else "")

    tracer = None
    if args.trace:
        spill = WORK / "spill"
        shutil.rmtree(spill, ignore_errors=True)
        spill.mkdir(parents=True)
        tracer = Tracer(spill)
        tracer.install()
    run = workloads.Run(workload, seed, args.seconds, ROOT, WORK / args.workload, tracer)
    try:
        end_to_end = run.execute()
    except workloads.CommandFailed as e:
        print(f"error: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": run.attempted, "failed": len(run.failures),
                          "metrics": {}}))
        return 1

    record = {
        "workload": args.workload,
        "why": workload.why,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host.host_facts(ROOT),
        "end_to_end": end_to_end,
        "details": run.facts,
        "failures": run.failures,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    if tracer:
        record["per_layer"] = tracer.layer_metrics(host.import_ms(ROOT, repeats=3))
        untraced = results / (tag.replace("-trace1", "-trace0") + ".json")
        if untraced.is_file():
            base = json.loads(untraced.read_text())["end_to_end"]
            record["tracing_overhead"] = {k: end_to_end[k] - base[k] for k in END_TO_END_UNITS}
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in record["per_layer"].items()}
    else:
        metrics = {k: {"value": end_to_end[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")

    print(f"host: {json.dumps(record['host'], sort_keys=True)}")
    for k, v in end_to_end.items():
        print(f"{args.workload} {k} = {v:.6g} {END_TO_END_UNITS[k]}")
    for k, v in record.get("tracing_overhead", {}).items():
        print(f"{args.workload} tracing overhead {k} = {v:+.6g} {END_TO_END_UNITS[k]}")
    for failure in run.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    correct = not run.failures
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": len(run.failures),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
