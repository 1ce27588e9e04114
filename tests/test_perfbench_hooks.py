"""The benchmark's tracer patches hvfcast functions by name where their
callers look them up; a rename or signature change there breaks the traced
benchmark run, so it must fail here too."""

import subprocess
import sys
from pathlib import Path

from conftest import child_env

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

PROBE = """
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from tracing import Tracer
from hvfcast import models

tracer = Tracer(sys.argv[2])
tracer.install()
try:
    model = models.build_model(models.ModelSpec(family="FullBN", depth_k=1, widths=(2, 2, 2)))
    model.forward(np.zeros((1, 1, 8, 9)), "train")
finally:
    tracer.uninstall()
names = {span[3] for span in tracer.spans}
expected = {"models.build_model", "models.forward.train", "autodiff.conv2d",
            "autodiff.batch_norm", "autodiff.relu"}
assert expected <= names, sorted(expected - names)
assert tracer.counters["autodiff.tensor.grad_bytes"] > 0
"""


def test_tracer_installs_on_every_patch_target(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(PERFBENCH), str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr[-3000:]


PROBE_FAMILIES = """
import sys
import numpy as np
sys.path.insert(0, sys.argv[1])
from tracing import Tracer
from hvfcast import models

tracer = Tracer(sys.argv[2])
tracer.install()
try:
    for name in ("FullyConnected", "FullBN-1", "Residual-1", "Cascade-2"):
        spec = models.spec_from_name(name, widths=(2, 2, 2), fc_hidden=4)
        models.build_model(spec).forward(np.zeros((1, 1, 8, 9)), "train")
finally:
    tracer.uninstall()
names = {span[3] for span in tracer.spans}
expected = {"models.forward.train", "autodiff.conv2d", "autodiff.batch_norm", "autodiff.relu",
            "autodiff.concat_channels", "autodiff.dense"}
assert expected <= names, sorted(expected - names)
"""


def test_tracer_sees_the_ops_of_every_family(tmp_path):
    """The forward calls its ops through the names the tracer patches in
    `hvfcast.models`, for each of the four families."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE_FAMILIES, str(PERFBENCH), str(tmp_path)],
        capture_output=True, text=True, timeout=120, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr[-3000:]


PROBE_POOL = """
import os
import sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer
from hvfcast import synthsim, trainer
from hvfcast.models import spec_from_name
from hvfcast.pipeline import FeatureCombo, bin_pairs, make_pairs, split_patients

fields, _ = synthsim.generate_cohort(synthsim.CohortConfig(patients=24, tests_per_eye=(5, 5), seed=3))
binned, _ = bin_pairs(make_pairs(fields))
plan = split_patients({f.patient_id for f in fields}, seed=3)
cfg = trainer.TrainConfig(epochs=1, widths=(2, 3, 4), seed=3)
spec = spec_from_name("Cascade-1", widths=cfg.widths)
runs = sys.argv[2] + "/runs"
tracer = Tracer(sys.argv[2])
tracer.install()
try:
    trainer.select_architecture([spec], binned[1.0], plan, cfg, runs, workers=2)
    trainer.train_interval_chain(spec, FeatureCombo(), binned, plan, cfg, runs, workers=2)
finally:
    tracer.uninstall()
pids = [span[0].partition(".")[0] for span in tracer.spans if span[3] == "trainer.job"]
assert len(pids) == 2 * len(plan.folds), len(pids)
assert str(os.getpid()) not in pids, pids
"""


def test_tracer_spans_pooled_jobs_in_their_workers(tmp_path):
    """Both selection and chain jobs reach the pool as the patched workers,
    pickled by name, and their spans come back from the worker processes."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE_POOL, str(PERFBENCH), str(tmp_path)],
        capture_output=True, text=True, timeout=300, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr[-3000:]


PROBE_SERVE = """
import json
import sys
sys.path.insert(0, sys.argv[1])
from tracing import Tracer
from hvfcast import cli

work = sys.argv[2]
data = ["--data", f"{work}/d.jsonl", "--pairs", f"{work}/p.jsonl", "--split", f"{work}/s.json"]
for argv in (["simulate", "--patients", "24", "--seed", "3", "--out", f"{work}/d.jsonl"],
             ["pairs", "--data", f"{work}/d.jsonl", "--out", f"{work}/p.jsonl"],
             ["split", "--data", f"{work}/d.jsonl", "--seed", "3", "--out", f"{work}/s.json"],
             ["train", "--phase", "intervals", *data, "--out", f"{work}/runs", "--arch", "Cascade-1",
              "--combo", "none", "--epochs", "1", "--widths", "2,3,4", "--seed", "3"]):
    assert cli.main(argv) == 0, argv
record = json.loads(open(f"{work}/d.jsonl").readline())
tracer = Tracer(sys.argv[2])
tracer.install()
try:
    for argv in (["evaluate", *data, "--runs", f"{work}/runs", "--bootstrap-n", "5", "--out", f"{work}/r.json"],
                 ["predict", "--data", f"{work}/d.jsonl", "--patient", record["patient_id"], "--eye",
                  record["eye"], "--test-index", str(record["test_index"]), "--interval", "1.0",
                  "--runs", f"{work}/runs", "--out", f"{work}/f.json"]):
        assert tracer.command(argv, cli.main) == 0, argv
finally:
    tracer.uninstall()
metrics = tracer.layer_metrics({})
assert metrics["models.load_weights.calls"] > 0, metrics
assert 0 < metrics["models.load_weights.used_ratio"] <= 1, metrics
assert "models.forward.infer" in {span[3] for span in tracer.spans}
"""


def test_tracer_sees_served_checkpoints_forwarded(tmp_path):
    """A traced evaluate and predict count their checkpoint loads, find the
    loaded object that is forwarded among them, and span the forwards."""
    proc = subprocess.run(
        [sys.executable, "-c", PROBE_SERVE, str(PERFBENCH), str(tmp_path)],
        capture_output=True, text=True, timeout=300, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
