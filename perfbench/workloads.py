"""The three workloads: their units of work, their schedule and the correctness gate.

Every workload drives the real CLI in-process through `hvfcast.cli.main` on a
cohort that `hvfcast simulate` generates from the workload seed, and measures
every end-to-end metric on its own runs tree:

* set-up, `setups` times (the median is `setup_s`): simulate, pairs, split,
  plus `setup_train` (serve-forecast builds its runs tree here);
* `reps` x the timed training commands `timed_train`;
* `serve_train`, untimed, where the tree to serve is not the training tree;
* `evaluates` x evaluate, and `min_predicts` single predict requests from
  one caller (a closed loop), continued until the timed commands have taken
  `--seconds`;
* `cold_starts` fresh interpreters running `hvfcast --version`.

The first set-up runs first; the other units are interleaved (see
`interleave`).  The gate then re-loads every checkpoint, compares result
digests, checks the report and recomputes every forecast.  A check that
fails is counted, never skipped.
"""

from __future__ import annotations

import functools
import hashlib
import io
import json
import random
import resource
import shutil
import statistics
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import host

COMBO = "age"

# Training commands (arguments after the data/pairs/split/out flags).
CHAIN_DESK = ("--phase", "intervals", "--arch", "Cascade-1", "--combo", COMBO,
              "--widths", "8,16,24", "--epochs", "1", "--workers", "1")
CHAIN_NARROW = ("--phase", "intervals", "--arch", "Cascade-1", "--combo", COMBO,
                "--widths", "4,8,12", "--epochs", "1", "--workers", "1")
POOL = ("--widths", "4,8,12", "--fc-hidden", "64", "--epochs", "1", "--workers", "2")
ARCH_POOL = ("--phase", "arch") + POOL
FEATURES_POOL = ("--phase", "features", "--arch", "FullyConnected") + POOL
CHAIN_POOL = ("--phase", "intervals", "--arch", "FullyConnected", "--combo", COMBO) + POOL


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    patients: int = 60
    tests_per_eye: int = 5  # a fixed count keeps the work per run alike across seeds
    setups: int = 5
    setup_train: tuple[tuple[str, ...], ...] = ()
    timed_train: tuple[tuple[str, ...], ...] = ()
    reps: int = 0
    serve_train: tuple[tuple[str, ...], ...] = ()
    evaluates: int = 5
    bootstrap_n: int = 1000
    min_predicts: int = 100  # p90 then has ten samples beyond it
    cold_starts: int = 7


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-chain",
            why="the sequential ten-bin interval chain (Cascade-1, batch norm and concat, "
                "desk widths, one worker): train-mode autodiff dominates",
            timed_train=(CHAIN_DESK,),
            reps=3,
        ),
        Workload(
            name="select-pool",
            why="250 short arch and features selection jobs through a two-process pool at "
                "narrow widths: per-job encode, pickle and checkpoint overhead is a large share",
            timed_train=(ARCH_POOL, FEATURES_POOL),
            reps=1,
            serve_train=(CHAIN_POOL,),
        ),
        Workload(
            name="serve-forecast",
            why="inference on a ten-by-ten fold runs tree built in set-up (Cascade-1, narrow "
                "widths): repeated evaluate and "
                "a closed loop of single predict requests that each reload data and models",
            setups=3,
            setup_train=(CHAIN_NARROW,),
        ),
    )
}

PREDICT_CHUNK = 10

# Tiny sizes for the smoke test: every code path, a few seconds per workload.
SMOKE = dict(patients=24, setups=2, evaluates=1, bootstrap_n=20, min_predicts=10, cold_starts=1)
SMOKE_SEED = 3  # a 24-patient cohort whose bins have a model for every held-out pair


class CommandFailed(RuntimeError):
    pass


def tree_digest(root: Path) -> str:
    """sha256 over every result file under root except run manifests."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if path.name.endswith("run_manifest.json"):
            continue
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def trained_cells(runs: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted(runs.rglob("history.json"))]


def pairs_trained(runs: Path) -> int:
    """Sum over completed jobs of epochs x train pairs."""
    return sum(len(h["train_loss"]) * h["n_train_pairs"] for h in trained_cells(runs))


def held_out_pairs(data: Path, runs: Path) -> tuple[list[dict], int]:
    """Held-out pairs whose bin has a model, and how many held-out pairs there are."""
    test = set(json.loads((data / "split.json").read_text())["test_patients"])
    held_out = [pair for pair in map(json.loads, (data / "pairs.jsonl").read_text().splitlines())
                if pair["input_ref"]["patient_id"] in test]
    with_model = [p for p in held_out if any((runs / "intervals" / f"bin-{p['bin']:.1f}").glob("fold-*"))]
    return with_model, len(held_out)


def interleave(streams: list[tuple[list, bool]]) -> list:
    """Order units so each stream's units spread evenly over the run.

    Unit k of n sits at k/n when its stream must lead (it builds what later
    units read), else at (k + 0.5)/n; ties keep stream order.  Spreading
    every metric's samples over the whole run lets each median average the
    same slow drift in machine speed, instead of one stretch of it.
    """
    plan = []
    for order, (units, leads) in enumerate(streams):
        for k, unit in enumerate(units):
            plan.append(((k if leads else k + 0.5) / len(units), order, k, unit))
    return [unit for *_, unit in sorted(plan, key=lambda p: p[:3])]


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload: Workload, seed: int, seconds: float, root: Path, work: Path, tracer=None):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.root = root
        self.work = work
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.facts: dict = {}
        self.data = work / "setup-0"
        self.runs: Path | None = None  # the tree evaluate and predict serve from
        self.rng = random.Random(seed)
        self.pool: list[dict] = []
        self.held_out = 0
        self.trained: list[Path] = []  # runs trees, in the order of the "train" walls
        self.served: list[tuple[dict, Path]] = []  # in the order of the "predict" walls
        # kind -> (wall s, index of the unit that took it); speed[u] is probed before unit u
        self.walls: dict[str, list[tuple[float, int]]] = {k: [] for k in ("setup", "train", "eval", "predict", "cold")}
        self.speed: list[float] = []  # probe ms before each unit, and one at the end
        self.timed_s = 0.0  # wall of the timed commands so far

    # -- bookkeeping ------------------------------------------------------

    def sample(self, kind: str, wall: float) -> None:
        self.walls[kind].append((wall, len(self.speed) - 1))

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def cli(self, argv: list[str]) -> float:
        """Run one CLI command in-process; returns its wall seconds."""
        from hvfcast.cli import main

        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            rc = self.tracer.command(argv, main) if self.tracer else main(argv)
            wall = time.perf_counter() - start
        if not self.check(rc == 0, f"hvfcast {' '.join(argv)} exited {rc}: {err.getvalue().strip()}"):
            raise CommandFailed(self.failures[-1])
        return wall

    def train(self, data: Path, runs: Path, args: tuple[str, ...]) -> float:
        return self.cli(["train", *self.data_args(data), "--out", str(runs), "--seed", str(self.seed), *args])

    @staticmethod
    def data_args(data: Path) -> list[str]:
        return ["--data", str(data / "data.jsonl"), "--pairs", str(data / "pairs.jsonl"),
                "--split", str(data / "split.json")]

    # -- units of work ----------------------------------------------------
    # Each unit appends its own samples; `execute` interleaves them.

    def setup_once(self, i: int) -> None:
        d = self.work / f"setup-{i}"
        start = time.perf_counter()
        self.cli(["simulate", "--patients", str(self.w.patients), "--seed", str(self.seed),
                  "--tests-min", str(self.w.tests_per_eye), "--tests-max", str(self.w.tests_per_eye),
                  "--out", str(d / "data.jsonl")])
        self.cli(["pairs", "--data", str(d / "data.jsonl"), "--out", str(d / "pairs.jsonl")])
        self.cli(["split", "--data", str(d / "data.jsonl"), "--seed", str(self.seed),
                  "--out", str(d / "split.json")])
        train_wall = sum(self.train(d, d / "runs", args) for args in self.w.setup_train)
        self.sample("setup", time.perf_counter() - start)
        if self.w.setup_train:
            self.trained.append(d / "runs")
            self.sample("train", train_wall)

    def cold_start(self) -> None:
        from hvfcast import __version__

        wall, ok = host.cold_start(self.root, f"hvfcast {__version__}")
        self.check(ok, "hvfcast --version failed in a fresh interpreter")
        self.sample("cold", wall)

    def timed(self, argv: list[str]) -> float:
        wall = self.cli(argv)
        self.timed_s += wall
        return wall

    def train_rep(self, r: int) -> None:
        runs = self.work / f"rep-{r}"
        wall = sum(self.train(self.data, runs, args) for args in self.w.timed_train)
        self.timed_s += wall
        self.trained.append(runs)
        self.sample("train", wall)
        if self.runs is None:
            self.runs = runs

    def serve_tree(self) -> None:
        self.runs = self.work / "serve"
        for args in self.w.serve_train:
            self.train(self.data, self.runs, args)

    def evaluate(self, i: int) -> None:
        out = self.work / f"eval-{i}" / "report.json"
        self.sample("eval", self.timed([
            "evaluate", *self.data_args(self.data), "--runs", str(self.runs), "--combo", COMBO,
            "--bootstrap-seed", str(self.seed), "--bootstrap-n", str(self.w.bootstrap_n), "--out", str(out),
        ]))

    def predict_chunk(self) -> None:
        """PREDICT_CHUNK single requests, each drawn from the held-out pairs by the seeded RNG."""
        if not self.pool:
            self.pool, self.held_out = held_out_pairs(self.data, self.runs)
        for _ in range(PREDICT_CHUNK):
            pair = self.rng.choice(self.pool)
            ref = pair["input_ref"]
            out = self.work / "predict" / f"req-{len(self.served)}.json"
            wall = self.timed(["predict", "--data", str(self.data / "data.jsonl"), "--patient", ref["patient_id"],
                               "--eye", ref["eye"], "--test-index", str(ref["test_index"]),
                               "--interval", str(pair["bin"]), "--runs", str(self.runs), "--combo", COMBO,
                               "--out", str(out)])
            self.served.append((pair, out))
            self.sample("predict", wall)

    # -- correctness gate -------------------------------------------------

    def same_digests(self, dirs: list[Path], what: str) -> None:
        digests = [tree_digest(d) for d in dirs]
        for d, digest in zip(dirs[1:], digests[1:]):
            self.check(digest == digests[0], f"{what} {d.name} differs from {dirs[0].name}")

    def check_checkpoints(self, runs: Path) -> None:
        from hvfcast.models import load_weights

        for manifest in sorted(runs.rglob("manifest.json")):
            try:
                load_weights(manifest.parent)
                ok, why = True, ""
            except (ValueError, OSError) as e:
                ok, why = False, str(e)
            self.check(ok, f"checkpoint {manifest.parent.relative_to(self.work)} does not re-load: {why}")

    def check_jobs(self, runs: Path) -> None:
        """Diverged jobs count as failed operations."""
        for path in sorted(runs.rglob("phase_result.json")):
            result = json.loads(path.read_text())
            for name, row in result["matrix"].items():
                for fold, value in enumerate(row):
                    self.check(value is not None, f"{path.parent.name} job {name} fold {fold} diverged")
        for path in sorted(runs.rglob("chain_result.json")):
            for e in json.loads(path.read_text())["entries"]:
                self.check(e["error"] is None, f"chain bin {e['bin']} fold {e['fold']}: {e['error']}")

    def check_report(self, report: dict, expected_pairs: int, held_out: int) -> None:
        overall = report["overall"]
        self.check(overall["rmse"] >= overall["mae"], f"report rmse {overall['rmse']} < mae {overall['mae']}")
        self.check(report["n_pairs"] == expected_pairs,
                   f"report scored {report['n_pairs']} pairs, expected {expected_pairs}")
        self.check(report["n_pairs"] + report["n_skipped"] == held_out,
                   f"report covers {report['n_pairs'] + report['n_skipped']} of {held_out} held-out pairs")
        # every held-out pair is an operation; a skipped one failed
        self.attempted += report["n_pairs"] + report["n_skipped"]
        self.failures.extend(["held-out pair skipped"] * report["n_skipped"])

    def check_predictions(self) -> None:
        from hvfcast.domain import EYE_FROM_WIRE, load_dataset, mask_cells
        from hvfcast.evaluation import ensemble_predict
        from hvfcast.models import load_weights
        from hvfcast.pipeline import FeatureCombo, encode_input

        fields = {(f.patient_id, f.eye, f.test_index): f for f in load_dataset(self.data / "data.jsonl")}
        combo = FeatureCombo.parse(COMBO)
        models: dict[float, list] = {}
        expected: dict[tuple, list[float]] = {}
        for pair, out in self.served:
            ref, center = pair["input_ref"], pair["bin"]
            key = (ref["patient_id"], EYE_FROM_WIRE[ref["eye"]], ref["test_index"])
            if (key, center) not in expected:
                if center not in models:
                    fold_dirs = sorted((self.runs / "intervals" / f"bin-{center:.1f}").glob("fold-*"),
                                       key=lambda d: int(d.name.split("-", 1)[1]))
                    models[center] = [load_weights(d) for d in fold_dirs]
                forecast = ensemble_predict(models[center], encode_input(fields[key], combo), bin_center=center)
                values = forecast.exported_values()
                expected[(key, center)] = [round(values[c], 2) for c in mask_cells()]
            got = json.loads(out.read_text())
            self.check(got["values"] == expected[(key, center)] and got["bin"] == center,
                       f"predict {out.name} differs from ensemble_predict")

    def check_against_earlier_runs(self, digest: str) -> None:
        """Result digests must match every earlier run of this workload, seed and configuration."""
        config = hashlib.sha256(json.dumps(asdict(self.w), sort_keys=True).encode()).hexdigest()[:16]
        store = self.work.parent / "digests.json"
        known = json.loads(store.read_text()) if store.is_file() else {}
        key = f"{self.w.name}:{self.seed}:{config}"
        self.check(known.setdefault(key, digest) == digest, f"result digest differs from an earlier run of {key}")
        store.write_text(json.dumps(known, sort_keys=True, indent=2) + "\n")

    # -- the run ----------------------------------------------------------

    def execute(self) -> dict[str, float]:
        """Measure, then gate; returns the end-to-end metrics."""
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        units = [functools.partial(self.setup_once, 0)] + interleave([
            ([functools.partial(self.train_rep, r) for r in range(self.w.reps)], True),
            ([self.serve_tree] if self.w.serve_train else [], True),
            ([functools.partial(self.evaluate, i) for i in range(self.w.evaluates)], False),
            ([self.predict_chunk] * -(-self.w.min_predicts // PREDICT_CHUNK), False),
            ([functools.partial(self.setup_once, i) for i in range(1, self.w.setups)], False),
            ([self.cold_start] * self.w.cold_starts, False),
        ])
        if not self.w.timed_train:
            self.runs = self.data / "runs"
        for unit in units:
            self.speed.append(host.speed_probe())
            unit()
        while self.timed_s < self.seconds:
            self.speed.append(host.speed_probe())
            self.predict_chunk()
        self.speed.append(host.speed_probe())
        for what, dirs in (("set-up", [self.work / f"setup-{i}" for i in range(self.w.setups)]),
                           ("training repetition", self.trained),
                           ("evaluate report", [self.work / f"eval-{i}" for i in range(self.w.evaluates)])):
            self.same_digests(dirs, what)
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        if self.tracer:
            self.tracer.uninstall()

        report = json.loads((self.work / "eval-0" / "report.json").read_text())
        first = self.trained[0]
        for tree in sorted({first, self.runs}):
            self.check_checkpoints(tree)
            self.check_jobs(tree)
        self.check_report(report, len(self.pool), self.held_out)
        self.check_predictions()
        digest = hashlib.sha256(
            " ".join(tree_digest(p) for p in (self.data, first, self.runs, self.work / "eval-0")).encode()
        ).hexdigest()
        self.check_against_earlier_runs(digest)

        pairs = [pairs_trained(p) for p in self.trained]
        raw, adjusted = (self.timings(report["n_pairs"], pairs, scaled) for scaled in (False, True))
        self.facts = {
            "raw_end_to_end": raw,
            "speed_probe_ms": self.speed,
            "walls_s": self.walls,
            "train_units": [{"dir": p.name, "pairs": n} for p, n in zip(self.trained, pairs)],
            # which jobs a pool worker runs, and so when its cyclic collector
            # runs, depends on scheduling: the workers' peak is not steady
            "largest_child_peak_rss_mb": children / 1024.0,
            "result_digest": digest,
            # deterministic quality figures: recorded, not gated (see README)
            "val_mae_db": statistics.fmean(h["best_val_mae"] for h in trained_cells(first)),
            "test_mae_db": report["overall"]["mae"],
        }
        return adjusted | {
            "peak_rss_mb": own / 1024.0,
            "success_ratio": (self.attempted - len(self.failures)) / self.attempted,
        }

    def timings(self, eval_pairs: int, train_pairs: list[int], scaled: bool) -> dict[str, float]:
        """Timing metrics; `scaled` brings each sample to the reference host speed,
        by the mean of the probes taken before its unit and before the next."""
        def walls(kind: str) -> list[float]:
            if not scaled:
                return [wall for wall, _ in self.walls[kind]]
            return [wall * 2.0 * host.REFERENCE_MS / (self.speed[u] + self.speed[u + 1])
                    for wall, u in self.walls[kind]]

        latencies = [w * 1000.0 for w in walls("predict")]
        return {
            "setup_s": statistics.median(walls("setup")),
            "train_pairs_per_s": statistics.median(n / w for n, w in zip(train_pairs, walls("train"))),
            "eval_pairs_per_s": statistics.median(eval_pairs / w for w in walls("eval")),
            "predict_ms_p50": statistics.median(latencies),
            "predict_ms_p90": statistics.quantiles(latencies, n=100)[89],
            "cold_start_ms_p50": statistics.median(walls("cold")) * 1000.0,
        }


def smoke(workload: Workload) -> Workload:
    return replace(workload, **SMOKE)
