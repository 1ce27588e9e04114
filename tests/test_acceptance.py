"""Acceptance gate: one test per criterion, printed as a pass/fail line.

Run with `pytest tests/test_acceptance.py -v`.  The suite trains real
(desk-scale) models, so it takes several minutes on one CPU.

Known red: the Adam quadratic-convergence bound asserts |theta| < 1e-2
within 2000 steps, but standard bias-corrected Adam (verified bit-identical
to torch.optim.Adam on this trajectory) first passes at step 2203.  The
test states the bound as specified and fails honestly.
"""

import json
import time
from datetime import date, timedelta
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from hvfcast import cli, pipeline, synthsim
from hvfcast.autodiff import AdamState, Tensor, adam_step, grad_check, masked_mae
from hvfcast.domain import (
    VisualField,
    mask_cells,
    parse_record,
    serialize_record,
    valid_mask_array,
)
from hvfcast.evaluation import (
    baseline_forecast,
    bland_altman,
    evaluate_testset,
    pearson_adj_r2,
)
from hvfcast.models import (
    ModelSpec,
    build_model,
    count_layers,
    load_weights,
    save_weights,
    spec_from_name,
    weights_hash,
)
from hvfcast.pipeline import BIN_CENTERS, FeatureCombo, assign_bin, make_pairs, split_patients
from hvfcast.trainer import TrainConfig, load_interval_models, train_interval_chain

from conftest import make_field, random_values

PASS = "ACCEPTANCE PASS:"


# ---------------------------------------------------------------------------
# Shared heavyweight fixtures


PROGRESSIVE_MIX = {
    "diffuse": 0.25,
    "superior_arcuate": 0.25,
    "inferior_arcuate": 0.25,
    "nasal_step": 0.125,
    "paracentral": 0.125,
}


@pytest.fixture(scope="session")
def progressive_cohort():
    """Noiseless progressive cohort: 200 patients followed for 6 years."""
    cfg = synthsim.CohortConfig(
        patients=200,
        tests_per_eye=(4, 6),
        followup_years=(6.0, 6.0),
        archetype_mix=dict(PROGRESSIVE_MIX),
        rate_range=(0.4, 1.2),
        noise=False,
        seed=20260809,
        baseline_age_range=(50.0, 70.0),
    )
    fields, meta = synthsim.generate_cohort(cfg)
    binned, _ = pipeline.bin_pairs(make_pairs(fields))
    plan = split_patients({f.patient_id for f in fields}, seed=101)
    return fields, meta, binned, plan


@pytest.fixture(scope="session")
def bin1_ensemble_report(progressive_cohort, tmp_path_factory):
    """Desk-scale 1.0-year-bin models for all 10 folds, plus their test report."""
    fields, _, binned, plan = progressive_cohort
    runs = tmp_path_factory.mktemp("bin1-runs")
    train_binned = pipeline.pairs_for_patients(binned, plan.train_patients())
    test_binned = pipeline.pairs_for_patients(binned, plan.test_patients)
    only_bin1 = {c: (train_binned[c] if c == 1.0 else []) for c in BIN_CENTERS}
    combo = FeatureCombo(age=True)
    spec = spec_from_name("Cascade-1", widths=(8, 16, 24), in_channels=combo.channels())
    cfg = TrainConfig(epochs=130, widths=(8, 16, 24), seed=33)
    train_interval_chain(spec, combo, only_bin1, plan, cfg, runs_dir=runs, workers=2)
    report = evaluate_testset(
        load_interval_models(runs)[1],
        {1.0: test_binned[1.0]},
        combo,
        fields=fields,
        bootstrap_seed=7,
        n_bootstrap=300,
    )
    return report


def _cli_pipeline(root: Path, workers: int) -> None:
    root.mkdir(parents=True, exist_ok=True)
    d, p, s = str(root / "d.jsonl"), str(root / "pairs.jsonl"), str(root / "split.json")
    runs = str(root / "runs")
    assert cli.main(["simulate", "--patients", "40", "--tests-min", "3", "--tests-max", "5",
                     "--span-min", "2.0", "--span-max", "5.6", "--seed", "21", "--out", d]) == 0
    assert cli.main(["pairs", "--data", d, "--out", p]) == 0
    assert cli.main(["split", "--data", d, "--seed", "22", "--out", s]) == 0
    base = ["--data", d, "--pairs", p, "--split", s, "--out", runs,
            "--epochs", "1", "--widths", "4,8,12", "--fc-hidden", "64",
            "--seed", "23", "--workers", str(workers)]
    for phase in ("arch", "features", "intervals"):
        assert cli.main(["train", "--phase", phase] + base) == 0
    assert cli.main(["evaluate", "--data", d, "--pairs", p, "--split", s, "--runs", runs,
                     "--bootstrap-seed", "24", "--bootstrap-n", "200",
                     "--out", str(root / "report.json")]) == 0


@pytest.fixture(scope="session")
def twin_pipelines(tmp_path_factory):
    """The full desk-scale pipeline run twice: --workers 1 and --workers 8."""
    root = tmp_path_factory.mktemp("determinism")
    _cli_pipeline(root / "w1", workers=1)
    _cli_pipeline(root / "w8", workers=8)
    return root / "w1", root / "w8"


# ---------------------------------------------------------------------------
# Criteria


def test_criterion_gradient_fidelity():
    """Every family's reverse-mode gradient matches finite differences."""
    rng = np.random.default_rng(7)
    mask = valid_mask_array()
    started = time.time()
    worst = {}
    for family, k in (("FullyConnected", None), ("FullBN", 1), ("Residual", 1), ("Cascade", 2)):
        spec = ModelSpec(family=family, depth_k=k, widths=(4, 8, 12), fc_hidden=12, seed=3)
        model = build_model(spec)
        x = rng.normal(size=(2, 1, 8, 9)) * 5 + 20
        y = rng.normal(size=(2, 1, 8, 9)) * 5 + 20

        def f():
            return masked_mae(model.forward(x, mode="train"), y, mask)

        params = [p for _, p in model.params.items()]
        worst[spec.name] = grad_check(f, params, eps=1e-6, kink_tol=1e-6)
    elapsed = time.time() - started
    assert all(err < 1e-5 for err in worst.values()), worst
    assert elapsed < 60.0, f"gradient check took {elapsed:.1f}s"
    print(f"{PASS} gradient fidelity {worst} in {elapsed:.1f}s")


def test_criterion_layer_parity():
    """All nine published layer counts are reproduced exactly."""
    expected = {
        "FullyConnected": 2,
        "FullBN-3": 10, "FullBN-5": 16, "FullBN-7": 22,
        "Residual-3": 12, "Residual-5": 18, "Residual-7": 24,
        "Cascade-3": 10, "Cascade-5": 16,
    }
    got = {name: count_layers(spec_from_name(name)) for name in expected}
    assert got == expected
    print(f"{PASS} layer parity on all nine architectures")


def test_criterion_adam_oracle():
    """First step matches the closed form; quadratic reaches 1e-2 in 2000 steps."""
    theta = Tensor(np.array([0.0]))
    params = {"theta": theta}
    theta.grad[:] = 1.0
    adam_step(params, AdamState(lr=1e-3))
    closed_form = -1e-3 * 1.0 / (1.0 + 1e-8)
    assert abs(theta.data[0] - closed_form) < 1e-12

    p = Tensor(np.array([1.0]))
    params2 = {"theta": p}
    state = AdamState(lr=1e-3)
    first_pass = None
    for step in range(2000):
        p.grad[:] = 2.0 * p.data
        adam_step(params2, state)
        if first_pass is None and abs(p.data[0]) < 1e-2:
            first_pass = step + 1
    assert first_pass is not None and first_pass <= 2000, (
        f"|theta| never drops below 1e-2 within 2000 steps (final {abs(p.data[0]):.4f}); "
        "the trajectory is bit-identical to torch.optim.Adam, which first passes at step 2203"
    )
    print(f"{PASS} adam oracle (first pass at step {first_pass})")


def test_criterion_pairing_binning_oracle():
    """make_pairs + assign_bin agree with brute-force enumeration on 100 eyes."""
    rng = np.random.default_rng(11)
    base = date(2011, 2, 7)
    fields = []
    for i in range(100):
        pid = f"E{i:03d}"
        eye = "right" if i % 2 == 0 else "left"
        n = int(rng.integers(1, 9))
        days = sorted(rng.choice(np.arange(0, 2400), size=n, replace=False).tolist())
        for idx, day in enumerate(days, start=1):
            fields.append(
                make_field(
                    rng,
                    patient_id=pid,
                    eye=eye,
                    age_years=50.0 + day / 365.25,
                    test_date=base + timedelta(days=int(day)),
                    test_index=idx,
                    values=random_values(rng),
                )
            )

    got = {}
    for pair in make_pairs(fields):
        key = (pair.input.patient_id, pair.input.eye, pair.input.test_index, pair.target.test_index)
        got[key] = (pair.delta_years, assign_bin(pair.delta_years))

    expected = {}
    by_eye = {}
    for f in fields:
        by_eye.setdefault((f.patient_id, f.eye), []).append(f)
    for (pid, eye), series in by_eye.items():
        series.sort(key=lambda f: f.test_date)
        for a, b in combinations(series, 2):
            delta = (b.test_date - a.test_date).days / 365.25
            if delta < 0.75 or delta > 5.5:
                bin_center = None
            else:
                bin_center = None
                for c in BIN_CENTERS:
                    lo, hi = c - 0.25, c + 0.25
                    if (lo <= delta < hi) or (c == 5.5 and 5.25 <= delta <= 5.5):
                        bin_center = c
                        break
            expected[(pid, eye, a.test_index, b.test_index)] = (delta, bin_center)

    assert got == expected
    n_excluded = sum(1 for _, b in expected.values() if b is None)
    print(f"{PASS} pairing/binning oracle on {len(expected)} pairs ({n_excluded} excluded)")


def test_criterion_split_hygiene():
    """1000 random split plans show no patient leakage anywhere."""
    ids = [f"P{i:04d}" for i in range(57)]
    for seed in range(1000):
        plan = split_patients(ids, seed=seed)
        test = set(plan.test_patients)
        folds = [set(f) for f in plan.folds]
        assert all(not fs & test for fs in folds)
        assert all(not a & b for a, b in combinations(folds, 2))
        assert set().union(test, *folds) == set(ids)
    print(f"{PASS} split hygiene over 1000 plans")


def test_criterion_chain_structure(tmp_path):
    """Desk-scale interval run: exactly 100 checkpoints, hash-linked chain."""
    started = time.time()
    root = tmp_path
    d, p, s = str(root / "d.jsonl"), str(root / "pairs.jsonl"), str(root / "split.json")
    assert cli.main(["simulate", "--patients", "80", "--tests-min", "4", "--tests-max", "7",
                     "--span-min", "5.3", "--span-max", "5.5",
                     "--archetype", "normal=0.2", "--archetype", "diffuse=0.2",
                     "--archetype", "superior_arcuate=0.2", "--archetype", "inferior_arcuate=0.2",
                     "--archetype", "nasal_step=0.1", "--archetype", "paracentral=0.1",
                     "--no-noise", "--seed", "11", "--out", d]) == 0
    assert cli.main(["pairs", "--data", d, "--out", p]) == 0
    assert cli.main(["split", "--data", d, "--seed", "3", "--out", s]) == 0
    assert cli.main(["train", "--phase", "intervals",
                     "--data", d, "--pairs", p, "--split", s, "--out", str(root / "runs"),
                     "--arch", "Cascade-2", "--combo", "age",
                     "--epochs", "5", "--widths", "4,8,12", "--seed", "5", "--workers", "1"]) == 0
    elapsed = time.time() - started

    chain = json.loads((root / "runs" / "intervals" / "chain_result.json").read_text())
    assert chain["n_checkpoints"] == 100
    assert len(list((root / "runs" / "intervals").glob("bin-*/fold-*/weights.bin"))) == 100

    # every later bin starts from the previous bin's frozen weights
    by_fold = {}
    for entry in chain["entries"]:
        by_fold.setdefault(entry["fold"], []).append(entry)
    links = 0
    for entries in by_fold.values():
        entries.sort(key=lambda e: e["bin"])
        prev_best = None
        for e in entries:
            assert not e["gap"]
            if prev_best is not None:
                assert e["initial_weights_sha256"] == prev_best
                links += 1
            prev_best = e["best_weights_sha256"]
    assert links == 90

    # the recorded hashes are real: recompute a few from the stored weights
    for entry in chain["entries"][::23]:
        model = load_weights(root / "runs" / entry["checkpoint"])
        assert weights_hash(model) == entry["best_weights_sha256"]

    assert elapsed < 600.0, f"chain run took {elapsed:.0f}s"
    print(f"{PASS} chain structure: 100 checkpoints, 90 hash links, {elapsed:.0f}s")


def test_criterion_pipeline_determinism(twin_pipelines):
    """workers=1 and workers=8 produce byte-identical artifact trees."""
    a, b = twin_pipelines

    def tree(root: Path):
        return sorted(
            p.relative_to(root) for p in root.rglob("*")
            if p.is_file() and not p.name.endswith("run_manifest.json")
        )

    ta, tb = tree(a), tree(b)
    assert ta == tb
    differing = [str(rel) for rel in ta if (a / rel).read_bytes() != (b / rel).read_bytes()]
    assert differing == []

    # the two selection phases really did run their full grids
    assert len(list((a / "runs" / "arch").glob("*/fold-*/history.json"))) == 9 * 10
    assert len(list((a / "runs" / "features").glob("*/fold-*/history.json"))) == 16 * 10
    print(f"{PASS} determinism across {len(ta)} files (run manifests excluded)")


def test_criterion_learning_signal(progressive_cohort, bin1_ensemble_report):
    """Trained 1.0-year models beat copy-forward on held-out progressive eyes."""
    _, _, binned, _ = progressive_cohort
    assert all(len(binned[c]) > 0 for c in BIN_CENTERS)  # 6-year span fills every bin
    report = bin1_ensemble_report
    copy_row = next(r for r in report["baselines"] if r["method"] == "copy")
    assert copy_row["n_pairs"] == report["n_pairs"]
    assert report["overall"]["mae"] < copy_row["mae"], (
        f"model {report['overall']['mae']:.4f} vs copy {copy_row['mae']:.4f}"
    )
    print(
        f"{PASS} learning signal: model {report['overall']['mae']:.3f} dB < "
        f"copy {copy_row['mae']:.3f} dB on {report['n_pairs']} pairs"
    )


def test_criterion_ols_exact_fit(progressive_cohort):
    """Pointwise least squares is exact on the cohort's linear trajectories.

    Stored fields quantize to 0.01 dB, which already costs the regression
    ~4e-3 dB, so the exact-fit check rebuilds each eye's unquantized
    trajectory from the cohort's ground-truth metadata (same dates, ages,
    archetype, and rate; no value ever clamps in this cohort).
    """
    fields, meta, _, _ = progressive_cohort
    truth = {p["patient_id"]: p for p in meta["patients"]}
    by_eye = {}
    for f in fields:
        by_eye.setdefault((f.patient_id, f.eye), []).append(f)

    checked = 0
    worst = 0.0
    for (pid, eye), series in sorted(by_eye.items())[:40]:
        series.sort(key=lambda f: f.test_date)
        if len(series) < 3:
            continue
        info = truth[pid]["eyes"][eye]
        arch = synthsim.ARCHETYPES[info["archetype"]]
        rate = info["rate_db_per_year"]
        day0 = series[0].test_date

        def exact_values(f: VisualField) -> tuple[float, ...]:
            t = (f.test_date - day0).days / 365.25
            values = []
            affected = dict(arch.affected(eye))
            for cell, v in zip(mask_cells(), synthsim.normative_surface(f.age_years, eye)):
                if cell in affected:
                    v -= info["depth_db"] + rate * affected[cell] * t
                assert 0.0 < v < 40.0  # clamp never engages in this cohort
                values.append(v)
            return tuple(values)

        exact_series = [
            VisualField(
                patient_id=f.patient_id, eye=f.eye, gender=f.gender,
                age_years=f.age_years, test_date=f.test_date,
                test_index=f.test_index, values=exact_values(f),
            )
            for f in series
        ]
        history, target = exact_series[:-1], exact_series[-1]
        horizon = pipeline.years_between(history[-1].test_date, target.test_date)
        pred = baseline_forecast("pointwise_ols", history, horizon)
        mae = np.mean(np.abs(pred - np.array(target.values)))
        worst = max(worst, mae)
        checked += 1

    assert checked >= 20
    assert worst < 1e-6, f"worst exact-fit MAE {worst:.2e}"
    print(f"{PASS} pointwise-OLS exact fit on {checked} eyes (worst {worst:.1e} dB)")


def test_criterion_metric_oracles(twin_pipelines, bin1_ensemble_report):
    """Hand-computed statistics to 1e-10; RMSE >= MAE on all emitted reports."""
    r, adj, _ = pearson_adj_r2([(0, 0), (1, 2), (2, 1), (3, 3)])
    assert abs(r - 0.8) < 1e-10
    assert abs(adj - (1 - (1 - 0.64) * 3 / 2)) < 1e-10

    mean, lo, hi = bland_altman([(1.0, 0.0), (3.0, 0.0)])
    assert abs(mean - 2.0) < 1e-10
    assert abs(lo - (2.0 - 1.96 * np.sqrt(2))) < 1e-10
    assert abs(hi - (2.0 + 1.96 * np.sqrt(2))) < 1e-10

    # adjusted R^2 at r = 0.92 stays within 0.01 of 0.84 for large n
    n = 10_000
    adj_large = 1 - (1 - 0.92**2) * (n - 1) / (n - 2)
    assert abs(adj_large - 0.84) < 0.01

    reports = [bin1_ensemble_report]
    for root in twin_pipelines:
        reports.append(json.loads((root / "report.json").read_text()))
    for rep in reports:
        assert rep["overall"]["rmse"] >= rep["overall"]["mae"]
        for row in rep["baselines"]:
            if row["mae"] is not None:
                assert row["rmse"] >= row["mae"]
    print(f"{PASS} metric oracles and RMSE >= MAE on {len(reports)} reports")


def test_criterion_ensemble_semantics():
    """evaluate_testset equals a hand-computed cell-mean-then-MAE oracle."""
    from test_evaluation import constant_model

    base = date(2016, 5, 2)
    rng = np.random.default_rng(3)
    targets = [
        (24.0,) * 54,
        tuple((rng.integers(1800, 3200, size=54) / 100.0).tolist()),
    ]
    pairs = []
    for i, tvals in enumerate(targets):
        f0 = make_field(rng, patient_id=f"P{i}", test_date=base, test_index=1)
        f1 = make_field(
            patient_id=f"P{i}", values=tvals,
            test_date=base + timedelta(days=380), test_index=2,
        )
        pairs.append(
            pipeline.FieldPair(input=f0, target=f1, delta_years=pipeline.years_between(base, f1.test_date))
        )

    c1, c2 = 21.0, 26.0
    models = [constant_model(c1), constant_model(c2)]
    report = evaluate_testset({1.0: models}, {1.0: pairs}, FeatureCombo(), n_bootstrap=50)

    ensembled = (c1 + c2) / 2.0
    per_pair = [np.mean([abs(ensembled - v) for v in t]) for t in targets]
    oracle_mae = float(np.mean(per_pair))
    oracle_rmse = float(
        np.sqrt(np.mean([np.mean([(ensembled - v) ** 2 for v in t]) for t in targets]))
    )
    assert abs(report["overall"]["mae"] - oracle_mae) < 1e-12
    assert abs(report["overall"]["rmse"] - oracle_rmse) < 1e-12
    print(f"{PASS} ensemble semantics vs hand oracle (MAE {oracle_mae:.3f})")


def test_criterion_serialization(tmp_path):
    """Bit-exact weight round trip; 10,000 random fields survive the codec."""
    model = build_model(ModelSpec(family="Cascade", depth_k=2, widths=(4, 8, 12), seed=41))
    model.forward(np.random.default_rng(42).normal(size=(4, 1, 8, 9)), mode="train")
    save_weights(model, tmp_path / "ck")
    reloaded = load_weights(tmp_path / "ck")
    assert weights_hash(reloaded) == weights_hash(model)
    assert (
        (tmp_path / "ck" / "weights.bin").read_bytes()
        == b"".join(
            np.ascontiguousarray(arr, dtype="<f8").tobytes()
            for _, arr, _ in reloaded.all_entries()
        )
    )

    rng = np.random.default_rng(43)
    for i in range(10_000):
        f = make_field(
            rng,
            patient_id=f"P{i}",
            eye="right" if i % 2 else "left",
            gender="M" if i % 3 else "F",
            age_years=float(rng.integers(20, 95)),
            test_index=int(rng.integers(1, 30)),
            values=random_values(rng),
        )
        assert parse_record(serialize_record(f)) == f
    print(f"{PASS} serialization: weights bit-exact, 10000 field round trips")
