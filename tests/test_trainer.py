"""Training-loop contracts, selection phases, and the transfer chain."""

import ctypes
import gc
import json
import shutil
from concurrent.futures import Future
from types import SimpleNamespace

import numpy as np
import pytest

from hvfcast import trainer
from hvfcast.autodiff import Tensor, adam_step, masked_mae
from hvfcast.domain import DataError, valid_mask_array
from hvfcast.models import ModelSpec, build_model, spec_from_name, weights_hash
from hvfcast.pipeline import (
    BIN_CENTERS,
    FeatureCombo,
    bin_pairs,
    encode_pairs,
    make_pairs,
    split_patients,
)
from hvfcast.trainer import (
    ChainResult,
    TrainConfig,
    TrainingDiverged,
    _pick_winner,
    evaluate_masked_mae,
    fold_split,
    keep_freed_memory,
    load_interval_models,
    select_architecture,
    select_features,
    train_interval_chain,
    train_model,
)

TINY_SPEC = ModelSpec(family="Cascade", depth_k=2, widths=(2, 3, 4), in_channels=1)


def tiny_data(n=24, seed=0, channels=1):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(n, channels, 8, 9)) * 4 + 22
    ys = xs[:, :1] - 1.0 + rng.normal(size=(n, 1, 8, 9)) * 0.2
    return xs, ys


@pytest.fixture(scope="module")
def cohort_pairs(small_cohort):
    _, fields, _ = small_cohort
    binned, _ = bin_pairs(make_pairs(fields))
    plan = split_patients({f.patient_id for f in fields}, seed=17)
    return fields, binned, plan


class TestTrainModel:
    def test_single_epoch_history(self):
        m = build_model(TINY_SPEC)
        hist = train_model(m, tiny_data(), tiny_data(8, seed=1), TrainConfig(epochs=1, seed=2))
        assert len(hist.train_loss) == 1
        assert len(hist.val_mae) == 1
        assert hist.best_epoch == 0

    def test_zero_epochs_keeps_initial_weights(self):
        m = build_model(TINY_SPEC)
        before = weights_hash(m)
        hist = train_model(m, tiny_data(), tiny_data(8, seed=1), TrainConfig(epochs=0))
        assert hist.train_loss == [] and hist.best_epoch is None
        assert weights_hash(m) == before == hist.best_hash

    def test_deterministic_for_fixed_seeds(self):
        def run():
            m = build_model(TINY_SPEC.replace(seed=11))
            hist = train_model(m, tiny_data(), tiny_data(8, seed=1), TrainConfig(epochs=3, seed=4))
            return hist.train_loss, hist.val_mae, weights_hash(m)

        assert run() == run()

    def test_best_snapshot_reproduces_recorded_minimum(self):
        m = build_model(TINY_SPEC.replace(seed=12))
        val = tiny_data(10, seed=3)
        hist = train_model(m, tiny_data(seed=2), val, TrainConfig(epochs=5, seed=5))
        # the model ends restored to the best epoch's weights
        revalidated = evaluate_masked_mae(m, val[0], val[1], 32)
        assert revalidated == hist.best_val_mae == min(hist.val_mae)
        assert hist.val_mae[hist.best_epoch] == hist.best_val_mae

    def test_best_never_exceeds_first_epoch(self):
        m = build_model(TINY_SPEC.replace(seed=13))
        hist = train_model(m, tiny_data(seed=4), tiny_data(8, seed=5), TrainConfig(epochs=6, seed=6))
        assert hist.best_val_mae <= hist.val_mae[0]

    def test_freeze_last_keeps_final_weights(self):
        spec = TINY_SPEC.replace(seed=14)
        m = build_model(spec)
        cfg = TrainConfig(epochs=4, seed=7, freeze="last")
        hist = train_model(m, tiny_data(seed=6), tiny_data(8, seed=7), cfg)
        assert hist.best_epoch == 3
        assert hist.best_val_mae == hist.val_mae[-1]

    def test_training_reduces_loss(self):
        m = build_model(TINY_SPEC.replace(seed=15))
        hist = train_model(m, tiny_data(48, seed=8), tiny_data(12, seed=9), TrainConfig(epochs=15, seed=8))
        assert hist.train_loss[-1] < hist.train_loss[0]

    def test_divergence_raises_with_checkpoint(self):
        m = build_model(TINY_SPEC.replace(seed=16))
        cfg = TrainConfig(epochs=10, seed=9, lr=1e300)  # deliberately explodes
        before = weights_hash(m)
        with pytest.raises(TrainingDiverged, match="divergence") as exc:
            train_model(m, tiny_data(seed=10), tiny_data(8, seed=11), cfg)
        assert exc.value.initial_hash == before

    def _diverge(self, monkeypatch, name, replacement) -> str:
        """The TrainingDiverged text of a run with trainer's `name` replaced."""
        monkeypatch.setattr(trainer, name, replacement)
        m = build_model(TINY_SPEC.replace(seed=17))
        with pytest.raises(TrainingDiverged) as exc:
            train_model(m, tiny_data(seed=10), tiny_data(8, seed=11), TrainConfig(epochs=2, seed=9))
        return str(exc.value)

    # Each finite check on its own: a value turns non-finite without a float
    # signal, as a GEMM on BLAS worker threads can return one
    def test_non_finite_loss_diverges(self, monkeypatch):
        text = self._diverge(monkeypatch, "masked_mae", lambda out, target, mask: Tensor(np.array(np.inf)))
        assert text == "divergence: non-finite loss at epoch 0, batch 0"

    def test_overflowing_epoch_loss_diverges(self, monkeypatch):
        # a finite batch loss whose share of the epoch's sum overflows
        text = self._diverge(monkeypatch, "masked_mae", lambda out, target, mask: Tensor(np.array(1e306)))
        assert text == "divergence: non-finite loss at epoch 0, batch 0"

    def test_non_finite_gradient_diverges(self, monkeypatch):
        def inf_gradient_step(params, state):
            next(iter(params.values())).grad[...] = np.inf
            adam_step(params, state)

        first = next(iter(build_model(TINY_SPEC).params))
        text = self._diverge(monkeypatch, "adam_step", inf_gradient_step)
        assert text == f"divergence: non-finite gradient in {first!r} at epoch 0, batch 0"

    def test_non_finite_validation_mae_diverges(self, monkeypatch):
        text = self._diverge(monkeypatch, "evaluate_masked_mae", lambda *args: float("nan"))
        assert text == "divergence: non-finite validation MAE at epoch 0, validation"

    def test_empty_sets_rejected(self):
        m = build_model(TINY_SPEC)
        empty = (np.zeros((0, 1, 8, 9)), np.zeros((0, 1, 8, 9)))
        with pytest.raises(DataError, match="nonempty"):
            train_model(m, empty, tiny_data(4), TrainConfig(epochs=1))

    def test_overfits_sixteen_pairs(self):
        # tiny network memorizes a 16-pair set when trained long enough
        m = build_model(ModelSpec(family="Cascade", depth_k=2, widths=(4, 8, 12), in_channels=1, seed=21))
        data = tiny_data(16, seed=12)
        hist = train_model(m, data, data, TrainConfig(epochs=500, batch_size=8, seed=13))
        assert hist.train_loss[-1] < 0.5

    @pytest.mark.parametrize("name", ["Cascade-2", "FullBN-3", "Residual-3", "FullyConnected"])
    def test_training_leaves_no_cyclic_garbage(self, name):
        model = build_model(spec_from_name(name, widths=(2, 3, 4), fc_hidden=8))
        cfg = TrainConfig(epochs=2, widths=(2, 3, 4), fc_hidden=8)
        gc.collect()
        gc.disable()
        try:
            train_model(model, tiny_data(), tiny_data(n=8, seed=1), cfg, shuffle_seed=0)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestBatchNormRunningStats:
    @pytest.mark.parametrize("name", ["Cascade-5", "FullBN-3"])
    def test_epoch0_infer_mae_near_batch_statistics(self, name):
        """After one epoch the running statistics serve about as well as the
        validation batch's own: the selection phases rank on this number."""
        model = build_model(spec_from_name(name, widths=(8, 16, 24), seed=3))
        val_x, val_y = tiny_data(64, seed=1)
        hist = train_model(model, tiny_data(256), (val_x, val_y), TrainConfig(epochs=1, seed=3))
        trained = model.snapshot()
        out = model.forward(Tensor(val_x), mode="train")  # updates the running statistics
        batch_mae = float(masked_mae(out, val_y, valid_mask_array()).data)
        model.restore(trained)
        assert evaluate_masked_mae(model, val_x, val_y) == hist.val_mae[0]
        assert hist.val_mae[0] < 2.0 * batch_mae


class TestKeepFreedMemory:
    SETTING = {"mmap_threshold": 32 << 20, "trim_threshold": 256 << 20}

    @pytest.fixture
    def libc(self, monkeypatch):
        """Make `ctypes.CDLL` return (or raise) the given handle; records each
        open.  The helper's once-per-process cache is cleared around the test."""
        opened = []

        def use(handle):
            def cdll(name):
                opened.append(name)
                if isinstance(handle, Exception):
                    raise handle
                return handle

            monkeypatch.setattr(ctypes, "CDLL", cdll)
            return opened

        keep_freed_memory.cache_clear()
        yield use
        keep_freed_memory.cache_clear()

    def test_sets_both_thresholds_once(self, libc):
        calls = []

        def mallopt(param, value):
            calls.append((param, value))
            return 1

        libc(SimpleNamespace(mallopt=mallopt))
        assert keep_freed_memory() == self.SETTING
        assert keep_freed_memory() == self.SETTING
        assert calls == [(-3, 32 << 20), (-1, 256 << 20)]

    def test_records_only_accepted_thresholds(self, libc):
        libc(SimpleNamespace(mallopt=lambda param, value: int(param == -1)))
        assert keep_freed_memory() == {"trim_threshold": 256 << 20}

    def test_all_rejected_reads_none(self, libc):
        libc(SimpleNamespace(mallopt=lambda param, value: 0))
        assert keep_freed_memory() is None

    @pytest.mark.parametrize("handle", [SimpleNamespace(), OSError("no C library")])
    def test_without_mallopt_does_nothing(self, libc, handle):
        opened = libc(handle)
        assert keep_freed_memory() is None
        assert keep_freed_memory() is None
        assert opened == [None]


class TestFoldSplit:
    def test_validation_fold_held_out(self, cohort_pairs):
        _, binned, plan = cohort_pairs
        pairs = binned[1.0]
        for fold in range(10):
            train, val = fold_split(pairs, plan, fold)
            val_pids = {p.input.patient_id for p in val}
            train_pids = {p.input.patient_id for p in train}
            assert val_pids <= set(plan.folds[fold])
            assert not train_pids & set(plan.folds[fold])
            assert len(train) + len(val) == len(
                [p for p in pairs if p.input.patient_id in set(plan.train_patients())]
            )


class TestWinnerRule:
    def test_lowest_mean_of_fold_minima(self):
        matrix = {"A": [2.0, 2.0], "B": [1.0, 1.5], "C": [1.5, 1.0]}
        assert _pick_winner(matrix) == "B"

    def test_tie_breaks_lexicographically(self):
        matrix = {"beta": [1.0, 1.0], "alpha": [1.0, 1.0]}
        assert _pick_winner(matrix) == "alpha"

    def test_incomplete_candidates_excluded(self):
        matrix = {"good": [2.0, 2.0], "failed": [1.0, None]}
        assert _pick_winner(matrix) == "good"

    def test_all_incomplete_errors(self):
        with pytest.raises(DataError):
            _pick_winner({"x": [None]})


class TestSelectionPhases:
    def test_single_candidate_wins(self, cohort_pairs, tmp_path):
        _, binned, plan = cohort_pairs
        cfg = TrainConfig(epochs=1, widths=(2, 3, 4), seed=5)
        result = select_architecture([TINY_SPEC], binned[1.0], plan, cfg, runs_dir=tmp_path)
        assert result.winner == "Cascade-2"
        assert len(result.matrix["Cascade-2"]) == 10
        assert all(v is not None for v in result.matrix["Cascade-2"])
        assert (tmp_path / "arch" / "phase_result.json").is_file()
        assert (tmp_path / "arch" / "Cascade-2" / "fold-0" / "weights.bin").is_file()
        history = json.loads((tmp_path / "arch" / "Cascade-2" / "fold-3" / "history.json").read_text())
        assert history["fold"] == 3 and history["phase"] == "arch"

    def test_selection_history_has_null_bin_and_no_transfer(self, cohort_pairs, tmp_path):
        _, binned, plan = cohort_pairs
        cfg = TrainConfig(epochs=1, widths=(2, 3, 4), seed=5)
        select_architecture([TINY_SPEC], binned[1.0], plan, cfg, runs_dir=tmp_path)
        history = json.loads((tmp_path / "arch" / "Cascade-2" / "fold-0" / "history.json").read_text())
        assert history["bin"] is None
        assert "transferred_from" not in history
        assert history["candidate"] == "Cascade-2"

    def test_workers_do_not_change_results(self, cohort_pairs, tmp_path):
        _, binned, plan = cohort_pairs
        cfg = TrainConfig(epochs=1, widths=(2, 3, 4), seed=6)
        seq = select_architecture([TINY_SPEC], binned[1.0], plan, cfg, tmp_path / "seq", workers=1)
        par = select_architecture([TINY_SPEC], binned[1.0], plan, cfg, tmp_path / "par", workers=4)
        assert seq.matrix == par.matrix

    def test_all_candidates_diverging_surfaces_divergence(self, cohort_pairs, tmp_path):
        _, binned, plan = cohort_pairs
        cfg = TrainConfig(epochs=2, widths=(2, 3, 4), seed=6, lr=1e300)
        with pytest.raises(TrainingDiverged, match="every candidate"):
            select_architecture([TINY_SPEC], binned[1.0], plan, cfg, runs_dir=tmp_path)

    def test_feature_combos_and_channels(self, cohort_pairs, tmp_path):
        _, binned, plan = cohort_pairs
        cfg = TrainConfig(epochs=1, widths=(2, 3, 4), seed=7)
        combos = [FeatureCombo(), FeatureCombo(age=True), FeatureCombo(age=True, eye=True)]
        result = select_features(TINY_SPEC, combos, binned[1.0], plan, cfg, runs_dir=tmp_path)
        assert set(result.matrix) == {"none", "age", "age+eye"}
        manifest = json.loads((tmp_path / "features" / "age" / "fold-0" / "manifest.json").read_text())
        assert manifest["spec"]["in_channels"] == 2

    def test_combo_none_equals_field_only_encoding(self, cohort_pairs):
        # training with the empty combo is литerally the field-only configuration:
        # same encoded arrays, so identical seeds give identical histories
        _, binned, plan = cohort_pairs
        train, val = fold_split(binned[1.0], plan, 0)
        xa, ya = encode_pairs(train, FeatureCombo())
        xb, yb = encode_pairs(train, FeatureCombo())
        np.testing.assert_array_equal(xa, xb)
        cfg = TrainConfig(epochs=2, seed=8)
        ha = train_model(build_model(TINY_SPEC.replace(seed=3)), (xa, ya), encode_pairs(val, FeatureCombo()), cfg, shuffle_seed=99)
        hb = train_model(build_model(TINY_SPEC.replace(seed=3)), (xb, yb), encode_pairs(val, FeatureCombo()), cfg, shuffle_seed=99)
        assert ha.val_mae == hb.val_mae and ha.best_hash == hb.best_hash


@pytest.fixture(scope="module")
def chain_run(cohort_pairs, tmp_path_factory):
    fields, binned, plan = cohort_pairs
    runs = tmp_path_factory.mktemp("runs")
    cfg = TrainConfig(epochs=2, widths=(2, 3, 4), seed=9)
    result = train_interval_chain(
        TINY_SPEC, FeatureCombo(age=True), binned, plan, cfg, runs_dir=runs, workers=2
    )
    return runs, result, binned, plan


class TestIntervalChain:
    def test_entries_cover_all_bins_and_folds(self, chain_run):
        _, result, _, _ = chain_run
        assert len(result.entries) == len(BIN_CENTERS) * 10
        assert result.n_checkpoints == sum(1 for e in result.entries if not e["gap"])

    def test_transfer_initialization_hashes(self, chain_run):
        _, result, _, _ = chain_run
        by_fold = {}
        for e in result.entries:
            by_fold.setdefault(e["fold"], []).append(e)
        checked = 0
        for entries in by_fold.values():
            entries.sort(key=lambda e: e["bin"])
            prev_best = None
            for e in entries:
                if e["gap"]:
                    continue
                if prev_best is not None:
                    assert e["initial_weights_sha256"] == prev_best
                    checked += 1
                prev_best = e["best_weights_sha256"]
        assert checked > 0

    def test_checkpoints_reload_for_evaluation(self, chain_run):
        runs, result, _, _ = chain_run
        combo, models_by_bin = load_interval_models(runs)
        assert combo == FeatureCombo(age=True)
        trained_bins = {e["bin"] for e in result.entries if not e["gap"]}
        assert set(models_by_bin) == trained_bins
        some_bin = sorted(trained_bins)[0]
        model = models_by_bin[some_bin][0]
        out = model.forward(np.zeros((1, 2, 8, 9)), mode="infer")
        assert out.data.shape == (1, 1, 8, 9)

    def test_load_interval_models_reads_only_requested_bins(self, chain_run):
        runs, result, _, _ = chain_run
        _, all_bins = load_interval_models(runs)
        some_bin = sorted(all_bins)[-1]
        _, one_bin = load_interval_models(runs, bins=[some_bin])
        assert list(one_bin) == [some_bin]
        assert [weights_hash(m) for m in one_bin[some_bin]] == [
            weights_hash(m) for m in all_bins[some_bin]
        ]

    def test_unrequested_entries_need_only_a_numeric_bin(self, chain_run, tmp_path):
        runs, _, _, _ = chain_run
        copy = tmp_path / "runs"
        shutil.copytree(runs, copy)
        path = copy / "intervals" / "chain_result.json"
        chain = json.loads(path.read_text())
        some_bin = max(e["bin"] for e in chain["entries"] if not e["gap"])
        for e in chain["entries"]:
            if e["bin"] != some_bin:
                e["gap"], e["checkpoint"] = "no", 5
        path.write_text(json.dumps(chain))
        _, one_bin = load_interval_models(copy, bins=[some_bin])
        assert list(one_bin) == [some_bin]
        with pytest.raises(DataError, match="'gap' must be a bool, got 'no'"):
            load_interval_models(copy)

    def test_chain_history_records_bin_and_transfer(self, chain_run):
        runs, result, _, _ = chain_run
        trained = sorted((e for e in result.entries if e["fold"] == 0 and not e["gap"]),
                         key=lambda e: e["bin"])
        for entry in trained[:2]:
            history = json.loads((runs / entry["checkpoint"] / "history.json").read_text())
            assert history["bin"] == entry["bin"]
            assert history["transferred_from"] == entry["transferred_from"]
            assert history["candidate"] == "age" and history["phase"] == "intervals"
        assert trained[0]["transferred_from"] is None
        assert trained[1]["transferred_from"] == f"bin-{trained[0]['bin']:.1f}"

    def test_diverging_chain_records_gaps_without_checkpoints(self, cohort_pairs, tmp_path):
        _, binned, plan = cohort_pairs
        cfg = TrainConfig(epochs=2, widths=(2, 3, 4), seed=12, lr=1e300)
        result = train_interval_chain(TINY_SPEC, FeatureCombo(), binned, plan, cfg, runs_dir=tmp_path)
        diverged = [e for e in result.entries if e["error"]]
        assert diverged
        for e in diverged:
            assert e["gap"] is True and e["best_val_mae"] is None
            assert len(e["initial_weights_sha256"]) == 64
            assert "checkpoint" not in e
        # every trained cell diverges at this rate, so nothing is written but the result
        assert result.n_checkpoints == 0
        assert not list((tmp_path / "intervals").glob("bin-*"))
        on_disk = json.loads((tmp_path / "intervals" / "chain_result.json").read_text())
        assert on_disk["entries"] == json.loads(json.dumps(result.entries))

    @pytest.mark.parametrize("workers, sizes", [(64, [10]), (3, [3]), (1, [])])
    def test_pool_has_no_more_workers_than_jobs(self, cohort_pairs, tmp_path, monkeypatch, workers, sizes):
        """A fork-started pool forks all `max_workers` children at its first
        submit, so a phase asks for at most one worker per job."""
        asked = []

        class InProcessPool:
            def __init__(self, max_workers, initializer=None):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(trainer, "ProcessPoolExecutor", InProcessPool)
        _, binned, plan = cohort_pairs
        cfg = TrainConfig(epochs=0, widths=(2, 3, 4), seed=11)
        result = train_interval_chain(TINY_SPEC, FeatureCombo(), binned, plan, cfg, tmp_path, workers=workers)
        assert asked == sizes and len(plan.folds) == 10
        assert result.n_checkpoints > 0

    def test_gap_recorded_for_empty_bins(self, cohort_pairs, tmp_path):
        _, binned, plan = cohort_pairs
        only_one = {c: (binned[c] if c == 1.0 else []) for c in BIN_CENTERS}
        cfg = TrainConfig(epochs=1, widths=(2, 3, 4), seed=10)
        result = train_interval_chain(TINY_SPEC, FeatureCombo(), only_one, plan, cfg, runs_dir=tmp_path)
        gaps = [e for e in result.entries if e["gap"]]
        assert len(gaps) == 9 * 10
        assert result.n_checkpoints == 10

    def test_zero_epoch_chain_shares_first_weights(self, cohort_pairs, tmp_path):
        _, binned, plan = cohort_pairs
        cfg = TrainConfig(epochs=0, widths=(2, 3, 4), seed=11)
        result = train_interval_chain(TINY_SPEC, FeatureCombo(), binned, plan, cfg, runs_dir=tmp_path)
        for fold in range(10):
            entries = sorted(
                (e for e in result.entries if e["fold"] == fold and not e["gap"]),
                key=lambda e: e["bin"],
            )
            first = entries[0]
            for e in entries[1:]:
                assert e["best_weights_sha256"] == first["best_weights_sha256"]

    def test_json_result_shape(self, chain_run):
        runs, result, _, _ = chain_run
        on_disk = json.loads((runs / "intervals" / "chain_result.json").read_text())
        assert on_disk["n_checkpoints"] == result.n_checkpoints
        assert on_disk["combo"] == result.combo == "age"
        assert ChainResult(combo="age", entries=on_disk["entries"]).n_checkpoints == result.n_checkpoints
