"""Ensembling, agreement statistics, baselines, and report assembly."""

import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from hvfcast.domain import BLIND_SPOT, RIGHT, DataError, mask_cells, read_json, valid_mask_array, write_json
from hvfcast.evaluation import (
    CLINICAL_REFERENCE,
    _BOOTSTRAP_DRAW,
    _bootstrap_ci,
    baseline_forecast,
    bland_altman,
    ensemble_means,
    ensemble_predict,
    evaluate_testset,
    pearson_adj_r2,
)
from hvfcast.models import Model, ModelSpec, build_model, spec_from_name
from hvfcast.pipeline import FeatureCombo, FieldPair, bin_pairs, encode_input, make_pairs, years_between
from hvfcast.synthsim import normative_surface

from conftest import make_field, make_series


def constant_model(value: float, in_channels: int = 1):
    """A model whose forward output is `value` everywhere."""
    m = build_model(ModelSpec(family="FullBN", depth_k=1, widths=(2, 3, 4), in_channels=in_channels))
    for _, p in m.params.items():
        p.data[...] = 0.0
    m.params["head.b"].data[...] = value
    return m


class TestEnsemble:
    def test_single_model_is_identity(self):
        m = constant_model(17.0)
        x = np.zeros((1, 1, 8, 9))
        forecast = ensemble_predict([m], x)
        np.testing.assert_array_equal(forecast.raw, m.forward(x).data[0, 0])
        assert forecast.n_models == 1

    def test_two_models_average(self):
        forecast = ensemble_predict([constant_model(20.0), constant_model(30.0)], np.zeros((1, 1, 8, 9)))
        np.testing.assert_allclose(forecast.raw, 25.0, atol=1e-12)

    def test_clamp_on_export_only(self):
        forecast = ensemble_predict([constant_model(-1.2)], np.zeros((1, 1, 8, 9)))
        np.testing.assert_allclose(forecast.raw, -1.2, atol=1e-12)
        exported = forecast.exported_values()
        assert all(v == 0.0 for v in exported.values())

    def test_exported_grid_zero_off_mask(self):
        forecast = ensemble_predict([constant_model(55.0)], np.zeros((1, 1, 8, 9)))
        grid = forecast.exported_grid()
        mask = valid_mask_array()
        assert np.all(grid[mask] == 50.0)
        assert np.all(grid[~mask] == 0.0)

    def test_order_invariant_bit_exact(self):
        rng = np.random.default_rng(1)
        ms = []
        for seed in (3, 4, 5):
            m = build_model(ModelSpec(family="FullBN", depth_k=1, widths=(2, 3, 4), seed=seed))
            m.forward(rng.normal(size=(4, 1, 8, 9)), mode="train")
            ms.append(m)
        x = rng.normal(size=(1, 1, 8, 9))
        a = ensemble_predict(ms, x).raw
        b = ensemble_predict(ms[::-1], x).raw
        c = ensemble_predict([ms[1], ms[2], ms[0]], x).raw
        np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(a, c)

    def test_spec_mismatch_rejected(self):
        a = constant_model(1.0)
        b = build_model(ModelSpec(family="FullBN", depth_k=2, widths=(2, 3, 4)))
        with pytest.raises(DataError, match="disagree"):
            ensemble_predict([a, b], np.zeros((1, 1, 8, 9)))

    def test_spec_mismatch_names_both_specs(self):
        """Two models of one architecture name differ in a width: the message
        shows where, as the field lists of both specs."""
        a = build_model(spec_from_name("Cascade-1", widths=(4, 8, 12)))
        b = build_model(spec_from_name("Cascade-1", widths=(4, 8, 16), seed=1))
        with pytest.raises(DataError) as info:
            ensemble_predict([a, b], np.zeros((1, 1, 8, 9)))
        assert str(info.value) == (f"ensemble models disagree on spec: {b.spec.to_dict()} vs "
                                   f"{a.spec.to_dict()} (seed aside)")
        assert "'widths': [4, 8, 16]" in str(info.value)

    def test_no_models_rejected(self):
        with pytest.raises(DataError):
            ensemble_predict([], np.zeros((1, 1, 8, 9)))


class TestEnsembleMeans:
    @settings(max_examples=100, deadline=None)
    @given(
        arch=st.sampled_from(["FullBN-1", "Residual-1", "Cascade-2", "FullyConnected"]),
        in_channels=st.integers(1, 7),
        batch=st.integers(1, 40),
        seed=st.integers(0, 2**16),
    )
    def test_batch_equals_stacked_single_forecasts(self, arch, in_channels, batch, seed):
        """Conv families are bit-identical at any batch size; the dense
        layers are a matrix-vector product at batch 1, so FullyConnected
        may differ in the last bits."""
        rng = np.random.default_rng(seed)
        models = []
        for fold in range(3):
            spec = spec_from_name(arch, widths=(2, 3, 4), in_channels=in_channels, seed=seed + fold, fc_hidden=16)
            m = build_model(spec)
            m.forward(rng.normal(size=(4, in_channels, 8, 9)) * 4 + 20, "train")  # running statistics
            models.append(m)
        xs = rng.normal(size=(batch, in_channels, 8, 9)) * 4 + 20
        got = ensemble_means(models, xs)
        expected = np.stack([ensemble_predict(models, x).raw for x in xs])
        assert got.shape == (batch, 8, 9)
        if arch == "FullyConnected":
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-12)
        else:
            np.testing.assert_array_equal(got, expected)


class TestPearson:
    def test_exact_line(self):
        r, adj, p = pearson_adj_r2([(x, 2 * x + 1) for x in range(5)])
        assert r == pytest.approx(1.0, abs=1e-12)
        assert p < 1e-20

    def test_hand_example(self):
        r, adj, p = pearson_adj_r2([(0, 0), (1, 2), (2, 1), (3, 3)])
        assert r == pytest.approx(0.8, abs=1e-10)
        assert adj == pytest.approx(1 - (1 - 0.64) * 3 / 2, abs=1e-10)
        ref = sstats.pearsonr([0, 1, 2, 3], [0, 2, 1, 3])
        assert r == pytest.approx(ref.statistic, abs=1e-12)
        assert p == pytest.approx(ref.pvalue, abs=1e-12)

    def test_affine_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=40)
        y = 0.7 * x + rng.normal(size=40)
        r1, _, _ = pearson_adj_r2(list(zip(x, y)))
        r2, _, _ = pearson_adj_r2(list(zip(3.5 * x + 11.0, 0.25 * y - 4.0)))
        assert r1 == pytest.approx(r2, abs=1e-12)

    def test_large_n_adjustment_vanishes(self):
        # sample correlation forced to exactly 0.92 by construction
        n = 10_000
        rng = np.random.default_rng(3)
        x = rng.normal(size=n)
        z = rng.normal(size=n)
        xc = (x - x.mean()) / np.linalg.norm(x - x.mean())
        zc = z - z.mean()
        zc -= (zc @ xc) * xc
        zc /= np.linalg.norm(zc)
        r_target = 0.92
        y = r_target * xc + math.sqrt(1 - r_target**2) * zc
        r, adj, p = pearson_adj_r2(list(zip(x, y)))
        assert r == pytest.approx(0.92, abs=1e-9)
        assert adj == pytest.approx(0.92**2, abs=1e-4)  # (n-1)/(n-2) shift ~1.5e-5
        assert abs(adj - 0.84) < 0.01
        assert p < 2.2e-16

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(-40, 40), st.floats(-40, 40)), min_size=3, max_size=80))
    def test_p_value_is_twice_the_student_t_tail(self, pairs):
        try:
            r, _, p = pearson_adj_r2(pairs)
        except DataError:
            return
        n = len(pairs)
        if r * r >= 1.0:
            assert p == 0.0
        else:
            t = abs(r) * math.sqrt((n - 2) / (1.0 - r * r))
            assert p == 2.0 * float(sstats.t.sf(t, df=n - 2))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 60.0), st.integers(1, 2000))
    def test_stdtr_lower_tail_equals_t_sf(self, t, df):
        """The identity `pearson_adj_r2` rests on, over the degrees of freedom a report meets."""
        from scipy.special import stdtr

        assert stdtr(df, -t) == sstats.t.sf(t, df)

    def test_needs_three_points(self):
        with pytest.raises(DataError, match="n >= 3"):
            pearson_adj_r2([(0, 0), (1, 1)])

    def test_zero_variance_degenerate(self):
        with pytest.raises(DataError, match="degenerate"):
            pearson_adj_r2([(1, 0), (1, 1), (1, 2)])


class TestBlandAltman:
    def test_identical_series(self):
        assert bland_altman([(1.0, 1.0), (2.0, 2.0)]) == (0.0, 0.0, 0.0)

    def test_hand_example(self):
        mean, lo, hi = bland_altman([(1.0, 0.0), (3.0, 0.0)])
        assert mean == pytest.approx(2.0, abs=1e-12)
        assert lo == pytest.approx(2.0 - 1.96 * math.sqrt(2), abs=1e-10)
        assert hi == pytest.approx(2.0 + 1.96 * math.sqrt(2), abs=1e-10)

    def test_translation_shifts_mean_only(self):
        rng = np.random.default_rng(4)
        pairs = [(float(a), float(b)) for a, b in rng.normal(size=(20, 2))]
        mean0, lo0, hi0 = bland_altman(pairs)
        c = 1.7
        mean1, lo1, hi1 = bland_altman([(a + c, b) for a, b in pairs])
        assert mean1 == pytest.approx(mean0 + c, abs=1e-12)
        assert hi1 - lo1 == pytest.approx(hi0 - lo0, abs=1e-10)

    def test_needs_two_points(self):
        with pytest.raises(DataError):
            bland_altman([(1.0, 1.0)])


class TestBaselines:
    def test_copy_returns_last_field(self):
        rng = np.random.default_rng(5)
        series = make_series(rng, "P1", RIGHT, [0.0, 1.0])
        pred = baseline_forecast("copy", series, 2.0)
        assert pred.shape == (54,)
        assert pred.tolist() == list(series[-1].values)

    def test_two_point_ols_hand_example(self):
        a = make_field(values=(30.0,) * 54, test_date=date(2015, 1, 1), test_index=1)
        b = make_field(values=(28.0,) * 54, test_date=date(2015, 1, 1) + timedelta(days=365), test_index=2)
        delta = years_between(a.test_date, b.test_date)  # ~1 year
        horizon = 2.0 * delta  # extrapolate to "year 3" on the same clock
        pred = baseline_forecast("pointwise_ols", [a, b], horizon)
        assert pred.shape == (54,)
        np.testing.assert_allclose(pred, 24.0, rtol=0, atol=1e-9)

    def test_ols_exact_on_linear_series(self):
        rng = np.random.default_rng(6)
        base = date(2014, 6, 1)
        slopes = rng.uniform(-2.0, 0.0, size=54)
        start = rng.uniform(20.0, 33.0, size=54)
        fields = []
        offsets = [0.0, 0.8, 1.7, 2.5, 3.9]
        for i, off in enumerate(offsets, start=1):
            d = base + timedelta(days=int(round(off * 365.25)))
            t = years_between(base, d)
            fields.append(
                make_field(
                    values=tuple((start + slopes * t).tolist()),
                    test_date=d,
                    test_index=i,
                )
            )
        horizon = 1.3
        pred = baseline_forecast("pointwise_ols", fields, horizon)
        t_target = years_between(base, fields[-1].test_date) + horizon
        np.testing.assert_allclose(pred, start + slopes * t_target, rtol=0, atol=1e-9)

    def test_ols_matches_two_point_closed_form(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            v0 = tuple(rng.uniform(5, 35, size=54).tolist())
            v1 = tuple(rng.uniform(5, 35, size=54).tolist())
            d0 = date(2013, 3, 1)
            d1 = d0 + timedelta(days=int(rng.integers(200, 900)))
            a = make_field(values=v0, test_date=d0, test_index=1)
            b = make_field(values=v1, test_date=d1, test_index=2)
            horizon = float(rng.uniform(0.5, 3.0))
            pred = baseline_forecast("pointwise_ols", [a, b], horizon)
            dt = years_between(d0, d1)
            t_target = dt + horizon
            for i in range(0, 54, 11):
                slope = (v1[i] - v0[i]) / dt
                expect = np.clip(v0[i] + slope * t_target, 0.0, 50.0)
                assert pred[i] == pytest.approx(expect, abs=1e-10)

    def test_exp_exact_on_exponential_series(self):
        base = date(2014, 6, 1)
        fields = []
        a0, k = 3.2, -0.3
        for i, off_days in enumerate([0, 400, 800, 1300], start=1):
            d = base + timedelta(days=off_days)
            t = years_between(base, d)
            value = math.exp(a0 + k * t) - 1.0
            fields.append(
                make_field(values=(value,) * 54, test_date=d, test_index=i)
            )
        pred = baseline_forecast("pointwise_exp", fields, 1.0)
        t_target = years_between(base, fields[-1].test_date) + 1.0
        expect = math.exp(a0 + k * t_target) - 1.0
        np.testing.assert_allclose(pred, expect, rtol=0, atol=1e-9)

    def test_predictions_clamped(self):
        a = make_field(values=(2.0,) * 54, test_date=date(2015, 1, 1), test_index=1)
        b = make_field(values=(1.0,) * 54, test_date=date(2016, 1, 1), test_index=2)
        pred = baseline_forecast("pointwise_ols", [a, b], 10.0)
        assert np.all(pred == 0.0)

    def test_insufficient_history_names_minimum(self):
        f = make_field(np.random.default_rng(8))
        with pytest.raises(DataError, match="at least 2"):
            baseline_forecast("pointwise_ols", [f], 1.0)
        with pytest.raises(DataError, match="at least 1"):
            baseline_forecast("copy", [], 1.0)

    def test_unknown_method(self):
        with pytest.raises(DataError, match="unknown baseline"):
            baseline_forecast("kalman", [], 1.0)


class TestEvaluateTestset:
    def _two_pair_fixture(self):
        rng = np.random.default_rng(9)
        t1 = (25.0,) * 54
        t2 = (31.0,) * 54
        base = date(2015, 1, 1)
        pairs = []
        for pid, tvals in (("P1", t1), ("P2", t2)):
            f0 = make_field(rng, patient_id=pid, test_date=base, test_index=1)
            f1 = make_field(
                patient_id=pid,
                values=tvals,
                test_date=base + timedelta(days=365),
                test_index=2,
            )
            pairs.append(FieldPair(input=f0, target=f1, delta_years=years_between(base, f1.test_date)))
        return pairs

    def test_hand_computed_ensemble_mae(self):
        pairs = self._two_pair_fixture()
        models = [constant_model(20.0), constant_model(30.0)]  # ensemble -> 25
        report = evaluate_testset({1.0: models}, {1.0: pairs}, FeatureCombo(), n_bootstrap=50)
        # targets are constant 25 and 31 -> per-pair MAE 0 and 6, mean 3
        assert report["overall"]["mae"] == pytest.approx(3.0, abs=1e-12)
        assert report["overall"]["rmse"] == pytest.approx(math.sqrt((0 + 36) / 2), abs=1e-12)
        assert report["n_pairs"] == 2 and report["n_skipped"] == 0

    def test_scored_on_the_clamped_export(self):
        pairs = self._two_pair_fixture()
        report = evaluate_testset({1.0: [constant_model(60.0)]}, {1.0: pairs}, FeatureCombo(), n_bootstrap=10)
        # exported at 50 dB, so per-pair MAE 25 and 19, not 35 and 29
        assert report["overall"]["mae"] == 22.0

    def test_perfect_forecast_zeroes_everything(self):
        pairs = self._two_pair_fixture()
        pairs = [pairs[0]]
        models = [constant_model(25.0)]
        report = evaluate_testset({1.0: models}, {1.0: pairs + pairs}, FeatureCombo(), n_bootstrap=50)
        assert report["overall"]["mae"] == 0.0
        assert report["overall"]["rmse"] == 0.0
        assert report["bland_altman"]["mean_difference"] == pytest.approx(0.0, abs=1e-12)

    def test_skipped_pairs_counted(self):
        pairs = self._two_pair_fixture()
        far = [FieldPair(input=p.input, target=p.target, delta_years=3.0) for p in pairs]
        report = evaluate_testset(
            {1.0: [constant_model(25.0)]},
            {1.0: pairs, 3.0: far},
            FeatureCombo(),
            n_bootstrap=50,
        )
        assert report["n_skipped"] == 2
        by_bin = {e["bin"]: e for e in report["per_bin"]}
        assert by_bin[3.0]["n_skipped"] == 2

    def test_bootstrap_deterministic_and_contains_point(self):
        pairs = self._two_pair_fixture()
        models = [constant_model(22.0)]
        r1 = evaluate_testset({1.0: models}, {1.0: pairs}, FeatureCombo(), bootstrap_seed=5, n_bootstrap=200)
        r2 = evaluate_testset({1.0: models}, {1.0: pairs}, FeatureCombo(), bootstrap_seed=5, n_bootstrap=200)
        assert r1["overall"] == r2["overall"]
        lo, hi = r1["overall"]["mae_ci"]
        assert lo <= r1["overall"]["mae"] <= hi
        assert r1["overall"]["rmse"] >= r1["overall"]["mae"]

    @pytest.mark.parametrize("n", [1, 3, 8, 129, 1000])
    @pytest.mark.parametrize("transform", [None, np.sqrt])
    def test_bootstrap_matches_per_resample_loop(self, n, transform):
        values = np.random.default_rng(n).gamma(2.0, 1.5, size=n)
        ref_rng, rng = np.random.default_rng(9), np.random.default_rng(9)
        stats = np.empty(150)
        for i in range(150):
            mean = values[ref_rng.integers(0, n, size=n)].mean()
            stats[i] = mean if transform is None else transform(mean)
        expected = [float(np.percentile(stats, 2.5)), float(np.percentile(stats, 97.5))]
        assert _bootstrap_ci(values, rng, 150, transform) == expected
        # the generator is left where the loop leaves it, so later draws agree
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("n", [7, 141])
    def test_blockwise_draws_match_one_draw(self, n):
        """A count that spans three blocks gives the CI of one draw of every index."""
        values = np.random.default_rng(n).gamma(2.0, 1.5, size=n)
        count = 2 * (_BOOTSTRAP_DRAW // n) + 3
        ref_rng, rng = np.random.default_rng(4), np.random.default_rng(4)
        stats = values[ref_rng.integers(0, n, size=(count, n))].mean(axis=1)
        expected = [float(np.percentile(stats, 2.5)), float(np.percentile(stats, 97.5))]
        assert _bootstrap_ci(values, rng, count) == expected
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_copy_baseline_rows(self, small_cohort):
        _, fields, _ = small_cohort
        binned, _ = bin_pairs(make_pairs(fields))
        test_binned = {1.0: binned[1.0][:6]}
        report = evaluate_testset(
            {1.0: [constant_model(25.0)]},
            test_binned,
            FeatureCombo(),
            fields=fields,
            n_bootstrap=50,
        )
        rows = {r["method"]: r for r in report["baselines"]}
        assert rows["copy"]["n_pairs"] == 6
        assert rows["copy"]["mae"] is not None
        assert rows["copy"]["rmse"] >= rows["copy"]["mae"]
        # least-squares rows only use pairs whose input has >= 2 earlier tests
        assert rows["pointwise_ols"]["n_pairs"] <= 6

    def test_report_is_the_file_it_writes(self, small_cohort, tmp_path):
        _, fields, _ = small_cohort
        binned, _ = bin_pairs(make_pairs(fields))
        test_binned = {1.0: binned[1.0][:6], 2.0: binned[2.0][:5], 3.0: binned[3.0][:2]}
        report = evaluate_testset({1.0: [constant_model(23.5)], 2.0: [constant_model(21.0)]}, test_binned,
                                  FeatureCombo(), fields=fields, n_bootstrap=10)
        write_json(tmp_path / "report.json", report)
        assert report == read_json(tmp_path / "report.json")
        assert report["n_skipped"] == 2 and report["reference"] == CLINICAL_REFERENCE
        # a copy: editing a report leaves the constant as it was
        report["reference"]["overall_mae_ci_db"].append(0.0)
        assert CLINICAL_REFERENCE["overall_mae_ci_db"] == [2.45, 2.48]

    def test_rows_match_cell_keyed_reference(self, small_cohort):
        # the MD rows, the per-bin MAEs and the baselines, recomputed over
        # cell-keyed dicts one pair and one cell at a time, agree bit for bit
        _, fields, _ = small_cohort
        binned, _ = bin_pairs(make_pairs(fields))
        test_binned = {1.0: binned[1.0][:6], 2.0: binned[2.0][:5]}
        pairs = [*test_binned[1.0], *test_binned[2.0]]
        model = constant_model(23.5)
        report = evaluate_testset({c: [model] for c in test_binned}, test_binned, FeatureCombo(),
                                  fields=fields, n_bootstrap=10)
        predicted = ensemble_predict([model], encode_input(pairs[0].input, FeatureCombo())).exported_values()

        def md(values: dict, f) -> float:
            expected = dict(zip(mask_cells(), normative_surface(f.age_years, f.eye)))
            total = 0.0
            for c in mask_cells():
                if c not in BLIND_SPOT[f.eye]:
                    total += values[c] - expected[c]
            return total / 52

        copy_mae = []
        for pair, row in zip(pairs, report["rows"]["md_scatter"], strict=True):
            source = dict(zip(mask_cells(), pair.input.values))
            target = dict(zip(mask_cells(), pair.target.values))
            assert row["predicted_md"] == md(predicted, pair.target)
            assert row["actual_md"] == md(target, pair.target)
            assert row["input_md"] == md(source, pair.input)
            copy_mae.append(np.mean([abs(source[c] - target[c]) for c in mask_cells()]))
        rows = {r["method"]: r for r in report["baselines"]}
        assert rows["copy"]["mae"] == float(np.mean(copy_mae))

        def errors(forecast: dict, target: dict) -> tuple[float, float]:
            diffs = [forecast[c] - target[c] for c in mask_cells()]
            return np.mean([abs(d) for d in diffs]), np.mean([d * d for d in diffs])

        for center, center_pairs in test_binned.items():
            maes = [errors(predicted, dict(zip(mask_cells(), p.target.values)))[0] for p in center_pairs]
            entry = next(e for e in report["per_bin"] if e["bin"] == center)
            assert (entry["n_pairs"], entry["mae"]) == (len(center_pairs), float(np.mean(maes)))
        for method in ("pointwise_ols", "pointwise_exp"):
            scored = []
            for pair in pairs:
                history = sorted(
                    (f for f in fields if (f.patient_id, f.eye) == (pair.input.patient_id, pair.input.eye)
                     and f.test_date <= pair.input.test_date),
                    key=lambda f: f.test_date,
                )
                if len({f.test_date for f in history}) < 2:
                    continue
                horizon = years_between(history[-1].test_date, pair.target.test_date)
                forecast = dict(zip(mask_cells(), baseline_forecast(method, history, horizon)))
                scored.append(errors(forecast, dict(zip(mask_cells(), pair.target.values))))
            assert 0 < len(scored) < len(pairs)
            assert rows[method]["n_pairs"] == len(scored)
            assert rows[method]["mae"] == float(np.mean([mae for mae, _ in scored]))
            assert rows[method]["rmse"] == float(np.sqrt(np.mean([sq for _, sq in scored])))

    def test_input_forwarding_ensemble_scores_as_copy_forward(self, small_cohort):
        """A Residual-1 whose only nonzero array is the 1x1 input skip (weight
        1) forwards its dB grid, so the ensemble's errors are copy-forward's."""
        _, fields, _ = small_cohort
        binned, _ = bin_pairs(make_pairs(fields))
        model = build_model(spec_from_name("Residual-1", widths=(2, 3, 4)))
        for name, p in model.params.items():
            p.data[...] = 1.0 if name == "input_skip.w" else 0.0
        test_binned = {center: pairs[:8] for center, pairs in binned.items() if pairs}
        report = evaluate_testset({c: [model, model] for c in test_binned}, test_binned, FeatureCombo(),
                                  fields=fields, n_bootstrap=10)
        copy = next(r for r in report["baselines"] if r["method"] == "copy")
        assert report["n_pairs"] == copy["n_pairs"] == sum(map(len, test_binned.values()))
        assert (report["overall"]["mae"], report["overall"]["rmse"]) == (copy["mae"], copy["rmse"])
        assert len(test_binned) > 1
        for entry in report["per_bin"]:
            pairs = test_binned.get(entry["bin"], [])
            copy_mae = [np.abs(np.array(p.input.values) - np.array(p.target.values)).mean() for p in pairs]
            assert entry["mae"] == (float(np.mean(copy_mae)) if pairs else None)

    def test_one_forward_per_bin_and_fold_model(self, small_cohort, monkeypatch):
        _, fields, _ = small_cohort
        binned, _ = bin_pairs(make_pairs(fields))
        test_binned = {1.0: binned[1.0][:7], 2.0: binned[2.0][:5]}
        models_by_bin = {
            center: [build_model(ModelSpec(family="Cascade", depth_k=1, widths=(2, 3, 4), seed=s))
                     for s in range(3)]
            for center in test_binned
        }
        batches = []
        forward = Model.forward

        def counted(model, x, mode="infer"):
            batches.append(x.shape[0])
            return forward(model, x, mode)

        monkeypatch.setattr(Model, "forward", counted)
        report = evaluate_testset(models_by_bin, test_binned, FeatureCombo(), n_bootstrap=10)
        assert report["n_pairs"] == 12
        assert batches == [7, 7, 7, 5, 5, 5]

    def test_no_models_anywhere_errors(self):
        pairs = self._two_pair_fixture()
        with pytest.raises(DataError, match="no test pairs"):
            evaluate_testset({}, {1.0: pairs}, FeatureCombo(), n_bootstrap=10)
