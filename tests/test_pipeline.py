"""Pairing, binning, splitting, and encoding, each against a simple oracle."""

import json
import re
import tempfile
from datetime import date, timedelta
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvfcast.autodiff import Tensor, masked_mae
from hvfcast.domain import LEFT, RIGHT, DataError, mask_cells, valid_mask_array
from hvfcast.pipeline import (
    BIN_CENTERS,
    FeatureCombo,
    SplitPlan,
    assign_bin,
    bin_pairs,
    encode_input,
    encode_pairs,
    encode_target,
    make_pairs,
    pairs_for_patients,
    read_pairs,
    split_patients,
    write_pairs,
)

from conftest import make_field, make_series

# Pair-file mutations, each of which breaks the data contract of one line:
# each takes the line's object and returns the new line.
_OTHER_EYE = {"OD": "OS", "OS": "OD"}


def _swap_refs(obj):
    obj["input_ref"], obj["target_ref"] = obj["target_ref"], obj["input_ref"]
    return json.dumps(obj)


def _other_bin(obj):
    obj["bin"] = BIN_CENTERS[(BIN_CENTERS.index(obj["bin"]) + 1) % len(BIN_CENTERS)]
    return json.dumps(obj)


def _other_patient(obj):
    obj["target_ref"]["patient_id"] = "P2" if obj["target_ref"]["patient_id"] == "P1" else "P1"
    return json.dumps(obj)


def _other_eye(obj):
    obj["target_ref"]["eye"] = _OTHER_EYE[obj["target_ref"]["eye"]]
    return json.dumps(obj)


def _truncated(obj):
    return json.dumps(obj)[:-1]


def _not_an_object(obj):
    return json.dumps([obj])


def _without(key, ref=None):
    def mutate(obj):
        del (obj if ref is None else obj[ref])[key]
        return json.dumps(obj)
    mutate.__name__ = f"_without_{ref}_{key}" if ref else f"_without_{key}"
    return mutate


def _unknown_eye(obj):
    obj["input_ref"]["eye"] = "right"
    return json.dumps(obj)


MUTATIONS = (
    _swap_refs, _other_bin, _other_patient, _other_eye, _truncated, _not_an_object,
    _without("bin"), _without("input_ref"), _without("target_ref"),
    *(_without(key, ref) for ref in ("input_ref", "target_ref") for key in ("patient_id", "eye", "test_index")),
    _unknown_eye,
)


def oracle_bin(delta: float):
    """Independent interval scan over the ten bins."""
    if delta < 0.75 or delta > 5.5:
        return None
    for center in BIN_CENTERS:
        if center == 5.5:
            if 5.25 <= delta <= 5.5:
                return center
        elif center - 0.25 <= delta < center + 0.25:
            return center
    return None


class TestMakePairs:
    def test_four_test_eye_yields_six_pairs(self):
        rng = np.random.default_rng(0)
        fields = make_series(rng, "P1", RIGHT, [0.0, 1.0, 2.1, 6.0])
        pairs = make_pairs(fields)
        assert len(pairs) == 6
        deltas = sorted(round(p.delta_years, 2) for p in pairs)
        assert deltas == [1.0, 1.1, 2.1, 3.9, 5.0, 6.0]
        for p in pairs:
            assert p.target.test_date > p.input.test_date

    def test_single_test_yields_none(self):
        rng = np.random.default_rng(1)
        assert make_pairs(make_series(rng, "P1", RIGHT, [0.0])) == []

    def test_no_cross_eye_pairs(self):
        rng = np.random.default_rng(2)
        fields = make_series(rng, "P1", RIGHT, [0.0, 1.0]) + make_series(rng, "P1", LEFT, [0.5, 1.5])
        pairs = make_pairs(fields)
        assert len(pairs) == 2
        for p in pairs:
            assert p.input.eye == p.target.eye

    def test_no_cross_patient_pairs(self):
        rng = np.random.default_rng(3)
        fields = make_series(rng, "P1", RIGHT, [0.0, 1.0]) + make_series(rng, "P2", RIGHT, [0.0, 1.0])
        assert len(make_pairs(fields)) == 2

    def test_count_matches_brute_force(self):
        rng = np.random.default_rng(4)
        fields = []
        for i in range(12):
            n = int(rng.integers(1, 7))
            offsets = sorted(rng.uniform(0, 7, size=n))
            fields += make_series(rng, f"P{i}", RIGHT if i % 2 else LEFT, offsets)
        pairs = make_pairs(fields)
        by_eye = {}
        for f in fields:
            by_eye.setdefault((f.patient_id, f.eye), []).append(f)
        expected = sum(len(v) * (len(v) - 1) // 2 for v in by_eye.values())
        assert len(pairs) == expected


class TestAssignBin:
    @pytest.mark.parametrize(
        "delta,expected",
        [
            (1.10, 1.0),
            (0.50, None),
            (3.90, 4.0),
            (0.75, 1.0),
            (0.7499, None),
            (1.25, 1.5),
            (5.2499, 5.0),
            (5.25, 5.5),
            (5.5, 5.5),
            (5.5001, None),
        ],
    )
    def test_edges(self, delta, expected):
        assert assign_bin(delta) == expected

    def test_matches_interval_oracle_on_random_deltas(self):
        rng = np.random.default_rng(5)
        deltas = list(rng.uniform(0.0, 7.0, size=2000))
        deltas += [0.75, 1.25, 5.25, 5.5, 0.7499999999, 5.500000001]
        for d in deltas:
            assert assign_bin(d) == oracle_bin(d), d

    def test_bin_totals_partition_pairs(self):
        rng = np.random.default_rng(6)
        fields = []
        for i in range(10):
            offsets = sorted(rng.uniform(0, 7, size=5))
            fields += make_series(rng, f"P{i}", RIGHT, offsets)
        pairs = make_pairs(fields)
        binned, excluded = bin_pairs(pairs)
        assert sum(len(v) for v in binned.values()) + len(excluded) == len(pairs)


class TestSplit:
    def test_80_20_with_folds_of_8(self):
        ids = [f"P{i:03d}" for i in range(100)]
        plan = split_patients(ids, seed=1)
        assert len(plan.test_patients) == 20
        assert len(plan.folds) == 10
        assert all(len(f) == 8 for f in plan.folds)

    def test_same_seed_identical(self):
        ids = [f"P{i:03d}" for i in range(37)]
        assert split_patients(ids, seed=9) == split_patients(ids, seed=9)

    def test_patient_level_disjointness(self):
        ids = [f"P{i:03d}" for i in range(53)]
        plan = split_patients(ids, seed=2)
        test = set(plan.test_patients)
        fold_sets = [set(f) for f in plan.folds]
        for fs in fold_sets:
            assert not fs & test
        for a, b in combinations(fold_sets, 2):
            assert not a & b
        assert set().union(test, *fold_sets) == set(ids)

    def test_fields_in_both_eyes_stay_together(self, small_cohort):
        _, fields, _ = small_cohort
        plan = split_patients({f.patient_id for f in fields}, seed=3)
        test = set(plan.test_patients)
        train = set(plan.train_patients())
        for f in fields:
            assert (f.patient_id in test) != (f.patient_id in train)

    def test_too_few_patients(self):
        with pytest.raises(DataError, match="at least 20"):
            split_patients([f"P{i}" for i in range(12)], seed=0)

    @pytest.mark.parametrize("ratio", [float("nan"), 0.0, 1.0, 1.5])
    def test_ratio_outside_open_unit_interval(self, ratio):
        with pytest.raises(DataError, match=r"^split ratio must be in \(0, 1\)"):
            split_patients([f"P{i:03d}" for i in range(40)], ratio=ratio, seed=0)

    def test_ratio_holding_out_no_patient(self):
        with pytest.raises(DataError, match="^split ratio 0.99 holds out no test patient of 60$"):
            split_patients([f"P{i:03d}" for i in range(60)], ratio=0.99, seed=0)

    def test_json_round_trip(self):
        plan = split_patients([f"P{i:03d}" for i in range(40)], seed=7)
        again = SplitPlan.from_json_dict(plan.to_json_dict())
        assert set(again.test_patients) == set(plan.test_patients)
        assert [set(f) for f in again.folds] == [set(f) for f in plan.folds]
        assert again.seed == plan.seed

    @pytest.mark.parametrize(
        "key, bad, message",
        [
            ("test_patients", "P0001", "split plan: 'test_patients' must be a list, got 'P0001'"),
            ("test_patients", ["P0001", 2], "split plan: test_patients[1] must be a str, got 2"),
            ("folds", 5, "split plan: 'folds' must be a list, got 5"),
            ("folds", ["P0001"], "split plan: folds[0] must be a list, got 'P0001'"),
            ("seed", True, "split plan: 'seed' must be an int, got True"),
            ("ratio", "0.8", "split plan: 'ratio' must be an int or a float, got '0.8'"),
            ("folds", [], "split plan: 'folds' must hold 10 nonempty folds, got 0 of sizes []"),
            ("folds", [["P0001"]] * 9 + [[]],
             "split plan: 'folds' must hold 10 nonempty folds, got 10 of sizes [1, 1, 1, 1, 1, 1, 1, 1, 1, 0]"),
        ],
        ids=["patients-str", "patient-int", "folds-int", "fold-str", "seed-bool", "ratio-str", "no-folds",
             "empty-fold"],
    )
    def test_value_of_wrong_type_names_key(self, key, bad, message):
        d = split_patients([f"P{i:03d}" for i in range(40)], seed=7).to_json_dict()
        d[key] = bad
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            SplitPlan.from_json_dict(d)

    def test_missing_key_or_non_object_names_key(self):
        with pytest.raises(DataError, match=r"^split plan: must be an object, got \[\]$"):
            SplitPlan.from_json_dict([])
        with pytest.raises(DataError, match="^split plan: 'seed' is missing$"):
            SplitPlan.from_json_dict({"test_patients": [], "folds": []})


class TestFeatureCombo:
    def test_sixteen_distinct_combos(self):
        combos = FeatureCombo.all_combos()
        assert len(combos) == 16
        assert len({c.name for c in combos}) == 16

    @pytest.mark.parametrize(
        "combo,channels",
        [
            (FeatureCombo(), 1),
            (FeatureCombo(age=True), 2),
            (FeatureCombo(gender=True), 3),
            (FeatureCombo(eye=True), 3),
            (FeatureCombo(test_index=True), 2),
            (FeatureCombo(age=True, gender=True, eye=True, test_index=True), 7),
        ],
    )
    def test_channel_count(self, combo, channels):
        assert combo.channels() == channels

    def test_parse_round_trip(self):
        for combo in FeatureCombo.all_combos():
            assert FeatureCombo.parse(combo.name) == combo

    def test_parse_rejects_unknown(self):
        with pytest.raises(DataError):
            FeatureCombo.parse("age+iop")


class TestEncoding:
    def test_age_combo_adds_constant_face(self):
        f = make_field(np.random.default_rng(7), age_years=62.0)
        x = encode_input(f, FeatureCombo(age=True))
        assert x.shape == (2, 8, 9)
        np.testing.assert_array_equal(x[1], 0.62)

    def test_empty_combo_single_channel(self):
        f = make_field(np.random.default_rng(8))
        assert encode_input(f, FeatureCombo()).shape == (1, 8, 9)

    def test_field_channel_zero_off_mask(self):
        f = make_field(np.random.default_rng(9))
        x = encode_input(f, FeatureCombo())
        grid = x[0]
        for cell in ((0, 0), (0, 8), (7, 0), (7, 8)):
            assert grid[cell] == 0.0
        for cell, v in zip(mask_cells(), f.values, strict=True):
            assert grid[cell] == v

    def test_gender_one_hot_faces(self):
        m = make_field(np.random.default_rng(10), gender="M")
        x = encode_input(m, FeatureCombo(gender=True))
        np.testing.assert_array_equal(x[1], 1.0)
        np.testing.assert_array_equal(x[2], 0.0)
        f = make_field(np.random.default_rng(10), gender="F")
        x = encode_input(f, FeatureCombo(gender=True))
        np.testing.assert_array_equal(x[1], 0.0)
        np.testing.assert_array_equal(x[2], 1.0)

    def test_eye_one_hot_faces(self):
        r = make_field(np.random.default_rng(11), eye=RIGHT)
        x = encode_input(r, FeatureCombo(eye=True))
        np.testing.assert_array_equal(x[1], 1.0)
        np.testing.assert_array_equal(x[2], 0.0)

    def test_test_index_scaled_and_capped(self):
        f10 = make_field(np.random.default_rng(12), test_index=10)
        assert encode_input(f10, FeatureCombo(test_index=True))[1][0, 0] == 0.5
        f25 = make_field(np.random.default_rng(12), test_index=25)
        assert encode_input(f25, FeatureCombo(test_index=True))[1][0, 0] == 1.0

    def test_target_mask_is_54_cells(self):
        f = make_field(np.random.default_rng(13))
        y = encode_target(f)
        mask = valid_mask_array()
        assert y.shape == (1, 8, 9)
        assert int(mask.sum()) == 54
        assert np.all(y[0][~mask] == 0.0)
        loss = masked_mae(Tensor(y[None]), y[None], mask)
        assert float(loss.data) == 0.0


class TestPairFiles:
    def test_round_trip_against_dataset(self, tmp_path, small_cohort):
        _, fields, _ = small_cohort
        binned, _ = bin_pairs(make_pairs(fields))
        path = tmp_path / "pairs.jsonl"
        n = write_pairs(path, binned)
        assert n == sum(len(v) for v in binned.values())
        again = read_pairs(path, fields)
        for center in BIN_CENTERS:
            got = [(p.input.patient_id, p.input.eye, p.input.test_index, p.target.test_index) for p in again[center]]
            want = [(p.input.patient_id, p.input.eye, p.input.test_index, p.target.test_index) for p in binned[center]]
            assert got == want

    def test_dangling_ref_errors(self, tmp_path, small_cohort):
        _, fields, _ = small_cohort
        binned, _ = bin_pairs(make_pairs(fields))
        path = tmp_path / "pairs.jsonl"
        write_pairs(path, binned)
        with pytest.raises(DataError, match="not in dataset"):
            read_pairs(path, fields[: len(fields) // 3])

    def test_pairs_for_patients_filters_both_sides(self, small_cohort):
        _, fields, _ = small_cohort
        binned, _ = bin_pairs(make_pairs(fields))
        keep = {fields[0].patient_id}
        filtered = pairs_for_patients(binned, keep)
        for pairs in filtered.values():
            for p in pairs:
                assert p.input.patient_id in keep
                assert p.target.patient_id in keep

    def test_encode_pairs_shapes(self, small_cohort):
        _, fields, _ = small_cohort
        binned, _ = bin_pairs(make_pairs(fields))
        pairs = binned[1.0][:5]
        xs, ys = encode_pairs(pairs, FeatureCombo(age=True))
        assert xs.shape == (5, 2, 8, 9)
        assert ys.shape == (5, 1, 8, 9)
        xs0, ys0 = encode_pairs([], FeatureCombo(age=True))
        assert xs0.shape == (0, 2, 8, 9)


class TestPairFileProperty:
    """Every line `write_pairs` emits reads back as the same pair, and a line
    with one field mutated (refs swapped, another bin, the target in another
    patient or eye, a key dropped, an eye not OD or OS) or not a JSON object
    is rejected with its line number."""

    @settings(max_examples=100, deadline=None)
    @given(
        days=st.dictionaries(
            st.tuples(st.sampled_from(["P1", "P2"]), st.sampled_from([RIGHT, LEFT])),
            st.sets(st.integers(0, 2200), max_size=5),
        ),
        pick=st.integers(0, 10**6),
        mutate=st.sampled_from(MUTATIONS),
    )
    def test_round_trip_and_mutations(self, days, pick, mutate):
        # P1's right eye always holds one 1.0-year pair
        days[("P1", RIGHT)] = days.get(("P1", RIGHT), set()) | {0, 400}
        rng = np.random.default_rng(5)
        base = date(2012, 5, 14)
        fields = [
            make_field(rng, patient_id=pid, eye=eye, test_index=i,
                       test_date=base + timedelta(days=d), age_years=60.0 + d / 365.25)
            for (pid, eye), offsets in days.items()
            for i, d in enumerate(sorted(offsets), start=1)
        ]
        binned, _ = bin_pairs(make_pairs(fields))

        def keys(b):
            return {c: [(p.input.patient_id, p.input.eye, p.input.test_index, p.target.test_index,
                         p.delta_years) for p in b[c]] for c in BIN_CENTERS}

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pairs.jsonl"
            write_pairs(path, binned)
            assert keys(read_pairs(path, fields)) == keys(binned)
            lines = path.read_text().splitlines()
            i = pick % len(lines)
            lines[i] = mutate(json.loads(lines[i]))
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line {i + 1}: "):
                read_pairs(path, fields)

    @pytest.mark.parametrize(
        "mutate,needle",
        [
            (_truncated, "malformed JSON: "),
            (_not_an_object, "must be an object"),
            (_without("bin"), "'bin' is missing"),
            (_without("input_ref"), "'input_ref' is missing"),
            (_without("test_index", "target_ref"), "target_ref: 'test_index' is missing"),
            (_unknown_eye, "input_ref eye 'right' is not OD or OS"),
        ],
        ids=lambda v: getattr(v, "__name__", None),
    )
    def test_malformed_line_names_line_and_key(self, tmp_path, mutate, needle):
        rng = np.random.default_rng(7)
        fields = make_series(rng, "P1", RIGHT, [0.0, 1.0, 2.0])
        path = tmp_path / "pairs.jsonl"
        write_pairs(path, bin_pairs(make_pairs(fields))[0])
        lines = path.read_text().splitlines()
        lines[1] = mutate(json.loads(lines[1]))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line 2: {needle}"):
            read_pairs(path, fields)

    def test_cross_patient_line_is_named(self, tmp_path):
        """Two series with the same dates: only the patient differs."""
        rng = np.random.default_rng(6)
        fields = make_series(rng, "P1", RIGHT, [0.0, 1.0]) + make_series(rng, "P2", RIGHT, [0.0, 1.0])
        path = tmp_path / "pairs.jsonl"
        write_pairs(path, bin_pairs(make_pairs(fields))[0])
        obj = json.loads(path.read_text().splitlines()[0])
        path.write_text(_other_patient(obj) + "\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line 1: input_ref and target_ref are different patients"):
            read_pairs(path, fields)
