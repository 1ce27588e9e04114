"""Grid layout, record validation, mean deviation, and the line codec."""

import json
import math
import re
import tempfile
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hvfcast import domain
from hvfcast.domain import (
    BLIND_SPOT,
    DataError,
    EYES,
    GENDERS,
    LEFT,
    RIGHT,
    VisualField,
    cell_degrees,
    eccentricity,
    find_record,
    load_dataset,
    mask_cells,
    md_positions,
    mean_deviation,
    parse_record,
    save_dataset,
    serialize_record,
    valid_mask_array,
    validate_field,
)

from conftest import make_field, random_values, with_cell

EXPECTED_ROW_LENGTHS = [4, 6, 8, 9, 9, 8, 6, 4]
EXPECTED_SPANS = [(2, 5), (1, 6), (0, 7), (0, 8), (0, 8), (0, 7), (1, 6), (2, 5)]


class TestMask:
    def test_54_valid_cells_in_72_cell_grid(self):
        cells = mask_cells()
        assert len(set(cells)) == 54
        assert domain.GRID_ROWS * domain.GRID_COLS == 72
        assert all(0 <= r < 8 and 0 <= c < 9 for r, c in cells)
        assert list(zip(*np.nonzero(valid_mask_array()))) == list(cells)

    @pytest.mark.parametrize("eye,expected", [(RIGHT, {(3, 7), (4, 7)}), (LEFT, {(3, 1), (4, 1)})])
    def test_blind_spot(self, eye, expected):
        assert set(BLIND_SPOT[eye]) == expected
        assert expected <= set(mask_cells())
        skipped = set(range(54)) - set(md_positions(eye))
        assert {mask_cells()[i] for i in skipped} == expected

    def test_row_occupancy(self):
        for row in range(8):
            cols = [c for r, c in mask_cells() if r == row]
            assert len(cols) == EXPECTED_ROW_LENGTHS[row]
            assert (cols[0], cols[-1]) == EXPECTED_SPANS[row]
            assert cols == list(range(cols[0], cols[-1] + 1))

    def test_both_eyes_share_the_valid_set(self):
        # one 54-cell order serves both eyes; only the blind spot differs
        for eye in EYES:
            md = {mask_cells()[i] for i in md_positions(eye)}
            assert md | set(BLIND_SPOT[eye]) == set(mask_cells())
        assert md_positions(RIGHT) != md_positions(LEFT)

    def test_md_cells_exclude_blind_spot(self):
        for eye in EYES:
            positions = md_positions(eye)
            assert len(positions) == 52
            assert list(positions) == sorted(set(positions))
            assert not {mask_cells()[i] for i in positions} & set(BLIND_SPOT[eye])

    def test_unknown_eye_rejected(self):
        with pytest.raises(DataError, match="unknown eye 'both'"):
            md_positions("both")
        with pytest.raises(DataError, match="unknown eye 'both'"):
            mean_deviation((30.0,) * 54, (30.0,) * 54, "both")


class TestDegrees:
    def test_central_cell_eccentricity(self):
        # (row 3, col 5) sits at (+3, +3) degrees for a right eye
        assert cell_degrees((3, 5), RIGHT) == (3.0, 3.0)
        assert eccentricity((3, 5), RIGHT) == pytest.approx(math.sqrt(18), abs=1e-12)

    def test_blind_spot_is_temporal_15_degrees(self):
        assert cell_degrees((3, 7), RIGHT) == (15.0, 3.0)
        assert cell_degrees((3, 1), LEFT) == (-15.0, 3.0)

    def test_centers_at_odd_multiples_of_3(self):
        for eye in (RIGHT, LEFT):
            for cell in mask_cells():
                x, y = cell_degrees(cell, eye)
                assert (abs(x) / 3.0) % 2 == 1, (cell, eye, x)
                assert (abs(y) / 3.0) % 2 == 1, (cell, eye, y)

    def test_left_eye_mirrors_right(self):
        for cell in mask_cells():
            r, c = cell
            xr, yr = cell_degrees(cell, RIGHT)
            xl, yl = cell_degrees((r, 8 - c), LEFT)
            assert (xl, yl) == (-xr, yr)


class TestValidation:
    def test_well_formed_field_passes(self):
        assert validate_field(make_field(np.random.default_rng(1))) == []

    def test_wrong_length(self):
        for n in (0, 53, 55):
            f = make_field(values=(20.0,) * n)
            assert validate_field(f) == [f"values length {n} != 54"]

    def test_value_out_of_range(self):
        f = make_field(np.random.default_rng(3))
        f.values = with_cell(f.values, (3, 3), 61.0)
        assert validate_field(f) == ["value 61.0 at (3, 3) out of range [0, 50]"]

    def test_value_not_two_decimals(self):
        f = make_field(np.random.default_rng(4))
        f.values = with_cell(f.values, (3, 3), 27.456)
        assert validate_field(f) == ["value 27.456 at (3, 3) not stored to two decimals"]

    @pytest.mark.parametrize(
        "patch,needle",
        [
            (dict(eye="up"), "eye"),
            (dict(gender="X"), "gender"),
            (dict(age_years=-1.0), "age_years"),
            (dict(test_index=0), "test_index"),
            (dict(age_years=math.inf), "age_years"),
            (dict(age_years=math.nan), "age_years"),
        ],
    )
    def test_bad_scalars(self, patch, needle):
        f = make_field(np.random.default_rng(5), **patch)
        assert any(needle in m for m in validate_field(f))

    def test_bool_test_index_rejected(self):
        f = make_field(np.random.default_rng(5), test_index=True)
        assert any("test_index True must be an integer" in m for m in validate_field(f))


def _range_round_messages(values) -> list[str]:
    """Per-cell messages of the range-then-round(v, 2) definition of a valid dB value."""
    msgs = []
    for cell, v in zip(mask_cells(), values):
        if not np.isfinite(v) or not (0.0 <= v <= 50.0):
            msgs.append(f"value {v!r} at {cell} out of range [0, 50]")
        elif round(v, 2) != v:
            msgs.append(f"value {v!r} at {cell} not stored to two decimals")
    return msgs


# two-decimal values, their float neighbours, and arbitrary floats
_db_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-1.0, max_value=51.0),
    st.integers(-200, 5200).map(lambda k: k / 100),
    st.integers(-200, 5200).map(lambda k: float(np.nextafter(k / 100, np.inf))),
    st.integers(-200, 5200).map(lambda k: float(np.nextafter(k / 100, -np.inf))),
    st.integers(-200, 5200).map(lambda k: k / 1000),
    st.sampled_from([0.0, -0.0, 50.0, 50.01, -0.01, 5e-324, -5e-324, 0.1 + 0.2, 2.675]),
)


class TestValueCheckProperty:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_db_values, min_size=54, max_size=54))
    def test_matches_range_and_round_definition(self, vals):
        values = tuple(vals)
        assert validate_field(make_field(values=values)) == _range_round_messages(values)

    def test_matches_definition_on_every_grid_value_and_its_neighbours(self):
        f = make_field(values=(20.0,) * 54)
        for k in range(-100, 5101):
            for v in (k / 100, np.nextafter(k / 100, -np.inf), np.nextafter(k / 100, np.inf)):
                f.values = with_cell(f.values, (3, 3), float(v))
                assert validate_field(f) == _range_round_messages(f.values), v

    def test_length_and_bad_value_order(self):
        # scalar messages first, then the bad values in cell order; a
        # wrong length replaces the per-cell messages
        values = with_cell(with_cell((20.0,) * 54, (2, 1), 70.0), (1, 1), 2.005)
        assert validate_field(make_field(values=values, gender="X")) == [
            "gender 'X' not in ('M', 'F')",
            "value 2.005 at (1, 1) not stored to two decimals",
            "value 70.0 at (2, 1) out of range [0, 50]",
        ]
        assert validate_field(make_field(values=values[:-1], gender="X")) == [
            "gender 'X' not in ('M', 'F')",
            "values length 53 != 54",
        ]


def _md_oracle(values, expected, eye: str) -> float:
    """Mean deviation over cell-keyed dicts, one cell at a time in row-major
    order: the definition the tuple form must reproduce bit for bit."""
    measured = dict(zip(mask_cells(), values))
    normal = dict(zip(mask_cells(), expected))
    total = 0.0
    for cell in sorted(measured):
        if cell not in BLIND_SPOT[eye]:
            total += measured[cell] - normal[cell]
    return total / 52


_fields_54 = st.lists(st.floats(0.0, 50.0), min_size=54, max_size=54)


class TestMeanDeviation:
    def test_identity_gives_zero(self):
        assert mean_deviation((30.0,) * 54, (30.0,) * 54, RIGHT) == pytest.approx(0.0, abs=1e-12)

    def test_constant_shift(self):
        assert mean_deviation((28.0,) * 54, (30.0,) * 54, RIGHT) == pytest.approx(-2.0, abs=1e-12)

    def test_single_depressed_cell(self):
        values = with_cell((30.0,) * 54, (2, 3), 30.0 - 5.20)  # not a blind-spot cell
        assert mean_deviation(values, (30.0,) * 54, RIGHT) == pytest.approx(-5.20 / 52, abs=1e-12)

    def test_blind_spot_cells_ignored(self):
        for eye in EYES:
            values = (30.0,) * 54
            for cell in BLIND_SPOT[eye]:
                values = with_cell(values, cell, 0.0)
            assert mean_deviation(values, (30.0,) * 54, eye) == pytest.approx(0.0, abs=1e-12)

    def test_linear_in_constant_offset(self):
        rng = np.random.default_rng(6)
        n = (30.0,) * 54
        base = tuple(float(rng.integers(500, 3000)) / 100.0 for _ in range(54))
        shifted = tuple(v + 1.25 for v in base)
        assert mean_deviation(shifted, n, RIGHT) == pytest.approx(mean_deviation(base, n, RIGHT) + 1.25, abs=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(values=_fields_54, expected=_fields_54, eye=st.sampled_from(EYES))
    def test_bit_identical_to_cell_by_cell_oracle(self, values, expected, eye):
        md = mean_deviation(values, expected, eye)
        assert type(md) is float
        assert md == _md_oracle(values, expected, eye)
        # evaluation passes the predicted field as a numpy array
        assert mean_deviation(np.array(values), expected, eye) == md

    def test_sum_is_sequential_not_pairwise(self):
        # on these values a pairwise sum (np.sum) differs in the last bits,
        # so the oracle comparison above would catch a pairwise rewrite
        rng = np.random.default_rng(23)
        values = tuple(rng.uniform(0.0, 50.0, 54).tolist())
        expected = tuple(rng.uniform(0.0, 50.0, 54).tolist())
        pos = list(md_positions(RIGHT))
        pairwise = float(np.sum(np.array(values)[pos] - np.array(expected)[pos]) / 52)
        assert _md_oracle(values, expected, RIGHT) != pairwise
        assert mean_deviation(values, expected, RIGHT) == _md_oracle(values, expected, RIGHT)


_two_decimal_db = st.integers(0, 5000).map(lambda k: k / 100)

_fields = st.builds(
    VisualField,
    patient_id=st.text(min_size=1, max_size=8),
    eye=st.sampled_from(EYES),
    gender=st.sampled_from(GENDERS),
    age_years=st.floats(0.0, 120.0),
    test_date=st.dates(date(1990, 1, 1), date(2040, 12, 31)),
    test_index=st.integers(1, 10**6),
    values=st.tuples(*[_two_decimal_db] * 54),
)


class TestCodec:
    @settings(max_examples=200, deadline=None)
    @given(_fields)
    @example(make_field(values=(0.0,) * 27 + (50.0,) * 27))
    def test_round_trip_property(self, f):
        line = serialize_record(f)
        assert parse_record(line) == f
        assert json.loads(line)["values"] == list(f.values)

    def test_round_trip_random_fields(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            f = make_field(rng, values=random_values(rng))
            assert parse_record(serialize_record(f)) == f

    def test_two_decimal_formatting(self):
        f = make_field(values=(30.0,) * 54)
        line = serialize_record(f)
        assert '"values": [30.00, 30.00' in line

    def test_eye_wire_form(self):
        line = serialize_record(make_field(np.random.default_rng(9), eye=RIGHT))
        assert '"eye": "OD"' in line
        assert parse_record(line).eye == RIGHT
        line = serialize_record(make_field(np.random.default_rng(9), eye=LEFT))
        assert '"eye": "OS"' in line

    def test_wrong_value_count(self):
        line = serialize_record(make_field(np.random.default_rng(10)))
        obj_55 = line.replace("]}", ", 12.00]}")
        with pytest.raises(DataError, match=r"values length 55 != 54"):
            parse_record(obj_55)

    def test_malformed_json(self):
        with pytest.raises(DataError, match="malformed JSON"):
            parse_record("{not json")

    def test_missing_key_named(self):
        with pytest.raises(DataError, match="'gender'"):
            parse_record('{"patient_id": "P1", "eye": "OD"}')

    def test_serialize_refuses_invalid(self):
        f = make_field(np.random.default_rng(11))
        f.values = with_cell(f.values, (3, 3), 77.0)
        with pytest.raises(DataError, match="refusing to serialize"):
            serialize_record(f)

    def test_serialize_refuses_wrong_length(self):
        for n in (53, 55):
            f = make_field(values=(30.0,) * n)
            with pytest.raises(DataError, match=f"refusing to serialize invalid field: values length {n} != 54$"):
                serialize_record(f)

    def test_bool_test_index_rejected(self):
        line = serialize_record(make_field(np.random.default_rng(13)))
        line = line.replace('"test_index": 1', '"test_index": true')
        with pytest.raises(DataError, match="^record: 'test_index' must be an int, got True$"):
            parse_record(line)

    @pytest.mark.parametrize("bad", [None, "old", "12.5", True, 10**400])
    def test_non_number_age_rejected(self, bad):
        obj = json.loads(serialize_record(make_field(np.random.default_rng(17))))
        obj["age"] = bad
        with pytest.raises(DataError, match="'age'|out of range"):
            parse_record(json.dumps(obj))

    @pytest.mark.parametrize("bad", [None, "old", "12.5", True, 10**400])
    def test_non_number_db_value_rejected(self, bad):
        obj = json.loads(serialize_record(make_field(np.random.default_rng(18))))
        obj["values"][7] = bad
        with pytest.raises(DataError, match=r"values\[7\]|out of range"):
            parse_record(json.dumps(obj))

    def test_integer_numbers_parse_as_floats(self):
        f = make_field(values=(30.0,) * 54, age_years=61.0)
        obj = json.loads(serialize_record(f))
        obj["age"], obj["values"] = 61, [30] * len(obj["values"])
        parsed = parse_record(json.dumps(obj))
        assert parsed == f
        assert type(parsed.age_years) is float
        assert type(parsed.values) is tuple
        assert all(type(v) is float for v in parsed.values)

    def test_load_dataset_names_line_of_bool_test_index(self, tmp_path):
        good = serialize_record(make_field(np.random.default_rng(14)))
        path = tmp_path / "d.jsonl"
        path.write_text(good + "\n" + good.replace('"test_index": 1', '"test_index": true') + "\n")
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: line 2: 'test_index' must be an int"):
            load_dataset(path)

    def test_load_dataset_rejects_duplicate_key(self, tmp_path):
        rng = np.random.default_rng(15)
        first = make_field(rng, patient_id="P7", test_index=2)
        other = make_field(rng, patient_id="P7", test_index=3)
        again = make_field(rng, patient_id="P7", test_index=2)
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(serialize_record(f) for f in (first, other, again)) + "\n")
        with pytest.raises(
            DataError,
            match=rf"^{re.escape(str(path))}: line 3: duplicate record for patient 'P7', eye OD, test_index 2 \(first at line 1\)",
        ):
            load_dataset(path)

    def test_load_dataset_same_index_other_eye_is_not_duplicate(self, tmp_path):
        rng = np.random.default_rng(16)
        fields = [make_field(rng, eye=RIGHT), make_field(rng, eye=LEFT)]
        path = tmp_path / "d.jsonl"
        path.write_text("\n".join(serialize_record(f) for f in fields) + "\n")
        assert load_dataset(path) == fields

    def test_values_are_row_major(self):
        values = random_values(np.random.default_rng(12))
        f = make_field(values=values)
        parsed = parse_record(serialize_record(f))
        assert parsed.values == values
        grid = parsed.to_grid()
        assert [grid[c] for c in mask_cells()] == list(values)
        assert not grid[~valid_mask_array()].any()


class TestGenderProperty:
    """All lines of a patient carry one gender: `load_dataset`, and
    `find_record` over the lines it parses, reject the first line that
    disagrees with its patient's first line, naming both."""

    @settings(max_examples=100, deadline=None)
    @given(
        lines=st.lists(
            st.tuples(st.sampled_from(["P1", "P2", "P3"]), st.sampled_from(["M", "F"])),
            min_size=1, max_size=10,
        )
    )
    def test_first_disagreeing_line_is_named(self, lines):
        rng = np.random.default_rng(21)
        fields = [make_field(rng, patient_id=pid, gender=g, test_index=n) for n, (pid, g) in enumerate(lines, start=1)]
        first: dict[str, tuple[str, int]] = {}
        errors: dict[str, tuple[int, str]] = {}  # patient -> its first disagreeing line and message
        for lineno, (pid, g) in enumerate(lines, start=1):
            g0, line0 = first.setdefault(pid, (g, lineno))
            if g != g0 and pid not in errors:
                errors[pid] = (lineno, f"line {lineno}: gender '{g}' of patient '{pid}' differs from '{g0}' at line {line0}")
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.jsonl"
            save_dataset(fields, path)
            if errors:
                with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {min(errors.values())[1]}')}$"):
                    load_dataset(path)
            else:
                assert load_dataset(path) == fields
            for pid in first:
                if pid in errors:
                    with pytest.raises(DataError, match=f"^{re.escape(f'{path}: {errors[pid][1]}')}$"):
                        find_record(path, pid, RIGHT, 1)
                else:
                    want = [f for f in fields if (f.patient_id, f.test_index) == (pid, 1)]
                    assert find_record(path, pid, RIGHT, 1) == (want[0] if want else None)


def _escaped(patient_id: str) -> str:
    """The id as a JSON string with every character a \\u escape."""
    return '"' + "".join(f"\\u{ord(ch):04x}" for ch in patient_id) + '"'


class TestFindRecordProperty:
    """`find_record` skips lines that cannot hold the id; it must still find
    what a full `load_dataset` scan finds, for ids that are prefixes of one
    another, ids that JSON escapes, and ids written as \\u escapes."""

    @settings(max_examples=100, deadline=None)
    @given(
        ids=st.lists(st.text(alphabet="P10\u00e9\"\\", min_size=1, max_size=4), max_size=3).map(
            lambda extra: list(dict.fromkeys(["P1", "P10", *extra]))
        ),
        keys=st.lists(
            st.tuples(st.integers(0, 4), st.sampled_from([RIGHT, LEFT]), st.integers(1, 3), st.booleans()),
            min_size=1, max_size=12,
        ),
    )
    def test_matches_full_scan(self, ids, keys):
        rng = np.random.default_rng(19)
        # one line per (id, eye, test_index); the flag spells that line's id in escapes
        keys = list({(ids[i % len(ids)], eye, n): esc for i, eye, n, esc in keys}.items())
        fields = [make_field(rng, patient_id=pid, eye=eye, test_index=n) for (pid, eye, n), _ in keys]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.jsonl"
            save_dataset(fields, path)
            lines = path.read_text(encoding="utf-8").splitlines()
            for i, ((pid, _, _), esc) in enumerate(keys):
                if esc:
                    lines[i] = lines[i].replace(json.dumps(pid), _escaped(pid), 1)
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            every = load_dataset(path)
            assert every == fields
            for pid in ids + ["Q9"]:
                for eye in (RIGHT, LEFT):
                    for n in (1, 2, 3):
                        want = [f for f in every if (f.patient_id, f.eye, f.test_index) == (pid, eye, n)]
                        assert find_record(path, pid, eye, n) == (want[0] if want else None)


class TestExpect:
    """The message `expect` gives for each schema form: the file, the key
    path below `at`, what was expected and what was found."""

    @pytest.mark.parametrize(
        "value,schema,at,message",
        [
            (5, str, (), "F: must be a str, got 5"),
            (1.5, int, (), "F: must be an int, got 1.5"),
            (True, int, (), "F: must be an int, got True"),  # a bool is no int
            ([True], [domain.NUMBER], (), "F: [0] must be an int or a float, got True"),
            ("x", (int, None), (), "F: must be an int or null, got 'x'"),
            ([1, "a"], [int], (), "F: [1] must be an int, got 'a'"),
            (5, [int], (), "F: must be a list, got 5"),
            ([1], [int, str], (), "F: must be a list of 2 items, got [1]"),
            ([1, 2, 3], [int, str], (), "F: must be a list of 2 items, got [1, 2, 3]"),
            ([1, 2], [int, str], (), "F: [1] must be a str, got 2"),
            ([], {"a": int}, (), "F: must be an object, got []"),
            ({"a": "x", "b": 1}, {"a": int, "b": int}, (), "F: 'a' must be an int, got 'x'"),
            # a missing key is reported before a wrong type at an earlier key
            ({"a": "x"}, {"a": int, "b": int}, (), "F: 'b' is missing"),
            ({"a": {"b": [1, "z"]}}, {"a": {"b": [int]}}, (), "F: a.b[1] must be an int, got 'z'"),
            ([{"a": 1}, {"a": "q"}], [{"a": int}], (), "F: [1]: 'a' must be an int, got 'q'"),
            ({"a": 1}, {"a": str}, ("entries", 3), "F: entries[3]: 'a' must be a str, got 1"),
            (5, str, ("entries", 3), "F: entries[3] must be a str, got 5"),
            ({"b": [True]}, {"b": [int]}, ("x",), "F: x.b[0] must be an int, got True"),
            # the report's mae_ci and a features matrix row
            ([1.5], ([domain.NUMBER, domain.NUMBER], None), (), "F: must be a list of 2 items, got [1.5]"),
            ([1.5, "x"], ([domain.NUMBER, domain.NUMBER], None), (), "F: [1] must be an int or a float, got 'x'"),
            ([0.5, None, True], [(*domain.NUMBER, None)], ("matrix", "age"),
             "F: matrix.age[2] must be an int or a float or null, got True"),
        ],
    )
    def test_message_names_the_file_the_key_path_and_the_mismatch(self, value, schema, at, message):
        with pytest.raises(DataError) as info:
            domain.expect(value, schema, "F", at)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "value,schema",
        [(None, (int, None)), (3, int), (2.5, domain.NUMBER), ([1, "a"], [int, str]),
         ({"a": 1, "extra": "kept"}, {"a": int}), ([{"a": [1]}], [{"a": [int]}]),
         (None, ([domain.NUMBER, domain.NUMBER], None)), ([1, 2.5], ([domain.NUMBER, domain.NUMBER], None)),
         ([0.5, None, 3], [(*domain.NUMBER, None)])],
    )
    def test_a_match_returns_the_value(self, value, schema):
        assert domain.expect(value, schema, "F") is value
