"""24-2 visual field grid: layout masks, field records, and mean deviation.

A single 24-2 test measures 54 sensitivity values (in dB) laid out on an
8-row by 9-column grid; the remaining 18 grid cells are never measured.
Row lengths are 4-6-8-9-9-8-6-4.  Two of the 54 cells sit on the physiologic
blind spot; they are excluded from mean deviation but kept in the training
mask, because masking follows grid validity rather than clinical meaning.

Cell coordinates in degrees use 6-degree spacing with centers at odd
multiples of 3.  The two eyes share the same valid cell set; only the
blind-spot column mirrors (column 7 for right eyes, column 1 for left).
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from datetime import date
from functools import lru_cache

import numpy as np

GRID_ROWS = 8
GRID_COLS = 9
NUM_VALID_CELLS = 54
NUM_MD_CELLS = 52  # valid cells minus the two blind-spot cells
DB_MIN = 0.0
DB_MAX = 50.0

RIGHT = "right"
LEFT = "left"
EYES = (RIGHT, LEFT)
GENDERS = ("M", "F")

# Wire form used in dataset files ("OD" = right eye, "OS" = left eye).
EYE_FROM_WIRE = {"OD": RIGHT, "OS": LEFT}
EYE_TO_WIRE = {RIGHT: "OD", LEFT: "OS"}

# Inclusive (first_col, last_col) span of measured cells per grid row.
ROW_SPANS = ((2, 5), (1, 6), (0, 7), (0, 8), (0, 8), (0, 7), (1, 6), (2, 5))

BLIND_SPOT = {RIGHT: ((3, 7), (4, 7)), LEFT: ((3, 1), (4, 1))}

Cell = tuple[int, int]

# The types json.loads gives a JSON number (never bool, str or None).
_JSON_NUMBER = frozenset((int, float))

# Every value a field may hold: the two-decimal dB values k/100 in
# [DB_MIN, DB_MAX].  k / 100 is the double nearest k/100, which is exactly
# what round(v, 2) returns, so membership here is the full value check.
_VALID_DB = frozenset(k / 100 for k in range(round(DB_MIN * 100), round(DB_MAX * 100) + 1))


class DomainError(ValueError):
    """A visual-field value or record violates a domain rule."""


class RecordError(DomainError):
    """A serialized record cannot be parsed into a valid field."""


@lru_cache(maxsize=None)
def mask_cells() -> tuple[Cell, ...]:
    """The 54 valid cells in row-major order (shared by both eyes)."""
    cells = []
    for row, (lo, hi) in enumerate(ROW_SPANS):
        for col in range(lo, hi + 1):
            cells.append((row, col))
    return tuple(cells)


@lru_cache(maxsize=None)
def valid_mask_array() -> np.ndarray:
    """Boolean (8, 9) array, True at the 54 measured cells. Read-only."""
    arr = np.zeros((GRID_ROWS, GRID_COLS), dtype=bool)
    for row, col in mask_cells():
        arr[row, col] = True
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def md_positions(eye: str) -> tuple[int, ...]:
    """Positions in `mask_cells()` order of the 52 cells outside the eye's
    blind spot, ascending (so row-major)."""
    if eye not in EYES:
        raise DomainError(f"unknown eye {eye!r}; expected one of {EYES}")
    return tuple(i for i, c in enumerate(mask_cells()) if c not in BLIND_SPOT[eye])


def cell_degrees(cell: Cell, eye: str) -> tuple[float, float]:
    """Degree coordinates (x, y) of a cell center for the given eye.

    Rows run superior (+21) to inferior (-21).  The x axis mirrors between
    eyes so that the blind-spot cell lands at temporal +/-15 degrees.
    """
    row, col = cell
    y = 21.0 - 6.0 * row
    if eye == RIGHT:
        x = 6.0 * col - 27.0
    elif eye == LEFT:
        x = 6.0 * col - 21.0
    else:
        raise DomainError(f"unknown eye {eye!r}")
    return x, y


def eccentricity(cell: Cell, eye: str) -> float:
    """Distance of a cell center from fixation, in degrees."""
    x, y = cell_degrees(cell, eye)
    return float(np.hypot(x, y))


@dataclass
class VisualField:
    """One 24-2 test: 54 dB values plus the clinical context of the test.

    `values` holds the 54 measured values in `mask_cells()` order, which is
    row-major over the valid cells and the order of a dataset record.
    """

    patient_id: str
    eye: str
    gender: str
    age_years: float
    test_date: date
    test_index: int
    values: tuple[float, ...]

    def to_grid(self) -> np.ndarray:
        """(8, 9) float64 grid; unmeasured cells are 0.0."""
        grid = np.zeros((GRID_ROWS, GRID_COLS), dtype=np.float64)
        grid[valid_mask_array()] = self.values
        return grid


def validate_field(f: VisualField) -> list[str]:
    """Return a list of violation messages; empty means the field is valid."""
    violations = []
    if not isinstance(f.patient_id, str) or not f.patient_id:
        violations.append("patient_id must be a nonempty string")
    if f.eye not in EYES:
        violations.append(f"eye {f.eye!r} not in {EYES}")
    if f.gender not in GENDERS:
        violations.append(f"gender {f.gender!r} not in {GENDERS}")
    if not (isinstance(f.age_years, (int, float)) and f.age_years >= 0):
        violations.append(f"age_years {f.age_years!r} must be >= 0")
    if not (_is_int(f.test_index) and f.test_index >= 1):
        violations.append(f"test_index {f.test_index!r} must be an integer >= 1")

    if len(f.values) != NUM_VALID_CELLS:
        return violations + [f"values length {len(f.values)} != {NUM_VALID_CELLS}"]
    for cell, v in zip(mask_cells(), f.values):
        if v in _VALID_DB:
            continue
        if not np.isfinite(v) or not (DB_MIN <= v <= DB_MAX):
            violations.append(f"value {v!r} at {cell} out of range [{DB_MIN:g}, {DB_MAX:g}]")
        elif round(v, 2) != v:
            violations.append(f"value {v!r} at {cell} not stored to two decimals")
    return violations


def _is_int(x) -> bool:
    """An integer that is not a bool (bool subclasses int)."""
    return isinstance(x, int) and not isinstance(x, bool)


def mean_deviation(values, expected, eye: str) -> float:
    """Unweighted mean of (measured - expected) over the 52 cells outside
    the eye's blind spot; `values` and `expected` are 54-value sequences in
    `mask_cells()` order.

    The sum runs one cell at a time in row-major order: a pairwise sum
    (np.sum) rounds differently.
    """
    total = 0.0
    for i in md_positions(eye):
        total += values[i] - expected[i]
    return float(total / NUM_MD_CELLS)


def parse_record(line: str) -> VisualField:
    """Parse one JSON-line dataset record into a validated VisualField."""
    try:
        obj = json.loads(line)
    except ValueError as e:  # JSONDecodeError, or an integer past the digit limit
        raise RecordError(f"malformed JSON: {e}") from e
    if not isinstance(obj, dict):
        raise RecordError("record is not a JSON object")

    for key in ("patient_id", "eye", "gender", "age", "test_date", "test_index", "values"):
        if key not in obj:
            raise RecordError(f"missing key {key!r}")

    eye_wire = obj["eye"]
    if eye_wire not in EYE_FROM_WIRE:
        raise RecordError(f"bad value for key 'eye': {eye_wire!r} (expected OD or OS)")
    vals = obj["values"]
    if not isinstance(vals, list) or len(vals) != NUM_VALID_CELLS:
        n = len(vals) if isinstance(vals, list) else "non-list"
        raise RecordError(f"values length {n} != {NUM_VALID_CELLS}")
    try:
        test_date = date.fromisoformat(obj["test_date"])
    except (TypeError, ValueError) as e:
        raise RecordError(f"bad value for key 'test_date': {obj['test_date']!r}") from e
    if not _is_int(obj["test_index"]):
        raise RecordError(f"bad value for key 'test_index': {obj['test_index']!r}")
    if type(obj["age"]) not in _JSON_NUMBER:
        raise RecordError(f"bad value for key 'age': {obj['age']!r} (expected a number)")
    if not _JSON_NUMBER.issuperset(map(type, vals)):
        bad = next(v for v in vals if type(v) not in _JSON_NUMBER)
        raise RecordError(f"bad value in 'values': {bad!r} (expected a number)")

    try:
        field = VisualField(
            patient_id=obj["patient_id"],
            eye=EYE_FROM_WIRE[eye_wire],
            gender=obj["gender"],
            age_years=float(obj["age"]),
            test_date=test_date,
            test_index=obj["test_index"],
            values=tuple(map(float, vals)),
        )
    except OverflowError as e:  # an integer beyond the float range
        raise RecordError(f"number out of range: {e}") from e
    violations = validate_field(field)
    if violations:
        raise RecordError("invalid record: " + "; ".join(violations))
    return field


def serialize_record(f: VisualField) -> str:
    """One JSON line per the dataset schema; dB values printed with 2 decimals."""
    violations = validate_field(f)
    if violations:
        raise DomainError("refusing to serialize invalid field: " + "; ".join(violations))
    values = ", ".join(f"{v:.2f}" for v in f.values)
    parts = [
        f'"patient_id": {json.dumps(f.patient_id)}',
        f'"eye": {json.dumps(EYE_TO_WIRE[f.eye])}',
        f'"gender": {json.dumps(f.gender)}',
        f'"age": {json.dumps(f.age_years)}',
        f'"test_date": {json.dumps(f.test_date.isoformat())}',
        f'"test_index": {f.test_index}',
        f'"values": [{values}]',
    ]
    return "{" + ", ".join(parts) + "}"


def _read_records(path, needle: str | None = None) -> Iterator[VisualField]:
    """Parse the records of a JSON-lines dataset file, in file order.

    With `needle`, a line that contains neither the needle nor a backslash
    is skipped unparsed: without an escape a JSON string holds its text
    verbatim, so such a line cannot carry a string equal to the needle.
    Raises RecordError, prefixed `PATH: line N: `, for a bad parsed line,
    for a (patient_id, eye, test_index) key on a second parsed line, and for
    a parsed line whose gender differs from its patient's first parsed line.
    """
    first_line: dict[tuple[str, str, int], int] = {}
    gender_line: dict[str, tuple[str, int]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or (needle is not None and needle not in line and "\\" not in line):
                continue
            where = f"{path}: line {lineno}"
            try:
                field = parse_record(line)
            except RecordError as e:
                raise RecordError(f"{where}: {e}") from e
            key = (field.patient_id, field.eye, field.test_index)
            if key in first_line:
                raise RecordError(
                    f"{where}: duplicate record for patient {field.patient_id!r}, "
                    f"eye {EYE_TO_WIRE[field.eye]}, test_index {field.test_index} "
                    f"(first at line {first_line[key]})"
                )
            first_line[key] = lineno
            gender, first = gender_line.setdefault(field.patient_id, (field.gender, lineno))
            if field.gender != gender:
                raise RecordError(
                    f"{where}: gender {field.gender!r} of patient {field.patient_id!r} "
                    f"differs from {gender!r} at line {first}"
                )
            yield field


def load_dataset(path) -> list[VisualField]:
    """Read a JSON-lines dataset file. Raises RecordError naming the file
    and line.

    Each (patient_id, eye, test_index) key may appear on one line only, and
    all lines of a patient carry the same gender.
    """
    return list(_read_records(path))


def find_record(path, patient_id: str, eye: str, test_index: int) -> VisualField | None:
    """The dataset record with this key, or None, parsing only the lines
    that may hold `patient_id`; those are validated as `load_dataset` does,
    so a malformed or duplicate line for this patient still raises."""
    key = (patient_id, eye, test_index)
    match = None
    for field in _read_records(path, needle=patient_id):
        if (field.patient_id, field.eye, field.test_index) == key:
            match = field
    return match


def save_dataset(fields, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for f in fields:
            fh.write(serialize_record(f) + "\n")
