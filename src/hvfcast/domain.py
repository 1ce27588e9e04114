"""24-2 visual field grid: layout masks, field records, and mean deviation,
plus the file readers, the file writer, the schema checker and DataError,
the one exception for bad input, that every module uses.

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
import math
import os
import reprlib
from collections.abc import Iterator
from dataclasses import dataclass
from datetime import date
from functools import lru_cache
from pathlib import Path

import numpy as np

GRID_ROWS = 8
GRID_COLS = 9
NUM_VALID_CELLS = 54
NUM_MD_CELLS = 52  # valid cells minus the two blind-spot cells
DB_MIN = 0.0
DB_MAX = 50.0
DAYS_PER_YEAR = 365.25

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

# Every value a field may hold: the two-decimal dB values k/100 in
# [DB_MIN, DB_MAX].  k / 100 is the double nearest k/100, which is exactly
# what round(v, 2) returns, so membership here is the full value check.
_VALID_DB = frozenset(k / 100 for k in range(round(DB_MIN * 100), round(DB_MAX * 100) + 1))


class DataError(ValueError):
    """Input that breaks the data contract: a bad value, record, file, config
    or run tree.  `cli.main` exits 2 on it."""


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
        raise DataError(f"unknown eye {eye!r}; expected one of {EYES}")
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
        raise DataError(f"unknown eye {eye!r}")
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
    if not (isinstance(f.age_years, (int, float)) and 0 <= f.age_years < math.inf):  # also rejects nan
        violations.append(f"age_years {f.age_years!r} must be finite and >= 0")
    if not (type(f.test_index) is int and f.test_index >= 1):  # a bool is no int
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


# ---------------------------------------------------------------------------
# JSON files: one reader, one writer, and the schema checker of every reader


# A JSON number: json.loads gives exact types, and a bool is neither
NUMBER = (int, float)

_TYPE_NAMES = {bool: "a bool", int: "an int", float: "a float", str: "a str",
               type(None): "null", list: "a list", dict: "an object"}


def _mismatch(v, schema):
    """None if `v` matches `schema`, else the key path below `v` and the problem."""
    kind = type(v)
    alts = schema if type(schema) is tuple else (schema,)
    for alt in alts:
        if alt is kind or alt is None is v:
            return None
        if type(alt) is dict is kind:
            for key in alt:  # a missing key is reported before a wrong type at an earlier key
                if key not in v:
                    return (key,), "is missing"
            parts = alt.items()
        elif type(alt) is list is kind and len(alt) > 1:
            if len(v) != len(alt):
                return (), f"must be a list of {len(alt)} items, got {reprlib.repr(v)}"
            parts = enumerate(alt)
        elif type(alt) is list is kind:
            item = alt[0]
            types = item if type(item) is tuple else (item,)
            if all(t is None or isinstance(t, type) for t in types) and {
                    type(None) if t is None else t for t in types}.issuperset(map(type, v)):
                return None  # one C-level pass; the walk below only names the failing item
            parts = ((i, item) for i in range(len(v)))
        else:
            continue
        for key, s in parts:  # key: an object's key or a list's index
            x = v[key]
            if s is not type(x) and (found := _mismatch(x, s)):
                return (key, *found[0]), found[1]
        return None
    expected = " or ".join(f"a list of {len(alt)} items" if type(alt) is list and len(alt) > 1 else
                           _TYPE_NAMES[type(None) if alt is None else alt if isinstance(alt, type) else type(alt)]
                           for alt in alts)
    return (), f"must be {expected}, got {reprlib.repr(v)}"


def expect(value, schema, where, at: tuple = ()):
    """`value` if it matches `schema`, else raises DataError naming `where` (the
    file), the key path below `at`, what was expected and what was found:
    `PATH: entries[3]: 'gap' must be a bool, got 'no'`.  A schema is a type,
    a tuple of types (None for null), `[item]`, `[a, b, ...]` (exactly those
    items) or `{key: schema}` (at least those keys); a bool is no int.
    """
    found = _mismatch(value, schema)
    if found is None:
        return value
    path = (*at, *found[0])
    keys = path[:-1] if path and type(path[-1]) is str else path  # a key is named by itself
    subject = "".join(f"[{k}]" if type(k) is int else f".{k}" for k in keys).lstrip(".")
    if keys is not path:
        subject = f"{subject}: {path[-1]!r}" if subject else repr(path[-1])
    raise DataError(f"{where}: {subject} {found[1]}" if subject else f"{where}: {found[1]}")


def _refuse_constant(token: str):
    raise ValueError(f"{token} is not a JSON number")


# The readers' one decoder: JSON has no NaN or Infinity, though json reads them.  It is
# made once, as json.loads's is: making one per call adds a fifth to a record's parse.
_JSON = json.JSONDecoder(parse_constant=_refuse_constant)


def read_json(path, schema=None):
    """The JSON value in the file at `path`, checked against `schema` if
    given; malformed JSON or a mismatch raises DataError naming the path."""
    try:
        with open(path, encoding="utf-8") as fh:
            value = _JSON.decode(fh.read())
    except (ValueError, RecursionError) as e:  # RecursionError: arrays nested past the parser's depth
        raise DataError(f"{path}: {e}") from None
    return value if schema is None else expect(value, schema, path)


def _parse_line(line: str, where: str, schema):
    """The JSON value of one line of a JSON-lines file, checked against
    `schema`; malformed JSON or a mismatch raises DataError naming `where`."""
    try:
        value = _JSON.decode(line)
    except (ValueError, RecursionError) as e:  # as in read_json; or an integer past the digit limit
        raise DataError(f"{where}: malformed JSON: {e}") from e
    return expect(value, schema, where)


def read_json_lines(path, schema, needle: str | None = None) -> Iterator[tuple[str, object]]:
    """(`PATH: line N`, value checked against `schema`) for each nonblank line
    of a JSON-lines file, read as UTF-8 whatever the locale; a line that is
    not UTF-8, is malformed or breaks `schema` raises DataError with that prefix.

    With `needle`, a line that contains neither the needle nor a backslash
    is skipped unparsed: without an escape a JSON string holds its text
    verbatim, so such a line cannot carry a string equal to the needle.
    """
    # a byte that is not UTF-8 reads as a lone surrogate: only a parsed line fails for it
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or (needle is not None and needle not in line and "\\" not in line):
                continue
            where = f"{path}: line {lineno}"
            if not line.isascii():
                try:
                    raw.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as e:
                    raise DataError(f"{where}: {e}") from None
            yield where, _parse_line(line, where, schema)


def atomic_write(path, data: bytes) -> None:
    """Write `data` to `path`, making its directory, through a sibling
    temporary file renamed into place: an interrupted write leaves the
    previous file or none.  The temporary name holds the process id, so
    two processes writing one path never share it, and a failed write or
    rename removes it.  The one way hvfcast writes a file."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        try:
            tmp.write_bytes(data)
        except FileNotFoundError:  # only then, as a mkdir before every write is slow on a busy disk
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, obj) -> None:
    """Atomically write `obj` as sorted, 2-space-indented JSON plus a newline; NaN and infinity raise."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as e:
        raise DataError(f"{path}: {e}") from None
    atomic_write(path, (text + "\n").encode())


# One line of a dataset file
RECORD_SCHEMA = {"patient_id": str, "eye": str, "gender": str, "age": NUMBER, "test_date": str,
                 "test_index": int, "values": [NUMBER]}


def parse_record(line: str, where: str = "record") -> VisualField:
    """Parse one JSON-line dataset record into a validated VisualField;
    `where` prefixes the errors."""
    return _record(_parse_line(line, where, RECORD_SCHEMA), where)


def _record(obj: dict, where: str) -> VisualField:
    """The validated VisualField of a record that matches RECORD_SCHEMA."""
    if obj["eye"] not in EYE_FROM_WIRE:
        raise DataError(f"{where}: bad value for key 'eye': {obj['eye']!r} (expected OD or OS)")
    try:
        field = VisualField(
            patient_id=obj["patient_id"],
            eye=EYE_FROM_WIRE[obj["eye"]],
            gender=obj["gender"],
            age_years=float(obj["age"]),
            test_date=date.fromisoformat(obj["test_date"]),
            test_index=obj["test_index"],
            values=tuple(map(float, obj["values"])),
        )
    except OverflowError as e:  # an integer beyond the float range
        raise DataError(f"{where}: number out of range: {e}") from e
    except ValueError as e:  # not an ISO date
        raise DataError(f"{where}: bad value for key 'test_date': {obj['test_date']!r}") from e
    violations = validate_field(field)
    if violations:
        raise DataError(f"{where}: invalid record: " + "; ".join(violations))
    return field


def serialize_record(f: VisualField) -> str:
    """One JSON line per the dataset schema; dB values printed with 2 decimals."""
    violations = validate_field(f)
    if violations:
        raise DataError("refusing to serialize invalid field: " + "; ".join(violations))
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
    """Parse the records of a JSON-lines dataset file, in file order, reading
    with `needle` only the lines that may hold it (see `read_json_lines`).

    Raises DataError, prefixed `PATH: line N: `, for a bad parsed line,
    for a (patient_id, eye, test_index) key on a second parsed line, and for
    a parsed line whose gender differs from its patient's first parsed line.
    """
    first_line: dict[tuple[str, str, int], str] = {}
    gender_line: dict[str, tuple[str, str]] = {}
    for where, obj in read_json_lines(path, RECORD_SCHEMA, needle):
        field = _record(obj, where)
        key = (field.patient_id, field.eye, field.test_index)
        if key in first_line:
            raise DataError(
                f"{where}: duplicate record for patient {field.patient_id!r}, "
                f"eye {EYE_TO_WIRE[field.eye]}, test_index {field.test_index} "
                f"(first at {first_line[key]})"
            )
        first_line[key] = where.removeprefix(f"{path}: ")
        gender, first = gender_line.setdefault(field.patient_id, (field.gender, first_line[key]))
        if field.gender != gender:
            raise DataError(
                f"{where}: gender {field.gender!r} of patient {field.patient_id!r} "
                f"differs from {gender!r} at {first}"
            )
        yield field


def load_dataset(path) -> list[VisualField]:
    """Read a JSON-lines dataset file. Raises DataError naming the file
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
    atomic_write(path, "".join(serialize_record(f) + "\n" for f in fields).encode())
