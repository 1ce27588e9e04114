"""Temporal pairing, horizon binning, patient-level splits, input encoding.

Fields are paired per (patient, eye) into every ordered earlier->later
combination.  The gap between the two tests falls into one of ten 0.5-year
horizon bins centered at 1.0 .. 5.5 years; gaps under 0.75 years or over
5.5 years are excluded.  Splitting is strictly patient-level: 20% of
patients are held out for testing and the rest are partitioned round-robin
into 10 cross-validation folds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import date
from itertools import combinations, product

import numpy as np

from .domain import (
    DAYS_PER_YEAR,
    EYE_FROM_WIRE,
    EYE_TO_WIRE,
    GRID_COLS,
    GRID_ROWS,
    LEFT,
    NUMBER,
    RIGHT,
    DataError,
    VisualField,
    atomic_write,
    expect,
    read_json_lines,
)

BIN_CENTERS = (1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0, 5.5)
BIN_HALF_WIDTH = 0.25
DELTA_MIN = 0.75  # inclusive lower edge of the first bin
DELTA_MAX = 5.5  # inclusive upper edge of the last bin

N_FOLDS = 10
SPLIT_RATIO = 0.8  # the train+validation share of the patients
MIN_PATIENTS = 20

TEST_INDEX_CAP = 20  # test_index feature saturates here
AGE_SCALE = 100.0


def years_between(earlier: date, later: date) -> float:
    return (later - earlier).days / DAYS_PER_YEAR


@dataclass
class FieldPair:
    """Ordered (input, target) pair of same-patient, same-eye fields."""

    input: VisualField
    target: VisualField
    delta_years: float


def make_pairs(fields: list[VisualField]) -> list[FieldPair]:
    """All ordered earlier->later pairs within each (patient, eye) series."""
    by_eye: dict[tuple[str, str], list[VisualField]] = {}
    for f in fields:
        by_eye.setdefault((f.patient_id, f.eye), []).append(f)

    pairs = []
    for key in sorted(by_eye):
        series = sorted(by_eye[key], key=lambda f: f.test_date)
        for a, b in combinations(series, 2):
            pairs.append(FieldPair(input=a, target=b, delta_years=years_between(a.test_date, b.test_date)))
    return pairs


def assign_bin(delta: float) -> float | None:
    """Horizon bin center for a time gap in years, or None when excluded.

    Bin c covers [c - 0.25, c + 0.25) except the last bin, which closes at
    5.5; gaps below 0.75 or above 5.5 years, and NaN, belong to no bin.
    """
    if not DELTA_MIN <= delta <= DELTA_MAX:
        return None
    if delta >= DELTA_MAX - BIN_HALF_WIDTH:
        return BIN_CENTERS[-1]
    idx = int((delta - (BIN_CENTERS[0] - BIN_HALF_WIDTH)) / 0.5)
    return BIN_CENTERS[idx]


def bin_pairs(pairs: list[FieldPair]) -> tuple[dict[float, list[FieldPair]], list[FieldPair]]:
    """Partition pairs into their bins; second element is the excluded list."""
    binned: dict[float, list[FieldPair]] = {c: [] for c in BIN_CENTERS}
    excluded = []
    for p in pairs:
        center = assign_bin(p.delta_years)
        if center is None:
            excluded.append(p)
        else:
            binned[center].append(p)
    return binned, excluded


# ---------------------------------------------------------------------------
# Patient-level splitting


@dataclass(frozen=True)
class SplitPlan:
    """Held-out test patients plus 10 disjoint cross-validation folds."""

    test_patients: tuple[str, ...]
    folds: tuple[tuple[str, ...], ...]
    seed: int
    ratio: float

    def train_patients(self) -> tuple[str, ...]:
        return tuple(pid for fold in self.folds for pid in fold)

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "ratio": self.ratio,
            "test_patients": sorted(self.test_patients),
            "folds": [sorted(fold) for fold in self.folds],
        }

    @classmethod
    def from_json_dict(cls, d, where="split plan") -> "SplitPlan":
        """The plan `to_json_dict` wrote.  Raises DataError naming `where`
        and the key for a value that does not match PLAN_SCHEMA."""
        expect(d, PLAN_SCHEMA, where)
        return cls(
            test_patients=tuple(d["test_patients"]),
            folds=tuple(tuple(fold) for fold in d["folds"]),
            seed=d["seed"],
            ratio=d["ratio"],
        )


PLAN_SCHEMA = {"test_patients": [str], "folds": [[str]], "seed": int, "ratio": NUMBER}


def split_patients(patient_ids, ratio: float = SPLIT_RATIO, seed: int = 0) -> SplitPlan:
    """Seeded patient-level split of distinct ids: ~80% train+validation
    (N_FOLDS folds), rest test.  The test set must hold at least one
    patient."""
    if not 0.0 < ratio < 1.0:  # also rejects nan
        raise DataError(f"split ratio must be in (0, 1), got {ratio}")
    patient_ids = sorted(set(patient_ids))
    n = len(patient_ids)
    if n < MIN_PATIENTS:
        raise DataError(f"need at least {MIN_PATIENTS} patients, got {n}")

    rng = np.random.default_rng(seed)
    order = [patient_ids[i] for i in rng.permutation(n)]
    n_train = int(np.ceil(ratio * n))
    if n_train < N_FOLDS:
        raise DataError(
            f"too few patients for {N_FOLDS} nonempty folds ({n_train} in train split)"
        )
    if n_train == n:
        raise DataError(f"split ratio {ratio} holds out no test patient of {n}")
    train, test = order[:n_train], order[n_train:]
    folds = tuple(tuple(train[i::N_FOLDS]) for i in range(N_FOLDS))
    return SplitPlan(test_patients=tuple(test), folds=folds, seed=seed, ratio=ratio)


# ---------------------------------------------------------------------------
# Input/target encoding


@dataclass(frozen=True)
class FeatureCombo:
    """Which clinical context channels accompany the raw field channel."""

    age: bool = False
    gender: bool = False
    eye: bool = False
    test_index: bool = False

    FLAGS = ("age", "gender", "eye", "test_index")

    def channels(self) -> int:
        return 1 + self.age + 2 * self.gender + 2 * self.eye + self.test_index

    @property
    def name(self) -> str:
        on = [f for f in self.FLAGS if getattr(self, f)]
        return "+".join(on) if on else "none"

    @classmethod
    def parse(cls, name: str) -> "FeatureCombo":
        if name == "none":
            return cls()
        flags = name.split("+")
        unknown = [f for f in flags if f not in cls.FLAGS]
        if unknown:
            raise DataError(f"unknown feature flags {unknown} in combo {name!r}")
        return cls(**{f: True for f in flags})

    @classmethod
    def all_combos(cls) -> list["FeatureCombo"]:
        """All 16 combinations, in a fixed order (age varies slowest)."""
        return [
            cls(age=a, gender=g, eye=e, test_index=t)
            for a, g, e, t in product((False, True), repeat=4)
        ]


def encode_input(f: VisualField, combo: FeatureCombo) -> np.ndarray:
    """(channels, 8, 9) sample: dB grid first, then constant context faces.

    Channel order is fixed: age (age/100), gender one-hot (M, F), eye
    one-hot (right, left), capped test index (min(n, 20)/20).
    """
    faces = [f.to_grid()]

    def face(value: float) -> np.ndarray:
        return np.full((GRID_ROWS, GRID_COLS), value, dtype=np.float64)

    if combo.age:
        faces.append(face(f.age_years / AGE_SCALE))
    if combo.gender:
        faces.append(face(1.0 if f.gender == "M" else 0.0))
        faces.append(face(1.0 if f.gender == "F" else 0.0))
    if combo.eye:
        faces.append(face(1.0 if f.eye == RIGHT else 0.0))
        faces.append(face(1.0 if f.eye == LEFT else 0.0))
    if combo.test_index:
        faces.append(face(min(f.test_index, TEST_INDEX_CAP) / TEST_INDEX_CAP))
    return np.stack(faces)


def encode_target(f: VisualField) -> np.ndarray:
    """(1, 8, 9) dB grid; unmeasured cells are 0.0."""
    return f.to_grid()[None, :, :]


def encode_pairs(pairs: list[FieldPair], combo: FeatureCombo) -> tuple[np.ndarray, np.ndarray]:
    """Stack pairs into (N, C, 8, 9) inputs and (N, 1, 8, 9) targets."""
    if not pairs:
        c = combo.channels()
        return (
            np.zeros((0, c, GRID_ROWS, GRID_COLS)),
            np.zeros((0, 1, GRID_ROWS, GRID_COLS)),
        )
    xs = np.stack([encode_input(p.input, combo) for p in pairs])
    ys = np.stack([encode_target(p.target) for p in pairs])
    return xs, ys


# ---------------------------------------------------------------------------
# Pair files (JSON lines referencing dataset records)


def _ref(f: VisualField) -> dict:
    return {"patient_id": f.patient_id, "eye": EYE_TO_WIRE[f.eye], "test_index": f.test_index}


def write_pairs(path, binned: dict[float, list[FieldPair]]) -> int:
    """One PAIR_SCHEMA line per binned pair; returns the number of lines written."""
    lines = [
        json.dumps({"bin": center, "input_ref": _ref(p.input), "target_ref": _ref(p.target),
                    "delta": round(p.delta_years, 6)}, sort_keys=True) + "\n"
        for center in BIN_CENTERS for p in binned.get(center, [])
    ]
    atomic_write(path, "".join(lines).encode())
    return len(lines)


# One line of a pair file
_REF = {"patient_id": str, "eye": str, "test_index": int}
PAIR_SCHEMA = {"bin": NUMBER, "input_ref": _REF, "target_ref": _REF}


def _resolve_ref(obj: dict, key: str, index: dict, where: str) -> VisualField:
    """The dataset field that the pair-file line's `key` ref names; `where`
    (`PATH: line N`) prefixes the errors."""
    ref = obj[key]
    eye = EYE_FROM_WIRE.get(ref["eye"])
    if eye is None:
        raise DataError(f"{where}: {key} eye {ref['eye']!r} is not OD or OS")
    k = (ref["patient_id"], eye, ref["test_index"])
    if k not in index:
        raise DataError(f"{where}: {key} {ref} not in dataset")
    return index[k]


def read_pairs(path, fields: list[VisualField]) -> dict[float, list[FieldPair]]:
    """Resolve a pair file against its dataset.

    Raises DataError, prefixed `PATH: line N: `, on a line that breaks
    PAIR_SCHEMA, holds an eye other than OD or OS or a dangling ref, refs two
    patients or eyes, an input test not before its target, a bin other than
    `assign_bin` of the pair's gap, or the input and target of an earlier line.
    """
    index = {(f.patient_id, f.eye, f.test_index): f for f in fields}
    binned: dict[float, list[FieldPair]] = {c: [] for c in BIN_CENTERS}
    first_line: dict[tuple[str, str, int, int], str] = {}
    for where, obj in read_json_lines(path, PAIR_SCHEMA):
        a = _resolve_ref(obj, "input_ref", index, where)
        b = _resolve_ref(obj, "target_ref", index, where)
        if (a.patient_id, a.eye) != (b.patient_id, b.eye):
            raise DataError(f"{where}: input_ref and target_ref are different patients or eyes")
        if not a.test_date < b.test_date:
            raise DataError(
                f"{where}: input test of {a.test_date} is not before target test of {b.test_date}"
            )
        delta = years_between(a.test_date, b.test_date)
        center = assign_bin(delta)
        if center is None or obj["bin"] != center:
            raise DataError(
                f"{where}: stored bin {obj['bin']!r} != {center!r}, the bin of its {delta:.6f}-year gap"
            )
        key = (a.patient_id, a.eye, a.test_index, b.test_index)
        if key in first_line:
            raise DataError(
                f"{where}: duplicate pair for patient {a.patient_id!r}, eye {EYE_TO_WIRE[a.eye]}, "
                f"test_index {a.test_index} -> {b.test_index} (first at {first_line[key]})"
            )
        first_line[key] = where.removeprefix(f"{path}: ")
        binned[center].append(FieldPair(input=a, target=b, delta_years=delta))
    return binned


def pairs_for_patients(
    binned: dict[float, list[FieldPair]], patients
) -> dict[float, list[FieldPair]]:
    wanted = set(patients)
    return {
        center: [p for p in pairs if p.input.patient_id in wanted]
        for center, pairs in binned.items()
    }
