"""Seeded longitudinal cohort simulator for exercising the full pipeline.

Generates per-patient series of 24-2 fields: an age- and eccentricity-
dependent normative baseline, minus an archetype defect (arcuate loss,
nasal step, diffuse loss, a stable hemifield defect, ...) that deepens
linearly in time, plus optional test-retest noise that grows in damaged
regions.

Every constant here (34 dB hill apex, 0.06 dB/year aging, 0.15 dB/degree
eccentricity slope, the noise model, the region templates) is a simulator
fiction chosen for clinically plausible magnitudes, not a calibration of
any real population.  Linear cellwise decay is deliberate: it makes the
pointwise least-squares baseline an exact-fit oracle on noiseless data.

Generation is deterministic: each patient draws from an RNG stream derived
from (cohort seed, patient index), so output is byte-identical for a fixed
config regardless of generation order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, asdict
from datetime import date, timedelta
from functools import lru_cache
from importlib import resources

import numpy as np

from .domain import (
    DAYS_PER_YEAR,
    DB_MAX,
    DB_MIN,
    EYES,
    LEFT,
    RIGHT,
    Cell,
    DataError,
    VisualField,
    eccentricity,
    mask_cells,
)
from .seeds import derived_rng

HILL_APEX_DB = 34.0
AGE_REF_YEARS = 45.0
AGING_DB_PER_YEAR = 0.06
ECC_DB_PER_DEG = 0.15
NORM_MAX_DB = 40.0

# position of each valid cell in a field's values
_CELL_INDEX = {c: i for i, c in enumerate(mask_cells())}

NOISE_FLOOR_DB = 1.0
NOISE_CAP_DB = 6.0
NOISE_SLOPE_PER_DB = 0.12

ARCHETYPE_NAMES = (
    "normal",
    "diffuse",
    "superior_arcuate",
    "inferior_arcuate",
    "nasal_step",
    "paracentral",
    "stable_hemianopia",
)

DEFAULT_MIX = {
    "normal": 0.35,
    "diffuse": 0.10,
    "superior_arcuate": 0.15,
    "inferior_arcuate": 0.15,
    "nasal_step": 0.10,
    "paracentral": 0.10,
    "stable_hemianopia": 0.05,
}


@lru_cache(maxsize=None)
def _eccentricities(eye: str) -> np.ndarray:
    """`eccentricity` of the 54 valid cells for `eye`, in `mask_cells()`
    order: the same floats, built once per eye on first use.  Read-only.
    An unknown eye raises DataError."""
    table = np.array([eccentricity(c, eye) for c in mask_cells()])
    table.setflags(write=False)
    return table


def _surfaces(ages: np.ndarray, eye: str) -> np.ndarray:
    """(n, 54) expected normal sensitivity at each of n ages: hill of vision
    minus aging and eccentricity, clipped to [0, NORM_MAX_DB].  Each value
    takes the IEEE operations of the per-cell formula, in its order."""
    level = HILL_APEX_DB - AGING_DB_PER_YEAR * (ages[:, None] - AGE_REF_YEARS)
    return np.clip(level - ECC_DB_PER_DEG * _eccentricities(eye), 0.0, NORM_MAX_DB)


def normative_surface(age_years: float, eye: str = RIGHT) -> tuple[float, ...]:
    """Expected normal sensitivity of the 54 valid cells, in `mask_cells()`
    order: one vector expression over the eye's eccentricity table, the one
    that `generate_cohort` evaluates at every visit age of a series at once."""
    return tuple(_surfaces(np.array([age_years], dtype=np.float64), eye)[0].tolist())


def normative_sensitivity(age_years: float, cell: Cell, eye: str = RIGHT) -> float:
    """Expected normal sensitivity of one valid cell (DataError for another)."""
    if cell not in _CELL_INDEX:
        raise DataError(f"cell {cell} is not one of the 54 valid cells")
    return normative_surface(age_years, eye)[_CELL_INDEX[cell]]


@dataclass(frozen=True)
class Archetype:
    """A defect region template: onset depth plus per-cell progression rates."""

    name: str
    depth_db: float
    cells: dict  # eye -> tuple of ((row, col), multiplier)

    def affected(self, eye: str) -> tuple[tuple[Cell, float], ...]:
        return self.cells[eye]


def _load_archetypes() -> dict[str, Archetype]:
    raw = json.loads(
        resources.files(__package__).joinpath("data/archetypes.json").read_text()
    )
    archetypes = {}
    for name, entry in raw["archetypes"].items():
        cells = {
            eye: tuple(((r, c), float(m)) for r, c, m in entry["cells"][eye])
            for eye in EYES
        }
        archetypes[name] = Archetype(name=name, depth_db=float(entry["depth_db"]), cells=cells)
    return archetypes


ARCHETYPES = _load_archetypes()


def noise_sd(values: np.ndarray) -> np.ndarray:
    """Test-retest SD grows as sensitivity falls below the hill apex."""
    return np.clip(
        NOISE_FLOOR_DB + NOISE_SLOPE_PER_DB * (HILL_APEX_DB - values),
        NOISE_FLOOR_DB,
        NOISE_CAP_DB,
    )


def add_noise(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Gaussian test-retest noise, clamped to [0, 50] and rounded to 2 dp."""
    arr = np.asarray(values, dtype=np.float64)
    noisy = arr + rng.normal(0.0, 1.0, size=arr.shape) * noise_sd(arr)
    return np.round(np.clip(noisy, DB_MIN, DB_MAX), 2)


@dataclass(frozen=True)
class CohortConfig:
    """Knobs of the simulated cohort, checked when built; all draws derive from `seed`."""

    patients: int = 200
    tests_per_eye: tuple[int, int] = (3, 8)
    followup_years: tuple[float, float] = (4.0, 6.0)
    archetype_mix: dict = field(default_factory=lambda: dict(DEFAULT_MIX))
    rate_range: tuple[float, float] = (0.3, 1.5)
    noise: bool = True
    seed: int = 0
    baseline_age_range: tuple[float, float] = (45.0, 85.0)
    second_eye_prob: float = 0.55
    start_date: date = date(2010, 1, 4)

    def __post_init__(self):
        for name in ("followup_years", "rate_range", "baseline_age_range", "second_eye_prob", "archetype_mix"):
            value = getattr(self, name)
            if not np.isfinite(list(value.values()) if isinstance(value, dict) else value).all():
                raise DataError(f"{name} must be finite, got {value!r}")
        if self.patients < 1:
            raise DataError("patients must be >= 1")
        if self.tests_per_eye[0] < 1 or self.tests_per_eye[1] < self.tests_per_eye[0]:
            raise DataError(f"bad tests_per_eye range {self.tests_per_eye}")
        if self.followup_years[0] <= 0 or self.followup_years[1] < self.followup_years[0]:
            raise DataError(f"bad followup_years range {self.followup_years}")
        if self.followup_years[0] < 0.4 and self.tests_per_eye[1] > 2:
            # interior visits are drawn from (0.2, span - 0.2)
            raise DataError(
                f"followup_years minimum {self.followup_years[0]} is under 0.4 years, too short "
                f"for {self.tests_per_eye[1]} tests per eye"
            )
        unknown = set(self.archetype_mix) - set(ARCHETYPE_NAMES)
        if unknown:
            raise DataError(f"unknown archetypes in mix: {sorted(unknown)}")
        weights = [self.archetype_mix.get(n, 0.0) for n in ARCHETYPE_NAMES]
        if any(w < 0 for w in weights) or sum(weights) <= 0:
            raise DataError("archetype weights must be nonnegative with positive sum")
        if self.rate_range[0] < 0 or self.rate_range[1] < self.rate_range[0]:
            raise DataError(f"bad rate_range {self.rate_range}")

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["start_date"] = self.start_date.isoformat()
        d["tests_per_eye"] = list(self.tests_per_eye)
        d["followup_years"] = list(self.followup_years)
        d["rate_range"] = list(self.rate_range)
        d["baseline_age_range"] = list(self.baseline_age_range)
        return d


def _visit_offsets(rng: np.random.Generator, n_tests: int, span: float) -> list[float]:
    """Year offsets of an eye's visits; first visit at 0, last at span."""
    if n_tests == 1:
        return [0.0]
    if n_tests == 2:
        return [0.0, span]
    interior = sorted(rng.uniform(0.2, span - 0.2, size=n_tests - 2))
    return [0.0] + list(interior) + [span]


def _series(arch: Archetype, eye: str, rate: float, baseline_age: float, days: list[int]) -> np.ndarray:
    """(len(days), 54) noiseless values of one eye's tests, unrounded: the
    normal surface at each visit age minus the archetype's defect, which
    deepens by `rate` dB/year from the first visit, clipped to
    [0, NORM_MAX_DB].  `days` count from the cohort's start date."""
    visits = np.array(days)
    t = (visits - days[0]) / DAYS_PER_YEAR
    norm = _surfaces(baseline_age + visits / DAYS_PER_YEAR, eye)
    affected = arch.affected(eye)
    mults = np.array([mult for _, mult in affected])
    defect = np.zeros_like(norm)
    defect[:, [_CELL_INDEX[cell] for cell, _ in affected]] = arch.depth_db + rate * mults * t[:, None]
    return np.clip(norm - defect, 0.0, NORM_MAX_DB)


def generate_cohort(cfg: CohortConfig) -> tuple[list[VisualField], dict]:
    """Simulate a cohort; returns (fields, ground-truth metadata).

    Each eye's series is simulated in one pass, as (n_tests, 54) arrays:
    after the eye's archetype, rate, test count, span and visit days are
    drawn, the normal surface at every visit age and the archetype's defect
    at every visit are each one array expression (`_series`), and the noise
    is one `rng.normal` draw of that shape, which takes the same stream
    values as one draw of 54 per test.  Every value is the per-test
    computation's, bit for bit.
    """
    probs = np.array([cfg.archetype_mix.get(n, 0.0) for n in ARCHETYPE_NAMES])
    probs = probs / probs.sum()

    fields: list[VisualField] = []
    meta_patients = []
    width = max(4, len(str(cfg.patients)))
    for idx in range(cfg.patients):
        pid = f"P{idx + 1:0{width}d}"
        rng = derived_rng(cfg.seed, "patient", idx)
        gender = "M" if rng.random() < 0.5 else "F"
        baseline_age = float(rng.uniform(*cfg.baseline_age_range))

        eyes = [RIGHT if rng.random() < 0.5 else LEFT]
        if rng.random() < cfg.second_eye_prob:
            eyes.append(LEFT if eyes[0] == RIGHT else RIGHT)

        used_days: set[int] = set()
        patient_tests = []  # (day, eye, list of 54 values)
        eye_meta = {}
        for eye in eyes:
            arch_name = ARCHETYPE_NAMES[int(rng.choice(len(ARCHETYPE_NAMES), p=probs))]
            arch = ARCHETYPES[arch_name]
            rate = float(rng.uniform(*cfg.rate_range))
            n_tests = int(rng.integers(cfg.tests_per_eye[0], cfg.tests_per_eye[1] + 1))
            span = float(rng.uniform(*cfg.followup_years))

            days = []
            for off in _visit_offsets(rng, n_tests, span):
                day = int(round(off * DAYS_PER_YEAR))
                while day in used_days:
                    day += 1
                used_days.add(day)
                days.append(day)

            values = _series(arch, eye, rate, baseline_age, days)
            values = add_noise(values, rng) if cfg.noise else np.round(values, 2)
            patient_tests += [(day, eye, row) for day, row in zip(days, values.tolist())]

            eye_meta[eye] = {
                "archetype": arch_name,
                "rate_db_per_year": rate,
                "depth_db": arch.depth_db,
                "n_tests": n_tests,
                "span_years": span,
            }

        patient_tests.sort(key=lambda item: item[0])
        for test_index, (day, eye, values) in enumerate(patient_tests, start=1):
            fields.append(
                VisualField(
                    patient_id=pid,
                    eye=eye,
                    gender=gender,
                    age_years=baseline_age + day / DAYS_PER_YEAR,
                    test_date=cfg.start_date + timedelta(days=day),
                    test_index=test_index,
                    values=tuple(values),
                )
            )
        meta_patients.append(
            {
                "patient_id": pid,
                "gender": gender,
                "baseline_age": baseline_age,
                "eyes": eye_meta,
            }
        )

    meta = {"config": cfg.to_json_dict(), "patients": meta_patients}
    return fields, meta
