"""Simulator tests: normative surface, archetypes, noise, reproducibility."""

import dataclasses
import functools
import io
import math
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hvfcast import synthsim
from hvfcast.domain import (
    DataError,
    LEFT,
    RIGHT,
    VisualField,
    eccentricity,
    mask_cells,
    mean_deviation,
    serialize_record,
    validate_field,
)
from hvfcast.synthsim import (
    ARCHETYPE_NAMES,
    ARCHETYPES,
    CohortConfig,
    add_noise,
    generate_cohort,
    noise_sd,
    normative_sensitivity,
    normative_surface,
)


class TestNormative:
    def test_reference_cell_at_reference_age(self):
        # cell (3, 5) sits at (3, 3) degrees for a right eye: ecc = sqrt(18)
        got = normative_sensitivity(45.0, (3, 5), RIGHT)
        assert got == pytest.approx(34.0 - 0.15 * math.sqrt(18), abs=1e-12)
        assert round(got, 2) == 33.36

    def test_aging_slope(self):
        young = normative_sensitivity(45.0, (3, 5), RIGHT)
        old = normative_sensitivity(95.0, (3, 5), RIGHT)
        assert young - old == pytest.approx(3.0, abs=1e-12)

    def test_clamped_to_0_40(self):
        for age in (0.0, 45.0, 300.0):
            for cell in mask_cells():
                v = normative_sensitivity(age, cell, LEFT)
                assert 0.0 <= v <= 40.0

    def test_surface_covers_mask(self):
        surf = normative_surface(60.0, RIGHT)
        assert surf == tuple(normative_sensitivity(60.0, c, RIGHT) for c in mask_cells())


def _reference_sensitivity(age_years: float, cell, eye: str) -> float:
    """The per-cell formula the vector surface replaced, kept as its oracle."""
    n = (
        synthsim.HILL_APEX_DB
        - synthsim.AGING_DB_PER_YEAR * (age_years - synthsim.AGE_REF_YEARS)
        - synthsim.ECC_DB_PER_DEG * eccentricity(cell, eye)
    )
    return float(min(max(n, 0.0), synthsim.NORM_MAX_DB))


@st.composite
def clip_edge_ages(draw) -> float:
    """An age at which one cell's formula value reaches 0 or NORM_MAX_DB, or
    a float next to it."""
    cell, eye = draw(st.sampled_from(mask_cells())), draw(st.sampled_from([RIGHT, LEFT]))
    bound = draw(st.sampled_from([0.0, synthsim.NORM_MAX_DB]))
    age = synthsim.AGE_REF_YEARS + (
        synthsim.HILL_APEX_DB - synthsim.ECC_DB_PER_DEG * eccentricity(cell, eye) - bound
    ) / synthsim.AGING_DB_PER_YEAR
    return float(draw(st.sampled_from([np.nextafter(age, -np.inf), age, np.nextafter(age, np.inf)])))


class TestVectorSurface:
    """The surface is one vector expression over each eye's eccentricity
    table; every value must be the per-cell formula's, bit for bit."""

    @given(age=st.one_of(st.floats(0.0, 300.0), clip_edge_ages()), eye=st.sampled_from([RIGHT, LEFT]))
    @example(age=0.0, eye=RIGHT)
    @example(age=300.0, eye=LEFT)
    def test_surface_equals_per_cell_formula(self, age, eye):
        surf = normative_surface(age, eye)
        assert type(surf) is tuple and all(type(v) is float for v in surf)
        assert surf == tuple(_reference_sensitivity(age, c, eye) for c in mask_cells())

    def test_clip_edges_are_reached(self):
        """Past the ages the edge strategy draws, cells clip at 0 and at the cap."""
        assert 0.0 in normative_surface(700.0, RIGHT)
        assert synthsim.NORM_MAX_DB in normative_surface(-100.0, LEFT)

    @pytest.mark.parametrize("eye", ["", "RIGHT", "both"])
    def test_unknown_eye_raises(self, eye):
        with pytest.raises(DataError, match="unknown eye"):
            normative_surface(60.0, eye)
        with pytest.raises(DataError, match="unknown eye"):
            normative_sensitivity(60.0, (3, 5), eye)

    def test_cell_outside_the_mask_raises(self):
        with pytest.raises(DataError, match=r"cell \(0, 0\) is not one of the 54 valid cells"):
            normative_sensitivity(60.0, (0, 0), RIGHT)


class TestArchetypes:
    def test_all_seven_present(self):
        assert set(ARCHETYPES) == set(synthsim.ARCHETYPE_NAMES)

    def test_affected_cells_are_valid(self):
        valid = set(mask_cells())
        for arch in ARCHETYPES.values():
            for eye in (RIGHT, LEFT):
                cells = [c for c, _ in arch.affected(eye)]
                assert set(cells) <= valid
                assert len(set(cells)) == len(cells)

    def test_hemianopia_never_progresses(self):
        arch = ARCHETYPES["stable_hemianopia"]
        for eye in (RIGHT, LEFT):
            assert all(mult == 0.0 for _, mult in arch.affected(eye))
        assert arch.depth_db > 0

    def test_normal_is_empty(self):
        assert ARCHETYPES["normal"].affected(RIGHT) == ()


def _expected(normal: float, loss: float) -> float:
    return float(np.round(np.clip(normal - loss, 0.0, 40.0), 2))


# position of each cell in a field's values (mask_cells() order)
_POS = {c: i for i, c in enumerate(mask_cells())}


@functools.lru_cache(maxsize=1)
def _noiseless_visits():
    """(field, archetype, rate, t_years, normative values) for every test of a
    noiseless cohort that draws all seven archetypes and fast rates; t and the
    ground truth are read back from the record dates and the cohort metadata."""
    cfg = CohortConfig(
        patients=40,
        archetype_mix={name: 1.0 for name in synthsim.ARCHETYPE_NAMES},
        rate_range=(0.3, 6.0),
        noise=False,
        seed=11,
    )
    fields, meta = generate_cohort(cfg)
    truth = {p["patient_id"]: p for p in meta["patients"]}
    first_day = {}
    for f in fields:
        day = (f.test_date - cfg.start_date).days
        key = (f.patient_id, f.eye)
        first_day[key] = min(first_day.get(key, day), day)
    visits = []
    for f in fields:
        patient = truth[f.patient_id]
        eye_truth = patient["eyes"][f.eye]
        day = (f.test_date - cfg.start_date).days
        t = (day - first_day[(f.patient_id, f.eye)]) / synthsim.DAYS_PER_YEAR
        age = patient["baseline_age"] + day / synthsim.DAYS_PER_YEAR
        normal = tuple(normative_sensitivity(age, c, f.eye) for c in mask_cells())
        visits.append((f, ARCHETYPES[eye_truth["archetype"]], eye_truth["rate_db_per_year"], t, normal))
    assert {arch.name for _, arch, _, _, _ in visits} == set(ARCHETYPES)
    return visits


class TestProgression:
    """Noiseless generate_cohort values are round(clip(normal - loss, 0, 40), 2)
    with loss = depth + rate*mult*t on the archetype's cells and 0 elsewhere."""

    def test_t_zero_is_baseline(self):
        n_checked = 0
        for f, arch, _, t, normal in _noiseless_visits():
            if t != 0.0:
                continue
            mults = dict(arch.affected(f.eye))
            for c, v, n in zip(mask_cells(), f.values, normal):
                loss = arch.depth_db if c in mults else 0.0
                assert v == _expected(n, loss), (f.patient_id, f.eye, c)
            n_checked += 1
        assert n_checked > 0

    def test_linear_decay(self):
        n_later = 0
        for f, arch, rate, t, normal in _noiseless_visits():
            for c, mult in arch.affected(f.eye):
                loss = arch.depth_db + rate * mult * t
                assert f.values[_POS[c]] == _expected(normal[_POS[c]], loss), (f.patient_id, f.eye, f.test_index, c)
            n_later += t > 0 and arch.name == "diffuse"
        assert n_later > 0

    def test_stable_defect_constant_in_time(self):
        n_later = 0
        for f, arch, _, t, normal in _noiseless_visits():
            if arch.name != "stable_hemianopia":
                continue
            for c, _ in arch.affected(f.eye):
                assert f.values[_POS[c]] == _expected(normal[_POS[c]], arch.depth_db), (f.patient_id, f.eye, c)
            n_later += t > 0
        assert n_later > 0

    def test_unaffected_cells_unchanged(self):
        for f, arch, _, _, normal in _noiseless_visits():
            affected = {c for c, _ in arch.affected(f.eye)}
            for c, v, n in zip(mask_cells(), f.values, normal):
                if c not in affected:
                    assert v == _expected(n, 0.0), (f.patient_id, f.eye, c)

    def test_clamped_at_zero(self):
        n_clamped = 0
        for f, arch, rate, t, normal in _noiseless_visits():
            assert min(f.values) >= 0.0
            for c, mult in arch.affected(f.eye):
                if normal[_POS[c]] - (arch.depth_db + rate * mult * t) <= 0.0:
                    assert f.values[_POS[c]] == 0.0, (f.patient_id, f.eye, c)
                    n_clamped += 1
        assert n_clamped > 0


class TestNoise:
    def test_sd_formula(self):
        assert noise_sd(np.array([34.0]))[0] == 1.0
        assert noise_sd(np.array([0.0]))[0] == pytest.approx(5.08, abs=1e-12)
        assert noise_sd(np.array([40.0]))[0] == 1.0  # floor

    def test_sample_sd_matches_formula(self):
        rng = np.random.default_rng(99)
        value = 25.0
        draws = add_noise(np.full(10_000, value), rng)
        assert draws.std(ddof=1) == pytest.approx(noise_sd(np.array([value]))[0], rel=0.10)

    def test_output_clamped_and_rounded(self):
        rng = np.random.default_rng(100)
        out = add_noise(np.full(1000, 1.0), rng)
        assert out.min() >= 0.0 and out.max() <= 50.0
        assert np.all(out == np.round(out, 2))


class TestGenerateCohort:
    def test_reproducible_byte_for_byte(self):
        cfg = CohortConfig(patients=12, seed=7, tests_per_eye=(2, 4))
        a, _ = generate_cohort(cfg)
        b, _ = generate_cohort(CohortConfig(patients=12, seed=7, tests_per_eye=(2, 4)))
        assert serialize(a) == serialize(b)
        c, _ = generate_cohort(CohortConfig(patients=12, seed=8, tests_per_eye=(2, 4)))
        assert serialize(a) != serialize(c)

    def test_every_field_validates(self, small_cohort):
        _, fields, _ = small_cohort
        for f in fields:
            assert validate_field(f) == []
            assert type(f.values) is tuple and all(type(v) is float for v in f.values)

    def test_noiseless_normal_eye_matches_normative(self):
        cfg = CohortConfig(
            patients=6, archetype_mix={"normal": 1.0}, noise=False, seed=5, tests_per_eye=(2, 3)
        )
        fields, _ = generate_cohort(cfg)
        for f in fields:
            surf = normative_surface(f.age_years, f.eye)
            for v, n in zip(f.values, surf, strict=True):
                assert v == pytest.approx(n, abs=0.005 + 1e-12)
            assert abs(mean_deviation(f.values, surf, f.eye)) <= 0.01

    def test_noiseless_progressive_series_monotone(self):
        cfg = CohortConfig(
            patients=10,
            archetype_mix={"diffuse": 0.4, "superior_arcuate": 0.6},
            noise=False,
            seed=6,
            tests_per_eye=(3, 5),
        )
        fields, _ = generate_cohort(cfg)
        by_eye = {}
        for f in fields:
            by_eye.setdefault((f.patient_id, f.eye), []).append(f)
        for series in by_eye.values():
            series.sort(key=lambda f: f.test_date)
            for a, b in zip(series, series[1:]):
                for vb, va in zip(b.values, a.values, strict=True):
                    assert vb <= va + 1e-9

    def test_test_index_strictly_increasing_with_date(self, small_cohort):
        _, fields, _ = small_cohort
        by_patient = {}
        for f in fields:
            by_patient.setdefault(f.patient_id, []).append(f)
        for series in by_patient.values():
            series.sort(key=lambda f: f.test_index)
            assert [f.test_index for f in series] == list(range(1, len(series) + 1))
            dates = [f.test_date for f in series]
            assert all(a < b for a, b in zip(dates, dates[1:]))

    def test_meta_records_ground_truth(self, small_cohort):
        cfg, fields, meta = small_cohort
        assert meta["config"]["seed"] == cfg.seed
        assert len(meta["patients"]) == cfg.patients
        patient_ids = {f.patient_id for f in fields}
        for entry in meta["patients"]:
            assert entry["patient_id"] in patient_ids
            for eye_info in entry["eyes"].values():
                assert eye_info["archetype"] in ARCHETYPES
                assert eye_info["rate_db_per_year"] >= 0

    def test_bad_config_rejected(self):
        with pytest.raises(DataError):
            CohortConfig(patients=0)
        with pytest.raises(DataError):
            CohortConfig(archetype_mix={"unknown": 1.0})
        with pytest.raises(DataError):
            CohortConfig(archetype_mix={"normal": 0.0})
        with pytest.raises(DataError):
            CohortConfig(tests_per_eye=(3, 2))
        with pytest.raises(DataError, match="under 0.4 years"):
            CohortConfig(tests_per_eye=(2, 3), followup_years=(0.39, 1.0))
        CohortConfig(tests_per_eye=(1, 2), followup_years=(0.1, 0.3))
        CohortConfig(tests_per_eye=(2, 3), followup_years=(0.4, 1.0))

    @given(
        name=st.sampled_from(["followup_years", "rate_range", "baseline_age_range", "second_eye_prob",
                              "archetype_mix"]),
        index=st.integers(0, 1),
        archetype=st.sampled_from(ARCHETYPE_NAMES),
        bad=st.sampled_from([math.nan, math.inf, -math.inf]),
    )
    def test_non_finite_float_setting_rejected(self, name, index, archetype, bad):
        """One float setting (a range bound, the second-eye probability or a
        mix weight) set to nan or +-inf fails when the config is built."""
        value = getattr(CohortConfig(), name)
        if isinstance(value, tuple):
            value = tuple(bad if i == index else v for i, v in enumerate(value))
        elif isinstance(value, dict):
            value = value | {archetype: bad}
        else:
            value = bad
        with pytest.raises(DataError, match=f"{name} must be finite"):
            dataclasses.replace(CohortConfig(), **{name: value})


def _reference_values(arch, eye: str, rate: float, baseline_age: float, day0: int, day: int) -> np.ndarray:
    """One test's 54 noiseless values, unrounded, as the per-test loop that
    `generate_cohort` replaced computed them."""
    t = (day - day0) / synthsim.DAYS_PER_YEAR
    age = baseline_age + day / synthsim.DAYS_PER_YEAR
    norm = np.array([_reference_sensitivity(age, c, eye) for c in mask_cells()])
    defect = np.zeros(len(_POS))
    for cell, mult in arch.affected(eye):
        defect[_POS[cell]] = arch.depth_db + rate * mult * t
    return np.clip(norm - defect, 0.0, synthsim.NORM_MAX_DB)


def _reference_cohort(cfg: CohortConfig) -> tuple[list[VisualField], dict]:
    """The per-test loop that `generate_cohort` replaced, kept as its oracle:
    one normal surface, defect and noise draw of 54 values per test."""
    probs = np.array([cfg.archetype_mix.get(n, 0.0) for n in ARCHETYPE_NAMES])
    probs = probs / probs.sum()
    fields, meta_patients = [], []
    width = max(4, len(str(cfg.patients)))
    for idx in range(cfg.patients):
        pid = f"P{idx + 1:0{width}d}"
        rng = synthsim.derived_rng(cfg.seed, "patient", idx)
        gender = "M" if rng.random() < 0.5 else "F"
        baseline_age = float(rng.uniform(*cfg.baseline_age_range))
        eyes = [RIGHT if rng.random() < 0.5 else LEFT]
        if rng.random() < cfg.second_eye_prob:
            eyes.append(LEFT if eyes[0] == RIGHT else RIGHT)
        used_days, patient_tests, eye_meta = set(), [], {}
        for eye in eyes:
            arch_name = ARCHETYPE_NAMES[int(rng.choice(len(ARCHETYPE_NAMES), p=probs))]
            arch = ARCHETYPES[arch_name]
            rate = float(rng.uniform(*cfg.rate_range))
            n_tests = int(rng.integers(cfg.tests_per_eye[0], cfg.tests_per_eye[1] + 1))
            span = float(rng.uniform(*cfg.followup_years))
            days = []
            for off in synthsim._visit_offsets(rng, n_tests, span):
                day = int(round(off * synthsim.DAYS_PER_YEAR))
                while day in used_days:
                    day += 1
                used_days.add(day)
                days.append(day)
            for day in days:
                values = _reference_values(arch, eye, rate, baseline_age, days[0], day)
                values = add_noise(values, rng) if cfg.noise else np.round(values, 2)
                patient_tests.append((day, eye, values))
            eye_meta[eye] = {"archetype": arch_name, "rate_db_per_year": rate, "depth_db": arch.depth_db,
                             "n_tests": n_tests, "span_years": span}
        patient_tests.sort(key=lambda item: item[0])
        for test_index, (day, eye, values) in enumerate(patient_tests, start=1):
            fields.append(VisualField(
                patient_id=pid, eye=eye, gender=gender, age_years=baseline_age + day / synthsim.DAYS_PER_YEAR,
                test_date=cfg.start_date + timedelta(days=day), test_index=test_index,
                values=tuple(values.tolist()),
            ))
        meta_patients.append({"patient_id": pid, "gender": gender, "baseline_age": baseline_age, "eyes": eye_meta})
    return fields, {"config": cfg.to_json_dict(), "patients": meta_patients}


@st.composite
def cohort_configs(draw) -> CohortConfig:
    low = draw(st.integers(1, 8))
    mix = draw(st.one_of(st.sampled_from(ARCHETYPE_NAMES).map(lambda name: {name: 1.0}),
                         st.just(dict(synthsim.DEFAULT_MIX))))
    return CohortConfig(
        patients=draw(st.integers(1, 30)),
        tests_per_eye=(low, draw(st.integers(low, 15))),
        archetype_mix=mix,
        rate_range=draw(st.sampled_from([(0.3, 1.5), (0.0, 0.0), (0.3, 60.0)])),
        noise=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestCohortOracle:
    @given(
        arch=st.sampled_from(list(ARCHETYPES.values())),
        eye=st.sampled_from([RIGHT, LEFT]),
        rate=st.one_of(st.floats(0.0, 60.0), st.sampled_from([0.3, 1.5])),
        baseline_age=st.floats(0.0, 300.0),
        days=st.lists(st.integers(0, 20_000), min_size=1, max_size=15, unique=True).map(sorted),
    )
    def test_series_equals_per_test_values_unrounded(self, arch, eye, rate, baseline_age, days):
        """Before rounding and noise, where one ulp would show."""
        got = synthsim._series(arch, eye, rate, baseline_age, days)
        want = np.array([_reference_values(arch, eye, rate, baseline_age, days[0], day) for day in days])
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(cfg=cohort_configs())
    def test_series_in_one_pass_equals_per_test_loop(self, cfg):
        """Fields and metadata equal the per-test loop's, bit for bit: the
        values (float by float, and as serialized), the dates and the draws
        that follow each eye's noise."""
        fields, meta = generate_cohort(cfg)
        want_fields, want_meta = _reference_cohort(cfg)
        assert fields == want_fields
        assert [np.array(f.values).tobytes() for f in fields] == [np.array(f.values).tobytes() for f in want_fields]
        assert serialize(fields) == serialize(want_fields)
        assert meta == want_meta


def serialize(fields) -> str:
    buf = io.StringIO()
    for f in fields:
        buf.write(serialize_record(f) + "\n")
    return buf.getvalue()
