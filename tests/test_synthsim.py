"""Simulator tests: normative surface, archetypes, noise, reproducibility."""

import dataclasses
import functools
import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hvfcast import synthsim
from hvfcast.domain import (
    LEFT,
    RIGHT,
    mask_cells,
    mean_deviation,
    serialize_record,
    validate_field,
)
from hvfcast.synthsim import (
    ARCHETYPE_NAMES,
    ARCHETYPES,
    CohortConfig,
    SimError,
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
        with pytest.raises(SimError):
            CohortConfig(patients=0)
        with pytest.raises(SimError):
            CohortConfig(archetype_mix={"unknown": 1.0})
        with pytest.raises(SimError):
            CohortConfig(archetype_mix={"normal": 0.0})
        with pytest.raises(SimError):
            CohortConfig(tests_per_eye=(3, 2))
        with pytest.raises(SimError, match="under 0.4 years"):
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
        with pytest.raises(SimError, match=f"{name} must be finite"):
            dataclasses.replace(CohortConfig(), **{name: value})


def serialize(fields) -> str:
    buf = io.StringIO()
    for f in fields:
        buf.write(serialize_record(f) + "\n")
    return buf.getvalue()
