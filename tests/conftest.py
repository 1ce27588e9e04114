"""Shared fixtures and small data builders for the test suite."""

from __future__ import annotations

import hashlib
import json
import os
from datetime import date, timedelta
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from hvfcast.domain import GENDERS, RIGHT, VisualField, mask_cells
from hvfcast import synthsim
from hvfcast.models import FAMILIES, FULLY_CONNECTED, ModelSpec, layer_plan

SRC = Path(__file__).resolve().parent.parent / "src"


def child_env(**extra: str) -> dict[str, str]:
    """This process's environment with the package's `src` first on
    PYTHONPATH, so a child Python imports the hvfcast under test."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=pythonpath, **extra)


def checkpoint_digest(spec: dict, blob: bytes) -> str:
    """A format-2 manifest's `sha256`, as the README states it: the sha256
    of the spec as sorted-key JSON followed by weights.bin."""
    return hashlib.sha256(json.dumps(spec, sort_keys=True).encode() + blob).hexdigest()


def formula_parameters(spec: ModelSpec) -> int:
    """The trainable parameter count of `spec` by the per-layer formula, not
    by the weights layout: out*in*k^2 + out for a conv unit, out*in + out
    for a dense one, and 2*out more (gamma, beta) for a batch norm."""
    return sum(layer.out_dim * layer.in_dim * (layer.kernel**2 if layer.kind == "conv" else 1)
               + layer.out_dim + (2 * layer.out_dim if layer.bn else 0) for layer in layer_plan(spec))


def layout_length(spec: ModelSpec) -> int:
    """The number of float64 values weights.bin holds for `spec`: every
    parameter, and each batch norm's running mean and variance."""
    return formula_parameters(spec) + sum(2 * layer.out_dim for layer in layer_plan(spec) if layer.bn)


def equal_length_spec(spec: ModelSpec) -> ModelSpec:
    """The first other architecture (family, depth, widths or hidden width)
    with `spec`'s input channels and seed whose weights.bin has the length
    of `spec`'s; conv depths 1-2 and widths up to 12 are searched."""
    total = layout_length(spec)
    fields = dict(in_channels=spec.in_channels, seed=spec.seed)
    for family in FAMILIES:
        if family == FULLY_CONNECTED:
            candidates = (ModelSpec(family, widths=spec.widths, fc_hidden=h, **fields) for h in range(1, 4097))
        else:
            candidates = (ModelSpec(family, depth, widths=widths, fc_hidden=spec.fc_hidden, **fields)
                          for depth in (1, 2) for widths in product(range(1, 13), repeat=3))
        for candidate in candidates:
            if candidate != spec and layout_length(candidate) == total:
                return candidate
    raise AssertionError(f"no other spec has the layout length of {spec}")


def random_values(rng: np.random.Generator) -> tuple[float, ...]:
    """54 valid two-decimal dB values, in `mask_cells()` order."""
    return tuple(float(rng.integers(0, 5001)) / 100.0 for _ in mask_cells())


def with_cell(values, cell, v: float) -> tuple[float, ...]:
    """`values` with the value at `cell` replaced by `v`."""
    out = list(values)
    out[mask_cells().index(cell)] = v
    return tuple(out)


def make_field(
    rng: np.random.Generator | None = None,
    patient_id: str = "P0001",
    eye: str = RIGHT,
    gender: str = "F",
    age_years: float = 60.0,
    test_date: date = date(2015, 3, 2),
    test_index: int = 1,
    values: tuple[float, ...] | None = None,
) -> VisualField:
    if values is None:
        values = random_values(rng or np.random.default_rng(0))
    return VisualField(
        patient_id=patient_id,
        eye=eye,
        gender=gender,
        age_years=age_years,
        test_date=test_date,
        test_index=test_index,
        values=values,
    )


def make_series(rng: np.random.Generator, patient_id: str, eye: str, year_offsets) -> list[VisualField]:
    """One eye's series with tests at the given year offsets from a base date."""
    base = date(2012, 5, 14)
    gender = GENDERS[int(rng.integers(0, 2))]
    fields = []
    for i, off in enumerate(sorted(year_offsets), start=1):
        fields.append(
            make_field(
                rng,
                patient_id=patient_id,
                eye=eye,
                gender=gender,
                age_years=55.0 + off,
                test_date=base + timedelta(days=int(round(off * 365.25))),
                test_index=i,
            )
        )
    return fields


@pytest.fixture(scope="session")
def small_cohort():
    """Noisy 36-patient cohort whose 1.0-year bin covers every fold of the
    seed-17 split (the selection phases require that)."""
    cfg = synthsim.CohortConfig(
        patients=36,
        tests_per_eye=(3, 6),
        followup_years=(1.5, 5.4),
        noise=True,
        seed=424242,
    )
    fields, meta = synthsim.generate_cohort(cfg)
    return cfg, fields, meta
