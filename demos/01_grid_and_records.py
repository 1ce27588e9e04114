"""The 24-2 grid: where the 54 measured cells live, and how records round-trip.

A single test is an 8x9 grid of dB sensitivities.  Only 54 of the 72 cells
are ever measured (row lengths 4-6-8-9-9-8-6-4); two of those sit on the
physiologic blind spot and are excluded from mean deviation but kept in the
training mask.  A field holds its 54 values as one tuple in row-major
valid-cell order, which is also the order of a dataset record.  Run this to
see the layout, the degree coordinates, the mean-deviation arithmetic, and
the JSON-lines codec.
"""

import json

import numpy as np

from hvfcast.domain import (
    BLIND_SPOT,
    cell_degrees,
    mask_cells,
    mean_deviation,
    parse_record,
    serialize_record,
    valid_mask_array,
    validate_field,
)
from hvfcast.synthsim import generate_cohort, normative_surface, CohortConfig


def render(grid, mask, blind_spot, fmt="{:5.1f}"):
    lines = []
    for r in range(8):
        cells = []
        for c in range(9):
            if not mask[r, c]:
                cells.append("  .  ")
            elif (r, c) in blind_spot:
                cells.append("  x  ")
            else:
                cells.append(fmt.format(grid[r, c]))
        lines.append(" ".join(cells))
    return "\n".join(lines)


print("=== layout (right eye; x marks the blind spot) ===")
grid = np.zeros((8, 9))
print(render(grid, valid_mask_array(), BLIND_SPOT["right"], fmt="  o  "))
print(f"\nvalid cells: {len(mask_cells())}, blind spot: {sorted(BLIND_SPOT['right'])}")
print(f"value order: {mask_cells()[:5]} ... {mask_cells()[-2:]} (row-major)")
print(f"blind-spot center in degrees: {cell_degrees((3, 7), 'right')}  (temporal +15)")
print(f"left-eye blind spot:          {cell_degrees((3, 1), 'left')}")

print("\n=== a simulated field, its validation, and its mean deviation ===")
fields, _ = generate_cohort(CohortConfig(patients=1, seed=4, tests_per_eye=(1, 1)))
f = fields[0]
print(f"patient {f.patient_id}, {f.eye} eye, age {f.age_years:.1f}, {f.test_date}")
print(render(f.to_grid(), valid_mask_array(), BLIND_SPOT[f.eye]))
print(f"values: {len(f.values)} floats, first row {f.values[:4]}")
print("violations:", validate_field(f) or "none")
surface = normative_surface(f.age_years, f.eye)
print(f"mean deviation vs the age-matched surface: {mean_deviation(f.values, surface, f.eye):+.2f} dB")

print("\n=== the record codec ===")
line = serialize_record(f)
print(line[:110] + " ...")
assert parse_record(line) == f
assert tuple(json.loads(line)["values"]) == f.values
print("parse(serialize(field)) == field holds; the record's values list is the field's tuple,")
print("in the same order, with exactly two decimals")
