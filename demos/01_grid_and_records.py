"""The 24-2 grid: where the 54 measured cells live, and how records round-trip.

A single test is an 8x9 grid of dB sensitivities.  Only 54 of the 72 cells
are ever measured (row lengths 4-6-8-9-9-8-6-4); two of those sit on the
physiologic blind spot and are excluded from mean deviation but kept in the
training mask.  Run this to see the layout, the degree coordinates, the
mean-deviation arithmetic, and the JSON-lines codec.
"""

import numpy as np

from hvfcast.domain import (
    build_mask,
    cell_degrees,
    mean_deviation,
    parse_record,
    serialize_record,
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
mask = build_mask("right")
import hvfcast.domain as domain

grid = np.zeros((8, 9))
print(render(grid, domain.valid_mask_array(), mask.blind_spot, fmt="  o  "))
print(f"\nvalid cells: {len(mask.valid)}, blind spot: {sorted(mask.blind_spot)}")
print(f"blind-spot center in degrees: {cell_degrees((3, 7), 'right')}  (temporal +15)")
print(f"left-eye blind spot:          {cell_degrees((3, 1), 'left')}")

print("\n=== a simulated field, its validation, and its mean deviation ===")
fields, _ = generate_cohort(CohortConfig(patients=1, seed=4, tests_per_eye=(1, 1)))
f = fields[0]
print(f"patient {f.patient_id}, {f.eye} eye, age {f.age_years:.1f}, {f.test_date}")
print(render(f.to_grid(), domain.valid_mask_array(), build_mask(f.eye).blind_spot))
print("violations:", validate_field(f) or "none")
surface = normative_surface(f.age_years, f.eye)
print(f"mean deviation vs the age-matched surface: {mean_deviation(f, surface):+.2f} dB")

print("\n=== the record codec ===")
line = serialize_record(f)
print(line[:110] + " ...")
assert parse_record(line) == f
print("parse(serialize(field)) == field holds; values carry exactly two decimals")
