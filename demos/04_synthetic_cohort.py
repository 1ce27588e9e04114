"""Watching a simulated eye lose field over five years.

The simulator draws an archetype per eye (arcuate loss, nasal step, diffuse
loss, a stable hemifield defect, ...), deepens it linearly in time on top of
an age- and eccentricity-dependent normal surface, and optionally adds
test-retest noise that grows in damaged regions.  Cohorts are byte-for-byte
reproducible from their seed.
"""

import numpy as np

from hvfcast.domain import valid_mask_array, mean_deviation
from hvfcast.pipeline import bin_pairs, make_pairs
from hvfcast.synthsim import ARCHETYPES, CohortConfig, generate_cohort, noise_sd, normative_surface


def render(grid):
    # healthy cells print light ('.'), deep loss prints dark ('@')
    shades = " .:-=+*#%@"
    mask = valid_mask_array()
    lines = []
    for r in range(8):
        row = []
        for c in range(9):
            if not mask[r, c]:
                row.append(" ")
            else:
                level = int(np.clip(grid[r, c] / 35.0, 0.0, 0.999) * (len(shades) - 1))
                row.append(shades[len(shades) - 1 - level])
        lines.append(" ".join(row))
    return "\n".join(lines)


print("=== archetype templates (darker = deeper defect) ===")
for name in ("superior_arcuate", "nasal_step", "stable_hemianopia"):
    arch = ARCHETYPES[name]
    grid = np.full((8, 9), 34.0)
    for cell, mult in arch.affected("right"):
        grid[cell] -= arch.depth_db * max(mult, 0.5)
    print(f"\n{name} (depth {arch.depth_db} dB, "
          f"{'non-progressing' if all(m == 0 for _, m in arch.affected('right')) else 'progressive'}):")
    print(render(grid))

print("\n=== one progressive eye, noiseless, over its follow-up ===")
cfg = CohortConfig(
    patients=1,
    tests_per_eye=(4, 4),
    followup_years=(5.0, 5.0),
    archetype_mix={"superior_arcuate": 1.0},
    rate_range=(1.2, 1.2),
    noise=False,
    seed=12,
)
fields, meta = generate_cohort(cfg)
eye_meta = meta["patients"][0]["eyes"][fields[0].eye]
print(f"archetype {eye_meta['archetype']}, rate {eye_meta['rate_db_per_year']:.2f} dB/year")
for f in fields:
    surface = normative_surface(f.age_years, f.eye)
    print(f"\n{f.test_date}  (age {f.age_years:.1f}, MD {mean_deviation(f.values, surface, f.eye):+.2f} dB)")
    print(render(f.to_grid()))

print("\n=== test-retest noise grows where the field is damaged ===")
for v in (34.0, 25.0, 10.0, 0.0):
    print(f"  sensitivity {v:5.1f} dB -> noise SD {noise_sd(np.array([v]))[0]:.2f} dB")

print("\n=== a 60-patient cohort pairs into the ten horizon bins ===")
fields, _ = generate_cohort(CohortConfig(patients=60, seed=3))
binned, excluded = bin_pairs(make_pairs(fields))
for center, pairs in binned.items():
    print(f"  bin {center}: {len(pairs):4d} pairs")
print(f"  excluded (<0.75 or >5.5 years): {len(excluded)}")
