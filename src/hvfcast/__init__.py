"""Forecast future 24-2 visual fields from a single test.

A field is encoded as an 8x9 dB grid with a 54-cell validity mask.
Convolutional regressors (dense, batch-normalized, residual, and cascaded
concatenation families) are trained with a masked mean-absolute-error loss
on every temporal pair of same-eye tests, one model per 0.5-year horizon
bin, with weights transferred forward along the bin chain.  Held-out
evaluation averages the 10 cross-validation fold models per bin.

The package is organized by pipeline stage:

* `domain`     -- grid layout, field records, mean deviation, codec
* `autodiff`   -- float64 reverse-mode engine (conv, BN, dense, masked MAE)
* `models`     -- the architecture families, counting, (de)serialization
* `pipeline`   -- pairing, horizon bins, patient splits, input encoding
* `trainer`    -- epoch loop, the two selection phases, the interval chain
* `evaluation` -- fold ensembling, agreement metrics, classical baselines
* `synthsim`   -- seeded synthetic longitudinal cohorts
* `cli`        -- file-based command-line orchestration
"""

__version__ = "0.1.0"
