"""The four regressor families, their layer accounting, and weight files.

All nine candidate architectures map (B, C, 8, 9) to (B, 1, 8, 9) with a
linear head.  The cascade family concatenates the raw input and every
earlier block's output into each later block (and into the head), which is
what lets it pass the raw field straight through while convolutions learn
the change.  Layer counts reproduce the published clinical-scale table
exactly; parameter counts differ because that configuration's widths and
head were never published (both are recorded side by side).
"""

import numpy as np

from hvfcast.models import (
    ModelSpec,
    build_model,
    canonical_specs,
    layer_plan,
    load_weights,
    published_comparison,
    save_weights,
    weights_hash,
)

print("=== the nine candidates ===")
print(f"{'name':16s} {'layers':>6s} {'published':>9s} {'params (canonical)':>18s} {'published':>11s}")
for row in published_comparison():
    print(
        f"{row['name']:16s} {row['layers']:6d} {row['published_layers']:9d} "
        f"{row['parameters']:18,d} {row['published_parameters']:11,d}"
    )

print("\n=== wiring at a glance: each unit's inputs (concatenated) and skip (added) ===")
for spec in (ModelSpec(family="Cascade", depth_k=3, widths=(64, 128, 256), in_channels=2),
             ModelSpec(family="Residual", depth_k=2, widths=(64, 128, 256), in_channels=2)):
    print(f"  {spec.name}")
    for layer in layer_plan(spec):
        skip = f" + {layer.add}" if layer.add else ""
        print(f"    {layer.name:14s} {layer.in_dim:4d} -> {layer.out_dim:<4d} <- {' | '.join(layer.inputs)}{skip}")

print("\n=== every family produces a (B, 1, 8, 9) forecast ===")
x = np.random.default_rng(0).normal(size=(2, 1, 8, 9)) * 4 + 22
for spec in canonical_specs(widths=(4, 8, 12), fc_hidden=32):
    model = build_model(spec)
    out = model.forward(x, mode="infer")
    print(f"  {spec.name:16s} -> {out.data.shape}")

print("\n=== weights on disk round-trip bit-exactly ===")
import tempfile

model = build_model(ModelSpec(family="Cascade", depth_k=2, widths=(4, 8, 12), seed=9))
model.forward(np.random.default_rng(1).normal(size=(4, 1, 8, 9)), mode="train")  # touch BN stats
with tempfile.TemporaryDirectory() as tmp:
    save_weights(model, tmp, provenance={"phase": "demo", "fold": 0})
    clone = load_weights(tmp)
print(f"sha256 before {weights_hash(model)[:16]}..., after {weights_hash(clone)[:16]}...")
assert weights_hash(model) == weights_hash(clone)
print("manifest.json + weights.bin reproduce parameters, BN statistics, and the spec")
