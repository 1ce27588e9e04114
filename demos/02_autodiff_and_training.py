"""Inside the engine: exact gradients, the masked loss, and Adam.

Everything trains on a tape of float64 numpy ops.  This script checks the
reverse-mode gradients of a conv -> batch-norm -> relu -> masked-MAE stack
against central finite differences, shows that the loss ignores unmeasured
cells entirely, and watches Adam walk a toy problem and a tiny network.
"""

import numpy as np

from hvfcast.autodiff import (
    AdamState,
    BatchNormState,
    Tensor,
    adam_step,
    batch_norm,
    conv2d,
    grad_check,
    masked_mae,
    relu,
)
from hvfcast.domain import valid_mask_array
from hvfcast.models import ModelSpec, build_model
from hvfcast.trainer import TrainConfig, train_model

rng = np.random.default_rng(0)
mask = valid_mask_array()

print("=== gradient check: conv -> BN -> relu -> masked MAE ===")
x = rng.normal(size=(2, 1, 8, 9)) * 4 + 20
target = rng.normal(size=(2, 1, 8, 9)) * 4 + 20
w = Tensor(rng.normal(size=(1, 1, 3, 3)) * 0.5)
b = Tensor(np.zeros(1))
bn = BatchNormState.create(1)


def loss_fn():
    h = conv2d(Tensor(x), w, b)
    h = batch_norm(h, bn, True)
    h = relu(h)
    return masked_mae(h, target, mask)


err = grad_check(loss_fn, [w, b, bn.gamma, bn.beta], kink_tol=1e-6)
print(f"max relative error vs central finite differences: {err:.2e}")

print("\n=== the masked loss never sees the 18 unmeasured cells ===")
pred = rng.normal(size=(1, 1, 8, 9)) + 25
tgt = rng.normal(size=(1, 1, 8, 9)) + 25
base = float(masked_mae(Tensor(pred), tgt, mask).data)
vandalized = pred.copy()
vandalized[0, 0, 0, 0] = 9999.0  # (0, 0) is off the measured grid
assert float(masked_mae(Tensor(vandalized), tgt, mask).data) == base
print(f"loss {base:.4f} dB unchanged after writing 9999 into an off-mask cell")

print("\n=== Adam on a scalar: the first step is the bias-corrected closed form ===")
theta = Tensor(np.array([0.0]))
params = {"theta": theta}
theta.grad[:] = 1.0
adam_step(params, AdamState(lr=1e-3))
print(f"theta after one step: {theta.data[0]:+.12f}  (expected -lr/(1+eps))")

print("\n=== a tiny cascade memorizing 16 pairs ===")
model = build_model(ModelSpec(family="Cascade", depth_k=2, widths=(4, 8, 12), seed=21))
inputs = rng.normal(size=(16, 1, 8, 9)) * 4 + 22
targets = inputs - 1.5
history = train_model(model, (inputs, targets), (inputs, targets), TrainConfig(epochs=120, batch_size=8, seed=5))
print(f"train loss: {history['train_loss'][0]:.2f} dB (epoch 1) -> {history['train_loss'][-1]:.3f} dB (epoch 120)")
print(f"best validation MAE {history['best_val_mae']:.3f} dB at epoch {history['best_epoch'] + 1}")
