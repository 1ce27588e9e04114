"""The four regressor families on the 8x9 grid, plus weight serialization.

All families map (batch, in_channels, 8, 9) to a (batch, 1, 8, 9) forecast
with a linear final activation:

* FullyConnected  -- flatten, one hidden relu layer, linear layer back to 72.
* FullBN-k        -- k sequential blocks of three 3x3 convolutions (widths
                     w0, w1, w2), each conv followed by batch norm and relu,
                     then a linear 1-channel 3x3 head.  Layer count 3k+1.
* Residual-k      -- FullBN-k with an additive skip around every block (the
                     first block's skip is a 1x1 projection because channel
                     counts differ) and a global 1x1 input projection added
                     to the head output, so the network learns a correction
                     to the input field.  Layer count 3k+3 (convs + two
                     projections + head).
* Cascade-k       -- block j consumes the channel concatenation of the raw
                     input and ALL previous block outputs; the head consumes
                     the full concatenation.  Layer count 3k+1.

"Layers" counts convolution/dense units (including projections and the
head); batch norm and activations belong to their conv unit.  `layer_plan`
is the one statement of each family's wiring: every unit's inputs and skip,
from which its input width follows; `Model.forward` runs the plan.
"""

from __future__ import annotations

import hashlib
import dataclasses
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .autodiff import (
    BatchNormState,
    Tensor,
    batch_norm,
    concat_channels,
    conv2d,
    dense,
    relu,
)
from .domain import GRID_COLS, GRID_ROWS, DataError, atomic_write, read_json, write_json

FULLY_CONNECTED = "FullyConnected"
FULL_BN = "FullBN"
RESIDUAL = "Residual"
CASCADE = "Cascade"
FAMILIES = (FULLY_CONNECTED, FULL_BN, RESIDUAL, CASCADE)

GRID_SIZE = GRID_ROWS * GRID_COLS  # 72
PAPER_WIDTHS = (64, 128, 256)

# Layer and parameter counts reported for the original clinical-scale runs of
# the nine candidate architectures, in their fixed selection order.  Our
# parameter counts differ (hidden widths, kernel geometry and head design of
# that configuration are not public); the comparison table in phase reports
# records both side by side.
PUBLISHED_BENCHMARKS = {
    "FullyConnected": {"layers": 2, "parameters": 336_968},
    "FullBN-3": {"layers": 10, "parameters": 1_921_795},
    "FullBN-5": {"layers": 16, "parameters": 3_472_771},
    "FullBN-7": {"layers": 22, "parameters": 5_023_747},
    "Residual-3": {"layers": 12, "parameters": 2_332_163},
    "Residual-5": {"layers": 18, "parameters": 3_883_139},
    "Residual-7": {"layers": 24, "parameters": 5_434_115},
    "Cascade-3": {"layers": 10, "parameters": 6_992_086},
    "Cascade-5": {"layers": 16, "parameters": 20_694_754},
}


@dataclass(frozen=True)
class ModelSpec:
    """Architecture family, depth, channel widths, and training seed."""

    family: str
    depth_k: int | None = None
    widths: tuple[int, int, int] = PAPER_WIDTHS
    in_channels: int = 1
    seed: int = 0
    fc_hidden: int = 2048

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DataError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.family == FULLY_CONNECTED:
            if self.depth_k is not None:
                raise DataError("FullyConnected takes no depth_k")
            if self.fc_hidden < 1:
                raise DataError("fc_hidden must be >= 1")
        else:
            if self.depth_k is None or self.depth_k < 1:
                raise DataError(f"{self.family} requires depth_k >= 1")
        if len(self.widths) != 3 or any(w < 1 for w in self.widths):
            raise DataError(f"widths must be three positive integers, got {self.widths}")
        if self.in_channels < 1:
            raise DataError("in_channels must be >= 1")

    @property
    def name(self) -> str:
        if self.family == FULLY_CONNECTED:
            return self.family
        return f"{self.family}-{self.depth_k}"

    def to_dict(self) -> dict:
        d = asdict(self)
        d["widths"] = list(self.widths)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        """Inverse of `to_dict`, for a `d` that matches SPEC_SCHEMA; a field
        the spec does not have raises DataError."""
        unknown = sorted(d.keys() - SPEC_SCHEMA.keys())
        if unknown:
            raise DataError(f"spec: unknown fields {unknown}")
        return cls(**d | {"widths": tuple(d["widths"])})

    def replace(self, **kwargs) -> "ModelSpec":
        return dataclasses.replace(self, **kwargs)


# A spec's fields as a manifest stores them
SPEC_SCHEMA = {"family": str, "depth_k": (int, None), "widths": [int], "in_channels": int,
               "seed": int, "fc_hidden": int}


def spec_from_name(name: str, **fields) -> ModelSpec:
    """Parse a candidate name like "Cascade-5" or "FullyConnected"; `fields`
    are further `ModelSpec` fields."""
    if name == FULLY_CONNECTED:
        return ModelSpec(family=FULLY_CONNECTED, **fields)
    family, _, depth = name.partition("-")
    if family not in FAMILIES or not depth.isdigit():
        raise DataError(f"cannot parse architecture name {name!r}")
    return ModelSpec(family=family, depth_k=int(depth), **fields)


def canonical_specs(**fields) -> list[ModelSpec]:
    """The nine candidate architectures in their fixed selection order;
    `fields` are further `ModelSpec` fields."""
    return [spec_from_name(name, **fields) for name in PUBLISHED_BENCHMARKS]


# The model input, as a unit's input or skip names it
INPUT = "input"


@dataclass(frozen=True)
class LayerInfo:
    """One counted layer: a convolution or dense unit.  It reads the channel
    concatenation of `inputs` (earlier units, or INPUT), flattened for a
    dense unit; with `add`, the output of that earlier unit is added to its
    own, and later units read the sum."""

    name: str
    kind: str  # "conv" | "dense"
    kernel: int  # 3 or 1 for conv, 0 for dense
    in_dim: int
    out_dim: int
    bn: bool
    activation: str
    inputs: tuple[str, ...]
    add: str | None = None


def layer_plan(spec: ModelSpec) -> list[LayerInfo]:
    """Ordered layer list for a spec, and its only wiring: len(plan) is the
    model's layer count, the order is the order weights.bin stores the
    units' arrays in, and the last unit gives the forecast."""
    w0, w1, w2 = spec.widths
    plan: dict[str, LayerInfo] = {}

    def unit(name, kind, kernel, inputs, out_dim, bn=False, activation="linear", add=None) -> str:
        # a dense unit reading the input grid sees GRID_SIZE values per channel
        in_dim = sum(spec.in_channels * (GRID_SIZE if kind == "dense" else 1) if n == INPUT
                     else plan[n].out_dim for n in inputs)
        plan[name] = LayerInfo(name, kind, kernel, in_dim, out_dim, bn, activation, tuple(inputs), add)
        return name

    if spec.family == FULLY_CONNECTED:
        hidden = unit("fc1", "dense", 0, [INPUT], spec.fc_hidden, activation="relu")
        unit("fc2", "dense", 0, [hidden], GRID_SIZE)
        return list(plan.values())

    cascade, residual = spec.family == CASCADE, spec.family == RESIDUAL
    outputs = [INPUT]  # the input and every block's output
    for j in range(1, spec.depth_k + 1):
        h = unit(f"block{j}.conv1", "conv", 3, outputs if cascade else outputs[-1:], w0, True, "relu")
        h = unit(f"block{j}.conv2", "conv", 3, [h], w1, True, "relu")
        h = unit(f"block{j}.conv3", "conv", 3, [h], w2, True, "relu",
                 add=outputs[-1] if residual and j > 1 else None)
        if residual and j == 1:  # the first block's skip projects the input to w2 channels
            h = unit("block1.skip", "conv", 1, [INPUT], w2, add=h)
        outputs.append(h)
    head = unit("head", "conv", 3, outputs if cascade else outputs[-1:], 1)
    if residual:
        unit("input_skip", "conv", 1, [INPUT], 1, add=head)
    return list(plan.values())


def count_layers(spec: ModelSpec) -> int:
    """FullyConnected -> 2; FullBN-k/Cascade-k -> 3k+1; Residual-k -> 3k+3."""
    return len(layer_plan(spec))


def count_parameters_spec(spec: ModelSpec) -> int:
    """Trainable parameter count from the layer plan (no allocation)."""
    total = 0
    for layer in layer_plan(spec):
        if layer.kind == "dense":
            total += layer.out_dim * layer.in_dim + layer.out_dim
        else:
            total += layer.out_dim * layer.in_dim * layer.kernel**2 + layer.out_dim
        if layer.bn:
            total += 2 * layer.out_dim
    return total


def published_comparison() -> list[dict]:
    """Layer/parameter counts of the nine candidates at the canonical
    widths, next to the published clinical-scale ones."""
    rows = []
    for spec in canonical_specs():
        ref = PUBLISHED_BENCHMARKS[spec.name]
        rows.append(
            {
                "name": spec.name,
                "layers": count_layers(spec),
                "parameters": count_parameters_spec(spec),
                "published_layers": ref["layers"],
                "published_parameters": ref["parameters"],
            }
        )
    return rows


class Model:
    """A built architecture: parameters, batch-norm states, and wiring.

    Every stored array keeps its identity for the model's life, so the one
    list built here names them all."""

    def __init__(self, spec: ModelSpec, *, _seeded: bool = True):
        """He-uniform weights drawn from spec.seed; `_seeded=False` leaves
        the weights unset, for callers that overwrite every array."""
        self.spec = spec
        self.layers = {layer.name: layer for layer in layer_plan(spec)}
        self.params: dict[str, Tensor] = {}
        self.bn: dict[str, BatchNormState] = {}
        rng = np.random.default_rng(spec.seed) if _seeded else None
        for layer in self.layers.values():
            if layer.kind == "dense":
                shape = (layer.out_dim, layer.in_dim)
                fan_in = layer.in_dim
            else:
                shape = (layer.out_dim, layer.in_dim, layer.kernel, layer.kernel)
                fan_in = layer.in_dim * layer.kernel**2
            if rng is None:
                w = np.empty(shape)
            else:
                limit = np.sqrt(6.0 / fan_in)
                w = rng.uniform(-limit, limit, size=shape)
            self.params[f"{layer.name}.w"] = Tensor(w)
            self.params[f"{layer.name}.b"] = Tensor(np.zeros(layer.out_dim))
            if layer.bn:
                state = BatchNormState.create(layer.out_dim)
                self.params[f"{layer.name}.bn.gamma"] = state.gamma
                self.params[f"{layer.name}.bn.beta"] = state.beta
                self.bn[layer.name] = state
        # the order weights.bin lays the arrays out in
        self._entries = [(name, p.data, True) for name, p in self.params.items()]
        for name, state in self.bn.items():
            self._entries.append((f"{name}.bn.running_mean", state.running_mean, False))
            self._entries.append((f"{name}.bn.running_var", state.running_var, False))

    # -- forward ----------------------------------------------------------

    def _unit(self, name: str, x: Tensor, train: bool) -> Tensor:
        """dense or conv -> batch norm -> relu (norm/relu only where the plan
        says); `train` selects batch or running statistics for the norm."""
        layer = self.layers[name]
        w = self.params[f"{name}.w"]
        b = self.params[f"{name}.b"]
        out = dense(x, w, b) if layer.kind == "dense" else conv2d(x, w, b)
        if layer.bn:
            out = batch_norm(out, self.bn[name], train)
        if layer.activation == "relu":
            out = relu(out)
        return out

    def forward(self, x, mode: str = "infer") -> Tensor:
        """Run the network; returns a (batch, 1, 8, 9) Tensor.  An array `x`
        is wrapped as a constant, so no gradient is computed for it."""
        if mode not in ("train", "infer"):
            raise DataError(f"unknown mode {mode!r}")
        x = x if isinstance(x, Tensor) else Tensor(x, requires_grad=False)
        if x.data.ndim != 4 or x.data.shape[1] != self.spec.in_channels:
            raise DataError(
                f"input shape {x.data.shape} does not match in_channels="
                f"{self.spec.in_channels}"
            )
        train = mode == "train"
        outputs = {INPUT: x}
        for layer in self.layers.values():
            h = concat_channels([outputs[name] for name in layer.inputs])
            if layer.kind == "dense" and h.data.ndim == 4:
                h = h.reshape(h.data.shape[0], layer.in_dim)
            h = self._unit(layer.name, h, train)
            if layer.add is not None:
                h = h + outputs[layer.add]
            outputs[layer.name] = h
        return h.reshape(h.data.shape[0], 1, GRID_ROWS, GRID_COLS) if h.data.ndim == 2 else h

    # -- state ------------------------------------------------------------

    def all_entries(self) -> list[tuple[str, np.ndarray, bool]]:
        """(name, array, trainable) for every stored array, in fixed order;
        the arrays are the model's own."""
        return self._entries

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copies of all parameters and running statistics."""
        return {name: arr.copy() for name, arr, _ in self._entries}

    def restore(self, snap: dict[str, np.ndarray]) -> None:
        for name, arr, _ in self._entries:
            arr[...] = snap[name]


def snapshot_hash(snap: dict[str, np.ndarray]) -> str:
    """sha256 over all arrays in sorted name order (little-endian float64)."""
    h = hashlib.sha256()
    for name in sorted(snap):
        h.update(name.encode())
        h.update(np.ascontiguousarray(snap[name], dtype="<f8").tobytes())
    return h.hexdigest()


def weights_hash(model: Model) -> str:
    return snapshot_hash(model.snapshot())


def build_model(spec: ModelSpec) -> Model:
    """Construct and seed-initialize a model: He-uniform weights, zero
    biases, BN gamma 1 and beta 0, running mean 0 and running variance 1."""
    return Model(spec)


# ---------------------------------------------------------------------------
# Weights on disk: manifest.json + weights.bin


MANIFEST_NAME = "manifest.json"
WEIGHTS_NAME = "weights.bin"
FORMAT_VERSION = "1"


def save_weights(model: Model, dir_path, provenance: dict | None = None) -> Path:
    """Write manifest.json + weights.bin into dir_path (atomic rename)."""
    dir_path = Path(dir_path)
    blobs = []
    entries = []
    offset = 0
    for name, arr, trainable in model.all_entries():
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "dtype": "f64le", "offset": offset,
                        "length": len(raw), "sha256": hashlib.sha256(raw).hexdigest(), "trainable": trainable})
        blobs.append(raw)
        offset += len(raw)

    manifest = {
        "format_version": FORMAT_VERSION,
        "spec": model.spec.to_dict(),
        "provenance": provenance,
        "entries": entries,
        "total_length": offset,
    }
    atomic_write(dir_path / WEIGHTS_NAME, b"".join(blobs))
    write_json(dir_path / MANIFEST_NAME, manifest)
    return dir_path


# What `load_weights` reads of a manifest
MANIFEST_SCHEMA = {"format_version": str, "spec": SPEC_SCHEMA, "total_length": int,
                   "entries": [{"name": str, "shape": list, "offset": int, "length": int, "sha256": str}]}


def load_weights(dir_path) -> Model:
    """Rebuild a model from a manifest/blob pair; bit-exact round trip.

    Raises DataError, naming the manifest, for one that breaks
    MANIFEST_SCHEMA, has an unknown spec field, or disagrees with the blob
    or the model (version, shape, offset, length or sha256), and, naming
    the entry too, for an entry that holds a NaN or infinity.
    """
    dir_path = Path(dir_path)
    path = dir_path / MANIFEST_NAME
    manifest = read_json(path, MANIFEST_SCHEMA)
    if manifest["format_version"] != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported version {manifest['format_version']!r}")
    try:
        spec = ModelSpec.from_dict(manifest["spec"])
    except DataError as e:
        raise DataError(f"{path}: {e}") from e

    blob = (dir_path / WEIGHTS_NAME).read_bytes()
    if len(blob) != manifest["total_length"]:
        raise DataError(
            f"{path}: length mismatch: blob has {len(blob)} bytes, manifest says "
            f"{manifest['total_length']}"
        )

    # every array is overwritten below (a missing entry is an error), so
    # the seeded init that build_model draws would be thrown away
    model = Model(spec, _seeded=False)
    arrays = dict((name, arr) for name, arr, _ in model.all_entries())
    seen = set()
    for entry in manifest["entries"]:
        name, offset = entry["name"], entry["offset"]
        if name not in arrays:
            raise DataError(f"{path}: unknown layer entry {name!r}")
        arr = arrays[name]
        if entry["shape"] != list(arr.shape):
            raise DataError(f"{path}: shape mismatch in {name!r}: {entry['shape']} vs {list(arr.shape)}")
        raw = blob[offset : offset + entry["length"]]
        if offset < 0 or len(raw) != arr.nbytes:
            raise DataError(f"{path}: length mismatch in {name!r}")
        if hashlib.sha256(raw).hexdigest() != entry["sha256"]:
            raise DataError(f"{path}: checksum mismatch in {name!r}")
        arr[...] = np.frombuffer(raw, dtype="<f8").reshape(arr.shape)
        if not np.isfinite(arr).all():
            raise DataError(f"{path}: non-finite values in {name!r}")
        seen.add(name)
    missing = set(arrays) - seen
    if missing:
        raise DataError(f"{path}: manifest missing entries for {sorted(missing)}")
    return model
