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

A `Model` holds M models of one spec (seed aside) on a leading model axis:
training builds and saves M = 1, and serving stacks a bin's fold models
with `Model.extend`, so that one forward runs them all.
"""

from __future__ import annotations

import hashlib
import json
import math
import dataclasses
import functools
from dataclasses import dataclass, asdict
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .autodiff import (
    EngineError,
    Tensor,
    batch_norm,
    concat_channels,
    conv2d,
    dense,
    relu,
)
from .domain import GRID_COLS, GRID_ROWS, DataError, atomic_write, expect, read_json, write_json

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

    @property
    def shared(self) -> bool:
        """Whether the unit reads only the model input, which every model
        of a stack reads unchanged."""
        return self.inputs == (INPUT,)


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
    """Trainable parameter count from the spec's layout (no allocation)."""
    return sum(stop - start for _, _, trainable, start, stop in _wiring(spec.replace(seed=0))[1] if trainable)


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


def _layout(layers: dict[str, LayerInfo]) -> list[tuple[str, tuple[int, ...], bool, int, int]]:
    """(name, one model's shape, trainable, start, stop) of every stored
    array, [start, stop) its place in a model's float64 values, in the
    order weights.bin lays them out: each unit's weights, bias and
    batch-norm gamma and beta, then each batch norm's running mean and
    running variance."""
    params, stats = [], []
    for layer in layers.values():
        if layer.kind == "dense":
            params.append((f"{layer.name}.w", (layer.out_dim, layer.in_dim)))
        else:
            params.append((f"{layer.name}.w", (layer.out_dim, layer.in_dim, layer.kernel, layer.kernel)))
        params.append((f"{layer.name}.b", (layer.out_dim,)))
        if layer.bn:
            params += [(f"{layer.name}.bn.{key}", (layer.out_dim,)) for key in ("gamma", "beta")]
            stats += [(f"{layer.name}.bn.{key}", (layer.out_dim,)) for key in ("running_mean", "running_var")]
    layout, start = [], 0
    for trainable, group in ((True, params), (False, stats)):
        for name, shape in group:
            layout.append((name, shape, trainable, start, start + math.prod(shape)))
            start = layout[-1][4]
    return layout


def _views(layout, buffer: np.ndarray) -> list[tuple[str, np.ndarray, bool]]:
    """(name, array, trainable) for every entry of `layout`, each array a
    (M, *shape) view of the (M, total) `buffer`."""
    models = buffer.shape[0]
    return [(name, buffer[:, start:stop].reshape(models, *shape), trainable)
            for name, shape, trainable, start, stop in layout]


@functools.cache
def _wiring(spec: ModelSpec) -> tuple[MappingProxyType, tuple]:
    """(layers, layout) of a spec with seed 0, built once per spec and
    shared by every model of it: the layer plan as a read-only name ->
    LayerInfo mapping, and the weights.bin layout."""
    layers = {layer.name: layer for layer in layer_plan(spec)}
    return MappingProxyType(layers), tuple(_layout(layers))


def require_same_spec(ref: "Model", other: "Model") -> None:
    """Raise DataError unless `other` has `ref`'s spec, seed aside."""
    if other.spec.replace(seed=ref.spec.seed) != ref.spec:
        raise DataError(
            f"ensemble models disagree on spec: {other.spec.to_dict()} vs {ref.spec.to_dict()} (seed aside)"
        )


class Model:
    """A built architecture: parameters, running statistics, and wiring, for
    M models of one spec (seed aside) on a leading model axis.

    Every stored array is a (M, ...) view into one float64 buffer of shape
    (M, total), whose row m is model m's weights.bin.  The views keep their
    identity for the model's life, except that `extend` rebinds them all.
    The forward runs every model at once (see `autodiff.conv2d`): an input
    batch of B rows gives M*B output rows, model m's at m*B to (m+1)*B - 1.
    A stack (M > 1) serves and never trains: its parameters take no
    gradient, so its forward builds no graph and each layer's buffers are
    freed as soon as the next layer has read them.
    `spec.seed` is the first model's seed.  `layers` (the layer plan, by
    name) is a read-only mapping that every model of the spec shares.
    `provenance` is the provenance of the checkpoint `load_weights` read,
    or None."""

    def __init__(self, spec: ModelSpec, *, _seeded: bool = True):
        """One model (M = 1) with He-uniform weights drawn from spec.seed;
        `_seeded=False` leaves every array unset, for callers that
        overwrite them all."""
        self.spec = spec
        self.layers, self._layout = _wiring(spec.replace(seed=0))
        self.provenance = None
        self._bind(np.empty((1, self._layout[-1][4])))
        if not _seeded:
            return
        rng = np.random.default_rng(spec.seed)
        for name, arr, _ in self.all_entries():
            key = name.rpartition(".")[2]
            if key == "w":
                fan_in = math.prod(arr.shape[2:])
                limit = np.sqrt(6.0 / fan_in)
                arr[0] = rng.uniform(-limit, limit, size=arr.shape[1:])
            else:
                arr[...] = 1.0 if key in ("gamma", "running_var") else 0.0

    def _bind(self, buffer: np.ndarray) -> None:
        """Make `buffer` the model's values.  The views into it, and the
        parameters over them, are built on first use, so a model that only
        extends another never builds them."""
        self._buffer = buffer
        self._state = None

    def _bound(self) -> tuple[list, dict[str, np.ndarray], dict[str, Tensor]]:
        """(entries, arrays by name, params), every array a view of the buffer."""
        if self._state is None:
            entries = _views(self._layout, self._buffer)
            arrays = {name: arr for name, arr, _ in entries}
            trains = self.n_models == 1
            params = {name: Tensor(arr, requires_grad=trains) for name, arr, trainable in entries if trainable}
            self._state = (entries, arrays, params)
        return self._state

    @property
    def params(self) -> dict[str, Tensor]:
        """Parameter name -> its Tensor, in weights.bin order."""
        return self._bound()[2]

    @property
    def n_models(self) -> int:
        """M, the length of the model axis."""
        return self._buffer.shape[0]

    def extend(self, others: list["Model"]) -> None:
        """Append the models of `others`, in order, to this model's axis.
        Each must have this spec, seed aside (else DataError).  Every array
        is rebound to one new buffer; `others` are left as they were."""
        for other in others:
            require_same_spec(self, other)
        self._bind(np.concatenate([self._buffer, *(other._buffer for other in others)]))

    # -- forward ----------------------------------------------------------

    def _unit(self, name: str, x: Tensor, train: bool) -> Tensor:
        """dense or conv -> batch norm -> relu (norm/relu only where the plan
        says); `train` selects batch or running statistics for the norm.
        A unit that reads only the model input takes it as one batch that
        every model shares."""
        layer = self.layers[name]
        _, arrays, params = self._bound()
        op = dense if layer.kind == "dense" else conv2d
        out = op(x, params[f"{name}.w"], params[f"{name}.b"], layer.shared)
        if layer.bn:
            out = batch_norm(out, params[f"{name}.bn.gamma"], params[f"{name}.bn.beta"],
                             arrays[f"{name}.bn.running_mean"], arrays[f"{name}.bn.running_var"], train)
        if layer.activation == "relu":
            out = relu(out)
        return out

    def forward(self, x, mode: str = "infer") -> Tensor:
        """Run the network; returns a (M*B, 1, 8, 9) Tensor for a (B, C, 8, 9)
        input.  An array `x` is wrapped as a constant, so no gradient is
        computed for it.  A unit that reads the input beside other units
        reads it repeated once per model, a copy that takes no gradient, so
        a stacked model (M > 1) refuses an input that requires one."""
        if mode not in ("train", "infer"):
            raise DataError(f"unknown mode {mode!r}")
        x = x if isinstance(x, Tensor) else Tensor(x, requires_grad=False)
        if x.data.ndim != 4 or x.data.shape[1] != self.spec.in_channels:
            raise DataError(
                f"input shape {x.data.shape} does not match in_channels="
                f"{self.spec.in_channels}"
            )
        models = self.n_models
        if models > 1 and x.requires_grad:
            raise EngineError("a stacked model's input takes no gradient")
        train = mode == "train"
        tiled = x if models == 1 else Tensor(np.tile(x.data, (models, 1, 1, 1)), requires_grad=False)
        outputs = {INPUT: tiled}
        for layer in self.layers.values():
            h = x if layer.shared else concat_channels([outputs[name] for name in layer.inputs])
            if layer.kind == "dense" and h.data.ndim == 4:
                h = h.reshape(h.data.shape[0], layer.in_dim)
            h = self._unit(layer.name, h, train)
            if layer.add is not None:
                h = h + outputs[layer.add]
            outputs[layer.name] = h
        return h.reshape(h.data.shape[0], 1, GRID_ROWS, GRID_COLS) if h.data.ndim == 2 else h

    # -- state ------------------------------------------------------------

    def all_entries(self) -> list[tuple[str, np.ndarray, bool]]:
        """(name, array, trainable) for every stored array, in weights.bin
        order; the arrays are the model's own (M, ...) views."""
        return self._bound()[0]

    def snapshot(self) -> np.ndarray:
        """A copy of the (M, total) values: row m is model m's weights.bin."""
        return self._buffer.copy()

    def restore(self, snap: np.ndarray) -> None:
        """Copy a `snapshot` into the values; one row fills every model of a stack."""
        if snap.shape[-1] != self._buffer.shape[1]:
            raise EngineError(f"restore: a snapshot row of {snap.shape[-1]} values, not {self._buffer.shape[1]}")
        self._buffer[...] = snap


def weights_hash(model: Model) -> str:
    """sha256 over all arrays in sorted name order (little-endian float64)."""
    h = hashlib.sha256()
    for name, _, _, start, stop in sorted(model._layout):
        h.update(name.encode())
        h.update(np.ascontiguousarray(model._buffer[:, start:stop], dtype="<f8").tobytes())
    return h.hexdigest()


def build_model(spec: ModelSpec) -> Model:
    """Construct and seed-initialize a model: He-uniform weights, zero
    biases, BN gamma 1 and beta 0, running mean 0 and running variance 1."""
    return Model(spec)


# ---------------------------------------------------------------------------
# Weights on disk: manifest.json + weights.bin


MANIFEST_NAME = "manifest.json"
WEIGHTS_NAME = "weights.bin"
FORMAT_VERSION = "2"


def _checkpoint_digest(spec: dict, blob: bytes) -> str:
    """sha256 of the spec as sorted-key JSON followed by the blob: it binds
    the spec that lays the blob out to the blob's bytes."""
    h = hashlib.sha256(json.dumps(spec, sort_keys=True).encode())
    h.update(blob)
    return h.hexdigest()


def save_weights(model: Model, dir_path, provenance: dict | None = None) -> Path:
    """Write weights.bin, then manifest.json, into dir_path (each an atomic
    rename).

    weights.bin is the model's buffer, laid out by its spec (`_layout`);
    the manifest holds the spec, `provenance`, the blob's length and one
    sha256 of spec and blob.  A stack (M > 1) raises EngineError, since a
    checkpoint holds one model."""
    if model.n_models != 1:
        raise EngineError(f"save_weights: a checkpoint holds one model, this one stacks {model.n_models}")
    dir_path = Path(dir_path)
    blob = np.ascontiguousarray(model._buffer, dtype="<f8").tobytes()
    spec = model.spec.to_dict()
    manifest = {
        "format_version": FORMAT_VERSION,
        "spec": spec,
        "provenance": provenance,
        "total_length": len(blob),
        "sha256": _checkpoint_digest(spec, blob),
    }
    atomic_write(dir_path / WEIGHTS_NAME, blob)
    write_json(dir_path / MANIFEST_NAME, manifest)
    return dir_path


# What `load_weights` reads of a manifest: its version first, so that a
# manifest of another format is refused by that version
VERSION_SCHEMA = {"format_version": str}
MANIFEST_SCHEMA = {"format_version": str, "spec": SPEC_SCHEMA, "total_length": int, "sha256": str}


def load_weights(dir_path) -> Model:
    """Rebuild a model (M = 1) from a manifest/blob pair; bit-exact round
    trip.  The manifest's `provenance` is kept on the model.

    The spec lays the blob out, so the blob must be as long as the manifest
    says and the spec's layout needs, and the one digest must match spec
    and blob; the blob is then copied into the model's buffer in one piece
    and scanned for non-finite values once.  Raises DataError, naming the
    manifest, for one of another format version, one that breaks
    MANIFEST_SCHEMA or has an unknown spec field, a length or digest
    mismatch, and, naming the entry too, a NaN or infinity in an entry.
    """
    dir_path = Path(dir_path)
    path = dir_path / MANIFEST_NAME
    manifest = read_json(path, VERSION_SCHEMA)
    if manifest["format_version"] != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported version {manifest['format_version']!r}")
    expect(manifest, MANIFEST_SCHEMA, path)
    try:
        spec = ModelSpec.from_dict(manifest["spec"])
    except DataError as e:
        raise DataError(f"{path}: {e}") from e

    model = Model(spec, _seeded=False)
    values = model._buffer[0]
    blob = (dir_path / WEIGHTS_NAME).read_bytes()
    if not len(blob) == manifest["total_length"] == values.nbytes:
        raise DataError(f"{path}: length mismatch: blob has {len(blob)} bytes, manifest says "
                        f"{manifest['total_length']}, the spec lays out {values.nbytes}")
    if _checkpoint_digest(manifest["spec"], blob) != manifest["sha256"]:
        raise DataError(f"{path}: checksum mismatch")
    values[...] = np.frombuffer(blob, dtype="<f8")
    if not np.isfinite(values).all():
        name = next(name for name, _, _, start, stop in model._layout if not np.isfinite(values[start:stop]).all())
        raise DataError(f"{path}: non-finite values in {name!r}")
    model.provenance = manifest.get("provenance")
    return model
