"""Architecture construction, counting, wiring, and weight serialization."""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hvfcast import models
from hvfcast.autodiff import Tensor, _toposort, concat_channels, masked_mae
from hvfcast.domain import DataError, valid_mask_array
from hvfcast.models import (
    ModelSpec,
    build_model,
    canonical_specs,
    count_layers,
    count_parameters_spec,
    layer_plan,
    load_weights,
    published_comparison,
    save_weights,
    spec_from_name,
    weights_hash,
)

TINY = dict(widths=(4, 8, 12), fc_hidden=16)


def tiny_spec(family, k=None, in_channels=1, seed=0):
    return ModelSpec(family=family, depth_k=k, in_channels=in_channels, seed=seed, **TINY)


ALL_TINY = [
    tiny_spec("FullyConnected"),
    tiny_spec("FullBN", 2),
    tiny_spec("Residual", 2),
    tiny_spec("Cascade", 2),
]


class TestCounting:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("FullyConnected", 2),
            ("FullBN-3", 10),
            ("FullBN-5", 16),
            ("FullBN-7", 22),
            ("Residual-3", 12),
            ("Residual-5", 18),
            ("Residual-7", 24),
            ("Cascade-3", 10),
            ("Cascade-5", 16),
        ],
    )
    def test_layer_counts(self, name, expected):
        assert count_layers(spec_from_name(name)) == expected

    def test_plan_length_matches_count(self):
        for spec in ALL_TINY:
            assert len(layer_plan(spec)) == count_layers(spec)

    def test_built_model_matches_spec_count(self):
        for spec in ALL_TINY:
            params = build_model(spec).params.values()
            assert sum(p.data.size for p in params) == count_parameters_spec(spec)

    def test_dense_72_to_72_with_bias(self):
        spec = ModelSpec(family="FullyConnected", fc_hidden=72)
        fc1 = layer_plan(spec)[0]
        assert fc1.out_dim * fc1.in_dim + fc1.out_dim == 72 * 72 + 72 == 5256

    def test_conv_1_to_64_with_bias(self):
        spec = ModelSpec(family="FullBN", depth_k=1, widths=(64, 128, 256))
        conv1 = layer_plan(spec)[0]
        assert conv1.out_dim * conv1.in_dim * conv1.kernel**2 + conv1.out_dim == 640

    def test_bn_64_channels_trainable(self):
        # gamma + beta per channel; conv params excluded from this delta
        spec_bn = ModelSpec(family="FullBN", depth_k=1, widths=(64, 1, 1))
        plan = layer_plan(spec_bn)
        assert plan[0].bn and plan[0].out_dim == 64
        with_bn = count_parameters_spec(spec_bn)
        manual = sum(
            l.out_dim * l.in_dim * (l.kernel**2 if l.kind == "conv" else 1) + l.out_dim
            for l in plan
        )
        assert with_bn - manual == 2 * (64 + 1 + 1)

    def test_cascade_block_input_channels(self):
        spec = ModelSpec(family="Cascade", depth_k=3, in_channels=2)
        plan = {l.name: l for l in layer_plan(spec)}
        assert plan["block3.conv1"].in_dim == 2 + 2 * 256 == 514
        assert plan["head"].in_dim == 2 + 3 * 256

    def test_published_comparison_rows(self):
        rows = published_comparison()
        assert len(rows) == 9
        by_name = {r["name"]: r for r in rows}
        assert by_name["Cascade-5"]["published_layers"] == 16
        assert by_name["Cascade-5"]["published_parameters"] == 20_694_754
        for row in rows:
            assert row["layers"] == row["published_layers"]


class TestSpec:
    def test_unknown_family(self):
        with pytest.raises(DataError, match="family"):
            ModelSpec(family="Dense")

    def test_conv_family_requires_depth(self):
        with pytest.raises(DataError, match="depth_k"):
            ModelSpec(family="Cascade")

    def test_fc_takes_no_depth(self):
        with pytest.raises(DataError):
            ModelSpec(family="FullyConnected", depth_k=3)

    def test_canonical_specs_are_the_nine(self):
        names = [s.name for s in canonical_specs()]
        assert names == [
            "FullyConnected",
            "FullBN-3", "FullBN-5", "FullBN-7",
            "Residual-3", "Residual-5", "Residual-7",
            "Cascade-3", "Cascade-5",
        ]

    def test_spec_from_name_round_trip(self):
        for spec in canonical_specs():
            assert spec_from_name(spec.name) == spec

    def test_spec_dict_round_trip(self):
        spec = tiny_spec("Cascade", 2, in_channels=3, seed=77)
        assert ModelSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec


class TestForward:
    @pytest.mark.parametrize("spec", ALL_TINY, ids=lambda s: s.name)
    def test_output_shape(self, spec):
        m = build_model(spec)
        out = m.forward(np.random.default_rng(0).normal(size=(3, 1, 8, 9)), mode="train")
        assert out.data.shape == (3, 1, 8, 9)

    @pytest.mark.parametrize("spec", ALL_TINY, ids=lambda s: s.name)
    def test_infer_deterministic(self, spec):
        m = build_model(spec)
        x = np.random.default_rng(1).normal(size=(2, 1, 8, 9))
        a = m.forward(x, mode="infer").data
        b = m.forward(x, mode="infer").data
        np.testing.assert_array_equal(a, b)

    def test_channel_mismatch(self):
        m = build_model(tiny_spec("FullBN", 1, in_channels=2))
        with pytest.raises(DataError, match="in_channels"):
            m.forward(np.zeros((1, 1, 8, 9)))

    def test_zeroed_head_gives_zero_output(self):
        for spec in ALL_TINY:
            m = build_model(spec)
            if spec.family == "FullyConnected":
                heads = ["fc2"]
            elif spec.family == "Residual":
                heads = ["head", "input_skip"]
            else:
                heads = ["head"]
            for name in heads:
                m.params[f"{name}.w"].data[...] = 0.0
                m.params[f"{name}.b"].data[...] = 0.0
            out = m.forward(np.random.default_rng(2).normal(size=(2, 1, 8, 9)))
            np.testing.assert_array_equal(out.data, 0.0), spec.name

    def test_seeded_init_reproducible(self):
        a = build_model(tiny_spec("Cascade", 2, seed=5))
        b = build_model(tiny_spec("Cascade", 2, seed=5))
        assert weights_hash(a) == weights_hash(b)
        c = build_model(tiny_spec("Cascade", 2, seed=6))
        assert weights_hash(a) != weights_hash(c)

    def test_cascade_ablation_changes_output(self):
        # dropping block 1's output from block 2's concat must change the
        # forecast: the concat edges carry real signal
        spec = tiny_spec("Cascade", 2, seed=9)
        m = build_model(spec)
        x = Tensor(np.random.default_rng(3).normal(size=(1, 1, 8, 9)))
        m.forward(np.random.default_rng(4).normal(size=(4, 1, 8, 9)), mode="train")

        def cascade_forward(ablate_block1_into_block2: bool) -> np.ndarray:
            h1 = x
            for c in (1, 2, 3):
                h1 = m._unit(f"block1.conv{c}", h1, train=False)
            h1_for_2 = Tensor(np.zeros_like(h1.data)) if ablate_block1_into_block2 else h1
            h2 = concat_channels([x, h1_for_2])
            for c in (1, 2, 3):
                h2 = m._unit(f"block2.conv{c}", h2, train=False)
            return m._unit("head", concat_channels([x, h1, h2]), train=False).data

        full = cascade_forward(False)
        np.testing.assert_allclose(full, m.forward(x.data, mode="infer").data, atol=1e-12)
        ablated = cascade_forward(True)
        assert np.abs(full - ablated).max() > 1e-6

    @pytest.mark.parametrize("family,k", [("FullyConnected", None), ("FullBN", 1), ("Residual", 1), ("Cascade", 2)])
    def test_gradients_through_every_family(self, family, k):
        # smallest-possible widths here; the acceptance suite re-runs this at (4, 8, 12)
        from hvfcast.autodiff import grad_check

        rng = np.random.default_rng(10)
        m = build_model(ModelSpec(family=family, depth_k=k, widths=(2, 3, 4), fc_hidden=8))
        x = rng.normal(size=(2, 1, 8, 9)) * 4 + 20
        y = rng.normal(size=(2, 1, 8, 9)) * 4 + 20
        mask = valid_mask_array()

        def f():
            return masked_mae(m.forward(x, mode="train"), y, mask)

        params = [p for _, p in m.params.items()]
        assert grad_check(f, params, kink_tol=1e-6) < 1e-5

    @pytest.mark.parametrize("spec", ALL_TINY, ids=lambda s: s.name)
    def test_training_after_untaped_block_backpropagates(self, spec):
        """An earlier infer forward, whose graph is never backpropagated,
        leaves gradients bit-identical to a model that never ran one."""
        rng = np.random.default_rng(12)
        x, y = rng.normal(size=(2, 3, 1, 8, 9)) * 4 + 20
        grads = []
        for infer_first in (False, True):
            m = build_model(spec)
            if infer_first:
                m.forward(x, mode="infer")
            masked_mae(m.forward(x, mode="train"), y, valid_mask_array()).backward()
            grads.append({name: p.grad.copy() for name, p in m.params.items()})
        assert grads[0].keys() == grads[1].keys()
        assert any(np.any(g != 0.0) for g in grads[1].values())
        for name in grads[0]:
            np.testing.assert_array_equal(grads[1][name], grads[0][name])


    @pytest.mark.parametrize("spec", ALL_TINY, ids=lambda s: s.name)
    def test_constant_input_leaves_parameter_gradients_unchanged(self, spec):
        """A training step gives a constant input no gradient and the
        parameters the gradients they get from an input that requires one;
        an array input is wrapped as a constant."""
        rng = np.random.default_rng(13)
        x, y = rng.normal(size=(2, 3, 1, 8, 9)) * 4 + 20
        grads = []
        for requires_grad in (True, False):
            m = build_model(spec)
            inp = Tensor(x, requires_grad=requires_grad)
            masked_mae(m.forward(inp, mode="train"), y, valid_mask_array()).backward()
            assert (inp._grad is None) is not requires_grad
            grads.append({name: p.grad for name, p in m.params.items()})
        for name in grads[0]:
            np.testing.assert_array_equal(grads[1][name], grads[0][name])
        out = build_model(spec).forward(x, mode="train")
        (constant,) = [n for n in _toposort(out) if not n.requires_grad]
        assert np.shares_memory(constant.data, x)


class TestSerialization:
    def _trained_tiny(self):
        m = build_model(tiny_spec("Cascade", 2, seed=12))
        # a few train-mode passes so BN running stats are nontrivial
        rng = np.random.default_rng(13)
        for _ in range(3):
            m.forward(rng.normal(size=(4, 1, 8, 9)), mode="train")
        return m

    def test_round_trip_bit_identical(self, tmp_path):
        m = self._trained_tiny()
        save_weights(m, tmp_path / "ck", provenance={"phase": "arch", "fold": 3})
        m2 = load_weights(tmp_path / "ck")
        assert weights_hash(m) == weights_hash(m2)
        assert m2.spec == m.spec
        x = np.random.default_rng(14).normal(size=(2, 1, 8, 9))
        np.testing.assert_array_equal(
            m.forward(x, mode="infer").data, m2.forward(x, mode="infer").data
        )
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        assert manifest["provenance"] == {"phase": "arch", "fold": 3}

    @pytest.mark.parametrize("spec", ALL_TINY, ids=lambda s: s.name)
    def test_round_trip_every_family(self, spec, tmp_path):
        m = build_model(spec.replace(seed=15))
        rng = np.random.default_rng(16)
        m.forward(rng.normal(size=(4, 1, 8, 9)), mode="train")
        save_weights(m, tmp_path / "ck")
        m2 = load_weights(tmp_path / "ck")
        assert models.snapshot_hash(m2.snapshot()) == models.snapshot_hash(m.snapshot())
        x = rng.normal(size=(3, 1, 8, 9))
        np.testing.assert_array_equal(
            m.forward(x, mode="infer").data, m2.forward(x, mode="infer").data
        )

    @pytest.mark.parametrize("spec", ALL_TINY, ids=lambda s: s.name)
    def test_load_and_infer_allocate_no_grads(self, spec, tmp_path):
        save_weights(build_model(spec), tmp_path / "ck")
        m = load_weights(tmp_path / "ck")
        out = m.forward(np.zeros((2, 1, 8, 9)), "infer")
        assert [name for name, p in m.params.items() if p._grad is not None] == []
        assert out._grad is None

    def test_missing_entry_rejected(self, tmp_path):
        m = self._trained_tiny()
        save_weights(m, tmp_path / "ck")
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        dropped = manifest["entries"].pop(1)["name"]
        (tmp_path / "ck" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=rf"manifest missing entries for \['{dropped}'\]"):
            load_weights(tmp_path / "ck")

    def test_truncated_blob(self, tmp_path):
        m = self._trained_tiny()
        save_weights(m, tmp_path / "ck")
        blob = (tmp_path / "ck" / "weights.bin").read_bytes()
        (tmp_path / "ck" / "weights.bin").write_bytes(blob[:-8])
        with pytest.raises(DataError, match="length mismatch"):
            load_weights(tmp_path / "ck")

    def test_unsupported_version(self, tmp_path):
        m = self._trained_tiny()
        save_weights(m, tmp_path / "ck")
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        manifest["format_version"] = "2"
        (tmp_path / "ck" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(DataError, match="unsupported version '2'"):
            load_weights(tmp_path / "ck")

    def test_corruption_names_layer(self, tmp_path):
        m = self._trained_tiny()
        save_weights(m, tmp_path / "ck")
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        entry = manifest["entries"][0]
        blob = bytearray((tmp_path / "ck" / "weights.bin").read_bytes())
        blob[entry["offset"]] ^= 0xFF
        (tmp_path / "ck" / "weights.bin").write_bytes(bytes(blob))
        with pytest.raises(DataError, match=entry["name"].replace(".", r"\.")):
            load_weights(tmp_path / "ck")

    @pytest.mark.parametrize("value", [np.nan, -np.inf, 1.5], ids=["nan", "inf", "finite"])
    def test_non_finite_entry_names_file_and_entry(self, tmp_path, value):
        """A value written into an entry, its sha256 matching: only a finite one loads."""
        save_weights(self._trained_tiny(), tmp_path / "ck")
        path, blob_path = tmp_path / "ck" / "manifest.json", tmp_path / "ck" / "weights.bin"
        manifest = json.loads(path.read_text())
        entry = manifest["entries"][2]
        start, blob = entry["offset"], bytearray(blob_path.read_bytes())
        blob[start + 8 : start + 16] = np.array([value], dtype="<f8").tobytes()
        entry["sha256"] = hashlib.sha256(blob[start : start + entry["length"]]).hexdigest()
        blob_path.write_bytes(bytes(blob))
        path.write_text(json.dumps(manifest))
        if np.isfinite(value):
            loaded = {name: arr for name, arr, _ in load_weights(tmp_path / "ck").all_entries()}
            assert loaded[entry["name"]].reshape(-1)[1] == value
        else:
            with pytest.raises(DataError, match=f"^{re.escape(str(path))}: non-finite values in "
                                                   f"{re.escape(repr(entry['name']))}$"):
                load_weights(tmp_path / "ck")

    def test_manifest_offsets_contiguous(self, tmp_path):
        m = self._trained_tiny()
        save_weights(m, tmp_path / "ck")
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        offset = 0
        for entry in manifest["entries"]:
            assert entry["offset"] == offset
            offset += entry["length"]
        assert manifest["total_length"] == offset

    def test_manifest_spec_holds_only_model_fields(self, tmp_path):
        save_weights(self._trained_tiny(), tmp_path / "ck")
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        assert set(manifest["spec"]) == {"family", "depth_k", "widths", "in_channels", "seed", "fc_hidden"}

    @pytest.mark.parametrize(
        "edit,needle",
        [
            (lambda m: m.clear(), "'format_version' is missing"),
            (lambda m: m.pop("spec"), "'spec' is missing"),
            (lambda m: m.pop("entries"), "'entries' is missing"),
            (lambda m: m.pop("total_length"), "'total_length' is missing"),
            (lambda m: m["entries"][2].pop("sha256"), r"entries\[2\]: 'sha256' is missing"),
            (lambda m: m["entries"].__setitem__(1, []), r"entries\[1\] must be an object, got \[\]"),
            (lambda m: m.update(entries=5), "'entries' must be a list, got 5"),
            (lambda m: m["entries"][0].update(offset="a"), r"entries\[0\]: 'offset' must be an int, got 'a'"),
            (lambda m: m["entries"][1].update(length=-8), "length mismatch in '"),
            (lambda m: m["entries"][0].update(shape="x"), r"entries\[0\]: 'shape' must be a list, got 'x'"),
            (lambda m: m["entries"][0].update(name=["w"]), r"entries\[0\]: 'name' must be a str, got \['w'\]"),
            (lambda m: m["entries"][0].update(sha256=None), r"entries\[0\]: 'sha256' must be a str, got None"),
            # the spec of a checkpoint written before the two training fields left it
            (lambda m: m["spec"].update(batch_size=32, lr=0.001),
             r"spec: unknown fields \['batch_size', 'lr'\]"),
            (lambda m: m["spec"].pop("seed"), "spec: 'seed' is missing"),
            (lambda m: m["spec"].update(widths=4), "spec: 'widths' must be a list, got 4"),
            (lambda m: m["spec"].update(depth_k=1.5), "spec: 'depth_k' must be an int or null, got 1.5"),
            (lambda m: m["spec"].update(in_channels=2.0), "spec: 'in_channels' must be an int, got 2.0"),
            (lambda m: m["spec"].update(widths=[4, 8, 12.0]), r"spec.widths\[2\] must be an int, got 12.0"),
            (lambda m: m["spec"].update(depth_k=True), "spec: 'depth_k' must be an int or null, got True"),
            (lambda m: m["spec"].update(seed="a"), "spec: 'seed' must be an int, got 'a'"),
            (lambda m: m["spec"].update(fc_hidden=None), "spec: 'fc_hidden' must be an int, got None"),
        ],
        ids=["empty", "no-spec", "no-entries", "no-total-length", "entry-key", "entry-not-object",
             "entries-int", "offset-str", "length-negative", "shape-str", "name-list", "sha-none",
             "old-spec-fields", "missing-spec-field", "spec-type", "depth-float", "in-channels-float",
             "width-float", "depth-bool", "seed-str", "fc-hidden-null"],
    )
    def test_malformed_manifest_names_file_and_key(self, tmp_path, edit, needle):
        save_weights(self._trained_tiny(), tmp_path / "ck")
        path = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: .*{needle}"):
            load_weights(tmp_path / "ck")

    def test_manifest_that_is_not_an_object_is_named(self, tmp_path):
        save_weights(self._trained_tiny(), tmp_path / "ck")
        path = tmp_path / "ck" / "manifest.json"
        path.write_text("[]")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: must be an object, got \\[\\]$"):
            load_weights(tmp_path / "ck")

    def test_write_json_is_sorted_indented_and_atomic(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("stale")
        models.write_json(path, {"b": [1, 2.5], "a": None})
        assert path.read_text() == '{\n  "a": null,\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_write_json_refuses_non_finite_numbers(self, tmp_path, value):
        """JSON has no NaN or Infinity, so no result file may hold one."""
        path = tmp_path / "out.json"
        path.write_text("stale")
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: Out of range float values"):
            models.write_json(path, {"a": [1.0, value]})
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
        assert path.read_text() == "stale"

    def test_failed_write_leaves_no_temporary_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out.json"
        path.write_text("stale")
        write_bytes = Path.write_bytes

        def write_part(self, data):
            write_bytes(self, data[:3])
            raise OSError("No space left on device")

        monkeypatch.setattr(Path, "write_bytes", write_part)
        with pytest.raises(OSError, match="No space"):
            models.write_json(path, {"a": 1})
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]
        assert path.read_text() == "stale"


class TestTransfer:
    """The chain's forward transfer: `restore` of the previous step's snapshot."""

    def test_transfer_copies_forward_behavior(self):
        src = build_model(tiny_spec("FullBN", 2, seed=20))
        rng = np.random.default_rng(21)
        src.forward(rng.normal(size=(4, 1, 8, 9)), mode="train")
        dst = build_model(tiny_spec("FullBN", 2, seed=99))
        dst.restore(src.snapshot())
        x = rng.normal(size=(2, 1, 8, 9))
        np.testing.assert_array_equal(
            src.forward(x, mode="infer").data, dst.forward(x, mode="infer").data
        )
        assert weights_hash(src) == weights_hash(dst)

    def test_entries_are_the_models_own_arrays(self):
        """Training, `restore` and `load_weights` write into the arrays the
        model listed at build time, so every reader sees the current state."""
        m = build_model(tiny_spec("Residual", 2, seed=40))
        entries = [(name, arr) for name, arr, _ in m.all_entries()]
        m.forward(np.random.default_rng(41).normal(size=(4, 1, 8, 9)), mode="train")
        m.restore(build_model(tiny_spec("Residual", 2, seed=42)).snapshot())
        for (name, arr), (name2, arr2, _) in zip(entries, m.all_entries()):
            assert name == name2 and arr is arr2
        state = m.bn["block1.conv1"]
        by_name = dict(entries)
        assert by_name["block1.conv1.bn.running_mean"] is state.running_mean
        assert by_name["block1.conv1.bn.running_var"] is state.running_var
        assert by_name["block1.conv1.w"] is m.params["block1.conv1.w"].data

    def test_zero_epoch_chain_propagates_initial_weights(self):
        a = build_model(tiny_spec("Cascade", 2, seed=30))
        b = build_model(tiny_spec("Cascade", 2, seed=31))
        c = build_model(tiny_spec("Cascade", 2, seed=32))
        b.restore(a.snapshot())  # B "trained" for 0 epochs keeps A's weights
        c.restore(b.snapshot())
        assert weights_hash(c) == weights_hash(a)


def _block_forward(m, x, train: bool) -> Tensor:
    """FullBN-k or Residual-k wired by hand from the model's units, as the
    module docstring describes them: three convs per block; for Residual an
    additive skip around each block (a 1x1 projection around the first) and
    a 1x1 input projection added to the head."""
    residual = m.spec.family == "Residual"
    h = x
    for j in range(1, m.spec.depth_k + 1):
        block_in = h
        for c in (1, 2, 3):
            h = m._unit(f"block{j}.conv{c}", h, train)
        if residual:
            h = h + (m._unit("block1.skip", block_in, train) if j == 1 else block_in)
    out = m._unit("head", h, train)
    return out + m._unit("input_skip", x, train) if residual else out


class TestWiring:
    @pytest.mark.parametrize("family", ["FullBN", "Residual"])
    def test_forward_equals_hand_wired_reference_bit_for_bit(self, family):
        """Outputs, parameter gradients and batch-norm statistics after a
        train step, then the infer output, match a reference built from
        `_unit` on a twin model."""
        spec = tiny_spec(family, 2, in_channels=2, seed=12)
        model, twin = build_model(spec), build_model(spec)
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 2, 8, 9)) * 4 + 20
        y = rng.normal(size=(3, 1, 8, 9)) * 4 + 20
        mask = valid_mask_array()

        out = model.forward(x, mode="train")
        ref = _block_forward(twin, Tensor(x), True)
        np.testing.assert_array_equal(out.data, ref.data)
        masked_mae(out, y, mask).backward()
        masked_mae(ref, y, mask).backward()
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.grad, twin.params[name].grad, err_msg=name)
        assert weights_hash(model) == weights_hash(twin)

        x2 = rng.normal(size=(2, 2, 8, 9)) * 4 + 20
        np.testing.assert_array_equal(model.forward(x2, mode="infer").data,
                                      _block_forward(twin, Tensor(x2), False).data)

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(list(models.PUBLISHED_BENCHMARKS)),
        widths=st.tuples(*[st.integers(1, 6)] * 3),
        in_channels=st.integers(1, 7),
        fc_hidden=st.integers(1, 9),
    )
    def test_plan_states_every_input_and_skip(self, name, widths, in_channels, fc_hidden):
        """Every input and `add` is an earlier unit or the model input; a
        unit's in_dim is its inputs' widths summed (a dense unit flattens
        a grid input, GRID_SIZE values per channel); an `add` has the
        unit's shape; and the plan order is the order of the stored arrays."""
        spec = spec_from_name(name, widths=widths, in_channels=in_channels, fc_hidden=fc_hidden)
        plan = layer_plan(spec)
        width, grid = {"input": in_channels}, {"input": True}
        for layer in plan:
            assert layer.inputs and set(layer.inputs) <= width.keys(), layer
            assert layer.add is None or layer.add in width, layer
            flatten = models.GRID_SIZE if layer.kind == "dense" and grid[layer.inputs[0]] else 1
            assert all(grid[n] == grid[layer.inputs[0]] for n in layer.inputs), layer
            assert layer.in_dim == flatten * sum(width[n] for n in layer.inputs), layer
            if layer.add is not None:
                assert (width[layer.add], grid[layer.add]) == (layer.out_dim, layer.kind == "conv"), layer
            width[layer.name], grid[layer.name] = layer.out_dim, layer.kind == "conv"
        assert (width[plan[-1].name], grid[plan[-1].name]) in {(1, True), (models.GRID_SIZE, False)}

        units = []
        for entry, _, trainable in build_model(spec).all_entries():
            unit = entry.split(".bn.")[0] if ".bn." in entry else entry.rsplit(".", 1)[0]
            if trainable and unit not in units:
                units.append(unit)
        assert units == [layer.name for layer in plan]
