"""Architecture construction, counting, wiring, and weight serialization."""

import hashlib
import json
import re
import tempfile
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hvfcast import models
from hvfcast.autodiff import AdamState, EngineError, Tensor, _toposort, adam_step, concat_channels, masked_mae
from hvfcast.domain import DataError, valid_mask_array
from hvfcast.evaluation import ensemble_means
from hvfcast.models import (
    FAMILIES,
    Model,
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

from conftest import checkpoint_digest, equal_length_spec, formula_parameters

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
            assert sum(p.data.size for p in params) == count_parameters_spec(spec) == formula_parameters(spec)

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(FAMILIES), depth=st.integers(1, 3),
           widths=st.tuples(*[st.integers(1, 12)] * 3), in_channels=st.integers(1, 7),
           fc_hidden=st.integers(1, 64))
    def test_trainable_sizes_follow_the_per_layer_formula(self, family, depth, widths, in_channels, fc_hidden):
        spec = ModelSpec(family=family, depth_k=None if family == "FullyConnected" else depth, widths=widths,
                         in_channels=in_channels, fc_hidden=fc_hidden)
        built = sum(arr[0].size for _, arr, trainable in build_model(spec).all_entries() if trainable)
        assert built == count_parameters_spec(spec) == formula_parameters(spec)

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
        assert manifest["provenance"] == m2.provenance == {"phase": "arch", "fold": 3}

    @pytest.mark.parametrize("spec", ALL_TINY, ids=lambda s: s.name)
    def test_round_trip_every_family(self, spec, tmp_path):
        m = build_model(spec.replace(seed=15))
        rng = np.random.default_rng(16)
        m.forward(rng.normal(size=(4, 1, 8, 9)), mode="train")
        save_weights(m, tmp_path / "ck")
        m2 = load_weights(tmp_path / "ck")
        assert weights_hash(m2) == weights_hash(m)
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

    def _rewrite(self, ck, blob: bytes, **manifest_fields) -> Path:
        """Write `blob` as ck's weights.bin and update its manifest with
        `manifest_fields`, its digest recomputed for spec and blob."""
        path = ck / "manifest.json"
        manifest = json.loads(path.read_text()) | manifest_fields
        manifest["sha256"] = checkpoint_digest(manifest["spec"], blob)
        (ck / "weights.bin").write_bytes(blob)
        path.write_text(json.dumps(manifest))
        return path

    def test_missing_entry_rejected(self, tmp_path):
        """A blob without its last entry, its manifest's length and digest
        matching: the spec lays out the entry, so the blob is too short."""
        m = self._trained_tiny()
        save_weights(m, tmp_path / "ck")
        name, _, _, start, stop = m._layout[-1]
        assert stop == m._buffer.size
        blob = (tmp_path / "ck" / "weights.bin").read_bytes()[: 8 * start]
        path = self._rewrite(tmp_path / "ck", blob, total_length=len(blob))
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: length mismatch: blob has {8 * start} bytes, "
                                               f"manifest says {8 * start}, the spec lays out {8 * stop}$"):
            load_weights(tmp_path / "ck")

    def test_truncated_blob(self, tmp_path):
        m = self._trained_tiny()
        save_weights(m, tmp_path / "ck")
        blob = (tmp_path / "ck" / "weights.bin").read_bytes()
        (tmp_path / "ck" / "weights.bin").write_bytes(blob[:-8])
        with pytest.raises(DataError, match="length mismatch"):
            load_weights(tmp_path / "ck")

    def test_unsupported_version(self, tmp_path):
        """A format-1 manifest (an entry table and no top-level digest) and
        an unknown later version are refused by their version."""
        save_weights(self._trained_tiny(), tmp_path / "ck")
        path = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(path.read_text())
        v1 = {key: manifest[key] for key in ("spec", "provenance", "total_length")} | {
            "format_version": "1", "entries": []}
        for doc, version in ((v1, "1"), (manifest | {"format_version": "3"}, "3")):
            path.write_text(json.dumps(doc))
            with pytest.raises(DataError, match=f"^{re.escape(str(path))}: unsupported version '{version}'$"):
                load_weights(tmp_path / "ck")

    @pytest.mark.parametrize("value", [np.nan, -np.inf, 1.5], ids=["nan", "inf", "finite"])
    def test_non_finite_entry_names_file_and_entry(self, tmp_path, value):
        """A value written into an entry, the digest matching: only a finite one loads."""
        m = self._trained_tiny()
        save_weights(m, tmp_path / "ck")
        name, _, _, start, _ = m._layout[2]
        blob = bytearray((tmp_path / "ck" / "weights.bin").read_bytes())
        blob[8 * start + 8 : 8 * start + 16] = np.array([value], dtype="<f8").tobytes()
        path = self._rewrite(tmp_path / "ck", bytes(blob))
        if np.isfinite(value):
            loaded = {name: arr for name, arr, _ in load_weights(tmp_path / "ck").all_entries()}
            assert loaded[name].reshape(-1)[1] == value
        else:
            with pytest.raises(DataError, match=f"^{re.escape(str(path))}: non-finite values in "
                                                   f"{re.escape(repr(name))}$"):
                load_weights(tmp_path / "ck")

    def test_entry_away_from_its_place_rejected(self, tmp_path):
        """Two entries of one length trade places in weights.bin: the blob
        is the model's buffer, laid out by the spec, and the digest that
        binds the two refuses it."""
        m = self._trained_tiny()
        save_weights(m, tmp_path / "ck")
        (_, _, _, a0, a1), (_, _, _, b0, b1) = [e for e in m._layout if e[0].startswith("block1.conv1.")][1:3]
        assert a1 - a0 == b1 - b0
        blob = bytearray((tmp_path / "ck" / "weights.bin").read_bytes())
        blob[8 * a0 : 8 * a1], blob[8 * b0 : 8 * b1] = blob[8 * b0 : 8 * b1], blob[8 * a0 : 8 * a1]
        (tmp_path / "ck" / "weights.bin").write_bytes(bytes(blob))
        path = tmp_path / "ck" / "manifest.json"
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: checksum mismatch$"):
            load_weights(tmp_path / "ck")

    def test_manifest_offsets_contiguous(self, tmp_path):
        """The manifest holds no entry table: the spec's layout places the
        entries back to back, and `total_length` is where the last ends."""
        m = self._trained_tiny()
        save_weights(m, tmp_path / "ck", provenance={"phase": "arch"})
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        assert set(manifest) == {"format_version", "spec", "provenance", "total_length", "sha256"}
        offset = 0
        for _, shape, _, start, stop in m._layout:
            assert (start, stop) == (offset, offset + int(np.prod(shape)))
            offset = stop
        assert manifest["total_length"] == 8 * offset == (tmp_path / "ck" / "weights.bin").stat().st_size
        assert manifest["sha256"] == checkpoint_digest(manifest["spec"], (tmp_path / "ck" / "weights.bin").read_bytes())

    def test_manifest_spec_holds_only_model_fields(self, tmp_path):
        save_weights(self._trained_tiny(), tmp_path / "ck")
        manifest = json.loads((tmp_path / "ck" / "manifest.json").read_text())
        assert set(manifest["spec"]) == {"family", "depth_k", "widths", "in_channels", "seed", "fc_hidden"}

    @pytest.mark.parametrize("spec", ALL_TINY[1:], ids=lambda s: s.name)
    def test_foreign_spec_of_equal_length_rejected(self, spec, tmp_path):
        """A manifest whose spec names another architecture that lays out
        as many values: only the digest tells the two apart."""
        save_weights(build_model(spec), tmp_path / "ck")
        path = tmp_path / "ck" / "manifest.json"
        manifest = json.loads(path.read_text())
        foreign = equal_length_spec(spec)
        assert foreign.name != spec.name or foreign.widths != spec.widths
        path.write_text(json.dumps(manifest | {"spec": foreign.to_dict()}))
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: checksum mismatch$"):
            load_weights(tmp_path / "ck")

    @pytest.mark.parametrize(
        "edit,needle",
        [
            (lambda m: m.clear(), "'format_version' is missing"),
            (lambda m: m.pop("spec"), "'spec' is missing"),
            (lambda m: m.pop("total_length"), "'total_length' is missing"),
            (lambda m: m.pop("sha256"), "'sha256' is missing"),
            (lambda m: m.update(format_version=2), "'format_version' must be a str, got 2"),
            (lambda m: m.update(total_length="8"), "'total_length' must be an int, got '8'"),
            (lambda m: m.update(total_length=-8), "length mismatch: blob has "),
            (lambda m: m.update(sha256=None), "'sha256' must be a str, got None"),
            (lambda m: m.update(sha256="0" * 64), "checksum mismatch$"),
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
            (lambda m: m["spec"].update(seed=13), "checksum mismatch$"),
        ],
        ids=["empty", "no-spec", "no-total-length", "no-sha256", "version-int",
             "total-length-str", "length-negative", "sha-none", "sha-other",
             "old-spec-fields", "missing-spec-field", "spec-type", "depth-float", "in-channels-float",
             "width-float", "depth-bool", "seed-str", "fc-hidden-null", "seed-other"],
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



@st.composite
def small_specs(draw) -> ModelSpec:
    """Any family at small random widths, depth, hidden width and input channels."""
    family = draw(st.sampled_from(FAMILIES))
    return ModelSpec(family, None if family == models.FULLY_CONNECTED else draw(st.integers(1, 2)),
                     widths=tuple(draw(st.lists(st.integers(1, 4), min_size=3, max_size=3))),
                     in_channels=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**32)),
                     fc_hidden=draw(st.integers(1, 6)))


@st.composite
def checkpoints(draw) -> Model:
    """A model of `small_specs` whose every stored value is drawn: normal
    values, with some cells set to any finite float (zeros, subnormals and
    the extremes among them)."""
    model = build_model(draw(small_specs()))
    values = model._buffer[0]
    values[:] = np.random.default_rng(draw(st.integers(0, 2**32))).normal(size=values.size)
    for i in draw(st.lists(st.integers(0, values.size - 1), max_size=4)):
        values[i] = draw(st.floats(allow_nan=False, allow_infinity=False))
    return model


# A new value for each spec field, drawn from the field's old value; the
# result may be no valid spec at all (a FullyConnected with a depth)
SPEC_EDITS = {
    "family": lambda v: st.sampled_from([f for f in FAMILIES if f != v]),
    "depth_k": lambda v: st.sampled_from([None, 1, 2, 3]).filter(lambda d: d != v),
    "widths": lambda v: st.lists(st.integers(1, 5), min_size=3, max_size=3).filter(lambda w: w != v),
    "in_channels": lambda v: st.integers(1, 4).filter(lambda c: c != v),
    "seed": lambda v: st.integers(0, 2**32).filter(lambda s: s != v),
    "fc_hidden": lambda v: st.integers(1, 7).filter(lambda h: h != v),
}


class TestCheckpointProperties:
    """Format-2 checkpoints of every family: a round trip is bit for bit,
    and each way of changing one file is refused naming the manifest."""

    @staticmethod
    def _saved(model, tmp) -> tuple[Path, Path, bytes]:
        save_weights(model, Path(tmp) / "ck", provenance={"phase": "arch", "fold": 1})
        ck = Path(tmp) / "ck"
        return ck, ck / "manifest.json", (ck / "weights.bin").read_bytes()

    @staticmethod
    def _refused(ck, path, reason: str = ".*") -> None:
        with pytest.raises(DataError, match=f"^{re.escape(str(path))}: {reason}"):
            load_weights(ck)

    @settings(max_examples=40, deadline=None)
    @given(model=checkpoints())
    def test_round_trip_is_bit_for_bit(self, model):
        with tempfile.TemporaryDirectory() as tmp:
            ck, path, blob = self._saved(model, tmp)
            loaded = load_weights(ck)
            manifest = json.loads(path.read_text())
        assert loaded._buffer.tobytes() == model._buffer.tobytes() == blob
        assert loaded.spec == model.spec and loaded.provenance == {"phase": "arch", "fold": 1}
        assert manifest["sha256"] == checkpoint_digest(model.spec.to_dict(), blob)

    @settings(max_examples=40, deadline=None)
    @given(model=checkpoints(), data=st.data())
    def test_any_flipped_byte_of_the_blob_is_refused(self, model, data):
        with tempfile.TemporaryDirectory() as tmp:
            ck, path, blob = self._saved(model, tmp)
            i = data.draw(st.integers(0, len(blob) - 1), label="byte")
            flipped = bytearray(blob)
            flipped[i] ^= data.draw(st.integers(1, 255), label="mask")
            (ck / "weights.bin").write_bytes(bytes(flipped))
            self._refused(ck, path, "checksum mismatch$")

    @settings(max_examples=40, deadline=None)
    @given(model=checkpoints(), data=st.data())
    def test_truncated_or_extended_blob_is_refused(self, model, data):
        with tempfile.TemporaryDirectory() as tmp:
            ck, path, blob = self._saved(model, tmp)
            if data.draw(st.booleans(), label="truncate"):
                resized = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
            else:
                resized = blob + data.draw(st.binary(min_size=1, max_size=24), label="tail")
            (ck / "weights.bin").write_bytes(resized)
            self._refused(ck, path, f"length mismatch: blob has {len(resized)} bytes, manifest says {len(blob)}, "
                                    f"the spec lays out {len(blob)}$")

    @settings(max_examples=60, deadline=None)
    @given(model=checkpoints(), data=st.data())
    def test_edited_manifest_is_refused(self, model, data):
        """A changed digest, length or spec field, the blob as saved."""
        with tempfile.TemporaryDirectory() as tmp:
            ck, path, _ = self._saved(model, tmp)
            manifest = json.loads(path.read_text())
            key = data.draw(st.sampled_from(["sha256", "total_length", *SPEC_EDITS]), label="key")
            if key == "sha256":
                i = data.draw(st.integers(0, 63), label="digit")
                digit = data.draw(st.sampled_from("0123456789abcdef").filter(lambda c: c != manifest[key][i]))
                manifest[key] = manifest[key][:i] + digit + manifest[key][i + 1 :]
            elif key == "total_length":
                manifest[key] = data.draw(st.integers(-8, 2 * manifest[key]).filter(lambda n: n != manifest[key]))
            else:
                manifest["spec"][key] = data.draw(SPEC_EDITS[key](manifest["spec"][key]), label="value")
            path.write_text(json.dumps(manifest))
            self._refused(ck, path)

    @settings(max_examples=40, deadline=None)
    @given(model=checkpoints(), data=st.data())
    def test_non_finite_value_is_refused_naming_its_entry(self, model, data):
        """A NaN or infinity written into one or more entries, the digest
        recomputed: the first such entry in weights.bin order is named."""
        bad = data.draw(st.lists(st.sampled_from(model._layout), min_size=1, max_size=3, unique=True), label="entries")
        name = min(bad, key=lambda entry: entry[3])[0]
        with tempfile.TemporaryDirectory() as tmp:
            ck, path, blob = self._saved(model, tmp)
            broken = bytearray(blob)
            for _, _, _, start, stop in bad:
                i = data.draw(st.integers(start, stop - 1), label="index")
                value = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]), label="value")
                broken[8 * i : 8 * i + 8] = np.array([value], dtype="<f8").tobytes()
            manifest = json.loads(path.read_text())
            manifest["sha256"] = checkpoint_digest(manifest["spec"], bytes(broken))
            (ck / "weights.bin").write_bytes(bytes(broken))
            path.write_text(json.dumps(manifest))
            self._refused(ck, path, f"non-finite values in {re.escape(repr(name))}$")

def _folds(arch: str, in_channels: int, n_models: int, seed: int, rng) -> list:
    """`n_models` models of one spec, seeds apart, each with the running
    statistics of one train-mode forward."""
    folds = []
    for fold in range(n_models):
        m = build_model(spec_from_name(arch, widths=(2, 3, 4), in_channels=in_channels, seed=seed + fold,
                                       fc_hidden=16))
        m.forward(rng.normal(size=(4, in_channels, 8, 9)) * 4 + 20, "train")
        folds.append(m)
    return folds


def batch_norm_calls(model: Model, x: np.ndarray, mode: str) -> list[tuple[np.ndarray, ...]]:
    """The gamma, beta, running mean and running variance arrays of each
    `batch_norm` call of one forward of `model`, in call order."""
    calls = []
    real = models.batch_norm

    def spy(h, gamma, beta, running_mean, running_var, train):
        calls.append((gamma.data, beta.data, running_mean, running_var))
        return real(h, gamma, beta, running_mean, running_var, train)

    with patch.object(models, "batch_norm", spy):
        model.forward(x, mode)
    return calls


def _stacked(folds: list):
    """The folds on one model axis, as a served bin holds them: a copy of
    the first, extended by the others."""
    stack = build_model(folds[0].spec.replace(seed=99))
    stack.restore(folds[0].snapshot())
    stack.extend(folds[1:])
    return stack


AXIS_ARCHS = ["FullBN-1", "Residual-1", "Cascade-2", "FullyConnected"]


class TestModelAxis:
    """A stack of M models on one leading axis forwards as its M models do."""

    @settings(max_examples=60, deadline=None)
    @given(arch=st.sampled_from(AXIS_ARCHS), in_channels=st.integers(1, 7), n_models=st.integers(1, 10),
           batch=st.integers(1, 40), seed=st.integers(0, 2**16))
    # a stack's im2col convs gather a group of models at a time: 64 // 20 = 3
    # models per group leaves a last group of one
    @example(arch="Cascade-2", in_channels=2, n_models=10, batch=20, seed=1)
    @example(arch="Residual-1", in_channels=1, n_models=10, batch=40, seed=2)
    def test_stack_equals_its_models_in_one_forward(self, arch, in_channels, n_models, batch, seed):
        rng = np.random.default_rng(seed)
        folds = _folds(arch, in_channels, n_models, seed, rng)
        stack = _stacked(folds)
        xs = rng.normal(size=(batch, in_channels, 8, 9)) * 4 + 20
        with patch.object(models.Model, "forward", autospec=True, side_effect=models.Model.forward) as forward:
            means = ensemble_means([stack], xs)
        assert forward.call_count == 1
        np.testing.assert_array_equal(means, ensemble_means(folds, xs))
        outputs = stack.forward(xs, "infer").data.reshape(n_models, batch, 1, 8, 9)
        for output, fold in zip(outputs, folds):
            np.testing.assert_array_equal(output, fold.forward(xs, "infer").data)

    @settings(max_examples=30, deadline=None)
    @given(arch=st.sampled_from(AXIS_ARCHS), in_channels=st.integers(1, 7), n_models=st.integers(1, 10),
           seed=st.integers(0, 2**16))
    def test_every_array_is_a_view_of_one_buffer(self, arch, in_channels, n_models, seed):
        """Row m of the buffer is model m's weights.bin, and `snapshot`,
        `restore` and `adam_step` move the values in place."""
        rng = np.random.default_rng(seed)
        folds = _folds(arch, in_channels, n_models, seed, rng)
        stack = _stacked(folds)
        entries = stack.all_entries()
        (buffer,) = {id(arr.base): arr.base for _, arr, _ in entries}.values()

        def rows():
            return np.stack([np.concatenate([arr[m].ravel() for _, arr, _ in entries]) for m in range(n_models)])

        assert buffer.shape == (n_models, sum(arr[0].size for _, arr, _ in entries))
        np.testing.assert_array_equal(buffer, rows())
        for m, fold in enumerate(folds):
            for (name, arr, _), (_, own, _) in zip(entries, fold.all_entries()):
                np.testing.assert_array_equal(arr[m], own[0], err_msg=name)
        assert all(stack.params[name].data is arr for name, arr, trainable in entries if trainable)
        xs = rng.normal(size=(3, in_channels, 8, 9)) * 4 + 20
        assert all(arr.base is buffer for call in batch_norm_calls(stack, xs, "infer") for arr in call)

        snap = stack.snapshot()
        saved = buffer.copy()
        assert not np.shares_memory(snap, buffer)
        for p in stack.params.values():
            p.grad = rng.normal(size=p.data.shape)
        adam_step(stack.params, AdamState(lr=0.1))
        assert not np.array_equal(buffer, saved)
        np.testing.assert_array_equal(buffer, rows())
        stack.restore(snap)
        assert all(arr is old for (_, arr, _), (_, old, _) in zip(stack.all_entries(), entries))
        np.testing.assert_array_equal(buffer, saved)

    def test_a_stack_builds_no_graph(self):
        """A stack only serves, so its forward keeps no layer's buffers
        alive; one model still tapes, for training."""
        one = build_model(tiny_spec("Cascade", 2))
        assert one.forward(np.zeros((2, 1, 8, 9)), "infer").requires_grad
        one.extend([build_model(tiny_spec("Cascade", 2, seed=1))])
        out = one.forward(np.zeros((2, 1, 8, 9)), "infer")
        assert out.data.shape == (4, 1, 8, 9)
        assert not out.requires_grad and out._backward is None and out._parents == ()

    def test_extend_refuses_another_spec(self):
        a = build_model(tiny_spec("FullBN", 1))
        b = build_model(tiny_spec("FullBN", 2, seed=1))
        with pytest.raises(DataError) as info:
            a.extend([b])
        assert str(info.value) == (f"ensemble models disagree on spec: {b.spec.to_dict()} vs "
                                   f"{a.spec.to_dict()} (seed aside)")
        assert a.n_models == 1

    def test_a_stack_is_never_saved(self, tmp_path):
        stack = build_model(tiny_spec("FullBN", 1))
        stack.extend([build_model(tiny_spec("FullBN", 1, seed=1))])
        with pytest.raises(EngineError, match="^save_weights: a checkpoint holds one model, this one stacks 2$"):
            save_weights(stack, tmp_path / "ck")
        assert not (tmp_path / "ck").exists()

    def test_a_stack_refuses_an_input_that_requires_a_gradient(self):
        stack = build_model(tiny_spec("Cascade", 2))
        stack.extend([build_model(tiny_spec("Cascade", 2, seed=1))])
        with pytest.raises(EngineError, match="input takes no gradient"):
            stack.forward(Tensor(np.zeros((1, 1, 8, 9))), "train")


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
        calls = batch_norm_calls(m, np.random.default_rng(41).normal(size=(4, 1, 8, 9)), "train")
        m.restore(build_model(tiny_spec("Residual", 2, seed=42)).snapshot())
        for (name, arr), (name2, arr2, _) in zip(entries, m.all_entries()):
            assert name == name2 and arr is arr2
        by_name = dict(entries)
        keys = ("gamma", "beta", "running_mean", "running_var")
        assert all(arr is by_name[f"block1.conv1.bn.{key}"] for arr, key in zip(calls[0], keys))
        assert by_name["block1.conv1.w"] is m.params["block1.conv1.w"].data

    def test_zero_epoch_chain_propagates_initial_weights(self):
        a = build_model(tiny_spec("Cascade", 2, seed=30))
        b = build_model(tiny_spec("Cascade", 2, seed=31))
        c = build_model(tiny_spec("Cascade", 2, seed=32))
        b.restore(a.snapshot())  # B "trained" for 0 epochs keeps A's weights
        c.restore(b.snapshot())
        assert weights_hash(c) == weights_hash(a)


def _snapshot_hash(snap: dict[str, np.ndarray]) -> str:
    """The weight hash as it was computed from a dict of named array
    copies, kept as `weights_hash`'s oracle."""
    h = hashlib.sha256()
    for name in sorted(snap):
        h.update(name.encode())
        h.update(np.ascontiguousarray(snap[name], dtype="<f8").tobytes())
    return h.hexdigest()


class TestSnapshot:
    """A snapshot is a copy of the model's buffer, and the weight hash reads
    the buffer as the named arrays it holds."""

    @settings(max_examples=60, deadline=None)
    @given(spec=small_specs(), n_models=st.integers(1, 3), seed=st.integers(0, 2**32))
    def test_weights_hash_equals_the_named_array_hash(self, spec, n_models, seed):
        rng = np.random.default_rng(seed)
        stack, *others = [build_model(spec.replace(seed=spec.seed + m)) for m in range(n_models)]
        for model in (stack, *others):
            model._buffer[...] = rng.normal(size=model._buffer.shape)
        stack.extend(others)
        assert weights_hash(stack) == _snapshot_hash({name: arr for name, arr, _ in stack.all_entries()})

    @pytest.mark.parametrize("spec", ALL_TINY, ids=lambda s: s.name)
    def test_snapshot_is_a_copy_that_restores(self, spec):
        model = build_model(spec.replace(seed=3))
        entries = model.all_entries()
        snap, before = model.snapshot(), weights_hash(model)
        assert type(snap) is np.ndarray and not np.shares_memory(snap, model._buffer)
        model.forward(np.random.default_rng(4).normal(size=(4, 1, 8, 9)), mode="train")
        model._buffer += 1.0
        assert weights_hash(model) != before
        np.testing.assert_array_equal(snap, build_model(spec.replace(seed=3))._buffer)
        model.restore(snap)
        assert weights_hash(model) == before
        assert all(arr is old for (_, arr, _), (_, old, _) in zip(model.all_entries(), entries))

    def test_restore_refuses_a_snapshot_of_another_length(self):
        model = build_model(tiny_spec("FullBN", 2))
        before = model.snapshot()
        snap = build_model(tiny_spec("FullBN", 1)).snapshot()
        message = f"^restore: a snapshot row of {snap.shape[1]} values, not {before.shape[1]}$"
        with pytest.raises(EngineError, match=message):
            model.restore(snap)
        np.testing.assert_array_equal(model._buffer, before)


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
