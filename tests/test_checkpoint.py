"""Manifest + blob persistence: bit-exact round-trips, byte-identical
resaves, and manifest validation failures."""

import json
import os

import numpy as np
import pytest

from redlab.checkpoint import load_model, load_tensors, save_model, save_tensors, write_files
from redlab.datagen import make_corpus
from redlab.enhancer import ToyEnhancer, train
from redlab.errors import ContractError
from redlab.rng import Rng


def poison(base, tensor, value):
    """Overwrite the first value of `tensor` in the blob of checkpoint `base`."""
    doc = json.loads((base.parent / (base.name + ".json")).read_text())
    offset = next(e["offset"] for e in doc["tensors"] if e["name"] == tensor)
    blob_path = base.parent / (base.name + ".bin")
    blob = bytearray(blob_path.read_bytes())
    blob[offset:offset + 8] = np.array([value], dtype="<f8").tobytes()
    blob_path.write_bytes(bytes(blob))


def arrays(seed):
    rng = Rng(seed)
    return [
        ("alpha.kernel", rng.fill_uniform((2, 3, 3, 3), -1.0, 1.0)),
        ("alpha.bias", np.zeros(2)),
        ("beta.scalar", np.asarray([0.25])),
        ("beta.table", rng.fill_uniform((4, 5), -0.5, 0.5)),
    ]


class TestTensorRoundTrip:
    def test_values_shapes_and_meta_survive(self, tmp_path):
        """Every array returns bit-exactly; metadata is preserved."""
        named = arrays(0)
        meta = {"kind": "test", "note": "hello"}
        save_tensors(str(tmp_path / "ck"), named, meta)
        tensors, back = load_tensors(str(tmp_path / "ck"))
        assert back == meta
        assert list(tensors) == [n for n, _ in named]
        for name, arr in named:
            assert tensors[name].shape == np.asarray(arr).shape
            assert np.array_equal(tensors[name], arr)

    def test_resave_is_byte_identical(self, tmp_path):
        """save -> load -> save reproduces both files exactly."""
        save_tensors(str(tmp_path / "a"), arrays(1), {"kind": "test"})
        tensors, meta = load_tensors(str(tmp_path / "a"))
        save_tensors(str(tmp_path / "b"), list(tensors.items()), meta)
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_suffixed_paths_normalize(self, tmp_path):
        save_tensors(str(tmp_path / "ck.json"), arrays(2), {})
        tensors, _ = load_tensors(str(tmp_path / "ck.bin"))
        assert "alpha.kernel" in tensors

    def test_duplicate_names_rejected(self, tmp_path):
        named = [("x", np.zeros(2)), ("x", np.ones(2))]
        with pytest.raises(ContractError):
            save_tensors(str(tmp_path / "ck"), named, {})

    def test_duplicate_names_rejected_on_load(self, tmp_path):
        """A manifest listing one name twice is refused, not read as the later array."""
        save_tensors(str(tmp_path / "ck"), [("x", np.zeros(2)), ("y", np.ones(2))], {})
        manifest = tmp_path / "ck.json"
        doc = json.loads(manifest.read_text())
        doc["tensors"][1]["name"] = "x"
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ContractError, match="lists tensor 'x' twice"):
            load_tensors(str(tmp_path / "ck"))

    def test_zero_dim_input_promotes_to_rank_one(self, tmp_path):
        """Raw 0-d scalars store as shape [1], like the engine's tensors."""
        save_tensors(str(tmp_path / "ck"), [("s", np.asarray(0.25))], {})
        tensors, _ = load_tensors(str(tmp_path / "ck"))
        assert tensors["s"].shape == (1,)
        assert tensors["s"][0] == 0.25


class TestAtomicSave:
    """A failed save leaves no file behind; a repeated save rewrites the same bytes."""

    @pytest.mark.parametrize("blocked", ["ck.bin", "ck.json"])
    def test_unreplaceable_target_leaves_no_file(self, tmp_path, blocked):
        (tmp_path / blocked).mkdir()
        with pytest.raises(OSError):
            save_tensors(str(tmp_path / "ck"), arrays(12), {"kind": "test"})
        assert os.listdir(tmp_path) == [blocked]

    def test_group_with_blocked_last_target_leaves_no_file(self, tmp_path):
        """Two files are placed before the third target fails; none is left."""
        (tmp_path / "c.csv").mkdir()
        files = {
            str(tmp_path / "a.bin"): b"\x00\x01",
            str(tmp_path / "b.json"): "{}\n",
            str(tmp_path / "c.csv"): "x\r\n",
        }
        with pytest.raises(OSError):
            write_files(files)
        assert os.listdir(tmp_path) == ["c.csv"]
        assert os.listdir(tmp_path / "c.csv") == []

    def test_creates_missing_directories(self, tmp_path):
        write_files({str(tmp_path / "new" / "sub" / "a.csv"): "x\r\n"})
        assert (tmp_path / "new" / "sub" / "a.csv").read_bytes() == b"x\r\n"

    def test_failed_group_removes_the_directories_it_made(self, tmp_path):
        """The writer made new/ and new/sub/ for the group; a failure takes both."""
        (tmp_path / "old").mkdir()
        (tmp_path / "old" / "c.csv").mkdir()
        files = {
            str(tmp_path / "new" / "sub" / "a.bin"): b"\x00\x01",
            str(tmp_path / "old" / "c.csv"): "x\r\n",
        }
        with pytest.raises(OSError):
            write_files(files)
        assert os.listdir(tmp_path) == ["old"]
        assert os.listdir(tmp_path / "old") == ["c.csv"]

    def test_parent_that_is_a_file_fails_and_leaves_it(self, tmp_path):
        (tmp_path / "f").write_text("keep")
        with pytest.raises(OSError):
            write_files({str(tmp_path / "f" / "a.csv"): "x"})
        assert os.listdir(tmp_path) == ["f"]
        assert (tmp_path / "f").read_text() == "keep"

    def test_unserializable_meta_leaves_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            save_tensors(str(tmp_path / "ck"), arrays(12), {"kind": object()})
        assert os.listdir(tmp_path) == []

    def test_save_over_existing_is_byte_identical(self, tmp_path):
        save_tensors(str(tmp_path / "ck"), arrays(13), {"kind": "test"})
        first = [(tmp_path / f).read_bytes() for f in ("ck.json", "ck.bin")]
        save_tensors(str(tmp_path / "ck"), arrays(13), {"kind": "test"})
        assert sorted(os.listdir(tmp_path)) == ["ck.bin", "ck.json"]
        assert [(tmp_path / f).read_bytes() for f in ("ck.json", "ck.bin")] == first


class TestManifestValidation:
    def write_valid(self, tmp_path):
        save_tensors(str(tmp_path / "ck"), arrays(3), {"kind": "test"})
        return tmp_path / "ck.json", tmp_path / "ck.bin"

    def reload(self, tmp_path):
        return load_tensors(str(tmp_path / "ck"))

    def test_missing_blob_rejected(self, tmp_path):
        manifest, blob = self.write_valid(tmp_path)
        os.remove(blob)
        with pytest.raises(ContractError):
            self.reload(tmp_path)

    def test_unknown_format_version_rejected(self, tmp_path):
        manifest, _ = self.write_valid(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["format_version"] = 99
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ContractError):
            self.reload(tmp_path)

    def test_non_contiguous_offsets_rejected(self, tmp_path):
        manifest, _ = self.write_valid(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["tensors"][1]["offset"] += 8
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ContractError):
            self.reload(tmp_path)

    def test_length_shape_mismatch_rejected(self, tmp_path):
        manifest, _ = self.write_valid(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["tensors"][0]["shape"] = [2, 3, 3]
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ContractError):
            self.reload(tmp_path)

    def test_truncated_blob_rejected(self, tmp_path):
        manifest, blob = self.write_valid(tmp_path)
        raw = blob.read_bytes()
        blob.write_bytes(raw[:-8])
        with pytest.raises(ContractError):
            self.reload(tmp_path)

    def test_oversized_blob_rejected(self, tmp_path):
        manifest, blob = self.write_valid(tmp_path)
        blob.write_bytes(blob.read_bytes() + b"\x00" * 8)
        with pytest.raises(ContractError):
            self.reload(tmp_path)

    def test_unsupported_dtype_rejected(self, tmp_path):
        manifest, _ = self.write_valid(tmp_path)
        doc = json.loads(manifest.read_text())
        doc["tensors"][0]["dtype"] = "f32"
        manifest.write_text(json.dumps(doc))
        with pytest.raises(ContractError):
            self.reload(tmp_path)


class TestModelCheckpoints:
    def test_trained_model_round_trips_bit_exactly(self, tmp_path):
        """A trained network reloads with every parameter bit-equal."""
        model = ToyEnhancer(Rng(4), adr_blocks=(True, False), dyn_candidates=0)
        pairs = make_corpus(5, 2, 8, 8)
        train(model, pairs, steps=30, seed=6)
        save_model(model, str(tmp_path / "model"))
        back = load_model(str(tmp_path / "model"))
        orig = dict(model.named_parameters())
        for name, t in back.named_parameters():
            assert np.array_equal(t.data, orig[name].data)
        x = pairs[0].low
        assert np.array_equal(back.forward(x).data, model.forward(x).data)

    def test_frozen_flag_restores_and_caches_rebuild(self, tmp_path):
        """A frozen reload generates identical kernels from its caches."""
        model = ToyEnhancer(Rng(7), adr_blocks=(True, True))
        model.freeze()
        save_model(model, str(tmp_path / "model"))
        back = load_model(str(tmp_path / "model"))
        assert back.frozen
        x = make_corpus(8, 1, 8, 8)[0].low
        assert np.array_equal(back.forward(x).data, model.forward(x).data)

    def test_resave_of_model_is_byte_identical(self, tmp_path):
        model = ToyEnhancer(Rng(9), dyn_candidates=3)
        save_model(model, str(tmp_path / "a"))
        back = load_model(str(tmp_path / "a"))
        save_model(back, str(tmp_path / "b"))
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch):
        """The model is rebuilt from its meta alone; the blob supplies every value."""
        model = ToyEnhancer(Rng(12), adr_blocks=(True, True), dyn_candidates=2)
        save_model(model, str(tmp_path / "model"))

        def refuse(*args, **kwargs):
            raise AssertionError("load_model drew random numbers")

        monkeypatch.setattr(Rng, "fill_uniform", refuse)
        monkeypatch.setattr(Rng, "fill_normal", refuse)
        back = load_model(str(tmp_path / "model"))
        assert back.arena.tobytes() == model.arena.tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("tensor", ["encoder.stage1.conv.kernel", "latent.attn.tau",
                                        "decoder.block1.attn.adr.gen2.embeddings",
                                        "head.bias"])
    def test_non_finite_parameter_rejected(self, tmp_path, tensor, value):
        save_model(ToyEnhancer(Rng(13), adr_blocks=(True, False)), str(tmp_path / "model"))
        poison(tmp_path / "model", tensor, value)
        with pytest.raises(ContractError, match=f"checkpoint tensor {tensor} holds non-finite"):
            load_model(str(tmp_path / "model"))

    def test_first_non_finite_tensor_named(self, tmp_path):
        save_model(ToyEnhancer(Rng(14)), str(tmp_path / "model"))
        poison(tmp_path / "model", "head.kernel", np.nan)
        poison(tmp_path / "model", "encoder.stage2.conv.bias", np.inf)
        with pytest.raises(ContractError, match="encoder.stage2.conv.bias"):
            load_model(str(tmp_path / "model"))

    def test_parameters_out_of_order_rejected(self, tmp_path):
        """The blob is the arena's bytes, so the manifest must list the
        parameters in the model's order."""
        save_model(ToyEnhancer(Rng(15)), str(tmp_path / "model"))
        doc = json.loads((tmp_path / "model.json").read_text())
        first, second = doc["tensors"][0], doc["tensors"][1]
        first["name"], second["name"] = second["name"], first["name"]
        (tmp_path / "model.json").write_text(json.dumps(doc))
        with pytest.raises(ContractError, match="in order"):
            load_model(str(tmp_path / "model"))

    def test_wrong_kind_rejected(self, tmp_path):
        save_tensors(str(tmp_path / "ck"), arrays(10), {"kind": "corpus"})
        with pytest.raises(ContractError):
            load_model(str(tmp_path / "ck"))

    def test_parameter_set_mismatch_rejected(self, tmp_path):
        model = ToyEnhancer(Rng(11))
        save_model(model, str(tmp_path / "model"))
        doc = json.loads((tmp_path / "model.json").read_text())
        doc["meta"]["adr_blocks"] = [True, True]
        (tmp_path / "model.json").write_text(json.dumps(doc))
        with pytest.raises(ContractError):
            load_model(str(tmp_path / "model"))

    def test_even_adr_kernel_size_rejected(self, tmp_path):
        """Meta the model constructor refuses is malformed input, not a config error."""
        save_model(ToyEnhancer(Rng(12), adr_blocks=(True, False)), str(tmp_path / "model"))
        doc = json.loads((tmp_path / "model.json").read_text())
        doc["meta"]["adr_dims"][2] = 2
        (tmp_path / "model.json").write_text(json.dumps(doc))
        with pytest.raises(ContractError, match="enhancer checkpoint meta: kernel size must be odd"):
            load_model(str(tmp_path / "model"))
