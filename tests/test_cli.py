"""CLI dispatch: deterministic outputs, library equivalence, exit codes,
and failure modes that leave no partial files."""

import csv
import errno
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from redlab import checkpoint, cli, enhancer
from redlab.checkpoint import load_model, save_model
from redlab.cli import run
from redlab.datagen import ScenePair, load_pairs, make_corpus, save_pairs
from redlab.redundancy import (
    LayerSelector,
    default_selectors,
    dmr,
    dmr_summary,
    probe_sweep,
)
from redlab.enhancer import ToyEnhancer
from redlab.errors import DivergenceError
from redlab.rng import Rng
from redlab.tensor import Tensor


def write_config(tmp_path, name="run.json", **overrides):
    doc = {"steps": 30, "seed": 5}
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def gen_corpus(tmp_path, name="data", seed=9, count=4, size="8x8"):
    out = str(tmp_path / name)
    assert run(["gen-data", "--seed", str(seed), "--out", out,
                "--count", str(count), "--size", size]) == 0
    return out


def check_gen_data_command(command, tmp_path, env=None):
    """Run `command gen-data ...` as a child; expect exit 0 and a corpus."""
    out = subprocess.run(
        command + ["gen-data", "--seed", "1", "--out", str(tmp_path / "d"),
                   "--count", "1", "--size", "8x8"],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0, out.stderr
    assert os.path.exists(tmp_path / "d" / "corpus.bin")


def train_ckpt(tmp_path, data, cfg, name="model"):
    out = str(tmp_path / name)
    assert run(["train", "--config", cfg, "--data", data, "--out", out]) == 0
    return out


class FullDisk:
    """An open file whose first write stores 8 bytes, then fails with ENOSPC."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        return False

    def write(self, text):
        self.fh.write(text[:8])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")


def open_on_full_disk(real_open, name):
    """``open`` that hands back a FullDisk for a file whose name starts with `name`."""
    def opener(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return FullDisk(fh) if os.path.basename(str(path)).startswith(name) else fh
    return opener


def snapshot(root):
    """{name: bytes} of every entry of a flat directory; a subdirectory raises."""
    return {p.name: p.read_bytes() for p in root.iterdir()}


class TestGenData:
    def test_reruns_are_byte_identical(self, tmp_path):
        """Same seed and size: both corpus files reproduce exactly."""
        a = gen_corpus(tmp_path, "a")
        b = gen_corpus(tmp_path, "b")
        for fname in ("corpus.json", "corpus.bin"):
            wa = open(os.path.join(a, fname), "rb").read()
            wb = open(os.path.join(b, fname), "rb").read()
            assert wa == wb

    def test_matches_library_corpus(self, tmp_path):
        out = gen_corpus(tmp_path, seed=11, count=2, size="8x12")
        loaded = load_pairs(out)
        want = make_corpus(11, 2, 8, 12)
        for got, exp in zip(loaded, want):
            assert np.array_equal(got.clean.data, exp.clean.data)
            assert np.array_equal(got.low.data, exp.low.data)

    def test_bad_size_is_config_error(self, tmp_path):
        assert run(["gen-data", "--seed", "1", "--out", str(tmp_path / "x"),
                    "--size", "8by8"]) == 2

    @pytest.mark.parametrize("out", ["new", "new/sub", "old"])
    def test_failed_write_removes_only_the_directories_it_made(
        self, tmp_path, capsys, monkeypatch, out
    ):
        (tmp_path / "old").mkdir()
        monkeypatch.setattr(checkpoint, "open", open_on_full_disk(open, "corpus"),
                            raising=False)
        assert run(["gen-data", "--seed", "1", "--out", str(tmp_path / out),
                    "--count", "1", "--size", "8x8"]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["old"]
        assert os.listdir(tmp_path / "old") == []


class TestTrain:
    def test_writes_checkpoint_and_history(self, tmp_path):
        cfg = write_config(tmp_path)
        data = gen_corpus(tmp_path)
        ckpt = train_ckpt(tmp_path, data, cfg)
        model = load_model(ckpt)
        assert model.frozen
        with open(ckpt + ".loss.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 30
        losses = [float(r["loss"]) for r in rows]
        assert all(np.isfinite(losses))

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        data = gen_corpus(tmp_path)
        a = train_ckpt(tmp_path, data, cfg, "a")
        b = train_ckpt(tmp_path, data, cfg, "b")
        for ext in (".json", ".bin", ".loss.csv"):
            assert open(a + ext, "rb").read() == open(b + ext, "rb").read()

    def test_nan_corpus_exits_two(self, tmp_path, capsys):
        """A non-finite target is malformed input, rejected before training."""
        pairs = make_corpus(13, 1, 8, 8)
        pairs[0].clean.data[0, 0, 0] = np.nan
        save_pairs(str(tmp_path / "bad"), pairs)
        cfg = write_config(tmp_path)
        code = run(["train", "--config", cfg, "--data", str(tmp_path / "bad"),
                    "--out", str(tmp_path / "model")])
        assert code == 2
        assert "corpus tensor pair0000.clean" in capsys.readouterr().err
        assert not any(name.startswith("model") for name in os.listdir(tmp_path))

    def test_divergence_exits_three(self, tmp_path, monkeypatch):
        """A loss that leaves the finite range is the numeric-failure exit code."""
        def diverge(*args, **kwargs):
            raise DivergenceError(4)

        cfg = write_config(tmp_path)
        data = gen_corpus(tmp_path)
        monkeypatch.setattr(cli, "train", diverge)
        assert run(["train", "--config", cfg, "--data", data,
                    "--out", str(tmp_path / "model")]) == 3
        assert not any(name.startswith("model") for name in os.listdir(tmp_path))

    def test_overflowing_training_exits_three(self, tmp_path, capsys):
        """lr 1e300 on a real corpus overflows the forward: a divergence, not bad input."""
        cfg = write_config(tmp_path, lr=1e300)
        data = gen_corpus(tmp_path, count=1)
        code = run(["train", "--config", cfg, "--data", data,
                    "--out", str(tmp_path / "model")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite forward at step ")
        assert len(err.splitlines()) == 1
        assert not any(name.startswith("model") for name in os.listdir(tmp_path))

    @pytest.mark.parametrize("lr", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
    def test_non_finite_lr_exits_two(self, tmp_path, capsys, lr):
        """json parses "lr": NaN and Infinity; the config refuses both before training."""
        cfg = write_config(tmp_path, steps=1, lr=lr)
        data = gen_corpus(tmp_path, count=1)
        code = run(["train", "--config", cfg, "--data", data,
                    "--out", str(tmp_path / "model")])
        assert code == 2
        assert "config.lr must be finite" in capsys.readouterr().err
        assert not any(name.startswith("model") for name in os.listdir(tmp_path))

    def test_history_sits_beside_suffixed_checkpoint(self, tmp_path):
        """--out m.bin.json saves m.bin.json/m.bin.bin and history m.bin.loss.csv."""
        cfg = write_config(tmp_path, steps=2)
        data = gen_corpus(tmp_path)
        runs = tmp_path / "runs"
        runs.mkdir()
        train_ckpt(runs, data, cfg, "m.bin.json")
        assert sorted(os.listdir(runs)) == ["m.bin.bin", "m.bin.json", "m.bin.loss.csv"]

    def test_failed_save_exits_two_and_leaves_no_file(self, tmp_path, capsys):
        """A blob path that is a directory fails the save before any file lands."""
        cfg = write_config(tmp_path, steps=2)
        data = gen_corpus(tmp_path)
        runs = tmp_path / "runs"
        (runs / "p.bin").mkdir(parents=True)
        assert run(["train", "--config", cfg, "--data", data,
                    "--out", str(runs / "p")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert os.listdir(runs) == ["p.bin"]
        assert os.listdir(runs / "p.bin") == []

    def test_unwritable_history_exits_two_and_leaves_no_file(self, tmp_path, capsys):
        """A history path that is a directory fails after the save; the checkpoint goes."""
        cfg = write_config(tmp_path, steps=2)
        data = gen_corpus(tmp_path)
        runs = tmp_path / "runs"
        (runs / "p.loss.csv").mkdir(parents=True)
        assert run(["train", "--config", cfg, "--data", data,
                    "--out", str(runs / "p")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert os.listdir(runs) == ["p.loss.csv"]
        assert os.listdir(runs / "p.loss.csv") == []

    def test_failed_history_write_exits_two_and_leaves_no_file(
        self, tmp_path, capsys, monkeypatch
    ):
        """The history opens, then its write fails part-way: nothing is left."""
        cfg = write_config(tmp_path, steps=2)
        data = gen_corpus(tmp_path)
        runs = tmp_path / "runs"
        runs.mkdir()
        history_tmp = f"p.loss.csv.{os.getpid()}.tmp"
        monkeypatch.setattr(checkpoint, "open", open_on_full_disk(open, history_tmp),
                            raising=False)
        assert run(["train", "--config", cfg, "--data", data,
                    "--out", str(runs / "p")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert os.listdir(runs) == []

    def test_malformed_config_exits_two(self, tmp_path):
        data = gen_corpus(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_text('{"steps": 30, "optimiser": "adam"}')
        assert run(["train", "--config", str(bad), "--data", data,
                    "--out", str(tmp_path / "model")]) == 2

    @pytest.mark.parametrize("raw", [b"\xff\xfe{\x00", b"[" * 100_000],
                             ids=["undecodable", "nested_too_deep"])
    def test_unparsable_config_exits_two(self, tmp_path, capsys, raw):
        """Bytes no UTF codec reads as JSON, and nesting deeper than the parser
        recurses, are malformed config like any other."""
        data = gen_corpus(tmp_path)
        bad = tmp_path / "bad.json"
        bad.write_bytes(raw)
        assert run(["train", "--config", str(bad), "--data", data,
                    "--out", str(tmp_path / "model")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "is not valid JSON" in err
        assert "Traceback" not in err
        assert not any(name.startswith("model") for name in os.listdir(tmp_path))


class TestProbe:
    def test_rows_equal_library_sweep(self, tmp_path):
        """CSV rows reproduce probe_sweep on the same loaded inputs."""
        cfg = write_config(tmp_path)
        data = gen_corpus(tmp_path)
        ckpt = train_ckpt(tmp_path, data, cfg)
        out = str(tmp_path / "probe.csv")
        sel_text = "decoder.block1.conv:static,decoder.block2.attn.qkv:attention"
        assert run(["probe", "--ckpt", ckpt, "--data", data,
                    "--selectors", sel_text, "--seeds", "0,1", "--out", out]) == 0

        model = load_model(ckpt)
        pairs = load_pairs(data)
        sels = [
            LayerSelector("decoder.block1.conv", "static"),
            LayerSelector("decoder.block2.attn.qkv", "attention"),
        ]
        want = probe_sweep(model, sels, [p.low for p in pairs],
                           [p.clean for p in pairs], [0, 1])
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(want)
        for got, exp in zip(rows, want):
            assert got["selector"] == exp.selector.path
            assert int(got["seed"]) == exp.seed
            assert float(got["delta_psnr_mean"]) == exp.delta_psnr_mean
            assert float(got["poi"]) == exp.poi

    def test_auto_selectors_cover_default_groups(self, tmp_path):
        cfg = write_config(tmp_path)
        data = gen_corpus(tmp_path)
        ckpt = train_ckpt(tmp_path, data, cfg)
        out = str(tmp_path / "probe.csv")
        assert run(["probe", "--ckpt", ckpt, "--data", data,
                    "--selectors", "auto", "--seeds", "0", "--out", out]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(default_selectors(load_model(ckpt)))

    def test_unreadable_checkpoint_exits_two(self, tmp_path):
        data = gen_corpus(tmp_path)
        assert run(["probe", "--ckpt", str(tmp_path / "absent"), "--data", data,
                    "--selectors", "auto", "--seeds", "0",
                    "--out", str(tmp_path / "p.csv")]) == 2


class TestDmr:
    def test_summary_matches_library_report(self, tmp_path):
        cfg = write_config(tmp_path)
        data = gen_corpus(tmp_path)
        ckpt = train_ckpt(tmp_path, data, cfg)
        out = str(tmp_path / "dmr.json")
        assert run(["dmr", "--ckpt", ckpt, "--data", data,
                    "--selectors", "auto", "--seed", "3", "--out", out]) == 0
        model = load_model(ckpt)
        pairs = load_pairs(data)
        want = dmr_summary(dmr(model, default_selectors(model),
                               [p.low for p in pairs], 3))
        assert json.load(open(out)) == want

    def test_empty_selectors_exit_two_without_output(self, tmp_path):
        """The contract failure happens before any file is created."""
        cfg = write_config(tmp_path)
        data = gen_corpus(tmp_path)
        ckpt = train_ckpt(tmp_path, data, cfg)
        out = str(tmp_path / "dmr.json")
        assert run(["dmr", "--ckpt", ckpt, "--data", data,
                    "--selectors", "", "--seed", "3", "--out", out]) == 2
        assert not os.path.exists(out)


class TestDegradeScore:
    def test_reports_generator_scores_and_similarity(self, tmp_path):
        cfg = write_config(
            tmp_path,
            steps=10,
            adr={"enabled": True},
            dynconv={"enabled": True, "K": 2},
        )
        data = gen_corpus(tmp_path)
        ckpt = train_ckpt(tmp_path, data, cfg)
        out = str(tmp_path / "scores.json")
        assert run(["degrade-score", "--ckpt", ckpt, "--data", data,
                    "--out", out]) == 0
        doc = json.load(open(out))
        assert doc["images_used"] == 4
        scores = doc["degradation_scores"]
        assert sorted(scores) == [
            "decoder.block1.attn.adr.gen1",
            "decoder.block1.attn.adr.gen2",
            "decoder.block2.attn.adr.gen1",
            "decoder.block2.attn.adr.gen2",
        ]
        for value in scores.values():
            assert np.isfinite(value) and value >= 0.0
        sim = doc["candidate_similarity"]
        assert sorted(sim) == [
            "decoder.block1.dynconv",
            "decoder.block2.dynconv",
        ]
        for matrix in sim.values():
            arr = np.asarray(matrix)
            assert arr.shape == (2, 2)
            assert np.allclose(np.diag(arr), 1.0)

    def test_plain_model_reports_empty_sections(self, tmp_path):
        cfg = write_config(tmp_path, steps=5)
        data = gen_corpus(tmp_path)
        ckpt = train_ckpt(tmp_path, data, cfg)
        out = str(tmp_path / "scores.json")
        assert run(["degrade-score", "--ckpt", ckpt, "--data", data,
                    "--out", out]) == 0
        doc = json.load(open(out))
        assert doc["degradation_scores"] == {}
        assert doc["candidate_similarity"] == {}

    def test_mixed_recipe_scores_its_one_block_and_both_banks(self, tmp_path):
        """Reallocation on the second decoder block alone, which no config
        builds: the scores name that block's generators, and both decoder
        blocks' candidate banks are compared."""
        save_model(ToyEnhancer(Rng(3), adr_blocks=(False, True), dyn_candidates=3),
                   str(tmp_path / "model"))
        data = gen_corpus(tmp_path)
        out = str(tmp_path / "scores.json")
        assert run(["degrade-score", "--ckpt", str(tmp_path / "model"), "--data", data,
                    "--out", out]) == 0
        doc = json.load(open(out))
        assert list(doc["degradation_scores"]) == [
            "decoder.block2.attn.adr.gen1",
            "decoder.block2.attn.adr.gen2",
        ]
        assert list(doc["candidate_similarity"]) == [
            "decoder.block1.dynconv",
            "decoder.block2.dynconv",
        ]
        for matrix in doc["candidate_similarity"].values():
            assert np.asarray(matrix).shape == (3, 3)

    def test_empty_corpus_exits_two_without_output(self, tmp_path, capsys):
        """A corpus with no pairs is malformed input, not an empty report.

        ``save_pairs`` refuses to write one, so the container is written
        directly."""
        model = ToyEnhancer(Rng(0), adr_blocks=(True, True))
        model.freeze()
        save_model(model, str(tmp_path / "model"))
        checkpoint.save_tensors(
            str(tmp_path / "data" / "corpus"), [], {"kind": "corpus", "pairs": []}
        )
        out = tmp_path / "scores.json"
        assert run(["degrade-score", "--ckpt", str(tmp_path / "model"),
                    "--data", str(tmp_path / "data"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "holds no pairs" in err
        assert not out.exists()


class TestAblate:
    def test_grid_produces_one_row_per_combination(self, tmp_path):
        cfg = write_config(tmp_path, steps=3, adr={"enabled": True})
        data = gen_corpus(tmp_path, count=2)
        out = str(tmp_path / "ablate.csv")
        assert run(["ablate", "--config", cfg, "--grid", "D_m=1,2", "D_e=8,16",
                    "--data", data, "--out", out]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        combos = {(r["D_m"], r["D_e"]) for r in rows}
        assert combos == {("1", "8"), ("1", "16"), ("2", "8"), ("2", "16")}
        for row in rows:
            assert np.isfinite(float(row["final_loss"]))
            assert np.isfinite(float(row["psnr_db"]))

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, steps=3, adr={"enabled": True})
        data = gen_corpus(tmp_path, count=2)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = str(tmp_path / name)
            assert run(["ablate", "--config", cfg, "--grid", "D_m=1,2",
                        "--data", data, "--out", out]) == 0
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]

    def test_requires_reallocation_enabled(self, tmp_path):
        cfg = write_config(tmp_path, steps=3)
        assert run(["ablate", "--config", cfg, "--grid", "D_m=1,2",
                    "--out", str(tmp_path / "x.csv")]) == 2

    def test_bad_grid_axis_rejected(self, tmp_path):
        cfg = write_config(tmp_path, steps=3, adr={"enabled": True})
        assert run(["ablate", "--config", cfg, "--grid", "lr=0.1",
                    "--out", str(tmp_path / "x.csv")]) == 2


class TestGradcheck:
    def test_default_config_passes(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("{}")
        assert run(["gradcheck", "--config", str(cfg), "--samples", "60"]) == 0

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_no_coordinates_exits_two(self, tmp_path, capsys, samples):
        """A check of no coordinates is refused rather than passed."""
        cfg = tmp_path / "run.json"
        cfg.write_text("{}")
        assert run(["gradcheck", "--config", str(cfg), "--samples", samples]) == 2
        assert "sample must be at least 1" in capsys.readouterr().err


def _rewrite_json(change):
    """Corruption that loads a manifest, edits the document, and writes it back."""
    def corrupt(path):
        path.write_text(json.dumps(change(json.loads(path.read_text()))))
    return corrupt


def _edit(change):
    """A document edit written as a statement: change(doc), then doc."""
    def edited(doc):
        change(doc)
        return doc
    return edited


def _poison_blob(tensor, value):
    """Corrupt a blob: the first value of `tensor` becomes `value`."""
    def corrupt(path):
        doc = json.loads(path.with_suffix(".json").read_text())
        offset = next(e["offset"] for e in doc["tensors"] if e["name"] == tensor)
        blob = bytearray(path.read_bytes())
        blob[offset:offset + 8] = np.array([value], dtype="<f8").tobytes()
        path.write_bytes(bytes(blob))
    return corrupt


def _append_tensor(name):
    """Corrupt a corpus: list one more tensor, `name`, a copy of its first one."""
    def corrupt(path):
        doc = json.loads(path.read_text())
        blob = path.with_suffix(".bin")
        first = dict(doc["tensors"][0], name=name, offset=blob.stat().st_size)
        doc["tensors"].append(first)
        path.write_text(json.dumps(doc))
        data = blob.read_bytes()
        blob.write_bytes(data + data[:first["length"]])
    return corrupt


# (case, file under the probe inputs, corruption, expected error text)
BAD_PROBE_INPUTS = [
    ("truncated_manifest", "model.json",
     lambda p: p.write_text(p.read_text()[:40]), "is not JSON"),
    ("undecodable_manifest", "model.json",
     lambda p: p.write_bytes(b"\xff\xfe{\x00"), "is not JSON"),
    ("nested_too_deep_manifest", "model.json",
     lambda p: p.write_bytes(b"[" * 100_000), "is not JSON"),
    ("nested_too_deep_corpus_manifest", "data/corpus.json",
     lambda p: p.write_bytes(b"[" * 100_000), "is not JSON"),
    ("manifest_not_object", "model.json",
     _rewrite_json(lambda doc: [doc]), "is not a JSON object"),
    ("manifest_without_tensors", "model.json",
     _rewrite_json(lambda doc: {k: v for k, v in doc.items() if k != "tensors"}),
     "no 'tensors' list"),
    ("meta_not_object", "model.json",
     _rewrite_json(_edit(lambda doc: doc.update(meta=[]))), "meta is not an object"),
] + [
    (f"entry_without_{key}", "model.json",
     _rewrite_json(_edit(lambda doc, key=key: doc["tensors"][0].pop(key))),
     "needs dtype, length, name, offset, shape")
    for key in ("name", "shape", "dtype", "offset", "length")
] + [
    ("entry_with_text_offset", "model.json",
     _rewrite_json(_edit(lambda doc: doc["tensors"][0].update(offset="0"))),
     "malformed manifest entry"),
    ("model_meta_without_widths", "model.json",
     _rewrite_json(_edit(lambda doc: doc["meta"].pop("widths"))),
     "meta lacks ['widths']"),
    ("model_nan_bias", "model.bin", _poison_blob("head.bias", np.nan),
     "checkpoint tensor head.bias holds non-finite values"),
    ("model_nan_kernel", "model.bin", _poison_blob("encoder.stage1.conv.kernel", np.nan),
     "checkpoint tensor encoder.stage1.conv.kernel holds non-finite values"),
    ("corpus_nan_clean", "data/corpus.bin", _poison_blob("pair0000.clean", np.nan),
     "corpus tensor pair0000.clean"),
    ("corpus_nan_low", "data/corpus.bin", _poison_blob("pair0001.low", np.nan),
     "corpus tensor pair0001.low"),
    ("corpus_duplicate_tensor", "data/corpus.json", _append_tensor("pair0001.low"),
     "lists tensor 'pair0001.low' twice"),
    ("corpus_stray_tensor", "data/corpus.json", _append_tensor("pair0002.clean"),
     "corpus tensor pair0002.clean"),
    ("corpus_without_pairs", "data/corpus.json",
     _rewrite_json(_edit(lambda doc: doc["meta"].pop("pairs"))), "no 'pairs' list"),
    ("corpus_pair_without_record", "data/corpus.json",
     _rewrite_json(_edit(lambda doc: doc["meta"]["pairs"][1].pop("record"))),
     "corpus pair 1"),
    # 2**32 * 2**32 elements wrap to 0 in int64, which a length of 0 would match
    ("corpus_shape_overflowing_int64", "data/corpus.json",
     _rewrite_json(_edit(lambda doc: doc["tensors"].append(dict(
         doc["tensors"][0], name="pair0002.clean", shape=[2**32, 2**32],
         offset=sum(e["length"] for e in doc["tensors"]), length=0)))),
     "length mismatch"),
] + [
    (f"model_meta_{case}", "model.json",
     _rewrite_json(_edit(lambda doc, key=key, value=value: doc["meta"].update({key: value}))),
     f"enhancer checkpoint meta: {key} must be")
    for case, key, value in (
        ("zero_width", "widths", [0, 16]),
        ("one_width", "widths", [8]),
        ("text_widths", "widths", "ab"),
        ("one_adr_block", "adr_blocks", [True]),
        ("two_adr_dims", "adr_dims", [4, 16]),
        ("text_dyn_candidates", "dyn_candidates", "x"),
        ("text_frozen", "frozen", "no"),
    )
] + [
    # recipes needing far more values than the plain checkpoint's blob holds are
    # refused before their parameters are allocated; the ADR rows switch both blocks
    # on, and the D_k row's embedding block is one NumPy cannot index at all
    (f"model_meta_oversize_{case}", "model.json",
     _rewrite_json(_edit(lambda doc, meta=meta: doc["meta"].update(meta))), message)
    for case, meta, message in (
        ("widths", {"widths": [1000000, 8]}, "describe more parameter values than the blob holds"),
        ("dyn_candidates", {"dyn_candidates": 2**40},
         "describe more parameter values than the blob holds"),
        ("adr_d_e", {"adr_blocks": [True, True], "adr_dims": [4, 2**40, 3]},
         "describe more parameter values than the blob holds"),
        ("adr_d_k", {"adr_blocks": [True, True], "adr_dims": [4, 16, 2**31 + 1]},
         "more than NumPy can index"),
    )
]


# (case, how pair 1's clean [3, 16, 16] target is cut, expected error text)
BAD_TRAIN_CORPORA = [
    ("clean_2d_beside_rgb_low", lambda clean: clean[0],
     "clean [16, 16], low [3, 16, 16]"),
    ("clean_smaller_than_low", lambda clean: clean[:, ::2, ::2],
     "clean [3, 8, 8], low [3, 16, 16]"),
]


@pytest.fixture(scope="module")
def probe_inputs(tmp_path_factory):
    """An untrained checkpoint and a two-pair corpus that probe accepts."""
    root = tmp_path_factory.mktemp("probe_inputs")
    save_model(ToyEnhancer(Rng(0)), str(root / "model"))
    save_pairs(str(root / "data"), make_corpus(9, 2, 8, 8))
    return root


class TestMalformedInputs:
    """Damaged checkpoints and corpora exit 2 with an error line, not a traceback."""

    def probe(self, root, out):
        return run(["probe", "--ckpt", str(root / "model"), "--data", str(root / "data"),
                    "--selectors", "auto", "--seeds", "0", "--out", str(out)])

    def test_intact_inputs_exit_zero(self, probe_inputs, tmp_path):
        assert self.probe(probe_inputs, tmp_path / "p.csv") == 0

    @pytest.mark.parametrize("relpath,corrupt,message",
                             [case[1:] for case in BAD_PROBE_INPUTS],
                             ids=[case[0] for case in BAD_PROBE_INPUTS])
    def test_probe_exits_two(self, probe_inputs, tmp_path, capsys,
                             relpath, corrupt, message):
        root = tmp_path / "in"
        shutil.copytree(probe_inputs, root)
        corrupt(root / relpath)
        assert self.probe(root, tmp_path / "p.csv") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("cut,message", [case[1:] for case in BAD_TRAIN_CORPORA],
                             ids=[case[0] for case in BAD_TRAIN_CORPORA])
    def test_train_exits_two(self, tmp_path, capsys, cut, message):
        """A pair whose clean and low shapes differ is malformed input."""
        pairs = make_corpus(9, 2, 16, 16)
        pairs[1].clean = Tensor(cut(pairs[1].clean.data))
        save_pairs(str(tmp_path / "data"), pairs)
        cfg = write_config(tmp_path, steps=2)
        code = run(["train", "--config", cfg, "--data", str(tmp_path / "data"),
                    "--out", str(tmp_path / "model")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
        assert not any(name.startswith("model") for name in os.listdir(tmp_path))

    @pytest.mark.parametrize("dynconv", [{"enabled": False}, {"enabled": True, "K": 3}],
                             ids=["plain", "dynconv"])
    def test_train_on_zero_size_images_exits_two(self, tmp_path, capsys, dynconv):
        """0 is divisible by 4, but a [3, 0, 8] image is no input for the forward."""
        empty = Tensor(np.zeros((3, 0, 8)))
        save_pairs(str(tmp_path / "data"), [ScenePair(clean=empty, low=empty, seed=0, record={})])
        cfg = write_config(tmp_path, steps=2, dynconv=dynconv)
        code = run(["train", "--config", cfg, "--data", str(tmp_path / "data"),
                    "--out", str(tmp_path / "model")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "positive multiples of 4, got 0x8" in err
        assert "Traceback" not in err
        assert not any(name.startswith("model") for name in os.listdir(tmp_path))

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_recipe_too_big_to_allocate_exits_two(self, tmp_path, capsys, monkeypatch,
                                                  command):
        """A width of 2^26 plans about 2^56 values: NumPy can index them, so the
        size check passes, but no host holds them, and ``run`` maps the arena's
        MemoryError to exit 2.  The allocation is faked, after the size check,
        so that the test asks for no memory."""
        def allocate(rng, plan):
            raise MemoryError(f"Unable to allocate {8 * enhancer.plan_size(plan)} bytes")

        monkeypatch.setattr(enhancer, "_draw", allocate)
        save_pairs(str(tmp_path / "data"), make_corpus(9, 1, 8, 8))
        cfg = write_config(tmp_path, steps=2, widths=[2 ** 26, 8])
        before = sorted(os.listdir(tmp_path))
        argv = {"train": ["--data", str(tmp_path / "data"), "--out", str(tmp_path / "model")],
                "gradcheck": ["--samples", "4"]}[command]
        assert run([command, "--config", cfg, *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("key,overrides", [
        ("widths", {"widths": [2 ** 60, 8]}),
        ("widths", {"widths": [8, 2 ** 60]}),
        ("dyn_candidates", {"dynconv": {"enabled": True, "K": 2 ** 60}}),
    ], ids=["first_width", "second_width", "dynconv_k"])
    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_recipe_numpy_cannot_index_exits_two(self, tmp_path, capsys, command, key,
                                                 overrides):
        """A width or dynconv K of 2^60 plans more parameter values than NumPy can
        index; the size check refuses the recipe, naming the argument, before any
        array is allocated."""
        save_pairs(str(tmp_path / "data"), make_corpus(9, 1, 8, 8))
        cfg = write_config(tmp_path, steps=2, **overrides)
        before = sorted(os.listdir(tmp_path))
        argv = {"train": ["--data", str(tmp_path / "data"), "--out", str(tmp_path / "model")],
                "gradcheck": ["--samples", "4"]}[command]
        assert run([command, "--config", cfg, *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: {key} ") and err.count("\n") == 1
        assert "more than NumPy can index" in err and "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("command", ["train", "gradcheck"])
    def test_embedding_block_numpy_cannot_index_exits_two(self, tmp_path, capsys, command):
        """An ADR D_k of 2^31 + 1 asks for a generator embedding block of more
        rows than int64 holds; the recipe check refuses it before any draw."""
        save_pairs(str(tmp_path / "data"), make_corpus(9, 1, 8, 8))
        cfg = write_config(tmp_path, steps=2,
                           adr={"enabled": True, "D_m": 4, "D_e": 16, "D_k": 2**31 + 1})
        before = sorted(os.listdir(tmp_path))
        argv = {"train": ["--data", str(tmp_path / "data"), "--out", str(tmp_path / "model")],
                "gradcheck": ["--samples", "4"]}[command]
        assert run([command, "--config", cfg, *argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: adr_dims ") and err.count("\n") == 1
        assert "more than NumPy can index" in err and "Traceback" not in err
        assert sorted(os.listdir(tmp_path)) == before


@pytest.fixture(scope="module")
def write_inputs(tmp_path_factory):
    """A corpus, configs and a frozen ADR + dynconv checkpoint, outside any output dir."""
    root = tmp_path_factory.mktemp("write_inputs")
    save_pairs(str(root / "data"), make_corpus(9, 2, 8, 8))
    model = ToyEnhancer(Rng(0), adr_blocks=(True, True), dyn_candidates=2)
    model.freeze()
    save_model(model, str(root / "model"))
    write_config(root, "plain.json", steps=2)
    write_config(root, "adr.json", steps=2, adr={"enabled": True})
    return root


# (command, its flags before --out given the inputs directory, output name,
# name of the file whose write fails part-way)
FAILED_WRITES = [
    ("probe", lambda r: ["--ckpt", str(r / "model"), "--data", str(r / "data"),
                         "--selectors", "auto", "--seeds", "0"], "probe.csv", "probe.csv"),
    ("dmr", lambda r: ["--ckpt", str(r / "model"), "--data", str(r / "data"),
                       "--selectors", "auto", "--seed", "0"], "dmr.json", "dmr.json"),
    ("degrade-score", lambda r: ["--ckpt", str(r / "model"), "--data", str(r / "data")],
     "deg.json", "deg.json"),
    ("ablate", lambda r: ["--config", str(r / "adr.json"), "--grid", "D_m=1,2",
                          "--data", str(r / "data")], "abl.csv", "abl.csv"),
    ("train", lambda r: ["--config", str(r / "plain.json"), "--data", str(r / "data")],
     "p", "p.loss.csv"),
]


class TestFailedWrite:
    """A write that fails part-way leaves the output directory as it was."""

    @pytest.mark.parametrize("command,flags,out,failing", FAILED_WRITES,
                             ids=[case[0] for case in FAILED_WRITES])
    def test_exits_two_and_leaves_directory_unchanged(
        self, write_inputs, tmp_path, capsys, monkeypatch, command, flags, out, failing
    ):
        runs = tmp_path / "runs"
        runs.mkdir()
        (runs / "notes.txt").write_text("kept\n")
        before = snapshot(runs)
        monkeypatch.setattr("builtins.open", open_on_full_disk(open, failing))
        code = run([command, *flags(write_inputs), "--out", str(runs / out)])
        monkeypatch.undo()
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No space left on device" in err
        assert snapshot(runs) == before


class TestDispatch:
    def test_unknown_flag_exits_two(self, tmp_path):
        assert run(["gen-data", "--sed", "7", "--out", str(tmp_path / "x")]) == 2

    def test_unknown_subcommand_exits_two(self):
        assert run(["calibrate"]) == 2

    def test_missing_required_flag_exits_two(self, tmp_path):
        assert run(["train", "--config", str(tmp_path / "c.json")]) == 2

    def test_console_script_wired(self, tmp_path):
        """The `redlab` entry point declared in pyproject.toml reaches the CLI.

        The child process resolves the declared `module:attr` and calls it
        the way an installer's generated wrapper does, so no install is
        needed and a mistyped or missing entry point still fails here.
        """
        tomllib = pytest.importorskip("tomllib")
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["redlab"]
        wrapper = (
            "import sys\n"
            "from importlib.metadata import EntryPoint\n"
            "sys.argv[0] = 'redlab'\n"
            f"sys.exit(EntryPoint('redlab', {target!r}, 'console_scripts')"
            ".load()())\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
        check_gen_data_command([sys.executable, "-c", wrapper], tmp_path, env)

    @pytest.mark.skipif(shutil.which("redlab") is None,
                        reason="redlab console script not installed")
    def test_installed_console_script(self, tmp_path):
        check_gen_data_command(["redlab"], tmp_path)
