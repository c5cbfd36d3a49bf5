"""Strict run-config schema: defaults, round-trips, fail-fast rejection of
unknown or ill-typed keys, and seed-pinned model builds."""

import json
import re

import numpy as np
import pytest

from redlab.config import RunConfig, build_model, load_config
from redlab.errors import ConfigurationError
from redlab.rng import Rng


class TestSchema:
    def test_empty_document_gives_defaults(self):
        cfg = RunConfig.from_dict({})
        assert cfg == RunConfig()
        assert cfg.steps == 2000
        assert cfg.lr == 1e-3
        assert cfg.seed == 0
        assert cfg.widths == (8, 16)
        assert not cfg.adr_enabled and not cfg.dyn_enabled
        # the defaults the module docstring's document shape states
        assert (cfg.adr_d_m, cfg.adr_d_e, cfg.adr_d_k, cfg.dyn_k) == (4, 16, 3, 4)

    def test_full_document_round_trips(self):
        doc = {
            "steps": 50,
            "lr": 0.01,
            "seed": 7,
            "widths": [4, 8],
            "adr": {"enabled": True, "D_m": 2, "D_e": 8, "D_k": 1},
            "dynconv": {"enabled": True, "K": 3},
        }
        cfg = RunConfig.from_dict(doc)
        assert cfg.to_dict() == doc
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigurationError, match="epochs"):
            RunConfig.from_dict({"epochs": 10})

    def test_unknown_nested_keys_rejected(self):
        """Typos inside adr/dynconv fail just as fast."""
        with pytest.raises(ConfigurationError, match="d_e"):
            RunConfig.from_dict({"adr": {"d_e": 16}})
        with pytest.raises(ConfigurationError, match="k"):
            RunConfig.from_dict({"dynconv": {"k": 4}})

    def test_type_violations_rejected(self):
        for doc, message in [
            ({"steps": 0}, "config.steps must be >= 1, got 0"),
            ({"steps": True}, "config.steps must be an integer, got True"),
            ({"steps": "many"}, "config.steps must be an integer, got 'many'"),
            ({"lr": -0.1}, "config.lr must be finite and >= 0, got -0.1"),
            ({"lr": "fast"}, "config.lr must be a number, got 'fast'"),
            ({"lr": float("nan")}, "config.lr must be finite and >= 0, got nan"),
            ({"lr": float("inf")}, "config.lr must be finite and >= 0, got inf"),
            ({"lr": 10 ** 400}, f"config.lr must be finite and >= 0, got {10 ** 400}"),
            ({"seed": -1}, "config.seed must be >= 0, got -1"),
            ({"widths": [8]}, "config.widths must be a list of 2 items, got [8]"),
            ({"widths": [8, 0]}, "config.widths must be >= 1, got 0"),
            ({"widths": "wide"}, "config.widths must be a list of 2 items, got 'wide'"),
            ({"adr": []}, "config.adr must be an object, got []"),
            ({"adr": {"enabled": 1}}, "config.adr.enabled must be a boolean, got 1"),
            ({"adr": {"D_k": 2}}, "config.adr.D_k must be odd, got 2"),
            ({"adr": {"D_e": 1}}, "config.adr.D_e must be >= 2, got 1"),
            ({"dynconv": {"K": 0}}, "config.dynconv.K must be >= 1, got 0"),
            ([1, 2], "config must be a JSON object, got list"),
        ]:
            with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
                RunConfig.from_dict(doc)

    def test_zero_lr_allowed(self):
        assert RunConfig.from_dict({"lr": 0}).lr == 0.0

    def test_replace_adr_overrides_axes(self):
        cfg = RunConfig(adr_enabled=True)
        swapped = cfg.replace_adr(D_m=2, D_e=8)
        assert (swapped.adr_d_m, swapped.adr_d_e, swapped.adr_d_k) == (2, 8, 3)
        with pytest.raises(ConfigurationError):
            cfg.replace_adr(K=2)

    def test_replace_adr_checks_values_and_keys(self):
        cfg = RunConfig(adr_enabled=True)
        with pytest.raises(ConfigurationError, match=r"^config\.adr\.D_k must be odd, got 4$"):
            cfg.replace_adr(D_k=4)
        with pytest.raises(ConfigurationError, match=r"^unknown config\.adr keys: \['K'\]$"):
            cfg.replace_adr(K=2)
        assert cfg.replace_adr(enabled=False) == RunConfig()

    def test_shape_fault_reported_before_value_fault(self):
        """The document's shape is checked whole before any value."""
        with pytest.raises(ConfigurationError, match=r"^unknown config\.adr keys: \['D_x'\]$"):
            RunConfig.from_dict({"steps": 0, "adr": {"D_x": 1}})


class TestConstructor:
    """A config made by its constructor passes the checks a document does."""

    @pytest.mark.parametrize("fields, doc, message", [
        ({"dyn_enabled": True, "dyn_k": 0}, {"dynconv": {"enabled": True, "K": 0}},
         "config.dynconv.K must be >= 1, got 0"),
        ({"lr": -1.0}, {"lr": -1.0}, "config.lr must be finite and >= 0, got -1.0"),
        ({"lr": float("nan")}, {"lr": float("nan")}, "config.lr must be finite and >= 0, got nan"),
        ({"seed": -1}, {"seed": -1}, "config.seed must be >= 0, got -1"),
        ({"widths": (8,)}, {"widths": (8,)}, "config.widths must be a list of 2 items, got (8,)"),
        ({"adr_d_k": 2}, {"adr": {"D_k": 2}}, "config.adr.D_k must be odd, got 2"),
    ], ids=["dyn_k", "lr_negative", "lr_nan", "seed", "widths", "adr_d_k"])
    def test_refuses_what_from_dict_refuses(self, fields, doc, message):
        with pytest.raises(ConfigurationError) as from_doc:
            RunConfig.from_dict(doc)
        with pytest.raises(ConfigurationError) as made:
            RunConfig(**fields)
        assert str(made.value) == str(from_doc.value) == message

    def test_values_are_normalised(self):
        assert RunConfig(widths=[4, 8]) == RunConfig(widths=(4, 8))
        assert RunConfig(widths=[4, 8]).widths == (4, 8)
        lr = RunConfig(lr=0).lr
        assert type(lr) is float and lr == 0.0


class TestLoadConfig:
    def test_reads_valid_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"steps": 5, "seed": 3}))
        cfg = load_config(str(path))
        assert cfg.steps == 5 and cfg.seed == 3

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{steps: 5}")
        with pytest.raises(ConfigurationError):
            load_config(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(str(tmp_path / "absent.json"))


class TestBuildModel:
    def test_plain_build_has_no_dynamic_parameters(self):
        model = build_model(RunConfig(seed=1))
        names = [n for n, _ in model.named_parameters()]
        assert not any(".adr." in n or ".dynconv." in n for n in names)
        assert model.widths == (8, 16)

    def test_adr_build_wires_requested_dimensions(self):
        cfg = RunConfig(seed=2, adr_enabled=True, adr_d_m=2, adr_d_e=8, adr_d_k=1)
        model = build_model(cfg)
        block = model.reallocation_blocks()["decoder.block1.attn.adr"]
        assert block is not None
        # gen1 emits a [D_m, 3*width, k, k] kernel from D_e-wide embeddings
        assert block.gen1.embeddings.data.shape[1] == 8
        assert block.gen1.target_shape == (24, 2, 1)

    def test_dynconv_build_sets_candidate_count(self):
        model = build_model(RunConfig(seed=3, dyn_enabled=True, dyn_k=3))
        assert dict(model.stages)["decoder.block1"].conv.candidates.data.shape[0] == 3

    def test_same_config_builds_identical_models(self):
        cfg = RunConfig(seed=4, adr_enabled=True)
        a = build_model(cfg)
        b = build_model(cfg)
        for (na, ta), (nb, tb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            assert np.array_equal(ta.data, tb.data)
