"""Run configuration loading and validation."""

import json
from dataclasses import asdict, fields

import pytest

from paintnet.config import (
    FIELD_TYPES,
    RunConfig,
    config_from_dict,
    load_run_config,
)
from paintnet.errors import ConfigError

from conftest import ASSETS


def test_defaults_are_desk_scale():
    cfg = RunConfig()
    assert cfg.input_size == (64, 64)
    assert cfg.conv_channels == (8, 16)
    assert cfg.folds == 10
    assert cfg.tied_decoder
    assert not cfg.freeze_encoder


def test_from_dict_overrides():
    cfg = config_from_dict({"input_size": [32, 32], "lr0": 0.5, "seed": 9,
                            "freeze_encoder": True})
    assert cfg.input_size == (32, 32)
    assert cfg.lr0 == 0.5
    assert cfg.seed == 9
    assert cfg.freeze_encoder
    assert cfg.conv_channels == (8, 16)  # untouched default


def test_from_dict_rejects_unknown_key():
    with pytest.raises(ConfigError, match="learning_rate"):
        config_from_dict({"learning_rate": 0.1})


def test_from_dict_rejects_wrong_types():
    with pytest.raises(ConfigError):
        config_from_dict({"lr0": "fast"})
    with pytest.raises(ConfigError):
        config_from_dict({"input_size": [64]})
    with pytest.raises(ConfigError):
        config_from_dict({"seed": 1.5})
    with pytest.raises(ConfigError):
        config_from_dict({"tied_decoder": "yes"})


def test_from_dict_rejects_bad_values():
    with pytest.raises(ConfigError):
        config_from_dict({"folds": 1})
    with pytest.raises(ConfigError):
        config_from_dict({"threads": 0})
    with pytest.raises(ConfigError):
        config_from_dict({"epochs_pretrain": -1})
    for size in ([0, 0], [-4, -8]):
        with pytest.raises(ConfigError, match="input size"):
            config_from_dict({"input_size": size})


def test_every_field_annotation_has_one_validator():
    assert {f.type for f in fields(RunConfig)} == set(FIELD_TYPES)


def test_sub_configs_consistent():
    # every value differs from the sub-config's own default
    cfg = config_from_dict({"input_size": [32, 32], "conv_channels": [4, 6],
                            "input_channels": 1, "kernel": 3, "tied_decoder": False,
                            "corruption_fraction": 0.3, "fc_sizes": [12, 7], "n_classes": 4,
                            "freeze_encoder": True, "lr0": 0.2, "decay": 0.9,
                            "batch_size": 8})
    carried = [(cfg.cae_config(), ("input_size", "conv_channels", "input_channels", "kernel",
                                   "tied_decoder", "corruption_fraction")),
               (cfg.cnn_config(), ("fc_sizes", "n_classes", "freeze_encoder")),
               (cfg.sgd_config(), ("lr0", "decay", "batch_size"))]
    for sub, names in carried:
        for name in names:
            assert getattr(sub, name) == getattr(cfg, name), name


def test_resolved_round_trips():
    cfg = config_from_dict({"seed": 5, "threads": 2})
    again = config_from_dict(json.loads(json.dumps(asdict(cfg))))
    assert again == cfg


def test_load_run_config(tmp_path):
    p = tmp_path / "run.json"
    p.write_text(json.dumps({"seed": 123, "folds": 3}))
    cfg = load_run_config(p)
    assert cfg.seed == 123
    assert cfg.folds == 3


def test_load_missing_file_names_path(tmp_path):
    missing = tmp_path / "absent.json"
    with pytest.raises(ConfigError, match="absent.json"):
        load_run_config(missing)


def test_load_rejects_bad_json(tmp_path):
    p = tmp_path / "run.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_run_config(p)


def test_load_rejects_non_object(tmp_path):
    p = tmp_path / "run.json"
    p.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_run_config(p)


def test_desk_profile_loads():
    cfg = load_run_config(ASSETS / "desk.json")
    assert cfg.input_size == (64, 64)
    assert cfg.conv_channels == (8, 16)


def test_full_profile_loads():
    cfg = load_run_config(ASSETS / "full.json")
    assert cfg.input_size == (256, 256)
    assert cfg.conv_channels == (100, 200)
    assert cfg.fc_sizes == (400, 200)
    assert cfg.n_classes == 3
    assert cfg.folds == 10
    assert cfg.corruption_fraction == 0.2
