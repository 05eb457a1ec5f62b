"""Run configuration loading and validation."""

import json
import math
from dataclasses import asdict, fields

import pytest

from paintnet import layers
from paintnet.autoencoder import CAEConfig, shape_chain
from paintnet.classifier import CNNConfig
from paintnet.config import (
    FIELD_TYPES,
    RunConfig,
    config_from_dict,
    load_run_config,
)
from paintnet.errors import ConfigError
from paintnet.optim import SGDConfig

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
    # each sub-config field is declared once, by its own config; RunConfig redeclares
    # only the three sizes whose desk default differs from the full-scale one
    subs = (CAEConfig, CNNConfig, SGDConfig)
    assert all(issubclass(RunConfig, sub) for sub in subs)
    sub_fields = {f.name for sub in subs for f in fields(sub)}
    own = set(RunConfig.__annotations__)
    assert own & sub_fields == {"input_size", "conv_channels", "fc_sizes"}
    assert len(own) == 13 and len(sub_fields) == 11
    assert {f.name for f in fields(RunConfig)} == own | sub_fields
    for name in ("input_size", "conv_channels", "fc_sizes"):
        base = next(sub for sub in subs if name in {f.name for f in fields(sub)})
        assert getattr(RunConfig(), name) != getattr(base(), name), name

    # a model keeps exactly its own config's fields, every value the run's
    cfg = config_from_dict({"input_size": [32, 32], "conv_channels": [4, 6],
                            "kernel": 3, "tied_decoder": False,
                            "corruption_fraction": 0.3, "fc_sizes": [12, 7], "n_classes": 4,
                            "freeze_encoder": True})
    for sub, cls in ((cfg.cae_config(), CAEConfig), (cfg.cnn_config(), CNNConfig)):
        assert type(sub) is cls
        for f in fields(sub):
            assert getattr(sub, f.name) == getattr(cfg, f.name), f.name


# one out-of-range value per check, in the order the checks run: the
# autoencoder's, the classifier's, SGD's, then the run's own
OUT_OF_RANGE = [
    ("input_size", (6, 6), "input size must be at least 4x4 and divisible by 4 "
                           "(two 2x2 pools), got 6x6"),
    ("conv_channels", (0, 4), "conv channels must be >= 1, got (0, 4)"),
    ("kernel", 4, "kernel must be odd and positive, got 4"),
    ("corruption_fraction", 1.5, "corruption fraction must be in [0, 1], got 1.5"),
    ("fc_sizes", (3, 0), "fully connected sizes must be >= 1, got (3, 0)"),
    ("n_classes", 1, "need at least 2 classes, got 1"),
    ("lr0", -1.0, "lr0 must be positive, got -1.0"),
    ("lr0", math.nan, "lr0 must be finite, got nan"),
    ("lr0", math.inf, "lr0 must be finite, got inf"),
    ("decay", 0.0, "decay must be in (0, 1], got 0.0"),
    ("batch_size", 0, "batch_size must be >= 1, got 0"),
    ("epochs_pretrain", -1, "epoch counts must be >= 0"),
    ("epochs_finetune", -1, "epoch counts must be >= 0"),
    ("folds", 1, "folds must be >= 2, got 1"),
    ("threads", 0, "threads must be >= 1, got 0"),
]


@pytest.mark.parametrize("key,value,message", OUT_OF_RANGE)
def test_direct_construction_runs_every_range_check(key, value, message):
    with pytest.raises(ConfigError) as direct:
        RunConfig(**{key: value})
    assert str(direct.value) == message
    with pytest.raises(ConfigError) as loaded:
        config_from_dict({key: value}, source="run.json")
    assert str(loaded.value) == f"run.json: {message}"


def test_range_checks_run_in_order():
    # with every value out of range, each check is reached once all before it pass
    bad = {}
    for key, value, message in reversed(OUT_OF_RANGE):
        bad[key] = value
        with pytest.raises(ConfigError) as exc:
            RunConfig(**bad)
        assert str(exc.value) == message, key


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


# the inputs of enc1, enc2, dec2 and dec1 in shape_chain: the maps a
# correlation runs on, forward and (as the same-sized map gradient) backward
CORRELATION_INPUTS = (0, 2, 5, 7)


def correlation_columns(config: CAEConfig) -> list[int]:
    """h * (w + k - 1), the flat column count of each correlation's product."""
    chain = shape_chain(config)
    return [chain[i][1] * (chain[i][2] + config.kernel - 1) for i in CORRELATION_INPUTS]


@pytest.mark.parametrize("profile", ["desk.json", "full.json"])
def test_shipped_profiles_correlate_on_columns_in_multiples_of_8(profile):
    # the BLAS rounds the last (columns mod 8) of a product in an edge kernel,
    # whose split can move with the BLAS thread count; a multiple of 8 has none
    columns = correlation_columns(load_run_config(ASSETS / profile))
    assert [n % 8 for n in columns] == [0, 0, 0, 0], columns


def winograd_routes(config: CAEConfig) -> dict[str, tuple[int, int, int, int]]:
    """{"layer.path": (input channels, output channels, h, w)} of each correlation
    that takes Winograd's form: the forward and kernel gradient correlate the
    layer's input into its output, the input gradient its output into its input."""
    chain = shape_chain(config)
    routes = {}
    for name, i in zip(("enc1", "enc2", "dec2", "dec1"), CORRELATION_INPUTS):
        (c_in, h, w), c_out = chain[i], chain[i + 1][0]
        for path, pair in (("fwd", (c_in, c_out)), ("input_grad", (c_out, c_in)),
                           ("kernel_grad", (c_in, c_out))):
            if layers._winograd(*pair, config.kernel, h, w):
                routes[f"{name}.{path}"] = pair + (h, w)
    return routes


@pytest.mark.parametrize("profile, routed", [
    ("desk.json", set()),
    ("full.json", {f"{name}.{path}" for name in ("enc2", "dec2")
                   for path in ("fwd", "input_grad", "kernel_grad")}),
])
def test_shipped_profiles_take_winograd_on_tile_blocks_in_multiples_of_8(profile, routed):
    # Winograd's products run on a block's tiles as columns, and a block is
    # one tile row of w/4 tiles; a multiple of 8 puts none in the BLAS's
    # edge kernel, as for the other forms
    routes = winograd_routes(load_run_config(ASSETS / profile))
    assert set(routes) == routed
    for c, o, h, w in routes.values():
        assert (h, w) == (128, 128)
        assert w // 4 % 8 == 0


def test_every_input_side_in_multiples_of_8_correlates_on_columns_in_multiples_of_8():
    for side in range(8, 257, 8):
        for k in (1, 3, 5, 7):
            columns = correlation_columns(CAEConfig(input_size=(side, side), kernel=k))
            assert [n % 8 for n in columns] == [0, 0, 0, 0], (side, k, columns)
