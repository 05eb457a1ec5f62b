"""Run configuration: one JSON document drives every command.

Every field is optional; defaults are the desk-scale profile so the
whole pipeline stays fast on a CPU.  The full-scale profile (256x256
inputs, channels (100, 200), fully connected (400, 200)) ships alongside
and can be selected by pointing --config at it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

from .autoencoder import CAEConfig
from .classifier import CNNConfig
from .errors import ConfigError
from .optim import SGDConfig


@dataclass(frozen=True)
class RunConfig:
    input_size: tuple[int, int] = (64, 64)
    conv_channels: tuple[int, int] = (8, 16)
    fc_sizes: tuple[int, int] = (64, 32)
    n_classes: int = 3
    input_channels: int = 3
    kernel: int = 5
    corruption_fraction: float = 0.2
    lr0: float = 0.01
    decay: float = 0.98
    batch_size: int = 16
    epochs_pretrain: int = 30
    epochs_finetune: int = 50
    folds: int = 10
    seed: int = 0
    tied_decoder: bool = True
    freeze_encoder: bool = False
    threads: int = 1
    data_root: str = "."
    pretrain_manifest: str | None = None
    labeled_manifest: str | None = None
    checkpoint_dir: str = "checkpoints"
    report_dir: str = "reports"

    def _matching(self, cls):
        """cls from the run fields named like its fields; the rest keep their defaults."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)
                      if f.name in self.__dataclass_fields__})

    def cae_config(self) -> CAEConfig:
        return self._matching(CAEConfig)

    def cnn_config(self) -> CNNConfig:
        return self._matching(CNNConfig)

    def sgd_config(self) -> SGDConfig:
        return self._matching(SGDConfig)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# RunConfig field annotation -> (what a JSON value must be, its check, its conversion)
FIELD_TYPES = {
    "tuple[int, int]": ("a pair of integers", lambda v: isinstance(v, (list, tuple))
                        and len(v) == 2 and all(map(_is_int, v)), tuple),
    "int": ("an integer", _is_int, int),
    "float": ("a number", lambda v: _is_int(v) or isinstance(v, float), float),
    "bool": ("a boolean", lambda v: isinstance(v, bool), bool),
    "str": ("a string", lambda v: isinstance(v, str), str),
    "str | None": ("a string or null", lambda v: v is None or isinstance(v, str), lambda v: v),
}


def config_from_dict(raw: dict, source: str = "<dict>") -> RunConfig:
    annotations = {f.name: f.type for f in fields(RunConfig)}
    unknown = set(raw) - set(annotations)
    if unknown:
        raise ConfigError(f"{source}: unknown config keys {sorted(unknown)}")

    kwargs = {}
    for key, value in raw.items():
        what, accepts, convert = FIELD_TYPES[annotations[key]]
        if not accepts(value):
            raise ConfigError(f"{source}: {key} must be {what}, got {value!r}")
        kwargs[key] = convert(value)

    config = RunConfig(**kwargs)
    # surface range violations now, with the file named, not mid-run
    try:
        config.cae_config()
        config.cnn_config()
        config.sgd_config()
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    if config.epochs_pretrain < 0 or config.epochs_finetune < 0:
        raise ConfigError(f"{source}: epoch counts must be >= 0")
    if config.folds < 2:
        raise ConfigError(f"{source}: folds must be >= 2, got {config.folds}")
    if config.threads < 1:
        raise ConfigError(f"{source}: threads must be >= 1, got {config.threads}")
    return config


def load_run_config(path, overrides: dict | None = None) -> RunConfig:
    """The config file at path, its keys replaced by overrides, checked as one document."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{p}: top level must be a JSON object")
    return config_from_dict({**raw, **(overrides or {})}, source=str(p))
