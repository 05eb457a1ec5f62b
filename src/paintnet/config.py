"""Run configuration: one JSON document drives every command.

RunConfig extends CAEConfig, CNNConfig and SGDConfig, so each model and
optimiser setting is declared once, and adds the run settings; building
one runs every range check.  Every field is optional; defaults are the
desk-scale profile so the whole pipeline stays fast on a CPU.  The
full-scale profile (256x256 inputs, channels (100, 200), fully connected
(400, 200): the bases' defaults) ships alongside and can be selected by
pointing --config at it.  Images are always read as RGB and the
activations are fixed, so neither the input channel count (3) nor an
activation is a setting; every model setting is one here.
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
class RunConfig(CAEConfig, CNNConfig, SGDConfig):
    input_size: tuple[int, int] = (64, 64)
    conv_channels: tuple[int, int] = (8, 16)
    fc_sizes: tuple[int, int] = (64, 32)
    epochs_pretrain: int = 30
    epochs_finetune: int = 50
    folds: int = 10
    seed: int = 0
    threads: int = 1
    data_root: str = "."
    pretrain_manifest: str | None = None
    labeled_manifest: str | None = None
    checkpoint_dir: str = "checkpoints"
    report_dir: str = "reports"

    def __post_init__(self):
        for base in (CAEConfig, CNNConfig, SGDConfig):
            base.__post_init__(self)
        if self.epochs_pretrain < 0 or self.epochs_finetune < 0:
            raise ConfigError("epoch counts must be >= 0")
        if self.folds < 2:
            raise ConfigError(f"folds must be >= 2, got {self.folds}")
        if self.threads < 1:
            raise ConfigError(f"threads must be >= 1, got {self.threads}")

    def _matching(self, cls):
        """This config's cls fields as a cls, the config a model keeps and saves."""
        return cls(**{f.name: getattr(self, f.name) for f in fields(cls)})

    def cae_config(self) -> CAEConfig:
        return self._matching(CAEConfig)

    def cnn_config(self) -> CNNConfig:
        return self._matching(CNNConfig)


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

    try:
        return RunConfig(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_run_config(path, overrides: dict | None = None) -> RunConfig:
    """The config file at path, its keys replaced by overrides, checked as one document."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{p}: top level must be a JSON object")
    return config_from_dict({**raw, **(overrides or {})}, source=str(p))
