"""Bit-exact binary checkpoints for autoencoder and classifier models.

Layout, all integers little-endian:

    magic   4 bytes  "DPNT"
    version u16      currently 1
    kind    u8       0 = autoencoder, 1 = classifier
    config  u32 length + canonical JSON (sorted keys, compact separators)
    records until end of file, each:
        name    u16 length + UTF-8 bytes
        rank    u8
        extents rank x u32
        payload product(extents) x f64

Records are written in sorted name order and floats pass through
unchanged, so identical models always produce identical bytes.  The
records are the model's stage parameters (<stage>.W, <stage>.b), frozen
ones included.  Tied decoders store no kernel of their own; the tie is
re-established from the config on load.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .autoencoder import (
    CAEConfig,
    CAEModel,
    EncoderStack,
    cae_stages,
    encoder_stages,
    stage_parameters,
)
from .classifier import CNNConfig, CNNModel, assemble_cnn
from .errors import (
    ArgumentError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointVersionError,
    ConfigError,
    ShapeError,
)
from .tensor import Tensor

MAGIC = b"DPNT"
VERSION = 1
KIND_CAE = 0
KIND_CNN = 1


def encode_checkpoint(kind: int, config: dict, tensors: dict[str, Tensor]) -> bytes:
    """Serialize a raw (kind, config, named tensor) triple."""
    if kind not in (KIND_CAE, KIND_CNN):
        raise ArgumentError(f"unknown model kind {kind}")
    parts = [MAGIC, struct.pack("<HB", VERSION, kind)]
    config_bytes = json.dumps(config, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts.append(struct.pack("<I", len(config_bytes)))
    parts.append(config_bytes)
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype=np.float64)
        name_bytes = name.encode("utf-8")
        parts.append(struct.pack("<H", len(name_bytes)))
        parts.append(name_bytes)
        parts.append(struct.pack("<B", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.astype("<f8").tobytes())
    return b"".join(parts)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise CheckpointFormatError(
                f"truncated checkpoint: needed {n} bytes for {what} at offset {self.pos}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    @property
    def exhausted(self) -> bool:
        return self.pos == len(self.data)


def decode_checkpoint(data: bytes) -> tuple[int, dict, dict[str, Tensor]]:
    """Parse checkpoint bytes back into (kind, config, named tensors)."""
    r = _Reader(data)
    if r.take(4, "magic") != MAGIC:
        raise CheckpointFormatError("bad magic, not a checkpoint file")
    (version, kind) = r.unpack("<HB", "version/kind")
    if version != VERSION:
        raise CheckpointVersionError(f"unsupported checkpoint version {version}")
    if kind not in (KIND_CAE, KIND_CNN):
        raise CheckpointFormatError(f"unknown model kind {kind}")
    (config_len,) = r.unpack("<I", "config length")
    try:
        config = json.loads(r.take(config_len, "config block").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointFormatError(f"config block does not parse: {exc}") from exc

    tensors: dict[str, Tensor] = {}
    while not r.exhausted:
        (name_len,) = r.unpack("<H", "record name length")
        name = r.take(name_len, "record name").decode("utf-8")
        if name in tensors:
            raise CheckpointFormatError(f"duplicate tensor record {name!r}")
        (rank,) = r.unpack("<B", "record rank")
        extents = r.unpack(f"<{rank}I", "record extents")
        count = 1
        for e in extents:
            if e < 1:
                raise CheckpointFormatError(f"record {name!r} has zero extent")
            count *= e
        payload = r.take(count * 8, f"record {name!r} payload")
        tensors[name] = np.frombuffer(payload, dtype="<f8").reshape(extents).copy()
    return kind, config, tensors


def _config_block(model) -> dict:
    if isinstance(model, CAEModel):
        return asdict(model.config)
    enc1 = model.layer("enc1")
    c, h, w = model.input_shape
    return {**asdict(model.config), "input_size": [h, w], "input_channels": c,
            "conv_channels": [enc1.out_channels, model.layer("enc2").out_channels],
            "kernel": enc1.kernel, "conv_activation": enc1.activation.kind}


def save_checkpoint(model, path) -> int:
    """Write the model, frozen parameters included, to path; returns the byte count."""
    if not isinstance(model, (CAEModel, CNNModel)):
        raise ArgumentError(f"cannot checkpoint object of type {type(model).__name__}")
    kind = KIND_CAE if isinstance(model, CAEModel) else KIND_CNN
    blob = encode_checkpoint(kind, _config_block(model), stage_parameters(model.stages))
    try:
        Path(path).write_bytes(blob)
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc
    return len(blob)


def _stored(tensors: dict[str, Tensor]):
    """Stage-builder tensor source reading checkpoint records."""
    def tensor(name: str, shape: tuple[int, ...]) -> Tensor:
        if name not in tensors:
            raise CheckpointFormatError(f"checkpoint is missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise CheckpointFormatError(
                f"tensor {name!r} has shape {tensors[name].shape}, the config needs {shape}")
        return tensors[name]
    return tensor


def _dataclass_from(cls, block: dict):
    return cls(**{f.name: tuple(block[f.name]) if isinstance(block[f.name], list)
                  else block[f.name] for f in fields(cls)})


def _rebuild(kind: int, block: dict, tensor) -> CAEModel | CNNModel:
    if kind == KIND_CAE:
        config = _dataclass_from(CAEConfig, block)
        return CAEModel(config, cae_stages(config, tensor))
    c = block["input_channels"]
    encoder = EncoderStack((c, *block["input_size"]), encoder_stages(
        c, tuple(block["conv_channels"]), block["kernel"], block["conv_activation"], tensor))
    return assemble_cnn(encoder, _dataclass_from(CNNConfig, block), tensor)


def load_checkpoint(path):
    """Read a checkpoint; returns a CAEModel or CNNModel per its kind tag.

    The model is rebuilt by the same stage builders as build_cae and
    build_cnn, with every parameter read from the file; no init draws.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    kind, block, tensors = decode_checkpoint(data)
    try:
        return _rebuild(kind, block, _stored(tensors))
    except (KeyError, TypeError, ValueError, ConfigError, ArgumentError, ShapeError) as exc:
        raise CheckpointFormatError(f"config block does not describe a model: {exc!r}") from exc
