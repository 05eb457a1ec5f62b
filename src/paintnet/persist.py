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

The config block holds the model's settings (CAEConfig's fields, or
CNNConfig's and ENCODER_FIELDS) and the fixed architecture read off its
layers: input_channels, and hidden_/output_activation or conv_/
fc_activation.  A load checks the settings as a run config's, then
rejects a block its rebuilt model does not write back byte for byte.

write_checkpoint and read_checkpoint stream a binary file object record
by record, each payload written from, or read into, its array's own
buffer, so neither holds a second copy of a model.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
from dataclasses import asdict, fields
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .autoencoder import (
    ENCODER_FIELDS,
    INPUT_CHANNELS,
    CAEConfig,
    CAEModel,
    StageStack,
    cae_stages,
    encoder_stages,
    stage_parameters,
    stored,
)
from .classifier import CNNConfig, CNNModel, assemble_cnn
from .config import config_from_dict
from .errors import (
    ArgumentError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointVersionError,
    ConfigError,
)

MAGIC = b"DPNT"
VERSION = 1
KIND_CAE = 0
KIND_CNN = 1


def _canonical(value) -> bytes:
    """value as canonical JSON: sorted keys, compact separators."""
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")


def write_checkpoint(fh: BinaryIO, kind: int, config: dict,
                     tensors: dict[str, np.ndarray]) -> None:
    """Write a raw (kind, config, named tensor) triple to a binary file object.

    Each payload is written from its array's own buffer, which
    np.ascontiguousarray leaves uncopied for a C-contiguous float64 array.
    """
    if kind not in (KIND_CAE, KIND_CNN):
        raise ArgumentError(f"unknown model kind {kind}")
    fh.write(MAGIC + struct.pack("<HB", VERSION, kind))
    config_bytes = _canonical(config)
    fh.write(struct.pack("<I", len(config_bytes)) + config_bytes)
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], "<f8")
        name_bytes = name.encode("utf-8")
        fh.write(struct.pack(f"<H{len(name_bytes)}sB{arr.ndim}I", len(name_bytes), name_bytes,
                             arr.ndim, *arr.shape))
        fh.write(arr.data)


class _Reader:
    """Reads a seekable binary file object from its start to the end it had when opened."""

    def __init__(self, fh: BinaryIO):
        self.fh = fh
        self.size = fh.seek(0, io.SEEK_END)
        self.pos = fh.seek(0)

    def _truncated(self, n: int, what: str) -> CheckpointFormatError:
        return CheckpointFormatError(
            f"truncated checkpoint: needed {n} bytes for {what} at offset {self.pos}")

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > self.size:
            raise self._truncated(n, what)
        out = self.fh.read(n)
        if len(out) != n:
            raise self._truncated(n, what)
        self.pos += n
        return out

    def take_array(self, shape: tuple[int, ...], what: str) -> np.ndarray:
        """A float64 array of shape, read straight into its own buffer."""
        n = 8 * math.prod(shape)
        if self.pos + n > self.size:  # checked before allocating n bytes
            raise self._truncated(n, what)
        arr = np.empty(shape, "<f8")
        if self.fh.readinto(arr) != n:
            raise self._truncated(n, what)
        self.pos += n
        return arr

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    @property
    def exhausted(self) -> bool:
        return self.pos == self.size


def read_checkpoint(fh: BinaryIO) -> tuple[int, dict, dict[str, np.ndarray]]:
    """Parse a seekable binary file object into (kind, config, named tensors).

    Each payload is read straight into an array allocated for it.  A
    payload that runs past the end, or a read that comes up short
    because the file shrank under the reader, is a truncated checkpoint.
    """
    r = _Reader(fh)
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

    tensors: dict[str, np.ndarray] = {}
    while not r.exhausted:
        (name_len,) = r.unpack("<H", "record name length")
        raw_name = r.take(name_len, "record name")
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointFormatError(f"record name {raw_name!r} is not UTF-8") from exc
        if name in tensors:
            raise CheckpointFormatError(f"duplicate tensor record {name!r}")
        (rank,) = r.unpack("<B", "record rank")
        extents = r.unpack(f"<{rank}I", "record extents")
        if min(extents, default=1) < 1:
            raise CheckpointFormatError(f"record {name!r} has zero extent")
        tensors[name] = r.take_array(extents, f"record {name!r} payload")
    return kind, config, tensors


def _config_block(model) -> dict:
    enc1 = model.layer("enc1")
    if isinstance(model, CAEModel):
        return {**asdict(model.config), "input_channels": enc1.in_channels,
                "hidden_activation": enc1.activation,
                "output_activation": model.layer("dec1").activation}
    c, h, w = model.input_shape
    return {**asdict(model.config), "input_size": [h, w], "input_channels": c,
            "conv_channels": [enc1.out_channels, model.layer("enc2").out_channels],
            "kernel": enc1.kernel, "conv_activation": enc1.activation,
            "fc_activation": model.layer("fc1").activation}


def save_checkpoint(model, path) -> int:
    """Write the model, frozen parameters included, to path; returns the byte count."""
    if not isinstance(model, (CAEModel, CNNModel)):
        raise ArgumentError(f"cannot checkpoint object of type {type(model).__name__}")
    kind = KIND_CAE if isinstance(model, CAEModel) else KIND_CNN
    config, tensors = _config_block(model), stage_parameters(model.stages)
    try:
        return _write_atomic(Path(path), lambda fh: write_checkpoint(fh, kind, config, tensors))
    except OSError as exc:
        raise CheckpointError(f"cannot write checkpoint {path}: {exc}") from exc


def _write_atomic(path: Path, write) -> int:
    """Replace path with what write(fh) writes, or leave it untouched: never a torn file.

    The bytes go to a temporary file beside path, reach the disk, and
    only then take path's name; a failure at any step removes the
    temporary file.  Returns the byte count.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
            size = fh.tell()
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return size


def _rebuild(kind: int, block: dict, tensor) -> CAEModel | CNNModel:
    """The model block describes, its settings checked as a run config's."""
    names = [f.name for f in fields(CAEConfig)] if kind == KIND_CAE \
        else [f.name for f in fields(CNNConfig)] + list(ENCODER_FIELDS)
    run = config_from_dict({name: block[name] for name in names}, "checkpoint config block")
    if kind == KIND_CAE:
        config = run.cae_config()
        return CAEModel(config, cae_stages(config, tensor))
    encoder = StageStack((INPUT_CHANNELS, *run.input_size),
                         encoder_stages(run.conv_channels, run.kernel, tensor))
    return assemble_cnn(encoder, run.cnn_config(), tensor)


def load_checkpoint(path):
    """Read a checkpoint; returns a CAEModel or CNNModel per its kind tag.

    The model is rebuilt by the same stage builders as build_cae and
    build_cnn, with every parameter read from the file; no init draws.
    Each record is read into the array the model keeps, so a load holds
    about one model's bytes.  A config key or a record the model does
    not account for is an error, not ignored.
    """
    try:
        with open(path, "rb") as fh:
            kind, block, tensors = read_checkpoint(fh)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    try:
        model = _rebuild(kind, block, stored(tensors))
    except (KeyError, TypeError, ConfigError) as exc:
        raise CheckpointFormatError(f"config block does not describe a model: {exc!r}") from exc
    have, want = ({k: _canonical(v) for k, v in b.items()} for b in (block, _config_block(model)))
    differ = sorted({k for k, _ in have.items() ^ want.items()})
    if differ:
        raise CheckpointFormatError(
            f"config block does not match the model it describes at {', '.join(differ)}")
    unused = sorted(tensors.keys() - stage_parameters(model.stages).keys())
    if unused:
        raise CheckpointFormatError(
            f"checkpoint has records its config does not use: {', '.join(map(repr, unused))}")
    return model
