"""Binary checkpoint format: byte layout, roundtrips, error handling."""

import errno
import io
import json
import os
import re
import struct

import numpy as np
import numpy.testing as npt
import pytest

from paintnet.autoencoder import CAEConfig, build_cae, encoder_extract, stage_parameters
from paintnet.classifier import CNNConfig, build_cnn
from paintnet.data.rng import Rng
from paintnet.errors import (
    ArgumentError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointVersionError,
)
from paintnet.persist import (
    KIND_CAE,
    KIND_CNN,
    MAGIC,
    VERSION,
    _config_block,
    load_checkpoint,
    read_checkpoint,
    save_checkpoint,
    write_checkpoint,
)


def encode_checkpoint(kind, config, tensors) -> bytes:
    """The checkpoint bytes write_checkpoint writes for (kind, config, tensors)."""
    buf = io.BytesIO()
    write_checkpoint(buf, kind, config, tensors)
    return buf.getvalue()


def decode_checkpoint(data: bytes):
    """read_checkpoint over data: (kind, config, named tensors)."""
    return read_checkpoint(io.BytesIO(data))


def small_cae(tied: bool = True, seed: int = 3):
    return build_cae(CAEConfig(input_size=(8, 8), conv_channels=(2, 3),
                               tied_decoder=tied), seed=seed)


def small_cnn(freeze: bool = False, seed: int = 4):
    enc = encoder_extract(small_cae(seed=seed))
    cfg = CNNConfig(fc_sizes=(8, 5), n_classes=3, freeze_encoder=freeze)
    return build_cnn(enc, cfg, seed=seed + 1)


# ---------------------------------------------------------------------------
# byte layout
# ---------------------------------------------------------------------------

def test_header_only_encoding():
    blob = encode_checkpoint(KIND_CAE, {"a": 1}, {})
    config_json = json.dumps({"a": 1}, sort_keys=True, separators=(",", ":")).encode()
    expected = MAGIC + struct.pack("<HB", VERSION, KIND_CAE)
    expected += struct.pack("<I", len(config_json)) + config_json
    assert blob == expected


def test_four_value_tensor_payload_is_32_bytes():
    t = np.arange(4, dtype=np.float64).reshape(2, 2)
    blob = encode_checkpoint(KIND_CAE, {}, {"t": t})
    header_only = encode_checkpoint(KIND_CAE, {}, {})
    record = blob[len(header_only):]
    # name: u16 + 1 byte; rank: u8; extents: 2 * u32; payload: 32 bytes
    assert len(record) == 2 + 1 + 1 + 8 + 32
    assert record[-32:] == t.astype("<f8").tobytes()


def test_records_in_sorted_name_order():
    tensors = {"zz": np.ones(1), "aa": np.ones(1), "mm": np.ones(1)}
    blob = encode_checkpoint(KIND_CNN, {}, tensors)
    positions = {name: blob.find(name.encode()) for name in tensors}
    assert positions["aa"] < positions["mm"] < positions["zz"]


def test_encode_is_deterministic():
    model = small_cae()
    a = encode_checkpoint(KIND_CAE, _config_block(model), stage_parameters(model.stages))
    b = encode_checkpoint(KIND_CAE, _config_block(model), stage_parameters(model.stages))
    assert a == b


# ---------------------------------------------------------------------------
# decode errors
# ---------------------------------------------------------------------------

def test_decode_rejects_bad_magic():
    blob = encode_checkpoint(KIND_CAE, {}, {})
    with pytest.raises(CheckpointFormatError):
        decode_checkpoint(b"XXXX" + blob[4:])


def test_decode_rejects_other_version():
    blob = bytearray(encode_checkpoint(KIND_CAE, {}, {}))
    blob[4:6] = struct.pack("<H", 999)
    with pytest.raises(CheckpointVersionError):
        decode_checkpoint(bytes(blob))


def test_decode_rejects_unknown_kind():
    blob = bytearray(encode_checkpoint(KIND_CAE, {}, {}))
    blob[6] = 7
    with pytest.raises(CheckpointFormatError):
        decode_checkpoint(bytes(blob))


def test_decode_rejects_truncation_everywhere():
    t = np.arange(6, dtype=np.float64).reshape(2, 3)
    blob = encode_checkpoint(KIND_CAE, {"k": 2}, {"t": t})
    # records run to EOF, so a cut at the end of the config block is a
    # legal empty checkpoint; every other prefix must fail cleanly
    boundary = len(encode_checkpoint(KIND_CAE, {"k": 2}, {}))
    for cut in range(1, len(blob)):
        if cut == boundary:
            assert decode_checkpoint(blob[:cut])[2] == {}
            continue
        with pytest.raises(CheckpointFormatError):
            decode_checkpoint(blob[:cut])


def test_read_short_of_the_size_it_opened_with_is_truncation():
    # a file that shrinks under the reader: its size said the payload was there
    class Shrunk(io.BytesIO):
        def readinto(self, buffer):
            return super().readinto(memoryview(buffer).cast("B")[:-8])

    blob = encode_checkpoint(KIND_CAE, {}, {"t": np.arange(6.0)})
    with pytest.raises(CheckpointFormatError, match=r"truncated checkpoint: needed 48 bytes "
                                                   r"for record 't' payload"):
        read_checkpoint(Shrunk(blob))
    assert read_checkpoint(io.BytesIO(blob))[2]["t"].tolist() == list(range(6))


def test_header_read_short_of_the_size_it_opened_with_is_truncation():
    # the same shrinking file, short already on the first header read()
    class Shrunk(io.BytesIO):
        def read(self, size=-1):
            return super().read(size)[:-1]

    blob = encode_checkpoint(KIND_CAE, {}, {})
    with pytest.raises(CheckpointFormatError, match=r"truncated checkpoint: needed 4 bytes "
                                                   r"for magic at offset 0"):
        read_checkpoint(Shrunk(blob))


def test_decode_rejects_zero_extent():
    blob = encode_checkpoint(KIND_CAE, {}, {"t": np.zeros((2, 0))})
    with pytest.raises(CheckpointFormatError, match="record 't' has zero extent"):
        decode_checkpoint(blob)


@pytest.mark.parametrize("bad", [b'{"a":"\xff\xfe"}', b'{"a":"zz"?'], ids=["not-utf8", "not-json"])
def test_decode_rejects_unparsable_config_block(bad):
    # a config block of the same length, so the header's length field still fits
    blob = encode_checkpoint(KIND_CAE, {"a": "zz"}, {})
    assert blob[11:] == b'{"a":"zz"}' and len(bad) == len(blob[11:])
    with pytest.raises(CheckpointFormatError, match="config block does not parse"):
        decode_checkpoint(blob[:11] + bad)


def test_write_rejects_unknown_kind():
    with pytest.raises(ArgumentError, match="unknown model kind 7"):
        write_checkpoint(io.BytesIO(), 7, {}, {})


def test_decode_rejects_duplicate_names():
    record = encode_checkpoint(KIND_CAE, {}, {"t": np.ones(1)})
    header = encode_checkpoint(KIND_CAE, {}, {})
    doubled = record + record[len(header):]
    with pytest.raises(CheckpointFormatError):
        decode_checkpoint(doubled)


def test_decode_rejects_non_utf8_record_name():
    blob = encode_checkpoint(KIND_CNN, {}, {"ab": np.ones(1)})
    bad = blob.replace(b"\x02\x00ab", b"\x02\x00\xff\xfe")
    assert bad != blob
    with pytest.raises(CheckpointFormatError, match="not UTF-8"):
        decode_checkpoint(bad)


def test_decode_roundtrips_tensors():
    tensors = {"a": np.arange(12, dtype=np.float64).reshape(3, 4),
               "b": Rng(5).uniform_array((2, 2, 2), -1.0, 1.0)}
    kind, config, back = decode_checkpoint(
        encode_checkpoint(KIND_CNN, {"x": [1, 2]}, tensors))
    assert kind == KIND_CNN
    assert config == {"x": [1, 2]}
    assert set(back) == {"a", "b"}
    for name in tensors:
        npt.assert_array_equal(back[name], tensors[name])
        assert back[name].dtype == np.float64


# ---------------------------------------------------------------------------
# file roundtrips
# ---------------------------------------------------------------------------

def test_save_twice_identical_bytes(tmp_path):
    model = small_cae()
    p1, p2 = tmp_path / "a.dpnt", tmp_path / "b.dpnt"
    n1 = save_checkpoint(model, p1)
    n2 = save_checkpoint(model, p2)
    assert n1 == n2 == p1.stat().st_size
    assert p1.read_bytes() == p2.read_bytes()


def test_save_rejects_non_model_and_writes_nothing(tmp_path):
    with pytest.raises(ArgumentError, match="cannot checkpoint object of type object"):
        save_checkpoint(object(), tmp_path / "x.dpnt")
    assert os.listdir(tmp_path) == []


def test_save_unwritable_path(tmp_path):
    with pytest.raises(CheckpointError):
        save_checkpoint(small_cae(), tmp_path / "no" / "such" / "dir" / "x.dpnt")


@pytest.mark.parametrize("failure, raised", [
    (OSError(errno.ENOSPC, "No space left on device"), CheckpointError),
    (KeyboardInterrupt(), KeyboardInterrupt),
])
def test_failed_save_keeps_previous_file(tmp_path, monkeypatch, failure, raised):
    path = tmp_path / "cae.dpnt"
    save_checkpoint(small_cae(seed=3), path)
    before = path.read_bytes()

    def torn_fsync(fd):
        # the new bytes are half on disk when the write dies
        os.ftruncate(fd, len(before) // 2)
        raise failure

    monkeypatch.setattr(os, "fsync", torn_fsync)
    with pytest.raises(raised):
        save_checkpoint(small_cae(seed=4), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["cae.dpnt"]


def test_save_replaces_existing_file(tmp_path):
    path, fresh = tmp_path / "cae.dpnt", tmp_path / "fresh.dpnt"
    save_checkpoint(small_cae(seed=3), path)
    save_checkpoint(small_cae(seed=4), path)
    save_checkpoint(small_cae(seed=4), fresh)
    assert path.read_bytes() == fresh.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["cae.dpnt", "fresh.dpnt"]


def test_cae_roundtrip_bit_exact(tmp_path):
    model = small_cae(tied=True)
    path = tmp_path / "cae.dpnt"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    assert back.config == model.config
    for k, v in model.named_parameters().items():
        npt.assert_array_equal(back.named_parameters()[k], v)


def test_tied_checkpoint_has_no_decoder_kernels(tmp_path):
    path = tmp_path / "cae.dpnt"
    save_checkpoint(small_cae(tied=True), path)
    with open(path, "rb") as fh:
        _, _, tensors = read_checkpoint(fh)
    assert set(tensors) == {"enc1.W", "enc1.b", "enc2.W", "enc2.b",
                            "dec1.b", "dec2.b"}


def test_reloaded_tied_decoder_kernels_view_encoder_kernels(tmp_path):
    path = tmp_path / "cae.dpnt"
    save_checkpoint(small_cae(tied=True), path)
    back = load_checkpoint(path)
    # a reload saves no decoder kernel either
    assert sorted(stage_parameters(back.stages)) == ["dec1.b", "dec2.b", "enc1.W", "enc1.b",
                                                     "enc2.W", "enc2.b"]
    for dec, enc in (("dec1", "enc1"), ("dec2", "enc2")):
        assert np.shares_memory(back.layer(dec).weights, back.layer(enc).weights)
    assert [(st.name, st.ref) for st in back.stages if st.kind == "deconv"] == \
        [("dec2", "enc2"), ("dec1", "enc1")]


def test_untied_roundtrip_keeps_kernels(tmp_path):
    model = small_cae(tied=False)
    path = tmp_path / "cae.dpnt"
    save_checkpoint(model, path)
    with open(path, "rb") as fh:
        _, _, tensors = read_checkpoint(fh)
    assert "dec1.W" in tensors and "dec2.W" in tensors
    back = load_checkpoint(path)
    assert not back.config.tied_decoder
    npt.assert_array_equal(back.layer("dec1").weights, model.layer("dec1").weights)
    npt.assert_array_equal(back.layer("dec2").weights, model.layer("dec2").weights)


def test_loaded_tied_cae_reconstructs_identically(tmp_path):
    model = small_cae(tied=True)
    path = tmp_path / "cae.dpnt"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    x = Rng(9).uniform_array((3, 8, 8), 0.0, 1.0)
    npt.assert_array_equal(back.forward(x)[0], model.forward(x)[0])


def test_cnn_roundtrip_bit_exact(tmp_path):
    model = small_cnn()
    path = tmp_path / "cnn.dpnt"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    assert back.config == model.config
    for k, v in model.named_parameters().items():
        npt.assert_array_equal(back.named_parameters()[k], v)


def test_frozen_cnn_still_saves_encoder(tmp_path):
    model = small_cnn(freeze=True)
    path = tmp_path / "cnn.dpnt"
    save_checkpoint(model, path)
    with open(path, "rb") as fh:
        _, _, tensors = read_checkpoint(fh)
    assert {"enc1.W", "enc1.b", "enc2.W", "enc2.b"} <= set(tensors)
    back = load_checkpoint(path)
    assert back.config.freeze_encoder
    npt.assert_array_equal(back.layer("enc1").weights, model.layer("enc1").weights)


def test_cnn_prediction_battery_bit_identical(tmp_path):
    model = small_cnn()
    path = tmp_path / "cnn.dpnt"
    save_checkpoint(model, path)
    back = load_checkpoint(path)
    for i in range(10):
        x = Rng(100 + i).uniform_array((3, 8, 8), 0.0, 1.0)
        npt.assert_array_equal(back.forward(x)[0], model.forward(x)[0])


def test_load_missing_file(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "absent.dpnt")


def test_load_rejects_tensor_shape_mismatch(tmp_path):
    model = small_cae()
    tensors = stage_parameters(model.stages)
    tensors["enc1.b"] = np.zeros(7)  # wrong extent for 2 channels
    blob = encode_checkpoint(KIND_CAE, _config_block(model), tensors)
    path = tmp_path / "bad.dpnt"
    path.write_bytes(blob)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_load_rejects_missing_tensor(tmp_path):
    model = small_cae()
    tensors = stage_parameters(model.stages)
    del tensors["enc2.W"]
    blob = encode_checkpoint(KIND_CAE, _config_block(model), tensors)
    path = tmp_path / "bad.dpnt"
    path.write_bytes(blob)
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_load_rejects_unused_records(tmp_path):
    # a tied decoder's kernel is its encoder's, so a dec1.W record is unused too
    model = small_cae(tied=True)
    tensors = {**stage_parameters(model.stages), "dec1.W": np.ones((3, 2, 5, 5)),
               "junk": np.ones(1)}
    path = tmp_path / "bad.dpnt"
    path.write_bytes(encode_checkpoint(KIND_CAE, _config_block(model), tensors))
    with pytest.raises(CheckpointFormatError, match="does not use: 'dec1.W', 'junk'"):
        load_checkpoint(path)


def test_load_rejects_incomplete_config_block(tmp_path):
    # a missing config field must not fall back to a dataclass default
    model = small_cae()
    block = _config_block(model)
    del block["kernel"]
    path = tmp_path / "bad.dpnt"
    path.write_bytes(encode_checkpoint(KIND_CAE, block, stage_parameters(model.stages)))
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(path)


def test_load_rejects_non_object_config_block(tmp_path):
    path = tmp_path / "bad.dpnt"
    path.write_bytes(encode_checkpoint(KIND_CAE, [8, 8], {}))
    with pytest.raises(CheckpointFormatError, match="config block does not describe a model"):
        load_checkpoint(path)


MODELS = {
    "cae-tied": lambda: small_cae(tied=True),
    "cae-untied": lambda: small_cae(tied=False),
    "cnn": lambda: small_cnn(freeze=False),
    "cnn-frozen": lambda: small_cnn(freeze=True),
}


@pytest.mark.parametrize("name", MODELS)
def test_load_then_save_rewrites_the_same_bytes(tmp_path, name):
    first, second = tmp_path / "first.dpnt", tmp_path / "second.dpnt"
    save_checkpoint(MODELS[name](), first)
    save_checkpoint(load_checkpoint(first), second)
    assert second.read_bytes() == first.read_bytes()


def _not_its_model(keys):
    return f"config block does not match the model it describes at {keys}"


@pytest.mark.parametrize("name, changes, message", [
    ("cnn", {"n_classes": 3.0}, "n_classes must be an integer, got 3.0"),
    ("cnn", {"freeze_encoder": "no"}, "freeze_encoder must be a boolean, got 'no'"),
    ("cnn", {"kernel": 5.0}, "kernel must be an integer, got 5.0"),
    ("cae-tied", {"tied_decoder": 1}, "tied_decoder must be a boolean, got 1"),
    ("cae-tied", {"kernel": 4}, "kernel must be odd and positive, got 4"),
    ("cae-tied", {"hidden_activation": "sigmoid"}, _not_its_model("hidden_activation")),
    ("cae-untied", {"output_activation": "relu"}, _not_its_model("output_activation")),
    ("cnn", {"fc_activation": "sigmoid"}, _not_its_model("fc_activation")),
    ("cnn", {"conv_activation": "identity"}, _not_its_model("conv_activation")),
    ("cae-tied", {"input_channels": 1}, _not_its_model("input_channels")),
    # a float setting as an integer reads as the float, and writes back differently
    ("cae-tied", {"corruption_fraction": 0}, _not_its_model("corruption_fraction")),
    ("cae-tied", {"extra": 1}, _not_its_model("extra")),
    ("cnn", {"extra": None, "fc_activation": "sigmoid"}, _not_its_model("extra, fc_activation")),
    ("cae-tied", {"fc_sizes": [8, 5]}, _not_its_model("fc_sizes")),
], ids=["float-n_classes", "string-freeze_encoder", "float-kernel", "int-tied_decoder",
        "even-kernel", "sigmoid-hidden", "relu-output", "sigmoid-fc", "identity-conv",
        "one-input-channel", "int-corruption_fraction", "extra-key", "null-extra-key",
        "classifier-key-in-autoencoder"])
def test_load_rejects_config_block_it_would_not_write(tmp_path, name, changes, message):
    model = MODELS[name]()
    kind = KIND_CNN if name.startswith("cnn") else KIND_CAE
    path = tmp_path / "bad.dpnt"
    path.write_bytes(encode_checkpoint(kind, {**_config_block(model), **changes},
                                       stage_parameters(model.stages)))
    with pytest.raises(CheckpointFormatError, match=re.escape(message)):
        load_checkpoint(path)
