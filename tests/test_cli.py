"""Command-line interface: exit codes, artifacts, output contracts."""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import paintnet
from paintnet.autoencoder import CAEConfig, build_cae, encoder_extract, stage_parameters
from paintnet.classifier import CNNConfig, build_cnn
from paintnet.cli import main
from paintnet.persist import (KIND_CNN, _config_block, load_checkpoint, save_checkpoint,
                              write_checkpoint)

from conftest import ASSETS, broken_builder, write_dataset


def run_cli(*argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def write_config(tmp_path: Path, **overrides) -> Path:
    base = {
        "input_size": [16, 16],
        "conv_channels": [2, 3],
        "fc_sizes": [8, 5],
        "kernel": 3,
        "batch_size": 4,
        "epochs_pretrain": 3,
        "epochs_finetune": 4,
        "folds": 2,
        "seed": 7,
        "checkpoint_dir": str(tmp_path / "ckpt"),
        "report_dir": str(tmp_path / "reports"),
        "data_root": str(tmp_path / "data"),
    }
    base.update(overrides)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(base))
    return path


# ---------------------------------------------------------------------------
# config handling and dry runs
# ---------------------------------------------------------------------------

def test_missing_config_exits_2(tmp_path):
    missing = tmp_path / "absent.json"
    code, _, err = run_cli("pretrain", "--config", str(missing))
    assert code == 2
    assert "absent.json" in err


def test_bad_threads_exits_2(tmp_path):
    cfg = write_config(tmp_path)
    code, _, err = run_cli("pretrain", "--config", str(cfg), "--threads", "0")
    assert code == 2
    assert "threads" in err


def test_unknown_config_key_exits_2(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"momentum": 0.9}))
    code, _, err = run_cli("pretrain", "--config", str(path))
    assert code == 2
    assert "momentum" in err


def test_config_not_utf8_exits_2_naming_it(tmp_path):
    # the UnicodeDecodeError once escaped load_run_config: a traceback and exit 1
    path = tmp_path / "run.json"
    path.write_bytes(b'{"seed": 7, "report_dir": "\xff"}')
    code, out, err = run_cli("pretrain", "--dry-run", "--config", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read config {path}: 'utf-8' codec can't decode byte 0xff")


def test_dry_run_echoes_config_and_writes_nothing(tmp_path):
    cfg = write_config(tmp_path)
    code, out, _ = run_cli("pretrain", "--config", str(cfg), "--dry-run")
    assert code == 0
    resolved = json.loads(out.splitlines()[0])
    assert resolved["input_size"] == [16, 16]
    assert resolved["seed"] == 7
    assert not (tmp_path / "ckpt").exists()
    assert not (tmp_path / "reports").exists()


# sha256 of each --dry-run stdout for the shipped profiles; the echo and the
# shape chains are the contract a reader audits a run by
DRY_RUN_DIGESTS = {
    ("desk.json", "pretrain"): "9217d6e0387dc4408ddff79a806aa17cf60e55cbd1ecf4974682e9f4b82f59b3",
    ("desk.json", "finetune"): "c87cd61a01c39f9323db581e99a30fbd3e4a9749d1c956fe9ad7322cce2aa024",
    ("desk.json", "crossval"): "c87cd61a01c39f9323db581e99a30fbd3e4a9749d1c956fe9ad7322cce2aa024",
    ("desk.json", "evaluate"): "1298c6ab0efd54c3ecbe4ab7427616c95b402e0dfaa70a0ee63c0705c54c8d1d",
    ("full.json", "pretrain"): "8319d8ea3a81cde83567a9856928e1c9c32bed92a1300d2b6e8dfa3e467692ad",
    ("full.json", "finetune"): "eedd12a109868fd0b5af57b6683e5a455cf0a692943bff8f0294f48a7782fc5d",
    ("full.json", "crossval"): "eedd12a109868fd0b5af57b6683e5a455cf0a692943bff8f0294f48a7782fc5d",
    ("full.json", "evaluate"): "b402ba7314b7c8d037e79fcc2b679351ae614f35fa125a52d4b46ec8814eada9",
}


@pytest.mark.parametrize("profile,command", sorted(DRY_RUN_DIGESTS))
def test_dry_run_stdout_is_pinned(profile, command):
    code, out, err = run_cli(command, "--config", str(ASSETS / profile), "--dry-run")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == DRY_RUN_DIGESTS[profile, command], out


@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_non_finite_lr0_exits_2(tmp_path, value):
    cfg = write_config(tmp_path)
    cfg.write_text(cfg.read_text().replace("{", f'{{"lr0": {value}, ', 1))
    code, out, err = run_cli("pretrain", "--config", str(cfg), "--dry-run")
    assert code == 2
    assert err == f"error: {cfg}: lr0 must be finite, got {float(value)}\n"
    assert out == ""


def test_seed_override_reaches_resolved_config(tmp_path):
    cfg = write_config(tmp_path)
    code, out, _ = run_cli("pretrain", "--config", str(cfg),
                           "--seed", "42", "--dry-run")
    assert code == 0
    assert json.loads(out.splitlines()[0])["seed"] == 42


def test_full_scale_shape_chain():
    cfg = ASSETS / "full.json"
    code, out, _ = run_cli("pretrain", "--config", str(cfg), "--dry-run")
    assert code == 0
    assert ("shape chain: 3x256x256 -> 100x256x256 -> 100x128x128 "
            "-> 200x128x128 -> 200x64x64") in out

    code, out, _ = run_cli("finetune", "--config", str(cfg), "--dry-run")
    assert code == 0
    assert "cnn head: 400 -> 200 -> 3" in out


# ---------------------------------------------------------------------------
# pretrain
# ---------------------------------------------------------------------------

def test_pretrain_requires_manifest_setting(tmp_path):
    cfg = write_config(tmp_path)  # no pretrain_manifest
    code, _, err = run_cli("pretrain", "--config", str(cfg))
    assert code == 2
    assert "pretrain_manifest" in err


def test_pretrain_missing_image_exits_3(tmp_path):
    manifest = tmp_path / "data" / "manifest.csv"
    manifest.parent.mkdir(parents=True)
    manifest.write_text("path,label\nghost.ppm,x\n")
    cfg = write_config(tmp_path, pretrain_manifest=str(manifest))
    code, _, err = run_cli("pretrain", "--config", str(cfg))
    assert code == 3
    assert "ghost.ppm" in err


@pytest.mark.parametrize("command", ["pretrain", "evaluate"])
def test_manifest_not_utf8_exits_3_naming_it(tmp_path, command):
    # the UnicodeDecodeError once escaped load_manifest: a traceback and exit 1
    manifest = tmp_path / "manifest.csv"
    manifest.write_bytes(b"path,label\n\xffa.ppm,x\n")
    argv = ["--config", str(write_config(tmp_path, pretrain_manifest=str(manifest)))]
    if command == "evaluate":
        cae = build_cae(CAEConfig(input_size=(16, 16), conv_channels=(2, 3), kernel=3), seed=1)
        ckpt = tmp_path / "cnn.dpnt"
        save_checkpoint(build_cnn(encoder_extract(cae), CNNConfig(fc_sizes=(8, 5)), seed=2), ckpt)
        argv += ["--checkpoint", str(ckpt), "--manifest", str(manifest)]
    code, _, err = run_cli(command, *argv)
    assert code == 3
    assert err.startswith(f"error: cannot read manifest {manifest}: "
                          "'utf-8' codec can't decode byte 0xff")


def test_manifest_path_with_nul_byte_exits_3_naming_its_line(tmp_path):
    # reading the image once raised ValueError (embedded null byte): a traceback and exit 1
    manifest = write_dataset(tmp_path / "data", n_per_class=2, side=16, seed=5)
    with open(manifest, "a", encoding="utf-8") as fh:
        fh.write("gamma/\0.ppm,gamma\n")
    cfg = write_config(tmp_path, pretrain_manifest=str(manifest))
    code, out, err = run_cli("pretrain", "--config", str(cfg))
    assert code == 3
    assert err == f"error: {manifest}:8: path 'gamma/\\x00.ppm' holds a NUL byte\n"
    assert "wrote" not in out


def test_pretrain_truncated_image_exits_3_naming_it(tmp_path):
    manifest = write_dataset(tmp_path / "data", n_per_class=2, side=16, seed=1)
    bad = tmp_path / "data" / "beta" / "001.ppm"
    bad.write_bytes(b"P6 4 4 255\n" + bytes(2))
    cfg = write_config(tmp_path, pretrain_manifest=str(manifest))
    code, _, err = run_cli("pretrain", "--config", str(cfg))
    assert code == 3
    assert str(bad) in err
    assert "payload truncated: need 48 bytes, have 2" in err


def test_pretrain_writes_artifacts(tmp_path):
    manifest = write_dataset(tmp_path / "data", n_per_class=2, side=16, seed=1)
    cfg = write_config(tmp_path, pretrain_manifest=str(manifest))
    code, out, _ = run_cli("pretrain", "--config", str(cfg))
    assert code == 0
    assert (tmp_path / "ckpt" / "cae.dpnt").exists()
    csv = (tmp_path / "reports" / "pretrain_loss.csv").read_text().splitlines()
    assert csv[0] == "epoch,lr,mean_loss"
    assert len(csv) == 1 + 3  # header + epochs_pretrain rows
    assert "wrote" in out


def test_blas_thread_count_does_not_change_pretrain_checkpoint(tmp_path):
    # at 32px with 32 and 64 channels, OpenBLAS splits some conv products over two threads
    manifest = write_dataset(tmp_path / "data", n_per_class=3, side=32, seed=3)
    src = str(Path(paintnet.__file__).resolve().parents[1])
    written = []
    for blas_threads in ("1", "2"):
        out = tmp_path / f"blas{blas_threads}"
        out.mkdir()
        cfg = write_config(out, pretrain_manifest=str(manifest), data_root=str(tmp_path / "data"),
                           input_size=[32, 32], conv_channels=[32, 64], kernel=5,
                           epochs_pretrain=1)
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": blas_threads}
        done = subprocess.run([sys.executable, "-m", "paintnet", "pretrain", "--config", str(cfg)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        written.append((out / "ckpt" / "cae.dpnt").read_bytes())
    assert written[0] == written[1]


# ---------------------------------------------------------------------------
# finetune
# ---------------------------------------------------------------------------

def test_finetune_full_run_after_pretrain(tmp_path):
    manifest = write_dataset(tmp_path / "data", n_per_class=3, side=16, seed=2)
    cfg = write_config(tmp_path, pretrain_manifest=str(manifest),
                       labeled_manifest=str(manifest))
    assert run_cli("pretrain", "--config", str(cfg))[0] == 0
    code, out, _ = run_cli("finetune", "--config", str(cfg))
    assert code == 0
    assert "encoder from" in out and "cae.dpnt" in out
    assert (tmp_path / "ckpt" / "cnn.dpnt").exists()
    csv = (tmp_path / "reports" / "finetune_loss.csv").read_text().splitlines()
    assert csv[0] == "epoch,lr,mean_loss,train_accuracy"
    assert len(csv) == 1 + 4
    assert "train accuracy" in out


def test_finetune_without_checkpoint_uses_random_encoder(tmp_path):
    manifest = write_dataset(tmp_path / "data", n_per_class=2, side=16, seed=3)
    cfg = write_config(tmp_path, labeled_manifest=str(manifest))
    code, out, _ = run_cli("finetune", "--config", str(cfg))
    assert code == 0
    assert "random init" in out


def test_finetune_class_count_mismatch_exits_3(tmp_path):
    manifest = write_dataset(tmp_path / "data", n_per_class=2, side=16, seed=4,
                             labels=("alpha", "beta"))
    cfg = write_config(tmp_path, labeled_manifest=str(manifest))
    code, _, err = run_cli("finetune", "--config", str(cfg))
    assert code == 3
    assert "classes" in err


@pytest.mark.parametrize("command", ["pretrain", "finetune", "crossval"])
@pytest.mark.parametrize("below", [(), ("sub",)])
@pytest.mark.parametrize("setting,other", [("checkpoint_dir", "reports"), ("report_dir", "ckpt")])
def test_output_dir_that_cannot_be_made_exits_2_before_any_read(tmp_path, setting, other,
                                                                below, command):
    # without the check, the run trained and then died making the directory
    manifest = write_dataset(tmp_path / "data", n_per_class=2, side=16, seed=5)
    (tmp_path / "data" / "alpha" / "000.ppm").unlink()  # a read would exit 3
    taken = tmp_path / "taken"
    taken.write_text("a file")
    cfg = write_config(tmp_path, pretrain_manifest=str(manifest), labeled_manifest=str(manifest),
                       **{setting: str(taken.joinpath(*below))})
    code, _, err = run_cli(command, "--config", str(cfg))
    assert code == 2
    assert err == (f"error: {setting} {taken.joinpath(*below)} cannot be made: "
                   f"{taken} is not a writable directory\n")
    assert not (tmp_path / other).exists()


@pytest.mark.parametrize("command,report", [("pretrain", "pretrain_loss.csv"),
                                            ("finetune", "finetune_loss.csv"),
                                            ("crossval", "crossval_report.csv")])
def test_report_path_taken_by_a_directory_exits_2_naming_it(tmp_path, command, report):
    # the run trained and wrote its checkpoint, then died writing the report
    # with a traceback and exit 1, the check-failure code
    manifest = write_dataset(tmp_path / "data", n_per_class=2, side=16, seed=5)
    taken = tmp_path / "reports" / report
    taken.mkdir(parents=True)
    cfg = write_config(tmp_path, pretrain_manifest=str(manifest), labeled_manifest=str(manifest),
                       epochs_pretrain=1, epochs_finetune=1)
    code, _, err = run_cli(command, "--config", str(cfg))
    assert code == 2
    assert err.startswith(f"error: cannot write report {taken}: ")
    assert "Is a directory" in err


def test_input_channels_key_exits_2_before_any_read(tmp_path):
    # images are always RGB, so the input channel count is not a setting
    manifest = write_dataset(tmp_path / "data", n_per_class=2, side=16, seed=5)
    (tmp_path / "data" / "alpha" / "000.ppm").unlink()  # a read would exit 3
    cfg = write_config(tmp_path, pretrain_manifest=str(manifest), input_channels=1)
    code, out, err = run_cli("pretrain", "--config", str(cfg))
    assert code == 2
    assert "unknown config keys ['input_channels']" in err
    assert out == ""


@pytest.mark.parametrize("command", ["finetune", "crossval"])
@pytest.mark.parametrize("field,value", [("conv_channels", [4, 5]), ("kernel", 5),
                                         ("input_size", [32, 32])])
def test_mismatched_autoencoder_checkpoint_exits_4(tmp_path, command, field, value):
    manifest = write_dataset(tmp_path / "data", n_per_class=4, side=16, seed=5)
    (tmp_path / "data" / "alpha" / "000.ppm").unlink()  # the check comes before any read
    (tmp_path / "ckpt").mkdir()
    save_checkpoint(build_cae(CAEConfig(input_size=(16, 16), conv_channels=(2, 3), kernel=3),
                              seed=0), tmp_path / "ckpt" / "cae.dpnt")
    cfg = write_config(tmp_path, labeled_manifest=str(manifest), **{field: value})
    code, _, err = run_cli(command, "--config", str(cfg))
    assert code == 4
    assert f"has {field} " in err
    assert [p.name for p in (tmp_path / "ckpt").iterdir()] == ["cae.dpnt"]


def test_classifier_in_place_of_autoencoder_checkpoint_exits_4(tmp_path):
    manifest = write_dataset(tmp_path / "data", n_per_class=2, side=16, seed=5)
    cae = build_cae(CAEConfig(input_size=(16, 16), conv_channels=(2, 3), kernel=3), seed=0)
    (tmp_path / "ckpt").mkdir()
    save_checkpoint(build_cnn(encoder_extract(cae), CNNConfig(fc_sizes=(8, 5)), seed=1),
                    tmp_path / "ckpt" / "cae.dpnt")
    cfg = write_config(tmp_path, labeled_manifest=str(manifest))
    code, _, err = run_cli("finetune", "--config", str(cfg))
    assert code == 4
    assert "not an autoencoder" in err


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_diverged_training_exits_5_and_writes_no_checkpoint(tmp_path, command):
    # huge but finite weights after a step overflow the next batch's forward
    manifest = write_dataset(tmp_path / "data", n_per_class=2, side=16, seed=1)
    cfg = write_config(tmp_path, pretrain_manifest=str(manifest),
                       labeled_manifest=str(manifest), lr0=1e300)
    code, _, err = run_cli(command, "--config", str(cfg))
    assert code == 5
    # the one error line, no numpy overflow warning beside it
    assert re.fullmatch(rf"error: {command} epoch \d+, batch \d+: \w+\.[Wb] is not finite "
                        r"after the SGD step\n", err)
    assert not (tmp_path / "ckpt").exists()


def test_overflowing_last_step_exits_5_and_writes_no_checkpoint(tmp_path):
    # one batch, one epoch: the gradient is finite, lr * gradient overflows the weights,
    # and no later batch is left to see them
    manifest = write_dataset(tmp_path / "data", n_per_class=4, side=16, seed=1)
    cfg = write_config(tmp_path, labeled_manifest=str(manifest), lr0=1.7e308,
                       batch_size=12, epochs_finetune=1)
    code, _, err = run_cli("finetune", "--config", str(cfg))
    assert code == 5
    # the one error line, no numpy overflow warning beside it
    assert re.fullmatch(r"error: finetune epoch 0, batch 0: \w+\.[Wb] is not finite "
                        r"after the SGD step\n", err)
    assert not (tmp_path / "ckpt").exists()


# ---------------------------------------------------------------------------
# crossval
# ---------------------------------------------------------------------------

def test_crossval_writes_report_and_fold_checkpoints(tmp_path):
    manifest = write_dataset(tmp_path / "data", n_per_class=4, side=16, seed=5)
    cfg = write_config(tmp_path, labeled_manifest=str(manifest),
                       epochs_finetune=2)
    code, out, _ = run_cli("crossval", "--config", str(cfg))
    assert code == 0
    assert "fold 0 accuracy" in out and "fold 1 accuracy" in out
    assert "mean" in out and "sd" in out
    folds = [tmp_path / "ckpt" / f"fold_{i:02d}.dpnt" for i in range(2)]
    assert [ln for ln in out.splitlines() if ln.endswith(" bytes)")] == \
        [f"wrote {p} ({p.stat().st_size} bytes)" for p in folds]
    csv = (tmp_path / "reports" / "crossval_report.csv").read_text().splitlines()
    assert csv[0] == "fold,accuracy"
    assert len(csv) == 1 + 2 + 2  # header, fold rows, mean, sd_population
    assert csv[-1].startswith("sd_population,")


def test_crossval_rejects_more_folds_than_largest_class(tmp_path):
    # 3 classes of 2 images: a fourth fold would be empty
    manifest = write_dataset(tmp_path / "data", n_per_class=2, side=16, seed=5)
    (tmp_path / "data" / "alpha" / "000.ppm").unlink()  # the split fails before any read
    cfg = write_config(tmp_path, labeled_manifest=str(manifest), folds=4)
    code, out, err = run_cli("crossval", "--config", str(cfg))
    assert code == 2
    assert "k=4" in err and "largest class count 2" in err
    assert "fold 0 accuracy" not in out
    assert not list((tmp_path / "ckpt").glob("fold_*.dpnt"))


def test_crossval_reads_autoencoder_checkpoint_once(tmp_path, monkeypatch):
    import paintnet.cli as cli
    manifest = write_dataset(tmp_path / "data", n_per_class=4, side=16, seed=5)
    cfg = write_config(tmp_path, pretrain_manifest=str(manifest),
                       labeled_manifest=str(manifest), epochs_pretrain=1,
                       epochs_finetune=1)
    assert run_cli("pretrain", "--config", str(cfg))[0] == 0
    loaded = []
    monkeypatch.setattr(cli, "load_checkpoint",
                        lambda path: loaded.append(path) or load_checkpoint(path))
    code, out, _ = run_cli("crossval", "--config", str(cfg))
    assert code == 0
    assert loaded == [tmp_path / "ckpt" / "cae.dpnt"]
    assert out.count(f"encoder from {tmp_path / 'ckpt' / 'cae.dpnt'}") == 2


def test_crossval_deterministic_reports(tmp_path):
    manifest = write_dataset(tmp_path / "data", n_per_class=4, side=16, seed=6)
    reports = []
    for run in ("one", "two"):
        cfg = write_config(tmp_path, labeled_manifest=str(manifest),
                           epochs_finetune=2,
                           checkpoint_dir=str(tmp_path / run / "ckpt"),
                           report_dir=str(tmp_path / run / "reports"))
        assert run_cli("crossval", "--config", str(cfg))[0] == 0
        reports.append((tmp_path / run / "reports" / "crossval_report.csv").read_bytes())
    assert reports[0] == reports[1]


def test_crossval_rejects_single_fold(tmp_path):
    cfg = write_config(tmp_path, folds=1)
    code, _, err = run_cli("crossval", "--config", str(cfg))
    assert code == 2
    assert "folds" in err


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_corrupt_checkpoint_exits_4(tmp_path):
    bad = tmp_path / "bad.dpnt"
    bad.write_bytes(b"not a checkpoint at all")
    cfg = write_config(tmp_path)
    code, _, err = run_cli("evaluate", "--config", str(cfg),
                           "--checkpoint", str(bad))
    assert code == 4
    assert "error" in err


def test_evaluate_checkpoint_truncated_on_disk_exits_4(tmp_path):
    cae = build_cae(CAEConfig(input_size=(16, 16), conv_channels=(2, 3), kernel=3), seed=0)
    model = build_cnn(encoder_extract(cae), CNNConfig(fc_sizes=(8, 5)), seed=1)
    ckpt = tmp_path / "cnn.dpnt"
    size = save_checkpoint(model, ckpt)
    os.truncate(ckpt, size - 8)  # the last payload loses its last float
    cfg = write_config(tmp_path)
    code, _, err = run_cli("evaluate", "--config", str(cfg), "--checkpoint", str(ckpt))
    assert code == 4
    assert re.fullmatch(r"error: truncated checkpoint: needed \d+ bytes for record 'out\.b' "
                        r"payload at offset \d+\n", err)


def test_evaluate_mistyped_config_block_exits_4_without_traceback(tmp_path):
    # a float n_classes once loaded, then died in metrics.evaluate with a TypeError
    cae = build_cae(CAEConfig(input_size=(16, 16), conv_channels=(2, 3), kernel=3), seed=0)
    model = build_cnn(encoder_extract(cae), CNNConfig(fc_sizes=(8, 5)), seed=1)
    ckpt = tmp_path / "cnn.dpnt"
    with open(ckpt, "wb") as fh:
        write_checkpoint(fh, KIND_CNN, {**_config_block(model), "n_classes": 3.0},
                         stage_parameters(model.stages))
    cfg = write_config(tmp_path)
    code, _, err = run_cli("evaluate", "--config", str(cfg), "--checkpoint", str(ckpt))
    assert code == 4
    assert err == ("error: config block does not describe a model: ConfigError('checkpoint "
                   "config block: n_classes must be an integer, got 3.0')\n")


def test_evaluate_rejects_autoencoder_checkpoint(tmp_path):
    cae = build_cae(CAEConfig(input_size=(16, 16), conv_channels=(2, 3),
                              kernel=3), seed=0)
    ckpt = tmp_path / "cae.dpnt"
    save_checkpoint(cae, ckpt)
    cfg = write_config(tmp_path)
    code, _, err = run_cli("evaluate", "--config", str(cfg),
                           "--checkpoint", str(ckpt))
    assert code == 4
    assert "autoencoder" in err


def test_evaluate_constant_model_puts_every_image_in_class_0(tmp_path):
    # a zeroed head always predicts class 0, so only class 0's images are hits
    cae = build_cae(CAEConfig(input_size=(16, 16), conv_channels=(2, 3),
                              kernel=3), seed=1)
    model = build_cnn(encoder_extract(cae),
                      CNNConfig(fc_sizes=(8, 5), n_classes=3), seed=2)
    model.layer("out").weights[:] = 0.0
    model.layer("out").bias[:] = 0.0
    ckpt = tmp_path / "cnn.dpnt"
    save_checkpoint(model, ckpt)

    manifest = write_dataset(tmp_path / "data", n_per_class=3, side=16, seed=7)
    cfg = write_config(tmp_path)
    code, out, _ = run_cli("evaluate", "--config", str(cfg),
                           "--checkpoint", str(ckpt),
                           "--manifest", str(manifest))
    assert code == 0
    assert "confusion rows=true cols=predicted\n3 0 0\n3 0 0\n3 0 0\n" in out
    assert "accuracy 0.3333" in out


@pytest.mark.parametrize("labels", [("a", "b", "c", "d"), ("b", "c")])
def test_evaluate_rejects_manifest_with_other_class_count(tmp_path, labels):
    cae = build_cae(CAEConfig(input_size=(16, 16), conv_channels=(2, 3), kernel=3), seed=1)
    ckpt = tmp_path / "cnn.dpnt"
    save_checkpoint(build_cnn(encoder_extract(cae), CNNConfig(fc_sizes=(8, 5), n_classes=3),
                              seed=2), ckpt)
    manifest = write_dataset(tmp_path / "data", n_per_class=2, side=16, seed=7, labels=labels)
    (tmp_path / "data" / "b" / "000.ppm").unlink()  # the check comes before any read
    code, out, err = run_cli("evaluate", "--config", str(write_config(tmp_path)),
                             "--checkpoint", str(ckpt), "--manifest", str(manifest))
    assert code == 3
    assert f"has {len(labels)} classes, expected 3" in err
    assert "accuracy" not in out


def test_evaluate_output_is_internally_consistent(tmp_path):
    manifest = write_dataset(tmp_path / "data", n_per_class=3, side=16, seed=8)
    cfg = write_config(tmp_path, labeled_manifest=str(manifest))
    assert run_cli("finetune", "--config", str(cfg))[0] == 0
    code, out, _ = run_cli("evaluate", "--config", str(cfg))
    assert code == 0
    lines = out.splitlines()
    start = lines.index("confusion rows=true cols=predicted") + 1
    matrix = [[int(v) for v in lines[start + r].split()] for r in range(3)]
    total = sum(sum(row) for row in matrix)
    trace = sum(matrix[i][i] for i in range(3))
    assert total == 9
    printed = [l for l in lines if l.startswith("accuracy ")][0]
    assert printed == f"accuracy {trace / total:.4f}"


# ---------------------------------------------------------------------------
# gradcheck
# ---------------------------------------------------------------------------

def test_gradcheck_passes_with_component_rows():
    code, out, _ = run_cli("gradcheck")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "gradcheck PASS (9 components)"
    assert len(lines) == 10
    for line in lines[:-1]:
        assert line.endswith("PASS")


def test_gradcheck_perturbation_fails(monkeypatch):
    from paintnet import checks
    monkeypatch.setitem(checks._BUILDERS, "deconv_tied",
                        broken_builder(checks._BUILDERS["deconv_tied"]))
    code, out, _ = run_cli("gradcheck")
    assert code == 1
    lines = out.splitlines()
    assert lines[-1] == "gradcheck FAIL"
    assert len(lines) == 10
    failing = [l.split()[0] for l in lines[:-1] if l.endswith("FAIL")]
    assert failing == ["deconv_tied"]


def test_unknown_subcommand_exits_2():
    code, _, _ = run_cli("frobnicate")
    assert code == 2
