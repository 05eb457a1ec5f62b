"""Command-line entry point for the whole pipeline.

Subcommands: pretrain, finetune, crossval, evaluate, gradcheck.  One
JSON config drives everything; the config, with defaults filled in,
is echoed as the first line of output so runs are auditable.

Exit codes: 0 success, 1 check failure, 2 config or argument error
(a report that cannot be written included), 3 data error, 4 checkpoint
error, 5 numeric divergence.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import classifier
from .autoencoder import (ENCODER_FIELDS, CAEModel, build_cae, encoder_extract, pretrain,
                          shape_chain)
from .checks import run_gradcheck
from .classifier import finetune
from .config import RunConfig, config_from_dict, load_run_config
from .data.image import decode_ppm, resample_bilinear, to_tensor
from .data.manifest import DatasetManifest, kfold_split, load_manifest
from .data.rng import Rng, Stream
from .errors import (
    CheckpointError,
    ConfigError,
    DataError,
    EngineError,
    ImageFormatError,
    ImageUnsupportedError,
    NumericError,
)
from .metrics import accuracy, crossval_aggregate, evaluate, report_csv
from .persist import load_checkpoint, save_checkpoint, write_atomic

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
# an EngineError's exit code: the first class it is an instance of, else EXIT_CONFIG
EXIT_CODES = ((DataError, 3), (CheckpointError, 4), (NumericError, 5))

CAE_CHECKPOINT = "cae.dpnt"
CNN_CHECKPOINT = "cnn.dpnt"


def _chain_text(shapes) -> str:
    return " -> ".join(f"{c}x{h}x{w}" for c, h, w in shapes)


def _prologue(args) -> RunConfig:
    """The config with defaults filled in, echoed with the command's shape chain.

    The config is the --config file (defaults without one) with --seed and
    --threads applied.
    """
    flags = {k: getattr(args, k) for k in ("seed", "threads") if getattr(args, k) is not None}
    config = load_run_config(args.config, flags) if args.config \
        else config_from_dict(flags, source="command line")
    print(json.dumps(asdict(config), sort_keys=True))
    if args.command != "evaluate":
        chain = shape_chain(config)
        print("shape chain:", _chain_text(chain[:5]))
        if args.command == "pretrain":
            print("decoder chain:", _chain_text(chain[4:]))
        else:
            f1, f2 = config.fc_sizes
            print(f"cnn head: {f1} -> {f2} -> {config.n_classes}")
    return config


def _read_image(root: str, rel_path: str, size: tuple[int, int]) -> np.ndarray:
    p = Path(root, rel_path)
    try:
        data = p.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read image {p}: {exc}") from exc
    try:
        img = decode_ppm(data)
    except (ImageFormatError, ImageUnsupportedError) as exc:
        raise type(exc)(f"{p}: {exc}") from exc
    return to_tensor(resample_bilinear(img, size))


def _load_samples(manifest: DatasetManifest, root: str,
                  size: tuple[int, int]) -> list[tuple[np.ndarray, int]]:
    """Every manifest image, read from root and resampled to size, with its class index."""
    return [(_read_image(root, e.path, size), e.class_index) for e in manifest.entries]


def _write_text(path: Path, text: str):
    """Replace the report at path whole, as checkpoints are replaced."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write_atomic(path, lambda fh: fh.write(text.encode("utf-8")))
    except OSError as exc:
        raise ConfigError(f"cannot write report {path}: {exc}") from exc
    print(f"wrote {path}")


def _checkpoint_path(config: RunConfig, name: str) -> Path:
    return Path(config.checkpoint_dir) / name


def _save(model, config: RunConfig, name: str):
    """Write model into the checkpoint directory and announce it."""
    ckpt = _checkpoint_path(config, name)
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    print(f"wrote {ckpt} ({save_checkpoint(model, ckpt)} bytes)")


def _check_output_dirs(config: RunConfig):
    """Fail now, not after training, where an output directory could not be made.

    Each directory's nearest existing ancestor must be a writable
    directory; nothing is created here.
    """
    for setting in ("checkpoint_dir", "report_dir"):
        path = Path(getattr(config, setting))
        found = next(p for p in (path, *path.parents) if os.path.lexists(p))
        if not (found.is_dir() and os.access(found, os.W_OK | os.X_OK)):
            raise ConfigError(f"{setting} {path} cannot be made: "
                              f"{found} is not a writable directory")


def _manifest(path_setting: str | None, what: str,
              n_classes: int | None = None) -> DatasetManifest:
    """The manifest at path_setting (the setting named what), checked to have
    n_classes classes, where given, before any image is read."""
    if path_setting is None:
        raise ConfigError(f"{what} is not set in the config")
    manifest = load_manifest(path_setting)
    if n_classes is not None and len(manifest.classes) != n_classes:
        raise DataError(f"manifest {path_setting} has {len(manifest.classes)} classes, "
                        f"expected {n_classes}")
    return manifest


def cmd_pretrain(config: RunConfig, args) -> int:
    manifest = _manifest(config.pretrain_manifest, "pretrain_manifest")
    images = [x for x, _ in _load_samples(manifest, config.data_root, config.input_size)]
    model = build_cae(config.cae_config(), config.seed)
    model, log = pretrain(model, images, config, config.epochs_pretrain,
                          config.seed, threads=config.threads)
    _save(model, config, CAE_CHECKPOINT)
    rows = "".join(f"{e},{lr:.12g},{loss:.12g}\n" for e, lr, loss in log)
    _write_text(Path(config.report_dir) / "pretrain_loss.csv",
                "epoch,lr,mean_loss\n" + rows)
    return EXIT_OK


def _load_cae(config: RunConfig) -> CAEModel | None:
    """The pretrained autoencoder, checked to have the config's encoder; None without one."""
    ckpt = _checkpoint_path(config, CAE_CHECKPOINT)
    if not ckpt.exists():
        return None
    cae = load_checkpoint(ckpt)
    if not isinstance(cae, CAEModel):
        raise CheckpointError(f"{ckpt} holds a classifier, not an autoencoder")
    for name in ENCODER_FIELDS:
        have, need = getattr(cae.config, name), getattr(config, name)
        if have != need:
            raise CheckpointError(f"{ckpt} has {name} {have}, the config says {need}")
    return cae


def _fit(config: RunConfig, cae: CAEModel | None, samples, seed: int):
    """A classifier on cae's encoder (a fresh one from seed without cae), fine-tuned."""
    if cae is None:
        print("encoder from random init (no autoencoder checkpoint found)")
        cae = build_cae(config.cae_config(), seed)
    else:
        print(f"encoder from {_checkpoint_path(config, CAE_CHECKPOINT)}")
    model = classifier.build_cnn(encoder_extract(cae), config.cnn_config(), seed)
    return finetune(model, samples, config, config.epochs_finetune, seed)


def cmd_finetune(config: RunConfig, args) -> int:
    manifest = _manifest(config.labeled_manifest, "labeled_manifest", config.n_classes)
    cae = _load_cae(config)
    samples = _load_samples(manifest, config.data_root, config.input_size)
    model, log = _fit(config, cae, samples, config.seed)
    _save(model, config, CNN_CHECKPOINT)
    rows = "".join(f"{e},{lr:.12g},{loss:.12g},{acc:.6f}\n" for e, lr, loss, acc in log)
    _write_text(Path(config.report_dir) / "finetune_loss.csv",
                "epoch,lr,mean_loss,train_accuracy\n" + rows)
    if log:
        print(f"train accuracy {log[-1][3]:.4f}")
    return EXIT_OK


def cmd_crossval(config: RunConfig, args) -> int:
    manifest = _manifest(config.labeled_manifest, "labeled_manifest", config.n_classes)
    split = kfold_split(manifest, config.folds, config.seed)
    cae = _load_cae(config)
    samples = _load_samples(manifest, config.data_root, config.input_size)
    fold_accuracies = []
    for fold in range(split.k):
        fold_seed = Rng.stream(config.seed, Stream.FOLD, fold).next_u64()
        model, _ = _fit(config, cae, [samples[i] for i in split.train_indices(fold)], fold_seed)
        acc = accuracy(evaluate(model, [samples[i] for i in split.folds[fold]]))
        fold_accuracies.append(acc)
        print(f"fold {fold} accuracy {acc:.4f}")
        _save(model, config, f"fold_{fold:02d}.dpnt")
        del model  # else it lives on through the next fold's fit

    report = crossval_aggregate(fold_accuracies)
    print(f"mean {report.mean:.4f} sd {report.sd:.4f}")
    _write_text(Path(config.report_dir) / "crossval_report.csv", report_csv(report))
    return EXIT_OK


def cmd_evaluate(config: RunConfig, args) -> int:
    ckpt = Path(args.checkpoint) if args.checkpoint \
        else _checkpoint_path(config, CNN_CHECKPOINT)
    model = load_checkpoint(ckpt)
    if isinstance(model, CAEModel):
        raise CheckpointError(f"{ckpt} holds an autoencoder, not a classifier")
    manifest = _manifest(args.manifest or config.labeled_manifest, "labeled_manifest",
                         model.config.n_classes)
    samples = _load_samples(manifest, config.data_root, model.input_shape[1:])
    cm = evaluate(model, samples)
    print("confusion rows=true cols=predicted")
    for row in cm.counts:
        print(" ".join(str(int(v)) for v in row))
    print(f"accuracy {accuracy(cm):.4f}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    rows = run_gradcheck(scale=args.scale)
    for row in rows:
        print(f"{row.component} {row.max_rel_error:.3e} {'PASS' if row.passed else 'FAIL'}")
    if all(r.passed for r in rows):
        print(f"gradcheck PASS ({len(rows)} components)")
        return EXIT_OK
    print("gradcheck FAIL")
    return EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paintnet",
        description="Autoencoder pretraining and classifier fine-tuning for "
                    "painter attribution.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration path")
    common.add_argument("--dry-run", action="store_true",
                        help="echo the filled-in config and shapes, write nothing")
    common.add_argument("--threads", type=int,
                        help="worker threads for pretrain's per-sample gradients; "
                             "the other commands run on one")
    common.add_argument("--seed", type=int, help="override the config seed")

    p = sub.add_parser("pretrain", parents=[common],
                       help="unsupervised denoising pretraining of the autoencoder")
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", parents=[common],
                       help="supervised training of the classifier on all labeled data")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("crossval", parents=[common],
                       help="stratified k-fold cross-validation")
    p.set_defaults(func=cmd_crossval)

    p = sub.add_parser("evaluate", parents=[common],
                       help="confusion matrix and accuracy of a saved classifier")
    p.add_argument("--checkpoint", help="classifier checkpoint path")
    p.add_argument("--manifest", help="labeled manifest path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck",
                       help="finite-difference verification of every gradient path")
    p.add_argument("--scale", choices=["small", "medium"], default="small",
                   help="size of the full-stack checks")
    return parser


def _keep_heap_mapped() -> None:
    """Under glibc, keep freed heap mapped for the rest of the process.

    Each sample allocates and frees its whole working set, and glibc's
    dynamic trim threshold handed it back to the kernel, so the next sample
    faulted it in again (64K minor faults a desk pretrain command).  Now
    only blocks of 32 MiB or more, glibc's largest mmap threshold, are
    returned when freed.  Without mallopt (not glibc) this does nothing.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (AttributeError, OSError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 2**31 - 1)  # M_TRIM_THRESHOLD


def main(argv=None) -> int:
    _keep_heap_mapped()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "gradcheck":
            return cmd_gradcheck(args)
        config = _prologue(args)
        if args.dry_run:
            return EXIT_OK
        if args.command != "evaluate":  # the others write checkpoints and reports
            _check_output_dirs(config)
        return args.func(config, args)
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((code for cls, code in EXIT_CODES if isinstance(exc, cls)), EXIT_CONFIG)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
