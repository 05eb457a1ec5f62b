"""Command-line entry point for the whole pipeline.

Subcommands: pretrain, finetune, crossval, evaluate, gradcheck.  One
JSON config drives everything; the resolved config (defaults filled in)
is echoed as the first line of output so runs are auditable.

Exit codes: 0 success, 1 check failure, 2 config or argument error,
3 data error, 4 checkpoint error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .autoencoder import build_cae, encoder_extract, pretrain, shape_chain
from .checks import run_gradcheck
from .classifier import finetune
from .config import RunConfig, load_run_config
from .data.image import decode_ppm, resample_bilinear, to_tensor
from .data.manifest import DatasetManifest, kfold_split, load_manifest
from .data.rng import Rng
from .errors import (
    ArgumentError,
    CheckpointError,
    ConfigError,
    DataError,
    EngineError,
)
from .metrics import accuracy, crossval_aggregate, evaluate, report_csv
from .persist import load_checkpoint, save_checkpoint
from .tensor import Tensor

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CHECKPOINT = 4

CAE_CHECKPOINT = "cae.dpnt"
CNN_CHECKPOINT = "cnn.dpnt"


def _resolve_config(args) -> RunConfig:
    config = load_run_config(args.config) if args.config else RunConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "threads", None) is not None:
        if args.threads < 1:
            raise ArgumentError(f"--threads must be >= 1, got {args.threads}")
        overrides["threads"] = args.threads
    if overrides:
        from dataclasses import replace
        config = replace(config, **overrides)
    return config


def _chain_text(shapes) -> str:
    return " -> ".join(f"{c}x{h}x{w}" for c, h, w in shapes)


def _echo_config(config: RunConfig):
    print(json.dumps(config.resolved(), sort_keys=True))


def _echo_shapes(config: RunConfig, head: bool):
    chain = shape_chain(config.cae_config())
    print("shape chain:", _chain_text(chain[:5]))
    if head:
        f1, f2 = config.fc_sizes
        print(f"cnn head: {f1} -> {f2} -> {config.n_classes}")
    else:
        print("decoder chain:", _chain_text(chain[4:]))


def _read_image(root: str, rel_path: str, size: tuple[int, int]) -> Tensor:
    p = Path(root, rel_path)
    try:
        data = p.read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read image {p}: {exc}") from exc
    return to_tensor(resample_bilinear(decode_ppm(data), size))


def _load_samples(manifest: DatasetManifest, root: str,
                  size: tuple[int, int]) -> list[tuple[Tensor, int]]:
    """Every manifest image, read from root and resampled to size, with its class index."""
    return [(_read_image(root, e.path, size), e.class_index) for e in manifest.entries]


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")


def _checkpoint_path(config: RunConfig, name: str) -> Path:
    return Path(config.checkpoint_dir) / name


def _require_manifest(path_setting: str | None, what: str) -> DatasetManifest:
    if path_setting is None:
        raise ConfigError(f"{what} is not set in the config")
    return load_manifest(path_setting)


def _labeled_manifest(config: RunConfig) -> DatasetManifest:
    """The labeled manifest, checked to have the config's class count."""
    manifest = _require_manifest(config.labeled_manifest, "labeled_manifest")
    if len(manifest.classes) != config.n_classes:
        raise DataError(f"manifest has {len(manifest.classes)} classes, "
                        f"config expects {config.n_classes}")
    return manifest


def cmd_pretrain(args) -> int:
    config = _resolve_config(args)
    _echo_config(config)
    _echo_shapes(config, head=False)
    if args.dry_run:
        return EXIT_OK
    manifest = _require_manifest(config.pretrain_manifest, "pretrain_manifest")
    images = [x for x, _ in _load_samples(manifest, config.data_root, config.input_size)]
    model = build_cae(config.cae_config(), config.seed)
    model, log = pretrain(model, images, config.sgd_config(), config.epochs_pretrain,
                          config.seed, threads=config.threads)
    ckpt = _checkpoint_path(config, CAE_CHECKPOINT)
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    n_bytes = save_checkpoint(model, ckpt)
    print(f"wrote {ckpt} ({n_bytes} bytes)")
    rows = "".join(f"{e},{lr:.12g},{loss:.12g}\n" for e, lr, loss in log)
    _write_text(Path(config.report_dir) / "pretrain_loss.csv",
                "epoch,lr,mean_loss\n" + rows)
    return EXIT_OK


def _load_cae(config: RunConfig):
    """The pretrained autoencoder checkpoint, or None when there is none."""
    ckpt = _checkpoint_path(config, CAE_CHECKPOINT)
    return load_checkpoint(ckpt) if ckpt.exists() else None


def _encoder_for(config: RunConfig, cae, seed: int):
    """A copy of cae's encoder when it was loaded, a fresh init from seed otherwise."""
    if cae is not None:
        print(f"encoder from {_checkpoint_path(config, CAE_CHECKPOINT)}")
        return encoder_extract(cae)
    print("encoder from random init (no autoencoder checkpoint found)")
    return encoder_extract(build_cae(config.cae_config(), seed))


def cmd_finetune(args) -> int:
    config = _resolve_config(args)
    _echo_config(config)
    _echo_shapes(config, head=True)
    if args.dry_run:
        return EXIT_OK
    manifest = _labeled_manifest(config)
    samples = _load_samples(manifest, config.data_root, config.input_size)
    from .classifier import build_cnn
    encoder = _encoder_for(config, _load_cae(config), config.seed)
    model = build_cnn(encoder, config.cnn_config(), config.seed)
    model, log = finetune(model, samples, config.sgd_config(),
                          config.epochs_finetune, config.seed)
    ckpt = _checkpoint_path(config, CNN_CHECKPOINT)
    ckpt.parent.mkdir(parents=True, exist_ok=True)
    n_bytes = save_checkpoint(model, ckpt)
    print(f"wrote {ckpt} ({n_bytes} bytes)")
    rows = "".join(f"{e},{lr:.12g},{loss:.12g},{acc:.6f}\n" for e, lr, loss, acc in log)
    _write_text(Path(config.report_dir) / "finetune_loss.csv",
                "epoch,lr,mean_loss,train_accuracy\n" + rows)
    if log:
        print(f"train accuracy {log[-1][3]:.4f}")
    return EXIT_OK


def cmd_crossval(args) -> int:
    config = _resolve_config(args)
    _echo_config(config)
    _echo_shapes(config, head=True)
    if args.dry_run:
        return EXIT_OK
    manifest = _labeled_manifest(config)
    split = kfold_split(manifest, config.folds, config.seed)
    samples = _load_samples(manifest, config.data_root, config.input_size)

    from .classifier import build_cnn
    cae = _load_cae(config)
    fold_accuracies = []
    for fold in range(split.k):
        fold_seed = Rng.stream(config.seed, 0xCF, fold).next_u64()
        encoder = _encoder_for(config, cae, fold_seed)
        model = build_cnn(encoder, config.cnn_config(), fold_seed)
        train = [samples[i] for i in split.train_indices(fold)]
        val = [samples[i] for i in split.folds[fold]]
        model, _ = finetune(model, train, config.sgd_config(),
                            config.epochs_finetune, fold_seed)
        cm = evaluate(model, val)
        acc = accuracy(cm)
        fold_accuracies.append(acc)
        print(f"fold {fold} accuracy {acc:.4f}")
        ckpt = _checkpoint_path(config, f"fold_{fold:02d}.dpnt")
        ckpt.parent.mkdir(parents=True, exist_ok=True)
        save_checkpoint(model, ckpt)

    report = crossval_aggregate(fold_accuracies)
    print(f"mean {report.mean:.4f} sd {report.sd:.4f}")
    _write_text(Path(config.report_dir) / "crossval_report.csv", report_csv(report))
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = _resolve_config(args)
    _echo_config(config)
    if args.dry_run:
        return EXIT_OK
    ckpt = Path(args.checkpoint) if args.checkpoint \
        else _checkpoint_path(config, CNN_CHECKPOINT)
    model = load_checkpoint(ckpt)
    from .classifier import CNNModel
    if not isinstance(model, CNNModel):
        raise CheckpointError(f"{ckpt} holds an autoencoder, not a classifier")
    manifest_path = args.manifest or config.labeled_manifest
    manifest = _require_manifest(manifest_path, "labeled_manifest")
    samples = _load_samples(manifest, config.data_root, model.input_shape[1:])
    cm = evaluate(model, samples)
    print("confusion rows=true cols=predicted")
    for row in cm.counts:
        print(" ".join(str(int(v)) for v in row))
    print(f"accuracy {accuracy(cm):.4f}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    rows = run_gradcheck(perturb_component=args.perturb, scale=args.scale)
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
                        help="echo resolved config and shapes, write nothing")
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
    p.add_argument("--perturb", metavar="COMPONENT",
                   help="corrupt one component's analytic gradient (failure-path hook)")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
