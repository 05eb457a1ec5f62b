"""Painter attribution by transfer from a denoising convolutional autoencoder.

Pipeline: pretrain an autoencoder on unlabeled images, extract its
convolutional encoder, attach a fully connected softmax head, fine-tune
on labeled images, evaluate with stratified cross-validation.  All
numerics are implemented directly on float64 numpy arrays, images as
(channels, height, width), and are deterministic given a seed.
"""

from .autoencoder import CAEConfig, CAEModel, build_cae, corrupt, encoder_extract, pretrain
from .classifier import CNNConfig, CNNModel, build_cnn, finetune, predict
from .errors import (
    ArgumentError,
    CheckpointError,
    ConfigError,
    DataError,
    EngineError,
    NumericError,
    ShapeError,
)
from .optim import SGDConfig, lr_at_epoch

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "CAEConfig",
    "CAEModel",
    "CheckpointError",
    "CNNConfig",
    "CNNModel",
    "ConfigError",
    "DataError",
    "EngineError",
    "NumericError",
    "SGDConfig",
    "ShapeError",
    "build_cae",
    "build_cnn",
    "corrupt",
    "encoder_extract",
    "finetune",
    "lr_at_epoch",
    "predict",
    "pretrain",
]
