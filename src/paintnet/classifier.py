"""Supervised classifier built on a transferred convolutional encoder.

The encoder's pooled feature maps are flattened into a vector and fed
through two fully connected layers and a softmax output.  The encoder
weights can be frozen (feature extractor) or fine-tuned jointly with the
head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autoencoder import Stage, StageStack, TensorSource, seeded, train
from .data.rng import Rng, Stream
from .errors import ConfigError, DataError
from .layers import (
    DenseLayer,
    cross_entropy,
    softmax,
    softmax_xent_grad,
)
from .optim import SGDConfig
# not called here (the stage and training loops live in autoencoder.py),
# but perfbench/child.py patches these two names on this module
from .layers import maxpool2x2_backward  # noqa: F401
from .optim import sgd_step  # noqa: F401


@dataclass(frozen=True)
class CNNConfig:
    """Classifier head settings; the hidden layers are relu, the output is softmax."""

    fc_sizes: tuple[int, int] = (400, 200)
    n_classes: int = 3
    freeze_encoder: bool = False

    def __post_init__(self):
        f1, f2 = self.fc_sizes
        if f1 < 1 or f2 < 1:
            raise ConfigError(f"fully connected sizes must be >= 1, got {self.fc_sizes}")
        if self.n_classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.n_classes}")


class CNNModel(StageStack):
    """Encoder stages, flatten, two dense hidden layers, softmax over classes.

    A frozen encoder's stages get no gradients.
    """

    def __init__(self, config: CNNConfig, input_shape: tuple[int, int, int],
                 stages: list[Stage]):
        head = [st.kind for st in stages].index("flatten") + 1
        super().__init__(input_shape, stages, head if config.freeze_encoder else 0)
        self.config = config

    def forward(self, x: np.ndarray):
        """Class probabilities for one image; returns (probs, caches)."""
        logits, caches = super().forward(x)
        return softmax(logits), caches

    def loss(self, probs: np.ndarray, target: int) -> tuple[float, np.ndarray]:
        """Cross-entropy and its gradient at the logits; fuses softmax with the loss."""
        return cross_entropy(probs, target), softmax_xent_grad(probs, target)


def dense_stage(name: str, n_in: int, n_out: int, activation: str,
                tensor: TensorSource) -> Stage:
    return Stage(name, "dense", DenseLayer(tensor(f"{name}.W", (n_out, n_in)),
                                           tensor(f"{name}.b", (n_out,)), activation))


def assemble_cnn(encoder: StageStack, config: CNNConfig, tensor: TensorSource) -> CNNModel:
    """The encoder's stages plus flatten, fc1, fc2 and out, parameters from tensor."""
    _, h, w = encoder.input_shape
    features = encoder.layer("enc2").out_channels * (h // 4) * (w // 4)
    f1, f2 = config.fc_sizes
    head = [Stage("flatten", "flatten"),
            dense_stage("fc1", features, f1, "relu", tensor),
            dense_stage("fc2", f1, f2, "relu", tensor),
            dense_stage("out", f2, config.n_classes, "identity", tensor)]
    return CNNModel(config, encoder.input_shape, encoder.stages + head)


def build_cnn(encoder: StageStack, config: CNNConfig, seed: int) -> CNNModel:
    """Attach a fresh seeded head to a transferred encoder."""
    return assemble_cnn(encoder, config, seeded(Rng.stream(seed, Stream.HEAD_INIT)))


def predict(model: CNNModel, x: np.ndarray) -> int:
    """Argmax class index; ties go to the lowest index."""
    return int(np.argmax(model.forward(x)[0]))


def finetune(model: CNNModel, samples: list[tuple[np.ndarray, int]], opt: SGDConfig,
             epochs: int, seed: int) -> tuple[CNNModel, list[tuple[int, float, float, float]]]:
    """Minibatch SGD on cross-entropy, on one worker.

    Honors config.freeze_encoder by only stepping head parameters.
    Returns the model and rows of (epoch, learning_rate, mean_loss,
    train_accuracy).  Deterministic given seed.
    """
    if not samples:
        raise DataError("fine-tuning needs a non-empty sample list")
    n_classes = model.config.n_classes
    for i, (img, label) in enumerate(samples):
        if not 0 <= label < n_classes:
            raise DataError(f"sample {i} has label {label}, outside [0, {n_classes})")

    def sample(epoch, idx):
        img, label = samples[idx]
        loss, probs, grads = model.loss_and_param_grads(img, label)
        return (loss, int(np.argmax(probs)) == label), grads

    rows = train("finetune", model.named_parameters(), len(samples), sample, opt, epochs, seed)
    return model, [(epoch, lr, float(np.mean([loss for loss, _ in stats])),
                    sum(hit for _, hit in stats) / len(samples))
                   for epoch, lr, stats in rows]
