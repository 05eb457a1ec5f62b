"""Layer stages, the autoencoder, denoising corruption, and the SGD loop.

Every model is an ordered list of named stages run by one forward loop
and one backward loop.  The autoencoder is eight stages: conv, pool,
conv, pool on the way down, then unpool, deconv, unpool, deconv
mirroring it on the way up.  Each decoder unpooling names the pooling
whose switches it consumes (the pooling closest to the input feeds the
unpooling closest to the output).  Pretraining corrupts a fresh random
pixel subset of every image each epoch and minimizes mean squared
reconstruction error against the clean original.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .data.rng import Rng
from .errors import ConfigError, DataError, NumericError, ShapeError
from .layers import (
    Activation,
    Conv2DLayer,
    Deconv2DLayer,
    init_weights,
    maxpool2x2_backward,
    maxpool2x2_forward,
    transpose_flip,
    unpool2x2_backward,
    unpool2x2_forward,
)
from .optim import SGDConfig, lr_at_epoch, sgd_step
from .tensor import Tensor, frobenius_sq_dist

# substream tags keeping init, corruption, and shuffle draws independent
_INIT_STREAM = 0x11
_CORRUPT_STREAM = 0xC0
_ORDER_STREAM = 0x0E


@dataclass(frozen=True)
class CAEConfig:
    """Architecture and corruption settings for the autoencoder."""

    input_size: tuple[int, int] = (256, 256)
    conv_channels: tuple[int, int] = (100, 200)
    input_channels: int = 3
    kernel: int = 5
    tied_decoder: bool = True
    corruption_fraction: float = 0.2
    hidden_activation: str = "relu"
    output_activation: str = "sigmoid"

    def __post_init__(self):
        h, w = self.input_size
        if h < 4 or w < 4 or h % 4 or w % 4:
            raise ConfigError("input size must be at least 4x4 and divisible by 4 "
                              f"(two 2x2 pools), got {h}x{w}")
        c1, c2 = self.conv_channels
        if c1 < 1 or c2 < 1:
            raise ConfigError(f"conv channels must be >= 1, got {self.conv_channels}")
        if self.input_channels < 1:
            raise ConfigError(f"input channels must be >= 1, got {self.input_channels}")
        if self.kernel < 1 or self.kernel % 2 == 0:
            raise ConfigError(f"kernel must be odd and positive, got {self.kernel}")
        if not 0.0 <= self.corruption_fraction <= 1.0:
            raise ConfigError(
                f"corruption fraction must be in [0, 1], got {self.corruption_fraction}")


def shape_chain(config: CAEConfig) -> list[tuple[int, int, int]]:
    """(channels, height, width) after every stage, input included.

    Pure arithmetic; safe to call for configurations far too large to
    instantiate.
    """
    h, w = config.input_size
    c0 = config.input_channels
    c1, c2 = config.conv_channels
    return [
        (c0, h, w),
        (c1, h, w),
        (c1, h // 2, w // 2),
        (c2, h // 2, w // 2),
        (c2, h // 4, w // 4),
        (c2, h // 2, w // 2),
        (c1, h // 2, w // 2),
        (c1, h, w),
        (c0, h, w),
    ]


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Stage:
    """One named step of a model.

    kind is conv, pool, deconv, unpool, flatten or dense; conv, deconv
    and dense stages hold their layer.  ref names the pool whose switches
    an unpool reads, or the conv whose kernel a tied deconv shares: it is
    the only record of a tie.
    """

    name: str
    kind: str
    layer: object = None
    ref: str | None = None


# tensor(name, shape) -> array: where a stage builder gets its parameters
TensorSource = Callable[[str, tuple[int, ...]], Tensor]


def seeded(rng: Rng) -> TensorSource:
    """Fresh parameters: kernels drawn from rng in request order, biases zero."""
    def tensor(name: str, shape: tuple[int, ...]) -> Tensor:
        return np.zeros(shape) if name.endswith(".b") else init_weights(shape, rng)
    return tensor


def conv_stage(name: str, c_in: int, c_out: int, k: int, activation: str,
               tensor: TensorSource) -> Stage:
    return Stage(name, "conv", Conv2DLayer(tensor(f"{name}.W", (c_out, c_in, k, k)),
                                           tensor(f"{name}.b", (c_out,)), Activation(activation)))


def deconv_stage(name: str, conv: Stage, activation: str, tied: bool,
                 tensor: TensorSource) -> Stage:
    """Transposed conv mirroring conv's channel mapping, tied to its kernel or learned."""
    c_out, c_in, k, _ = conv.layer.weights.shape
    if tied:
        layer = Deconv2DLayer.tied(conv.layer, activation, tensor(f"{name}.b", (c_in,)))
        return Stage(name, "deconv", layer, ref=conv.name)
    layer = Deconv2DLayer(tensor(f"{name}.W", (c_in, c_out, k, k)),
                          tensor(f"{name}.b", (c_in,)), Activation(activation))
    return Stage(name, "deconv", layer)


def encoder_stages(input_channels: int, conv_channels: tuple[int, int], kernel: int,
                   activation: str, tensor: TensorSource) -> list[Stage]:
    c1, c2 = conv_channels
    return [conv_stage("enc1", input_channels, c1, kernel, activation, tensor),
            Stage("pool1", "pool"),
            conv_stage("enc2", c1, c2, kernel, activation, tensor),
            Stage("pool2", "pool")]


def cae_stages(config: CAEConfig, tensor: TensorSource) -> list[Stage]:
    """The eight autoencoder stages; parameters come from tensor in stage order."""
    enc = encoder_stages(config.input_channels, config.conv_channels, config.kernel,
                         config.hidden_activation, tensor)
    return enc + [
        Stage("unpool2", "unpool", ref="pool2"),
        deconv_stage("dec2", enc[2], config.hidden_activation, config.tied_decoder, tensor),
        Stage("unpool1", "unpool", ref="pool1"),
        deconv_stage("dec1", enc[0], config.output_activation, config.tied_decoder, tensor),
    ]


def stage_parameters(stages: list[Stage]) -> dict[str, Tensor]:
    """<stage>.W and <stage>.b of every stage that owns them, in stage order.

    A tied deconv owns only its bias; its kernel is the conv's.
    """
    params = {}
    for st in stages:
        if st.layer is not None:
            if st.ref is None:
                params[f"{st.name}.W"] = st.layer.weights
            params[f"{st.name}.b"] = st.layer.bias
    return params


class StageStack:
    """Stages run in order by one forward loop and in reverse by one backward loop.

    Stages before trained_from are frozen: they get no gradients and
    the backward loop stops short of them.  A trained model defines
    loss(output, target) -> (value, gradient fed to the backward loop).
    """

    def __init__(self, input_shape: tuple[int, int, int], stages: list[Stage],
                 trained_from: int = 0):
        self.input_shape = tuple(input_shape)
        self.stages = stages
        self.trained_from = trained_from

    def layer(self, name: str):
        """The layer of the stage called name."""
        return {st.name: st.layer for st in self.stages}[name]

    def named_parameters(self) -> dict[str, Tensor]:
        return stage_parameters(self.stages[self.trained_from:])

    def forward(self, x: Tensor):
        """Run every stage; returns (output, caches keyed by stage name)."""
        if x.shape != self.input_shape:
            raise ShapeError(f"model input must be {self.input_shape}, got {x.shape}")
        caches = {}
        for st in self.stages:
            if st.kind == "pool":
                x, caches[st.name] = maxpool2x2_forward(x)
            elif st.kind == "unpool":
                x = unpool2x2_forward(x, caches[st.ref])
            elif st.kind == "flatten":
                caches[st.name] = x.shape
                x = x.reshape(-1)
            else:
                x, caches[st.name] = st.layer.forward(x)
        return x, caches

    def backward(self, caches, grad_out: Tensor) -> dict[str, Tensor]:
        """Gradients of every trained parameter for an output gradient.

        A tied deconv's kernel gradient, mapped by transpose_flip into its
        conv's layout, is added onto that conv's.
        """
        grads: dict[str, Tensor] = {}
        g = grad_out
        for st in reversed(self.stages[self.trained_from:]):
            if st.kind == "pool":
                g = maxpool2x2_backward(caches[st.name], g)
            elif st.kind == "unpool":
                g = unpool2x2_backward(caches[st.ref], g)
            elif st.kind == "flatten":
                g = g.reshape(caches[st.name])
            else:
                g, layer_grads = st.layer.backward(caches[st.name], g)
                for key, grad in layer_grads.items():
                    name = f"{st.name}.{key}"
                    if st.ref is not None and key == "W":
                        name, grad = f"{st.ref}.W", transpose_flip(grad)
                    grads[name] = grads[name] + grad if name in grads else grad
        return grads

    def loss_value(self, x: Tensor, target) -> float:
        return self.loss(self.forward(x)[0], target)[0]

    def loss_and_param_grads(self, x: Tensor, target):
        """(loss, output, gradients of every trained parameter) for one sample."""
        output, caches = self.forward(x)
        value, grad_out = self.loss(output, target)
        return value, output, self.backward(caches, grad_out)


class CAEModel(StageStack):
    """Encoder conv/pool pair stack plus its mirrored unpool/deconv decoder."""

    def __init__(self, config: CAEConfig, stages: list[Stage]):
        super().__init__((config.input_channels, *config.input_size), stages)
        self.config = config

    def loss(self, recon: Tensor, clean: Tensor) -> tuple[float, Tensor]:
        """Mean squared reconstruction error and its gradient."""
        return reconstruction_loss(recon, clean), 2.0 * (recon - clean) / recon.size


def build_cae(config: CAEConfig, seed: int) -> CAEModel:
    """Construct the stack with seeded weight init.

    Weights are drawn uniform in +-sqrt(6/fan_in), biases start at zero;
    the draw order (conv1, conv2, then decoder kernels when untied) is
    fixed so a seed pins every parameter.
    """
    return CAEModel(config, cae_stages(config, seeded(Rng.stream(seed, _INIT_STREAM))))


def corrupt(image: Tensor, fraction: float,
            rng: Rng) -> tuple[Tensor, tuple[np.ndarray, np.ndarray]]:
    """Zero a random pixel subset across all channels; the original is untouched.

    Exactly round(fraction * H * W) distinct pixel locations are chosen
    uniformly without replacement from the seeded generator.  Returns
    the corrupted copy and the (rows, cols) int arrays of the zeroed
    pixels, in draw order.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"corruption fraction must be in [0, 1], got {fraction}")
    if image.ndim != 3:
        raise ShapeError(f"corrupt expects a (c, h, w) image, got {image.shape}")
    h, w = image.shape[1], image.shape[2]
    count = int(np.floor(fraction * h * w + 0.5))
    picks = rng.sample_indices(h * w, count)
    rows = picks // w
    cols = picks % w
    out = image.copy()
    out[:, rows, cols] = 0.0
    return out, (rows, cols)


def reconstruction_loss(reconstruction: Tensor, clean_original: Tensor) -> float:
    """Per-element mean squared error against the clean image."""
    if reconstruction.shape != clean_original.shape:
        raise ShapeError(
            f"loss shape mismatch: {reconstruction.shape} vs {clean_original.shape}")
    return frobenius_sq_dist(reconstruction, clean_original) / reconstruction.size


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

def train(params: dict[str, Tensor], count: int, sample, opt: SGDConfig, epochs: int,
          seed: int, threads: int = 1) -> list[tuple[int, float, list]]:
    """Minibatch SGD over count samples; returns (epoch, lr, per-sample stats) rows.

    sample(epoch, index) -> (stats, gradients).  Every epoch shuffles
    the visit order from the (seed, epoch) substream and applies the
    scheduled learning rate.  Each batch's gradients are summed in
    sample order as they arrive, whatever the thread count, then
    divided by the batch length, so the thread count never changes a bit.
    A parameter that is not finite after a step raises NumericError,
    whether a non-finite gradient or the step itself made it so.
    """
    rows = []
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        for epoch in range(epochs):
            lr = lr_at_epoch(opt, epoch)
            order = list(range(count))
            Rng.stream(seed, _ORDER_STREAM, epoch).shuffle(order)
            stats = []
            for batch_index, start in enumerate(range(0, count, opt.batch_size)):
                batch = order[start:start + opt.batch_size]
                total = None
                for info, grads in (pool.map if pool else map)(
                        sample, [epoch] * len(batch), batch):
                    stats.append(info)
                    if total is None:
                        total = grads  # a sample's gradients are fresh arrays
                    else:
                        for k in total:
                            total[k] += grads[k]
                    del grads  # at most one sample's gradients beside the sum
                for k in total:
                    total[k] /= len(batch)
                sgd_step(params, total, lr)
                for k, p in params.items():
                    if not np.isfinite(p).all():
                        raise NumericError(f"epoch {epoch}, batch {batch_index}: "
                                           f"{k} is not finite after the SGD step")
            rows.append((epoch, lr, stats))
    finally:
        if pool:
            pool.shutdown()
    return rows


def pretrain(model: CAEModel, images: list[Tensor], opt: SGDConfig, epochs: int,
             seed: int, threads: int = 1) -> tuple[CAEModel, list[tuple[int, float, float]]]:
    """Denoising minibatch SGD on reconstruction loss.

    Every epoch draws a fresh corruption mask per image from the
    (seed, epoch, image index) substream, shuffles the visit order, and
    applies the scheduled learning rate.  threads workers compute the
    per-sample gradients of a batch.  Returns the model and rows of
    (epoch, learning_rate, mean_loss).  Fully deterministic given seed.
    """
    if not images:
        raise DataError("pretraining needs a non-empty image list")
    for i, img in enumerate(images):
        if img.shape != model.input_shape:
            raise ShapeError(f"image {i} has shape {img.shape}, expected {model.input_shape}")
    fraction = model.config.corruption_fraction

    def sample(epoch, idx):
        rng = Rng.stream(seed, _CORRUPT_STREAM, epoch, idx)
        corrupted, _ = corrupt(images[idx], fraction, rng)
        loss, _, grads = model.loss_and_param_grads(corrupted, images[idx])
        return loss, grads

    rows = train(model.named_parameters(), len(images), sample, opt, epochs, seed, threads)
    return model, [(epoch, lr, float(np.mean(losses))) for epoch, lr, losses in rows]


class EncoderStack(StageStack):
    """The conv, pool, conv, pool front half of a trained autoencoder."""

    @property
    def feature_shape(self) -> tuple[int, int, int]:
        _, h, w = self.input_shape
        return (self.stages[2].layer.out_channels, h // 4, w // 4)


def encoder_extract(model: CAEModel) -> EncoderStack:
    """Copy out the first four stages.

    The conv layers are copies, so fine-tuning a classifier built from
    them never mutates the autoencoder they came from.
    """
    return EncoderStack(model.input_shape,
                        [replace(st, layer=st.layer.copy()) if st.layer else st
                         for st in model.stages[:4]])
