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

from collections.abc import Callable, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .data.rng import Rng, Stream
from .errors import CheckpointFormatError, ConfigError, DataError, NumericError, ShapeError
from .layers import (
    Conv2DLayer,
    Deconv2DLayer,
    Rank1,
    init_weights,
    maxpool2x2_backward,
    maxpool2x2_forward,
    transpose_flip,
    unpool2x2_backward,
    unpool2x2_forward,
)
from .optim import SGDConfig, lr_at_epoch, sgd_step

# the architecture past CAEConfig's sizes is fixed: RGB images in and out,
# relu hidden stages and a sigmoid reconstruction
INPUT_CHANNELS = 3


@dataclass(frozen=True)
class CAEConfig:
    """Size and corruption settings for the autoencoder."""

    input_size: tuple[int, int] = (256, 256)
    conv_channels: tuple[int, int] = (100, 200)
    kernel: int = 5
    tied_decoder: bool = True
    corruption_fraction: float = 0.2

    def __post_init__(self):
        h, w = self.input_size
        if h < 4 or w < 4 or h % 4 or w % 4:
            raise ConfigError("input size must be at least 4x4 and divisible by 4 "
                              f"(two 2x2 pools), got {h}x{w}")
        c1, c2 = self.conv_channels
        if c1 < 1 or c2 < 1:
            raise ConfigError(f"conv channels must be >= 1, got {self.conv_channels}")
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
    c1, c2 = config.conv_channels
    return [
        (INPUT_CHANNELS, h, w),
        (c1, h, w),
        (c1, h // 2, w // 2),
        (c2, h // 2, w // 2),
        (c2, h // 4, w // 4),
        (c2, h // 2, w // 2),
        (c1, h // 2, w // 2),
        (c1, h, w),
        (INPUT_CHANNELS, h, w),
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


# tensor(name, shape) -> array: where a stage builder gets its parameters;
# seeded and stored are the two sources
TensorSource = Callable[[str, tuple[int, ...]], np.ndarray]


def seeded(rng: Rng) -> TensorSource:
    """Fresh parameters: kernels drawn from rng in request order, biases zero."""
    def tensor(name: str, shape: tuple[int, ...]) -> np.ndarray:
        return np.zeros(shape) if name.endswith(".b") else init_weights(shape, rng)
    return tensor


def stored(tensors: dict[str, np.ndarray]) -> TensorSource:
    """Parameters read by name from tensors: a checkpoint's records, or a model's own."""
    def tensor(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if name not in tensors:
            raise CheckpointFormatError(f"checkpoint is missing tensor {name!r}")
        if tensors[name].shape != shape:
            raise CheckpointFormatError(
                f"tensor {name!r} has shape {tensors[name].shape}, the config needs {shape}")
        return tensors[name]
    return tensor


def conv_stage(name: str, c_in: int, c_out: int, k: int, activation: str,
               tensor: TensorSource) -> Stage:
    return Stage(name, "conv", Conv2DLayer(tensor(f"{name}.W", (c_out, c_in, k, k)),
                                           tensor(f"{name}.b", (c_out,)), activation))


def deconv_stage(name: str, conv: Stage, activation: str, tied: bool,
                 tensor: TensorSource) -> Stage:
    """Transposed conv mirroring conv's channel mapping, tied to its kernel or learned."""
    c_out, c_in, k, _ = conv.layer.weights.shape
    if tied:
        layer = Deconv2DLayer.tied(conv.layer, activation, tensor(f"{name}.b", (c_in,)))
        return Stage(name, "deconv", layer, ref=conv.name)
    layer = Deconv2DLayer(tensor(f"{name}.W", (c_in, c_out, k, k)),
                          tensor(f"{name}.b", (c_in,)), activation)
    return Stage(name, "deconv", layer)


# the CAEConfig settings that shape the encoder a classifier takes over
ENCODER_FIELDS = ("input_size", "conv_channels", "kernel")


def encoder_stages(conv_channels: tuple[int, int], kernel: int,
                   tensor: TensorSource) -> list[Stage]:
    c1, c2 = conv_channels
    return [conv_stage("enc1", INPUT_CHANNELS, c1, kernel, "relu", tensor),
            Stage("pool1", "pool"),
            conv_stage("enc2", c1, c2, kernel, "relu", tensor),
            Stage("pool2", "pool")]


def cae_stages(config: CAEConfig, tensor: TensorSource) -> list[Stage]:
    """The eight autoencoder stages; parameters come from tensor in stage order."""
    enc = encoder_stages(config.conv_channels, config.kernel, tensor)
    return enc + [
        Stage("unpool2", "unpool", ref="pool2"),
        deconv_stage("dec2", enc[2], "relu", config.tied_decoder, tensor),
        Stage("unpool1", "unpool", ref="pool1"),
        deconv_stage("dec1", enc[0], "sigmoid", config.tied_decoder, tensor),
    ]


def stage_parameters(stages: list[Stage]) -> dict[str, np.ndarray]:
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

    def named_parameters(self) -> dict[str, np.ndarray]:
        return stage_parameters(self.stages[self.trained_from:])

    def forward(self, x: np.ndarray, keep: bool = True):
        """Run every stage; returns (output, caches keyed by stage name).

        keep=False is the inference pass, and caches comes back empty:
        no conv or dense stage keeps its input or pre-activation, no pool
        computes switches, and each conv and dense stage applies its bias
        and activation in place.  A conv followed by a pool runs that
        pool itself, so a relu conv can pool its raw correlation first
        (see _SameCorrelation.forward).  Where the maps a pool reads hold
        no -0.0, as relu and sigmoid outputs never do, the output's bytes
        are the training pass's (see maxpool2x2_forward).  An unpool reads
        its pool's switches, so only a model without one (the classifier)
        runs with keep=False.
        """
        if x.shape != self.input_shape:
            raise ShapeError(f"model input must be {self.input_shape}, got {x.shape}")
        caches = {}
        fused = None  # the pool stage an inference conv ran on its own output
        for st, after in zip(self.stages, self.stages[1:] + [None]):
            if st is fused:
                continue
            if st.kind == "pool":
                x, cache = maxpool2x2_forward(x, keep=keep)
            elif st.kind == "unpool":
                x, cache = unpool2x2_forward(x, caches[st.ref]), None
            elif st.kind == "flatten":
                x, cache = x.reshape(-1), x.shape
            elif not keep and after is not None and after.kind == "pool":
                x, cache = st.layer.forward(x, keep=False, pool=maxpool2x2_forward)
                fused = after
            else:
                x, cache = st.layer.forward(x, keep=keep)
            if keep and cache is not None:
                caches[st.name] = cache
        return x, caches

    def backward(self, caches, grad_out: np.ndarray) -> dict[str, np.ndarray | Rank1]:
        """Gradients of every trained parameter for an output gradient; a dense W's is a Rank1.

        A tied deconv's kernel gradient, mapped by transpose_flip into its
        conv's layout, is added onto that conv's.  The first trained
        stage computes no input gradient, since nothing reads it.

        The pass consumes caches and leaves it empty.  A conv, deconv or
        dense stage's cache is removed once read and a frozen stage's
        before the pass starts, so their maps are freed as the pass goes.
        Pool switches go last: dropped after their own pool's backward,
        they left holes in the heap that raised crossval-mid's peak RSS
        by 2.6 MB.
        """
        grads: dict[str, np.ndarray | Rank1] = {}
        g = grad_out
        for st in self.stages[:self.trained_from]:
            caches.pop(st.name, None)
        trained = self.stages[self.trained_from:]
        for st in reversed(trained):
            if st.kind == "pool":
                g = maxpool2x2_backward(caches[st.name], g)
            elif st.kind == "unpool":
                g = unpool2x2_backward(caches[st.ref], g)
            elif st.kind == "flatten":
                g = g.reshape(caches.pop(st.name))
            else:
                g, layer_grads = st.layer.backward(caches.pop(st.name), g,
                                                   input_grad=st is not trained[0])
                for key, grad in layer_grads.items():
                    name = f"{st.name}.{key}"
                    if st.ref is not None and key == "W":
                        name, grad = f"{st.ref}.W", transpose_flip(grad)
                    grads[name] = grads[name] + grad if name in grads else grad
        caches.clear()
        return grads

    def loss_value(self, x: np.ndarray, target) -> float:
        return self.loss(self.forward(x)[0], target)[0]

    def loss_and_param_grads(self, x: np.ndarray, target):
        """(loss, output, gradients of every trained parameter) for one sample."""
        output, caches = self.forward(x)
        value, grad_out = self.loss(output, target)
        return value, output, self.backward(caches, grad_out)


class CAEModel(StageStack):
    """Encoder conv/pool pair stack plus its mirrored unpool/deconv decoder."""

    def __init__(self, config: CAEConfig, stages: list[Stage]):
        super().__init__((INPUT_CHANNELS, *config.input_size), stages)
        self.config = config

    def loss(self, recon: np.ndarray, clean: np.ndarray) -> tuple[float, np.ndarray]:
        """Mean squared reconstruction error and its gradient."""
        return reconstruction_loss(recon, clean), 2.0 * (recon - clean) / recon.size


def build_cae(config: CAEConfig, seed: int) -> CAEModel:
    """Construct the stack with seeded weight init.

    Weights are drawn uniform in +-sqrt(6/fan_in), biases start at zero;
    the draw order (conv1, conv2, then decoder kernels when untied) is
    fixed so a seed pins every parameter.
    """
    return CAEModel(config, cae_stages(config, seeded(Rng.stream(seed, Stream.INIT))))


def corrupt(image: np.ndarray, fraction: float, rng: Rng) -> np.ndarray:
    """A copy of image with a random pixel subset zeroed across all channels.

    Exactly round(fraction * H * W) distinct pixel locations are chosen
    uniformly without replacement from the seeded generator, as flat
    indices row * W + col.  The original is untouched.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"corruption fraction must be in [0, 1], got {fraction}")
    if image.ndim != 3:
        raise ShapeError(f"corrupt expects a (c, h, w) image, got {image.shape}")
    h, w = image.shape[1], image.shape[2]
    count = int(np.floor(fraction * h * w + 0.5))
    picks = rng.sample_indices(h * w, count)
    out = image.copy()
    out.reshape(len(out), h * w)[:, picks] = 0.0
    return out


def reconstruction_loss(reconstruction: np.ndarray, clean_original: np.ndarray) -> float:
    """Per-element mean squared error against the clean image."""
    if reconstruction.shape != clean_original.shape:
        raise ShapeError(
            f"loss shape mismatch: {reconstruction.shape} vs {clean_original.shape}")
    d = reconstruction - clean_original
    return float(np.dot(d.reshape(-1), d.reshape(-1))) / reconstruction.size


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

# bytes of the bool mask one finiteness check may take: about 1 MiB a block
# of rows, where a mask over all of the full-scale fc1 would take 0.33 GB
_FINITE_BLOCK = 1 << 20


def _all_finite(p: np.ndarray) -> bool:
    """Whether every element of p is finite, checked a block of rows at a time."""
    rows = max(1, _FINITE_BLOCK // (p.size // len(p)))
    return all(np.isfinite(p[i:i + rows]).all() for i in range(0, len(p), rows))


def train(phase: str, params: dict[str, np.ndarray], count: int, sample, opt: SGDConfig,
          epochs: int, seed: int, threads: int = 1) -> list[tuple[int, float, list]]:
    """Minibatch SGD over count samples; returns (epoch, lr, per-sample stats) rows.

    sample(epoch, index) -> (stats, gradients).  Every epoch shuffles
    the visit order from the (seed, epoch) substream and applies the
    scheduled learning rate.  Each batch's gradients are summed in
    sample order as they arrive, whatever the thread count, then
    divided by the batch length, so the thread count never changes a bit.
    A dense layer's W gradients stay Rank1 factors, listed in sample
    order, which sgd_step applies as one product per column block of W.
    A parameter that is not finite after a step raises NumericError
    naming phase, whether a non-finite gradient or the step itself made
    it so; that check, not a numpy warning, reports an overflow in a
    sample's passes or in the step.
    """
    def quiet_sample(epoch, index):
        # set in the worker: numpy's error state is a contextvar, which
        # pool threads do not inherit
        with np.errstate(over="ignore", invalid="ignore"):
            return sample(epoch, index)

    rows = []
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        for epoch in range(epochs):
            lr = lr_at_epoch(opt, epoch)
            order = list(range(count))
            Rng.stream(seed, Stream.ORDER, epoch).shuffle(order)
            stats = []
            for batch_index, start in enumerate(range(0, count, opt.batch_size)):
                batch = order[start:start + opt.batch_size]
                total = {}
                for info, grads in (pool.map if pool else map)(
                        quiet_sample, [epoch] * len(batch), batch):
                    stats.append(info)
                    for k, g in grads.items():
                        if isinstance(g, Rank1):
                            total.setdefault(k, []).append(g)  # summed by the step's products
                        elif k in total:
                            total[k] += g
                        else:
                            total[k] = g  # a sample's gradients are fresh arrays
                    del grads  # at most one sample's array gradients beside the sum
                for g in total.values():
                    if not isinstance(g, list):
                        g /= len(batch)
                with np.errstate(over="ignore", invalid="ignore"):
                    sgd_step(params, total, lr)
                    for k, p in params.items():
                        if not _all_finite(p):
                            raise NumericError(f"{phase} epoch {epoch}, batch {batch_index}: "
                                               f"{k} is not finite after the SGD step")
            rows.append((epoch, lr, stats))
    finally:
        if pool:
            pool.shutdown()
    return rows


def pretrain(model: CAEModel, images: Sequence[np.ndarray], opt: SGDConfig, epochs: int,
             seed: int, threads: int = 1) -> tuple[CAEModel, list[tuple[int, float, float]]]:
    """Denoising minibatch SGD on reconstruction loss.

    images is a sequence read through len, indexing and iteration; a
    sample reads its image once, for the corrupted input and the target.
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
        img = images[idx]
        rng = Rng.stream(seed, Stream.CORRUPT, epoch, idx)
        loss, _, grads = model.loss_and_param_grads(corrupt(img, fraction, rng), img)
        return loss, grads

    rows = train("pretrain", model.named_parameters(), len(images), sample, opt, epochs, seed,
                 threads)
    return model, [(epoch, lr, float(np.mean(losses))) for epoch, lr, losses in rows]


def encoder_extract(model: CAEModel) -> StageStack:
    """The conv, pool, conv, pool front half, rebuilt on copies of its parameters.

    Fine-tuning a classifier built from them never mutates the
    autoencoder they came from.
    """
    c = model.config
    params = {k: p.copy() for k, p in stage_parameters(model.stages[:4]).items()}
    return StageStack(model.input_shape,
                      encoder_stages(c.conv_channels, c.kernel, stored(params)))
