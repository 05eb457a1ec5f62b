"""Run one paintnet command in this fresh process and write its timings.

    python3 child.py OUT TRACE STAGES -- <paintnet arguments>

OUT is the JSON file to write, TRACE is 0 or 1, STAGES maps a layer's
channel shape ("conv:8x3") to its stage name ("conv1").  The command
runs through paintnet.cli.main, exactly as `paintnet <arguments>` would.

With TRACE 0 only the three phase entry points (pretrain, finetune,
evaluate, as bound in paintnet.cli) are wrapped, a few calls per
command; they record spans and the process CPU time spent in each.
With TRACE 1 every public function the per-layer metrics need is
wrapped too, at the name its caller looks up: paintnet.cli binds
pretrain, decode_ppm and save_checkpoint at import, so those are patched
in paintnet.cli rather than in their defining modules; layer methods
are patched on their classes.

The exit status is the command's.
"""

from __future__ import annotations

import functools
import json
import math
import os
import resource
import sys
import time

from tracer import PHASES, Tracer


def _cpu_timed(fn, phase: str, cpu: dict[str, int]):
    """fn, adding the process CPU time of each call to cpu[phase].

    cpu["setup"] is the process CPU time used before the first phase call.
    """
    @functools.wraps(fn)
    def timed(*args, **kwargs):
        start = time.process_time_ns()
        cpu.setdefault("setup", start)
        try:
            return fn(*args, **kwargs)
        finally:
            cpu[phase] = cpu.get(phase, 0) + time.process_time_ns() - start

    return timed


def _install(tracer: Tracer, traced: bool, stages: dict[str, str],
             cpu: dict[str, int]) -> None:
    import paintnet.autoencoder as autoencoder
    import paintnet.classifier as classifier
    import paintnet.cli as cli
    import paintnet.layers as layers
    from paintnet.data.rng import Rng

    def patch(owner, attr, name, amount=None):
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name, amount))

    patch(cli, "main", "cli.main")
    for phase in PHASES:
        setattr(cli, phase, _cpu_timed(getattr(cli, phase), phase, cpu))
    patch(cli, "pretrain", "pretrain",
          lambda _, model, images, opt, epochs, *a, **k: len(images) * epochs)
    patch(cli, "finetune", "finetune",
          lambda _, model, samples, opt, epochs, *a, **k: len(samples) * epochs)
    patch(cli, "evaluate", "evaluate", lambda _, model, samples: len(samples))
    if not traced:
        return

    def stage(kind, direction):
        def name(layer, *args, **kwargs):
            if kind == "dense":
                key = f"dense:{layer.out_size}x{layer.in_size}"
                return f"layers.{stages.get(key, 'head')}.{direction}"
            return f"layers.{stages[f'{kind}:{layer.out_channels}x{layer.in_channels}']}.{direction}"
        return name

    for cls, kind in ((layers.Conv2DLayer, "conv"), (layers.Deconv2DLayer, "deconv"),
                      (layers.DenseLayer, "dense")):
        patch(cls, "forward", stage(kind, "fwd"))
        patch(cls, "backward", stage(kind, "bwd"))
    for fn, name in (("maxpool2x2_forward", "layers.pool.fwd"),
                     ("maxpool2x2_backward", "layers.pool.bwd"),
                     ("unpool2x2_forward", "layers.unpool.fwd"),
                     ("unpool2x2_backward", "layers.unpool.bwd"),
                     ("corrupt", "autoencoder.corrupt"),
                     ("sgd_step", "optim.sgd_step")):
        patch(autoencoder, fn, name)
    for fn, name in (("maxpool2x2_backward", "layers.pool.bwd"),
                     ("softmax", "layers.head.fwd"),
                     ("cross_entropy", "layers.head.fwd"),
                     ("softmax_xent_grad", "layers.head.bwd"),
                     ("sgd_step", "optim.sgd_step"),
                     ("build_cnn", "classifier.build")):
        patch(classifier, fn, name)
    autoencoder.ThreadPoolExecutor = tracer.pool_class()

    patch(cli, "build_cae", "autoencoder.build")
    patch(cli, "decode_ppm", "data.image.decode", lambda _, data: len(data))
    patch(cli, "resample_bilinear", "data.image.resample")
    patch(cli, "save_checkpoint", "persist.save", lambda written, model, path: written)
    patch(cli, "load_checkpoint", "persist.load", lambda _, path: os.path.getsize(path))
    patch(Rng, "uniform_array", "data.rng.uniform_array",
          lambda _, rng, shape, lo, hi: math.prod(shape) if shape else 1)
    patch(Rng, "sample_indices", "data.rng.sample_indices", lambda _, rng, n, m: m)


def main() -> int:
    out_path, traced, stages = sys.argv[1], sys.argv[2] == "1", json.loads(sys.argv[3])
    if sys.argv[4] != "--":
        raise SystemExit("usage: child.py OUT TRACE STAGES -- <paintnet arguments>")
    import paintnet.cli as cli

    tracer = Tracer()
    cpu: dict[str, int] = {}
    _install(tracer, traced, stages, cpu)
    code = cli.main(sys.argv[5:])
    # span clock (perf_counter) to the clock the parent timed the spawn with
    offset = time.monotonic_ns() - time.perf_counter_ns()
    result = {
        "exit_code": code,
        "clock_offset_ns": offset,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cpu_ns": cpu,
        "spans": tracer.spans,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
