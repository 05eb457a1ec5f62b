"""Acceptance battery: one printed pass/fail line per criterion.

Run with output capture disabled (the default addopts) so the [ACCEPT]
lines double as the acceptance report.  Every quantitative check here is
property-based or synthetic; the shipped sample manifest stands in for
the original labeled corpus, which is not distributable.
"""

import contextlib
import io
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt

from paintnet.autoencoder import CAEConfig, build_cae, corrupt, encoder_extract, pretrain
from paintnet.checks import run_gradcheck
from paintnet.classifier import CNNConfig, build_cnn, finetune
from paintnet.cli import main
from paintnet.data.image import to_tensor
from paintnet.data.manifest import kfold_split, load_manifest, parse_manifest
from paintnet.data.rng import Rng
from paintnet.layers import (
    Activation,
    Conv2DLayer,
    Deconv2DLayer,
    maxpool2x2_forward,
    unpool2x2_forward,
)
from paintnet.metrics import accuracy, crossval_aggregate, evaluate, report_csv
from paintnet.optim import SGDConfig, lr_at_epoch
from paintnet.persist import save_checkpoint, load_checkpoint

from conftest import ASSETS, class_image

REPO_ROOT = Path(__file__).resolve().parent.parent


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[ACCEPT] {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


def loop_conv(x, weights, bias):
    """Reference same-padding cross-correlation, nested loops only."""
    cout, cin, k, _ = weights.shape
    _, h, w = x.shape
    pad = k // 2
    out = np.zeros((cout, h, w))
    for o in range(cout):
        for i in range(h):
            for j in range(w):
                acc = 0.0
                for c in range(cin):
                    for u in range(k):
                        for v in range(k):
                            ii, jj = i + u - pad, j + v - pad
                            if 0 <= ii < h and 0 <= jj < w:
                                acc += weights[o, c, u, v] * x[c, ii, jj]
                out[o, i, j] = acc + bias[o]
    return out


def loop_transpose_flip(weights):
    """Element-by-element tied kernel: channel axes swapped, space flipped."""
    cout, cin, k, _ = weights.shape
    tied = np.zeros((cin, cout, k, k))
    for o in range(cout):
        for c in range(cin):
            for u in range(k):
                for v in range(k):
                    tied[c, o, u, v] = weights[o, c, k - 1 - u, k - 1 - v]
    return tied


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_01_stated_non_reproducibility():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    ok = ("96.52" in readme and "90.44" in readme
          and "cannot be reproduced" in readme)
    report("published figures declared non-reproducible", ok)


def test_02_gradient_check_suite():
    t0 = time.perf_counter()
    rows = run_gradcheck()
    elapsed = time.perf_counter() - t0
    worst = max(r.max_rel_error for r in rows)
    ok = all(r.passed for r in rows) and elapsed < 60.0
    report("gradient checks, all components < 1e-5",
           ok, f"worst {worst:.2e}, {elapsed:.1f}s")


def test_03_pool_unpool_laws():
    rng = Rng(314159)
    t0 = time.perf_counter()
    for i in range(1000):
        c = 1 + i % 3
        h = 2 * (1 + (i // 3) % 4)
        w = 2 * (1 + (i // 12) % 4)
        x = rng.uniform_array((c, h, w), 0.05, 1.0)
        p, s = maxpool2x2_forward(x)
        up = unpool2x2_forward(p, s)
        # roundtrip: pooled values at switch positions, zero elsewhere
        for ch in range(c):
            npt.assert_array_equal(up[ch, s.rows[ch], s.cols[ch]], p[ch])
        rest = up.copy()
        for ch in range(c):
            rest[ch, s.rows[ch], s.cols[ch]] = 0.0
        assert not rest.any()
        # re-pool: identical maxima and switch locations
        p2, s2 = maxpool2x2_forward(up)
        npt.assert_array_equal(p2, p)
        npt.assert_array_equal(s2.rows, s.rows)
        npt.assert_array_equal(s2.cols, s.cols)
    elapsed = time.perf_counter() - t0
    report("pool/unpool roundtrip and re-pool exact over 1000 instances",
           elapsed < 5.0, f"{elapsed:.2f}s")


def test_04_tied_deconv_matches_transposed_kernel():
    rng = Rng(271828)
    worst = 0.0
    for i in range(100):
        cin = 1 + i % 3
        cout = 1 + (i // 3) % 3
        k = 3 if i % 2 else 5
        h = 4 + (i // 9) % 5
        w = 4 + (i // 45) % 4
        enc = Conv2DLayer(rng.uniform_array((cout, cin, k, k), -1.0, 1.0),
                          np.zeros(cout), Activation("identity"))
        dec = Deconv2DLayer.tied(enc, "identity")
        y = rng.uniform_array((cout, h, w), -1.0, 1.0)
        got, _ = dec.forward(y)
        want = loop_conv(y, loop_transpose_flip(enc.weights), np.zeros(cin))
        worst = max(worst, float(np.max(np.abs(got - want))))
    report("tied deconvolution equals transposed-kernel convolution",
           worst < 1e-12, f"worst abs diff {worst:.2e}")


def test_05_convolution_matches_loop_oracle():
    rng = Rng(161803)
    worst = 0.0
    for i in range(100):
        cin = 1 + i % 3
        cout = 1 + (i // 3) % 3
        k = 3 if i % 2 else 5
        h = 2 + (i // 9) % 7   # extents <= 8
        w = 2 + (i // 63) % 7
        weights = rng.uniform_array((cout, cin, k, k), -1.0, 1.0)
        bias = rng.uniform_array((cout,), -0.5, 0.5)
        layer = Conv2DLayer(weights, bias, Activation("identity"))
        x = rng.uniform_array((cin, h, w), -1.0, 1.0)
        got, _ = layer.forward(x)
        worst = max(worst, float(np.max(np.abs(got - loop_conv(x, weights, bias)))))
    report("convolution equals nested-loop oracle",
           worst < 1e-12, f"worst abs diff {worst:.2e}")


def test_06_learning_rate_schedule():
    cfg = SGDConfig(lr0=0.01, decay=0.98, batch_size=1)
    running = 0.01
    worst = 0.0
    for e in range(101):
        lr = lr_at_epoch(cfg, e)
        worst = max(worst, abs(lr - 0.01 * 0.98 ** e), abs(lr - running))
        running *= 0.98
    report("learning-rate schedule 0.01 * 0.98^epoch over [0, 100]",
           worst <= 1e-12, f"worst abs diff {worst:.2e}")


def test_07_corruption_contract():
    ok = True
    for h, w, expect in [(10, 10, 20), (7, 9, 13), (16, 16, 51)]:
        # expect = round-half-up(0.2 * h * w)
        for seed in range(30):
            x = Rng(1000 + seed).uniform_array((3, h, w), 0.1, 1.0)
            out, _ = corrupt(x, 0.2, Rng.stream(seed, 0xAB))
            zero_cols = np.all(out == 0.0, axis=0)
            ok = ok and int(zero_cols.sum()) == expect
            again, _ = corrupt(x, 0.2, Rng.stream(seed, 0xAB))
            ok = ok and np.array_equal(out, again)
    report("corruption zeroes exactly round(0.2*H*W) pixels, deterministic",
           ok)


def _smooth_image(rng, side):
    """Dark low-frequency synthetic image, values in [0, 1]."""
    ys, xs = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    img = np.zeros((3, side, side))
    for c in range(3):
        mean = rng.uniform(0.05, 0.35)
        fy, fx = rng.uniform(0.5, 2.0, size=2)
        py, px = rng.uniform(0, 2 * np.pi, size=2)
        img[c] = mean + 0.10 * np.sin(2 * np.pi * fy * ys / side + py) \
                      * np.cos(2 * np.pi * fx * xs / side + px)
    return np.clip(img, 0.0, 1.0)


def test_08_denoising_pretraining_progress():
    rng = np.random.default_rng(11)
    images = [_smooth_image(rng, 32) for _ in range(20)]
    model = build_cae(CAEConfig(input_size=(32, 32), conv_channels=(4, 6),
                                kernel=3), seed=5)
    t0 = time.perf_counter()
    _, log = pretrain(model, images,
                      SGDConfig(lr0=1.5, decay=0.98, batch_size=1),
                      epochs=30, seed=5)
    elapsed = time.perf_counter() - t0
    first, last = log[0][2], log[-1][2]
    ok = last < 0.5 * first and elapsed < 180.0
    report("pretraining halves reconstruction loss in 30 epochs",
           ok, f"{first:.4f} -> {last:.4f}, {elapsed:.1f}s")


def test_09_overfit_capacity():
    rng = np.random.default_rng(77)
    samples = [(to_tensor(class_image(rng, cls, 16)), cls)
               for cls in range(3) for _ in range(10)]
    cae = build_cae(CAEConfig(input_size=(16, 16), conv_channels=(2, 3),
                              kernel=3), seed=3)
    model = build_cnn(encoder_extract(cae),
                      CNNConfig(fc_sizes=(16, 8), n_classes=3), seed=4)
    t0 = time.perf_counter()
    _, log = finetune(model, samples,
                      SGDConfig(lr0=0.05, decay=0.99, batch_size=5),
                      epochs=200, seed=11)
    elapsed = time.perf_counter() - t0
    hit = next((e for e, _, _, acc in log if acc == 1.0), None)
    ok = hit is not None and elapsed < 300.0
    report("classifier reaches 100% training accuracy on 30 images",
           ok, f"epoch {hit}, {elapsed:.1f}s")


def test_10_full_scale_shape_chain():
    cfg = ASSETS / "full.json"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code_a = main(["pretrain", "--config", str(cfg), "--dry-run"])
        code_b = main(["finetune", "--config", str(cfg), "--dry-run"])
    out = buf.getvalue()
    ok = (code_a == 0 and code_b == 0
          and "shape chain: 3x256x256 -> 100x256x256 -> 100x128x128 "
              "-> 200x128x128 -> 200x64x64" in out
          and "cnn head: 400 -> 200 -> 3" in out)
    report("full-scale config reports the published shape chain", ok)


def test_11_crossval_protocol():
    manifest = load_manifest(ASSETS / "sample_manifest.csv")
    split = kfold_split(manifest, 10, seed=0)
    ok = len(manifest) == 120 and split.k == 10
    for fold in split.folds:
        per_class = [0, 0, 0]
        for idx in fold:
            per_class[manifest.entries[idx].class_index] += 1
        ok = ok and len(fold) == 12 and per_class == [4, 4, 4]
    ok = ok and split == kfold_split(manifest, 10, seed=0)

    accs = [0.91, 0.95, 0.88, 1.0, 0.92, 0.97, 0.9, 0.93, 0.96, 0.94]
    lines = report_csv(crossval_aggregate(accs)).splitlines()
    fold_rows = [l for l in lines if l[0].isdigit()]
    ok = (ok and len(fold_rows) == 10
          and lines[-2].startswith("mean,")
          and lines[-1].startswith("sd_population,"))
    report("10-fold split of the 120-entry manifest is stratified", ok)


def _noisy_class_image(rng, cls, side=16):
    """Weak class signal under heavy per-pixel noise."""
    px = rng.integers(0, 140, size=(3, side, side)).astype(float)
    px[cls] += 55.0
    px[:, ::2 + cls, :] += 30.0
    return np.clip(px, 0, 255) / 255.0


def _transfer_cv_mean(seed: int, pretrained: bool) -> float:
    cae_cfg = CAEConfig(input_size=(16, 16), conv_channels=(2, 3), kernel=3)
    rng = np.random.default_rng(1000 + seed)
    labeled = []
    rows = ["path,label"]
    for cls in range(3):
        for i in range(15):
            labeled.append((_noisy_class_image(rng, cls), cls))
            rows.append(f"img{cls}_{i}.ppm,c{cls}")
    manifest = parse_manifest("\n".join(rows))

    cae = build_cae(cae_cfg, seed=seed)
    if pretrained:
        unlabeled = [_noisy_class_image(rng, int(rng.integers(0, 3)))
                     for _ in range(200)]
        cae, _ = pretrain(cae, unlabeled,
                          SGDConfig(lr0=1.0, decay=0.95, batch_size=4),
                          epochs=8, seed=seed)

    split = kfold_split(manifest, 3, seed=seed)
    accs = []
    for fold in range(split.k):
        model = build_cnn(encoder_extract(cae),
                          CNNConfig(fc_sizes=(12, 6), n_classes=3),
                          seed=seed * 17 + fold)
        train = [labeled[i] for i in split.train_indices(fold)]
        val = [labeled[i] for i in split.folds[fold]]
        model, _ = finetune(model, train,
                            SGDConfig(lr0=0.05, decay=0.98, batch_size=5),
                            epochs=14, seed=seed + fold)
        accs.append(accuracy(evaluate(model, val)))
    return crossval_aggregate(accs).mean


def test_12_transfer_sanity_reported():
    # 5 seeds, 45 labeled + 200 unlabeled each; reported, not gated
    cae_means = [_transfer_cv_mean(seed, True) for seed in range(5)]
    rnd_means = [_transfer_cv_mean(seed, False) for seed in range(5)]
    cae, rnd = float(np.mean(cae_means)), float(np.mean(rnd_means))
    sign = ">=" if cae >= rnd else "<"
    report("transfer sanity, mean CV accuracy over 5 seeds",
           True, f"pretrained {cae:.4f} {sign} random {rnd:.4f}")


def test_13_checkpoint_determinism(tmp_path):
    cae = build_cae(CAEConfig(input_size=(8, 8), conv_channels=(2, 3)), seed=21)
    cnn = build_cnn(encoder_extract(cae),
                    CNNConfig(fc_sizes=(8, 5), n_classes=3), seed=22)
    ok = True
    for tag, model in [("cae", cae), ("cnn", cnn)]:
        first = tmp_path / f"{tag}_1.dpnt"
        second = tmp_path / f"{tag}_2.dpnt"
        save_checkpoint(model, first)
        loaded = load_checkpoint(first)
        save_checkpoint(loaded, second)
        ok = ok and first.read_bytes() == second.read_bytes()
    loaded_cnn = load_checkpoint(tmp_path / "cnn_1.dpnt")
    for i in range(10):
        x = Rng(500 + i).uniform_array((3, 8, 8), 0.0, 1.0)
        ok = ok and np.array_equal(loaded_cnn.forward(x)[0], cnn.forward(x)[0])
    report("checkpoints byte-stable with bit-identical predictions", ok)
