"""Accuracy, confusion matrices, cross-validation aggregation."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paintnet.autoencoder import CAEConfig, build_cae, encoder_extract
from paintnet.classifier import CNNConfig, build_cnn
from paintnet.data.rng import Rng
from paintnet.errors import ArgumentError
from paintnet.metrics import (
    ConfusionMatrix,
    CrossValReport,
    accuracy,
    crossval_aggregate,
    evaluate,
    report_csv,
)


def cm(rows) -> ConfusionMatrix:
    return ConfusionMatrix(counts=np.asarray(rows, dtype=np.int64))


def small_cnn(seed: int = 4):
    cae = build_cae(CAEConfig(input_size=(8, 8), conv_channels=(2, 3)), seed=seed)
    cfg = CNNConfig(fc_sizes=(8, 5), n_classes=3)
    return build_cnn(encoder_extract(cae), cfg, seed=seed + 1)


# ---------------------------------------------------------------------------
# confusion matrix / accuracy
# ---------------------------------------------------------------------------

def test_matrix_validation():
    with pytest.raises(ArgumentError):
        cm([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ArgumentError):
        cm([[1, -1], [0, 2]])


def test_matrix_properties():
    m = cm([[3, 1], [0, 2]])
    assert m.n_classes == 2
    assert m.total == 6


def test_accuracy_diagonal_is_one():
    assert accuracy(cm([[5, 0], [0, 7]])) == 1.0


def test_accuracy_uniform_matrix():
    assert accuracy(cm([[1, 1], [1, 1]])) == 0.5


def test_accuracy_empty_rejected():
    with pytest.raises(ArgumentError):
        accuracy(cm([[0, 0], [0, 0]]))


def test_accuracy_always_in_unit_interval():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        counts = rng.integers(0, 9, size=(n, n))
        if counts.sum() == 0:
            counts[0, 0] = 1
        a = accuracy(ConfusionMatrix(counts=counts))
        assert 0.0 <= a <= 1.0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def samples_for(model, n: int, seed: int = 50):
    rng = Rng(seed)
    return [(rng.uniform_array((3, 8, 8), 0.0, 1.0), i % model.config.n_classes)
            for i in range(n)]


def test_evaluate_perfect_labels():
    # label every image with the model's own prediction: trace == total
    model = small_cnn()
    raw = samples_for(model, 12)
    from paintnet.classifier import predict
    relabeled = [(x, predict(model, x)) for x, _ in raw]
    m = evaluate(model, relabeled)
    assert np.trace(m.counts) == m.total == 12
    assert accuracy(m) == 1.0


def test_evaluate_constant_prediction_single_column():
    model = small_cnn()
    # zero head output forces uniform probs; argmax tie goes to class 0
    model.layer("out").weights[:] = 0.0
    model.layer("out").bias[:] = 0.0
    m = evaluate(model, samples_for(model, 9))
    assert m.counts[:, 0].sum() == 9
    assert m.counts[:, 1:].sum() == 0


def test_evaluate_conserves_counts():
    model = small_cnn()
    for n in (1, 5, 12):
        m = evaluate(model, samples_for(model, n))
        assert m.total == n
        # row sums recover the true-label distribution
        expected = [sum(1 for i in range(n) if i % 3 == c) for c in range(3)]
        npt.assert_array_equal(m.counts.sum(axis=1), expected)


def test_evaluate_rejects_bad_label():
    model = small_cnn()
    x = Rng(1).uniform_array((3, 8, 8), 0.0, 1.0)
    with pytest.raises(ArgumentError):
        evaluate(model, [(x, 3)])


def test_evaluate_empty_gives_zero_matrix():
    m = evaluate(small_cnn(), [])
    assert m.total == 0


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def test_aggregate_constant_folds():
    r = crossval_aggregate([1.0] * 10)
    assert r.mean == 1.0
    assert r.sd == 0.0


def test_aggregate_two_folds():
    r = crossval_aggregate([0.9, 1.0])
    npt.assert_allclose(r.mean, 0.95, rtol=0, atol=1e-15)
    npt.assert_allclose(r.sd, 0.05, rtol=0, atol=1e-15)  # population sd


def test_aggregate_population_not_sample_sd():
    # [0, 1]: population sd is 0.5; the sample estimate would be ~0.707
    r = crossval_aggregate([0.0, 1.0])
    npt.assert_allclose(r.sd, 0.5, rtol=0, atol=1e-15)


def test_aggregate_rejects_empty():
    with pytest.raises(ArgumentError):
        crossval_aggregate([])


def test_aggregate_rejects_out_of_range():
    with pytest.raises(ArgumentError):
        crossval_aggregate([0.5, 1.2])
    with pytest.raises(ArgumentError):
        crossval_aggregate([-0.1])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=1, max_size=12),
       st.randoms(use_true_random=False))
def test_aggregate_permutation_invariant(accs, pyrandom):
    shuffled = list(accs)
    pyrandom.shuffle(shuffled)
    a = crossval_aggregate(accs)
    b = crossval_aggregate(shuffled)
    assert a.mean == b.mean
    assert a.sd == b.sd


def test_aggregate_matches_direct_formulas():
    accs = [0.85, 0.90, 0.75, 1.0, 0.95]
    r = crossval_aggregate(accs)
    mean = sum(accs) / len(accs)
    var = sum((a - mean) ** 2 for a in accs) / len(accs)
    npt.assert_allclose(r.mean, mean, rtol=1e-15)
    npt.assert_allclose(r.sd, math.sqrt(var), rtol=1e-15)


# ---------------------------------------------------------------------------
# report formatting
# ---------------------------------------------------------------------------

def test_report_csv_layout():
    r = CrossValReport(fold_accuracies=(0.9, 1.0), mean=0.95, sd=0.05)
    lines = report_csv(r).splitlines()
    assert lines == [
        "fold,accuracy",
        "0,0.900000",
        "1,1.000000",
        "mean,0.950000",
        "sd_population,0.050000",
    ]


def test_report_csv_ends_with_newline():
    r = crossval_aggregate([0.5])
    assert report_csv(r).endswith("\n")
