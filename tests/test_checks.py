"""Self-verification harness: every gradient path, plus its failure mode."""

import pytest

from paintnet import checks
from paintnet.checks import THRESHOLD, CheckRow, run_gradcheck
from paintnet.errors import ArgumentError

from conftest import broken_builder

EXPECTED_NAMES = [
    "conv2d", "maxpool2x2", "unpool2x2", "deconv_tied", "deconv_learned",
    "dense", "softmax_xent", "cae_stack", "cnn_stack",
]


def test_component_roster():
    assert list(checks._BUILDERS) == EXPECTED_NAMES


def test_all_components_pass():
    rows = run_gradcheck()
    assert [r.component for r in rows] == EXPECTED_NAMES
    for r in rows:
        assert r.passed, f"{r.component} at {r.max_rel_error:.3e}"
        assert r.max_rel_error < THRESHOLD


def test_rows_deterministic():
    a = run_gradcheck()
    b = run_gradcheck()
    assert [(r.component, r.max_rel_error) for r in a] == \
           [(r.component, r.max_rel_error) for r in b]


def test_medium_scale_stacks_pass():
    for r in run_gradcheck(scale="medium"):
        assert r.passed, f"{r.component} at {r.max_rel_error:.3e}"


@pytest.mark.parametrize("name", EXPECTED_NAMES)
def test_perturbation_trips_exactly_one(name, monkeypatch):
    monkeypatch.setitem(checks._BUILDERS, name, broken_builder(checks._BUILDERS[name]))
    rows = run_gradcheck()
    failing = [r.component for r in rows if not r.passed]
    assert failing == [name]


def test_unknown_scale_rejected():
    with pytest.raises(ArgumentError):
        run_gradcheck(scale="huge")


def test_check_row_pass_boundary():
    assert CheckRow(component="x", max_rel_error=THRESHOLD * 0.99).passed
    assert not CheckRow(component="x", max_rel_error=THRESHOLD).passed
