"""Manifest parsing and stratified fold construction."""

import numpy as np
import pytest

from paintnet.data.manifest import (
    DatasetManifest,
    FoldSplit,
    ManifestEntry,
    kfold_split,
    load_manifest,
    parse_manifest,
)
from paintnet.data.rng import Rng, Stream
from paintnet.errors import ArgumentError, ManifestError

from conftest import ASSETS


def synth_manifest(counts) -> DatasetManifest:
    """counts[i] entries of class i, interleaved to exercise ordering."""
    labels = [f"c{i}" for i in range(len(counts))]
    rows = ["path,label"]
    remaining = list(counts)
    n = 0
    while any(remaining):
        for i, left in enumerate(remaining):
            if left:
                rows.append(f"img{n:03d}.ppm,{labels[i]}")
                remaining[i] -= 1
                n += 1
    return parse_manifest("\n".join(rows))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_single_row():
    m = parse_manifest("path,label\na.ppm,dog")
    assert len(m.entries) == 1
    assert m.classes == ("dog",)
    assert m.entries[0] == ManifestEntry(path="a.ppm", class_index=0)


def test_parse_first_appearance_order():
    m = parse_manifest("path,label\na.ppm,z\nb.ppm,a\nc.ppm,z\nd.ppm,m")
    assert m.classes == ("z", "a", "m")
    assert [e.class_index for e in m.entries] == [0, 1, 0, 2]


def test_parse_class_counts():
    m = synth_manifest([3, 5, 2])
    assert m.class_counts() == [3, 5, 2]


def test_parse_strips_whitespace():
    m = parse_manifest("path,label\n a.ppm , dog \n")
    assert m.entries[0].path == "a.ppm"
    assert m.classes == ("dog",)


def test_parse_rejects_empty_text():
    with pytest.raises(ManifestError):
        parse_manifest("")


def test_parse_rejects_header_only():
    with pytest.raises(ManifestError):
        parse_manifest("path,label\n")


def test_parse_rejects_bad_header():
    with pytest.raises(ManifestError):
        parse_manifest("file,class\na.ppm,dog")


def test_parse_rejects_duplicate_path():
    with pytest.raises(ManifestError):
        parse_manifest("path,label\na.ppm,dog\na.ppm,cat")


def test_parse_rejects_one_image_under_two_spellings_naming_both_lines():
    # "." segments and repeated slashes name the same file; crossval could
    # otherwise train on an image and validate on it in one fold
    for spelling in ("./alpha/a.ppm", "alpha//a.ppm"):
        with pytest.raises(ManifestError, match=f"m.csv:4: duplicate path '{spelling}': "
                                                "line 2 lists the same image"):
            parse_manifest(f"path,label\nalpha/a.ppm,dog\nb.ppm,dog\n{spelling},cat\n", "m.csv")


def test_parse_keeps_paths_as_written_and_dotdot_distinct():
    m = parse_manifest("path,label\n./alpha/a.ppm,dog\nalpha/../a.ppm,cat\na.ppm,cat\n")
    assert [e.path for e in m.entries] == ["./alpha/a.ppm", "alpha/../a.ppm", "a.ppm"]


@pytest.mark.parametrize("text", ["path,label\n\na.ppm,x\nb.ppm\n",
                                  'path,label\n"a\nb.ppm",x\nc.ppm\n'],
                         ids=["blank_line", "quoted_field_spanning_two_lines"])
def test_parse_error_names_the_line_its_row_starts_on(text):
    with pytest.raises(ManifestError, match="^m.csv:4: expected 2 fields, got 1$"):
        parse_manifest(text, "m.csv")


def test_parse_rejects_wrong_field_count():
    with pytest.raises(ManifestError):
        parse_manifest("path,label\na.ppm,dog,extra")


def test_parse_rejects_empty_fields():
    with pytest.raises(ManifestError):
        parse_manifest("path,label\n,dog")
    with pytest.raises(ManifestError):
        parse_manifest("path,label\na.ppm,")


def test_load_missing_file(tmp_path):
    with pytest.raises(ManifestError):
        load_manifest(tmp_path / "nope.csv")


def test_load_reads_utf8(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("path,label\na.ppm,réno\n", encoding="utf-8")
    assert load_manifest(p).classes == ("réno",)


# ---------------------------------------------------------------------------
# packaged sample
# ---------------------------------------------------------------------------

def test_sample_manifest_shape():
    m = load_manifest(ASSETS / "sample_manifest.csv")
    assert len(m.entries) == 120
    assert m.classes == ("vangogh", "rembrandt", "renoir")
    assert m.class_counts() == [40, 40, 40]


def test_sample_manifest_paths_unique_and_relative():
    m = load_manifest(ASSETS / "sample_manifest.csv")
    paths = [e.path for e in m.entries]
    assert len(set(paths)) == 120
    for p in paths:
        assert not p.startswith("/")
        assert p.endswith(".ppm")


# ---------------------------------------------------------------------------
# fold splitting
# ---------------------------------------------------------------------------

def test_kfold_rejects_bad_k():
    m = synth_manifest([4, 4])
    with pytest.raises(ArgumentError):
        kfold_split(m, 1, seed=0)
    with pytest.raises(ArgumentError):
        kfold_split(m, 9, seed=0)


def test_kfold_rejects_k_above_largest_class():
    # k=4 fits the 6 entries, but each class of 2 fills only folds 0 and 1
    m = synth_manifest([2, 2, 2])
    with pytest.raises(ArgumentError, match=r"k=4 .*largest class count 2"):
        kfold_split(m, 4, seed=0)
    split = kfold_split(synth_manifest([2, 2, 3]), 3, seed=0)
    assert all(split.folds)


def test_kfold_sample_manifest_is_balanced():
    m = load_manifest(ASSETS / "sample_manifest.csv")
    split = kfold_split(m, 10, seed=0)
    assert split.k == 10
    for fold in split.folds:
        assert len(fold) == 12
        per_class = [0, 0, 0]
        for idx in fold:
            per_class[m.entries[idx].class_index] += 1
        assert per_class == [4, 4, 4]


def test_kfold_deterministic():
    m = synth_manifest([7, 9, 5])
    assert kfold_split(m, 5, seed=3) == kfold_split(m, 5, seed=3)
    assert kfold_split(m, 5, seed=3) != kfold_split(m, 5, seed=4)


def test_kfold_two_by_two_deal():
    # independently replay the rule: per class, shuffle members with the
    # class-indexed split stream, then deal position % k
    m = synth_manifest([2, 2])
    seed = 12
    expected = [[], []]
    for cls in range(2):
        members = [i for i, e in enumerate(m.entries) if e.class_index == cls]
        Rng.stream(seed, Stream.SPLIT, cls).shuffle(members)
        for pos, idx in enumerate(members):
            expected[pos % 2].append(idx)
    split = kfold_split(m, 2, seed=seed)
    assert split.folds == tuple(tuple(sorted(f)) for f in expected)
    for fold in split.folds:
        assert len(fold) == 2
        assert {m.entries[i].class_index for i in fold} == {0, 1}


@pytest.mark.parametrize("k", [2, 5, 10])
def test_kfold_partition_properties(k):
    rng = np.random.default_rng(k)
    counts = [int(rng.integers(k, 3 * k)) for _ in range(3)]
    m = synth_manifest(counts)
    split = kfold_split(m, k, seed=17)

    seen = [i for fold in split.folds for i in fold]
    assert sorted(seen) == list(range(len(m.entries)))   # exhaustive
    assert len(seen) == len(set(seen))           # disjoint

    for cls, total in enumerate(counts):
        per_fold = [sum(m.entries[i].class_index == cls for i in fold)
                    for fold in split.folds]
        assert max(per_fold) - min(per_fold) <= 1
        assert sum(per_fold) == total


def test_kfold_folds_sorted():
    m = synth_manifest([6, 6])
    for fold in kfold_split(m, 3, seed=5).folds:
        assert list(fold) == sorted(fold)


def test_train_indices_complement():
    m = synth_manifest([5, 5, 5])
    split = kfold_split(m, 5, seed=1)
    for f in range(split.k):
        train = split.train_indices(f)
        assert set(train) | set(split.folds[f]) == set(range(len(m.entries)))
        assert not set(train) & set(split.folds[f])
        assert list(train) == sorted(train)


def test_train_indices_range_checked():
    split = FoldSplit(folds=((0, 1), (2, 3)))
    with pytest.raises(ArgumentError):
        split.train_indices(2)
    with pytest.raises(ArgumentError):
        split.train_indices(-1)
