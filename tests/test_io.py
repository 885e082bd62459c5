import json

import numpy as np
import pytest

from mdpp import io
from mdpp.data_model import AnnotationSet, MultiViewSequence, Summary
from mdpp.errors import DataError, FormatError, ValidationError


def _sequence(seed=0, m=2, n=6, d=4):
    rng = np.random.default_rng(seed)
    return MultiViewSequence(
        sequence_id="seq-a", features=rng.normal(size=(m, n, d)).astype(np.float32),
        fps_note="2fps",
    )


def test_feature_roundtrip(tmp_path):
    seq = _sequence()
    path = tmp_path / "a.mdv"
    io.write_feature_file(seq, path)
    back = io.read_feature_file(path)
    assert back.sequence_id == seq.sequence_id
    assert back.fps_note == seq.fps_note
    np.testing.assert_array_equal(back.features, seq.features)


def test_feature_roundtrip_many_shapes(tmp_path):
    rng = np.random.default_rng(1)
    for trial in range(20):
        m, n, d = rng.integers(1, 5), rng.integers(1, 9), rng.integers(1, 7)
        seq = MultiViewSequence(
            sequence_id=f"s{trial}",
            features=rng.normal(size=(m, n, d)).astype(np.float32),
        )
        path = tmp_path / f"t{trial}.mdv"
        io.write_feature_file(seq, path)
        np.testing.assert_array_equal(io.read_feature_file(path).features, seq.features)


def test_feature_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.mdv"
    io.write_feature_file(_sequence(), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        io.read_feature_file(path)


def test_feature_rejects_truncation(tmp_path):
    path = tmp_path / "short.mdv"
    io.write_feature_file(_sequence(), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(FormatError):
        io.read_feature_file(path)
    path.write_bytes(raw[:7])
    with pytest.raises(FormatError):
        io.read_feature_file(path)


def test_feature_rejects_non_finite_payload(tmp_path):
    seq = _sequence()
    path = tmp_path / "nan.mdv"
    io.write_feature_file(seq, path)
    raw = bytearray(path.read_bytes())
    nan = np.array([np.nan], dtype="<f4").tobytes()
    raw[-4:] = nan
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        io.read_feature_file(path)


def test_write_is_atomic_on_failure(tmp_path, monkeypatch):
    # a writer crash must neither clobber the old file nor leave temp litter
    path = tmp_path / "keep.mdv"
    io.write_feature_file(_sequence(seed=0), path)
    before = path.read_bytes()

    def explode(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(io.os, "replace", explode)
    with pytest.raises(OSError):
        io.write_feature_file(_sequence(seed=1), path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["keep.mdv"]


def test_annotations_roundtrip(tmp_path):
    ann = AnnotationSet(
        sequence_id="seq-a",
        stage=3,
        users=(("alice", ((0, 1), (1, 4))), ("bob", ((1, 2),))),
    )
    path = tmp_path / "a.annotations.json"
    io.write_annotations(ann, path)
    assert io.read_annotations(path) == ann
    # optional shape validation against a sequence
    io.read_annotations(path, _sequence())
    with pytest.raises(ValidationError):
        io.read_annotations(path, _sequence(n=3))


def test_annotations_reject_foreign_json(tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(FormatError):
        io.read_annotations(path)
    path.write_text("{ not json")
    with pytest.raises(FormatError):
        io.read_annotations(path)


def test_summary_roundtrip(tmp_path):
    summ = Summary(selections=((0, 3), (1, 1)), budget_fraction=0.2)
    path = tmp_path / "a.summary.json"
    io.write_summary(summ, path)
    back = io.read_summary(path)
    assert back == summ
    with pytest.raises(ValidationError):
        io.read_summary(path, _sequence(n=2))


def test_summary_rejects_missing_fields(tmp_path):
    path = tmp_path / "bad.summary.json"
    path.write_text(json.dumps({"format": "mdpp-summary-1", "selections": [[0, 1]]}))
    with pytest.raises(FormatError):
        io.read_summary(path)


@pytest.mark.parametrize("budget", [True, "0.2", None])
def test_summary_rejects_non_numeric_budget(tmp_path, budget):
    path = tmp_path / "bad.summary.json"
    path.write_text(json.dumps(
        {"format": "mdpp-summary-1", "selections": [[0, 1]], "budget_fraction": budget}
    ))
    with pytest.raises(FormatError):
        io.read_summary(path)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    blocks = [
        ("wx", rng.normal(size=(8, 3))),
        ("b", rng.normal(size=(8,))),
        ("scalar", np.array(2.5)),
    ]
    header = {"input_dim": 3, "hidden_size": 2, "note": "fixture"}
    path = tmp_path / "m.ckpt"
    io.write_checkpoint(path, header, blocks)
    doc, arrays = io.read_checkpoint(path)
    assert doc["input_dim"] == 3 and doc["note"] == "fixture"
    assert set(arrays) == {"wx", "b", "scalar"}
    for name, arr in blocks:
        np.testing.assert_array_equal(arrays[name], arr)


def test_checkpoint_rejects_corruption(tmp_path):
    path = tmp_path / "m.ckpt"
    io.write_checkpoint(path, {}, [("w", np.ones((2, 2)))])
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])  # drop one float64
    with pytest.raises(FormatError):
        io.read_checkpoint(path)
    path.write_bytes(b"WRONG\n" + raw.split(b"\n", 1)[1])
    with pytest.raises(FormatError):
        io.read_checkpoint(path)
    bad = bytearray(raw)
    bad[-8:] = np.array([np.inf]).tobytes()
    path.write_bytes(bytes(bad))
    with pytest.raises(DataError):
        io.read_checkpoint(path)
