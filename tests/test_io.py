import json
import re

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


@pytest.mark.parametrize("layout", [[["w", {}]], [["w", ""]], {"w": [1]}],
                         ids=["shape-object", "shape-string", "layout-object"])
def test_checkpoint_layout_must_be_json_lists(tmp_path, layout):
    # a shape of {} or "" was read as (), which a one-float blob matches
    path = tmp_path / "m.ckpt"
    io.write_checkpoint(path, {}, [("w", np.array(2.5))])
    magic, header, blob = path.read_bytes().split(b"\n", 2)
    doc = {**json.loads(header), "layout": layout}
    path.write_bytes(b"\n".join([magic, json.dumps(doc).encode(), blob]))
    with pytest.raises(FormatError, match="must be a JSON list"):
        io.read_checkpoint(path)


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


ANNOTATIONS = {"format": "mdpp-annotations-1", "sequence_id": "seq-a", "stage": 2,
               "users": [{"user_id": "alice", "selections": [[0, 1], [1, 4]]}]}
SUMMARY = {"format": "mdpp-summary-1", "budget_fraction": 0.2, "selections": [[0, 3]]}
# content the containers reject; each was a bare ValidationError, or read
# silently as no users, before the readers built the containers directly
MALFORMED_CONTENT = {
    "stage-5": (ANNOTATIONS, {"stage": 5}),
    "stage-1-two-views": (ANNOTATIONS, {"stage": 1}),
    "duplicate-selection": (ANNOTATIONS,
                            {"users": [{"user_id": "a", "selections": [[0, 1], [0, 1]]}]}),
    "users-object": (ANNOTATIONS, {"users": {}}),
    "users-string": (ANNOTATIONS, {"users": ""}),
    "user-selections-object": (ANNOTATIONS, {"users": [{"user_id": "a", "selections": {}}]}),
    "missing-user-id": (ANNOTATIONS, {"users": [{"selections": []}]}),
    "budget-0": (SUMMARY, {"budget_fraction": 0}),
    "budget-2": (SUMMARY, {"budget_fraction": 2}),
    "budget-nan": (SUMMARY, {"budget_fraction": float("nan")}),
    "selections-object": (SUMMARY, {"selections": {}}),  # would be read as its keys
    "selections-string": (SUMMARY, {"selections": "01"}),  # would be read as its characters
}


@pytest.mark.parametrize("base, change", MALFORMED_CONTENT.values(), ids=MALFORMED_CONTENT)
def test_malformed_content_is_a_format_error_naming_the_path(tmp_path, base, change):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({**base, **change}))
    read = io.read_annotations if base is ANNOTATIONS else io.read_summary
    with pytest.raises(FormatError, match=re.escape(str(path))):
        read(path)


@pytest.mark.parametrize("kind", ["annotations", "summary"])
def test_selection_outside_the_sequence_names_the_path(tmp_path, kind):
    path = tmp_path / f"a.{kind}.json"
    path.write_text(json.dumps(ANNOTATIONS if kind == "annotations" else SUMMARY))
    read = io.read_annotations if kind == "annotations" else io.read_summary
    with pytest.raises(ValidationError, match=f"{re.escape(str(path))}.* outside"):
        read(path, _sequence(n=3))


def test_summary_budget_is_stored_as_a_float(tmp_path):
    path = tmp_path / "a.summary.json"
    path.write_text(json.dumps({**SUMMARY, "budget_fraction": 1}))
    back = io.read_summary(path)
    assert type(back.budget_fraction) is float and back == Summary(((0, 3),), 1.0)
    io.write_summary(back, path)
    assert '"budget_fraction": 1.0' in path.read_text()


def test_feature_file_content_errors_name_the_path(tmp_path):
    path = tmp_path / "a.mdv"
    io.write_feature_file(_sequence(m=1, n=1, d=1), path)
    raw = path.read_bytes()
    path.write_bytes(raw[:4] + (0).to_bytes(4, "little") + raw[8:-4])  # M = 0, no payload
    with pytest.raises(FormatError, match=f"{re.escape(str(path))}.*positive"):
        io.read_feature_file(path)
    path.write_bytes(raw[:-4] + np.array([np.inf], dtype="<f4").tobytes())
    with pytest.raises(DataError, match=f"{re.escape(str(path))}.*non-finite"):
        io.read_feature_file(path)
