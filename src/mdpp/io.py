"""On-disk formats: binary feature files, annotation/summary/checkpoint files.

Feature files are binary: magic ``MDV1``, then M, N, D as little-endian
uint32, then M*N*D little-endian float32 values in view-major, time-major,
dim order.

Annotations and summaries are JSON (structured text, diffable, lossless for
non-ASCII ids). Checkpoints carry two text header lines (magic, then a JSON
object) followed by a raw little-endian float64 blob of the weights.

Readers check only the format; the ``data_model`` containers they build
check the content. All writers go through an atomic temp-file + rename.
"""

from __future__ import annotations

import json
import math
import os
import struct
import tempfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .data_model import AnnotationSet, MultiViewSequence, Summary, check_int, check_str
from .errors import DataError, FormatError, ValidationError

FEATURE_MAGIC = b"MDV1"
CHECKPOINT_MAGIC = "MDPP-CKPT 1"
_HEADER = struct.Struct("<4sIII")


def atomic_write_bytes(path, payload: bytes) -> None:
    """Write ``payload`` to ``path`` via a temp file in the same directory."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# -- feature files -----------------------------------------------------------


def write_feature_file(sequence: MultiViewSequence, path) -> None:
    m, n, d = sequence.features.shape
    header = _HEADER.pack(FEATURE_MAGIC, m, n, d)
    meta = json.dumps(
        {"sequence_id": sequence.sequence_id, "fps_note": sequence.fps_note},
        ensure_ascii=False,
    ).encode("utf-8")
    payload = sequence.features.astype("<f4", copy=False).tobytes(order="C")
    atomic_write_bytes(path, header + struct.pack("<I", len(meta)) + meta + payload)


def read_feature_file(path) -> MultiViewSequence:
    """Parse a binary feature file; rejects truncated or non-finite payloads."""
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size + 4:
        raise FormatError(f"{path}: file too short for a feature header")
    magic, m, n, d = _HEADER.unpack_from(raw, 0)
    if magic != FEATURE_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {FEATURE_MAGIC!r}")
    (meta_len,) = struct.unpack_from("<I", raw, _HEADER.size)
    body = _HEADER.size + 4
    if len(raw) < body + meta_len:
        raise FormatError(f"{path}: truncated metadata block")
    try:
        meta = json.loads(raw[body : body + meta_len].decode("utf-8"))
    except ValueError as exc:
        raise FormatError(f"{path}: unreadable metadata block: {exc}") from exc
    if not isinstance(meta, dict) or "sequence_id" not in meta:
        raise FormatError(f"{path}: metadata block must be a JSON object with a sequence_id")
    payload = raw[body + meta_len :]
    expected = m * n * d * 4
    if len(payload) != expected:
        raise FormatError(
            f"{path}: payload holds {len(payload)} bytes, header declares {expected}"
        )
    with _malformed(path, "malformed feature file"):
        return MultiViewSequence(
            sequence_id=meta["sequence_id"],
            features=np.frombuffer(payload, dtype="<f4").reshape(m, n, d),
            fps_note=meta.get("fps_note", ""),
        )


# -- annotations -------------------------------------------------------------


def write_annotations(annotations: AnnotationSet, path) -> None:
    doc = {
        "format": "mdpp-annotations-1",
        "sequence_id": annotations.sequence_id,
        "stage": annotations.stage,
        "users": [
            {"user_id": uid, "selections": [[v, t] for v, t in sels]}
            for uid, sels in annotations.users
        ],
    }
    atomic_write_text(path, json.dumps(doc, ensure_ascii=False, indent=2) + "\n")


def read_annotations(path, sequence: MultiViewSequence | None = None) -> AnnotationSet:
    """Parse an annotation file, optionally validating indices against a sequence."""
    doc = _load_json(path, "mdpp-annotations-1")
    with _malformed(path, "malformed annotation document"):
        annotations = AnnotationSet(
            sequence_id=doc["sequence_id"],
            stage=doc["stage"],
            users=tuple((u["user_id"], _list(u["selections"], "selections"))
                        for u in _list(doc["users"], "users")),
        )
    if sequence is not None:
        with _malformed(path, "checked against the sequence", ValidationError):
            annotations.validate_shape(sequence.num_views, sequence.num_steps)
    return annotations


# -- summaries ---------------------------------------------------------------


def write_summary(summary: Summary, path) -> None:
    doc = {
        "format": "mdpp-summary-1",
        "budget_fraction": summary.budget_fraction,
        "selections": [[v, t] for v, t in summary.selections],
    }
    atomic_write_text(path, json.dumps(doc, ensure_ascii=False, indent=2) + "\n")


def read_summary(path, sequence: MultiViewSequence | None = None) -> Summary:
    """Parse a summary file, optionally validating indices against a sequence."""
    doc = _load_json(path, "mdpp-summary-1")
    with _malformed(path, "malformed summary document"):
        summary = Summary(
            selections=_list(doc["selections"], "selections"),
            budget_fraction=doc["budget_fraction"],
        )
    if sequence is not None:
        with _malformed(path, "checked against the sequence", ValidationError):
            summary.validate_shape(sequence.num_views, sequence.num_steps)
    return summary


def _list(value, what: str) -> list:
    """``value`` if it is a JSON list: a container would read an object's
    keys, or a string's characters, as its items."""
    if not isinstance(value, list):
        raise TypeError(f"{what} must be a JSON list, got {type(value).__name__}")
    return value


@contextmanager
def _malformed(path, what: str, error=FormatError):
    """Name ``path`` in what a container raises while it is built from, or
    checked against, the file's values: a DataError stays one; a
    ValidationError, missing key or wrong JSON kind becomes ``error``."""
    try:
        yield
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from exc
    except (ValidationError, KeyError, TypeError) as exc:
        raise error(f"{path}: {what}: {exc}") from exc


def _load_json(path, expected_format: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != expected_format:
        raise FormatError(f"{path}: expected a {expected_format!r} document")
    return doc


# -- checkpoints -------------------------------------------------------------


def write_checkpoint(path, header: dict, blocks: list[tuple[str, np.ndarray]]) -> None:
    """Write named float64 arrays after a text header.

    ``header`` is caller metadata (training info); the layout of
    ``blocks`` (name + shape per array) is recorded so readers can rebuild
    them without out-of-band knowledge.
    """
    layout = [[name, list(arr.shape)] for name, arr in blocks]
    doc = dict(header)
    doc["layout"] = layout
    doc["dtype"] = "<f8"
    text = CHECKPOINT_MAGIC + "\n" + json.dumps(doc, ensure_ascii=False) + "\n"
    blob = b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in blocks)
    atomic_write_bytes(path, text.encode("utf-8") + blob)


def read_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    raw = Path(path).read_bytes()
    first = raw.find(b"\n")
    if first < 0 or raw[:first].decode("utf-8", "replace") != CHECKPOINT_MAGIC:
        raise FormatError(f"{path}: not a {CHECKPOINT_MAGIC} checkpoint")
    second = raw.find(b"\n", first + 1)
    if second < 0:
        raise FormatError(f"{path}: missing checkpoint header line")
    try:
        doc = json.loads(raw[first + 1 : second].decode("utf-8"))
        if not isinstance(doc, dict):
            raise FormatError(f"{path}: checkpoint header must be a JSON object")
        layout = [
            (
                check_str(name, f"{path}: an array name", error=FormatError),
                tuple(check_int(s, f"{path}: a dimension of {name}", 0, error=FormatError)
                      for s in _list(shape, f"the shape of {name}")),
            )
            for name, shape in _list(doc.pop("layout"), "layout")
        ]
    except (ValueError, KeyError, TypeError) as exc:
        raise FormatError(f"{path}: unreadable checkpoint header: {exc}") from exc
    blob = raw[second + 1 :]
    sizes = [math.prod(shape) for _, shape in layout]  # Python ints: no wrap-around
    if len(blob) != sum(sizes) * 8:
        raise FormatError(
            f"{path}: weight blob holds {len(blob)} bytes, header declares {sum(sizes) * 8}"
        )
    flat = np.frombuffer(blob, dtype="<f8")
    if not np.isfinite(flat).all():
        raise DataError(f"{path}: checkpoint weights contain non-finite values")
    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for (name, shape), size in zip(layout, sizes):
        try:  # numpy caps the number of dimensions
            arrays[name] = flat[offset : offset + size].reshape(shape).copy()
        except ValueError as exc:
            raise FormatError(f"{path}: array {name}: {exc}") from exc
        offset += size
    return doc, arrays
