"""Seeded mutation test: no malformed input file lets an exception escape the CLI.

A small valid feature file, annotation file, summary and checkpoint are
mutated one at a time: every JSON value is replaced by each odd value and
every object key is deleted (for the feature file, in its JSON meta block;
for the checkpoint, in its JSON header line), and seeded byte truncations,
flips and insertions are applied to the raw file. Each mutant runs through
``cli.dispatch``, which must return 0, 1 or 2 with no exception escaping.
"""

import json
import struct

import numpy as np
import pytest

from mdpp import cli, training
from mdpp.encoder import init_params

ODD_VALUES = (None, True, False, -1, 2.5, "x", [], {}, 1e308)
BYTE_MUTANTS_PER_KIND = 16
_DELETE = object()


def _paths(value, path=()):
    """Every path into a JSON value, the root included, parents first."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in items:
        yield from _paths(child, (*path, key))


def _replaced(doc, path, new):
    if not path:
        return new
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if new is _DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc


def _json_mutants(doc):
    for path in _paths(doc):
        for value in ODD_VALUES:
            yield f"{list(path)}={value!r}", _replaced(doc, path, value)
        if path and isinstance(path[-1], str):
            yield f"del {list(path)}", _replaced(doc, path, _DELETE)


def _byte_mutants(raw, rng):
    for _ in range(BYTE_MUTANTS_PER_KIND):
        cut = int(rng.integers(len(raw)))
        yield f"truncate@{cut}", raw[:cut]
    for _ in range(BYTE_MUTANTS_PER_KIND):
        at, mask = int(rng.integers(len(raw))), int(rng.integers(1, 256))
        yield f"flip@{at}^{mask}", raw[:at] + bytes([raw[at] ^ mask]) + raw[at + 1 :]
    for _ in range(BYTE_MUTANTS_PER_KIND):
        at, byte = int(rng.integers(len(raw) + 1)), int(rng.integers(256))
        yield f"insert@{at}:{byte}", raw[:at] + bytes([byte]) + raw[at:]


def _feature_json_mutants(raw):
    meta_len = struct.unpack_from("<I", raw, 16)[0]
    head, meta, payload = raw[:16], raw[20 : 20 + meta_len], raw[20 + meta_len :]
    for name, doc in _json_mutants(json.loads(meta)):
        text = json.dumps(doc).encode()
        yield name, head + struct.pack("<I", len(text)) + text + payload


def _checkpoint_json_mutants(raw):
    magic, header, blob = raw.split(b"\n", 2)
    for name, doc in _json_mutants(json.loads(header)):
        yield name, b"\n".join([magic, json.dumps(doc).encode(), blob])


def _text_json_mutants(raw):
    for name, doc in _json_mutants(json.loads(raw)):
        yield name, json.dumps(doc).encode()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("valid")
    paths = {
        "features": root / "a.mdv",
        "annotations": root / "a.annotations.json",
        "summary": root / "a.summary.json",
        "checkpoint": root / "model.ckpt",
    }
    assert cli.dispatch([
        "synth", "--views", "2", "--steps", "40", "--dim", "4", "--events", "2",
        "--event-min", "3", "--event-max", "3", "--seed", "3",
        "--out", str(paths["features"]), "--annotations-out", str(paths["annotations"]),
    ]) == 0
    assert cli.dispatch([
        "oracle", "--features", str(paths["features"]),
        "--annotations", str(paths["annotations"]), "--penalty", "0.05",
        "--max-segments", "8", "--out", str(paths["summary"]),
    ]) == 0
    training.save_checkpoint(
        paths["checkpoint"], init_params(4, hidden_size=2, output_dim=3, seed=0),
        extra={"best_epoch": 1},
    )
    return paths


def _argv(paths, out):
    """One command per mutated format that reads that file."""
    evaluate = ["eval", "--summary", str(paths["summary"]),
                "--annotations", str(paths["annotations"]),
                "--features", str(paths["features"]), "--manifest-out", str(out)]
    return {
        "features": ["segment", "--features", str(paths["features"]), "--out", str(out)],
        "annotations": evaluate,
        "summary": evaluate,
        "checkpoint": ["summarize", "--features", str(paths["features"]),
                       "--checkpoint", str(paths["checkpoint"]), "--penalty", "0.05",
                       "--out", str(out)],
    }


JSON_MUTANTS = {
    "features": _feature_json_mutants,
    "annotations": _text_json_mutants,
    "summary": _text_json_mutants,
    "checkpoint": _checkpoint_json_mutants,
}


def test_no_mutant_escapes_the_cli(files, tmp_path, capsys):
    rng = np.random.default_rng(20181)
    escapes, bad_codes, count = [], [], 0
    for target, json_mutants in JSON_MUTANTS.items():
        paths = {**files, target: tmp_path / files[target].name}
        argv = _argv(paths, tmp_path / "out")[target]
        raw = files[target].read_bytes()
        paths[target].write_bytes(raw)
        assert cli.dispatch(argv) == 0, f"unmutated {target} must succeed"
        for name, mutant in [*json_mutants(raw), *_byte_mutants(raw, rng)]:
            paths[target].write_bytes(mutant)
            count += 1
            try:
                code = cli.dispatch(argv)
            except Exception as exc:  # noqa: BLE001 - the failure under test
                escapes.append(f"{target} {name}: {type(exc).__name__}: {exc}")
                continue
            if code not in (0, 1, 2):
                bad_codes.append(f"{target} {name}: exit {code}")
        capsys.readouterr()
    assert count > 500
    assert not escapes, f"{len(escapes)} of {count} mutants escaped:\n" + "\n".join(escapes)
    assert not bad_codes, "\n".join(bad_codes)
