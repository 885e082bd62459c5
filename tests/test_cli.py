import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mdpp import bruteforce, cli, io, kts, summarizer
from mdpp.data_model import Summary


def run(argv):
    return cli.dispatch(argv)


def _synth(tmp_path, name, seed, steps=40):
    features = tmp_path / f"{name}.mdv"
    annotations = tmp_path / f"{name}.annotations.json"
    code = run([
        "synth", "--views", "2", "--steps", str(steps), "--dim", "8",
        "--events", "2", "--event-min", "3", "--event-max", "3",
        "--seed", str(seed), "--out", str(features),
        "--annotations-out", str(annotations),
    ])
    assert code == 0
    return features, annotations


def test_synth_writes_files_and_manifest(tmp_path, capsys):
    features, annotations = _synth(tmp_path, "a", seed=0)
    assert "2 views x 40 steps x 8 dims" in capsys.readouterr().out
    sequence = io.read_feature_file(features)
    assert (sequence.num_views, sequence.num_steps) == (2, 40)
    io.read_annotations(annotations, sequence)

    manifest = json.loads((tmp_path / "a.mdv.manifest.json").read_text())
    assert manifest["subcommand"] == "synth"
    assert manifest["seed"] == 0
    assert str(features) in manifest["outputs"]
    assert manifest["wall_time_s"] >= 0


def test_segment_reports_change_points(tmp_path, capsys):
    features, _ = _synth(tmp_path, "a", seed=1)
    out = tmp_path / "segments.txt"
    assert run(["segment", "--features", str(features), "--max-segments", "6",
                "--penalty", "0.05", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "view 0:" in text and "view 1:" in text
    assert out.read_text() in text
    sequence = io.read_feature_file(features)
    lines = [line for line in text.splitlines() if line.startswith("view ")]
    assert len(lines) == sequence.num_views
    for m, line in enumerate(lines):
        relaxed = kts.kts(sequence.view(m), 6, 0.05).levels_relaxed
        assert 1 <= relaxed <= 6 and f" levels_relaxed={relaxed} " in line


def test_segment_defaults_to_the_summarizer_cap(tmp_path, capsys):
    # zero penalty fills the cap, so the default cap decides the shots
    features, _ = _synth(tmp_path, "a", seed=3, steps=300)
    capsys.readouterr()
    assert run(["segment", "--features", str(features), "--penalty", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()[:2]
    sequence = io.read_feature_file(features)
    segmentations = summarizer.segment_views(sequence, penalty_coeff=0.0)
    assert len(segmentations) == len(lines) == 2
    for m, (line, segmentation) in enumerate(zip(lines, segmentations)):
        shots = segmentation.shot_list(sequence.num_steps)
        assert shots.num_shots == summarizer.default_max_segments(300) == 20
        cps = ",".join(str(c) for c in shots.boundaries[:-1])
        assert line.startswith(f"view {m}: segments=20 ")
        assert line.endswith(f" levels_relaxed=20 change_points=[{cps}]")


def test_oracle_then_eval(tmp_path, capsys):
    features, annotations = _synth(tmp_path, "a", seed=2)
    summary = tmp_path / "oracle.summary.json"
    assert run(["oracle", "--features", str(features), "--annotations", str(annotations),
                "--penalty", "0.05", "--max-segments", "8", "--out", str(summary)]) == 0
    loaded = io.read_summary(summary)
    assert 0 < len(loaded.selections) <= 6  # ceil(0.15 * 40)

    report = tmp_path / "report.json"
    assert run(["eval", "--summary", str(summary), "--annotations", str(annotations),
                "--features", str(features), "--out", str(report)]) == 0
    out = capsys.readouterr().out
    assert "mean\t" in out and "tolerant_f1" in out
    doc = json.loads(report.read_text())
    assert doc["f1"] > 0.5  # the oracle should align well with its own truth
    plot = (tmp_path / "report.json.plot.tsv").read_text()
    assert plot.startswith("tau\tf1\n")


@pytest.mark.parametrize("thresholds, item", [
    ("x", "x"), ("", ""), ("0.1,,0.2", ""), ("nan", "nan"), ("0,inf", "inf"),
])
def test_eval_rejects_bad_thresholds(tmp_path, capsys, thresholds, item):
    features, annotations = _synth(tmp_path, "a", seed=2)
    summary = tmp_path / "oracle.summary.json"
    assert run(["oracle", "--features", str(features), "--annotations", str(annotations),
                "--out", str(summary)]) == 0
    report = tmp_path / "report.json"
    capsys.readouterr()
    assert run(["eval", "--summary", str(summary), "--annotations", str(annotations),
                "--features", str(features), "--thresholds", thresholds,
                "--out", str(report)]) == 1
    err = capsys.readouterr().err
    assert f"ConfigError: --thresholds item {item!r} is not a finite number" in err
    assert "Traceback" not in err and not report.exists()


def test_oracle_rejects_zero_max_segments(tmp_path, capsys):
    features, annotations = _synth(tmp_path, "a", seed=2)
    summary = tmp_path / "oracle.summary.json"
    assert run(["oracle", "--features", str(features), "--annotations", str(annotations),
                "--max-segments", "0", "--out", str(summary)]) == 1
    assert "ConfigError" in capsys.readouterr().err
    assert not summary.exists()


def test_summarize_unsupervised(tmp_path):
    features, _ = _synth(tmp_path, "a", seed=3)
    out = tmp_path / "u.summary.json"
    assert run(["summarize", "--features", str(features), "--unsupervised",
                "--penalty", "0.05", "--max-segments", "8", "--out", str(out)]) == 0
    summary = io.read_summary(out)
    assert 0 < len(summary.selections) <= 6


def test_summarize_mode_conflicts_exit_1(tmp_path):
    features, _ = _synth(tmp_path, "a", seed=4)
    out = tmp_path / "x.summary.json"
    assert run(["summarize", "--features", str(features), "--unsupervised",
                "--checkpoint", "nope.ckpt", "--out", str(out)]) == 1
    assert run(["summarize", "--features", str(features), "--baseline", "merge-views",
                "--out", str(out)]) == 1  # needs --baseline-checkpoint


def test_usage_errors_exit_1(tmp_path):
    assert run(["summarize"]) == 1  # missing required arguments
    assert run(["frobnicate"]) == 1  # unknown subcommand
    assert run(["synth", "--views", "0", "--out", str(tmp_path / "x.mdv"),
                "--annotations-out", str(tmp_path / "x.json")]) == 1


def test_missing_input_exits_1(tmp_path):
    assert run(["segment", "--features", str(tmp_path / "missing.mdv")]) == 1


def test_check_suites(capsys):
    assert run(["check", "all", "--trials", "3", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert out.count("ok") >= 5
    assert run(["check", "dpp", "--n", "1", "--trials", "2"]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("flag, value", [("--n", "0"), ("--trials", "0"), ("--trials", "-1")])
def test_check_counts_must_be_positive(capsys, flag, value):
    suite = "dpp" if flag == "--n" else "knapsack"
    assert run(["check", suite, flag, value]) == 1
    captured = capsys.readouterr()
    assert (f"mdpp: error: usage: argument {flag}: '{value}' is not a positive integer"
            in captured.err)
    assert "Traceback" not in captured.err
    assert "ok " not in captured.out


def test_failing_check_exits_1_without_manifest(capsys, monkeypatch):
    monkeypatch.setattr(bruteforce, "check_knapsack",
                        lambda trials, seed: [("planted knapsack row", False, "1 trials")])
    assert run(["check", "knapsack"]) == 1
    captured = capsys.readouterr()
    assert "FAIL  planted knapsack row (1 trials)" in captured.out
    assert "manifest:" not in captured.out
    assert "mdpp: error: ValidationError: one or more brute-force checks failed" in captured.err


def _printed_manifests(text):
    prefix = "manifest: "
    return [json.loads(line[len(prefix):]) for line in text.splitlines()
            if line.startswith(prefix)]


def test_manifest_out_dash_prints_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    features, _ = _synth(tmp_path, "a", seed=1)
    capsys.readouterr()
    assert run(["summarize", "--features", str(features), "--unsupervised",
                "--out", "s.json", "--manifest-out", "-"]) == 0
    (manifest,) = _printed_manifests(capsys.readouterr().out)
    assert manifest["subcommand"] == "summarize" and manifest["outputs"] == ["s.json"]
    assert not (tmp_path / "-").exists()
    assert not (tmp_path / "s.json.manifest.json").exists()


# argv, manifest file (None: one stdout line), inputs, outputs; {f}, {a}, {s} are
# the features, annotations and summary, {t} the test's directory
@pytest.mark.parametrize("argv, target, inputs, outputs", [
    (["oracle", "--features", "{f}", "--annotations", "{a}", "--out", "{t}/o.json"],
     "{t}/o.json.manifest.json", ["{f}", "{a}"], ["{t}/o.json"]),
    (["segment", "--features", "{f}"], None, ["{f}"], []),
    (["segment", "--features", "{f}", "--out", "{t}/seg.txt"],
     "{t}/seg.txt.manifest.json", ["{f}"], ["{t}/seg.txt"]),
    (["eval", "--summary", "{s}", "--annotations", "{a}", "--features", "{f}"],
     None, ["{f}", "{s}", "{a}"], []),
    (["eval", "--summary", "{s}", "--annotations", "{a}", "--features", "{f}",
      "--out", "{t}/e.json"],
     "{t}/e.json.manifest.json", ["{f}", "{s}", "{a}"], ["{t}/e.json", "{t}/e.json.plot.tsv"]),
    (["check", "knapsack", "--trials", "2"], None, [], []),
    (["summarize", "--features", "{f}", "--unsupervised", "--out", "{t}/u.json",
      "--manifest-out", "{t}/m.json"], "{t}/m.json", ["{f}"], ["{t}/u.json"]),
], ids=["oracle", "segment", "segment-out", "eval", "eval-out", "check", "manifest-out"])
def test_manifest_destination_and_paths(tmp_path, capsys, argv, target, inputs, outputs):
    features, annotations = _synth(tmp_path, "a", seed=1)
    summary = tmp_path / "s.json"
    assert run(["summarize", "--features", str(features), "--unsupervised",
                "--out", str(summary)]) == 0
    names = {"f": features, "a": annotations, "s": summary, "t": tmp_path}

    def fill(texts):
        return [text.format(**names) for text in texts]

    before = set(tmp_path.iterdir())
    capsys.readouterr()
    assert run(fill(argv)) == 0
    printed = _printed_manifests(capsys.readouterr().out)
    written = set(tmp_path.iterdir()) - before - {Path(p) for p in fill(outputs)}
    if target is None:
        assert written == set()
        (manifest,) = printed
    else:
        (path,) = fill([target])
        assert printed == [] and written == {Path(path)}
        manifest = json.loads(Path(path).read_text())
    assert manifest["subcommand"] == argv[0]
    assert manifest["inputs"] == {
        p: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in fill(inputs)
    }
    assert manifest["outputs"] == fill(outputs)
    assert all(Path(p).is_file() for p in manifest["outputs"])


def _training_dir(tmp_path, steps=40):
    root = tmp_path / "corpus"
    for c in range(3):
        coll = root / f"c{c}"
        coll.mkdir(parents=True)
        for i in range(2):
            seed = 10 * c + i
            features = coll / f"s{i}.mdv"
            annotations = coll / f"s{i}.annotations.json"
            assert run([
                "synth", "--views", "2", "--steps", str(steps), "--dim", "8",
                "--events", "2", "--event-min", "3", "--event-max", "3",
                "--seed", str(seed), "--out", str(features),
                "--annotations-out", str(annotations),
            ]) == 0
            assert run([
                "oracle", "--features", str(features), "--annotations", str(annotations),
                "--penalty", "0.05", "--max-segments", "8",
                "--out", str(coll / "s{}.summary.json".format(i)),
            ]) == 0
    return root


def test_train_summarize_eval_pipeline(tmp_path, capsys):
    root = _training_dir(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    assert run([
        "train", "--features-dir", str(root), "--val", "c1", "--test", "c2",
        "--hidden", "4", "--output-dim", "8", "--iterations", "2",
        "--batch-size", "4", "--out", str(ckpt),
    ]) == 0
    assert "best epoch" in capsys.readouterr().out
    history = (tmp_path / "model.ckpt.history.tsv").read_text().splitlines()
    assert history[0] == (
        "epoch\ttrain_loss\tval_loss\ttrain_bce\ttrain_dpp_nll\tval_bce\tval_dpp_nll\tgrad_norm"
    )
    assert len(history) == 3

    manifest = json.loads((tmp_path / "model.ckpt.manifest.json").read_text())
    assert len(manifest["inputs"]) == 12  # 6 feature files + 6 target summaries

    test_features = root / "c2" / "s0.mdv"
    out = tmp_path / "model.summary.json"
    assert run(["summarize", "--features", str(test_features),
                "--checkpoint", str(ckpt), "--penalty", "0.05",
                "--max-segments", "8", "--out", str(out)]) == 0
    summary = io.read_summary(out)
    assert len(summary.selections) <= 6

    assert run(["eval", "--summary", str(out),
                "--annotations", str(root / "c2" / "s0.annotations.json"),
                "--features", str(test_features)]) == 0


def test_train_with_non_finite_learning_rate_exits_1(tmp_path, capsys):
    root = _training_dir(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    capsys.readouterr()
    assert run(["train", "--features-dir", str(root), "--lr", "nan", "--out", str(ckpt)]) == 1
    err = capsys.readouterr().err
    assert "ConfigError" in err and "learning_rate must be a finite real number > 0, got nan" in err
    assert not ckpt.exists()


def test_negative_seed_exits_1(tmp_path, capsys):
    root = _training_dir(tmp_path)
    features = root / "c0" / "s0.mdv"
    out = tmp_path / "out"
    commands = (
        ["synth", "--views", "2", "--steps", "40", "--dim", "8", "--events", "2",
         "--event-min", "3", "--event-max", "3", "--out", str(out / "a.mdv"),
         "--annotations-out", str(out / "a.annotations.json")],
        ["train", "--features-dir", str(root), "--hidden", "4", "--output-dim", "8",
         "--iterations", "1", "--out", str(out / "model.ckpt")],
        ["summarize", "--features", str(features), "--baseline", "random",
         "--out", str(out / "random.summary.json")],
    )
    capsys.readouterr()
    for argv in commands:
        assert run([*argv, "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert "ConfigError" in err and "seed must be an integer >= 0, got -1" in err
    assert not out.exists()


def test_segment_with_non_finite_penalty_exits_1(tmp_path, capsys):
    features, _ = _synth(tmp_path, "a", seed=5)
    capsys.readouterr()
    assert run(["segment", "--features", str(features), "--penalty", "nan"]) == 1
    err = capsys.readouterr().err
    assert "ConfigError" in err and "penalty_coeff must be a finite real number >= 0, got nan" in err


def test_train_history_columns_parse_as_floats(tmp_path):
    root = _training_dir(tmp_path)
    for lam in ("1.0", "0"):
        ckpt = tmp_path / f"model-{lam}.ckpt"
        assert run([
            "train", "--features-dir", str(root), "--hidden", "4", "--output-dim", "8",
            "--iterations", "2", "--batch-size", "4", "--lam", lam, "--out", str(ckpt),
        ]) == 0
        header, *rows = (tmp_path / f"model-{lam}.ckpt.history.tsv").read_text().splitlines()
        names = header.split("\t")
        assert len(rows) == 2
        for epoch, row in enumerate(rows, start=1):
            values = dict(zip(names, row.split("\t")))
            assert int(values.pop("epoch")) == epoch
            cols = {k: float(v) for k, v in values.items()}
            assert np.isfinite([cols[k] for k in cols if k != "train_dpp_nll"]).all()
            assert cols["grad_norm"] > 0.0
            assert np.isfinite(cols["val_dpp_nll"])
            # lam = 0 never builds the kernel in training, so its part is nan
            assert np.isnan(cols["train_dpp_nll"]) == (lam == "0")


def test_baseline_summarize_modes(tmp_path):
    root = _training_dir(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    assert run([
        "train", "--features-dir", str(root), "--hidden", "4", "--output-dim", "8",
        "--iterations", "1", "--batch-size", "4", "--out", str(ckpt),
    ]) == 0
    features = root / "c0" / "s0.mdv"
    for baseline, extra in (
        ("random", []),
        ("merge-views", ["--baseline-checkpoint", str(ckpt)]),
        ("merge-summaries", ["--baseline-checkpoint", str(ckpt)]),
    ):
        out = tmp_path / f"{baseline}.summary.json"
        assert run(["summarize", "--features", str(features), "--baseline", baseline,
                    "--penalty", "0.05", "--max-segments", "8",
                    "--out", str(out), *extra]) == 0
        assert len(io.read_summary(out).selections) <= 6


def test_numeric_failure_exits_2(tmp_path, capsys):
    # at output_dim 1 the joint kernel has rank 1, so a target of more than
    # one step has zero probability; the CLI maps the NumericError to exit
    # code 2 and writes no checkpoint
    root = _training_dir(tmp_path)
    ckpt = tmp_path / "model.ckpt"
    capsys.readouterr()
    assert run([
        "train", "--features-dir", str(root), "--hidden", "4", "--output-dim", "1",
        "--iterations", "1", "--out", str(ckpt),
    ]) == 2
    err = capsys.readouterr().err
    assert "numeric: target subset of size" in err and "exceed output_dim=1" in err
    assert not ckpt.exists()


@pytest.mark.parametrize("layout", ["missing", "per_direction"])
def test_checkpoint_with_other_arrays_exits_1(tmp_path, capsys, layout):
    # a checkpoint whose array names differ from the model's is a FormatError
    from mdpp.encoder import init_params

    features, _ = _synth(tmp_path, "a", seed=5)
    blocks = init_params(8, hidden_size=3, output_dim=4, seed=0).named_arrays()
    if layout == "missing":
        blocks = [(name, arr) for name, arr in blocks if name != "lstm_b"]
    else:  # the per-direction names written before the LSTM tensors were stacked
        lstm = dict(blocks[:3])
        blocks = [
            (f"{name}_{tag}", lstm[f"lstm_{name}"][k])
            for k, tag in enumerate("fb")
            for name in ("wx", "wh", "b")
        ] + blocks[3:]
    ckpt = tmp_path / "model.ckpt"
    io.write_checkpoint(ckpt, {}, blocks)
    capsys.readouterr()
    assert run(["summarize", "--features", str(features), "--checkpoint", str(ckpt),
                "--out", str(tmp_path / "s.summary.json")]) == 1
    err = capsys.readouterr().err
    assert "FormatError" in err
    if layout == "missing":
        assert "missing ['lstm_b'], unexpected []" in err
    else:
        assert "missing ['lstm_wx', 'lstm_wh', 'lstm_b']" in err and "'b_b'" in err


def _summarize_with(tmp_path, features, ckpt, name="s"):
    out = tmp_path / f"{name}.summary.json"
    code = run(["summarize", "--features", str(features), "--checkpoint", str(ckpt),
                "--out", str(out)])
    return code, out


def test_checkpoint_header_dims_are_ignored(tmp_path):
    # checkpoints written before the dims were read off the array shapes
    # carry them, and a seed, in the header; they load to the same model
    from mdpp.encoder import init_params

    features, _ = _synth(tmp_path, "a", seed=5)
    blocks = init_params(8, hidden_size=3, output_dim=4, seed=0).named_arrays()
    old, new = tmp_path / "old.ckpt", tmp_path / "new.ckpt"
    io.write_checkpoint(
        old, {"input_dim": 8, "hidden_size": 3, "output_dim": 4, "seed": 0}, blocks
    )
    io.write_checkpoint(new, {}, blocks)
    code_old, out_old = _summarize_with(tmp_path, features, old, "old")
    code_new, out_new = _summarize_with(tmp_path, features, new, "new")
    assert code_old == code_new == 0
    assert out_old.read_bytes() == out_new.read_bytes()


@pytest.mark.parametrize("name, shape", [
    ("feat_w2", (4, 5)),  # H = 5 against the LSTM's H = 3
    ("lstm_wx", (12, 8)),  # the two directions not stacked
    ("lstm_wx", (2, 13, 8)),  # a 4H axis not divisible by 4
], ids=["feat_w2-other-H", "lstm_wx-2d", "lstm_wx-4H-not-divisible"])
def test_checkpoint_arrays_that_fit_no_model_exit_1(tmp_path, capsys, name, shape):
    from mdpp.encoder import init_params

    features, _ = _synth(tmp_path, "a", seed=5)
    blocks = dict(init_params(8, hidden_size=3, output_dim=4, seed=0).named_arrays())
    blocks[name] = np.zeros(shape)
    ckpt = tmp_path / "model.ckpt"
    io.write_checkpoint(ckpt, {}, list(blocks.items()))
    capsys.readouterr()
    assert _summarize_with(tmp_path, features, ckpt)[0] == 1
    err = capsys.readouterr().err
    assert "ShapeError" in err and f"{name} has shape" in err and "Traceback" not in err


def _set_dim(name, dims):
    def mutate(doc):
        for entry in doc["layout"]:
            if entry[0] == name:
                entry[1] = dims
        return doc
    return mutate


@pytest.mark.parametrize("mutate, blob", [
    (lambda doc: "abc", None),  # valid JSON, not an object
    (_set_dim("lstm_b", [2, 12.0]), None),  # would be coerced to 12
    (_set_dim("qual_b2", [True]), None),  # would be coerced to 1
    (_set_dim("feat_b2", [1e308]), None),
    # the int64 product of these dims wraps to 0, which an empty blob matches
    (lambda doc: {"layout": [["w", [4294967296, 4294967296]]]}, b""),
    (lambda doc: {"layout": [["w", [1] * 70]]}, np.zeros(1).tobytes()),  # too many dims
], ids=["not-an-object", "float-dim", "bool-dim", "1e308-dim", "int64-wrap", "70-dims"])
def test_malformed_checkpoint_header_exits_1(tmp_path, capsys, mutate, blob):
    from mdpp import training
    from mdpp.encoder import init_params

    features, _ = _synth(tmp_path, "a", seed=5)
    ckpt = tmp_path / "model.ckpt"
    training.save_checkpoint(ckpt, init_params(8, hidden_size=3, output_dim=4, seed=0))
    magic, header, weights = ckpt.read_bytes().split(b"\n", 2)
    header = json.dumps(mutate(json.loads(header))).encode()
    ckpt.write_bytes(b"\n".join([magic, header, weights if blob is None else blob]))
    capsys.readouterr()
    assert _summarize_with(tmp_path, features, ckpt)[0] == 1
    err = capsys.readouterr().err
    assert "FormatError" in err and "Traceback" not in err


@pytest.mark.parametrize("meta", [b"[1]", b'"x"', b"null", b"1"])
def test_feature_meta_block_that_is_not_an_object_exits_1(tmp_path, capsys, meta):
    features, _ = _synth(tmp_path, "a", seed=5)
    raw = features.read_bytes()
    header = raw[:16]
    meta_len = int.from_bytes(raw[16:20], "little")
    payload = raw[20 + meta_len :]
    features.write_bytes(header + len(meta).to_bytes(4, "little") + meta + payload)
    capsys.readouterr()
    assert run(["segment", "--features", str(features), "--out",
                str(tmp_path / "seg.json")]) == 1
    err = capsys.readouterr().err
    assert "FormatError" in err and "Traceback" not in err


@pytest.mark.parametrize("value", [None, [1, 2], 5, True], ids=["null", "list", "int", "true"])
@pytest.mark.parametrize(
    "field", ["feature-sequence-id", "annotation-sequence-id", "user-id", "array-name"]
)
def test_non_string_ids_exit_1(tmp_path, capsys, field, value):
    # a non-string id is a FormatError, never read as its text ('None', '5')
    from mdpp import training
    from mdpp.encoder import init_params

    features, annotations = _synth(tmp_path, "a", seed=3)
    if field == "feature-sequence-id":
        raw = features.read_bytes()
        meta_len = int.from_bytes(raw[16:20], "little")
        meta = json.dumps({"sequence_id": value}).encode()
        features.write_bytes(
            raw[:16] + len(meta).to_bytes(4, "little") + meta + raw[20 + meta_len :]
        )
        argv = ["segment", "--features", str(features), "--out", str(tmp_path / "seg.json")]
    elif field == "array-name":
        ckpt = tmp_path / "model.ckpt"
        training.save_checkpoint(ckpt, init_params(8, hidden_size=3, output_dim=4, seed=0))
        magic, header, weights = ckpt.read_bytes().split(b"\n", 2)
        doc = json.loads(header)
        doc["layout"][0][0] = value
        ckpt.write_bytes(b"\n".join([magic, json.dumps(doc).encode(), weights]))
        argv = ["summarize", "--features", str(features), "--checkpoint", str(ckpt),
                "--out", str(tmp_path / "s.summary.json")]
    else:
        doc = json.loads(annotations.read_text())
        if field == "user-id":
            doc["users"][0]["user_id"] = value
        else:
            doc["sequence_id"] = value
        annotations.write_text(json.dumps(doc))
        argv = ["oracle", "--features", str(features), "--annotations", str(annotations),
                "--out", str(tmp_path / "o.summary.json")]
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "FormatError" in err and "must be a string" in err and "Traceback" not in err


@pytest.mark.parametrize("target, bad", [
    *((target, bad) for target in ("annotations", "summary")
      for bad in ([0, 1, 2], ["x", 1], [True, 2], [0, 1.5])),
    ("annotations", "stage"),
])
def test_malformed_selections_exit_1(tmp_path, capsys, target, bad):
    features, annotations = _synth(tmp_path, "a", seed=2)
    summary = tmp_path / "oracle.summary.json"
    assert run(["oracle", "--features", str(features), "--annotations", str(annotations),
                "--penalty", "0.05", "--max-segments", "8", "--out", str(summary)]) == 0
    path = annotations if target == "annotations" else summary
    doc = json.loads(path.read_text())
    if bad == "stage":
        doc["stage"] = True
    elif target == "annotations":
        doc["users"][0]["selections"][0] = bad
    else:
        doc["selections"][0] = bad
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["eval", "--summary", str(summary), "--annotations", str(annotations),
                "--features", str(features)]) == 1
    err = capsys.readouterr().err
    assert "FormatError" in err and "Traceback" not in err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "mdpp.cli", "check", "knapsack", "--trials", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout


@pytest.mark.skipif(shutil.which("mdpp") is None,
                    reason="the mdpp console script is not installed on PATH")
def test_console_script_runs():
    proc = subprocess.run(
        ["mdpp", "check", "knapsack", "--trials", "2"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout


def test_console_script_target_resolves(monkeypatch, capsys):
    # the script pyproject.toml declares must name cli.main, and cli.main must
    # turn dispatch's return value into the process exit code
    tomllib = pytest.importorskip("tomllib")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "pyproject.toml"), "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts["mdpp"] == "mdpp.cli:main"

    monkeypatch.setattr(sys, "argv", ["mdpp", "check", "knapsack", "--trials", "2"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 0
    assert "ok" in capsys.readouterr().out

    monkeypatch.setattr(sys, "argv", ["mdpp", "frobnicate"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 1


def test_threads_env_caps_blas_pools():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["MDPP_THREADS"] = "3"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import mdpp.cli, os; print(os.environ['OMP_NUM_THREADS'], "
         "os.environ['OPENBLAS_NUM_THREADS'], os.environ['MKL_NUM_THREADS'])"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.split() == ["3", "3", "3"]
