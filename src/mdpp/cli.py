"""Command-line interface: synth / train / summarize / eval / oracle /
segment / check.

Exit codes: 0 on success, 1 on validation, configuration or usage errors,
2 on numeric failures. Errors go to standard error with a machine-parseable
``mdpp: error: <Kind>:`` prefix. Every successful run emits a JSON manifest
recording the resolved configuration, the seed, SHA-256 hashes of all inputs,
output paths, and wall time: to ``--manifest-out`` (``-`` means stdout), else
to ``<out>.manifest.json``, else as one ``manifest: {...}`` line on stdout. A
run that fails emits none. The MDPP_THREADS environment variable caps BLAS and
OpenMP parallelism (it must be honored before numpy starts, which is why it
is applied at module import time).
"""

from __future__ import annotations

import os

if os.environ.get("MDPP_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, os.environ["MDPP_THREADS"])

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import bruteforce, evaluation, io, summarizer, synth, training
from .data_model import Summary, SummaryBudget
from .encoder import init_params
from .errors import ConfigError, MdppError, NumericError, ValidationError
from .training import TrainConfig, round_robin_splits, targets_from_summary


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"mdpp: error: usage: {message}\n")
        raise SystemExit(1)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(args, inputs, outputs, started):
    config = {
        k: v for k, v in sorted(vars(args).items()) if k not in ("func",) and v is not None
    }
    config = {k: (str(v) if isinstance(v, Path) else v) for k, v in config.items()}
    manifest = {
        "subcommand": args.subcommand,
        "config": config,
        "seed": getattr(args, "seed", None),
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "wall_time_s": round(time.monotonic() - started, 3),
    }
    target = args.manifest_out
    if target is None and getattr(args, "out", None) is not None:
        target = f"{args.out}.manifest.json"
    if target is None or target == "-":
        sys.stdout.write("manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
    else:
        io.atomic_write_text(target, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _budget(args) -> SummaryBudget:
    return SummaryBudget(fraction=args.budget)


def _positive_int(text: str) -> int:
    """argparse type for a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


def _thresholds(text: str) -> tuple[float, ...]:
    """The comma-separated --thresholds as finite floats."""
    values = []
    for item in text.split(","):
        try:
            value = float(item)
        except ValueError:
            value = np.nan
        if not np.isfinite(value):
            raise ConfigError(f"--thresholds item {item!r} is not a finite number")
        values.append(value)
    return tuple(values)


# -- subcommands -------------------------------------------------------------
# Each returns (inputs, outputs), the paths it read and wrote; dispatch times
# it and writes the manifest.


def _cmd_synth(args):
    config = synth.SynthConfig(
        num_views=args.views, num_steps=args.steps, feature_dim=args.dim,
        num_events=args.events, event_length_min=args.event_min,
        event_length_max=args.event_max, overlap_mode=args.overlap,
        noise_sigma=args.noise_sigma, seed=args.seed,
        budget_fraction=args.budget, enforce_budget=not args.no_budget_check,
    )
    sequence, annotations = synth.generate(config)
    io.write_feature_file(sequence, args.out)
    io.write_annotations(annotations, args.annotations_out)
    print(f"wrote {sequence.num_views} views x {sequence.num_steps} steps "
          f"x {sequence.feature_dim} dims to {args.out}")
    return [], [args.out, args.annotations_out]


def _collect_training_data(features_dir):
    root = Path(features_dir)
    if not root.is_dir():
        raise ConfigError(f"--features-dir {root} is not a directory")
    collections = {}
    for coll_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        examples = []
        for feature_path in sorted(coll_dir.glob("*.mdv")):
            summary_path = feature_path.with_suffix(".summary.json")
            if not summary_path.exists():
                raise ConfigError(f"missing target summary {summary_path}")
            sequence = io.read_feature_file(feature_path)
            summary = io.read_summary(summary_path, sequence)
            examples.append((feature_path, summary_path,
                             targets_from_summary(sequence, summary)))
        if examples:
            collections[coll_dir.name] = examples
    if not collections:
        raise ConfigError(f"no <collection>/<name>.mdv files under {root}")
    return collections


def _cmd_train(args):
    raw = _collect_training_data(args.features_dir)
    inputs = [p for examples in raw.values() for ex in examples for p in ex[:2]]
    collections = {cid: [ex[2] for ex in examples] for cid, examples in raw.items()}

    plans = round_robin_splits(sorted(collections))
    if args.val is not None or args.test is not None:
        if args.val is None or args.test is None:
            raise ConfigError("--val and --test must be given together")
        matching = [p for p in plans if p.val_collection == args.val
                    and p.test_collection == args.test]
        if not matching:
            raise ConfigError(f"no split plan with val={args.val!r} test={args.test!r}")
        plan = matching[0]
    else:
        plan = plans[0]

    any_example = next(iter(collections.values()))[0]
    config = TrainConfig(
        learning_rate=args.lr, batch_size=args.batch_size, iterations=args.iterations,
        lam=args.lam, seed=args.seed,
    )
    initial = init_params(
        input_dim=any_example.sequence.feature_dim, hidden_size=args.hidden,
        output_dim=args.output_dim, seed=args.seed,
    )
    result = training.train(initial, collections, plan, config)

    training.save_checkpoint(args.out, result.params, extra={
        "best_epoch": result.best_epoch,
        "best_val_loss": result.best_val_loss,
        "plan": {"train": list(plan.train_collections), "val": plan.val_collection,
                 "test": plan.test_collection},
    })
    history_out = args.history_out or str(args.out) + ".history.tsv"
    losses = ("train_loss", "val_loss", "train_bce", "train_dpp_nll", "val_bce", "val_dpp_nll")
    lines = ["\t".join(("epoch", *losses, "grad_norm"))]
    lines += [
        "\t".join([str(e.epoch), *(f"{getattr(e, c):.6f}" for c in losses), f"{e.grad_norm:.6g}"])
        for e in result.history
    ]
    io.atomic_write_text(history_out, "\n".join(lines) + "\n")

    n_train = len(plan.train_collections)
    print(f"trained {config.iterations} iterations on {n_train} "
          f"collection{'s' if n_train != 1 else ''}; best epoch {result.best_epoch} "
          f"(val loss {result.best_val_loss:.6f})")
    return inputs, [args.out, history_out]


def _cmd_summarize(args):
    sequence = io.read_feature_file(args.features)
    budget = _budget(args)
    inputs = [args.features]
    modes = sum(1 for flag in (args.checkpoint, args.unsupervised, args.baseline) if flag)
    if modes != 1:
        raise ConfigError("choose exactly one of --checkpoint, --unsupervised, --baseline")

    if args.unsupervised:
        summary = summarizer.summarize_unsupervised(
            sequence, budget, max_segments=args.max_segments, penalty_coeff=args.penalty
        )
    elif args.baseline == "random":
        summary = summarizer.baseline_random(sequence, budget, seed=args.seed)
    elif args.baseline:
        if not args.baseline_checkpoint:
            raise ConfigError(f"--baseline {args.baseline} needs --baseline-checkpoint")
        params, _ = training.load_checkpoint(args.baseline_checkpoint)
        inputs.append(args.baseline_checkpoint)
        single = summarizer.single_view_supervised(
            params, penalty_coeff=args.penalty, max_segments=args.max_segments
        )
        if args.baseline == "merge-views":
            summary = summarizer.baseline_merge_views(single, sequence, budget)
        else:
            summary = summarizer.baseline_merge_summaries(single, sequence, budget)
    else:
        params, _ = training.load_checkpoint(args.checkpoint)
        inputs.append(args.checkpoint)
        summary = summarizer.summarize_supervised(
            params, sequence, budget, max_segments=args.max_segments,
            penalty_coeff=args.penalty,
        )

    io.write_summary(summary, args.out)
    print(f"selected {len(summary.selections)} frames "
          f"(budget {budget.frame_budget(sequence.num_steps)}) -> {args.out}")
    return inputs, [args.out]


def _cmd_oracle(args):
    sequence = io.read_feature_file(args.features)
    annotations = io.read_annotations(args.annotations, sequence)
    segmentations = summarizer.segment_views(sequence, args.max_segments, args.penalty)
    shots = [s.shot_list(sequence.num_steps) for s in segmentations]
    summary = evaluation.oracle_summary(annotations, shots, _budget(args))
    io.write_summary(summary, args.out)
    print(f"oracle selected {len(summary.selections)} frames -> {args.out}")
    return [args.features, args.annotations], [args.out]


def _cmd_segment(args):
    sequence = io.read_feature_file(args.features)
    lines = []
    segmentations = summarizer.segment_views(sequence, args.max_segments, args.penalty)
    for m, result in enumerate(segmentations):
        cps = ",".join(str(c) for c in result.change_points)
        lines.append(f"view {m}: segments={result.num_segments} "
                     f"objective={result.objective:.6f} levels_relaxed={result.levels_relaxed} "
                     f"change_points=[{cps}]")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    outputs = []
    if args.out:
        io.atomic_write_text(args.out, text)
        outputs.append(args.out)
    return [args.features], outputs


def _cmd_eval(args):
    sequence = io.read_feature_file(args.features)
    predicted = io.read_summary(args.summary, sequence)
    annotations = io.read_annotations(args.annotations, sequence)
    thresholds = _thresholds(args.thresholds)

    user_sets = annotations.user_selections()
    entries = [
        (f"{sequence.sequence_id}/{user}", predicted,
         Summary(selections=tuple(selections)), sequence)
        for user, selections in sorted(user_sets.items())
    ]
    report = evaluation.build_report(entries, thresholds)

    print("sequence/user\tprecision\trecall\tf1")
    for row in report.sequences:
        print(f"{row.sequence_id}\t{row.precision:.4f}\t{row.recall:.4f}\t{row.f1:.4f}")
    print(f"mean\t{report.precision:.4f}\t{report.recall:.4f}\t{report.f1:.4f}")
    sweep = " ".join(f"{tau:g}:{f1:.4f}" for tau, f1 in report.threshold_f1)
    print(f"tolerant_f1 {sweep}")
    consensus = None
    if len(user_sets) >= 2:
        consensus = evaluation.pairwise_consensus(annotations)
        print(f"consensus {consensus:.4f}")

    doc = {
        "precision": report.precision, "recall": report.recall, "f1": report.f1,
        "threshold_f1": [[tau, f1] for tau, f1 in report.threshold_f1],
        "per_user": [
            {"id": r.sequence_id, "precision": r.precision, "recall": r.recall, "f1": r.f1}
            for r in report.sequences
        ],
    }
    if consensus is not None:
        doc["consensus"] = consensus
    outputs = []
    if args.out:
        io.atomic_write_text(args.out, json.dumps(doc, indent=2, sort_keys=True) + "\n")
        outputs.append(args.out)
    plot_out = args.plot_out or (str(args.out) + ".plot.tsv" if args.out else None)
    if plot_out:
        plot = "tau\tf1\n" + "".join(f"{tau:g}\t{f1:.6f}\n" for tau, f1 in report.threshold_f1)
        io.atomic_write_text(plot_out, plot)
        outputs.append(plot_out)
    return [args.features, args.summary, args.annotations], outputs


def _cmd_check(args):
    rows = []
    if args.suite in ("dpp", "all"):
        rows += bruteforce.check_dpp(n=args.n, trials=args.trials, seed=args.seed)
    if args.suite in ("knapsack", "all"):
        rows += bruteforce.check_knapsack(trials=args.trials, seed=args.seed)
    if args.suite in ("kts", "all"):
        rows += bruteforce.check_kts(trials=args.trials, seed=args.seed)
    if args.suite in ("encoder", "all"):
        rows += bruteforce.check_encoder(trials=args.trials, seed=args.seed)
    failed = False
    for name, passed, detail in rows:
        print(f"{'ok' if passed else 'FAIL'}  {name} ({detail})")
        failed = failed or not passed
    if failed:
        raise ValidationError("one or more brute-force checks failed")
    return [], []


# -- parser ------------------------------------------------------------------


def _add_common(sub, *, out_required=True, out_help="output path"):
    sub.add_argument("--seed", type=int, default=0, help="deterministic run seed (default 0)")
    sub.add_argument("--manifest-out", default=None,
                     help="manifest path, - for stdout (default: <out>.manifest.json)")
    if out_required is not None:
        sub.add_argument("--out", required=out_required, help=out_help)


def _add_kts_flags(sub):
    sub.add_argument("--max-segments", type=int, default=None,
                     help="KTS segment cap (default: about one shot per 15 frames)")
    sub.add_argument("--penalty", type=float, default=1.0,
                     help="KTS change-point penalty coefficient (default 1.0)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mdpp", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("synth", help="generate a synthetic multi-view sequence",
                        description="Write one synthetic feature file plus ground-truth annotations.")
    p.add_argument("--views", type=int, default=3)
    p.add_argument("--steps", type=int, default=300)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--events", type=int, default=5)
    p.add_argument("--event-min", type=int, default=6)
    p.add_argument("--event-max", type=int, default=9)
    p.add_argument("--overlap", choices=synth.OVERLAP_MODES, default="independent")
    p.add_argument("--noise-sigma", type=float, default=0.05)
    p.add_argument("--budget", type=float, default=0.15)
    p.add_argument("--no-budget-check", action="store_true",
                   help="allow ground truth to exceed the summary budget")
    p.add_argument("--annotations-out", required=True)
    _add_common(p, out_help="feature file (.mdv)")
    p.set_defaults(func=_cmd_synth)

    p = subs.add_parser("train", help="train the scoring model",
                        description="Train on <features-dir>/<collection>/<name>.mdv with "
                                    "matching <name>.summary.json targets.")
    p.add_argument("--features-dir", required=True)
    p.add_argument("--val", default=None, help="validation collection name")
    p.add_argument("--test", default=None, help="held-out collection name (recorded only)")
    p.add_argument("--hidden", type=int, default=128)
    p.add_argument("--output-dim", type=int, default=128)
    p.add_argument("--lam", type=float, default=1.0,
                   help="weight of the diversity log-likelihood term (0 = classifier only)")
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--batch-size", type=int, default=10)
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--history-out", default=None,
                   help="loss curve TSV (default: <out>.history.tsv)")
    _add_common(p, out_help="checkpoint path")
    p.set_defaults(func=_cmd_train)

    p = subs.add_parser("summarize", help="produce a budgeted summary",
                        description="Summarize one feature file with a trained model, the "
                                    "unsupervised mode, or a baseline.")
    p.add_argument("--features", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--unsupervised", action="store_true")
    p.add_argument("--baseline", choices=("merge-views", "merge-summaries", "random"),
                   default=None)
    p.add_argument("--baseline-checkpoint", default=None,
                   help="model used by the merge-* baselines' single-view summarizer")
    p.add_argument("--budget", type=float, default=0.15)
    _add_kts_flags(p)
    _add_common(p, out_help="summary JSON path")
    p.set_defaults(func=_cmd_summarize)

    p = subs.add_parser("oracle", help="build the greedy oracle summary",
                        description="Greedy mean-F1 oracle over per-view KTS shots.")
    p.add_argument("--features", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--budget", type=float, default=0.15)
    _add_kts_flags(p)
    _add_common(p, out_help="summary JSON path")
    p.set_defaults(func=_cmd_oracle)

    p = subs.add_parser("segment", help="report per-view KTS change points",
                        description="Per-view KTS shots, with the same defaults as "
                                    "summarize and oracle.")
    p.add_argument("--features", required=True)
    _add_kts_flags(p)
    _add_common(p, out_required=False, out_help="optional text output path")
    p.set_defaults(func=_cmd_segment)

    p = subs.add_parser("eval", help="score a summary against annotations",
                        description="Frame-level P/R/F1 per user plus the tolerant-F1 "
                                    "threshold sweep; emits plot data as TSV.")
    p.add_argument("--summary", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--thresholds", default="0,0.1,0.2,0.3")
    p.add_argument("--plot-out", default=None, help="tau/F1 TSV (default: <out>.plot.tsv)")
    _add_common(p, out_required=False, out_help="report JSON path")
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("check", help="run brute-force verification suites")
    p.add_argument("suite", choices=("dpp", "knapsack", "kts", "encoder", "all"))
    p.add_argument("--n", type=_positive_int, default=8,
                   help="ground-set size for the dpp suite")
    p.add_argument("--trials", type=_positive_int, default=50)
    _add_common(p, out_required=None)
    p.set_defaults(func=_cmd_check)

    return parser


def dispatch(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        started = time.monotonic()
        inputs, outputs = args.func(args)
        _write_manifest(args, inputs, outputs, started)
        return 0
    except SystemExit as exc:
        return int(exc.code or 0)
    except NumericError as exc:
        sys.stderr.write(f"mdpp: error: numeric: {exc}\n")
        return 2
    except MdppError as exc:
        sys.stderr.write(f"mdpp: error: {type(exc).__name__}: {exc}\n")
        return 1
    except OSError as exc:
        sys.stderr.write(f"mdpp: error: io: {exc}\n")
        return 1


def main() -> None:
    raise SystemExit(dispatch())


if __name__ == "__main__":
    main()
