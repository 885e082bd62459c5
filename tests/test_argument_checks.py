"""Every scalar argument of the public API rejects a malformed value with an
``MdppError`` subclass: the library counterpart of
``tests/test_malformed_inputs.py``.

The test walks every public function, class and method that the ``mdpp``
modules define, by introspection, as ``tests/test_module_boundaries.py``
walks their sources. Each one needs an entry in ``ROWS`` or in
``NO_SCALARS``, so a new public name without one fails the test.

A row covers one scalar argument (a number or a flag; a budget too, since a
bare fraction is the usual mistake there, and a sweep of taus, where a bare
tau is; an id or a note, which must be a str). It gives a call that passes the argument a value, the error class
that call must raise, and the values to try: a bool, a str, None, nan, inf,
a float where an integer is expected, an int too large for a float where a
real is expected, an int too long to print (which also does not fit
int64), and values out of range; an id is tried with None, a bool, a
number, bytes and a list. A value the argument accepts on purpose is listed
with the reason, and the test checks that it is accepted.

``io``'s public names take a path and a container to write, or a sequence
to check what is read against: its readers hand what they decode to the
``data_model`` containers, which check it, so they have ``NO_SCALARS``
entries.

Exempt modules:
- ``cli``: argparse types check its options, and
  ``tests/test_malformed_inputs.py`` mutates every input file it reads;
- ``bruteforce``: exhaustive oracles for the tests and ``mdpp check``,
  called with the fast paths' own arguments.
"""

import functools
import importlib
import inspect
import math
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Callable

import numpy as np
import pytest

import mdpp
from mdpp import (
    data_model, dpp, encoder, evaluation, kts, multi_dpp, summarizer, synth, training,
)
from mdpp.errors import ConfigError, MdppError, ValidationError

EXEMPT = {"__init__", "cli", "bruteforce"}
NAN, INF = math.nan, math.inf
HUGE = 10**400  # a real number that does not fit a float
LONG = 10**5000  # too long for repr(), so a message must show it bounded; beyond int64
NOT_INT = (True, "1", None, NAN, INF, 1.5, 2.0, LONG)
NOT_REAL = (True, "1", None, NAN, INF, HUGE, LONG)
NOT_STR = (None, True, 5, NAN, LONG, b"s", ["s"])
NOT_FLAG = ("1", None, NAN, INF, 1.5, 0, 1)
NOT_BUDGET = (0.15, True, None, "0.15", NAN)
NOT_TAUS = (0.1, 0, True, None, NAN, INF, LONG, "0.1")
FLAG = "a flag: read for its truth value, as any Python condition is"


@dataclass
class Row:
    call: Callable
    error: type
    bad: tuple
    accepted: dict = field(default_factory=dict)  # value -> why it is accepted


def _row(call, error, bad, accepted):
    accepted = accepted or {}
    return Row(call, error, tuple(v for v in bad if v not in accepted), accepted)


def ints(call, error, *out_of_range, accepted=None):
    return _row(call, error, NOT_INT + out_of_range, accepted)


def reals(call, error, *out_of_range, accepted=None):
    return _row(call, error, NOT_REAL + out_of_range, accepted)


def strs(call):
    return Row(call, ValidationError, NOT_STR)


def budgets(call):
    return Row(call, ValidationError, NOT_BUDGET)


def flags(call):
    return Row(call, MdppError, (), {value: FLAG for value in NOT_FLAG})


@functools.cache
def fx():
    """Small valid inputs the calls share: 2 views, 30 steps, 4 dims."""
    seq = data_model.MultiViewSequence("s", np.random.default_rng(0).normal(size=(2, 30, 4)))
    mask = np.zeros((2, 30), dtype=np.uint8)
    mask[0, 3:6] = mask[1, 20:22] = 1
    summary = data_model.Summary(((0, 3), (1, 20)))
    return SimpleNamespace(
        seq=seq,
        params=encoder.init_params(4, hidden_size=3, output_dim=8, seed=0),
        example=data_model.TrainingExample(seq, mask),
        summary=summary,
        annotations=data_model.AnnotationSet("s", 2, (("a", ((0, 3), (1, 20))), ("b", ((0, 4),)))),
        shots=[data_model.ShotList((10, 20, 30))] * 2,
        kernel=dpp.DppKernel(np.eye(3), np.full(3, 0.5)),
        streams=multi_dpp.ViewStreams(np.random.default_rng(1).normal(size=(2, 4, 3)),
                                      np.full((2, 4), 0.5)),
    )


SYNTH = dict(num_views=2, num_steps=30, feature_dim=4, num_events=1,
             event_length_min=2, event_length_max=3)


def synth_config(**kwargs):
    return synth.SynthConfig(**{**SYNTH, **kwargs})


def no_summarizer(features, frame_budget):
    return []


ROWS = {
    "data_model.check_int": {"value": ints(
        lambda v: data_model.check_int(v, "x", 0, 3), ValidationError, -1, 4)},
    "data_model.check_real": {"value": reals(
        lambda v: data_model.check_real(v, "x", 0, 1), ValidationError, -0.5, 1.5)},
    "data_model.check_str": {"value": strs(lambda v: data_model.check_str(v, "x"))},
    "data_model.check_seed": {"seed": ints(lambda v: data_model.check_seed(v), ConfigError, -1)},
    "data_model.check_budget": {"budget": budgets(lambda v: data_model.check_budget(v))},
    "data_model.MultiViewSequence": {
        "sequence_id": strs(lambda v: data_model.MultiViewSequence(v, np.zeros((1, 1, 1)))),
        "fps_note": strs(lambda v: data_model.MultiViewSequence("s", np.zeros((1, 1, 1)), v)),
    },
    "data_model.MultiViewSequence.view": {"m": ints(
        lambda v: fx().seq.view(v), ValidationError, -1, 2)},
    "data_model.AnnotationSet": {
        "sequence_id": strs(lambda v: data_model.AnnotationSet(v, 2, ())),
        "user_id": strs(lambda v: data_model.AnnotationSet("s", 2, ((v, ()),))),
        "stage": ints(lambda v: data_model.AnnotationSet("s", v, ()), ValidationError, 0, 4),
        "users": ints(lambda v: data_model.AnnotationSet("s", 2, (("u", ((0, v),)),)),
                      ValidationError, -1),
    },
    "data_model.AnnotationSet.validate_shape": {
        "num_views": ints(lambda v: fx().annotations.validate_shape(v, 30), ValidationError, 0),
        "num_steps": ints(lambda v: fx().annotations.validate_shape(2, v), ValidationError, 0),
    },
    "data_model.Summary": {
        "selections": ints(lambda v: data_model.Summary(((0, v),)), ValidationError, -1),
        "budget_fraction": reals(lambda v: data_model.Summary((), v), ValidationError, 0, 1.5),
    },
    "data_model.Summary.validate_shape": {
        "num_views": ints(lambda v: fx().summary.validate_shape(v, 30), ValidationError, 0),
        "num_steps": ints(lambda v: fx().summary.validate_shape(2, v), ValidationError, 0),
    },
    "data_model.Summary.frame_mask": {
        "num_views": ints(lambda v: fx().summary.frame_mask(v, 30), ValidationError, 0),
        "num_steps": ints(lambda v: fx().summary.frame_mask(2, v), ValidationError, 0),
    },
    "data_model.ShotList": {"boundaries": ints(
        lambda v: data_model.ShotList((v, 30)), ValidationError, 0, 30)},
    "data_model.ShotList.shot_span": {"i": ints(
        lambda v: fx().shots[0].shot_span(v), ValidationError, -1, 3)},
    "data_model.ShotList.shot_of": {"t": ints(
        lambda v: fx().shots[0].shot_of(v), ValidationError, -1, 30)},
    "data_model.SummaryBudget": {"fraction": reals(
        lambda v: data_model.SummaryBudget(v), ConfigError, 0, 1.5)},
    "data_model.SummaryBudget.frame_budget": {"num_steps": ints(
        lambda v: data_model.SummaryBudget().frame_budget(v), ValidationError, 0)},
    "dpp.log_prob": {"subset": ints(
        lambda v: dpp.log_prob(fx().kernel, [0, v]), ValidationError, -1, 3)},
    "dpp.log_prob_and_grad": {"subset": ints(
        lambda v: dpp.log_prob_and_grad(fx().kernel, [0, v]), ValidationError, -1, 3)},
    "dpp.greedy_map": {
        "max_size": ints(lambda v: dpp.greedy_map(np.eye(3), max_size=v), ValidationError, -1, 4,
                         accepted={None: "the whole ground set, the default"}),
        "fill": flags(lambda v: dpp.greedy_map(np.eye(3), fill=v)),
    },
    "encoder.init_params": {
        "input_dim": ints(lambda v: encoder.init_params(v, 3, 8), ConfigError, 0),
        "hidden_size": ints(lambda v: encoder.init_params(4, v, 8), ConfigError, 0),
        "output_dim": ints(lambda v: encoder.init_params(4, 3, v), ConfigError, 0),
        "seed": ints(lambda v: encoder.init_params(4, 3, 8, seed=v), ConfigError, -1),
    },
    "encoder.batch_loss": {
        "lam": reals(lambda v: encoder.batch_loss(fx().params, [fx().example], lam=v),
                     ConfigError, -1.0),
        "with_grad": flags(lambda v: encoder.batch_loss(fx().params, [fx().example], with_grad=v)),
    },
    "evaluation.tolerant_f1": {
        "tau": reals(
            lambda v: evaluation.tolerant_f1(fx().summary, fx().summary, fx().seq, (v,)),
            ValidationError, -0.1,
            accepted={INF: "every frame with a counterpart at its step matches, the limit of tau"}),
        "taus": Row(lambda v: evaluation.tolerant_f1(fx().summary, fx().summary, fx().seq, v),
                    ValidationError, NOT_TAUS),
    },
    "evaluation.oracle_summary": {"budget": budgets(
        lambda v: evaluation.oracle_summary(fx().annotations, fx().shots, v))},
    "evaluation.build_report": {"thresholds": reals(
        lambda v: evaluation.build_report([("s", fx().summary, fx().summary, fx().seq)], (v,)),
        ValidationError, -0.1, accepted={INF: "a threshold is a tau; see tolerant_f1"})},
    "kts.SegmentationResult.shot_list": {"num_steps": ints(
        lambda v: kts.SegmentationResult((3,), 0.0).shot_list(v), ValidationError, 3)},
    "kts.kts": {
        "max_segments": ints(lambda v: kts.kts(np.zeros((5, 2)), v), ConfigError, 0),
        "penalty_coeff": reals(lambda v: kts.kts(np.zeros((5, 2)), 3, v), ConfigError, -1.0),
    },
    "multi_dpp.multi_dpp_log_prob": {"subset": ints(
        lambda v: multi_dpp.multi_dpp_log_prob(fx().streams, [0, v]), ValidationError, -1, 4)},
    "multi_dpp.multi_dpp_log_prob_and_view_grads": {"subset": ints(
        lambda v: multi_dpp.multi_dpp_log_prob_and_view_grads(fx().streams, [0, v]),
        ValidationError, -1, 4)},
    "summarizer.knapsack_shots": {
        "lengths": ints(lambda v: summarizer.knapsack_shots([1, v], [0.1, 0.2], 3),
                        ValidationError, 0),
        "scores": reals(lambda v: summarizer.knapsack_shots([1, 2], [0.1, v], 3), ValidationError),
        "budget_frames": ints(lambda v: summarizer.knapsack_shots([1, 2], [0.1, 0.2], v),
                              ValidationError, -1),
    },
    "summarizer.default_max_segments": {"num_steps": ints(
        lambda v: summarizer.default_max_segments(v), ValidationError, 0)},
    "summarizer.segment_views": {
        "max_segments": ints(lambda v: summarizer.segment_views(fx().seq, v), ConfigError, 0,
                             accepted={None: "default_max_segments(N), the default"}),
        "penalty_coeff": reals(lambda v: summarizer.segment_views(fx().seq, 4, v),
                               ConfigError, -1.0),
    },
    "summarizer.summarize_supervised": {
        "budget": budgets(lambda v: summarizer.summarize_supervised(fx().params, fx().seq, v)),
        "max_segments": ints(
            lambda v: summarizer.summarize_supervised(fx().params, fx().seq, max_segments=v),
            ConfigError, 0, accepted={None: "default_max_segments(N), the default"}),
        "penalty_coeff": reals(
            lambda v: summarizer.summarize_supervised(fx().params, fx().seq, penalty_coeff=v),
            ConfigError, -1.0),
    },
    "summarizer.summarize_unsupervised": {
        "budget": budgets(lambda v: summarizer.summarize_unsupervised(fx().seq, v)),
        "max_segments": ints(
            lambda v: summarizer.summarize_unsupervised(fx().seq, max_segments=v),
            ConfigError, 0, accepted={None: "default_max_segments(N), the default"}),
        "penalty_coeff": reals(
            lambda v: summarizer.summarize_unsupervised(fx().seq, penalty_coeff=v),
            ConfigError, -1.0),
    },
    "summarizer.single_view_supervised": {  # checked when the summarizer runs
        "penalty_coeff": reals(
            lambda v: summarizer.single_view_supervised(fx().params, v)(fx().seq.view(0), 5),
            ConfigError, -1.0),
        "max_segments": ints(
            lambda v: summarizer.single_view_supervised(fx().params, max_segments=v)(
                fx().seq.view(0), 5),
            ConfigError, 0, accepted={None: "default_max_segments(N), the default"}),
    },
    "summarizer.baseline_merge_views": {"budget": budgets(
        lambda v: summarizer.baseline_merge_views(no_summarizer, fx().seq, v))},
    "summarizer.baseline_merge_summaries": {"budget": budgets(
        lambda v: summarizer.baseline_merge_summaries(no_summarizer, fx().seq, v))},
    "summarizer.baseline_random": {
        "budget": budgets(lambda v: summarizer.baseline_random(fx().seq, v)),
        "seed": ints(lambda v: summarizer.baseline_random(fx().seq, seed=v), ConfigError, -1),
    },
    "synth.SynthConfig": {
        **{name: ints(lambda v, name=name: synth_config(**{name: v}), ConfigError, 0)
           for name in ("num_views", "num_steps", "feature_dim", "event_length_min")},
        "num_events": ints(lambda v: synth_config(num_events=v), ConfigError, -1),
        "event_length_max": ints(lambda v: synth_config(event_length_max=v), ConfigError, 1),
        "noise_sigma": reals(lambda v: synth_config(noise_sigma=v), ConfigError, -0.1),
        "seed": ints(lambda v: synth_config(seed=v), ConfigError, -1),
        "budget_fraction": reals(lambda v: synth_config(budget_fraction=v), ConfigError, 0, 1.5),
        "enforce_budget": Row(lambda v: synth_config(enforce_budget=v), ConfigError, NOT_FLAG),
    },
    "training.TrainConfig": {
        "learning_rate": reals(lambda v: training.TrainConfig(learning_rate=v), ConfigError, 0),
        "batch_size": ints(lambda v: training.TrainConfig(batch_size=v), ConfigError, 0),
        "iterations": ints(lambda v: training.TrainConfig(iterations=v), ConfigError, 0),
        "lam": reals(lambda v: training.TrainConfig(lam=v), ConfigError, -0.1),
        "seed": ints(lambda v: training.TrainConfig(seed=v), ConfigError, -1),
    },
    "training.AdamState": {"step": ints(
        lambda v: training.AdamState(np.zeros(2), np.zeros(2), v), ValidationError, -1)},
    "training.AdamState.zeros": {"size": ints(
        lambda v: training.AdamState.zeros(v), ValidationError, -1)},
}

RESULT = "a result record that the library fills in"
NO_ARGS = "takes no argument"
WRITER = "a container and a path"
READER = "a path: the container it builds checks what is read (tests/test_io.py)"
NO_SCALARS = {
    "data_model.is_integer": "a predicate: a bad value gives False, which is its answer",
    "data_model.is_real": "a predicate: a bad value gives False, which is its answer",
    "data_model.TrainingExample": "a sequence and a mask array (tests/test_data_model.py)",
    "data_model.AnnotationSet.user_selections": NO_ARGS,
    "dpp.DppKernel": "a factor and a quality array (tests/test_dpp_core.py)",
    "encoder.ModelParams": "eleven weight arrays (tests/test_encoder.py)",
    "encoder.ModelParams.named_arrays": NO_ARGS,
    "encoder.ModelParams.count": NO_ARGS,
    "encoder.to_vector": "ModelParams",
    "encoder.from_vector": "ModelParams and a flat array (tests/test_encoder.py)",
    "encoder.ForwardTrace": RESULT,
    "encoder.quality_scores": "ModelParams and a sequence",
    "encoder.LossParts": RESULT,
    "evaluation.frame_f1": "two Summaries",
    "evaluation.pairwise_consensus": "an AnnotationSet",
    "evaluation.SequenceEval": RESULT,
    "evaluation.EvalReport": RESULT,
    "kts.SegmentationResult": RESULT,
    "multi_dpp.ViewStreams": "two arrays (tests/test_multi_dpp.py)",
    "multi_dpp.build_joint_kernel": "ViewStreams",
    "runtime.keep_freed_memory_mapped": NO_ARGS,
    "synth.generate": "a SynthConfig",
    "training.adam_step": "AdamState, two arrays and a TrainConfig",
    "training.targets_from_summary": "a sequence and a Summary",
    "training.SplitPlan": "collection ids, which are strings",
    "training.round_robin_splits": "collection ids, which are strings",
    "training.EpochStats": RESULT,
    "training.TrainResult": RESULT,
    "training.train": "ModelParams, examples, a SplitPlan and a TrainConfig",
    "training.save_checkpoint": "a path, ModelParams and a JSON-able dict",
    "training.load_checkpoint": "a path (tests/test_malformed_inputs.py)",
    "io.atomic_write_bytes": "a path and bytes",
    "io.atomic_write_text": "a path and text",
    "io.write_feature_file": WRITER,
    "io.write_annotations": WRITER,
    "io.write_summary": WRITER,
    "io.write_checkpoint": "a path, a JSON-able dict and named arrays",
    "io.read_feature_file": READER,
    "io.read_annotations": READER + ", and a sequence or None",
    "io.read_summary": READER + ", and a sequence or None",
    "io.read_checkpoint": "a path (tests/test_io.py, tests/test_malformed_inputs.py)",
}


def public_names():
    """module.name and module.Class.method for every public function, class
    and method an mdpp module defines; exception classes take a message."""
    for path in sorted(Path(mdpp.__file__).parent.glob("*.py")):
        if path.stem in EXEMPT:
            continue
        module = importlib.import_module(f"mdpp.{path.stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{path.stem}.{name}"
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                yield f"{path.stem}.{name}"
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and (
                        inspect.isfunction(member) or isinstance(member, classmethod)
                    ):
                        yield f"{path.stem}.{name}.{attr}"


def _cases(kind):
    for name, args in ROWS.items():
        for arg, row in args.items():
            values = row.bad if kind == "bad" else row.accepted
            for value in values:
                shown = "10**400" if value is HUGE else "10**5000" if value is LONG else repr(value)
                yield pytest.param(row, value, id=f"{name}:{arg}={shown}")


def test_every_public_name_has_a_row():
    names = set(public_names())
    assert names - ROWS.keys() - NO_SCALARS.keys() == set()
    assert (ROWS.keys() | NO_SCALARS.keys()) - names == set()  # no stale rows
    assert ROWS.keys() & NO_SCALARS.keys() == set()


@pytest.mark.parametrize("row, value", _cases("bad"))
def test_a_bad_scalar_raises_an_mdpp_error(row, value):
    with pytest.raises(row.error):
        row.call(value)


@pytest.mark.parametrize("row, value", _cases("accepted"))
def test_an_accepted_value_runs(row, value):
    row.call(value)
