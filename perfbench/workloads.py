"""The three workloads of the mdpp benchmark.

All use the north-star model shape: M=3 views, D=16 input features, H=16
LSTM units, D'=64 output features, on synthetic sequences with 5 independent
planted events of 6-9 frames and noise sigma 0.05. Every input comes from the
workload seed.

A workload builds its inputs in ``setup`` and lists its ops; a run cycles
through them. An op's output must be the same every time it runs.

- ``train_short``: the acceptance corpus, 8 collections x 4 sequences at
  N=300, trained on 6 collections, validated on 1, tested on 1, one epoch
  per op. The LSTM time loops are most of a step and the N x N DPP loss is
  small; no KTS or greedy MAP runs in the timed op.
- ``train_long``: N=2000 sequences, trained on 2, validated on 1, tested on
  1, one epoch per op. The N x N DPP likelihood and gradient dominate a
  step. The 5 short events keep target steps (at most 45) below D'=64, so
  every target subset has nonzero probability.
- ``summarize_long``: requests over distinct N=600 sequences, alternating
  supervised (seeded untrained model: inference cost does not depend on the
  weight values) and unsupervised. Per-view KTS dominates both kinds; greedy
  MAP is the rest of an unsupervised request. No DPP loss or backward pass.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from mdpp import encoder, evaluation, io, summarizer, synth, training
from mdpp.data_model import Summary, SummaryBudget

VIEWS, INPUT_DIM, HIDDEN, OUTPUT_DIM = 3, 16, 16, 64
PENALTY = 0.05
TEST_MAX_SEGMENTS = 20  # the acceptance protocol's test-time KTS cap


def derive_seed(seed: int, *keys: int) -> int:
    """A 32-bit seed for one input, derived from the workload seed."""
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def synth_sequence(seed: int, num_steps: int):
    """One planted-event sequence and its ground-truth summary."""
    config = synth.SynthConfig(
        num_views=VIEWS, num_steps=num_steps, feature_dim=INPUT_DIM, num_events=5,
        event_length_min=6, event_length_max=9, overlap_mode="independent",
        noise_sigma=0.05, seed=seed,
    )
    sequence, annotations = synth.generate(config)
    return sequence, Summary(selections=annotations.users[0][1])


@dataclass
class Op:
    kind: str
    frames: int  # view-frames the op processes
    run: Callable[[], Any]


@dataclass
class Checked:
    digest: str
    failures: list[str]
    f1: float | None = None


def _f1_failures(label: str, values) -> list[str]:
    return [f"{label} {v} outside [0, 1]" for v in values if not 0.0 <= v <= 1.0]


class TrainWorkload:
    """Repeats one ``training.train`` call; every call starts from the same
    initial weights, so every call must return the same weights."""

    trace_ops = 1

    def __init__(self, seed, num_steps, collection_sizes, iterations):
        self.seed = seed
        self.num_steps = num_steps
        self.sizes = collection_sizes  # train collections, then val, then test
        self.config = training.TrainConfig(
            batch_size=10, iterations=iterations, lam=1.0, seed=derive_seed(seed, 1)
        )
        ids = [f"c{i}" for i in range(len(collection_sizes))]
        self.plan = training.SplitPlan(
            train_collections=tuple(ids[:-2]), val_collection=ids[-2], test_collection=ids[-1]
        )
        self.result = None

    def setup(self, workdir: Path) -> None:
        self.collections, self.test_pairs = {}, []
        for c, size in enumerate(self.sizes):
            examples = []
            for i in range(size):
                sequence, truth = synth_sequence(derive_seed(self.seed, 2, c, i), self.num_steps)
                examples.append(training.targets_from_summary(sequence, truth))
                if f"c{c}" == self.plan.test_collection:
                    self.test_pairs.append((sequence, truth))
            self.collections[f"c{c}"] = examples
        self.initial = encoder.init_params(
            INPUT_DIM, hidden_size=HIDDEN, output_dim=OUTPUT_DIM, seed=derive_seed(self.seed, 3)
        )

    def ops(self) -> list[Op]:
        train_sequences = sum(self.sizes[:-2])
        frames = VIEWS * self.num_steps * train_sequences * self.config.iterations
        return [Op("train", frames, self._train)]

    def _train(self):
        return training.train(self.initial, self.collections, self.plan, self.config)

    def check(self, op: Op, result) -> Checked:
        self.result = result
        vec = encoder.to_vector(result.params)
        failures = [] if np.isfinite(vec).all() else ["trained weights are not finite"]
        return Checked(hashlib.sha256(vec.tobytes()).hexdigest(), failures)

    def finish(self) -> tuple[dict, list[str]]:
        """Mean frame F1 of the trained model on the held-out collection."""
        scores = []
        for sequence, truth in self.test_pairs:
            predicted = summarizer.summarize_supervised(
                self.result.params, sequence, SummaryBudget(),
                max_segments=TEST_MAX_SEGMENTS, penalty_coeff=PENALTY,
            )
            scores.append(evaluation.frame_f1(predicted, truth)[2])
        detail = {
            "test_f1": float(np.mean(scores)),
            "best_val_loss": self.result.best_val_loss,
            "best_epoch": self.result.best_epoch,
        }
        return detail, _f1_failures("test F1", scores)


@contextmanager
def _recording(module, attr):
    """Collect the results of ``module.attr`` calls made inside the block."""
    fn = getattr(module, attr)
    results = []

    def record(*args, **kwargs):
        result = fn(*args, **kwargs)
        results.append(result)
        return result

    setattr(module, attr, record)
    try:
        yield results
    finally:
        setattr(module, attr, fn)


class SummarizeWorkload:
    """A pool of distinct sequences, requested alternately supervised and
    unsupervised. Each request reads the feature file, summarizes with the
    library's default KTS cap, writes the summary and builds an evaluation
    report against the planted truth. A traced run repeats the first
    ``trace_ops`` requests."""

    trace_ops = 4

    def __init__(self, seed, num_steps, pool_size):
        self.seed = seed
        self.num_steps = num_steps
        self.pool_size = pool_size
        self.budget = SummaryBudget(0.15)

    def setup(self, workdir: Path) -> None:
        self.workdir = workdir
        self.requests = []
        for i in range(self.pool_size):
            sequence, truth = synth_sequence(derive_seed(self.seed, 4, i), self.num_steps)
            path = workdir / f"request{i}.mdv"
            io.write_feature_file(sequence, path)
            kind = "sup" if i % 2 == 0 else "unsup"
            self.requests.append((kind, path, truth))
        self.params = encoder.init_params(
            INPUT_DIM, hidden_size=HIDDEN, output_dim=OUTPUT_DIM, seed=derive_seed(self.seed, 5)
        )

    def ops(self) -> list[Op]:
        return [
            Op(kind, VIEWS * self.num_steps, lambda i=i: self._request(i))
            for i, (kind, _, _) in enumerate(self.requests)
        ]

    def _request(self, i):
        kind, path, truth = self.requests[i]
        sequence = io.read_feature_file(path)
        if kind == "sup":
            with _recording(summarizer, "kts") as segmentations:
                summary = summarizer.summarize_supervised(
                    self.params, sequence, self.budget, penalty_coeff=PENALTY
                )
        else:
            segmentations = None
            summary = summarizer.summarize_unsupervised(
                sequence, self.budget, penalty_coeff=PENALTY
            )
        io.write_summary(summary, self.workdir / f"summary{i}-{kind}.json")
        report = evaluation.build_report([(sequence.sequence_id, summary, truth, sequence)])
        return summary, report, segmentations

    def check(self, op: Op, output) -> Checked:
        summary, report, segmentations = output
        n = self.num_steps
        failures = []
        budget = self.budget.frame_budget(n)
        if len(summary.selections) > budget:
            failures.append(f"{len(summary.selections)} frames exceed the {budget}-frame budget")
        if any(not (0 <= v < VIEWS and 0 <= t < n) for v, t in summary.selections):
            failures.append("a (view, step) pair is out of range")
        elif segmentations is not None:
            failures += _whole_shot_failures(summary, segmentations, n)
        scores = [report.precision, report.recall, report.f1]
        scores += [f1 for _, f1 in report.threshold_f1]
        failures += _f1_failures("F1", scores)
        digest = hashlib.sha256(repr(summary.selections).encode()).hexdigest()
        return Checked(digest, failures, report.f1)

    def finish(self) -> tuple[dict, list[str]]:
        return {}, []


def _whole_shot_failures(summary: Summary, segmentations, n: int) -> list[str]:
    """A supervised summary must be a union of whole KTS shots per view."""
    if len(segmentations) != VIEWS:
        return [f"expected {VIEWS} segmentations, saw {len(segmentations)}"]
    mask = summary.frame_mask(VIEWS, n)
    failures = []
    for view, segmentation in enumerate(segmentations):
        shots = segmentation.shot_list(n)
        for i in range(shots.num_shots):
            a, b = shots.shot_span(i)
            picked = int(mask[view, a:b].sum())
            if 0 < picked < b - a:
                failures.append(f"view {view} shot [{a}, {b}) is only partly selected")
    return failures


def make(name: str, seed: int):
    if name == "train_short":
        return TrainWorkload(seed, 300, (4,) * 8, iterations=1)
    if name == "train_long":
        return TrainWorkload(seed, 2000, (2, 1, 1), iterations=1)
    if name == "summarize_long":
        return SummarizeWorkload(seed, 600, pool_size=16)
    raise KeyError(name)


NAMES = ("train_short", "train_long", "summarize_long")
