"""Inference pipelines turning scores into budgeted keyshot summaries.

The supervised path scores every frame of every view with the trained
quality head, segments each view into shots with ``segment_views`` (KTS on
the raw input features; the one segmentation step, which the unsupervised
path and the CLI's ``oracle`` and ``segment`` commands share), scores each
shot by its mean frame quality, and solves an exact 0/1 knapsack over the
pooled shot set under the frame budget (15% of a single view's length by
default). A chosen shot contributes all of its frames.

The unsupervised path needs no trained weights: it pools unit-normalized
raw features into the joint kernel with uniform qualities, greedily selects
diverse time-steps, attributes each to its closest view, and expands those
picks to whole shots under the same budget (falling back to the picked
frames alone when no whole shot fits it).

Baselines share a single-view summarizer callable with signature
``(features, frame_budget) -> [(start, end, score), ...]`` so tests can
inject planted scorers.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import dpp
from .data_model import MultiViewSequence, Summary, SummaryBudget, check_seed
from .encoder import ModelParams, forward
from .errors import DataError, ValidationError
from .kts import SegmentationResult, kts
from .multi_dpp import ViewStreams, build_joint_kernel

Shot = tuple[int, int, float]


def knapsack_shots(lengths, scores, budget_frames: int) -> list[int]:
    """Exact 0/1 knapsack: maximize total score with total length within the
    budget. Ties prefer the lexicographically smallest index set. Sums are
    exact: the DP runs on Python integers, each score scaled by the largest
    denominator of the scores' ``as_integer_ratio``, so a tie never depends
    on the order in which float additions round."""
    lens = [int(v) for v in lengths]
    vals = [float(v) for v in scores]
    if len(lens) != len(vals):
        raise ValidationError(f"{len(lens)} lengths but {len(vals)} scores")
    if any(v < 1 for v in lens):
        raise ValidationError("shot lengths must be positive")
    if not all(math.isfinite(v) for v in vals):
        raise ValidationError("shot scores must be finite")
    if budget_frames < 0:
        raise ValidationError(f"budget must be non-negative, got {budget_frames}")
    ratios = [v.as_integer_ratio() for v in vals]
    scale = max((den for _, den in ratios), default=1)  # a power of two
    ints = [num * (scale // den) for num, den in ratios]

    # dp[w] = (best value, chosen indices) for the item suffix under capacity w
    dp = [(0, ())] * (budget_frames + 1)
    for i in range(len(lens) - 1, -1, -1):
        nxt = dp
        dp = list(nxt)
        for w in range(lens[i], budget_frames + 1):
            value, chosen = nxt[w - lens[i]]
            take = (value + ints[i], (i, *chosen))
            skip = nxt[w]
            if take[0] > skip[0] or (take[0] == skip[0] and take[1] < skip[1]):
                dp[w] = take
    return list(dp[budget_frames][1])


def default_max_segments(num_steps: int) -> int:
    # targets shots of roughly 15 frames
    return max(2, -(-num_steps // 15))


def segment_views(sequence: MultiViewSequence, max_segments: int | None = None,
                  penalty_coeff: float = 1.0) -> list[SegmentationResult]:
    """KTS on each view's raw features, in view order. ``max_segments=None``
    applies ``default_max_segments``."""
    cap = default_max_segments(sequence.num_steps) if max_segments is None else max_segments
    return [kts(sequence.view(m), cap, penalty_coeff) for m in range(sequence.num_views)]


def _pick_shots(shots: list[tuple[int, int, int, float]], budget_frames: int):
    """shots are (view, start, end, score); returns the chosen sub-list."""
    chosen = knapsack_shots(
        [end - start for _, start, end, _ in shots],
        [score for _, _, _, score in shots],
        budget_frames,
    )
    return [shots[i] for i in chosen]


def _shots_to_summary(chosen, fraction: float) -> Summary:
    selections = tuple(
        (view, t) for view, start, end, _ in chosen for t in range(start, end)
    )
    return Summary(selections=selections, budget_fraction=fraction)


def _supervised_shots(params, sequence, frame_budget, max_segments, penalty_coeff):
    """The knapsack's choice, as (view, start, end, score), among each view's
    KTS shots scored by their mean quality-head score."""
    quality = forward(params, sequence).streams.quality
    shots = []
    for m, segmentation in enumerate(segment_views(sequence, max_segments, penalty_coeff)):
        shot_list = segmentation.shot_list(sequence.num_steps)
        for i in range(shot_list.num_shots):
            a, b = shot_list.shot_span(i)
            shots.append((m, a, b, float(quality[m][a:b].mean())))
    return _pick_shots(shots, frame_budget)


def summarize_supervised(
    params: ModelParams,
    sequence: MultiViewSequence,
    budget: SummaryBudget = SummaryBudget(),
    max_segments: int | None = None,
    penalty_coeff: float = 1.0,
) -> Summary:
    """Quality-head scores + per-view KTS shots + global knapsack."""
    frame_budget = budget.frame_budget(sequence.num_steps)
    chosen = _supervised_shots(params, sequence, frame_budget, max_segments, penalty_coeff)
    return _shots_to_summary(chosen, budget.fraction)


def _unit_rows(features: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(features, axis=-1)
    if (norms < 1e-12).any():
        raise DataError("cannot unit-normalize a zero feature vector")
    return features / norms[..., None]


def summarize_unsupervised(
    sequence: MultiViewSequence,
    budget: SummaryBudget = SummaryBudget(),
    max_segments: int | None = None,
    penalty_coeff: float = 1.0,
) -> Summary:
    """Diversity-only summary from the joint kernel with uniform qualities."""
    n = sequence.num_steps
    budget_frames = budget.frame_budget(n)
    unit = _unit_rows(sequence.features.astype(np.float64))
    streams = ViewStreams(features=unit, quality=np.ones((sequence.num_views, n)))
    kernel = build_joint_kernel(streams)
    # fill mode: keep taking the least-redundant step up to the budget (a
    # unit-diagonal kernel would otherwise stop after one pick)
    steps = dpp.greedy_map(kernel.phi * kernel.q, max_size=budget_frames, fill=True)

    joint = kernel.phi
    shot_lists = [s.shot_list(n) for s in segment_views(sequence, max_segments, penalty_coeff)]
    attributed = [
        (int(np.argmax(unit[:, t] @ joint[:, t])), int(t)) for t in steps
    ]
    hits = Counter((view, shot_lists[view].shot_of(t)) for view, t in attributed)
    # expanding picks to whole shots can exceed the budget, so rank shots by
    # how many selected steps they absorbed and knapsack again
    shots = []
    for (view, i), count in sorted(hits.items()):
        a, b = shot_lists[view].shot_span(i)
        shots.append((view, a, b, float(count)))
    chosen = _pick_shots(shots, budget_frames)
    if not chosen and attributed:
        # every absorbing shot overflows the budget (coarse segmentation or a
        # tight budget); fall back to the picked steps as single frames
        return Summary(selections=tuple(attributed), budget_fraction=budget.fraction)
    return _shots_to_summary(chosen, budget.fraction)


def single_view_supervised(params: ModelParams, penalty_coeff: float = 1.0, max_segments: int | None = None):
    """Build the single-stream summarizer the merge baselines expect."""

    def summarizer(features: np.ndarray, frame_budget: int) -> list[Shot]:
        seq = MultiViewSequence(sequence_id="single", features=features[None, ...])
        chosen = _supervised_shots(params, seq, frame_budget, max_segments, penalty_coeff)
        return [(a, b, score) for _, a, b, score in chosen]

    return summarizer


def baseline_merge_views(
    single_view_summarizer,
    sequence: MultiViewSequence,
    budget: SummaryBudget = SummaryBudget(),
) -> Summary:
    """Concatenate views along time (view-major) and summarize the one
    resulting stream under the single-view frame budget."""
    n = sequence.num_steps
    merged = sequence.features.reshape(sequence.num_views * n, sequence.feature_dim)
    selections = []
    for start, end, _ in single_view_summarizer(merged, budget.frame_budget(n)):
        for t in range(start, end):
            selections.append((t // n, t % n))
    return Summary(selections=tuple(selections), budget_fraction=budget.fraction)


def baseline_merge_summaries(
    single_view_summarizer,
    sequence: MultiViewSequence,
    budget: SummaryBudget = SummaryBudget(),
) -> Summary:
    """Summarize each view independently at the full budget, then trim the
    union back to the budget keeping the highest-scoring shots."""
    n = sequence.num_steps
    budget_frames = budget.frame_budget(n)
    pool = []
    for m in range(sequence.num_views):
        for start, end, score in single_view_summarizer(sequence.view(m), budget_frames):
            pool.append((m, start, end, score))
    pool.sort(key=lambda shot: (-shot[3], shot[0], shot[1]))
    chosen, used = [], 0
    for view, start, end, score in pool:
        if used + (end - start) <= budget_frames:
            chosen.append((view, start, end, score))
            used += end - start
    return _shots_to_summary(chosen, budget.fraction)


def baseline_random(
    sequence: MultiViewSequence,
    budget: SummaryBudget = SummaryBudget(),
    seed: int = 0,
) -> Summary:
    """Uniform sample of frame_budget (view, t) pairs without replacement."""
    m, n = sequence.num_views, sequence.num_steps
    rng = np.random.default_rng(check_seed(seed))
    flat = rng.choice(m * n, size=min(budget.frame_budget(n), m * n), replace=False)
    selections = tuple((int(i) // n, int(i) % n) for i in flat)
    return Summary(selections=selections, budget_fraction=budget.fraction)
