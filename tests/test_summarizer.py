import numpy as np
import pytest

from mdpp import summarizer
from mdpp.bruteforce import exhaustive_knapsack
from mdpp.data_model import MultiViewSequence, SummaryBudget
from mdpp.encoder import init_params
from mdpp.errors import ValidationError
from mdpp.kts import kts
from mdpp.summarizer import (
    baseline_merge_summaries,
    baseline_merge_views,
    baseline_random,
    default_max_segments,
    knapsack_shots,
    segment_views,
    summarize_supervised,
    summarize_unsupervised,
)
from mdpp.synth import SynthConfig, generate


def test_knapsack_toy():
    assert knapsack_shots([3, 2, 2], [5.0, 4.0, 4.0], 4) == [1, 2]
    assert knapsack_shots([3, 2, 2], [5.0, 4.0, 4.0], 0) == []
    assert knapsack_shots([2], [1.0], 1) == []


def test_knapsack_tie_prefers_lexicographically_smallest():
    # {0,1} and {2} both score 2 within budget 2
    assert knapsack_shots([1, 1, 2], [1.0, 1.0, 2.0], 2) == [0, 1]
    # zero-score items are left out because () sorts before (0,)
    assert knapsack_shots([1, 1], [0.0, 0.0], 5) == []


def test_knapsack_exact_tie_ignores_float_rounding():
    # {1, 2, 3} sums to exactly 1 + 5 eps, the score of {0}; added in float
    # from the last item, 1.5 eps + (1 + 2 eps) rounds up to 1 + 4 eps and
    # then up again to 1 + 6 eps, so a float DP would pick {1, 2, 3}
    eps = 2.0**-52
    scores = [1 + 5 * eps, 1.5 * eps, 1 + 2 * eps, 1.5 * eps]
    assert knapsack_shots([3, 1, 1, 1], scores, 3) == [0]
    assert exhaustive_knapsack([3, 1, 1, 1], scores, 3) == [0]
    # not a tie: the floats 0.1 and 0.2 sum to 2^-55 more than the float 0.3
    assert knapsack_shots([2, 1, 1], [0.3, 0.1, 0.2], 2) == [1, 2]


def test_knapsack_matches_exhaustive():
    rng = np.random.default_rng(0)
    for _ in range(60):
        n = int(rng.integers(1, 13))
        lengths = rng.integers(1, 7, size=n).tolist()
        scores = rng.integers(0, 50, size=n).astype(float).tolist()
        budget = int(rng.integers(0, sum(lengths) + 2))
        assert knapsack_shots(lengths, scores, budget) == exhaustive_knapsack(
            lengths, scores, budget
        )


def test_knapsack_validation():
    with pytest.raises(ValidationError):
        knapsack_shots([1, 2], [1.0], 3)
    with pytest.raises(ValidationError):
        knapsack_shots([0], [1.0], 3)
    with pytest.raises(ValidationError):
        knapsack_shots([1], [np.inf], 3)
    with pytest.raises(ValidationError):
        knapsack_shots([1], [1.0], -1)


def test_default_max_segments():
    assert default_max_segments(10) == 2
    assert default_max_segments(30) == 2
    assert default_max_segments(300) == 20


def _synth_sequence(seed=0):
    config = SynthConfig(
        num_views=3, num_steps=60, feature_dim=8, num_events=3,
        event_length_min=2, event_length_max=3, seed=seed,
    )
    sequence, _ = generate(config)
    return sequence


def _selected_shot_structure(summary, sequence, max_segments, penalty_coeff):
    """Check every selection belongs to a fully selected KTS shot."""
    chosen = summary.selection_set
    for m, segmentation in enumerate(segment_views(sequence, max_segments, penalty_coeff)):
        shots = segmentation.shot_list(sequence.num_steps)
        steps = {t for v, t in chosen if v == m}
        for i in range(shots.num_shots):
            a, b = shots.shot_span(i)
            inside = steps & set(range(a, b))
            assert inside in (set(), set(range(a, b)))


def test_segment_views_is_kts_on_each_view():
    sequence = _synth_sequence()
    n = sequence.num_steps
    for max_segments, cap in ((None, default_max_segments(n)), (6, 6)):
        for penalty in (0.05, 1.0):
            expected = [kts(sequence.view(m), cap, penalty) for m in range(sequence.num_views)]
            assert segment_views(sequence, max_segments, penalty) == expected
    assert segment_views(sequence) == segment_views(sequence, default_max_segments(n), 1.0)


def test_summarize_supervised_budget_and_shot_structure():
    sequence = _synth_sequence()
    params = init_params(8, hidden_size=4, output_dim=8, seed=0)
    budget = SummaryBudget(fraction=0.15)
    summary = summarize_supervised(
        params, sequence, budget, max_segments=8, penalty_coeff=0.05
    )
    assert 0 < len(summary.selections) <= budget.frame_budget(60)
    _selected_shot_structure(summary, sequence, 8, 0.05)


def test_summarize_unsupervised_budget_and_determinism():
    # on this data every shot that absorbs a pick outgrows the 9-frame
    # budget, so the output is the single-frame fallback
    sequence = _synth_sequence(seed=1)
    budget = SummaryBudget(fraction=0.15)
    kwargs = dict(max_segments=8, penalty_coeff=0.05)
    a = summarize_unsupervised(sequence, budget, **kwargs)
    b = summarize_unsupervised(sequence, budget, **kwargs)
    assert a == b
    assert 0 < len(a.selections) <= budget.frame_budget(60)


def _cluster_streams(rng, noise=0.02):
    e1 = np.zeros(6)
    e1[0] = 1.0
    e2 = np.zeros(6)
    e2[1] = 1.0
    feats = np.empty((1, 10, 6))
    feats[0, :5] = e1 + noise * rng.normal(size=(5, 6))
    feats[0, 5:] = e2 + noise * rng.normal(size=(5, 6))
    return feats


def test_unsupervised_step_selection_spans_clusters():
    # two near-orthogonal clusters, budget 2 steps: one pick from each
    # cluster beats doubling up inside one
    from mdpp import dpp
    from mdpp.multi_dpp import ViewStreams, build_joint_kernel

    rng = np.random.default_rng(4)
    feats = _cluster_streams(rng)
    unit = feats / np.linalg.norm(feats, axis=-1, keepdims=True)
    streams = ViewStreams(features=unit, quality=np.ones((1, 10)))
    kernel = build_joint_kernel(streams)
    steps = dpp.greedy_map(kernel.phi * kernel.q, max_size=2, fill=True)
    assert len(steps) == 2
    assert min(steps) < 5 <= max(steps)


def test_unsupervised_expands_to_whole_shots_when_they_fit():
    # two 5-frame blocks, budget 6: exactly one whole block is kept
    rng = np.random.default_rng(11)
    sequence = MultiViewSequence(
        sequence_id="blocks", features=_cluster_streams(rng).astype(np.float32)
    )
    summary = summarize_unsupervised(
        sequence, SummaryBudget(fraction=0.6), max_segments=4, penalty_coeff=0.05
    )
    assert len(summary.selections) == 5
    _selected_shot_structure(summary, sequence, 4, 0.05)


def test_unsupervised_step_selection_view_permutation_invariant():
    from mdpp import dpp
    from mdpp.multi_dpp import ViewStreams, build_joint_kernel

    rng = np.random.default_rng(6)
    feats = rng.normal(size=(3, 12, 5))
    unit = feats / np.linalg.norm(feats, axis=-1, keepdims=True)
    quality = np.ones((3, 12))

    def steps(view_order):
        streams = ViewStreams(features=unit[view_order], quality=quality)
        kernel = build_joint_kernel(streams)
        return dpp.greedy_map(kernel.phi * kernel.q, max_size=4, fill=True)

    base = steps([0, 1, 2])
    assert steps([2, 0, 1]) == base
    assert steps([1, 2, 0]) == base


def _planted_single_view(shots_by_call):
    calls = iter(shots_by_call)

    def summarizer_fn(features, frame_budget):
        return next(calls)

    return summarizer_fn


def test_baseline_merge_views_maps_concatenated_time():
    rng = np.random.default_rng(2)
    sequence = MultiViewSequence(
        sequence_id="s", features=rng.normal(size=(2, 10, 3)).astype(np.float32)
    )
    # one call on the merged 20-step stream
    single = _planted_single_view([[(5, 8, 1.0), (12, 14, 0.5)]])
    summary = baseline_merge_views(single, sequence, SummaryBudget(fraction=0.5))
    assert summary.selection_set == {(0, 5), (0, 6), (0, 7), (1, 2), (1, 3)}


def test_baseline_merge_summaries_trims_to_budget():
    rng = np.random.default_rng(3)
    sequence = MultiViewSequence(
        sequence_id="s", features=rng.normal(size=(2, 20, 3)).astype(np.float32)
    )
    # per-view summaries at the full budget; higher scores survive the trim
    single = _planted_single_view([[(0, 3, 5.0)], [(0, 3, 7.0)]])
    summary = baseline_merge_summaries(single, sequence, SummaryBudget(fraction=0.2))
    assert summary.selection_set == {(1, 0), (1, 1), (1, 2)}


def test_baseline_random_properties():
    sequence = _synth_sequence(seed=2)
    budget = SummaryBudget(fraction=0.15)
    a = baseline_random(sequence, budget, seed=4)
    b = baseline_random(sequence, budget, seed=4)
    c = baseline_random(sequence, budget, seed=5)
    assert a == b
    assert a != c
    assert len(a.selections) == budget.frame_budget(60)
    for v, t in a.selections:
        assert 0 <= v < 3 and 0 <= t < 60


def test_single_view_supervised_respects_budget():
    rng = np.random.default_rng(5)
    params = init_params(6, hidden_size=4, output_dim=6, seed=0)
    single = summarizer.single_view_supervised(params, penalty_coeff=0.05, max_segments=6)
    features = rng.normal(size=(40, 6)).astype(np.float32)
    shots = single(features, 8)
    total = sum(end - start for start, end, _ in shots)
    assert 0 < total <= 8
    for start, end, _ in shots:
        assert 0 <= start < end <= 40
