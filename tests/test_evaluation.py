import numpy as np
import pytest

from mdpp import bruteforce, evaluation
from mdpp.data_model import AnnotationSet, MultiViewSequence, ShotList, Summary, SummaryBudget
from mdpp.errors import ValidationError
from mdpp.evaluation import (
    build_report,
    frame_f1,
    oracle_summary,
    pairwise_consensus,
    tolerant_f1,
)


def _interval_summary(view, start, stop):
    return Summary(selections=tuple((view, t) for t in range(start, stop + 1)))


def test_frame_f1_interval_fixture():
    # frames 1..10 predicted vs 6..15 true: 5 of 10 overlap on both sides
    predicted = _interval_summary(0, 1, 10)
    truth = _interval_summary(0, 6, 15)
    assert frame_f1(predicted, truth) == (0.5, 0.5, 0.5)


def test_frame_f1_edge_cases():
    truth = _interval_summary(0, 0, 3)
    assert frame_f1(Summary(selections=()), truth) == (0.0, 0.0, 0.0)
    with pytest.raises(ValidationError):
        frame_f1(truth, Summary(selections=()))
    assert frame_f1(truth, truth) == (1.0, 1.0, 1.0)


def _sequence(rng, m=2, n=16, d=4):
    return MultiViewSequence(
        sequence_id="s", features=rng.normal(size=(m, n, d)).astype(np.float32)
    )


def test_tolerant_f1_zero_tau_equals_exact():
    rng = np.random.default_rng(0)
    seq = _sequence(rng)
    predicted = Summary(selections=((0, 1), (1, 5), (0, 9)))
    truth = Summary(selections=((0, 1), (0, 5), (1, 9)))
    _, _, exact = frame_f1(predicted, truth)
    assert tolerant_f1(predicted, truth, seq, (0.0,)) == [pytest.approx(exact)]


def test_tolerant_f1_credits_identical_cross_view_features():
    rng = np.random.default_rng(1)
    feats = rng.normal(size=(2, 8, 4)).astype(np.float32)
    feats[1, 3] = feats[0, 3]  # same step, same appearance on the other view
    seq = MultiViewSequence(sequence_id="s", features=feats)
    predicted = Summary(selections=((0, 3),))
    truth = Summary(selections=((1, 3),))
    assert frame_f1(predicted, truth)[2] == 0.0
    assert tolerant_f1(predicted, truth, seq, (0.1,)) == [1.0]


def test_tolerant_f1_ignores_other_steps():
    rng = np.random.default_rng(2)
    feats = rng.normal(size=(2, 8, 4)).astype(np.float32)
    feats[1, 4] = feats[0, 3]  # same appearance but a different step
    seq = MultiViewSequence(sequence_id="s", features=feats)
    predicted = Summary(selections=((0, 3),))
    truth = Summary(selections=((1, 4),))
    assert tolerant_f1(predicted, truth, seq, (0.3,)) == [0.0]


def test_tolerant_f1_monotone_in_tau():
    rng = np.random.default_rng(3)
    taus = [float(t) for t in np.linspace(0.0, 1.0, 11)]
    for _ in range(20):
        seq = _sequence(rng, m=3, n=10)
        def pick():
            k = int(rng.integers(1, 6))
            flat = rng.choice(30, size=k, replace=False)
            return Summary(selections=tuple((int(i) // 10, int(i) % 10) for i in flat))
        predicted, truth = pick(), pick()
        scores = tolerant_f1(predicted, truth, seq, taus)
        assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:]))


def test_report_sweep_equals_reference_loop_bitwise():
    # criterion 6's tau-sweep fixtures, plus tied and zero features: one pass
    # per sequence gives the per-tau, per-pair loop's F1 bit for bit
    rng = np.random.default_rng(20260815 + 5)
    taus = tuple(float(t) for t in np.linspace(0.0, 1.0, 9))
    m, n = 3, 10
    for trial in range(50):
        feats = rng.normal(size=(m, n, 4)).astype(np.float32)
        if trial % 5 == 4:
            feats[1, ::2] = feats[0, ::2]
            feats[2, 1::3] = 0.0
        seq = MultiViewSequence(sequence_id="s", features=feats)

        def pick():
            k = int(rng.integers(1, 7))
            flat = rng.choice(m * n, size=k, replace=False)
            return Summary(selections=tuple((int(i) // n, int(i) % n) for i in flat))

        predicted, truth = pick(), pick()
        report = build_report([("s", predicted, truth, seq)], thresholds=taus)
        expected = [bruteforce.reference_tolerant_f1(predicted, truth, seq, t) for t in taus]
        assert [f1 for _, f1 in report.sequences[0].threshold_f1] == expected
        assert tolerant_f1(predicted, truth, seq, taus) == expected
        assert [tolerant_f1(predicted, truth, seq, (t,))[0] for t in taus] == expected


def test_tolerant_f1_rejects_negative_tau():
    rng = np.random.default_rng(4)
    with pytest.raises(ValidationError):
        tolerant_f1(_interval_summary(0, 0, 1), _interval_summary(0, 0, 1), _sequence(rng), (-0.1,))


@pytest.mark.parametrize("tau", [float("nan"), "0.1", None, True])
def test_tolerant_f1_rejects_nan_and_non_real_tau(tau):
    rng = np.random.default_rng(4)
    with pytest.raises(ValidationError, match="tau must be a real number >= 0"):
        tolerant_f1(_interval_summary(0, 0, 1), _interval_summary(0, 0, 1), _sequence(rng), (tau,))


def test_tolerant_f1_accepts_infinite_tau():
    # every cross-view distance is below 2 * inf: each frame matches its step
    rng = np.random.default_rng(4)
    predicted, truth = _interval_summary(0, 0, 1), _interval_summary(1, 0, 1)
    assert tolerant_f1(predicted, truth, _sequence(rng), (float("inf"),)) == [1.0]


def test_pairwise_consensus_fixture():
    annotations = AnnotationSet(
        sequence_id="s", stage=3,
        users=(
            ("a", ((0, 0), (0, 1))),
            ("b", ((0, 0), (0, 1))),
            ("c", ((0, 0), (1, 1))),
        ),
    )
    # pairs: (a,b)=1, (a,c)=0.5, (b,c)=0.5
    assert pairwise_consensus(annotations) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_pairwise_consensus_empty_conventions():
    both_empty = AnnotationSet(sequence_id="s", stage=3, users=(("a", ()), ("b", ())))
    assert pairwise_consensus(both_empty) == 1.0
    one_empty = AnnotationSet(sequence_id="s", stage=3, users=(("a", ((0, 1),)), ("b", ())))
    assert pairwise_consensus(one_empty) == 0.0
    with pytest.raises(ValidationError):
        pairwise_consensus(AnnotationSet(sequence_id="s", stage=3, users=(("a", ((0, 0),)),)))


def _unit_shots(n):
    return ShotList(boundaries=tuple(range(1, n + 1)))


def test_oracle_budget_one_matches_exhaustive():
    rng = np.random.default_rng(5)
    for _ in range(20):
        m, n = 2, 10
        users = tuple(
            (f"u{k}", tuple(
                (int(i) // n, int(i) % n)
                for i in rng.choice(m * n, size=int(rng.integers(1, 6)), replace=False)
            ))
            for k in range(3)
        )
        annotations = AnnotationSet(sequence_id="s", stage=3, users=users)
        shots = [_unit_shots(n)] * m
        budget = SummaryBudget(fraction=1.0 / n)  # exactly one frame
        summary = oracle_summary(annotations, shots, budget)

        user_sets = [set(sels) for _, sels in users]
        def mean_f1(frames):
            return float(np.mean([evaluation._set_f1(frames, u) for u in user_sets]))
        best, best_frames = 0.0, set()
        for shot, view in sorted((t, v) for v in range(m) for t in range(n)):
            trial = {(view, shot)}
            if mean_f1(trial) > best:
                best, best_frames = mean_f1(trial), trial
        assert summary.selection_set == best_frames


def test_oracle_skips_over_budget_shots():
    annotations = AnnotationSet(sequence_id="s", stage=3, users=(("u", ((0, 0),)),))
    shots = [ShotList(boundaries=(5,))]  # single 5-frame shot, budget is 1 frame
    summary = oracle_summary(annotations, shots, SummaryBudget(fraction=0.2))
    assert summary.selections == ()


def test_oracle_recovers_union_of_users_under_loose_budget():
    users = (
        ("a", ((0, 0), (0, 1), (0, 2))),
        ("b", ((0, 5), (0, 6), (0, 7))),
    )
    annotations = AnnotationSet(sequence_id="s", stage=3, users=users)
    shots = [ShotList(boundaries=(3, 5, 8, 10))]
    summary = oracle_summary(annotations, shots, SummaryBudget(fraction=0.8))
    assert summary.selection_set == {(0, t) for t in (0, 1, 2, 5, 6, 7)}


def test_oracle_requires_nonempty_users():
    with pytest.raises(ValidationError):
        oracle_summary(
            AnnotationSet(sequence_id="s", stage=3, users=(("a", ()),)),
            [ShotList(boundaries=(4,))],
        )


def test_oracle_requires_shot_lists_of_one_length():
    annotations = AnnotationSet(sequence_id="s", stage=3, users=(("u", ((0, 0),)),))
    with pytest.raises(ValidationError, match=r"got \[\]"):
        oracle_summary(annotations, [])
    with pytest.raises(ValidationError, match=r"one length, got \[10, 8\]"):
        oracle_summary(annotations, [ShotList(boundaries=(4, 10)), ShotList(boundaries=(8,))])


def test_build_report_aggregates():
    rng = np.random.default_rng(6)
    seq = _sequence(rng)
    entries = [
        ("one", _interval_summary(0, 1, 10), _interval_summary(0, 6, 15), seq),
        ("two", _interval_summary(0, 6, 15), _interval_summary(0, 6, 15), seq),
    ]
    report = build_report(entries, thresholds=(0.0, 0.5))
    assert report.f1 == pytest.approx(0.75)
    assert report.sequences[0].f1 == pytest.approx(0.5)
    assert [tau for tau, _ in report.threshold_f1] == [0.0, 0.5]
    with pytest.raises(ValidationError):
        build_report([])


def test_report_refuses_a_bare_threshold():
    # the sweep's items are taus; one bare tau is not a sweep of one
    rng = np.random.default_rng(7)
    entries = [("one", _interval_summary(0, 1, 10), _interval_summary(1, 6, 15), _sequence(rng))]
    for thresholds in (0.1, 0, None):
        with pytest.raises(ValidationError, match="taus must be an iterable"):
            build_report(entries, thresholds=thresholds)


def test_report_and_sweep_read_one_shot_taus_once():
    # a generator of thresholds gives the report its tuple gives, not an
    # empty sweep
    rng = np.random.default_rng(7)
    seq = _sequence(rng)
    entries = [("one", _interval_summary(0, 1, 10), _interval_summary(1, 6, 15), seq)]
    taus = (0.0, 0.1, 2.0)
    report = build_report(entries, thresholds=taus)
    assert len(report.threshold_f1) == 3
    assert build_report(entries, thresholds=(t for t in taus)) == report
    predicted, truth = entries[0][1:3]
    assert tolerant_f1(predicted, truth, seq, (t for t in taus)) == tolerant_f1(
        predicted, truth, seq, taus
    )
