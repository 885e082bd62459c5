"""Evaluation protocol: frame-level F1, threshold-tolerant F1, inter-user
consensus, and greedy oracle summaries built from multi-user annotations.

All matching is on exact (view, time-step) pairs; the tolerant variant
additionally credits a prediction whose frame coincides in time with a truth
frame on another view when the two L2-normalized input features are closer
than 2*tau (unit vectors are never farther apart than 2, so tau is a
fraction of the maximum possible distance). ``tolerant_f1`` takes a sweep
of taus: it computes a sequence's cross-view distances once and compares
them with every 2*tau; ``bruteforce.reference_tolerant_f1`` is the
per-pair loop at one tau.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .data_model import (
    AnnotationSet, MultiViewSequence, ShotList, Summary, SummaryBudget, check_budget, check_real,
)
from .errors import ValidationError

Selection = tuple[int, int]


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def frame_f1(predicted: Summary, truth: Summary) -> tuple[float, float, float]:
    """Precision, recall, F1 on exact (view, t) matches."""
    truth_set = truth.selection_set
    if not truth_set:
        raise ValidationError("truth summary is empty; recall is undefined")
    pred_set = predicted.selection_set
    if not pred_set:
        return (0.0, 0.0, 0.0)
    hits = len(pred_set & truth_set)
    precision = hits / len(pred_set)
    recall = hits / len(truth_set)
    return (precision, recall, _f1(precision, recall))


def _set_f1(a: set[Selection], b: set[Selection]) -> float:
    """Pair convention used for consensus: two empty sets agree perfectly,
    one empty set agrees with nothing."""
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    hits = len(a & b)
    return _f1(hits / len(a), hits / len(b))


def tolerant_f1(
    predicted: Summary,
    truth: Summary,
    sequence: MultiViewSequence,
    taus: Iterable[float],
) -> list[float]:
    """F1 at every tau of ``taus``, where a (v, t) counts as matching
    (v', t) when the normalized features are within 2*tau. Non-decreasing
    in tau; tau=0 is exact. The distances are computed once; each tau only
    compares them with 2*tau."""
    taus = _checked_taus(taus)
    if not truth.selections:
        raise ValidationError("truth summary is empty; recall is undefined")
    if not predicted.selections:
        return [0.0] * len(taus)
    m, n = sequence.num_views, sequence.num_steps
    pred, true = predicted.frame_mask(m, n), truth.frame_mask(m, n)
    dist = _cross_view_distances(sequence)

    def nearest(source, target):
        """For each source frame the target lacks, the distance to the
        nearest target frame at its step (inf when there is none)."""
        return np.where(target[None], dist, np.inf).min(axis=1)[source & ~target]

    hits = int((pred & true).sum())
    pred_near, true_near = nearest(pred, true), nearest(true, pred)
    sweep = []
    for tau in taus:
        precision = (hits + int((pred_near < 2.0 * tau).sum())) / int(pred.sum())
        recall = (hits + int((true_near < 2.0 * tau).sum())) / int(true.sum())
        sweep.append(_f1(precision, recall))
    return sweep


def _checked_taus(taus) -> tuple:
    """``taus`` as a tuple, read once, of taus >= 0 (inf included). A bare
    tau is a ValidationError, not a TypeError; a str is read as its
    characters, which are not taus."""
    if not hasattr(taus, "__iter__"):
        raise ValidationError(f"taus must be an iterable of taus, got a {type(taus).__name__}")
    taus = tuple(taus)
    for tau in taus:
        check_real(tau, "tau", 0, None, finite=False)
    return taus


def _cross_view_distances(sequence: MultiViewSequence) -> np.ndarray:
    """(M, M, N): distance between the L2-normalized input features of
    views v and w at each step (zero features stay zero)."""
    feats = sequence.features.astype(np.float64)
    norms = np.linalg.norm(feats, axis=2)
    unit = np.divide(feats, norms[..., None], out=np.zeros_like(feats), where=norms[..., None] > 0)
    m, n, _ = unit.shape
    dist = np.zeros((m, m, n))
    for v in range(m):
        for w in range(v + 1, m):
            diff = (unit[v] - unit[w])[:, None, :]
            # one BLAS dot per step, the product np.linalg.norm takes for a
            # single vector, so each distance is bitwise the per-pair one
            dist[v, w] = dist[w, v] = np.sqrt(np.matmul(diff, diff.swapaxes(1, 2))[:, 0, 0])
    return dist


def pairwise_consensus(annotations: AnnotationSet) -> float:
    """Mean frame-level F1 over all unordered user pairs."""
    selections = annotations.user_selections()
    users = sorted(selections)
    if len(users) < 2:
        raise ValidationError(f"consensus needs at least 2 users, got {len(users)}")
    scores = [
        _set_f1(selections[users[i]], selections[users[j]])
        for i in range(len(users))
        for j in range(i + 1, len(users))
    ]
    return float(np.mean(scores))


def oracle_summary(
    annotations: AnnotationSet,
    shots: Sequence[ShotList],
    budget: SummaryBudget = SummaryBudget(),
) -> Summary:
    """Greedy shot selection maximizing mean F1 against the users.

    ``shots`` holds one ShotList per view, so its length is the number of
    views. Starting empty, the (shot, view) pair with the largest strictly
    positive gain in mean F1 is added; pairs that would exceed the frame
    budget are skipped; ties prefer the smallest (shot, view).
    """
    selections = annotations.user_selections()
    if not selections:
        raise ValidationError("oracle needs at least one user with selections")
    user_sets = [selections[u] for u in sorted(selections)]
    if any(not s for s in user_sets):
        raise ValidationError("oracle needs every user to have selections")

    shot_lists = list(shots)
    lengths = [s.num_steps for s in shot_lists]
    if len(set(lengths)) != 1:
        raise ValidationError(
            f"oracle needs one shot list per view, all of one length, got {lengths}"
        )
    num_views = len(shot_lists)
    num_steps = lengths[0]
    budget_frames = check_budget(budget).frame_budget(num_steps)

    candidates = sorted(
        (shot, view)
        for view in range(num_views)
        for shot in range(shot_lists[view].num_shots)
    )

    def mean_f1(frames: set[Selection]) -> float:
        return float(np.mean([_set_f1(frames, users) for users in user_sets]))

    chosen: set[tuple[int, int]] = set()
    frames: set[Selection] = set()
    current = mean_f1(frames)
    while True:
        best_gain, best_pair, best_frames = 0.0, None, None
        for shot, view in candidates:
            if (shot, view) in chosen:
                continue
            a, b = shot_lists[view].shot_span(shot)
            trial = frames | {(view, t) for t in range(a, b)}
            if len(trial) > budget_frames:
                continue
            gain = mean_f1(trial) - current
            if gain > best_gain:
                best_gain, best_pair, best_frames = gain, (shot, view), trial
        if best_pair is None:
            break
        chosen.add(best_pair)
        frames = best_frames
        current += best_gain
    return Summary(selections=tuple(frames), budget_fraction=budget.fraction)


@dataclass(frozen=True)
class SequenceEval:
    sequence_id: str
    precision: float
    recall: float
    f1: float
    threshold_f1: tuple[tuple[float, float], ...]


@dataclass(frozen=True)
class EvalReport:
    """Macro-averaged scores plus the per-sequence breakdown."""

    precision: float
    recall: float
    f1: float
    threshold_f1: tuple[tuple[float, float], ...]
    sequences: tuple[SequenceEval, ...]


DEFAULT_THRESHOLDS = (0.0, 0.1, 0.2, 0.3)


def build_report(entries, thresholds=DEFAULT_THRESHOLDS) -> EvalReport:
    """entries: iterable of (sequence_id, predicted, truth, sequence);
    thresholds: iterable of the taus of ``tolerant_f1``, read once."""
    thresholds = _checked_taus(thresholds)
    rows = []
    for sequence_id, predicted, truth, sequence in entries:
        precision, recall, f1 = frame_f1(predicted, truth)
        sweep = tuple(
            zip(map(float, thresholds), tolerant_f1(predicted, truth, sequence, thresholds))
        )
        rows.append(
            SequenceEval(
                sequence_id=sequence_id, precision=precision, recall=recall, f1=f1,
                threshold_f1=sweep,
            )
        )
    if not rows:
        raise ValidationError("nothing to evaluate")
    mean_sweep = tuple(
        (float(tau), float(np.mean([dict(r.threshold_f1)[tau] for r in rows])))
        for tau in thresholds
    )
    return EvalReport(
        precision=float(np.mean([r.precision for r in rows])),
        recall=float(np.mean([r.recall for r in rows])),
        f1=float(np.mean([r.f1 for r in rows])),
        threshold_f1=mean_sweep,
        sequences=tuple(rows),
    )
