"""Deterministic synthetic multi-view sequences with planted events.

Frames are noisy copies of unit cluster centers: one background cluster
plus one distinct cluster per event. Each event occupies its own time
window (windows never overlap) and is planted on one view, a pair of
views, or all views depending on the overlap mode. Ground truth marks
exactly the planted (view, frame) pairs.

Cluster centers are rejection-sampled to pairwise cosine below 0.3, which
keeps them far enough apart that diversity-based selection is informative,
and the noise level is checked against the realized minimum inter-cluster
distance (must exceed 3 sigma).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data_model import (
    AnnotationSet, MultiViewSequence, SummaryBudget, check_int, check_real, check_seed,
)
from .errors import ConfigError

OVERLAP_MODES = ("independent", "pairwise", "full")

# events sit in a moderate-similarity band around the background and are
# mutually near-orthogonal, so events are always more similar to background
# than to each other and every pair stays below 0.3 cosine
_BG_COSINE_BAND = (0.15, 0.3)
_EVENT_MAX_COSINE = 0.05
_SAMPLE_ATTEMPTS = 10_000


@dataclass(frozen=True)
class SynthConfig:
    num_views: int
    num_steps: int
    feature_dim: int
    num_events: int
    event_length_min: int
    event_length_max: int
    overlap_mode: str = "independent"
    noise_sigma: float = 0.05
    seed: int = 0
    budget_fraction: float = 0.15
    enforce_budget: bool = True

    def __post_init__(self):
        for name in ("num_views", "num_steps", "feature_dim", "event_length_min"):
            check_int(getattr(self, name), name, 1, error=ConfigError)
        check_int(self.num_events, "num_events", 0, error=ConfigError)
        check_int(self.event_length_max, "event_length_max", self.event_length_min,
                  error=ConfigError)
        check_real(self.noise_sigma, "noise_sigma", 0, None, error=ConfigError)
        if not isinstance(self.enforce_budget, bool):
            raise ConfigError(f"enforce_budget must be a bool, got {self.enforce_budget!r}")
        if self.num_events * self.event_length_max > self.num_steps:
            raise ConfigError(
                f"{self.num_events} events of up to {self.event_length_max} frames "
                f"cannot fit in {self.num_steps} steps"
            )
        if self.overlap_mode not in OVERLAP_MODES:
            raise ConfigError(f"overlap_mode must be one of {OVERLAP_MODES}")
        if self.overlap_mode == "pairwise" and self.num_views < 2:
            raise ConfigError("pairwise overlap needs at least 2 views")
        SummaryBudget(self.budget_fraction)  # ConfigError unless a real in (0, 1]
        check_seed(self.seed)


def _unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _sample_clusters(rng: np.random.Generator, num_events: int, dim: int) -> np.ndarray:
    """Background center plus one center per event (num_events + 1 rows)."""
    background = _unit(rng, dim)
    events: list[np.ndarray] = []
    for _ in range(_SAMPLE_ATTEMPTS):
        if len(events) == num_events:
            break
        v = _unit(rng, dim)
        to_background = float(np.dot(v, background))
        if not (_BG_COSINE_BAND[0] <= to_background < _BG_COSINE_BAND[1]):
            continue
        if all(float(np.dot(v, e)) < _EVENT_MAX_COSINE for e in events):
            events.append(v)
    if len(events) < num_events:
        raise ConfigError(
            f"could not sample {num_events} separated event clusters in dimension "
            f"{dim}; more events need more feature dimensions"
        )
    return np.array([background, *events])


def _event_windows(rng, num_events, length_range, num_steps) -> list[tuple[int, int]]:
    lengths = rng.integers(length_range[0], length_range[1] + 1, size=num_events)
    slack = num_steps - int(lengths.sum())
    gaps = rng.multinomial(slack, np.full(num_events + 1, 1.0 / (num_events + 1)))
    windows = []
    cursor = 0
    for k in range(num_events):
        cursor += int(gaps[k])
        windows.append((cursor, cursor + int(lengths[k])))
        cursor += int(lengths[k])
    return windows


def _event_views(rng, mode: str, num_views: int) -> tuple[int, ...]:
    if mode == "independent":
        return (int(rng.integers(num_views)),)
    if mode == "pairwise":
        return tuple(sorted(int(v) for v in rng.choice(num_views, size=2, replace=False)))
    return tuple(range(num_views))


def generate(config: SynthConfig) -> tuple[MultiViewSequence, AnnotationSet]:
    """Build one sequence and its single-user ground-truth annotations."""
    rng = np.random.default_rng(config.seed)
    m, n, d = config.num_views, config.num_steps, config.feature_dim
    clusters = _sample_clusters(rng, config.num_events, d)

    if config.num_events > 0:
        diffs = clusters[:, None, :] - clusters[None, :, :]
        dists = np.linalg.norm(diffs, axis=2)
        min_dist = float(dists[~np.eye(len(clusters), dtype=bool)].min())
        if min_dist <= 3.0 * config.noise_sigma:
            raise ConfigError(
                f"noise_sigma {config.noise_sigma} too large: inter-cluster distance "
                f"{min_dist:.3f} must exceed 3 sigma"
            )

    windows = _event_windows(
        rng, config.num_events, (config.event_length_min, config.event_length_max), n
    )
    assignments = [_event_views(rng, config.overlap_mode, m) for _ in range(config.num_events)]

    features = clusters[0] + config.noise_sigma * rng.normal(size=(m, n, d))
    truth: list[tuple[int, int]] = []
    for k, ((start, end), views) in enumerate(zip(windows, assignments)):
        for view in views:
            features[view, start:end] = clusters[k + 1] + config.noise_sigma * rng.normal(
                size=(end - start, d)
            )
            truth.extend((view, t) for t in range(start, end))

    if config.enforce_budget:
        budget = SummaryBudget(config.budget_fraction).frame_budget(n)
        if len(truth) > budget:
            raise ConfigError(
                f"{len(truth)} ground-truth frames exceed the {budget}-frame budget; "
                "use fewer or shorter events"
            )

    sequence = MultiViewSequence(
        sequence_id=f"synth-{config.seed}", features=features.astype(np.float32)
    )
    stage = 2 if config.overlap_mode == "pairwise" else 3
    annotations = AnnotationSet(
        sequence_id=sequence.sequence_id,
        stage=stage,
        users=(("gt", tuple(sorted(truth))),),
    )
    return sequence, annotations
