"""Core domain types shared by every stage of the pipeline.

All types are immutable after construction (arrays are set non-writeable),
so instances can be shared freely across threads.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ValidationError

Selection = tuple[int, int]  # (view, time-step)


def is_integer(value) -> bool:
    """Whether a config value is an int or numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """Whether a config value is an int, float or numpy real, and not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def check_seed(seed) -> int:
    """``seed`` if it is a non-negative integer (not a bool); otherwise a
    ConfigError, where numpy's generators would raise a bare ValueError."""
    if not is_integer(seed) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return seed


@dataclass(frozen=True)
class MultiViewSequence:
    """M temporally aligned views of N time-steps with D-dim features each.

    ``features`` is indexed ``[view][time][dim]`` and stored as float32,
    the native dtype of the on-disk feature format.
    """

    sequence_id: str
    features: np.ndarray
    fps_note: str = ""

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float32)
        if feats.ndim != 3:
            raise ValidationError(
                f"features must be [view][time][dim], got ndim={feats.ndim}"
            )
        if min(feats.shape) < 1:
            raise ValidationError(f"all dimensions must be positive, got {feats.shape}")
        if not np.isfinite(feats).all():
            raise DataError(f"sequence {self.sequence_id!r} contains non-finite features")
        feats.flags.writeable = False
        object.__setattr__(self, "features", feats)

    @property
    def num_views(self) -> int:
        return self.features.shape[0]

    @property
    def num_steps(self) -> int:
        return self.features.shape[1]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[2]

    def view(self, m: int) -> np.ndarray:
        """The (N, D) feature matrix of view ``m``."""
        return self.features[m]


@dataclass(frozen=True)
class AnnotationSet:
    """Per-user shot selections for one sequence at one annotation stage.

    Stage 1 annotates a single view in isolation; stages 2 and 3 allow
    selections from any view.
    """

    sequence_id: str
    stage: int
    users: tuple[tuple[str, tuple[Selection, ...]], ...]

    def __post_init__(self):
        if self.stage not in (1, 2, 3):
            raise ValidationError(f"stage must be 1, 2 or 3, got {self.stage}")
        users = tuple(
            (uid, tuple((int(v), int(t)) for v, t in sels)) for uid, sels in self.users
        )
        for uid, sels in users:
            if not isinstance(uid, str):
                raise ValidationError(f"user ids must be strings, got {uid!r}")
            if len(set(sels)) != len(sels):
                raise ValidationError(f"user {uid!r} has duplicate (view, t) selections")
            for v, t in sels:
                if v < 0 or t < 0:
                    raise ValidationError(f"negative selection index ({v}, {t})")
        if self.stage == 1:
            views = {v for _, sels in users for v, _ in sels}
            if len(views) > 1:
                raise ValidationError(
                    f"stage-1 annotations must reference a single view, got {sorted(views)}"
                )
        object.__setattr__(self, "users", users)

    def validate_shape(self, num_views: int, num_steps: int) -> None:
        """Check every selection against a sequence's (M, N) bounds."""
        for uid, sels in self.users:
            for v, t in sels:
                if v >= num_views:
                    raise ValidationError(
                        f"user {uid!r} selects view {v} but sequence has {num_views} views"
                    )
                if t >= num_steps:
                    raise ValidationError(
                        f"user {uid!r} selects t={t} but sequence has {num_steps} steps"
                    )

    def user_selections(self) -> dict[str, set[Selection]]:
        return {uid: set(sels) for uid, sels in self.users}


@dataclass(frozen=True)
class Summary:
    """A set of (view, time-step) selections under a length budget.

    Selections are deduplicated and stored sorted by (t, view).
    """

    selections: tuple[Selection, ...]
    budget_fraction: float = 0.15

    def __post_init__(self):
        if not is_real(self.budget_fraction) or not (0.0 < self.budget_fraction <= 1.0):
            raise ValidationError(
                f"budget_fraction must be a real number in (0, 1], got {self.budget_fraction!r}"
            )
        sels = sorted({(int(v), int(t)) for v, t in self.selections}, key=lambda p: (p[1], p[0]))
        for v, t in sels:
            if v < 0 or t < 0:
                raise ValidationError(f"negative selection index ({v}, {t})")
        object.__setattr__(self, "selections", tuple(sels))

    @property
    def selection_set(self) -> set[Selection]:
        return set(self.selections)

    def frame_mask(self, num_views: int, num_steps: int) -> np.ndarray:
        """Binary (M, N) mask of the selected frames."""
        mask = np.zeros((num_views, num_steps), dtype=bool)
        for v, t in self.selections:
            if v >= num_views or t >= num_steps:
                raise ValidationError(f"selection ({v}, {t}) outside ({num_views}, {num_steps})")
            mask[v, t] = True
        return mask


@dataclass(frozen=True)
class ShotList:
    """Non-overlapping shots partitioning [0, N).

    ``boundaries`` holds the exclusive end index of each shot; a leading 0
    is implied and the last entry equals N. Shot i spans
    [boundaries[i-1], boundaries[i]).
    """

    boundaries: tuple[int, ...]

    def __post_init__(self):
        bounds = tuple(int(b) for b in self.boundaries)
        if not bounds:
            raise ValidationError("a shot list needs at least one boundary")
        prev = 0
        for b in bounds:
            if b <= prev:
                raise ValidationError(f"boundaries must be strictly increasing from 0, got {bounds}")
            prev = b
        object.__setattr__(self, "boundaries", bounds)

    @property
    def num_steps(self) -> int:
        return self.boundaries[-1]

    @property
    def num_shots(self) -> int:
        return len(self.boundaries)

    def shot_span(self, i: int) -> tuple[int, int]:
        """Half-open [start, end) of shot ``i``."""
        start = self.boundaries[i - 1] if i > 0 else 0
        return start, self.boundaries[i]

    def shot_of(self, t: int) -> int:
        """Index of the shot containing time-step ``t``."""
        if not (0 <= t < self.num_steps):
            raise ValidationError(f"t={t} outside [0, {self.num_steps})")
        return bisect.bisect_right(self.boundaries, t)


@dataclass(frozen=True)
class SummaryBudget:
    """Summary length limit as a fraction of one view's step count."""

    fraction: float = 0.15

    def __post_init__(self):
        if not is_real(self.fraction) or not (0.0 < self.fraction <= 1.0):
            raise ConfigError(
                f"budget fraction must be a real number in (0, 1], got {self.fraction!r}"
            )

    def frame_budget(self, num_steps: int) -> int:
        return math.ceil(self.fraction * num_steps)
