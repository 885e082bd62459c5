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
    """Whether a config value is an int or numpy integer in int64, and not a bool."""
    return (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and -2**63 <= int(value) < 2**63)


def is_real(value) -> bool:
    """Whether a config value is an int, float or numpy real, and not a bool."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


def _shown(value) -> str:
    """``repr(value)`` cut to 40 characters, for a check's message."""
    try:
        text = repr(value)
    except ValueError:  # an int of more than 4300 digits
        text = f"an int of {value.bit_length()} bits"
    return text if len(text) <= 40 else text[:37] + "..."


def _bounds(low, high, above: bool) -> str:
    if high is None:
        return "" if low is None else f" {'>' if above else '>='} {low}"
    return f" in {'(' if above else '['}{low}, {high}]"


def check_int(value, name: str, low: int, high: int | None = None, error=ValidationError):
    """``value`` unchanged if it is an integer (``is_integer``) in [low,
    high], with no upper bound when ``high`` is None; otherwise ``error``."""
    if not (is_integer(value) and low <= value and (high is None or value <= high)):
        raise error(f"{name} must be an integer{_bounds(low, high, False)}, got {_shown(value)}")
    return value


def check_real(value, name: str, low, high, *, above: bool = False, finite: bool = True,
               error=ValidationError):
    """``value`` unchanged if it is a real number (``is_real``), not nan,
    and at least ``low`` (above it with ``above``) and at most ``high``,
    where None is no bound; with ``finite``, +-inf is rejected too.
    Otherwise ``error``, also for an int beyond the float range."""
    try:
        number = float(value) if is_real(value) else math.nan
    except OverflowError:
        number = math.nan
    ok = (number == number  # nan fails every comparison
          and (not finite or -math.inf < number < math.inf)
          and (low is None or (low < value if above else low <= value))
          and (high is None or value <= high))
    if not ok:
        kind = "a finite real number" if finite and high is None else "a real number"
        raise error(f"{name} must be {kind}{_bounds(low, high, above)}, got {_shown(value)}")
    return value


def check_str(value, name: str, error=ValidationError) -> str:
    """``value`` unchanged if it is a str; None, a number, a bool, a list or
    any other type raises ``error``, so an id is never read as its text."""
    if not isinstance(value, str):
        raise error(f"{name} must be a string, got {_shown(value)}")
    return value


def check_seed(seed) -> int:
    """``seed`` if it is a non-negative integer (not a bool); otherwise a
    ConfigError, where numpy's generators would raise a bare ValueError."""
    return check_int(seed, "seed", 0, error=ConfigError)


def _items(value, name: str, size: int | None = None) -> tuple:
    """``value`` as a tuple, if it is iterable and, with ``size``, has that
    many items; otherwise a ValidationError."""
    try:
        items = tuple(value)
    except TypeError:
        raise ValidationError(f"{name} must be a sequence, got {_shown(value)}") from None
    if size is not None and len(items) != size:
        raise ValidationError(f"{name} must have {size} items, got {_shown(value)}")
    return items


def _selections(pairs) -> tuple[Selection, ...]:
    """``pairs`` as (view, t) tuples of ints, each index an integer >= 0."""
    pairs = (_items(pair, "a selection", 2) for pair in _items(pairs, "selections"))
    return tuple((int(check_int(v, "selection index", 0)), int(check_int(t, "selection index", 0)))
                 for v, t in pairs)


def _check_within(selections, num_views: int, num_steps: int) -> None:
    """ValidationError unless each (view, t) of ``selections`` fits (M, N)."""
    check_int(num_views, "num_views", 1)
    check_int(num_steps, "num_steps", 1)
    for v, t in selections:
        if v >= num_views or t >= num_steps:
            raise ValidationError(f"selection ({v}, {t}) outside ({num_views}, {num_steps})")


@dataclass(frozen=True, eq=False)
class MultiViewSequence:
    """M temporally aligned views of N time-steps with D-dim features each.

    ``features`` is indexed ``[view][time][dim]`` and stored as float32,
    the native dtype of the on-disk feature format.
    """

    sequence_id: str
    features: np.ndarray
    fps_note: str = ""

    def __post_init__(self):
        check_str(self.sequence_id, "sequence_id")
        check_str(self.fps_note, "fps_note")
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
        return self.features[check_int(m, "view", 0, self.num_views - 1)]


@dataclass(frozen=True, eq=False)
class TrainingExample:
    """One sequence with its supervision targets, checked once, here.

    ``target_views`` is the binary (M, N) mask of selected (view, step)
    pairs, stored as read-only uint8; any other value (0.5, 2, -1, nan)
    is a ValidationError, not a cast. ``steps`` is the joint DPP's target:
    the sorted steps some view selects.
    """

    sequence: MultiViewSequence
    target_views: np.ndarray
    steps: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        y = np.asarray(self.target_views)
        if y.shape != (self.sequence.num_views, self.sequence.num_steps):
            raise ValidationError(
                f"target_views shape {y.shape} does not match sequence "
                f"({self.sequence.num_views}, {self.sequence.num_steps})"
            )
        if not np.isin(y, (0, 1)).all():
            raise ValidationError("target_views must be binary (0 or 1)")
        y = y.astype(np.uint8)
        y.flags.writeable = False
        object.__setattr__(self, "target_views", y)
        object.__setattr__(self, "steps", tuple(int(t) for t in np.flatnonzero(y.any(axis=0))))


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
        check_str(self.sequence_id, "sequence_id")
        check_int(self.stage, "stage", 1, 3)
        users = tuple((check_str(uid, "user_id"), _selections(sels)) for uid, sels in
                      (_items(user, "a user entry", 2) for user in _items(self.users, "users")))
        for uid, sels in users:
            if len(set(sels)) != len(sels):
                raise ValidationError(f"user {uid!r} has duplicate (view, t) selections")
        if self.stage == 1:
            views = {v for _, sels in users for v, _ in sels}
            if len(views) > 1:
                raise ValidationError(
                    f"stage-1 annotations must reference a single view, got {sorted(views)}"
                )
        object.__setattr__(self, "users", users)

    def validate_shape(self, num_views: int, num_steps: int) -> None:
        """Check every selection against a sequence's (M, N) bounds."""
        _check_within((s for _, sels in self.users for s in sels), num_views, num_steps)

    def user_selections(self) -> dict[str, set[Selection]]:
        return {uid: set(sels) for uid, sels in self.users}


@dataclass(frozen=True)
class Summary:
    """A set of (view, time-step) selections under a length budget.

    Selections are deduplicated and stored sorted by (t, view), and the
    budget fraction as a float.
    """

    selections: tuple[Selection, ...]
    budget_fraction: float = 0.15

    def __post_init__(self):
        fraction = float(check_real(self.budget_fraction, "budget_fraction", 0, 1, above=True))
        sels = sorted(set(_selections(self.selections)), key=lambda p: (p[1], p[0]))
        object.__setattr__(self, "selections", tuple(sels))
        object.__setattr__(self, "budget_fraction", fraction)

    @property
    def selection_set(self) -> set[Selection]:
        return set(self.selections)

    def validate_shape(self, num_views: int, num_steps: int) -> None:
        """Check every selection against a sequence's (M, N) bounds."""
        _check_within(self.selections, num_views, num_steps)

    def frame_mask(self, num_views: int, num_steps: int) -> np.ndarray:
        """Binary (M, N) mask of the selected frames."""
        self.validate_shape(num_views, num_steps)
        mask = np.zeros((num_views, num_steps), dtype=bool)
        for v, t in self.selections:
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
        bounds, prev = [], 0
        for b in _items(self.boundaries, "boundaries"):  # strictly increasing from 0
            prev = int(check_int(b, "boundary", prev + 1))
            bounds.append(prev)
        if not bounds:
            raise ValidationError("a shot list needs at least one boundary")
        object.__setattr__(self, "boundaries", tuple(bounds))

    @property
    def num_steps(self) -> int:
        return self.boundaries[-1]

    @property
    def num_shots(self) -> int:
        return len(self.boundaries)

    def shot_span(self, i: int) -> tuple[int, int]:
        """Half-open [start, end) of shot ``i``."""
        check_int(i, "shot index", 0, self.num_shots - 1)
        start = self.boundaries[i - 1] if i > 0 else 0
        return start, self.boundaries[i]

    def shot_of(self, t: int) -> int:
        """Index of the shot containing time-step ``t``."""
        return bisect.bisect_right(self.boundaries, check_int(t, "t", 0, self.num_steps - 1))


@dataclass(frozen=True)
class SummaryBudget:
    """Summary length limit as a fraction of one view's step count."""

    fraction: float = 0.15

    def __post_init__(self):
        check_real(self.fraction, "budget fraction", 0, 1, above=True, error=ConfigError)

    def frame_budget(self, num_steps: int) -> int:
        return math.ceil(self.fraction * check_int(num_steps, "num_steps", 1))


def check_budget(budget) -> SummaryBudget:
    """``budget`` if it is a SummaryBudget; a bare fraction is a ValidationError."""
    if not isinstance(budget, SummaryBudget):
        raise ValidationError(f"budget must be a SummaryBudget, got {_shown(budget)}")
    return budget
