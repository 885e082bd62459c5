"""Kernel temporal segmentation: change-point detection by dynamic
programming over within-segment scatter.

With a linear kernel the within-segment cost reduces to the scatter
sum ||x_i - mean||^2, which cumulative sums over the frame features make
O(D) per (start, end) query. The DP fills minimum-cost tables for every
segment count up to a cap K, then picks the number of change points m that
minimizes cost + penalty_coeff * m * (log(N / m) + 1), comparing against
the single-segment (m = 0) alternative.

The DP runs in end-major order: for each end frame it computes the scatter
of every segment ending there once and relaxes all segment counts against
it. That is N vectorized steps, O(N^2 (D + K)) time in all, and O(K N)
extra memory (one K x N block of candidate totals beside the K x N tables);
no N x N cost table is ever built.
``bruteforce.reference_dp_tables`` keeps the per-(k, end) loop it replaced,
and ``mdpp check kts`` requires the two to agree bitwise.

Segmentation for evaluation always runs on raw input features so shot
boundaries never depend on the trained model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data_model import ShotList
from .errors import ConfigError, DataError, ValidationError


def _as_features(features) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1 or x.shape[1] < 1:
        raise ValidationError(f"features must be a nonempty N x D matrix, got shape {x.shape}")
    if not np.isfinite(x).all():
        raise DataError("features contain non-finite values")
    return x


class _ScatterTable:
    """Prefix sums supporting O(D) within-segment scatter queries."""

    def __init__(self, x: np.ndarray):
        n, d = x.shape
        self.n = n
        self.sq = np.zeros(n + 1)
        self.sq[1:] = np.cumsum(np.einsum("nd,nd->n", x, x))
        self.sums = np.zeros((n + 1, d))
        self.sums[1:] = np.cumsum(x, axis=0)

    def costs_ending_at(self, b: int, starts: np.ndarray) -> np.ndarray:
        """Scatter of [start, b) for every start in ``starts`` at once."""
        diff = self.sums[b] - self.sums[starts]
        mean_part = np.einsum("jd,jd->j", diff, diff) / (b - starts)
        return np.maximum(self.sq[b] - self.sq[starts] - mean_part, 0.0)


def _dp_tables(table: _ScatterTable, max_parts: int):
    """dp[k][n] = minimum scatter splitting the first n frames into k
    segments; bp holds the matching last-segment start (the earliest on
    ties)."""
    n = table.n
    dp = np.full((max_parts + 1, n + 1), np.inf)
    bp = np.zeros((max_parts + 1, n + 1), dtype=np.int64)
    dp[0][0] = 0.0
    for end in range(1, n + 1):
        # every dp[k - 1][a] with a < end is final by now; entries with
        # a < k - 1 are inf, so they never win the argmin
        rows = min(max_parts, end)
        totals = dp[:rows, :end] + table.costs_ending_at(end, np.arange(end))
        best = np.argmin(totals, axis=1)
        bp[1 : rows + 1, end] = best
        dp[1 : rows + 1, end] = totals[np.arange(rows), best]
    return dp, bp


def _reconstruct(bp: np.ndarray, parts: int, n: int) -> tuple[int, ...]:
    cuts = []
    end = n
    for k in range(parts, 1, -1):
        end = int(bp[k][end])
        cuts.append(end)
    return tuple(reversed(cuts))


def kts_fixed_m(features, num_change_points: int) -> tuple[list[int], float]:
    """Optimal placement of exactly ``num_change_points`` boundaries."""
    x = _as_features(features)
    n = x.shape[0]
    if not (0 <= num_change_points <= n - 1):
        raise ValidationError(
            f"{num_change_points} change points do not fit in {n} frames"
        )
    table = _ScatterTable(x)
    parts = num_change_points + 1
    dp, bp = _dp_tables(table, parts)
    return list(_reconstruct(bp, parts, n)), float(dp[parts][n])


@dataclass(frozen=True)
class SegmentationResult:
    """Change points are strictly increasing interior indices in (0, N);
    the objective is the unpenalized total scatter of the chosen split."""

    change_points: tuple[int, ...]
    num_segments: int
    objective: float

    def shot_list(self, num_steps: int) -> ShotList:
        return ShotList(boundaries=(*self.change_points, num_steps))


def kts(features, max_segments: int, penalty_coeff: float = 1.0) -> SegmentationResult:
    """Segment one view's features, choosing the change-point count by the
    penalized objective. Ties prefer fewer change points."""
    x = _as_features(features)
    if max_segments < 1:
        raise ConfigError(f"max_segments must be at least 1, got {max_segments}")
    if penalty_coeff < 0:
        raise ConfigError(f"penalty_coeff must be non-negative, got {penalty_coeff}")
    n = x.shape[0]
    parts_cap = min(max_segments, n)
    table = _ScatterTable(x)
    dp, bp = _dp_tables(table, parts_cap)

    best_m, best_penalized = 0, float(dp[1][n])
    for m in range(1, parts_cap):
        penalized = float(dp[m + 1][n]) + penalty_coeff * m * (math.log(n / m) + 1.0)
        if penalized < best_penalized:
            best_m, best_penalized = m, penalized
    return SegmentationResult(
        change_points=_reconstruct(bp, best_m + 1, n),
        num_segments=best_m + 1,
        objective=float(dp[best_m + 1][n]),
    )
