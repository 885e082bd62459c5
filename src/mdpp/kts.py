"""Kernel temporal segmentation: change-point detection by dynamic
programming over within-segment scatter.

With a linear kernel the within-segment cost reduces to the scatter
sum ||x_i - mean||^2, which cumulative sums over the frame features make
O(D) per (start, end) query. The DP fills minimum-cost tables for every
segment count up to a cap K, then picks the number of change points m that
minimizes cost + penalty_coeff * m * (log(N / m) + 1), comparing against
the single-segment (m = 0) alternative.

The DP runs over blocks of ``_BLOCK`` end frames. Each block computes
the scatter of every segment ending in it as one (block x starts) array
around one matrix product, then relaxes the segment counts level by level:
level k - 1 of the block is final before level k reads it. Every level
adds into one C-contiguous scratch whose base is 64-byte aligned; a full
block's width is a multiple of 64, so each of its rows starts on a cache
line. ``kts`` relaxes only the levels whose change-point count can still
win: m change points pay at least the penalty pen(m) >= 0 on top of a
non-negative cost, so an m with pen(m) >= dp[1][N] never beats the single
segment. That cut reads dp[1][N] from the final block's own grid, the
value the table holds bit for bit, so the outputs equal the full-cap ones.
With K the levels relaxed, time is O(N^2 (D + K)) and extra memory
O(K N + _BLOCK N + N D); no N x N cost table is ever built. A cell's
round-off depends on its block, so ``bruteforce.reference_dp_tables`` keeps
the per-(k, end) loop but reads each end's costs from the same
``_ScatterTable.block_costs`` grid, and ``mdpp check kts`` requires the two
to agree bitwise and the cut to match a full-cap selection.

Segmentation for evaluation always runs on raw input features so shot
boundaries never depend on the trained model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data_model import ShotList
from .errors import ConfigError, DataError, ValidationError

_BLOCK = 64  # end frames per DP block


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

    def block_costs(self, lo: int, hi: int) -> np.ndarray:
        """Scatter of every segment [a, e) with end lo <= e < hi and start
        a < hi - 1, as a (hi - lo) x (hi - 1) array; cells with a >= e hold
        +inf. Around the block's first end (u_e = S_e - S_lo, w_a = S_lo - S_a),
        |S_e - S_a|^2 = |u_e|^2 + |w_a|^2 + 2 u_e . w_a takes one matrix
        product, and integer features keep every term exact, so ties stay exact."""
        width, rows = hi - 1, hi - lo
        u = self.sums[lo:hi] - self.sums[lo]
        w = self.sums[lo] - self.sums[:width]
        mean_part = (2.0 * u) @ w.T
        mean_part += np.einsum("ed,ed->e", u, u)[:, None]
        mean_part += np.einsum("ad,ad->a", w, w)
        # lengths e - a (clamped at 1) as a Toeplitz view of one vector
        lengths = np.maximum(np.arange(hi - 1, lo - width, -1, dtype=float), 1.0)
        mean_part /= sliding_window_view(lengths, width)[::-1]
        out = self.sq[lo:hi, None] - self.sq[:width]
        out -= mean_part
        np.maximum(out, 0.0, out=out)
        # a >= e only among the last rows - 1 starts, where a - lo >= e - lo
        out[:, lo:][~np.tri(rows, rows - 1, -1, dtype=bool)] = np.inf
        return out


def _dp_tables(table: _ScatterTable, max_parts: int, last_costs=None):
    """dp[k][n] = minimum scatter splitting the first n frames into k
    segments; bp holds the matching last-segment start (the earliest on
    ties). Cells with n < k stay inf with bp 0. ``last_costs``, if given,
    is the final block's ``block_costs``, already computed by the caller."""
    n = table.n
    dp = np.full((max_parts + 1, n + 1), np.inf)
    bp = np.zeros((max_parts + 1, n + 1), dtype=np.int64)
    dp[0][0] = 0.0
    # one scratch for every block's relaxation, its base on a 64-byte cache
    # line: 8 spare doubles absorb the allocator's 16-byte alignment
    flat = np.empty(min(_BLOCK, n) * n + 8)
    scratch = flat[-flat.ctypes.data % 64 // 8 :]
    for lo in range(1, n + 1, _BLOCK):
        hi = min(lo + _BLOCK, n + 1)
        if hi == n + 1 and last_costs is not None:
            costs = last_costs
        else:
            costs = table.block_costs(lo, hi)
        width = hi - 1
        # C-contiguous, so each row of a full block (width 64 j) starts on a
        # cache line and no 64-byte store straddles two
        totals = scratch[: costs.size].reshape(costs.shape)
        rows = np.arange(hi - lo)
        # level k - 1 of this block is final before level k reads it; inf
        # cells (a >= e, or dp[k - 1][a] unreachable) never win the argmin
        for k in range(1, min(max_parts, width) + 1):
            np.add(dp[k - 1, :width], costs, out=totals)
            best = np.argmin(totals, axis=1)
            bp[k, lo:hi] = best
            dp[k, lo:hi] = totals[rows, best]
    return dp, bp


def _single_segment(table: _ScatterTable) -> tuple[np.ndarray, float]:
    """The final DP block's ``block_costs`` and, read from that grid, the
    cost of the one segment [0, n): bitwise the table's dp[1][n]. A block
    anchored elsewhere (``block_costs(n, n + 1)``) rounds differently."""
    n = table.n
    lo = 1 + (n - 1) // _BLOCK * _BLOCK
    costs = table.block_costs(lo, n + 1)
    return costs, float(costs[n - lo, 0])


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
    penalized objective. Ties prefer fewer change points.

    Only levels 1 .. 1 + max{m < cap : pen(m) < dp[1][N]} are relaxed, with
    cap = min(max_segments, N): a larger m cannot win. The result is the
    full-cap one, and time and extra memory are O(N^2 (D + K)) and
    O(K N + 64 N + N D) with K the levels relaxed."""
    x = _as_features(features)
    if max_segments < 1:
        raise ConfigError(f"max_segments must be at least 1, got {max_segments}")
    if not (penalty_coeff >= 0 and math.isfinite(penalty_coeff)):
        raise ConfigError(f"penalty_coeff must be finite and non-negative, got {penalty_coeff}")
    n = x.shape[0]
    parts_cap = min(max_segments, n)
    table = _ScatterTable(x)
    last_costs, single = _single_segment(table)
    penalties = [0.0] + [penalty_coeff * m * (math.log(n / m) + 1.0) for m in range(1, parts_cap)]
    # the table is non-negative, so m's penalized value is at least
    # penalties[m]; once that reaches dp[1][n], m cannot win
    parts = 1 + max((m for m in range(1, parts_cap) if penalties[m] < single), default=0)
    dp, bp = _dp_tables(table, parts, last_costs)

    best_m, best_penalized = 0, float(dp[1][n])
    for m in range(1, parts):
        penalized = float(dp[m + 1][n]) + penalties[m]
        if penalized < best_penalized:
            best_m, best_penalized = m, penalized
    return SegmentationResult(
        change_points=_reconstruct(bp, best_m + 1, n),
        num_segments=best_m + 1,
        objective=float(dp[best_m + 1][n]),
    )
