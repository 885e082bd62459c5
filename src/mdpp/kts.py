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
around one matrix product, whose operands carry the two squared norms as
extra columns, so the product already holds the whole |S_e - S_a|^2. The
energy term sq[e] - sq[a] is a second, rank-2 product [sq, 1] . [1, -sq]^T
of two arrays the table builds once: both of a cell's products are exact
(x * 1), so the cell is their sum rounded once, in either order, which is
bitwise numpy's broadcast subtract at any BLAS thread count, and several
times faster. The segment lengths and the a >= e mask are slices of two
Toeplitz views the table builds once per view. The block then relaxes the
segment counts level by level: level k - 1 of the block is final before
level k reads it. Level 1 is read off the block's column 0 (dp[0] is
finite only at 0); every other level copies the dp row into one
C-contiguous scratch whose base is 64-byte aligned (the block's matrix
product is computed there too) and adds the block to it; a full block's
width is a multiple of 64, so each of its rows starts on a cache line.

``kts`` relaxes only the levels whose change-point count can still win,
and its result is the full-cap one: a level's cells read only the level
below and the cost blocks, so every level relaxed holds the bits a full-cap
run holds, and a level that is cut cannot hold the winner. Two bounds cut:

- m change points pay pen(m) >= 0 on top of a non-negative cost, so an m
  with pen(m) >= dp[1][N] never beats the single segment. That leaves K15
  levels, and reads dp[1][N] from the final block's own grid, the value
  the table holds bit for bit.
- When K15 > _FIRST_LEVELS + _ROW_COST_LEVELS, the penalty is positive and
  ``_row_pays``, the first sweep runs, on its cost blocks, the
  linear-penalty row F[0] = -beta, F[e] = min_a (F[a] + beta) + c(a, e),
  beta the least increment pen(m) - pen(m - 1) over m < K15. G = F[N] =
  min_j (dp[j][N] + beta (j - 1)) <= dp[m + 1][N] + beta m for every m and
  any beta >= 0, so with dp >= 0 m's penalized value is at least
  max(0, G - beta m) + pen(m). m can win only if that is at most
  U + margin, U the least penalized value known: the relaxed levels', and
  the row's own segmentation's (its summed costs plus pen) when it has
  fewer than cap change points. A second sweep relaxes the levels above
  the first sweep's that the bound keeps. Since pen's increments are at
  least beta, the bound grows with m, and it meets the winner where the
  row's segmentation is the winner (on 48 planted-event views at N = 600
  it kept exactly the winner's segment count). Up to N = _KEEP_MAX_N the
  first sweep writes each cost block once into one kept buffer and
  relaxes only level 1 beside the row, and the second sweep reads the
  kept blocks. Longer views would keep O(N^2) cells, so their first sweep
  relaxes _FIRST_LEVELS levels, and their second sweep computes the cost
  blocks, which are deterministic, again. ``kts`` fixes the plan
  (``_plan``: the row or not, and whether its blocks are kept) before
  sweeping.

The margin bounds summation round-off. Every dp cell, F value and
penalized value is a sum of non-negative float terms taken left to right
along a back-pointer path, so with u = 2^-53 a path of j segments is within
a factor (1 +- u)^(2j) of the exact sum of its float costs, and j <= N.
Hence G is at most (1 + u)^(2N) times the exact linear-penalty optimum,
dp[m + 1][N] at least (1 - u)^(m + 1) times the exact dp, and the row's
candidate value within (1 + u)^(2N + 5) of the exact one. Collected, the
computed bound exceeds the computed penalized value of a winning m by less
than (2N + 8) u U + 3 N u G + 3 u (G + beta m + pen(m)). The margin,
4 (N + 1) eps (G + U + pen(K15 - 1)) with eps = 2^-52, is twice that; at
N = 2000 it is 2e-12 of the scale, so it keeps no level in practice.

With K the levels relaxed, time is O(N^2 (D + K)): the row costs about one
level plus in-block passes of at most _BLOCK^2 cells each, and past
_KEEP_MAX_N a second sweep computes the O(N^2 D) cost blocks once more.
Extra memory is O(K N + _BLOCK N + N D): the dp and bp tables hold the K
levels relaxed, grown before a second sweep; the kept blocks, about N^2 / 2
cells, are at most 5.5 blocks of _BLOCK x N, since only views up to
_KEEP_MAX_N = 10 _BLOCK keep them; and no N x N cost table is ever built.
A cell's round-off depends on its block, so
``bruteforce.reference_dp_tables`` keeps the per-(k, end) loop but reads
each end's costs from the same ``_ScatterTable.block_costs`` grid, and
``mdpp check kts`` requires the two to agree bitwise, the cuts to match a
full-cap selection, and every block to have the bits of
``bruteforce.reference_block_costs``, the broadcast form.

Segmentation for evaluation always runs on raw input features so shot
boundaries never depend on the trained model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .data_model import ShotList, check_int, check_real
from .errors import ConfigError, DataError, ValidationError

_BLOCK = 64  # end frames per DP block
# levels kts relaxes before the linear-penalty bound decides on the rest
_FIRST_LEVELS = 8
# the bound's row costs about as much as 2 (N = 2000) to 5 (N = 300) levels,
# so it runs only when the levels it may save outnumber that
_ROW_COST_LEVELS = 4
# the longest view whose cost blocks the plan with the row keeps for its
# second sweep: at N = 640 they are 5.5 blocks of 64 x N (about N^2 / 2
# cells), so with the relaxation scratch a call holds under 8 such blocks
_KEEP_MAX_N = 10 * _BLOCK
_EPS = float(np.finfo(np.float64).eps)


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
        with np.errstate(over="ignore"):  # an overflow is caught below
            self.sq[1:] = np.cumsum(np.einsum("nd,nd->n", x, x))
        # every partial sum of a cost block's product is at most 4 N sq[N]
        # (Cauchy-Schwarz), so past that a block would hold inf - inf
        if not self.sq[n] <= np.finfo(np.float64).max / (4 * n):
            raise DataError(
                "features too large: 4 N times their total squared norm passes the float64 range"
            )
        self.sums = np.zeros((n + 1, d))
        self.sums[1:] = np.cumsum(x, axis=0)
        # the energy difference sq[e] - sq[a] is [sq, 1][e] . [1, -sq][:, a]
        self.energy_ends = np.stack((self.sq, np.ones(n + 1)), axis=1)
        self.energy_starts = np.stack((np.ones(n), -self.sq[:n]))
        # (N + 1) x N Toeplitz views over one 2N vector each, indexed [e, a]:
        # the length max(e - a, 1) and whether a >= e
        steps = np.arange(n, -n, -1)
        self.lengths = sliding_window_view(np.maximum(steps, 1.0), n)[::-1]
        self.past_end = sliding_window_view(steps <= 0, n)[::-1]

    def block_costs(self, lo: int, hi: int, out=None, scratch=None) -> np.ndarray:
        """Scatter of every segment [a, e) with end lo <= e < hi and start
        a < hi - 1, as a (hi - lo) x (hi - 1) array; cells with a >= e hold
        +inf. Around the block's first end (u_e = S_e - S_lo, w_a = S_lo - S_a),
        |S_e - S_a|^2 = 2 u_e . w_a + |u_e|^2 + |w_a|^2 is one matrix product
        [2u, |u|^2, 1] . [w, 1, |w|^2]^T. A gemm that sums each dot product in
        k order adds the norm terms last, as two separate additions would;
        OpenBLAS does while D + 2 fits its K panel (a few hundred columns),
        past that they join a partial sum. The lengths and the a >= e mask
        are slices of the table's views. The energy sq[e] - sq[a] is the
        rank-2 product [sq_e, 1] . [1, -sq_a], whose two products are exact,
        so it is rounded once, as a subtraction would round it. On integer
        features the product's terms are exact, but the cost is rounded
        twice more, by the division by the length and by the subtraction
        from the energy, so segments of equal exact scatter can get
        different floats. ``out`` receives the costs and ``scratch`` the
        product, when given: C-contiguous arrays of the block's shape, which
        leave every bit as fresh ones would."""
        width, d = hi - 1, self.sums.shape[1]
        u = np.empty((hi - lo, d + 2))
        np.subtract(self.sums[lo:hi], self.sums[lo], out=u[:, :d])
        u[:, d] = np.einsum("ed,ed->e", u[:, :d], u[:, :d])
        u[:, :d] *= 2.0
        u[:, d + 1] = 1.0
        w = np.empty((width, d + 2))
        np.subtract(self.sums[lo], self.sums[:width], out=w[:, :d])
        w[:, d] = 1.0
        w[:, d + 1] = np.einsum("ad,ad->a", w[:, :d], w[:, :d])
        mean_part = np.matmul(u, w.T, out=scratch)
        mean_part /= self.lengths[lo:hi, :width]
        out = np.matmul(self.energy_ends[lo:hi], self.energy_starts[:, :width], out=out)
        out -= mean_part
        np.maximum(out, 0.0, out=out)
        np.copyto(out[:, lo:], np.inf, where=self.past_end[lo:hi, lo:width])
        return out


def _cells_before(lo: int) -> int:
    """Cells of the cost blocks that end before ``lo`` (1 modulo _BLOCK):
    the block at lo' is _BLOCK x (lo' + _BLOCK - 1)."""
    return (lo - 1) * (lo - 1 + _BLOCK) // 2


def _final_lo(n: int) -> int:
    return 1 + (n - 1) // _BLOCK * _BLOCK


class _CostBlocks:
    """One view's cost blocks, in end order, for the sweeps of one plan.
    Each block comes with its relaxation scratch: the first cells of one
    flat buffer whose base is on a 64-byte cache line (8 spare doubles
    absorb the allocator's 16-byte alignment), in the block's shape, so
    C-contiguous; a full block's width is a multiple of 64, so each of its
    rows starts on a cache line and no 64-byte store straddles two.
    ``block_costs`` computes its product in that scratch too. The final
    block is ``last_costs``, from ``_single_segment``. With ``keep``, every
    other block is written once, back to back, into one buffer that later
    sweeps read; without, each sweep computes it again."""

    def __init__(self, table: _ScatterTable, last_costs: np.ndarray, keep: bool = False):
        n = table.n
        self.table, self.last_costs = table, last_costs
        flat = np.empty(min(_BLOCK, n) * n + 8)
        self.scratch = flat[-flat.ctypes.data % 64 // 8 :]
        self.kept = np.empty(_cells_before(_final_lo(n))) if keep else None
        self.filled = 0  # cells of ``kept`` written

    def __iter__(self):
        """(lo, costs, totals) per block: its first end, its (hi - lo, hi - 1)
        costs and the scratch in that shape."""
        n = self.table.n
        for lo in range(1, n + 1, _BLOCK):
            hi = min(lo + _BLOCK, n + 1)
            shape = (hi - lo, hi - 1)
            totals = self.scratch[: shape[0] * shape[1]].reshape(shape)
            if hi == n + 1:
                costs = self.last_costs
            elif self.kept is None:
                costs = self.table.block_costs(lo, hi, scratch=totals)
            else:
                start = _cells_before(lo)
                costs = self.kept[start : start + totals.size].reshape(shape)
                if self.filled < start + totals.size:
                    self.table.block_costs(lo, hi, out=costs, scratch=totals)
                    self.filled = start + totals.size
            yield lo, costs, totals


def _empty_tables(n: int, max_parts: int):
    dp = np.full((max_parts + 1, n + 1), np.inf)
    bp = np.zeros((max_parts + 1, n + 1), dtype=np.int64)
    dp[0][0] = 0.0
    return dp, bp


def _relax(dp, bp, levels: range, blocks: _CostBlocks, row=None):
    """Fill the consecutive dp and bp levels ``levels`` (the level below
    the first is final) block by block, and ``row``, if given, on the same
    cost blocks. A level's cells depend only on the level below and the
    deterministic cost blocks, so splitting the levels over sweeps leaves
    every bit as one sweep would."""
    for lo, costs, totals in blocks:
        _relax_block(dp, bp, levels, lo, costs, totals)
        if row is not None:
            row.relax(lo, lo + len(costs), costs, totals)


def _relax_block(dp, bp, levels: range, lo: int, costs, totals) -> None:
    """Relax ``levels`` over the ends lo <= e < hi of one block's (hi - lo,
    hi - 1) ``costs``. Level k - 1 of the block is final before level k
    reads it; inf cells (a >= e, or dp[k - 1][a] unreachable) never win the
    argmin; no level above the block's width reaches its ends. Level 1 has
    one finite start, 0, so it is column 0 plus dp[0][0], the sum the
    argmin would pick (a -0.0 cost becomes +0.0), with bp left at 0."""
    count, width = costs.shape
    hi, rows = lo + count, np.arange(count)
    if levels and levels.start == 1:
        np.add(costs[:, 0], dp[0, 0], out=dp[1, lo:hi])
        levels = levels[1:]
    for k in levels[: max(0, width - levels.start + 1)]:
        # copy, then add: the same sums, without numpy's slow broadcast loop
        np.copyto(totals, dp[k - 1, :width])
        np.add(totals, costs, out=totals)
        best = totals.argmin(axis=1)
        bp[k, lo:hi] = best
        dp[k, lo:hi] = totals[rows, best]


class _LinearPenaltyRow:
    """The linear-penalty DP F[0] = -beta, F[e] = min_a (F[a] + beta) +
    c(a, e) over every segment count: F[N] = min_j (dp[j][N] + beta (j - 1)),
    so F[N] <= dp[m + 1][N] + beta m for every m. It runs on ``_relax``'s
    cost blocks. Starts inside a block are settled by whole-block passes of
    the in-block relaxation until no end improves. ``start`` and ``cost``
    hold each end's last segment, so the row's own segmentation can be read
    back."""

    def __init__(self, n: int, beta: float):
        self.beta = beta
        self.total = math.nan  # G = F[N], set by the last block
        self.shifted = np.full(n + 1, np.inf)  # F + beta, inf until settled
        self.shifted[0] = 0.0
        self.start = np.zeros(n + 1, dtype=np.int64)
        self.cost = np.zeros(n + 1)

    def relax(self, lo: int, hi: int, costs: np.ndarray, totals: np.ndarray) -> None:
        # starts before the block are settled: sum into the shared scratch
        np.copyto(totals, self.shifted[: hi - 1])
        np.add(totals, costs, out=totals)
        start, rows = totals.argmin(axis=1), np.arange(hi - lo)
        value = totals[rows, start]
        self.shifted[lo:hi] = value + self.beta
        self._settle_in_block(lo, hi, costs, value, start)
        if hi == len(self.start):
            self.total = float(value[-1])
        self.start[lo:hi] = start
        self.cost[lo:hi] = costs[rows, start]

    def _settle_in_block(self, lo, hi, costs, value, start) -> None:
        """Relax the block's ends ``value`` / ``start`` from the starts
        inside it, lo <= a < hi - 1, in whole-block passes until no end
        improves. Ends up to the first one that improved are final, so the
        next pass reads only the ends after it and the starts from it on."""
        width = hi - 1
        first = 0
        while first < width - lo:
            candidates = self.shifted[lo + first : width] + costs[first + 1 :, lo + first :]
            j = candidates.argmin(axis=1)
            best = candidates[np.arange(len(j)), j]
            better = best < value[first + 1 :]
            if not better.any():
                return
            value[first + 1 :][better] = best[better]
            start[first + 1 :][better] = lo + first + j[better]
            self.shifted[lo:hi] = value + self.beta
            first += 1 + int(np.argmax(better))

    def segmentation(self) -> tuple[int, float]:
        """Change points and summed scatter of the row's segmentation."""
        end, change_points, total = len(self.start) - 1, -1, 0.0
        while end > 0:
            total += float(self.cost[end])
            end = int(self.start[end])
            change_points += 1
        return change_points, total


def _row_pays(x: np.ndarray, beta: float, cap: int) -> bool:
    """Whether the linear-penalty row rides along, decided before any sweep:
    not if a view longer than one block has more of its first 63 two-frame
    segments [a, a + 2) costing above beta than their share of ``cap``
    (cap * 63 / N). The row would then split frames more often than the cap
    allows and its bound cut little, so one sweep of every level is cheaper.
    Each cost is 0.5 |x[a + 1] - x[a]|^2; it only picks between exact paths."""
    n, steps = x.shape[0], np.diff(x[:_BLOCK], axis=0)
    pairs = 0.5 * np.einsum("ad,ad->a", steps, steps)
    return n <= _BLOCK or int(np.count_nonzero(pairs > beta)) * n <= cap * len(pairs)


def _plan(x: np.ndarray, penalties, cap: int, penalty_coeff: float):
    """``kts``'s sweep plan for the K15 = len(penalties) levels left: the
    linear-penalty row, or None for one sweep of every level, and whether
    the row's sweeps keep the cost blocks. The row runs when more than
    _FIRST_LEVELS + _ROW_COST_LEVELS levels are left, the penalty is
    positive and ``_row_pays``; its first sweep relaxes level 1 when the
    blocks are kept (N <= _KEEP_MAX_N), else _FIRST_LEVELS levels."""
    k15 = len(penalties)
    if k15 <= _FIRST_LEVELS + _ROW_COST_LEVELS or penalty_coeff == 0:
        return None, False
    beta = min(b - a for a, b in zip(penalties, penalties[1:]))
    if not _row_pays(x, beta, cap):
        return None, False
    return _LinearPenaltyRow(x.shape[0], beta), x.shape[0] <= _KEEP_MAX_N


def _single_segment(table: _ScatterTable) -> tuple[np.ndarray, float]:
    """The final DP block's ``block_costs`` and, read from that grid, the
    cost of the one segment [0, n): bitwise the table's dp[1][n]. A block
    anchored elsewhere (``block_costs(n, n + 1)``) rounds differently."""
    n = table.n
    lo = _final_lo(n)
    costs = table.block_costs(lo, n + 1)
    return costs, float(costs[n - lo, 0])


def _reconstruct(bp: np.ndarray, parts: int, n: int) -> tuple[int, ...]:
    cuts = []
    end = n
    for k in range(parts, 1, -1):
        end = int(bp[k][end])
        cuts.append(end)
    return tuple(reversed(cuts))


@dataclass(frozen=True)
class SegmentationResult:
    """Change points are strictly increasing interior indices in (0, N);
    the objective is the unpenalized total scatter of the chosen split.
    ``levels_relaxed`` counts the DP levels filled to choose it; it is a
    cost, not part of the result, so equality ignores it."""

    change_points: tuple[int, ...]
    objective: float
    levels_relaxed: int = field(default=0, compare=False)

    @property
    def num_segments(self) -> int:
        return len(self.change_points) + 1

    def shot_list(self, num_steps: int) -> ShotList:
        return ShotList(boundaries=(*self.change_points, num_steps))


def _penalty(penalty_coeff: float, n: int, m: int) -> float:
    """pen(m) = penalty_coeff * m * (log(N / m) + 1), and pen(0) = 0."""
    return penalty_coeff * m * (math.log(n / m) + 1.0) if m else 0.0


def kts(features, max_segments: int, penalty_coeff: float = 1.0) -> SegmentationResult:
    """Segment one view's features, choosing the change-point count by the
    penalized objective. Ties prefer fewer change points.

    With cap = min(max_segments, N), only the levels whose change-point
    count can still win are relaxed (see the module docstring): those with
    pen(m) < dp[1][N], and, when the linear-penalty bound runs, those with
    max(0, G - beta m) + pen(m) <= U + margin. The result is the full-cap
    one, and its ``levels_relaxed`` counts the levels filled: one sweep's,
    or the first sweep's (1 with kept cost blocks, else _FIRST_LEVELS) and
    then the bound's, if more."""
    x = _as_features(features)
    check_int(max_segments, "max_segments", 1, error=ConfigError)
    check_real(penalty_coeff, "penalty_coeff", 0, None, error=ConfigError)
    n = x.shape[0]
    parts_cap = min(max_segments, n)
    table = _ScatterTable(x)
    last_costs, single = _single_segment(table)
    penalties = [_penalty(penalty_coeff, n, m) for m in range(parts_cap)]
    # the table is non-negative, so m's penalized value is at least
    # penalties[m]; once that reaches dp[1][n], m cannot win
    parts = 1 + max((m for m in range(1, parts_cap) if penalties[m] < single), default=0)
    row, keep = _plan(x, penalties[:parts], parts_cap, penalty_coeff)
    blocks = _CostBlocks(table, last_costs, keep)
    relaxed = parts if row is None else 1 if keep else _FIRST_LEVELS
    # the tables hold the levels the plan relaxes, not the cap's
    dp, bp = _empty_tables(n, relaxed)
    _relax(dp, bp, range(1, relaxed + 1), blocks, row)
    if row is not None:
        upper = float(np.min(dp[1 : relaxed + 1, n] + penalties[:relaxed]))
        kept = _levels_that_can_win(row, parts_cap, penalties[:parts], upper, penalty_coeff)
        if kept > relaxed:
            grown_dp, grown_bp = _empty_tables(n, kept)
            grown_dp[: relaxed + 1], grown_bp[: relaxed + 1] = dp, bp
            dp, bp = grown_dp, grown_bp
            _relax(dp, bp, range(relaxed + 1, kept + 1), blocks)
            relaxed = kept
    # the penalized values' first minimum: the fewest change points
    best_m = int(np.argmin(dp[1 : relaxed + 1, n] + penalties[:relaxed]))
    return SegmentationResult(
        change_points=_reconstruct(bp, best_m + 1, n),
        objective=float(dp[best_m + 1][n]),
        levels_relaxed=relaxed,
    )


def _levels_that_can_win(row: _LinearPenaltyRow, cap: int, penalties, upper: float,
                         penalty_coeff: float) -> int:
    """1 + the largest m < len(penalties) whose lower bound max(0, G - beta
    m) + pen(m) stays within ``upper`` + margin, after ``upper`` takes the
    row's own segmentation when that is a candidate (fewer than ``cap``
    change points)."""
    n = len(row.start) - 1
    g = row.total
    m_row, cost = row.segmentation()
    if m_row < cap:
        upper = min(upper, cost + _penalty(penalty_coeff, n, m_row))
    margin = 4 * (n + 1) * _EPS * (g + upper + penalties[-1])
    return 1 + max((m for m, pen in enumerate(penalties)
                    if max(0.0, g - row.beta * m) + pen <= upper + margin), default=0)
