"""Exhaustive-enumeration oracles for the fast paths.

Everything here recomputes results the slow, obviously-correct way:
determinant sums over the full power set, exhaustive MAP, exhaustive
segmentations, and exhaustive knapsacks, plus the primal N x N likelihood
formulas that the dual-form fast path in ``dpp`` must reproduce, the
from-scratch greedy MAP that its incremental Cholesky must match pick for
pick, the per-(k, end) KTS loop that the blocked DP in ``kts`` must
reproduce bitwise, the broadcast cost block whose bytes its rank-2 energy
product must reproduce, the full-cap KTS choice that its level cut must
match, and the per-pair tolerant-F1 loop that the one-pass sweep in
``evaluation`` must reproduce bitwise. Only this module builds an N x N
kernel (``kernel_matrix``, and L = B^T B in the greedy MAP oracles). The
`check` CLI subcommand drives these against the production implementations.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np

from . import dpp, encoder, evaluation, synth
from .data_model import MultiViewSequence, TrainingExample, is_integer
from .dpp import DppKernel
from .errors import ConfigError, NumericError, ValidationError
from .kts import _BLOCK, _as_features, _ScatterTable


def param_count(input_dim: int, hidden_size: int, output_dim: int) -> int:
    """Closed-form trainable parameter count of ``encoder.init_params``'s
    model; independent of M and N."""
    d, h, dp = input_dim, hidden_size, output_dim
    s = d + 2 * h
    lstm = 2 * (4 * h * d + 4 * h * h + 4 * h)
    feature_head = h * s + h + dp * h + dp
    quality_head = h * s + h + 1 * h + 1
    return lstm + feature_head + quality_head


def all_subsets(n: int):
    for size in range(n + 1):
        yield from itertools.combinations(range(n), size)


def kernel_matrix(kernel: DppKernel) -> np.ndarray:
    """The induced (N, N) kernel L = diag(q) Phi^T Phi diag(q) of a DppKernel."""
    factor = kernel.phi * kernel.q
    return factor.T @ factor


def subset_det(mat: np.ndarray, subset) -> float:
    idx = list(subset)
    if not idx:
        return 1.0
    return float(np.linalg.det(mat[np.ix_(idx, idx)]))


def powerset_det_sum(kernel: DppKernel) -> float:
    """Sum of det(L_y) over every subset y; equals det(L + I)."""
    mat = kernel_matrix(kernel)
    return sum(subset_det(mat, s) for s in all_subsets(kernel.ground_size))


def normalizer_logdet(kernel: DppKernel) -> float:
    """logdet(L + I) of the N x N primal kernel, the log partition function."""
    mat = kernel_matrix(kernel)
    mat[np.diag_indices_from(mat)] += 1.0
    return float(np.linalg.slogdet(mat)[1])


def primal_log_prob(kernel: DppKernel, subset) -> float:
    """log P(y) = logdet(L_y) - logdet(L + I) from the N x N kernel; -inf
    when det(L_y) is not positive."""
    idx = _sorted_subset(subset)
    sign, sub_logdet = np.linalg.slogdet(kernel_matrix(kernel)[np.ix_(idx, idx)])
    if sign <= 0.0:
        return float("-inf")
    return float(sub_logdet) - normalizer_logdet(kernel)


def logprob_grad_L(kernel: DppKernel, subset) -> np.ndarray:
    """Gradient of log P(y) with respect to the kernel matrix L.

    Equals (L_y)^{-1} scattered into the subset's rows/columns, minus
    (L + I)^{-1}; symmetric by construction.
    """
    idx = _sorted_subset(subset)
    mat = kernel_matrix(kernel)
    n = kernel.ground_size
    grad = np.zeros((n, n))
    if idx.size:
        sub = mat[np.ix_(idx, idx)]
        try:
            sub_inv = np.linalg.inv(sub)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"L_y is singular for subset {idx.tolist()}") from exc
        if not np.isfinite(sub_inv).all():
            raise NumericError(f"L_y is numerically singular for subset {idx.tolist()}")
        grad[np.ix_(idx, idx)] = sub_inv
    mat[np.diag_indices_from(mat)] += 1.0
    grad -= np.linalg.inv(mat)
    return 0.5 * (grad + grad.T)


def kernel_grads_from_L(kernel: DppKernel, grad_L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chain a symmetric dLoss/dL back to (dLoss/dphi, dLoss/dq).

    Uses L = A^T A with A = phi diag(q): dLoss/dA = 2 A G, then splits A
    into its phi and q factors.
    """
    scaled = kernel.phi * kernel.q
    grad_a = 2.0 * scaled @ grad_L
    grad_phi = grad_a * kernel.q
    grad_q = np.einsum("dn,dn->n", kernel.phi, grad_a)
    return grad_phi, grad_q


def _sorted_subset(subset) -> np.ndarray:
    return np.asarray(sorted(set(int(i) for i in subset)), dtype=np.intp)


def exhaustive_map(factor):
    """The subset maximizing det(L_y) for L = B^T B of a (D', N) factor B;
    ties go to the first enumerated (smaller, then lexicographically
    earlier) subset. Takes what ``greedy_map`` takes."""
    mat = factor.T @ factor
    best, best_det = (), 1.0
    for subset in all_subsets(mat.shape[0]):
        d = subset_det(mat, subset)
        if d > best_det:
            best, best_det = subset, d
    return list(best)


def reference_greedy_map(factor, max_size: int | None = None, fill: bool = False):
    """``dpp.greedy_map`` with every trial subset's determinant recomputed
    from scratch: the gain of item j is logdet(L_{y+j}) - logdet(L_y), item
    j is singular when det(L_{y+j}) / det(L_y) <= 1e-10 L_jj, and ties
    within 1e-12 go to the smallest index. Takes what ``greedy_map`` takes,
    a (D', N) factor B, and builds L = B^T B."""
    mat = factor.T @ factor
    n = mat.shape[0]
    max_size = n if max_size is None else max_size
    selected: list[int] = []
    current = 0.0
    while len(selected) < max_size:
        logdets = np.full(n, -np.inf)
        for j in set(range(n)) - set(selected):
            trial = selected + [j]
            sign, logdet = np.linalg.slogdet(mat[np.ix_(trial, trial)])
            if sign * math.exp(logdet - current) > dpp._SINGULAR_TOL * mat[j, j]:
                logdets[j] = logdet
        gains = logdets - current
        best = gains.max()
        if best == -np.inf or (best < 0.0 and not fill):
            break
        j = int(np.flatnonzero(gains >= best - dpp._GAIN_TIE_TOL)[0])
        selected.append(j)
        current = logdets[j]
    return selected


def exhaustive_knapsack(lengths, scores, budget: int):
    """Max-score shot set with total length <= budget, its score summed
    exactly as ``Fraction``s. Among optima, prefers the lexicographically
    smallest index tuple (the production tie-break). Visits every subset
    that fits, each extending a smaller one by one index, so each costs one
    exact addition."""
    values = [Fraction(v) for v in scores]
    best = None

    def visit(subset, length, value, start):
        nonlocal best
        if best is None or value > best[0] or (value == best[0] and subset < best[1]):
            best = (value, subset)
        for i in range(start, len(values)):
            if length + lengths[i] <= budget:
                visit(subset + (i,), length + lengths[i], value + values[i], i + 1)

    if budget >= 0:
        visit((), 0, Fraction(0), 0)
    return list(best[1]) if best is not None else []


def segment_cost(features, a: int, b: int) -> float:
    """Within-segment scatter of frames [a, b) under a linear kernel."""
    x = _as_features(features)
    if not (0 <= a < b <= x.shape[0]):
        raise ValidationError(f"segment [{a}, {b}) is empty or out of range for N={x.shape[0]}")
    return _direct_scatter(x[a:b])


def _direct_scatter(seg: np.ndarray) -> float:
    centred = seg - seg.sum(axis=0) / len(seg)
    return float(np.vdot(centred, centred))


def exhaustive_segmentation(features: np.ndarray, num_change_points: int):
    """Minimum total within-segment scatter over all placements of exactly
    ``num_change_points`` interior boundaries."""
    n = features.shape[0]
    best_cost, best_cps = math.inf, None
    for cps in itertools.combinations(range(1, n), num_change_points):
        bounds = [0, *cps, n]
        cost = sum(segment_cost(features, a, b) for a, b in zip(bounds, bounds[1:]))
        if cost < best_cost - 1e-15:
            best_cost, best_cps = cost, list(cps)
    return best_cps, best_cost


def dp_tables(table, max_parts: int):
    """dp[k][n] = minimum scatter splitting the first n frames into k
    segments; bp holds the matching last-segment start (the earliest on
    ties). Cells with n < k stay inf with bp 0. ``kts``'s blocked sweep over
    every level, which ``kts`` itself cuts short."""
    from .kts import _CostBlocks, _empty_tables, _relax, _single_segment

    dp, bp = _empty_tables(table.n, max_parts)
    _relax(dp, bp, range(1, max_parts + 1), _CostBlocks(table, _single_segment(table)[0]))
    return dp, bp


def kts_fixed_m(features, num_change_points: int) -> tuple[list[int], float]:
    """Optimal placement of exactly ``num_change_points`` boundaries."""
    from .kts import _reconstruct

    x = _as_features(features)
    if not is_integer(num_change_points):
        raise ConfigError(f"num_change_points must be an integer, got {num_change_points!r}")
    n = x.shape[0]
    if not (0 <= num_change_points <= n - 1):
        raise ValidationError(
            f"{num_change_points} change points do not fit in {n} frames"
        )
    table = _ScatterTable(x)
    parts = num_change_points + 1
    dp, bp = dp_tables(table, parts)
    return list(_reconstruct(bp, parts, n)), float(dp[parts][n])


def reference_block_costs(table, lo: int, hi: int) -> np.ndarray:
    """``_ScatterTable.block_costs(lo, hi)`` with the energy difference
    sq[e] - sq[a] as numpy's broadcast subtract of the prefix energies,
    which rounds it once, as the fast block's rank-2 product must: the same
    bits, cell for cell."""
    width, d = hi - 1, table.sums.shape[1]
    u = np.empty((hi - lo, d + 2))
    np.subtract(table.sums[lo:hi], table.sums[lo], out=u[:, :d])
    u[:, d] = np.einsum("ed,ed->e", u[:, :d], u[:, :d])
    u[:, :d] *= 2.0
    u[:, d + 1] = 1.0
    w = np.empty((width, d + 2))
    np.subtract(table.sums[lo], table.sums[:width], out=w[:, :d])
    w[:, d] = 1.0
    w[:, d + 1] = np.einsum("ad,ad->a", w[:, :d], w[:, :d])
    mean_part = u @ w.T
    mean_part /= table.lengths[lo:hi, :width]
    out = table.sq[lo:hi, None] - table.sq[:width]
    out -= mean_part
    np.maximum(out, 0.0, out=out)
    out[:, lo:][table.past_end[lo:hi, lo:width]] = np.inf
    return out


def reference_dp_tables(table, max_parts: int):
    """The KTS tables of ``dp_tables`` filled one (k, end) cell at a
    time, each from the scatter of every segment [start, end) with
    start >= k - 1. Each end's costs are its row of the same
    ``block_costs(lo, hi)`` grid the fast path reads, since a cell's
    round-off depends on the block that computed it."""
    n = table.n
    dp = np.full((max_parts + 1, n + 1), np.inf)
    bp = np.zeros((max_parts + 1, n + 1), dtype=np.int64)
    dp[0][0] = 0.0
    costs = [None]
    for lo in range(1, n + 1, _BLOCK):
        costs.extend(table.block_costs(lo, min(lo + _BLOCK, n + 1)))
    for k in range(1, max_parts + 1):
        for end in range(k, n + 1):
            starts = np.arange(k - 1, end)
            totals = dp[k - 1][starts] + costs[end][starts]
            j = int(np.argmin(totals))
            dp[k][end] = totals[j]
            bp[k][end] = starts[j]
    return dp, bp


def reference_linear_penalty(table, beta: float) -> float:
    """G = F[N] of ``kts._LinearPenaltyRow``, one end at a time: F[0] =
    -beta, F[e] = min_a (F[a] + beta) + c(a, e), with each end's costs read
    from the same ``block_costs`` grid and the same float operations, so
    the fast row's converged in-block passes must give the same bits."""
    shifted = np.zeros(1)  # F + beta; F[0] + beta = 0 exactly
    total = -beta
    for lo in range(1, table.n + 1, _BLOCK):
        for row in table.block_costs(lo, min(lo + _BLOCK, table.n + 1)):
            total = float(np.min(shifted + row[: len(shifted)]))
            shifted = np.append(shifted, total + beta)
    return total


def reference_kts(tables, max_segments: int, penalty_coeff: float):
    """``kts`` without the level cut: the penalized choice among every
    change-point count below cap = min(max_segments, N), read off the
    tables ``(dp, bp)`` of ``reference_dp_tables`` for N frames and a cap
    of at least that."""
    from .kts import SegmentationResult, _reconstruct

    dp, bp = tables
    n = dp.shape[1] - 1
    best_m, best_penalized = 0, float(dp[1][n])
    for m in range(1, min(max_segments, n)):
        penalized = float(dp[m + 1][n]) + penalty_coeff * m * (math.log(n / m) + 1.0)
        if penalized < best_penalized:
            best_m, best_penalized = m, penalized
    return SegmentationResult(
        change_points=_reconstruct(bp, best_m + 1, n),
        objective=float(dp[best_m + 1][n]),
        levels_relaxed=min(max_segments, n),
    )


def reference_lstm_forward(x, wx, wh, b):
    """One direction of ``encoder._lstm_forward``, one step at a time: two
    GEMMs, three exp-form sigmoids and a concatenate per step, batch-major
    (M, N, ...) caches."""
    m, n, _ = x.shape
    h_size = wh.shape[1]
    gates = np.empty((m, n, 4 * h_size))
    cells = np.empty((m, n, h_size))
    hidden = np.empty((m, n, h_size))
    h_prev = np.zeros((m, h_size))
    c_prev = np.zeros((m, h_size))
    for t in range(n):
        z = x[:, t] @ wx.T + h_prev @ wh.T + b
        i = encoder._sigmoid(z[:, :h_size])
        f = encoder._sigmoid(z[:, h_size : 2 * h_size])
        g = np.tanh(z[:, 2 * h_size : 3 * h_size])
        o = encoder._sigmoid(z[:, 3 * h_size :])
        c_prev = f * c_prev + i * g
        h_prev = o * np.tanh(c_prev)
        gates[:, t] = np.concatenate([i, f, g, o], axis=1)
        cells[:, t] = c_prev
        hidden[:, t] = h_prev
    return {"x": x, "gates": gates, "cells": cells, "hidden": hidden}


def reference_lstm_backward(cache, wx, wh, grad_hidden):
    """One direction of ``encoder._lstm_backward``, with the weight
    gradients accumulated one step at a time; leaves ``cache`` intact.
    Returns (dwx, dwh, db)."""
    x, gates, cells = cache["x"], cache["gates"], cache["cells"]
    m, n, _ = x.shape
    h_size = wh.shape[1]
    dwx = np.zeros_like(wx)
    dwh = np.zeros_like(wh)
    db = np.zeros(4 * h_size)
    dh_next = np.zeros((m, h_size))
    dc_next = np.zeros((m, h_size))
    for t in range(n - 1, -1, -1):
        i = gates[:, t, :h_size]
        f = gates[:, t, h_size : 2 * h_size]
        g = gates[:, t, 2 * h_size : 3 * h_size]
        o = gates[:, t, 3 * h_size :]
        c = cells[:, t]
        c_prev = cells[:, t - 1] if t > 0 else np.zeros((m, h_size))
        h_prev = cache["hidden"][:, t - 1] if t > 0 else np.zeros((m, h_size))
        tanh_c = np.tanh(c)
        dh = grad_hidden[:, t] + dh_next
        do = dh * tanh_c
        dc = dh * o * (1.0 - tanh_c * tanh_c) + dc_next
        dz = np.concatenate(
            [
                dc * g * i * (1.0 - i),
                dc * c_prev * f * (1.0 - f),
                dc * i * (1.0 - g * g),
                do * o * (1.0 - o),
            ],
            axis=1,
        )
        dwx += dz.T @ x[:, t]
        dwh += dz.T @ h_prev
        db += dz.sum(axis=0)
        dh_next = dz @ wh
        dc_next = dc * f
    return dwx, dwh, db


def reference_bilstm(x, wx, wh, b, grad_hidden):
    """``encoder._lstm_forward`` and ``_lstm_backward`` as one reference call
    per direction, the reverse one on the reversed input: the caches in
    ``per_direction_layout``'s loop-time layout, and (dwx, dwh, db)."""
    refs = [reference_lstm_forward(x[:, :: 1 - 2 * k], wx[k], wh[k], b[k]) for k in (0, 1)]
    stacked = {key: np.stack([ref[key].swapaxes(0, 1) for ref in refs], axis=1)
               for key in ("gates", "cells", "hidden")}
    grads = [reference_lstm_backward(ref, wx[k], wh[k], grad_hidden[:, k].swapaxes(0, 1))
             for k, ref in enumerate(refs)]
    return stacked, [np.stack(pair) for pair in zip(*grads)]


def reference_tolerant_f1(predicted, truth, sequence, tau: float) -> float:
    """``evaluation.tolerant_f1`` at one tau, one frame at a time: each
    source frame the target lacks is compared, view by view, with the
    target frames at its step, through ``np.linalg.norm`` of the
    unit-feature difference."""
    truth_set, pred_set = truth.selection_set, predicted.selection_set
    if not pred_set:
        return 0.0
    feats = sequence.features.astype(np.float64)
    norms = np.linalg.norm(feats, axis=2)
    unit = np.divide(feats, norms[..., None], out=np.zeros_like(feats), where=norms[..., None] > 0)

    def matches(source, target) -> int:
        by_step: dict[int, list[int]] = {}
        for view, t in target:
            by_step.setdefault(t, []).append(view)
        count = 0
        for view, t in source:
            if (view, t) in target:
                count += 1
                continue
            count += any(
                np.linalg.norm(unit[view, t] - unit[other, t]) < 2.0 * tau
                for other in by_step.get(t, ())
            )
        return count

    precision = matches(pred_set, truth_set) / len(pred_set)
    recall = matches(truth_set, pred_set) / len(truth_set)
    return evaluation._f1(precision, recall)


def random_kernel(rng: np.random.Generator, n: int, dim: int | None = None) -> DppKernel:
    dim = dim or max(2, n)
    phi = rng.normal(size=(dim, n))
    q = rng.uniform(dpp.QUALITY_FLOOR, 1.0, size=n)
    return DppKernel(phi=phi, q=q)


# -- check suites ------------------------------------------------------------


def check_dpp(n: int = 8, trials: int = 50, seed: int = 0, rel_tol: float = 1e-9):
    """Brute-force verification of normalization, probabilities, the dual
    likelihood path, MAP and greedy MAP.

    Returns a list of (name, passed, detail) rows.
    """
    rng = np.random.default_rng(seed)
    worst_norm = 0.0
    worst_sum = 0.0
    worst_dual = 0.0
    greedy_ok = reference_ok = rank_ok = True
    for _ in range(trials):
        kernel = random_kernel(rng, n)
        brute = powerset_det_sum(kernel)
        fast = math.exp(-dpp.log_prob(kernel, []))
        worst_norm = max(worst_norm, abs(fast - brute) / brute)
        total = sum(
            math.exp(dpp.log_prob(kernel, s)) for s in all_subsets(kernel.ground_size)
        )
        worst_sum = max(worst_sum, abs(total - 1.0))
        # one low-rank kernel (D' < N) and one with D' >= N; subsets have fewer
        # than D' items, since at a low-rank kernel's full rank L_y's
        # conditioning, not the method, sets the agreement
        for dim in (int(rng.integers(1, max(2, n))), int(rng.integers(n, 2 * n + 1))):
            worst_dual = max(worst_dual, _dual_vs_primal(rng, random_kernel(rng, n, dim)))
        diag = DppKernel(phi=np.eye(n), q=rng.uniform(dpp.QUALITY_FLOOR, 1.0, size=n))
        if sorted(dpp.greedy_map(diag.phi * diag.q)) != exhaustive_map(diag.phi * diag.q):
            greedy_ok = False
        # L = B^T B with D' < N and D' >= N, column scales that make gains of
        # both signs, and a copy with repeated items, whose gains tie exactly
        for dim in (int(rng.integers(1, max(2, n))), int(rng.integers(n, 2 * n + 1))):
            scaled = rng.normal(size=(dim, n)) * rng.uniform(0.2, 1.5, size=n)
            repeated = scaled[:, np.sort(rng.integers(0, n, size=n))]
            for factor, fill in itertools.product((scaled, repeated), (False, True)):
                picks = dpp.greedy_map(factor, fill=fill)
                reference_ok &= picks == reference_greedy_map(factor, fill=fill)
                rank_ok &= not fill or len(picks) == np.linalg.matrix_rank(factor)
    nonempty = 0
    for _ in range(trials):  # diag(sqrt(d)): det(L_y) = prod of d over y, MAP {d > 1}
        factor = np.diag(np.sqrt(rng.uniform(0.2, 3.0, size=n)))
        best = exhaustive_map(factor)
        nonempty += bool(best)
        greedy_ok &= sorted(dpp.greedy_map(factor)) == best
    return [
        ("normalizer vs powerset det sum", worst_norm <= rel_tol, f"max rel err {worst_norm:.3e}"),
        ("subset probabilities sum to 1", worst_sum <= rel_tol, f"max abs err {worst_sum:.3e}"),
        (
            "dual log-prob and (phi, q) gradients vs primal N x N formulas",
            worst_dual <= 1e-10,
            f"max rel err {worst_dual:.3e}",
        ),
        ("greedy MAP = exhaustive MAP on diagonal kernels", greedy_ok,
         f"{trials} with q < 1, {trials} diagonal factors ({nonempty} nonempty MAPs)"),
        (
            "greedy MAP = reference greedy on low- and full-rank kernels, fill on and off",
            reference_ok,
            f"{8 * trials} runs, half with tied items",
        ),
        ("fill-mode greedy stops at the kernel rank", rank_ok, f"{4 * trials} kernels"),
    ]


def _dual_vs_primal(rng: np.random.Generator, kernel: DppKernel) -> float:
    """Worst relative disagreement between the dual fast path and the primal
    oracle on one random subset of fewer than D' items."""
    dim, n = kernel.phi.shape
    size = int(rng.integers(0, min(dim - 1, n) + 1))
    subset = sorted(rng.choice(n, size=size, replace=False).tolist())
    logp, grad_phi, grad_q = dpp.log_prob_and_grad(kernel, subset)
    ref_logp = primal_log_prob(kernel, subset)
    ref_phi, ref_q = kernel_grads_from_L(kernel, logprob_grad_L(kernel, subset))
    pairs = [(logp, ref_logp), (dpp.log_prob(kernel, subset), ref_logp)]
    pairs += [(grad_phi, ref_phi), (grad_q, ref_q)]
    return max(_max_rel_err(fast, ref) for fast, ref in pairs)


def _max_rel_err(fast, ref) -> float:
    """max |fast - ref| over the scale max |ref| of the whole array (0 when
    both are all zero)."""
    scale = max(float(np.max(np.abs(ref))), np.finfo(float).tiny)
    return float(np.max(np.abs(np.subtract(fast, ref)))) / scale


def check_knapsack(trials: int = 50, max_shots: int = 12, seed: int = 0):
    from .summarizer import knapsack_shots

    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(trials):
        n = int(rng.integers(1, max_shots + 1))
        lengths = rng.integers(1, 7, size=n).tolist()
        # integer-valued scores: many subsets tie
        scores = rng.integers(0, 1000, size=n).astype(float).tolist()
        budget = int(rng.integers(0, sum(lengths) + 2))
        if knapsack_shots(lengths, scores, budget) != exhaustive_knapsack(lengths, scores, budget):
            ok = False
    ties_ok = all(
        knapsack_shots(*case) == exhaustive_knapsack(*case)
        for case in (_knapsack_tie(rng) for _ in range(trials))
    )
    return [
        ("knapsack DP vs exhaustive enumeration", ok, f"{trials} trials"),
        (
            "knapsack DP vs exhaustive enumeration on constructed exact ties",
            ties_ok,
            f"{trials} trials",
        ),
    ]


def _knapsack_tie(rng: np.random.Generator):
    """(lengths, scores, budget) where one shot of length k scores exactly
    the sum of k unit-length shots, in shuffled order with up to two
    zero-score unit shots and a budget of k or k + 1. The k scores mix one
    value near 1 with multiples of 2^-54, so adding them in float rounds
    (sometimes past the tie, sometimes short of it) while their exact sum
    is a float."""
    while True:
        k = int(rng.integers(2, 4))
        big = float(rng.choice((0.5, 0.75, 1.0, 1.5))) + int(rng.integers(0, 8)) * 2.0**-52
        parts = [big] + [int(rng.integers(1, 8)) * 2.0**-54 for _ in range(k - 1)]
        total = sum((Fraction(v) for v in parts), Fraction(0))
        if Fraction(float(total)) == total:
            break
    zeros = int(rng.integers(0, 3))
    items = [(k, float(total))] + [(1, v) for v in parts] + [(1, 0.0)] * zeros
    order = rng.permutation(len(items))
    lengths = [items[i][0] for i in order]
    scores = [items[i][1] for i in order]
    return lengths, scores, k + int(rng.integers(0, 2))


def check_kts(trials: int = 50, max_steps: int = 12, seed: int = 0):
    from .kts import _single_segment, kts

    rng = np.random.default_rng(seed)
    ok = True
    for _ in range(trials):
        n = int(rng.integers(4, max_steps + 1))
        feats = rng.normal(size=(n, 3))
        for m in range(0, min(4, n)):
            _, cost = kts_fixed_m(feats, m)
            _, brute_cost = exhaustive_segmentation(feats, m)
            if abs(cost - brute_cost) > 1e-9 * max(1.0, abs(brute_cost)):
                ok = False
    tables_ok = True
    inputs = list(_kts_table_inputs(rng, trials))
    cases = []
    for feats, max_parts in inputs:
        table = _ScatterTable(feats)
        dp, bp = dp_tables(table, max_parts)
        ref = reference_dp_tables(table, max_parts)
        if not (np.array_equal(dp, ref[0]) and np.array_equal(bp, ref[1])):
            tables_ok = False
        cases.append((feats, max_parts, ref))
    for feats, cap in _kts_long_views(rng, seed):
        cases.append((feats, cap, reference_dp_tables(_ScatterTable(feats), cap)))
    cut = _check_kts_cuts(cases)
    cost_err = max(_block_cost_error(feats) for feats, _ in inputs)
    config = synth.SynthConfig(num_views=1, num_steps=2000, feature_dim=16, num_events=5,
                               event_length_min=6, event_length_max=9, seed=seed)
    views = [synth.generate(config)[0].view(0), rng.normal(size=(600, 16)) + 50.0]
    for x in views:
        # the first and last end of the first, a middle and the last block
        n = x.shape[0]
        los = {1, 1 + (n - 1) // _BLOCK // 2 * _BLOCK, 1 + (n - 1) // _BLOCK * _BLOCK}
        ends = {e for lo in los for e in (lo, min(lo + _BLOCK - 1, n))}
        cost_err = max(cost_err, _block_cost_error(x, ends))
    # integer frames (exact products), a large common offset, all zeros
    views += [rng.integers(-3, 4, size=(300, 5)).astype(float),
              rng.normal(size=(300, 4)) + 1e6, np.zeros((130, 3))]
    bits = _check_block_bits([feats for feats, _, _ in cases] + views)
    return [
        ("KTS dynamic program vs exhaustive segmentation", ok, f"{trials} trials"),
        ("KTS tables vs reference loop", tables_ok,
         f"{len(inputs)} inputs, N <= {max(f.shape[0] for f, _ in inputs)}, bitwise dp and bp"),
        cut,
        ("KTS cost blocks vs direct scatter", cost_err <= 1e-11,
         f"{len(inputs)} inputs plus N=2000 synth and N=600 normal + 50 views; "
         f"max |cost - direct| / prefix energy = {cost_err:.1e}"),
        bits,
    ]


def _check_block_bits(views):
    """The "KTS cost blocks vs reference bits" row: every cost block of
    every view must have the bytes of ``reference_block_costs``."""
    ok, blocks = True, 0
    for x in views:
        table = _ScatterTable(x)
        for lo in range(1, table.n + 1, _BLOCK):
            hi = min(lo + _BLOCK, table.n + 1)
            blocks += 1
            if table.block_costs(lo, hi).tobytes() != reference_block_costs(table, lo, hi).tobytes():
                ok = False
    return ("KTS cost blocks vs reference bits", ok,
            f"{blocks} blocks of {len(views)} views (N <= {max(x.shape[0] for x in views)}; "
            f"the KTS inputs plus integer, +1e6 offset and all-zero views); bitwise")


# zero (nothing is cut on views with scatter), tiny, the benchmark's, the
# library default and a large one
_KTS_CUT_PENALTIES = (0.0, 1e-9, 0.05, 1.0, 10.0)


def _check_kts_cuts(cases):
    """The "level cut vs full cap" row: on every (features, max_parts,
    reference tables of at least min(max_parts, N) levels) case, ``kts`` at
    each of _KTS_CUT_PENALTIES must equal ``reference_kts`` on the
    reference tables, the cut's dp[1][N] must have the reference table's
    bytes, and, where the bound path runs, the linear-penalty row's G the
    bytes of ``reference_linear_penalty`` at the same beta."""
    from .kts import (_FIRST_LEVELS, _KEEP_MAX_N, _ROW_COST_LEVELS, _CostBlocks,
                      _LinearPenaltyRow, _empty_tables, _penalty, _plan, _relax,
                      _single_segment, kts)

    ok = True
    runs = cut_runs = bound_runs = bound_levels = bound_k15 = row_runs = kept_runs = 0
    for feats, max_parts, ref in cases:
        table = _ScatterTable(feats)
        n, cap = table.n, min(max_parts, table.n)
        if np.float64(_single_segment(table)[1]).tobytes() != ref[0][1, n].tobytes():
            ok = False
        for penalty in _KTS_CUT_PENALTIES:
            runs += 1
            penalties = [_penalty(penalty, n, m) for m in range(cap)]
            k15 = 1 + max((m for m in range(1, cap) if penalties[m] < ref[0][1, n]), default=0)
            result = kts(feats, max_parts, penalty)
            if result != reference_kts(ref, max_parts, penalty):
                ok = False
            cut_runs += result.levels_relaxed < cap
            row, keep = _plan(feats, penalties[:k15], cap, penalty)
            row_runs += row is not None
            kept_runs += row is not None and keep
            if penalty > 0 and k15 > _FIRST_LEVELS + _ROW_COST_LEVELS:
                bound_runs += 1
                bound_levels += result.levels_relaxed
                bound_k15 += k15
                # the row alone, whether or not kts's plan runs it
                beta = min(b - a for a, b in zip(penalties, penalties[1:k15]))
                row = _LinearPenaltyRow(n, beta)
                _relax(*_empty_tables(n, 0), range(1, 1),
                       _CostBlocks(table, _single_segment(table)[0]), row)
                if np.float64(row.total).tobytes() != \
                        np.float64(reference_linear_penalty(table, beta)).tobytes():
                    ok = False
    return ("KTS level cut vs full cap", ok,
            f"{runs} runs of {len(cases)} inputs (N <= {max(f.shape[0] for f, _, _ in cases)}) "
            f"at penalties {_KTS_CUT_PENALTIES}, {cut_runs} with levels cut; "
            f"{bound_runs} on the bound path (K15 > {_FIRST_LEVELS + _ROW_COST_LEVELS}, "
            f"penalty > 0) "
            f"relaxed {bound_levels} of their {bound_k15} K15 levels; {row_runs} ran the row, "
            f"{kept_runs} of them keeping the cost blocks (N <= {_KEEP_MAX_N}); "
            f"equal results, bitwise dp[1][N] and G")


def _kts_long_views(rng: np.random.Generator, seed: int):
    """(features, default cap) at N = 300 and 600, where the bound path
    runs at penalty 0.05: planted-event synth views, integer runs with exact
    ties (10-20 constant runs of integer frames, zero-cost splits), and
    normal noise, on which the linear-penalty row gives up. Then planted
    events on both sides of ``kts._KEEP_MAX_N``, the longest view whose
    cost blocks the plan with the row keeps."""
    from .kts import _KEEP_MAX_N

    def planted(n):
        config = synth.SynthConfig(num_views=1, num_steps=n, feature_dim=16, num_events=5,
                                   event_length_min=6, event_length_max=9,
                                   noise_sigma=0.05, seed=seed + n)
        return synth.generate(config)[0].view(0).astype(float), -(-n // 15)

    for n in (300, 600):
        yield planted(n)
        runs = int(rng.integers(10, 21))
        values = rng.integers(-2, 3, size=(runs, 3)).astype(float)
        lengths = rng.multinomial(n - 5 * runs, np.ones(runs) / runs) + 5
        yield np.repeat(values, lengths, axis=0), -(-n // 15)
    yield rng.normal(size=(300, 4)), 20
    yield planted(_KEEP_MAX_N)
    yield planted(_KEEP_MAX_N + 1)


def _block_cost_error(x: np.ndarray, ends=None) -> float:
    """Largest |cost - direct scatter| over the segments [a, e) ending at
    each of ``ends`` (default: every end), relative to the energy
    sum_{t < e} |x_t|^2 of the prefix whose cumulative sums the cost reads.
    Each cost is read from the ``block_costs`` grid ``dp_tables`` uses. A
    nonzero error on an all-zero prefix is inf."""
    x = _as_features(x)
    table = _ScatterTable(x)
    ends = set(range(1, table.n + 1) if ends is None else ends)
    worst = 0.0
    for lo in range(1, table.n + 1, _BLOCK):
        hi = min(lo + _BLOCK, table.n + 1)
        costs = table.block_costs(lo, hi)
        for end in sorted(ends.intersection(range(lo, hi))):
            direct = [_direct_scatter(x[a:end]) for a in range(end)]
            err = float(np.abs(costs[end - lo, :end] - direct).max())
            if err:
                energy = float(np.vdot(x[:end], x[:end]))
                worst = max(worst, err / energy if energy else math.inf)
    return worst


def _kts_table_inputs(rng: np.random.Generator, trials: int):
    """(features, max_parts) pairs. Random features with N <= 60 and
    max_parts <= N, the same around a common offset of 50 (where a
    segment's scatter cancels most of its energy, so differently anchored
    cost blocks round differently), plus tie-heavy ones: all-zero frames
    and runs of repeated constant blocks. Then the same four kinds at sizes
    that cross DP blocks (b - 1, b, b + 1, 2b + 1 and one random size in
    (b, 3b] for block size b), each with max_parts below N and above N."""
    def kinds(n, d):
        yield rng.normal(size=(n, d))
        yield rng.normal(size=(n, d)) + 50.0
        yield np.zeros((n, d))
        blocks = rng.integers(-2, 3, size=(int(rng.integers(1, 6)), d)).astype(float)
        lengths = rng.integers(1, max(2, n // 4), size=blocks.shape[0])
        yield np.resize(np.repeat(blocks, lengths, axis=0), (n, d))

    for _ in range(trials):
        n = int(rng.integers(1, 61))
        for feats in kinds(n, int(rng.integers(1, 6))):
            yield feats, int(rng.integers(1, n + 1))
    b = _BLOCK
    for n in (b - 1, b, b + 1, 2 * b + 1, int(rng.integers(b + 1, 3 * b + 1))):
        for feats in kinds(n, int(rng.integers(1, 6))):
            yield feats, int(rng.integers(1, n))
            yield feats, n + int(rng.integers(1, 4))


def both_heads(params: encoder.ModelParams, sequence: MultiViewSequence) -> encoder.ForwardTrace:
    """The shared encoder and both heads over every view of one sequence,
    as the loss runs them; ``encoder.quality_scores`` must reproduce its
    ``streams.quality`` bitwise."""
    encoder._check_input_dim(params, sequence)
    lstm = encoder._stacked_lstm(params, [sequence], backward=False)
    return encoder._heads(params, lstm, slice(0, sequence.num_views))


def per_direction_layout(cache: dict) -> dict:
    """Copies of ``encoder._lstm_forward``'s gate, cell and hidden caches in
    the per-direction layout the reference loops are compared in: (N, 2, M,
    4H) gates in the weights' (i, f, g, o) block order without the spare
    row, and (N, 2, M, H) cells and hidden states without the zero state
    row. Loop step t is time t for direction 0 and time N - 1 - t for
    direction 1."""
    gates = np.empty_like(cache["gates"][:-1])
    gates[:, encoder._GATE_ORDER] = cache["gates"][:-1]
    n, _, _, m, h = gates.shape
    return {
        "gates": gates.transpose(0, 2, 3, 1, 4).reshape(n, 2, m, 4 * h),
        "cells": cache["cells"][1:].copy(),
        "hidden": cache["hidden"][1:].copy(),
    }


def check_encoder(trials: int = 50, seed: int = 0):
    """The stacked two-direction LSTM loops of ``encoder`` against
    ``reference_bilstm``, in ``per_direction_layout``. Each direction's
    outputs are compared at the scale of that direction's whole array."""
    rng = np.random.default_rng(seed)
    worst_fwd = worst_bwd = 0.0
    inputs = 0
    for inputs, (x, wx, wh, b) in enumerate(_lstm_inputs(rng, trials), 1):
        cache = encoder._lstm_forward(x, wx, wh, b)
        fused = per_direction_layout(cache)
        grad_hidden = rng.normal(size=fused["hidden"].shape)
        ref, ref_grads = reference_bilstm(x, wx, wh, b, grad_hidden)
        grads = encoder._lstm_backward(cache, wh, grad_hidden, [slice(None)])[0]
        for k in (0, 1):
            for key in ("gates", "cells", "hidden"):
                worst_fwd = max(worst_fwd, _max_rel_err(fused[key][:, k], ref[key][:, k]))
            for fast, slow in zip(grads, ref_grads):
                worst_bwd = max(worst_bwd, _max_rel_err(fast[k], slow[k]))
    worst_hidden, worst_loss = _check_groups(rng, trials)
    return [
        (
            "stacked LSTM forward vs per-direction reference (gates, cells, hidden)",
            worst_fwd <= 1e-14,
            f"{inputs} inputs, max rel err {worst_fwd:.3e}",
        ),
        (
            "stacked LSTM backward vs per-direction reference (dWx, dWh, db)",
            worst_bwd <= 1e-12,
            f"{inputs} inputs, max rel err {worst_bwd:.3e}",
        ),
        (
            "stacked sequence groups vs one-example batch_loss calls (hidden, loss parts, gradient)",
            worst_hidden == 0.0 and worst_loss == 0.0,
            f"{trials} groups, max rel err hidden {worst_hidden:.3e}, loss and grad "
            f"{worst_loss:.3e} (bitwise required)",
        ),
    ]


def _check_groups(rng: np.random.Generator, trials: int) -> tuple[float, float]:
    """Worst relative errors of stacked groups against their sequences run
    alone: the LSTM hidden states of the stacked input against each
    sequence's own (a one-view sequence padded by ``encoder._stacked_lstm``),
    and the loss parts and summed gradient of one group forced through
    ``encoder._loss`` against one-example ``encoder.batch_loss`` calls, each
    parameter array (each LSTM direction) at its own scale. Both must be 0:
    a group sums each sequence's gradient on its own. Groups hold 1-4
    sequences of one length N <= 12 with M in 1..3 each, and lam in
    {0, 0.5, 1}; every other group's model has saturated LSTM gates, as in
    ``_lstm_inputs``."""
    worst_hidden = worst_loss = 0.0
    for trial in range(trials):
        n, d, h = (int(rng.integers(1, 13)), int(rng.integers(1, 6)), int(rng.integers(1, 6)))
        params = encoder.init_params(d, h, 8, seed=int(rng.integers(1 << 31)))
        if trial % 2:
            units = (np.arange(4 * h) % h != 0) & (rng.random((2, 4 * h)) < 0.5)
            b = params.lstm_b.copy()
            b[units] = rng.choice((-1.0, 1.0), size=int(units.sum())) * rng.uniform(
                45, 60, int(units.sum())
            )
            params = dataclasses.replace(params, lstm_b=b)
        group = []
        for _ in range(int(rng.integers(1, 5))):
            m = int(rng.integers(1, 4))
            # the feature head has H hidden units, so the joint kernel's
            # rank may be H + 1 and no more: target at most H steps
            size = int(rng.integers(0, min(n, h, 3) + 1))
            steps = np.sort(rng.choice(n, size=size, replace=False))
            y = np.zeros((m, n), dtype=np.uint8)
            for t in steps:
                y[rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False), t] = 1
            features = rng.normal(size=(m, n, d)).astype(np.float32)
            group.append(TrainingExample(MultiViewSequence("s", features), y))
        lam = float(rng.choice((0.0, 0.5, 1.0)))

        stacked = per_direction_layout(
            encoder._stacked_lstm(params, [ex.sequence for ex in group])
        )["hidden"]
        start = 0
        for seq in (ex.sequence for ex in group):
            alone = per_direction_layout(encoder._stacked_lstm(params, [seq]))["hidden"]
            cols = slice(start, start + seq.num_views)
            start = cols.stop
            err = _max_rel_err(stacked[:, :, cols], alone[:, :, : seq.num_views])
            worst_hidden = max(worst_hidden, err)

        _, grads = encoder._zero_grads(params)
        parts = encoder._loss(params, group, lam, grads)
        alone = [encoder.batch_loss(params, [ex], lam=lam) for ex in group]
        for part, ([ref], _) in zip(parts, alone):
            for field in ("total", "bce", "dpp_nll"):
                fast, slow = getattr(part, field), getattr(ref, field)
                if not (math.isnan(fast) and math.isnan(slow)):
                    worst_loss = max(worst_loss, _max_rel_err(fast, slow))
        ref_grads = encoder._split(params, sum(grad for _, grad in alone))
        for name, arr in ref_grads.items():
            # each LSTM direction at its own scale
            pairs = zip(grads[name], arr) if name.startswith("lstm_") else [(grads[name], arr)]
            for fast, slow in pairs:
                worst_loss = max(worst_loss, _max_rel_err(fast, slow))
    return worst_hidden, worst_loss


def _lstm_inputs(rng: np.random.Generator, trials: int):
    """(x, wx, wh, b) for the two stacked directions, each direction with
    its own weights, with M <= 3, N <= 12, D <= 5 and H <= 5, the first with
    M = N = 1; then two with N = C and N = 2C + 1 for the loops' least time
    chunk C = ``encoder._TIME_CHUNK``: one chunk, and two, whose rows cross a
    chunk boundary. Every
    other input gives about half of each direction's gate units a bias of
    magnitude 45-60, so their pre-activations pass |z| = 40, where
    tanh(z / 2) is exactly +-1 and the exp-form sigmoid is not exactly 0 or
    1. Hidden unit 0 keeps moderate gates, so no output array shrinks to
    round-off scale."""
    def sizes():  # (M, N), drawn as each input is made
        yield 1, 1
        for _ in range(trials - 1):
            yield int(rng.integers(1, 4)), int(rng.integers(1, 13))
        for n in (encoder._TIME_CHUNK, 2 * encoder._TIME_CHUNK + 1):
            yield int(rng.integers(1, 4)), n

    for trial, (m, n) in enumerate(sizes()):
        d, h = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        x = rng.normal(size=(m, n, d))
        wx = 0.5 * rng.normal(size=(2, 4 * h, d))
        wh = 0.5 * rng.normal(size=(2, 4 * h, h))
        b = 0.5 * rng.normal(size=(2, 4 * h))
        if trial % 2:
            units = (np.arange(4 * h) % h != 0) & (rng.random((2, 4 * h)) < 0.5)
            count = int(units.sum())
            b[units] = rng.choice((-1.0, 1.0), size=count) * rng.uniform(45, 60, count)
        yield x, wx, wh, b
