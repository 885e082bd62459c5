import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from mdpp import bruteforce, synth
from mdpp import kts as kts_module
from mdpp.errors import ConfigError, DataError, ValidationError
from mdpp.bruteforce import dp_tables, kts_fixed_m, segment_cost
from mdpp.kts import SegmentationResult, _ScatterTable, kts
from mdpp.summarizer import default_max_segments


def _scatter(x):
    mean = x.mean(axis=0)
    return float(((x - mean) ** 2).sum())


def test_segment_cost_matches_direct_scatter():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n, d = int(rng.integers(2, 12)), int(rng.integers(1, 5))
        x = rng.normal(size=(n, d))
        a = int(rng.integers(0, n))
        b = int(rng.integers(a + 1, n + 1))
        assert segment_cost(x, a, b) == pytest.approx(_scatter(x[a:b]), abs=1e-9)


def test_segment_cost_validation():
    x = np.zeros((4, 2))
    with pytest.raises(ValidationError):
        segment_cost(x, 2, 2)
    with pytest.raises(ValidationError):
        segment_cost(x, 0, 5)
    with pytest.raises(DataError):
        segment_cost(np.full((3, 2), np.inf), 0, 2)


def test_fixed_m_toy_step_signal():
    x = np.array([0.0, 0.0, 0.0, 5.0, 5.0, 5.0])[:, None]
    cps, cost = kts_fixed_m(x, 1)
    assert cps == [3]
    assert cost == pytest.approx(0.0, abs=1e-12)


def test_fixed_m_matches_exhaustive():
    rng = np.random.default_rng(1)
    for _ in range(30):
        n = int(rng.integers(4, 12))
        x = rng.normal(size=(n, 3))
        for m in range(min(4, n)):
            cps, cost = kts_fixed_m(x, m)
            brute_cps, brute_cost = bruteforce.exhaustive_segmentation(x, m)
            assert cost == pytest.approx(brute_cost, rel=1e-9, abs=1e-9)
            assert cps == brute_cps


def test_fixed_m_tie_break_earliest():
    # all-zero features make every placement optimal; the DP keeps the first
    cps, cost = kts_fixed_m(np.zeros((5, 2)), 2)
    assert cps == [1, 2]
    assert cost == 0.0


def test_fixed_m_validation():
    with pytest.raises(ValidationError):
        kts_fixed_m(np.zeros((3, 2)), 3)
    with pytest.raises(ValidationError):
        kts_fixed_m(np.zeros((0, 2)), 0)


def _assert_tables_match_reference(x, max_parts):
    table = _ScatterTable(x)
    dp, bp = dp_tables(table, max_parts)
    ref_dp, ref_bp = bruteforce.reference_dp_tables(table, max_parts)
    assert np.array_equal(dp, ref_dp)
    assert np.array_equal(bp, ref_bp)


def test_dp_tables_match_reference_loop_bitwise_on_synth_view():
    config = synth.SynthConfig(
        num_views=3, num_steps=300, feature_dim=16, num_events=5,
        event_length_min=6, event_length_max=9, seed=7,
    )
    sequence, _ = synth.generate(config)
    _assert_tables_match_reference(sequence.view(0), default_max_segments(300))


def test_dp_tables_match_reference_loop_bitwise_across_blocks():
    # N=600 spans ten DP blocks; the cap is the summarizer's default of 40
    config = synth.SynthConfig(
        num_views=3, num_steps=600, feature_dim=16, num_events=5,
        event_length_min=6, event_length_max=9, seed=11,
    )
    sequence, _ = synth.generate(config)
    assert default_max_segments(600) == 40
    _assert_tables_match_reference(sequence.view(1), 40)


def test_block_costs_are_direct_scatter_with_inf_past_the_end():
    rng = np.random.default_rng(5)
    # a second block, a feature dimension far above the block size, a one-end block
    for n, d, lo, hi in ((130, 3, 65, 130), (70, 1500, 1, 65), (9, 2, 9, 10)):
        x = rng.normal(size=(n, d))
        costs = _ScatterTable(x).block_costs(lo, hi)
        assert costs.shape == (hi - lo, hi - 1)
        for i, end in enumerate(range(lo, hi)):
            assert np.isinf(costs[i, end:]).all()
            direct = [_scatter(x[a:end]) for a in range(end)]
            assert costs[i, :end] == pytest.approx(direct, abs=1e-9)


# sizes around the block edges, the kept plan's limit and the benchmark's
# long view; d = 1500 passes the BLAS K panel of the cost block's product
_BITS_SCRIPT = """
import numpy as np
from mdpp.bruteforce import reference_block_costs
from mdpp.kts import _ScatterTable

rng = np.random.default_rng(34)
blocks = mismatches = 0
for n, d in ((1, 3), (2, 3), (63, 4), (64, 4), (65, 4), (300, 16), (641, 16), (2000, 16),
             (641, 1500)):
    x = rng.normal(size=(n, d))
    for view in (x, x + 1e3, np.round(4 * x), np.zeros((n, d))):
        table = _ScatterTable(view)
        for lo in range(1, n + 1, 64):
            hi = min(lo + 64, n + 1)
            blocks += 1
            fast = table.block_costs(lo, hi).tobytes()
            mismatches += fast != reference_block_costs(table, lo, hi).tobytes()
print(blocks, mismatches)
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_block_costs_have_the_reference_bits_at_one_and_two_blas_threads(threads):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
    proc = subprocess.run([sys.executable, "-c", _BITS_SCRIPT],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["260", "0"]


def test_dp_tables_match_reference_loop_bitwise_on_ties():
    _assert_tables_match_reference(np.zeros((40, 3)), 12)
    blocks = np.repeat([[1.0, -2.0], [1.0, -2.0], [3.0, 0.0], [-1.0, 1.0]], [5, 7, 1, 9], axis=0)
    _assert_tables_match_reference(blocks, 10)
    _assert_tables_match_reference(np.ones((25, 1)), 25)


def test_integer_runs_across_blocks_tie_exactly():
    # constant integer runs; [40, 100) straddles end 64 and [100, 170) end 128,
    # so their segments come from two DP blocks each
    bounds = (0, 40, 100, 170, 200)
    values = np.array([[1, -2, 0], [3, 0, 1], [-1, 1, 2], [2, 2, -1]], dtype=float)
    x = np.repeat(values, np.diff(bounds), axis=0)
    table = _ScatterTable(x)
    for lo in range(1, 201, 64):
        costs = table.block_costs(lo, min(lo + 64, 201))
        for end in range(lo, lo + len(costs)):
            run_start = max(b for b in bounds if b < end)
            assert (costs[end - lo, run_start:end] == 0.0).all()
    result = kts(x, max_segments=default_max_segments(200), penalty_coeff=0.05)
    assert result.change_points == bounds[1:-1]
    assert result.objective == 0.0


def test_kts_check_fails_on_wrong_costs(monkeypatch):
    # the exhaustive and direct-scatter rows read no production cost, so a
    # cost error shows there even though the reference tables share it
    block_costs = _ScatterTable.block_costs

    def wrong_costs(self, lo, hi, out=None, scratch=None):
        costs = block_costs(self, lo, hi, out, scratch)
        costs *= 1 + 1e-6
        return costs

    monkeypatch.setattr(_ScatterTable, "block_costs", wrong_costs)
    rows = {name: ok for name, ok, _ in bruteforce.check_kts(trials=5)}
    assert rows == {
        "KTS dynamic program vs exhaustive segmentation": False,
        "KTS tables vs reference loop": True,
        "KTS level cut vs full cap": True,
        "KTS cost blocks vs direct scatter": False,
        "KTS cost blocks vs reference bits": False,
    }


def test_kts_check_fails_on_wrong_kept_costs(monkeypatch):
    # only the blocks kts keeps are wrong: the reference loop and the other
    # rows read blocks computed afresh, so only the level cut row sees it
    block_costs = _ScatterTable.block_costs

    def wrong_kept_costs(self, lo, hi, out=None, scratch=None):
        costs = block_costs(self, lo, hi, out, scratch)
        if out is not None:
            costs *= 1 + 1e-6
        return costs

    monkeypatch.setattr(_ScatterTable, "block_costs", wrong_kept_costs)
    rows = {name: ok for name, ok, _ in bruteforce.check_kts(trials=5)}
    assert rows == {
        "KTS dynamic program vs exhaustive segmentation": True,
        "KTS tables vs reference loop": True,
        "KTS level cut vs full cap": False,
        "KTS cost blocks vs direct scatter": True,
        "KTS cost blocks vs reference bits": True,
    }


def _relaxing_one_level_fewer(monkeypatch, kept):
    """kts, patched so that its sweeps without the row, on kept cost blocks
    or on blocks computed per sweep as ``kept`` says, relax one level fewer:
    the one-sweep plan (the dp[1][N] cut) and either plan's second sweep."""
    relax, segment = kts_module._relax, kts_module.kts

    def one_level_fewer(dp, bp, levels, blocks, row=None):
        fewer = row is None and (blocks.kept is not None) == kept
        relax(dp, bp, levels[:-1] if fewer else levels, blocks, row)

    def kts_relaxing_one_level_fewer(*args):
        # only inside kts: dp_tables, which the check compares with the
        # reference loop, keeps every level
        with monkeypatch.context() as patch:
            patch.setattr(kts_module, "_relax", one_level_fewer)
            return segment(*args)

    monkeypatch.setattr(kts_module, "kts", kts_relaxing_one_level_fewer)


def test_kts_check_fails_when_the_cut_relaxes_one_level_fewer(monkeypatch):
    _relaxing_one_level_fewer(monkeypatch, kept=False)
    rows = {name: ok for name, ok, _ in bruteforce.check_kts(trials=5)}
    assert rows["KTS level cut vs full cap"] is False
    assert rows["KTS tables vs reference loop"] is True


def test_kts_check_fails_when_the_kept_blocks_relax_one_level_fewer(monkeypatch):
    _relaxing_one_level_fewer(monkeypatch, kept=True)
    rows = {name: ok for name, ok, _ in bruteforce.check_kts(trials=5)}
    assert rows["KTS level cut vs full cap"] is False
    assert rows["KTS tables vs reference loop"] is True


def test_kts_check_fails_when_the_unkept_second_sweep_relaxes_one_level_fewer(monkeypatch):
    # the plan with the row on a view too long to keep its cost blocks: only
    # _KEEP_MAX_N + 1 in the check's views
    relax = kts_module._relax

    def one_level_fewer(dp, bp, levels, blocks, row=None):
        second = row is None and blocks.kept is None and levels.start > kts_module._FIRST_LEVELS
        relax(dp, bp, levels[:-1] if second else levels, blocks, row)

    monkeypatch.setattr(kts_module, "_relax", one_level_fewer)
    rows = {name: ok for name, ok, _ in bruteforce.check_kts(trials=5)}
    assert rows["KTS level cut vs full cap"] is False


def test_kts_check_fails_when_the_bound_keeps_one_level_fewer(monkeypatch):
    bound = kts_module._levels_that_can_win
    monkeypatch.setattr(kts_module, "_levels_that_can_win", lambda *args: bound(*args) - 1)
    rows = {name: ok for name, ok, _ in bruteforce.check_kts(trials=5)}
    assert rows["KTS level cut vs full cap"] is False


@pytest.mark.parametrize("kept", [False, True])
def test_kts_check_fails_when_the_bound_keeps_one_level_fewer_on_one_plan(monkeypatch, kept):
    # on the views of one plan only; on kept blocks the bound can drop to 0
    # levels, and level 1, relaxed before it, still holds
    bound = kts_module._levels_that_can_win

    def one_fewer(row, *args):
        n = len(row.start) - 1
        return bound(row, *args) - ((n <= kts_module._KEEP_MAX_N) == kept)

    monkeypatch.setattr(kts_module, "_levels_that_can_win", one_fewer)
    rows = {name: ok for name, ok, _ in bruteforce.check_kts(trials=5)}
    assert rows["KTS level cut vs full cap"] is False


def test_kts_check_fails_when_the_row_skips_in_block_starts(monkeypatch):
    # without its in-block passes the row's F is too high, so G is no lower
    # bound: its bits differ from the reference's and levels that win are cut
    monkeypatch.setattr(kts_module._LinearPenaltyRow, "_settle_in_block", lambda self, *args: None)
    rows = {name: ok for name, ok, _ in bruteforce.check_kts(trials=5)}
    assert rows["KTS level cut vs full cap"] is False


def test_kts_check_fails_when_the_cut_reads_an_end_anchored_block(monkeypatch):
    # block_costs(n, n + 1) is the same segment's scatter anchored at end n;
    # on views with a large common offset its bits differ from the table's
    single_segment = kts_module._single_segment
    monkeypatch.setattr(
        kts_module, "_single_segment",
        lambda table: (single_segment(table)[0],
                       float(table.block_costs(table.n, table.n + 1)[0, 0])),
    )
    rows = {name: ok for name, ok, _ in bruteforce.check_kts(trials=5)}
    assert rows["KTS level cut vs full cap"] is False


class _SpyNumpy:
    """numpy, except that ``add`` records the 2-D arrays it writes: the
    relaxation's ``totals`` scratch, whose rows the argmin then reads."""

    def __init__(self):
        self.seen = {}

    def __getattr__(self, name):
        return getattr(np, name)

    def add(self, *args, out=None, **kwargs):
        if out is not None and out.ndim == 2:
            self.seen.setdefault(out.shape, []).append(
                (out.flags.c_contiguous, out.ctypes.data % 64, out.strides))
        return np.add(*args, out=out, **kwargs)


def test_relaxation_block_is_contiguous_and_cache_line_aligned(monkeypatch):
    spy = _SpyNumpy()
    monkeypatch.setattr(kts_module, "np", spy)
    for n in (40, 64, 65, 200):
        x = np.random.default_rng(n).normal(size=(n, 3))
        spy.seen.clear()
        dp_tables(_ScatterTable(x), 6)
        lows = range(1, n + 1, 64)
        assert sorted(spy.seen) == sorted((min(lo + 64, n + 1) - lo, min(lo + 63, n)) for lo in lows)
        for (rows, width), arrays in spy.seen.items():
            for contiguous, offset, strides in arrays:
                assert contiguous and offset == 0 and strides == (8 * width, 8)
            if rows == 64:  # a full block: every row starts on a cache line
                assert width % 8 == 0


@pytest.mark.parametrize("n", [63, 64, 65, 128, 129, 193])
def test_dp_tables_match_reference_loop_bitwise_around_block_edges(n):
    rng = np.random.default_rng(n)
    _assert_tables_match_reference(rng.normal(size=(n, 4)), n // 4 + 1)
    _assert_tables_match_reference(rng.normal(size=(n, 2)) + 50.0, n // 6 + 1)


@pytest.mark.parametrize("n, seed", [(300, 21), (600, 22)])
def test_level_cut_equals_full_cap_on_synth_views(n, seed):
    config = synth.SynthConfig(
        num_views=3, num_steps=n, feature_dim=16, num_events=5,
        event_length_min=6, event_length_max=9, seed=seed,
    )
    x = np.asarray(synth.generate(config)[0].view(0), dtype=float)
    cap = default_max_segments(n)
    tables = dp_tables(_ScatterTable(x), cap)  # bitwise the reference loop's
    relaxed = []
    for penalty in (0.0, 1e-6, 0.05, 1.0, 10.0):
        result = kts(x, cap, penalty)
        assert result == bruteforce.reference_kts(tables, cap, penalty)
        relaxed.append(result.levels_relaxed)
    # nothing is cut at penalties 0 and 1e-6 on these views; the bound
    # leaves at most the first sweep's levels at 0.05; 1 and 10 cut levels
    assert relaxed[:2] == [cap] * 2
    assert relaxed[2] <= kts_module._FIRST_LEVELS
    assert cap > relaxed[3] > relaxed[4]


def test_long_view_at_the_benchmark_penalty_relaxes_the_first_levels_only():
    # the benchmark's protocol: events spread over three views
    config = synth.SynthConfig(
        num_views=3, num_steps=2000, feature_dim=16, num_events=5, event_length_min=6,
        event_length_max=9, overlap_mode="independent", noise_sigma=0.05, seed=23,
    )
    x = np.asarray(synth.generate(config)[0].view(0), dtype=float)
    cap = default_max_segments(2000)
    assert cap == 134
    result = kts(x, cap, 0.05)
    assert result == bruteforce.reference_kts(dp_tables(_ScatterTable(x), cap), cap, 0.05)
    assert result.levels_relaxed <= kts_module._FIRST_LEVELS


@pytest.mark.parametrize("n, beta", [(40, 0.3), (200, 0.3), (200, 1e-9), (130, 2.0)])
def test_linear_penalty_row_matches_reference_bitwise(n, beta):
    # one block and several; beta = 1e-9 splits every frame, so an
    # in-block pass may settle only one end
    rng = np.random.default_rng(n)
    centers = rng.normal(size=(6, 3)) * 3
    x = np.repeat(centers, np.diff(np.linspace(0, n, 7).astype(int)), axis=0)
    x += 0.2 * rng.normal(size=x.shape)
    table = _ScatterTable(x)
    row = kts_module._LinearPenaltyRow(n, beta)
    kts_module._relax(*kts_module._empty_tables(n, 0), range(1, 1),
                      kts_module._CostBlocks(table, kts_module._single_segment(table)[0]), row)
    assert np.float64(row.total).tobytes() == np.float64(
        bruteforce.reference_linear_penalty(table, beta)).tobytes()
    change_points, cost = row.segmentation()
    assert row.total == pytest.approx(cost + beta * change_points, rel=1e-12)


def _record_sweeps(monkeypatch):
    """A list that each ``_relax`` call kts makes appends (levels, row?) to."""
    sweeps = []
    relax = kts_module._relax

    def recording(dp, bp, levels, blocks, row=None):
        sweeps.append((levels, row is not None))
        relax(dp, bp, levels, blocks, row)

    monkeypatch.setattr(kts_module, "_relax", recording)
    return sweeps


def test_row_gives_up_on_noise_and_the_one_sweep_relaxes_every_level(monkeypatch):
    x = np.random.default_rng(8).normal(size=(300, 4))
    cap = default_max_segments(300)
    sweeps = _record_sweeps(monkeypatch)
    result = kts(x, cap, 0.05)
    # K15 is the whole cap, enough levels for the row, yet the plan has none
    assert cap > kts_module._FIRST_LEVELS + kts_module._ROW_COST_LEVELS
    assert sweeps == [(range(1, cap + 1), False)]
    assert result.levels_relaxed == cap
    assert result == bruteforce.reference_kts(dp_tables(_ScatterTable(x), cap), cap, 0.05)


def _count_block_costs(monkeypatch):
    """A Counter that each ``block_costs`` call adds its (lo, hi) to."""
    calls = Counter()
    block_costs = _ScatterTable.block_costs

    def counting(self, lo, hi, out=None, scratch=None):
        calls[lo, hi] += 1
        return block_costs(self, lo, hi, out, scratch)

    monkeypatch.setattr(_ScatterTable, "block_costs", counting)
    return calls


def _planted_view(n, seed=300):
    config = synth.SynthConfig(
        num_views=1, num_steps=n, feature_dim=16, num_events=5, event_length_min=6,
        event_length_max=9, noise_sigma=0.05, seed=seed,
    )
    return synth.generate(config)[0].view(0).astype(float)


def test_plan_with_the_row_sweeps_the_first_levels_then_the_kept_ones(monkeypatch):
    # a view too long to keep its cost blocks: the second sweep computes
    # every block but the final one again
    n = 700
    assert n > kts_module._KEEP_MAX_N
    x = _planted_view(n)
    sweeps = _record_sweeps(monkeypatch)
    calls = _count_block_costs(monkeypatch)
    result = kts(x, 20, 0.05)
    first = kts_module._FIRST_LEVELS
    assert first < result.levels_relaxed < 20
    assert sweeps == [(range(1, first + 1), True),
                      (range(first + 1, result.levels_relaxed + 1), False)]
    final = kts_module._final_lo(n)
    assert calls == {**{(lo, lo + 64): 2 for lo in range(1, final, 64)}, (final, n + 1): 1}
    assert result == bruteforce.reference_kts(dp_tables(_ScatterTable(x), 20), 20, 0.05)


def test_kept_plan_sweeps_level_one_with_the_row_then_the_kept_levels(monkeypatch):
    # the same planted events on a view short enough to keep its cost
    # blocks: each is computed once, and the second sweep reads them
    n = 300
    x = _planted_view(n)
    sweeps = _record_sweeps(monkeypatch)
    calls = _count_block_costs(monkeypatch)
    result = kts(x, 20, 0.05)
    assert 1 < result.levels_relaxed < 20
    assert sweeps == [(range(1, 2), True), (range(2, result.levels_relaxed + 1), False)]
    assert calls == {(lo, min(lo + 64, n + 1)): 1 for lo in range(1, n + 1, 64)}
    assert result == bruteforce.reference_kts(dp_tables(_ScatterTable(x), 20), 20, 0.05)


def test_long_view_at_the_default_penalty_sweeps_its_first_levels_once(monkeypatch):
    # past _KEEP_MAX_N at penalty 1.0, the CLI default: the bound keeps more
    # than level 1 but no more than the first sweep's _FIRST_LEVELS, so one
    # sweep computes each cost block once; a first sweep of level 1 alone
    # would need a second sweep that computes them again
    n = 1000
    assert n > kts_module._KEEP_MAX_N
    x = _planted_view(n, seed=301)
    cap = default_max_segments(n)
    sweeps = _record_sweeps(monkeypatch)
    calls = _count_block_costs(monkeypatch)
    bound, kept = kts_module._levels_that_can_win, []
    monkeypatch.setattr(kts_module, "_levels_that_can_win",
                        lambda *args: kept.append(bound(*args)) or kept[-1])
    result = kts(x, cap, 1.0)
    first = kts_module._FIRST_LEVELS
    assert len(kept) == 1 and 1 < kept[0] <= first
    assert sweeps == [(range(1, first + 1), True)]
    assert result.levels_relaxed == first
    assert calls == {(lo, min(lo + 64, n + 1)): 1 for lo in range(1, n + 1, 64)}
    assert result == bruteforce.reference_kts(dp_tables(_ScatterTable(x), cap), cap, 1.0)


def _final_tables(monkeypatch):
    """A list that each ``_relax`` call kts makes appends its (dp, bp) to:
    the last pair holds the levels relaxed."""
    tables = []
    relax = kts_module._relax

    def recording(dp, bp, levels, blocks, row=None):
        relax(dp, bp, levels, blocks, row)
        tables.append((dp, bp))

    monkeypatch.setattr(kts_module, "_relax", recording)
    return tables


@pytest.mark.parametrize("n", [300, 600, kts_module._KEEP_MAX_N, kts_module._KEEP_MAX_N + 1])
def test_every_plan_relaxes_levels_bitwise_the_reference_loops(monkeypatch, n):
    # the benchmark's protocol around the keep bound: at 0.05 and 1.0 the
    # plan with the row runs, kept up to _KEEP_MAX_N; 1e-9 takes one sweep
    config = synth.SynthConfig(
        num_views=1, num_steps=n, feature_dim=16, num_events=5, event_length_min=6,
        event_length_max=9, overlap_mode="independent", noise_sigma=0.05, seed=n,
    )
    x = np.asarray(synth.generate(config)[0].view(0), dtype=float)
    cap = default_max_segments(n)
    ref = bruteforce.reference_dp_tables(_ScatterTable(x), cap)
    tables, plans = _final_tables(monkeypatch), []
    plan = kts_module._plan
    monkeypatch.setattr(kts_module, "_plan", lambda *args: plans.append(plan(*args)) or plans[-1])
    for penalty in (1e-9, 0.05, 1.0):
        tables.clear()
        result = kts(x, cap, penalty)
        assert result == bruteforce.reference_kts(ref, cap, penalty)
        dp, bp = tables[-1]
        levels = slice(1, result.levels_relaxed + 1)
        assert np.array_equal(dp[levels], ref[0][levels])
        assert np.array_equal(bp[levels], ref[1][levels])
    keep = n <= kts_module._KEEP_MAX_N
    assert [(row is not None, kept) for row, kept in plans] == [
        (False, False), (True, keep), (True, keep)]


def test_kept_blocks_hold_a_call_within_eight_blocks():
    # the longest view that keeps its cost blocks: 5.5 blocks of 64 x N,
    # the relaxation scratch and the final block's copy make the rest
    n = kts_module._KEEP_MAX_N
    x = _planted_view(n, seed=201)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        result = kts(x, math.ceil(n / 15), 0.05)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert 1 < result.levels_relaxed < math.ceil(n / 15)
    assert 6 * 64 * n * 8 < peak < 8 * 64 * n * 8


def test_kts_tables_hold_the_levels_relaxed_not_the_cap():
    # at N = 4000 the cap's 267 dp and bp levels alone would take 16 MiB;
    # the plan relaxes 8 levels, then grows the tables to the 11 the bound
    # keeps, so the peak is the few 64 x N arrays of one DP block
    n = 4000
    config = synth.SynthConfig(
        num_views=1, num_steps=n, feature_dim=16, num_events=5, event_length_min=6,
        event_length_max=9, noise_sigma=0.05, seed=201,
    )
    x = synth.generate(config)[0].view(0).astype(float)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        result = kts(x, math.ceil(n / 15), 0.05)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()
    assert kts_module._FIRST_LEVELS < result.levels_relaxed < math.ceil(n / 15)
    assert peak < 8 * 64 * n * 8


def _first_block_views():
    rng = np.random.default_rng(5)
    config = synth.SynthConfig(
        num_views=1, num_steps=300, feature_dim=16, num_events=5, event_length_min=6,
        event_length_max=9, noise_sigma=0.05, seed=21,
    )
    return {
        "noise": rng.normal(size=(300, 4)),
        "synth": synth.generate(config)[0].view(0).astype(float),
        "runs": np.repeat(rng.integers(-2, 3, size=(12, 3)).astype(float), 25, axis=0),
    }


@pytest.mark.parametrize("kind", ["noise", "synth", "runs"])
@pytest.mark.parametrize("beta", [0.05, 1.0, 10.0])
def test_row_pays_applies_the_rule_to_the_first_cost_blocks_pairs(kind, beta):
    # the rule as the first block's cost grid gives it: c(e - 2, e) for its
    # ends e >= 2, more above beta than cap * 63 / N of them means no row
    x = _first_block_views()[kind]
    pairs = _ScatterTable(x).block_costs(1, 65)[np.arange(1, 64), np.arange(63)]
    expected = np.count_nonzero(pairs > beta) * 300 <= 20 * 63
    assert kts_module._row_pays(x, beta, 20) == expected
    assert kts_module._row_pays(x[:64], beta, 1)  # one block: always


def test_levels_relaxed_is_not_part_of_equality():
    a = SegmentationResult(change_points=(3,), objective=1.5, levels_relaxed=4)
    b = SegmentationResult(change_points=(3,), objective=1.5, levels_relaxed=20)
    assert a == b and hash(a) == hash(b)


def test_single_frame_and_cap_above_num_frames():
    result = kts(np.array([[2.0, -1.0]]), max_segments=5)
    assert (result.change_points, result.num_segments, result.objective) == ((), 1, 0.0)
    assert kts_fixed_m(np.array([[2.0, -1.0]]), 0) == ([], 0.0)

    x = np.array([[0.0], [3.0], [7.0], [12.0]])
    capped = kts(x, max_segments=4, penalty_coeff=0.0)
    assert kts(x, max_segments=100, penalty_coeff=0.0) == capped
    assert capped.change_points == (1, 2, 3)


def _brute_penalized_choice(x, max_segments, penalty_coeff):
    """The change-point count minimizing exhaustive cost + penalty (ties
    within round-off go to fewer change points), and its unpenalized cost."""
    n = x.shape[0]
    costs = [bruteforce.exhaustive_segmentation(x, m)[1] for m in range(min(max_segments, n))]
    values = [costs[0]] + [
        c + penalty_coeff * m * (math.log(n / m) + 1.0) for m, c in enumerate(costs) if m
    ]
    best = min(values)
    m = next(m for m, v in enumerate(values) if v <= best + 1e-9 * max(1.0, abs(best)))
    return m, costs[m]


def test_penalized_choice_matches_enumeration():
    rng = np.random.default_rng(4)
    inputs = [rng.normal(size=(int(rng.integers(1, 11)), 2)) for _ in range(25)]
    # tie-heavy: every split of all-zero frames costs 0; constant blocks
    # reach cost 0 at two change points and stay there
    inputs += [np.zeros((8, 2)), np.repeat([[0.0], [4.0], [4.0], [-2.0]], [3, 2, 2, 3], axis=0)]
    for x in inputs:
        for max_segments in (1, 3, 12):
            for penalty_coeff in (0.0, 0.05, 1.0):
                result = kts(x, max_segments, penalty_coeff)
                brute_m, brute_cost = _brute_penalized_choice(x, max_segments, penalty_coeff)
                assert result.num_segments - 1 == brute_m
                assert result.objective == pytest.approx(brute_cost, rel=1e-9, abs=1e-9)


def test_penalized_selection_finds_planted_boundaries():
    rng = np.random.default_rng(2)
    centers = np.array([[0.0, 0.0], [6.0, 6.0], [-6.0, 6.0]])
    x = np.concatenate(
        [center + 0.1 * rng.normal(size=(8, 2)) for center in centers]
    )
    result = kts(x, max_segments=6, penalty_coeff=1.0)
    assert result.num_segments == 3
    assert result.change_points == (8, 16)


def test_penalized_selection_prefers_single_segment():
    # constant signal: any extra change point only pays penalty
    result = kts(np.ones((20, 3)), max_segments=5, penalty_coeff=1.0)
    assert result.num_segments == 1
    assert result.change_points == ()
    # zero penalty still prefers fewer cuts on cost ties
    assert kts(np.ones((20, 3)), max_segments=5, penalty_coeff=0.0).num_segments == 1


def test_penalized_objective_is_unpenalized_scatter():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(15, 2))
    result = kts(x, max_segments=4, penalty_coeff=0.5)
    bounds = [0, *result.change_points, 15]
    direct = sum(_scatter(x[a:b]) for a, b in zip(bounds, bounds[1:]))
    assert result.objective == pytest.approx(direct, rel=1e-9)


def test_shot_list_conversion():
    result = SegmentationResult(change_points=(3, 7), objective=0.0)
    assert result.num_segments == 3  # read off the change points, not stored beside them
    shots = result.shot_list(10)
    assert shots.boundaries == (3, 7, 10)
    assert shots.num_shots == 3


@pytest.mark.parametrize("scale, n", [(1e200, 10), (1e153, 100)])
def test_kts_rejects_features_whose_scatter_sums_overflow(scale, n):
    # at 1e200 the squared norms overflow, at 1e153 only the cost blocks'
    # products would: both gave a nan or inf - inf block, and 1e200 an
    # objective of nan
    x = np.full((n, 1), scale)
    x[n // 2 :] = -scale
    with pytest.raises(DataError, match="features too large"):
        kts(x, 3, 1.0)


def test_kts_validation():
    with pytest.raises(ConfigError):
        kts(np.zeros((5, 2)), max_segments=0)
    with pytest.raises(ConfigError):
        kts(np.zeros((5, 2)), max_segments=3, penalty_coeff=-1.0)
    for value in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="finite"):
            kts(np.zeros((5, 2)), max_segments=5, penalty_coeff=value)
    for value in ("1", None, True, np.bool_(True), [1.0], 1j, np.complex128(1.0)):
        with pytest.raises(ConfigError, match="penalty_coeff must be a finite real number >= 0"):
            kts(np.zeros((5, 2)), max_segments=3, penalty_coeff=value)
    x = np.arange(10.0).reshape(5, 2)
    assert kts(x, 3, 1) == kts(x, 3, np.float64(1.0)) == kts(x, 3, 1.0)
    y = np.random.default_rng(0).normal(size=(300, 8))
    assert kts(y, 20, np.float32(0.05)) == kts(y, 20, float(np.float32(0.05)))
    with pytest.raises(ValidationError):
        kts(np.zeros(5), max_segments=2)
    for value in (2.5, "3", True, None):
        with pytest.raises(ConfigError, match="max_segments must be an integer"):
            kts(np.zeros((5, 2)), max_segments=value)
    assert kts(np.zeros((5, 2)), max_segments=np.int64(3)) == kts(np.zeros((5, 2)), max_segments=3)
    for value in (2.5, "3", True, None):
        with pytest.raises(ConfigError, match="num_change_points must be an integer"):
            kts_fixed_m(x, value)
    assert kts_fixed_m(x, np.int64(2)) == kts_fixed_m(x, 2)
    with pytest.raises(ValidationError):
        kts_fixed_m(x, 5)
