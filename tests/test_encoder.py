import dataclasses
import tracemalloc

import numpy as np
import pytest

from mdpp import bruteforce, encoder, multi_dpp, synth, training
from mdpp.bruteforce import both_heads, param_count
from mdpp.data_model import MultiViewSequence, Summary, TrainingExample
from mdpp.encoder import ModelParams, from_vector, init_params, to_vector
from mdpp.errors import ConfigError, NumericError, ShapeError, ValidationError


def _sequence(rng, m, n, d):
    return MultiViewSequence(
        sequence_id="s", features=rng.normal(size=(m, n, d)).astype(np.float32)
    )


def _targets(rng, m, n, steps):
    y = np.zeros((m, n), dtype=np.uint8)
    for t in steps:
        views = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)
        y[views, t] = 1
    return y


def _loss_and_grad(params, seq, y, *, lam=1.0):
    """One sequence's loss parts and flat gradient."""
    parts, grad = encoder.batch_loss(params, [TrainingExample(seq, y)], lam=lam)
    return parts[0], grad


def _evaluate_loss(params, seq, y, *, lam=1.0):
    """One sequence's loss parts, without the gradient."""
    return encoder.batch_loss(params, [TrainingExample(seq, y)], lam=lam, with_grad=False)[0][0]


def test_param_count_closed_form():
    assert param_count(3, 4, 3) == 372
    assert param_count(2, 3, 2) == 210
    assert init_params(3, hidden_size=4, output_dim=3).count() == 372


def test_param_count_independent_of_views():
    rng = np.random.default_rng(0)
    params = init_params(3, hidden_size=4, output_dim=3, seed=1)
    counts = set()
    for m in (1, 2, 3):
        seq = _sequence(rng, m, 5, 3)
        y = _targets(rng, m, 5, (1, 3))
        _, grad = _loss_and_grad(params, seq, y)
        counts.add(grad.size)
    assert counts == {372}


def test_init_is_deterministic_and_bounded():
    a = init_params(3, hidden_size=4, output_dim=5, seed=7)
    b = init_params(3, hidden_size=4, output_dim=5, seed=7)
    np.testing.assert_array_equal(to_vector(a), to_vector(b))
    c = init_params(3, hidden_size=4, output_dim=5, seed=8)
    assert not np.array_equal(to_vector(a), to_vector(c))

    d, h, s = 3, 4, 3 + 2 * 4
    fan_in = {
        "lstm_wx": d + h, "lstm_wh": d + h, "lstm_b": d + h,
        "feat_w1": s, "feat_b1": s, "feat_w2": h, "feat_b2": h,
        "qual_w1": s, "qual_b1": s, "qual_w2": h, "qual_b2": h,
    }
    for name, arr in a.named_arrays():
        assert np.abs(arr).max() <= 1.0 / np.sqrt(fan_in[name])


def test_init_draw_order():
    # the LSTM tensors are drawn one direction at a time (Wx, Wh, b), then
    # the heads; changing the order changes every seed's initial weights
    d, h, dp = 3, 4, 5
    params = init_params(d, hidden_size=h, output_dim=dp, seed=11)
    rng = np.random.default_rng(11)
    s = d + 2 * h
    expected = [
        (params.lstm_wx[0], d + h), (params.lstm_wh[0], d + h), (params.lstm_b[0], d + h),
        (params.lstm_wx[1], d + h), (params.lstm_wh[1], d + h), (params.lstm_b[1], d + h),
        (params.feat_w1, s), (params.feat_b1, s), (params.feat_w2, h), (params.feat_b2, h),
        (params.qual_w1, s), (params.qual_b1, s), (params.qual_w2, h), (params.qual_b2, h),
    ]
    for arr, fan_in in expected:
        bound = 1.0 / np.sqrt(fan_in)
        np.testing.assert_array_equal(arr, rng.uniform(-bound, bound, size=arr.shape))


def test_init_rejects_bad_dimensions():
    with pytest.raises(ConfigError):
        init_params(0, hidden_size=4, output_dim=3)
    for dims in [(16.0, 16, 64), ("16", 16, 64), (16, 16, None), (True, 16, 64)]:
        with pytest.raises(ConfigError, match="(input_dim|output_dim) must be an integer >= 1"):
            init_params(*dims)


def test_vector_roundtrip():
    params = init_params(2, hidden_size=3, output_dim=2, seed=3)
    vec = to_vector(params)
    assert vec.shape == (param_count(2, 3, 2),)
    back = from_vector(params, vec)
    for (_, a), (_, b) in zip(params.named_arrays(), back.named_arrays()):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(ShapeError):
        from_vector(params, vec[:-1])


def test_params_shape_validation():
    params = init_params(2, hidden_size=3, output_dim=2)
    values = dict(params.named_arrays())
    values["lstm_b"] = np.zeros((2, 5))
    with pytest.raises(ShapeError):
        ModelParams(**values)


def test_forward_output_shapes_and_ranges():
    rng = np.random.default_rng(1)
    params = init_params(3, hidden_size=4, output_dim=5, seed=0)
    seq = _sequence(rng, 2, 7, 3)
    trace = both_heads(params, seq)
    assert trace.streams.features.shape == (2, 7, 5)
    assert trace.streams.quality.shape == (2, 7)
    assert trace.spatiotemporal.shape == (2, 7, 3 + 2 * 4)
    np.testing.assert_allclose(
        np.linalg.norm(trace.streams.features, axis=2), 1.0, atol=1e-12
    )
    assert ((trace.streams.quality > 0) & (trace.streams.quality < 1)).all()


def test_forward_rejects_dim_mismatch():
    params = init_params(3, hidden_size=4, output_dim=5)
    seq = _sequence(np.random.default_rng(0), 1, 4, 2)
    with pytest.raises(ShapeError):
        both_heads(params, seq)


def test_views_share_weights():
    # duplicating a view must duplicate its outputs exactly
    rng = np.random.default_rng(2)
    params = init_params(3, hidden_size=4, output_dim=4, seed=0)
    view = rng.normal(size=(1, 6, 3)).astype(np.float32)
    seq = MultiViewSequence(sequence_id="dup", features=np.concatenate([view, view]))
    trace = both_heads(params, seq)
    np.testing.assert_array_equal(trace.streams.features[0], trace.streams.features[1])
    np.testing.assert_array_equal(trace.streams.quality[0], trace.streams.quality[1])

    solo = both_heads(params, MultiViewSequence(sequence_id="one", features=view))
    np.testing.assert_array_equal(solo.streams.quality[0], trace.streams.quality[0])


def test_target_validation():
    rng = np.random.default_rng(3)
    params = init_params(3, hidden_size=4, output_dim=4)
    seq = _sequence(rng, 2, 5, 3)
    with pytest.raises(ValidationError):
        _loss_and_grad(params, seq, np.zeros((2, 4), dtype=int))
    bad = np.zeros((2, 5), dtype=int)
    bad[0, 1] = 2
    with pytest.raises(ValidationError):
        _loss_and_grad(params, seq, bad)
    y = np.zeros((2, 5), dtype=int)
    y[0, 1] = 1
    # lam and with_grad are keyword-only: a positional step list is not read as lam
    examples = [TrainingExample(seq, y)]
    with pytest.raises(TypeError):
        encoder.batch_loss(params, examples, (1,))
    with pytest.raises(TypeError):
        encoder.batch_loss(params, examples, 1.0, False)


def test_loss_matches_evaluate_loss():
    rng = np.random.default_rng(4)
    params = init_params(3, hidden_size=4, output_dim=4, seed=2)
    seq = _sequence(rng, 2, 6, 3)
    y = _targets(rng, 2, 6, (0, 4))
    for lam in (0.0, 1.0, 0.5):
        loss, _ = _loss_and_grad(params, seq, y, lam=lam)
        parts = _evaluate_loss(params, seq, y, lam=lam)
        assert loss.total == pytest.approx(parts.total, rel=1e-12)
        assert parts.total == pytest.approx(parts.bce + lam * parts.dpp_nll, rel=1e-12)


def test_zero_probability_target_raises():
    rng = np.random.default_rng(5)
    params = init_params(3, hidden_size=4, output_dim=2, seed=0)
    seq = _sequence(rng, 1, 6, 3)
    y = np.ones((1, 6), dtype=int)  # 6 target steps, rank at most output_dim=2
    with pytest.raises(NumericError):
        _loss_and_grad(params, seq, y)


def _max_rel_err(params, seq, y, h=1e-5, **loss_kwargs):
    _, gvec = _loss_and_grad(params, seq, y, **loss_kwargs)
    vec = to_vector(params)
    worst = 0.0
    for i in range(vec.size):
        plus, minus = vec.copy(), vec.copy()
        plus[i] += h
        minus[i] -= h
        lp = _evaluate_loss(from_vector(params, plus), seq, y, **loss_kwargs).total
        lm = _evaluate_loss(from_vector(params, minus), seq, y, **loss_kwargs).total
        fd = (lp - lm) / (2 * h)
        worst = max(worst, abs(fd - gvec[i]) / max(abs(fd), abs(gvec[i]), 1e-3))
    return worst


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    params = init_params(3, hidden_size=4, output_dim=3, seed=0)
    seq = _sequence(rng, 2, 6, 3)
    y = _targets(rng, 2, 6, (1, 4))
    assert _max_rel_err(params, seq, y, lam=1.0) < 1e-4
    assert _max_rel_err(params, seq, y, lam=0.0) < 1e-4


def _stacked_weights(rng, d, h, scale):
    return (
        scale * rng.normal(size=(2, 4 * h, d)),
        scale * rng.normal(size=(2, 4 * h, h)),
        scale * rng.normal(size=(2, 4 * h)),
    )


def test_lstm_backward_matches_finite_differences():
    # isolates the recurrent layer: loss = weighted sum of both directions' hidden states
    rng = np.random.default_rng(7)
    d, h, m, n = 3, 4, 2, 5
    x = rng.normal(size=(m, n, d))
    wx, wh, b = _stacked_weights(rng, d, h, 0.4)
    weights = rng.normal(size=(n, 2, m, h))

    def total(wx_, wh_, b_):
        hidden = bruteforce.per_direction_layout(encoder._lstm_forward(x, wx_, wh_, b_))["hidden"]
        return float((hidden * weights).sum())

    cache = encoder._lstm_forward(x, wx, wh, b)
    dwx, dwh, db = encoder._lstm_backward(cache, wh, weights, [slice(None)])[0]
    step = 1e-6
    for arr, grad in ((wx, dwx), (wh, dwh), (b, db)):
        flat, gflat = arr.ravel(), grad.ravel()
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + step
            lp = total(wx, wh, b)
            flat[i] = keep - step
            lm = total(wx, wh, b)
            flat[i] = keep
            fd = (lp - lm) / (2 * step)
            assert abs(fd - gflat[i]) < 1e-5 * max(1.0, abs(fd))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fused_lstm_matches_reference_loops(seed):
    rows = bruteforce.check_encoder(trials=40, seed=seed)
    assert [passed for _, passed, _ in rows] == [True, True, True], rows


def test_fused_lstm_single_step_has_zero_recurrent_gradient():
    # N = 1: the dWh product over the hidden states shifted by a step is empty
    rng = np.random.default_rng(8)
    d, h = 3, 4
    x = rng.normal(size=(1, 1, d))
    wx, wh, b = _stacked_weights(rng, d, h, 1.0)
    grad_hidden = rng.normal(size=(1, 2, 1, h))
    _, (ref_dwx, ref_dwh, ref_db) = bruteforce.reference_bilstm(x, wx, wh, b, grad_hidden)
    cache = encoder._lstm_forward(x, wx, wh, b)
    dwx, dwh, db = encoder._lstm_backward(cache, wh, grad_hidden, [slice(None)])[0]
    assert np.array_equal(dwh, np.zeros_like(wh)) and np.array_equal(ref_dwh, dwh)
    for k in (0, 1):
        assert bruteforce._max_rel_err(dwx[k], ref_dwx[k]) <= 1e-12
        assert bruteforce._max_rel_err(db[k], ref_db[k]) <= 1e-12


def test_fused_lstm_saturated_gates_are_exact():
    # |z| > 40 on half the gate units: tanh(z / 2) gives exactly 0 or 1, the
    # exp-form sigmoid of the reference does not, and both agree in scale
    rng = np.random.default_rng(9)
    m, n, d, h = 2, 6, 3, 4
    x = rng.normal(size=(m, n, d))
    wx, wh, b = _stacked_weights(rng, d, h, 0.5)
    b[:, h // 2 : h] = -50.0  # input gates of half the units: 0
    b[:, 3 * h + h // 2 :] = 50.0  # output gates of the same units: 1
    grad_hidden = rng.normal(size=(n, 2, m, h))
    cache = encoder._lstm_forward(x, wx, wh, b)
    fused = bruteforce.per_direction_layout(cache)
    ref, ref_grads = bruteforce.reference_bilstm(x, wx, wh, b, grad_hidden)
    assert (fused["gates"][..., h // 2 : h] == 0.0).all()
    assert (fused["gates"][..., 3 * h + h // 2 :] == 1.0).all()
    assert (ref["gates"][..., h // 2 : h] > 0.0).all()
    for k in (0, 1):
        for key in ("gates", "cells", "hidden"):
            assert bruteforce._max_rel_err(fused[key][:, k], ref[key][:, k]) <= 1e-14
    grads = encoder._lstm_backward(cache, wh, grad_hidden, [slice(None)])[0]
    for fast, slow in zip(grads, ref_grads):
        for k in (0, 1):
            assert bruteforce._max_rel_err(fast[k], slow[k]) <= 1e-12


class _SpyNumpy:
    """numpy, except that the step loops' ufuncs record each call's name and
    the types of its operands and outputs."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        func = getattr(np, name)
        if name not in ("add", "multiply", "tanh", "matmul"):
            return func

        def call(*args, **kwargs):
            self.calls.append((name, {type(a) for a in (*args, *kwargs.values())}))
            return func(*args, **kwargs)

        return call


@pytest.mark.parametrize("backward", [True, False])
@pytest.mark.parametrize("m", [2, 3])
def test_lstm_forward_ufuncs_take_ndarray_operands_only(monkeypatch, m, backward):
    # a Python-float or NumPy-scalar operand takes numpy's slower scalar path;
    # N = 350 runs two time chunks
    rng = np.random.default_rng(m)
    d, h, n = 5, 4, 350
    x = rng.normal(size=(m, n, d))
    wx, wh, b = _stacked_weights(rng, d, h, 0.5)
    expected = encoder._lstm_forward(x, wx, wh, b, backward)["hidden"]
    spy = _SpyNumpy()
    monkeypatch.setattr(encoder, "np", spy)
    hidden = encoder._lstm_forward(x, wx, wh, b, backward)["hidden"]
    assert np.array_equal(hidden, expected)
    assert {name for name, _ in spy.calls} == {"add", "multiply", "tanh", "matmul"}
    assert len(spy.calls) > 10 * n  # ten per step
    assert set().union(*(kinds for _, kinds in spy.calls)) == {np.ndarray}


def test_encoder_check_fails_on_wrong_gate_order(monkeypatch):
    fused_forward = encoder._lstm_forward

    def swapped_forward(x, wx, wh, b, backward=True):  # input and forget gate blocks exchanged
        h = wh.shape[2]
        perm = np.r_[h : 2 * h, 0:h, 2 * h : 4 * h]
        return fused_forward(x, wx[:, perm], wh[:, perm], b[:, perm], backward)

    monkeypatch.setattr(encoder, "_lstm_forward", swapped_forward)
    rows = bruteforce.check_encoder(trials=10, seed=0)
    # the group row runs the same mutant on both sides, so only the LSTM rows see it
    assert [passed for _, passed, _ in rows[:2]] == [False, False], rows


def _without_time_reversal(fused_forward):
    def forward(x, wx, wh, b, backward=True):  # direction 1 reads the input in forward time
        cache = fused_forward(x, wx, wh, b, backward)
        unreversed = fused_forward(x[:, ::-1], wx, wh, b, backward)
        for key in cache.keys() - {"x"}:
            arr = cache[key]
            direction = (slice(None), slice(None), 1) if key == "gates" else (slice(None), 1)
            arr[direction] = unreversed[key][direction]
        return cache

    return forward


def _forward_weights_only(fused_forward):
    def forward(x, wx, wh, b, backward=True):  # both directions run on the forward weights
        return fused_forward(x, wx[[0, 0]], wh[[0, 0]], b[[0, 0]], backward)

    return forward


def test_encoder_check_fails_when_o_and_g_slabs_swap(monkeypatch):
    # the loops treat slab 0 as the output gate and slab 3 as the cell
    # input; feeding them each other's weights must not pass
    monkeypatch.setattr(encoder, "_GATE_ORDER", (2, 0, 1, 3))
    rows = bruteforce.check_encoder(trials=10, seed=0)
    assert [passed for _, passed, _ in rows[:2]] == [False, False], rows


@pytest.mark.parametrize("mutant", [_without_time_reversal, _forward_weights_only])
def test_encoder_check_fails_on_direction_mixups(monkeypatch, mutant):
    monkeypatch.setattr(encoder, "_lstm_forward", mutant(encoder._lstm_forward))
    rows = bruteforce.check_encoder(trials=10, seed=0)
    assert [passed for _, passed, _ in rows[:2]] == [False, False], rows


def test_encoder_check_fails_when_sequences_read_the_first_columns(monkeypatch):
    heads = encoder._heads

    def first_columns(params, lstm, cols):  # every sequence reads sequence 0's columns
        return heads(params, lstm, slice(0, cols.stop - cols.start))

    monkeypatch.setattr(encoder, "_heads", first_columns)
    rows = bruteforce.check_encoder(trials=10, seed=0)
    assert [passed for _, passed, _ in rows] == [True, True, False], rows


def _shapes(groups):
    return [[(ex.sequence.num_views, ex.sequence.num_steps) for ex in group] for group in groups]


def _items(shapes):
    return [
        TrainingExample(MultiViewSequence("s", np.zeros((m, n, 1), dtype=np.float32)), np.zeros((m, n)))
        for m, n in shapes
    ]


def test_groups_split_where_length_changes():
    shapes = [(1, 5), (2, 5), (1, 7), (1, 7), (3, 7), (1, 5)]
    groups = encoder._groups(_items(shapes))
    assert _shapes(groups) == [shapes[:2], shapes[2:5], shapes[5:]]


def test_groups_hold_at_most_the_view_cap():
    # up to N = 1000 a group holds 12 views, so 3-view sequences of equal
    # length run in fours; past it they run in pairs, so no group holds more
    # view-steps than a pair at N = 2000
    for n in (300, 1000):
        assert _shapes(encoder._groups(_items([(3, n)] * 4))) == [[(3, n)] * 4]
    assert _shapes(encoder._groups(_items([(3, 300)] * 5))) == [[(3, 300)] * 4, [(3, 300)]]
    for n in (1001, 2000):
        assert _shapes(encoder._groups(_items([(3, n)] * 4))) == [[(3, n)] * 2] * 2
    # a sequence over the cap runs alone, and no sequence joins it
    for shapes in ([(1, 50), (13, 50), (1, 50)], [(1, 1500), (7, 1500), (1, 1500)]):
        assert _shapes(encoder._groups(_items(shapes))) == [[shape] for shape in shapes]
    shapes = [(3, 700), (1, 700), (1, 700), (8, 700), (3, 2000)]
    assert _shapes(encoder._groups(_items(shapes))) == [shapes[:3], [shapes[3]], [shapes[4]]]
    assert encoder._groups([]) == []


def test_pair_is_bitwise_its_sequences_run_alone():
    # each sequence's LSTM weight gradient is summed over its own views, so
    # a pair's parts and summed gradient are those of two one-example batch_loss calls
    rng = np.random.default_rng(19)
    params = init_params(16, hidden_size=16, output_dim=64, seed=5)
    pair = [
        TrainingExample(
            _sequence(rng, 3, 600, 16), _targets(rng, 3, 600, rng.choice(600, 20, replace=False))
        )
        for _ in range(2)
    ]
    flat, grads = encoder._zero_grads(params)
    parts = encoder._loss(params, pair, 1.0, grads)
    alone = [encoder.batch_loss(params, [ex], lam=1.0) for ex in pair]
    assert parts == [part for [part], _ in alone]
    np.testing.assert_array_equal(flat, alone[0][1] + alone[1][1])


def _traced_peak(fn, *args):
    """Bytes ``fn(*args)`` held at its peak above what was held on entry."""
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - entry
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("m, n", [(6, 1000), (12, 300)])
def test_lstm_backward_holds_at_most_two_blocks(m, n):
    # dz is written into the gate cache; each of the backward's time chunks,
    # at most 2 _FACTOR_CHUNK - 1 steps at every N, takes a copy of its f
    # and one gate block of scratch for its factors, and dWx one
    # two-direction copy of the input after the loop
    rng = np.random.default_rng(3)
    d, h = 4, 16
    x = rng.normal(size=(m, n, d))
    wx, wh, b = _stacked_weights(rng, d, h, 0.4)
    cache = encoder._lstm_forward(x, wx, wh, b)
    grad_hidden = rng.normal(size=(n, 2, m, h))
    block = grad_hidden.nbytes
    longest = max(hi - lo for lo, hi in encoder._time_chunks(n, encoder._FACTOR_CHUNK))
    assert longest < 2 * encoder._FACTOR_CHUNK
    chunk_block = longest * 2 * m * h * 8
    # per-step buffers, numpy's iterator buffers for three strided operands,
    # and the per-view dWx and dWh products before their sums
    allowance = 4 * 2 * m * h * 8 + 3 * np.getbufsize() * 8 + 2 * m * 4 * h * (d + h) * 8
    peak = _traced_peak(
        encoder._lstm_backward, cache, wh, grad_hidden, [slice(0, m // 2), slice(m // 2, m)]
    )
    assert peak <= 2 * chunk_block + 2 * x.nbytes + allowance, peak / block


@pytest.mark.parametrize("backward", [True, False])
def test_lstm_forward_holds_its_cache_and_one_chunk_of_input(backward):
    # each time chunk's two-direction input is copied into one chunk-sized
    # buffer; no copy of the whole input lives beside the cache. Without a
    # backward the gate rows are one chunk long
    rng = np.random.default_rng(4)
    m, n, d, h = 6, 1000, 16, 16
    x = rng.normal(size=(m, n, d))
    wx, wh, b = _stacked_weights(rng, d, h, 0.4)
    peak = _traced_peak(encoder._lstm_forward, x, wx, wh, b, backward)
    longest = max(hi - lo for lo, hi in encoder._time_chunks(n, encoder._TIME_CHUNK))
    gate_rows = n + 1 if backward else longest
    cache = (4 * gate_rows + 2 * (n + 1)) * 2 * m * h * 8  # gates, cells and hidden states
    buffer = 2 * m * longest * d * 8
    # per-step buffers, the permuted weight blocks and their temporaries,
    # and one numpy iterator buffer
    allowance = 5 * 2 * m * h * 8 + 2 * (wx.nbytes + wh.nbytes) + np.getbufsize() * 8
    assert peak <= cache + buffer + allowance, (peak - cache) / buffer


@pytest.mark.parametrize("n", [159, 160, 320, 481, 2000])
def test_no_grad_forward_is_bitwise_the_cached_one(n):
    # without a backward the gate rows share one chunk-sized buffer and only
    # x and the hidden states are returned; chunks of 159-319 steps, one or
    # several, and a buffer longer than the last chunk give the same bits
    rng = np.random.default_rng(n)
    x = rng.normal(size=(3, n, 16))
    wx, wh, b = _stacked_weights(rng, 16, 16, 0.4)
    cached = encoder._lstm_forward(x, wx, wh, b)
    no_grad = encoder._lstm_forward(x, wx, wh, b, backward=False)
    assert no_grad.keys() == {"x", "hidden"}
    np.testing.assert_array_equal(no_grad["hidden"], cached["hidden"])


@pytest.mark.parametrize("m, n", [(1, 7), (3, 600), (2, 481)])
def test_quality_scores_are_bitwise_the_forward_quality(m, n):
    rng = np.random.default_rng(m * n)
    params = init_params(16, hidden_size=16, output_dim=64, seed=m)
    sequence = _sequence(rng, m, n, 16)
    scores = encoder.quality_scores(params, sequence)
    np.testing.assert_array_equal(scores, both_heads(params, sequence).streams.quality)
    with pytest.raises(ShapeError):
        encoder.quality_scores(params, _sequence(rng, m, n, 8))


def _lstm_case(rng, m, n):
    """One LSTM group's (x, weights, dLoss/dh, column slices) at D = H = 16;
    m = 1 is a lone view with ``_stacked_lstm``'s zero second view, and 6
    views are two 3-view sequences."""
    d = h = 16
    x = rng.normal(size=(m, n, d))
    cols = {1: [slice(0, 1)], 3: [slice(0, 3)], 6: [slice(0, 3), slice(3, 6)]}[m]
    if m == 1:
        x = np.concatenate([x, np.zeros_like(x)])
    return x, _stacked_weights(rng, d, h, 0.4), rng.normal(size=(n, 2, x.shape[0], h)), cols


def _run_lstm(x, weights, grad_hidden, cols):
    wx, wh, b = weights
    cache = encoder._lstm_forward(x, wx, wh, b)
    # row N of the gate cache is spare: its bits are never read
    states = [cache["gates"][:-1].copy(), cache["cells"].copy(), cache["hidden"].copy()]
    return states, encoder._lstm_backward(cache, wh, grad_hidden, cols)


@pytest.mark.parametrize("m", [1, 3, 6])
@pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
@pytest.mark.parametrize("chunk", [2, 7, 64, 300])
def test_time_chunks_are_bitwise_one_chunk(monkeypatch, chunk, n, m):
    # the chunks change only when each step's gate rows and factors are
    # made, not their bits; chunk 2 is the smallest, as a one-step input
    # product would round differently (``_time_chunks``)
    case = _lstm_case(np.random.default_rng(1000 * n + m), m, n)
    for name in ("_TIME_CHUNK", "_FACTOR_CHUNK"):
        monkeypatch.setattr(encoder, name, n + 1)
    states, grads = _run_lstm(*case)
    for name in ("_TIME_CHUNK", "_FACTOR_CHUNK"):
        monkeypatch.setattr(encoder, name, chunk)
    chunked_states, chunked_grads = _run_lstm(*case)
    for whole, chunked in zip(states, chunked_states):
        np.testing.assert_array_equal(chunked, whole)
    for whole, chunked in zip(grads, chunked_grads):
        for a, c in zip(whole, chunked):
            np.testing.assert_array_equal(c, a)


@pytest.mark.parametrize("chunk", [2, 3, 7, 128])
def test_time_chunks_split_the_steps_evenly(chunk):
    # no chunk is one step long unless N is (``_time_chunks``)
    for n in range(1, 3 * chunk + 3):
        chunks = encoder._time_chunks(n, chunk)
        assert [lo for lo, _ in chunks] == [0] + [hi for _, hi in chunks[:-1]]
        assert chunks[-1][1] == n
        lengths = {hi - lo for lo, hi in chunks}
        assert max(lengths) - min(lengths) <= 1
        assert lengths == {n} if n < chunk else chunk <= min(lengths) <= max(lengths) < 2 * chunk


def test_batch_loss_matches_per_sequence_calls():
    rng = np.random.default_rng(12)
    params = init_params(3, hidden_size=4, output_dim=5, seed=2)
    batch = []
    for m, n in ((2, 6), (1, 6), (3, 6), (2, 9), (1, 6)):
        steps = tuple(sorted(rng.choice(n, size=2, replace=False).tolist()))
        batch.append(TrainingExample(_sequence(rng, m, n, 3), _targets(rng, m, n, steps)))
    for lam in (0.0, 1.0):
        parts, grad = encoder.batch_loss(params, batch, lam=lam)
        alone = [encoder.batch_loss(params, [ex], lam=lam) for ex in batch]
        # bitwise: every sequence's gradient is summed on its own
        assert [(p.total, p.bce) for p in parts] == [(p.total, p.bce) for [p], _ in alone]
        assert grad.dtype == np.float64 and grad.shape == (params.count(),)
        np.testing.assert_array_equal(grad, sum(g for _, g in alone))
        val, none = encoder.batch_loss(params, batch, lam=lam, with_grad=False)
        assert none is None
        assert val == [
            encoder.batch_loss(params, [ex], lam=lam, with_grad=False)[0][0] for ex in batch
        ]


@pytest.mark.parametrize("n", [50, 300])
def test_lone_view_states_are_bitwise_those_of_a_stack(n):
    # a one-view group runs with a zero second view, so its per-step
    # products take the matrix-matrix path a stacked group takes
    rng = np.random.default_rng(n)
    params = init_params(16, hidden_size=16, output_dim=8, seed=4)
    lone, pair = _sequence(rng, 1, n, 16), _sequence(rng, 2, n, 16)
    alone = encoder._stacked_lstm(params, [lone])
    stacked = encoder._stacked_lstm(params, [lone, pair])
    assert alone["hidden"].shape[2] == 2
    np.testing.assert_array_equal(alone["hidden"][:, :, :1], stacked["hidden"][:, :, :1])
    trace = both_heads(params, lone)
    assert trace.streams.quality.shape == (1, n) and trace.spatiotemporal.shape == (1, n, 48)


def test_lone_view_gradient_matches_finite_differences():
    # the zero view's columns get no gradient into the weights
    rng = np.random.default_rng(7)
    params = init_params(3, hidden_size=4, output_dim=3, seed=1)
    seq = _sequence(rng, 1, 6, 3)
    y = _targets(rng, 1, 6, (1, 4))
    assert _max_rel_err(params, seq, y, lam=1.0) < 1e-4


def test_zero_probability_target_in_a_group_raises_with_rank_hint():
    rng = np.random.default_rng(5)
    params = init_params(3, hidden_size=4, output_dim=2, seed=0)
    first = TrainingExample(_sequence(rng, 1, 6, 3), _targets(rng, 1, 6, (2,)))
    second = TrainingExample(_sequence(rng, 1, 6, 3), np.ones((1, 6), dtype=int))
    assert len(encoder._groups([first, second])) == 1
    with pytest.raises(NumericError, match="output_dim=2"):
        encoder.batch_loss(params, [first, second])


def test_loss_parts_at_lam_zero():
    # training never builds the kernel at lam = 0; validation still reports it
    rng = np.random.default_rng(10)
    params = init_params(3, hidden_size=4, output_dim=4, seed=3)
    seq = _sequence(rng, 2, 6, 3)
    y = _targets(rng, 2, 6, (1, 4))
    parts, _ = _loss_and_grad(params, seq, y, lam=0.0)
    assert np.isnan(parts.dpp_nll) and parts.total == parts.bce
    val = _evaluate_loss(params, seq, y, lam=0.0)
    assert np.isfinite(val.dpp_nll) and val.total == val.bce == parts.bce
    joint, _ = _loss_and_grad(params, seq, y, lam=1.0)
    assert joint.dpp_nll == pytest.approx(val.dpp_nll, rel=1e-12)


@pytest.mark.parametrize("qual_b2, target", [(50.0, 1), (-800.0, 0)])
def test_bce_is_zero_where_scores_saturate_at_the_target(qual_b2, target):
    # the logistic rounds to exactly 1 (or 0); 0 * log 0 must not make nan
    rng = np.random.default_rng(14)
    params = init_params(3, hidden_size=4, output_dim=4, seed=5)
    params = dataclasses.replace(params, qual_b2=np.full_like(params.qual_b2, qual_b2))
    seq = _sequence(rng, 2, 6, 3)
    parts = _evaluate_loss(params, seq, np.full((2, 6), target), lam=0.0)
    assert parts.bce == 0.0


def test_evaluate_loss_gives_inf_for_zero_probability_target():
    rng = np.random.default_rng(5)
    params = init_params(3, hidden_size=4, output_dim=2, seed=0)
    seq = _sequence(rng, 1, 6, 3)
    y = np.ones((1, 6), dtype=int)  # 6 target steps, rank at most output_dim=2
    parts = _evaluate_loss(params, seq, y)
    assert parts.dpp_nll == np.inf and parts.total == np.inf
    with pytest.raises(NumericError, match="output_dim=2"):
        _loss_and_grad(params, seq, y)


def test_params_are_the_weight_arrays_alone():
    import dataclasses

    params = init_params(3, hidden_size=4, output_dim=5, seed=0)
    assert tuple(f.name for f in dataclasses.fields(ModelParams)) == encoder.PARAM_FIELDS
    assert (params.input_dim, params.hidden_size, params.output_dim) == (3, 4, 5)
    with pytest.raises(ShapeError, match="feat_w2 has shape"):
        ModelParams(**{**dict(params.named_arrays()), "feat_w2": np.zeros(5)})


def _planted_example(n, seed):
    """A 3-view, D = 16 synth sequence with its planted summary as targets,
    the benchmark's protocol."""
    config = synth.SynthConfig(
        num_views=3, num_steps=n, feature_dim=16, num_events=5, event_length_min=6,
        event_length_max=9, overlap_mode="independent", noise_sigma=0.05, seed=seed,
    )
    sequence, annotations = synth.generate(config)
    return training.targets_from_summary(sequence, Summary(selections=annotations.users[0][1]))


@pytest.mark.parametrize("n", [300, 2000])
@pytest.mark.parametrize("lam", [1.0, 0.3])
def test_feature_output_gradient_per_view_is_bitwise_the_dense_route(n, lam):
    ex = _planted_example(n, seed=n)
    params = init_params(16, 16, 64, seed=4)
    trace = both_heads(params, ex.sequence)
    m, dp = ex.sequence.num_views, params.output_dim
    # the dense route: every view's routed gradient at once, (M, N, D')
    _, routed, _ = multi_dpp.multi_dpp_log_prob_and_view_grads(trace.streams, ex.steps)
    dense = np.stack([grad.copy() for grad in routed])
    graw = dense.reshape(m * n, dp)
    graw *= -lam
    unit = trace.streams.features.reshape(m * n, dp).copy()
    unit *= np.einsum("rd,rd->r", unit, graw)[:, None]
    graw -= unit
    graw /= trace.feat_norms[:, None]
    _, view_grads, _ = multi_dpp.multi_dpp_log_prob_and_view_grads(trace.streams, ex.steps)
    per_view = encoder._feature_output_grad(trace, view_grads, lam)
    assert per_view.shape == graw.shape and per_view.tobytes() == graw.tobytes()


@pytest.mark.parametrize("n, count, groups, mib", [
    (2000, 2, 1, 32), (2000, 4, 2, 32), (1000, 4, 1, 32), (300, 4, 1, 9),
])
def test_long_batch_holds_no_dense_routed_gradient(n, count, groups, mib):
    # two 3-view N = 2000 sequences, one stacked group: 33.1 MiB at the
    # peak with the dense (M, N, D') routed gradient (2.9 MiB) and a
    # float64 copy of the input; 31.3 MiB without. Four 3-view sequences
    # are one 12-view group up to N = 1000 (26.4 MiB at N = 1000, 8.1 MiB at
    # N = 300, against 4.9 MiB for two pairs) and two pairs past it, so no
    # group passes that pair's 32 MiB
    batch = [_planted_example(n, seed) for seed in range(1000, 1000 + count)]
    params = init_params(16, 16, 64, seed=3)
    assert len(encoder._groups(batch)) == groups
    encoder.batch_loss(params, batch)  # warm: numpy's first-call caches
    peak = _traced_peak(encoder.batch_loss, params, batch)
    assert peak < mib * 2**20, peak / 2**20
