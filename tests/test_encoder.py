import dataclasses
import tracemalloc

import numpy as np
import pytest

from mdpp import bruteforce, encoder
from mdpp.data_model import MultiViewSequence
from mdpp.encoder import (
    ModelParams,
    evaluate_loss,
    forward,
    from_vector,
    init_params,
    loss_and_grad,
    param_count,
    to_vector,
)
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
        _, grad = loss_and_grad(params, seq, y)
        counts.add(grad.count())
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
        with pytest.raises(ConfigError, match="dimensions must be positive integers"):
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
    trace = forward(params, seq)
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
        forward(params, seq)


def test_views_share_weights():
    # duplicating a view must duplicate its outputs exactly
    rng = np.random.default_rng(2)
    params = init_params(3, hidden_size=4, output_dim=4, seed=0)
    view = rng.normal(size=(1, 6, 3)).astype(np.float32)
    seq = MultiViewSequence(sequence_id="dup", features=np.concatenate([view, view]))
    trace = forward(params, seq)
    np.testing.assert_array_equal(trace.streams.features[0], trace.streams.features[1])
    np.testing.assert_array_equal(trace.streams.quality[0], trace.streams.quality[1])

    solo = forward(params, MultiViewSequence(sequence_id="one", features=view))
    np.testing.assert_array_equal(solo.streams.quality[0], trace.streams.quality[0])


def test_target_validation():
    rng = np.random.default_rng(3)
    params = init_params(3, hidden_size=4, output_dim=4)
    seq = _sequence(rng, 2, 5, 3)
    with pytest.raises(ValidationError):
        loss_and_grad(params, seq, np.zeros((2, 4), dtype=int))
    bad = np.zeros((2, 5), dtype=int)
    bad[0, 1] = 2
    with pytest.raises(ValidationError):
        loss_and_grad(params, seq, bad)
    y = np.zeros((2, 5), dtype=int)
    y[0, 1] = 1
    # lam is keyword-only: a positional step list is not read as lam
    with pytest.raises(TypeError):
        loss_and_grad(params, seq, y, (1,))
    with pytest.raises(TypeError):
        evaluate_loss(params, seq, y, (1,))


def test_loss_matches_evaluate_loss():
    rng = np.random.default_rng(4)
    params = init_params(3, hidden_size=4, output_dim=4, seed=2)
    seq = _sequence(rng, 2, 6, 3)
    y = _targets(rng, 2, 6, (0, 4))
    for lam in (0.0, 1.0, 0.5):
        loss, _ = loss_and_grad(params, seq, y, lam=lam)
        parts = evaluate_loss(params, seq, y, lam=lam)
        assert loss.total == pytest.approx(parts.total, rel=1e-12)
        assert parts.total == pytest.approx(parts.bce + lam * parts.dpp_nll, rel=1e-12)


def test_zero_probability_target_raises():
    rng = np.random.default_rng(5)
    params = init_params(3, hidden_size=4, output_dim=2, seed=0)
    seq = _sequence(rng, 1, 6, 3)
    y = np.ones((1, 6), dtype=int)  # 6 target steps, rank at most output_dim=2
    with pytest.raises(NumericError):
        loss_and_grad(params, seq, y)


def _max_rel_err(params, seq, y, h=1e-5, **loss_kwargs):
    _, grad = loss_and_grad(params, seq, y, **loss_kwargs)
    gvec = to_vector(grad)
    vec = to_vector(params)
    worst = 0.0
    for i in range(vec.size):
        plus, minus = vec.copy(), vec.copy()
        plus[i] += h
        minus[i] -= h
        lp = evaluate_loss(from_vector(params, plus), seq, y, **loss_kwargs).total
        lm = evaluate_loss(from_vector(params, minus), seq, y, **loss_kwargs).total
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


def test_encoder_check_fails_on_wrong_gate_order(monkeypatch):
    fused_forward = encoder._lstm_forward

    def swapped_forward(x, wx, wh, b):  # input and forget gate blocks exchanged
        h = wh.shape[2]
        perm = np.r_[h : 2 * h, 0:h, 2 * h : 4 * h]
        return fused_forward(x, wx[:, perm], wh[:, perm], b[:, perm])

    monkeypatch.setattr(encoder, "_lstm_forward", swapped_forward)
    rows = bruteforce.check_encoder(trials=10, seed=0)
    # the group row runs the same mutant on both sides, so only the LSTM rows see it
    assert [passed for _, passed, _ in rows[:2]] == [False, False], rows


def _without_time_reversal(fused_forward):
    def forward(x, wx, wh, b):  # direction 1 reads the input in forward time
        cache = fused_forward(x, wx, wh, b)
        unreversed = fused_forward(x[:, ::-1], wx, wh, b)
        for key in ("gates", "cells", "hidden"):
            arr = cache[key]
            direction = (slice(None), slice(None), 1) if key == "gates" else (slice(None), 1)
            arr[direction] = unreversed[key][direction]
        return cache

    return forward


def _forward_weights_only(fused_forward):
    def forward(x, wx, wh, b):  # both directions run on the forward weights
        return fused_forward(x, wx[[0, 0]], wh[[0, 0]], b[[0, 0]])

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
    return [[(seq.num_views, seq.num_steps) for seq, _ in group] for group in groups]


def _items(shapes):
    return [(MultiViewSequence("s", np.zeros((m, n, 1), dtype=np.float32)), None) for m, n in shapes]


def test_groups_split_where_length_changes():
    shapes = [(1, 5), (2, 5), (1, 7), (1, 7), (3, 7), (1, 5)]
    groups = encoder._groups(_items(shapes))
    assert _shapes(groups) == [shapes[:2], shapes[2:5], shapes[5:]]


def test_groups_hold_at_most_the_view_cap():
    assert encoder._STACK_VIEWS == 6
    # 3-view sequences of equal length run in pairs at every N
    assert _shapes(encoder._groups(_items([(3, 300)] * 3))) == [[(3, 300)] * 2, [(3, 300)]]
    assert _shapes(encoder._groups(_items([(3, 2000)] * 2))) == [[(3, 2000)] * 2]
    # a sequence over the cap runs alone, and no sequence joins it
    shapes = [(1, 50), (7, 50), (1, 50)]
    assert _shapes(encoder._groups(_items(shapes))) == [[shape] for shape in shapes]
    shapes = [(3, 700), (1, 700), (1, 700), (3, 2000)]
    assert _shapes(encoder._groups(_items(shapes))) == [shapes[:3], [shapes[3]]]
    assert encoder._groups([]) == []


def test_pair_is_bitwise_its_sequences_run_alone():
    # each sequence's LSTM weight gradient is summed over its own views, so
    # a pair's parts and summed gradient are those of two loss_and_grad calls
    rng = np.random.default_rng(19)
    params = init_params(16, hidden_size=16, output_dim=64, seed=5)
    pair = [
        (_sequence(rng, 3, 600, 16), _targets(rng, 3, 600, rng.choice(600, 20, replace=False)))
        for _ in range(2)
    ]
    grads = encoder._zero_grads(params)
    parts = encoder._loss(params, pair, 1.0, grads)
    alone = [loss_and_grad(params, *item, lam=1.0) for item in pair]
    assert parts == [part for part, _ in alone]
    ref = dict(alone[0][1].named_arrays())
    for name, arr in alone[1][1].named_arrays():
        np.testing.assert_array_equal(grads[name], ref[name] + arr, err_msg=name)


def test_lstm_backward_holds_at_most_two_blocks():
    # dz is written into the gate cache; the factors take a copy of f and
    # one block of scratch
    rng = np.random.default_rng(3)
    m, n, d, h = 6, 300, 4, 16
    x = rng.normal(size=(m, n, d))
    wx, wh, b = _stacked_weights(rng, d, h, 0.4)
    cache = encoder._lstm_forward(x, wx, wh, b)
    grad_hidden = rng.normal(size=(n, 2, m, h))
    block = grad_hidden.nbytes
    # per-step buffers, numpy's iterator buffers for three strided operands,
    # and the per-view dWx and dWh products before their sums
    allowance = 4 * 2 * m * h * 8 + 3 * np.getbufsize() * 8 + 2 * m * 4 * h * (d + h) * 8
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        encoder._lstm_backward(cache, wh, grad_hidden, [slice(0, 3), slice(3, 6)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - entry <= 2 * block + allowance, (peak - entry) / block


def test_batch_loss_matches_per_sequence_calls():
    rng = np.random.default_rng(12)
    params = init_params(3, hidden_size=4, output_dim=5, seed=2)
    batch = []
    for m, n in ((2, 6), (1, 6), (3, 6), (2, 9), (1, 6)):
        steps = tuple(sorted(rng.choice(n, size=2, replace=False).tolist()))
        batch.append((_sequence(rng, m, n, 3), _targets(rng, m, n, steps)))
    for lam in (0.0, 1.0):
        parts, grad = encoder.batch_loss(params, batch, lam=lam)
        alone = [loss_and_grad(params, *item, lam=lam) for item in batch]
        # bitwise: every sequence's gradient is summed on its own
        assert [(p.total, p.bce) for p in parts] == [(p.total, p.bce) for p, _ in alone]
        np.testing.assert_array_equal(to_vector(grad), sum(to_vector(g) for _, g in alone))
        val, none = encoder.batch_loss(params, batch, lam=lam, with_grad=False)
        assert none is None
        assert val == [evaluate_loss(params, *item, lam=lam) for item in batch]


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
    trace = forward(params, lone)
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
    first = (_sequence(rng, 1, 6, 3), _targets(rng, 1, 6, (2,)))
    second = (_sequence(rng, 1, 6, 3), np.ones((1, 6), dtype=int))
    assert len(encoder._groups([first, second])) == 1
    with pytest.raises(NumericError, match="output_dim=2"):
        encoder.batch_loss(params, [first, second])


def test_loss_parts_at_lam_zero():
    # training never builds the kernel at lam = 0; validation still reports it
    rng = np.random.default_rng(10)
    params = init_params(3, hidden_size=4, output_dim=4, seed=3)
    seq = _sequence(rng, 2, 6, 3)
    y = _targets(rng, 2, 6, (1, 4))
    parts, _ = loss_and_grad(params, seq, y, lam=0.0)
    assert np.isnan(parts.dpp_nll) and parts.total == parts.bce
    val = evaluate_loss(params, seq, y, lam=0.0)
    assert np.isfinite(val.dpp_nll) and val.total == val.bce == parts.bce
    joint, _ = loss_and_grad(params, seq, y, lam=1.0)
    assert joint.dpp_nll == pytest.approx(val.dpp_nll, rel=1e-12)


@pytest.mark.parametrize("qual_b2, target", [(50.0, 1), (-800.0, 0)])
def test_bce_is_zero_where_scores_saturate_at_the_target(qual_b2, target):
    # the logistic rounds to exactly 1 (or 0); 0 * log 0 must not make nan
    rng = np.random.default_rng(14)
    params = init_params(3, hidden_size=4, output_dim=4, seed=5)
    params = dataclasses.replace(params, qual_b2=np.full_like(params.qual_b2, qual_b2))
    seq = _sequence(rng, 2, 6, 3)
    parts = evaluate_loss(params, seq, np.full((2, 6), target), lam=0.0)
    assert parts.bce == 0.0


def test_evaluate_loss_gives_inf_for_zero_probability_target():
    rng = np.random.default_rng(5)
    params = init_params(3, hidden_size=4, output_dim=2, seed=0)
    seq = _sequence(rng, 1, 6, 3)
    y = np.ones((1, 6), dtype=int)  # 6 target steps, rank at most output_dim=2
    parts = evaluate_loss(params, seq, y)
    assert parts.dpp_nll == np.inf and parts.total == np.inf
    with pytest.raises(NumericError, match="output_dim=2"):
        loss_and_grad(params, seq, y)


def test_params_are_the_weight_arrays_alone():
    import dataclasses

    params = init_params(3, hidden_size=4, output_dim=5, seed=0)
    assert tuple(f.name for f in dataclasses.fields(ModelParams)) == encoder.PARAM_FIELDS
    assert (params.input_dim, params.hidden_size, params.output_dim) == (3, 4, 5)
    with pytest.raises(ShapeError, match="feat_w2 has shape"):
        ModelParams(**{**dict(params.named_arrays()), "feat_w2": np.zeros(5)})
