"""Shared-weight recurrent scoring model with exact reverse-mode gradients.

Every view is run through the same bidirectional LSTM; each time-step's
spatiotemporal feature is the concatenation of its input feature and the two
recurrent states (D + 2H wide). Two shared heads map that to per-view
outputs: a feature head (affine, tanh, affine, L2-normalize) producing the
D'-dim vectors fed to the joint kernel, and a quality head (affine, tanh,
affine, logistic) producing the per-view selection confidence used both as
the classification output and as the kernel quality.

Because all weights are shared across views and the joint kernel pools over
views, the trainable parameter count depends only on (D, H, D') - never on
the number of views or time-steps. ``ModelParams`` holds the eleven weight
arrays and nothing else: D, H and D' are read off their shapes, so no
stored dimension can disagree with the weights.

The two LSTM directions run in one stacked time loop, so each Python step
does little numpy work for both: loop step t is time t for the forward
direction and time N - 1 - t for the reverse one. ``ModelParams`` stores
their weights stacked on a leading axis of 2, with (i, f, g, o) gate blocks;
each call permutes them once into the loops' gate-major order (o, i, f, g).
The gate cache is (N + 1, 4, 2, M, H), so every per-step numpy call works
on a contiguous block: the sigmoid gates (o, i, f) are one slab and the
gates the backward scales by dc (i, f, g) another. Its last row is spare.
The cell and hidden caches are (N + 1, 2, M, H); only row 0, the zero
state, is filled before the loop, so no step is a special case, and each
step hands its c_t and h_t to the next. The input is held once, as
(M, N, D).
Both loops run over time chunks of at least _TIME_CHUNK steps
(``_time_chunks``), and the vectorized work around the steps is done one
chunk at a time, just before the chunk's steps read it, so that at long N
it stays in cache.
Forward: X Wx^T for a chunk's steps, gates and directions is one batched
product from a chunk-sized copy of the input straight into the chunk's gate
rows, and b is added as one (4, 2, M, H) block per row; a step adds h_{t-1}
Wh^T as one batched product with the (4, 2, H, H) Wh blocks and takes one
tanh over the step's block, the sigmoid gates' rows having been pre-scaled
by 1/2 so that sigmoid(z) = 0.5 (1 + tanh(z / 2)), a multiply and an add by
a 0-d array 0.5 (a Python-float or NumPy-scalar operand takes numpy's
slower scalar path). Backward: the chunks run in reverse, and the
dh-independent factors of dz are computed for a chunk's steps at once over
whole slabs of its gate rows, with a chunk-sized copy of f and one
chunk-sized gate block of scratch; the loop writes step t's dz, for both
directions, into row t + 1 of the gate cache in the weights' gate order, so
that rows 1..N end as dz, (N, 2, M, 4H), and the backward needs no dz array
of its own; dh_{t-1} = dz_t Wh and the weight gradients are then products
over all N steps against the unpermuted weights. Every value is bitwise
that of one chunk of N steps. Each step reuses preallocated buffers. The
backward pass consumes its forward cache; a forward that no backward reads
keeps one chunk of gate rows. Supervised inference runs the quality head
alone (``quality_scores``).
``bruteforce.reference_lstm_forward`` / ``_backward`` are per-direction,
per-step loops, and ``mdpp check encoder`` compares the stacked loops with
one reference call per direction (``bruteforce.reference_bilstm``), after
``bruteforce.per_direction_layout`` has put the caches in their layout.

The views ride the batch axis of those loops, and so do the sequences of a
training batch: ``batch_loss`` splits the batch in order into groups of
consecutive equal-length sequences of at most _STACK_VIEWS views, so
3-view sequences train in pairs, and each group's views share one LSTM
forward and one backward. The heads, the loss and the heads' backprop run
one sequence at a time on its own columns and write over their own
activations, so the cap bounds the memory that stacking adds: the LSTM
cache of at most _STACK_VIEWS views. A sequence of more views runs alone.
The weight gradients are summed per sequence, so each sequence's gradient
is bitwise that of the sequence run alone, however it was grouped. A group of
one view runs with a zero second view, so that its per-step products take
the matrix-matrix path too and its states do not depend on whether it was
stacked. ``batch_loss`` is the one loss entry point, with and without the
gradient, over ``TrainingExample``s, whose targets were checked when they
were made; ``mdpp check encoder`` requires stacked groups to be bitwise the
sum of their sequences' one-example ``batch_loss`` calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import multi_dpp
from .data_model import MultiViewSequence, check_int, check_real, check_seed
from .errors import ConfigError, NumericError, ShapeError
from .multi_dpp import ViewStreams

# views (M summed over a group's sequences) one stacked LSTM loop may hold:
# 3-view sequences of equal length run in pairs
_STACK_VIEWS = 6

# the LSTM loops' gate order (o, i, f, g), as indices of the weights' (i, f,
# g, o) blocks: the sigmoid gates form the slab [0:3] and the gates scaled
# by dc in the backward the slab [1:4]
_GATE_ORDER = (3, 0, 1, 2)
# sigmoid(z) = 0.5 (1 + tanh(z / 2)) on o, i and f; g is tanh(z)
_GATE_SCALE = np.array([0.5, 0.5, 0.5, 1.0])[:, None, None]

# a time chunk's fewest loop steps (``_time_chunks``; at least 2): the
# forward projects a chunk's inputs, and the backward builds a chunk's gate
# factors, just before the chunk's steps. At N = 2000 an M = 6 group's
# 166-step chunk of gate rows, states and scratch about fills a 2 MB L2;
# 64, 128 and 256 measured no faster there. A chunk costs about 90 us of
# numpy calls per group and saved nothing at N = 300, so sequences shorter
# than 320 steps are not split
_TIME_CHUNK = 160

PARAM_FIELDS = (
    "lstm_wx", "lstm_wh", "lstm_b",
    "feat_w1", "feat_b1", "feat_w2", "feat_b2",
    "qual_w1", "qual_b1", "qual_w2", "qual_b2",
)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """All trainable weights, and nothing else. Both heads use a hidden layer
    of width H.

    The LSTM weights ``lstm_wx`` (2, 4H, D), ``lstm_wh`` (2, 4H, H) and
    ``lstm_b`` (2, 4H) stack the two time directions: index 0 is the forward
    direction, index 1 the reverse one. Gate blocks are ordered (input,
    forget, cell, output) along the 4H axis. D, H and D' are read off
    ``lstm_wx`` and ``feat_w2`` (D', H), and every other array must fit them.
    """

    lstm_wx: np.ndarray
    lstm_wh: np.ndarray
    lstm_b: np.ndarray
    feat_w1: np.ndarray
    feat_b1: np.ndarray
    feat_w2: np.ndarray
    feat_b2: np.ndarray
    qual_w1: np.ndarray
    qual_b1: np.ndarray
    qual_w2: np.ndarray
    qual_b2: np.ndarray

    def __post_init__(self):
        wx, w2 = np.shape(self.lstm_wx), np.shape(self.feat_w2)
        if len(wx) != 3 or min(wx) < 1 or wx[1] % 4:
            raise ShapeError(f"lstm_wx has shape {wx}, expected (2, 4H, D) with H, D >= 1")
        if len(w2) != 2 or min(w2) < 1:
            raise ShapeError(f"feat_w2 has shape {w2}, expected (D', H) with D', H >= 1")
        d, h, dp = wx[2], wx[1] // 4, w2[0]
        s = d + 2 * h
        expected = {
            "lstm_wx": (2, 4 * h, d), "lstm_wh": (2, 4 * h, h), "lstm_b": (2, 4 * h),
            "feat_w1": (h, s), "feat_b1": (h,), "feat_w2": (dp, h), "feat_b2": (dp,),
            "qual_w1": (h, s), "qual_b1": (h,), "qual_w2": (1, h), "qual_b2": (1,),
        }
        for name in PARAM_FIELDS:
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != expected[name]:
                raise ShapeError(f"{name} has shape {arr.shape}, expected {expected[name]}")
            if not np.isfinite(arr).all():
                raise NumericError(f"{name} contains non-finite values")
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    # D, H and D', read off the weight shapes
    input_dim = property(lambda self: self.lstm_wx.shape[2])
    hidden_size = property(lambda self: self.lstm_wx.shape[1] // 4)
    output_dim = property(lambda self: self.feat_w2.shape[0])

    def named_arrays(self):
        return [(name, getattr(self, name)) for name in PARAM_FIELDS]

    def count(self) -> int:
        return sum(arr.size for _, arr in self.named_arrays())


def init_params(
    input_dim: int, hidden_size: int = 128, output_dim: int = 128, seed: int = 0
) -> ModelParams:
    """Deterministic scaled-uniform initialization.

    Every tensor of an affine map is drawn from U(-1/sqrt(fan_in),
    1/sqrt(fan_in)) where fan_in is that map's input width (D + H for the
    LSTM gates; D + 2H and H for the two head layers). The LSTM tensors are
    drawn one direction at a time (forward Wx, Wh, b, then reverse) and
    stacked afterwards.
    """
    d = check_int(input_dim, "input_dim", 1, error=ConfigError)
    h = check_int(hidden_size, "hidden_size", 1, error=ConfigError)
    dp = check_int(output_dim, "output_dim", 1, error=ConfigError)
    rng = np.random.default_rng(check_seed(seed))

    def draw(shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    s = d + 2 * h
    shapes = ((4 * h, d), (4 * h, h), (4 * h,))
    directions = [[draw(shape, d + h) for shape in shapes] for _ in range(2)]
    lstm_wx, lstm_wh, lstm_b = (np.stack(pair) for pair in zip(*directions))
    return ModelParams(
        lstm_wx=lstm_wx, lstm_wh=lstm_wh, lstm_b=lstm_b,
        feat_w1=draw((h, s), s), feat_b1=draw((h,), s),
        feat_w2=draw((dp, h), h), feat_b2=draw((dp,), h),
        qual_w1=draw((h, s), s), qual_b1=draw((h,), s),
        qual_w2=draw((1, h), h), qual_b2=draw((1,), h),
    )


def to_vector(params: ModelParams) -> np.ndarray:
    return np.concatenate([arr.ravel() for _, arr in params.named_arrays()])


def from_vector(like: ModelParams, vec: np.ndarray) -> ModelParams:
    if vec.shape != (like.count(),):
        raise ShapeError(f"vector length {vec.shape} does not match {like.count()} params")
    return ModelParams(**_split(like, vec))


def _split(like: ModelParams, vec: np.ndarray) -> dict:
    """Views of the flat ``vec``, in ``to_vector`` order, shaped like each
    of ``like``'s arrays and keyed by name."""
    views, offset = {}, 0
    for name, arr in like.named_arrays():
        views[name] = vec[offset : offset + arr.size].reshape(arr.shape)
        offset += arr.size
    return views


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _gate_blocks(w, h_size):
    """(2, 4H, k) stacked weights as (4, 2, k, H) transposed per-gate blocks
    in the loops' gate order, the sigmoid gates' rows halved."""
    blocks = w.reshape(2, 4, h_size, -1)[:, _GATE_ORDER] * _GATE_SCALE
    return blocks.transpose(1, 0, 3, 2)


def _time_chunks(n):
    """The loop steps 0..N-1 as N // _TIME_CHUNK (at least one) consecutive
    (lo, hi) chunks of near-equal length, so each holds _TIME_CHUNK to
    2 _TIME_CHUNK - 1 steps (all N when N < _TIME_CHUNK). No chunk is one
    step long unless N is: a one-row input product takes numpy's
    vector-matrix path, which rounds differently from the matrix-matrix
    one, so every chunk's gate rows are bitwise those of one chunk of N
    steps."""
    k = max(n // _TIME_CHUNK, 1)
    bounds = [n * j // k for j in range(k + 1)]
    return list(zip(bounds, bounds[1:]))


def _both_directions(x, lo, hi, out):
    """Loop steps lo..hi-1 of the (M, N, D) inputs for both directions,
    written into ``out``, (2, M, hi - lo, D): direction 1 reads the input in
    reversed time. Made where the input product and dWx need it; the cache
    holds x once."""
    n = x.shape[1]
    out[0] = x[:, lo:hi]
    out[1] = x[:, n - hi : n - lo][:, ::-1]
    return out


def _lstm_forward(x, wx, wh, b, backward=True):
    """Run both directions over (M, N, D) inputs in one time loop.

    ``wx``, ``wh`` and ``b`` stack the two directions' weights: (2, 4H, D),
    (2, 4H, H) and (2, 4H). Direction 1 reads the input in reversed time,
    so loop step t is time t for direction 0 and time N - 1 - t for
    direction 1; the views ride the batch axis. The gate cache is
    gate-major, (N + 1, 4, 2, M, H) in the gate order (o, i, f, g), so each
    step's sigmoid gates are one contiguous (3, 2, M, H) slab; row t holds
    step t and row N is spare room for the backward. The loop runs in the
    chunks of ``_time_chunks``: each chunk's two-direction input is copied
    into one chunk-sized buffer and projected, X Wx^T, into that chunk's
    gate rows by one batched (chunk x D)(D x H) product per gate, direction
    and view, just before the chunk's steps read them; b is then added as
    one contiguous (4, 2, M, H) block per row. The sigmoid gates' rows of
    Wx, Wh and b are pre-scaled by 1/2 (exact in floating point), so a step
    is one batched product of h_{t-1} with the (4, 2, H, H) Wh blocks, one
    add, one tanh and an affine map of the slab to the sigmoids
    0.5 (1 + tanh(z / 2)), a multiply and an add by one read-only 0-d array
    0.5, then five ufunc calls for c_t and h_t, which the next step reads as
    it was written. ``cells`` and ``hidden`` are (N + 1, 2, M, H) in loop
    time: row 0 is the zero state and row t + 1 holds step t; they are
    allocated unfilled and only row 0 is zeroed. ``x`` is the (M, N, D)
    input itself.

    Without ``backward`` no backward will read the gate and cell caches, so
    the gate rows are one chunk-sized buffer that each chunk reuses from its
    row 0, and the result holds only ``x`` and ``hidden``; the loop is the
    same, and the hidden states are bitwise those of the full cache.
    """
    m, n, d = x.shape
    h_size = wh.shape[2]
    # a step's (2, M, H) blocks are so small that per-call dispatch dominates
    # it, so the step loops call their ufuncs through local names with
    # positional outputs, in-place updates included, and ndarray operands
    # only: on a (2, 6, 16) block an ``np.<name>`` lookup and an ``out=``
    # keyword add about 70 ns to a 330 ns call, and a Python-float or NumPy
    # scalar operand takes numpy's scalar path, about 0.2 us per call more
    # than the 0-d array ``half``
    matmul, add, multiply, tanh = np.matmul, np.add, np.multiply, np.tanh
    half = np.array(0.5)
    half.flags.writeable = False
    chunks = _time_chunks(n)
    longest = max(hi - lo for lo, hi in chunks)
    gates = np.empty((n + 1 if backward else longest, 4, 2, m, h_size))
    wx_blocks = _gate_blocks(wx, h_size)[:, :, None]
    # b as a full (4, 2, M, H) gate block: a chunk's add then runs over
    # contiguous rows instead of broadcasting over the views
    b_block = np.ascontiguousarray(
        np.broadcast_to(_gate_blocks(b[..., None], h_size), (4, 2, m, h_size)))
    wh_blocks = np.ascontiguousarray(_gate_blocks(wh, h_size))
    # every row but the zero state is written by its step
    cells = np.empty((n + 1, 2, m, h_size))
    hidden = np.empty((n + 1, 2, m, h_size))
    cells[0] = hidden[0] = 0.0
    c_prev, h_prev = cells[0], hidden[0]
    recurrent = np.empty((4, 2, m, h_size))
    product = np.empty((2, m, h_size))
    inputs = np.empty((2, m, longest, d))
    for lo, hi in chunks:
        steps = gates[lo:hi] if backward else gates[: hi - lo]
        np.matmul(
            _both_directions(x, lo, hi, inputs[:, :, : hi - lo]), wx_blocks,
            out=steps.transpose(1, 2, 3, 0, 4),
        )
        steps += b_block
        for z, sig, o, i, f, g, c, h in zip(
            steps, steps[:, :3], steps[:, 0], steps[:, 1], steps[:, 2], steps[:, 3],
            cells[lo + 1 : hi + 1], hidden[lo + 1 : hi + 1],
        ):
            matmul(h_prev, wh_blocks, recurrent)
            add(z, recurrent, z)
            tanh(z, z)
            multiply(sig, half, sig)
            add(sig, half, sig)
            multiply(f, c_prev, c)
            multiply(i, g, product)
            add(c, product, c)
            tanh(c, h)
            multiply(h, o, h)
            c_prev, h_prev = c, h
    if not backward:
        return {"x": x, "hidden": hidden}
    return {"x": x, "gates": gates, "cells": cells, "hidden": hidden}


def _gate_factors(steps, cells):
    """Write the dh-independent factors of dz over one chunk's rows of the
    gate cache, ``steps``, and o (1 - tanh(c)^2) over ``cells[1:]``, where
    ``cells`` is the cell cache's rows lo..hi: row 0 is c_{lo-1}. Returns a
    copy of the chunk's f, kept for the dc carry."""
    o, i, f, g = steps.swapaxes(0, 1)
    forget = f.copy()
    # f block: c_{t-1} f (1 - f), c_{-1} being the cell cache's zero row
    np.subtract(1.0, f, out=f)
    f *= forget
    f *= cells[:-1]
    scratch = np.empty_like(forget)
    # o block: tanh(c) o (1 - o); cell cache: o (1 - tanh(c)^2)
    tanh_c = cells[1:]
    np.tanh(tanh_c, out=tanh_c)
    np.subtract(1.0, o, out=scratch)
    scratch *= o
    scratch *= tanh_c
    tanh_c *= tanh_c
    np.subtract(1.0, tanh_c, out=tanh_c)
    tanh_c *= o
    o[...] = scratch
    # g block: i (1 - g^2); i block: g i (1 - i)
    np.multiply(g, g, out=scratch)
    np.subtract(1.0, scratch, out=scratch)
    scratch *= i
    g *= i
    np.subtract(1.0, i, out=i)
    i *= g
    g[...] = scratch
    return forget


def _lstm_backward(cache, wh, grad_hidden, cols):
    """Backprop both directions in one time loop. Returns one stacked
    (dwx, dwh, db), shaped like the weights, per slice of batch columns in
    ``cols``: the gradient of that sequence's views alone. Consumes
    ``cache``.

    ``grad_hidden`` is dLoss/dh in the (N, 2, M, H) loop-time layout. With
    dz = dLoss/d(pre-activation), every factor of dz that does not depend on
    the incoming gradient is written over the gate-major cache:

        dz = [dc, dc, dc, dh] * [g i(1-i), c_{t-1} f(1-f), i(1-g^2), tanh(c) o(1-o)]

    for (i, f, g, o), with c_{-1} the cell cache's zero row and
    dc = dh o (1 - tanh(c)^2) + dc_{t+1} f_{t+1}, whose first factor
    overwrites the cell cache. The loop walks the chunks of ``_time_chunks``
    in reverse and ``_gate_factors`` builds each chunk's factors, over whole
    slabs of its rows, just before its steps, so a chunk-sized copy of f and
    one chunk-sized gate block of scratch are all the factors need. The time
    loop multiplies the (i, f, g) slab by dc and the o block by dh and
    writes step t's dz, for both directions, into row t + 1 of the gate
    cache, in the weights' gate order: that row's factors were read one step
    earlier, and row N is the forward's spare row. So the cache's rows 1..N
    end as dz, (N, 2, M, 4H). dh_{t-1} = dz_t Wh is one batched product
    against the unpermuted Wh; after the loop dWx and dWh are one batched
    product per direction and view against the inputs and the hidden states
    shifted by a step, summed over each slice's views, and db is one sum per
    slice. Summing per sequence keeps each sequence's gradient bits those of
    the sequence run alone.
    """
    x, gates, cells, hidden = (cache[k] for k in ("x", "gates", "cells", "hidden"))
    n = gates.shape[0] - 1
    m, h_size = gates.shape[3:]
    dz = gates[1:].reshape(n, 2, m, 4 * h_size)
    dz_blocks = dz.reshape(n, 2, m, 4, h_size).transpose(0, 3, 1, 2, 4)
    dh, dh_next, dc, product = (np.zeros((2, m, h_size)) for _ in range(4))
    matmul, add, multiply = np.matmul, np.add, np.multiply  # as in _lstm_forward
    for lo, hi in reversed(_time_chunks(n)):
        steps, blocks = gates[lo:hi][::-1], dz_blocks[lo:hi][::-1]
        forget = _gate_factors(gates[lo:hi], cells[lo : hi + 1])
        for grad, cell, fac_o, fac_ifg, dz_t, out_ifg, out_o, f_t in zip(
            grad_hidden[lo:hi][::-1], cells[hi:lo:-1], steps[:, 0], steps[:, 1:],
            dz[lo:hi][::-1], blocks[:, :3], blocks[:, 3], forget[::-1],
        ):
            add(grad, dh_next, dh)
            multiply(dh, cell, product)
            add(dc, product, dc)
            multiply(fac_ifg, dc, out_ifg)
            multiply(fac_o, dh, out_o)
            matmul(dz_t, wh, dh_next)
            multiply(dc, f_t, dc)
        del forget

    # (4H x N)(N x .) per direction and view, summed over each slice's views
    dz_t = dz.transpose(1, 2, 3, 0)
    dwx = np.matmul(dz_t, _both_directions(x, 0, n, np.empty((2, *x.shape))))
    dwh = np.matmul(dz_t[..., 1:], hidden[1:-1].transpose(1, 2, 0, 3))
    return [
        (dwx[:, c].sum(axis=1), dwh[:, c].sum(axis=1), dz[:, :, c].sum(axis=(0, 2)))
        for c in cols
    ]


@dataclass(eq=False)
class ForwardTrace:
    """The heads' activations for one sequence, enough for their backprop.

    ``spatiotemporal`` is (M, N, D + 2H); ``streams`` holds the unit
    feature vectors and the quality head's logistic outputs in [0, 1], which
    are both the classification scores and the per-view kernel qualities
    (``multi_dpp`` applies the quality floor). The LSTM cache is not part
    of it: the loss holds the cache beside it, for the backward.
    """

    spatiotemporal: np.ndarray
    feat_hidden: np.ndarray
    feat_norms: np.ndarray
    qual_hidden: np.ndarray
    streams: ViewStreams


def _check_input_dim(params: ModelParams, sequence: MultiViewSequence) -> None:
    if sequence.feature_dim != params.input_dim:
        raise ShapeError(
            f"sequence has D={sequence.feature_dim}, model expects {params.input_dim}"
        )


def _stacked_lstm(params: ModelParams, sequences, backward: bool = True) -> dict:
    """One ``_lstm_forward`` over the views of ``sequences``, in order. A
    lone view gets a zero second view, so that its per-step products take
    the same matrix-matrix path as a stacked group's (a one-row product
    takes the vector path, which rounds differently) and its states are
    bitwise those it gets stacked with others. No sequence's columns
    include the extra one, and its gradient stays zero. The input stays
    float32, the sequences' own type: the loops and ``_spatiotemporal``
    copy it into float64 buffers, which holds it exactly."""
    x = np.concatenate([seq.features for seq in sequences], dtype=np.float32)
    if x.shape[0] == 1:
        x = np.concatenate([x, np.zeros_like(x)])
    return _lstm_forward(x, params.lstm_wx, params.lstm_wh, params.lstm_b, backward)


def quality_scores(params: ModelParams, sequence: MultiViewSequence) -> np.ndarray:
    """The quality head's (M, N) scores alone, bitwise the ``streams.quality``
    that ``_heads`` computes beside the feature head: the feature head,
    which only the joint kernel reads, does not run."""
    _check_input_dim(params, sequence)
    lstm = _stacked_lstm(params, [sequence], backward=False)
    spatio = _spatiotemporal(lstm, slice(0, sequence.num_views))
    m, n, width = spatio.shape
    return _quality_head(params, spatio.reshape(m * n, width))[1].reshape(m, n)


def _spatiotemporal(lstm: dict, cols: slice) -> np.ndarray:
    """The (M, N, D + 2H) features [x, h_forward, h_reverse] of the batch
    columns ``cols`` of an LSTM cache, in time order."""
    x, hidden = lstm["x"][cols], lstm["hidden"][1:, :, cols]
    m, n, d = x.shape
    # ``out`` keeps it C-ordered (M, N, .): concatenate would follow the
    # hidden states' time-major strides, and a (M N, .) reshape would copy
    return np.concatenate(
        [x, hidden[:, 0].swapaxes(0, 1), hidden[::-1, 1].swapaxes(0, 1)],
        axis=2, out=np.empty((m, n, d + 2 * hidden.shape[-1])),
    )


def _quality_head(params: ModelParams, flat: np.ndarray):
    """The quality head over spatiotemporal rows: its tanh hidden layer and
    its logistic scores, (rows, 1)."""
    qual_hidden = _affine(flat, params.qual_w1, params.qual_b1)
    np.tanh(qual_hidden, out=qual_hidden)
    return qual_hidden, _sigmoid(_affine(qual_hidden, params.qual_w2, params.qual_b2))


def _heads(params: ModelParams, lstm: dict, cols: slice) -> ForwardTrace:
    """Both heads over the batch columns ``cols`` of an LSTM cache: the
    views of one sequence. Each layer's bias and activation are applied in
    place on its product."""
    spatio = _spatiotemporal(lstm, cols)
    m, n, width = spatio.shape
    flat = spatio.reshape(m * n, width)
    feat_hidden = _affine(flat, params.feat_w1, params.feat_b1)
    np.tanh(feat_hidden, out=feat_hidden)
    features = _affine(feat_hidden, params.feat_w2, params.feat_b2)
    norms = np.linalg.norm(features, axis=1)
    if (norms < 1e-12).any():
        raise NumericError("feature head produced a zero vector; cannot normalize")
    features /= norms[:, None]

    qual_hidden, quality = _quality_head(params, flat)

    streams = ViewStreams(
        features=features.reshape(m, n, params.output_dim), quality=quality.reshape(m, n)
    )
    return ForwardTrace(
        spatiotemporal=spatio, feat_hidden=feat_hidden, feat_norms=norms,
        qual_hidden=qual_hidden, streams=streams,
    )


def _affine(inputs, weight, bias):
    out = inputs @ weight.T
    out += bias
    return out


@dataclass(frozen=True)
class LossParts:
    total: float
    bce: float
    dpp_nll: float


def _bce_terms(y, quality, num_views):
    scale = 1.0 / num_views
    # each log only where its weight is 1: a score saturated at its target adds 0, not nan
    terms = np.log(quality, out=np.zeros_like(quality), where=y == 1.0)
    loss = -scale * float(np.log1p(-quality, out=terms, where=y == 0.0).sum())
    dlogits = scale * (quality - y)
    return loss, dlogits


def batch_loss(
    params: ModelParams, examples, *, lam: float = 1.0, with_grad: bool = True
) -> tuple[list[LossParts], np.ndarray | None]:
    """The joint loss of each ``TrainingExample`` in ``examples``, in order:
    binary cross-entropy plus lam times the joint DPP's negative
    log-likelihood of ``ex.steps``, split into its parts; and the exact
    gradient of their sum as one flat float64 vector in ``to_vector`` order
    (None without ``with_grad``). The batch runs in the groups of
    ``_groups``, one LSTM time loop per group, and each example's parts and
    gradient are bitwise those it gets alone.

    With the gradient, lam = 0 never builds the joint kernel and gives
    ``dpp_nll`` nan, and a target subset of zero probability raises
    NumericError. Without it (validation), the DPP term is evaluated even at
    lam = 0, and a zero-probability target gives ``dpp_nll = +inf``."""
    check_real(lam, "lam", 0, None, error=ConfigError)
    flat, grads = _zero_grads(params) if with_grad else (None, None)
    parts = []
    for group in _groups(examples):
        parts += _loss(params, group, lam, grads)
    return parts, flat


def _groups(examples):
    """Split ``examples`` in order into runs of consecutive sequences of
    equal length N holding at most _STACK_VIEWS views (M summed) each; a
    group always holds at least one sequence. The cap bounds the stacked
    LSTM cache, which lives until the group's backward pass."""
    groups, views = [], 0
    for ex in examples:
        sequence = ex.sequence
        if (
            groups
            and sequence.num_steps == groups[-1][0].sequence.num_steps
            and views + sequence.num_views <= _STACK_VIEWS
        ):
            groups[-1].append(ex)
            views += sequence.num_views
        else:
            groups.append([ex])
            views = sequence.num_views
    return groups


def _zero_grads(params: ModelParams) -> tuple[np.ndarray, dict]:
    """One zeroed flat gradient buffer in ``to_vector`` order, and the views
    of it shaped like each weight array (``_split``)."""
    flat = np.zeros(params.count())
    return flat, _split(params, flat)


def _loss(params, group, lam, grads):
    """The one loss path, over a group of TrainingExamples of equal N:
    returns each sequence's LossParts and, when ``grads`` holds the views
    ``_zero_grads`` made, adds each sequence's gradient to them in turn, so
    that the sum's bits do not depend on how the batch was grouped.

    The views of all the group's sequences ride the batch axis of one LSTM
    forward and one backward. In between, each sequence in turn runs the
    heads, the loss and the heads' backprop on its own batch columns and
    writes dLoss/dh into them; its head arrays are freed before the next
    sequence's are made. ``grad_hidden`` is allocated after the first
    sequence's heads backprop, so a group of one never holds it together
    with the heads' forward arrays. Without ``grads`` the LSTM keeps no gate
    or cell cache, which only the backward reads.
    """
    for ex in group:
        _check_input_dim(params, ex.sequence)
    lstm = _stacked_lstm(params, [ex.sequence for ex in group], backward=grads is not None)
    batch_views, n, _ = lstm["x"].shape
    d, h = params.input_dim, params.hidden_size
    parts, columns = [], []
    grad_hidden = None
    start = 0
    for ex in group:
        cols = slice(start, start + ex.sequence.num_views)
        columns.append(cols)
        start = cols.stop
        trace = _heads(params, lstm, cols)
        part, dspatio = _sequence_loss(params, trace, ex, lam, grads)
        parts.append(part)
        del trace  # free this sequence's head arrays before the next one's
        if grads is None:
            continue
        # dLoss/dh in the LSTM cache's loop-time layout: direction 1 reversed
        if grad_hidden is None:
            grad_hidden = np.empty((n, 2, batch_views, h))
            # a lone view's zero second view (``_stacked_lstm``) gets none
            grad_hidden[:, :, sum(ex.sequence.num_views for ex in group) :] = 0.0
        grad_hidden[:, 0, cols] = dspatio[:, :, d : d + h].swapaxes(0, 1)
        grad_hidden[:, 1, cols] = dspatio[:, ::-1, d + h :].swapaxes(0, 1)
        del dspatio
    if grads is None:
        return parts
    for lstm_grads in _lstm_backward(lstm, params.lstm_wh, grad_hidden, columns):
        for name, grad in zip(("lstm_wx", "lstm_wh", "lstm_b"), lstm_grads):
            grads[name] += grad
    return parts


def _sequence_loss(params, trace, ex, lam, grads):
    """One example's LossParts and, when ``grads`` is given, its head
    gradients added to ``grads`` and dLoss/d(spatiotemporal) as (M, N, D + 2H);
    otherwise (parts, None). The DPP term and its per-view gradients are one
    ``multi_dpp.multi_dpp_log_prob_and_view_grads`` call, the gradients then
    scaled by -lam; the feature gradients reach the head one view at a time
    (``_feature_output_grad``). The backprop overwrites the trace's head
    activations, and each DPP array is dropped as soon as it is spent."""
    y = ex.target_views
    m, n = y.shape
    d, h = params.input_dim, params.hidden_size

    quality = trace.streams.quality
    bce, dlogits = _bce_terms(y, quality, m)

    view_grads = None  # at lam = 0 the feature head gets no gradient
    dpp_nll = math.nan
    if grads is None:
        dpp_nll = -multi_dpp.multi_dpp_log_prob(trace.streams, ex.steps)
    elif lam != 0.0:
        log_p, view_grads, grad_stream_q = multi_dpp.multi_dpp_log_prob_and_view_grads(
            trace.streams, ex.steps
        )
        dpp_nll = -log_p
        grad_stream_q *= -lam
        dlogits = dlogits + grad_stream_q * quality * (1.0 - quality)
    parts = LossParts(total=bce if lam == 0.0 else bce + lam * dpp_nll, bce=bce, dpp_nll=dpp_nll)
    if grads is None:
        return parts, None

    flat = trace.spatiotemporal.reshape(m * n, d + 2 * h)

    # quality head
    dlog_flat = dlogits.reshape(m * n, 1)
    grads["qual_w2"] += dlog_flat.T @ trace.qual_hidden
    grads["qual_b2"] += dlog_flat.sum(axis=0)
    dq_hidden = _tanh_backward(dlog_flat @ params.qual_w2, trace.qual_hidden)
    grads["qual_w1"] += dq_hidden.T @ flat
    grads["qual_b1"] += dq_hidden.sum(axis=0)

    df_hidden = None
    if view_grads is not None:
        graw = _feature_output_grad(trace, view_grads, lam)
        grads["feat_w2"] += graw.T @ trace.feat_hidden
        grads["feat_b2"] += graw.sum(axis=0)
        df_hidden = _tanh_backward(graw @ params.feat_w2, trace.feat_hidden)
        del graw
        grads["feat_w1"] += df_hidden.T @ flat
        grads["feat_b1"] += df_hidden.sum(axis=0)

    # dLoss/d(spatiotemporal), written over the spent ``flat``
    dflat = np.matmul(dq_hidden, params.qual_w1, out=flat)
    if df_hidden is not None:
        dflat += df_hidden @ params.feat_w1
    return parts, trace.spatiotemporal


def _feature_output_grad(trace: ForwardTrace, view_grads, lam: float) -> np.ndarray:
    """dLoss/d(the feature head's output) as (M N, D'), through the row
    normalization: (g - u (u . g)) / norm per row, u the unit feature and g
    its view's routed gradient times -lam. Built one view at a time from
    ``view_grads``, over the unit features, so no (M, N, D') gradient is
    ever held beside them."""
    unit = trace.streams.features
    m, n, dp = unit.shape
    norms = trace.feat_norms.reshape(m, n, 1)
    for view, grad in enumerate(view_grads):
        grad *= -lam
        unit[view] *= np.einsum("nd,nd->n", unit[view], grad)[:, None]
        np.subtract(grad, unit[view], out=unit[view])
        unit[view] /= norms[view]
    return unit.reshape(m * n, dp)


def _tanh_backward(upstream, hidden):
    """upstream * (1 - hidden^2), the gradient through hidden = tanh(.),
    written over ``hidden``."""
    np.multiply(hidden, hidden, out=hidden)
    np.subtract(1.0, hidden, out=hidden)
    hidden *= upstream
    return hidden
