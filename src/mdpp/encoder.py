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
The cell and hidden caches are (N + 1, 2, M, H) and start from a zero row,
so no step is a special case. The input is held once, as (M, N, D).
Forward: X Wx^T + b for all steps, gates and directions is one batched
product straight into the gate cache; a step adds h_{t-1} Wh^T as one
batched product with the (4, 2, H, H) Wh blocks and takes one tanh over the
step's block, the sigmoid gates' rows having been pre-scaled by 1/2 so that
sigmoid(z) = 0.5 (1 + tanh(z / 2)). Backward: the dh-independent factors
of dz are computed for all steps at once over whole slabs of the gate
cache, with a copy of f and one gate block of scratch, and one loop writes
step t's dz, for both directions, into row t + 1 of the gate cache in the
weights' gate order, so that rows 1..N end as dz, (N, 2, M, 4H), and the
backward needs no dz array of its own; dh_{t-1} = dz_t Wh and the weight
gradients are then products against the unpermuted weights. Each step
reuses preallocated buffers. The backward pass consumes its forward cache.
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
stacked. ``loss_and_grad`` and ``evaluate_loss`` are groups of one, with
and without the gradient, on the same loss path; ``mdpp check encoder``
requires stacked groups to be bitwise the sum of their sequences'
``loss_and_grad``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import multi_dpp
from .data_model import MultiViewSequence, check_seed, is_integer
from .errors import ConfigError, NumericError, ShapeError, ValidationError
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

PARAM_FIELDS = (
    "lstm_wx", "lstm_wh", "lstm_b",
    "feat_w1", "feat_b1", "feat_w2", "feat_b2",
    "qual_w1", "qual_b1", "qual_w2", "qual_b2",
)


@dataclass(frozen=True)
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


def param_count(input_dim: int, hidden_size: int, output_dim: int) -> int:
    """Closed-form trainable parameter count; independent of M and N."""
    d, h, dp = input_dim, hidden_size, output_dim
    s = d + 2 * h
    lstm = 2 * (4 * h * d + 4 * h * h + 4 * h)
    feature_head = h * s + h + dp * h + dp
    quality_head = h * s + h + 1 * h + 1
    return lstm + feature_head + quality_head


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
    d, h, dp = input_dim, hidden_size, output_dim
    if not all(is_integer(v) for v in (d, h, dp)) or min(d, h, dp) < 1:
        raise ConfigError(f"dimensions must be positive integers, got ({d!r}, {h!r}, {dp!r})")
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
    values = {}
    offset = 0
    for name, arr in like.named_arrays():
        values[name] = vec[offset : offset + arr.size].reshape(arr.shape)
        offset += arr.size
    return ModelParams(**values)


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


def _both_directions(x):
    """(M, N, D) inputs as (2, M, N, D): direction 1 reads them in reversed
    time. Made where the input product and dWx need it; the cache holds x
    once."""
    xt = np.empty((2, *x.shape))
    xt[0] = x
    xt[1] = x[:, ::-1]
    return xt


def _lstm_forward(x, wx, wh, b):
    """Run both directions over (M, N, D) inputs in one time loop.

    ``wx``, ``wh`` and ``b`` stack the two directions' weights: (2, 4H, D),
    (2, 4H, H) and (2, 4H). Direction 1 reads the input in reversed time,
    so loop step t is time t for direction 0 and time N - 1 - t for
    direction 1; the views ride the batch axis. The gate cache is
    gate-major, (N + 1, 4, 2, M, H) in the gate order (o, i, f, g), so each
    step's sigmoid gates are one contiguous (3, 2, M, H) slab; row t holds
    step t and row N is spare room for the backward. The sigmoid gates' rows
    of Wx, Wh and b are pre-scaled by 1/2 (exact in floating point), so a
    step is one batched product of h_{t-1} with the (4, 2, H, H) Wh blocks,
    one add, one tanh and a scalar affine map of the slab to the sigmoids
    0.5 (1 + tanh(z / 2)), then five ``out=`` ops for c_t and h_t. ``cells``
    and ``hidden`` are (N + 1, 2, M, H) in loop time: row 0 is the zero
    state and row t + 1 holds step t. ``x`` is the (M, N, D) input itself.
    """
    m, n, _ = x.shape
    h_size = wh.shape[2]
    gates = np.empty((n + 1, 4, 2, m, h_size))
    steps = gates[:n]
    # one (N x D)(D x H) product per gate, direction and view, into the cache
    np.matmul(
        _both_directions(x), _gate_blocks(wx, h_size)[:, :, None],
        out=steps.transpose(1, 2, 3, 0, 4),
    )
    steps += _gate_blocks(b[..., None], h_size)
    wh_blocks = np.ascontiguousarray(_gate_blocks(wh, h_size))
    cells = np.zeros((n + 1, 2, m, h_size))
    hidden = np.zeros((n + 1, 2, m, h_size))
    recurrent = np.empty((4, 2, m, h_size))
    product = np.empty((2, m, h_size))
    for z, sig, o, i, f, g, c_prev, c, h_prev, h in zip(
        steps, steps[:, :3], steps[:, 0], steps[:, 1], steps[:, 2], steps[:, 3],
        cells[:-1], cells[1:], hidden[:-1], hidden[1:],
    ):
        np.matmul(h_prev, wh_blocks, out=recurrent)
        z += recurrent
        np.tanh(z, out=z)
        sig *= 0.5
        sig += 0.5
        np.multiply(f, c_prev, out=c)
        np.multiply(i, g, out=product)
        np.add(c, product, out=c)
        np.tanh(c, out=h)
        np.multiply(h, o, out=h)
    return {"x": x, "gates": gates, "cells": cells, "hidden": hidden}


def _lstm_backward(cache, wh, grad_hidden, cols):
    """Backprop both directions in one time loop. Returns one stacked
    (dwx, dwh, db), shaped like the weights, per slice of batch columns in
    ``cols``: the gradient of that sequence's views alone. Consumes
    ``cache``.

    ``grad_hidden`` is dLoss/dh in the (N, 2, M, H) loop-time layout. With
    dz = dLoss/d(pre-activation), every factor of dz that does not depend on
    the incoming gradient is computed for all steps at once, over whole
    slabs of the gate-major cache, and written over it:

        dz = [dc, dc, dc, dh] * [g i(1-i), c_{t-1} f(1-f), i(1-g^2), tanh(c) o(1-o)]

    for (i, f, g, o), with c_{-1} the cell cache's zero row and
    dc = dh o (1 - tanh(c)^2) + dc_{t+1} f_{t+1}, whose first factor
    overwrites the cell cache. A copy of f, kept for the dc carry, and one
    gate block of scratch are all the factors need. The time loop
    multiplies the (i, f, g) slab by dc and the o block by dh and writes
    step t's dz, for both directions, into row t + 1 of the gate cache, in
    the weights' gate order: that row's factors were read one step earlier,
    and row N is the forward's spare row. So the cache's rows 1..N end as
    dz, (N, 2, M, 4H). dh_{t-1} = dz_t Wh is one batched product against
    the unpermuted Wh; after the loop dWx and dWh are one batched product
    per direction and view against the inputs and the hidden states shifted
    by a step, summed over each slice's views, and db is one sum per slice.
    Summing per sequence keeps each sequence's gradient bits those of the
    sequence run alone.
    """
    x, gates, cells, hidden = (cache[k] for k in ("x", "gates", "cells", "hidden"))
    n = gates.shape[0] - 1
    m, h_size = gates.shape[3:]
    o, i, f, g = gates[:n].swapaxes(0, 1)
    forget = f.copy()
    # f block: c_{t-1} f (1 - f), c_{-1} being the cell cache's zero row
    np.subtract(1.0, f, out=f)
    f *= forget
    f *= cells[:-1]
    scratch = np.empty_like(forget)
    # o block: tanh(c) o (1 - o); cell cache: o (1 - tanh(c)^2)
    np.tanh(cells, out=cells)
    tanh_c = cells[1:]
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
    del scratch

    dz = gates[1:].reshape(n, 2, m, 4 * h_size)
    dz_blocks = dz.reshape(n, 2, m, 4, h_size).transpose(0, 3, 1, 2, 4)
    dh, dh_next, dc, product = (np.zeros((2, m, h_size)) for _ in range(4))
    for grad, cell, fac_o, fac_ifg, dz_t, out_ifg, out_o, f_t in zip(
        grad_hidden[::-1], cells[:0:-1], gates[-2::-1, 0], gates[-2::-1, 1:],
        dz[::-1], dz_blocks[::-1, :3], dz_blocks[::-1, 3], forget[::-1],
    ):
        np.add(grad, dh_next, out=dh)
        np.multiply(dh, cell, out=product)
        dc += product
        np.multiply(fac_ifg, dc, out=out_ifg)
        np.multiply(fac_o, dh, out=out_o)
        np.matmul(dz_t, wh, out=dh_next)
        dc *= f_t
    del forget

    # (4H x N)(N x .) per direction and view, summed over each slice's views
    dz_t = dz.transpose(1, 2, 3, 0)
    dwx = np.matmul(dz_t, _both_directions(x))
    dwh = np.matmul(dz_t[..., 1:], hidden[1:-1].transpose(1, 2, 0, 3))
    return [
        (dwx[:, c].sum(axis=1), dwh[:, c].sum(axis=1), dz[:, :, c].sum(axis=(0, 2)))
        for c in cols
    ]


@dataclass
class ForwardTrace:
    """The heads' activations for one sequence, enough for their backprop.

    ``spatiotemporal`` is (M, N, D + 2H); ``streams`` holds the unit
    feature vectors and the quality head's logistic outputs in [0, 1], which
    are both the classification scores and the per-view kernel qualities
    (``multi_dpp`` applies the quality floor). The LSTM cache is not kept:
    ``forward`` drops it and the loss path owns it.
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


def _stacked_lstm(params: ModelParams, sequences) -> dict:
    """One ``_lstm_forward`` over the views of ``sequences``, in order. A
    lone view gets a zero second view, so that its per-step products take
    the same matrix-matrix path as a stacked group's (a one-row product
    takes the vector path, which rounds differently) and its states are
    bitwise those it gets stacked with others. No sequence's columns
    include the extra one, and its gradient stays zero."""
    x = np.concatenate([seq.features for seq in sequences], dtype=np.float64)
    if x.shape[0] == 1:
        x = np.concatenate([x, np.zeros_like(x)])
    return _lstm_forward(x, params.lstm_wx, params.lstm_wh, params.lstm_b)


def forward(params: ModelParams, sequence: MultiViewSequence) -> ForwardTrace:
    """Apply the shared encoder to every view of a sequence."""
    _check_input_dim(params, sequence)
    lstm = _stacked_lstm(params, [sequence])
    del lstm["gates"], lstm["cells"]  # only a backward reads them; the heads do not
    return _heads(params, lstm, slice(0, sequence.num_views))


def _heads(params: ModelParams, lstm: dict, cols: slice) -> ForwardTrace:
    """Both heads over the batch columns ``cols`` of an LSTM cache: the
    views of one sequence. Each layer's bias and activation are applied in
    place on its product."""
    x, hidden = lstm["x"][cols], lstm["hidden"][1:, :, cols]
    m, n, d = x.shape
    h = params.hidden_size
    # ``out`` keeps it C-ordered (M, N, .): concatenate would follow the
    # hidden states' time-major strides, and ``flat`` would then be a copy
    spatio = np.concatenate(
        [x, hidden[:, 0].swapaxes(0, 1), hidden[::-1, 1].swapaxes(0, 1)],
        axis=2, out=np.empty((m, n, d + 2 * h)),
    )

    flat = spatio.reshape(m * n, d + 2 * h)
    feat_hidden = _affine(flat, params.feat_w1, params.feat_b1)
    np.tanh(feat_hidden, out=feat_hidden)
    features = _affine(feat_hidden, params.feat_w2, params.feat_b2)
    norms = np.linalg.norm(features, axis=1)
    if (norms < 1e-12).any():
        raise NumericError("feature head produced a zero vector; cannot normalize")
    features /= norms[:, None]

    qual_hidden = _affine(flat, params.qual_w1, params.qual_b1)
    np.tanh(qual_hidden, out=qual_hidden)
    quality = _sigmoid(_affine(qual_hidden, params.qual_w2, params.qual_b2)).reshape(m, n)

    streams = ViewStreams(features=features.reshape(m, n, params.output_dim), quality=quality)
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


def _check_targets(sequence, target_views):
    """Validate a binary (M, N) target mask; return it as floats and the
    sorted steps some view selects."""
    y = np.asarray(target_views)
    if y.shape != (sequence.num_views, sequence.num_steps):
        raise ValidationError(
            f"target_views shape {y.shape} does not match "
            f"({sequence.num_views}, {sequence.num_steps})"
        )
    if not np.isin(y, (0, 1)).all():
        raise ValidationError("target_views must be binary")
    steps = sorted({int(t) for t in np.flatnonzero(y.any(axis=0))})
    return y.astype(np.float64), steps


def _bce_terms(y, quality, num_views):
    scale = 1.0 / num_views
    # each log only where its weight is 1: a score saturated at its target adds 0, not nan
    terms = np.log(quality, out=np.zeros_like(quality), where=y == 1.0)
    loss = -scale * float(np.log1p(-quality, out=terms, where=y == 0.0).sum())
    dlogits = scale * (quality - y)
    return loss, dlogits


def evaluate_loss(
    params: ModelParams,
    sequence: MultiViewSequence,
    target_views,
    *,
    lam: float = 1.0,
) -> LossParts:
    """Forward-only loss, for validation passes: the no-gradient branch of
    the path ``loss_and_grad`` takes. The DPP term is evaluated even at
    lam = 0; a target subset the joint kernel cannot produce gives
    ``dpp_nll = +inf``."""
    return _loss(params, [(sequence, target_views)], lam, None)[0]


def loss_and_grad(
    params: ModelParams,
    sequence: MultiViewSequence,
    target_views,
    *,
    lam: float = 1.0,
) -> tuple[LossParts, ModelParams]:
    """Joint loss (binary cross-entropy + lam * joint-DPP negative
    log-likelihood), split into its parts, and its exact gradient in a
    ModelParams-shaped bundle. ``target_views`` is the binary (M, N) mask of
    selected (view, step) pairs; the DPP target is the steps some view
    selects. At lam = 0 the joint kernel is never built and ``dpp_nll`` is
    nan; a target subset of zero probability raises NumericError."""
    grads = _zero_grads(params)
    parts = _loss(params, [(sequence, target_views)], lam, grads)
    return parts[0], ModelParams(**grads)


def batch_loss(
    params: ModelParams, batch, lam: float = 1.0, with_grad: bool = True
) -> tuple[list[LossParts], ModelParams | None]:
    """Loss parts of every (sequence, target_views) in ``batch``, in order,
    and the gradient of their sum (None without ``with_grad``). Each item's
    parts and gradient are those of ``loss_and_grad`` / ``evaluate_loss``;
    the batch runs in the groups of ``_groups``, one LSTM time loop per
    group."""
    grads = _zero_grads(params) if with_grad else None
    parts = []
    for group in _groups(batch):
        parts += _loss(params, group, lam, grads)
    return parts, ModelParams(**grads) if with_grad else None


def _groups(batch):
    """Split ``batch`` in order into runs of consecutive sequences of equal
    length N holding at most _STACK_VIEWS views (M summed) each; a group
    always holds at least one sequence. The cap bounds the stacked LSTM
    cache, which lives until the group's backward pass."""
    groups, views = [], 0
    for item in batch:
        sequence = item[0]
        if (
            groups
            and sequence.num_steps == groups[-1][0][0].num_steps
            and views + sequence.num_views <= _STACK_VIEWS
        ):
            groups[-1].append(item)
            views += sequence.num_views
        else:
            groups.append([item])
            views = sequence.num_views
    return groups


def _zero_grads(params: ModelParams) -> dict:
    return {name: np.zeros_like(arr) for name, arr in params.named_arrays()}


def _loss(params, group, lam, grads):
    """The one loss path, over a group of (sequence, target_views) of equal
    N: returns each sequence's LossParts and, when ``grads`` is a dict of
    arrays, adds each sequence's gradient to it in turn, so that the sum's
    bits do not depend on how the batch was grouped.

    The views of all the group's sequences ride the batch axis of one LSTM
    forward and one backward. In between, each sequence in turn runs the
    heads, the loss and the heads' backprop on its own batch columns and
    writes dLoss/dh into them; its head arrays are freed before the next
    sequence's are made. ``grad_hidden`` is allocated after the first
    sequence's heads backprop, so a group of one never holds it together
    with the heads' forward arrays. Without ``grads`` the gate and cell
    caches, which only the backward reads, are freed before the heads run.
    """
    checked = []
    for sequence, target_views in group:
        _check_input_dim(params, sequence)
        checked.append((sequence, *_check_targets(sequence, target_views)))
    lstm = _stacked_lstm(params, [seq for seq, _, _ in checked])
    if grads is None:
        del lstm["gates"], lstm["cells"]
    batch_views, n, _ = lstm["x"].shape
    d, h = params.input_dim, params.hidden_size
    parts, columns = [], []
    grad_hidden = None
    start = 0
    for sequence, y, steps in checked:
        cols = slice(start, start + sequence.num_views)
        columns.append(cols)
        start = cols.stop
        trace = _heads(params, lstm, cols)
        part, dspatio = _sequence_loss(params, trace, y, steps, lam, grads)
        parts.append(part)
        del trace  # free this sequence's head arrays before the next one's
        if grads is None:
            continue
        # dLoss/dh in the LSTM cache's loop-time layout: direction 1 reversed
        if grad_hidden is None:
            grad_hidden = np.empty((n, 2, batch_views, h))
            # a lone view's zero second view (``_stacked_lstm``) gets none
            grad_hidden[:, :, sum(seq.num_views for seq, _, _ in checked) :] = 0.0
        grad_hidden[:, 0, cols] = dspatio[:, :, d : d + h].swapaxes(0, 1)
        grad_hidden[:, 1, cols] = dspatio[:, ::-1, d + h :].swapaxes(0, 1)
        del dspatio
    if grads is None:
        return parts
    for lstm_grads in _lstm_backward(lstm, params.lstm_wh, grad_hidden, columns):
        for name, grad in zip(("lstm_wx", "lstm_wh", "lstm_b"), lstm_grads):
            grads[name] += grad
    return parts


def _sequence_loss(params, trace, y, steps, lam, grads):
    """One sequence's LossParts and, when ``grads`` is given, its head
    gradients added to ``grads`` and dLoss/d(spatiotemporal) as (M, N, D + 2H);
    otherwise (parts, None). The DPP term and its per-view gradients are one
    ``multi_dpp.multi_dpp_log_prob_and_grad`` call, the gradients then scaled
    by -lam. The backprop overwrites the trace's head activations, and each
    DPP array is dropped as soon as it is spent."""
    m, n = y.shape
    d, h, dp = params.input_dim, params.hidden_size, params.output_dim

    quality = trace.streams.quality
    bce, dlogits = _bce_terms(y, quality, m)

    grad_features = None  # at lam = 0 the feature head gets no gradient
    dpp_nll = math.nan
    if grads is None:
        dpp_nll = -multi_dpp.multi_dpp_log_prob(trace.streams, steps)
    elif lam != 0.0:
        log_p, grad_features, grad_stream_q = multi_dpp.multi_dpp_log_prob_and_grad(
            trace.streams, steps
        )
        dpp_nll = -log_p
        grad_features *= -lam
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
    if grad_features is not None:
        # feature head (through the row normalization): graw in the routed
        # gradient's memory, its projection term in the unit features'
        graw = grad_features.reshape(m * n, dp)
        unit = trace.streams.features.reshape(m * n, dp)
        unit *= np.einsum("rd,rd->r", unit, graw)[:, None]
        graw -= unit
        graw /= trace.feat_norms[:, None]
        grads["feat_w2"] += graw.T @ trace.feat_hidden
        grads["feat_b2"] += graw.sum(axis=0)
        df_hidden = _tanh_backward(graw @ params.feat_w2, trace.feat_hidden)
        del grad_features, graw
        grads["feat_w1"] += df_hidden.T @ flat
        grads["feat_b1"] += df_hidden.sum(axis=0)

    # dLoss/d(spatiotemporal), written over the spent ``flat``
    dflat = np.matmul(dq_hidden, params.qual_w1, out=flat)
    if df_hidden is not None:
        dflat += df_hidden @ params.feat_w1
    return parts, trace.spatiotemporal


def _tanh_backward(upstream, hidden):
    """upstream * (1 - hidden^2), the gradient through hidden = tanh(.),
    written over ``hidden``."""
    np.multiply(hidden, hidden, out=hidden)
    np.subtract(1.0, hidden, out=hidden)
    hidden *= upstream
    return hidden
