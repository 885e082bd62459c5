"""Supervised training: Adam updates, split plans, and the epoch loop.

Collections of annotated sequences are combined round-robin style: every
ordered (validation, test) pair of collections yields one plan whose training
set is all remaining collections. Training shuffles per epoch, averages the
per-sequence loss and gradient over each mini-batch, and keeps the weights
from the epoch with the lowest validation loss.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import io, runtime
from .data_model import (
    MultiViewSequence, Summary, TrainingExample, check_int, check_real, check_seed,
)
from .encoder import PARAM_FIELDS, LossParts, ModelParams, batch_loss, from_vector, to_vector
from .errors import ConfigError, FormatError, NumericError

# Adam's moment decay rates and denominator offset
_BETA1, _BETA2, _EPSILON = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 10
    iterations: int = 20
    lam: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_real(self.learning_rate, "learning_rate", 0, None, above=True, error=ConfigError)
        check_int(self.batch_size, "batch_size", 1, error=ConfigError)
        check_int(self.iterations, "iterations", 1, error=ConfigError)
        check_real(self.lam, "lam", 0, None, error=ConfigError)
        check_seed(self.seed)


@dataclass(eq=False)
class AdamState:
    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int = 0

    def __post_init__(self):
        check_int(self.step, "step", 0)

    @classmethod
    def zeros(cls, size: int) -> "AdamState":
        check_int(size, "size", 0)
        return cls(first_moment=np.zeros(size), second_moment=np.zeros(size))


def adam_step(
    state: AdamState, vec: np.ndarray, grad: np.ndarray, config: TrainConfig
) -> np.ndarray:
    """One in-place Adam update on the flat parameter vector; returns it."""
    if not np.isfinite(grad).all():
        bad = int(np.flatnonzero(~np.isfinite(grad))[0])
        raise NumericError(
            f"non-finite gradient at flat index {bad} on Adam step {state.step + 1}"
        )
    state.step += 1
    state.first_moment = _BETA1 * state.first_moment + (1 - _BETA1) * grad
    state.second_moment = _BETA2 * state.second_moment + (1 - _BETA2) * grad**2
    m_hat = state.first_moment / (1 - _BETA1**state.step)
    v_hat = state.second_moment / (1 - _BETA2**state.step)
    vec -= config.learning_rate * m_hat / (np.sqrt(v_hat) + _EPSILON)
    return vec


def targets_from_summary(sequence: MultiViewSequence, summary: Summary) -> TrainingExample:
    """Turn a reference summary's (view, step) pairs into training targets."""
    mask = summary.frame_mask(sequence.num_views, sequence.num_steps)
    return TrainingExample(sequence=sequence, target_views=mask)


@dataclass(frozen=True)
class SplitPlan:
    train_collections: tuple[str, ...]
    val_collection: str
    test_collection: str


def round_robin_splits(collection_ids: Sequence[str]) -> list[SplitPlan]:
    """All ordered (validation, test) collection pairs; K ids give K*(K-1) plans."""
    ids = list(collection_ids)
    if len(ids) != len(set(ids)):
        raise ConfigError("collection ids must be unique")
    if len(ids) < 3:
        raise ConfigError(f"need at least 3 collections to split, got {len(ids)}")
    plans = []
    for val_id in ids:
        for test_id in ids:
            if test_id == val_id:
                continue
            train = tuple(c for c in ids if c not in (val_id, test_id))
            plans.append(
                SplitPlan(train_collections=train, val_collection=val_id, test_collection=test_id)
            )
    return plans


@dataclass(frozen=True)
class EpochStats:
    """One epoch's losses and their parts: train values are means over the
    epoch's batches, val values means over the validation sequences.
    ``train_dpp_nll`` is nan at lam = 0, where training never builds the
    joint kernel; ``grad_norm`` is the mean 2-norm of the batch gradients."""

    epoch: int
    train_loss: float
    val_loss: float
    train_bce: float
    train_dpp_nll: float
    val_bce: float
    val_dpp_nll: float
    grad_norm: float


@dataclass(frozen=True)
class TrainResult:
    params: ModelParams
    best_epoch: int
    best_val_loss: float
    history: tuple[EpochStats, ...]


def _mean_parts(parts: Sequence[LossParts]) -> LossParts:
    return LossParts(
        total=float(np.mean([p.total for p in parts])),
        bce=float(np.mean([p.bce for p in parts])),
        dpp_nll=float(np.mean([p.dpp_nll for p in parts])),
    )


def _batch_mean(params, examples, config):
    parts, grad = batch_loss(params, examples, lam=config.lam)
    return _mean_parts(parts), grad / len(examples)


def _val_loss(params, examples, config):
    parts, _ = batch_loss(params, examples, lam=config.lam, with_grad=False)
    return _mean_parts(parts)


def train(
    initial: ModelParams,
    collections: Mapping[str, Sequence[TrainingExample]],
    plan: SplitPlan,
    config: TrainConfig,
) -> TrainResult:
    """Run the full loop for one split plan and return the best checkpoint.

    Validation runs after every epoch; ties keep the earliest epoch so a
    rerun with the same seed reproduces the same selected weights.

    On glibc, training first applies the process-wide allocator policy of
    ``runtime.keep_freed_memory_mapped``, as the summarizers do: up to
    64 MiB of freed heap stays mapped and arrays up to 32 MiB come from the
    heap, so steps reuse their working memory instead of faulting it in
    again, and the process's resident memory stays near its training peak
    after ``train`` returns.
    """
    runtime.keep_freed_memory_mapped()
    for cid in (*plan.train_collections, plan.val_collection, plan.test_collection):
        if cid not in collections:
            raise ConfigError(f"split plan references unknown collection {cid!r}")
    train_examples = [ex for cid in plan.train_collections for ex in collections[cid]]
    val_examples = list(collections[plan.val_collection])
    if not train_examples:
        raise ConfigError("split plan leaves no training examples")
    if not val_examples:
        raise ConfigError("split plan leaves no validation examples")

    rng = np.random.default_rng(config.seed)
    vec = to_vector(initial)
    state = AdamState.zeros(vec.size)
    best_vec = vec.copy()
    best_val = np.inf
    best_epoch = 0
    history: list[EpochStats] = []

    for epoch in range(1, config.iterations + 1):
        order = rng.permutation(len(train_examples))
        batch_losses, grad_norms = [], []
        for start in range(0, len(order), config.batch_size):
            batch = [train_examples[j] for j in order[start : start + config.batch_size]]
            params = from_vector(initial, vec)
            loss, grad = _batch_mean(params, batch, config)
            batch_losses.append(loss)
            grad_norms.append(float(np.linalg.norm(grad)))
            vec = adam_step(state, vec, grad, config)
        train_loss = _mean_parts(batch_losses)
        val = _val_loss(from_vector(initial, vec), val_examples, config)
        history.append(
            EpochStats(
                epoch=epoch, train_loss=train_loss.total, val_loss=val.total,
                train_bce=train_loss.bce, train_dpp_nll=train_loss.dpp_nll,
                val_bce=val.bce, val_dpp_nll=val.dpp_nll,
                grad_norm=float(np.mean(grad_norms)),
            )
        )
        if val.total < best_val:
            best_val = val.total
            best_vec = vec.copy()
            best_epoch = epoch

    return TrainResult(
        params=from_vector(initial, best_vec),
        best_epoch=best_epoch,
        best_val_loss=float(best_val),
        history=tuple(history),
    )


def save_checkpoint(path, params: ModelParams, extra: dict | None = None) -> None:
    """Write the weights; the model's dimensions are their shapes."""
    io.write_checkpoint(path, {"extra": extra} if extra else {}, params.named_arrays())


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """The model and the header. Header keys other than the layout are not
    read back (older checkpoints also stored the dims and the seed)."""
    doc, blocks = io.read_checkpoint(path)
    missing = [name for name in PARAM_FIELDS if name not in blocks]
    unexpected = [name for name in blocks if name not in PARAM_FIELDS]
    if missing or unexpected:
        raise FormatError(
            f"{path}: checkpoint arrays do not match the model: "
            f"missing {missing}, unexpected {unexpected}"
        )
    return ModelParams(**blocks), doc
