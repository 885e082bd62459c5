import ctypes
import math
import platform

import numpy as np
import pytest

from mdpp import encoder, synth, training
from mdpp.data_model import MultiViewSequence, Summary
from mdpp.encoder import batch_loss, init_params, to_vector
from mdpp.errors import ConfigError, NumericError, ValidationError
from mdpp.training import (
    AdamState,
    SplitPlan,
    TrainConfig,
    TrainingExample,
    adam_step,
    round_robin_splits,
    targets_from_summary,
    train,
)


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(iterations=0)
    with pytest.raises(ConfigError):
        TrainConfig(lam=-0.1)


@pytest.mark.parametrize("name", ["learning_rate", "lam"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_values(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be a finite real number"):
        TrainConfig(**{name: value})


@pytest.mark.parametrize("name", ["learning_rate", "lam"])
@pytest.mark.parametrize("value", ["0.1", None, True, False])
def test_config_rejects_non_real_values(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be a finite real number"):
        TrainConfig(**{name: value})


@pytest.mark.parametrize("name", ["batch_size", "iterations"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 2.5, True])
def test_config_rejects_non_integer_counts(name, value):
    with pytest.raises(ConfigError, match=f"{name} must be an integer"):
        TrainConfig(**{name: value})


def test_adam_matches_reference_updates():
    rng = np.random.default_rng(0)
    config = TrainConfig(learning_rate=0.01)
    vec = rng.normal(size=12)
    expected = vec.copy()
    state = AdamState.zeros(vec.size)
    m = np.zeros(12)
    v = np.zeros(12)
    for step in range(1, 6):
        grad = rng.normal(size=12)
        vec = adam_step(state, vec, grad.copy(), config)
        m = 0.9 * m + 0.1 * grad
        v = 0.999 * v + 0.001 * grad**2
        m_hat = m / (1 - 0.9**step)
        v_hat = v / (1 - 0.999**step)
        expected -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(vec, expected, rtol=1e-12)


def test_adam_rejects_non_finite_gradient():
    state = AdamState.zeros(3)
    grad = np.array([0.0, np.nan, 1.0])
    with pytest.raises(NumericError):
        adam_step(state, np.zeros(3), grad, TrainConfig())


def test_round_robin_split_counts():
    plans = round_robin_splits(["a", "b", "c"])
    assert len(plans) == 6
    assert len(round_robin_splits([f"c{i}" for i in range(6)])) == 30
    for plan in plans:
        assert plan.val_collection != plan.test_collection
        parts = {*plan.train_collections, plan.val_collection, plan.test_collection}
        assert parts == {"a", "b", "c"}
    assert len({(p.val_collection, p.test_collection) for p in plans}) == 6


def test_round_robin_rejects_bad_ids():
    with pytest.raises(ConfigError):
        round_robin_splits(["a", "b"])
    with pytest.raises(ConfigError):
        round_robin_splits(["a", "a", "b"])


def _example(rng, m=2, n=8, d=4, steps=(1, 5)):
    seq = MultiViewSequence(
        sequence_id="s", features=rng.normal(size=(m, n, d)).astype(np.float32)
    )
    y = np.zeros((m, n), dtype=np.uint8)
    for t in steps:
        y[int(rng.integers(m)), t] = 1
    return TrainingExample(sequence=seq, target_views=y)


def test_training_example_consistency():
    rng = np.random.default_rng(1)
    seq = MultiViewSequence(
        sequence_id="s", features=rng.normal(size=(2, 6, 3)).astype(np.float32)
    )
    y = np.zeros((2, 6), dtype=np.uint8)
    y[0, 2] = 1
    with pytest.raises(ValidationError):
        TrainingExample(sequence=seq, target_views=y[:, :5])
    with pytest.raises(ValidationError):
        TrainingExample(sequence=seq, target_views=y[:1])


def test_targets_from_summary():
    rng = np.random.default_rng(2)
    seq = MultiViewSequence(
        sequence_id="s", features=rng.normal(size=(2, 6, 3)).astype(np.float32)
    )
    summary = Summary(selections=((0, 1), (1, 1), (1, 4)))
    ex = targets_from_summary(seq, summary)
    assert np.flatnonzero(ex.target_views.any(axis=0)).tolist() == [1, 4]
    assert ex.target_views[0, 1] == 1 and ex.target_views[1, 4] == 1
    assert ex.target_views.sum() == 3
    assert ex.steps == (1, 4)


def _collections(seed=0):
    rng = np.random.default_rng(seed)
    return {
        cid: [_example(rng) for _ in range(2)] for cid in ("c0", "c1", "c2")
    }


def test_train_runs_and_is_deterministic():
    collections = _collections()
    plan = round_robin_splits(sorted(collections))[0]
    config = TrainConfig(iterations=3, batch_size=3, seed=5)
    initial = init_params(4, hidden_size=3, output_dim=4, seed=5)
    result = train(initial, collections, plan, config)

    assert len(result.history) == 3
    assert result.best_val_loss == min(e.val_loss for e in result.history)
    # earliest epoch wins ties
    best = next(e.epoch for e in result.history if e.val_loss == result.best_val_loss)
    assert result.best_epoch == best

    rerun = train(initial, _collections(), plan, config)
    np.testing.assert_array_equal(to_vector(result.params), to_vector(rerun.params))
    assert [e.val_loss for e in rerun.history] == [e.val_loss for e in result.history]


def test_batch_loss_is_the_mean_over_examples():
    # the batch runs in stacked groups; its loss and gradient stay the
    # per-example means
    rng = np.random.default_rng(3)
    examples = [_example(rng) for _ in range(5)]
    params = init_params(4, hidden_size=3, output_dim=4, seed=1)
    config = TrainConfig(lam=0.5)
    loss, grad = training._batch_mean(params, examples, config)
    alone = [batch_loss(params, [ex], lam=0.5) for ex in examples]
    assert loss.total == pytest.approx(np.mean([p.total for [p], _ in alone]), rel=1e-12)
    assert loss.dpp_nll == pytest.approx(np.mean([p.dpp_nll for [p], _ in alone]), rel=1e-12)
    mean_grad = np.mean([g for _, g in alone], axis=0)
    np.testing.assert_allclose(grad, mean_grad, rtol=0, atol=1e-12 * np.abs(mean_grad).max())
    val = training._val_loss(params, examples, config)
    assert val.total == pytest.approx(loss.total, rel=1e-12)


def test_train_history_records_loss_parts():
    collections = _collections()
    plan = round_robin_splits(sorted(collections))[0]
    initial = init_params(4, hidden_size=3, output_dim=4, seed=5)
    for lam in (0.5, 0.0):
        result = train(initial, collections, plan, TrainConfig(iterations=2, lam=lam, seed=5))
        for e in result.history:
            assert e.val_loss == pytest.approx(e.val_bce + lam * e.val_dpp_nll, rel=1e-12)
            assert np.isfinite(e.val_dpp_nll) and e.grad_norm > 0.0
            if lam:
                assert e.train_loss == pytest.approx(e.train_bce + lam * e.train_dpp_nll, rel=1e-12)
            else:
                assert np.isnan(e.train_dpp_nll) and e.train_loss == e.train_bce


def test_train_rejects_bad_plans():
    collections = _collections()
    config = TrainConfig(iterations=1)
    initial = init_params(4, hidden_size=3, output_dim=4)
    with pytest.raises(ConfigError):
        train(initial, collections,
              SplitPlan(train_collections=("nope",), val_collection="c1", test_collection="c2"),
              config)
    with pytest.raises(ConfigError):
        train(initial, collections,
              SplitPlan(train_collections=(), val_collection="c1", test_collection="c2"),
              config)


def test_nan_gradient_stops_train_at_adam_with_its_flat_index(monkeypatch):
    # the gradient is one flat vector, not weights: a nan in qual_b2, the
    # last weight, reaches adam_step, which names its flat index
    original = encoder._sequence_loss

    def poisoned(*args):
        out = original(*args)
        grads = args[-1]
        if grads is not None:
            grads["qual_b2"][0] = np.nan
        return out

    monkeypatch.setattr(encoder, "_sequence_loss", poisoned)
    collections = _collections()
    plan = round_robin_splits(sorted(collections))[0]
    initial = init_params(4, hidden_size=3, output_dim=4, seed=5)
    index = initial.count() - 1
    with pytest.raises(NumericError, match=f"non-finite gradient at flat index {index} on Adam step 1"):
        train(initial, collections, plan, TrainConfig(iterations=1, seed=5))


def _rank_bound_collections(val_steps):
    """2-view N=40 collections for an output_dim=8 model: training targets
    of 5-6 steps, and one validation target of ``val_steps`` steps."""
    rng = np.random.default_rng(8)

    def example(size):
        return _example(rng, n=40, steps=rng.choice(40, size=size, replace=False))

    return {
        "c0": [example(5), example(6)], "c1": [example(val_steps)], "c2": [example(5)],
    }


def test_train_raises_when_no_validation_loss_is_finite():
    # 20 target steps outgrow the joint kernel's rank bound D' = 8, so every
    # epoch's validation loss is inf; the untrained weights must not come
    # back as the selected ones
    plan = SplitPlan(train_collections=("c0",), val_collection="c1", test_collection="c2")
    initial = init_params(4, hidden_size=4, output_dim=8, seed=2)
    with pytest.raises(NumericError, match=(
        r"validation loss on collection 'c1' is not finite at any of the 3 epochs.*"
        r"\(20 target steps exceed output_dim=8"
    )):
        train(initial, _rank_bound_collections(20), plan, TrainConfig(iterations=3, seed=5))


def test_train_raises_without_a_rank_hint_when_targets_fit(monkeypatch):
    inf = encoder.LossParts(total=math.inf, bce=1.0, dpp_nll=math.inf)
    monkeypatch.setattr(training, "_val_loss", lambda *args: inf)
    plan = SplitPlan(train_collections=("c0",), val_collection="c1", test_collection="c2")
    initial = init_params(4, hidden_size=4, output_dim=8, seed=2)
    with pytest.raises(NumericError, match="is not finite at any of the 2 epochs") as info:
        train(initial, _rank_bound_collections(6), plan, TrainConfig(iterations=2, seed=5))
    assert "output_dim" not in str(info.value)


def test_train_selects_the_one_epoch_with_a_finite_validation_loss(monkeypatch):
    # epochs 1 and 3 validate to inf, epoch 2 to a finite loss: epoch 2's
    # weights are the result
    original, calls, seen = training._val_loss, [], []

    def val_loss(params, examples, config):
        calls.append(None)
        seen.append(to_vector(params))
        if len(calls) == 2:
            return original(params, examples, config)
        return encoder.LossParts(total=math.inf, bce=1.0, dpp_nll=math.inf)

    monkeypatch.setattr(training, "_val_loss", val_loss)
    plan = SplitPlan(train_collections=("c0",), val_collection="c1", test_collection="c2")
    initial = init_params(4, hidden_size=4, output_dim=8, seed=2)
    result = train(initial, _rank_bound_collections(6), plan, TrainConfig(iterations=3, seed=5))
    assert result.best_epoch == 2 and math.isfinite(result.best_val_loss)
    assert [math.isfinite(e.val_loss) for e in result.history] == [False, True, False]
    np.testing.assert_array_equal(to_vector(result.params), seen[1])


def _synth_training_args(num_steps=600):
    """A 2-sequence training collection and a 1-sequence validation one at
    M=3, D=16, with an H=16, D'=64 model and one epoch."""
    def example(seed):
        sequence, annotations = synth.generate(synth.SynthConfig(
            num_views=3, num_steps=num_steps, feature_dim=16, num_events=5,
            event_length_min=6, event_length_max=9, seed=seed,
        ))
        return targets_from_summary(sequence, Summary(selections=annotations.users[0][1]))

    collections = {"c0": [example(0), example(1)], "c1": [example(2)], "c2": []}
    plan = SplitPlan(train_collections=("c0",), val_collection="c1", test_collection="c2")
    initial = init_params(16, hidden_size=16, output_dim=64, seed=0)
    return initial, collections, plan, TrainConfig(iterations=1)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc malloc thresholds")
def test_repeated_train_reuses_its_freed_memory():
    # each step frees what the next one allocates again; kept mapped, the
    # second call touches no new pages (4k-8k faults when glibc hands the
    # memory back to the OS after every step)
    import resource

    args = _synth_training_args()
    train(*args)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(*args)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 256


def test_train_without_mallopt_returns_the_same_weights(monkeypatch):
    args = _synth_training_args(num_steps=300)
    expected = train(*args)

    def no_c_library(*_args, **_kwargs):
        raise OSError("no C library")

    monkeypatch.setattr(ctypes, "CDLL", no_c_library)
    result = train(*args)
    np.testing.assert_array_equal(to_vector(result.params), to_vector(expected.params))
    assert result.best_val_loss == expected.best_val_loss


def test_checkpoint_roundtrip(tmp_path):
    params = init_params(4, hidden_size=3, output_dim=4, seed=9)
    path = tmp_path / "model.ckpt"
    training.save_checkpoint(path, params, extra={"best_epoch": 2})
    loaded, doc = training.load_checkpoint(path)
    np.testing.assert_array_equal(to_vector(loaded), to_vector(params))
    assert (loaded.input_dim, loaded.hidden_size, loaded.output_dim) == (4, 3, 4)
    assert doc["extra"]["best_epoch"] == 2
