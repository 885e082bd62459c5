import math

import numpy as np
import pytest

from mdpp.errors import ConfigError
from mdpp.synth import SynthConfig, generate


def _config(**overrides):
    base = dict(
        num_views=3, num_steps=80, feature_dim=12, num_events=3,
        event_length_min=2, event_length_max=3, seed=0,
    )
    base.update(overrides)
    return SynthConfig(**base)


def test_generation_is_deterministic():
    seq_a, ann_a = generate(_config())
    seq_b, ann_b = generate(_config())
    np.testing.assert_array_equal(seq_a.features, seq_b.features)
    assert ann_a == ann_b
    seq_c, _ = generate(_config(seed=1))
    assert not np.array_equal(seq_a.features, seq_c.features)


def test_shapes_and_ids():
    seq, ann = generate(_config(seed=2))
    assert (seq.num_views, seq.num_steps, seq.feature_dim) == (3, 80, 12)
    assert seq.sequence_id == ann.sequence_id == "synth-2"
    assert [uid for uid, _ in ann.users] == ["gt"]
    ann.validate_shape(seq.num_views, seq.num_steps)


def test_ground_truth_within_budget():
    for seed in range(5):
        config = _config(seed=seed)
        _, ann = generate(config)
        truth = ann.users[0][1]
        assert 0 < len(truth) <= math.ceil(config.budget_fraction * config.num_steps)


def test_budget_enforcement_toggle():
    # feature_dim raised so 5 separated clusters are samplable and the only
    # complaint left is the ground truth overshooting the budget
    tight = _config(num_events=5, event_length_min=4, event_length_max=4,
                    overlap_mode="full", num_steps=40, feature_dim=24)
    with pytest.raises(ConfigError, match="budget"):
        generate(tight)
    loose = _config(num_events=5, event_length_min=4, event_length_max=4,
                    overlap_mode="full", num_steps=40, feature_dim=24,
                    enforce_budget=False)
    _, ann = generate(loose)
    assert len(ann.users[0][1]) == 3 * 5 * 4  # every event on all views


def test_overlap_modes_control_views_per_event_step():
    for mode, expected_views, expected_stage in (
        ("independent", 1, 3), ("pairwise", 2, 2), ("full", 3, 3),
    ):
        config = _config(overlap_mode=mode, seed=3, enforce_budget=False)
        _, ann = generate(config)
        assert ann.stage == expected_stage
        views_per_step = {}
        for v, t in ann.users[0][1]:
            views_per_step.setdefault(t, set()).add(v)
        assert {len(views) for views in views_per_step.values()} == {expected_views}


def test_event_frames_stand_out_from_background():
    config = _config(seed=4)
    seq, ann = generate(config)
    truth = set(ann.users[0][1])
    background = np.array([
        seq.features[v, t]
        for v in range(seq.num_views)
        for t in range(seq.num_steps)
        if not any((v, tt) in truth for tt in range(max(0, t - 1), t + 2))
    ])
    center = background.mean(axis=0)
    bg_dist = np.linalg.norm(background - center, axis=1)
    event = np.array([seq.features[v, t] for v, t in truth])
    event_dist = np.linalg.norm(event - center, axis=1)
    # every planted frame sits farther from the background center than any
    # background frame does
    assert event_dist.min() > bg_dist.max()


def test_noise_vs_separation_guard():
    with pytest.raises(ConfigError):
        generate(_config(noise_sigma=0.6))


def test_config_validation():
    with pytest.raises(ConfigError):
        _config(num_events=30, event_length_max=3)  # 90 frames in 80 steps
    with pytest.raises(ConfigError):
        _config(overlap_mode="sideways")
    with pytest.raises(ConfigError):
        _config(overlap_mode="pairwise", num_views=1)
    with pytest.raises(ConfigError):
        _config(event_length_min=0)
    with pytest.raises(ConfigError):
        _config(noise_sigma=-0.1)
    for value in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="finite"):
            _config(noise_sigma=value)
    for field, value in (
        ("num_views", True), ("num_steps", 30.5), ("num_events", 1.5),
        ("noise_sigma", "0.1"), ("budget_fraction", None),
    ):
        with pytest.raises(ConfigError, match="integer|real number"):
            _config(**{field: value})
    for value in ("no", None, 0, 1):
        with pytest.raises(ConfigError, match="enforce_budget must be a bool"):
            _config(enforce_budget=value)


def test_no_events_gives_pure_background():
    config = _config(num_events=0, enforce_budget=False)
    seq, ann = generate(config)
    assert ann.users[0][1] == ()
    assert seq.num_steps == 80
