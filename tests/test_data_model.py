import numpy as np
import pytest

from mdpp.data_model import (
    AnnotationSet,
    MultiViewSequence,
    ShotList,
    Summary,
    SummaryBudget,
)
from mdpp.errors import ConfigError, DataError, ValidationError


def _sequence(m=2, n=5, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return MultiViewSequence(
        sequence_id="seq", features=rng.normal(size=(m, n, d)).astype(np.float32)
    )


def test_sequence_shape_properties():
    seq = _sequence(3, 7, 4)
    assert (seq.num_views, seq.num_steps, seq.feature_dim) == (3, 7, 4)
    assert seq.view(1).shape == (7, 4)


def test_sequence_rejects_non_finite():
    feats = np.zeros((1, 2, 2), dtype=np.float32)
    feats[0, 0, 0] = np.nan
    with pytest.raises(DataError):
        MultiViewSequence(sequence_id="bad", features=feats)


def test_sequence_rejects_wrong_rank():
    with pytest.raises(ValidationError):
        MultiViewSequence(sequence_id="bad", features=np.zeros((3, 4), dtype=np.float32))


def test_sequence_features_immutable():
    seq = _sequence()
    with pytest.raises(ValueError):
        seq.features[0, 0, 0] = 1.0


def test_annotations_reject_duplicate_user_pairs():
    with pytest.raises(ValidationError):
        AnnotationSet(sequence_id="s", stage=2, users=(("u", ((0, 1), (0, 1))),))


def test_annotations_reject_non_string_user_ids():
    for uid in (5, None, ("u",)):
        with pytest.raises(ValidationError):
            AnnotationSet(sequence_id="s", stage=2, users=((uid, ((0, 1),)),))


def test_annotations_stage1_single_view():
    AnnotationSet(sequence_id="s", stage=1, users=(("u", ((1, 0), (1, 3))),))
    with pytest.raises(ValidationError):
        AnnotationSet(sequence_id="s", stage=1, users=(("u", ((0, 0), (1, 3))),))


def test_annotations_validate_shape():
    ann = AnnotationSet(sequence_id="s", stage=2, users=(("u", ((1, 4),)),))
    ann.validate_shape(2, 5)
    with pytest.raises(ValidationError):
        ann.validate_shape(2, 4)
    with pytest.raises(ValidationError):
        ann.validate_shape(1, 5)


def test_summary_dedups_and_sorts():
    s = Summary(selections=((1, 3), (0, 3), (1, 3), (0, 1)))
    assert s.selections == ((0, 1), (0, 3), (1, 3))
    mask = s.frame_mask(2, 4)
    assert mask.sum() == 3 and mask[1, 3] == 1


@pytest.mark.parametrize("fraction", ["0.2", None, True, 0.0, 1.5])
def test_summary_rejects_bad_budget_fraction(fraction):
    with pytest.raises(ValidationError, match="budget_fraction must be a real number"):
        Summary(selections=((0, 1),), budget_fraction=fraction)


def test_summary_frame_mask_bounds():
    with pytest.raises(ValidationError):
        Summary(selections=((0, 5),)).frame_mask(1, 5)


def test_shot_list_spans_and_lookup():
    shots = ShotList(boundaries=(3, 7, 10))
    assert shots.num_shots == 3
    assert shots.num_steps == 10
    assert shots.shot_span(1) == (3, 7)
    assert [shots.shot_of(t) for t in (0, 2, 3, 9)] == [0, 0, 1, 2]


def test_shot_list_rejects_bad_boundaries():
    with pytest.raises(ValidationError):
        ShotList(boundaries=(5, 5, 10))
    with pytest.raises(ValidationError):
        ShotList(boundaries=())


def test_budget_frame_count():
    assert SummaryBudget().frame_budget(300) == 45
    assert SummaryBudget().frame_budget(7) == 2  # ceil(1.05)
    assert SummaryBudget(fraction=1.0).frame_budget(8) == 8
    with pytest.raises(ConfigError):
        SummaryBudget(fraction=0.0)
    for fraction in ["0.15", None, True]:
        with pytest.raises(ConfigError, match="budget fraction must be a real number"):
            SummaryBudget(fraction)


@pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None])
def test_seeds_must_be_non_negative_integers(seed):
    from mdpp import encoder, summarizer, synth, training

    makers = (
        lambda: synth.SynthConfig(num_views=1, num_steps=10, feature_dim=2, num_events=1,
                                  event_length_min=2, event_length_max=3, seed=seed),
        lambda: training.TrainConfig(seed=seed),
        lambda: encoder.init_params(2, hidden_size=2, output_dim=2, seed=seed),
        lambda: summarizer.baseline_random(_sequence(), seed=seed),
    )
    for make in makers:
        with pytest.raises(ConfigError, match="seed must be a non-negative integer"):
            make()
    assert training.TrainConfig(seed=np.int64(3)).seed == 3
