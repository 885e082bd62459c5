import numpy as np
import pytest

from mdpp import bruteforce, dpp, encoder, multi_dpp, training
from mdpp.data_model import (
    AnnotationSet,
    MultiViewSequence,
    ShotList,
    Summary,
    SummaryBudget,
    TrainingExample,
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


@pytest.mark.parametrize("pair", [(0.5, 1), (0, 2.9), (True, 1), (0, False), ("0", 1)])
def test_annotations_reject_non_integer_indices(pair):
    with pytest.raises(ValidationError, match="selection index must be an integer >= 0"):
        AnnotationSet(sequence_id="s", stage=2, users=(("u", ((0, 2), pair)),))


def test_annotations_accept_numpy_integer_indices():
    users = (("u", ((np.int64(1), np.uint16(2)),)),)
    assert AnnotationSet(sequence_id="s", stage=2, users=users).users == (("u", ((1, 2),)),)


@pytest.mark.parametrize("stage", [True, 2.0, 0, 4, "2"])
def test_annotations_reject_a_bad_stage(stage):
    # True and 2.0 were accepted, since they compare equal to 1 and 2
    with pytest.raises(ValidationError, match=r"stage must be an integer in \[1, 3\]"):
        AnnotationSet(sequence_id="s", stage=stage, users=())


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


@pytest.mark.parametrize("pair", [(0.5, 1), (0, 1.0), (True, 1), (0, False), ("0", 1)])
def test_summary_rejects_non_integer_indices(pair):
    with pytest.raises(ValidationError, match="selection index must be an integer >= 0"):
        Summary(selections=((0, 2), pair))


def test_summary_accepts_numpy_integer_indices():
    assert Summary(selections=((np.int64(1), np.uint16(2)),)).selections == ((1, 2),)


def test_summary_frame_mask_bounds():
    with pytest.raises(ValidationError):
        Summary(selections=((0, 5),)).frame_mask(1, 5)


def test_shot_list_spans_and_lookup():
    shots = ShotList(boundaries=(3, 7, 10))
    assert shots.num_shots == 3
    assert shots.num_steps == 10
    assert shots.shot_span(1) == (3, 7)
    assert [shots.shot_of(t) for t in (0, 2, 3, 9)] == [0, 0, 1, 2]


BAD_INDEX_CALLS = {
    "shot_span(-1)": lambda: ShotList((10, 30)).shot_span(-1),  # was (0, 30): every frame
    "shot_span(2)": lambda: ShotList((10, 30)).shot_span(2),  # a raw IndexError
    "shot_span(True)": lambda: ShotList((10, 30)).shot_span(True),  # was (10, 30)
    "shot_of(1.5)": lambda: ShotList((10, 30)).shot_of(1.5),  # was 0
    "shot_of(30)": lambda: ShotList((10, 30)).shot_of(30),
    "frame_budget(2.5)": lambda: SummaryBudget().frame_budget(2.5),  # was 1
    "frame_budget(0)": lambda: SummaryBudget().frame_budget(0),  # was 0
    "frame_mask(2.5, 3)": lambda: Summary(((0, 1),)).frame_mask(2.5, 3),  # a raw TypeError
    "frame_mask(1, 0)": lambda: Summary(()).frame_mask(1, 0),  # was an empty mask
}


@pytest.mark.parametrize("call", BAD_INDEX_CALLS)
def test_indices_and_counts_must_be_in_range_integers(call):
    with pytest.raises(ValidationError, match="must be an integer"):
        BAD_INDEX_CALLS[call]()


def test_shot_list_rejects_bad_boundaries():
    with pytest.raises(ValidationError):
        ShotList(boundaries=(5, 5, 10))
    with pytest.raises(ValidationError):
        ShotList(boundaries=())
    for bounds in ((True, 3), (2.0, 3), (2, 3.5), ("2", 3)):
        with pytest.raises(ValidationError, match="boundary must be an integer >= [13]"):
            ShotList(boundaries=bounds)
    assert ShotList(boundaries=(np.int64(2), np.uint8(3))).boundaries == (2, 3)


MALFORMED_CONTAINERS = {
    "a 3-item selection": lambda: Summary(selections=((1, 2, 3),)),  # raw ValueError
    "a bare-int selection": lambda: Summary(selections=(5,)),  # raw TypeError
    "bare-int selections": lambda: Summary(selections=5),
    "a user's bare-int pair": lambda: AnnotationSet("s", 2, (("u", (1,)),)),  # raw TypeError
    "a 1-item user entry": lambda: AnnotationSet("s", 2, ("u",)),  # raw ValueError
    "bare-int users": lambda: AnnotationSet("s", 2, 5),
    "bare-int boundaries": lambda: ShotList(5),  # raw TypeError
}


@pytest.mark.parametrize("call", MALFORMED_CONTAINERS)
def test_containers_reject_a_malformed_shape(call):
    with pytest.raises(ValidationError, match="must (be a sequence|have 2 items)"):
        MALFORMED_CONTAINERS[call]()


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
        with pytest.raises(ConfigError, match="seed must be an integer >= 0"):
            make()
    assert training.TrainConfig(seed=np.int64(3)).seed == 3


@pytest.mark.parametrize("value", [0.5, 1.5, 2, -1, -1.0, np.nan])
def test_training_example_rejects_non_binary_masks(value):
    # checked before any cast: 0.5 must not become 0, nor -1 overflow uint8
    y = np.zeros((2, 5), dtype=np.asarray(value).dtype)
    y[1, 3] = value
    with pytest.raises(ValidationError, match="binary"):
        TrainingExample(sequence=_sequence(), target_views=y)
    y[1, 3] = 1
    ex = TrainingExample(sequence=_sequence(), target_views=y)
    assert ex.target_views.dtype == np.uint8 and ex.steps == (3,)


def test_array_holding_types_compare_by_identity():
    # a field-wise == would compare arrays and raise "truth value of an
    # array ... is ambiguous"; these types compare by identity instead
    def sequence():
        return MultiViewSequence("s", np.zeros((2, 3, 1)))

    makers = (
        sequence,
        lambda: TrainingExample(sequence(), np.zeros((2, 3))),
        lambda: multi_dpp.ViewStreams(np.ones((2, 3, 2)), np.full((2, 3), 0.5)),
        lambda: dpp.DppKernel(phi=np.ones((2, 3)), q=np.full(3, 0.5)),
        lambda: encoder.init_params(1, hidden_size=2, output_dim=2),
        lambda: bruteforce.both_heads(
            encoder.init_params(1, hidden_size=2, output_dim=2), sequence()
        ),
        lambda: training.AdamState.zeros(3),
    )
    for make in makers:
        a = make()
        assert a == a
        assert (a == make()) is False


def test_check_messages_show_a_bounded_value():
    from mdpp import summarizer
    from mdpp.data_model import check_int, check_str

    with pytest.raises(ValidationError, match=r"got an int of 16610 bits$"):
        summarizer.knapsack_shots([1], [10**5000], 1)  # repr() refuses 5001 digits
    with pytest.raises(ValidationError, match=r"must be an integer >= 0, got an int of"):
        check_int(-(10**5000), "x", 0)
    with pytest.raises(ValidationError) as info:
        check_str(list(range(100)), "x")
    assert str(info.value) == "x must be a string, got [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11..."


def test_integers_fit_int64():
    from mdpp.data_model import check_int

    assert check_int(2**63 - 1, "x", 0) == 2**63 - 1
    assert check_int(np.uint64(2**63 - 1), "x", 0) == 2**63 - 1
    for value in (2**63, np.uint64(2**63), -(2**63) - 1):
        with pytest.raises(ValidationError):
            check_int(value, "x", None if value < 0 else 0)


def test_summary_budget_fraction_is_a_float():
    assert type(Summary((), 1).budget_fraction) is float
    assert type(Summary((), np.float32(0.5)).budget_fraction) is float
    assert Summary((), 1) == Summary((), 1.0)
