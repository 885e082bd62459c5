import numpy as np
import pytest

from mdpp import dpp, multi_dpp
from mdpp.dpp import DppKernel
from mdpp.errors import DataError, NumericError, ValidationError
from mdpp.multi_dpp import ViewStreams


def _random_streams(rng, m, n, dprime, q_low=0.2, q_high=0.9):
    return ViewStreams(
        features=rng.normal(size=(m, n, dprime)),
        quality=rng.uniform(q_low, q_high, size=(m, n)),
    )


def _log_prob_and_grad(streams, subset):
    """log P(y) and its gradients with respect to the per-view features
    (M, N, D'), the view gradients stacked, and the qualities (M, N). The
    views share one buffer, so each is copied as it comes."""
    log_p, view_grads, grad_quality = multi_dpp.multi_dpp_log_prob_and_view_grads(
        streams, subset
    )
    return log_p, np.stack([grad.copy() for grad in view_grads]), grad_quality


def test_streams_validation():
    with pytest.raises(ValidationError):
        ViewStreams(features=np.zeros((2, 3, 4)), quality=np.zeros((2, 4)))
    with pytest.raises(ValidationError):
        ViewStreams(features=np.zeros((1, 2, 2)), quality=np.full((1, 2), 1.5))
    with pytest.raises(ValidationError):
        ViewStreams(features=np.zeros((1, 2, 2)), quality=np.full((1, 2), -1e-9))
    with pytest.raises(ValidationError):
        ViewStreams(features=np.zeros((1, 2, 2)), quality=np.full((1, 2), 1.0 + 1e-12))
    with pytest.raises(DataError):
        ViewStreams(features=np.full((1, 2, 2), np.nan), quality=np.full((1, 2), 0.5))


def test_joint_features_max_pool_fixture():
    streams = ViewStreams(
        features=np.array([[[1.0, 0.0]], [[0.0, 1.0]]]),
        quality=np.full((2, 1), 0.5),
    )
    joint = multi_dpp.build_joint_kernel(streams).phi
    np.testing.assert_allclose(joint[:, 0], np.array([1.0, 1.0]) / np.sqrt(2))


def test_joint_quality_product_and_clamp():
    streams = ViewStreams(
        features=np.ones((2, 2, 3)),
        quality=np.array([[0.5, 5e-4], [0.5, 5e-4]]),
    )
    q = multi_dpp.build_joint_kernel(streams).q
    assert q[0] == 0.25
    assert q[1] == dpp.QUALITY_FLOOR  # 2.5e-7 product clamps back up


def test_joint_kernel_is_the_clamped_product_and_unit_pooled_columns():
    # DppKernel alone clamps the raw product and normalizes the raw pooled
    # columns; scores at 0, below, at and above the floor, and at 1
    rng = np.random.default_rng(13)
    quality = rng.uniform(0.0, 1.0, size=(3, 12))
    quality[0, :5] = [0.0, 2e-7, dpp.QUALITY_FLOOR, 1.0, 1.0]
    quality[1, 3:6] = [1.0, dpp.QUALITY_FLOOR, 2e-7]
    streams = ViewStreams(features=rng.normal(size=(3, 12, 4)), quality=quality)
    kernel = multi_dpp.build_joint_kernel(streams)
    pooled = streams.features.max(axis=0).T
    assert np.array_equal(kernel.q, np.clip(quality.prod(axis=0), dpp.QUALITY_FLOOR, 1.0))
    assert np.array_equal(kernel.phi, pooled / np.linalg.norm(pooled, axis=0))


def test_single_view_reduces_exactly():
    rng = np.random.default_rng(0)
    for _ in range(10):
        n, dprime = int(rng.integers(2, 7)), int(rng.integers(2, 6))
        feats = 2.0 * rng.normal(size=(1, n, dprime))  # norms far from 1
        quality = rng.uniform(0.2, 0.9, size=(1, n))
        streams = ViewStreams(features=feats, quality=quality)
        single = DppKernel(phi=feats[0].T, q=quality[0])
        subset = sorted(rng.choice(n, size=min(2, n), replace=False).tolist())
        assert multi_dpp.multi_dpp_log_prob(streams, subset) == dpp.log_prob(single, subset)


def test_view_permutation_invariance():
    rng = np.random.default_rng(1)
    for _ in range(20):
        m, n, dprime = int(rng.integers(2, 5)), int(rng.integers(2, 8)), 4
        streams = _random_streams(rng, m, n, dprime)
        subset = sorted(rng.choice(n, size=min(3, n), replace=False).tolist())
        base = multi_dpp.multi_dpp_log_prob(streams, subset)
        perm = rng.permutation(m)
        shuffled = ViewStreams(
            features=streams.features[perm], quality=streams.quality[perm]
        )
        assert abs(multi_dpp.multi_dpp_log_prob(shuffled, subset) - base) < 1e-12


def test_zero_pooled_column_rejected():
    streams = ViewStreams(features=np.zeros((1, 1, 2)), quality=np.full((1, 1), 0.5))
    with pytest.raises(DataError, match="column 0 is all zero"):
        multi_dpp.build_joint_kernel(streams)


@pytest.mark.parametrize(
    "m, floored",
    [(1, False), (2, False), (3, False), (1, True), (2, True), (3, True)],
    ids=["1", "2", "3", "1-floored", "2-floored", "3-floored"],
)
def test_log_prob_and_grad_matches_finite_differences(m, floored):
    rng = np.random.default_rng(2)
    h = 1e-6
    n, dprime = 5, 3
    streams = _random_streams(rng, m, n, dprime)
    subset = [1, 3]
    # view 0 scores below QUALITY_FLOOR at a target step and another step;
    # a step of 1e-7 keeps both sides of their differences below it
    below = np.zeros((m, n), dtype=bool)
    if floored:
        below[0, [1, 4]] = True
        streams = ViewStreams(
            features=streams.features, quality=np.where(below, 2e-7, streams.quality)
        )

    logp, gfeat, gqual = _log_prob_and_grad(streams, subset)
    assert logp == multi_dpp.multi_dpp_log_prob(streams, subset)
    assert gfeat.shape == (m, n, dprime) and gqual.shape == (m, n)

    def log_p(features, quality):
        return multi_dpp.multi_dpp_log_prob(
            ViewStreams(features=features, quality=quality), subset
        )

    worst = 0.0
    for idx in np.ndindex(m, n, dprime):
        plus, minus = streams.features.copy(), streams.features.copy()
        plus[idx] += h
        minus[idx] -= h
        fd = (log_p(plus, streams.quality) - log_p(minus, streams.quality)) / (2 * h)
        worst = max(worst, abs(fd - gfeat[idx]) / max(abs(fd), abs(gfeat[idx]), 1e-3))
    for idx in np.ndindex(m, n):
        step = 1e-7 if below[idx] else h
        plus, minus = streams.quality.copy(), streams.quality.copy()
        plus[idx] += step
        minus[idx] -= step
        fd = (log_p(streams.features, plus) - log_p(streams.features, minus)) / (2 * step)
        worst = max(worst, abs(fd - gqual[idx]) / max(abs(fd), abs(gqual[idx]), 1e-3))
    assert worst < 1e-4
    assert (gqual[below] == 0.0).all()


def test_backprop_gates_clamped_quality_product():
    # product far below the floor: kernel quality is pinned, so no gradient
    # should flow back into the per-view qualities
    rng = np.random.default_rng(3)
    streams = ViewStreams(
        features=rng.normal(size=(2, 4, 3)),
        quality=np.full((2, 4), 5e-4),  # product 2.5e-7 < floor everywhere
    )
    _, _, gqual = multi_dpp.multi_dpp_log_prob_and_view_grads(streams, [0, 2])
    assert (gqual == 0.0).all()

    # a view scoring exactly 0 zeroes the product, so the clamp is active
    # and no view gets a gradient at that step (and nothing divides by 0)
    quality = np.array([[0.0, 0.5, 0.5, 0.5], [1.0, 0.5, 0.5, 0.5]])
    streams = ViewStreams(features=streams.features, quality=quality)
    _, _, gqual = multi_dpp.multi_dpp_log_prob_and_view_grads(streams, [0, 2])
    assert (gqual[:, 0] == 0.0).all() and (gqual[:, 1:] != 0.0).all()


def _repeating_streams(dprime):
    # view 0 wins every dimension, so pooled columns 0 and 2 are both e_0
    # and every subset holding both is exactly singular
    cols = np.eye(dprime)[[0, 1, 0, 1]]
    features = np.stack([cols, 0.5 * cols])
    return ViewStreams(features=features, quality=np.full((2, 4), 0.5))


def test_subset_larger_than_output_dim_raises_with_rank_hint():
    with pytest.raises(NumericError, match="3 target steps exceed output_dim=2"):
        multi_dpp.multi_dpp_log_prob_and_view_grads(_repeating_streams(2), [0, 1, 2])


def test_singular_subset_within_the_rank_raises_without_the_hint():
    streams = _repeating_streams(3)
    with pytest.raises(NumericError, match="subset of size 2 has zero probability") as info:
        multi_dpp.multi_dpp_log_prob_and_view_grads(streams, [0, 2])
    assert "output_dim" not in str(info.value)
    assert multi_dpp.multi_dpp_log_prob(streams, [0, 2]) == -np.inf


def test_pool_features_matches_max_and_argmax():
    # small integer features tie across views everywhere; a tie must go to
    # the first view, as argmax does; 300 views store their index as uint16
    rng = np.random.default_rng(12)
    for m, n, dprime in ((1, 4, 3), (2, 7, 5), (3, 40, 8), (5, 9, 4), (300, 3, 2)):
        untied = rng.normal(size=(m, n, dprime))
        tied = rng.integers(1, 4, size=(m, n, dprime)).astype(float)
        for feats in (untied, tied):
            streams = ViewStreams(features=feats, quality=np.full((m, n), 0.5))
            kernel, argmax_views, _ = multi_dpp._joint_kernel(streams)
            expected = feats.max(axis=0).T
            assert argmax_views.dtype == (np.uint16 if m > 256 else np.uint8)
            assert np.array_equal(argmax_views, feats.argmax(axis=0))
            assert np.array_equal(kernel.norms, np.linalg.norm(expected, axis=0))
            assert np.array_equal(kernel.phi, expected / kernel.norms)


def test_feature_gradient_reaches_only_the_first_winning_view():
    # integer features tie across views: each (step, dimension) sends its
    # whole pooled gradient to the first view holding the maximum, zero to
    # every other view
    rng = np.random.default_rng(15)
    m, n, dprime = 4, 12, 5
    feats = rng.integers(1, 4, size=(m, n, dprime)).astype(float)
    streams = ViewStreams(features=feats, quality=rng.uniform(0.2, 0.9, size=(m, n)))
    subset = [1, 4, 8]
    _, grad_features, _ = _log_prob_and_grad(streams, subset)

    kernel = multi_dpp.build_joint_kernel(streams)
    _, grad_pooled, _ = dpp.log_prob_and_grad(kernel, subset)
    grad_pooled -= kernel.phi * np.einsum("dn,dn->n", kernel.phi, grad_pooled)
    grad_pooled /= kernel.norms
    first = feats.argmax(axis=0)
    assert (feats == feats.max(axis=0)).sum(axis=0).max() > 1  # some ties
    for view in range(m):
        assert np.array_equal(grad_features[view], np.where(first == view, grad_pooled.T, 0))
