"""Joint DPP over M temporally aligned feature streams.

The ground set is the N shared time-steps. Per time-step, the joint feature
is the element-wise maximum of the per-view feature vectors (renormalized to
unit length so pairwise dot products stay in [-1, 1]) and the joint quality
is the product of per-view qualities. Both reductions are invariant to view
order, which is what makes the model train on any number of views.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dpp
from .dpp import DppKernel
from .errors import DataError, NumericError, ValidationError


@dataclass(frozen=True)
class ViewStreams:
    """Per-view encoder outputs over a shared timeline.

    ``features``: (M, N, D') with unit-norm vectors per (view, step).
    ``quality``: (M, N) scores in [0, 1]; the joint kernel clamps their
    product up to QUALITY_FLOOR, so a view scoring ~0 keeps it finite.
    """

    features: np.ndarray
    quality: np.ndarray

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        qual = np.asarray(self.quality, dtype=np.float64)
        if feats.ndim != 3 or qual.ndim != 2 or feats.shape[:2] != qual.shape:
            raise ValidationError(
                f"features (M, N, D') and quality (M, N) disagree: {feats.shape} vs {qual.shape}"
            )
        if feats.shape[0] < 1:
            raise ValidationError("at least one view is required")
        if not (np.isfinite(feats).all() and np.isfinite(qual).all()):
            raise DataError("streams contain non-finite entries")
        if (qual < 0.0).any() or (qual > 1.0).any():
            raise ValidationError("per-view qualities must lie in [0, 1]")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "quality", qual)

    @property
    def num_views(self) -> int:
        return self.features.shape[0]

    @property
    def num_steps(self) -> int:
        return self.features.shape[1]


def build_joint_kernel(streams: ViewStreams) -> DppKernel:
    """The joint kernel: max-pooled unit features, quality product clamped."""
    return _joint_kernel(streams)[0]


def multi_dpp_log_prob(streams: ViewStreams, subset) -> float:
    """log P(y) of a time-step subset under the joint kernel."""
    return dpp.log_prob(build_joint_kernel(streams), subset)


def multi_dpp_log_prob_and_grad(
    streams: ViewStreams, subset
) -> tuple[float, np.ndarray, np.ndarray]:
    """log P(y) under the joint kernel and its gradients with respect to the
    per-view features (M, N, D') and qualities (M, N).

    Max-pooling sends each dimension's gradient to the winning view; L2
    renormalization contributes the usual tangent projection; the quality
    product distributes multiplicatively, gated to zero where its clamp was
    active: at or below QUALITY_FLOOR, where any view at or below the floor
    puts it (every score is positive where the gate is open). The kernel is
    freed before the per-view gradient is allocated. A zero-probability
    subset raises NumericError, naming D' (the kernel's rank bound) when the
    subset is larger.
    """
    kernel, argmax_views, norms, raw_quality = _joint_kernel(streams)
    m, n, dprime = streams.features.shape
    try:
        log_p, grad_pooled, grad_q = dpp.log_prob_and_grad(kernel, subset)
    except NumericError as exc:
        size = len(set(subset))
        hint = (
            f" ({size} target steps exceed output_dim={dprime}; the joint kernel has rank at "
            f"most output_dim, so such subsets have probability 0 - use a larger output_dim)"
        ) if size > dprime else ""
        raise NumericError(
            f"target subset of size {size} has zero probability under the joint kernel{hint}"
        ) from exc
    phi = kernel.phi  # unit columns, (D', N)
    grad_pooled -= phi * np.einsum("dn,dn->n", phi, grad_pooled)
    grad_pooled /= norms
    del kernel, phi

    grad_features = np.zeros((m, n, dprime))
    for view in range(m):
        np.copyto(grad_features[view], grad_pooled.T, where=argmax_views == view)

    passthrough = raw_quality > dpp.QUALITY_FLOOR
    gated = np.where(passthrough, grad_q * raw_quality, 0.0)
    grad_quality = np.zeros((m, n))
    np.divide(gated, streams.quality, out=grad_quality, where=passthrough)
    return log_p, grad_features, grad_quality


def _joint_kernel(streams: ViewStreams):
    """The joint kernel and the provenance its gradient routes through:
    (kernel, argmax_views (N, D'), the pooled columns' norms (N,), the
    quality product before the clamp (N,)). Max-pooling records the winning
    view per (step, dimension); the strict ``>`` hands a tie to the first
    view, as ``argmax`` does. DppKernel normalizes the pooled columns and
    clamps the product; the norms are taken with the same call it uses."""
    features = streams.features
    pooled = features[0].copy()
    # (N, D'), in the smallest integer type that holds a view index
    argmax_views = np.zeros(pooled.shape, dtype=np.min_scalar_type(features.shape[0] - 1))
    for view in range(1, features.shape[0]):
        np.copyto(argmax_views, view, where=features[view] > pooled)
        np.maximum(pooled, features[view], out=pooled)
    pooled = pooled.T  # (D', N)
    norms = np.linalg.norm(pooled, axis=0)
    raw = streams.quality.prod(axis=0)
    return DppKernel(phi=pooled, q=raw), argmax_views, norms, raw
