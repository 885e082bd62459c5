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
from .errors import DataError, ValidationError


@dataclass(frozen=True)
class ViewStreams:
    """Per-view encoder outputs over a shared timeline.

    ``features``: (M, N, D') with unit-norm vectors per (view, step).
    ``quality``: (M, N) with entries in [QUALITY_FLOOR, 1].
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
        if (qual < dpp.QUALITY_FLOOR - 1e-12).any() or (qual > 1.0 + 1e-9).any():
            raise ValidationError("per-view qualities must lie in [QUALITY_FLOOR, 1]")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "quality", qual)

    @property
    def num_views(self) -> int:
        return self.features.shape[0]

    @property
    def num_steps(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class JointKernelBundle:
    """A joint kernel plus the max-pool provenance needed for diagnostics
    and for routing gradients back to the contributing views."""

    kernel: DppKernel
    argmax_views: np.ndarray   # (N, D') view index winning each dimension
    prenorm_norms: np.ndarray  # (N,) L2 norm of each max-pooled column
    raw_quality: np.ndarray    # (N,) quality product before the clamp


def build_joint_kernel(streams: ViewStreams) -> JointKernelBundle:
    pooled, argmax_views, norms = _pool_features(streams)
    raw = streams.quality.prod(axis=0)
    kernel = DppKernel(phi=pooled, q=np.clip(raw, dpp.QUALITY_FLOOR, 1.0))
    return JointKernelBundle(
        kernel=kernel, argmax_views=argmax_views, prenorm_norms=norms, raw_quality=raw
    )


def multi_dpp_log_prob(streams: ViewStreams, subset) -> float:
    """log P(y) of a time-step subset under the joint kernel."""
    return dpp.log_prob(build_joint_kernel(streams).kernel, subset)


def backprop_streams(
    bundle: JointKernelBundle,
    streams: ViewStreams,
    grad_joint_phi: np.ndarray,
    grad_joint_q: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Route joint-kernel gradients back to per-view features and qualities.

    Max-pooling sends each dimension's gradient to the winning view;
    L2 renormalization contributes the usual tangent projection; the quality
    product distributes multiplicatively, gated to zero where the clamp was
    active. The projected gradient is built in ``grad_joint_phi``'s memory,
    which the call overwrites.
    """
    m, n, dprime = streams.features.shape
    phi = bundle.kernel.phi  # unit columns, (D', N)
    grad_pooled = grad_joint_phi
    grad_pooled -= phi * np.einsum("dn,dn->n", phi, grad_pooled)
    grad_pooled /= bundle.prenorm_norms

    grad_features = np.zeros((m, n, dprime))
    for view in range(m):
        np.copyto(grad_features[view], grad_pooled.T, where=bundle.argmax_views == view)

    passthrough = (bundle.raw_quality > dpp.QUALITY_FLOOR) & (bundle.raw_quality <= 1.0)
    gated = np.where(passthrough, grad_joint_q * bundle.raw_quality, 0.0)
    grad_quality = gated[None, :] / streams.quality
    return grad_features, grad_quality


def _pool_features(streams: ViewStreams):
    """Max-pool the views per (step, dimension) and record the winning view;
    the strict ``>`` hands a tie to the first view, as ``argmax`` does."""
    features = streams.features
    pooled = features[0].copy()
    # (N, D'), in the smallest integer type that holds a view index
    argmax_views = np.zeros(pooled.shape, dtype=np.min_scalar_type(features.shape[0] - 1))
    for view in range(1, features.shape[0]):
        np.copyto(argmax_views, view, where=features[view] > pooled)
        np.maximum(pooled, features[view], out=pooled)
    pooled = pooled.T  # (D', N)
    norms = np.linalg.norm(pooled, axis=0)
    if (norms == 0.0).any():
        bad = int(np.flatnonzero(norms == 0.0)[0])
        raise DataError(f"max-pooled feature column {bad} is all zero")
    return pooled / norms, argmax_views, norms
