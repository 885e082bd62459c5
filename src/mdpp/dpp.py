"""Single-ground-set DPP over the quality/feature decomposition.

The kernel is L = B^T B with B = Phi diag(q), where Phi (D' x N) has
unit-norm columns (one feature vector per item) and q holds per-item quality
scores. P(y) = det(L_y) / det(L + I).

Likelihoods use the dual representation (Kulesza & Taskar, "Determinantal
Point Processes for Machine Learning", 2012, sec. 3.3): det(L + I) equals
det(I + B B^T), a D' x D' matrix, so log P(y) and its gradient cost
O(N D'^2 + k^3) for a size-k subset (D' <= N) and never build the N x N
kernel; the primal N x N formulas live in ``bruteforce`` as the reference.

Greedy MAP grows an incremental Cholesky factor (Chen, Zhang & Zhou, NeurIPS
2018) at O(N k) per pick after k picks, stops at the kernel's numerical rank
and breaks ties on the smallest index; ``bruteforce`` recomputes it. It takes
a (D', N) factor B (a DppKernel's is ``phi * q``) and reads L = B^T B only
through it: the diagonal as squared column norms and a picked item's row as
B[:, j]^T B, so it never builds the N x N kernel either. The N x N kernel is
built only in ``bruteforce``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data_model import check_int
from .errors import DataError, NumericError, ValidationError

QUALITY_FLOOR = 1e-6  # keeps log-likelihoods finite when a target item scores ~0
_GAIN_TIE_TOL = 1e-12  # greedy gains closer than this count as tied
_SINGULAR_TOL = 1e-10  # greedy residual at most this times L_jj: item j is singular


@dataclass(frozen=True, eq=False)
class DppKernel:
    """Decomposed DPP kernel over a ground set of N items: the one place a
    kernel's columns are normalized and its qualities clamped.

    ``phi``: (D', N) feature matrix, stored divided by its column norms.
    ``q``: length-N qualities in [0, 1], as ``multi_dpp.ViewStreams`` scores
    are, stored clamped up to QUALITY_FLOOR; values outside [0, 1] are
    rejected.
    ``norms``: the length-N column norms ``phi`` was divided by.
    """

    phi: np.ndarray
    q: np.ndarray
    norms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=np.float64)
        q = np.asarray(self.q, dtype=np.float64)
        if phi.ndim != 2 or q.ndim != 1 or phi.shape[1] != q.shape[0]:
            raise ValidationError(
                f"phi must be (D', N) with q of length N, got {phi.shape} and {q.shape}"
            )
        if not (np.isfinite(phi).all() and np.isfinite(q).all()):
            raise DataError("kernel contains non-finite entries")
        norms = np.linalg.norm(phi, axis=0)
        if (norms == 0.0).any():
            raise DataError(f"feature column {int(np.argmin(norms))} is all zero")
        if (q < 0.0).any() or (q > 1.0).any():
            raise ValidationError(f"qualities must lie in [0, 1], got [{q.min()}, {q.max()}]")
        phi = phi / norms
        q = np.clip(q, QUALITY_FLOOR, 1.0)
        for name, value in (("phi", phi), ("q", q), ("norms", norms)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def ground_size(self) -> int:
        return self.q.shape[0]


def _cholesky(mat: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor; None when the matrix is numerically singular."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return None


def _chol_logdet(chol: np.ndarray) -> float:
    return 2.0 * float(np.log(np.diag(chol)).sum())


def _chol_inverse(chol: np.ndarray) -> np.ndarray:
    """(chol chol^T)^{-1} from the lower factor."""
    inv = np.linalg.inv(chol)
    return inv.T @ inv


def _dual_factors(kernel: DppKernel, idx: np.ndarray):
    """Factor the two small matrices every likelihood quantity needs.

    Returns (B, chol, sub_chol): B = phi diag(q), the Cholesky factor of the
    D' x D' dual matrix I + B B^T, and that of L_y = B_y^T B_y (None when L_y
    is numerically singular).
    """
    scaled = kernel.phi * kernel.q
    dual = scaled @ scaled.T
    dual[np.diag_indices_from(dual)] += 1.0
    chol = _cholesky(dual)
    if chol is None:
        raise NumericError("factorization of I + B B^T failed; kernel is corrupted")
    sub = scaled[:, idx]
    return scaled, chol, _cholesky(sub.T @ sub)


def log_prob(kernel: DppKernel, subset) -> float:
    """Exact log P(y) = logdet(L_y) - logdet(I + B B^T).

    The empty subset contributes logdet 1 = 0. A numerically singular L_y is
    a legitimately zero-probability subset and yields -inf rather than an
    exception.
    """
    idx = _check_subset(kernel, subset)
    _, chol, sub_chol = _dual_factors(kernel, idx)
    if sub_chol is None:
        return float("-inf")
    return _chol_logdet(sub_chol) - _chol_logdet(chol)


def log_prob_and_grad(kernel: DppKernel, subset) -> tuple[float, np.ndarray, np.ndarray]:
    """log P(y) with its gradients with respect to phi (D', N) and q (N,).

    With B = phi diag(q), dlogP/dB is 2 B_y L_y^{-1} on the subset's columns
    minus 2 (I + B B^T)^{-1} B everywhere; it is then split into its phi and q
    factors. ``multi_dpp.multi_dpp_log_prob_and_view_grads`` owns the
    gradient through phi's column normalization. A numerically singular L_y
    (where log_prob gives -inf) has no gradient and raises NumericError.
    """
    idx = _check_subset(kernel, subset)
    scaled, chol, sub_chol = _dual_factors(kernel, idx)
    if sub_chol is None:
        raise NumericError(f"L_y is numerically singular for subset {idx.tolist()}")
    grad_b = -2.0 * _chol_inverse(chol) @ scaled
    if idx.size:
        sub_inv = _chol_inverse(sub_chol)
        if not np.isfinite(sub_inv).all():
            raise NumericError(f"L_y is numerically singular for subset {idx.tolist()}")
        grad_b[:, idx] += 2.0 * scaled[:, idx] @ sub_inv
    grad_q = np.einsum("dn,dn->n", kernel.phi, grad_b)
    grad_b *= kernel.q  # now dlogP/dphi
    return _chol_logdet(sub_chol) - _chol_logdet(chol), grad_b, grad_q


def greedy_map(factor, max_size: int | None = None, fill: bool = False):
    """Greedy MAP: repeatedly add the item with the largest logdet gain.

    ``factor`` is a (D', N) factor B of the kernel L = B^T B, which is never
    built; a DppKernel's is ``phi * q``. L's diagonal is the squared column
    norms of B and a picked item's row is B[:, j]^T B, O(N D') per pick.
    The gain of item j is log d2_j, where d2_j = det(L_{y+j}) / det(L_y) is
    j's Cholesky residual given the selection y. Each pick appends one row
    of the incremental Cholesky factor for all N candidates at once and
    downdates every residual, so after k picks the next one costs O(N k).

    Items are added while the best gain is non-negative (a strictly negative
    gain means every remaining item shrinks det(L_y)); a DppKernel's factor
    with all q < 1 therefore selects nothing, which matches the exhaustive
    optimum. With ``fill=True`` the negative-gain stop is disabled and
    selection keeps taking the least-redundant item up to ``max_size``;
    budgeted diversity pickers want this mode, MAP inference does not.

    An item whose residual is at most _SINGULAR_TOL * L_jj would make L_y
    singular and is never picked, so selection stops at the kernel's
    numerical rank and no pick rests on a round-off residual. The pick is
    the smallest index whose gain is within _GAIN_TIE_TOL of the best.

    Returns the selected indices in selection order.
    """
    factor = np.asarray(factor)
    if factor.ndim != 2:
        raise ValidationError(f"greedy MAP takes a (D', N) factor, got shape {factor.shape}")
    factor = factor.astype(np.float64, copy=False)
    diag = np.einsum("dn,dn->n", factor, factor)
    n = diag.shape[0]
    max_size = n if max_size is None else check_int(max_size, "max_size", 0, n)
    residual = diag.copy()
    rows = np.zeros((max_size, n))  # rows[i] is the i-th pick's Cholesky row
    live = np.ones(n, dtype=bool)  # neither picked nor singular
    selected: list[int] = []
    while len(selected) < max_size:
        live &= residual > _SINGULAR_TOL * diag
        if not live.any():
            break
        gains = np.full(n, -np.inf)
        gains[live] = np.log(residual[live])
        best = gains.max()
        if best < 0.0 and not fill:
            break
        j = int(np.argmax(gains >= best - _GAIN_TIE_TOL))
        k = len(selected)
        rows[k] = (factor[:, j] @ factor - rows[:k, j] @ rows[:k]) / np.sqrt(residual[j])
        residual -= rows[k] ** 2
        live[j] = False
        selected.append(j)
    return selected


def _check_subset(kernel: DppKernel, subset) -> np.ndarray:
    last = kernel.ground_size - 1
    return np.asarray(sorted({check_int(i, "subset item", 0, last) for i in subset}), dtype=np.intp)
