"""Single-ground-set DPP over the quality/feature decomposition.

The kernel is L = B^T B with B = Phi diag(q), where Phi (D' x N) has
unit-norm columns (one feature vector per item) and q holds per-item quality
scores. P(y) = det(L_y) / det(L + I).

Likelihoods use the dual representation (Kulesza & Taskar, "Determinantal
Point Processes for Machine Learning", 2012, sec. 3.3): det(L + I) equals
det(I + B B^T), a D' x D' matrix, so log P(y) and its gradient cost
O(N D'^2 + k^3) for a size-k subset (D' <= N) and never build the N x N
kernel. Only greedy MAP inference materializes L; the primal N x N formulas
live in ``bruteforce`` as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, ValidationError

QUALITY_FLOOR = 1e-6  # keeps log-likelihoods finite when a target item scores ~0
_UNIT_TOL = 1e-6
_GAIN_TIE_TOL = 1e-12  # greedy gains closer than this count as tied


@dataclass(frozen=True)
class DppKernel:
    """Decomposed DPP kernel over a ground set of N items.

    ``phi``: (D', N) feature matrix, columns renormalized to unit length at
    construction. ``q``: length-N qualities clamped up to QUALITY_FLOOR;
    values above 1 are rejected, matching the decomposition's q <= 1 regime.
    """

    phi: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        phi = np.array(self.phi, dtype=np.float64)
        q = np.array(self.q, dtype=np.float64)
        if phi.ndim != 2 or q.ndim != 1 or phi.shape[1] != q.shape[0]:
            raise ValidationError(
                f"phi must be (D', N) with q of length N, got {phi.shape} and {q.shape}"
            )
        if not (np.isfinite(phi).all() and np.isfinite(q).all()):
            raise DataError("kernel contains non-finite entries")
        norms = np.linalg.norm(phi, axis=0)
        if (norms == 0.0).any():
            raise DataError("zero feature column cannot be normalized")
        if (np.abs(norms - 1.0) > _UNIT_TOL).any():
            phi = phi / norms
        if (q > 1.0 + 1e-9).any():
            raise ValidationError(f"qualities must not exceed 1, max was {q.max()}")
        q = np.clip(q, QUALITY_FLOOR, 1.0)
        phi.flags.writeable = False
        q.flags.writeable = False
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "q", q)

    @property
    def ground_size(self) -> int:
        return self.q.shape[0]

    def matrix(self) -> np.ndarray:
        """The induced (N, N) kernel L = diag(q) Phi^T Phi diag(q)."""
        scaled = self.phi * self.q
        return scaled.T @ scaled


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
    factors. The caller owns any gradient through the column normalization
    of phi. A numerically singular L_y (where log_prob gives -inf) has no
    gradient and raises NumericError.
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
    grad_phi = grad_b * kernel.q
    grad_q = np.einsum("dn,dn->n", kernel.phi, grad_b)
    return _chol_logdet(sub_chol) - _chol_logdet(chol), grad_phi, grad_q


def greedy_map(kernel, max_size: int | None = None, mode: str = "chol", fill: bool = False):
    """Greedy MAP: repeatedly add the item with the largest logdet gain.

    ``kernel`` is a DppKernel or any symmetric PSD matrix. Items are added
    while the best gain is non-negative (a strictly negative gain means
    every remaining item shrinks det(L_y)); note that a decomposed kernel
    with all q < 1 therefore selects nothing, which matches the exhaustive
    optimum. Gains within _GAIN_TIE_TOL count as tied and ties break on the
    smallest index, which keeps the two evaluation strategies' float noise
    from flipping the pick. ``mode`` selects incremental Cholesky updates
    ("chol") or from-scratch recomputation ("recompute"); both give
    identical selections.

    With ``fill=True`` the negative-gain stop is disabled: selection keeps
    taking the least-redundant item until ``max_size`` (or until every
    remaining item would make the subset singular). Budgeted diversity
    pickers want this mode; MAP inference does not.

    Returns the selected indices in selection order.
    """
    if isinstance(kernel, DppKernel):
        mat = kernel.matrix()
    else:
        mat = np.asarray(kernel, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValidationError(f"kernel matrix must be square, got shape {mat.shape}")
        if not np.allclose(mat, mat.T, atol=1e-9):
            raise ValidationError("kernel matrix must be symmetric")
    n = mat.shape[0]
    if max_size is None:
        max_size = n
    if not (0 <= max_size <= n):
        raise ValidationError(f"max_size must lie in [0, {n}], got {max_size}")
    if mode not in ("chol", "recompute"):
        raise ValidationError(f"unknown greedy mode {mode!r}")
    selected: list[int] = []
    if mode == "chol":
        chol = np.zeros((0, 0))
        remaining = list(range(n))
        while len(selected) < max_size and remaining:
            best_gain = -np.inf
            best_item = -1
            best_col = None
            for j in remaining:
                if selected:
                    c = np.linalg.solve(chol, mat[selected, j])
                    residual = mat[j, j] - c @ c
                else:
                    c = np.zeros(0)
                    residual = mat[j, j]
                gain = np.log(residual) if residual > 0.0 else -np.inf
                if gain > best_gain + _GAIN_TIE_TOL:
                    best_gain, best_item, best_col = gain, j, c
            if best_gain == -np.inf or (best_gain < 0.0 and not fill):
                break
            k = len(selected)
            grown = np.zeros((k + 1, k + 1))
            grown[:k, :k] = chol
            grown[k, :k] = best_col
            grown[k, k] = np.sqrt(mat[best_item, best_item] - best_col @ best_col)
            chol = grown
            selected.append(best_item)
            remaining.remove(best_item)
        return selected
    # recompute mode: evaluate each candidate's logdet from scratch
    current = 0.0
    remaining = list(range(n))
    while len(selected) < max_size and remaining:
        best_gain = -np.inf
        best_item = -1
        for j in remaining:
            trial = selected + [j]
            trial_chol = _cholesky(mat[np.ix_(trial, trial)])
            gain = -np.inf if trial_chol is None else _chol_logdet(trial_chol) - current
            if gain > best_gain + _GAIN_TIE_TOL:
                best_gain, best_item = gain, j
        if best_gain == -np.inf or (best_gain < 0.0 and not fill):
            break
        selected.append(best_item)
        remaining.remove(best_item)
        current += best_gain
    return selected


def _check_subset(kernel: DppKernel, subset) -> np.ndarray:
    idx = np.asarray(sorted(set(int(i) for i in subset)), dtype=np.intp)
    if idx.size and (idx[0] < 0 or idx[-1] >= kernel.ground_size):
        raise ValidationError(
            f"subset {idx.tolist()} outside ground set of size {kernel.ground_size}"
        )
    return idx
