import math

import numpy as np
import pytest

from mdpp import bruteforce, dpp
from mdpp.dpp import DppKernel
from mdpp.errors import DataError, NumericError, ValidationError


def test_kernel_renormalizes_columns():
    rng = np.random.default_rng(0)
    phi = 3.0 * rng.normal(size=(4, 6))
    kernel = DppKernel(phi=phi, q=np.full(6, 0.5))
    np.testing.assert_allclose(np.linalg.norm(kernel.phi, axis=0), 1.0, atol=1e-12)


def test_kernel_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        DppKernel(phi=np.eye(3), q=np.array([0.5, 0.5]))
    for bad in (1.5, 1.0 + 1e-12, -3.0, -1e-12):
        with pytest.raises(ValidationError, match="must lie in"):
            DppKernel(phi=np.eye(3), q=np.array([0.5, 0.5, bad]))
    with pytest.raises(DataError, match="column 0 is all zero"):
        DppKernel(phi=np.zeros((3, 2)), q=np.array([0.5, 0.5]))
    phi = np.eye(2)
    phi_bad = phi.copy()
    phi_bad[0, 0] = np.nan
    with pytest.raises(DataError):
        DppKernel(phi=phi_bad, q=np.array([0.5, 0.5]))


def test_kernel_clips_quality_floor():
    kernel = DppKernel(phi=np.eye(2), q=np.array([0.0, 0.5]))
    assert kernel.q[0] == dpp.QUALITY_FLOOR


def test_normalizer_matches_powerset_sum():
    rng = np.random.default_rng(1)
    for _ in range(30):
        kernel = bruteforce.random_kernel(rng, int(rng.integers(2, 8)))
        brute = bruteforce.powerset_det_sum(kernel)
        fast = math.exp(-dpp.log_prob(kernel, []))
        assert abs(fast - brute) / brute < 1e-10


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(2)
    for _ in range(20):
        kernel = bruteforce.random_kernel(rng, int(rng.integers(2, 8)))
        total = sum(
            math.exp(dpp.log_prob(kernel, s))
            for s in bruteforce.all_subsets(kernel.ground_size)
        )
        assert abs(total - 1.0) < 1e-10


def test_log_prob_empty_subset():
    rng = np.random.default_rng(3)
    kernel = bruteforce.random_kernel(rng, 5)
    logp, _, _ = dpp.log_prob_and_grad(kernel, [])
    assert dpp.log_prob(kernel, []) == logp
    oracle = -bruteforce.normalizer_logdet(kernel)
    assert abs(logp - oracle) < 1e-10 * abs(oracle)


def test_log_prob_rank_bound():
    # phi has 2 rows, so L has rank <= 2; the full 6-subset is deficient by 4
    # and its factorization reliably fails (at deficiency 1 the determinant is
    # a roundoff residue that may still factor to a tiny positive value)
    rng = np.random.default_rng(4)
    kernel = DppKernel(phi=rng.normal(size=(2, 6)), q=np.full(6, 0.9))
    assert dpp.log_prob(kernel, [0, 2]) > -np.inf
    assert dpp.log_prob(kernel, range(6)) == -np.inf


def test_log_prob_rejects_out_of_range_subset():
    kernel = DppKernel(phi=np.eye(3), q=np.full(3, 0.5))
    with pytest.raises(ValidationError):
        dpp.log_prob(kernel, [0, 3])
    for subset in ([1.5], [True]):  # not read as [1]
        with pytest.raises(ValidationError, match="subset item must be an integer in \\[0, 2\\]"):
            dpp.log_prob(kernel, subset)


def _raw_log_prob(mat: np.ndarray, subset) -> float:
    idx = list(subset)
    sign, sub = np.linalg.slogdet(mat[np.ix_(idx, idx)]) if idx else (1.0, 0.0)
    _, full = np.linalg.slogdet(mat + np.eye(mat.shape[0]))
    return sub - full


def test_grad_L_matches_directional_finite_differences():
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(10):
        n = int(rng.integers(3, 7))
        kernel = bruteforce.random_kernel(rng, n)
        subset = sorted(rng.choice(n, size=2, replace=False).tolist())
        grad = bruteforce.logprob_grad_L(kernel, subset)
        mat = bruteforce.kernel_matrix(kernel)
        direction = rng.normal(size=(n, n))
        direction = direction + direction.T
        fd = (
            _raw_log_prob(mat + h * direction, subset)
            - _raw_log_prob(mat - h * direction, subset)
        ) / (2 * h)
        analytic = float((grad * direction).sum())
        # near-singular subsets blow up the curvature, so the central
        # difference itself carries a few ulps of relative noise
        assert abs(fd - analytic) < 1e-4 * max(1.0, abs(fd))


def test_kernel_grads_match_finite_differences():
    # checks the (phi, q) gradients; the phi direction includes the tangent
    # projection of the column normalization applied at construction
    rng = np.random.default_rng(6)
    h = 1e-5
    for _ in range(10):
        n = int(rng.integers(3, 6))
        phi = rng.normal(size=(4, n))
        phi /= np.linalg.norm(phi, axis=0)
        q = rng.uniform(0.2, 0.9, size=n)
        subset = sorted(rng.choice(n, size=2, replace=False).tolist())
        kernel = DppKernel(phi=phi, q=q)
        _, gphi, gq = dpp.log_prob_and_grad(kernel, subset)

        for i in range(n):
            plus, minus = q.copy(), q.copy()
            plus[i] += h
            minus[i] -= h
            fd = (
                dpp.log_prob(DppKernel(phi=phi, q=plus), subset)
                - dpp.log_prob(DppKernel(phi=phi, q=minus), subset)
            ) / (2 * h)
            assert abs(fd - gq[i]) < 1e-5 * max(1.0, abs(fd))

        inner = np.einsum("dn,dn->n", kernel.phi, gphi)
        projected = gphi - kernel.phi * inner
        direction = rng.normal(size=phi.shape)
        fd = (
            dpp.log_prob(DppKernel(phi=phi + h * direction, q=q), subset)
            - dpp.log_prob(DppKernel(phi=phi - h * direction, q=q), subset)
        ) / (2 * h)
        analytic = float((projected * direction).sum())
        assert abs(fd - analytic) < 1e-4 * max(1.0, abs(fd))


def test_greedy_matches_reference():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        factor = rng.normal(size=(n, n))  # eigenvalues above 1 are possible, so picks happen
        assert dpp.greedy_map(factor) == bruteforce.reference_greedy_map(factor)


def test_greedy_fill_stops_at_kernel_rank():
    # rank-4 kernel: past four picks every residual is round-off
    rng = np.random.default_rng(11)
    kernel = DppKernel(phi=rng.normal(size=(4, 12)), q=np.ones(12))
    factor = kernel.phi * kernel.q
    picks = dpp.greedy_map(factor, max_size=8, fill=True)
    assert len(picks) == 4
    assert picks == bruteforce.reference_greedy_map(factor, max_size=8, fill=True)


def _eigh_factor(mat):
    """An (N, N) factor F with F^T F = mat for a symmetric PSD, possibly
    singular, matrix; round-off negative eigenvalues count as 0."""
    values, vectors = np.linalg.eigh(mat)
    return np.sqrt(np.clip(values, 0.0, None))[:, None] * vectors.T


def test_greedy_factor_rows_match_kernel_matrix():
    # greedy MAP on another factor of a DppKernel's built N x N kernel (an
    # eigh factor on low-rank (D' < N) kernels, a Cholesky factor on
    # full-rank ones) picks what the reference greedy picks from
    # B = phi diag(q), whose rows it computes from scratch
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(2, 30))
        for dim in (int(rng.integers(1, n)), int(rng.integers(n, 2 * n + 1))):
            kernel = DppKernel(phi=rng.normal(size=(dim, n)), q=rng.uniform(0.05, 1.0, size=n))
            mat = bruteforce.kernel_matrix(kernel)
            factor = np.linalg.cholesky(mat).T if dim >= n else _eigh_factor(mat)
            for max_size, fill in ((None, False), (n, True), (int(rng.integers(0, n + 1)), True)):
                picks = dpp.greedy_map(factor, max_size=max_size, fill=fill)
                reference = bruteforce.reference_greedy_map(
                    kernel.phi * kernel.q, max_size=max_size, fill=fill
                )
                assert picks == reference


def test_greedy_on_diagonal_factor():
    assert dpp.greedy_map(np.sqrt(np.diag([2.0, 0.5]))) == [0]


def test_greedy_diagonal_matches_exhaustive():
    rng = np.random.default_rng(8)
    for _ in range(30):
        n = int(rng.integers(1, 9))
        kernel = DppKernel(phi=np.eye(n), q=rng.uniform(dpp.QUALITY_FLOOR, 1.0, size=n))
        factor = kernel.phi * kernel.q
        assert sorted(dpp.greedy_map(factor)) == bruteforce.exhaustive_map(factor)


@pytest.mark.parametrize("never_stops", [False, True])
def test_dpp_check_fails_when_greedy_stops_at_once_or_never(monkeypatch, never_stops):
    # a greedy that picks nothing matches every q < 1 kernel's empty MAP, so
    # only the diagonal factors (MAP {d > 1}) catch it; one that ignores the
    # negative-gain stop (fill mode) fails on both
    greedy = dpp.greedy_map

    def mutant(kernel, max_size=None, fill=False):
        return greedy(kernel, max_size, fill=True) if never_stops else []

    monkeypatch.setattr(dpp, "greedy_map", mutant)
    rows = {name: ok for name, ok, _ in bruteforce.check_dpp(n=4, trials=5)}
    assert rows["greedy MAP = exhaustive MAP on diagonal kernels"] is False


def test_greedy_empty_when_all_qualities_below_one():
    # every det(L_y) < 1 = det(L_{}) when q < 1, so the optimum is empty
    rng = np.random.default_rng(9)
    kernel = bruteforce.random_kernel(rng, 6)
    factor = kernel.phi * kernel.q
    assert dpp.greedy_map(factor) == []
    assert bruteforce.exhaustive_map(factor) == []


def test_greedy_max_size_and_tie_break():
    assert dpp.greedy_map(np.eye(4), max_size=2) == [0, 1]
    assert dpp.greedy_map(np.eye(4), max_size=0) == []


def test_greedy_fill_mode_runs_to_max_size():
    # unit-diagonal kernel: plain mode stops after one zero-gain pick,
    # fill mode keeps selecting the least-redundant items
    rng = np.random.default_rng(10)
    kernel = DppKernel(phi=rng.normal(size=(5, 8)), q=np.ones(8))
    factor = kernel.phi * kernel.q
    assert len(dpp.greedy_map(factor, max_size=4)) == 1
    filled = dpp.greedy_map(factor, max_size=4, fill=True)
    assert len(filled) == 4
    assert bruteforce.reference_greedy_map(factor, max_size=4, fill=True) == filled


def test_greedy_rejects_bad_arguments():
    with pytest.raises(ValidationError):
        dpp.greedy_map(np.ones(3))
    with pytest.raises(ValidationError):
        dpp.greedy_map(np.ones((2, 3, 1)))
    with pytest.raises(ValidationError):
        dpp.greedy_map(np.eye(2), max_size=3)
    with pytest.raises(ValidationError):  # takes the factor B, not the kernel
        dpp.greedy_map(DppKernel(phi=np.eye(2), q=np.full(2, 0.5)))


@pytest.mark.parametrize("max_size", [2.5, 2.0, True, "2"])
def test_greedy_rejects_non_integer_max_size(max_size):
    with pytest.raises(ValidationError, match="max_size must be an integer"):
        dpp.greedy_map(np.eye(3), max_size=max_size)


def test_greedy_accepts_numpy_integer_max_size():
    assert dpp.greedy_map(np.eye(3), max_size=np.int64(2)) == [0, 1]


def test_logprob_grad_rejects_singular_subset():
    kernel = DppKernel(phi=np.array([[1.0, 1.0], [0.0, 0.0]]), q=np.array([0.5, 0.5]))
    with pytest.raises(NumericError):
        dpp.log_prob_and_grad(kernel, [0, 1])
