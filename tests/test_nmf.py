import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from lexigraph import nmf
from lexigraph.errors import DataError, ParameterError
from lexigraph.nmf import NmfFactors, factorize, init_factors, reconstruction_error, refit_h


def rel_error(X, W, H):
    X = np.asarray(X, dtype=float)
    return np.linalg.norm(X - W @ H) / np.linalg.norm(X)


class TestInitFactors:
    def test_same_seed_bit_identical(self):
        a = init_factors((5, 7), 3, seed=11, mean=0.4)
        b = init_factors((5, 7), 3, seed=11, mean=0.4)
        assert np.array_equal(a.W, b.W) and np.array_equal(a.H, b.H)

    def test_different_seeds_differ(self):
        a = init_factors((5, 7), 3, seed=1)
        b = init_factors((5, 7), 3, seed=2)
        assert not np.array_equal(a.W, b.W)

    def test_shapes_and_positivity(self):
        f = init_factors((2, 2), 1, seed=0)
        assert f.W.shape == (2, 1) and f.H.shape == (1, 2)
        assert (f.W > 0).all() and (f.H > 0).all()

    def test_k_validation(self):
        with pytest.raises(ParameterError):
            init_factors((3, 3), 0, seed=0)


class TestFactorize:
    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(3)
        u = rng.uniform(0.1, 1.0, 12)
        v = rng.uniform(0.1, 1.0, 9)
        X = np.outer(u, v)
        f = factorize(X, k=1, seed=5, max_iters=2000, tol=0.0, target_error=1e-8)
        assert f.final_error < 1e-6

    def test_identity_recoverable(self):
        f = factorize(np.eye(4), k=4, seed=0, max_iters=5000, tol=0.0, target_error=1e-8)
        assert f.final_error < 1e-6

    def test_loss_history_non_increasing(self):
        rng = np.random.default_rng(17)
        X = rng.uniform(0, 1, (20, 10))
        f = factorize(X, k=3, seed=2, max_iters=200, tol=0.0)
        h = np.asarray(f.loss_history)
        assert len(h) == 201  # initial error plus one per iteration
        assert (h[1:] <= h[:-1] + 1e-9).all()

    def test_non_negativity_preserved(self):
        rng = np.random.default_rng(23)
        X = sp.random(30, 20, density=0.3, random_state=7, data_rvs=lambda n: rng.uniform(0.1, 2, n))
        f = factorize(X, k=4, seed=9, max_iters=150, tol=0.0)
        assert (f.W >= 0).all() and (f.H >= 0).all()

    def test_deterministic(self):
        rng = np.random.default_rng(29)
        X = rng.uniform(0, 1, (15, 12))
        a = factorize(X, k=3, seed=77, max_iters=100, tol=0.0)
        b = factorize(X, k=3, seed=77, max_iters=100, tol=0.0)
        assert np.array_equal(a.W, b.W) and np.array_equal(a.H, b.H)
        assert a.loss_history == b.loss_history

    def test_scale_invariance_of_relative_error(self):
        rng = np.random.default_rng(31)
        X = rng.uniform(0, 1, (10, 8))
        a = factorize(X, k=2, seed=4, max_iters=100, tol=0.0)
        b = factorize(100.0 * X, k=2, seed=4, max_iters=100, tol=0.0)
        # relative error is scale-free; trajectories agree to rounding
        assert a.final_error == pytest.approx(b.final_error, abs=1e-9)

    def test_k_out_of_range(self):
        X = np.eye(3)
        with pytest.raises(ParameterError):
            factorize(X, k=4, seed=0)
        with pytest.raises(ParameterError):
            factorize(X, k=0, seed=0)

    def test_all_zero_matrix_rejected(self):
        with pytest.raises(DataError):
            factorize(np.zeros((3, 3)), k=1, seed=0)

    def test_tol_stops_early(self):
        rng = np.random.default_rng(37)
        X = np.outer(rng.uniform(0.5, 1, 10), rng.uniform(0.5, 1, 10))
        f = factorize(X, k=1, seed=3, max_iters=5000, tol=1e-4)
        assert len(f.loss_history) < 5001


class TestReconstructionError:
    def test_exact_factors_zero(self):
        W = np.array([[1.0], [2.0]])
        H = np.array([[3.0, 4.0]])
        f = NmfFactors(W=W, H=H, k=1)
        assert reconstruction_error(W @ H, f) == pytest.approx(0.0, abs=1e-12)

    def test_zero_factors_give_one(self):
        X = np.ones((3, 3))
        f = NmfFactors(W=np.zeros((3, 2)), H=np.zeros((2, 3)), k=2)
        assert reconstruction_error(X, f) == pytest.approx(1.0)

    def test_half_identity(self):
        X = np.eye(3)
        f = NmfFactors(W=np.eye(3) * 0.5, H=np.eye(3), k=3)
        assert reconstruction_error(X, f) == pytest.approx(0.5)

    def test_dimension_mismatch(self):
        f = NmfFactors(W=np.ones((2, 1)), H=np.ones((1, 2)), k=1)
        with pytest.raises(ParameterError):
            reconstruction_error(np.ones((3, 3)), f)


class TestRefitH:
    def test_recovers_h_for_fixed_w(self):
        rng = np.random.default_rng(41)
        W = rng.uniform(0.1, 1.0, (20, 3))
        H_true = rng.uniform(0.1, 1.0, (3, 15))
        X = W @ H_true
        H = refit_h(X, W, max_iters=2000, tol=1e-12)
        assert rel_error(X, W, H) < 1e-4


@st.composite
def off_rank_matrices(draw):
    """A non-negative matrix holding a row- and column-diagonally dominant
    n x n block (diagonal in [1, 2], each off-diagonal at most 0.5 / n), and a
    rank k < n. The block's smallest singular value is at least 0.5, so every
    rank-k factor pair leaves a relative error above 0.07: far from the ~1e-8
    floor where cancellation in the Gram expansion shows."""
    n = draw(st.integers(2, 6))
    extra = draw(st.integers(0, 4))
    entries = st.floats(0.0, 1.0)
    X = np.array(draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                               min_size=n + extra, max_size=n + extra)))
    X[:n] *= 0.5 / n
    X[np.arange(n), np.arange(n)] = 1.0 + np.array(draw(st.lists(entries, min_size=n, max_size=n)))
    if draw(st.booleans()):
        X = X.T
    return X, draw(st.integers(1, n - 1))


class TestGramLoss:
    @pytest.mark.parametrize("path", ["dense", "sparse"])
    @settings(max_examples=40, deadline=None)
    @given(case=off_rank_matrices(), seed=st.integers(0, 2**16), tol=st.sampled_from([0.0, 1e-3]))
    def test_history_matches_exact_error_of_each_iterate(self, path, case, seed, tol):
        """Entry i of loss_history is the exact relative error of the factors
        after i updates, on a dense copy of X and on X kept sparse."""
        X, k = case
        with pytest.MonkeyPatch.context() as mp:
            if path == "sparse":
                mp.setattr(nmf, "_DENSE_COPY_LIMIT", 0)
            full = factorize(X, k=k, seed=seed, max_iters=12, tol=tol)
            iterates = [factorize(X, k=k, seed=seed, max_iters=i, tol=tol)
                        for i in range(1, len(full.loss_history))]
        for i, f in enumerate(iterates, start=1):
            assert f.loss_history == full.loss_history[: i + 1]
        init = init_factors(X.shape, k, seed, mean=sp.csr_matrix(X).sum() / X.size)
        for loss, f in zip(full.loss_history, [init, *iterates], strict=True):
            # outside the patch, reconstruction_error forms the residual X - WH
            assert abs(loss - reconstruction_error(X, f)) <= 1e-9

    def test_no_dense_residual_per_iteration(self):
        # 1999 x 2000 is just under the limit, so X runs on a dense copy
        X = sp.random(1999, 2000, density=0.002, random_state=3, format="csr")
        dense_bytes = X.shape[0] * X.shape[1] * 8
        assert X.shape[0] * X.shape[1] <= nmf._DENSE_COPY_LIMIT
        tracemalloc.start()
        try:
            factorize(X, k=2, seed=0, max_iters=3, tol=0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * dense_bytes
