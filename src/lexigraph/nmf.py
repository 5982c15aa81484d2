"""Non-negative matrix factorization by multiplicative updates.

Factorizes a sparse non-negative matrix X (terms x documents) into dense
non-negative W (terms x k) and H (k x documents) minimizing the Frobenius
objective ||X - WH||_F. The update rules are the classic multiplicative pair

    H <- H * (W^T X) / (W^T W H + eps)
    W <- W * (X H^T) / (W H H^T + eps)

which keep both factors non-negative and never increase the objective.

The loss is taken from the Gram expansion

    ||X - WH||^2 = ||X||^2 - 2<W^T X, H> + <W^T W, H H^T>

whose products the updates need anyway: W^T X and W^T W of the updated W
feed the next H update, and H H^T comes from the W update. No iteration forms
the residual X - WH. Cancellation puts a floor of about 1e-8 under the
relative error this reports; `reconstruction_error` forms the residual exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DataError, ParameterError

# denominator stabilizer; below every test tolerance in the suite
EPS = 1e-12

# matrices up to this element count are copied dense, so that the products
# run as BLAS matrix products and `reconstruction_error` forms the exact residual
_DENSE_COPY_LIMIT = 4_000_000


@dataclass
class NmfFactors:
    """Result of one factorization run."""

    W: np.ndarray
    H: np.ndarray
    k: int
    loss_history: list[float] = field(default_factory=list)
    seed: int = 0

    @property
    def final_error(self) -> float:
        return self.loss_history[-1] if self.loss_history else float("nan")


def _as_csr(X) -> sp.csr_matrix:
    if sp.issparse(X):
        return X.tocsr()
    return sp.csr_matrix(np.asarray(X, dtype=float))


def init_factors(shape: tuple[int, int], k: int, seed: int, mean: float = 1.0) -> NmfFactors:
    """Seeded uniform initialization.

    Entries are uniform in (0, 1) scaled by sqrt(mean / k), where `mean` is
    the mean entry of the matrix about to be factorized (1.0 when unknown).
    Identical (shape, k, seed, mean) give bit-identical factors.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    n_terms, n_docs = shape
    rng = np.random.default_rng(seed)
    scale = np.sqrt(max(mean, EPS) / k)
    W = rng.uniform(1e-8, 1.0, size=(n_terms, k)) * scale
    H = rng.uniform(1e-8, 1.0, size=(k, n_docs)) * scale
    return NmfFactors(W=W, H=H, k=k, seed=seed)


def _gram_error(x_norm: float, wtx: np.ndarray, wtw: np.ndarray, H: np.ndarray, hht: np.ndarray) -> float:
    """||X - WH||_F / ||X||_F from W^T X, W^T W, H and H H^T; the
    cancellation error of the expansion is clipped at zero."""
    sq = x_norm * x_norm - 2.0 * float(np.sum(wtx * H)) + float(np.sum(wtw * hht))
    return float(np.sqrt(max(sq, 0.0)) / x_norm)


def _wt_x(W: np.ndarray, X) -> np.ndarray:
    """W^T X (k x docs) for a dense or CSR X."""
    return W.T @ X if isinstance(X, np.ndarray) else (X.T @ W).T


def factorize(
    X,
    k: int,
    seed: int,
    max_iters: int = 500,
    tol: float = 1e-5,
    target_error: float | None = None,
) -> NmfFactors:
    """Run multiplicative updates until max_iters or relative-improvement < tol.

    `X` (terms x documents) may be a scipy sparse matrix or an array. The
    run is deterministic given (X, k, seed). loss_history records the relative
    Frobenius error at initialization and after every iteration; the sequence
    is non-increasing up to floating-point tolerance. When `target_error` is
    given, iteration also stops once the relative error reaches it (useful
    when a caller needs a specific accuracy rather than a stall test).
    """
    csr = _as_csr(X)
    n_terms, n_docs = csr.shape
    if csr.nnz == 0:
        raise DataError("cannot factorize an all-zero matrix")
    if (csr.data < 0).any():
        raise DataError("matrix has negative entries")
    if not (1 <= k <= min(n_terms, n_docs)):
        raise ParameterError(
            f"k must be in [1, {min(n_terms, n_docs)}] for a {n_terms}x{n_docs} matrix, got {k}"
        )
    if max_iters < 1:
        raise ParameterError(f"max_iters must be >= 1, got {max_iters}")

    mean = csr.sum() / (n_terms * n_docs)
    factors = init_factors((n_terms, n_docs), k, seed, mean=mean)
    W, H = factors.W, factors.H
    x_norm = float(np.sqrt((csr.data**2).sum()))

    X = csr.toarray() if n_terms * n_docs <= _DENSE_COPY_LIMIT else csr

    wtx, wtw = _wt_x(W, X), W.T @ W
    loss = _gram_error(x_norm, wtx, wtw, H, H @ H.T)
    history = [loss]
    for _ in range(max_iters):
        H *= wtx / (wtw @ H + EPS)
        hht = H @ H.T
        W *= (X @ H.T) / (W @ hht + EPS)
        wtx, wtw = _wt_x(W, X), W.T @ W
        new_loss = _gram_error(x_norm, wtx, wtw, H, hht)
        history.append(new_loss)
        improvement = (loss - new_loss) / loss if loss > 0 else 0.0
        loss = new_loss
        if target_error is not None and new_loss <= target_error:
            break
        if improvement < tol:
            break
    factors.loss_history = history
    return factors


def reconstruction_error(X, factors: NmfFactors) -> float:
    """Relative Frobenius error ||X - W H||_F / ||X||_F of a factor pair."""
    csr = _as_csr(X)
    n_terms, n_docs = csr.shape
    if factors.W.shape != (n_terms, factors.k) or factors.H.shape != (factors.k, n_docs):
        raise ParameterError(
            f"factor shapes {factors.W.shape}/{factors.H.shape} do not match "
            f"matrix {csr.shape} with k={factors.k}"
        )
    x_norm = float(np.sqrt((csr.data**2).sum()))
    if x_norm == 0.0:
        raise DataError("matrix norm is zero")
    W, H = factors.W, factors.H
    if n_terms * n_docs <= _DENSE_COPY_LIMIT:
        return float(np.linalg.norm(csr.toarray() - W @ H) / x_norm)
    return _gram_error(x_norm, _wt_x(W, csr), W.T @ W, H, H @ H.T)


def refit_h(X, W: np.ndarray, max_iters: int = 500, tol: float = 1e-7, seed: int = 0) -> np.ndarray:
    """Fit H alone by H-updates with W held fixed (used for consensus factors)."""
    csr = _as_csr(X)
    k = W.shape[1]
    rng = np.random.default_rng(seed)
    mean = csr.sum() / (csr.shape[0] * csr.shape[1])
    H = rng.uniform(1e-8, 1.0, size=(k, csr.shape[1])) * np.sqrt(max(mean, EPS) / k)
    wtw = W.T @ W
    wtx = (csr.T @ W).T
    prev = None
    for _ in range(max_iters):
        H *= wtx / (wtw @ H + EPS)
        cur = float(np.sum(H))
        if prev is not None and abs(prev - cur) <= tol * max(prev, 1.0):
            break
        prev = cur
    return H
