"""Automatic selection of the NMF latent dimension k.

For each candidate k the matrix is perturbed n times with multiplicative
bootstrap noise and factorized independently. The n*k resulting W columns
are L2-normalized and clustered under cosine distance, one column of each
run per cluster: run 0 seeds the clusters, and each later run is matched to
the running centroids by taking the closest free (cluster, column) pair
until none is left. Each column's silhouette comes from one columns x
clusters table of summed distances, and the minimum silhouette measures how
reproducibly the k topics form. A k is accepted when that minimum clears the
stability threshold, and the largest acceptable k is located by binary
search (assuming approximate monotonicity) or by exhaustive scan.

The runs of one k run one after another, in run order, on the calling
thread; each run's seeds depend only on base seed, k and run index. On two
cores a thread pool over the runs measured no gain, as its workers slowed
each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DataError, ParameterError
from .nmf import factorize, refit_h

_NORM_EPS = 1e-15


@dataclass(frozen=True)
class NmfkConfig:
    k_min: int = 1
    k_max: int = 10
    n_perturbations: int = 20
    noise_epsilon: float = 0.015
    silhouette_threshold: float = 0.7
    base_seed: int = 0
    # inner factorization budget; stability needs converged runs, not perfection
    nmf_max_iters: int = 300
    nmf_tol: float = 1e-6

    def __post_init__(self):
        if not (1 <= self.k_min <= self.k_max):
            raise ParameterError(f"need 1 <= k_min <= k_max, got [{self.k_min}, {self.k_max}]")
        if self.n_perturbations < 2:
            raise ParameterError("n_perturbations must be >= 2")
        if not (0.0 < self.noise_epsilon < 1.0):
            raise ParameterError("noise_epsilon must be in (0, 1)")
        if not (0.0 < self.silhouette_threshold < 1.0):
            raise ParameterError("silhouette_threshold must be in (0, 1)")


@dataclass(frozen=True)
class KEvaluation:
    k: int
    min_silhouette: float
    mean_silhouette: float
    mean_reconstruction_error: float
    degenerate: bool = False  # some run produced an all-zero W column


@dataclass
class NmfkResult:
    selected_k: int
    evaluations: list[KEvaluation]  # every probed k, by k
    consensus_W: np.ndarray
    consensus_H: np.ndarray
    low_confidence: bool = False


def _run_seeds(base_seed: int, k: int, run_index: int) -> tuple[int, int]:
    """Stable (perturbation, factorization) seed pair for one run.

    Derived only from (base_seed, k, run_index), so a run's result does not
    depend on how many runs there are or which ran before it.
    """
    ss = np.random.SeedSequence([base_seed & 0xFFFFFFFFFFFFFFFF, k, run_index])
    a, b = ss.generate_state(2, dtype=np.uint64)
    return int(a), int(b)


def perturb(X: sp.csr_matrix, epsilon: float, seed: int) -> sp.csr_matrix:
    """A copy of `X` with every nonzero entry multiplied by an independent
    uniform [1-eps, 1+eps].

    The sparsity pattern is preserved exactly; deterministic from the seed.
    """
    if not (0.0 < epsilon < 1.0):
        raise ParameterError("epsilon must be in (0, 1)")
    csr = X.tocsr(copy=True)
    rng = np.random.default_rng(seed)
    csr.data = csr.data * rng.uniform(1.0 - epsilon, 1.0 + epsilon, size=csr.data.shape)
    return csr


def _normalize_columns(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L2-normalize columns; returns (normalized, zero_column_mask)."""
    norms = np.linalg.norm(W, axis=0)
    zero = norms <= _NORM_EPS
    out = W / np.where(zero, 1.0, norms)
    out[:, zero] = 0.0
    return out, zero


def _greedy_match(columns: list[np.ndarray], k: int) -> np.ndarray:
    """Cluster run columns one-per-run against running centroids.

    `columns[i]` is the normalized (terms x k) column block of run i. Run 0
    seeds the k clusters; each later run's columns are matched greedily, the
    closest (cluster, column) pair under cosine distance first and both then
    taken, ties broken toward the lowest cluster then column index. Returns
    labels of shape (runs, k): labels[i, j] = cluster of run i's column j.
    """
    labels = np.zeros((len(columns), k), dtype=np.int64)
    labels[0] = np.arange(k)
    sums = columns[0].copy()  # running per-cluster sums of member columns
    for i in range(1, len(columns)):
        cent_norm, cent_zero = _normalize_columns(sums / i)
        dist = 1.0 - cent_norm.T @ columns[i]  # clusters x columns
        dist[cent_zero, :] = 1.0
        for _ in range(k):
            c, j = np.unravel_index(np.argmin(dist), dist.shape)
            labels[i, j] = c
            dist[c, :] = np.inf
            dist[:, j] = np.inf
        sums[:, labels[i]] += columns[i]
    return labels


def _silhouettes(V: np.ndarray, labels: np.ndarray, zero_mask: np.ndarray) -> np.ndarray:
    """Silhouette per column on cosine distance.

    V is (terms x n) with unit columns (zero columns allowed); labels gives
    each column's cluster. Columns flagged in zero_mask score -1. With a
    single cluster every column scores 1.0: one topic is trivially stable.
    """
    n = V.shape[1]
    k = int(labels.max()) + 1
    sil = np.ones(n)
    if k > 1:
        dist = np.clip(1.0 - V.T @ V, 0.0, 2.0)
        dist[dist < 1e-12] = 0.0  # coincident columns are exactly coincident
        # distance sums, columns x clusters; a contiguous copy sums each row
        # in the order a 1-D sum of it would, so results agree to the last bit
        sums = np.stack([np.ascontiguousarray(dist[:, labels == c]).sum(axis=1)
                         for c in range(k)], axis=1)
        sizes = np.bincount(labels, minlength=k)
        rows = np.arange(n)
        own_size = sizes[labels]
        a = np.divide(sums[rows, labels], own_size - 1, out=np.zeros(n), where=own_size > 1)
        means = np.divide(sums, sizes, out=np.full((n, k), np.inf), where=sizes > 0)
        means[rows, labels] = np.inf
        b = means.min(axis=1)
        denom = np.maximum(a, b)
        sil = np.divide(b - a, denom, out=np.zeros(n), where=denom > 0)
    sil[zero_mask] = -1.0
    return sil


def _evaluate_k_full(X: sp.csr_matrix, k: int, cfg: NmfkConfig) -> tuple[KEvaluation, np.ndarray]:
    """Run the perturbation ensemble for one k; also return the consensus W."""
    n_terms, n_docs = X.shape
    if not (1 <= k <= min(n_terms, n_docs)):
        raise ParameterError(f"k={k} out of range for {n_terms}x{n_docs} matrix")

    def run(i: int) -> tuple[np.ndarray, np.ndarray, float]:
        pseed, fseed = _run_seeds(cfg.base_seed, k, i)
        Xp = perturb(X, cfg.noise_epsilon, pseed)
        factors = factorize(Xp, k, fseed, max_iters=cfg.nmf_max_iters, tol=cfg.nmf_tol)
        norm, zero = _normalize_columns(factors.W)
        return norm, zero, factors.final_error

    blocks, zero_blocks, errors = zip(*map(run, range(cfg.n_perturbations)))

    labels = _greedy_match(blocks, k)
    V = np.concatenate(blocks, axis=1)  # terms x (runs*k), run-major
    flat_labels = labels.reshape(-1)
    flat_zero = np.concatenate(zero_blocks)
    sil = _silhouettes(V, flat_labels, flat_zero)

    evaluation = KEvaluation(
        k=k,
        min_silhouette=float(sil.min()),
        mean_silhouette=float(sil.mean()),
        mean_reconstruction_error=float(np.mean(errors)),
        degenerate=bool(flat_zero.any()),
    )

    consensus = np.stack([np.median(V[:, flat_labels == c], axis=1) for c in range(k)], axis=1)
    return evaluation, consensus


def select_k(X: sp.csr_matrix, cfg: NmfkConfig, exhaustive: bool = False) -> NmfkResult:
    """Choose k as the largest candidate whose minimum silhouette clears the
    threshold.

    The default binary search treats the stability predicate as monotone
    non-increasing in k; `exhaustive=True` probes every k in the range
    instead (same selection rule, useful for validating the assumption).
    If no probed k passes, the probed k with the best minimum silhouette is
    returned with `low_confidence=True`.
    """
    n_terms, n_docs = X.shape
    bound = min(n_terms, n_docs)
    if cfg.k_min > bound:
        raise ParameterError(f"k_min={cfg.k_min} exceeds matrix rank bound {bound}")
    if X.nnz == 0:
        raise DataError("cannot select k for an all-zero matrix")
    k_max = min(cfg.k_max, bound)

    cache: dict[int, tuple[KEvaluation, np.ndarray]] = {}

    def passes(k: int) -> bool:
        if k not in cache:
            cache[k] = _evaluate_k_full(X, k, cfg)
        return cache[k][0].min_silhouette >= cfg.silhouette_threshold

    best: int | None = None
    if exhaustive:
        for k in range(cfg.k_min, k_max + 1):
            if passes(k):
                best = k
    else:
        lo, hi = cfg.k_min, k_max
        while lo <= hi:
            mid = (lo + hi) // 2
            if passes(mid):
                best = mid
                lo = mid + 1
            else:
                hi = mid - 1

    low_confidence = best is None
    if best is None:
        # fall back to the most stable probed k (ties toward the smallest k)
        best = max(sorted(cache), key=lambda k: (cache[k][0].min_silhouette, -k))

    evaluation, consensus_W = cache[best]
    h_seed, _ = _run_seeds(cfg.base_seed, 0, cfg.n_perturbations + 1)
    consensus_H = refit_h(X, consensus_W, seed=h_seed)
    return NmfkResult(
        selected_k=best,
        evaluations=[cache[k][0] for k in sorted(cache)],
        consensus_W=consensus_W,
        consensus_H=consensus_H,
        low_confidence=low_confidence,
    )
