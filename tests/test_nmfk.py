import math
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import lexigraph.nmfk as nmfk_mod
from lexigraph.errors import ParameterError
from lexigraph.nmf import NmfFactors, factorize
from lexigraph.nmfk import (
    KEvaluation,
    NmfkConfig,
    perturb,
    select_k,
    _evaluate_k_full,
    _greedy_match,
    _normalize_columns,
    _run_seeds,
    _silhouettes,
)

from conftest import planted_matrix


def small_cfg(**kw):
    defaults = dict(k_min=1, k_max=8, n_perturbations=4, noise_epsilon=0.015,
                    silhouette_threshold=0.7, base_seed=42,
                    nmf_max_iters=800, nmf_tol=1e-8)
    defaults.update(kw)
    return NmfkConfig(**defaults)


def max_binary_probes(k_min: int, k_max: int) -> int:
    """Upper bound on distinct k values a binary search may evaluate."""
    return math.ceil(math.log2(k_max - k_min + 1)) + 2 if k_max > k_min else 1


class TestPerturb:
    def test_bounds_and_pattern(self):
        X = planted_matrix(2, docs_per_block=10, terms_per_block=8, seed=1)
        Y = perturb(X, 0.015, seed=9)
        a, b = X.tocoo(), Y.tocoo()
        assert np.array_equal(a.row, b.row) and np.array_equal(a.col, b.col)
        ratio = b.data / a.data
        assert (ratio >= 1 - 0.015).all() and (ratio <= 1 + 0.015).all()
        assert (b.data > 0).all()

    def test_deterministic(self):
        X = planted_matrix(2, docs_per_block=6, terms_per_block=5, seed=2)
        Y1 = perturb(X, 0.1, seed=4)
        Y2 = perturb(X, 0.1, seed=4)
        assert np.array_equal(Y1.data, Y2.data)

    def test_epsilon_validation(self):
        X = planted_matrix(2, docs_per_block=6, terms_per_block=5)
        for eps in (0.0, 1.0, -0.1):
            with pytest.raises(ParameterError):
                perturb(X, eps, seed=0)

    def test_vanishing_epsilon_approaches_identity(self):
        X = planted_matrix(2, docs_per_block=6, terms_per_block=5, seed=8)
        Y = perturb(X, 1e-12, seed=3)
        assert np.allclose(Y.data, X.data, rtol=1e-11)


class TestSilhouettes:
    def test_coincident_duplicates_score_one(self):
        # two identical runs: every cluster holds two coincident columns
        rng = np.random.default_rng(5)
        W = rng.uniform(0.1, 1, (10, 3))
        V, zero = _normalize_columns(np.hstack([W, W]))
        labels = np.array([0, 1, 2, 0, 1, 2])
        sil = _silhouettes(V, labels, zero)
        assert sil == pytest.approx(np.ones(6))

    def test_zero_column_scores_minus_one(self):
        rng = np.random.default_rng(6)
        W = rng.uniform(0.1, 1, (8, 2))
        block = np.hstack([W, W])
        block[:, 3] = 0.0
        V, zero = _normalize_columns(block)
        labels = np.array([0, 1, 0, 1])
        sil = _silhouettes(V, labels, zero)
        assert sil[3] == -1.0

    def test_single_cluster_convention(self):
        rng = np.random.default_rng(7)
        V, zero = _normalize_columns(rng.uniform(0.1, 1, (6, 4)))
        sil = _silhouettes(V, np.zeros(4, dtype=int), zero)
        assert sil == pytest.approx(np.ones(4))

    def test_range_bounds(self):
        rng = np.random.default_rng(8)
        V, zero = _normalize_columns(rng.uniform(0, 1, (10, 12)))
        labels = np.arange(12) % 3
        sil = _silhouettes(V, labels, zero)
        assert (sil >= -1).all() and (sil <= 1).all()


def reference_greedy_match(columns, k):
    """`_greedy_match` as one masked argmin per pick and a count per cluster."""
    n_runs = len(columns)
    labels = np.zeros((n_runs, k), dtype=np.int64)
    labels[0] = np.arange(k)
    sums = columns[0].copy()
    counts = np.ones(k)
    for i in range(1, n_runs):
        cent_norm, cent_zero = _normalize_columns(sums / counts)
        dist = 1.0 - cent_norm.T @ columns[i]
        dist[cent_zero, :] = 1.0
        free_cluster = np.ones(k, dtype=bool)
        free_col = np.ones(k, dtype=bool)
        for _ in range(k):
            masked = np.where(np.outer(free_cluster, free_col), dist, np.inf)
            c, j = np.unravel_index(np.argmin(masked), masked.shape)
            labels[i, j] = c
            free_cluster[c] = False
            free_col[j] = False
        for j in range(k):
            sums[:, labels[i, j]] += columns[i][:, j]
        counts += 1.0
    return labels


def reference_silhouettes(V, labels, zero_mask):
    """`_silhouettes` as one pass per column over the cluster members."""
    n = V.shape[1]
    k = int(labels.max()) + 1
    if k == 1:
        sil = np.ones(n)
        sil[zero_mask] = -1.0
        return sil
    dist = np.clip(1.0 - V.T @ V, 0.0, 2.0)
    dist[dist < 1e-12] = 0.0
    sil = np.zeros(n)
    members = [np.flatnonzero(labels == c) for c in range(k)]
    for idx in range(n):
        if zero_mask[idx]:
            sil[idx] = -1.0
            continue
        own = labels[idx]
        same = members[own]
        a = dist[idx, same].sum() / (len(same) - 1) if len(same) > 1 else 0.0
        b = min(dist[idx, members[c]].mean() for c in range(k) if c != own and len(members[c]))
        denom = max(a, b)
        sil[idx] = (b - a) / denom if denom > 0 else 0.0
    return sil


class TestAgainstReferenceLoops:
    """The array passes give the per-column loops' labels and silhouettes
    byte for byte, on runs that permute, repeat and zero their columns."""

    @given(k=st.integers(1, 10), runs=st.integers(2, 20), terms=st.integers(3, 60),
           seed=st.integers(0, 2**32 - 1), noise=st.sampled_from([0.0, 1e-3, 0.3, 3.0]),
           zero_rate=st.sampled_from([0.0, 0.1, 0.5]), repeat_rate=st.sampled_from([0.0, 0.3, 1.0]))
    @settings(max_examples=300, deadline=None)
    def test_labels_and_silhouettes(self, k, runs, terms, seed, noise, zero_rate, repeat_rate):
        rng = np.random.default_rng(seed)
        base = rng.uniform(0, 1, (terms, k))
        raw = []
        for i in range(runs):
            if i and rng.random() < repeat_rate:
                W = raw[rng.integers(i)].copy()  # the same run again
            else:
                W = base[:, rng.permutation(k)] + noise * rng.uniform(0, 1, (terms, k))
                W[:, rng.random(k) < zero_rate] = 0.0
            raw.append(W)
        blocks, zeros = zip(*(_normalize_columns(W) for W in raw))
        labels = _greedy_match(list(blocks), k)
        assert labels.tobytes() == reference_greedy_match(list(blocks), k).tobytes()

        V, zero = np.concatenate(blocks, axis=1), np.concatenate(zeros)
        flat = labels.reshape(-1)
        assert _silhouettes(V, flat, zero).tobytes() == reference_silhouettes(V, flat, zero).tobytes()
        # labels no matching could give: clusters of unequal size, some empty
        shuffled = rng.integers(0, k + 2, flat.size)
        assume(len(np.unique(shuffled)) > 1)
        assert (_silhouettes(V, shuffled, zero).tobytes()
                == reference_silhouettes(V, shuffled, zero).tobytes())


class TestEvaluateK:
    def test_planted_blocks_stable_at_true_k(self):
        X = planted_matrix(3, seed=11)
        ev, _ = _evaluate_k_full(X, 3, small_cfg())
        assert ev.min_silhouette > 0.9
        assert ev.mean_silhouette >= ev.min_silhouette
        assert ev.mean_reconstruction_error < 0.05

    def test_overfactorized_k_is_materially_less_stable(self):
        X = planted_matrix(3, seed=11)
        cfg = small_cfg()
        at_true, _ = _evaluate_k_full(X, 3, cfg)
        at_double, _ = _evaluate_k_full(X, 6, cfg)
        assert at_double.min_silhouette < at_true.min_silhouette - 0.3

    def test_forced_identical_runs_give_exact_ones(self, monkeypatch):
        monkeypatch.setattr(nmfk_mod, "_run_seeds", lambda base, k, i: (123, 456))
        X = planted_matrix(2, docs_per_block=10, terms_per_block=8, seed=3)
        ev, _ = _evaluate_k_full(X, 2, small_cfg(n_perturbations=2, nmf_max_iters=150))
        assert ev.min_silhouette == 1.0 and ev.mean_silhouette == 1.0

    def test_degenerate_zero_column_flagged(self, monkeypatch):
        X = planted_matrix(2, docs_per_block=10, terms_per_block=8, seed=4)
        t, d = X.shape

        def fake_factorize(Xp, k, seed, max_iters, tol):
            rng = np.random.default_rng(seed)
            W = rng.uniform(0.1, 1, (t, k))
            W[:, -1] = 0.0
            return NmfFactors(W=W, H=rng.uniform(0.1, 1, (k, d)), k=k,
                              loss_history=[0.5], seed=seed)

        monkeypatch.setattr(nmfk_mod, "factorize", fake_factorize)
        ev, _ = _evaluate_k_full(X, 2, small_cfg(n_perturbations=3, nmf_max_iters=10))
        assert ev.degenerate
        assert ev.min_silhouette == -1.0

    def test_gives_the_serial_loop_result(self):
        # the runs of one k, one after the other in run order, then matched
        X = planted_matrix(3, docs_per_block=12, terms_per_block=10, seed=6)
        cfg = small_cfg(n_perturbations=7, nmf_max_iters=200, nmf_tol=1e-6)
        k = 3
        blocks, zeros, errors = [], [], []
        for i in range(cfg.n_perturbations):
            pseed, fseed = _run_seeds(cfg.base_seed, k, i)
            factors = factorize(perturb(X, cfg.noise_epsilon, pseed), k, fseed,
                                max_iters=cfg.nmf_max_iters, tol=cfg.nmf_tol)
            norm, zero = _normalize_columns(factors.W)
            blocks.append(norm)
            zeros.append(zero)
            errors.append(factors.final_error)
        labels = _greedy_match(blocks, k).reshape(-1)
        V = np.concatenate(blocks, axis=1)
        sil = _silhouettes(V, labels, np.concatenate(zeros))
        expected = KEvaluation(k=k, min_silhouette=float(sil.min()),
                               mean_silhouette=float(sil.mean()),
                               mean_reconstruction_error=float(np.mean(errors)),
                               degenerate=bool(np.concatenate(zeros).any()))
        consensus = np.stack([np.median(V[:, labels == c], axis=1) for c in range(k)], axis=1)

        ev, W = _evaluate_k_full(X, k, cfg)
        assert ev == expected
        assert np.array_equal(W, consensus)

    def test_runs_on_the_calling_thread(self, monkeypatch):
        threads = []

        def spy(*args, **kwargs):
            threads.append(threading.current_thread())
            return factorize(*args, **kwargs)

        monkeypatch.setattr(nmfk_mod, "factorize", spy)
        X = planted_matrix(2, docs_per_block=10, terms_per_block=8, seed=7)
        _evaluate_k_full(X, 2, small_cfg(n_perturbations=5, nmf_max_iters=20))
        assert threads == [threading.current_thread()] * 5

    def test_k_out_of_range(self):
        X = planted_matrix(2, docs_per_block=6, terms_per_block=5)
        with pytest.raises(ParameterError):
            _evaluate_k_full(X, 0, small_cfg())
        with pytest.raises(ParameterError):
            _evaluate_k_full(X, 999, small_cfg())


class TestSelectK:
    def test_planted_three_blocks_selected(self):
        X = planted_matrix(3, seed=21)
        res = select_k(X, small_cfg())
        assert res.selected_k == 3
        assert not res.low_confidence
        assert any(ev.k == 3 for ev in res.evaluations)
        assert (res.consensus_W >= 0).all() and (res.consensus_H >= 0).all()
        assert res.consensus_W.shape[1] == 3 and res.consensus_H.shape[0] == 3

    def test_binary_matches_exhaustive_on_monotone_corpus(self):
        X = planted_matrix(3, seed=22)
        cfg = small_cfg()
        rb = select_k(X, cfg)
        rx = select_k(X, cfg, exhaustive=True)
        flags = [ev.min_silhouette >= cfg.silhouette_threshold
                 for ev in sorted(rx.evaluations, key=lambda e: e.k)]
        monotone = all(not (late and not early) for early, late in zip(flags, flags[1:]))
        assert monotone
        assert rb.selected_k == rx.selected_k

    def test_probe_budget(self):
        X = planted_matrix(3, seed=23)
        cfg = small_cfg(k_min=1, k_max=8)
        res = select_k(X, cfg)
        assert len(res.evaluations) <= max_binary_probes(1, 8)

    def test_forced_single_k(self):
        X = planted_matrix(2, docs_per_block=10, terms_per_block=8, seed=5)
        res = select_k(X, small_cfg(k_min=1, k_max=1, nmf_max_iters=150))
        assert res.selected_k == 1
        assert len(res.evaluations) == 1

    def test_scale_invariance(self):
        X = planted_matrix(3, seed=24)
        scaled = X * 50.0
        cfg = small_cfg()
        assert select_k(X, cfg).selected_k == select_k(scaled, cfg).selected_k

    def test_deterministic_across_calls(self):
        X = planted_matrix(2, docs_per_block=12, terms_per_block=10, seed=6)
        cfg = small_cfg(k_max=4, nmf_max_iters=200)
        a = select_k(X, cfg)
        b = select_k(X, cfg)
        assert a.selected_k == b.selected_k
        assert np.array_equal(a.consensus_W, b.consensus_W)
        assert np.array_equal(a.consensus_H, b.consensus_H)
        assert [e.__dict__ for e in a.evaluations] == [e.__dict__ for e in b.evaluations]

    def test_k_min_above_rank_bound(self):
        X = planted_matrix(2, docs_per_block=3, terms_per_block=2, seed=7)
        with pytest.raises(ParameterError):
            select_k(X, small_cfg(k_min=5, k_max=9))

    def test_fallback_flags_low_confidence(self, monkeypatch):
        # force every k to fail the threshold: fallback picks best min-sil, flagged
        X = planted_matrix(2, docs_per_block=10, terms_per_block=8, seed=8)
        cfg = small_cfg(k_min=2, k_max=4, silhouette_threshold=0.999999,
                        nmf_max_iters=100)
        res = select_k(X, cfg)
        assert res.low_confidence
        best = max(res.evaluations, key=lambda e: (e.min_silhouette, -e.k))
        assert res.selected_k == best.k


class TestConfigValidation:
    def test_bad_ranges(self):
        with pytest.raises(ParameterError):
            NmfkConfig(k_min=0, k_max=3)
        with pytest.raises(ParameterError):
            NmfkConfig(k_min=4, k_max=3)
        with pytest.raises(ParameterError):
            NmfkConfig(k_min=1, k_max=3, n_perturbations=1)
        with pytest.raises(ParameterError):
            NmfkConfig(k_min=1, k_max=3, noise_epsilon=0.0)
