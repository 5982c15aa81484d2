"""Thread-safety contracts: shared immutable inputs, schedule-independent results."""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from lexigraph.corpus import tokenize
from lexigraph.embeddings import DeterministicEmbedder
from lexigraph.nmf import factorize
from lexigraph.nmfk import NmfkConfig, _evaluate_k_full
from lexigraph.vectorstore import build_index, search
from lexigraph.chunking import Chunk

from conftest import planted_matrix


def test_tokenize_pure_across_threads():
    text = "The Court held §41-5-1 applies to Water-Rights disputes."
    expected = tokenize(text)
    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: tokenize(text), range(64)))
    assert all(r == expected for r in results)


def test_concurrent_factorizations_on_shared_matrix():
    X = planted_matrix(2, docs_per_block=10, terms_per_block=8, seed=3)
    serial = [factorize(X, 2, seed=s, max_iters=80, tol=0.0) for s in range(6)]
    with ThreadPoolExecutor(max_workers=6) as pool:
        parallel = list(pool.map(
            lambda s: factorize(X, 2, seed=s, max_iters=80, tol=0.0), range(6)))
    for a, b in zip(serial, parallel):
        assert np.array_equal(a.W, b.W)
        assert a.loss_history == b.loss_history


def test_concurrent_searches_on_shared_index():
    provider = DeterministicEmbedder(dim=32)
    chunks = [Chunk(doc_id=f"d{i:03d}", index=0, unit="words", start=0, end=3,
                    text=f"shared words tok{i}") for i in range(40)]
    index = build_index(chunks, provider)
    queries = [provider.embed([f"shared tok{i}"])[0] for i in range(12)]
    serial = [search(index, q, top_k=5) for q in queries]
    with ThreadPoolExecutor(max_workers=8) as pool:
        parallel = list(pool.map(lambda q: search(index, q, top_k=5), queries))
    for a, b in zip(serial, parallel):
        assert [(c.chunk_id, s) for c, s in a] == [(c.chunk_id, s) for c, s in b]


def test_evaluate_k_schedule_independent_seeding():
    # run seeds depend only on (base_seed, k, run); two evaluations agree exactly
    X = planted_matrix(2, docs_per_block=10, terms_per_block=8, seed=5)
    cfg = NmfkConfig(k_min=1, k_max=3, n_perturbations=3, base_seed=9,
                     nmf_max_iters=100, nmf_tol=1e-6)
    a, consensus_a = _evaluate_k_full(X, 2, cfg)
    b, consensus_b = _evaluate_k_full(X, 2, cfg)
    assert a == b
    assert np.array_equal(consensus_a, consensus_b)
