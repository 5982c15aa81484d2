"""Names, units, directions and bounds of every metric the benchmark prints.

`BENCHMARK.json` at the repository root lists the same metrics; the
self-test fails if the two disagree.
"""

from __future__ import annotations

WORKLOADS = {
    "build": "the offline cost paid once per corpus: decomposition, graph and index writing, no search",
    "ask": "one user asking mixed questions against prebuilt topic-routed artifacts, no factorization",
    "eval": "the retrieval evaluation: many indexes and a full ranking for every case",
}

# name, unit, better, bound (share of the parent's median it may worsen)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("build_s", "s", "lower", 0.25),
    ("index_mb", "MB", "lower", 0.05),
    ("topic_purity", "ratio", "higher", 0.05),
    ("semantic_p50_ms", "ms", "lower", 0.25),
    ("semantic_p99_ms", "ms", "lower", 0.25),
    ("graph_p50_ms", "ms", "lower", 0.25),
    ("eval_s", "s", "lower", 0.25),
    ("eval_mrr", "ratio", "higher", 0.15),
]

# name, unit, better
PER_LAYER = [
    ("corpus.ingest_s", "s", "lower"),
    ("corpus.tokenize_calls", "count", "lower"),
    ("corpus.tokens", "count", "lower"),
    ("corpus.tokenize_s", "s", "lower"),
    ("corpus.vocabulary_s", "s", "lower"),
    ("corpus.tfidf_s", "s", "lower"),
    ("nmf.factorize_calls", "count", "lower"),
    ("nmf.iterations", "count", "lower"),
    ("nmf.factorize_s", "s", "lower"),
    ("nmf.ms_per_iteration", "ms", "lower"),
    ("nmfk.k_probes", "count", "lower"),
    ("nmfk.select_k_s", "s", "lower"),
    ("nmfk.self_s", "s", "lower"),
    ("nmfk.refit_h_s", "s", "lower"),
    ("hierarchy.decompose_s", "s", "lower"),
    ("hierarchy.nodes", "count", "higher"),
    ("hierarchy.leaves", "count", "higher"),
    ("citations.extract_s", "s", "lower"),
    ("citations.found", "count", "higher"),
    ("graph.build_s", "s", "lower"),
    ("graph.export_s", "s", "lower"),
    ("graph.nodes", "count", "lower"),
    ("graph.edges", "count", "lower"),
    ("graph.import_s", "s", "lower"),
    ("graph.count_mentions_ms", "ms", "lower"),
    ("graph.common_citations_ms", "ms", "lower"),
    ("graph.keyword_neighborhood_ms", "ms", "lower"),
    ("chunking.chunks", "count", "lower"),
    ("chunking.chunk_s", "s", "lower"),
    ("embeddings.texts", "count", "lower"),
    ("embeddings.embed_s", "s", "lower"),
    ("embeddings.texts_per_s", "1/s", "higher"),
    ("embeddings.cache_hit_ratio", "ratio", "higher"),
    ("vectorstore.build_index_s", "s", "lower"),
    ("vectorstore.save_s", "s", "lower"),
    ("vectorstore.index_rows", "count", "lower"),
    ("vectorstore.load_s", "s", "lower"),
    ("vectorstore.route_ms", "ms", "lower"),
    ("vectorstore.search_ms", "ms", "lower"),
    ("rag.semantic_ms", "ms", "lower"),
    ("rag.quantitative_ms", "ms", "lower"),
    ("rag.citation_ms", "ms", "lower"),
    ("rag.refusals", "count", "higher"),
    ("chat.prompt_chars", "count", "lower"),
    ("evaluation.whole_corpus_s", "s", "lower"),
    ("evaluation.chunked_s", "s", "lower"),
    ("evaluation.topic_routed_s", "s", "lower"),
    ("evaluation.topic_routed_chunked_s", "s", "lower"),
    ("evaluation.cases", "count", "higher"),
    ("runtime.gc_collections", "count", "lower"),
    ("runtime.gc_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def benchmark_json() -> dict:
    """The content `BENCHMARK.json` must have."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 15,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x} for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }
