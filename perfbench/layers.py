"""Per-layer figures of a traced run, from its spans.

Seconds and counts are per main round of the workload, averaged over the
traced rounds (`nmf.iterations` is the iterations one build runs). Set-up
layers (`corpus.ingest_s`, `graph.import_s`, `vectorstore.load_s`) are per
call, as are the `_ms` figures and the evaluation strategies. A layer the
workload does not run reads 0.
"""

from __future__ import annotations

import csv
import json
import statistics
from pathlib import Path


def _csv_rows(path: Path) -> int:
    with path.open(encoding="utf-8", newline="") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def _overhead(pairs: list[tuple[bool, float]]) -> float:
    """Traced against untraced median, in percent."""
    on = [v for traced, v in pairs if traced]
    off = [v for traced, v in pairs if not traced]
    return 100.0 * (statistics.median(on) / statistics.median(off) - 1.0) if on and off else 0.0


def per_layer(workload: str, rec: dict, art: Path) -> tuple[dict, dict]:
    """The per-layer figures of a traced run and its span table."""
    main = rec["table_main"]
    every = rec["table_all"]
    n_main = sum(rec["round_traced"]) or 1

    def per_round(name, field="total_s"):
        return main.get(name, {}).get(field, 0) / n_main

    def per_call(name, field="total_s", scale=1.0):
        row = every.get(name)
        return scale * row[field] / row["calls"] if row and row["calls"] else 0.0

    hierarchy = json.loads((art / "hierarchy.json").read_text(encoding="utf-8"))
    nodes = leaves = 0
    stack = list(hierarchy["roots"])
    while stack:
        node = stack.pop()
        nodes += 1
        leaves += not node["children"]
        stack.extend(node["children"])

    iterations = per_round("nmf.factorize", "count")
    texts, embed_s = per_round("embeddings.embed", "count"), per_round("embeddings.embed")
    hits, misses = rec["cache"]
    gc_count, gc_s = rec["gc_main"]
    if workload == "ask":
        overhead = _overhead(rec["semantic_medians"])
    else:
        overhead = _overhead(list(zip(rec["round_traced"], rec["round_s"])))

    values = {
        "corpus.ingest_s": per_call("corpus.ingest"),
        "corpus.tokenize_calls": per_round("corpus.tokenize", "calls"),
        "corpus.tokens": per_round("corpus.tokenize", "count"),
        "corpus.tokenize_s": per_round("corpus.tokenize"),
        "corpus.vocabulary_s": per_round("corpus.build_vocabulary"),
        "corpus.tfidf_s": per_round("corpus.build_tfidf"),
        "nmf.factorize_calls": per_round("nmf.factorize", "calls"),
        "nmf.iterations": iterations,
        "nmf.factorize_s": per_round("nmf.factorize"),
        "nmf.ms_per_iteration": 1000.0 * per_round("nmf.factorize") / iterations if iterations else 0.0,
        "nmfk.k_probes": per_round("nmfk.select_k", "count"),
        "nmfk.select_k_s": per_round("nmfk.select_k"),
        "nmfk.self_s": per_round("nmfk.select_k", "self_s"),
        "nmfk.refit_h_s": per_round("nmf.refit_h"),
        "hierarchy.decompose_s": per_round("hierarchy.decompose"),
        "hierarchy.nodes": nodes,
        "hierarchy.leaves": leaves,
        "citations.extract_s": per_round("citations.extract"),
        "citations.found": per_round("citations.extract", "count"),
        "graph.build_s": per_round("graph.build"),
        "graph.export_s": per_round("graph.export"),
        "graph.nodes": _csv_rows(art / "graph" / "nodes.csv"),
        "graph.edges": _csv_rows(art / "graph" / "edges.csv"),
        "graph.import_s": per_call("graph.import"),
        "graph.count_mentions_ms": per_call("graph.count_mentions", scale=1000.0),
        "graph.common_citations_ms": per_call("graph.common_citations", scale=1000.0),
        "graph.keyword_neighborhood_ms": per_call("graph.keyword_neighborhood", scale=1000.0),
        "chunking.chunks": per_round("chunking.chunk", "count"),
        "chunking.chunk_s": per_round("chunking.chunk"),
        "embeddings.texts": texts,
        "embeddings.embed_s": embed_s,
        "embeddings.texts_per_s": texts / embed_s if embed_s else 0.0,
        "embeddings.cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "vectorstore.build_index_s": per_round("vectorstore.build_index"),
        "vectorstore.save_s": per_round("vectorstore.save"),
        "vectorstore.index_rows": per_round("vectorstore.build_index", "count"),
        "vectorstore.load_s": per_call("vectorstore.load"),
        "vectorstore.route_ms": per_call("vectorstore.route_and_search", "self_s", 1000.0),
        "vectorstore.search_ms": per_call("vectorstore.search", scale=1000.0),
        "rag.semantic_ms": per_call("rag.semantic", scale=1000.0),
        "rag.quantitative_ms": per_call("rag.quantitative", scale=1000.0),
        "rag.citation_ms": per_call("rag.citation", scale=1000.0),
        "rag.refusals": rec["refusals"] / rec["passes"] if rec["passes"] else 0.0,
        "chat.prompt_chars": per_call("chat.complete", "count"),
        "evaluation.whole_corpus_s": per_call("evaluation.whole_corpus"),
        "evaluation.chunked_s": per_call("evaluation.chunked"),
        "evaluation.topic_routed_s": per_call("evaluation.topic_routed"),
        "evaluation.topic_routed_chunked_s": per_call("evaluation.topic_routed_chunked"),
        "evaluation.cases": rec["eval_cases"],
        "runtime.gc_collections": gc_count / n_main,
        "runtime.gc_ms": 1000.0 * gc_s / n_main,
        "trace.overhead_pct": overhead,
    }
    return values, every
