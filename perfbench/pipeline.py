"""The program's pipeline as a user runs it, called through module attributes.

Every call into lexigraph goes through the module object (`L.hierarchy.decompose`,
not a name imported from it), so the tracer in `tracing.py` can wrap a public
function where it is looked up and see each call.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def program_present() -> bool:
    return (SRC / "lexigraph" / "__init__.py").is_file()


def import_program() -> SimpleNamespace:
    """Import lexigraph from the checkout's own source tree."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from lexigraph import (chat, chunking, citations, config, corpus, embeddings, evaluation,
                           graph, hierarchy, nmf, nmfk, rag, vectorstore)
    return SimpleNamespace(chat=chat, chunking=chunking, citations=citations, config=config,
                           corpus=corpus, embeddings=embeddings, evaluation=evaluation,
                           graph=graph, hierarchy=hierarchy, nmf=nmf, nmfk=nmfk, rag=rag,
                           vectorstore=vectorstore)


def build_hierarchy_config(L):
    """The program's default decomposition settings, except that a
    factorization stops after 50 multiplicative updates instead of 300.

    On eight planted topics NMFk probes k=5 and k=2 first; those merges are
    ambiguous and their runs converge after anywhere from 40 to 300 updates,
    so with the default cap the work of a build swings by a third from one
    corpus to the next. At 50 nearly every such run stops at the cap and the
    work per build is the same for every seed.
    """
    cfg = L.config.Config()
    cfg.nmf_max_iters = 50
    return cfg.hierarchy_config()


def light_hierarchy_config(L, topics: int):
    """A lighter NMFk for the artifacts `ask` and `eval` load: k fixed at the
    planted topic count, four perturbations and at most 40 updates per run."""
    base = L.config.Config()
    base.k_min = base.k_max = topics
    base.n_perturbations = 4
    base.nmf_max_iters = 40
    return base.hierarchy_config()


def build_artifacts(L, docs, hcfg, out_dir: Path, provider) -> None:
    """Corpus to every artifact on disk, as `decompose`, `kg build` and
    `index --by-topic` produce them."""
    hierarchy = L.hierarchy.decompose(docs, hcfg, corpus_id="bench")
    hierarchy.save(out_dir / "hierarchy.json")
    cites = {d.id: L.citations.extract_citations_regex(d.text) for d in docs}
    graph = L.graph.build_graph(docs, hierarchy, cites)
    L.graph.export_graph(graph, "triplet_csv", out_dir / "graph")
    index_dir = out_dir / "index"
    index_dir.mkdir(parents=True, exist_ok=True)
    by_id = {d.id: d for d in docs}
    for i, leaf in enumerate(hierarchy.leaves()):
        subset = [by_id[x] for x in leaf.doc_ids if x in by_id]
        if subset:
            chunks = [c for d in subset for c in L.chunking.default_chunks(d)]
            index = L.vectorstore.build_index(chunks, provider, topic_id=leaf.id)
            index.save(index_dir / f"topic-{i:04d}.lxvi")


def load_for_ask(L, art_dir: Path, corpus_path: Path) -> dict:
    """What each `lexigraph ask` loads: graph export, corpus texts, every index."""
    graph = L.graph.import_triplet_csv(art_dir / "graph")
    for d in L.corpus.ingest_jsonl(corpus_path):
        if d.id in graph.nodes:
            graph.doc_texts[d.id] = d.text
    indexes = {}
    for path in sorted((art_dir / "index").glob("*.lxvi")):
        index = L.vectorstore.VectorIndex.load(path)
        indexes[index.topic_id or path.stem] = index
    return {"graph": graph, "indexes": indexes}


def load_for_eval(L, corpus_path: Path, hierarchy_path: Path, cases_path: Path) -> dict:
    """What `lexigraph eval retrieval` loads: corpus, hierarchy and cases."""
    return {
        "docs": L.corpus.ingest_jsonl(corpus_path),
        "hierarchy": L.hierarchy.Hierarchy.load(hierarchy_path),
        "cases": L.evaluation.load_cases(cases_path),
    }


def run_eval(L, loaded: dict, provider, strategies) -> list:
    """The paper's retrieval evaluation, one report per strategy."""
    return [
        L.evaluation.run_retrieval_eval(loaded["cases"], loaded["docs"], loaded["hierarchy"],
                                        provider, strategy)
        for strategy in strategies
    ]


def ask_one(L, q: dict, session, loaded: dict, provider, chat):
    """One question as `lexigraph ask` answers it (follow-ups keep the session)."""
    fn = L.rag.follow_up if q.get("follow_up") else L.rag.answer
    return fn(q["question"], session, loaded["graph"], loaded["indexes"], provider, chat)
