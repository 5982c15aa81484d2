"""Spans around calls into lexigraph's public functions, kept in memory.

The tracer replaces a public function by a timing wrapper where callers look
it up: `lexigraph.nmfk.factorize` is the name `select_k` calls, so wrapping
that attribute times every factorization NMFk runs, while a direct call of
`lexigraph.nmf.factorize` elsewhere stays untouched. `install` puts the
wrappers in place and `uninstall` restores the originals, so untraced rounds
run the program exactly as shipped.

A span is `[name, start, end, parent, phase, count]`: `parent` is the index of
the enclosing span (-1 at top level), `phase` is the benchmark phase the span
ran in (`setup`, `main` or `side`) and `count` is the work the call did (tokens
returned, iterations run, texts embedded, ...). Garbage collections are
observed through `gc.callbacks` without changing when they happen.
"""

from __future__ import annotations

import gc
import json
import time
from contextlib import contextmanager
from pathlib import Path


def _len(result, args, kwargs) -> int:
    return len(result)


def _iterations(result, args, kwargs) -> int:
    return len(result.loss_history) - 1


def _probes(result, args, kwargs) -> int:
    return len(result.evaluations)


def _texts(result, args, kwargs) -> int:
    return len(args[1])


def _prompt_chars(result, args, kwargs) -> int:
    return len(args[1]) + len(args[2])


def _strategy_name(args, kwargs) -> str:
    return f"evaluation.{args[4]}"


def wrap_points(L) -> list[tuple[object, str, object, object]]:
    """(owner, attribute, span name, counter) for every traced call site."""
    emb = L.embeddings.DeterministicEmbedder
    vi = L.vectorstore.VectorIndex
    chat = L.chat.StubChatClient
    return [
        (L.corpus, "ingest_jsonl", "corpus.ingest", None),
        (L.corpus, "tokenize", "corpus.tokenize", _len),
        (L.graph, "tokenize", "corpus.tokenize", _len),
        (L.rag, "tokenize", "corpus.tokenize", _len),
        (L.hierarchy, "build_vocabulary", "corpus.build_vocabulary", None),
        (L.graph, "build_vocabulary", "corpus.build_vocabulary", None),
        (L.hierarchy, "build_tfidf", "corpus.build_tfidf", None),
        (L.nmfk, "factorize", "nmf.factorize", _iterations),
        (L.nmfk, "refit_h", "nmf.refit_h", None),
        (L.hierarchy, "select_k", "nmfk.select_k", _probes),
        (L.hierarchy, "decompose", "hierarchy.decompose", None),
        (L.citations, "extract_citations_regex", "citations.extract", _len),
        (L.graph, "extract_citations_regex", "citations.canonical_key", _len),
        (L.graph, "build_graph", "graph.build", None),
        (L.graph, "export_graph", "graph.export", None),
        (L.graph, "import_triplet_csv", "graph.import", None),
        (L.rag, "count_mentions", "graph.count_mentions", None),
        (L.rag, "common_citations", "graph.common_citations", None),
        (L.rag, "keyword_neighborhood", "graph.keyword_neighborhood", None),
        (L.chunking, "default_chunks", "chunking.chunk", _len),
        (L.evaluation, "chunk_document", "chunking.chunk", _len),
        (emb, "embed", "embeddings.embed", _texts),
        (L.vectorstore, "build_index", "vectorstore.build_index", _len),
        (L.evaluation, "build_index", "vectorstore.build_index", _len),
        (vi, "save", "vectorstore.save", None),
        (vi, "load", "vectorstore.load", None),
        (L.rag, "route_and_search", "vectorstore.route_and_search", None),
        (L.rag, "search", "vectorstore.search", None),
        (L.vectorstore, "search", "vectorstore.search", None),
        (L.evaluation, "search", "vectorstore.search", None),
        (L.evaluation, "run_retrieval_eval", _strategy_name, None),
        (chat, "complete", "chat.complete", _prompt_chars),
    ]


class Tracer:
    def __init__(self, L):
        self.L = L
        self.spans: list[list] = []
        self.gc_events: list[list] = []  # [start, end, phase]
        self.phase = "setup"
        self.active = False
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # --- wrappers --------------------------------------------------------------

    def _wrapper(self, fn, name, count):
        tracer = self

        def traced(*args, **kwargs):
            span = [name(args, kwargs) if callable(name) else name, time.perf_counter(), 0.0,
                    tracer._stack[-1] if tracer._stack else -1, tracer.phase, 0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                span[5] = count(result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, count in wrap_points(self.L):
            if not hasattr(owner, attr):
                continue  # a later version may drop a function; its layer then reads 0
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr, staticmethod(self._wrapper(getattr(owner, attr), name, count)))
            else:
                setattr(owner, attr, self._wrapper(raw, name, count))
        gc.callbacks.append(self._on_gc)
        self.active = True

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()
        gc.callbacks.remove(self._on_gc)
        self.active = False

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_events.append([self._gc_start, time.perf_counter(), self.phase])

    @contextmanager
    def span(self, name: str):
        """A span the benchmark opens around its own call into the program."""
        if not self.active:
            yield
            return
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.phase, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    # --- summaries --------------------------------------------------------------

    def table(self, phase: str | None = None) -> dict[str, dict]:
        """Calls, total and self seconds and summed counts for each span name,
        over one phase or all of them."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, count in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, parent, span_phase, count) in enumerate(self.spans):
            if phase is not None and span_phase != phase:
                continue
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "count": 0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
            row["count"] += count
        return out

    def write(self, path: Path) -> None:
        payload = {"fields": ["name", "start", "end", "parent", "phase", "count"],
                   "spans": self.spans, "gc": self.gc_events}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")
