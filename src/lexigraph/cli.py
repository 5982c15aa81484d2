"""Command-line entry point wiring the full pipeline.

    lexigraph ingest      -> normalized corpus file
    lexigraph decompose   -> topic hierarchy JSON (+ node-size CSV)
    lexigraph nmfk        -> k-selection report for one matrix
    lexigraph kg          -> graph build / query / export
    lexigraph index       -> vector index files
    lexigraph ask         -> one grounded answer
    lexigraph eval        -> retrieval or answer-quality reports

Exit codes: 0 success, 1 usage error, 2 data error, 3 external-service error.
Every run writes a JSON manifest (command, config hash, seed, versions) into
the output directory for reproducibility.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from . import __version__
from .citations import extract_citations_regex
from .config import Config, load_config
from .corpus import TermDocMatrix, build_tfidf, build_vocabulary, count_tokens, ingest_jsonl, write_jsonl
from .errors import DataError, ExternalServiceError, LexigraphError, ParameterError
from .evaluation import (
    EvalRecord,
    attach_external_scores,
    grade,
    load_cases,
    report_to_csv,
    report_to_json,
    run_retrieval_eval,
    STRATEGIES,
)
from .graph import build_graph, common_citations, count_mentions, export_graph, import_triplet_csv, keyword_neighborhood
from .hierarchy import Hierarchy, decompose
from .nmfk import select_k
from .chunking import default_chunks
from .rag import Session, answer as rag_answer, follow_up as rag_follow_up
from .vectorstore import VectorIndex, build_index


def _write_manifest(cfg: Config, command: str, out_dir: Path, seed: int) -> None:
    import numpy
    import scipy

    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "config_hash": cfg.config_hash(),
        "seed": seed,
        "versions": {
            "lexigraph": __version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    path = out_dir / f"manifest-{command.replace(' ', '-')}.json"
    path.write_text(json.dumps(manifest, sort_keys=True, indent=2), encoding="utf-8")


def _load_indexes(index_dir: Path) -> VectorIndex | dict[str, VectorIndex]:
    files = sorted(index_dir.glob("*.lxvi"))
    if not files:
        raise DataError(f"no index files under {index_dir}")
    indexes = {f.stem: VectorIndex.load(f) for f in files}
    if len(indexes) == 1:
        return next(iter(indexes.values()))
    return {idx.topic_id or name: idx for name, idx in indexes.items()}


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="YAML configuration file.")
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="Output directory (default from config).")
@click.pass_context
def cli(ctx, config_path, seed, out_dir):
    cfg = load_config(config_path)
    if seed is not None:
        cfg.seed = seed
    if out_dir is not None:
        cfg.output_dir = out_dir
    ctx.obj = cfg


@cli.command()
@click.option("--input", "input_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", required=True, type=click.Path(dir_okay=False))
@click.pass_obj
def ingest(cfg: Config, input_path, out_path):
    """Validate a JSONL corpus and write the normalized corpus file."""
    docs = ingest_jsonl(input_path)
    out = Path(out_path)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_jsonl(docs, out)
    _write_manifest(cfg, "ingest", Path(cfg.output_dir), cfg.seed)
    click.echo(f"ingested {len(docs)} documents -> {out}")


@cli.command("decompose")
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--max-depth", type=int, default=None)
@click.option("--min-cluster", type=int, default=None)
@click.option("--out", "out_path", type=click.Path(dir_okay=False), default=None)
@click.pass_obj
def decompose_cmd(cfg: Config, corpus_path, max_depth, min_cluster, out_path):
    """Hierarchically decompose a corpus into topics."""
    if max_depth is not None:
        cfg.max_depth = max_depth
    if min_cluster is not None:
        cfg.min_cluster_size = min_cluster
    docs = ingest_jsonl(Path(corpus_path))
    hierarchy = decompose(docs, cfg.hierarchy_config(), corpus_id=Path(corpus_path).stem)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = Path(out_path) if out_path else out_dir / "hierarchy.json"
    hierarchy.save(out)
    (out_dir / "topic_sizes.csv").write_text(hierarchy.size_csv(), encoding="utf-8")
    _write_manifest(cfg, "decompose", out_dir, cfg.seed)
    n_leaves = len(hierarchy.leaves())
    click.echo(f"decomposed {len(docs)} documents into {n_leaves} leaf topics -> {out}")


@cli.command()
@click.option("--matrix", "matrix_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--corpus", "corpus_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--kmin", type=int, default=None)
@click.option("--kmax", type=int, default=None)
@click.option("--exhaustive", is_flag=True, default=False)
@click.pass_obj
def nmfk(cfg: Config, matrix_path, corpus_path, kmin, kmax, exhaustive):
    """Select the latent dimension for a term-document matrix."""
    if (matrix_path is None) == (corpus_path is None):
        raise click.UsageError("provide exactly one of --matrix or --corpus")
    if kmin is not None:
        cfg.k_min = kmin
    if kmax is not None:
        cfg.k_max = kmax
    if matrix_path:
        X = TermDocMatrix.load(matrix_path)
    else:
        counts = count_tokens(ingest_jsonl(Path(corpus_path)))
        vocab = build_vocabulary(counts, min(cfg.vocab_min_df, len(counts.doc_ids)), cfg.vocab_max_df_ratio)
        X = build_tfidf(counts, vocab)
    result = select_k(X, cfg.nmfk_config(), exhaustive=exhaustive)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(result.to_json_dict(), sort_keys=True, indent=2)
    (out_dir / "nmfk.json").write_text(payload, encoding="utf-8")
    _write_manifest(cfg, "nmfk", out_dir, cfg.seed)
    click.echo(payload)


@cli.group()
def kg():
    """Knowledge-graph build, query, and export."""


@kg.command("build")
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--hierarchy", "hierarchy_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.pass_obj
def kg_build(cfg: Config, corpus_path, hierarchy_path):
    """Build the graph and export it as CSV triples."""
    docs = ingest_jsonl(Path(corpus_path))
    hierarchy = Hierarchy.load(hierarchy_path)
    citations = {d.id: extract_citations_regex(d.text) for d in docs}
    graph = build_graph(docs, hierarchy, citations)
    out_dir = Path(cfg.output_dir) / "graph"
    export_graph(graph, "triplet_csv", out_dir)
    _write_manifest(cfg, "kg-build", Path(cfg.output_dir), cfg.seed)
    click.echo(f"graph: {len(graph.nodes)} nodes, {len(graph.edges)} edges -> {out_dir}")


@kg.command("query")
@click.option("--graph", "graph_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--corpus", "corpus_path", type=click.Path(exists=True, dir_okay=False), default=None,
              help="Needed for phrase queries (raw text is not exported).")
@click.option("--op", "operation", required=True,
              type=click.Choice(["keyword", "mentions", "citations"]))
@click.option("--token", default=None)
@click.option("--phrase", default=None)
@click.option("--kind", default="supreme_case")
@click.option("--top-n", type=int, default=10)
@click.pass_obj
def kg_query(cfg: Config, graph_dir, corpus_path, operation, token, phrase, kind, top_n):
    """Run a structural query against an exported graph."""
    graph = import_triplet_csv(graph_dir)
    if corpus_path:
        for d in ingest_jsonl(Path(corpus_path)):
            if d.id in graph.nodes:
                graph.doc_texts[d.id] = d.text
    if operation == "keyword":
        if not token:
            raise click.UsageError("--token is required for the keyword op")
        hood = keyword_neighborhood(graph, token)
        click.echo(json.dumps({
            "token": hood.token,
            "topics_with_keyword": hood.topics_with_keyword,
            "docs_via_topics": hood.docs_via_topics,
            "docs_via_bow": hood.docs_via_bow,
        }, sort_keys=True, indent=2))
    elif operation == "mentions":
        if not phrase:
            raise click.UsageError("--phrase is required for the mentions op")
        click.echo(str(count_mentions(graph, phrase, kind)))
    else:
        if not phrase:
            raise click.UsageError("--phrase is required for the citations op")
        ranked = common_citations(graph, phrase, kind, top_n)
        click.echo(json.dumps(ranked, indent=2))


@kg.command("export")
@click.option("--graph", "graph_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--format", "fmt", type=click.Choice(["triplet_csv", "cypher"]), default="cypher")
@click.pass_obj
def kg_export(cfg: Config, graph_dir, fmt):
    """Re-export a graph in another format."""
    graph = import_triplet_csv(graph_dir)
    out_dir = Path(cfg.output_dir) / "graph-export"
    files = export_graph(graph, fmt, out_dir)
    _write_manifest(cfg, "kg-export", Path(cfg.output_dir), cfg.seed)
    click.echo("\n".join(str(f) for f in files))


@cli.command("index")
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--by-topic", "hierarchy_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--chunk-size", type=int, default=None)
@click.option("--overlap", type=int, default=None)
@click.pass_obj
def index_cmd(cfg: Config, corpus_path, hierarchy_path, chunk_size, overlap):
    """Embed the corpus into one index, or one index per leaf topic."""
    if chunk_size is not None:
        cfg.chunk_size = chunk_size
    if overlap is not None:
        cfg.chunk_overlap = overlap
    docs = ingest_jsonl(Path(corpus_path))
    provider = cfg.embedding()
    out_dir = Path(cfg.output_dir) / "index"
    out_dir.mkdir(parents=True, exist_ok=True)

    def chunks_for(subset):
        out = []
        for d in subset:
            out.extend(default_chunks(d, size=cfg.chunk_size, overlap=cfg.chunk_overlap))
        return out

    written = []
    if hierarchy_path:
        hierarchy = Hierarchy.load(hierarchy_path)
        by_id = {d.id: d for d in docs}
        for i, leaf in enumerate(hierarchy.leaves()):
            subset = [by_id[x] for x in leaf.doc_ids if x in by_id]
            if not subset:
                continue
            idx = build_index(chunks_for(subset), provider, topic_id=leaf.id)
            path = out_dir / f"topic-{i:04d}.lxvi"
            idx.save(path)
            written.append(path)
    else:
        idx = build_index(chunks_for(docs), provider)
        path = out_dir / "corpus.lxvi"
        idx.save(path)
        written.append(path)
    _write_manifest(cfg, "index", Path(cfg.output_dir), cfg.seed)
    click.echo(f"wrote {len(written)} index file(s) under {out_dir}")


@cli.command()
@click.option("--graph", "graph_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--index", "index_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--question", required=True)
@click.option("--session", "session_id", default=None)
@click.pass_obj
def ask(cfg: Config, graph_dir, index_dir, corpus_path, question, session_id):
    """Answer one question, grounded in the graph and vector indexes."""
    graph = import_triplet_csv(graph_dir)
    for d in ingest_jsonl(Path(corpus_path)):
        if d.id in graph.nodes:
            graph.doc_texts[d.id] = d.text
    indexes = _load_indexes(Path(index_dir))
    provider = cfg.embedding()
    chat = cfg.chat()

    sessions_dir = Path(cfg.output_dir) / "sessions"
    session = Session(id=session_id or "default")
    session_file = sessions_dir / f"{session.id}.json"
    if session_id and session_file.exists():
        session.turns.extend(tuple(t) for t in json.loads(session_file.read_text(encoding="utf-8")))
        result = rag_follow_up(question, session, graph, indexes, provider, chat,
                               top_k=cfg.top_k, score_threshold=cfg.score_threshold)
    else:
        result = rag_answer(question, session, graph, indexes, provider, chat,
                            top_k=cfg.top_k, score_threshold=cfg.score_threshold)
    if session_id:
        sessions_dir.mkdir(parents=True, exist_ok=True)
        session_file.write_text(json.dumps(list(session.turns)), encoding="utf-8")
    _write_manifest(cfg, "ask", Path(cfg.output_dir), cfg.seed)
    click.echo(json.dumps({
        "text": result.text,
        "sources": result.sources,
        "routed_topic": result.routed_topic,
        "kg_facts": [[name, value] for name, value in result.kg_facts],
        "refused": result.refused,
    }, sort_keys=True, indent=2))


@cli.group("eval")
def eval_group():
    """Evaluation harnesses."""


@eval_group.command("retrieval")
@click.option("--cases", "cases_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--hierarchy", "hierarchy_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.option("--strategy", default="all")
@click.pass_obj
def eval_retrieval(cfg: Config, cases_path, corpus_path, hierarchy_path, strategy):
    """Score retrieval strategies with MRR and hit@10 per corpus part."""
    cases = load_cases(cases_path)
    docs = ingest_jsonl(Path(corpus_path))
    hierarchy = Hierarchy.load(hierarchy_path) if hierarchy_path else None
    provider = cfg.embedding()
    names = list(STRATEGIES) if strategy == "all" else [strategy]
    reports = [
        run_retrieval_eval(cases, docs, hierarchy, provider, name,
                           chunk_size=cfg.chunk_size, chunk_overlap=cfg.chunk_overlap)
        for name in names
    ]
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "retrieval_report.json").write_text(
        report_to_json(reports, {"config_hash": cfg.config_hash(), "seed": cfg.seed}),
        encoding="utf-8",
    )
    (out_dir / "retrieval_report.csv").write_text(report_to_csv(reports), encoding="utf-8")
    _write_manifest(cfg, "eval-retrieval", out_dir, cfg.seed)
    click.echo(report_to_csv(reports))


@eval_group.command("answers")
@click.option("--records", "records_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--external", "external_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.pass_obj
def eval_answers(cfg: Config, records_path, external_path):
    """Validate graded answer records and compute ROUGE-L."""
    records = []
    with Path(records_path).open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                records.append(EvalRecord.from_json_dict(json.loads(line)))
            except (json.JSONDecodeError, TypeError) as exc:
                raise DataError(f"{records_path}:{lineno}: bad record: {exc}") from exc
    records = [grade(r) for r in records]
    if external_path:
        attach_external_scores(records, external_path)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "answer_records.jsonl").open("w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r.to_json_dict(), sort_keys=True) + "\n")
    n = len(records)
    summary = {
        "records": n,
        "attempt_rate": sum(r.attempted for r in records) / n if n else 0.0,
        "mean_accuracy": sum(r.accuracy for r in records) / n if n else 0.0,
        "mean_rouge_l": sum(r.rouge_l for r in records) / n if n else 0.0,
    }
    (out_dir / "answer_summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2), encoding="utf-8"
    )
    _write_manifest(cfg, "eval-answers", out_dir, cfg.seed)
    click.echo(json.dumps(summary, sort_keys=True, indent=2))


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except (click.UsageError, ParameterError) as exc:
        click.echo(f"usage error: {exc}", err=True)
        return 1
    except DataError as exc:
        click.echo(f"data error: {exc}", err=True)
        return 2
    except ExternalServiceError as exc:
        click.echo(f"external service error: {exc}", err=True)
        return 3
    except LexigraphError as exc:
        click.echo(f"error: {exc}", err=True)
        return 2


if __name__ == "__main__":
    sys.exit(main())
