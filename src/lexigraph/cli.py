"""Command-line entry point wiring the full pipeline.

    lexigraph ingest      -> normalized corpus file
    lexigraph decompose   -> topic hierarchy JSON with every split's k evidence
                             (+ node-size CSV)
    lexigraph kg          -> graph build / query / export
    lexigraph index       -> vector index set file
    lexigraph ask         -> one grounded answer
    lexigraph eval        -> retrieval or answer-quality reports

Exit codes: 0 success, 1 usage error, 2 data error, 3 external-service error.
Every run writes a JSON manifest (command, config hash, seed, versions) into
the output directory for reproducibility.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path

import click

from . import __version__
from .citations import extract_citations_regex
from .config import Config, load_config
from .corpus import ingest_jsonl, read_records, write_jsonl
from .errors import DataError, ExternalServiceError, ParameterError, read_json, write_file
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
from .chunking import default_chunks
from .rag import DEFAULT_CITATIONS_TOP_N, Session, follow_up
from .vectorstore import load_indexes, write_indexes


def _write_manifest(cfg: Config, command: str) -> None:
    import numpy
    import scipy

    manifest = {
        "command": command,
        "config_hash": cfg.config_hash(),
        "seed": cfg.seed,
        "versions": {
            "lexigraph": __version__,
            "python": ".".join(str(v) for v in sys.version_info[:3]),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    write_file(Path(cfg.output_dir) / f"manifest-{command.replace(' ', '-')}.json",
               json.dumps(manifest, sort_keys=True, indent=2))


def _load_turns(path: Path) -> list[tuple[str, str]]:
    """Turns of a session file written by `ask --session`; anything but a
    JSON list of [question, answer] string pairs is a DataError."""
    turns = read_json(path, list[list[str]])
    if any(len(t) != 2 for t in turns):
        raise DataError(f"{path}: not a JSON list of [question, answer] string pairs")
    return [tuple(t) for t in turns]


def _attach_texts(graph, corpus_path) -> None:
    """Give the graph's document nodes their corpus texts, which a graph
    export does not hold."""
    for d in ingest_jsonl(Path(corpus_path)):
        if d.id in graph.nodes:
            graph.doc_texts[d.id] = d.text


@click.group()
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="YAML configuration file.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False), default=None,
              help="Output directory (default from config).")
@click.pass_context
def cli(ctx, config_path, out_dir):
    cfg = load_config(config_path)
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
    write_jsonl(docs, out)
    _write_manifest(cfg, "ingest")
    click.echo(f"ingested {len(docs)} documents -> {out}")


@cli.command("decompose")
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.pass_obj
def decompose_cmd(cfg: Config, corpus_path):
    """Hierarchically decompose a corpus into topics."""
    docs = ingest_jsonl(Path(corpus_path))
    hierarchy = decompose(docs, cfg.hierarchy_config(), corpus_id=Path(corpus_path).stem)
    out_dir = Path(cfg.output_dir)
    out = out_dir / "hierarchy.json"
    hierarchy.save(out)
    write_file(out_dir / "topic_sizes.csv", hierarchy.size_csv())
    _write_manifest(cfg, "decompose")
    n_leaves = len(hierarchy.leaves())
    click.echo(f"decomposed {len(docs)} documents into {n_leaves} leaf topics -> {out}")


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
    _write_manifest(cfg, "kg-build")
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
@click.option("--top-n", type=int, default=DEFAULT_CITATIONS_TOP_N)
@click.pass_obj
def kg_query(cfg: Config, graph_dir, corpus_path, operation, token, phrase, kind, top_n):
    """Run a structural query against an exported graph."""
    graph = import_triplet_csv(graph_dir)
    if corpus_path:
        _attach_texts(graph, corpus_path)
    if operation == "keyword":
        if not token:
            raise click.UsageError("--token is required for the keyword op")
        hood = keyword_neighborhood(graph, token)
        click.echo(json.dumps(asdict(hood), sort_keys=True, indent=2))
    elif operation == "mentions":
        if not phrase:
            raise click.UsageError("--phrase is required for the mentions op")
        click.echo(str(count_mentions(graph, phrase, kind)))
    else:
        if not phrase:
            raise click.UsageError("--phrase is required for the citations op")
        ranked = common_citations(graph, phrase, kind, top_n)
        click.echo(json.dumps(ranked, indent=2))
    _write_manifest(cfg, "kg-query")


@kg.command("export")
@click.option("--graph", "graph_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--format", "fmt", type=click.Choice(["triplet_csv", "cypher"]), default="cypher")
@click.pass_obj
def kg_export(cfg: Config, graph_dir, fmt):
    """Re-export a graph in another format."""
    graph = import_triplet_csv(graph_dir)
    out_dir = Path(cfg.output_dir) / "graph-export"
    files = export_graph(graph, fmt, out_dir)
    _write_manifest(cfg, "kg-export")
    click.echo("\n".join(str(f) for f in files))


@cli.command("index")
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--by-topic", "hierarchy_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.pass_obj
def index_cmd(cfg: Config, corpus_path, hierarchy_path):
    """Embed the corpus into one index, or one index per leaf topic."""
    docs = ingest_jsonl(Path(corpus_path))
    provider = cfg.embedding()
    groups = Hierarchy.load(hierarchy_path).leaf_docs(docs) if hierarchy_path else {None: docs}
    out = Path(cfg.output_dir) / "index.lxvi"
    indexes = write_indexes({t: [c for d in group
                                 for c in default_chunks(d, cfg.chunk_size, cfg.chunk_overlap)]
                             for t, group in groups.items()}, provider, out)
    _write_manifest(cfg, "index")
    click.echo(f"wrote {len(indexes)} index(es) -> {out}")


def _plain_file_name(ctx, param, value):
    """Refuse a session id that would reach outside the sessions directory."""
    if value is not None and (value in (".", "..") or "\0" in value or Path(value).name != value):
        raise click.BadParameter(f"{value!r} is not a plain file name")
    return value


@cli.command()
@click.option("--graph", "graph_dir", required=True, type=click.Path(exists=True, file_okay=False))
@click.option("--index", "index_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--corpus", "corpus_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--question", required=True)
@click.option("--session", "session_id", default=None, callback=_plain_file_name)
@click.pass_obj
def ask(cfg: Config, graph_dir, index_path, corpus_path, question, session_id):
    """Answer one question, grounded in the graph and vector indexes."""
    graph = import_triplet_csv(graph_dir)
    _attach_texts(graph, corpus_path)
    provider = cfg.embedding()
    indexes = load_indexes(index_path, provider)
    chat = cfg.chat()

    sessions_dir = Path(cfg.output_dir) / "sessions"
    session = Session(id=session_id or "default")
    session_file = sessions_dir / f"{session.id}.json"
    if session_id and session_file.exists():
        session.turns.extend(_load_turns(session_file))
    # with no earlier turn this is exactly `rag.answer`
    result = follow_up(question, session, graph, indexes, provider, chat,
                       top_k=cfg.top_k, score_threshold=cfg.score_threshold)
    if session_id:
        write_file(session_file, json.dumps(list(session.turns)))
    _write_manifest(cfg, "ask")
    click.echo(json.dumps({**asdict(result), "score_threshold": cfg.score_threshold},
                          sort_keys=True, indent=2))


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
    # the CSV first: only it holds part names unescaped, so only it can fail to encode
    write_file(out_dir / "retrieval_report.csv", report_to_csv(reports))
    write_file(out_dir / "retrieval_report.json",
               report_to_json(reports, {"config_hash": cfg.config_hash(), "seed": cfg.seed}))
    _write_manifest(cfg, "eval-retrieval")
    click.echo(report_to_csv(reports))


@eval_group.command("answers")
@click.option("--records", "records_path", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--external", "external_path", type=click.Path(exists=True, dir_okay=False), default=None)
@click.pass_obj
def eval_answers(cfg: Config, records_path, external_path):
    """Validate graded answer records and compute ROUGE-L."""
    records = [grade(r) for r in read_records(records_path, EvalRecord)]
    if not records:
        raise DataError(f"{records_path}: the file holds no answer record")
    if external_path:
        attach_external_scores(records, external_path)
    out_dir = Path(cfg.output_dir)
    write_file(out_dir / "answer_records.jsonl",
               "".join(json.dumps(asdict(r), sort_keys=True) + "\n" for r in records))
    n = len(records)
    summary = {
        "records": n,
        "attempt_rate": sum(r.attempted for r in records) / n,
        "mean_accuracy": sum(r.accuracy for r in records) / n,
        "mean_rouge_l": sum(r.rouge_l for r in records) / n,
    }
    write_file(out_dir / "answer_summary.json", json.dumps(summary, sort_keys=True, indent=2))
    _write_manifest(cfg, "eval-answers")
    click.echo(json.dumps(summary, sort_keys=True, indent=2))


def main(argv: list[str] | None = None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return int(exc.exit_code)
    except (click.UsageError, ParameterError) as exc:
        code, message = 1, f"usage error: {exc}"
    except DataError as exc:
        code, message = 2, f"data error: {exc}"
    except ExternalServiceError as exc:
        code, message = 3, f"external service error: {exc}"
    # a message may quote input that the stream cannot encode, such as a lone surrogate
    encoding = getattr(sys.stderr, "encoding", None) or "utf-8"
    click.echo(message.encode(encoding, "backslashreplace").decode(encoding), err=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
