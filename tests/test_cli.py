import contextlib
import csv
import gzip
import io
import json
import re
import shlex
import socket
import struct
import time
from collections import Counter
from dataclasses import asdict, fields
from pathlib import Path

import click
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from lexigraph.chunking import Chunk
from lexigraph.cli import cli, main
from lexigraph.config import load_config
from lexigraph.corpus import Document, count_tokens
from lexigraph.embeddings import DeterministicEmbedder
from lexigraph.evaluation import STRATEGIES
from lexigraph.graph import Graph, GraphNode, export_graph
from lexigraph.hierarchy import HierarchyConfig, split_node
from lexigraph.nmfk import NmfkConfig
from lexigraph.rag import GroundedAnswer
from lexigraph.vectorstore import build_index, load_indexes

from conftest import manual_hierarchy, synthetic_docs, zero_row_index

README = Path(__file__).resolve().parent.parent / "README.md"


def write_corpus(path, docs):
    with path.open("w", encoding="utf-8") as fh:
        for d in docs:
            fh.write(json.dumps({"id": d.id, "doc_type": d.doc_type, "title": d.title,
                                 "text": d.text, "metadata": d.metadata}) + "\n")


@pytest.fixture
def workspace(tmp_path):
    docs = synthetic_docs(2, 14, words_per_doc=40, seed=77)
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(corpus, docs)
    config = tmp_path / "config.yaml"
    config.write_text(yaml.safe_dump({
        "output_dir": str(tmp_path / "out"),
        "seed": 5,
        "hierarchy": {"max_depth": 1, "min_cluster_size": 10,
                      "keywords_per_topic": 8, "vocab_min_df": 2,
                      "vocab_max_df_ratio": 0.9},
        "nmfk": {"k_min": 1, "k_max": 3, "n_perturbations": 3,
                 "nmf_max_iters": 150, "nmf_tol": 1e-6},
        "embedding": {"provider": "deterministic", "dim": 64},
        "chat": {"provider": "stub", "stub_reply": "Cited answer [doc-0-000#00000]."},
        "chunking": {"size": 20, "overlap": 5},
    }))
    return tmp_path, corpus, config, docs


def run(args):
    return main([str(a) for a in args])


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, workspace):
        tmp, corpus, config, _ = workspace
        assert run(["--config", config, "ingest", "--input", corpus,
                    "--bogus-flag"]) == 1

    def test_duplicate_ids_are_data_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        rec = {"id": "same", "doc_type": "generic", "text": "x"}
        bad.write_text(json.dumps(rec) + "\n" + json.dumps(rec) + "\n")
        out = tmp_path / "out.jsonl"
        assert run(["ingest", "--input", bad, "--out", out]) == 2

    def test_missing_file_is_usage_error(self, tmp_path):
        assert run(["ingest", "--input", tmp_path / "absent.jsonl",
                    "--out", tmp_path / "o.jsonl"]) == 1

    def test_invalid_utf8_corpus_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"id": "a", "doc_type": "generic", "text": "ok"}\n'
                        b'{"id": "b", "doc_type": "generic", "text": "caf\xe9"}\n')
        capsys.readouterr()
        assert run(["ingest", "--input", bad, "--out", tmp_path / "o.jsonl"]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "utf-8" in err and "Traceback" not in err
        assert not (tmp_path / "o.jsonl").exists()

    def test_gzip_corpus_is_not_decompressed(self, tmp_path, capsys):
        # a corpus is plain UTF-8 JSON Lines whatever its name
        write_corpus(tmp_path / "corpus.jsonl", synthetic_docs(2, 20, words_per_doc=40, seed=3))
        corpus = tmp_path / "corpus.jsonl.gz"
        corpus.write_bytes(gzip.compress((tmp_path / "corpus.jsonl").read_bytes()))
        capsys.readouterr()
        assert run(["ingest", "--input", corpus, "--out", tmp_path / "o.jsonl"]) == 2
        err = capsys.readouterr().err
        assert str(corpus) in err and "utf-8" in err and "Traceback" not in err
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize("kind", ["corpus", "cases", "records"])
    def test_deeply_nested_json_line_is_data_error(self, tmp_path, capsys, kind):
        write_small_graph(tmp_path)
        corpus, cases, records = (tmp_path / f"{name}.jsonl" for name in ("corpus", "cases", "records"))
        cases.write_text(json.dumps({"question": "water", "gold_doc_id": "d0",
                                     "source_part": "generic"}) + "\n")
        records.write_text(json.dumps({"question": "q1", "reference": "r", "response": "r",
                                       "attempted": 1, "accuracy": 3}) + "\n")
        bad = {"corpus": corpus, "cases": cases, "records": records}[kind]
        with bad.open("a", encoding="utf-8") as fh:
            fh.write('{"a": ' * 100_000 + "1" + "}" * 100_000 + "\n")
        lineno = len(bad.read_text(encoding="utf-8").splitlines())
        args = {
            "corpus": ["ingest", "--input", corpus, "--out", tmp_path / "out" / "c.jsonl"],
            "cases": ["eval", "retrieval", "--cases", cases, "--corpus", corpus,
                      "--strategy", "whole_corpus"],
            "records": ["eval", "answers", "--records", records],
        }[kind]
        capsys.readouterr()
        assert run(["--out", tmp_path / "out", *args]) == 2
        err = capsys.readouterr().err
        assert f"{bad}:{lineno}: JSON nested too deep" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_one_document_corpus_is_data_error(self, tmp_path, capsys):
        # the corpus is at fault, as it is when its two documents leave no vocabulary
        corpus = tmp_path / "one.jsonl"
        write_corpus(corpus, [Document(id="d0", doc_type="generic", text="water rights")])
        capsys.readouterr()
        assert run(["--out", tmp_path / "out", "decompose", "--corpus", corpus]) == 2
        err = capsys.readouterr().err
        assert "data error: need at least 2 documents to decompose" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sidecar", [
        pytest.param('[{"q1": {"faithfulness": 0.9}}]', id="a-list"),
        pytest.param('{"q1": {"faithfulness": "high"}}', id="non-numeric-score"),
        pytest.param('{"q1": [0.9]}', id="scores-not-an-object"),
        pytest.param('{"q1": {"faithfulness": "0.9"}}', id="numeric-string-score"),
        pytest.param('{"q1": {"faithfulness": true}}', id="bool-score"),
    ])
    def test_bad_external_sidecar_is_data_error(self, tmp_path, capsys, sidecar):
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps({"question": "q1", "reference": "r", "response": "r",
                                       "attempted": 1, "accuracy": 3}) + "\n")
        external = tmp_path / "external.json"
        external.write_text(sidecar)
        capsys.readouterr()
        assert run(["--out", tmp_path / "out", "eval", "answers", "--records", records,
                    "--external", external]) == 2
        err = capsys.readouterr().err
        assert str(external) in err and "Traceback" not in err

    @pytest.mark.parametrize("score", ["NaN", "1e999", "-Infinity"])
    @pytest.mark.parametrize("where", ["sidecar", "records"])
    def test_score_that_is_not_finite_is_data_error(self, tmp_path, capsys, where, score):
        # answer_records.jsonl must stay JSON, which holds no NaN or infinity
        records, external = tmp_path / "records.jsonl", tmp_path / "external.json"
        record = '{"question": "q1", "reference": "r", "response": "r", "attempted": 1, "accuracy": 3'
        if where == "sidecar":
            records.write_text(record + "}\n")
            external.write_text('{"q0": {"nli": 0.5}, "q1": {"nli": 0.8, "faithfulness": %s}}' % score)
        else:
            records.write_text(record + ', "external_scores": {"faithfulness": %s}}\n' % score)
            external.write_text('{"q1": {"nli": 0.8}}')
        capsys.readouterr()
        assert run(["--out", tmp_path / "out", "eval", "answers", "--records", records,
                    "--external", external]) == 2
        err = capsys.readouterr().err
        assert "question 'q1': score 'faithfulness'" in err and "not a finite number" in err
        assert (str(external) in err) == (where == "sidecar") and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, option", [
        pytest.param(["eval", "retrieval"], "--cases", id="cases"),
        pytest.param(["eval", "answers"], "--records", id="records"),
    ])
    @pytest.mark.parametrize("content", [
        pytest.param(b'{"question": "caf\xe9", "gold_doc_id": "d", "source_part": "p"}\n',
                     id="invalid-utf8"),
        pytest.param(b'["a"]\n', id="not-an-object"),
        pytest.param(b'{"question": 5, "gold_doc_id": "d", "source_part": "p"}\n',
                     id="case-question-not-a-string"),
        pytest.param(b'{"question": "q", "reference": "r", "response": 5, "attempted": 1, "accuracy": 0}\n',
                     id="record-response-not-a-string"),
        pytest.param(b'{"question": "q", "reference": "r", "response": "r", "external_scores": 5}\n',
                     id="record-external-scores-a-number"),
        pytest.param(b'{"question": "q", "reference": "r", "response": "r", "external_scores": {"m": "x"}}\n',
                     id="record-external-score-not-a-number"),
        pytest.param(b'{"question": "q", "gold_doc_id": "d", "source_part": "p", "note": "x"}\n',
                     id="case-unknown-key"),
    ])
    def test_bad_eval_input_is_data_error(self, tmp_path, capsys, command, option, content):
        write_corpus(tmp_path / "corpus.jsonl", [Document(id="d", doc_type="generic", text="x")])
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(content)
        extra = ["--corpus", tmp_path / "corpus.jsonl"] if option == "--cases" else []
        capsys.readouterr()
        assert run(["--out", tmp_path / "out", *command, option, bad, *extra]) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err

    @pytest.mark.parametrize("content", ["", "\n \n"], ids=["empty", "blank-lines"])
    def test_cases_file_without_a_case_is_data_error(self, tmp_path, capsys, content):
        write_corpus(tmp_path / "corpus.jsonl", [Document(id="d", doc_type="generic", text="x")])
        cases = tmp_path / "cases.jsonl"
        cases.write_text(content)
        capsys.readouterr()
        assert run(["--out", tmp_path / "out", "eval", "retrieval", "--cases", cases,
                    "--corpus", tmp_path / "corpus.jsonl"]) == 2
        err = capsys.readouterr().err
        assert str(cases) in err and "no retrieval case" in err and "Traceback" not in err

    @pytest.mark.parametrize("content", ["", "\n \n"], ids=["empty", "blank-lines"])
    def test_records_file_without_a_record_is_data_error(self, tmp_path, capsys, content):
        # its summary would report means of no record
        records = tmp_path / "records.jsonl"
        records.write_text(content)
        capsys.readouterr()
        assert run(["--out", tmp_path / "out", "eval", "answers", "--records", records]) == 2
        err = capsys.readouterr().err
        assert str(records) in err and "no answer record" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "answer_summary.json").exists()

    @pytest.mark.parametrize("content", [
        pytest.param(b"a: [1\n", id="malformed-yaml"),
        pytest.param(b"seed: caf\xe9\n", id="invalid-utf8"),
        pytest.param(b"nmfk:\n  nmf_tol: 1e-6\n", id="float-read-as-string"),
        pytest.param(b"k_min: 3\nnmfk:\n  k_min: 2\n", id="section-key-at-top-level"),
        pytest.param(b"[]\n", id="empty-list"),
        pytest.param(b"false\n", id="false"),
        pytest.param(b"0\n", id="zero"),
        pytest.param(b'""\n', id="empty-string"),
        pytest.param(b"[1]\n", id="list"),
        pytest.param(b"seed: " + b"[" * 50_000 + b"]" * 50_000 + b"\n", id="nested-50000-deep"),
        pytest.param(b'output_dir: "out\\ud800"\n', id="output-dir-lone-surrogate"),
    ])
    def test_bad_config_is_usage_error(self, workspace, capsys, content):
        tmp, corpus, _, _ = workspace
        config = tmp / "bad.yaml"
        config.write_bytes(content)
        capsys.readouterr()
        assert run(["--config", config, "ingest", "--input", corpus,
                    "--out", tmp / "o.jsonl"]) == 1
        err = capsys.readouterr().err
        assert str(config) in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("content", [b"", b"# no settings\n", b"---\n"])
    def test_empty_config_document_gives_the_defaults(self, workspace, content):
        tmp, corpus, _, _ = workspace
        config = tmp / "empty.yaml"
        config.write_bytes(content)
        assert run(["--config", config, "--out", tmp / "out", "ingest", "--input", corpus,
                    "--out", tmp / "o.jsonl"]) == 0

    @pytest.mark.parametrize("key, value", [
        ("vocab_max_df_ratio", 2.0), ("vocab_max_df_ratio", 0.0),
        ("vocab_min_df", -3), ("vocab_min_df", 0),
    ])
    def test_bad_vocabulary_window_in_config_is_usage_error(self, workspace, capsys, key, value):
        tmp, corpus, _, _ = workspace
        config = tmp / "window.yaml"
        config.write_text(yaml.safe_dump({"hierarchy": {key: value}}))
        capsys.readouterr()
        assert run(["--config", config, "--out", tmp / "out", "decompose", "--corpus", corpus]) == 1
        err = capsys.readouterr().err
        assert f"usage error: {config}: {key} must be" in err and "Traceback" not in err

    @pytest.mark.parametrize("section, message", [
        ({"nmfk": {"k_min": 5, "k_max": 2}}, "need 1 <= k_min <= k_max, got [5, 2]"),
        ({"hierarchy": {"min_cluster_size": 1}}, "min_cluster_size must be >= 2"),
        ({"chunking": {"size": 0, "overlap": 5}}, "chunk size must be >= 1, got 0"),
        ({"chunking": {"size": 10, "overlap": 10}},
         "chunk overlap must satisfy 0 <= overlap < size, got 10 (size 10)"),
        ({"chat": {"stub_reply": "${LX_UNSET_FOR_TEST}"}},
         "environment variable LX_UNSET_FOR_TEST is not set (${LX_UNSET_FOR_TEST})"),
        ({"embedding": {"dim": 0}}, "embedding dim must be >= 1, got 0"),
        ({"embedding": {"provider": "bogus"}}, "unknown embedding provider 'bogus'"),
        ({"chat": {"provider": "bogus"}}, "unknown chat provider 'bogus'"),
        ({"retrieval": {"top_k": 0}}, "top_k must be >= 1, got 0"),
        ({"chat": {"provider": "http", "model": "m"}}, "http chat provider needs endpoint and model"),
        ({"embedding": {"provider": "http", "dim": 0, "endpoint": "http://127.0.0.1:9/e", "model": "m"}},
         "embedding dim must be >= 1, got 0"),
        # read as no key, the unset variable would only show as the endpoint's 401s
        ({"embedding": {"provider": "http", "endpoint": "http://127.0.0.1:9/e", "model": "m",
                        "api_key_env": "LX_UNSET_FOR_TEST"}},
         "environment variable LX_UNSET_FOR_TEST is not set (embedding.api_key_env)"),
        ({"chat": {"provider": "http", "endpoint": "http://127.0.0.1:9/c", "model": "m",
                   "api_key_env": "LX_UNSET_FOR_TEST"}},
         "environment variable LX_UNSET_FOR_TEST is not set (chat.api_key_env)"),
    ], ids=["k-range-reversed", "min-cluster-below-two", "chunk-size-zero", "overlap-not-below-size",
            "unset-variable", "embedding-dim-zero", "embedding-provider-unknown",
            "chat-provider-unknown", "top-k-zero", "http-without-endpoint", "http-embedding-dim-zero",
            "http-embedding-key-variable-unset", "http-chat-key-variable-unset"])
    @pytest.mark.parametrize("command", ["ingest", "kg-build", "index"])
    def test_bad_nmfk_or_hierarchy_config_is_refused_by_every_command(
            self, tmp_path, capsys, monkeypatch, section, message, command):
        monkeypatch.delenv("LX_UNSET_FOR_TEST", raising=False)
        write_small_graph(tmp_path)
        corpus, hierarchy = tmp_path / "corpus.jsonl", tmp_path / "h.json"
        hierarchy.write_text(hierarchy_with_root(), encoding="utf-8")
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(section))
        args = {
            "ingest": ["ingest", "--input", corpus, "--out", tmp_path / "o.jsonl"],
            "kg-build": ["kg", "build", "--corpus", corpus, "--hierarchy", hierarchy],
            "index": ["index", "--corpus", corpus],
        }[command]
        capsys.readouterr()
        assert run(["--config", config, "--out", tmp_path / "out", *args]) == 1
        err = capsys.readouterr().err
        assert err == f"usage error: {config}: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, option", [
        ("decompose", "--max-depth"), ("decompose", "--min-cluster"), ("decompose", "--out"),
        ("index", "--chunk-size"), ("index", "--overlap"),
    ])
    def test_option_that_shadowed_a_config_key_is_gone(self, workspace, capsys, command, option):
        tmp, corpus, config, _ = workspace
        capsys.readouterr()
        assert run(["--config", config, command, "--corpus", corpus, option, "0"]) == 1
        err = capsys.readouterr().err
        assert "No such option" in err and option in err
        assert not (tmp / "out").exists()

    def test_group_seed_option_is_gone(self, workspace, capsys):
        # `seed:` in the config is the one spelling of the run's seed
        tmp, corpus, config, _ = workspace
        capsys.readouterr()
        assert run(["--config", config, "--seed", "3", "ingest", "--input", corpus,
                    "--out", tmp / "o.jsonl"]) == 1
        err = capsys.readouterr().err
        assert "No such option" in err and "--seed" in err
        assert not (tmp / "out").exists()


SMALL_TEXTS = ["water rights", "jury trial"]


def write_small_graph(tmp_path):
    """A two-document corpus and its exported graph (document nodes only)."""
    write_corpus(tmp_path / "corpus.jsonl",
                 [Document(id=f"d{i}", doc_type="generic", text=t) for i, t in enumerate(SMALL_TEXTS)])
    g = Graph()
    for i, text in enumerate(SMALL_TEXTS):
        g.add_node(GraphNode(id=f"d{i}", kind="generic_doc", attrs={"title": text}))
    export_graph(g, "triplet_csv", tmp_path / "graph")


def write_small_index(tmp_path, *records):
    """The index set file tmp_path/index.lxvi of the small corpus, one index
    per (topic id, provider) record, by default one whole-corpus index from
    the default config's provider."""
    chunks = [Chunk(doc_id=f"d{i}", index=0, unit="words", start=0, end=2, text=text)
              for i, text in enumerate(SMALL_TEXTS)]
    indexes = [build_index(chunks, provider, topic_id=topic_id)
               for topic_id, provider in records or [(None, DeterministicEmbedder())]]
    path = tmp_path / "index.lxvi"
    path.write_bytes(b"".join(index.record(len(indexes)) for index in indexes))
    return path


def ask_small(tmp_path, capsys, *extra):
    """`ask` over the small graph, its corpus and the index set file tmp_path/index.lxvi."""
    capsys.readouterr()
    code = run(["--out", tmp_path / "out", "ask", "--graph", tmp_path / "graph",
                "--index", tmp_path / "index.lxvi", "--corpus", tmp_path / "corpus.jsonl",
                "--question", "water rights", *extra])
    return code, capsys.readouterr().err


class TestExternalService:
    def test_unreachable_embedding_service_is_exit_3(self, tmp_path, capsys, monkeypatch):
        with socket.socket() as sock:  # a port that nothing listens on
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump({"embedding": {
            "provider": "http", "endpoint": f"http://127.0.0.1:{port}/v1/embeddings", "model": "m"}}))
        write_small_graph(tmp_path)
        served = DeterministicEmbedder()
        served.provider_id = "http:m"
        write_small_index(tmp_path, (None, served))
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")  # so no configured proxy is asked instead
        capsys.readouterr()
        assert run(["--config", config, "--out", tmp_path / "out", "ask", "--graph", tmp_path / "graph",
                    "--index", tmp_path / "index.lxvi", "--corpus", tmp_path / "corpus.jsonl",
                    "--question", "water rights"]) == 3
        err = capsys.readouterr().err
        assert "after 3 retries" in err and "Traceback" not in err
        assert slept == [0.5, 1.0, 2.0]


def record_ends(raw: bytes) -> list[int]:
    """The offset at which each record of a `.lxvi` set file ends, read
    from the record layout without the package's parser."""
    ends, at = [], 0
    while at < len(raw):
        (header_len,) = struct.unpack_from("<I", raw, at + 6)
        header = json.loads(raw[at + 10:at + 10 + header_len])
        at += 10 + header_len + header["chunk_bytes"] + 8 * header["count"] * header["dim"]
        ends.append(at)
    return ends


def with_header(raw: bytes, which: set[int], **fields) -> bytes:
    """`raw` with `fields` written into the header of each record in `which`."""
    parts, start = [], 0
    for i, end in enumerate(record_ends(raw)):
        record = raw[start:end]
        (header_len,) = struct.unpack_from("<I", record, 6)
        header = json.loads(record[10:10 + header_len])
        if i in which:
            header.update(fields)
        text = json.dumps(header, sort_keys=True).encode("utf-8")
        parts.append(record[:6] + struct.pack("<I", len(text)) + text + record[10 + header_len:])
        start = end
    return b"".join(parts)


class TestIndexFiles:
    """`ask` over hand-written index set files, a small graph and a two-document corpus."""

    def test_truncated_index_is_data_error(self, tmp_path, capsys):
        write_small_graph(tmp_path)
        path = write_small_index(tmp_path)
        path.write_bytes(path.read_bytes()[:-5])
        code, err = ask_small(tmp_path, capsys)
        assert code == 2
        assert str(path) in err and "Traceback" not in err

    def test_index_without_rows_is_data_error(self, tmp_path, capsys):
        write_small_graph(tmp_path)
        path = tmp_path / "index.lxvi"
        path.write_bytes(zero_row_index())
        code, err = ask_small(tmp_path, capsys)
        assert code == 2
        assert "data error:" in err and str(path) in err and "Traceback" not in err

    def test_index_directory_is_neither_read_nor_removed(self, tmp_path, capsys):
        # the `<out>/index` directory of per-topic files is not an index set
        write_small_graph(tmp_path)
        old = tmp_path / "index" / "corpus.lxvi"
        old.parent.mkdir()
        old.write_bytes(b"an index file of the earlier layout")
        assert run(["--out", tmp_path, "index", "--corpus", tmp_path / "corpus.jsonl"]) == 0
        assert old.read_bytes() == b"an index file of the earlier layout"
        capsys.readouterr()
        assert run(["--out", tmp_path / "out", "ask", "--graph", tmp_path / "graph",
                    "--index", tmp_path / "index", "--corpus", tmp_path / "corpus.jsonl",
                    "--question", "water rights"]) == 1
        err = capsys.readouterr().err
        assert "is a directory" in err and "Traceback" not in err

    def test_duplicate_topic_ids_are_data_error(self, tmp_path, capsys):
        write_small_graph(tmp_path)
        path = write_small_index(tmp_path, ("root/0", DeterministicEmbedder()),
                                 ("root/0", DeterministicEmbedder()))
        code, err = ask_small(tmp_path, capsys)
        assert code == 2
        assert "second index of topic 'root/0'" in err and str(path) in err

    @pytest.mark.parametrize("first", [True, False], ids=["first-record", "second-record"])
    @pytest.mark.parametrize("other", ["dim", "provider"])
    def test_index_the_configured_provider_did_not_build_is_data_error(self, tmp_path, capsys, other, first):
        write_small_graph(tmp_path)
        odd = DeterministicEmbedder(dim=8)
        if other == "provider":
            odd = DeterministicEmbedder()
            odd.provider_id = "http:some-model"
        records = [("root/0", odd), ("root/1", DeterministicEmbedder())]
        path = write_small_index(tmp_path, *(records if first else records[::-1]))
        code, err = ask_small(tmp_path, capsys)
        assert code == 2
        assert str(path) in err and "Traceback" not in err
        assert ("at dim 8" if other == "dim" else "http:some-model") in err

    @pytest.mark.parametrize("topic_ids", [
        pytest.param([None, "root/0", "root/1"], id="corpus-beside-topics"),
        pytest.param(["root/0", None], id="topic-beside-corpus"),
        pytest.param([None, None], id="two-corpus-indexes"),
    ])
    def test_mixed_index_sets_are_data_error(self, tmp_path, capsys, topic_ids):
        write_small_graph(tmp_path)
        path = write_small_index(tmp_path, *((t, DeterministicEmbedder()) for t in topic_ids))
        code, err = ask_small(tmp_path, capsys)
        assert code == 2
        assert "whole-corpus" in err and str(path) in err and "Traceback" not in err

    @pytest.mark.parametrize("groups, question, leaf", [
        pytest.param({"a": ["d0"], "b": ["d1"]}, "jury trial", "root/1", id="two-leaves"),
        pytest.param({"a": ["d0", "d1"]}, "jury trial", "root/0", id="one-leaf"),
    ])
    def test_ask_over_topic_indexes_reports_the_leaf(self, tmp_path, capsys, groups, question, leaf):
        write_small_graph(tmp_path)
        manual_hierarchy(groups).save(tmp_path / "h.json")
        assert run(["--out", tmp_path, "index", "--corpus", tmp_path / "corpus.jsonl",
                    "--by-topic", tmp_path / "h.json"]) == 0
        capsys.readouterr()
        assert run(["--out", tmp_path / "out", "ask", "--graph", tmp_path / "graph",
                    "--index", tmp_path / "index.lxvi", "--corpus", tmp_path / "corpus.jsonl",
                    "--question", question]) == 0
        assert json.loads(capsys.readouterr().out)["routed_topic"] == leaf

    def index_small(self, tmp_path, groups=None, out=None):
        """`index` of the small corpus into (out or tmp_path)/index.lxvi, by topic when `groups` is given."""
        args = ["--out", out or tmp_path, "index", "--corpus", tmp_path / "corpus.jsonl"]
        if groups:
            manual_hierarchy(groups).save(tmp_path / "h.json")
            args += ["--by-topic", tmp_path / "h.json"]
        assert run(args) == 0
        return (out or tmp_path) / "index.lxvi"

    def test_reindex_with_fewer_leaves_replaces_the_set(self, tmp_path, capsys):
        write_small_graph(tmp_path)
        self.index_small(tmp_path, {"a": ["d0"], "b": ["d1"]})
        path = self.index_small(tmp_path, {"a": ["d0", "d1"]})
        assert list(load_indexes(path, DeterministicEmbedder())) == ["root/0"]
        capsys.readouterr()
        assert run(["--out", tmp_path / "out", "ask", "--graph", tmp_path / "graph",
                    "--index", path, "--corpus", tmp_path / "corpus.jsonl",
                    "--question", "jury trial"]) == 0
        assert json.loads(capsys.readouterr().out)["routed_topic"] == "root/0"

    def test_leaves_without_corpus_documents_keep_the_earlier_index(self, tmp_path, capsys):
        write_small_graph(tmp_path)
        path = self.index_small(tmp_path)
        before = path.read_bytes()
        # a blank document makes the second hierarchy's leaf root/0 hold no words
        with (tmp_path / "corpus.jsonl").open("a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": "blank", "doc_type": "generic", "text": " \n "}) + "\n")
        for groups, refusal in [({"a": ["elsewhere-0"], "b": ["elsewhere-1"]}, "nothing to index"),
                                ({"a": ["blank"], "b": ["d0", "d1"]}, "topic 'root/0' holds no words")]:
            manual_hierarchy(groups).save(tmp_path / "h.json")
            capsys.readouterr()
            assert run(["--out", tmp_path, "index", "--corpus", tmp_path / "corpus.jsonl",
                        "--by-topic", tmp_path / "h.json"]) == 2
            assert refusal in capsys.readouterr().err
            assert path.read_bytes() == before
        code, err = ask_small(tmp_path, capsys)
        assert code == 0, err

    @pytest.mark.parametrize("strategy", ["topic_routed", "topic_routed_chunked"])
    def test_routed_eval_over_leaves_without_corpus_documents_is_data_error(
            self, tmp_path, capsys, strategy):
        write_small_graph(tmp_path)
        manual_hierarchy({"a": ["elsewhere-0"]}).save(tmp_path / "h.json")
        cases = tmp_path / "cases.jsonl"
        cases.write_text(json.dumps({"question": "water", "gold_doc_id": "d0", "source_part": "generic"}))
        capsys.readouterr()
        assert run(["--out", tmp_path / "out", "eval", "retrieval", "--cases", cases,
                    "--corpus", tmp_path / "corpus.jsonl", "--hierarchy", tmp_path / "h.json",
                    "--strategy", strategy]) == 2
        assert "nothing to index" in capsys.readouterr().err
        assert not (tmp_path / "out" / "retrieval_report.json").exists()

    def test_plain_index_replaces_topic_indexes(self, tmp_path, capsys):
        write_small_graph(tmp_path)
        self.index_small(tmp_path, {"a": ["d0"], "b": ["d1"]})
        path = self.index_small(tmp_path)
        code, err = ask_small(tmp_path, capsys)
        assert code == 0, err
        assert list(load_indexes(path, DeterministicEmbedder())) == [None]

    def test_two_index_runs_write_the_same_bytes(self, tmp_path):
        write_small_graph(tmp_path)
        first = self.index_small(tmp_path, {"a": ["d0"], "b": ["d1"]})
        second = self.index_small(tmp_path, {"a": ["d0"], "b": ["d1"]}, out=tmp_path / "second")
        assert len(record_ends(first.read_bytes())) == 2
        assert second.read_bytes() == first.read_bytes()

    @pytest.mark.parametrize("damage", ["empty", "first-record-only", "byte-appended", "record-appended",
                                        "version-2"])
    def test_set_cut_at_a_record_boundary_or_with_extra_bytes_is_data_error(self, tmp_path, capsys, damage):
        write_small_graph(tmp_path)
        path = self.index_small(tmp_path, {"a": ["d0"], "b": ["d1"]})
        raw = path.read_bytes()
        first_end, last_end = record_ends(raw)
        path.write_bytes({"empty": b"", "first-record-only": raw[:first_end],
                          "byte-appended": raw + b"\0", "record-appended": raw + raw[first_end:],
                          "version-2": raw[:4] + struct.pack("<H", 2) + raw[6:]}[damage])
        code, err = ask_small(tmp_path, capsys)
        assert code == 2
        assert err.startswith(f"data error: {path}: ") and "Traceback" not in err
        if damage == "version-2":
            assert "rebuild with lexigraph index" in err

    def test_failed_index_write_keeps_the_earlier_file(self, tmp_path, capsys, monkeypatch):
        write_small_graph(tmp_path)
        path = self.index_small(tmp_path)

        def crash(src, dst):
            raise OSError("killed before the rename")

        manual_hierarchy({"a": ["d0"], "b": ["d1"]}).save(tmp_path / "h.json")
        before = sorted(tmp_path.iterdir()), path.read_bytes()
        monkeypatch.setattr("lexigraph.errors.os.replace", crash)
        capsys.readouterr()
        assert run(["--out", tmp_path, "index", "--corpus", tmp_path / "corpus.jsonl",
                    "--by-topic", tmp_path / "h.json"]) == 2
        err = capsys.readouterr().err
        assert err == f"data error: {path}: killed before the rename\n"
        assert (sorted(tmp_path.iterdir()), path.read_bytes()) == before


@pytest.fixture(scope="module")
def index_set(tmp_path_factory):
    """(the `ask` arguments, the path of their index set file, its bytes)
    over the small graph and corpus, the set holding one index per document."""
    tmp = tmp_path_factory.mktemp("index-set")
    write_small_graph(tmp)
    manual_hierarchy({"a": ["d0"], "b": ["d1"]}).save(tmp / "h.json")
    assert run(["--out", tmp, "index", "--corpus", tmp / "corpus.jsonl", "--by-topic", tmp / "h.json"]) == 0
    path = tmp / "index.lxvi"
    args = ["--out", tmp / "out", "ask", "--graph", tmp / "graph", "--index", path,
            "--corpus", tmp / "corpus.jsonl", "--question", "water rights"]
    return args, path, path.read_bytes()


class TestDamagedIndexSet:
    """A damaged index set file, read by `ask` through `cli.main`: a cut, at
    a record boundary or inside a record, appended bytes or another `records`
    count exit 2 naming the file; a flipped byte exits 0 (in a vector or a
    chunk text) or 2, never with a traceback."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_damaged_set_is_refused_without_traceback(self, index_set, data):
        args, path, raw = index_set
        ends = record_ends(raw)
        damage = data.draw(st.sampled_from(["cut", "append", "records", "flip"]), label="damage")
        if damage == "cut":
            bad = raw[:data.draw(st.one_of(st.sampled_from([0, *ends[:-1]]), st.integers(0, len(raw) - 1)))]
        elif damage == "append":
            bad = raw + data.draw(st.binary(min_size=1, max_size=40))
        elif damage == "records":
            which = data.draw(st.sets(st.sampled_from(range(len(ends))), min_size=1))
            records = data.draw(st.integers(-1, 2 * len(ends)).filter(lambda n: n != len(ends)))
            bad = with_header(raw, which, records=records)
        else:
            at = data.draw(st.integers(0, len(raw) - 1))
            bad = raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255))]) + raw[at + 1:]
        path.write_bytes(bad)
        try:
            with contextlib.redirect_stderr(io.StringIO()) as stderr, \
                    contextlib.redirect_stdout(io.StringIO()):
                code = run(args)
        finally:
            path.write_bytes(raw)
        err = stderr.getvalue()
        assert code == 2 or (code == 0 and damage == "flip"), err
        if code:
            assert err.startswith(f"data error: {path}: ") and len(err.strip().splitlines()) == 1


class TestAskScores:
    """`ask` prints the score of every hit it retrieved beside the threshold."""

    def ask_json(self, tmp_path, capsys, question, *config_args):
        write_small_graph(tmp_path)
        write_small_index(tmp_path)
        capsys.readouterr()
        assert run([*config_args, "--out", tmp_path / "out", "ask", "--graph", tmp_path / "graph",
                    "--index", tmp_path / "index.lxvi", "--corpus", tmp_path / "corpus.jsonl",
                    "--question", question]) == 0
        return json.loads(capsys.readouterr().out)

    def test_answer_prints_each_hit_score_and_the_threshold(self, tmp_path, capsys):
        out = self.ask_json(tmp_path, capsys, "water rights")
        assert not out["refused"] and out["score_threshold"] == 0.15
        # both documents are hits, the one equal to the question first
        assert len(out["scores"]) == 2 and out["scores"][0] == pytest.approx(1.0)
        assert out["scores"][1] < out["scores"][0]

    def test_keys_are_the_answer_fields_and_the_threshold(self, tmp_path, capsys):
        out = self.ask_json(tmp_path, capsys, "water rights")
        assert out.keys() == {f.name for f in fields(GroundedAnswer)} | {"score_threshold"}

    def test_refusal_shows_how_far_the_best_hit_fell_short(self, tmp_path, capsys):
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump({"retrieval": {"score_threshold": 0.99}}))
        out = self.ask_json(tmp_path, capsys, "jury rights", "--config", config)
        assert out["refused"] and out["sources"] == [] and out["score_threshold"] == 0.99
        assert len(out["scores"]) == 2 and 0 < max(out["scores"]) < 0.99


class TestBlankDocuments:
    """Documents whose text is only whitespace give no chunks; an index of
    nothing but them is a data error naming the corpus or the topic."""

    @pytest.fixture
    def blank(self, tmp_path):
        write_corpus(tmp_path / "c.jsonl", [Document(id="b0", doc_type="generic", text=" \n "),
                                            Document(id="b1", doc_type="supreme_case", text="\t")])
        return tmp_path

    def test_index_of_a_blank_corpus_is_data_error(self, blank, capsys):
        capsys.readouterr()
        assert run(["--out", blank / "out", "index", "--corpus", blank / "c.jsonl"]) == 2
        err = capsys.readouterr().err
        assert "the corpus" in err and "Traceback" not in err

    def test_blank_leaf_under_index_by_topic_is_data_error(self, blank, capsys):
        write_corpus(blank / "c.jsonl", [Document(id="d0", doc_type="generic", text="water rights"),
                                         Document(id="b0", doc_type="statute", text="\n\n")])
        manual_hierarchy({"a": ["d0"], "b": ["b0"]}).save(blank / "h.json")
        capsys.readouterr()
        assert run(["--out", blank / "out", "index", "--corpus", blank / "c.jsonl",
                    "--by-topic", blank / "h.json"]) == 2
        assert "topic 'root/1'" in capsys.readouterr().err
        assert not (blank / "out" / "index.lxvi").exists()

    def test_chunked_eval_of_a_blank_corpus_is_data_error(self, blank, capsys):
        cases = blank / "cases.jsonl"
        cases.write_text(json.dumps({"question": "water", "gold_doc_id": "b0", "source_part": "generic"}))
        capsys.readouterr()
        assert run(["--out", blank / "out", "eval", "retrieval", "--cases", cases,
                    "--corpus", blank / "c.jsonl", "--strategy", "chunked"]) == 2
        err = capsys.readouterr().err
        assert "the corpus" in err and "Traceback" not in err

    def test_blank_leaf_under_routed_chunked_eval_is_data_error(self, blank, capsys):
        write_corpus(blank / "c.jsonl", [Document(id="d0", doc_type="generic", text="water rights"),
                                         Document(id="b0", doc_type="statute", text="\n\n")])
        manual_hierarchy({"a": ["d0"], "b": ["b0"]}).save(blank / "h.json")
        cases = blank / "cases.jsonl"
        cases.write_text(json.dumps({"question": "water", "gold_doc_id": "d0", "source_part": "generic"}))
        capsys.readouterr()
        assert run(["--out", blank / "out", "eval", "retrieval", "--cases", cases,
                    "--corpus", blank / "c.jsonl", "--hierarchy", blank / "h.json",
                    "--strategy", "topic_routed_chunked"]) == 2
        err = capsys.readouterr().err
        assert "topic 'root/1' holds no words to index" in err and "Traceback" not in err
        assert not (blank / "out" / "retrieval_report.json").exists()


class TestEmptyCorpus:
    """A corpus file that holds no document is a data error naming it, at
    every command that reads a corpus."""

    @pytest.mark.parametrize("command", [
        "ingest", "decompose", "kg-build", "index", "index-by-topic", "ask",
        *(f"eval-{strategy}" for strategy in STRATEGIES),
    ])
    def test_empty_corpus_is_data_error(self, tmp_path, capsys, command):
        write_small_graph(tmp_path)
        write_small_index(tmp_path)
        corpus, hierarchy, cases = tmp_path / "empty.jsonl", tmp_path / "h.json", tmp_path / "cases.jsonl"
        corpus.write_text("")
        hierarchy.write_text(hierarchy_with_root(), encoding="utf-8")
        cases.write_text(json.dumps({"question": "water", "gold_doc_id": "d0",
                                     "source_part": "generic"}) + "\n")
        if command.startswith("eval-"):
            args = ["eval", "retrieval", "--cases", cases, "--corpus", corpus,
                    "--hierarchy", hierarchy, "--strategy", command[len("eval-"):]]
        else:
            args = {
                "ingest": ["ingest", "--input", corpus, "--out", tmp_path / "out" / "c.jsonl"],
                "decompose": ["decompose", "--corpus", corpus],
                "kg-build": ["kg", "build", "--corpus", corpus, "--hierarchy", hierarchy],
                "index": ["index", "--corpus", corpus],
                "index-by-topic": ["index", "--corpus", corpus, "--by-topic", hierarchy],
                "ask": ["ask", "--graph", tmp_path / "graph", "--index", tmp_path / "index.lxvi",
                        "--corpus", corpus, "--question", "water rights"],
            }[command]
        capsys.readouterr()
        assert run(["--out", tmp_path / "out", *args]) == 2
        err = capsys.readouterr().err
        assert str(corpus) in err and "no document" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


def hierarchy_with_root(config: dict | None = None, corpus_id="c", **fields) -> str:
    """A hierarchy.json text with one root node, `fields` overriding its own
    and `config` overriding keys of its config."""
    root = {"id": "root/0", "depth": 0, "doc_ids": ["d0", "d1"], "top_keywords": [], **fields}
    return json.dumps({"config": {**asdict(HierarchyConfig(nmfk=NmfkConfig(k_min=1, k_max=2))),
                                  **(config or {})},
                       "corpus_id": corpus_id, "roots": [root]})


def file_bytes(root: Path) -> dict[Path, bytes]:
    """Every file under `root`, hidden ones too, and its bytes."""
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def pipeline_workspace(tmp_path) -> tuple[Path, dict[str, list]]:
    """(output directory, command -> arguments) of a light run of every
    command that writes an artifact, in pipeline order."""
    write_corpus(tmp_path / "corpus.jsonl", synthetic_docs(2, 8, words_per_doc=30, seed=9))
    (tmp_path / "config.yaml").write_text(yaml.safe_dump({
        "output_dir": str(tmp_path / "out"), "hierarchy": {"max_depth": 0},
        "nmfk": {"k_min": 2, "k_max": 2, "n_perturbations": 2, "nmf_max_iters": 30}}))
    (tmp_path / "cases.jsonl").write_text(json.dumps({"question": "water", "gold_doc_id": "doc-0-000",
                                                      "source_part": "generic"}) + "\n")
    (tmp_path / "records.jsonl").write_text(json.dumps({"question": "q1", "reference": "r", "response": "r",
                                                        "attempted": 1, "accuracy": 3}) + "\n")
    out, corpus, hierarchy = tmp_path / "out", tmp_path / "corpus.jsonl", tmp_path / "out" / "hierarchy.json"
    commands = {
        "ingest": ["ingest", "--input", corpus, "--out", out / "corpus.jsonl"],
        "decompose": ["decompose", "--corpus", corpus],
        "kg-build": ["kg", "build", "--corpus", corpus, "--hierarchy", hierarchy],
        "index": ["index", "--corpus", corpus, "--by-topic", hierarchy],
        "eval-retrieval": ["eval", "retrieval", "--cases", tmp_path / "cases.jsonl", "--corpus", corpus,
                           "--hierarchy", hierarchy],
        "eval-answers": ["eval", "answers", "--records", tmp_path / "records.jsonl"],
    }
    return out, {name: ["--config", tmp_path / "config.yaml", *args] for name, args in commands.items()}


class TestArtifactFaults:
    """A truncated or ill-shaped graph, hierarchy or session file exits 2 naming it."""

    def test_truncated_nodes_csv_is_data_error(self, tmp_path, capsys):
        write_small_graph(tmp_path)
        write_small_index(tmp_path)
        nodes = tmp_path / "graph" / "nodes.csv"
        nodes.write_bytes(nodes.read_bytes()[:-6])
        code, err = ask_small(tmp_path, capsys)
        assert code == 2
        assert str(nodes) in err and "Traceback" not in err
        code = run(["kg", "query", "--graph", tmp_path / "graph", "--corpus", tmp_path / "corpus.jsonl",
                    "--op", "mentions", "--phrase", "water", "--kind", "generic_doc"])
        err = capsys.readouterr().err
        assert code == 2
        assert str(nodes) in err and "Traceback" not in err

    @pytest.mark.parametrize("attrs", [
        pytest.param({"key": "NMSA 1-1-1", "n": 1}, id="attr-not-a-string"),
        pytest.param({"citation_kind": "nmsa_statute"}, id="external-citation-without-key"),
        pytest.param({"key": "NMSA 1-1-1", "id": "x"}, id="id-attr"),
    ])
    def test_bad_node_attrs_are_data_error(self, tmp_path, capsys, attrs):
        write_small_graph(tmp_path)
        graph = tmp_path / "graph"
        with (graph / "nodes.csv").open("a", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(["cite:x", "external_citation", json.dumps(attrs)])
        with (graph / "edges.csv").open("a", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerow(["d0", "CITES", "cite:x"])
        for command in (["kg", "export", "--graph", graph, "--format", "cypher"],
                        ["kg", "query", "--graph", graph, "--corpus", tmp_path / "corpus.jsonl",
                         "--op", "citations", "--phrase", "water", "--kind", "generic_doc"]):
            capsys.readouterr()
            code = run(["--out", tmp_path / "out", *command])
            err = capsys.readouterr().err
            assert code == 2
            assert str(graph / "nodes.csv") in err and "Traceback" not in err

    @pytest.mark.parametrize("key", ["id", "title", "citation_key"])
    def test_kg_build_refuses_metadata_key_the_graph_sets(self, tmp_path, capsys, key):
        corpus = tmp_path / "corpus.jsonl"
        write_corpus(corpus, [Document(id=f"d{i}", doc_type="generic", text=t, metadata={key: "same"})
                              for i, t in enumerate(SMALL_TEXTS)])
        hierarchy = tmp_path / "hierarchy.json"
        hierarchy.write_text(hierarchy_with_root(), encoding="utf-8")
        capsys.readouterr()
        code = run(["--out", tmp_path / "out", "kg", "build", "--corpus", corpus, "--hierarchy", hierarchy])
        err = capsys.readouterr().err
        assert code == 2
        assert f"'d0' has metadata key(s) {key}," in err and "Traceback" not in err
        assert not (tmp_path / "out" / "graph").exists()

    def test_kg_query_unknown_kind_is_usage_error(self, tmp_path, capsys):
        write_small_graph(tmp_path)
        for op in ("mentions", "citations"):
            assert run(["kg", "query", "--graph", tmp_path / "graph",
                        "--corpus", tmp_path / "corpus.jsonl", "--op", op,
                        "--phrase", "water", "--kind", "bogus"]) == 1

    @pytest.mark.parametrize("payload", [
        pytest.param('{"roots": [], "corpus_id": "c"}', id="no-config"),
        pytest.param('{"config": {"nmfk": {}', id="truncated"),
        pytest.param('[1, 2]', id="not-an-object"),
        pytest.param(hierarchy_with_root(bogus=1), id="unknown-node-key"),
        pytest.param(hierarchy_with_root(doc_ids=5), id="doc-ids-a-number"),
        pytest.param(hierarchy_with_root(doc_ids=None), id="doc-ids-null"),
        pytest.param(hierarchy_with_root(doc_ids=[0, 1]), id="doc-ids-not-strings"),
        pytest.param(hierarchy_with_root(top_keywords=7), id="keywords-a-number"),
        pytest.param(hierarchy_with_root(config={"vocab_max_df_ratio": "0.8"}), id="max-df-ratio-a-string"),
        pytest.param(hierarchy_with_root(config={"vocab_min_df": "5"}), id="min-df-a-string"),
        pytest.param(hierarchy_with_root(config={"vocab_max_df_ratio": 2.0}), id="max-df-ratio-above-one"),
        pytest.param(hierarchy_with_root(config={"vocab_max_df_ratio": 0.0}), id="max-df-ratio-zero"),
        pytest.param(hierarchy_with_root(config={"vocab_min_df": -3}), id="min-df-negative"),
        pytest.param(hierarchy_with_root(config={"vocab_min_df": 0}), id="min-df-zero"),
        pytest.param(hierarchy_with_root(corpus_id=5), id="corpus-id-a-number"),
    ])
    def test_bad_hierarchy_is_data_error(self, tmp_path, capsys, payload):
        write_small_graph(tmp_path)
        hierarchy = tmp_path / "h.json"
        hierarchy.write_text(payload, encoding="utf-8")
        capsys.readouterr()
        assert run(["--out", tmp_path / "out", "index", "--corpus", tmp_path / "corpus.jsonl",
                    "--by-topic", hierarchy]) == 2
        err = capsys.readouterr().err
        assert str(hierarchy) in err and "Traceback" not in err

    @pytest.mark.parametrize("config", [{"vocab_max_df_ratio": 2.0}, {"vocab_min_df": -3}],
                             ids=["max-df-ratio-above-one", "min-df-negative"])
    @pytest.mark.parametrize("command", ["kg-build", "eval-retrieval"])
    def test_bad_vocabulary_window_is_data_error(self, tmp_path, capsys, config, command):
        write_small_graph(tmp_path)
        corpus, cases, hierarchy = tmp_path / "corpus.jsonl", tmp_path / "cases.jsonl", tmp_path / "h.json"
        cases.write_text(json.dumps({"question": "water rights", "gold_doc_id": "d0",
                                     "source_part": "generic"}) + "\n")
        hierarchy.write_text(hierarchy_with_root(config=config), encoding="utf-8")
        args = {
            "kg-build": ["kg", "build", "--corpus", corpus, "--hierarchy", hierarchy],
            "eval-retrieval": ["eval", "retrieval", "--cases", cases, "--corpus", corpus,
                               "--hierarchy", hierarchy, "--strategy", "topic_routed"],
        }[command]
        capsys.readouterr()
        assert run(["--out", tmp_path / "out", *args]) == 2
        err = capsys.readouterr().err
        assert str(hierarchy) in err and next(iter(config)) in err and "Traceback" not in err

    @pytest.mark.parametrize("leaves", [
        pytest.param([("root/0", ["d0"]), ("root/1", ["d1", "d0"])], id="document-in-two-leaves"),
        pytest.param([("root/0", ["d0", "d0"]), ("root/1", ["d1"])], id="document-twice-in-one-leaf"),
        pytest.param([("root/0", ["d0"]), ("root/0", ["d1"])], id="repeated-leaf-id"),
    ])
    @pytest.mark.parametrize("command", ["kg-build", "index-by-topic", "eval-retrieval"])
    def test_leaves_that_overlap_are_data_error(self, tmp_path, capsys, leaves, command):
        write_small_graph(tmp_path)
        corpus, cases, hierarchy = tmp_path / "corpus.jsonl", tmp_path / "cases.jsonl", tmp_path / "h.json"
        cases.write_text(json.dumps({"question": "water rights", "gold_doc_id": "d0",
                                     "source_part": "generic"}) + "\n")
        payload = json.loads(hierarchy_with_root())
        payload["roots"] = [{"id": leaf_id, "depth": 0, "doc_ids": doc_ids, "top_keywords": []}
                            for leaf_id, doc_ids in leaves]
        hierarchy.write_text(json.dumps(payload), encoding="utf-8")
        args = {
            "kg-build": ["kg", "build", "--corpus", corpus, "--hierarchy", hierarchy],
            "index-by-topic": ["index", "--corpus", corpus, "--by-topic", hierarchy],
            "eval-retrieval": ["eval", "retrieval", "--cases", cases, "--corpus", corpus,
                               "--hierarchy", hierarchy, "--strategy", "topic_routed"],
        }[command]
        capsys.readouterr()
        assert run(["--out", tmp_path / "out", *args]) == 2
        err = capsys.readouterr().err
        assert str(hierarchy) in err and "Traceback" not in err

    @pytest.mark.parametrize("payload", [
        pytest.param('[["q", "a"], ["q2"', id="truncated"),
        pytest.param('{"q": "a"}', id="not-a-list"),
        pytest.param('[["q", "a", "extra"]]', id="not-a-pair"),
        pytest.param('[["q", 1]]', id="not-strings"),
        pytest.param('["qa"]', id="turn-not-a-list"),
    ])
    def test_bad_session_file_is_data_error(self, tmp_path, capsys, payload):
        write_small_graph(tmp_path)
        write_small_index(tmp_path)
        session_file = tmp_path / "out" / "sessions" / "s1.json"
        session_file.parent.mkdir(parents=True)
        session_file.write_text(payload, encoding="utf-8")
        code, err = ask_small(tmp_path, capsys, "--session", "s1")
        assert code == 2
        assert str(session_file) in err and "Traceback" not in err

    @pytest.mark.parametrize("session_id", ["../../escaped", "a/b", "ABSOLUTE", "..", "."])
    def test_session_id_must_be_a_plain_file_name(self, tmp_path, capsys, session_id):
        write_small_graph(tmp_path)
        write_small_index(tmp_path)
        if session_id == "ABSOLUTE":
            session_id = str(tmp_path / "abs")
        before = sorted(tmp_path.rglob("*"))
        code, err = ask_small(tmp_path, capsys, "--session", session_id)
        assert code == 1
        assert "plain file name" in err and "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before

    def test_session_write_is_atomic(self, tmp_path, capsys, monkeypatch):
        write_small_graph(tmp_path)
        write_small_index(tmp_path)
        assert ask_small(tmp_path, capsys, "--session", "s1")[0] == 0
        session_file = tmp_path / "out" / "sessions" / "s1.json"
        before = session_file.read_bytes()
        renames = []

        def crash(src, dst):
            renames.append((Path(src), Path(dst)))
            raise OSError("killed before the rename")

        monkeypatch.setattr("lexigraph.errors.os.replace", crash)
        code, err = ask_small(tmp_path, capsys, "--session", "s1")
        assert code == 2 and err == f"data error: {session_file}: killed before the rename\n"
        (src, dst), = renames
        assert dst == session_file and src.parent == session_file.parent
        assert session_file.read_bytes() == before
        assert sorted(session_file.parent.iterdir()) == [session_file]

    @pytest.mark.parametrize("command", ["ingest", "decompose", "kg-build", "index",
                                         "eval-retrieval", "eval-answers"])
    def test_failed_rename_leaves_every_earlier_artifact(self, tmp_path, monkeypatch, command):
        # a command killed before its rename leaves the earlier outputs whole and no temporary file
        out, commands = pipeline_workspace(tmp_path)
        for args in commands.values():
            assert run(args) == 0
        before = file_bytes(out)

        def crash(src, dst):
            raise OSError("killed before the rename")

        monkeypatch.setattr("lexigraph.errors.os.replace", crash)
        assert run(commands[command]) == 2
        assert file_bytes(out) == before

    @pytest.mark.parametrize("command", ["ingest", "index"])
    def test_output_under_a_file_is_data_error(self, tmp_path, capsys, command):
        # the directory an output goes in cannot be made where a file stands
        write_small_graph(tmp_path)
        blocker = tmp_path / "afile"
        blocker.write_text("a file, not a directory")
        corpus = tmp_path / "corpus.jsonl"
        args, output = {
            "ingest": (["ingest", "--input", corpus, "--out", blocker / "o.jsonl"], blocker / "o.jsonl"),
            "index": (["--out", blocker / "out", "index", "--corpus", corpus],
                      blocker / "out" / "index.lxvi"),
        }[command]
        before = file_bytes(tmp_path)
        capsys.readouterr()
        assert run(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {output}: ") and "Traceback" not in err
        assert file_bytes(tmp_path) == before

    def test_failed_rename_over_a_directory_leaves_no_temporary_file(self, tmp_path, capsys):
        write_small_graph(tmp_path)
        (tmp_path / "out" / "index.lxvi").mkdir(parents=True)
        before = file_bytes(tmp_path)
        capsys.readouterr()
        assert run(["--out", tmp_path / "out", "index", "--corpus", tmp_path / "corpus.jsonl"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {tmp_path / 'out' / 'index.lxvi'}: ") and "Traceback" not in err
        assert file_bytes(tmp_path) == before
        assert [p.name for p in (tmp_path / "out").iterdir()] == ["index.lxvi"]

    @pytest.mark.parametrize("command", ["ingest", "kg-build", "kg-export", "eval-retrieval"])
    def test_lone_surrogate_is_data_error_that_writes_nothing(self, tmp_path, capsys, command):
        # a \ud800 escape reads as a string that UTF-8 cannot encode
        write_small_graph(tmp_path)
        corpus, hierarchy, cases = tmp_path / "corpus.jsonl", tmp_path / "h.json", tmp_path / "cases.jsonl"
        hierarchy.write_text(hierarchy_with_root(), encoding="utf-8")
        out = tmp_path / "out"
        args, output = {
            "ingest": (["ingest", "--input", corpus, "--out", out / "c.jsonl"], out / "c.jsonl"),
            "kg-build": (["kg", "build", "--corpus", corpus, "--hierarchy", hierarchy],
                         out / "graph" / "nodes.csv"),
            "kg-export": (["kg", "export", "--graph", tmp_path / "graph", "--format", "cypher"],
                          out / "graph-export" / "graph.cypher"),
            "eval-retrieval": (["eval", "retrieval", "--cases", cases, "--corpus", corpus,
                                "--strategy", "whole_corpus"], out / "retrieval_report.csv"),
        }[command]
        cases.write_text(json.dumps({"question": "water", "gold_doc_id": "d0",
                                     "source_part": "generic"}) + "\n")
        assert run(["--out", out, *args]) == 0
        if command == "ingest":  # the bad document first, so a streamed write would cut the file
            corpus.write_text('{"id": "d2", "doc_type": "generic", "text": "caf\\ud800"}\n'
                              + corpus.read_text(encoding="utf-8"), encoding="utf-8")
        elif command == "kg-build":
            with corpus.open("a", encoding="utf-8") as fh:
                fh.write('{"id": "d\\ud800", "doc_type": "generic", "text": "more water"}\n')
        elif command == "kg-export":
            with (tmp_path / "graph" / "nodes.csv").open("a", encoding="utf-8", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerow(
                    ["cite:x", "external_citation", '{"key": "NMSA \\ud800"}'])
        else:
            cases.write_text(json.dumps({"question": "water", "gold_doc_id": "d0",
                                         "source_part": "part \ud800"}) + "\n")
        before = file_bytes(out)
        capsys.readouterr()
        assert run(["--out", out, *args]) == 2
        err = capsys.readouterr().err
        assert f"data error: {output}: " in err and "surrogates not allowed" in err and "Traceback" not in err
        assert file_bytes(out) == before
        if command == "kg-build":  # the graph written before still reads back
            assert run(["--out", out, "kg", "export", "--graph", out / "graph"]) == 0


@pytest.fixture(scope="module")
def hostile(tmp_path_factory):
    """Input kind -> (valid bytes, where the damaged copy goes, the command
    that reads it), over the small graph, index and corpus."""
    tmp = tmp_path_factory.mktemp("hostile")
    write_small_graph(tmp)
    write_small_index(tmp)
    out, corpus, records = tmp / "out", tmp / "corpus.jsonl", tmp / "records.jsonl"
    records.write_text(json.dumps({"question": "q1", "reference": "the statute applies",
                                   "response": "the statute", "attempted": 1, "accuracy": 3}) + "\n")
    valid = {
        "corpus": corpus.read_text(encoding="utf-8"),
        "cases": "".join(json.dumps({"question": q, "gold_doc_id": f"d{i}", "source_part": "generic"}) + "\n"
                         for i, q in enumerate(SMALL_TEXTS)),
        "records": records.read_text(),
        "hierarchy": hierarchy_with_root(),
        "session": json.dumps([["water rights", "Cited answer."]]),
        "sidecar": json.dumps({"q1": {"nli": 0.8, "faithfulness": 1}}),
        # JSON is YAML too, so every input is damaged alike
        "config": json.dumps({"seed": 3, "chunking": {"size": 20, "overlap": 5},
                              "chat": {"provider": "stub", "stub_reply": "Cited answer [d0#00000]."}}),
    }
    target = {kind: tmp / f"damaged-{kind}" for kind in valid}
    target["session"] = out / "sessions" / "s1.json"
    target["session"].parent.mkdir(parents=True)
    ask = ["ask", "--graph", tmp / "graph", "--index", tmp / "index.lxvi", "--corpus", corpus,
           "--question", "water rights"]
    args = {
        "corpus": ["ingest", "--input", target["corpus"], "--out", out / "c.jsonl"],
        "cases": ["eval", "retrieval", "--cases", target["cases"], "--corpus", corpus,
                  "--strategy", "chunked"],
        "records": ["eval", "answers", "--records", target["records"]],
        "hierarchy": ["kg", "build", "--corpus", corpus, "--hierarchy", target["hierarchy"]],
        "session": [*ask, "--session", "s1"],
        "sidecar": ["eval", "answers", "--records", records, "--external", target["sidecar"]],
        "config": ["--config", target["config"], "--out", out, *ask],
    }
    return {kind: (valid[kind].encode("utf-8"), target[kind],
                   args[kind] if kind == "config" else ["--out", out, *args[kind]]) for kind in valid}


def value_paths(value, path=()):
    """The path of `value` and of every value nested in it."""
    yield path
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from value_paths(child, (*path, key))


def nest_at(doc, path, depth: int = 2_000) -> str:
    """JSON text of `doc` with the value at `path` wrapped in `depth` arrays."""
    marker = "\0nested\0"
    if path:
        *head, last = path
        parent = doc
        for key in head:
            parent = parent[key]
        inner, parent[last] = parent[last], marker
    else:
        inner, doc = doc, marker
    return json.dumps(doc).replace(json.dumps(marker), "[" * depth + json.dumps(inner) + "]" * depth)


class TestHostileInputs:
    """A damaged input, read through `cli.main`, exits 1 (the config) or 2,
    with one line on stderr and no traceback. A cut at the end of a line,
    a flipped byte inside a text or a \\ud800 escape inside a string that is
    read but never written can leave a valid input, which exits 0; a value
    nested 2,000 deep never does. A config nested that deep takes PyYAML
    about a second to refuse, so the examples are few."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_damaged_input_is_refused_without_traceback(self, hostile, data):
        kind = data.draw(st.sampled_from(sorted(hostile)), label="input")
        raw, target, args = hostile[kind]
        damage = data.draw(st.sampled_from(["truncate", "flip", "surrogate", "nest"]), label="damage")
        if damage == "truncate":
            bad = raw[:data.draw(st.integers(0, len(raw) - 1))]
        elif damage == "flip":
            at = data.draw(st.integers(0, len(raw) - 1))
            bad = raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255))]) + raw[at + 1:]
        elif damage == "surrogate":
            at = data.draw(st.integers(0, len(raw)))
            bad = raw[:at] + b"\\ud800" + raw[at:]
        else:
            lines = raw.decode("utf-8").split("\n")  # JSON Lines end with a newline, JSON files hold none
            i = data.draw(st.integers(0, max(len(lines) - 2, 0)))
            doc = json.loads(lines[i])
            lines[i] = nest_at(doc, data.draw(st.sampled_from(list(value_paths(doc)))))
            bad = "\n".join(lines).encode("utf-8")
        target.write_bytes(bad)
        # a message may quote a lone surrogate, which the interpreter's own
        # stderr writes escaped (errors="backslashreplace")
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            code = run(args)
        err = stderr.getvalue()
        refused = 1 if kind == "config" else 2
        assert code == refused or (code == 0 and damage != "nest"), err
        if code:
            assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
            assert err.startswith("usage error: " if refused == 1 else "data error: ")


class TestStrictStderr:
    """`main` writes its one error line escaped where the stream cannot
    encode it, as a strict UTF-8 stream cannot encode a lone surrogate: a
    config key read from a `\\ud800` escape, or a file name byte that is not
    UTF-8, which the file system's decoding reads as `\\udcff`."""

    @pytest.mark.parametrize("case", ["config-key", "corpus-file-name"])
    def test_message_quoting_a_lone_surrogate_reaches_a_strict_stream(self, tmp_path, case):
        config = tmp_path / "config.yaml"
        config.write_text('hierarchy: {"\\ud800x": 1}\n' if case == "config-key" else "seed: 0\n")
        corpus = tmp_path / ("c.jsonl" if case == "config-key" else "c\udcff.jsonl")
        corpus.write_text('{"id": "d0", "doc_type": "generic", "text": "a"}\n' * 2)
        stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict", write_through=True)
        with contextlib.redirect_stderr(stderr):
            code = run(["--config", config, "ingest", "--input", corpus, "--out", tmp_path / "o.jsonl"])
        err = stderr.buffer.getvalue().decode("utf-8")
        assert (code, err) == {
            "config-key": (1, f"usage error: {config}: unknown config key hierarchy.\\ud800x\n"),
            "corpus-file-name": (2, f"data error: {tmp_path}/c\\udcff.jsonl: "
                                    "duplicate document id 'd0' on lines 1 and 2\n"),
        }[case]


class TestPipeline:
    def test_ingest_normalizes(self, workspace):
        tmp, corpus, config, docs = workspace
        out = tmp / "normalized.jsonl"
        assert run(["--config", config, "ingest", "--input", corpus, "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == len(docs)

    def test_decompose_two_docs_stays_flat(self, tmp_path):
        corpus = tmp_path / "two.jsonl"
        write_corpus(corpus, [
            Document(id="a", doc_type="generic", text="alpha beta alpha gamma beta"),
            Document(id="b", doc_type="generic", text="delta beta epsilon delta gamma"),
        ])
        config = tmp_path / "cfg.yaml"
        config.write_text(yaml.safe_dump({
            "output_dir": str(tmp_path / "out"),
            "hierarchy": {"min_cluster_size": 100, "vocab_min_df": 1,
                          "vocab_max_df_ratio": 1.0},
            "nmfk": {"k_min": 1, "k_max": 2, "n_perturbations": 2,
                     "nmf_max_iters": 50},
        }))
        assert run(["--config", config, "decompose", "--corpus", corpus]) == 0
        payload = json.loads((tmp_path / "out" / "hierarchy.json").read_text())
        for root in payload["roots"]:
            assert root["children"] == []
        assert (tmp_path / "out" / "topic_sizes.csv").exists()
        assert (tmp_path / "out" / "manifest-decompose.json").exists()

    def test_full_pipeline_and_ask_determinism(self, workspace, capsys):
        tmp, corpus, config, docs = workspace
        out = tmp / "out"
        assert run(["--config", config, "decompose", "--corpus", corpus]) == 0
        hierarchy = out / "hierarchy.json"
        assert run(["--config", config, "kg", "build", "--corpus", corpus,
                    "--hierarchy", hierarchy]) == 0
        assert (out / "graph" / "nodes.csv").exists()
        assert run(["--config", config, "index", "--corpus", corpus]) == 0
        capsys.readouterr()

        question = " ".join(docs[0].text.split()[:6])
        args = ["--config", config, "ask", "--graph", out / "graph",
                "--index", out / "index.lxvi", "--corpus", corpus,
                "--question", question]
        assert run(args) == 0
        first = capsys.readouterr().out
        assert run(args) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["text"] == "Cited answer [doc-0-000#00000]."
        assert payload["sources"]

    def test_quantitative_ask_uses_graph(self, workspace, capsys):
        tmp, corpus, config, docs = workspace
        out = tmp / "out"
        run(["--config", config, "decompose", "--corpus", corpus])
        run(["--config", config, "kg", "build", "--corpus", corpus,
             "--hierarchy", out / "hierarchy.json"])
        run(["--config", config, "index", "--corpus", corpus])
        capsys.readouterr()
        word = docs[0].text.split()[0]
        assert run(["--config", config, "ask", "--graph", out / "graph",
                    "--index", out / "index.lxvi", "--corpus", corpus,
                    "--question", f"How many documents mention '{word}'?"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kg_facts"] and payload["scores"] == []
        n = payload["kg_facts"][0][1]
        expected = sum(1 for d in docs if word in d.text)
        assert n == expected

    def test_kg_query_mentions(self, workspace, capsys):
        tmp, corpus, config, docs = workspace
        out = tmp / "out"
        run(["--config", config, "decompose", "--corpus", corpus])
        run(["--config", config, "kg", "build", "--corpus", corpus,
             "--hierarchy", out / "hierarchy.json"])
        capsys.readouterr()
        word = docs[0].text.split()[0]
        assert run(["--config", config, "kg", "query", "--graph", out / "graph",
                    "--corpus", corpus, "--op", "mentions", "--phrase", word,
                    "--kind", "generic_doc"]) == 0
        n = int(capsys.readouterr().out.strip())
        assert n == sum(1 for d in docs if word in d.text)

    def test_eval_retrieval_all_strategies(self, workspace, capsys):
        tmp, corpus, config, docs = workspace
        out = tmp / "out"
        run(["--config", config, "decompose", "--corpus", corpus])
        cases = tmp / "cases.jsonl"
        with cases.open("w") as fh:
            for d in docs[:4]:
                fh.write(json.dumps({
                    "question": " ".join(d.text.split()[:6]),
                    "gold_doc_id": d.id,
                    "source_part": "generic",
                }) + "\n")
        assert run(["--config", config, "eval", "retrieval", "--cases", cases,
                    "--corpus", corpus, "--hierarchy", out / "hierarchy.json",
                    "--strategy", "all"]) == 0
        report = json.loads((out / "retrieval_report.json").read_text())
        assert {s["strategy"] for s in report["strategies"]} == {
            "whole_corpus", "chunked", "topic_routed", "topic_routed_chunked"}

    def test_eval_retrieval_report_does_not_depend_on_the_output_directory(self, workspace, capsys):
        tmp, corpus, config, docs = workspace
        cases = tmp / "cases.jsonl"
        cases.write_text("".join(json.dumps({"question": " ".join(d.text.split()[:6]),
                                             "gold_doc_id": d.id, "source_part": "generic"}) + "\n"
                                 for d in docs[:4]))
        for out in ("first", "second"):
            assert run(["--config", config, "--out", tmp / out, "eval", "retrieval", "--cases", cases,
                        "--corpus", corpus, "--strategy", "whole_corpus"]) == 0
        first = (tmp / "first" / "retrieval_report.json").read_bytes()
        assert (tmp / "second" / "retrieval_report.json").read_bytes() == first
        assert b"config_hash" in first

    def test_retrieval_csv_quotes_part_names(self, tmp_path, capsys):
        write_small_graph(tmp_path)
        parts = ["a,b", 'say "x"']
        cases = tmp_path / "cases.jsonl"
        cases.write_text("".join(json.dumps({"question": text, "gold_doc_id": f"d{i}", "source_part": part}) + "\n"
                                 for i, (text, part) in enumerate(zip(SMALL_TEXTS, parts))))
        assert run(["--out", tmp_path / "out", "eval", "retrieval", "--cases", cases,
                    "--corpus", tmp_path / "corpus.jsonl", "--strategy", "whole_corpus"]) == 0
        with (tmp_path / "out" / "retrieval_report.csv").open(encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["strategy", "part", "mrr", "hit_at_10"]
        assert all(len(row) == 4 for row in rows)
        assert [row[1] for row in rows[1:]] == parts

    def test_kg_build_meta_counts_the_exported_graph(self, tmp_path):
        corpus, hierarchy = tmp_path / "corpus.jsonl", tmp_path / "h.json"
        write_corpus(corpus, [
            Document(id="d0", doc_type="supreme_case", title="One v. Two",
                     text="habeas corpus petition citing Smith v. South, 1955 and NMSA 1978, § 41-5-1"),
            Document(id="d1", doc_type="statute", text="water rights allocation"),
            Document(id="d2", doc_type="appeals_case", text="jury trial citing Smith v. South, 1955"),
        ])
        hierarchy.write_text(hierarchy_with_root(doc_ids=["d0", "d1", "d2"], top_keywords=["habeas", "water"]),
                             encoding="utf-8")
        assert run(["--out", tmp_path / "out", "kg", "build", "--corpus", corpus, "--hierarchy", hierarchy]) == 0
        graph = tmp_path / "out" / "graph"
        meta = json.loads((graph / "meta.json").read_text(encoding="utf-8"))
        with (graph / "nodes.csv").open(encoding="utf-8", newline="") as fh:
            kinds = Counter(row["kind"] for row in csv.DictReader(fh))
        with (graph / "edges.csv").open(encoding="utf-8", newline="") as fh:
            relations = Counter(row["relation"] for row in csv.DictReader(fh))
        assert meta["nodes_by_kind"] == kinds and meta["edges_by_relation"] == relations
        assert {"CITES", "TOPIC_HAS_KEYWORD"} <= relations.keys()
        assert sum(meta["out_edges_by_head_kind"].values()) == sum(relations.values())

    def test_eval_answers(self, workspace, capsys):
        tmp, corpus, config, _ = workspace
        records = tmp / "records.jsonl"
        with records.open("w") as fh:
            fh.write(json.dumps({"question": "q1", "reference": "the statute applies",
                                 "response": "the statute applies",
                                 "attempted": 1, "accuracy": 3}) + "\n")
            fh.write(json.dumps({"question": "q2", "reference": "x",
                                 "response": "I don't have access to that database",
                                 "attempted": 1, "accuracy": 2}) + "\n")
        assert run(["--config", config, "eval", "answers", "--records", records]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["records"] == 2
        assert summary["attempt_rate"] == 0.5

    def test_manifest_reruns_identical(self, workspace):
        tmp, corpus, config, _ = workspace
        out = tmp / "out"
        run(["--config", config, "ingest", "--input", corpus, "--out", tmp / "n.jsonl"])
        first = (out / "manifest-ingest.json").read_bytes()
        run(["--config", config, "ingest", "--input", corpus, "--out", tmp / "n.jsonl"])
        assert (out / "manifest-ingest.json").read_bytes() == first
        manifest = json.loads(first)
        assert {"command", "config_hash", "seed", "versions"} <= manifest.keys()

    @pytest.mark.parametrize("command", [
        "ingest", "decompose", "kg-build", "kg-query", "kg-export",
        "index", "ask", "eval-retrieval", "eval-answers",
    ])
    def test_every_command_writes_its_manifest(self, tmp_path, capsys, command):
        write_small_graph(tmp_path)
        write_small_index(tmp_path)
        corpus, graph, hierarchy = tmp_path / "corpus.jsonl", tmp_path / "graph", tmp_path / "h.json"
        hierarchy.write_text(hierarchy_with_root(), encoding="utf-8")
        (tmp_path / "cases.jsonl").write_text(json.dumps(
            {"question": "water rights", "gold_doc_id": "d0", "source_part": "generic"}) + "\n")
        (tmp_path / "records.jsonl").write_text(json.dumps(
            {"question": "q1", "reference": "r", "response": "r", "attempted": 1, "accuracy": 3}) + "\n")
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump({
            "hierarchy": {"vocab_min_df": 1, "vocab_max_df_ratio": 1.0},
            "nmfk": {"k_min": 1, "k_max": 2, "n_perturbations": 2, "nmf_max_iters": 50},
        }))
        args = {
            "ingest": ["ingest", "--input", corpus, "--out", tmp_path / "normalized.jsonl"],
            "decompose": ["decompose", "--corpus", corpus],
            "kg-build": ["kg", "build", "--corpus", corpus, "--hierarchy", hierarchy],
            "kg-query": ["kg", "query", "--graph", graph, "--corpus", corpus, "--op", "mentions",
                         "--phrase", "water", "--kind", "generic_doc"],
            "kg-export": ["kg", "export", "--graph", graph],
            "index": ["index", "--corpus", corpus],
            "ask": ["ask", "--graph", graph, "--index", tmp_path / "index.lxvi", "--corpus", corpus,
                    "--question", "water rights"],
            "eval-retrieval": ["eval", "retrieval", "--cases", tmp_path / "cases.jsonl",
                               "--corpus", corpus, "--hierarchy", hierarchy],
            "eval-answers": ["eval", "answers", "--records", tmp_path / "records.jsonl"],
        }[command]
        assert run(["--config", config, "--out", tmp_path / "out", *args]) == 0
        manifest = json.loads((tmp_path / "out" / f"manifest-{command}.json").read_text())
        assert manifest["command"] == command


class TestSessions:
    def test_session_persists_across_invocations(self, workspace, capsys):
        tmp, corpus, config, docs = workspace
        out = tmp / "out"
        run(["--config", config, "decompose", "--corpus", corpus])
        run(["--config", config, "kg", "build", "--corpus", corpus,
             "--hierarchy", out / "hierarchy.json"])
        run(["--config", config, "index", "--corpus", corpus])
        capsys.readouterr()
        question = " ".join(docs[0].text.split()[:6])
        base = ["--config", config, "ask", "--graph", out / "graph",
                "--index", out / "index.lxvi", "--corpus", corpus,
                "--session", "chat1"]
        assert run(base + ["--question", question]) == 0
        capsys.readouterr()
        session_file = out / "sessions" / "chat1.json"
        assert session_file.exists()
        turns = json.loads(session_file.read_text())
        assert len(turns) == 1 and turns[0][0] == question
        assert run(base + ["--question", " ".join(docs[1].text.split()[:6])]) == 0
        turns = json.loads(session_file.read_text())
        assert len(turns) == 2


def write_six_documents(path):
    """Six documents of two texts: with the DF floor at 2, six kept tokens and a rank bound of 6."""
    write_corpus(path, [Document(id=f"d{i}", doc_type="generic", text=text)
                        for i, text in enumerate(["water river flood"] * 3 + ["jury trial verdict"] * 3)])


class TestNmfkCommand:
    """`nmfk` is retired: `decompose` under `hierarchy: {max_depth: 0}`
    records the root split's k evidence in `hierarchy.json` (see
    TestSplitEvidence)."""

    def test_nmfk_from_corpus(self, workspace, capsys):
        tmp, corpus, config, _ = workspace
        capsys.readouterr()
        assert run(["--config", config, "nmfk", "--corpus", corpus]) == 1
        assert "No such command 'nmfk'" in capsys.readouterr().err
        assert not (tmp / "out").exists()

    def test_nmfk_needs_exactly_one_source(self, workspace):
        tmp, corpus, config, _ = workspace
        assert run(["--config", config, "nmfk"]) == 1

    def test_nmfk_matrix_is_usage_error(self, workspace):
        tmp, corpus, config, _ = workspace
        assert run(["--config", config, "nmfk", "--matrix", corpus]) == 1
        assert run(["--config", config, "nmfk", "--corpus", corpus, "--matrix", corpus]) == 1

    def test_removed_chunking_unit_key_is_usage_error(self, workspace):
        tmp, corpus, _, _ = workspace
        config = tmp / "unit.yaml"
        for removed in ({"chunking": {"unit": "words"}}, {"corpus": str(corpus)}):
            config.write_text(yaml.safe_dump(removed))
            assert run(["--config", config, "ingest", "--input", corpus,
                        "--out", tmp / "o.jsonl"]) == 1


class TestSplitEvidence:
    """`hierarchy.json` records, for the corpus's split into the roots and for
    every split node, the selected k and NMFk's evaluation of each k probed."""

    def test_root_evidence_is_the_root_split(self, workspace):
        tmp, corpus, config, docs = workspace
        settings = yaml.safe_load(config.read_text())
        settings["hierarchy"]["max_depth"] = 0
        config.write_text(yaml.safe_dump(settings))
        assert run(["--config", config, "decompose", "--corpus", corpus]) == 0
        payload = json.loads((tmp / "out" / "hierarchy.json").read_text())
        root, _ = split_node(count_tokens(docs), "root", load_config(config).hierarchy_config())
        assert payload["selected_k"] == root.selected_k
        assert payload["evaluations"] == [asdict(ev) for ev in root.evaluations]

    def test_every_split_records_its_evidence(self, workspace):
        tmp, corpus, config, docs = workspace
        assert run(["--config", config, "decompose", "--corpus", corpus]) == 0
        payload = json.loads((tmp / "out" / "hierarchy.json").read_text())
        counts = count_tokens(docs)
        row = {doc_id: i for i, doc_id in enumerate(counts.doc_ids)}
        splits, stack = [], list(payload["roots"])
        while stack:
            node = stack.pop()
            stack.extend(node["children"])
            if node["children"]:
                splits.append(node)
            else:
                assert (node["selected_k"], node["evaluations"]) == (0, [])
        assert splits, "the workspace corpus splits below the roots"
        hcfg = load_config(config).hierarchy_config()
        for node in splits:
            result, _ = split_node(counts.rows([row[d] for d in node["doc_ids"]]), node["id"], hcfg)
            assert node["selected_k"] == result.selected_k
            assert node["evaluations"] == [asdict(ev) for ev in result.evaluations]
            assert [ev["k"] for ev in node["evaluations"]] == sorted({ev["k"] for ev in node["evaluations"]})

    @pytest.mark.parametrize("kmin, allowed", [(3, {3, 4, 5, 6}), (8, {6})])
    def test_root_k_range_is_cut_to_the_rank_bound(self, tmp_path, kmin, allowed):
        corpus, config = tmp_path / "six.jsonl", tmp_path / "k.yaml"
        write_six_documents(corpus)
        config.write_text(yaml.safe_dump({"hierarchy": {"max_depth": 0}, "nmfk": {"k_min": kmin, "k_max": 9}}))
        assert run(["--config", config, "--out", tmp_path / "out", "decompose", "--corpus", corpus]) == 0
        probed = {ev["k"] for ev in json.loads((tmp_path / "out" / "hierarchy.json").read_text())["evaluations"]}
        assert probed and probed <= allowed

    def test_small_corpus_keeps_a_vocabulary(self, tmp_path):
        # the DF floor shrinks to 2 as at every node, not to min(5, 6)
        corpus, config = tmp_path / "six.jsonl", tmp_path / "k.yaml"
        write_six_documents(corpus)
        config.write_text(yaml.safe_dump({"hierarchy": {"max_depth": 0}, "nmfk": {"k_max": 2}}))
        assert run(["--config", config, "--out", tmp_path / "out", "decompose", "--corpus", corpus]) == 0
        assert json.loads((tmp_path / "out" / "hierarchy.json").read_text())["selected_k"] >= 1


def test_readme_walkthrough_names_only_real_options():
    section = README.read_text(encoding="utf-8").split("## CLI walkthrough", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    assert lines
    for line in lines:
        words = shlex.split(line)
        assert words[0] == "lexigraph", line
        command = cli
        for word in words[1:]:
            if isinstance(command, click.Group) and word in command.commands:
                command = command.commands[word]
            elif word.startswith("-"):
                options = {opt for param in command.params for opt in param.opts}
                assert word in options, f"{line}: {command.name} has no option {word}"
        assert not isinstance(command, click.Group), line
