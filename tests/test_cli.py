import json

import pytest
import yaml

from lexigraph.cli import main
from lexigraph.corpus import Document

from conftest import synthetic_docs


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
                "--index", out / "index", "--corpus", corpus,
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
                    "--index", out / "index", "--corpus", corpus,
                    "--question", f"How many documents mention '{word}'?"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kg_facts"]
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
                "--index", out / "index", "--corpus", corpus,
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


class TestNmfkCommand:
    def test_nmfk_from_corpus(self, workspace, capsys):
        tmp, corpus, config, _ = workspace
        assert run(["--config", config, "nmfk", "--corpus", corpus,
                    "--kmin", "1", "--kmax", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["selected_k"] >= 1
        assert (tmp / "out" / "nmfk.json").exists()

    def test_nmfk_needs_exactly_one_source(self, workspace):
        tmp, corpus, config, _ = workspace
        assert run(["--config", config, "nmfk"]) == 1

    def test_nmfk_matrix_not_npz_is_data_error(self, tmp_path, capsys):
        text = tmp_path / "matrix.txt"
        text.write_text("not a matrix\n", encoding="utf-8")
        assert run(["nmfk", "--matrix", text]) == 2
        assert str(text) in capsys.readouterr().err

    def test_removed_chunking_unit_key_is_usage_error(self, workspace):
        tmp, corpus, _, _ = workspace
        config = tmp / "unit.yaml"
        config.write_text(yaml.safe_dump({"chunking": {"unit": "words"}}))
        assert run(["--config", config, "ingest", "--input", corpus,
                    "--out", tmp / "o.jsonl"]) == 1
