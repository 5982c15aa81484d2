"""Self-test of the benchmark: every oracle accepts the program's real outputs
and rejects a deliberately corrupted copy of them.

    python3 perfbench/selftest.py

It builds small artifacts with the program (the `eval` corpus of seed 0 and
the lighter NMFk settings), answers one pass of questions, runs the
retrieval evaluation, then checks each output twice: as produced, where the
oracle must pass (or fail only on the two known faults), and corrupted, where
it must fail. It also checks that `BENCHMARK.json` lists the metrics of
`metrics.py` and that `run.py` exits non-zero without printing a result when
the program's sources are absent. Exits 1 on the first disagreement.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import metrics  # noqa: E402
import oracles as O  # noqa: E402
import pipeline  # noqa: E402
from check import reload  # noqa: E402

FAILURES: list[str] = []


def expect(name: str, reason: str | None, should_fail: bool) -> None:
    ok = (reason is not None) == should_fail
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {reason or 'passes'}")
    if not ok:
        FAILURES.append(name)


def main() -> int:
    work = HERE / ".work" / f"selftest-{os.getpid()}"
    try:
        run(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} disagreements" if FAILURES else "all oracles agree")
    return 1 if FAILURES else 0


def run(work: Path) -> None:
    L = pipeline.import_program()
    inputs, art = work / "inputs", work / "art"
    gen.write("eval", 0, inputs)
    art.mkdir(parents=True)
    truth = json.loads((inputs / "truth.json").read_text())
    corpus = [json.loads(line) for line in (inputs / "corpus.jsonl").open()]
    by_id = {r["id"]: r for r in corpus}
    questions = json.loads((inputs / "questions.json").read_text())[0]
    provider = L.embeddings.DeterministicEmbedder()
    docs = L.corpus.ingest_jsonl(inputs / "corpus.jsonl")
    pipeline.build_artifacts(L, docs, pipeline.light_hierarchy_config(L, truth["topics"]), art, provider)
    emb = O.Embedder()

    # --- build oracles ---
    hierarchy = O.read_hierarchy(art / "hierarchy.json")
    expect("partition", O.check_partition(hierarchy, truth), False)
    bad = copy.deepcopy(hierarchy)
    O.leaves(bad)[0]["doc_ids"].append(O.leaves(bad)[1]["doc_ids"][0])
    expect("partition rejects a document in two leaves", O.check_partition(bad, truth), True)
    bad = copy.deepcopy(hierarchy)
    O.leaves(bad)[0]["doc_ids"].pop()
    expect("partition rejects a lost document", O.check_partition(bad, truth), True)

    expect("root split on the light k=topics build", O.check_root_split(hierarchy, truth), False)
    bad = copy.deepcopy(hierarchy)
    bad["roots"] = bad["roots"][:1]
    expect("root split rejects one root", O.check_root_split(bad, truth), True)

    edges = O.read_edges(art / "graph", "CITES")
    expect("cites", O.check_cites(edges, truth), False)
    expect("cites rejects a lost edge", O.check_cites(set(list(edges)[1:]), truth), True)
    doc = next(iter(truth["docs"]))
    expect("cites rejects an unplanted edge", O.check_cites(edges | {(doc, "cite:NMSA 99-9-9")}, truth), True)

    files = sorted((art / "index").glob("*.lxvi"))

    good = [reload(L, p) for p in files]
    expect("indexes", O.check_indexes(good, hierarchy, by_id, emb), False)
    flipped = work / "flipped"
    shutil.copytree(art / "index", flipped)
    target = sorted(flipped.glob("*.lxvi"))[0]
    data = bytearray(target.read_bytes())
    data[-3] ^= 0x40  # one bit of the last vector
    target.write_bytes(bytes(data))
    expect("indexes reject a flipped vector bit",
           O.check_indexes([reload(L, p) for p in sorted(flipped.glob("*.lxvi"))], hierarchy, by_id, emb), True)
    topic, ids, vecs = good[0]
    expect("indexes reject a reload in another order",
           O.check_indexes([(topic, ids[::-1], vecs)] + good[1:], hierarchy, by_id, emb), True)
    expect("indexes reject a missing leaf index", O.check_indexes(good[1:], hierarchy, by_id, emb), True)

    # --- ask oracles ---
    loaded = pipeline.load_for_ask(L, art, inputs / "corpus.jsonl")
    chat = L.chat.StubChatClient("The cited sources answer this question.")
    session = L.rag.Session(id="selftest")
    routed = O.RoutedIndexes(hierarchy, by_id, emb)
    seen = set()
    for q in questions:
        res = pipeline.ask_one(L, q, session, loaded, provider, chat)
        out = {"routed": res.routed_topic, "sources": [list(s) for s in res.sources],
               "refused": res.refused, "facts": [[k, v] for k, v in res.kg_facts], "text": res.text}
        kind = "possessive" if q.get("possessive") else q["mode"]
        if kind == "semantic" and out["refused"]:
            kind = "semantic-refused"
        if kind in seen:
            continue
        seen.add(kind)
        reason = O.check_answer(out, q, truth, routed, emb)
        expect(f"{kind} answer as produced", reason, kind == "possessive")
        for label, corrupt in corruptions(kind, out):
            expect(f"{kind} answer rejects {label}", O.check_answer(corrupt, q, truth, routed, emb), True)
    missing = {"semantic", "quantitative", "citation", "refusal", "possessive"} - seen
    if missing:
        FAILURES.append(f"no question of kind {sorted(missing)}")

    # --- eval oracles ---
    cases = [json.loads(line) for line in (inputs / "cases.jsonl").open()][:60]
    (work / "cases.jsonl").write_text("".join(json.dumps(c) + "\n" for c in cases))
    eval_loaded = pipeline.load_for_eval(L, inputs / "corpus.jsonl", art / "hierarchy.json",
                                         work / "cases.jsonl")
    oracle = O.EvalOracle(corpus, hierarchy, cases, emb)
    parts = [c["source_part"] for c in cases]
    for report in pipeline.run_eval(L, eval_loaded, provider, L.evaluation.STRATEGIES):
        queues = {p: list(r) for p, r in report.ranks.items()}
        ranks = [queues[p].pop(0) for p in parts]
        want = oracle.ranks(report.strategy)
        expect(f"{report.strategy} ranks", O.check_eval_ranks(ranks, want), False)
        expect(f"{report.strategy} MRR", O.check_mrr(report.mrr_per_part, parts,
                                                       O.agreed_ranks(ranks, want)), False)
        shifted = [r + 1 if r is not None else 1 for r in ranks]
        expect(f"{report.strategy} ranks reject a rank one too low", O.check_eval_ranks(shifted, want), True)
        wrong = dict(report.mrr_per_part)
        wrong[parts[0]] += 0.01
        expect(f"{report.strategy} MRR rejects a wrong mean", O.check_mrr(wrong, parts, O.agreed_ranks(ranks, want)), True)

    # --- BENCHMARK.json, and the exit without the program ---
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expect("BENCHMARK.json matches metrics.py",
           None if bench == metrics.benchmark_json() else "differs", False)
    bare = work / "bare"
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ask", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True,
                          text=True, timeout=60)
    expect("run.py refuses to run without the program",
           None if proc.returncode != 0 and not proc.stdout.strip() else "ran", False)


def corruptions(kind: str, out: dict) -> list[tuple[str, dict]]:
    def edit(fn):
        c = copy.deepcopy(out)
        fn(c)
        return c

    if kind == "semantic":
        return [
            ("another routed topic", edit(lambda c: c.update(routed=c["routed"] + "x"))),
            ("reversed sources", edit(lambda c: c["sources"].reverse())) if len(out["sources"]) > 1
            else ("a duplicated source", edit(lambda c: c["sources"].append(c["sources"][0]))),
            ("a dropped source", edit(lambda c: c["sources"].pop())),
            ("a refusal", edit(lambda c: c.update(refused=True, sources=[]))),
        ]
    if kind in ("refusal", "semantic-refused"):
        return [("an answer with a source", edit(lambda c: c.update(refused=False, sources=[["x", "words:0-1"]])))]
    if kind == "quantitative":
        def bump(c):
            for f in c["facts"]:
                if f[0] == "count_mentions.count":
                    f[1] += 1
        return [("a count one too high", edit(bump))]
    if kind == "citation":
        def bump(c):
            counts = [f for f in c["facts"] if f[0] == "common_citations[0].count"]
            if counts:
                counts[0][1] += 1
            else:
                c["facts"] += [["common_citations[0].key", "NMSA 1-1-1"], ["common_citations[0].count", 1]]
        return [("a tally one too high", edit(bump))]
    return []


if __name__ == "__main__":
    sys.exit(main())
