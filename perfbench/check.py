"""Verify one run's outputs against the oracles, in a process of its own.

Every check of a main round is one attempted operation. Side work is
checked too, but only decides `correct`: its size is fixed while the number
of main rounds depends on the machine, so counting it would change the
share of failed operations from run to run.

Two program faults fail on every run and are counted, not hidden:

- `root_split`: NMFk does not recover the planted topic count at the root.
- `possessive`: in "How many of the state's ... mention 'x'?" the apostrophe
  of "state's" opens the quoted phrase, so the wrong phrase is counted.

Any other failure makes the run incorrect.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import oracles as O
import pipeline


def reload(L, path: Path) -> tuple[str, list[str], "O.np.ndarray"]:
    """An index file as the program reloads it: topic id, chunk ids, vectors."""
    index = L.vectorstore.VectorIndex.load(path)
    return (index.topic_id, [c.chunk_id for c, _ in index.entries],
            O.np.array([v for _, v in index.entries]))


class Checker:
    def __init__(self, inputs: Path):
        self.truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
        self.question_sets = json.loads((inputs / "questions.json").read_text(encoding="utf-8"))
        self.corpus = [json.loads(line) for line in (inputs / "corpus.jsonl").open(encoding="utf-8")]
        self.by_id = {r["id"]: r for r in self.corpus}
        self.cases = [json.loads(line) for line in (inputs / "cases.jsonl").open(encoding="utf-8")]
        self.embedder = O.Embedder()
        self.attempted = self.failed = 0
        self.faults: dict[str, int] = {}
        self.unexpected: list[str] = []
        self.failed_questions: set[tuple[int, int]] = set()  # (question set, index)
        self.refusal_probes = [0, 0]  # refused, asked
        self._memo: dict = {}
        self._routed: dict[str, O.RoutedIndexes] = {}
        self._eval: dict[str, O.EvalOracle] = {}

    def tally(self, counted: bool, reason: str | None, fault: str | None = None) -> None:
        if counted:
            self.attempted += 1
            self.failed += reason is not None
        if reason is None:
            return
        if fault is not None:
            self.faults[fault] = self.faults.get(fault, 0) + 1
        else:
            self.unexpected.append(reason)

    # --- build ----------------------------------------------------------------------

    def build_round(self, art: Path, counted: bool) -> None:
        L = pipeline.import_program()
        hierarchy = O.read_hierarchy(art / "hierarchy.json")
        self.tally(counted, O.check_partition(hierarchy, self.truth))
        self.tally(counted, O.check_cites(O.read_edges(art / "graph", "CITES"), self.truth))
        reloaded = [reload(L, path) for path in sorted((art / "index").glob("*.lxvi"))]
        self.tally(counted, O.check_indexes(reloaded, hierarchy, self.by_id, self.embedder))
        self.tally(counted, O.check_root_split(hierarchy, self.truth), fault="root_split")

    # --- ask -------------------------------------------------------------------------

    def routed(self, art: Path) -> O.RoutedIndexes:
        if str(art) not in self._routed:
            hierarchy = O.read_hierarchy(art / "hierarchy.json")
            self._routed[str(art)] = O.RoutedIndexes(hierarchy, self.by_id, self.embedder)
        return self._routed[str(art)]

    def ask_round(self, rec: dict, art: Path, counted: bool) -> None:
        routed = self.routed(art)
        qset = rec["set"]
        for i, (q, out) in enumerate(zip(self.question_sets[qset], rec["outputs"])):
            key = (str(art), qset, i, json.dumps(out, sort_keys=True))
            if key not in self._memo:
                self._memo[key] = O.check_answer(out, q, self.truth, routed, self.embedder)
                if q["mode"] == "refusal":
                    self.refusal_probes[0] += O.check_refused(out) is None
                    self.refusal_probes[1] += 1
            reason = self._memo[key]
            fault = "possessive" if q.get("possessive") else None
            if reason is not None:
                self.failed_questions.add((qset, i))
            self.tally(counted, reason, fault)

    # --- eval -------------------------------------------------------------------------

    def eval_round(self, rec: dict, hierarchy_path: Path, counted: bool) -> list:
        """Check every strategy's report; return the program's ranks, pooled."""
        key = str(hierarchy_path)
        if key not in self._eval:
            self._eval[key] = O.EvalOracle(self.corpus, O.read_hierarchy(hierarchy_path),
                                           self.cases, self.embedder)
        oracle = self._eval[key]
        parts = [c["source_part"] for c in self.cases]
        pooled = []
        for report in rec["reports"]:
            # the program groups ranks by corpus part, each in case order
            queues = {p: list(r) for p, r in report["ranks"].items()}
            ranks = [queues[p].pop(0) if queues.get(p) else None for p in parts]
            want = oracle.ranks(report["strategy"])
            self.tally(counted, O.check_eval_ranks(ranks, want))
            agreed = O.agreed_ranks(ranks, want)
            self.tally(counted, O.check_mrr(report["mrr"], parts, agreed))
            pooled.extend(ranks)
        return pooled


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--work", required=True)
    args = ap.parse_args()
    inputs, work = Path(args.inputs), Path(args.work)
    # the artifacts the workload reports on: the last build of `build`, the
    # prepared ones of `ask` and `eval`
    art = Path(json.loads((work / "measure.json").read_text(encoding="utf-8"))["artifacts"])
    ck = Checker(inputs)
    pooled: dict[tuple, list] = {}
    with (work / "outputs.jsonl").open(encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            counted = rec["phase"] == "main"
            if rec["kind"] == "build":
                ck.build_round(Path(rec["dir"]), counted)
            elif rec["kind"] == "ask":
                ck.ask_round(rec, Path(rec["art"]), counted)
            else:
                ranks = ck.eval_round(rec, Path(rec["art"]) / "hierarchy.json", counted)
                pooled.setdefault((rec["phase"], rec["round"]), []).extend(ranks)
    # MRR over every case of every strategy of the first complete evaluation
    result = {"eval_mrr": O.mrr(pooled[min(pooled)])}
    result["topic_purity"] = O.topic_purity(O.read_hierarchy(art / "hierarchy.json"), ck.truth)
    result["index_mb"] = sum(p.stat().st_size for p in (art / "index").glob("*.lxvi")) / 1e6
    result.update(attempted=ck.attempted, failed=ck.failed, correct=not ck.unexpected,
                  faults=ck.faults, unexpected=ck.unexpected[:10],
                  failed_questions=sorted(ck.failed_questions),
                  refusal_probes=ck.refusal_probes)
    (work / "check.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
