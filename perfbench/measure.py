"""The measured process of one run.

It runs whole rounds of the workload's own operation until they have taken
`--seconds` (the round that crosses the mark finishes), and at least two.
Between rounds it runs, on a schedule spread over the same rounds, the
workload's side items: the repeated set-ups that give `setup_s`, a fixed
share of the other two kinds of work on the same corpus (24 passes of the
question mix, or the four strategies of one retrieval evaluation), and for
`ask` and `eval` two builds of their artifacts, each in a child process
(`prepare.py --rebuild`) that this one waits for, so the build does not
count in this process's peak memory.
Spreading them over the run lets every figure sample the same stretch of
time, so a slow patch of the machine moves all of them a little instead of
one of them a lot. Side items left after the last round run then.

Timings go to `measure.json`; the program's outputs go to `outputs.jsonl`
(and, for `build`, to one artifact directory per round) for `check.py`.

With `--trace 1` the tracer is installed on every other set-up, main round
and side question pass, and on every side evaluation strategy; the untraced
rounds give the overhead.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import pipeline
from tracing import Tracer

SETUPS = {"build": 31, "ask": 7, "eval": 31}
MIN_ROUNDS = 2  # a build round can outlast the seconds; a median needs two
# passes of the question mix in the side share; semantic_p99_ms is the median
# over passes of each pass's p99, so a slow spell of a few passes does not set it
SIDE_ASK_PASSES = {"build": 24, "eval": 24}
SIDE_BUILDS = 2  # `ask` and `eval`: with the prepared build, three build times


class Run:
    def __init__(self, args):
        self.workload = args.workload
        self.inputs, self.prep, self.work = Path(args.inputs), Path(args.prep), Path(args.work)
        self.seconds = args.seconds
        self.L = pipeline.import_program()
        self.provider = self.L.embeddings.DeterministicEmbedder()
        self.question_sets = json.loads((self.inputs / "questions.json").read_text(encoding="utf-8"))
        self.tracer = Tracer(self.L) if args.trace else None
        self.out = (self.work / "outputs.jsonl").open("w", encoding="utf-8")
        self.record = {"setup_s": [], "setup_traced": [], "round_s": [], "round_traced": [],
                       "semantic_medians": [], "cache": [0, 0], "refusals": 0, "passes": 0,
                       "eval_cases": 0, "side_eval_s": [], "side_build_s": [],
                       "artifacts": str(self.prep)}
        self._side_loaded: dict[str, tuple[Path, dict]] = {}

    # --- helpers -----------------------------------------------------------------

    def _trace(self, on: bool, phase: str) -> bool:
        if self.tracer is None:
            return False
        if on and not self.tracer.active:
            self.tracer.install()
        elif not on and self.tracer.active:
            self.tracer.uninstall()
        self.tracer.phase = phase
        return on

    def _cache_info(self):
        info = getattr(getattr(self.L.embeddings, "_token_vector", None), "cache_info", None)
        return info() if info else None

    def _span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def _emit(self, rec: dict) -> None:
        self.out.write(json.dumps(rec) + "\n")

    # --- set-up ----------------------------------------------------------------------

    def setup(self, i: int):
        traced = self._trace(i % 2 == 1, "setup")
        L, inp = self.L, self.inputs
        t = time.perf_counter()
        if self.workload == "build":
            loaded = L.corpus.ingest_jsonl(inp / "corpus.jsonl")
        elif self.workload == "ask":
            loaded = pipeline.load_for_ask(L, self.prep, inp / "corpus.jsonl")
        else:
            loaded = pipeline.load_for_eval(L, inp / "corpus.jsonl", self.prep / "hierarchy.json",
                                            inp / "cases.jsonl")
        self.record["setup_s"].append(time.perf_counter() - t)
        self.record["setup_traced"].append(traced)
        return loaded

    # --- the workload's own rounds ---------------------------------------------------

    def round_build(self, docs, i: int) -> float:
        out_dir = self.work / "rounds" / f"r{i:03d}"
        out_dir.mkdir(parents=True)
        hcfg = pipeline.build_hierarchy_config(self.L)
        t = time.perf_counter()
        pipeline.build_artifacts(self.L, docs, hcfg, out_dir, self.provider)
        elapsed = time.perf_counter() - t
        self.record["artifacts"] = str(out_dir)
        self._emit({"phase": "main", "kind": "build", "round": i, "dir": str(out_dir)})
        return elapsed

    def ask_pass(self, loaded, i: int, traced: bool, phase: str, art: Path) -> float:
        chat = self.L.chat.StubChatClient("The cited sources answer this question.")
        session = self.L.rag.Session(id=f"{phase}-{i}")
        qset = i % len(self.question_sets)
        questions = self.question_sets[qset]
        lat, outs = [], []
        t0 = time.perf_counter()
        for q in questions:
            with self._span(f"rag.{q['mode']}"):
                t = time.perf_counter()
                res = pipeline.ask_one(self.L, q, session, loaded, self.provider, chat)
                lat.append((time.perf_counter() - t) * 1000.0)
            outs.append({"routed": res.routed_topic, "sources": [list(s) for s in res.sources],
                         "refused": res.refused, "facts": [[k, v] for k, v in res.kg_facts],
                         "text": res.text})
        elapsed = time.perf_counter() - t0
        if phase == "main":
            sem = [ms for ms, q in zip(lat, questions) if q["mode"] == "semantic"]
            self.record["semantic_medians"].append([traced, statistics.median(sem)])
        if traced:
            self.record["refusals"] += sum(o["refused"] for o in outs)
            self.record["passes"] += 1
        self._emit({"phase": phase, "kind": "ask", "round": i, "set": qset, "traced": traced,
                    "art": str(art), "latency_ms": lat, "outputs": outs})
        return elapsed

    def eval_strategies(self, loaded, strategies, i: int, phase: str, art: Path) -> float:
        self.record["eval_cases"] = len(loaded["cases"])
        t = time.perf_counter()
        reports = pipeline.run_eval(self.L, loaded, self.provider, strategies)
        elapsed = time.perf_counter() - t
        self._emit({"phase": phase, "kind": "eval", "round": i, "seconds": elapsed, "art": str(art),
                    "reports": [{"strategy": r.strategy, "ranks": r.ranks, "mrr": r.mrr_per_part}
                                for r in reports]})
        return elapsed

    def main_round(self, loaded, i: int, traced: bool) -> float:
        if self.workload == "build":
            return self.round_build(loaded, i)
        if self.workload == "ask":
            return self.ask_pass(loaded, i, traced, "main", self.prep)
        return self.eval_strategies(loaded, self.L.evaluation.STRATEGIES, i, "main", self.prep)

    # --- side items ------------------------------------------------------------------

    def _side(self, kind: str) -> tuple[Path, dict]:
        """Artifacts for side work, loaded once: the first build round's for
        `build`, the prepared ones otherwise."""
        if kind not in self._side_loaded:
            art = Path(self.record["artifacts"])
            inp = self.inputs
            if kind == "ask":
                loaded = pipeline.load_for_ask(self.L, art, inp / "corpus.jsonl")
            else:
                loaded = pipeline.load_for_eval(self.L, inp / "corpus.jsonl",
                                                art / "hierarchy.json", inp / "cases.jsonl")
            self._side_loaded[kind] = (art, loaded)
        return self._side_loaded[kind]

    def side_build(self, j: int) -> None:
        """Build this workload's artifacts again in a child process; keep its time."""
        cmd = [sys.executable, str(Path(__file__).resolve().parent / "prepare.py"),
               "--workload", self.workload, "--inputs", str(self.inputs),
               "--prep", str(self.work / "rebuild" / f"b{j}"), "--rebuild"]
        out = subprocess.run(cmd, check=True, timeout=120, capture_output=True, text=True).stdout
        self.record["side_build_s"].append(json.loads(out.splitlines()[-1])["build_s"])

    def side_items(self) -> list:
        """Every side item with its place in the run, as a share of the seconds."""
        items = []

        def spread(n, make):
            items.extend(((j + 0.5) / n, make(j)) for j in range(n))

        spread(SETUPS[self.workload] - 1, lambda j: lambda: self.setup(j + 1))
        if self.workload != "ask":
            def ask_item(j):
                def run():
                    art, loaded = self._side("ask")
                    traced = self._trace(j % 2 == 1, "side")
                    self.ask_pass(loaded, j, traced, "side", art)
                return run
            spread(SIDE_ASK_PASSES[self.workload], ask_item)
        if self.workload != "eval":
            strategies = self.L.evaluation.STRATEGIES

            def eval_item(j):
                def run():
                    art, loaded = self._side("eval")
                    self._trace(True, "side")  # each strategy runs once: trace all
                    self.record["side_eval_s"].append(
                        self.eval_strategies(loaded, strategies[j:j + 1], 0, "side", art))
                return run
            spread(len(strategies), eval_item)
        if self.workload != "build":
            spread(SIDE_BUILDS, lambda j: lambda: self.side_build(j))
        items.sort(key=lambda item: item[0])
        return items

    # --- the run ---------------------------------------------------------------------

    def run(self) -> None:
        loaded = self.setup(0)
        items = self.side_items()
        spent, i, done = 0.0, 0, 0
        while True:
            traced = self._trace(i % 2 == 1, "main")
            before = self._cache_info() if traced else None
            elapsed = self.main_round(loaded, i, traced)
            if before is not None:
                after = self._cache_info()
                self.record["cache"][0] += after.hits - before.hits
                self.record["cache"][1] += after.misses - before.misses
            self.record["round_s"].append(elapsed)
            self.record["round_traced"].append(traced)
            spent += elapsed
            i += 1
            while done < len(items) and items[done][0] <= spent / self.seconds:
                items[done][1]()
                done += 1
            if spent >= self.seconds and i >= MIN_ROUNDS:
                break
        for _, item in items[done:]:
            item()
        self._trace(False, "main")
        self.out.close()
        self.record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        if self.tracer:
            self.record["table_all"] = self.tracer.table()
            self.record["table_main"] = self.tracer.table("main")
            gc_main = [e for e in self.tracer.gc_events if e[2] == "main"]
            self.record["gc_main"] = [len(gc_main), sum(e[1] - e[0] for e in gc_main)]
            self.tracer.write(self.work / "trace.json")
        (self.work / "measure.json").write_text(json.dumps(self.record), encoding="utf-8")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUPS))
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--prep", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    Run(ap.parse_args()).run()


if __name__ == "__main__":
    main()
