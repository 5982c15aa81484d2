"""Benchmark entry point.

    python3 perfbench/run.py --workload build|ask|eval --seed N --seconds S --trace 0|1

Runs from the root of a checkout of the repository. One run makes three
processes, one after the other, each with a single BLAS thread:

1. `prepare.py` writes the seeded inputs and, for `ask` and `eval`, builds the
   artifacts they load;
2. `measure.py` is the measured process (its peak RSS is `peak_rss_mb`);
3. `check.py` verifies every output against the oracles.

The last line of standard output is one JSON object: with `--trace 0` it holds
every end-to-end metric, with `--trace 1` every per-layer metric. A traced run
also prints its span table and the traced against the untraced figures
before that line, and keeps its spans in `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import metrics  # noqa: E402
import pipeline  # noqa: E402

# one BLAS thread per process: two threads made decomposition slower and noisier
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _run(script: str, *args: str, timeout: float) -> None:
    cmd = [sys.executable, str(HERE / script), *args]
    env = dict(os.environ, **THREAD_ENV)
    subprocess.run(cmd, env=env, check=True, timeout=timeout, stdout=sys.stderr)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ask_latencies(work: Path, question_sets: list[list[dict]], skip: set[tuple[int, int]],
                   traced: bool | None) -> dict[str, list[list[float]]]:
    """Latencies by question mode, one list per pass of the question mix;
    answers that failed a check are left out."""
    out: dict[str, list[list[float]]] = {"semantic": [], "graph": []}
    with (work / "outputs.jsonl").open(encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            if rec["kind"] != "ask":
                continue
            if traced is not None and rec["traced"] != traced:
                continue
            out["semantic"].append([])
            out["graph"].append([])
            for i, (ms, q) in enumerate(zip(rec["latency_ms"], question_sets[rec["set"]])):
                if (rec["set"], i) in skip:
                    continue
                if q["mode"] == "semantic":
                    out["semantic"][-1].append(ms)
                elif q["mode"] in ("quantitative", "citation"):
                    out["graph"][-1].append(ms)
    return out


def end_to_end(workload: str, work: Path, inputs: Path, prep: Path,
               traced: bool | None = None) -> dict[str, float]:
    """Every end-to-end figure of a run; `traced` picks traced or untraced
    set-ups and rounds (None takes all)."""
    m = json.loads((work / "measure.json").read_text(encoding="utf-8"))
    c = json.loads((work / "check.json").read_text(encoding="utf-8"))
    p = json.loads((prep / "prep.json").read_text(encoding="utf-8"))
    question_sets = json.loads((inputs / "questions.json").read_text(encoding="utf-8"))

    def pick(values, flags):
        return [v for v, f in zip(values, flags) if traced is None or f == traced]

    rounds = pick(m["round_s"], m["round_traced"]) or m["round_s"]
    lat = _ask_latencies(work, question_sets, {tuple(f) for f in c["failed_questions"]}, traced)
    semantic = [ms for one in lat["semantic"] for ms in one]
    graph = [ms for one in lat["graph"] for ms in one]
    return {
        "setup_s": statistics.median(pick(m["setup_s"], m["setup_traced"])),
        "peak_rss_mb": m["peak_rss_mb"],
        "build_s": (statistics.median(rounds) if workload == "build"
                    else statistics.median([p["build_s"], *m["side_build_s"]])),
        "index_mb": c["index_mb"],
        "topic_purity": c["topic_purity"],
        "semantic_p50_ms": statistics.median(semantic),
        # p99 of each pass of the mix, median over the passes: the tail the
        # program gives a pass, which a slow spell of the host in a few passes
        # of the run does not move
        "semantic_p99_ms": statistics.median(percentile(one, 0.99) for one in lat["semantic"]),
        "graph_p50_ms": statistics.median(graph),
        "eval_s": statistics.median(rounds) if workload == "eval" else sum(m["side_eval_s"]),
        "eval_mrr": c["eval_mrr"],
    }


def trace_report(workload: str, work: Path, inputs: Path, prep: Path) -> dict[str, float]:
    """Print the span table and the tracing overhead; return the per-layer figures."""
    record = json.loads((work / "measure.json").read_text(encoding="utf-8"))
    values, table = layers.per_layer(workload, record, Path(record["artifacts"]))
    print(f"{'span':40s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s} {'count':>12s}")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"{name:40s} {row['calls']:8d} {row['total_s']:10.4f} {row['self_s']:10.4f} {row['count']:12d}")
    on = end_to_end(workload, work, inputs, prep, traced=True)
    off = end_to_end(workload, work, inputs, prep, traced=False)
    print(f"{'end-to-end':20s} {'traced':>12s} {'untraced':>12s} {'overhead':>12s}")
    for name, unit, _, _ in metrics.END_TO_END:
        print(f"{name:20s} {on[name]:12.5f} {off[name]:12.5f} {on[name] - off[name]:+12.5f} {unit}")
    return values


def main() -> int:
    ap = argparse.ArgumentParser(description="lexigraph benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(metrics.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not pipeline.program_present():
        print(f"no lexigraph sources under {pipeline.SRC}; run from a checkout", file=sys.stderr)
        return 2

    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work_root = HERE / ".work" / f"{tag}-{os.getpid()}"
    inputs, prep, work = work_root / "inputs", work_root / "prep", work_root / "measure"
    for d in (inputs, prep, work):
        d.mkdir(parents=True)
    try:
        _run("prepare.py", "--workload", args.workload, "--seed", str(args.seed),
             "--inputs", str(inputs), "--prep", str(prep), timeout=120)
        _run("measure.py", "--workload", args.workload, "--inputs", str(inputs),
             "--prep", str(prep), "--work", str(work), "--seconds", str(args.seconds),
             "--trace", str(args.trace), timeout=args.seconds + 120)
        _run("check.py", "--inputs", str(inputs), "--work", str(work), timeout=120)
        check = json.loads((work / "check.json").read_text(encoding="utf-8"))
        if args.trace:
            values = trace_report(args.workload, work, inputs, prep)
            units = {n: u for n, u, _ in metrics.PER_LAYER}
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            shutil.copy(work / "trace.json", out_dir / f"trace-{tag}.json")
        else:
            values = end_to_end(args.workload, work, inputs, prep)
            units = {n: u for n, u, _, _ in metrics.END_TO_END}
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    for fault, n in sorted(check["faults"].items()):
        print(f"known fault {fault}: {n} failed checks", file=sys.stderr)
    refused, probes = check["refusal_probes"]
    print(f"refusal probes refused: {refused} of {probes} distinct answers", file=sys.stderr)
    for reason in check["unexpected"]:
        print(f"CHECK FAILED: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": check["correct"],
        "attempted": check["attempted"],
        "failed": check["failed"],
        "metrics": {n: {"value": values[n], "unit": u} for n, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
