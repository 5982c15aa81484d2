"""Inputs and prebuilt artifacts of one run, made outside the measured process.

Writes the generator's files into `--inputs`. For `ask` and `eval` it also
builds, with the program and the lighter NMFk settings, the hierarchy, graph
export and topic indexes those workloads load, into `--prep`, and records the
time of that build in `prep.json`.

With `--rebuild` it generates nothing: it builds the artifacts of the inputs
already in `--inputs` into `--prep` and prints the time of the build as JSON.
The measured process of `ask` and `eval` runs it twice, spread over its run,
so `build_s` of those workloads is the median of three builds made at three
different times, each in a fresh process as a user's build is.
"""

from __future__ import annotations

import argparse
import json
import time
from pathlib import Path

import gen
import pipeline


def timed_build(workload: str, inputs: Path, prep: Path) -> float:
    """Build the artifacts `ask` and `eval` load; return its seconds."""
    L = pipeline.import_program()
    docs = L.corpus.ingest_jsonl(inputs / "corpus.jsonl")
    hcfg = pipeline.light_hierarchy_config(L, gen.SCALES[workload]["topics"])
    prep.mkdir(parents=True, exist_ok=True)
    t = time.perf_counter()
    pipeline.build_artifacts(L, docs, hcfg, prep, L.embeddings.DeterministicEmbedder())
    return time.perf_counter() - t


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.SCALES))
    ap.add_argument("--seed", type=int)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--prep", required=True)
    ap.add_argument("--rebuild", action="store_true")
    args = ap.parse_args()
    inputs, prep = Path(args.inputs), Path(args.prep)
    if args.rebuild:
        print(json.dumps({"build_s": timed_build(args.workload, inputs, prep)}))
        return
    if args.seed is None:
        ap.error("--seed is required unless --rebuild is given")
    gen.write(args.workload, args.seed, inputs)
    prep.mkdir(parents=True, exist_ok=True)
    record = {}
    if args.workload != "build":
        record["build_s"] = timed_build(args.workload, inputs, prep)
    (prep / "prep.json").write_text(json.dumps(record), encoding="utf-8")


if __name__ == "__main__":
    main()
