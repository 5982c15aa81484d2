"""Seeded synthetic legal corpora with their ground truth.

One seed gives one corpus, one question set and one retrieval-case set, all
written as files the program reads (`corpus.jsonl`, `cases.jsonl`) plus the
truth the oracles compare against (`truth.json`, `questions.json`). The
program never sees the truth files.

Make-up of a corpus:

- `topics` planted topics of equal size; each document draws its topic words
  from its own topic's pool.
- The four legal document kinds in equal shares inside every topic.
  Constitution sections and statutes are written as paragraphs separated by
  blank lines; case law is one long unstructured paragraph.
- Citations: NMSA statute sections, neutral case citations and constitution
  clauses. Every statute, case and constitution section carries a
  `citation_string`, so a citation of another corpus document resolves to it;
  citations of sections outside the corpus stay external.
- Planted phrases ("habeas corpus", ...) with a fixed probability per
  document kind; their counts per kind are recorded.
- A Zipfian long tail of words drawn from a very large pseudo-word space, so
  the corpus has a large distinct-token count, as statute and case-law
  corpora do.

Words are pseudo-words made of consonant-vowel syllables, so no phrase, stop
word or refusal probe can occur in a document by accident.

    python3 perfbench/gen.py --workload build --seed 0 --out DIR
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

KINDS = ("constitution", "statute", "appeals_case", "supreme_case")

# graph node kind of each document kind and the words a question uses for it
GRAPH_KIND = {
    "constitution": "constitution_doc",
    "statute": "statute_doc",
    "appeals_case": "appeals_case",
    "supreme_case": "supreme_case",
}
KIND_WORDS = {
    "constitution_doc": "constitutional provisions",
    "statute_doc": "statutes",
    "appeals_case": "Court of Appeals cases",
    "supreme_case": "Supreme Court cases",
}

# planted phrase -> probability that a document of each kind contains it
PHRASES = {
    "habeas corpus": {"constitution": 0.10, "statute": 0.05, "appeals_case": 0.25, "supreme_case": 0.35},
    "due process": {"constitution": 0.40, "statute": 0.15, "appeals_case": 0.30, "supreme_case": 0.30},
    "summary judgment": {"constitution": 0.00, "statute": 0.10, "appeals_case": 0.40, "supreme_case": 0.20},
    "qualified immunity": {"constitution": 0.00, "statute": 0.20, "appeals_case": 0.15, "supreme_case": 0.25},
}

# a fixed, small vocabulary of real legal words shared by every topic
SHARED_WORDS = (
    "court state law section act shall party claim defendant plaintiff appeal "
    "judgment order motion trial evidence district county public right rights "
    "person persons provided pursuant legislature article amendment provision "
    "jury verdict counsel statute statutes remedy damages liability contract "
    "property tax election office officer board commission agency rule review "
    "standard error reversed affirmed remanded opinion dissent majority held "
    "holding finding findings testimony witness record brief argument issue "
    "question fact facts application applied construed interpretation meaning "
    "require requires required subject within without thereof therein herein "
    "notice hearing petition petitioner respondent appellant appellee writ"
).split()

CONSONANTS = "bdfgklmnprstvz"
VOWELS = "aeiou"
SYLLABLES = [c + v for c in CONSONANTS for v in VOWELS]  # 70 syllables

# disjoint ranges of the pseudo-word space
_TOPIC_BASE = 1_000
_TAIL_BASE = 1_000_000
_EXTERNAL_BASE = 10_000

# letters the syllables never produce, for questions that share no vocabulary
_ABSENT_LETTERS = "qxjwyhc"


def pseudo_word(n: int) -> str:
    """Four consonant-vowel syllables naming the integer n (n < 70**4)."""
    out = []
    for _ in range(4):
        n, r = divmod(n, len(SYLLABLES))
        out.append(SYLLABLES[r])
    return "".join(reversed(out))


SCALES = {
    # planted topics, documents per topic, share and Zipf exponent of tail words, retrieval cases
    "build": dict(topics=8, docs_per_topic=40, tail_share=0.6, tail_exponent=1.0, cases=300),
    "ask": dict(topics=8, docs_per_topic=48, tail_share=0.30, tail_exponent=1.0, cases=600),
    "eval": dict(topics=8, docs_per_topic=30, tail_share=0.30, tail_exponent=1.0, cases=600),
}

WORDS_PER_KIND = {"constitution": (3, 45), "statute": (4, 55), "appeals_case": (1, 700), "supreme_case": (1, 700)}
TOPIC_POOL = 24
TAIL_SPACE = 3_000_000
TAIL_HEAD = 10_000
CITATIONS_PER_DOC = 3
RESOLVING_SHARE = 0.6


def _roman(n: int) -> str:
    out = []
    for value, sym in ((10, "X"), (9, "IX"), (5, "V"), (4, "IV"), (1, "I")):
        while n >= value:
            out.append(sym)
            n -= value
    return "".join(out)


def _citable(kind: str, i: int) -> tuple[str, str]:
    """How the i-th citable section of a kind is written in text, and the
    key the program should normalise that text to."""
    if kind == "statute":
        sec = f"{10 + i // 400}-{1 + (i // 20) % 20}-{1 + i % 20}"
        return f"NMSA 1978, § {sec}", f"NMSA {sec}"
    if kind == "constitution":
        art, sec = _roman(1 + i // 30), 1 + i % 30
        return f"N.M. Const. art. {art}, § {sec}", f"NM CONST ART {art} § {sec}"
    court = "NMSC" if kind == "supreme_case" else "NMCA"
    neutral = f"{1950 + i % 70}-{court}-{100 + i // 70:03d}"
    return neutral, neutral


def _zipf_sampler(rng: np.random.Generator, head: int, space: int, exponent: float):
    """Ranks in [head, space) with probability proportional to rank**-exponent."""
    cdf = np.cumsum(1.0 / np.arange(head, space) ** exponent)
    cdf /= cdf[-1]
    return lambda n: head + np.searchsorted(cdf, rng.random(n))


def generate(workload: str, seed: int) -> dict:
    """Build the corpus, questions, cases and truth of one workload and seed."""
    scale = SCALES[workload]
    rng = np.random.default_rng([seed, sorted(SCALES).index(workload)])
    topics, per_topic = scale["topics"], scale["docs_per_topic"]
    tail = _zipf_sampler(rng, TAIL_HEAD, TAIL_SPACE, scale["tail_exponent"])
    tail_offset = int(rng.integers(0, 50_000_000))  # a different tail vocabulary per seed

    # document skeletons: id, kind, topic, citable identity
    docs = []
    serial = {k: 0 for k in KINDS}
    for t in range(topics):
        for j in range(per_topic):
            kind = KINDS[j % len(KINDS)]
            n = serial[kind]
            serial[kind] += 1
            cite_text, key = _citable(kind, n)
            docs.append({"id": f"{kind}-{n:04d}", "kind": kind, "topic": t,
                         "cite_text": cite_text, "key": key})
    order = rng.permutation(len(docs))  # file order does not follow the topics
    docs = [docs[i] for i in order]

    # external citations: sections of the same forms that no document holds
    def external(kind: str) -> tuple[str, str]:
        return _citable(kind, _EXTERNAL_BASE + int(rng.integers(0, 5_000)))

    phrase_docs = {p: {k: [] for k in KINDS} for p in PHRASES}
    records, truth_docs = [], {}
    for d in docs:
        kind, t = d["kind"], d["topic"]
        n_par, words_per_par = WORDS_PER_KIND[kind]
        total = n_par * words_per_par
        draw = rng.random(total)
        topic_ids = _TOPIC_BASE + t * 1000 + rng.integers(0, TOPIC_POOL, total)
        shared_ids = rng.integers(0, len(SHARED_WORDS), total)
        tail_ids = _TAIL_BASE + tail_offset + tail(total)
        words = []
        for i in range(total):
            if draw[i] < scale["tail_share"]:
                words.append(pseudo_word(int(tail_ids[i])))
            elif draw[i] < scale["tail_share"] + 0.25:
                words.append(SHARED_WORDS[int(shared_ids[i])])
            else:
                words.append(pseudo_word(int(topic_ids[i])))

        # planted citations: resolving ones name another corpus document
        cited: dict[str, str | None] = {}
        while len(cited) < CITATIONS_PER_DOC:
            target_kind = KINDS[int(rng.integers(len(KINDS)))]
            if rng.random() < RESOLVING_SHARE:
                target = docs[int(rng.integers(len(docs)))]
                if target["id"] == d["id"]:
                    continue
                cited.setdefault(target["key"], target["id"])
                insert = target["cite_text"]
            else:
                text, key = external(target_kind)
                cited.setdefault(key, None)
                insert = text
            words.insert(int(rng.integers(1, len(words))), insert)
        planted = []
        for phrase, probs in PHRASES.items():
            if rng.random() < probs[kind]:
                words.insert(int(rng.integers(1, len(words))), phrase)
                phrase_docs[phrase][kind].append(d["id"])
                planted.append(phrase)

        if n_par > 1:
            # paragraphs of roughly equal size separated by blank lines
            cuts = np.linspace(0, len(words), n_par + 1).astype(int)
            text = "\n\n".join(" ".join(words[a:b]) for a, b in zip(cuts, cuts[1:]))
        else:
            text = " ".join(words)
        records.append({
            "id": d["id"], "doc_type": kind, "title": f"{kind} {d['id']}", "text": text,
            "metadata": {"citation_string": d["cite_text"]},
        })
        truth_docs[d["id"]] = {"topic": t, "kind": kind, "key": d["key"],
                               "cites": cited, "phrases": planted}

    questions = _question_sets(rng, records)
    cases = _cases(rng, records, scale["cases"])
    truth = {
        "workload": workload, "seed": seed, "topics": topics,
        "docs": truth_docs,
        "phrase_docs": {p: {GRAPH_KIND[k]: ids for k, ids in by.items()} for p, by in phrase_docs.items()},
    }
    return {"corpus": records, "questions": questions, "cases": cases, "truth": truth}


def _window(rng: np.random.Generator, text: str, n: int) -> str:
    words = [w for w in text.split() if w.isalpha()]
    start = int(rng.integers(0, len(words) - n))
    return " ".join(words[start:start + n])


QUESTION_SETS = 30
SEMANTIC_PER_ROUND = 120
FOLLOW_UP_EVERY = 10
REFUSAL_PER_ROUND = 12
QUANT_PER_ROUND = 24
POSSESSIVE_PER_ROUND = 2
CITATION_PER_ROUND = 12
# Graph questions ask about case law, except one quantitative and one
# citation-pattern question per pass, one about statutes and one about the
# constitution, alternating between passes. A scan of the short statutes or
# constitution sections costs a quarter of a case-law scan; with a fifth of
# the questions on them the median graph answer would sit at the 36th
# percentile of the case-law answers, in the thin stretch between the two
# kinds of scan where a run of mixed host speed moves it most; with two of 34
# it sits near the middle of the case-law answers.
CASE_LAW_KINDS = ("supreme_case", "appeals_case")
SHORT_KINDS = ("statute_doc", "constitution_doc")


def _question_sets(rng, records) -> list[list[dict]]:
    """QUESTION_SETS passes of the `ask` question mix, each in the order it is
    asked. Every pass has the same make-up; its semantic questions and
    refusal probes are new and its graph questions rotate the phrases, so a
    run's latencies cover thousands of distinct questions."""
    return [_question_pass(rng, records, r) for r in range(QUESTION_SETS)]


def _question_pass(rng, records, r: int) -> list[dict]:
    out = []
    for i in range(SEMANTIC_PER_ROUND):
        rec = records[int(rng.integers(len(records)))]
        out.append({"mode": "semantic", "follow_up": i % FOLLOW_UP_EVERY == FOLLOW_UP_EVERY - 1,
                    "question": f"What does the law provide on {_window(rng, rec['text'], 8)}?",
                    "gold": rec["id"]})
    for _ in range(REFUSAL_PER_ROUND):
        words = ["".join(rng.choice(list(_ABSENT_LETTERS), size=7)) for _ in range(4)]
        out.append({"mode": "refusal", "question": " ".join(words).capitalize() + "?"})
    phrases = sorted(PHRASES)
    for i in range(QUANT_PER_ROUND - POSSESSIVE_PER_ROUND):
        # the shift every eight questions lets each case-law kind meet every phrase
        phrase = phrases[(i + i // 8 + r) % len(phrases)]
        kind = SHORT_KINDS[r % 2] if i == 0 else CASE_LAW_KINDS[i % 2]
        out.append({"mode": "quantitative", "phrase": phrase, "kind": kind,
                    "question": f"How many {KIND_WORDS[kind]} mention '{phrase}'?"})
    # the possessive apostrophe in "state's" opens a quote in the program's parser
    for i in range(POSSESSIVE_PER_ROUND):
        phrase = phrases[(i + r) % len(phrases)]
        out.append({"mode": "quantitative", "phrase": phrase, "kind": "supreme_case", "possessive": True,
                    "question": f"How many of the state's Supreme Court cases mention '{phrase}'?"})
    for i in range(CITATION_PER_ROUND):
        phrase = phrases[(i + r) % len(phrases)]
        kind = SHORT_KINDS[(r + 1) % 2] if i == 0 else CASE_LAW_KINDS[(i + 1) % 2]
        out.append({"mode": "citation", "phrase": phrase, "kind": kind,
                    "question": f"What are the common citations among {KIND_WORDS[kind]} "
                                f"that mention '{phrase}'?"})
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def _cases(rng, records, n: int) -> list[dict]:
    out = []
    for _ in range(n):
        rec = records[int(rng.integers(len(records)))]
        out.append({"question": f"Which authority addresses {_window(rng, rec['text'], 10)}?",
                    "gold_doc_id": rec["id"], "source_part": rec["doc_type"]})
    return out


def write(workload: str, seed: int, out_dir: Path) -> None:
    data = generate(workload, seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "corpus.jsonl").open("w", encoding="utf-8") as fh:
        for rec in data["corpus"]:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    with (out_dir / "cases.jsonl").open("w", encoding="utf-8") as fh:
        for case in data["cases"]:
            fh.write(json.dumps(case, sort_keys=True) + "\n")
    (out_dir / "questions.json").write_text(json.dumps(data["questions"]), encoding="utf-8")
    (out_dir / "truth.json").write_text(json.dumps(data["truth"]), encoding="utf-8")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SCALES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    write(args.workload, args.seed, Path(args.out))


if __name__ == "__main__":
    main()
