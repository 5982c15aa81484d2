"""Every dataclass read from JSON goes through `errors.from_json`: a valid
record round-trips through `asdict` and JSON text, and a field of another
JSON type is a TypeError naming that field."""

import json
import re
from dataclasses import asdict
from typing import get_type_hints

import pytest
from hypothesis import given, settings, strategies as st

from lexigraph.chunking import Chunk
from lexigraph.errors import from_json
from lexigraph.evaluation import EvalRecord, RetrievalCase
from lexigraph.hierarchy import Hierarchy, HierarchyConfig, TopicNode
from lexigraph.nmfk import KEvaluation, NmfkConfig

TEXT = st.text(max_size=6)
WORDS = st.lists(TEXT, max_size=3)
FRACTION = st.floats(0.01, 0.99)
NUMBER = st.floats(allow_nan=False)

NMFK = st.builds(NmfkConfig, k_min=st.integers(1, 3), k_max=st.integers(3, 9),
                 n_perturbations=st.integers(2, 30), noise_epsilon=FRACTION,
                 silhouette_threshold=FRACTION, base_seed=st.integers(0, 2**64 - 1),
                 nmf_max_iters=st.integers(1, 500), nmf_tol=st.floats(0, 1))
HIERARCHY_CONFIG = st.builds(HierarchyConfig, nmfk=NMFK, max_depth=st.integers(0, 4),
                             min_cluster_size=st.integers(2, 500), keywords_per_topic=st.integers(1, 60),
                             vocab_min_df=st.integers(1, 9), vocab_max_df_ratio=FRACTION)

EVALUATION = st.builds(KEvaluation, k=st.integers(1, 9), min_silhouette=NUMBER, mean_silhouette=NUMBER,
                       mean_reconstruction_error=NUMBER, degenerate=st.booleans())
EVALUATIONS = st.lists(EVALUATION, max_size=3)


def nodes(children):
    return st.builds(TopicNode, id=TEXT, depth=st.integers(0, 4), doc_ids=WORDS, top_keywords=WORDS,
                     label=TEXT, children=children, selected_k=st.integers(0, 9),
                     evaluations=EVALUATIONS, flags=WORDS)


NODE = st.recursive(nodes(st.lists(st.nothing())), lambda kids: nodes(st.lists(kids, max_size=2)),
                    max_leaves=4)

RECORDS = {
    Hierarchy: st.builds(Hierarchy, roots=st.lists(NODE, max_size=2), config=HIERARCHY_CONFIG,
                         corpus_id=TEXT, selected_k=st.integers(0, 9), evaluations=EVALUATIONS),
    TopicNode: NODE,
    KEvaluation: EVALUATION,
    HierarchyConfig: HIERARCHY_CONFIG,
    NmfkConfig: NMFK,
    Chunk: st.builds(Chunk),
    RetrievalCase: st.builds(RetrievalCase, gold_topic_id=st.none() | TEXT),
    EvalRecord: st.builds(EvalRecord, attempted=st.integers(0, 1), accuracy=st.integers(0, 3),
                          rouge_l=NUMBER, external_scores=st.dictionaries(TEXT, NUMBER, max_size=3)),
}

# one JSON value of each kind; a list or an object holding null fits no field
OTHER_VALUES = [None, True, 7, 1.5, "x", [None], {"x": None}]
# the kinds of OTHER_VALUES each plain field type takes; lists, objects and records take none
TAKES = {str: (str,), int: (int,), float: (int, float), bool: (bool,), str | None: (str, type(None))}


def as_json(record) -> dict:
    return json.loads(json.dumps(asdict(record)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
class TestFromJson:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_valid_record_round_trips(self, cls, data):
        record = data.draw(RECORDS[cls])
        assert from_json(cls, as_json(record)) == record

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_field_of_another_type_is_named(self, cls, data):
        d = as_json(data.draw(RECORDS[cls]))
        name = data.draw(st.sampled_from(sorted(d)))
        takes = TAKES.get(get_type_hints(cls)[name], ())
        value = data.draw(st.sampled_from([v for v in OTHER_VALUES if type(v) not in takes]))
        with pytest.raises(TypeError, match=rf"^{re.escape(name)}\b"):
            from_json(cls, {**d, name: value})

