import json
import re
import struct
import sys
import threading
from hashlib import blake2b

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lexigraph import embeddings
from lexigraph.chunking import Chunk, chunk_document, default_chunks
from lexigraph.corpus import Document
from lexigraph.embeddings import DeterministicEmbedder
from lexigraph.errors import DataError, ParameterError
from lexigraph.vectorstore import (
    VectorIndex,
    build_index,
    load_indexes,
    route_and_search,
    search,
    write_indexes,
)

from conftest import zero_row_index


def doc_of_words(n, doc_id="d"):
    return Document(id=doc_id, doc_type="generic", text=" ".join(f"w{i}" for i in range(n)))


class TestChunkDocument:
    def test_stride_arithmetic(self):
        chunks = chunk_document(doc_of_words(700), size=300, overlap=50)
        assert [c.start for c in chunks] == [0, 250, 500]
        assert [c.end for c in chunks] == [300, 550, 700]

    def test_short_text_single_chunk(self):
        d = doc_of_words(5)
        (chunk,) = chunk_document(d, size=300, overlap=50)
        assert chunk.text == d.text

    def test_zero_overlap_reconstruction(self):
        d = doc_of_words(20)
        chunks = chunk_document(d, size=10, overlap=0)
        assert len(chunks) == 2
        assert " ".join(c.text for c in chunks) == d.text

    def test_overlap_reconstruction(self):
        d = doc_of_words(137)
        chunks = chunk_document(d, size=40, overlap=13)
        words = []
        for i, c in enumerate(chunks):
            parts = c.text.split()
            words.extend(parts if i == 0 else parts[13:])
        assert words == d.text.split()

    def test_consecutive_overlap_exact(self):
        d = doc_of_words(100)
        chunks = chunk_document(d, size=30, overlap=7)
        for a, b in zip(chunks, chunks[1:]):
            assert a.end - b.start == 7

    def test_invalid_overlap(self):
        d = doc_of_words(10)
        with pytest.raises(ParameterError):
            chunk_document(d, size=5, overlap=5)
        with pytest.raises(ParameterError):
            chunk_document(d, size=0, overlap=0)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=400),
        size=st.integers(min_value=1, max_value=120),
        data=st.data(),
    )
    def test_reconstruction_property(self, n, size, data):
        overlap = data.draw(st.integers(min_value=0, max_value=size - 1))
        d = doc_of_words(n)
        chunks = chunk_document(d, size=size, overlap=overlap)
        words = []
        for i, c in enumerate(chunks):
            parts = c.text.split()
            words.extend(parts if i == 0 else parts[overlap:])
        assert words == d.text.split()


class TestSplitParagraphs:
    def test_three_paragraphs(self):
        d = Document(id="p", doc_type="constitution", text="one\n\ntwo\n\nthree")
        chunks = default_chunks(d)
        assert [c.text for c in chunks] == ["one", "two", "three"]
        assert all(c.unit == "paragraphs" for c in chunks)

    def test_no_blank_lines(self):
        d = Document(id="p", doc_type="constitution", text="single paragraph only")
        assert len(default_chunks(d)) == 1

    def test_surrounding_blank_lines_normalized(self):
        plain = Document(id="a", doc_type="constitution", text="one\n\ntwo")
        padded = Document(id="a", doc_type="constitution", text="\n\none\n\ntwo\n\n")
        assert [c.text for c in default_chunks(plain)] == \
               [c.text for c in default_chunks(padded)]

    def test_default_chunks_by_type(self):
        const = Document(id="c", doc_type="constitution", text="one\n\ntwo")
        case = doc_of_words(700, "case")
        assert all(c.unit == "paragraphs" for c in default_chunks(const))
        assert all(c.unit == "words" for c in default_chunks(case))


class TestDeterministicEmbedder:
    def test_pure_function_of_text(self):
        e = DeterministicEmbedder(dim=64)
        a = e.embed(["water rights case"])[0]
        b = e.embed(["water rights case"])[0]
        assert np.array_equal(a, b)

    def test_shared_vocabulary_increases_similarity(self):
        e = DeterministicEmbedder(dim=256)
        v1, v2, v3 = e.embed([
            "water rights irrigation", "water rights dispute", "criminal sentencing appeal",
        ])
        assert v1 @ v2 > v1 @ v3

    def test_unit_norm_and_zero_for_empty(self):
        e = DeterministicEmbedder(dim=32)
        rows = e.embed(["hello world", ""])
        assert rows.shape == (2, 32) and rows.dtype == np.float64
        v, empty = rows
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert np.linalg.norm(empty) == 0.0

    def test_second_pass_over_a_large_vocabulary_derives_nothing(self, monkeypatch):
        # more distinct tokens than a 65,536-entry cache holds: a bounded
        # cache evicts on each pass what the next pass needs first
        e = DeterministicEmbedder(dim=4)
        texts = [" ".join(f"vocab{i}x{j}" for j in range(1000)) for i in range(70)]
        first = e.embed(texts)
        hashed = record_hashed_tokens(monkeypatch)
        second = e.embed(texts)
        assert hashed == []
        assert first.tobytes() == second.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(
        texts=st.lists(
            st.one_of(
                st.lists(st.sampled_from(
                    ["water", "Water", "rights", "it's", "o'neil", "'", "1978", "41-5-1", "a1b2",
                     "§", "...", "v.", "x", "\u212aelvin", "\u0130nn", "stra\xdfe", "o\u2019neil",
                     "a\xa0b", "\ud800", "w\ud800x"]), max_size=12).map(" ".join),
                st.text(max_size=30),
                # characters whose lowercase is ASCII or next to it, and a lone
                # surrogate, which st.text leaves out
                st.text(st.sampled_from("ak'1 .\u212a\u0130\xdf\u2019\xa0\ud800"), max_size=30),
            ),
            max_size=6,
        ),
        dim=st.sampled_from([1, 2, 3, 8, 64]),
        one_by_one_first=st.booleans(),
    )
    @example(texts=[], dim=3, one_by_one_first=False)
    @example(texts=["", "... §", "it's it's 1978 o'neil 1978"], dim=64, one_by_one_first=False)
    @example(texts=["water water water", "x x x x x x x", "water"], dim=8, one_by_one_first=True)
    def test_equals_the_token_loop_byte_for_byte(self, texts, dim, one_by_one_first):
        # a batch of one text is gathered, a larger batch is one sparse sum;
        # whichever runs first derives the new tokens
        e = DeterministicEmbedder(dim=dim)
        want = reference_embed(texts, dim)
        if one_by_one_first:
            singles = [e.embed([text]) for text in texts]
        got = e.embed(texts)
        if not one_by_one_first:
            singles = [e.embed([text]) for text in texts]
        assert got.shape == (len(texts), dim)
        assert got.tobytes() == want.tobytes()
        for single, row in zip(singles, want):
            assert single.tobytes() == row.tobytes()

    @pytest.mark.parametrize("seeds", [
        # 2**32 is the first seed numpy takes as two 32-bit words, not one
        [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1],
        [int(s) for s in np.random.default_rng(2024).integers(0, 2**64, 1000, dtype=np.uint64)],
    ], ids=["edges", "random"])
    def test_seed_words_seed_pcg64_as_numpy_does(self, seeds):
        words = embeddings._seed_words(np.array(seeds, dtype=np.uint64))
        assert words.shape == (len(seeds), 4)
        for seed, row in zip(seeds, words):
            assert row.tolist() == np.random.SeedSequence(seed).generate_state(4, np.uint64).tolist()
            got = np.random.PCG64(embeddings._SeedWords(row)).state["state"]
            want = np.random.PCG64(seed).state["state"]
            assert (got["state"], got["inc"]) == (want["state"], want["inc"])

    def test_a_batch_of_known_and_new_tokens_derives_each_new_token_once(self, monkeypatch):
        e = DeterministicEmbedder(dim=8)
        e.embed(["known1 known2"])
        hashed = record_hashed_tokens(monkeypatch)
        texts = ["known1 new1 new1", "new2 known2 new1", "", "new2 known1 new3"]
        assert e.embed(texts).tobytes() == reference_embed(texts, 8).tobytes()
        assert hashed == [b"new1", b"new2", b"new3"]

    def test_each_embedder_derives_its_own_tokens(self, monkeypatch):
        # an embedder's table is its own: a second one of the same dim derives
        # every token again, and the vectors are the same bytes
        texts = ["water rights", "rights of way", "water"]
        hashed = record_hashed_tokens(monkeypatch)
        first = DeterministicEmbedder(dim=8).embed(texts)
        assert hashed == [b"water", b"rights", b"of", b"way"]
        hashed.clear()
        second = DeterministicEmbedder(dim=8).embed(texts)
        assert hashed == [b"water", b"rights", b"of", b"way"]
        assert first.tobytes() == second.tobytes() == reference_embed(texts, 8).tobytes()

    def test_reservation_is_sized_in_bytes(self):
        assert len(DeterministicEmbedder(dim=256)._matrix) == 131_072
        e = DeterministicEmbedder(dim=8192)
        assert e._matrix.nbytes <= 256 * 2**20
        texts = ["a wide vector", "wide enough"]
        assert e.embed(texts).tobytes() == reference_embed(texts, 8192).tobytes()

    def test_rows_derived_before_the_matrix_grows_survive_it(self, monkeypatch):
        monkeypatch.setattr(embeddings, "_RESERVED_BYTES", 4 * 8 * 8)  # 4 rows at dim 8
        e = DeterministicEmbedder(dim=8)
        early = ["grow0 grow1 grow2", "grow1 grow3"]
        before = e.embed(early)
        texts = [" ".join(f"grow{i}" for i in range(j, j + 30)) for j in range(0, 90, 10)]
        assert e.embed(texts).tobytes() == reference_embed(texts, 8).tobytes()
        assert len(e._matrix) == 128
        assert e.embed(early).tobytes() == before.tobytes() == reference_embed(early, 8).tobytes()

    def test_threads_deriving_new_tokens_get_the_serial_result(self, monkeypatch):
        monkeypatch.setattr(embeddings, "_RESERVED_BYTES", 4 * 16 * 8)  # 4 rows at dim 16
        batches = [[" ".join(f"t{w}tok{i}x{j} shared" for i in range(40)) for j in range(5)]
                   for w in range(8)]
        results = [None] * len(batches)
        e = DeterministicEmbedder(dim=16)
        start = threading.Barrier(len(batches))

        def worker(w):
            start.wait()
            results[w] = e.embed(batches[w])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(w,)) for w in range(len(batches))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for w, batch in enumerate(batches):
            assert results[w].tobytes() == reference_embed(batch, 16).tobytes()
        # every token derived once, under the lock
        assert len(e._rows) == 8 * 5 * 40 + 1


def record_hashed_tokens(monkeypatch) -> list:
    """The list every token derived from now on is appended to: each
    derivation of a token vector hashes the token first."""
    hashed = []
    real_blake2b = embeddings.blake2b

    def counting_blake2b(data, **kwargs):
        hashed.append(data)
        return real_blake2b(data, **kwargs)

    monkeypatch.setattr(embeddings, "blake2b", counting_blake2b)
    return hashed


def reference_embed(texts, dim):
    """The deterministic embedder's definition, one token at a time."""
    out = np.zeros((len(texts), dim))
    for i, text in enumerate(texts):
        vec = np.zeros(dim)
        for token in re.findall(r"[a-z0-9']+", text.lower()):
            seed = int.from_bytes(blake2b(token.encode("utf-8"), digest_size=8).digest(), "big")
            vec += np.random.default_rng(seed).standard_normal(dim)
        norm = np.linalg.norm(vec)
        out[i] = vec / norm if norm > 0 else vec
    return out


class CountingProvider:
    def __init__(self, dim=8):
        self.dim = dim
        self.provider_id = f"counting-d{dim}"
        self.batches = []
        self._inner = DeterministicEmbedder(dim=dim)

    def embed(self, texts):
        self.batches.append(len(texts))
        return self._inner.embed(texts)


def make_chunks(n, prefix="d"):
    return [
        Chunk(doc_id=f"{prefix}{i:04d}", index=0, unit="words", start=0, end=2,
              text=f"word{i} shared")
        for i in range(n)
    ]


class TestBuildIndex:
    def test_single_chunk_reproducible(self):
        p = DeterministicEmbedder(dim=16)
        idx1 = build_index(make_chunks(1), p)
        idx2 = build_index(make_chunks(1), p)
        assert np.array_equal(idx1.entries[0][1], idx2.entries[0][1])

    def test_batching_contract(self):
        p = CountingProvider()
        build_index(make_chunks(300), p)
        assert p.batches == [128, 128, 44]

    def test_empty_chunks_rejected(self):
        with pytest.raises(ParameterError):
            build_index([], DeterministicEmbedder(dim=8))

    def test_duplicate_chunk_id_rejected(self):
        p = DeterministicEmbedder(dim=8)
        chunks = make_chunks(1) + make_chunks(1)
        with pytest.raises(DataError):
            build_index(chunks, p)

    def test_save_load_round_trip(self, tmp_path):
        p = DeterministicEmbedder(dim=16)
        idx = build_index(make_chunks(5), p, topic_id="root/1")
        path = tmp_path / "index.lxvi"
        idx.save(path)
        loaded = VectorIndex.load(path)
        assert loaded.topic_id == "root/1"
        assert loaded.provider_id == idx.provider_id
        assert len(loaded) == 5
        for (c1, v1), (c2, v2) in zip(idx.entries, loaded.entries):
            assert c1 == c2
            assert np.array_equal(v1, v2)

    def test_constructor_checks_shape(self):
        chunks = make_chunks(2)
        with pytest.raises(ParameterError):
            VectorIndex(provider_id="m", dim=4, chunks=chunks, matrix=np.zeros((2, 3)))
        with pytest.raises(ParameterError):
            VectorIndex(provider_id="m", dim=4, chunks=chunks, matrix=np.zeros((3, 4)))

    def test_entries_are_read_only(self):
        idx = build_index(make_chunks(2), DeterministicEmbedder(dim=8))
        with pytest.raises(AttributeError):
            idx.entries.append(idx.entries[0])
        assert len(idx.entries) == 2


@pytest.fixture(scope="module")
def saved_index(tmp_path_factory):
    path = tmp_path_factory.mktemp("lxvi") / "index.lxvi"
    build_index(make_chunks(4), DeterministicEmbedder(dim=4), topic_id="root/0").save(path)
    return path


class TestIndexFile:
    @pytest.mark.parametrize("mangle, reason", [
        (lambda raw: raw + b"\0", "do not match the header"),
        (lambda raw: b"NOPE" + raw[4:], "not a vector index file"),
        (lambda raw: raw[:4] + struct.pack("<H", 1) + raw[6:],
         "unsupported index version 1; rebuild with lexigraph index"),
        (lambda raw: raw[:4] + struct.pack("<H", 2) + raw[6:],
         "unsupported index version 2; rebuild with lexigraph index"),
        (lambda raw: zero_row_index(), "an index holds at least one chunk"),
    ], ids=["trailing-byte", "magic", "version-1", "version-2", "zero-rows"])
    def test_malformed_file_is_data_error(self, saved_index, tmp_path, mangle, reason):
        path = tmp_path / "bad.lxvi"
        path.write_bytes(mangle(saved_index.read_bytes()))
        with pytest.raises(DataError) as err:
            VectorIndex.load(path)
        assert str(path) in str(err.value) and reason in str(err.value)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_truncated_or_flipped_file_loads_whole_or_is_data_error(self, saved_index, data):
        raw = bytearray(saved_index.read_bytes())
        for at, mask in data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1),
                                                     st.integers(1, 255)), max_size=3)):
            raw[at] ^= mask
        del raw[data.draw(st.integers(0, len(raw))):]
        path = saved_index.with_name("corrupt.lxvi")
        path.write_bytes(bytes(raw))
        try:
            idx = VectorIndex.load(path)
        except DataError:
            return
        (header_len,) = struct.unpack_from("<I", raw, 6)
        header = json.loads(raw[10:10 + header_len])
        assert len(idx) == header["count"] and idx.dim == header["dim"]
        assert idx.matrix.shape == (header["count"], header["dim"])


class TestIndexSetFile:
    """An index set is one `.lxvi` file of one record per index, in set order."""

    provider = DeterministicEmbedder(dim=4)
    groups = {"root/0": make_chunks(3, "a"), "root/1": make_chunks(2, "b")}

    def test_set_round_trip_keeps_set_order(self, tmp_path):
        written = write_indexes(self.groups, self.provider, tmp_path / "set.lxvi")
        loaded = load_indexes(tmp_path / "set.lxvi", self.provider)
        assert list(loaded) == list(written) == ["root/0", "root/1"]
        for topic_id, index in loaded.items():
            assert index.chunks == written[topic_id].chunks
            assert np.array_equal(index.matrix, written[topic_id].matrix)

    def test_write_indexes_writes_the_file_once(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr("lexigraph.vectorstore.write_file", lambda path, data: calls.append((path, data)))
        write_indexes(self.groups, self.provider, tmp_path / "set.lxvi")
        assert [path for path, _ in calls] == [tmp_path / "set.lxvi"]

    def test_a_saved_index_is_a_set_of_one(self, tmp_path):
        index = write_indexes({None: make_chunks(3)}, self.provider, tmp_path / "set.lxvi")[None]
        index.save(tmp_path / "one.lxvi")
        assert (tmp_path / "one.lxvi").read_bytes() == (tmp_path / "set.lxvi").read_bytes()
        assert b'"records": 1, ' in (tmp_path / "one.lxvi").read_bytes()

    def test_load_refuses_a_set_of_two(self, tmp_path):
        write_indexes(self.groups, self.provider, tmp_path / "set.lxvi")
        with pytest.raises(DataError, match="a set of 2 indexes, not one index"):
            VectorIndex.load(tmp_path / "set.lxvi")

    def test_every_cut_and_any_extra_byte_is_data_error(self, tmp_path):
        path = tmp_path / "set.lxvi"
        write_indexes(self.groups, self.provider, path)
        raw = path.read_bytes()
        for bad in [raw[:at] for at in range(len(raw))] + [raw + b"\0", raw + raw]:
            path.write_bytes(bad)
            with pytest.raises(DataError, match=re.escape(str(path))):
                load_indexes(path, self.provider)

def brute_force_ranking(index, q):
    scored = []
    qn = np.linalg.norm(q)
    for chunk, v in index.entries:
        vn = np.linalg.norm(v)
        score = float(v @ q / (vn * qn)) if vn > 0 and qn > 0 else 0.0
        scored.append((chunk, score))
    scored.sort(key=lambda cs: (-cs[1], cs[0].doc_id, cs[0].index))
    return scored


class TestSearch:
    def test_self_query_scores_one(self):
        p = DeterministicEmbedder(dim=32)
        chunks = make_chunks(6)
        idx = build_index(chunks, p)
        q = p.embed([chunks[3].text])[0]
        hits = search(idx, q, top_k=2)
        assert hits[0][0].doc_id == chunks[3].doc_id
        assert hits[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_query_scores_zero(self):
        idx = VectorIndex(provider_id="manual", dim=3, chunks=[
            Chunk(doc_id="a", index=0, unit="words", start=0, end=1, text="x"),
            Chunk(doc_id="b", index=0, unit="words", start=0, end=1, text="y"),
        ], matrix=np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        hits = search(idx, np.array([0.0, 0.0, 2.0]), top_k=5)
        assert all(score == pytest.approx(0.0) for _, score in hits)

    def test_matches_brute_force_on_random_index(self):
        rng = np.random.default_rng(99)
        idx = VectorIndex(provider_id="manual", dim=8, chunks=[
            Chunk(doc_id=f"d{i:03d}", index=0, unit="words", start=0, end=1, text="t")
            for i in range(50)
        ], matrix=np.array([rng.standard_normal(8) for _ in range(50)]))
        q = rng.standard_normal(8)
        hits = search(idx, q, top_k=10)
        expected = brute_force_ranking(idx, q)[:10]
        assert [(c.doc_id, pytest.approx(s, abs=1e-12)) for c, s in expected] == \
               [(c.doc_id, s) for c, s in hits]

    def test_result_length_and_bounds(self):
        p = DeterministicEmbedder(dim=16)
        idx = build_index(make_chunks(4), p)
        hits = search(idx, p.embed(["anything here"])[0], top_k=10)
        assert len(hits) == 4
        assert all(-1.0 - 1e-12 <= s <= 1.0 + 1e-12 for _, s in hits)

    def test_dim_mismatch(self):
        idx = VectorIndex(provider_id="m", dim=4, chunks=[], matrix=np.zeros((0, 4)))
        with pytest.raises(ParameterError):
            search(idx, np.zeros(5), top_k=1)

    def test_ties_rank_by_doc_id_and_index_for_every_top_k(self):
        # one-hot rows, a zero row and a negated row score exactly, so repeated
        # rows tie bit for bit whatever order the matrix product sums in
        rng = np.random.default_rng(11)
        base = np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 2.0, 0], [0, 0, 0, 0],
                         [-1.0, 0, 0, 0]])
        chunks = [Chunk(doc_id=f"d{i % 5}", index=i // 5, unit="words", start=0, end=1,
                        text="t") for i in range(30)]
        shuffled = [chunks[i] for i in rng.permutation(len(chunks))]
        idx = VectorIndex(provider_id="m", dim=4, chunks=shuffled,
                          matrix=base[rng.integers(0, len(base), size=len(chunks))])
        q = np.array([3.0, 1.0, 2.0, 5.0])
        expected = [c.chunk_id for c, _ in brute_force_ranking(idx, q)]
        for top_k in range(1, len(idx) + 1):
            assert [c.chunk_id for c, _ in search(idx, q, top_k)] == expected[:top_k]


class TestRouteAndSearch:
    def _indexes(self):
        p = DeterministicEmbedder(dim=64)
        water = [Chunk(doc_id=f"w{i}", index=0, unit="words", start=0, end=3,
                       text="water rights irrigation stream") for i in range(3)]
        crime = [Chunk(doc_id=f"c{i}", index=0, unit="words", start=0, end=3,
                       text="criminal sentencing probation jury") for i in range(3)]
        return p, {
            "root/0": build_index(water, p, topic_id="root/0"),
            "root/1": build_index(crime, p, topic_id="root/1"),
        }

    def test_best_topic_single_index(self):
        p, indexes = self._indexes()
        only = {"root/0": indexes["root/0"]}
        vec = p.embed(["anything"])[0]
        topic, hits = route_and_search(only, vec, top_k=2)
        assert topic == "root/0"
        direct = search(indexes["root/0"], vec, top_k=2)
        assert [(c.doc_id, s) for c, s in hits] == [(c.doc_id, s) for c, s in direct]

    def test_best_topic_routes_by_vocabulary(self):
        p, indexes = self._indexes()
        assert route_and_search(indexes, p.embed(["irrigation stream water"])[0])[0] == "root/0"
        assert route_and_search(indexes, p.embed(["jury probation criminal"])[0])[0] == "root/1"

    def test_empty_indexes_rejected(self):
        with pytest.raises(ParameterError):
            route_and_search({}, np.ones(8))

    @staticmethod
    def reference_route(indexes, q):
        """Centroid argmax as first written: each centroid is normalised on
        every call, and a later topic wins only with a strictly higher score."""
        qn = np.linalg.norm(q)
        unit_q = q / qn if qn > 0 else q
        best = None
        for tid in sorted(indexes):
            c = np.mean(indexes[tid].matrix, axis=0)
            cn = np.linalg.norm(c)
            score = float((c / cn) @ unit_q) if cn > 0 else 0.0
            if best is None or score > best[0]:
                best = (score, tid)
        return best[1]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force_reference(self, data):
        vec = st.lists(st.integers(-3, 3), min_size=4, max_size=4).map(
            lambda v: np.array(v, dtype=float))
        others = data.draw(st.lists(st.lists(vec, min_size=1, max_size=3), max_size=3))
        v = data.draw(vec)
        tied = data.draw(st.lists(vec, min_size=1, max_size=3))
        matrices = [[v, -v], tied, tied] + others  # a zero centroid and two exact twins
        names = data.draw(st.permutations([f"root/{i}" for i in range(len(matrices))]))
        indexes = {
            tid: VectorIndex("p", 4, [Chunk(doc_id=f"{tid}-{j}", index=0, unit="words", start=0,
                                            end=1, text="t") for j in range(len(rows))],
                             np.array(rows), topic_id=tid)
            for tid, rows in zip(names, matrices)
        }
        q = data.draw(st.one_of(vec, st.just(np.sum(tied, axis=0))))
        topic, hits = route_and_search(indexes, q, top_k=2)
        assert topic == self.reference_route(indexes, q)
        assert hits == search(indexes[topic], q, top_k=2)
