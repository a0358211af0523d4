import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rlab.cli import main
from rlab.corpus import Passage, TokenTable
from rlab.index import (PRECISIONS, EmbeddingIndex, FormatError, build,
                        load_index, save_index, search, search_batch)
from rlab.pq import PQIndex, pq_search
from rlab.retriever import Vocab, encode_doc, init_encoder, save_checkpoint

from oracles import brute_force_search


def make_passages(n, tokens_per=3):
    return [Passage(id=f"p{i:04d}", doc_id=f"d{i}",
                    text=tuple(f"t{i}_{j}" for j in range(tokens_per)))
            for i in range(n)]


def make_encoder(passages, dim=8, seed=0):
    vocab = Vocab([t for p in passages for t in p.text])
    return init_encoder(vocab, dim, seed=seed)


def tied_index(shards=1):
    """40 rows: 8 above, 16 tied on one vector, 16 below, for a query of
    ones. Ids are a fixed shuffle, so row order is not id order."""
    rng = np.random.default_rng(11)
    vectors = np.concatenate([np.full((8, 4), 2.0) + rng.random((8, 4)),
                              np.ones((16, 4)),
                              rng.random((16, 4)) - 1.0])
    ids = [f"p{i:03d}" for i in rng.permutation(40)]
    return EmbeddingIndex(version=1, dim=4, ids=ids, vectors=vectors,
                          shards=shards)


def random_index(n, dim, seed=0, shards=1):
    rng = np.random.default_rng(seed)
    ids = [f"p{i:05d}" for i in range(n)]
    vectors = rng.normal(size=(n, dim))
    return EmbeddingIndex(version=1, dim=dim, ids=ids, vectors=vectors,
                          shards=shards)


class TestBuild:
    def test_basic(self):
        passages = make_passages(3)
        idx = build(passages, make_encoder(passages))
        assert idx.size == 3
        assert idx.version == 1
        assert idx.ids == sorted(idx.ids)

    def test_rebuild_deterministic_bumps_version(self):
        passages = make_passages(5)
        enc = make_encoder(passages)
        first = build(passages, enc)
        second = build(passages, enc, previous_version=first.version)
        np.testing.assert_array_equal(first.vectors, second.vectors)
        assert second.version == 2

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            build([], make_encoder(make_passages(1)))

    def test_vectors_match_doc_encoder(self):
        passages = make_passages(4)
        enc = make_encoder(passages)
        idx = build(passages, enc, precision="float32")
        for pid, vec in zip(idx.ids, idx.vectors):
            p = next(p for p in passages if p.id == pid)
            np.testing.assert_allclose(vec, encode_doc(enc, p.text),
                                       atol=1e-6)

    @pytest.mark.parametrize("interned", [False, True])
    @pytest.mark.parametrize("precision", list(PRECISIONS))
    def test_vectors_bit_equal_encode_doc(self, precision, interned):
        # Repeated and shared tokens, tokens outside the vocab (the UNK
        # row) and ids out of order; build encodes from the interned rows.
        rng = np.random.default_rng(7)
        words = [f"w{i}" for i in range(12)]
        passages = [Passage(id=f"p{(7 * i) % 30:02d}", doc_id=f"d{i}",
                            text=tuple(words[j] for j in rng.integers(
                                0, 12, rng.integers(1, 9))))
                    for i in range(30)]
        enc = init_encoder(Vocab(words[:9]), 8, seed=3)
        rows = (TokenTable([p.text for p in passages]).vocab_rows(enc.vocab)
                if interned else None)
        idx = build(passages, enc, precision=precision, rows=rows)
        ordered = sorted(passages, key=lambda p: p.id)
        want = np.stack([encode_doc(enc, p.text) for p in ordered])
        assert idx.ids == [p.id for p in ordered]
        assert np.array_equal(
            idx.vectors,
            want.astype(PRECISIONS[precision]).astype(np.float64))


class TestSearch:
    def test_orthonormal(self):
        idx = EmbeddingIndex(version=1, dim=2, ids=["a", "b"],
                             vectors=np.eye(2))
        assert search(idx, np.array([1.0, 0.0]), 1) == [("a", 1.0)]

    def test_tie_break_ascending_id(self):
        idx = EmbeddingIndex(version=1, dim=2, ids=["z", "a", "m"],
                             vectors=np.ones((3, 2)))
        results = search(idx, np.array([1.0, 1.0]), 2)
        assert [r[0] for r in results] == ["a", "m"]

    def test_k_larger_than_n(self):
        idx = random_index(5, 4)
        assert len(search(idx, np.zeros(4) + 1.0, 10)) == 5

    def test_matches_brute_force(self):
        idx = random_index(1000, 16, seed=3)
        rng = np.random.default_rng(4)
        for _ in range(10):
            q = rng.normal(size=16)
            got = search(idx, q, 10)
            want = brute_force_search(idx.ids, idx.vectors, q, 10)
            assert [g[0] for g in got] == [w[0] for w in want]
            np.testing.assert_allclose([g[1] for g in got],
                                       [w[1] for w in want], rtol=1e-12)

    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_shard_invariance(self, shards):
        base = random_index(101, 8, seed=5)
        sharded = random_index(101, 8, seed=5, shards=shards)
        rng = np.random.default_rng(6)
        for _ in range(5):
            q = rng.normal(size=8)
            assert search(base, q, 13) == search(sharded, q, 13)

    @pytest.mark.parametrize("k", [1, 8, 9, 15, 24, 25, 40, 50])
    def test_ties_straddle_cut(self, k):
        # The cut at k falls before, inside and after the tied group.
        idx = tied_index()
        q = np.ones(4)
        got = search(idx, q, k)
        want = brute_force_search(idx.ids, idx.vectors, q, k)
        assert [g[0] for g in got] == [w[0] for w in want]
        np.testing.assert_allclose([g[1] for g in got],
                                   [w[1] for w in want], rtol=1e-12)

    def test_dimension_check(self):
        idx = random_index(3, 4)
        with pytest.raises(ValueError):
            search(idx, np.zeros(5), 1)


class TestSearchBatch:
    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("k", [1, 10, 30, 2000])
    def test_equals_search(self, shards, k):
        for idx in (random_index(1000, 16, seed=3, shards=shards),
                    tied_index(shards=shards)):
            rng = np.random.default_rng(4)
            queries = np.concatenate([rng.normal(size=(7, idx.dim)),
                                      np.ones((1, idx.dim))])
            batch = search_batch(idx, queries, k)
            assert len(batch) == len(queries)
            for q, got in zip(queries, batch):
                want = search(idx, q, k)
                assert [g[0] for g in got] == [w[0] for w in want]
                np.testing.assert_allclose([g[1] for g in got],
                                           [w[1] for w in want], rtol=1e-12)

    @pytest.mark.parametrize("queries, k", [
        (np.zeros((2, 4)), 0),
        (np.zeros((2, 5)), 1),
        (np.zeros(4), 1),
        (np.zeros((2, 2, 4)), 1),
    ])
    def test_bad_input(self, queries, k):
        with pytest.raises(ValueError):
            search_batch(random_index(3, 4), queries, k)


class TestIdOrder:
    def test_unsorted_ids_sort_with_their_rows(self):
        vectors = np.array([[3.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        idx = EmbeddingIndex(version=1, dim=2, ids=["c", "a", "b"],
                             vectors=vectors)
        assert idx.ids == ["a", "b", "c"]
        np.testing.assert_array_equal(idx.vectors[:, 0], [1.0, 2.0, 3.0])

    def test_sorted_ids_are_kept_as_given(self):
        ids, vectors = ["a", "a\0", "ab", "b"], np.eye(4)
        idx = EmbeddingIndex(version=1, dim=4, ids=ids, vectors=vectors)
        assert idx.ids is ids
        assert idx.vectors is vectors

    @pytest.mark.parametrize("shards", [0, -1])
    def test_shards_below_1_rejected(self, shards):
        # Such an index saved, and then RIDX loading refused it.
        with pytest.raises(ValueError, match=f"shards={shards}"):
            EmbeddingIndex(version=1, dim=2, ids=["a"],
                           vectors=np.ones((1, 2)), shards=shards)

    @pytest.mark.parametrize("ids", [["b", "a", "a"], ["a", "a"]])
    def test_duplicate_ids_rejected(self, ids):
        with pytest.raises(ValueError, match="duplicate id 'a'"):
            EmbeddingIndex(version=1, dim=1, ids=ids,
                           vectors=np.ones((len(ids), 1)))

    @pytest.mark.parametrize("ids, dim, shape", [
        (["a", "b"], 2, (3, 2)),  # a row with no id
        (["b", "a"], 2, (1, 2)),  # an id with no row, out of order
        (["a", "b"], 3, (2, 2)),  # rows narrower than dim
        (["a", "b"], 2, (2,)),
    ])
    def test_vectors_must_match_ids_and_dim(self, ids, dim, shape):
        with pytest.raises(ValueError, match="shape"):
            EmbeddingIndex(version=1, dim=dim, ids=ids,
                           vectors=np.ones(shape))

    @pytest.mark.parametrize("codes_shape", [
        (3, 1),  # a row with no id
        (2, 2),  # two codes per row for one subspace
        (2,),  # no subspace axis
    ])
    def test_pq_codes_must_match_ids_and_codebooks(self, codes_shape):
        with pytest.raises(ValueError, match="shape"):
            PQIndex(codebooks=np.zeros((1, 2, 1)), ids=["a", "b"],
                    codes=np.zeros(codes_shape, dtype=np.int64), version=1)

    def test_unknown_precision_rejected(self):
        passages = make_passages(2)
        with pytest.raises(ValueError, match="'bfloat16'"):
            build(passages, make_encoder(passages), precision="bfloat16")
        with pytest.raises(ValueError, match="'bfloat16'"):
            EmbeddingIndex(version=1, dim=1, ids=["a"], vectors=np.ones((1, 1)),
                           precision="bfloat16")

    def test_build_rejects_duplicate_passage_ids(self):
        passages = make_passages(3)
        passages.append(passages[1])
        with pytest.raises(ValueError, match="duplicate id 'p0001'"):
            build(passages, make_encoder(passages))

    def test_build_orders_unsorted_passages(self):
        passages = make_passages(5)
        enc = make_encoder(passages)
        shuffled = build(passages[::-1], enc)
        np.testing.assert_array_equal(shuffled.vectors,
                                      build(passages, enc).vectors)
        assert shuffled.ids == [p.id for p in passages]

    @pytest.mark.parametrize("field", [f.name for f in
                                       dataclasses.fields(EmbeddingIndex)])
    def test_fields_cannot_be_reassigned(self, field):
        # Reassigning ids after the constructor sorted them would break
        # the row order search relies on.
        idx = EmbeddingIndex(version=1, dim=1, ids=["a", "b"],
                             vectors=np.array([[1.0], [0.0]]))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(idx, field, getattr(idx, field))
        assert search(idx, np.ones(1), 1) == [("a", 1.0)]

    @pytest.mark.parametrize("field", [f.name for f in
                                       dataclasses.fields(PQIndex)])
    def test_pq_fields_cannot_be_reassigned(self, field):
        pidx = PQIndex(codebooks=np.array([[[1.0], [0.0]]]), ids=["a", "b"],
                       codes=np.array([[0], [1]]), version=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(pidx, field, getattr(pidx, field))
        assert pq_search(pidx, np.ones(1), 1) == [("a", 1.0)]


# Ids drawn from a small alphabet with NUL, so that shared prefixes and
# NUL-suffixed ids ("a" < "a\0" < "a\0\0") are common; numpy's fixed-width
# str_ arrays would drop the trailing NULs and tie them with "a".
ids_st = st.lists(st.text(alphabet="ab\0", max_size=3), min_size=1,
                  max_size=12, unique=True)


@st.composite
def tied_search_case(draw):
    """Unsorted unique ids, integer-valued vectors and query (so scores are
    exact and ties common), and k below, at or above N."""
    ids = draw(ids_st)
    n, dim = len(ids), draw(st.integers(1, 3))
    values = st.integers(-2, 2)
    vectors = np.array(draw(st.lists(st.lists(values, min_size=dim,
                                              max_size=dim),
                                     min_size=n, max_size=n)), dtype=float)
    queries = np.array(draw(st.lists(st.lists(values, min_size=dim,
                                              max_size=dim),
                                     min_size=1, max_size=3)), dtype=float)
    k = draw(st.sampled_from([1, max(n - 1, 1), n, n + 1, 2 * n + 3]))
    return ids, vectors, queries, k


class TestSelectionProperty:
    @given(tied_search_case())
    @settings(max_examples=300, deadline=None)
    def test_every_search_equals_brute_force(self, case):
        ids, vectors, queries, k = case
        want = [brute_force_search(ids, vectors, q, k) for q in queries]
        idx = EmbeddingIndex(version=1, dim=vectors.shape[1], ids=list(ids),
                             vectors=vectors.copy())
        assert [search(idx, q, k) for q in queries] == want
        assert search_batch(idx, queries, k) == want
        # One subspace whose codebook holds every vector exactly, so the
        # asymmetric scores are the exact dot products.
        pidx = PQIndex(codebooks=vectors[None].copy(), ids=list(ids),
                       codes=np.arange(len(ids))[:, None], version=1)
        assert [pq_search(pidx, q, k) for q in queries] == want


class TestIndexFile:
    @pytest.mark.parametrize("precision", ["float32", "float16"])
    def test_round_trip(self, tmp_path, precision):
        passages = make_passages(7)
        idx = build(passages, make_encoder(passages), precision=precision)
        path = tmp_path / "idx.ridx"
        save_index(idx, path)
        loaded = load_index(path)
        assert loaded.ids == idx.ids
        assert loaded.version == idx.version
        assert loaded.precision == precision
        np.testing.assert_array_equal(loaded.vectors, idx.vectors)
        # Bit-exact: saving again reproduces the file.
        save_index(loaded, tmp_path / "idx2.ridx")
        assert path.read_bytes() == (tmp_path / "idx2.ridx").read_bytes()

    def test_truncated_names_file(self, tmp_path):
        idx = random_index(6, 4)
        path = tmp_path / "idx.ridx"
        save_index(idx, path)
        data = path.read_bytes()
        id_start = 4 + 25
        vec_start = len(data) - 6 * 4 * 4
        for cut in (0, 3, 10, id_start + 5, vec_start + 2, len(data) - 1):
            path.write_bytes(data[:cut])
            with pytest.raises(FormatError, match="idx.ridx.*truncated"):
                load_index(path)

    @pytest.mark.parametrize("mangle", [
        lambda b: b"XXXX" + b[4:],  # magic
        lambda b: b + b"\0",  # trailing bytes
        lambda b: b[:16] + b"\x07" + b[17:],  # precision code
        lambda b: b[:17] + b"\x09" + b[18:],  # N: 9 rows, 6 ids
        lambda b: b[:29] + b"\0\0\0\0" + b[33:],  # shards = 0
        lambda b: b[:33] + b"\x02" + b[34:],  # two dump dates
    ])
    def test_malformed_is_format_error(self, tmp_path, mangle):
        path = tmp_path / "idx.ridx"
        save_index(random_index(6, 4), path)
        path.write_bytes(mangle(path.read_bytes()))
        with pytest.raises(FormatError, match="idx.ridx"):
            load_index(path)

    @pytest.mark.parametrize("table", [b"b\na\na", b"b\na\nc", b"a\na\nc"])
    def test_ids_not_strictly_ascending_is_format_error(self, tmp_path,
                                                        table):
        # Written as "a\nb\nc", then the id table is overwritten in place.
        path = tmp_path / "idx.ridx"
        save_index(EmbeddingIndex(version=1, dim=2, ids=["a", "b", "c"],
                                  vectors=np.eye(3, 2)), path)
        data = path.read_bytes()
        at = data.index(b"a\nb\nc")
        path.write_bytes(data[:at] + table + data[at + len(table):])
        with pytest.raises(FormatError, match="idx.ridx.*not strictly ascending"):
            load_index(path)

    @pytest.mark.parametrize("dump_date, shards",
                             [("2017-12-20", 3), (None, 1), ("", 2)])
    def test_metadata_round_trip(self, tmp_path, dump_date, shards):
        idx = dataclasses.replace(random_index(4, 2, shards=shards),
                                  dump_date=dump_date)
        path = tmp_path / "idx.ridx"
        save_index(idx, path)
        loaded = load_index(path)
        assert (loaded.dump_date, loaded.shards) == (dump_date, shards)
        save_index(loaded, tmp_path / "idx2.ridx")
        assert path.read_bytes() == (tmp_path / "idx2.ridx").read_bytes()

    def test_format_1_file_exits_1(self, tmp_path, capsys):
        # Format 1 had no shards or dump_date fields.
        vectors = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "v1.ridx"
        path.write_bytes(b"RIDX" + struct.pack("<IIIBIQ", 1, 5, 2, 0, 2, 3)
                         + b"a\nb" + vectors.astype("<f4").tobytes())
        with pytest.raises(FormatError, match="v1.ridx.*format 1"):
            load_index(path)
        checkpoint = tmp_path / "enc.rlab"
        save_checkpoint(init_encoder(Vocab(["a"]), 2), checkpoint)
        capsys.readouterr()
        assert main(["search", "--index", str(path), "--checkpoint",
                     str(checkpoint), "--query", "a"]) == 1
        assert "unsupported index format 1" in capsys.readouterr().err

    def test_newline_in_dump_date_rejected_before_write(self, tmp_path):
        idx = dataclasses.replace(random_index(2, 2), dump_date="2017\n12")
        path = tmp_path / "idx.ridx"
        with pytest.raises(ValueError, match="dump_date"):
            save_index(idx, path)
        assert not path.exists()

    def test_newline_in_id_rejected_before_write(self, tmp_path):
        # "a\nb" would read back as two ids for one row.
        idx = EmbeddingIndex(version=1, dim=2, ids=["a\nb", "c"],
                             vectors=np.ones((2, 2)))
        path = tmp_path / "idx.ridx"
        with pytest.raises(ValueError, match=r"'a\\nb'"):
            save_index(idx, path)
        assert not path.exists()

    @pytest.mark.parametrize("precision", ["float32", "float16"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_is_format_error(self, tmp_path, precision,
                                               value):
        # A NaN row would score NaN and drop out of every search.
        path = tmp_path / "idx.ridx"
        save_index(dataclasses.replace(random_index(3, 2),
                                       precision=precision), path)
        bad = np.array([value], dtype=PRECISIONS[precision]).tobytes()
        data = path.read_bytes()
        at = len(data) - 3 * len(bad)  # the second row's last value
        path.write_bytes(data[:at] + bad + data[at + len(bad):])
        with pytest.raises(FormatError, match="idx.ridx.*non-finite"):
            load_index(path)

    @pytest.mark.parametrize("precision, value", [
        ("float32", np.nan), ("float32", -np.inf), ("float32", 1e39),
        ("float16", np.nan), ("float16", 7e4)])  # 1e39, 7e4 overflow
    def test_non_finite_vector_rejected_before_write(self, tmp_path,
                                                     precision, value):
        vectors = np.ones((2, 2))
        vectors[1, 0] = value
        idx = EmbeddingIndex(version=1, dim=2, ids=["a", "b"],
                             vectors=vectors, precision=precision)
        path = tmp_path / "idx.ridx"
        with pytest.raises(ValueError, match="non-finite"):
            save_index(idx, path)
        assert not path.exists()

    def test_float16_overflow_in_build_not_saved(self, tmp_path):
        passages = make_passages(3)
        enc = make_encoder(passages)
        enc.doc.projection *= 1e6
        with np.errstate(over="ignore"):
            idx = build(passages, enc, precision="float16")
        assert np.isinf(idx.vectors).any()
        path = tmp_path / "idx.ridx"
        with pytest.raises(ValueError, match="non-finite"):
            save_index(idx, path)
        assert not path.exists()

    def test_float16_rounds_on_write(self):
        passages = make_passages(3)
        idx = build(passages, make_encoder(passages), precision="float16")
        np.testing.assert_array_equal(
            idx.vectors, idx.vectors.astype(np.float16).astype(np.float64))

    def test_memory_bytes(self):
        idx = random_index(10, 8)
        assert idx.memory_bytes() == 10 * 8 * 4
        idx = dataclasses.replace(idx, precision="float16")
        assert idx.memory_bytes() == 10 * 8 * 2
