import errno
import mmap
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rlab import formats, retriever
from rlab.cli import main
from rlab.corpus import TokenTable, read_passages, write_passages
from rlab.index import EmbeddingIndex, FormatError, build, save_index
from rlab.lm import OverlapLM
from rlab.retriever import (DualEncoder, EncoderParams, Gradients,
                            MaintenanceMode, Vocab, _backprop_side,
                            check_distribution, encode_doc, encode_query,
                            encode_texts, encoder_gradient, init_encoder,
                            load_checkpoint, retrieval_distribution,
                            retriever_gradient, save_checkpoint, sum_rows)
from rlab.trainer import TrainConfig, init_state, train_step

from needle import make_needle_task
from oracles import mp_softmax


@pytest.fixture
def small_encoder():
    vocab = Vocab([f"t{i}" for i in range(20)])
    return init_encoder(vocab, dim=4, seed=7)


class TestEncode:
    def test_mean_pooling(self, small_encoder):
        enc = small_encoder
        a = enc.query.embedding[enc.vocab.rows(["t1"])[0]]
        b = enc.query.embedding[enc.vocab.rows(["t2"])[0]]
        np.testing.assert_allclose(encode_query(enc, ["t1", "t2"]), (a + b) / 2)

    def test_single_token(self, small_encoder):
        enc = small_encoder
        np.testing.assert_allclose(
            encode_query(enc, ["t3"]),
            enc.query.embedding[enc.vocab.rows(["t3"])[0]])

    def test_duplicate_tokens_mean(self, small_encoder):
        enc = small_encoder
        np.testing.assert_allclose(encode_query(enc, ["t1", "t1"]),
                                   encode_query(enc, ["t1"]))

    def test_empty_input_raises(self, small_encoder):
        with pytest.raises(ValueError, match="empty input"):
            encode_query(small_encoder, [])

    def test_unknown_token_maps_to_unk(self, small_encoder):
        enc = small_encoder
        np.testing.assert_allclose(encode_query(enc, ["never-seen"]),
                                   enc.query.embedding[0])

    def test_projection_applied(self, small_encoder):
        enc = small_encoder
        enc.query.projection = np.diag([2.0, 1.0, 1.0, 1.0])
        vec = encode_query(enc, ["t1"])
        base = enc.query.embedding[enc.vocab.rows(["t1"])[0]]
        assert vec[0] == pytest.approx(2 * base[0])


# Short tokens over a few characters share prefixes; UNK, NUL and
# non-ASCII characters are among them.
TOKENS = st.one_of(st.sampled_from(["<unk>", "<unk>\0", "<un", "\0", "é"]),
                   st.text(alphabet="<unk>\0é中", max_size=6))


def per_text(params, rows, lengths):
    """Each text's float64 mean of its embedding rows, upcast before the
    mean, and the projection of that mean: the per-text reference."""
    pooled, vectors, end = [], [], 0
    for n in lengths:
        mean = np.asarray(params.embedding[rows[end:end + n]],
                          dtype=np.float64).mean(axis=0)
        pooled.append(mean)
        vectors.append(params.projection @ mean)
        end += n
    return np.array(pooled), np.array(vectors)


class TestEncodeTexts:
    """encode_texts pools many texts at once, bit-equal to pooling each
    text alone."""

    @staticmethod
    def params(dim, seed, vocab=50):
        rng = np.random.default_rng(seed)
        return EncoderParams(rng.normal(size=(vocab, dim)),
                             rng.normal(size=(dim, dim)))

    @staticmethod
    def check(params, lengths, seed=0):
        rows = np.random.default_rng(seed).integers(
            0, len(params.embedding), int(np.sum(lengths)))
        pooled, vectors = encode_texts(params, rows, lengths)
        want_pooled, want_vectors = per_text(params, rows, lengths)
        assert pooled.tobytes() == want_pooled.tobytes()
        assert vectors.tobytes() == want_vectors.tobytes()
        ends = np.cumsum(lengths)
        assert vectors.tobytes() == np.concatenate(
            [encode_texts(params, rows[end - n:end], [n])[1]
             for n, end in zip(lengths, ends)]).tobytes()

    @pytest.mark.parametrize("dim", [1, 3, 16])
    def test_mixed_lengths_and_projection(self, dim):
        # Lengths in no order, with repeats; a random (non-identity)
        # projection.
        lengths = np.random.default_rng(dim).integers(1, 40, 300)
        self.check(self.params(dim, seed=dim), lengths)

    def test_identity_projection(self):
        params = self.params(8, seed=1)
        params.projection = np.eye(8)
        self.check(params, [3, 1, 3, 7, 1])

    def test_groups_larger_than_a_block(self):
        # One group of many short texts spanning several blocks, and texts
        # longer than a block on their own.
        block = retriever._BLOCK_ROWS
        lengths = [3] * (block // 3 * 2 + 5) + [block + 7, 2, block + 7]
        self.check(self.params(4, seed=2), lengths)

    def test_loaded_float32_checkpoint(self, tmp_path):
        # The table is float32 and read-only; only gathered rows are
        # upcast, and the means equal those of the table upcast whole.
        enc = init_encoder(Vocab([f"t{i}" for i in range(60)]), 8, seed=4)
        enc.doc.projection[:] = np.random.default_rng(4).normal(size=(8, 8))
        save_checkpoint(enc, tmp_path / "enc.rlab")
        doc = load_checkpoint(tmp_path / "enc.rlab").doc
        assert doc.embedding.dtype == np.float32
        lengths = np.random.default_rng(5).integers(1, 20, 100)
        self.check(doc, lengths, seed=6)
        whole = EncoderParams(doc.embedding.astype(np.float64), doc.projection)
        rows = np.arange(int(lengths.sum())) % len(doc.embedding)
        for got, want in zip(encode_texts(doc, rows, lengths),
                             encode_texts(whole, rows, lengths)):
            assert got.tobytes() == want.tobytes()

    def test_no_texts(self):
        pooled, vectors = encode_texts(self.params(5, seed=0),
                                       np.zeros(0, dtype=np.int64), [])
        assert pooled.shape == vectors.shape == (0, 5)

    def test_an_empty_text_raises(self):
        with pytest.raises(ValueError, match="empty input"):
            encode_texts(self.params(3, seed=0), np.array([1, 2]), [2, 0])


class TestVocab:
    """Rows against a dict built from the vocab's tokens: UNK and tokens
    not in the vocab get row 0."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(TOKENS, max_size=12), st.lists(TOKENS, max_size=12))
    @example([], ["<unk>", "a", ""])  # a one-token vocab
    @example(["<unk>", "<unk>"], ["<unk>"])
    def test_rows_equal_a_dict_reference(self, vocab_tokens, others):
        vocab = Vocab(vocab_tokens)
        reference = {t: i for i, t in enumerate(vocab.tokens)}
        assert vocab.tokens[0] == "<unk>"
        assert vocab.tokens[1:] == sorted(set(vocab_tokens) - {"<unk>"})
        text = others + vocab_tokens
        rows = vocab.rows(text)
        assert rows.dtype == np.int64
        assert rows.tolist() == [reference.get(t, 0) for t in text]
        table = TokenTable([others, vocab_tokens[::-1], [], others])
        rows = table.vocab_rows(vocab)
        assert rows.dtype == np.int32
        assert rows.tolist() == [reference.get(t, 0) for t in
                                 others + vocab_tokens[::-1] + others]

    def test_table_rows_equal_text_rows(self):
        # Each needle passage's terms occur once in the corpus; the last
        # two texts repeat terms within and across texts.
        passages, _, encoder = make_needle_task(n_passages=300, n_examples=2,
                                                dim=4, seed=5)
        texts = [p.text for p in passages] + [
            ("<unk>", "absent", "\0", "absent"), passages[0].text]
        rows = TokenTable(texts).vocab_rows(encoder.vocab)
        assert rows.dtype == np.int32
        assert np.array_equal(
            rows, encoder.vocab.rows([t for text in texts for t in text]))


class TestInitEncoder:
    @pytest.mark.parametrize("dim", [0, -1])
    def test_dim_must_be_positive(self, dim):
        # dim 0 drew from uniform(-inf, inf) and raised OverflowError.
        with pytest.raises(ValueError, match="dim"):
            init_encoder(Vocab(["a"]), dim)

    def test_sides_equal_and_separate(self):
        enc = init_encoder(Vocab([f"t{i}" for i in range(50)]), 8, seed=3)
        for name in ("embedding", "projection"):
            q, d = getattr(enc.query, name), getattr(enc.doc, name)
            assert q.dtype == d.dtype == np.float64
            assert q.tobytes() == d.tobytes()
            assert not np.shares_memory(q, d)

    def test_two_tables_at_a_time(self):
        # The drawn table and two copies of it were alive at once.
        vocab, dim = Vocab([f"t{i}" for i in range(5000)]), 32
        table = len(vocab) * dim * 8
        tracemalloc.start()
        try:
            init_encoder(vocab, dim, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 2 * table <= peak < 2.5 * table


class TestRetrievalDistribution:
    def test_equal_scores_uniform(self):
        np.testing.assert_allclose(retrieval_distribution([2.0] * 4, 1.0),
                                   [0.25] * 4)

    def test_single_doc(self):
        np.testing.assert_allclose(retrieval_distribution([3.0], 0.5), [1.0])

    def test_logistic_value(self):
        probs = retrieval_distribution([1.0, 0.0], 1.0)
        np.testing.assert_allclose(probs, [0.7311, 0.2689], atol=1e-4)

    def test_matches_extended_precision(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            scores = rng.normal(size=rng.integers(1, 6)) * 10
            theta = float(rng.uniform(0.05, 2.0))
            got = retrieval_distribution(scores, theta)
            np.testing.assert_allclose(got, mp_softmax(scores, theta),
                                       rtol=1e-12, atol=1e-15)

    def test_shift_invariance(self):
        scores = [0.3, -1.2, 2.0]
        np.testing.assert_allclose(
            retrieval_distribution(scores, 0.7),
            retrieval_distribution([s + 100 for s in scores], 0.7))

    def test_temperature_limits(self):
        scores = [3.0, 1.0, -2.0]
        hot = retrieval_distribution(scores, 1e6)
        np.testing.assert_allclose(hot, [1 / 3] * 3, atol=1e-4)
        cold = retrieval_distribution(scores, 1e-6)
        assert cold[0] > 1 - 1e-9

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            retrieval_distribution([1.0], 0.0)
        with pytest.raises(ValueError):
            retrieval_distribution([np.inf, 0.0], 1.0)

    @pytest.mark.parametrize("temperature",
                             [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_temperature_must_be_finite_and_positive(self, temperature):
        with pytest.raises(ValueError, match="temperature must be finite"):
            retrieval_distribution([1.0, 0.0], temperature)

    @pytest.mark.parametrize("p", [[np.nan, 0.5], [0.5, np.nan, 0.5],
                                   [np.inf, 0.5], [-np.inf, np.inf],
                                   [np.nan, np.nan]])
    def test_check_distribution_rejects_non_finite(self, p):
        with pytest.raises(ValueError, match="not a valid distribution"):
            check_distribution(np.array(p), "p")

    def test_always_a_distribution(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            probs = retrieval_distribution(rng.normal(size=5) * 50, 0.1)
            assert np.all(probs >= 0)
            assert abs(probs.sum() - 1.0) < 1e-9


def kl_of_params(enc, query, docs, target, theta):
    q = encode_query(enc, query)
    d = np.stack([encode_doc(enc, doc) for doc in docs])
    probs = retrieval_distribution(d @ q, theta)
    target = np.asarray(target)
    sup = target > 0
    return float(np.sum(target[sup] * np.log(target[sup] / probs[sup])))


class TestRetrieverGradient:
    def make(self, seed=0, dim=4):
        vocab = Vocab([f"t{i}" for i in range(12)])
        return init_encoder(vocab, dim=dim, seed=seed)

    def test_zero_at_minimum(self):
        enc = self.make()
        query = ["t0", "t1"]
        docs = [["t2"], ["t3"], ["t4"]]
        q = encode_query(enc, query)
        d = np.stack([encode_doc(enc, doc) for doc in docs])
        target = retrieval_distribution(d @ q, 1.0)
        grads = retriever_gradient(enc, query, docs, target, 1.0,
                                   MaintenanceMode.FULL_REFRESH)
        assert np.abs(grads.query_embedding).max() < 1e-12
        assert np.abs(grads.doc_embedding).max() < 1e-12

    def test_fixed_mode_errors(self):
        enc = self.make()
        with pytest.raises(ValueError, match="frozen"):
            retriever_gradient(enc, ["t0"], [["t1"]], np.array([1.0]), 1.0,
                               MaintenanceMode.FIXED)

    @pytest.mark.parametrize("target", [[1.0], [0.5, 0.5], [0.25] * 4, []])
    def test_target_length_must_match_docs(self, target):
        # [1.0] against three documents returned a gradient; the others
        # failed only as numpy's "could not be broadcast".
        enc = self.make()
        with pytest.raises(ValueError,
                           match=f"{len(target)} target_probs for 3 docs"):
            retriever_gradient(enc, ["t0"], [["t1"], ["t2"], ["t3"]],
                               np.array(target), 1.0,
                               MaintenanceMode.FULL_REFRESH)

    def test_query_side_doc_grads_zero(self):
        enc = self.make()
        grads = retriever_gradient(enc, ["t0"], [["t1"], ["t2"]],
                                   np.array([1.0, 0.0]), 0.5,
                                   MaintenanceMode.QUERY_SIDE)
        assert np.all(grads.doc_embedding == 0.0)
        assert np.all(grads.doc_projection == 0.0)
        assert np.abs(grads.query_embedding).max() > 0

    @pytest.mark.parametrize("mode", [MaintenanceMode.QUERY_SIDE,
                                      MaintenanceMode.RERANK,
                                      MaintenanceMode.FULL_REFRESH])
    def test_encoder_gradient_from_given_means(self, mode):
        # The backprop takes the pooled means of the forward pass instead
        # of pooling again; given means from the per-text reference, it
        # equals retriever_gradient bit for bit.
        enc = self.make(seed=3, dim=5)
        enc.doc.projection[:] = np.random.default_rng(3).normal(size=(5, 5))
        query = ["t0", "t1", "t0", "t9"]
        docs = [["t2", "t3"], ["t4"], ["t2", "t5", "t6", "t2"], ["t7", "t1"]]
        target, theta = np.array([0.1, 0.2, 0.3, 0.4]), 0.7
        query_rows = enc.vocab.rows(query)
        doc_rows = enc.vocab.rows([t for d in docs for t in d])
        q_lengths, lengths = np.array([len(query)]), [len(d) for d in docs]
        q_pooled, q_vecs = per_text(enc.query, query_rows, q_lengths)
        d_pooled, d_vecs = per_text(enc.doc, doc_rows, lengths)
        g_scores = (retrieval_distribution(d_vecs @ q_vecs[0], theta)
                    - target) / theta
        given = (doc_rows, np.array(lengths), d_pooled)
        got = encoder_gradient(enc, (query_rows, q_lengths, q_pooled, q_vecs),
                               [g_scores], [d_vecs],
                               given if mode.trains_docs else None, 1.0)
        want = retriever_gradient(enc, query, docs, target, theta, mode)
        for field in ("query_rows", "query_values", "query_projection",
                      "doc_rows", "doc_values", "doc_projection"):
            assert (getattr(got, field).tobytes()
                    == getattr(want, field).tobytes()), field
        assert mode.trains_docs == bool(np.any(got.doc_projection))

    @pytest.mark.parametrize("mode", [MaintenanceMode.QUERY_SIDE,
                                      MaintenanceMode.RERANK,
                                      MaintenanceMode.FULL_REFRESH])
    def test_finite_difference_agreement(self, mode):
        rng = np.random.default_rng(42)
        step = 1e-5
        for trial in range(20):
            dim = int(rng.integers(2, 9))
            k = int(rng.integers(2, 6))
            vocab = Vocab([f"t{i}" for i in range(10)])
            enc = init_encoder(vocab, dim=dim, seed=trial)
            query = [f"t{rng.integers(10)}" for _ in range(3)]
            docs = [[f"t{rng.integers(10)}" for _ in range(2)] for _ in range(k)]
            target = rng.dirichlet(np.ones(k))
            theta = float(rng.uniform(0.2, 2.0))

            grads = retriever_gradient(enc, query, docs, target, theta, mode)

            tables = [("query", enc.query.embedding, grads.query_embedding),
                      ("query_proj", enc.query.projection, grads.query_projection)]
            if mode.trains_docs:
                tables += [("doc", enc.doc.embedding, grads.doc_embedding),
                           ("doc_proj", enc.doc.projection, grads.doc_projection)]
            for name, table, grad in tables:
                flat_idx = rng.integers(table.size, size=4)
                for fi in flat_idx:
                    orig = table.flat[fi]
                    table.flat[fi] = orig + step
                    hi = kl_of_params(enc, query, docs, target, theta)
                    table.flat[fi] = orig - step
                    lo = kl_of_params(enc, query, docs, target, theta)
                    table.flat[fi] = orig
                    fd = (hi - lo) / (2 * step)
                    scale = max(abs(fd), abs(grad.flat[fi]), 1e-8)
                    assert abs(fd - grad.flat[fi]) / scale < 1e-4, name


def per_text_backprop(params, rows, lengths, pooled, grad_vecs, counts, scale):
    """Reference for `_backprop_side`, one text at a time: per example a
    zero projection gradient `+= np.outer(g, pooled)` and the matvec
    `projection.T @ g` broadcast over the text's tokens, the example's
    rows summed by `sum_rows` and scaled; then one more `sum_rows` adds
    each row's examples in example order."""
    d = params.projection.shape[0]
    all_rows, all_values = [np.zeros(0, dtype=np.int64)], [np.zeros((0, d))]
    projection = np.zeros((d, d))
    text, start = 0, 0
    for count in counts:
        example_projection = np.zeros((d, d))
        example_rows = [np.zeros(0, dtype=np.int64)]
        example_values = [np.zeros((0, d))]
        for _ in range(count):
            g, n = np.array(grad_vecs[text]), int(lengths[text])
            example_projection += np.outer(g, pooled[text])
            grad_pooled = params.projection.T @ g
            example_values.append(np.broadcast_to(grad_pooled / n, (n, d)))
            example_rows.append(rows[start:start + n])
            text, start = text + 1, start + n
        distinct, summed = sum_rows(np.concatenate(example_rows),
                                    np.concatenate(example_values))
        all_rows.append(distinct)
        all_values.append(scale * summed)
        projection += scale * example_projection
    return (*sum_rows(np.concatenate(all_rows), np.concatenate(all_values)),
            projection)


def backprop_case(seed, counts, max_len, d, vocab_size, zeros=0.3):
    """Texts grouped into examples of counts[i] texts, random lengths up to
    max_len over a small vocab (rows repeat within and across texts), with
    about `zeros` of the gradient entries +0.0 or -0.0 against pooled
    means of both signs, so some products are -0.0."""
    rng = np.random.default_rng(seed)
    counts = np.asarray(counts, dtype=np.int64)
    lengths = rng.integers(1, max_len + 1, counts.sum())
    rows = rng.integers(0, vocab_size, lengths.sum())
    texts = int(counts.sum())
    spread = 10.0 ** rng.integers(-8, 9, (texts, 1))
    pooled = rng.normal(size=(texts, d)) * spread
    grad_vecs = rng.normal(size=(texts, d)) * spread[::-1]
    grad_vecs[rng.random((texts, d)) < zeros] = 0.0
    grad_vecs[rng.random((texts, d)) < zeros / 2] = -0.0
    params = EncoderParams(rng.normal(size=(vocab_size, d)),
                           rng.normal(size=(d, d)))
    return params, rows, lengths, pooled, grad_vecs, counts


class TestBatchedBackprop:
    """`_backprop_side` over all of a step's texts makes the additions of
    the per-text loop, so its bytes equal it. numpy documents neither the
    order of `np.bincount`'s sums nor how BLAS splits a matvec; CI runs
    these under one and two BLAS threads."""

    @staticmethod
    def check(params, rows, lengths, pooled, grad_vecs, counts, scale):
        got = _backprop_side(params, rows, lengths, pooled, grad_vecs,
                             counts, scale)
        want = per_text_backprop(params, rows, lengths, pooled, grad_vecs,
                                 counts, scale)
        for name, g, w in zip(("rows", "values", "projection"), got, want):
            assert g.dtype == w.dtype and g.shape == w.shape, name
            assert g.tobytes() == w.tobytes(), name

    @pytest.mark.parametrize("counts, max_len, d", [
        ([1], 1, 3),  # one text of one token
        ([1], 6, 4),  # one text
        ([1] * 8, 5, 4),  # K = 1: the query side of a batch
        ([1] * 9, 1, 1),  # one-token texts, d = 1
        ([3, 1, 4], 1, 2),  # one-token texts in examples of unequal K
        ([2, 0, 3], 4, 3),  # an example that retrieved nothing
        ([0], 1, 2),  # a step whose one example retrieved nothing
        ([20] * 8, 12, 8),  # a rerank step
        ([5, 2, 7], 9, 1),
    ])
    @pytest.mark.parametrize("scale", [1.0, 1 / 3])
    def test_equals_per_text_loop(self, counts, max_len, d, scale):
        self.check(*backprop_case(len(counts) + d, counts, max_len, d, 7),
                   scale)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           counts=st.lists(st.integers(0, 12), min_size=1, max_size=9),
           max_len=st.integers(1, 10), d=st.integers(1, 9),
           vocab_size=st.integers(1, 40), batch=st.integers(1, 9))
    def test_random_steps(self, seed, counts, max_len, d, vocab_size, batch):
        self.check(*backprop_case(seed, counts, max_len, d, vocab_size),
                   1.0 / batch)

    @pytest.mark.parametrize("sign", [0.0, -0.0])
    def test_zero_gradients(self, sign):
        # Every product is a signed zero; the sums start from +0.0.
        params, rows, lengths, pooled, grad_vecs, counts = backprop_case(
            4, [2, 1, 3], 4, 3, 5)
        grad_vecs[:] = sign
        self.check(params, rows, lengths, pooled, grad_vecs, counts, 0.5)
        projection = _backprop_side(params, rows, lengths, pooled, grad_vecs,
                                    counts, 0.5)[2]
        assert not np.signbit(projection).any()


def add_at_rows(rows, values):
    """Oracle: np.add.at into a dense zero table, then its touched rows."""
    distinct = np.unique(rows)
    dense = np.zeros((int(rows.max(initial=-1)) + 1, values.shape[1]))
    np.add.at(dense, rows, values)
    return distinct, dense[distinct]


class TestSumRows:
    """sum_rows adds each row's values in the order np.add.at does, so the
    sparse SGD update stays bit-equal to a dense one."""

    @pytest.mark.parametrize("rows, values", [
        # Repeated, unsorted rows with values whose sum depends on order.
        ([5, 2, 5, 0, 2, 5], [[1e16, 1.0], [1.0, -0.0], [1.0, 3.0],
                              [-0.0, 2.5], [-1e16, 1e-300], [-1e16, 7.0]]),
        ([3, 3], [[-0.0, -0.0], [-0.0, 1.0]]),  # 0.0 + -0.0 is 0.0
        ([7], [[1.5, -0.0, 3.0]]),
        (np.zeros(0, dtype=np.int64), np.zeros((0, 4))),  # k_retrieved = 0
    ])
    def test_equals_add_at_bytes(self, rows, values):
        rows, values = np.asarray(rows), np.asarray(values, dtype=np.float64)
        got_rows, got = sum_rows(rows, values)
        want_rows, want = add_at_rows(rows, values)
        assert got_rows.tolist() == want_rows.tolist()
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 60),
           d=st.integers(1, 5))
    def test_random_and_broadcast_rows(self, seed, n, d):
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 8, size=n)
        values = rng.normal(size=(n, d)) * 10.0 ** rng.integers(-8, 9, (n, 1))
        for given_values in (values, np.broadcast_to(values[:1], values.shape)
                             if n else values):
            got_rows, got = sum_rows(rows, given_values)
            want_rows, want = add_at_rows(rows, given_values)
            assert got_rows.tolist() == want_rows.tolist()
            assert got.tobytes() == want.tobytes()


class TestCheckpoint:
    def test_round_trip(self, tmp_path, small_encoder):
        path = tmp_path / "enc.rlab"
        save_checkpoint(small_encoder, path)
        loaded = load_checkpoint(path)
        assert loaded.vocab.tokens == small_encoder.vocab.tokens
        # Tables are stored in 32-bit; round trip is exact at that width.
        np.testing.assert_allclose(loaded.query.embedding,
                                   small_encoder.query.embedding, atol=1e-7)
        save_checkpoint(loaded, tmp_path / "enc2.rlab")
        assert (tmp_path / "enc.rlab").read_bytes() == \
               (tmp_path / "enc2.rlab").read_bytes()

    def test_magic_checked(self, tmp_path):
        path = tmp_path / "bad.rlab"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def _saved(self, tmp_path, enc):
        path = tmp_path / "enc.rlab"
        save_checkpoint(enc, path)
        return path, path.read_bytes()

    @staticmethod
    def _tables_end(enc):
        """Byte offset of the vocab in a version 2 file (24-byte header)."""
        vsize, dim = len(enc.vocab), enc.dim
        return 24 + 4 * (2 * vsize * dim + 2 * dim * dim)

    def _with_vocab(self, blob, enc, vocab: bytes):
        """blob with its vocab replaced and the header's length to match."""
        return (blob[:16] + struct.pack("<Q", len(vocab))
                + blob[24:self._tables_end(enc)] + vocab)

    def test_truncated_raises_format_error(self, tmp_path, small_encoder):
        path, blob = self._saved(tmp_path, small_encoder)
        vsize, dim = len(small_encoder.vocab), small_encoder.dim
        tables_end = self._tables_end(small_encoder)
        for cut in (0, 2, 10, 20,                # magic, header
                    24 + 4 * vsize * dim // 2,   # query embedding
                    24 + 4 * vsize * dim + 4,    # query projection
                    tables_end - 1,              # doc projection
                    tables_end,                  # no vocab at all
                    tables_end + 9):             # inside the vocab
            path.write_bytes(blob[:cut])
            with pytest.raises(FormatError, match="enc.rlab"):
                load_checkpoint(path)

    def test_malformed_raises_format_error(self, tmp_path, small_encoder):
        path, blob = self._saved(tmp_path, small_encoder)
        vocab = blob[self._tables_end(small_encoder):]
        bad_version = blob[:4] + struct.pack("<I", 9) + blob[8:]
        not_utf8 = self._with_vocab(blob, small_encoder, vocab + b"\n\xff\xfe")
        extra_token = self._with_vocab(blob, small_encoder, vocab + b"\nextra")
        for data, message in ((b"NOPE" + blob[4:], "magic"),
                              (bad_version, "version 9"),
                              (not_utf8, "UTF-8"),
                              (extra_token, "tokens"),
                              (blob + b"x", "trailing")):
            path.write_bytes(data)
            with pytest.raises(FormatError, match=message):
                load_checkpoint(path)

    def test_cut_inside_last_token_raises(self, tmp_path, small_encoder):
        # The last token "t9" cut to "t" keeps the token count; only the
        # stored vocab length catches it.
        path, blob = self._saved(tmp_path, small_encoder)
        assert small_encoder.vocab.tokens[-1] == "t9"
        path.write_bytes(blob[:-1])
        with pytest.raises(FormatError, match="enc.rlab.*truncated"):
            load_checkpoint(path)

    def test_version_1_exits_1(self, tmp_path, small_encoder, capsys):
        # Version 1 had no vocab length; a file of it cut inside its last
        # token loaded with that token shortened.
        path, blob = self._saved(tmp_path, small_encoder)
        vsize, dim = len(small_encoder.vocab), small_encoder.dim
        path.write_bytes(b"RLAB" + struct.pack("<III", 1, dim, vsize)
                         + blob[24:-1])
        with pytest.raises(FormatError, match="enc.rlab.*version 1"):
            load_checkpoint(path)
        index = tmp_path / "idx.ridx"
        save_index(EmbeddingIndex(version=1, dim=dim, ids=["a"],
                                  vectors=np.ones((1, dim))), index)
        capsys.readouterr()
        assert main(["search", "--index", str(index), "--checkpoint",
                     str(path), "--query", "t1"]) == 1
        assert "unsupported checkpoint version 1" in capsys.readouterr().err

    @pytest.mark.parametrize("table", range(4))
    def test_non_finite_table_is_format_error(self, tmp_path, small_encoder,
                                              table):
        path, blob = self._saved(tmp_path, small_encoder)
        vsize, dim = len(small_encoder.vocab), small_encoder.dim
        sizes = [vsize * dim, dim * dim, vsize * dim, dim * dim]
        at = 24 + 4 * sum(sizes[:table])  # the table's first value
        blob = blob[:at] + np.array([np.nan], "<f4").tobytes() + blob[at + 4:]
        path.write_bytes(blob)
        with pytest.raises(FormatError, match="enc.rlab.*non-finite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("table", ["query.embedding", "query.projection",
                                       "doc.embedding", "doc.projection"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e39])
    def test_non_finite_table_rejected_before_write(self, tmp_path,
                                                    small_encoder, table,
                                                    value):
        side, name = table.split(".")
        getattr(getattr(small_encoder, side), name)[0, 0] = value
        path = tmp_path / "enc.rlab"
        with pytest.raises(ValueError, match="non-finite"):
            save_checkpoint(small_encoder, path)
        assert not path.exists()

    @pytest.mark.parametrize("side, table, shape", [
        ("doc", "embedding", (21, 3)),  # the two sides differ in d
        ("query", "embedding", (20, 4)),  # |V| is 21
        ("doc", "embedding", (22, 4)),
        ("query", "projection", (4, 3)),
        ("doc", "projection", (3, 3)),
    ])
    def test_table_shapes_checked_before_write(self, tmp_path, small_encoder,
                                               side, table, shape):
        # Each of these saved, and then the load failed.
        setattr(getattr(small_encoder, side), table, np.zeros(shape))
        path = tmp_path / "enc.rlab"
        with pytest.raises(ValueError, match=f"{side} {table} of shape"):
            save_checkpoint(small_encoder, path)
        assert not path.exists()

    def test_newline_in_vocab_token_rejected_before_write(self, tmp_path):
        enc = init_encoder(Vocab(["a", "b\nc"]), dim=2)
        path = tmp_path / "enc.rlab"
        with pytest.raises(ValueError, match=r"'b\\nc'"):
            save_checkpoint(enc, path)
        assert not path.exists()

    @pytest.mark.parametrize("tokens", [
        [],  # no UNK row: any lookup indexes an empty table
        ["<unk>", "ab", "ab"],  # "ab" answers to row 2, row 1 is orphaned
        ["ab", "<unk>"],  # unknown tokens would share the row of "ab"
        ["<unk>", "b", "a"],  # each token once, but a bisection misses "a"
        ["<unk>", "<unk>", "ab"],  # ascending after row 0, UNK at row 1
    ])
    def test_bad_vocab_table_rejected(self, tmp_path, tokens):
        vocab = Vocab.__new__(Vocab)
        vocab.tokens = tokens
        vocab.index = {t: i for i, t in enumerate(tokens)}
        side = EncoderParams(np.zeros((len(tokens), 4)), np.eye(4))
        path, _ = self._saved(tmp_path, DualEncoder(vocab, side, side))
        with pytest.raises(FormatError, match="enc.rlab.*vocab"):
            load_checkpoint(path)
        index = tmp_path / "idx.ridx"
        save_index(EmbeddingIndex(version=1, dim=4, ids=["a"],
                                  vectors=np.ones((1, 4))), index)
        assert main(["search", "--index", str(index), "--checkpoint",
                     str(path), "--query", "ab cd"]) == 1


def _upcast_whole(blob: bytes, side: str, text) -> np.ndarray:
    """Oracle for one side's vector of text, straight from version 2 RLAB
    bytes: both tables of the side upcast to float64 whole, then the
    projection of the mean of the text's rows (unknown tokens: row 0)."""
    dim, vsize = struct.unpack_from("<II", blob, 8)
    sizes = [vsize * dim, dim * dim, vsize * dim, dim * dim]
    tables, at = [], 24
    for n in sizes:
        tables.append(np.frombuffer(blob, "<f4", n, at).astype(np.float64))
        at += 4 * n
    tokens = blob[at:].decode("utf-8").split("\n")
    first = 0 if side == "query" else 2
    emb = tables[first].reshape(vsize, dim)
    proj = tables[first + 1].reshape(dim, dim)
    rows = [tokens.index(t) if t in tokens else 0 for t in text]
    return proj @ emb[rows].mean(axis=0)


class TestMappedCheckpoint:
    """A loaded encoder maps its embedding tables from the file."""

    @staticmethod
    def _encoder(n_tokens=20, dim=4, seed=7):
        enc = init_encoder(Vocab([f"t{i}" for i in range(n_tokens)]), dim,
                           seed=seed)
        rng = np.random.default_rng(seed)
        for side in (enc.query, enc.doc):  # untied sides, real projections
            side.embedding += rng.normal(scale=0.1, size=side.embedding.shape)
            side.projection[:] = rng.normal(size=(dim, dim))
        return enc

    def test_vectors_equal_the_tables_upcast_whole(self, tmp_path):
        path = tmp_path / "enc.rlab"

        @settings(max_examples=40, deadline=None)
        @given(st.integers(1, 30), st.integers(1, 8), st.integers(0, 2 ** 32),
               st.lists(st.integers(-1, 40), min_size=1, max_size=12))
        def check(n_tokens, dim, seed, picks):
            save_checkpoint(self._encoder(n_tokens, dim, seed), path)
            blob = path.read_bytes()
            loaded = load_checkpoint(path)
            text = [f"t{i}" if i >= 0 else "<unseen>" for i in picks]
            for side, got in (("query", encode_query(loaded, text)),
                              ("doc", encode_doc(loaded, text))):
                want = _upcast_whole(blob, side, text)
                assert got.dtype == np.float64
                assert got.tobytes() == want.tobytes(), side
        check()

    def test_embedding_tables_are_read_only_float32(self, tmp_path):
        path = tmp_path / "enc.rlab"
        save_checkpoint(self._encoder(), path)
        loaded = load_checkpoint(path)
        for side in (loaded.query, loaded.doc):
            assert side.embedding.dtype == np.float32
            assert not side.embedding.flags.writeable
            assert side.projection.dtype == np.float64
            with pytest.raises(ValueError, match="read-only"):
                side.embedding[0, 0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                side.embedding[np.array([1, 1])] -= 0.5

    def test_training_a_loaded_encoder_raises_and_its_copy_trains(
            self, tmp_path):
        passages, examples, encoder = make_needle_task(
            n_passages=30, n_examples=8, dim=16, seed=0)
        path = tmp_path / "enc.rlab"
        save_checkpoint(encoder, path)
        cfg = TrainConfig(mode=MaintenanceMode.QUERY_SIDE, steps=1)
        loaded = load_checkpoint(path)
        with pytest.raises(ValueError, match="read-only"):
            train_step(init_state(loaded, passages), examples[:4], cfg,
                       OverlapLM(vocab_size=5000))
        copied = loaded.copy()
        train_step(init_state(copied, passages), examples[:4], cfg,
                   OverlapLM(vocab_size=5000))
        assert not np.array_equal(copied.query.embedding,
                                  loaded.query.embedding)

    def test_copy_is_writeable_float64(self, tmp_path):
        path = tmp_path / "enc.rlab"
        save_checkpoint(self._encoder(), path)
        loaded = load_checkpoint(path)
        copied = loaded.copy()
        for got, stored in ((copied.query, loaded.query),
                            (copied.doc, loaded.doc)):
            for table, original in ((got.embedding, stored.embedding),
                                    (got.projection, stored.projection)):
                assert table.dtype == np.float64 and table.flags.writeable
                assert table.tobytes() == original.astype(np.float64).tobytes()
                assert not np.shares_memory(table, original)

    def test_index_from_checkpoint_equals_index_from_copy(self, tmp_path):
        passages, _, encoder = make_needle_task(n_passages=30, n_examples=8,
                                                dim=16, seed=0)
        ckpt, jsonl = tmp_path / "enc.rlab", tmp_path / "passages.jsonl"
        save_checkpoint(encoder, ckpt)
        write_passages(passages, jsonl)
        assert main(["build-index", "--passages", str(jsonl), "--out",
                     str(tmp_path / "cli.ridx"), "--checkpoint",
                     str(ckpt)]) == 0
        save_index(build(read_passages(jsonl), load_checkpoint(ckpt).copy()),
                   tmp_path / "copy.ridx")
        assert ((tmp_path / "cli.ridx").read_bytes()
                == (tmp_path / "copy.ridx").read_bytes())

    def test_replacing_the_file_leaves_a_loaded_encoder_unchanged(
            self, tmp_path):
        path = tmp_path / "enc.rlab"
        save_checkpoint(self._encoder(seed=1), path)
        loaded = load_checkpoint(path)
        before = loaded.copy()
        vec = encode_query(loaded, ["t1", "t2"])
        replacement = self._encoder(seed=2)
        save_checkpoint(replacement, path)
        for got, want in ((loaded.query, before.query),
                          (loaded.doc, before.doc)):
            np.testing.assert_array_equal(got.embedding, want.embedding)
        assert encode_query(loaded, ["t1", "t2"]).tobytes() == vec.tobytes()
        np.testing.assert_array_equal(
            load_checkpoint(path).query.embedding,
            replacement.query.embedding.astype(np.float32))

    @pytest.mark.parametrize("table", range(4))
    def test_cut_inside_each_table_exits_1(self, tmp_path, table):
        enc = self._encoder()
        path = tmp_path / "enc.rlab"
        save_checkpoint(enc, path)
        blob = path.read_bytes()
        vsize, dim = len(enc.vocab), enc.dim
        sizes = [vsize * dim, dim * dim, vsize * dim, dim * dim]
        cut = 24 + 4 * sum(sizes[:table]) + 4 * sizes[table] // 2
        path.write_bytes(blob[:cut])
        with pytest.raises(FormatError, match="enc.rlab.*truncated"):
            load_checkpoint(path)
        index = tmp_path / "idx.ridx"
        save_index(EmbeddingIndex(version=1, dim=dim, ids=["a"],
                                  vectors=np.ones((1, dim))), index)
        assert main(["search", "--index", str(index), "--checkpoint",
                     str(path), "--query", "t1"]) == 1

    def test_failed_mapping_is_a_format_error(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError(errno.ENODEV, "No such device")

        path = tmp_path / "enc.rlab"
        save_checkpoint(self._encoder(), path)
        monkeypatch.setattr(formats, "mmap", SimpleNamespace(
            mmap=refuse, ACCESS_READ=mmap.ACCESS_READ))
        with pytest.raises(FormatError, match="enc.rlab.*cannot map"):
            load_checkpoint(path)
